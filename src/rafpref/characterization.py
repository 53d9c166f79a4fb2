"""Finite-model verification of the lexicographic characterization.

The search space is every weak order (ordered set partition) on a grid's
points, not just linear orders: indifference between distinct points must
be allowed a priori or part of the conclusion would be assumed. Candidates
are filtered by the requested axioms and the survivors compared pointwise
against the priority-order comparator.

With pruning every requested axiom prunes, so every leaf the search
reaches is a survivor. The walk places blocks best-first. A pair axiom
(WeakDominance, StrongMonotonicity, StrongDominance) forces pairs: a
point may join a block only once every point that must beat it has been
placed. A group axiom (NonCompensation, IWA, WeakIWA) asks for one weak
verdict per group of pairs: placing a block decides every pair that
touches it, and a block that decides two pairs of one group differently
is refused (forward checking, Haralick & Elliott 1980). The candidates a
refused choice would have led to are counted exactly with Fubini-number
arithmetic, per reason, so the reported total provably covers the whole
space: emitted plus skipped must equal the n-th Fubini number or the run
aborts. How much of the space the walk must visit is not known in
advance, so it counts its steps and stops past WALK_BUDGET.

Without pruning the walk emits every weak order and each requested
filter runs on it in turn: the brute-force reference, refused above
DEFAULT_MAX_POINTS points. One deterministic walk, _runs, makes that
stream, enumerate_weak_orders's and the pruned one, which is the plain
one filtered by construction. It hands each run over as a description:
the placed points' ranks and a table of every weak order of the points
left, up to 47,293 of them, one byte per rank in a column per point. A
table and its masks depend on sizes alone, so each is built once per
process, in C (_tail, _masks). A walk pruned by forced pairs alone reads
its small subtrees from tables too, of the weak orders the pairs allow;
those depend on the pairs, so each walk builds its own and drops them
when it ends (_dom_table, which builds _tail's with no pair forced).
_rows makes a run's rank tuples in C, already in point order, for
enumerate_weak_orders; the unpruned verify (_sift) still evaluates every
filter on every weak order, but on a whole run at once, as bitmasks of
its rows read from the masks, and builds a tuple only for the survivors
it lists. The two searches give
the same survivors and verdict; they differ in checked, pruned_away,
pruned_by, pass_counts and elapsed_ms (see CharacterizationReport). The
search runs in one process.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cache
from itertools import chain, compress, count, islice, repeat
from math import comb
from typing import Iterable, Iterator, Optional, Sequence

from .core import GridSpec, InvalidGridError, Raf, RafprefError, first_difference, grid_points
from .relations import ComparisonOutcome, RankedRelation, TableRelation, lex_compare, at_least_as_good
from .axioms import PAIR_AXIOMS, AxiomId, TooManyPointsError, _members, _Sample, require_check_bound

__all__ = [
    "EqualInputsError",
    "TooManyPointsError",
    "UnprunedWalkError",
    "WalkBudgetError",
    "DEFAULT_MAX_POINTS",
    "WALK_BUDGET",
    "SURVIVOR_LISTING_CAP",
    "VERIFY_AXIOMS",
    "fubini",
    "construct_proof_witness",
    "ProofStep",
    "ProofTrace",
    "proof_trace_check",
    "enumerate_weak_orders",
    "lex_ranking",
    "CharacterizationReport",
    "verify_characterization",
]


class EqualInputsError(RafprefError):
    """Witness construction needs two distinct profiles."""


class UnprunedWalkError(TooManyPointsError):
    """An unpruned walk, enumerate_weak_orders or verify with prune=False,
    was asked for more points than it can start or finish."""


class WalkBudgetError(RafprefError):
    """verify's pruned walk took more than WALK_BUDGET steps."""


# The most points enumerate_weak_orders takes by default, and that verify
# walks with prune=False: fubini(9) = 7,087,261 leaves.
DEFAULT_MAX_POINTS = 9
# The most points enumerate_weak_orders takes whatever its max_points says.
# It bounds the work: the fubini(17) = 1.3e17 weak orders of 17 points
# could never be drained. It also keeps every rank of a plain walk below
# 16, so that _PLUS shifts a tail table's ranks within their bytes; a
# pruned walk of more points reads a table only while its ranks stay below.
_WALK_MAX_POINTS = 16
# With no group axiom to check, the walk makes the subtree of a node with
# at most this many points left one run, read from a table of rank columns
# of one byte per rank: a pruned walk's own table of the orders its forced
# pairs allow, or a plain walk's, built once per process, 47,293 rows at 7
# points, 331 KB per depth and 262 KB of masks. The walk of 8 points is
# 255 runs, against 6,471 with tables of 5. In one interpreter per size
# (2-core Xeon, CPython 3.11, best of six after a first call, two rounds),
# the unpruned SM+WeakIWA verify of {0,1}^3 took 3.8-4.0 ms with tables of
# 7, 3.3-5.8 with 6 and 12 with 5, and the 9-point unpruned WeakIWA verify
# 29-45, 80-85 and 241-276 ms; the first {0,1}^3 verify, which builds
# every table it reads, took 27-31 ms with 7 and 21-34 with tuple tables
# of 5. Tables of 8 would hold 545,835 rows, 4.4 MB per depth plus 4.4 MB
# of masks, and help only the 9-point walk, whose first verify they took
# to 528-657 ms and peak RSS from 18 to 36 MB.
_TAIL_POINTS = 7
# The most steps verify's pruned walk takes: a node with e eligible points
# runs its block loop 2^e times and is charged them as it is entered. The
# heaviest pruned walk of the tests and scripts, WeakIWA alone on
# {0,1/3,2/3,1}^2, takes 336,408; a runaway walk stops within seconds (README).
WALK_BUDGET = 4_000_000
SURVIVOR_LISTING_CAP = 10

# Canonical filter order: cheap pairwise constraints first, quadruple
# constraints last, so pruning and short-circuiting pay off.
VERIFY_AXIOMS = (
    AxiomId.STRONG_MONOTONICITY,
    AxiomId.WEAK_DOMINANCE,
    AxiomId.STRONG_DOMINANCE,
    AxiomId.NON_COMPENSATION,
    AxiomId.IWA,
    AxiomId.WEAK_IWA,
)


# fubini's cache: _fubini_values[m] = fubini(m) for every m computed so
# far, and _fubini_row[k] = T(m, k) for the largest of them, the row that
# a later, larger call extends.
_fubini_values = [1]
_fubini_row = [1]


def fubini(n: int) -> int:
    """Count of weak orders on n labeled points, exact.

    T(m, k) = k! S(m, k) counts the weak orders of m points with k blocks:
    the last point either joins one of the k blocks of a weak order of the
    others, or is a block of its own in one of k places among k - 1, so
    T(m, k) = k (T(m - 1, k) + T(m - 1, k - 1)), and fubini(m) is the sum
    of row m. The cache is filled row by row, with no recursion: a first
    call costs about n^2 / 2 additions and small-by-big products."""
    global _fubini_row
    if n < 0:
        raise RafprefError("fubini is defined for nonnegative n")
    values, row = _fubini_values, _fubini_row
    for m in range(len(values), n + 1):
        prev = row + [0]  # T(m - 1, m) = 0
        row = [0, *(k * (prev[k] + prev[k - 1]) for k in range(1, m + 1))]
        _fubini_row = row
        values.append(sum(row))
    return values[n]


# ---------------------------------------------------------------------------
# Proof witness and trace
# ---------------------------------------------------------------------------


def construct_proof_witness(a: Raf, b: Raf) -> Raf:
    """Hybrid profile: b's values through the first differing coordinate k,
    a's values after it.

    The result agrees with a everywhere except exactly at k, which is what
    lets a single-coordinate monotonicity step and an independence step
    pin down the verdict on (a, b).
    """
    k = first_difference(a, b)
    if k is None:
        raise EqualInputsError("profiles are identical")
    return Raf(a.context, b.values[:k] + a.values[k:])


@dataclass(frozen=True)
class ProofStep:
    name: str
    passed: bool
    expected: str
    actual: str


@dataclass(frozen=True)
class ProofTrace:
    """Per-step audit of the characterization argument on one profile pair."""

    first: Raf
    second: Raf
    witness: Raf
    index: int
    steps: tuple[ProofStep, ...]

    @property
    def passed(self) -> bool:
        return all(step.passed for step in self.steps)


def proof_trace_check(rel, a: Raf, b: Raf) -> ProofTrace:
    """Replay the characterization argument against a relation's verdicts.

    Builds the hybrid witness c and checks: (i) the single-coordinate
    monotonicity step on (c, a); (ii) the independence step, that the weak
    verdicts on (a, b) and (a, c) agree in both orientations (the sign
    condition holds by construction since c and b agree at k); (iii) that
    the relation's verdict on (a, b) matches the priority-order comparator.
    A relation satisfying strong monotonicity and weak independence of
    worse alternatives on a domain containing c passes every step.
    """
    k = first_difference(a, b)
    if k is None:
        raise EqualInputsError("profiles are identical")
    c = construct_proof_witness(a, b)
    i = k - 1
    steps = []

    expected = (
        ComparisonOutcome.SECOND_PREFERRED
        if a.values[i] > c.values[i]
        else ComparisonOutcome.FIRST_PREFERRED
    )
    got = rel.compare(c, a)
    steps.append(
        ProofStep(
            "monotonicity step",
            got is expected,
            f"compare(c, a) = {expected}",
            f"compare(c, a) = {got}",
        )
    )

    g_ab = at_least_as_good(rel.compare(a, b))
    g_ac = at_least_as_good(rel.compare(a, c))
    g_ba = at_least_as_good(rel.compare(b, a))
    g_ca = at_least_as_good(rel.compare(c, a))
    steps.append(
        ProofStep(
            "independence step",
            g_ab == g_ac and g_ba == g_ca,
            "weak verdicts on (a, b) and (a, c) agree in both orientations",
            f"a>=b:{g_ab} a>=c:{g_ac} b>=a:{g_ba} c>=a:{g_ca}",
        )
    )

    lex = lex_compare(a, b)
    got = rel.compare(a, b)
    steps.append(
        ProofStep(
            "conclusion",
            got is lex,
            f"compare(a, b) = {lex}",
            f"compare(a, b) = {got}",
        )
    )
    return ProofTrace(a, b, c, k, tuple(steps))


# ---------------------------------------------------------------------------
# Weak order enumeration
# ---------------------------------------------------------------------------


def _eligible(remaining: int, dom: list[int]) -> int:
    """The points of remaining whose forced dominators are all placed; the
    completions that the others would lead to number _refused(r, e)."""
    eligible = remaining
    for b in _members(remaining):
        if dom[b] & remaining:
            eligible ^= 1 << b
    return eligible


@cache
def _refused(r: int, e: int) -> int:
    """The completions refused at a node with r >= 1 points left and e of
    them eligible, 0 when e = r. A first block S leads to fubini(r - |S|)
    of them; only the nonempty subsets of the eligible points are taken,
    so the refused ones number fubini(r) minus
    sum over s = 1..e of comb(e, s) * fubini(r - s). The count depends on
    r and e alone, never on the blocks the walk goes on to try, so a walk
    that skipped an eligible block would still fail verify's Fubini check."""
    return fubini(r) - sum(comb(e, s) * fubini(r - s) for s in range(1, e + 1))


def _fix(
    block: int,
    rest: int,
    heads: list[list[tuple[int, int]]],
    tails: list[list[tuple[int, int]]],
    verdict: list[Optional[bool]],
    fixed: list[int],
) -> bool:
    """Fix the weak verdict of every grouped pair that placing block first
    among the points of rest decides: i >= j holds for i in block and j in
    rest, and fails for j in block and i placed after it. heads[p] and
    tails[p] list (group, partner mask) for the pairs p starts and ends.
    Each newly fixed group goes on fixed; False when a group would hold
    both verdicts."""
    after = rest ^ block
    for p in _members(block):
        for g, partners in heads[p]:
            if partners & rest:
                v = verdict[g]
                if v is None:
                    verdict[g] = True
                    fixed.append(g)
                elif not v:
                    return False
        for g, partners in tails[p]:
            if partners & after:
                v = verdict[g]
                if v is None:
                    verdict[g] = False
                    fixed.append(g)
                elif v:
                    return False
    return True


def _walk(
    n: int,
    dom: Optional[list[int]] = None,
    groups: Optional[dict[str, list[list[tuple[int, int]]]]] = None,
    pruned_by: Optional[dict[str, int]] = None,
) -> Iterator[tuple[int, ...]]:
    """Rank tuple of every ordered set partition of range(n) that the
    constraints leave, exactly once: enumerate_weak_orders and both verify
    searches drain it. Depth-first, best block first, candidate blocks by
    decreasing bitmask.

    Bit i of dom[j] demands rank[i] < rank[j]: a point may join a block
    only once its dominators are placed. groups maps a reason to groups of
    pairs (i, j) whose weak verdict rank[i] <= rank[j] must be constant per
    group: a block that decides two pairs of one group differently is
    refused. Either needs the caller's pruned_by: the completions a refusal
    skips are added to pruned_by["dominators"] or pruned_by[reason], so that
    the stream's length plus their sum is fubini(n). Refusing only skips
    blocks, so the stream is the unconstrained one less the refused tuples.
    The stream is the rows of _runs' runs, chained.
    """
    return chain.from_iterable(map(_rows, _runs(n, dom, groups or {}, pruned_by)))


# A run of the walk: (ranks, place, cols). place[i] is point i's column in
# the tail table cols, or -1 once i is placed, and then ranks[i] is its
# rank; a leaf places every point and has no table, cols None.
_Run = tuple[tuple[int, ...], tuple[int, ...], Optional[tuple[bytes, ...]]]


def _runs(
    n: int,
    dom: Optional[list[int]],
    groups: dict[str, list[list[tuple[int, int]]]],
    pruned_by: Optional[dict[str, int]],
) -> Iterator[_Run]:
    """_walk's stream in runs, each a description that _rows turns into
    its rank tuples in point order. A leaf is its ranks alone. In a plain
    walk, one given no pruned_by, a child with r <= _TAIL_POINTS points
    left is its whole subtree: the placed points keep their ranks, and the
    k-th point of rest reads column k of _tail(r, depth), the r-point
    walk's ranks as the child of a node at that depth takes them, one
    byte each, built once per process. The walk of 8
    points is 255 such runs. Relabelling rest onto 0..r-1 keeps the order
    of its bits, so the rows are exactly the subtree the walk would visit.
    A pruned walk counts its steps and raises WalkBudgetError past
    WALK_BUDGET. With a group axiom, or with nothing to refuse, it takes
    no table: it reads each block's bits inline. With forced pairs alone
    the subtree below a child depends on the points left and nothing
    else, so a child of at most _TAIL_POINTS points is one run read from
    _dom_table, built once per walk and kept by rest in a dict of the
    walk's own. The run adds to pruned_by and to the steps exactly what
    the walk would have node by node, so the counts, the order and
    whether the budget is passed stay those of a walk with no table. A
    run is handed over as a description, not as its rows, so that the
    unpruned verify can filter it whole from the masks of its table's
    size (_sift) and build no tuple per order.
    """
    if not n:  # no points leave one empty order and nothing to refuse
        yield (), (), None
        return
    fub = [fubini(r) for r in range(n + 1)]
    # per reason, per point: (group, partner mask) of the pairs it
    # starts and of the pairs it ends
    index = []
    verdict: list[Optional[bool]] = []
    for reason, data in groups.items():
        heads: list[dict[int, int]] = [{} for _ in range(n)]
        tails: list[dict[int, int]] = [{} for _ in range(n)]
        for grp in data:
            g = len(verdict)
            verdict.append(None)
            for i, j in grp:
                heads[i][g] = heads[i].get(g, 0) | 1 << j
                tails[j][g] = tails[j].get(g, 0) | 1 << i
        index.append(
            (reason, [list(h.items()) for h in heads], [list(t.items()) for t in tails])
        )
    plain = pruned_by is None  # enumerate_weak_orders, prune=False, _tail
    # the most points left at which a child's subtree is one run: of
    # _tail in a plain walk, of _dom_table in one pruned by dom alone
    tabled = _TAIL_POINTS if plain or dom is not None and not index else 0
    # this walk's dominator tables, by the mask of the points left
    tables: dict[int, _Subtree] = {}
    left = WALK_BUDGET
    places: dict[int, tuple[int, ...]] = {0: (-1,) * n}
    ranks = [0] * n
    # the stack, by depth: points left, eligible points, next block,
    # groups whose verdict the placed block fixed
    rems = [0] * (n + 1)
    eligs = [0] * (n + 1)
    subs = [0] * (n + 1)
    fixed: list[list[int]] = [[] for _ in range(n + 1)]
    depth = 0
    rest = (1 << n) - 1
    while True:
        # a new node: the points of rest go into blocks depth, depth+1, ...
        if plain or dom is None:
            eligible = rest
        else:
            eligible = _eligible(rest, dom)
            pruned_by["dominators"] += _refused(rest.bit_count(), eligible.bit_count())
        if not plain:
            left -= 1 << eligible.bit_count()
            if left < 0:
                raise _over_budget(n)
        rems[depth] = rest
        eligs[depth] = subs[depth] = eligible
        while True:
            sub = subs[depth]
            undo = fixed[depth]
            for g in undo:
                verdict[g] = None
            undo.clear()
            if not sub:
                depth -= 1
                if depth < 0:
                    return
                continue
            subs[depth] = (sub - 1) & eligs[depth]
            rest = rems[depth]
            for reason, heads, tails in index:
                if not _fix(sub, rest, heads, tails, verdict, undo):
                    pruned_by[reason] += fub[rest.bit_count() - sub.bit_count()]
                    break
            else:
                for b in _members(sub):
                    ranks[b] = depth
                rest ^= sub
                r = rest.bit_count()
                # a table's ranks, depth + r at most, stay below 16, so
                # that _PLUS shifts them; deeper, a pruned walk of more
                # points goes on node by node
                if r > tabled or r and depth + r >= _WALK_MAX_POINTS:
                    break
                place = places.get(rest)
                if place is None:
                    where = dict(zip(_members(rest), count()))
                    place = places[rest] = tuple(where.get(i, -1) for i in range(n))
                if not r:
                    cols = None
                elif plain:
                    cols = _tail(r, depth)
                else:
                    cols, refused, steps = _dom_table(rest, dom, tables)
                    pruned_by["dominators"] += refused
                    left -= steps
                    if left < 0:
                        raise _over_budget(n)
                    if depth:
                        cols = _shifted(cols, depth)
                yield tuple(ranks), place, cols
        depth += 1


def _over_budget(n: int) -> WalkBudgetError:
    return WalkBudgetError(f"the pruned walk of {n} points passed its budget of "
                           f"{WALK_BUDGET} steps: these axioms prune too little")


# A pruned walk's subtree below a node, when no group axiom is checked:
# (cols, refused, steps), the table of its weak orders, what it adds to
# pruned_by["dominators"] and what it charges against WALK_BUDGET.
_Subtree = tuple[tuple[bytes, ...], int, int]


def _dom_table(
    rest: int, dom: Optional[list[int]], tables: dict[int, _Subtree]
) -> _Subtree:
    """The subtree of a walk pruned by dom alone below a node whose points
    left are rest, r >= 1 of them: the weak orders of rest that respect
    the forced pairs inside it, in the walk's order, as r columns of one
    byte per rank, column k for the k-th point of rest, ranks counted from
    1 for the node's block, as a child of the root reads them. Each
    eligible block, by decreasing bitmask, joins its rank-0 bytes with its
    child's table, and the whole is shifted by one; the node adds _refused
    and its 2^e steps to its children's. Within one walk the masks are
    fixed, so the subtree depends on rest alone and tables, the walk's own
    dict, keeps it by rest; the dict goes when the walk does. With dom
    None nothing is forced, the subtree depends on r alone, tables keeps
    it by r, and its table is _tail(r, 0)."""
    key = rest if dom is not None else rest.bit_count()
    entry = tables.get(key)
    if entry is not None:
        return entry
    eligible = rest if dom is None else _eligible(rest, dom)
    e = eligible.bit_count()
    refused, steps = _refused(rest.bit_count(), e), 1 << e
    members = list(_members(rest))
    pieces: list[list[bytes]] = [[] for _ in members]
    sub = eligible
    while sub:
        after = rest ^ sub
        if after:
            cols, more, charged = _dom_table(after, dom, tables)
            refused += more
            steps += charged
            rows = len(cols[0])
            child = iter(cols)
        else:
            rows, child = 1, iter(())
        block = bytes(rows)
        for piece, b in zip(pieces, members):
            piece.append(block if sub >> b & 1 else next(child))
        sub = (sub - 1) & eligible
    entry = tables[key] = _shifted(tuple(map(b"".join, pieces)), 1), refused, steps
    return entry


def _rows(run: _Run) -> Iterable[tuple[int, ...]]:
    """A run's rank tuples in point order, made in C: a leaf's one tuple,
    or a zip of n columns, where a placed point's column repeats its rank
    and a point of rest reads its column of the tail table."""
    ranks, place, cols = run
    if cols is None:
        return (ranks,)
    return zip(*[cols[k] if k >= 0 else repeat(v) for k, v in zip(place, ranks)])


@cache
def _tail(r: int, d: int) -> tuple[bytes, ...]:
    """The r-point walk's rank tuples as the child of a node at depth d
    reads them, each rank plus d + 1, as r columns of one byte per rank,
    column k holding point k's ranks: _rows zips a child's tuples from
    them straight into point order, as iterating bytes yields ints. Built
    once per process, on first use, with no rank tuple: _tail(r, 0) is
    the table _dom_table builds for r points that no pair forces, and
    _tail(r, d) is that table with d added to every rank."""
    if d:
        return _shifted(_tail(r, 0), d)
    return _dom_table((1 << r) - 1, None, {})[0]


# _PLUS[d] translates a rank byte to the rank plus d; the ranks of a run's
# table stay below _WALK_MAX_POINTS = 16, so d + 15 < 256
_PLUS = tuple(bytes(range(d, 256)) + bytes(d) for d in range(_WALK_MAX_POINTS))


def _shifted(cols: tuple[bytes, ...], d: int) -> tuple[bytes, ...]:
    """A table's columns with every rank plus d, by one translate each."""
    shift = _PLUS[d]
    return tuple([col.translate(shift) for col in cols])


# the bytes a guarded subtraction leaves, 0x80 where a >= b and 0 where
# a < b, to the digits of a binary numeral
_LT_DIGITS = bytes.maketrans(b"\x80\0", b"01")


@cache
def _masks(r: int) -> tuple[tuple[int, ...], ...]:
    """The masks of every tail table of r >= 1 points, built once per
    process from _tail(r, 0): lt, where bit t of lt[k][l] is set when row t
    ranks point k strictly before point l. Every table of r points has the
    same rows less a constant, so one set serves every depth. No row ranks
    a point before itself, so lt[k][k] is 0. Each other mask is made in C,
    with no call per row: columns a and b are read as integers, row t in
    byte t, and with the guard bit 0x80 set in every byte of a, a - b keeps
    a byte's guard bit exactly where a >= b, since ranks stay below 0x80
    and no borrow crosses a byte. Those bytes, last row first, translate to
    the digits of the mask in binary."""
    cols = _tail(r, 0)
    rows = len(cols[0])
    guard = int.from_bytes(b"\x80" * rows, "little")
    ints = [int.from_bytes(col, "little") for col in cols]
    return tuple(
        tuple(
            0 if k == l
            else int((((a | guard) - b) & guard).to_bytes(rows, "big").translate(_LT_DIGITS), 2)
            for l, b in enumerate(ints)
        )
        for k, a in enumerate(ints)
    )


def enumerate_weak_orders(
    points: Sequence[Raf], max_points: int = DEFAULT_MAX_POINTS
) -> Iterator[RankedRelation]:
    """Every total preorder on the points exactly once, as an iterator.

    The stream is deterministic, its length is the n-th Fubini number, and
    it is _walk's with nothing to refuse: verify's pruned search drains the
    same walk, which then skips refused blocks but never reorders a tuple.
    The call itself, before any walk exists, raises RafprefError for a
    max_points that is not an int (a bool included), no points or a
    repeated one, TooManyPointsError for more than max_points points, and
    its subclass UnprunedWalkError for more than 16 whatever max_points
    says.
    """
    if not isinstance(max_points, int) or isinstance(max_points, bool):
        raise RafprefError(f"max_points must be an int, not {max_points!r:.40}")
    pts = tuple(points)
    n = len(pts)
    if n < 1:
        raise RafprefError("need at least one point")
    if n > max_points:
        raise TooManyPointsError(
            f"{n} points exceeds the enumeration bound of {max_points}"
        )
    if n > _WALK_MAX_POINTS:
        raise UnprunedWalkError(
            f"{n} points: the walk of all fubini({n}) weak orders is refused "
            f"above {_WALK_MAX_POINTS} points, whatever max_points says"
        )
    if len(set(pts)) != n:
        raise RafprefError("points must be pairwise distinct")
    # what RankedRelation(pts, rv) does, without a Python frame per order
    return map(tuple.__new__, repeat(RankedRelation), zip(repeat(pts), _walk(n)))


def lex_ranking(points: Sequence[Raf]) -> RankedRelation:
    """Rank table of the priority-order comparator restricted to the points."""
    pts = tuple(points)
    order = sorted(range(len(pts)), key=lambda i: pts[i].values, reverse=True)
    ranks = [0] * len(pts)
    for r, i in enumerate(order):
        ranks[i] = r
    return RankedRelation(pts, tuple(ranks))


# ---------------------------------------------------------------------------
# Constraint compilation (fast candidate filters over rank vectors)
# ---------------------------------------------------------------------------
#
# Each axiom compiles to plain data:
#   ("forced", [(i, j), ...])   every pair needs rank[i] < rank[j]
#   ("groups", [[(i, j), ...], ...])  rank[i] <= rank[j] constant per group
#
# The forced form captures the dominance axioms. The group form captures
# the biconditional axioms: the hypothesis of each depends only on the
# points, so pairs sharing a hypothesis key must share their weak verdict.
# Both are read from the run's _Sample: the forced pairs are a pair
# axiom's qualifying pairs and the groups a quadruple axiom's classes, the
# very tables the checkers scan when they re-audit each listed survivor
# on the same _Sample. The test suite checks those tables against the
# raf-level hypothesis predicates.


def _compile_constraint(axiom: AxiomId, sample: _Sample):
    if axiom in PAIR_AXIOMS:
        return ("forced", sample.qualifying(axiom))
    # singleton groups constrain nothing; drop them to keep the hot loop lean
    return ("groups", [g for g in sample.classes(axiom).values() if len(g) > 1])


def _sift(
    runs: Iterable[_Run], filters: Sequence[tuple[str, list]], cap: int
) -> tuple[list[int], list[tuple[int, ...]]]:
    """Every row of every run through the compiled filters in order:
    counts[0] is the number of rows, counts[k] the number that pass the
    first k filters, and kept the first cap rows that pass them all, in
    stream order. A run is filtered whole, as a bitmask of its rows, its
    row count read from its table, so a pruned walk's tables of any shape
    pass with no filter, and no tuple is built but the kept ones. Only a
    filter reads the masks; a filtered run is an unpruned walk's, whose
    table is _tail's. A pair (i, j) holds on all rows
    or none when i is placed: by ranks if j is placed too, and always if
    not, as a placed point ranks before every point of rest. With i in
    rest it fails if j is placed, and otherwise reads the mask of the two
    columns that _masks builds once per process for the table's size. A
    forced pair keeps the rows where rank[i] < rank[j] and a group the
    rows where all its pairs' weak verdicts rank[i] <= rank[j] agree; a
    run is dropped at its first empty mask."""
    counts = [0] * (len(filters) + 1)
    kept: list[tuple[int, ...]] = []
    stages = tuple(enumerate(filters, 1))
    for run in runs:
        ranks, place, cols = run
        rows = 1 if cols is None else len(cols[0])
        full = (1 << rows) - 1
        if stages and cols is not None:
            lt = _masks(len(cols))
        counts[0] += rows
        alive = full
        for k, (kind, data) in stages:
            if kind == "forced":
                for i, j in data:
                    p, q = place[i], place[j]
                    if p < 0:
                        if q < 0 and ranks[i] >= ranks[j]:
                            alive = 0
                            break
                    elif q < 0:
                        alive = 0
                        break
                    else:
                        alive &= lt[p][q]
                        if not alive:
                            break
            else:
                for grp in data:
                    # the rows where every pair holds, and where every one fails
                    yes = no = full
                    for i, j in grp:
                        p, q = place[i], place[j]
                        if p < 0:
                            if q >= 0 or ranks[i] <= ranks[j]:
                                no = 0
                            else:
                                yes = 0
                        elif q < 0:
                            yes = 0
                        else:
                            fails = lt[q][p]
                            yes &= full ^ fails
                            no &= fails
                    alive &= yes | no
                    if not alive:
                        break
            if not alive:
                break
            counts[k] += alive.bit_count()
        else:
            if len(kept) < cap:
                # bit t of alive keeps row t
                kept += islice(compress(_rows(run), map(int, bin(alive)[:1:-1])), cap - len(kept))
    return counts, kept


# ---------------------------------------------------------------------------
# Filtered search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CharacterizationReport:
    """Outcome of one verification run.

    enumerated always equals checked + pruned_away and is verified against
    the Fubini recurrence. checked counts the leaves the walk reached.
    Without pruning that is every weak order, and pass_counts are
    sequential: each axiom sees only the candidates that survived the
    previous filters. With pruning every leaf reached is a survivor, so
    checked equals survivor_count and every pass count equals checked;
    pruned_by then splits pruned_away by reason: "dominators" (the forced
    pairs of the pair axioms) and each requested group axiom's name, a
    refused block counting for the first axiom in canonical order that it
    breaks. pruned_by is empty without pruning.
    """

    grid: GridSpec
    points: tuple[Raf, ...]
    axiom_order: tuple[AxiomId, ...]
    pruned: bool
    enumerated: int
    checked: int
    pruned_away: int
    pruned_by: tuple[tuple[str, int], ...]
    pass_counts: tuple[tuple[AxiomId, int], ...]
    survivor_count: int
    survivors: tuple[RankedRelation, ...]
    survivors_truncated: bool
    survivor_lex_agreement: tuple[bool, ...]
    matches_lex: bool
    elapsed_ms: float


def _audit_survivor(
    ranking: RankedRelation, axiom_set: Iterable[AxiomId], sample: _Sample
) -> None:
    """Re-check a survivor through the literal checkers, asking a
    TableRelation for every verdict; disagreement with the compiled
    filters is an internal error, never a report.

    The scans read the per-sample tables of sample, the _Sample the
    search was compiled from, so the survivor must rank its points in
    that order; one _Sample serves every survivor of a run.
    """
    if ranking.domain != sample.points:
        raise RafprefError("internal error: survivor domain is not the audited point set")
    report = sample.audit(TableRelation(ranking), axiom_set)
    for result in report.results:
        if not result.passed:
            raise RafprefError(
                f"internal error: compiled filter and checker disagree on {result.axiom}"
            )


def verify_characterization(
    grid: GridSpec,
    axiom_set: Iterable[AxiomId],
    prune: bool = True,
    workers: int = 1,
) -> CharacterizationReport:
    """Enumerate all weak orders on the grid, filter by the axioms, and
    compare the survivors against the priority-order comparator.

    With pruning (the default) every requested axiom prunes the walk: the
    pair axioms through their forced pairs, the group axioms by refusing
    a block that fixes two pairs of one group to different weak verdicts.
    Every leaf reached is then a survivor and no filter runs on it; the
    refused candidates are counted per reason, not lost. prune=False
    walks every weak order and runs each filter on it, the brute-force
    reference. Either way the listed survivors are re-audited through
    the run_checks scans on the one _Sample built here, so each
    per-sample table is built once per run, for the compile and every
    re-audit alike.

    Before any point is built, RafprefError refuses a non-bool prune,
    TooManyPointsError a grid past require_check_bound, InvalidGridError
    one of one level (a vacuous pass), and UnprunedWalkError more than
    DEFAULT_MAX_POINTS points with prune=False. The pruned walk raises
    WalkBudgetError past WALK_BUDGET steps.

    workers is accepted and ignored: the search runs in one process.
    """
    started = time.perf_counter()
    if type(prune) is not bool:  # "no" would prune and be reported as pruned
        raise RafprefError(f"prune must be True or False, not {prune!r:.40}")
    requested = list(dict.fromkeys(axiom_set))
    if not requested:
        raise RafprefError("axiom_set must not be empty")
    bad = [a for a in requested if a not in VERIFY_AXIOMS]
    if bad:
        raise RafprefError(
            f"axiom {bad[0]} cannot drive the verification; "
            f"choose from {[str(a) for a in VERIFY_AXIOMS]}"
        )
    require_check_bound(grid)
    if len(grid.levels) < 2:
        raise InvalidGridError("one level gives one point, whose one weak order "
                               "passes every axiom vacuously; give two or more")
    n = grid.size
    if not prune and n > DEFAULT_MAX_POINTS:
        raise UnprunedWalkError(
            f"grid has {n} points; the unpruned walk visits all fubini({n}) "
            f"weak orders and is refused above {DEFAULT_MAX_POINTS} points"
        )
    sample = _Sample(grid_points(grid))
    order = tuple(a for a in VERIFY_AXIOMS if a in requested)
    constraints = [_compile_constraint(a, sample) for a in order]
    # the pruned walk's constraints; the pair axioms come first, and so does
    # "dominators" in pruned_by. A group list that is empty, or that an earlier
    # reason checks (IWA's is WeakIWA's), refuses nothing but keeps its 0
    dom: Optional[list[int]] = None
    groups: dict[str, list] = {}
    pruned_by: dict[str, int] = {}
    for a, (kind, data) in zip(order, constraints):
        if kind == "forced":
            if dom is None:
                dom = [0] * n
                pruned_by["dominators"] = 0
            for i, j in data:
                dom[j] |= 1 << i
        else:
            pruned_by[str(a)] = 0
            if data and data not in groups.values():
                groups[str(a)] = data
    if not prune:  # every weak order is walked and each filter runs on it
        dom, groups, pruned_by = None, {}, {}
    walk = _runs(n, dom, groups, pruned_by if prune else None)
    # every leaf the pruned walk reaches satisfies every axiom, so no filter runs
    counts, listed = _sift(walk, [] if prune else constraints, SURVIVOR_LISTING_CAP)
    checked, *passed = counts
    survivor_count = passed[-1] if passed else checked
    if prune:
        passed = [checked] * len(constraints)

    pruned_away = sum(pruned_by.values())
    enumerated = checked + pruned_away
    if enumerated != fubini(n):
        raise RafprefError(
            f"internal error: enumeration covered {enumerated} candidates "
            f"but the Fubini recurrence demands {fubini(n)}"
        )

    pts = sample.points
    survivors = tuple(RankedRelation(pts, rv) for rv in listed)
    for ranking in survivors:
        _audit_survivor(ranking, order, sample)
    # grid points are distinct, so lex is a linear order and a survivor
    # agrees with it on every pair exactly when their rank tuples are equal
    lex_ranks = lex_ranking(pts).ranks
    agreement = tuple(s.ranks == lex_ranks for s in survivors)
    matches_lex = survivor_count == 1 and bool(agreement and agreement[0])
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return CharacterizationReport(
        grid=grid,
        points=pts,
        axiom_order=order,
        pruned=prune,
        enumerated=enumerated,
        checked=checked,
        pruned_away=pruned_away,
        pruned_by=tuple(pruned_by.items()),
        pass_counts=tuple(zip(order, passed)),
        survivor_count=survivor_count,
        survivors=survivors,
        survivors_truncated=survivor_count > len(survivors),
        survivor_lex_agreement=agreement,
        matches_lex=matches_lex,
        elapsed_ms=elapsed_ms,
    )
