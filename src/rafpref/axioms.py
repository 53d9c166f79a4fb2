"""Executable audits of the order, dominance, and independence axioms.

Every checker takes an arbitrary comparator and a finite sample of
profiles sharing one context, covers the whole relevant tuple space, and
reports either a clean pass or concrete counterexample witnesses, listed
in canonical order (row-major over sample indices), that replay
deterministically.

Every audit reads two tables over the n^2 ordered pairs of the sample:
the signature of each pair, its up-set and down-set packed into one int,
and the relation's verdicts, drawn once per pair into one table per
audit. Every hypothesis depends only on the order of each coordinate's
values, never on their size, so the points are first replaced by integer
rank codes, and the signatures are built from the codes. Each hypothesis
table is then read off the signatures with each distinct signature
decoded once: NonCompensation's classes are the pairs grouped by
signature, WeakIWA's classes and each pair axiom's qualifying pairs are
unions of such groups, and Axiom2MS's classes split the single-coordinate
groups by rank code. The codes, the signatures and the tables belong to
one _Sample, built once per run_checks call and once per verify run.

- Reflexivity visits every point; mirror consistency and connectedness
  every ordered pair.
- The pair axioms' hypotheses are conditions on a pair's up and down
  sets, so only the qualifying pairs are put to the relation.
- Transitivity counts ordered triples from one bit row of weak verdicts
  per point, in O(n^2) big-integer steps instead of n^3 lookups.
- Each quadruple axiom's hypothesis says that its two pairs share a key
  derived from their signatures, so the axiom holds exactly when the
  weak verdict is constant on every key class; qualifying and violating
  quadruples are counted from the classes instead of visiting all n^4.

Each axiom has one scan, and every scan has one shape: it returns
(tuples examined, qualifying, violation count, witnesses), with exact
counts and the witnesses as a lazy stream in canonical order. run_checks
runs the requested scans in one pass over ALL_AXIOMS and draws only the
witnesses the config records; a scan with no violation draws none, so a
clean audit never starts a witness stream.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from functools import cached_property, cmp_to_key, partial, reduce
from heapq import merge
from itertools import compress, count, islice, product, repeat
from math import gcd
from operator import add, and_, getitem, is_not
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .core import (
    ContextMismatchError,
    GridSpec,
    Raf,
    RafprefError,
    first_difference,
    pointwise_geq,
    require_same_context,
    strictly_dominates,
)
from .relations import _FIRST, _INDIFFERENT, _SECOND, ComparisonOutcome, PreferenceRelation

__all__ = [
    "AxiomId",
    "ORDER_AXIOMS",
    "PAIR_AXIOMS",
    "QUAD_AXIOMS",
    "ALL_AXIOMS",
    "CheckConfig",
    "DEFAULT_CONFIG",
    "CHECK_MAX_POINTS",
    "TooManyPointsError",
    "require_check_bound",
    "AxiomViolation",
    "AxiomResult",
    "AxiomReport",
    "check_order_axioms",
    "check_weak_dominance",
    "check_strong_monotonicity",
    "check_strong_dominance",
    "check_non_compensation",
    "check_axiom2_ms",
    "check_iwa",
    "check_weak_iwa",
    "run_checks",
    "replay_violation",
    "single_coordinate_increase",
    "qualifies_strong_dominance",
    "qualifies_non_compensation",
    "qualifies_axiom2",
    "qualifies_iwa_at",
    "iwa_indices",
    "qualifies_weak_iwa",
]


class AxiomId(str, enum.Enum):
    """Stable axiom names used in reports, the CLI, and JSON output."""

    REFLEXIVE = "Reflexive"
    MIRROR_CONSISTENT = "MirrorConsistent"
    CONNECTED = "Connected"
    TRANSITIVE = "Transitive"
    WEAK_DOMINANCE = "WeakDominance"
    STRONG_MONOTONICITY = "StrongMonotonicity"
    STRONG_DOMINANCE = "StrongDominance"
    NON_COMPENSATION = "NonCompensation"
    AXIOM2_MS = "Axiom2MS"
    IWA = "IWA"
    WEAK_IWA = "WeakIWA"

    def __str__(self) -> str:
        return self.value

    @classmethod
    def parse(cls, name: str) -> "AxiomId":
        key = name.strip().lower()
        try:
            return _AXIOM_ALIASES[key]
        except KeyError:
            raise RafprefError(f"unknown axiom {name!r:.40}") from None


_AXIOM_ALIASES: dict[str, AxiomId] = {m.value.lower(): m for m in AxiomId}
_AXIOM_ALIASES["sm"] = AxiomId.STRONG_MONOTONICITY

ORDER_AXIOMS = (
    AxiomId.REFLEXIVE,
    AxiomId.MIRROR_CONSISTENT,
    AxiomId.CONNECTED,
    AxiomId.TRANSITIVE,
)
PAIR_AXIOMS = (
    AxiomId.WEAK_DOMINANCE,
    AxiomId.STRONG_MONOTONICITY,
    AxiomId.STRONG_DOMINANCE,
)
QUAD_AXIOMS = (
    AxiomId.NON_COMPENSATION,
    AxiomId.AXIOM2_MS,
    AxiomId.IWA,
    AxiomId.WEAK_IWA,
)
ALL_AXIOMS = ORDER_AXIOMS + PAIR_AXIOMS + QUAD_AXIOMS


@dataclass(frozen=True)
class CheckConfig:
    """Checker options. Every scan covers its whole tuple space; with
    all_violations every counterexample is recorded, not just the first."""

    all_violations: bool = False


DEFAULT_CONFIG = CheckConfig()

# The most points in a sample that the command line checks and that verify
# audits, refused before any table is built: each _Sample table holds the
# n^2 pairs. On {0,1}^10, 1,024 points, one process on a 2-core Xeon
# (CPython 3.11, 3 runs) took 1.5-2.2 s to build the tables and 1.3-2.2 s
# more for an all-axiom lex audit, at a peak RSS of 171 MB. run_checks
# itself takes a sample of any size.
CHECK_MAX_POINTS = 1024


class TooManyPointsError(RafprefError):
    """A point set exceeds a bound on the work it would take."""


def require_check_bound(grid: GridSpec) -> None:
    """Refuse, before any point is built, a grid with more points or a
    higher arity than CHECK_MAX_POINTS: check --grid and verify alike."""
    if not grid.within(CHECK_MAX_POINTS):
        raise TooManyPointsError(f"the grid has {grid.size_text()} points at arity {grid.arity}; "
                                 f"the check bound of {CHECK_MAX_POINTS} caps both")


@dataclass(frozen=True)
class AxiomViolation:
    """One concrete counterexample: the witness tuple and what was observed."""

    axiom: AxiomId
    witness: tuple[Raf, ...]
    observed: tuple[ComparisonOutcome, ...]
    index: Optional[int] = None  # 1-based coordinate k (or y) where applicable
    detail: str = ""


@dataclass(frozen=True)
class AxiomResult:
    """Outcome of one axiom scan.

    tuples_examined is the number of tuples the scan covers: n, n(n-1),
    n^3 or n^4 for a sample of n points, whether the tuples were visited
    one by one or counted from a table. Every scan is exhaustive.
    """

    axiom: AxiomId
    passed: bool
    tuples_examined: int
    qualifying: int
    violation_count: int
    violations: tuple[AxiomViolation, ...]

    @property
    def vacuous(self) -> bool:
        """Passed without a single tuple meeting the axiom's hypothesis."""
        return self.passed and self.qualifying == 0


@dataclass(frozen=True)
class AxiomReport:
    """Results of one or more axiom scans over a single sample."""

    results: tuple[AxiomResult, ...]
    sample_size: int

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def result_for(self, axiom: AxiomId) -> AxiomResult:
        for r in self.results:
            if r.axiom is axiom:
                return r
        raise RafprefError(f"no result for axiom {axiom}")


# ---------------------------------------------------------------------------
# Hypothesis predicates on profiles. These state what qualifies a tuple;
# the scans use equivalent conditions on the pair-signature table, and
# replay_violation and the tests go back through these.
# ---------------------------------------------------------------------------


def single_coordinate_increase(a: Raf, b: Raf) -> Optional[int]:
    """1-based coordinate where a exceeds b, if that is their only difference."""
    require_same_context(a, b)
    found: Optional[int] = None
    for i, (x, y) in enumerate(zip(a.values, b.values)):
        if x != y:
            if found is not None or x < y:
                return None
            found = i + 1
    return found


def qualifies_strong_dominance(a: Raf, b: Raf) -> bool:
    """a != b and a is coordinatewise at least b."""
    return a.values != b.values and pointwise_geq(a, b)


def _updown(a: Raf, b: Raf) -> tuple[int, int]:
    """Bit i of up/down set when a is strictly above/below b at coordinate i+1."""
    up = down = 0
    for i, (x, y) in enumerate(zip(a.values, b.values)):
        if x > y:
            up |= 1 << i
        elif x < y:
            down |= 1 << i
    return up, down


def qualifies_non_compensation(a: Raf, b: Raf, c: Raf, d: Raf) -> bool:
    """The two pairs have identical up-sets and identical down-sets."""
    for other in (b, c, d):
        require_same_context(a, other)
    return _updown(a, b) == _updown(c, d)


def qualifies_axiom2(a: Raf, b: Raf, c: Raf, d: Raf) -> Optional[int]:
    """Single-coordinate hypothesis: both pairs differ only at one shared
    coordinate y with matching values there; returns the 1-based y."""
    for other in (b, c, d):
        require_same_context(a, other)
    diffs = [i for i, (x, z) in enumerate(zip(a.values, b.values)) if x != z]
    if len(diffs) != 1:
        return None
    y = diffs[0]
    others_equal = all(x == z for i, (x, z) in enumerate(zip(c.values, d.values)) if i != y)
    same_values = c.values[y] == a.values[y] and d.values[y] == b.values[y]
    return y + 1 if others_equal and same_values else None


def qualifies_iwa_at(a: Raf, b: Raf, c: Raf, d: Raf, k: int) -> bool:
    """Restricted-signature hypothesis at 1-based k: the first pair differs
    at k and both pairs show the same up/down pattern on coordinates <= k."""
    for other in (b, c, d):
        require_same_context(a, other)
    if a.values[k - 1] == b.values[k - 1]:
        return False
    mask = (1 << k) - 1
    up1, down1 = _updown(a, b)
    up2, down2 = _updown(c, d)
    return (up1 & mask, down1 & mask) == (up2 & mask, down2 & mask)


def iwa_indices(a: Raf, b: Raf, c: Raf, d: Raf) -> tuple[int, ...]:
    """All 1-based k at which the quadruple meets the restricted hypothesis."""
    arity = a.context.arity
    return tuple(k for k in range(1, arity + 1) if qualifies_iwa_at(a, b, c, d, k))


def qualifies_weak_iwa(a: Raf, b: Raf, c: Raf, d: Raf) -> Optional[int]:
    """Shared first-difference hypothesis: both pairs first differ at the
    same 1-based k with the same strict direction there; returns k."""
    require_same_context(a, c)
    ka = first_difference(a, b)
    kc = first_difference(c, d)
    if ka is None or ka != kc:
        return None
    sign_ab = a.values[ka - 1] > b.values[ka - 1]
    sign_cd = c.values[ka - 1] > d.values[ka - 1]
    return ka if sign_ab == sign_cd else None


# ---------------------------------------------------------------------------
# Scan machinery
# ---------------------------------------------------------------------------


# orders (numerator, denominator) pairs with positive denominators by value
_BY_VALUE = cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1])


def _rank_codes(points: Sequence[Raf]) -> list[tuple[int, ...]]:
    """codes[i][c]: the rank of point i's value at 0-based coordinate c
    among the sample's distinct values there, an order-preserving integer
    code, equal exactly where the values are.

    Read from the points' integer ratios, with no Fraction built: each
    (numerator, denominator) pair a column holds is reduced to lowest
    terms once, and the distinct values are ordered by cross-multiplying.
    """
    dens = [p.denominator for p in points]
    codes = []
    for column in zip(*[p.numerators for p in points]):
        keys = list(zip(column, dens))
        lowest = {}
        for p, q in set(keys):
            g = gcd(p, q)
            lowest[p, q] = (p // g, q // g)
        levels = sorted(set(lowest.values()), key=_BY_VALUE)
        rank = dict(zip(levels, count()))
        codes.append(map({key: rank[v] for key, v in lowest.items()}.__getitem__, keys))
    return list(zip(*codes))


def _pair_signatures(codes: Sequence[tuple[int, ...]]) -> list[int]:
    """The packed signature up | down << d of every ordered pair of points,
    row-major: entry i * n + j for point i against point j.

    Bit c of up/down is set when point i is strictly above/below point j
    at 0-based coordinate c, for arity d. The rows are read off the rank
    codes with no loop over coordinates: for each coordinate and each code
    v there, one step tuple gives, for every point j, the bit that a point
    coded v sets against j there, and each row is the elementwise sum of its
    point's d step tuples, a fold of map(add, ...) run in C.
    """
    d = len(codes[0])
    steps = []
    for c, column in enumerate(zip(*codes)):
        up, down, m = 1 << c, 1 << (c + d), max(column) + 1
        steps.append([tuple(map(([up] * v + [0] + [down] * (m - 1 - v)).__getitem__, column))
                      for v in range(m)])
    fold = partial(map, add)
    sigs: list[int] = []
    for point in codes:
        sigs.extend(reduce(fold, map(getitem, steps, point)))
    return sigs


def _decode(sig: int, arity: int) -> tuple[int, int, int]:
    """(up, down, fd) of a packed signature: fd is the first coordinate
    where the pair differs, -1 when it is equal."""
    up, down = sig & ((1 << arity) - 1), sig >> arity
    diff = up | down
    return up, down, (diff & -diff).bit_length() - 1


def _group(keys: Iterable[Optional[int]], labels: Iterable, pairs: list[tuple[int, int]]) -> dict:
    """The pairs grouped by their keys, both row-major, in one pass run in
    C. labels lists every key in order of first occurrence, so the groups
    come in that order and their members in row-major order; a pair keyed
    None falls in no group."""
    groups: dict = {label: [] for label in labels}
    deque(map(list.append, map(groups.__getitem__, keys), pairs), maxlen=0)
    groups.pop(None, None)
    return groups


class _PairAxiom(NamedTuple):
    """A pair axiom, stated once. A pair qualifies when it is nowhere
    below and meets(up, full) holds of its up-set, full being the set of
    every coordinate; hypothesis is the raf-level predicate for the same
    condition, which replay reads; a failing pair's witness states
    requirement and, when indexed, reports the raised coordinate."""

    meets: Callable[[int, int], bool]
    hypothesis: Callable[[Raf, Raf], object]
    requirement: str
    indexed: bool = False


_PAIR_HYPOTHESES = {
    # strictly above at every coordinate
    AxiomId.WEAK_DOMINANCE: _PairAxiom(
        lambda up, full: up == full, strictly_dominates,
        "strict dominance requires FirstPreferred"),
    # strictly above at exactly one coordinate and equal elsewhere
    AxiomId.STRONG_MONOTONICITY: _PairAxiom(
        lambda up, full: up != 0 and up & (up - 1) == 0, single_coordinate_increase,
        "a single-coordinate increase requires FirstPreferred", indexed=True),
    # nowhere below and above somewhere
    AxiomId.STRONG_DOMINANCE: _PairAxiom(
        lambda up, full: up != 0, qualifies_strong_dominance,
        "coordinatewise dominance requires FirstPreferred"),
}


def _qualifying_pairs(
    axiom: AxiomId, arity: int, decoded: dict[int, tuple[int, int, int]],
    sigs: list[int], pairs: list[tuple[int, int]],
) -> list[tuple[int, int]]:
    """Each ordered pair meeting a pair axiom's hypothesis, in row-major
    order: the union of the signature groups that qualify, each distinct
    signature decided once and the pairs gathered in one pass."""
    full = (1 << arity) - 1
    meets = _PAIR_HYPOTHESES[axiom].meets
    qualifies = {sig: not down and meets(up, full) for sig, (up, down, _) in decoded.items()}
    return list(compress(pairs, map(qualifies.__getitem__, sigs)))


def _hypothesis_classes(
    axiom: AxiomId, codes: Sequence[tuple[int, ...]], decoded: dict[int, tuple[int, int, int]],
    sigs: list[int], pairs: list[tuple[int, int]],
) -> dict[tuple, list[tuple[int, int]]]:
    """Ordered pairs grouped by a quadruple axiom's hypothesis key.

    A quadruple (i, j, k, l) meets the hypothesis exactly when (i, j) and
    (k, l) fall in one class, so the axiom holds exactly when the weak
    verdict is constant on every class. Pairs outside the hypothesis
    belong to no class. Each key starts with the 1-based coordinate a
    witness reports (None for NonCompensation); classes and their members
    come in row-major order, and every class holds the sample's one tuple
    per pair.

    Every class is read off the packed signatures, each distinct signature
    decoded once (decoded lists them in order of first occurrence, which
    fixes the order of the classes). NonCompensation's classes are the signature groups
    themselves, keyed (None, up, down). WeakIWA's are unions of groups,
    keyed by the first difference and its direction, and gathered in one
    pass over the signatures. Axiom2MS's split the single-coordinate
    groups by the two rank codes at that coordinate.

    IWA shares WeakIWA's classes: two pairs whose up/down patterns agree
    on the coordinates up to some k where the first pair differs also
    agree up to its first difference, so they first differ at the same
    coordinate in the same direction, and conversely.
    """
    if axiom is AxiomId.NON_COMPENSATION:
        groups = _group(sigs, decoded, pairs)
        return {(None, *decoded[sig][:2]): members for sig, members in groups.items()}
    if axiom is AxiomId.AXIOM2_MS:
        single = {sig: fd for sig, (up, down, fd) in decoded.items() if fd >= 0 and up | down == 1 << fd}
        chosen = list(map(single.__contains__, sigs))
        classes: dict[tuple, list[tuple[int, int]]] = {}
        for sig, pair in zip(compress(sigs, chosen), compress(pairs, chosen)):
            fd = single[sig]
            i, j = pair
            classes.setdefault((fd + 1, codes[i][fd], codes[j][fd]), []).append(pair)
        return classes
    if axiom is AxiomId.IWA or axiom is AxiomId.WEAK_IWA:
        # grouped first by the int 2 * fd + direction, which hashes faster
        # than a tuple
        key = {sig: 2 * fd + ((up >> fd) & 1) if fd >= 0 else None
               for sig, (up, _, fd) in decoded.items()}
        groups = _group(map(key.__getitem__, sigs), dict.fromkeys(key.values()), pairs)
        return {(k // 2 + 1, k & 1): members for k, members in groups.items()}
    raise RafprefError(f"axiom {axiom} has no pair-class hypothesis")


def _class_key(axiom: AxiomId) -> AxiomId:
    """The axiom whose hypothesis classes axiom's are: IWA shares WeakIWA's
    (see _hypothesis_classes), every other quadruple axiom has its own."""
    return AxiomId.WEAK_IWA if axiom is AxiomId.IWA else axiom


class _Sample:
    """A validated sample and its per-sample tables, each built on first
    use and kept: the points' rank codes, the packed signature of every
    ordered pair, one (i, j) tuple per pair that every table shares, each
    pair axiom's qualifying pairs and each quadruple axiom's hypothesis
    classes. The codes are read once from the points' integer ratios, and
    every other table from the codes. The tables depend on the points
    alone, so one _Sample serves any number of audits."""

    def __init__(self, points: Sequence[Raf]) -> None:
        if not points:
            raise RafprefError("sample must be nonempty")
        ctx = points[0].context
        for raf in points:
            if raf.context != ctx:
                raise ContextMismatchError("sample mixes profiles from different contexts")
        self.points = tuple(points)
        self.n = len(self.points)
        self.arity = ctx.arity
        self._qualifying: dict[AxiomId, list[tuple[int, int]]] = {}
        self._classes: dict[AxiomId, dict[tuple, list[tuple[int, int]]]] = {}

    @cached_property
    def codes(self) -> list[tuple[int, ...]]:
        return _rank_codes(self.points)

    @cached_property
    def signatures(self) -> list[int]:
        return _pair_signatures(self.codes)

    @cached_property
    def decoded(self) -> dict[int, tuple[int, int, int]]:
        """(up, down, fd) of each distinct signature, decoded once, in
        order of first occurrence."""
        return {sig: _decode(sig, self.arity) for sig in dict.fromkeys(self.signatures)}

    @cached_property
    def pairs(self) -> list[tuple[int, int]]:
        return list(product(range(self.n), repeat=2))

    def qualifying(self, axiom: AxiomId) -> list[tuple[int, int]]:
        """Every pair meeting a pair axiom's hypothesis."""
        if axiom not in self._qualifying:
            self._qualifying[axiom] = _qualifying_pairs(
                axiom, self.arity, self.decoded, self.signatures, self.pairs)
        return self._qualifying[axiom]

    def classes(self, axiom: AxiomId) -> dict[tuple, list[tuple[int, int]]]:
        """A quadruple axiom's hypothesis classes; IWA is handed
        WeakIWA's, the same object."""
        key = _class_key(axiom)
        if key not in self._classes:
            self._classes[key] = _hypothesis_classes(
                key, self.codes, self.decoded, self.signatures, self.pairs)
        return self._classes[key]

    def audit(
        self, rel: PreferenceRelation, axioms: Iterable[AxiomId], config: CheckConfig = DEFAULT_CONFIG
    ) -> AxiomReport:
        """One pass over ALL_AXIOMS, running each requested axiom's scan
        on rel and drawing only the recorded witnesses: a scan with no
        violation draws none, so its witness stream is never started."""
        requested = set(axioms)
        unknown = requested - set(ALL_AXIOMS)
        if unknown:
            raise RafprefError(f"unknown axioms: {sorted(str(a) for a in unknown)}")
        audit = _Audit(rel, self)
        recorded = None if config.all_violations else 1
        results = []
        for axiom in (a for a in ALL_AXIOMS if a in requested):
            examined, qualifying, count, witnesses = _SCANS[axiom](audit, axiom)
            results.append(AxiomResult(
                axiom, count == 0, examined, qualifying, count,
                tuple(islice(witnesses, recorded)) if count else (),
            ))
        return AxiomReport(tuple(results), self.n)


class _Audit:
    """One relation on a _Sample: its n x n verdict table, [i][j] None until
    i is drawn against j, and its quadruple axioms' class tallies.

    A verdict is drawn one of two ways, and each ordered pair at most once.
    The scans that read every pair off the diagonal (Mirror, Connected,
    IWA and WeakIWA) or every pair (Transitive and NonCompensation) call
    fill, which draws all the missing ones in one loop, and then read the
    table inline. Reflexive, the pair axioms and Axiom2MS read only their
    own pairs, through outcome, one call per pair.
    """

    def __init__(self, rel: PreferenceRelation, sample: _Sample) -> None:
        self.rel = rel
        self.sample = sample
        self.points, self.n = sample.points, sample.n
        self.table: list[list[Optional[ComparisonOutcome]]] = [[None] * self.n for _ in range(self.n)]
        self._tallies: dict[AxiomId, tuple[int, int, list]] = {}

    def tally(self, axiom: AxiomId) -> tuple[int, int, list]:
        """A quadruple axiom's class tally, counted once per audit and
        kept: IWA and WeakIWA share theirs."""
        key = _class_key(axiom)
        if key not in self._tallies:
            self._tallies[key] = self._count(key)
        return self._tallies[key]

    def _count(self, axiom: AxiomId) -> tuple[int, int, list]:
        """(qualifying, violation_count, mixed) over a quadruple axiom's
        classes. A class with t pairs of weak verdict true and f of false
        holds (t+f)^2 qualifying quadruples, 2tf of them violations; mixed
        lists each class with both verdicts once, as (witness index,
        members), in no per-pair form: _quad_scan merges the members only
        as far as the witnesses it is asked for.

        NonCompensation's classes hold every pair and WeakIWA's every pair
        off the diagonal, so those are filled in bulk; Axiom2MS's hold only
        the single-coordinate pairs, and only those are drawn.
        """
        classes = self.sample.classes(axiom)
        if axiom is AxiomId.AXIOM2_MS:
            outcome = self.outcome
            for members in classes.values():
                for i, j in members:
                    outcome(i, j)
            table = self.table
        else:
            table = self.fill(diagonal=axiom is AxiomId.NON_COMPENSATION)
        qualifying = violation_count = 0
        mixed: list[tuple[Optional[int], list[tuple[int, int]]]] = []
        for key, members in classes.items():
            # a generator, not a list: a WeakIWA class can hold n^2/4 pairs;
            # maps of itemgetters and getitem ran 40-60% slower per member
            t = sum(table[i][j] is not _SECOND for i, j in members)
            f = len(members) - t
            qualifying += len(members) ** 2
            if t and f:
                violation_count += 2 * t * f
                mixed.append((key[0], members))
        return qualifying, violation_count, mixed

    def outcome(self, i: int, j: int) -> ComparisonOutcome:
        """The verdict of i against j, drawn on first use."""
        row = self.table[i]
        out = row[j]
        if out is None:
            out = self.rel.compare(self.points[i], self.points[j])
            if not isinstance(out, ComparisonOutcome):
                self._refuse(out)
            row[j] = out
        return out

    def fill(self, diagonal: bool) -> list[list[ComparisonOutcome]]:
        """Draw every verdict still missing off the diagonal, and on it too
        when diagonal is true, and return the table: one loop, in which the
        relation's compare is the only call per pair."""
        compare, points = self.rel.compare, self.points
        for i, (a, row) in enumerate(zip(points, self.table)):
            if None in row:
                for j, b in enumerate(points):
                    if row[j] is None and (diagonal or j != i):
                        out = compare(a, b)
                        if not isinstance(out, ComparisonOutcome):
                            self._refuse(out)
                        row[j] = out
        return self.table

    def _refuse(self, out: object) -> None:
        raise RafprefError(f"relation {self.rel.name!r} returned {out!r}, not a ComparisonOutcome")


def _members(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# Scans: one per axiom, called as scan(audit, axiom), each of the shape the
# module docstring gives.
# ---------------------------------------------------------------------------

_Scan = tuple[int, int, int, Iterator[AxiomViolation]]


def _reflexive_scan(audit: _Audit, axiom: AxiomId) -> _Scan:
    """Each point compared with itself must be Indifferent."""
    points, outcome = audit.points, audit.outcome
    failed = [i for i in range(audit.n) if outcome(i, i) is not _INDIFFERENT]
    witnesses = (
        AxiomViolation(axiom, (points[i],), (outcome(i, i),),
                       detail="comparing a profile with itself must be Indifferent")
        for i in failed
    )
    return audit.n, audit.n, len(failed), witnesses


def _mirror_scan(audit: _Audit, axiom: AxiomId) -> _Scan:
    """Each ordered pair's verdict must be the mirror of its swap's, so
    (i, j) fails exactly when (j, i) does."""
    points, n = audit.points, audit.n
    table = audit.fill(diagonal=False)
    failed = [
        (i, j)
        for i, row in enumerate(table) for j, out in enumerate(row)
        if j != i
        and table[j][i] is not (_SECOND if out is _FIRST else _FIRST if out is _SECOND else _INDIFFERENT)
    ]
    witnesses = (
        AxiomViolation(axiom, (points[i], points[j]), (table[i][j], table[j][i]),
                       detail="swapped arguments must mirror the verdict")
        for i, j in failed
    )
    pairs = n * (n - 1)
    return pairs, pairs, len(failed), witnesses


def _connected_scan(audit: _Audit, axiom: AxiomId) -> _Scan:
    """Connectedness is structural: the outcome type has no "incomparable"
    value, so drawing a verdict for every ordered pair is the whole check.
    A comparator that cannot is rejected when fill draws it."""
    audit.fill(diagonal=False)
    pairs = audit.n * (audit.n - 1)
    return pairs, pairs, 0, iter(())


def _transitive_scan(audit: _Audit, axiom: AxiomId) -> _Scan:
    """Transitivity counted over one weak-verdict bit row per point.

    Bit j of rows[i] is set when i is at least as good as j; each row is
    the sum of the bits its verdicts select. The triple (i, j, k)
    qualifies when j is in rows[i] and k in rows[j], and violates when k
    is also missing from rows[i], so each j in rows[i] contributes
    |rows[j]| qualifying triples and |rows[j] & ~rows[i]| violations;
    both sums take row i's verdicts as a compress selector, once per row.
    Witnesses come in row-major (i, j, k) order.
    """
    points, n = audit.points, audit.n
    table = audit.fill(diagonal=True)
    bits = [1 << j for j in range(n)]
    rows = [sum(compress(bits, map(is_not, row, repeat(_SECOND))))
            for row in table]
    sizes = [row.bit_count() for row in rows]
    qualifying = violation_count = 0
    for row, verdicts in zip(rows, table):
        weak = list(map(is_not, verdicts, repeat(_SECOND)))
        qualifying += sum(compress(sizes, weak))
        violation_count += sum(map(int.bit_count, map(and_, compress(rows, weak), repeat(~row))))
    witnesses = (
        AxiomViolation(
            axiom,
            (points[i], points[j], points[k]),
            (table[i][j], table[j][k], table[i][k]),
            detail="weak preference must chain through the middle profile",
        )
        for i, row in enumerate(rows) for j in _members(row) for k in _members(rows[j] & ~row)
    )
    return n ** 3, qualifying, violation_count, witnesses


def _pair_scan(audit: _Audit, axiom: AxiomId) -> _Scan:
    """Pair audit over the qualifying pairs: only pairs that meet the
    hypothesis are put to the comparator. An indexed axiom's witness
    reports the pair's first difference, read from its signature."""
    points, outcome, sample = audit.points, audit.outcome, audit.sample
    entry = _PAIR_HYPOTHESES[axiom]
    qualifying = sample.qualifying(axiom)
    failed = [(i, j) for i, j in qualifying if outcome(i, j) is not _FIRST]
    witnesses = (
        AxiomViolation(axiom, (points[i], points[j]), (outcome(i, j),),
                       index=sample.decoded[sample.signatures[i * audit.n + j]][2] + 1
                       if entry.indexed else None,
                       detail=f"{entry.requirement}; observed {outcome(i, j)}")
        for i, j in failed
    )
    return audit.n * (audit.n - 1), len(qualifying), len(failed), witnesses


def _quad_scan(audit: _Audit, axiom: AxiomId) -> _Scan:
    """Quadruple audit counted over the axiom's hypothesis classes.

    Witnesses come in row-major order: for each pair, the members of its
    class with the opposite verdict. Every pair lies in one class at most
    and each class lists its members row-major, so a lazy merge of the
    mixed classes' member lists yields the pairs in that order, each with
    its class, and a first witness costs no pass over every mixed pair.
    """
    points, table = audit.points, audit.table
    qualifying, violation_count, mixed = audit.tally(axiom)

    def witnesses() -> Iterator[AxiomViolation]:
        # no two classes share a pair, so the merge never compares two
        # (index, members) tags, whose index may be None
        for (i, j), (index, members) in merge(*[zip(m[1], repeat(m)) for m in mixed]):
            weak = table[i][j] is not _SECOND
            for k, l in members:
                if (table[k][l] is not _SECOND) != weak:
                    yield AxiomViolation(
                        axiom,
                        (points[i], points[j], points[k], points[l]),
                        (table[i][j], table[k][l]),
                        index=index,
                        detail="matching hypothesis but opposite weak verdicts",
                    )

    return audit.n ** 4, qualifying, violation_count, witnesses()


_SCANS: dict[AxiomId, Callable[[_Audit, AxiomId], _Scan]] = {
    AxiomId.REFLEXIVE: _reflexive_scan,
    AxiomId.MIRROR_CONSISTENT: _mirror_scan,
    AxiomId.CONNECTED: _connected_scan,
    AxiomId.TRANSITIVE: _transitive_scan,
    **dict.fromkeys(PAIR_AXIOMS, _pair_scan),
    **dict.fromkeys(QUAD_AXIOMS, _quad_scan),
}

# ---------------------------------------------------------------------------
# Public checkers
# ---------------------------------------------------------------------------


def check_order_axioms(
    rel: PreferenceRelation,
    sample: Sequence[Raf],
    config: CheckConfig = DEFAULT_CONFIG,
) -> AxiomReport:
    """Reflexivity, mirror consistency, connectedness, and transitivity.

    Transitivity covers all n^3 ordered triples of the weak verdict,
    counted from one bit row of verdicts per point; the others scan
    points and ordered pairs.
    """
    return run_checks(rel, sample, ORDER_AXIOMS, config)


def check_weak_dominance(
    rel: PreferenceRelation,
    sample: Sequence[Raf],
    config: CheckConfig = DEFAULT_CONFIG,
) -> AxiomReport:
    """Strict coordinatewise dominance must be strictly preferred."""
    return run_checks(rel, sample, [AxiomId.WEAK_DOMINANCE], config)


def check_strong_monotonicity(
    rel: PreferenceRelation,
    sample: Sequence[Raf],
    config: CheckConfig = DEFAULT_CONFIG,
) -> AxiomReport:
    """Raising availability at one coordinate, all else equal, must win."""
    return run_checks(rel, sample, [AxiomId.STRONG_MONOTONICITY], config)


def check_strong_dominance(
    rel: PreferenceRelation,
    sample: Sequence[Raf],
    config: CheckConfig = DEFAULT_CONFIG,
) -> AxiomReport:
    """Coordinatewise at-least with any strict gap must be strictly preferred."""
    return run_checks(rel, sample, [AxiomId.STRONG_DOMINANCE], config)


def check_non_compensation(
    rel: PreferenceRelation,
    sample: Sequence[Raf],
    config: CheckConfig = DEFAULT_CONFIG,
) -> AxiomReport:
    """Only the sign pattern of coordinatewise differences may matter.

    Quadruples whose two pairs share the same up-set and down-set must
    receive the same weak verdict.
    """
    return run_checks(rel, sample, [AxiomId.NON_COMPENSATION], config)


def check_axiom2_ms(
    rel: PreferenceRelation,
    sample: Sequence[Raf],
    config: CheckConfig = DEFAULT_CONFIG,
) -> AxiomReport:
    """Single-coordinate substitution consistency.

    Quadruples where both pairs differ only at one shared coordinate with
    identical values there must receive the same weak verdict.
    """
    return run_checks(rel, sample, [AxiomId.AXIOM2_MS], config)


def check_iwa(
    rel: PreferenceRelation,
    sample: Sequence[Raf],
    config: CheckConfig = DEFAULT_CONFIG,
) -> AxiomReport:
    """Independence of worse alternatives.

    If the first pair differs at coordinate k and both pairs show the same
    up/down pattern on coordinates up to k, everything below k is noise:
    the weak verdicts must agree.

    As stated here this is the same predicate as WeakIWA: a quadruple
    qualifies at some k exactly when its pairs first differ at the same
    coordinate in the same direction, and the smallest such k is that
    coordinate. The two checkers report the same counts and witnesses.
    """
    return run_checks(rel, sample, [AxiomId.IWA], config)


def check_weak_iwa(
    rel: PreferenceRelation,
    sample: Sequence[Raf],
    config: CheckConfig = DEFAULT_CONFIG,
) -> AxiomReport:
    """Weak independence of worse alternatives.

    Restricted to quadruples whose pairs first differ at the same k with
    the same strict direction there; the weak verdicts must agree.
    """
    return run_checks(rel, sample, [AxiomId.WEAK_IWA], config)


def run_checks(
    rel: PreferenceRelation,
    sample: Sequence[Raf],
    axioms: Iterable[AxiomId] = ALL_AXIOMS,
    config: CheckConfig = DEFAULT_CONFIG,
) -> AxiomReport:
    """Run the requested axioms in canonical order, merged into one report.

    Each call builds one _Sample, so all scans share one table of relation
    verdicts and one copy of each per-sample table. verify builds one
    _Sample per run and audits every listed survivor on it.
    """
    return _Sample(sample).audit(rel, axioms, config)


def _pair_replay(hypothesis: Callable) -> Callable[..., bool]:
    """The pair qualifies but is not strictly preferred."""
    return lambda rel, a, b: (
        bool(hypothesis(a, b)) and rel.compare(a, b) is not _FIRST
    )


def _quad_replay(hypothesis: Callable) -> Callable[..., bool]:
    """The quadruple qualifies but its pairs' weak verdicts differ."""
    return lambda rel, a, b, c, d: (
        bool(hypothesis(a, b, c, d)) and rel.at_least_as_good(a, b) != rel.at_least_as_good(c, d)
    )


# Each axiom's replay, called as replay(rel, *witness). The hypotheses are
# the raf-level predicates (a 1-based index they return is never 0), never
# the signature table, so a replay cross-checks the scans.
_REPLAYS: dict[AxiomId, Callable[..., bool]] = {
    AxiomId.REFLEXIVE: lambda rel, a: rel.compare(a, a) is not _INDIFFERENT,
    AxiomId.MIRROR_CONSISTENT: (
        lambda rel, a, b: rel.compare(b, a) is not rel.compare(a, b).mirrored()
    ),
    AxiomId.CONNECTED: lambda rel, *witness: False,
    AxiomId.TRANSITIVE: lambda rel, a, b, c: (
        rel.at_least_as_good(a, b) and rel.at_least_as_good(b, c)
        and not rel.at_least_as_good(a, c)
    ),
    **{axiom: _pair_replay(entry.hypothesis) for axiom, entry in _PAIR_HYPOTHESES.items()},
    AxiomId.NON_COMPENSATION: _quad_replay(qualifies_non_compensation),
    AxiomId.AXIOM2_MS: _quad_replay(qualifies_axiom2),
    AxiomId.IWA: _quad_replay(iwa_indices),
    AxiomId.WEAK_IWA: _quad_replay(qualifies_weak_iwa),
}


def replay_violation(rel: PreferenceRelation, violation: AxiomViolation) -> bool:
    """Re-evaluate a witness from scratch; True if it still violates.

    Goes through the raf-level hypothesis predicates rather than the
    signature table, so it also cross-checks the table-driven scans.
    """
    replay = _REPLAYS.get(violation.axiom)
    if replay is None:
        raise RafprefError(f"cannot replay axiom {violation.axiom}")
    return replay(rel, *violation.witness)
