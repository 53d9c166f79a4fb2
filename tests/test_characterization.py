import dataclasses
import hashlib
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, islice, product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from conftest import rationals01

from rafpref import (
    AxiomId,
    ComparisonOutcome,
    ContextMismatchError,
    EqualInputsError,
    GridSpec,
    InvalidGridError,
    LexicographicRelation,
    PriorityContext,
    RankedRelation,
    Raf,
    RafprefError,
    TableRelation,
    TooManyPointsError,
    construct_proof_witness,
    default_context,
    enumerate_weak_orders,
    fubini,
    grid_points,
    lex_compare,
    lex_ranking,
    make_raf,
    proof_trace_check,
    table_relation,
    verify_characterization,
)
from rafpref.axioms import (
    PAIR_AXIOMS,
    _Sample,
    check_iwa,
    check_non_compensation,
    check_strong_dominance,
    check_strong_monotonicity,
    check_weak_dominance,
    check_weak_iwa,
)
from rafpref import axioms, characterization
from rafpref.characterization import (
    SURVIVOR_LISTING_CAP,
    VERIFY_AXIOMS,
    _TAIL_POINTS,
    _audit_survivor,
    _compile_constraint,
    _masks,
    _refused,
    _rows,
    _runs,
    _sift,
    _tail,
    _walk,
)

LEX = LexicographicRelation()
SM = AxiomId.STRONG_MONOTONICITY
WD = AxiomId.WEAK_DOMINANCE
SD = AxiomId.STRONG_DOMINANCE
WEAK_IWA = AxiomId.WEAK_IWA
IWA = AxiomId.IWA
NC = AxiomId.NON_COMPENSATION

# pinned from the binomial recurrence a(n) = sum C(n,k) a(n-k), a(0) = 1
FUBINI_PINNED = (1, 3, 13, 75, 541, 4683, 47293, 545835, 7087261)


def _subsets(items):
    """Every subset of items, by size, in combinations order."""
    return [c for size in range(len(items) + 1) for c in combinations(items, size)]


def independent_fubini(n: int) -> int:
    table = [1] * (n + 1)
    for m in range(1, n + 1):
        table[m] = sum(comb(m, k) * table[m - k] for k in range(1, m + 1))
    return table[n]


class _Reached(Exception):
    """Raised by a stand-in for the first step of the work a bound guards."""


def _reach(*args):
    raise _Reached


@pytest.fixture
def fresh_tables():
    """Empties the process-wide tail tables and masks before and after the
    test: a test that patches the walk then builds its tables under the
    patch, and no table built under a patch outlives the test."""
    for cached in (_tail, _masks):
        cached.cache_clear()
    yield
    for cached in (_tail, _masks):
        cached.cache_clear()


def _literal(kind, data):
    """The per-pair loop that _sift's masks must match on each rank tuple:
    forced pairs need rv[i] < rv[j], and each group one weak verdict
    rv[i] <= rv[j] for all its pairs."""
    if kind == "forced":

        def passes(rv):
            for i, j in data:
                if rv[i] >= rv[j]:
                    return False
            return True

        return passes

    def passes(rv):
        for grp in data:
            i0, j0 = grp[0]
            b0 = rv[i0] <= rv[j0]
            for i, j in grp[1:]:
                if (rv[i] <= rv[j]) != b0:
                    return False
        return True

    return passes


class TestFubini:
    def test_pinned_values(self):
        assert tuple(fubini(n) for n in range(1, 10)) == FUBINI_PINNED

    def test_matches_independent_recurrence(self):
        for n in range(0, 12):
            assert fubini(n) == independent_fubini(n)

    def test_large_first_call_does_not_recurse_per_point(self, monkeypatch):
        # from a cold cache, one stack frame per point would overflow the
        # interpreter's default limit at about 340 points
        monkeypatch.setattr(characterization, "_fubini_values", [1])
        monkeypatch.setattr(characterization, "_fubini_row", [1])
        assert fubini(400) == independent_fubini(400)
        # a later, larger call extends the kept row
        assert fubini(420) == independent_fubini(420)

    def test_negative_refused(self):
        with pytest.raises(RafprefError, match="nonnegative"):
            fubini(-1)


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 3), (3, 13), (4, 75), (5, 541)])
    def test_counts(self, n, count):
        points = grid_points(GridSpec.of(["0", "1"], 2))[:n] if n <= 4 else None
        if points is None:
            points = grid_points(GridSpec.of(["0", "1/2", "1"], 2))[:n]
        orders = list(enumerate_weak_orders(points))
        assert len(orders) == count
        assert len(set(orders)) == count

    def test_no_points_refused(self):
        with pytest.raises(RafprefError, match="at least one point"):
            next(enumerate_weak_orders([]))

    def test_each_is_valid_preorder(self, unit_square):
        for ranking in enumerate_weak_orders(unit_square):
            ranking.validate()

    def test_canonical_order_three_points(self, unit_square):
        # depth-first, best block first, blocks by decreasing bitmask
        assert [r.ranks for r in enumerate_weak_orders(unit_square[:3])] == [
            (0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0), (1, 2, 0),
            (0, 0, 1), (1, 0, 1), (2, 0, 1), (1, 0, 2), (0, 1, 1), (0, 2, 1),
            (0, 1, 2),
        ]

    def test_deterministic(self, unit_square):
        assert list(enumerate_weak_orders(unit_square)) == list(
            enumerate_weak_orders(unit_square)
        )

    def test_too_many_points(self, nine_grid):
        extra = nine_grid + grid_points(
            GridSpec.of(["0", "1/4", "1/2", "3/4", "1"], 2)
        )[:1]
        with pytest.raises(TooManyPointsError):
            next(enumerate_weak_orders(extra))

    def test_max_points_override(self):
        points = grid_points(GridSpec.of(["0", "1/4", "1/2", "3/4"], 2))[:10]
        stream = enumerate_weak_orders(points, max_points=10)
        assert next(stream).domain == tuple(points)

    def test_walk_bound_holds_at_any_max_points(self, monkeypatch):
        # the fubini(17) = 1.3e17 orders of 17 points could never be
        # drained, so no max_points may start a walk past 16 points
        monkeypatch.setattr(characterization, "_walk", _reach)
        points = grid_points(GridSpec.of(["0", "1"], 5))
        for n, max_points in ((17, 17), (20, 20), (32, 32), (17, 10**6)):
            with pytest.raises(characterization.UnprunedWalkError, match=f"^{n} points: .* above 16 points"):
                next(enumerate_weak_orders(points[:n], max_points=max_points))
        with pytest.raises(_Reached):  # 16 points are admitted
            next(enumerate_weak_orders(points[:16], max_points=16))

    @pytest.mark.parametrize("max_points", ["9", None, True, 8.5])
    def test_max_points_must_be_an_int(self, monkeypatch, unit_square, max_points):
        # refused at the call, before any walk: a str or None would fail
        # the bound's comparison with a bare TypeError, True would compare
        # as a bound of 1 and 8.5 as a bound at all
        monkeypatch.setattr(characterization, "_walk", _reach)
        with pytest.raises(RafprefError, match="^max_points must be an int, not "):
            enumerate_weak_orders(unit_square, max_points=max_points)

    def test_duplicates_rejected(self, unit_square):
        with pytest.raises(RafprefError):
            next(enumerate_weak_orders(unit_square + unit_square[:1]))

    def test_ranks_are_the_walks_int_tuples(self):
        # the tabled runs are zips of rank columns: each order's ranks must
        # still be a plain tuple of ints, the walk's own
        points = grid_points(GridSpec.of(["0", "1"], 3))[:7]
        orders = enumerate_weak_orders(points)
        for ranking, rv in zip(orders, _walk(7), strict=True):
            assert type(ranking.ranks) is tuple and ranking.ranks == rv
            assert all(type(x) is int for x in ranking.ranks)

    def test_refused_at_the_call(self, unit_square):
        # no next(): the stream is refused before any walk exists
        points = grid_points(GridSpec.of(["0", "1"], 5))
        with pytest.raises(characterization.UnprunedWalkError, match="^17 points"):
            enumerate_weak_orders(points[:17], max_points=17)
        with pytest.raises(RafprefError, match="pairwise distinct"):
            enumerate_weak_orders(unit_square + unit_square[:1])


class TestProofWitness:
    def test_money_example(self, raf_a, raf_b, money_ctx):
        c = construct_proof_witness(raf_a, raf_b)
        assert c == make_raf(("1/10", "4/5"), money_ctx)

    def test_last_coordinate_difference_returns_b(self, money_ctx):
        a = make_raf(("1/2", "1/4"), money_ctx)
        b = make_raf(("1/2", "3/4"), money_ctx)
        assert construct_proof_witness(a, b) == b

    def test_equal_inputs(self, raf_a):
        with pytest.raises(EqualInputsError):
            construct_proof_witness(raf_a, raf_a)

    def test_differs_from_first_exactly_at_k(self, money_ctx):
        rng = random.Random(3)
        levels = [Fraction(i, 6) for i in range(7)]
        for _ in range(200):
            a = Raf(money_ctx, (rng.choice(levels), rng.choice(levels)))
            b = Raf(money_ctx, (rng.choice(levels), rng.choice(levels)))
            if a == b:
                continue
            c = construct_proof_witness(a, b)
            diffs = [
                i + 1 for i, (x, y) in enumerate(zip(c.values, a.values)) if x != y
            ]
            from rafpref import first_difference

            assert diffs == [first_difference(a, b)]


class TestProofTrace:
    def test_lex_money_pair(self, raf_a, raf_b):
        trace = proof_trace_check(LEX, raf_a, raf_b)
        assert trace.passed
        assert trace.index == 1
        assert str(trace.witness) == "(1/10, 4/5)"
        assert trace.steps[-1].actual.endswith("first_preferred")

    def test_total_indifference_fails_monotonicity_step(self, unit_square):
        rel = table_relation(RankedRelation.from_rank_map({p: 0 for p in unit_square}))
        trace = proof_trace_check(rel, unit_square[3], unit_square[0])
        assert not trace.steps[0].passed
        assert not trace.passed

    def test_equal_inputs(self, raf_a):
        with pytest.raises(EqualInputsError):
            proof_trace_check(LEX, raf_a, raf_a)

    def test_lex_random_pairs(self):
        rng = random.Random(17)
        for arity in (2, 3, 4):
            ctx = default_context(arity)
            for _ in range(100):
                a = Raf(
                    ctx,
                    tuple(Fraction(rng.randrange(9), 8) for _ in range(arity)),
                )
                b = Raf(
                    ctx,
                    tuple(Fraction(rng.randrange(9), 8) for _ in range(arity)),
                )
                if a == b:
                    continue
                assert proof_trace_check(LEX, a, b).passed


class TestLexRanking:
    def test_unit_square(self, unit_square):
        ranking = lex_ranking(unit_square)
        assert ranking.ranks == (3, 2, 1, 0)

    def test_is_linear(self, nine_grid):
        ranking = lex_ranking(nine_grid)
        assert sorted(ranking.ranks) == list(range(9))

    def test_agrees_with_comparator(self, nine_grid):
        rel = table_relation(lex_ranking(nine_grid))
        for a in nine_grid:
            for b in nine_grid:
                assert rel.compare(a, b) is lex_compare(a, b)

    @pytest.mark.parametrize("picks", [(), (1, 1), (3, 0, 3), (1, 0, 2, 3, 0)])
    def test_refuses_no_points_or_a_repeated_one(self, unit_square, picks):
        # a repeat is an equal profile built anew: ranked apart, a profile
        # would sit strictly below its equal
        points = [Raf(unit_square[i].context, unit_square[i].values) for i in picks]
        with pytest.raises(RafprefError, match="^lex_ranking needs one or more pairwise distinct points$"):
            lex_ranking(points)

    def test_refuses_profiles_of_two_contexts(self, unit_square):
        other = make_raf(("1/2", "1/3"), PriorityContext.of(("p", "q")))
        with pytest.raises(ContextMismatchError):
            lex_ranking([unit_square[0], other])


class TestCompiledFiltersMatchCheckers:
    """The verify fast paths must agree with the literal checkers."""

    CHECKERS = {
        AxiomId.STRONG_MONOTONICITY: check_strong_monotonicity,
        AxiomId.WEAK_DOMINANCE: check_weak_dominance,
        AxiomId.STRONG_DOMINANCE: check_strong_dominance,
        AxiomId.NON_COMPENSATION: check_non_compensation,
        AxiomId.IWA: check_iwa,
        AxiomId.WEAK_IWA: check_weak_iwa,
    }

    def test_all_candidates_unit_square(self, unit_square):
        # the walk of 4 points is runs of tail tables and one leaf, each
        # filtered whole
        sample = _Sample(unit_square)
        for axiom, checker in self.CHECKERS.items():
            runs = _runs(4, None, {}, None)
            _, kept = _sift(runs, [_compile_constraint(axiom, sample)], fubini(4))
            literal = [
                ranking.ranks for ranking in enumerate_weak_orders(unit_square)
                if checker(table_relation(ranking), list(unit_square)).passed
            ]
            assert kept == literal, axiom

    def test_sampled_candidates_nine_grid(self, nine_grid):
        sample = _Sample(nine_grid)
        compiled = {axiom: _compile_constraint(axiom, sample) for axiom in VERIFY_AXIOMS}
        rng = random.Random(23)
        pts = tuple(nine_grid)
        for _ in range(40):
            blocks = list(range(rng.randrange(1, 5)))
            ranks = tuple(rng.choice(blocks) for _ in range(9))
            # normalize to contiguous ranks
            remap = {r: i for i, r in enumerate(sorted(set(ranks)))}
            ranks = tuple(remap[r] for r in ranks)
            ranking = RankedRelation(pts, ranks)
            rel = table_relation(ranking)
            for axiom, checker in self.CHECKERS.items():
                leaf = (ranks, (-1,) * 9, None)
                fast = _sift([leaf], [compiled[axiom]], 1) == ([1, 1], [ranks])
                literal = checker(rel, list(pts)).passed
                assert fast == literal, (axiom, ranks)


def _constraint(draw, n):
    """A constraint in _compile_constraint's shape over n points: diagonal
    and repeated pairs included, and groups of one pair and of several."""
    point = st.integers(0, n - 1)
    pair = st.tuples(point, point) | point.map(lambda i: (i, i))
    pairs = st.lists(pair, max_size=12)
    kind = draw(st.sampled_from(["forced", "groups"]))
    if kind == "forced":
        return kind, draw(pairs | pairs.map(lambda ps: ps + ps[:1]))
    group = (st.lists(pair, min_size=1, max_size=1) | st.lists(pair, min_size=2, max_size=6)
             | st.lists(pair, min_size=1, max_size=3).map(lambda g: g + g))
    return kind, draw(st.lists(group, max_size=6))


@st.composite
def sifted_filters(draw):
    """n <= 7 points and up to three constraints over them, in order."""
    n = draw(st.integers(1, 7))
    return n, [_constraint(draw, n) for _ in range(draw(st.integers(1, 3)))]


# the plain walks of up to 8 points as runs
_RUNS = {n: list(_runs(n, None, {}, None)) for n in range(9)}


def _sift_one_run(run, filters, tests):
    """_sift's counts for one run, checked against the per-pair loops
    tests on every row of it: each filter's count and every row kept."""
    rows = list(_rows(run))
    counts, kept = _sift([run], filters, len(rows))
    expected = [len(rows)]
    for passes in tests:
        rows = [rv for rv in rows if passes(rv)]
        expected.append(len(rows))
    assert counts == expected
    assert kept == rows
    return counts


class TestSift:
    """_sift reads each tail table's masks, never its rows, so it must
    agree with the per-pair loops on every row of every run."""

    @settings(max_examples=120, deadline=None)
    @given(sifted_filters())
    def test_matches_the_per_pair_loops_on_every_run(self, case):
        n, filters = case
        tests = [_literal(kind, data) for kind, data in filters]
        total = [0] * (len(filters) + 1)
        for run in _RUNS[n]:
            total = [t + c for t, c in zip(total, _sift_one_run(run, filters, tests))]
        # over the whole walk, and the kept rows in stream order up to the cap
        survivors = [rv for rv in _walk(n) if all(passes(rv) for passes in tests)]
        counts, kept = _sift(iter(_RUNS[n]), filters, 10)
        assert counts == total and total[0] == fubini(n) and total[-1] == len(survivors)
        assert kept == survivors[:10]

    @pytest.mark.fresh_tables
    def test_tables_are_reached(self):
        # the walks above hold tail tables of every size, and leaves
        tables = [run[2] for run in _RUNS[8]]
        assert None in tables
        assert {len(cols) for cols in tables if cols} == set(range(1, _TAIL_POINTS + 1))

    def test_largest_tables_match_the_per_pair_loops(self):
        # the 8 runs of the 8-point walk whose first block is one point
        # read the largest tables, which the drawn walks above never reach
        runs = [run for run in _RUNS[8] if run[2] and len(run[2]) == _TAIL_POINTS]
        assert len(runs) == 8
        filters = [
            ("groups", [[(1, 2), (3, 4)], [(5, 6), (6, 7), (2, 0)]]),
            ("forced", [(7, 1), (2, 5), (4, 3)]),
        ]
        tests = [_literal(kind, data) for kind, data in filters]
        assert sum(_sift_one_run(run, filters, tests)[-1] for run in runs) > 0


# the axiom sets whose pruned stream is compared in full with the plain one
STREAM_AXIOM_SETS = ((SM,), (WEAK_IWA,), (NC,), (SM, WEAK_IWA), (SM, NC))


@lru_cache(maxsize=None)
def _plain_survivors(levels, arity):
    """Per axiom set of STREAM_AXIOM_SETS, its sequential pass counts and
    the grid's plain stream filtered by the per-pair loops, from one pass
    over the stream."""
    sample = _Sample(grid_points(GridSpec.of(levels, arity)))
    tests = {a: _literal(*_compile_constraint(a, sample)) for a in (SM, WEAK_IWA, NC)}
    kept = {axioms: [] for axioms in STREAM_AXIOM_SETS}
    verdicts = Counter()
    for rv in _walk(len(sample.points)):
        passed = frozenset(a for a, passes in tests.items() if passes(rv))
        verdicts[passed] += 1
        for axioms, survivors in kept.items():
            if passed.issuperset(axioms):
                survivors.append(rv)
    # the k-th filter passes what meets the first k axioms of the set
    return {
        axioms: (
            [sum(c for p, c in verdicts.items() if p.issuperset(axioms[: k + 1]))
             for k in range(len(axioms))],
            survivors,
        )
        for axioms, survivors in kept.items()
    }


class TestPrunedStreamEquivalence:
    @pytest.mark.parametrize(
        "levels,arity,axioms",
        [(levels, arity, axioms) for levels, arity in ((("0", "1"), 2), (("0", "1"), 3))
         for axioms in STREAM_AXIOM_SETS],
    )
    def test_pruned_is_filtered_plain_stream(self, monkeypatch, fresh_tables, levels, arity, axioms):
        # the whole stream that verify drains, group axioms included
        _, plain_survivors = _plain_survivors(levels, arity)[axioms]
        real_runs, drained, counts = _runs, [], []

        def capturing_runs(n, dom, groups, pruned_by):
            counts.append(pruned_by)
            for run in real_runs(n, dom, groups, pruned_by):
                drained.extend(_rows(run))
                yield run

        monkeypatch.setattr(characterization, "_runs", capturing_runs)
        report = verify_characterization(GridSpec.of(levels, arity), axioms, prune=True)
        assert drained == plain_survivors
        (pruned_by,) = counts
        assert len(drained) + sum(pruned_by.values()) == fubini(1 << arity)
        assert report.checked == len(plain_survivors)
        # survivor listing preserves the canonical stream order
        cap = min(10, len(plain_survivors))
        assert [s.ranks for s in report.survivors] == plain_survivors[:cap]


@st.composite
def dominator_masks(draw):
    n = draw(st.integers(0, 6))
    return draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))


@st.composite
def forward_checks(draw):
    """Optional dominator masks and up to three named partitions of some
    ordered pairs (the diagonal included) of n <= 6 points."""
    n = draw(st.integers(0, 6))
    dom = draw(st.none() | st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    pairs = [(i, j) for i in range(n) for j in range(n)]
    groups = {}
    for reason in draw(st.lists(st.sampled_from(["A", "B", "C"]), unique=True, max_size=3)):
        # label -1 leaves a pair out of every group
        labels = draw(st.lists(st.integers(-1, 3), min_size=len(pairs), max_size=len(pairs)))
        parts = {}
        for pair, label in zip(pairs, labels):
            if label >= 0:
                parts.setdefault(label, []).append(pair)
        groups[reason] = list(parts.values())
    return n, dom, groups


@st.composite
def large_dominator_masks(draw, n, kind):
    """Dominator masks of n points, of one of three kinds. "random": a
    chain along a random order, cut in at most two places, so that at most
    16,081 weak orders survive on 9 points, and each other pair that
    agrees with the order forced with a drawn chance. "cyclic" adds a
    cycle and "selfdom" a point that must beat itself, both past the first
    two points of the order, whose dominators are only earlier points:
    placing them one at a time leaves a child of at most 7 points that no
    weak order completes, a table of 0 rows."""
    rng = draw(st.randoms(use_true_random=True))
    order = rng.sample(range(n), n)
    cuts = rng.sample(range(1, n), rng.randint(0, 2))
    chance = rng.choice([0, 0.1, 0.3, 0.6])
    dom = [0] * n
    for k in range(1, n):
        j = order[k]
        if k not in cuts:
            dom[j] |= 1 << order[k - 1]
        for i in order[:k]:
            if rng.random() < chance:
                dom[j] |= 1 << i
    late = rng.sample(order[2:], rng.randint(1, 3))
    if kind == "cyclic":
        for a, b in zip(late, late[1:] + late[:1]):
            dom[b] |= 1 << a  # a 1-cycle when late has one point
    elif kind == "selfdom":
        dom[late[0]] |= 1 << late[0]
    return dom


def _dominated_orders(dom: list) -> list:
    """Every weak order of range(len(dom)) with rank[i] < rank[j] for each
    bit i of dom[j], recursively, in the walk's order: at each node every
    nonempty set of points whose dominators are all placed, as the next
    block, by decreasing bitmask."""
    n = len(dom)
    ranks = [0] * n
    out = []

    def node(rest, depth):
        eligible = sum(1 << b for b in range(n) if rest >> b & 1 and not dom[b] & rest)
        for block in range(eligible, 0, -1):
            if block & eligible == block:
                for b in range(n):
                    if block >> b & 1:
                        ranks[b] = depth
                if block == rest:
                    out.append(tuple(ranks))
                else:
                    node(rest ^ block, depth + 1)

    node((1 << n) - 1, 0)
    return out


def _reference_walk(r: int) -> list:
    """The plain walk of r points, recursively: at each node the leaf
    first, then every proper nonempty subset of the points left as the
    next block, by decreasing bitmask."""

    def node(ranks, rest, depth):
        out = [ranks | dict.fromkeys(rest, depth)]
        mask = sum(1 << i for i in rest)
        for block in range(mask - 1, 0, -1):
            if block & mask == block:
                placed = {i for i in rest if block >> i & 1}
                out += node(ranks | dict.fromkeys(placed, depth), rest - placed, depth + 1)
        return out

    return [tuple(ranks[i] for i in range(r)) for ranks in node({}, set(range(r)), 0)]


# sha256 of the repr of every tuple of _walk(n), in stream order, as
# the walk with a Python loop per leaf made them for n <= 8, and as the
# walk with tables of 5 points made it for n = 9. Every child of the root
# of 2 to 8 points reads a tail table; n = 9 is the first walk to place
# blocks below its root
PLAIN_STREAM_SHA256 = (
    "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
    "91d6039a01f57163ec02db197e5481ffc170187e262006fa833b26f0cc064633",
    "b17c050eeb955454b2668d3396236bbe3862e8b3d9bcd3fbd61278d413fbb5ff",
    "3556973bb0d2006bc564d18bcb76832d617885f3cf0ef44821d25e3fae9c8b72",
    "cbbd54f4810fedad3526e0927c95384bd5073239499ed4ea8d6a3b09315cea68",
    "bbee1a037145df7711b9c83244c1d291d28534018f21d8ac7ac4238e812c044e",
    "d4106e701443e4830490191d2ffdced658609a43e8ec1334d69e978bc8f7fc23",
    "859b2ceaaf854acb209c737c48d35f385d61b2719d77940a6f8221a0189b9a34",
    "cbdef660129517e478e4f389eb2fbe2c62ee33230d36367f4e576a653fc10fc0",
    "444e73745ff71ba0a6512dc260e0f0fb50a187c3a03f52f9a08c4dbecc179c2a",
)


# rank k to the ASCII digit of k, for k < 10
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


def _stream_digest(n: int) -> str:
    """sha256 of the reprs of _walk(n)'s tuples, concatenated in stream
    order, streamed in slices of 2**16 tuples, so that no more are held at
    once. For 2 <= n <= 10 points the repr "(r0, r1, ...)" of a tuple is 3n
    characters with rank k's one digit at 3k + 1, so a slice's reprs are
    the repr of (0,) * n repeated, its ranks' digits written at every third
    byte: made in C, with no repr per tuple."""
    digest = hashlib.sha256()
    walk = _walk(n)
    template = repr((0,) * n).encode()
    while chunk := list(islice(walk, 1 << 16)):
        if 2 <= n <= 10:
            text = bytearray(template * len(chunk))
            text[1::3] = bytes(chain.from_iterable(chunk)).translate(_DIGITS)
        else:
            text = "".join(map(repr, chunk)).encode()
        digest.update(text)
    return digest.hexdigest()


class TestWalk:
    PLAIN = {n: list(_walk(n)) for n in range(7)}

    def test_plain_counts(self):
        assert [len(self.PLAIN[n]) for n in range(7)] == [fubini(n) for n in range(7)]

    @pytest.mark.parametrize("n", range(len(PLAIN_STREAM_SHA256)))
    def test_plain_stream_pinned(self, n):
        assert _stream_digest(n) == PLAIN_STREAM_SHA256[n]

    def test_tabled_walk_is_the_reference(self):
        # the first size whose root has children made from the largest
        # tables; n = 9 is pinned by its stream's digest alone, as its
        # reference would hold all fubini(9) = 7,087,261 tuples
        n = _TAIL_POINTS + 1
        assert list(_walk(n)) == _reference_walk(n)

    @pytest.mark.parametrize("r", range(_TAIL_POINTS + 1))
    def test_tail_table_is_the_small_walk(self, fresh_tables, r):
        reference = _reference_walk(r)
        for d in (0, 1, 3):
            rows = [tuple(x + d + 1 for x in rv) for rv in reference]
            cols = _tail(r, d)
            assert cols == tuple(bytes(c) for c in zip(*rows))
            assert all(type(c) is bytes for c in cols)

    @pytest.mark.parametrize("r", range(1, _TAIL_POINTS + 1))
    def test_masks_read_the_tail_table(self, fresh_tables, r):
        # bit t of lt[k][l] is set exactly when row t ranks k before l,
        # read bit by bit: the binary digits of a mask, lowest first
        cols = _tail(r, 0)
        lt = _masks(r)
        rows = len(cols[0])
        assert rows == fubini(r)
        assert len(lt) == r and all(len(masks) == r for masks in lt)
        for a, masks in zip(cols, lt):
            for b, mask in zip(cols, masks):
                bits = format(mask, f"0{rows}b")[::-1]
                assert bits == "".join("1" if x < y else "0" for x, y in zip(a, b))

    @settings(max_examples=200, deadline=None)
    @given(dominator_masks())
    def test_pruned_is_filtered_plain_stream(self, dom):
        # masks may be cyclic or name the point itself; those prune everything
        n = len(dom)
        forced = [(i, j) for j in range(n) for i in range(n) if dom[j] >> i & 1]
        pruned_by = {"dominators": 0}
        pruned = list(_walk(n, dom, {}, pruned_by))
        assert pruned == [
            rv for rv in self.PLAIN[n] if all(rv[i] < rv[j] for i, j in forced)
        ]
        assert len(pruned) + sum(pruned_by.values()) == fubini(n)

    @pytest.mark.parametrize("kind", ["random", "cyclic", "selfdom"])
    @pytest.mark.parametrize("n", [7, 8, 9])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_dominator_tables_at_full_size(self, n, kind, data):
        # with no group to check, every child of at most _TAIL_POINTS
        # points is one run read from the walk's dominator table
        dom = data.draw(large_dominator_masks(n, kind))
        pruned_by = {"dominators": 0}
        runs = list(_runs(n, dom, {}, pruned_by))
        walked = list(chain.from_iterable(map(_rows, runs)))
        assert walked == _dominated_orders(dom)
        assert len(walked) + pruned_by["dominators"] == fubini(n)
        tables = [cols for _, _, cols in runs if cols is not None]
        assert max(map(len, tables)) >= 6
        assert all(len(cols) <= _TAIL_POINTS for cols in tables)
        if kind != "random":
            assert not walked and any(not cols[0] for cols in tables)

    def test_deep_pruned_walk_reads_tables_only_while_ranks_fit(self):
        # 9 pairs, each forced after the pair before: a pair is tied, or
        # its odd point first, or its even one, 3^9 weak orders of 18
        # points; a path that splits every pair ranks the last point 17,
        # past the 16 points of an unpruned walk, and its deep children
        # are still read from tables, whose ranks fit a byte
        n = 18
        dom = [0] * n
        for b in range(2, n):
            dom[b] = 0b11 << (b & ~1) - 2
        orders = [()]
        for _ in range(n // 2):
            orders = [
                rv + (d + x, d + y)
                for rv in orders
                for d in [max(rv, default=-1) + 1]
                for x, y in ((0, 0), (1, 0), (0, 1))
            ]
        pruned_by = {"dominators": 0}
        runs = list(_runs(n, dom, {}, pruned_by))
        assert list(chain.from_iterable(map(_rows, runs))) == orders
        assert len(orders) + pruned_by["dominators"] == fubini(n)
        assert max(max(cols[-1]) for _, _, cols in runs if cols) == n - 1

    @pytest.mark.parametrize("n", [40, 256, 257, 300])
    def test_chain_reads_its_last_table_while_ranks_fit_a_byte(self, n):
        # each point forced after the one before: one weak order, one point
        # per node; the last 7 points are one dominator table at depth
        # n - 8 while their ranks, up to n - 1, fit a byte, and from 257
        # points on they are walked node by node
        dom = [0] + [1 << (b - 1) for b in range(1, n)]
        pruned_by = {"dominators": 0}
        runs = list(_runs(n, dom, {}, pruned_by))
        assert list(chain.from_iterable(map(_rows, runs))) == [tuple(range(n))]
        assert 1 + pruned_by["dominators"] == fubini(n)
        tables = [cols for _, _, cols in runs if cols]
        assert tables == ([tuple(bytes([r]) for r in range(n - 7, n))] if n <= 256 else [])

    @settings(max_examples=150, deadline=None)
    @given(forward_checks())
    def test_forward_checked_is_filtered_plain_stream(self, case):
        n, dom, groups = case
        forced = [(i, j) for j in range(n) for i in range(n) if dom and dom[j] >> i & 1]
        reasons = (["dominators"] if dom is not None else []) + list(groups)
        pruned_by = dict.fromkeys(reasons, 0)
        checked = list(_walk(n, dom, groups, pruned_by))
        assert checked == [
            rv
            for rv in self.PLAIN[n]
            if all(rv[i] < rv[j] for i, j in forced)
            and all(_literal("groups", data)(rv) for data in groups.values())
        ]
        # the walk counts into the caller's reasons and adds none
        assert list(pruned_by) == reasons
        assert len(checked) + sum(pruned_by.values()) == fubini(n)


class TestRefused:
    def test_matches_block_count(self):
        # the first blocks that a node with r points left and the first e
        # of them eligible refuses: every nonempty S not inside the
        # eligible points, each leading to fubini(r - |S|) completions
        for r in range(1, 8):
            for e in range(r + 1):
                eligible = (1 << e) - 1
                count = sum(
                    fubini(r - block.bit_count())
                    for block in range(1, 1 << r)
                    if block & ~eligible
                )
                assert _refused(r, e) == count, (r, e)


class TestVerify:
    def test_unit_square_characterization(self):
        report = verify_characterization(GridSpec.of(["0", "1"], 2), [SM, WEAK_IWA])
        assert report.enumerated == 75
        assert report.survivor_count == 1
        assert report.matches_lex
        assert dict(report.pass_counts) == {SM: 1, WEAK_IWA: 1}
        assert report.survivors[0].ranks == (3, 2, 1, 0)
        plain = verify_characterization(GridSpec.of(["0", "1"], 2), [SM, WEAK_IWA], prune=False)
        assert dict(plain.pass_counts) == {SM: 3, WEAK_IWA: 1}

    @pytest.mark.parametrize("axioms", [a for a in _subsets(VERIFY_AXIOMS) if a])
    def test_sequential_pass_counts_match_a_loop(self, axioms):
        # each filter sees only what passed the filters before it, in
        # canonical order, over every weak order of {0,1}^2
        spec = GridSpec.of(["0", "1"], 2)
        sample = _Sample(grid_points(spec))
        tests = [_literal(*_compile_constraint(a, sample)) for a in axioms]
        passed = [0] * len(axioms)
        survivors = []
        for ranking in enumerate_weak_orders(sample.points):
            for k, passes in enumerate(tests):
                if not passes(ranking.ranks):
                    break
                passed[k] += 1
            else:
                survivors.append(ranking)
        report = verify_characterization(spec, reversed(axioms), prune=False)
        assert report.checked == 75
        assert report.pass_counts == tuple(zip(axioms, passed))
        assert report.survivor_count == len(survivors)
        assert report.survivors == tuple(survivors[:SURVIVOR_LISTING_CAP])

    @pytest.mark.parametrize("axioms", STREAM_AXIOM_SETS)
    def test_sequential_pass_counts_match_a_loop_on_the_cube(self, axioms):
        # on {0,1}^3 most runs are 5-point tables gathered onto arbitrary
        # rest masks, and each filter reads them whole
        passed, survivors = _plain_survivors(("0", "1"), 3)[axioms]
        report = verify_characterization(GridSpec.of(["0", "1"], 3), reversed(axioms), prune=False)
        assert report.checked == fubini(8)
        assert report.pass_counts == tuple(zip(axioms, passed))
        assert report.survivor_count == len(survivors)
        assert [s.ranks for s in report.survivors] == survivors[:SURVIVOR_LISTING_CAP]

    @pytest.mark.parametrize("axioms", STREAM_AXIOM_SETS)
    def test_sequential_pass_counts_match_a_loop_on_the_square(self, axioms):
        passed, survivors = _plain_survivors(("0", "1"), 2)[axioms]
        report = verify_characterization(GridSpec.of(["0", "1"], 2), reversed(axioms), prune=False)
        assert report.checked == fubini(4)
        assert report.pass_counts == tuple(zip(axioms, passed))
        assert report.survivor_count == len(survivors)
        assert [s.ranks for s in report.survivors] == survivors[:SURVIVOR_LISTING_CAP]

    def test_pruned_equals_unpruned(self):
        spec = GridSpec.of(["0", "1"], 2)
        pruned = verify_characterization(spec, [SM, WEAK_IWA], prune=True)
        plain = verify_characterization(spec, [SM, WEAK_IWA], prune=False)
        assert pruned.survivors == plain.survivors
        assert pruned.enumerated == plain.enumerated == 75
        assert plain.checked == 75 and pruned.checked == 1
        assert pruned.pruned_by == (("dominators", 70), ("WeakIWA", 4))
        assert plain.pruned_by == ()

    def test_pruned_equals_unpruned_depth_grid(self):
        spec = GridSpec.of(["0", "1"], 3)
        pruned = verify_characterization(spec, [SM, WEAK_IWA], prune=True)
        plain = verify_characterization(spec, [SM, WEAK_IWA], prune=False)
        assert pruned.survivors == plain.survivors
        assert pruned.survivor_count == plain.survivor_count == 1
        assert plain.checked == 545835 and pruned.checked == 1
        # the strong-monotonicity survivors on the cube
        assert dict(plain.pass_counts) == {SM: 223, WEAK_IWA: 1}

    @pytest.mark.parametrize("axioms,survivors", [((SM, WEAK_IWA), 1), ((WEAK_IWA,), 7)])
    def test_pruned_equals_unpruned_at_the_largest_unpruned_grid(self, axioms, survivors):
        # the brute-force reference on its 9 points, fubini(9) weak orders;
        # WeakIWA alone leaves the 2^(d+1) - 1 signed cut lex orders of
        # test_paper_claims.py, d = 2
        spec = GridSpec.of(["0", "1/2", "1"], 2)
        pruned = verify_characterization(spec, axioms, prune=True)
        plain = verify_characterization(spec, axioms, prune=False)
        assert plain.enumerated == plain.checked == pruned.enumerated == 7_087_261
        assert plain.survivor_count == pruned.survivor_count == survivors
        assert plain.survivors == pruned.survivors
        assert len(plain.survivors) == survivors <= SURVIVOR_LISTING_CAP
        assert plain.matches_lex == pruned.matches_lex == (survivors == 1)

    @pytest.mark.parametrize(
        "arity,axioms",
        # the 32 subsets of the verify axioms that contain SM on {0,1}^2,
        # all six on {0,1}^3, the 31 nonempty subsets without SM, then the
        # 7 nonempty subsets of the group axioms on {0,1}^3
        [(2, (SM, *rest)) for rest in _subsets(VERIFY_AXIOMS[1:])]
        + [(3, VERIFY_AXIOMS)]
        + [(2, axioms) for axioms in _subsets(VERIFY_AXIOMS[1:]) if axioms]
        + [(3, axioms) for axioms in _subsets(VERIFY_AXIOMS[3:]) if axioms],
    )
    def test_pruning_changes_only_the_walk(self, arity, axioms):
        spec = GridSpec.of(["0", "1"], arity)
        pruned = verify_characterization(spec, axioms, prune=True)
        plain = verify_characterization(spec, axioms, prune=False)
        assert pruned.pruned and not plain.pruned
        for field in (
            "enumerated", "axiom_order", "survivor_count", "survivors",
            "survivors_truncated", "survivor_lex_agreement", "matches_lex",
        ):
            assert getattr(pruned, field) == getattr(plain, field), field
        # every axiom prunes, so every leaf reached is a survivor
        assert pruned.checked == pruned.survivor_count
        assert dict(pruned.pass_counts) == {a: pruned.checked for a in pruned.axiom_order}
        reasons = (["dominators"] if any(a in PAIR_AXIOMS for a in axioms) else []) + [
            str(a) for a in pruned.axiom_order if a not in PAIR_AXIOMS
        ]
        assert [r for r, _ in pruned.pruned_by] == reasons
        assert sum(c for _, c in pruned.pruned_by) == pruned.pruned_away
        assert plain.pruned_by == () and plain.pruned_away == 0
        assert pruned.checked + pruned.pruned_away == plain.checked == fubini(1 << arity)

    def test_strong_dominance_prunes_like_sm(self):
        # on a product grid every StrongDominance pair follows from SM
        # pairs by transitivity, so its forced pairs prune the same walk
        spec = GridSpec.of(["0", "1/2", "1"], 2)
        report = verify_characterization(spec, [SD, WEAK_IWA])
        assert report.pruned and report.checked == 1
        assert report.survivor_count == 1 and report.matches_lex
        assert report.survivors[0].ranks == lex_ranking(report.points).ranks
        sm = verify_characterization(spec, [SM, WEAK_IWA])
        assert report.pruned_by == sm.pruned_by

    @pytest.mark.parametrize(
        "levels,arity,count",
        [(["0", "1"], 2, 3), (["0", "1/2", "1"], 2, 197), (["0", "1"], 3, 223)],
    )
    def test_sm_alone_equals_sd_alone_on_product_grids(self, levels, arity, count):
        # the abstract's "SM is equivalent to strong dominance", over weak
        # orders on a product grid: every dominance pair there is a chain of
        # single-coordinate increases through grid points. A pruned run
        # reaches exactly the orders the forced pairs leave, where an
        # unpruned one on 9 points would walk all 7,087,261.
        spec = GridSpec.of(levels, arity)
        sm_alone = verify_characterization(spec, [SM])
        sd_alone = verify_characterization(spec, [SD])
        assert sd_alone.checked == sd_alone.survivor_count == sm_alone.survivor_count == count
        assert sd_alone.survivors == sm_alone.survivors
        truncated = count > characterization.SURVIVOR_LISTING_CAP
        assert sd_alone.survivors_truncated == sm_alone.survivors_truncated == truncated
        assert sd_alone.pruned_away == sm_alone.pruned_away

    @pytest.mark.parametrize("axiom", [SM, WEAK_IWA])
    def test_lex_agreement_is_pairwise_agreement(self, axiom):
        report = verify_characterization(GridSpec.of(["0", "1"], 2), [axiom])
        pairwise = tuple(
            all(
                TableRelation(s).compare(a, b) is lex_compare(a, b)
                for a in report.points
                for b in report.points
            )
            for s in report.survivors
        )
        assert report.survivor_lex_agreement == pairwise
        assert True in pairwise and False in pairwise

    def test_workers_do_not_change_the_report(self):
        spec = GridSpec.of(["0", "1"], 3)
        solo = verify_characterization(spec, [SM, WEAK_IWA], workers=1)
        team = verify_characterization(spec, [SM, WEAK_IWA], workers=3)
        for field in (
            "enumerated",
            "checked",
            "pruned_away",
            "pass_counts",
            "survivor_count",
            "survivors",
            "survivor_lex_agreement",
            "matches_lex",
        ):
            assert getattr(solo, field) == getattr(team, field), field

    def test_workers_identical_without_pruning(self):
        spec = GridSpec.of(["0", "1"], 2)
        solo = verify_characterization(spec, [SM, WEAK_IWA], prune=False, workers=1)
        team = verify_characterization(spec, [SM, WEAK_IWA], prune=False, workers=2)
        assert solo.pass_counts == team.pass_counts
        assert solo.survivors == team.survivors
        assert solo.checked == team.checked == 75

    def test_fubini_mismatch_raises(self, monkeypatch, fresh_tables):
        real = _refused

        def undercount(r, e):
            # on {0,1}^2 under SM the root has four points left and one
            # eligible, (1, 1)
            return real(r, e) - 1 if (r, e) == (4, 1) else real(r, e)

        assert real(4, 1) > 0
        monkeypatch.setattr(characterization, "_refused", undercount)
        with pytest.raises(RafprefError, match="Fubini recurrence"):
            verify_characterization(GridSpec.of(["0", "1"], 2), [SM, WEAK_IWA])
        # the unpruned stream goes through the same check: one leaf lost
        def dropping(n, *args):
            runs = _runs(n, *args)
            if n < 4:  # a tail table's walk, not verify's
                return runs
            ranks, _, cols = next(runs)  # the root's first block holds every point
            assert ranks == (0, 0, 0, 0) and cols is None
            return runs

        monkeypatch.setattr(characterization, "_runs", dropping)
        with pytest.raises(RafprefError, match="covered 74 candidates"):
            verify_characterization(GridSpec.of(["0", "1"], 2), [SM, WEAK_IWA], prune=False)

    def test_short_tail_table_fails_the_fubini_check(self, monkeypatch, fresh_tables):
        # a run counts the rows of its table, not fubini(r): a 3-point table
        # one row short loses one row in each of the four runs that read it,
        # the children of the root
        real = _tail

        def short(r, d):
            cols = real(r, d)
            return tuple(col[:-1] for col in cols) if (r, d) == (3, 0) else cols

        monkeypatch.setattr(characterization, "_tail", short)
        with pytest.raises(RafprefError, match="covered 71 candidates"):
            verify_characterization(GridSpec.of(["0", "1"], 2), [SM, WEAK_IWA], prune=False)

    @pytest.mark.parametrize("walk", ["verify", "drain"])
    def test_tables_are_built_once_per_process(self, fresh_tables, walk):
        # the tail tables and their masks depend on sizes alone: a second
        # unpruned verify of {0,1}^3, or a second drain, builds none
        spec = GridSpec.of(["0", "1"], 3)
        run = {
            "verify": lambda: verify_characterization(spec, [SM, WEAK_IWA], prune=False).checked,
            "drain": lambda: sum(1 for _ in enumerate_weak_orders(grid_points(spec))),
        }[walk]

        def misses():
            return _tail.cache_info().misses, _masks.cache_info().misses

        assert run() == fubini(8)
        built = misses()
        # only the verify filters by masks; both walks read tail tables
        assert built[0] > 0 and (built[1] > 0) == (walk == "verify")
        assert run() == fubini(8)
        assert misses() == built

    def test_one_refused_count_per_node(self, monkeypatch):
        # SM+WeakIWA on {0,1/2,1}^3 walks one chain of 27 nodes down to lex
        calls = []

        def counting(r, e):
            calls.append((r, e))
            return _refused(r, e)

        monkeypatch.setattr(characterization, "_refused", counting)
        spec = GridSpec.of(["0", "1/2", "1"], 3)
        report = verify_characterization(spec, [SM, WEAK_IWA])
        assert report.matches_lex
        assert [r for r, _ in calls] == list(range(27, 0, -1))  # once per node

    def test_iwa_and_weak_iwa_share_one_forward_check(self, monkeypatch, fresh_tables):
        real_classes = axioms._hypothesis_classes
        classed, walked = [], []

        def counting_classes(axiom, *args):
            classed.append(axiom)
            return real_classes(axiom, *args)

        def capturing_runs(n, dom, groups, pruned_by):
            walked.append(groups)
            return _runs(n, dom, groups, pruned_by)

        monkeypatch.setattr(axioms, "_hypothesis_classes", counting_classes)
        monkeypatch.setattr(characterization, "_runs", capturing_runs)
        report = verify_characterization(GridSpec.of(["0", "1"], 3), [SM, IWA, WEAK_IWA])
        # the same report as when both reasons were forward-checked: IWA,
        # first in canonical order, refused every block either would
        assert report.survivor_count == report.checked == 1
        assert [s.ranks for s in report.survivors] == [(7, 6, 5, 4, 3, 2, 1, 0)]
        assert report.pruned_by == (("dominators", 534062), ("IWA", 11772), ("WeakIWA", 0))
        assert report.pass_counts == ((SM, 1), (IWA, 1), (WEAK_IWA, 1))
        # one class table for the shared classes, and the walk checks them once
        assert classed == [WEAK_IWA]
        (groups,) = walked
        assert list(groups) == ["IWA"] and groups["IWA"]
        pair = verify_characterization(GridSpec.of(["0", "1"], 3), [SM, IWA])
        assert report.survivors == pair.survivors
        assert report.pruned_by[:2] == pair.pruned_by

    def test_one_signature_table_per_verify(self, monkeypatch, unit_square):
        builds = []

        def counting(name, key):
            real = getattr(axioms, name)

            def wrapper(*args):
                builds.append((name, key(*args)))
                return real(*args)

            monkeypatch.setattr(axioms, name, wrapper)

        counting("_pair_signatures", lambda values: len(values))
        counting("_qualifying_pairs", lambda axiom, *_: axiom)
        counting("_hypothesis_classes", lambda axiom, *_: axiom)
        cases = [
            ([SM], [("_qualifying_pairs", SM)]),
            ([SM, IWA, WEAK_IWA], [("_qualifying_pairs", SM), ("_hypothesis_classes", WEAK_IWA)]),
        ]
        for (axiom_set, tables), prune in product(cases, (True, False)):
            builds.clear()
            report = verify_characterization(GridSpec.of(["0", "1"], 3), axiom_set, prune=prune)
            # every listed survivor is re-audited on the tables of the
            # compile: the SM-only control lists ten of them
            if axiom_set == [SM]:
                assert len(report.survivors) == 10 and report.survivors_truncated
            assert builds == [("_pair_signatures", 8)] + tables, (axiom_set, prune)
        # run_checks builds each table once too: IWA reads WeakIWA's
        # classes, and its tally
        builds.clear()
        assert axioms.run_checks(LEX, unit_square).passed
        assert builds == [
            ("_pair_signatures", 4),
            ("_qualifying_pairs", WD),
            ("_qualifying_pairs", SM),
            ("_qualifying_pairs", SD),
            ("_hypothesis_classes", AxiomId.NON_COMPENSATION),
            ("_hypothesis_classes", AxiomId.AXIOM2_MS),
            ("_hypothesis_classes", WEAK_IWA),
        ]

    def test_audit_survivor_needs_the_table_points(self):
        spec = GridSpec.of(["0", "1"], 2)
        points = tuple(grid_points(spec))
        sample = _Sample(points)
        lex = lex_ranking(points)
        _audit_survivor(lex, [SM, WEAK_IWA], sample)
        reordered = RankedRelation(points[::-1], lex.ranks[::-1])
        with pytest.raises(RafprefError, match="survivor domain"):
            _audit_survivor(reordered, [SM, WEAK_IWA], sample)
        other = tuple(grid_points(GridSpec.of(["1/4", "3/4"], 2)))
        with pytest.raises(RafprefError, match="survivor domain"):
            _audit_survivor(lex_ranking(other), [SM, WEAK_IWA], sample)

    def test_sm_alone_controls(self):
        report = verify_characterization(GridSpec.of(["0", "1"], 2), [SM])
        assert report.survivor_count == 3
        ranks = {s.ranks for s in report.survivors}
        assert (3, 2, 1, 0) in ranks  # lex
        assert (3, 1, 2, 0) in ranks  # priority-reversed lex
        assert not report.matches_lex

    def test_weak_iwa_alone_controls(self):
        report = verify_characterization(GridSpec.of(["0", "1"], 2), [WEAK_IWA])
        assert report.survivor_count == 7
        ranks = {s.ranks for s in report.survivors}
        assert (0, 0, 0, 0) in ranks  # total indifference
        assert (3, 2, 1, 0) in ranks  # lex
        assert report.pruned and report.pruned_by == (("WeakIWA", 68),)
        plain = verify_characterization(GridSpec.of(["0", "1"], 2), [WEAK_IWA], prune=False)
        assert not plain.pruned and plain.survivors == report.survivors

    def test_filter_intersection(self):
        spec = GridSpec.of(["0", "1"], 2)
        both = verify_characterization(spec, [SM, WEAK_IWA])
        sm_only = verify_characterization(spec, [SM])
        wiwa_only = verify_characterization(spec, [WEAK_IWA])
        sm_set = {s.ranks for s in sm_only.survivors}
        wiwa_set = {s.ranks for s in wiwa_only.survivors}
        assert {s.ranks for s in both.survivors} == sm_set & wiwa_set

    def test_full_iwa_same_survivor(self):
        for levels, arity in ((["0", "1"], 2), (["0", "1"], 3)):
            spec = GridSpec.of(levels, arity)
            weak = verify_characterization(spec, [SM, WEAK_IWA])
            strong = verify_characterization(spec, [SM, IWA])
            assert strong.survivor_count == 1
            assert strong.survivors == weak.survivors

    def test_generic_levels(self):
        report = verify_characterization(
            GridSpec.of(["1/4", "3/4"], 2), [SM, WEAK_IWA]
        )
        assert report.survivor_count == 1 and report.matches_lex

    def test_depth_three_regression(self):
        report = verify_characterization(GridSpec.of(["0", "1"], 3), [SM, WEAK_IWA])
        assert report.enumerated == 545835
        assert report.checked == 1  # every leaf reached is a survivor
        assert report.survivor_count == 1 and report.matches_lex

    def test_pruned_walk_builds_no_subset_table(self):
        # a table of the bits of every subset of the 16 points took 8.0 MiB
        # on its own; the forward-checked walk reads bits inline
        tracemalloc.start()
        try:
            report = verify_characterization(
                GridSpec.of(["0", "1/3", "2/3", "1"], 2), [SM, WEAK_IWA]
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.enumerated == fubini(16)
        assert report.survivor_count == 1 and report.matches_lex
        assert peak < 1 << 20, f"peak {peak / (1 << 20):.2f} MiB"

    def test_grid_past_nine_points_runs(self):
        # no point count bounds the pruned walk: 25 points take 82 steps
        report = verify_characterization(
            GridSpec.of(["0", "1/4", "1/2", "3/4", "1"], 2), [SM, WEAK_IWA]
        )
        assert report.enumerated == fubini(25)
        assert report.survivor_count == 1 and report.matches_lex

    def test_point_bound_checked_before_building_points(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("grid_points called on an oversized grid")

        monkeypatch.setattr(characterization, "grid_points", refuse)
        with pytest.raises(TooManyPointsError, match="1073741824 points"):
            verify_characterization(GridSpec.of(["0", "1"], 30), [SM, WEAK_IWA])

    def test_check_bound_refused_before_building_points(self, monkeypatch):
        # every table of the sample holds n^2 pairs
        monkeypatch.setattr(characterization, "grid_points", _reach)
        with pytest.raises(TooManyPointsError, match="2187 points at arity 7; the check bound of 1024"):
            verify_characterization(GridSpec.of(["0", "1/2", "1"], 7), [SM])
        assert axioms.CHECK_MAX_POINTS == 1024
        with pytest.raises(_Reached):  # 1,024 points are admitted
            verify_characterization(GridSpec.of(["0", "1"], 10), [SM])

    def test_one_level_refused_before_building_points(self, monkeypatch):
        # one point has one weak order, and it passes every axiom vacuously
        monkeypatch.setattr(characterization, "grid_points", _reach)
        for axiom_set in ([SM, WEAK_IWA], [NC]):
            with pytest.raises(InvalidGridError, match="^one level gives one point"):
                verify_characterization(GridSpec.of(["1"], 2), axiom_set)
        with pytest.raises(_Reached):  # two levels are admitted
            verify_characterization(GridSpec.of(["0", "1"], 2), [SM])

    @pytest.mark.parametrize("prune", ["no", "", 0, 1, None])
    def test_non_bool_prune_refused_before_any_work(self, monkeypatch, prune):
        # "no" is truthy: it would prune and be reported as pruned="no"
        monkeypatch.setattr(characterization, "grid_points", _reach)
        with pytest.raises(RafprefError, match="^prune must be True or False"):
            verify_characterization(GridSpec.of(["0", "1"], 2), [SM], prune=prune)

    def test_unpruned_walk_refused_above_default_bound(self, monkeypatch):
        # fubini(16) = 5,315,654,681,981,355 leaves would never be walked
        for name in ("grid_points", "_Sample", "_runs"):
            monkeypatch.setattr(characterization, name, _reach)
        with pytest.raises(characterization.UnprunedWalkError, match="16 points; .* above 9 points"):
            verify_characterization(GridSpec.of(["0", "1"], 4), [SM], prune=False)
        assert issubclass(characterization.UnprunedWalkError, TooManyPointsError)
        monkeypatch.setattr(characterization, "grid_points", grid_points)
        monkeypatch.setattr(characterization, "_Sample", _Sample)
        with pytest.raises(_Reached):  # 9 points, fubini(9) = 7,087,261 leaves, are admitted
            verify_characterization(GridSpec.of(["0", "1/2", "1"], 2), [SM], prune=False)

    def test_bad_axiom_set(self):
        with pytest.raises(RafprefError):
            verify_characterization(GridSpec.of(["0", "1"], 2), [])
        with pytest.raises(RafprefError):
            verify_characterization(
                GridSpec.of(["0", "1"], 2), [AxiomId.TRANSITIVE]
            )

    @pytest.mark.parametrize("prune", [True, False])
    def test_survivors_are_reaudited(self, monkeypatch, prune):
        # a compiled WeakIWA that constrains nothing lets the SM-only
        # survivors through; the checkers must refuse them
        real = characterization._compile_constraint

        def lax(axiom, *args):
            return ("groups", []) if axiom is WEAK_IWA else real(axiom, *args)

        monkeypatch.setattr(characterization, "_compile_constraint", lax)
        with pytest.raises(RafprefError, match="compiled filter and checker disagree"):
            verify_characterization(GridSpec.of(["0", "1"], 2), [SM, WEAK_IWA], prune=prune)

    def test_survivors_pass_proof_trace(self, unit_square):
        report = verify_characterization(GridSpec.of(["0", "1"], 2), [SM, WEAK_IWA])
        rel = table_relation(report.survivors[0])
        for a in report.points:
            for b in report.points:
                if a != b:
                    assert proof_trace_check(rel, a, b).passed


def _report_of(grid, axioms, prune):
    """verify's report on grid, less the grid, its points and the time,
    each survivor by its ranks; or the message of the budget error."""
    try:
        report = verify_characterization(grid, axioms, prune=prune)
    except characterization.WalkBudgetError as error:
        return str(error)
    out = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    for name in ("grid", "points", "elapsed_ms"):
        del out[name]
    out["survivors"] = [s.ranks for s in report.survivors]
    return out


class TestVerifyRecodingInvariance:
    """The compiled constraints read only the order of the levels, so a
    strictly increasing recoding of a grid's levels leaves verify's whole
    report unchanged, grid and points aside."""

    @staticmethod
    def check(data, sizes, arities, prune):
        size = data.draw(sizes)
        arity = data.draw(arities)
        before, after = (
            sorted(data.draw(st.sets(rationals01(), min_size=size, max_size=size)))
            for _ in range(2)
        )
        axioms = data.draw(st.lists(st.sampled_from(VERIFY_AXIOMS), min_size=1, unique=True))
        with pytest.MonkeyPatch.context() as patch:
            # a walk that these axioms barely prune fails alike, and fast
            patch.setattr(characterization, "WALK_BUDGET", 50_000)
            assert (_report_of(GridSpec.of(before, arity), axioms, prune)
                    == _report_of(GridSpec.of(after, arity), axioms, prune))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_pruned_report_survives_a_recoding(self, data):
        self.check(data, st.integers(2, 3), st.integers(2, 3), prune=True)

    @settings(max_examples=10, deadline=None)
    @given(st.data())
    def test_unpruned_report_survives_a_recoding(self, data):
        # at most 8 points: two levels at arity 2 or 3
        self.check(data, st.just(2), st.integers(2, 3), prune=False)


class TestWalkBudget:
    """The pruned walk's work is not known in advance: it charges each node
    the 2^e runs of its block loop as it enters, and stops past WALK_BUDGET."""

    def test_steps_are_counted_exactly(self, monkeypatch):
        # SM+WeakIWA on {0,1}^3 walks 28 steps down to lex
        spec = GridSpec.of(["0", "1"], 3)
        monkeypatch.setattr(characterization, "WALK_BUDGET", 28)
        assert verify_characterization(spec, [SM, WEAK_IWA]).matches_lex
        monkeypatch.setattr(characterization, "WALK_BUDGET", 27)
        with pytest.raises(characterization.WalkBudgetError, match="of 8 points .* budget of 27 steps"):
            verify_characterization(spec, [SM, WEAK_IWA])

    @pytest.mark.parametrize(
        "levels,arity,axiom,steps,survivors",
        [(["0", "1/2", "1"], 2, SM, 1_142, 197), (["0", "1"], 3, WD, 766_544, 249_271)],
    )
    def test_pair_only_steps_are_counted_exactly(self, monkeypatch, levels, arity, axiom, steps, survivors):
        # with no group axiom, a child of at most _TAIL_POINTS points is
        # read from a table and charged every step its subtree's nodes
        # would take, so the walk stops at the same step count
        spec = GridSpec.of(levels, arity)
        monkeypatch.setattr(characterization, "WALK_BUDGET", steps)
        assert verify_characterization(spec, [axiom]).survivor_count == survivors
        monkeypatch.setattr(characterization, "WALK_BUDGET", steps - 1)
        points = len(levels) ** arity
        with pytest.raises(characterization.WalkBudgetError,
                           match=f"^the pruned walk of {points} points .* budget of {steps - 1} steps"):
            verify_characterization(spec, [axiom])

    @pytest.mark.parametrize("n", range(1, 9))
    def test_tables_charge_every_node(self, monkeypatch, n):
        # a node with m points left is charged 2^m, and comb(n, m) *
        # fubini(n - m) nodes of the n-point walk leave m: a walk with
        # nothing to refuse, node by node, and the dominator tables of one
        # whose masks force nothing charge exactly that
        steps = sum(comb(n, m) * fubini(n - m) << m for m in range(1, n + 1))
        for dom, reasons in ((None, []), ([0] * n, ["dominators"])):
            monkeypatch.setattr(characterization, "WALK_BUDGET", steps)
            pruned_by = dict.fromkeys(reasons, 0)
            runs = _runs(n, dom, {}, pruned_by)
            assert sum(len(cols[0]) if cols else 1 for _, _, cols in runs) == fubini(n)
            assert sum(pruned_by.values()) == 0
            monkeypatch.setattr(characterization, "WALK_BUDGET", steps - 1)
            with pytest.raises(characterization.WalkBudgetError):
                list(_runs(n, dom, {}, dict.fromkeys(reasons, 0)))

    def test_heaviest_pruned_walk_finishes_under_a_tenth(self, monkeypatch):
        # WeakIWA alone on {0,1/3,2/3,1}^2 takes 336,408 steps, the most of
        # any pruned walk in the tests and scripts
        budget = characterization.WALK_BUDGET // 10
        assert budget > 336_408
        monkeypatch.setattr(characterization, "WALK_BUDGET", budget)
        report = verify_characterization(GridSpec.of(["0", "1/3", "2/3", "1"], 2), [WEAK_IWA])
        assert report.enumerated == fubini(16) and report.survivor_count == 7

    def test_runaway_walk_stops(self, monkeypatch):
        # SM alone on {0,1}^4 leaves far too many weak orders to walk
        monkeypatch.setattr(characterization, "WALK_BUDGET", 10_000)
        with pytest.raises(characterization.WalkBudgetError, match="^the pruned walk of 16 points"):
            verify_characterization(GridSpec.of(["0", "1"], 4), [SM])

    @pytest.mark.parametrize("k", [10, 11])
    def test_deep_pair_only_walk_stops(self, monkeypatch, k):
        # SM alone on the k-level square places one anti-diagonal per
        # depth: its first descent goes past depth 16 with points left
        # before the budget, its tables there still fit a byte, and the
        # walk stops where it would node by node
        levels = ["0", *(f"{i}/{k - 1}" for i in range(1, k - 1)), "1"]
        monkeypatch.setattr(characterization, "WALK_BUDGET", 20_000)
        with pytest.raises(characterization.WalkBudgetError,
                           match=f"^the pruned walk of {k * k} points .* budget of 20000 steps"):
            verify_characterization(GridSpec.of(levels, 2), [SM])

    def test_node_charged_before_its_blocks_are_tried(self, monkeypatch):
        # WeakIWA alone leaves all 27 points eligible at the root: its
        # 2^27 steps pass the budget before one block is forward-checked
        monkeypatch.setattr(characterization, "_fix", _reach)
        with pytest.raises(characterization.WalkBudgetError, match="of 27 points"):
            verify_characterization(GridSpec.of(["0", "1/2", "1"], 3), [WEAK_IWA])

    def test_only_the_pruned_walk_counts(self, monkeypatch, fresh_tables):
        # with no budget at all, every walk given no pruned_by still runs
        monkeypatch.setattr(characterization, "WALK_BUDGET", -1)
        assert sum(1 for _ in enumerate_weak_orders(grid_points(GridSpec.of(["0", "1"], 2)))) == 75
        report = verify_characterization(GridSpec.of(["0", "1"], 2), [SM, WEAK_IWA], prune=False)
        assert report.matches_lex
        assert len(_tail(_TAIL_POINTS, 0)[0]) == fubini(_TAIL_POINTS)
        # given a pruned_by, a walk counts even with nothing to refuse
        with pytest.raises(characterization.WalkBudgetError):
            next(_walk(3, None, {}, {}))
