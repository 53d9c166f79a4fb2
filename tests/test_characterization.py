import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from rafpref import (
    AxiomId,
    ComparisonOutcome,
    EqualInputsError,
    GridSpec,
    LexicographicRelation,
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
    VERIFY_AXIOMS,
    _audit_survivor,
    _compile_constraint,
    _skip_table,
    _Walk,
    _passes,
)

LEX = LexicographicRelation()
SM = AxiomId.STRONG_MONOTONICITY
WD = AxiomId.WEAK_DOMINANCE
SD = AxiomId.STRONG_DOMINANCE
WEAK_IWA = AxiomId.WEAK_IWA
IWA = AxiomId.IWA

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


class TestFubini:
    def test_pinned_values(self):
        assert tuple(fubini(n) for n in range(1, 10)) == FUBINI_PINNED

    def test_matches_independent_recurrence(self):
        for n in range(0, 12):
            assert fubini(n) == independent_fubini(n)

    def test_large_first_call_does_not_recurse_per_point(self):
        # from a cold cache, one stack frame per point would overflow the
        # interpreter's default limit at about 340 points
        fubini.cache_clear()
        assert fubini(400) == independent_fubini(400)


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 3), (3, 13), (4, 75), (5, 541)])
    def test_counts(self, n, count):
        points = grid_points(GridSpec.of(["0", "1"], 2))[:n] if n <= 4 else None
        if points is None:
            points = grid_points(GridSpec.of(["0", "1/2", "1"], 2))[:n]
        orders = list(enumerate_weak_orders(points))
        assert len(orders) == count
        assert len(set(orders)) == count

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

    def test_duplicates_rejected(self, unit_square):
        with pytest.raises(RafprefError):
            next(enumerate_weak_orders(unit_square + unit_square[:1]))


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
        sample = _Sample(unit_square)
        compiled = {axiom: _compile_constraint(axiom, sample) for axiom in VERIFY_AXIOMS}
        for ranking in enumerate_weak_orders(unit_square):
            rel = table_relation(ranking)
            for axiom, checker in self.CHECKERS.items():
                kind, data = compiled[axiom]
                fast = _passes(ranking.ranks, kind, data)
                literal = checker(rel, list(unit_square)).passed
                assert fast == literal, (axiom, ranking.ranks)

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
                kind, data = compiled[axiom]
                fast = _passes(ranks, kind, data)
                literal = checker(rel, list(pts)).passed
                assert fast == literal, (axiom, ranks)


class TestPrunedStreamEquivalence:
    @pytest.mark.parametrize("levels,arity", [(["0", "1"], 2), (["0", "1"], 3)])
    def test_pruned_is_filtered_plain_stream(self, levels, arity):
        points = grid_points(GridSpec.of(levels, arity))
        n = len(points)
        _, forced = _compile_constraint(SM, _Sample(points))
        plain_survivors = [
            rv
            for rv in _Walk(n)
            if all(rv[i] < rv[j] for i, j in forced)
        ]
        report = verify_characterization(
            GridSpec.of(levels, arity), [SM], prune=True
        )
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


class TestWalk:
    PLAIN = {n: list(_Walk(n)) for n in range(7)}

    def test_plain_counts(self):
        assert [len(self.PLAIN[n]) for n in range(7)] == [fubini(n) for n in range(7)]

    @settings(max_examples=200, deadline=None)
    @given(dominator_masks())
    def test_pruned_is_filtered_plain_stream(self, dom):
        # masks may be cyclic or name the point itself; those prune everything
        n = len(dom)
        forced = [(i, j) for j in range(n) for i in range(n) if dom[j] >> i & 1]
        walk = _Walk(n, dom)
        pruned = list(walk)
        assert pruned == [
            rv for rv in self.PLAIN[n] if all(rv[i] < rv[j] for i, j in forced)
        ]
        assert len(pruned) + walk.skipped == fubini(n)

    @settings(max_examples=150, deadline=None)
    @given(forward_checks())
    def test_forward_checked_is_filtered_plain_stream(self, case):
        n, dom, groups = case
        forced = [(i, j) for j in range(n) for i in range(n) if dom and dom[j] >> i & 1]
        walk = _Walk(n, dom, groups)
        checked = list(walk)
        assert checked == [
            rv
            for rv in self.PLAIN[n]
            if all(rv[i] < rv[j] for i, j in forced)
            and all(_passes(rv, "groups", data) for data in groups.values())
        ]
        reasons = (["dominators"] if dom is not None else []) + list(groups)
        assert list(walk.pruned_by) == reasons
        assert len(checked) + sum(walk.pruned_by.values()) == fubini(n)
        assert walk.skipped == sum(walk.pruned_by.values())


class TestSkipTable:
    def test_matches_direct_sum(self):
        # skip[r][e] = fubini(r) - sum_{s=1..e} C(e,s) fubini(r-s), e < r
        for n in range(31):
            skip = _skip_table(n)
            assert [len(row) for row in skip] == list(range(1, n + 2))
            for r, row in enumerate(skip):
                assert row[r] == 0
                for e in range(r):
                    taken = sum(comb(e, s) * fubini(r - s) for s in range(1, e + 1))
                    assert row[e] == fubini(r) - taken, (n, r, e)


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

    def test_fubini_mismatch_raises(self, monkeypatch):
        real = characterization._skip_table

        def undercount(n):
            # on {0,1}^2 under SM the root has four points left and one
            # eligible, (1, 1)
            skip = real(n)
            assert skip[4][1] > 0
            skip[4][1] -= 1
            return skip

        monkeypatch.setattr(characterization, "_skip_table", undercount)
        with pytest.raises(RafprefError, match="Fubini recurrence"):
            verify_characterization(GridSpec.of(["0", "1"], 2), [SM, WEAK_IWA])

    def test_iwa_and_weak_iwa_share_one_forward_check(self, monkeypatch):
        real_classes, real_walk = axioms._hypothesis_classes, _Walk
        classed, walked = [], []

        def counting_classes(axiom, *args):
            classed.append(axiom)
            return real_classes(axiom, *args)

        def capturing_walk(n, dom=None, groups=None):
            walked.append(groups)
            return real_walk(n, dom, groups)

        monkeypatch.setattr(axioms, "_hypothesis_classes", counting_classes)
        monkeypatch.setattr(characterization, "_Walk", capturing_walk)
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
        assert list(groups) == ["IWA", "WeakIWA"]
        assert groups["IWA"] and groups["WeakIWA"] == []
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
                GridSpec.of(["0", "1/3", "2/3", "1"], 2), [SM, WEAK_IWA], max_points=16
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.enumerated == fubini(16)
        assert report.survivor_count == 1 and report.matches_lex
        assert peak < 1 << 20, f"peak {peak / (1 << 20):.2f} MiB"

    def test_grid_too_large(self):
        with pytest.raises(TooManyPointsError):
            verify_characterization(
                GridSpec.of(["0", "1/4", "1/2", "3/4", "1"], 2), [SM, WEAK_IWA]
            )

    def test_point_bound_checked_before_building_points(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("grid_points called on an oversized grid")

        monkeypatch.setattr(characterization, "grid_points", refuse)
        with pytest.raises(TooManyPointsError, match="1073741824 points"):
            verify_characterization(GridSpec.of(["0", "1"], 30), [SM, WEAK_IWA])

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
