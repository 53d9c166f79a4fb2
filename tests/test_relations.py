from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from rafpref import (
    ALL_AXIOMS,
    RafprefError,
    ComparisonOutcome,
    ContextMismatchError,
    GridSpec,
    InvalidWeightError,
    LexicographicRelation,
    MaxExpectedPayoffRelation,
    MissingPayoffsError,
    NonContiguousRanksError,
    PriorityContext,
    Raf,
    RankedRelation,
    UnknownPointError,
    UtilityRelation,
    WeightArityMismatchError,
    WeightedLogProductRelation,
    WeightVector,
    at_least_as_good,
    default_context,
    first_difference,
    grid_points,
    lex_compare,
    make_raf,
    mep_utility,
    run_checks,
    table_relation,
    utility_compare,
    wlog_compare,
)
from rafpref import relations
from rafpref.relations import MAX_WEIGHT
from conftest import rationals01, raf_values

FIRST = ComparisonOutcome.FIRST_PREFERRED
SECOND = ComparisonOutcome.SECOND_PREFERRED
INDIFF = ComparisonOutcome.INDIFFERENT


class TestOutcome:
    def test_mirrors(self):
        assert FIRST.mirrored() is SECOND
        assert SECOND.mirrored() is FIRST
        assert INDIFF.mirrored() is INDIFF

    def test_weak_verdict(self):
        assert at_least_as_good(FIRST)
        assert at_least_as_good(INDIFF)
        assert not at_least_as_good(SECOND)


class TestLex:
    def test_money_example(self, raf_a, raf_b):
        assert lex_compare(raf_a, raf_b) is FIRST
        assert lex_compare(raf_b, raf_a) is SECOND

    def test_identity(self, raf_a):
        assert lex_compare(raf_a, raf_a) is INDIFF

    def test_decided_at_top_priority(self, money_ctx):
        a = make_raf((0, 1), money_ctx)
        b = make_raf((1, 0), money_ctx)
        assert lex_compare(a, b) is SECOND

    def test_antisymmetry_exhaustive(self, nine_grid):
        # a linear order: indifference only on the diagonal
        for a in nine_grid:
            for b in nine_grid:
                outcome = lex_compare(a, b)
                assert (outcome is INDIFF) == (a == b)

    def test_transitive_and_mirror_exhaustive(self, nine_grid):
        for a in nine_grid:
            for b in nine_grid:
                assert lex_compare(b, a) is lex_compare(a, b).mirrored()
                for c in nine_grid:
                    if at_least_as_good(lex_compare(a, b)) and at_least_as_good(
                        lex_compare(b, c)
                    ):
                        assert at_least_as_good(lex_compare(a, c))

    @given(st.data())
    def test_lex_is_the_first_difference_rule(self, data):
        # lex_compare reads the profiles' integer ratios; it must agree with
        # comparing the values at their first difference. a holds Fractions
        # or plain ints (Raf takes both); b copies some of a's values as the
        # same objects, some as equal but distinct Fractions and some as
        # ints where they are whole, and may sit on an equal but distinct
        # context
        arity = data.draw(st.integers(2, 4))
        held = st.sampled_from((0, 1)) if data.draw(st.booleans()) else rationals01()
        a_values = data.draw(st.tuples(*[held] * arity))
        own = data.draw(raf_values(arity))
        kinds = data.draw(st.lists(st.sampled_from(("same", "copy", "int", "own")),
                                   min_size=arity, max_size=arity))
        copies = {
            "same": lambda x: x,
            "copy": lambda x: Fraction(x.numerator, x.denominator),
            "int": lambda x: int(x) if x == int(x) else x,
        }
        b_values = tuple(y if kind == "own" else copies[kind](x) for x, y, kind in zip(a_values, own, kinds))
        ctx = default_context(arity)
        a = Raf(ctx, a_values)
        b = Raf(data.draw(st.sampled_from((ctx, default_context(arity)))), b_values)
        k = first_difference(a, b)
        if k is None:
            expected = INDIFF
        else:
            expected = FIRST if a.values[k - 1] > b.values[k - 1] else SECOND
        assert lex_compare(a, b) is expected
        assert lex_compare(b, a) is expected.mirrored()

    def test_contexts_equal_or_mixed(self):
        labels = ("a", "b")
        ctx = PriorityContext.of(labels, {"a": 40, "b": 10})
        twin = PriorityContext.of(labels, {"a": 40, "b": 10})
        assert ctx == twin and ctx is not twin
        other = PriorityContext.of(("p", "q"), {"p": 40, "q": 10})
        a = make_raf(("1/2", "1/3"), ctx)
        twin_b = make_raf(("1/2", "1/4"), twin)
        other_b = make_raf(("1/2", "1/4"), other)
        wlog = WeightedLogProductRelation(WeightVector(twin, (1, 2)))
        # an equal context built apart compares without error, like the same one
        assert lex_compare(a, twin_b) is FIRST
        assert MaxExpectedPayoffRelation().compare(a, twin_b) is INDIFF
        assert wlog.compare(a, twin_b) is FIRST
        assert wlog_compare(a, twin_b, WeightVector(ctx, (1, 2))) is FIRST
        for compare in (lex_compare, MaxExpectedPayoffRelation().compare, wlog.compare,
                        lambda x, y: wlog_compare(x, y, wlog.weights)):
            with pytest.raises(ContextMismatchError):
                compare(a, other_b)
            with pytest.raises(ContextMismatchError):
                compare(other_b, a)

    @given(rationals01(), rationals01(), rationals01(), rationals01())
    def test_top_priority_gap_decides(self, a1, a2, b1, b2):
        ctx = default_context(2)
        a, b = Raf(ctx, (a1, a2)), Raf(ctx, (b1, b2))
        if a1 > b1:
            assert lex_compare(a, b) is FIRST


class TestMep:
    def test_money_utilities(self, raf_a, raf_b):
        # computed directly: max(40 * 1/5, 10 * 4/5) and max(40 * 1/10, 10 * 9/10)
        assert mep_utility(raf_a) == Fraction(8)
        assert mep_utility(raf_b) == Fraction(9)

    def test_money_verdict_prefers_b(self, raf_a, raf_b):
        assert utility_compare(raf_a, raf_b, mep_utility) is SECOND

    def test_zero_payoffs(self):
        ctx = PriorityContext.of(("a", "b"), {"a": 0, "b": 0})
        assert mep_utility(make_raf(("1/2", "1/3"), ctx)) == 0

    def test_missing_payoffs(self):
        raf = make_raf((0, 0), default_context(2))
        with pytest.raises(MissingPayoffsError):
            mep_utility(raf)

    def test_constant_utility_all_indifferent(self, raf_a, raf_b):
        assert utility_compare(raf_a, raf_b, lambda _: Fraction(7)) is INDIFF

    def test_ties_are_indifferent(self):
        ctx = PriorityContext.of(("a", "b"), {"a": 40, "b": 10})
        a = make_raf(("1/5", "3/5"), ctx)
        b = make_raf(("1/5", "1/2"), ctx)
        assert mep_utility(a) == mep_utility(b) == 8
        assert a != b
        assert utility_compare(a, b, mep_utility) is INDIFF

    @pytest.mark.parametrize("scale", ["2", "1/3", "7/5"])
    def test_payoff_scaling_preserves_outcomes(self, scale):
        base = PriorityContext.of(("a", "b"), {"a": 40, "b": 10})
        factor = Fraction(scale)
        scaled = PriorityContext.of(
            ("a", "b"), {"a": 40 * factor, "b": 10 * factor}
        )
        levels = [Fraction(0), Fraction(1, 5), Fraction(1, 2), Fraction(1)]
        for va in product(levels, repeat=2):
            for vb in product(levels, repeat=2):
                plain = utility_compare(Raf(base, va), Raf(base, vb), mep_utility)
                resized = utility_compare(
                    Raf(scaled, va), Raf(scaled, vb), mep_utility
                )
                assert plain is resized


class TestWlog:
    def test_exact_product_comparison(self):
        ctx = default_context(2)
        w = WeightVector(ctx, (1, 1))
        a = make_raf(("1/2", "1/2"), ctx)  # product 1/4
        b = make_raf(("1/4", "3/4"), ctx)  # product 3/16
        assert wlog_compare(a, b, w) is FIRST

    def test_identity(self):
        ctx = default_context(2)
        w = WeightVector(ctx, (2, 3))
        a = make_raf(("1/2", "1/3"), ctx)
        assert wlog_compare(a, a, w) is INDIFF

    def test_zero_coordinate_bottom_class(self):
        ctx = default_context(2)
        w = WeightVector(ctx, (1, 1))
        a = make_raf((0, 1), ctx)
        b = make_raf(("0", "1/2"), ctx)
        assert wlog_compare(a, b, w) is INDIFF

    def test_nontrivial_weights_stay_exact(self):
        ctx = default_context(2)
        w = WeightVector(ctx, (3, 2))
        a = make_raf(("2/3", "1/2"), ctx)  # (8/27)(1/4) = 2/27 = 4/54
        b = make_raf(("1/2", "2/3"), ctx)  # (1/8)(4/9) = 1/18 = 3/54
        assert wlog_compare(a, b, w) is FIRST
        assert wlog_compare(b, a, w) is SECOND

    def test_weights_validate(self):
        ctx = default_context(2)
        with pytest.raises(WeightArityMismatchError):
            WeightVector(ctx, (1,))
        with pytest.raises(InvalidWeightError):
            WeightVector(ctx, (0, 1))

    def test_weight_bound(self):
        ctx = default_context(2)
        assert WeightVector(ctx, (MAX_WEIGHT, 1)).weights == (MAX_WEIGHT, 1)
        for w in (MAX_WEIGHT + 1, 10 ** 22):
            with pytest.raises(InvalidWeightError, match=f"above {MAX_WEIGHT}"):
                WeightVector(ctx, (1, w))

    def test_weight_context_checked(self):
        ctx = default_context(2)
        other = PriorityContext(("a", "b"))
        w = WeightVector(other, (1, 1))
        a = make_raf(("1/2", "1/2"), ctx)
        with pytest.raises(WeightArityMismatchError):
            wlog_compare(a, a, w)

    @settings(max_examples=60)
    @given(st.data())
    def test_interior_dominance_respected(self, data):
        ctx = default_context(2)
        w = WeightVector(ctx, (data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))))
        pos = st.fractions(min_value=Fraction(1, 10), max_value=1, max_denominator=10)
        a = Raf(ctx, (data.draw(pos), data.draw(pos)))
        b = Raf(ctx, (data.draw(pos), data.draw(pos)))
        if all(x > y for x, y in zip(a.values, b.values)):
            assert wlog_compare(a, b, w) is FIRST


class TestRankedRelation:
    def test_from_rank_map(self, unit_square):
        ranking = RankedRelation.from_rank_map(
            {p: i for i, p in enumerate(unit_square)}
        )
        assert ranking.rank_of(unit_square[2]) == 2

    def test_non_contiguous_rejected(self, unit_square):
        with pytest.raises(NonContiguousRanksError):
            RankedRelation.from_rank_map({p: 2 for p in unit_square})

    @pytest.mark.parametrize(
        "points,ranks,message",
        [
            ((), (), "empty ranking"),
            (range(4), (0, 1, 2), "one rank per point"),
            ((0, 1, 1), (0, 1, 2), "duplicate points"),
        ],
    )
    def test_malformed_ranking_rejected(self, unit_square, points, ranks, message):
        ranking = RankedRelation(tuple(unit_square[i] for i in points), ranks)
        with pytest.raises(NonContiguousRanksError, match=message):
            ranking.validate()

    def test_unknown_point(self, unit_square, raf_a):
        ranking = RankedRelation.from_rank_map({p: 0 for p in unit_square})
        with pytest.raises(UnknownPointError):
            ranking.rank_of(raf_a)

    def test_blocks_and_chain(self, unit_square):
        p00, p01, p10, p11 = unit_square
        ranking = RankedRelation.from_rank_map({p11: 0, p10: 1, p01: 1, p00: 2})
        assert ranking.blocks() == ((p11,), (p10, p01), (p00,))
        assert ranking.chain() == "(1, 1) ≻ (1, 0) ∼ (0, 1) ≻ (0, 0)"


class TestTableRelation:
    def test_lex_table_matches_lex(self, unit_square):
        p00, p01, p10, p11 = unit_square
        rel = table_relation(
            RankedRelation.from_rank_map({p11: 0, p10: 1, p01: 2, p00: 3})
        )
        for a in unit_square:
            for b in unit_square:
                assert rel.compare(a, b) is lex_compare(a, b)

    def test_total_indifference(self, unit_square):
        rel = table_relation(RankedRelation.from_rank_map({p: 0 for p in unit_square}))
        for a in unit_square:
            for b in unit_square:
                assert rel.compare(a, b) is INDIFF

    def test_lookup_by_freshly_built_equal_profile(self, unit_square):
        p00, p01, p10, p11 = unit_square
        rel = table_relation(
            RankedRelation.from_rank_map({p11: 0, p10: 1, p01: 2, p00: 3})
        )
        ctx = p00.context
        fresh_top = make_raf(("1", "1"), ctx)
        fresh_bottom = Raf(ctx, (Fraction(0), Fraction(0)))
        assert fresh_top is not p11 and fresh_bottom is not p00
        assert rel.compare(fresh_top, fresh_bottom) is FIRST
        assert rel.compare(p01, make_raf(("1", "0"), ctx)) is SECOND

    def test_unknown_point_raises(self, unit_square, raf_a):
        rel = table_relation(RankedRelation.from_rank_map({p: 0 for p in unit_square}))
        with pytest.raises(UnknownPointError):
            rel.compare(raf_a, raf_a)


class TestRelationContract:
    @settings(max_examples=40)
    @given(st.data())
    def test_utility_relations_reflexive_and_mirror(self, data):
        ctx = PriorityContext.of(("a", "b"), {"a": 3, "b": 5})
        rel = UtilityRelation(mep_utility, name="mep")
        vals = st.tuples(rationals01(), rationals01())
        a = Raf(ctx, data.draw(vals))
        b = Raf(ctx, data.draw(vals))
        assert rel.compare(a, a) is INDIFF
        assert rel.compare(b, a) is rel.compare(a, b).mirrored()

    def test_lex_relation_wrapper(self, raf_a, raf_b):
        assert LexicographicRelation().compare(raf_a, raf_b) is FIRST


def _int_utility(a: Raf) -> int:
    """An int utility with ties and negative values."""
    return (sum(a.values) * 4).__floor__() - 2 * len(a.values)


def _fine_utility(a: Raf) -> Fraction:
    """A Fraction utility whose denominators are about 10**90, and whose
    profiles differ by less than 10**-60."""
    return sum((v / (10**30 + k) for k, v in enumerate(a.values, 1)), Fraction(-1, 3**190))


class TestUtilityMemo:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_verdicts_match_the_plain_comparators(self, data):
        arity = data.draw(st.integers(2, 3))
        levels = data.draw(st.lists(rationals01(6), min_size=1, max_size=3, unique=True))
        labels = [f"x{i}" for i in range(1, arity + 1)]
        payoffs = data.draw(st.lists(st.integers(0, 9), min_size=arity, max_size=arity))
        ctx = PriorityContext.of(labels, dict(zip(labels, payoffs)))
        weights = WeightVector(
            ctx, tuple(data.draw(st.lists(st.integers(1, 4), min_size=arity, max_size=arity)))
        )
        points = grid_points(GridSpec.of(levels, arity), ctx)
        index = st.integers(0, len(points) - 1)
        pairs = data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=40))
        mep, wlog = MaxExpectedPayoffRelation(), WeightedLogProductRelation(weights)
        ints, fine = UtilityRelation(_int_utility), UtilityRelation(_fine_utility)
        for i, j in pairs:
            a, b = points[i], points[j]
            assert mep.compare(a, b) is utility_compare(a, b, mep_utility)
            assert wlog.compare(a, b) is wlog_compare(a, b, weights)
            assert ints.compare(a, b) is utility_compare(a, b, _int_utility)
            assert fine.compare(a, b) is utility_compare(a, b, _fine_utility)

    def test_close_fractions_are_told_apart(self, money_ctx):
        a, b = make_raf(("1/2", "1/3"), money_ctx), make_raf(("1/3", "1/2"), money_ctx)
        tiny = Fraction(1, 10**80)
        rel = UtilityRelation(lambda p: Fraction(1, 3) + (tiny if p == a else tiny * (1 - tiny)))
        assert rel.compare(a, b) is FIRST and rel.compare(b, a) is SECOND
        assert rel.compare(a, a) is INDIFF

    @pytest.mark.parametrize("value", ["1/2", None, float("nan"), float("inf"), 1j, [1, 2]])
    def test_utility_without_an_integer_ratio_refused(self, raf_a, value):
        rel = UtilityRelation(lambda p: value, name="odd")
        with pytest.raises(RafprefError, match="^relation 'odd': the utility of .* no exact integer ratio"):
            rel.compare(raf_a, raf_a)
        assert not rel._memo  # nothing is kept, so a later call is refused too

    def test_integer_ratios_of_other_numbers_kept(self, raf_a, raf_b):
        # an int, a bool and a finite float compare by their exact ratios
        for value, ratio in ((3, (3, 1)), (True, (1, 1)), (0.5, (1, 2))):
            rel = UtilityRelation(lambda p: value)
            assert rel.compare(raf_a, raf_b) is INDIFF
            assert rel._memo == {raf_a: ratio, raf_b: ratio}

    def test_run_checks_evaluates_each_point_once(self):
        ctx = PriorityContext.of(("a", "b", "c"), {"a": 40, "b": 10, "c": 5})
        sample = grid_points(GridSpec.of([0, Fraction(1, 2), 1], 3), ctx)
        calls = []

        def utility(a):
            calls.append(a)
            return mep_utility(a)

        report = run_checks(UtilityRelation(utility), sample, ALL_AXIOMS)
        assert len(calls) == len(sample) == 27
        assert report.results == run_checks(MaxExpectedPayoffRelation(), sample, ALL_AXIOMS).results

    def test_checks_run_on_a_memo_hit(self, raf_a):
        other = make_raf(("1/5", "4/5"), PriorityContext.of(("p", "q"), {"p": 40, "q": 10}))
        for rel in (MaxExpectedPayoffRelation(), UtilityRelation(mep_utility)):
            assert rel.compare(raf_a, raf_a) is INDIFF
            with pytest.raises(ContextMismatchError):
                rel.compare(raf_a, other)
            with pytest.raises(ContextMismatchError):
                rel.compare(other, raf_a)
        rel = WeightedLogProductRelation(WeightVector(raf_a.context, (1, 1)))
        assert rel.compare(raf_a, raf_a) is INDIFF
        with pytest.raises(ContextMismatchError):
            rel.compare(raf_a, other)
        # same values on another context: the weights no longer fit
        with pytest.raises(WeightArityMismatchError):
            rel.compare(other, other)

    def test_weights_context_checked_once_per_profile(self, monkeypatch):
        # wlog checks the weights' context as it first keeps a profile's
        # utility, not on every compare: the 81 ordered pairs of {0,1/2,1}^2
        # check each of the 9 profiles once
        calls = []
        check = relations._require_weights_context
        monkeypatch.setattr(relations, "_require_weights_context",
                            lambda a, weights: calls.append(a) or check(a, weights))
        points = grid_points(GridSpec.of([0, Fraction(1, 2), 1], 2))
        rel = WeightedLogProductRelation(WeightVector(points[0].context, (1, 1)))
        for a, b in product(points, repeat=2):
            rel.compare(a, b)
        assert len(calls) == 9 and set(calls) == set(points)

    def test_memo_leaves_repr_eq_and_hash_alone(self, money_ctx):
        points = grid_points(GridSpec.of([0, Fraction(1, 3), Fraction(1, 2), 1], 2), money_ctx)
        weights = WeightVector(money_ctx, (2, 3))
        for make in (
            MaxExpectedPayoffRelation,
            lambda: WeightedLogProductRelation(weights),
            lambda: UtilityRelation(mep_utility),
        ):
            rel, fresh = make(), make()
            before = (repr(rel), hash(rel))
            for k in range(1000):
                rel.compare(points[k % len(points)], points[(7 * k) % len(points)])
            assert (repr(rel), hash(rel)) == before == (repr(fresh), hash(fresh))
            assert rel == fresh


class TestRanksHook:
    def test_ranks_are_dense_best_lowest(self, money_ctx):
        a, b, c = (make_raf(v, money_ctx) for v in (("1/2", "1/3"), ("1/2", "0"), ("1/3", "1")))
        assert LexicographicRelation().ranks([b, c, a, b]) == [1, 2, 0, 1]
        # mep: 20, 20 and 40/3; ties share a rank
        assert MaxExpectedPayoffRelation().ranks([b, c, a]) == [0, 1, 0]
        # a table's own ranks, gaps on a subset included
        assert table_relation(RankedRelation.from_rank_map({a: 0, b: 2, c: 1})).ranks([b, a]) == [2, 0]

    def test_refuses_what_compare_refuses(self, raf_a, unit_square):
        other = make_raf(("1/5", "4/5"), PriorityContext.of(("p", "q"), {"p": 40, "q": 10}))
        for rel in (
            LexicographicRelation(),
            MaxExpectedPayoffRelation(),
            WeightedLogProductRelation(WeightVector(raf_a.context, (1, 1))),
            UtilityRelation(mep_utility),
        ):
            with pytest.raises(ContextMismatchError):
                rel.ranks([raf_a, other])
            with pytest.raises(ContextMismatchError):
                rel.ranks([other, raf_a])
        with pytest.raises(WeightArityMismatchError):
            WeightedLogProductRelation(WeightVector(raf_a.context, (1, 1))).ranks([other])
        with pytest.raises(MissingPayoffsError):
            MaxExpectedPayoffRelation().ranks(unit_square)
        table = table_relation(RankedRelation.from_rank_map({p: 0 for p in unit_square}))
        with pytest.raises(UnknownPointError, match="not in table domain"):
            table.ranks(unit_square + [make_raf(("1/2", "1/2"), unit_square[0].context)])

    def test_base_relation_has_none(self, unit_square):
        class Plain(relations.PreferenceRelation):
            def compare(self, a, b):
                return lex_compare(a, b)

        assert Plain().ranks(unit_square) is None
