from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from rafpref import (
    ComparisonOutcome,
    GridSpec,
    InvalidWeightError,
    LexicographicRelation,
    MissingPayoffsError,
    NonContiguousRanksError,
    PriorityContext,
    Raf,
    RankedRelation,
    UnknownPointError,
    UtilityRelation,
    WeightArityMismatchError,
    WeightVector,
    at_least_as_good,
    default_context,
    grid_points,
    lex_compare,
    make_raf,
    mep_utility,
    table_relation,
    utility_compare,
    wlog_compare,
)
from conftest import rationals01

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
