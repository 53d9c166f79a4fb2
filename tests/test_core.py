import copy
import math
import pickle
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rafpref import (
    ArityMismatchError,
    ContextMismatchError,
    GridSpec,
    InvalidArityError,
    InvalidContextError,
    InvalidGridError,
    OutOfRangeError,
    PriorityContext,
    Raf,
    RationalParseError,
    default_context,
    first_difference,
    format_rational,
    grid_points,
    make_raf,
    parse_rational,
    pointwise_geq,
    strictly_dominates,
)
from rafpref.cli import main
from rafpref.core import coerce_rational
from conftest import rationals01


class TestParseRational:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("4/5", Fraction(4, 5)),
            ("0.8", Fraction(4, 5)),
            ("8/10", Fraction(4, 5)),
            ("1/2", Fraction(1, 2)),
            (".5", Fraction(1, 2)),
            ("0", Fraction(0)),
            ("1", Fraction(1)),
            ("3/2", Fraction(3, 2)),
            ("-1/2", Fraction(-1, 2)),
            ("40", Fraction(40)),
        ],
    )
    def test_exact(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize(
        "text",
        # the last three in Arabic-Indic digits, which int() and Fraction() would read
        ["1/0", "1e-3", "nan", "inf", "", "1/-2", "a/b", "1.5e2", "0x3",
         "\u0661/\u0662", "\u0660.\u0665", "\u0661"],
    )
    def test_rejects(self, text):
        with pytest.raises(RationalParseError):
            parse_rational(text)

    @given(st.fractions())
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q

    @pytest.mark.parametrize(
        "text", ["1/" + "1" * 5000, "1" * 5000 + "/3", "0." + "1" * 5000, "1" * 5000]
    )
    def test_digits_past_int_limit_refused(self, text):
        with pytest.raises(RationalParseError, match="digits in a rational literal"):
            parse_rational(text)

    def test_long_bad_literal_refused_in_linear_time(self):
        start = time.perf_counter()
        with pytest.raises(RationalParseError, match="not a rational literal"):
            parse_rational("1" * 100_000 + "x")
        assert time.perf_counter() - start < 1.0  # quadratic matching took minutes

    @pytest.mark.parametrize("text", ["1" * 100_000 + "x", "1/0" + " " * 100_000])
    def test_long_bad_literal_quoted_in_short(self, text, capsys):
        with pytest.raises(RationalParseError) as info:
            parse_rational(text)
        assert len(str(info.value)) < 100
        assert main(["verify", "--levels", "0," + text, "--arity", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --levels: ") and err.count("\n") == 1
        assert len(err.encode()) < 200

    def test_floats_refused_in_construction(self):
        ctx = default_context(2)
        with pytest.raises(RationalParseError):
            make_raf([0.5, 0.5], ctx)

    @pytest.mark.parametrize("value", [True, object()])
    def test_non_rationals_refused(self, value):
        with pytest.raises(RationalParseError, match="cannot interpret"):
            coerce_rational(value)


class TestPriorityContext:
    def test_needs_two_alternatives(self):
        with pytest.raises(InvalidContextError):
            PriorityContext(("only",))

    def test_distinct_labels(self):
        with pytest.raises(InvalidContextError):
            PriorityContext(("a", "a"))

    def test_payoff_coverage(self):
        with pytest.raises(InvalidContextError):
            PriorityContext.of(("a", "b"), {"a": 1})
        with pytest.raises(InvalidContextError):
            PriorityContext.of(("a", "b"), {"a": 1, "b": 1, "c": 1})

    def test_payoffs_nonnegative(self):
        with pytest.raises(InvalidContextError):
            PriorityContext.of(("a", "b"), {"a": -1, "b": 1})

    def test_index_of(self, money_ctx):
        assert money_ctx.index_of("$40") == 0
        assert money_ctx.index_of("$10") == 1
        with pytest.raises(InvalidContextError):
            money_ctx.index_of("$100")


class TestRaf:
    def test_money_example(self, money_ctx, raf_a):
        assert raf_a.values == (Fraction(1, 5), Fraction(4, 5))
        assert raf_a.value_of("$10") == Fraction(4, 5)

    def test_all_unavailable_is_valid(self, money_ctx):
        raf = make_raf((0, 0), money_ctx)
        assert raf.values == (Fraction(0), Fraction(0))

    def test_above_one_rejected(self, money_ctx):
        with pytest.raises(OutOfRangeError):
            make_raf(("3/2", "1/2"), money_ctx)

    def test_negative_rejected(self, money_ctx):
        with pytest.raises(OutOfRangeError):
            make_raf(("-1/2", "1/2"), money_ctx)

    @pytest.mark.parametrize("value", [Fraction(0), Fraction(1), 0, 1])
    def test_range_bounds_admitted(self, money_ctx, value):
        raf = Raf(money_ctx, (value, Fraction(1, 2)))
        # a plain int is the Fraction it stands for
        assert raf == Raf(money_ctx, (Fraction(value), Fraction(1, 2)))
        assert (raf.numerators, raf.denominator) == ((2 * value, 1), 2)

    @pytest.mark.parametrize("value", [0.0, 0.1, 2.0, "1/2", "0", True, False, None, 1j])
    def test_only_exact_values_admitted(self, money_ctx, value):
        # refused before any ratio is taken: a float would be stored as its
        # binary ratio, and a bool read as 0 or 1
        with pytest.raises(RationalParseError, match="is not an int or a Fraction$"):
            Raf(money_ctx, (Fraction(1, 2), value))
        with pytest.raises(RationalParseError):
            Raf(money_ctx, (value, 0))

    @pytest.mark.parametrize(
        "value,text",
        [(Fraction(-1, 2), "-1/2"), (Fraction(3, 2), "3/2"), (-1, "-1"), (2, "2")],
    )
    def test_out_of_range_quotes_the_value(self, money_ctx, value, text):
        message = f"^availability {text} lies outside \\[0, 1\\]$"
        with pytest.raises(OutOfRangeError, match=message):
            Raf(money_ctx, (Fraction(1, 2), value))

    def test_arity_enforced(self, money_ctx):
        with pytest.raises(ArityMismatchError):
            make_raf(("1/2",), money_ctx)

    def test_str(self, raf_a):
        assert str(raf_a) == "(1/5, 4/5)"

    def test_equal_profiles_hash_equal(self, money_ctx):
        a = make_raf(("1/5", "4/5"), money_ctx)
        b = make_raf(("0.2", "8/10"), money_ctx)
        assert a is not b and a == b
        assert hash(a) == hash(b)
        # the kept hash is returned again, and agrees with a fresh profile
        assert hash(a) == hash(a) == hash(make_raf(("1/5", "4/5"), money_ctx))

    @pytest.mark.parametrize(
        "clone", [lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy]
    )
    def test_hash_survives_round_trips(self, money_ctx, clone):
        raf = make_raf(("1/5", "4/5"), money_ctx)
        table = {raf: "kept"}
        hash(raf)  # cache the hash before the round trip
        twin = clone(raf)
        assert twin == raf and hash(twin) == hash(raf)
        assert table[twin] == "kept"
        assert {twin: "copy"}[make_raf(("1/5", "4/5"), money_ctx)] == "copy"
        assert (twin.numerators, twin.denominator) == (raf.numerators, raf.denominator)

    @given(st.lists(st.one_of(rationals01(), st.sampled_from((0, 1))), min_size=2, max_size=5))
    def test_integer_ratios_over_the_least_common_denominator(self, values):
        raf = Raf(default_context(len(values)), tuple(values))
        assert raf.denominator == math.lcm(*(Fraction(v).denominator for v in values))
        assert all(isinstance(p, int) for p in raf.numerators)
        assert [Fraction(p, raf.denominator) for p in raf.numerators] == list(values)
        # kept beside the values, not part of them
        twin = make_raf(values, raf.context)
        assert twin == raf and repr(twin) == repr(raf)
        assert "numerators" not in repr(raf)


class TestFirstDifference:
    def test_money_pair_differs_at_top_priority(self, raf_a, raf_b):
        assert first_difference(raf_a, raf_b) == 1

    def test_equal_profiles(self, raf_a):
        assert first_difference(raf_a, raf_a) is None

    def test_second_coordinate(self, money_ctx):
        a = make_raf(("1/2", "1/4"), money_ctx)
        b = make_raf(("1/2", "3/4"), money_ctx)
        assert first_difference(a, b) == 2

    def test_context_mismatch(self, money_ctx, raf_a):
        other = make_raf((0, 0), default_context(2))
        with pytest.raises(ContextMismatchError):
            first_difference(raf_a, other)

    @given(rationals01(), rationals01(), rationals01(), rationals01())
    def test_symmetric_and_none_iff_equal(self, x1, x2, y1, y2):
        ctx = default_context(2)
        a, b = Raf(ctx, (x1, x2)), Raf(ctx, (y1, y2))
        assert first_difference(a, b) == first_difference(b, a)
        assert (first_difference(a, b) is None) == (a.values == b.values)


class TestDominance:
    def test_money_pair_not_dominating(self, raf_a, raf_b):
        # 4/5 < 9/10 at the second coordinate
        assert not strictly_dominates(raf_a, raf_b)
        assert not pointwise_geq(raf_a, raf_b)

    def test_strict(self, money_ctx):
        a = make_raf(("1/2", "1/2"), money_ctx)
        b = make_raf(("1/4", "1/4"), money_ctx)
        assert strictly_dominates(a, b)

    def test_no_self_domination(self, raf_a):
        assert not strictly_dominates(raf_a, raf_a)
        assert pointwise_geq(raf_a, raf_a)

    def test_geq_allows_ties(self, money_ctx):
        a = make_raf(("1/2", "1/2"), money_ctx)
        b = make_raf(("1/2", "1/4"), money_ctx)
        assert pointwise_geq(a, b)
        assert not strictly_dominates(a, b)

    @given(st.data())
    def test_strict_implies_geq_and_distinct(self, data):
        ctx = default_context(3)
        a = Raf(ctx, data.draw(st.tuples(*([rationals01()] * 3))))
        b = Raf(ctx, data.draw(st.tuples(*([rationals01()] * 3))))
        if strictly_dominates(a, b):
            assert pointwise_geq(a, b)
            assert a != b


class TestGrid:
    @pytest.mark.parametrize(
        "levels,arity,size",
        [(["0", "1"], 2, 4), (["0", "1/2", "1"], 2, 9), (["1/2"], 3, 1)],
    )
    def test_sizes(self, levels, arity, size):
        spec = GridSpec.of(levels, arity)
        points = grid_points(spec)
        assert spec.size == size
        assert len(points) == size
        assert len(set(points)) == size

    @pytest.mark.parametrize(
        "levels,arity,bound,within",
        [
            (["0", "1"], 10, 1024, True),
            (["0", "1"], 11, 1024, False),
            (["0", "1/2", "1"], 2, 9, True),
            (["0", "1/2", "1"], 2, 8, False),
            (["1"], 9, 9, True),
            (["1"], 10, 9, False),  # one point, but the arity is held to the bound
            (["0", "1"], 10 ** 9, 9, False),
        ],
    )
    def test_within(self, levels, arity, bound, within):
        assert GridSpec.of(levels, arity).within(bound) is within

    @pytest.mark.parametrize(
        "levels,arity,text",
        [
            (["0", "1"], 30, "1073741824"),
            (["0", "1"], 64, str(2 ** 64)),
            (["0", "1"], 65, "2^65"),
            (["1"], 10 ** 9, "1"),
            (["0", "1/2", "1"], 10 ** 7, "3^10000000"),
        ],
    )
    def test_size_text(self, levels, arity, text):
        assert GridSpec.of(levels, arity).size_text() == text

    def test_deterministic_order(self):
        spec = GridSpec.of(["0", "1/2", "1"], 2)
        assert grid_points(spec) == grid_points(spec)

    def test_first_coordinate_varies_slowest(self):
        points = grid_points(GridSpec.of(["0", "1"], 2))
        assert [p.values for p in points] == [
            (Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(1)),
            (Fraction(1), Fraction(0)),
            (Fraction(1), Fraction(1)),
        ]

    def test_of_normalizes(self):
        spec = GridSpec.of(["1", "0", "1/2", "2/4"], 2)
        assert spec.levels == (Fraction(0), Fraction(1, 2), Fraction(1))

    def test_invalid_levels(self):
        with pytest.raises(InvalidGridError):
            GridSpec.of(["0", "3/2"], 2)
        with pytest.raises(InvalidGridError):
            GridSpec.of([], 2)
        with pytest.raises(InvalidGridError):
            GridSpec.of(["0", "1"], 1)
        # the bare constructor does not sort, so it checks the order
        with pytest.raises(InvalidGridError, match="strictly increasing"):
            GridSpec((Fraction(1), Fraction(0)), 2)

    @pytest.mark.parametrize(
        "levels,arity,error",
        [
            ((0.0, 0.1, 1.0), 2, InvalidGridError),
            ((2.0,), 2, InvalidGridError),
            ((Fraction(0), True), 2, InvalidGridError),
            ((Fraction(0), "1"), 2, InvalidGridError),
            ((Fraction(0), Fraction(1)), 2.5, InvalidArityError),
            ((Fraction(0), Fraction(1)), 2.0, InvalidArityError),
            ((Fraction(0), Fraction(1)), "3", InvalidArityError),
            ((Fraction(0), Fraction(1)), True, InvalidArityError),
        ],
    )
    def test_only_exact_levels_and_an_int_arity(self, monkeypatch, levels, arity, error):
        # the constructor refuses them itself, so no point is built from them
        monkeypatch.setattr(Raf, "__post_init__", lambda self: pytest.fail("a point was built"))
        with pytest.raises(error, match="is not an int"):
            GridSpec(levels, arity)

    @pytest.mark.parametrize("arity", [2.5, "3", True])
    def test_of_takes_the_arity_as_given(self, arity):
        with pytest.raises(InvalidArityError, match="is not an int$"):
            GridSpec.of(["0", "1"], arity)

    @pytest.mark.parametrize("arity", [1, 0, -3])
    def test_low_arity_has_its_own_error(self, arity):
        with pytest.raises(InvalidArityError):
            GridSpec.of(["0", "1"], arity)
        with pytest.raises(InvalidGridError) as info:
            GridSpec.of(["0", "2"], arity)
        assert not isinstance(info.value, InvalidArityError)  # levels are checked first

    def test_context_arity_checked(self):
        with pytest.raises(ArityMismatchError):
            grid_points(GridSpec.of(["0", "1"], 2), default_context(3))

    def test_default_context_labels(self):
        assert default_context(3).alternatives == ("x1", "x2", "x3")
