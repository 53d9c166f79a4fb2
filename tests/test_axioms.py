import random
import re
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rafpref import (
    AxiomId,
    CheckConfig,
    ComparisonOutcome,
    ContextMismatchError,
    GridSpec,
    LexicographicRelation,
    MaxExpectedPayoffRelation,
    PreferenceRelation,
    PriorityContext,
    Raf,
    RafprefError,
    RankedRelation,
    UnknownPointError,
    UtilityRelation,
    WeightArityMismatchError,
    WeightedLogProductRelation,
    WeightVector,
    check_axiom2_ms,
    check_iwa,
    check_non_compensation,
    check_order_axioms,
    check_strong_dominance,
    check_strong_monotonicity,
    check_weak_dominance,
    check_weak_iwa,
    default_context,
    grid_points,
    lex_compare,
    make_raf,
    mep_utility,
    replay_violation,
    run_checks,
    table_relation,
)
from rafpref.axioms import (
    ALL_AXIOMS,
    PAIR_AXIOMS,
    QUAD_AXIOMS,
    AxiomViolation,
    _SCANS,
    _Audit,
    _Sample,
    _decode,
    _pair_signatures,
    _rank_codes,
    _updown,
    iwa_indices,
    qualifies_axiom2,
    qualifies_iwa_at,
    qualifies_non_compensation,
    qualifies_strong_dominance,
    qualifies_weak_iwa,
    single_coordinate_increase,
)
from rafpref.core import first_difference, strictly_dominates

from conftest import rationals01, raf_values

FIRST = ComparisonOutcome.FIRST_PREFERRED
SECOND = ComparisonOutcome.SECOND_PREFERRED
INDIFF = ComparisonOutcome.INDIFFERENT

LEX = LexicographicRelation()


@dataclass(frozen=True)
class ReversedLex(PreferenceRelation):
    """Lex with the priority order read backwards; a designed IWA breaker."""

    name: str = "reversed-lex"

    def compare(self, a: Raf, b: Raf) -> ComparisonOutcome:
        for x, y in zip(reversed(a.values), reversed(b.values)):
            if x > y:
                return FIRST
            if x < y:
                return SECOND
        return INDIFF


class CyclicRelation(PreferenceRelation):
    """Three profiles in a strict cycle; everything else by lex."""

    name = "cyclic"

    def __init__(self, a: Raf, b: Raf, c: Raf) -> None:
        self.wins = {(a, b), (b, c), (c, a)}

    def compare(self, a: Raf, b: Raf) -> ComparisonOutcome:
        if (a, b) in self.wins:
            return FIRST
        if (b, a) in self.wins:
            return SECOND
        return lex_compare(a, b)


class CountingLex(PreferenceRelation):
    """Lex that counts its compare calls and records the pairs drawn."""

    name = "counting-lex"

    def __init__(self) -> None:
        self.calls = 0
        self.drawn: set[tuple[Raf, Raf]] = set()

    def compare(self, a: Raf, b: Raf) -> ComparisonOutcome:
        self.calls += 1
        self.drawn.add((a, b))
        return lex_compare(a, b)


class RandomMirror(PreferenceRelation):
    """Indifferent on equal profiles and a seeded random verdict on every
    other unordered pair, mirrored when swapped: mirror consistent but, on
    most samples, not transitive."""

    name = "random-mirror"

    def __init__(self, points, seed: int) -> None:
        rng = random.Random(seed)
        self.table = {}
        for i, a in enumerate(points):
            for b in points[i + 1:]:
                out = rng.choice((FIRST, SECOND, INDIFF))
                self.table[a, b] = out
                self.table[b, a] = out.mirrored()

    def compare(self, a: Raf, b: Raf) -> ComparisonOutcome:
        return INDIFF if a == b else self.table[a, b]


class AlwaysFirst(PreferenceRelation):
    """Prefers its first argument on every call, a profile over itself
    included: neither reflexive nor mirror consistent."""

    name = "always-first"

    def compare(self, a: Raf, b: Raf) -> ComparisonOutcome:
        return FIRST


class NoVerdictOffDiagonal(PreferenceRelation):
    """Indifferent on equal profiles, None (not an outcome) otherwise."""

    name = "no-verdict"

    def compare(self, a: Raf, b: Raf):
        return INDIFF if a == b else None


class OneBadVerdict(PreferenceRelation):
    """Lex, except that one ordered pair gets a string, not an outcome."""

    name = "one-bad-verdict"

    def __init__(self, a: Raf, b: Raf) -> None:
        self.a, self.b = a, b

    def compare(self, a: Raf, b: Raf):
        return "first_preferred" if a is self.a and b is self.b else lex_compare(a, b)


def total_indifference(points):
    return table_relation(RankedRelation.from_rank_map({p: 0 for p in points}))


def mep_40_10_grid(levels):
    ctx = PriorityContext.of(("x1", "x2"), {"x1": 40, "x2": 10})
    return MaxExpectedPayoffRelation(), grid_points(GridSpec.of(levels, 2), ctx)


class TestAxiomId:
    def test_parse_aliases(self):
        assert AxiomId.parse("SM") is AxiomId.STRONG_MONOTONICITY
        assert AxiomId.parse("WeakIWA") is AxiomId.WEAK_IWA
        assert AxiomId.parse("iwa") is AxiomId.IWA
        assert AxiomId.parse("NonCompensation") is AxiomId.NON_COMPENSATION

    def test_parse_unknown(self):
        with pytest.raises(RafprefError):
            AxiomId.parse("nosuch")

    def test_stable_strings(self):
        assert str(AxiomId.AXIOM2_MS) == "Axiom2MS"
        assert str(AxiomId.MIRROR_CONSISTENT) == "MirrorConsistent"


class TestPairSignatures:
    @settings(max_examples=60)
    @given(st.data())
    def test_every_entry_matches_the_profile_predicates(self, data):
        # each packed entry, decoded, is the pair's up/down sets and first
        # difference; equal values held as distinct Fractions or as plain
        # ints get one rank code
        arity = data.draw(st.integers(2, 4))
        distinct = data.draw(st.lists(raf_values(arity, 4), min_size=1, max_size=4))
        values = data.draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=9))
        values.append(values[0])  # at least one repeated point
        values = [
            tuple(data.draw(st.sampled_from(
                (x, Fraction(x.numerator, x.denominator)) + ((int(x),) if x.denominator == 1 else ())
            )) for x in v)
            for v in values
        ]
        ctx = default_context(arity)
        sample = [Raf(ctx, v) for v in values]
        codes = _rank_codes(sample)
        for a, ca in zip(values, codes):
            for b, cb in zip(values, codes):
                assert [(x < y, x == y) for x, y in zip(a, b)] == [(u < v, u == v) for u, v in zip(ca, cb)]
        sigs = _pair_signatures(codes)
        n = len(sample)
        assert len(sigs) == n * n
        for i, a in enumerate(sample):
            for j, b in enumerate(sample):
                fd = first_difference(a, b)
                assert _decode(sigs[i * n + j], arity) == (*_updown(a, b), -1 if fd is None else fd - 1)


class TestOrderAxioms:
    def test_lex_passes_nine_grid(self, nine_grid):
        report = check_order_axioms(LEX, nine_grid)
        assert report.passed
        assert report.result_for(AxiomId.TRANSITIVE).tuples_examined == 729
        assert report.result_for(AxiomId.REFLEXIVE).tuples_examined == 9
        assert report.result_for(AxiomId.MIRROR_CONSISTENT).tuples_examined == 72

    @settings(max_examples=25)
    @given(st.lists(st.tuples(st.fractions(0, 1, max_denominator=6),
                              st.fractions(0, 1, max_denominator=6)),
                    min_size=1, max_size=6))
    def test_utility_relations_always_pass(self, values):
        ctx = PriorityContext.of(("a", "b"), {"a": 7, "b": 3})
        sample = [Raf(ctx, v) for v in values]
        relations = [
            MaxExpectedPayoffRelation(),
            WeightedLogProductRelation(WeightVector(ctx, (2, 1))),
        ]
        for rel in relations:
            assert check_order_axioms(rel, sample).passed

    def test_cycle_breaks_transitivity(self, unit_square):
        p00, p01, p10, p11 = unit_square
        rel = CyclicRelation(p00, p01, p10)
        report = check_order_axioms(rel, unit_square)
        result = report.result_for(AxiomId.TRANSITIVE)
        assert not result.passed
        violation = result.violations[0]
        assert len(violation.witness) == 3
        assert replay_violation(rel, violation)

    def test_context_mixing_rejected(self, unit_square, raf_a):
        with pytest.raises(ContextMismatchError):
            check_order_axioms(LEX, unit_square + [raf_a])

    def test_always_first_breaks_reflexive_and_mirror(self, nine_grid):
        rel = AlwaysFirst()
        n = len(nine_grid)
        report = check_order_axioms(rel, nine_grid, CheckConfig(all_violations=True))
        reflexive = report.result_for(AxiomId.REFLEXIVE)
        mirror = report.result_for(AxiomId.MIRROR_CONSISTENT)
        assert reflexive.violation_count == len(reflexive.violations) == n
        assert mirror.violation_count == len(mirror.violations) == n * (n - 1)
        assert report.result_for(AxiomId.CONNECTED).passed
        assert report.result_for(AxiomId.TRANSITIVE).passed
        assert replay_violation(rel, reflexive.violations[0])
        assert replay_violation(rel, mirror.violations[0])
        # connectedness cannot fail, so a witness claiming it never replays
        connected = AxiomViolation(AxiomId.CONNECTED, mirror.violations[0].witness, (FIRST, FIRST))
        assert not replay_violation(rel, connected)


class TestWeakDominance:
    def test_lex_passes(self, nine_grid):
        assert check_weak_dominance(LEX, nine_grid).passed

    def test_mep_passes(self):
        rel, points = mep_40_10_grid(["0", "1/2", "1"])
        assert check_weak_dominance(rel, points).passed

    def test_total_indifference_fails_at_corners(self, unit_square):
        rel = total_indifference(unit_square)
        report = check_weak_dominance(rel, unit_square)
        result = report.results[0]
        assert not result.passed
        witness = result.violations[0].witness
        assert [str(w) for w in witness] == ["(1, 1)", "(0, 0)"]
        assert replay_violation(rel, result.violations[0])

    def test_single_point_vacuous(self, unit_square):
        report = check_weak_dominance(LEX, unit_square[:1])
        assert report.passed
        assert report.results[0].vacuous


class TestStrongMonotonicity:
    def test_lex_passes(self, nine_grid):
        assert check_strong_monotonicity(LEX, nine_grid).passed

    def test_mep_tie_violation(self):
        rel, points = mep_40_10_grid(["1/5", "1/2", "3/5"])
        report = check_strong_monotonicity(
            rel, points, CheckConfig(all_violations=True)
        )
        result = report.results[0]
        assert not result.passed
        # the known tie pair, both utilities exactly 8, must be among them
        ctx = points[0].context
        a = make_raf(("1/5", "3/5"), ctx)
        b = make_raf(("1/5", "1/2"), ctx)
        assert mep_utility(a) == mep_utility(b) == Fraction(8)
        witnesses = [v.witness for v in result.violations]
        assert (a, b) in witnesses
        assert all(replay_violation(rel, v) for v in result.violations)

    def test_wlog_zero_boundary_violation(self, unit_square):
        ctx = unit_square[0].context
        rel = WeightedLogProductRelation(WeightVector(ctx, (1, 1)))
        report = check_strong_monotonicity(rel, unit_square)
        result = report.results[0]
        assert not result.passed
        assert replay_violation(rel, result.violations[0])

    def test_hypothesis_predicate(self, money_ctx):
        a = make_raf(("1/5", "3/5"), money_ctx)
        b = make_raf(("1/5", "1/2"), money_ctx)
        assert single_coordinate_increase(a, b) == 2
        assert single_coordinate_increase(b, a) is None
        assert single_coordinate_increase(a, a) is None


class TestStrongDominance:
    def test_lex_passes(self, nine_grid):
        assert check_strong_dominance(LEX, nine_grid).passed

    def test_mep_fails_with_tie(self):
        rel, points = mep_40_10_grid(["1/5", "1/2", "3/5"])
        report = check_strong_dominance(rel, points)
        assert not report.passed
        assert replay_violation(rel, report.results[0].violations[0])

    def test_one_point_vacuous(self, nine_grid):
        report = check_strong_dominance(LEX, nine_grid[:1])
        assert report.passed and report.results[0].vacuous


class TestPairWitnessIndex:
    def test_only_strong_monotonicity_reports_an_index(self, nine_grid):
        # under total indifference every qualifying pair is a violation
        rel = total_indifference(nine_grid)
        report = run_checks(rel, nine_grid, PAIR_AXIOMS, CheckConfig(all_violations=True))
        for axiom in PAIR_AXIOMS:
            result = report.result_for(axiom)
            assert result.violation_count == result.qualifying > 0
            for v in result.violations:
                if axiom is AxiomId.STRONG_MONOTONICITY:
                    assert v.index == first_difference(*v.witness)
                    assert v.index == single_coordinate_increase(*v.witness)
                else:
                    assert v.index is None


class TestNonCompensation:
    def test_lex_passes_unit_square(self, unit_square):
        report = check_non_compensation(LEX, unit_square)
        assert report.passed
        assert report.results[0].tuples_examined == 256

    def test_mep_violation_found_by_scan(self):
        rel, points = mep_40_10_grid(["1/10", "1/5", "9/10"])
        report = check_non_compensation(rel, points)
        result = report.results[0]
        assert not result.passed
        assert replay_violation(rel, result.violations[0])

    def test_equal_pairs_qualify_trivially(self, unit_square):
        a, b = unit_square[0], unit_square[3]
        assert qualifies_non_compensation(a, a, b, b)
        assert total_indifference(unit_square).compare(a, a) is INDIFF

    def test_total_indifference_passes(self, unit_square):
        assert check_non_compensation(total_indifference(unit_square), unit_square).passed


class TestAxiom2:
    def test_lex_passes(self, nine_grid):
        assert check_axiom2_ms(LEX, nine_grid).passed

    def test_mep_violation_on_unit_square(self, unit_square):
        ctx = PriorityContext.of(("x1", "x2"), {"x1": 40, "x2": 10})
        rel = MaxExpectedPayoffRelation()
        points = grid_points(GridSpec.of(["0", "1"], 2), ctx)
        report = check_axiom2_ms(rel, points)
        result = report.results[0]
        assert not result.passed
        assert replay_violation(rel, result.violations[0])

    def test_vacuous_when_no_single_coordinate_pairs(self, money_ctx):
        sample = [make_raf((0, 0), money_ctx), make_raf((1, 1), money_ctx)]
        report = check_axiom2_ms(LEX, sample)
        assert report.passed and report.results[0].vacuous

    def test_hypothesis_predicate(self, money_ctx):
        a = make_raf(("1/5", "3/5"), money_ctx)
        b = make_raf(("1/5", "1/2"), money_ctx)
        c = make_raf(("1", "3/5"), money_ctx)
        d = make_raf(("1", "1/2"), money_ctx)
        assert qualifies_axiom2(a, b, c, d) == 2
        assert qualifies_axiom2(a, b, d, c) is None


class TestIwa:
    def test_lex_passes_unit_square(self, unit_square):
        report = check_iwa(LEX, unit_square)
        assert report.passed
        assert report.results[0].tuples_examined == 256

    def test_total_indifference_passes(self, unit_square):
        assert check_iwa(total_indifference(unit_square), unit_square).passed

    def test_reversed_lex_fails(self, unit_square):
        rel = ReversedLex()
        report = check_iwa(rel, unit_square)
        result = report.results[0]
        assert not result.passed
        assert replay_violation(rel, result.violations[0])


class TestWeakIwa:
    def test_lex_passes_nine_grid(self, nine_grid):
        report = check_weak_iwa(LEX, nine_grid)
        assert report.passed
        assert report.results[0].tuples_examined == 6561

    def test_total_indifference_passes(self, unit_square):
        assert check_weak_iwa(total_indifference(unit_square), unit_square).passed

    def test_reversed_lex_specific_quadruple(self, unit_square):
        ctx = unit_square[0].context
        a = make_raf((1, 0), ctx)
        b = make_raf((0, 0), ctx)
        c = make_raf((1, 0), ctx)
        d = make_raf((0, 1), ctx)
        assert qualifies_weak_iwa(a, b, c, d) == 1
        rel = ReversedLex()
        # verdicts computed directly: (1,0) beats (0,0) at the reversed top,
        # while (0,1) beats (1,0); signs at x1 agree, verdicts do not
        assert rel.compare(a, b) is FIRST
        assert rel.compare(c, d) is SECOND
        report = check_weak_iwa(rel, unit_square)
        assert not report.passed
        assert replay_violation(rel, report.results[0].violations[0])


class TestMixedContextQuadruples:
    """(a, b) on one context and (c, d) on another: every raf-level
    quadruple predicate refuses the quadruple instead of judging it."""

    @pytest.fixture
    def quadruple(self):
        first = PriorityContext.of(("a", "b"), {"a": 7, "b": 3})
        second = PriorityContext.of(("x", "y"), {"x": 7, "y": 3})
        return (
            make_raf((1, 0), first),
            make_raf((0, 0), first),
            make_raf((1, 0), second),
            make_raf((0, 1), second),
        )

    @pytest.mark.parametrize(
        "predicate",
        [
            qualifies_non_compensation,
            qualifies_axiom2,
            lambda a, b, c, d: qualifies_iwa_at(a, b, c, d, 1),
            iwa_indices,
            qualifies_weak_iwa,
        ],
    )
    def test_every_predicate_raises(self, quadruple, predicate):
        with pytest.raises(ContextMismatchError):
            predicate(*quadruple)

    def test_weak_iwa_replay_raises(self, quadruple):
        violation = AxiomViolation(AxiomId.WEAK_IWA, quadruple, (FIRST, SECOND), index=1)
        with pytest.raises(ContextMismatchError):
            replay_violation(ReversedLex(), violation)


class TestQualificationImplications:
    def test_iwa_pass_implies_weak_iwa_pass(self, unit_square):
        # report-level implication on randomized rank tables: the weak
        # variant's qualifying quadruples are a subset of the full one's
        rng = random.Random(31)
        pts = tuple(unit_square)
        non_vacuous = 0
        for _ in range(60):
            ranks = [rng.randrange(3) for _ in range(4)]
            remap = {r: i for i, r in enumerate(sorted(set(ranks)))}
            rel = table_relation(RankedRelation(pts, tuple(remap[r] for r in ranks)))
            iwa_report = check_iwa(rel, unit_square)
            weak_report = check_weak_iwa(rel, unit_square)
            noncomp_report = check_non_compensation(rel, unit_square)
            axiom2_report = check_axiom2_ms(rel, unit_square)
            if iwa_report.passed:
                non_vacuous += 1
                assert weak_report.passed
            if noncomp_report.passed:
                assert axiom2_report.passed
        assert non_vacuous > 0

    def test_weak_iwa_implies_iwa_at_same_k(self):
        rng = random.Random(7)
        ctx = default_context(3)
        levels = [Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(1)]
        for _ in range(300):
            rafs = [
                Raf(ctx, tuple(rng.choice(levels) for _ in range(3)))
                for _ in range(4)
            ]
            k = qualifies_weak_iwa(*rafs)
            if k is not None:
                assert k in iwa_indices(*rafs)

    def test_axiom2_implies_non_compensation(self):
        rng = random.Random(11)
        ctx = default_context(2)
        levels = [Fraction(0), Fraction(1, 2), Fraction(1)]
        hits = 0
        for _ in range(500):
            rafs = [
                Raf(ctx, tuple(rng.choice(levels) for _ in range(2)))
                for _ in range(4)
            ]
            if qualifies_axiom2(*rafs) is not None:
                hits += 1
                assert qualifies_non_compensation(*rafs)
        assert hits > 0


LEVELS3 = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)])


@st.composite
def raf_quadruples(draw):
    """Four profiles on one context of arity 2..4 over three levels, so
    shared first differences and equal pairs are common."""
    arity = draw(st.integers(2, 4))
    ctx = default_context(arity)
    return [Raf(ctx, tuple(draw(LEVELS3) for _ in range(arity))) for _ in range(4)]


def witness_indices(report, index):
    """A report with each witness profile replaced by its index in the sample."""
    return [
        (r.axiom, r.passed, r.tuples_examined, r.qualifying, r.violation_count,
         [(tuple(index[p] for p in v.witness), v.observed, v.index, v.detail) for v in r.violations])
        for r in report.results
    ]


class TestRecodingInvariance:
    """Every hypothesis reads only the order of each coordinate's values, so
    a strictly increasing recoding of each coordinate's levels changes no
    table and no report of an order-based relation, points aside."""

    @settings(max_examples=60)
    @given(st.data())
    def test_tables_and_reports_survive_a_recoding(self, data):
        arity = data.draw(st.integers(2, 3))
        levels = [sorted(data.draw(st.sets(rationals01(), min_size=1, max_size=3))) for _ in range(arity)]
        recoding = [
            dict(zip(lv, sorted(data.draw(st.sets(rationals01(), min_size=len(lv), max_size=len(lv))))))
            for lv in levels
        ]
        rows = data.draw(st.lists(st.tuples(*map(st.sampled_from, levels)), min_size=1, max_size=10))
        ctx = default_context(arity)
        points = [Raf(ctx, row) for row in rows]
        images = [Raf(ctx, tuple(m[x] for m, x in zip(recoding, row))) for row in rows]
        before, after = _Sample(points), _Sample(images)
        for axiom in PAIR_AXIOMS:
            assert before.qualifying(axiom) == after.qualifying(axiom)
            assert before.qualifying(axiom) == sorted(before.qualifying(axiom))
        for axiom in QUAD_AXIOMS:
            classes = before.classes(axiom)
            assert list(classes.items()) == list(after.classes(axiom).items())
            # classes in row-major order of their first members, members row-major
            firsts = [members[0] for members in classes.values()]
            assert firsts == sorted(firsts)
            assert all(members == sorted(members) for members in classes.values())
        index = {p: i for i, p in reversed(list(enumerate(points)))}
        image_index = {p: i for i, p in reversed(list(enumerate(images)))}
        config = CheckConfig(all_violations=True)
        for rel in (LEX, ReversedLex()):
            assert (witness_indices(run_checks(rel, points, ALL_AXIOMS, config), index)
                    == witness_indices(run_checks(rel, images, ALL_AXIOMS, config), image_index))


class TestIwaIsWeakIwa:
    @settings(max_examples=400)
    @given(raf_quadruples())
    def test_first_iwa_index_is_weak_iwa_k(self, rafs):
        # IWA qualifies exactly when WeakIWA does, and its smallest index is
        # WeakIWA's k; larger IWA indices can follow when the pairs also
        # agree further down, e.g. (1, 1) vs (0, 0) twice gives (1, 2).
        k = qualifies_weak_iwa(*rafs)
        assert iwa_indices(*rafs)[:1] == (() if k is None else (k,))


def brute_force_quad(axiom, rel, sample):
    """Row-major n^4 scan through the raf-level hypothesis predicates:
    (qualifying, every violation) as the quadruple checkers report them."""

    def index(a, b, c, d):
        if axiom is AxiomId.NON_COMPENSATION:
            return 0 if qualifies_non_compensation(a, b, c, d) else None
        if axiom is AxiomId.AXIOM2_MS:
            return qualifies_axiom2(a, b, c, d)
        if axiom is AxiomId.IWA:
            ks = iwa_indices(a, b, c, d)
            return ks[0] if ks else None
        return qualifies_weak_iwa(a, b, c, d)

    qualifying = 0
    violations = []
    for a in sample:
        for b in sample:
            for c in sample:
                for d in sample:
                    q = index(a, b, c, d)
                    if q is None:
                        continue
                    qualifying += 1
                    if rel.at_least_as_good(a, b) != rel.at_least_as_good(c, d):
                        violations.append(
                            AxiomViolation(
                                axiom,
                                (a, b, c, d),
                                (rel.compare(a, b), rel.compare(c, d)),
                                index=q or None,
                                detail="matching hypothesis but opposite weak verdicts",
                            )
                        )
    return qualifying, violations


def random_ranking(rng, points):
    ranks = [rng.randrange(4) for _ in points]
    remap = {r: i for i, r in enumerate(sorted(set(ranks)))}
    return table_relation(RankedRelation(tuple(points), tuple(remap[r] for r in ranks)))


def reference_cases():
    rng = random.Random(41)
    cases = []
    for levels, arity in ((["0", "1"], 2), (["0", "1/2", "1"], 2), (["0", "1"], 3)):
        points = grid_points(GridSpec.of(levels, arity))
        for _ in range(3):
            sample = list(points)
            rng.shuffle(sample)
            cases.append((random_ranking(rng, points), sample))
    labels = ("x1", "x2", "x3")
    for levels, arity in ((["1/10", "1/5", "9/10"], 2), (["0", "1"], 3)):
        ctx = PriorityContext.of(labels[:arity], dict(zip(labels[:arity], (40, 10, 5))))
        sample = grid_points(GridSpec.of(levels, arity), ctx)
        rng.shuffle(sample)
        cases.append((MaxExpectedPayoffRelation(), sample + sample[:1]))
        cases.append((WeightedLogProductRelation(WeightVector(ctx, (1,) * arity)), sample))
    return cases


class TestClassCountMatchesBruteForce:
    """The class-count quadruple scans against an independent n^4 loop."""

    @pytest.mark.parametrize("rel,sample", reference_cases())
    def test_counts_and_all_witnesses(self, rel, sample):
        full = run_checks(rel, sample, QUAD_AXIOMS, CheckConfig(all_violations=True))
        first = run_checks(rel, sample, QUAD_AXIOMS)
        for axiom in QUAD_AXIOMS:
            qualifying, violations = brute_force_quad(axiom, rel, sample)
            for report, listed in ((full, violations), (first, violations[:1])):
                result = report.result_for(axiom)
                assert result.qualifying == qualifying
                assert result.violation_count == len(violations)
                assert result.passed == (not violations)
                assert result.tuples_examined == len(sample) ** 4
                assert list(result.violations) == listed


class DrawnVerdicts(PreferenceRelation):
    """A verdict per ordered pair of profiles, as drawn: any outcome, on
    equal profiles too, so any axiom may fail or hold."""

    name = "drawn-verdicts"

    def __init__(self, table: dict) -> None:
        self.table = table

    def compare(self, a: Raf, b: Raf) -> ComparisonOutcome:
        return self.table[a, b]


@st.composite
def audited_relations(draw):
    """A sample of 1-8 profiles of arity 2 or 3 over three levels, repeats
    allowed, and a relation on it: lex, which passes every axiom, reversed
    lex, a drawn weak order, or a drawn verdict per ordered pair."""
    arity = draw(st.integers(2, 3))
    ctx = default_context(arity)
    rows = draw(st.lists(st.tuples(*[LEVELS3] * arity), min_size=1, max_size=8))
    points = [Raf(ctx, row) for row in rows]
    kind = draw(st.sampled_from(["lex", "reversed-lex", "weak order", "verdicts"]))
    if kind == "lex":
        return LEX, points
    if kind == "reversed-lex":
        return ReversedLex(), points
    if kind == "weak order":
        distinct = list(dict.fromkeys(points))
        ranks = draw(st.lists(st.integers(0, 3), min_size=len(distinct), max_size=len(distinct)))
        remap = {r: i for i, r in enumerate(sorted(set(ranks)))}
        return table_relation(RankedRelation.from_rank_map(
            {p: remap[r] for p, r in zip(distinct, ranks)})), points
    outcomes = st.sampled_from([FIRST, SECOND, INDIFF])
    return DrawnVerdicts({(a, b): draw(outcomes) for a in points for b in points}), points


class TestWitnessStreams:
    """run_checks draws no witness from a scan that counts no violation, so
    the count and the stream are cross-checked here, straight from _SCANS."""

    @settings(max_examples=150, deadline=None)
    @given(audited_relations())
    def test_each_stream_holds_exactly_its_count(self, case):
        rel, points = case
        audit = _Audit(rel, _Sample(points))
        for axiom in ALL_AXIOMS:
            _, _, count, witnesses = _SCANS[axiom](audit, axiom)
            assert sum(1 for _ in witnesses) == count

    def test_clean_scans_draw_no_witness(self, nine_grid, monkeypatch):
        # lex passes every axiom, so no scan's stream may be drawn from
        config = CheckConfig(all_violations=True)
        report = run_checks(LEX, nine_grid, config=config)
        assert report.passed

        def guarded(scan):
            def run(audit, axiom):
                *counts, _ = scan(audit, axiom)
                return (*counts, map(pytest.fail, ["a clean scan's witness stream was drawn"]))
            return run

        for axiom, scan in list(_SCANS.items()):
            monkeypatch.setitem(_SCANS, axiom, guarded(scan))
        assert run_checks(LEX, nine_grid, config=config) == report


def sorted_class_witnesses(axiom, rel, points):
    """Every quadruple witness as a sort of every pair of every mixed class
    lists them: each pair, row-major, with the members of its class whose
    weak verdict is the opposite, in their row-major order."""
    def weak(i, j):
        return rel.at_least_as_good(points[i], points[j])

    mixed = {}
    for key, members in _Sample(points).classes(axiom).items():
        if len({weak(i, j) for i, j in members}) == 2:
            for pair in members:
                mixed[pair] = (key[0], members)
    witnesses = []
    for i, j in sorted(mixed):
        index, members = mixed[i, j]
        witnesses += [
            AxiomViolation(
                axiom,
                (points[i], points[j], points[k], points[l]),
                (rel.compare(points[i], points[j]), rel.compare(points[k], points[l])),
                index=index,
                detail="matching hypothesis but opposite weak verdicts",
            )
            for k, l in members if weak(k, l) != weak(i, j)
        ]
    return witnesses


class TestQuadWitnessOrder:
    """The quadruple scans merge their mixed classes' member lists lazily;
    the witnesses must come as a full sort of every mixed pair lists them."""

    @settings(max_examples=150, deadline=None)
    @given(audited_relations())
    def test_merge_lists_the_sorted_witnesses(self, case):
        rel, points = case
        report = run_checks(rel, points, QUAD_AXIOMS, CheckConfig(all_violations=True))
        for result in report.results:
            assert list(result.violations) == sorted_class_witnesses(result.axiom, rel, points)


PAIR_REFERENCE = {
    AxiomId.WEAK_DOMINANCE: (strictly_dominates, "strict dominance requires FirstPreferred"),
    AxiomId.STRONG_MONOTONICITY: (
        single_coordinate_increase,
        "a single-coordinate increase requires FirstPreferred",
    ),
    AxiomId.STRONG_DOMINANCE: (
        qualifies_strong_dominance,
        "coordinatewise dominance requires FirstPreferred",
    ),
}


def brute_force_pair(axiom, rel, sample):
    """Row-major scan of ordered pairs through the raf-level predicates."""
    hypothesis, requirement = PAIR_REFERENCE[axiom]
    qualifying = 0
    violations = []
    for i, a in enumerate(sample):
        for j, b in enumerate(sample):
            if i == j or not hypothesis(a, b):
                continue
            qualifying += 1
            out = rel.compare(a, b)
            if out is not FIRST:
                index = hypothesis(a, b) if axiom is AxiomId.STRONG_MONOTONICITY else None
                violations.append(
                    AxiomViolation(
                        axiom, (a, b), (out,), index=index,
                        detail=f"{requirement}; observed {out}",
                    )
                )
    return qualifying, violations


def brute_force_transitive(rel, sample):
    """The literal n^3 loop over ordered triples."""
    geq = rel.at_least_as_good
    qualifying = 0
    violations = []
    for a in sample:
        for b in sample:
            for c in sample:
                if geq(a, b) and geq(b, c):
                    qualifying += 1
                    if not geq(a, c):
                        violations.append(
                            AxiomViolation(
                                AxiomId.TRANSITIVE,
                                (a, b, c),
                                (rel.compare(a, b), rel.compare(b, c), rel.compare(a, c)),
                                detail="weak preference must chain through the middle profile",
                            )
                        )
    return qualifying, violations


def non_transitive_cases():
    cases = []
    for levels, arity in ((["0", "1"], 2), (["0", "1/2", "1"], 2), (["0", "1"], 3)):
        points = grid_points(GridSpec.of(levels, arity))
        for seed in (1, 2):
            sample = list(points)
            random.Random(seed).shuffle(sample)
            cases.append((RandomMirror(points, seed), sample + sample[:1]))
    return cases


class TestTableScansMatchBruteForce:
    """Pair and Transitive scans against loops over the raf-level predicates."""

    @pytest.mark.parametrize("rel,sample", reference_cases() + non_transitive_cases())
    def test_counts_and_all_witnesses(self, rel, sample):
        axioms = (AxiomId.TRANSITIVE,) + PAIR_AXIOMS
        full = run_checks(rel, sample, axioms, CheckConfig(all_violations=True))
        first = run_checks(rel, sample, axioms)
        n = len(sample)
        for axiom in axioms:
            if axiom is AxiomId.TRANSITIVE:
                qualifying, violations = brute_force_transitive(rel, sample)
                examined = n ** 3
            else:
                qualifying, violations = brute_force_pair(axiom, rel, sample)
                examined = n * (n - 1)
            for report, listed in ((full, violations), (first, violations[:1])):
                result = report.result_for(axiom)
                assert result.qualifying == qualifying
                assert result.violation_count == len(violations)
                assert result.passed == (not violations)
                assert result.tuples_examined == examined
                assert list(result.violations) == listed

    def test_random_mirror_breaks_transitivity(self):
        # the non-transitive cases above do exercise witness listing
        failing = [
            rel for rel, sample in non_transitive_cases()
            if not run_checks(rel, sample, [AxiomId.TRANSITIVE]).passed
        ]
        assert len(failing) >= 4


def failing_cases():
    """Relations that break the axioms on small grids, every axiom but the
    structural Connected broken by at least one of them."""
    nine = grid_points(GridSpec.of(["0", "1/2", "1"], 2))
    wlog = WeightedLogProductRelation(WeightVector(default_context(2), (1, 1)))
    cases = [mep_40_10_grid(["0", "1/2", "1"]), (wlog, nine), (ReversedLex(), nine),
             (AlwaysFirst(), nine)]
    for seed in (1, 2):
        sample = list(nine)
        random.Random(seed).shuffle(sample)
        cases.append((RandomMirror(nine, seed), sample))
    return cases


class TestEveryWitnessReplays:
    """replay_violation re-derives every recorded witness through the
    raf-level predicates, and refuses each one for lex, which passes all."""

    @pytest.mark.parametrize("rel,sample", failing_cases())
    def test_every_witness_replays_and_not_for_lex(self, rel, sample):
        report = run_checks(rel, sample, config=CheckConfig(all_violations=True))
        for result in report.results:
            assert len(result.violations) == result.violation_count
            for violation in result.violations:
                assert replay_violation(rel, violation)
                assert not replay_violation(LEX, violation)

    def test_cases_break_every_axiom_but_connected(self):
        broken = {
            result.axiom
            for rel, sample in failing_cases()
            for result in run_checks(rel, sample).results if not result.passed
        }
        assert broken == set(ALL_AXIOMS) - {AxiomId.CONNECTED}


class TestConfigModes:
    def test_exhaustive_cap_override(self):
        # the default config covers every quadruple, even above 12 points
        rel, points = mep_40_10_grid(["0", "1/8", "1/4", "1/2"])
        report = check_non_compensation(rel, points)
        assert report.results[0].tuples_examined == 16 ** 4

    def test_all_violations_superset(self):
        rel, points = mep_40_10_grid(["1/5", "1/2", "3/5"])
        first_only = check_strong_monotonicity(rel, points)
        everything = check_strong_monotonicity(
            rel, points, CheckConfig(all_violations=True)
        )
        r1, r2 = first_only.results[0], everything.results[0]
        assert r1.violation_count == r2.violation_count
        assert len(r1.violations) == 1
        assert r2.violations[0] == r1.violations[0]
        assert len(r2.violations) == r2.violation_count

    def test_reports_deterministic(self):
        rel, points = mep_40_10_grid(["1/5", "1/2", "3/5"])
        assert check_strong_monotonicity(rel, points) == check_strong_monotonicity(
            rel, points
        )


class TestRunChecks:
    def test_all_axioms_lex(self, nine_grid):
        report = run_checks(LEX, nine_grid)
        assert report.passed
        assert len(report.results) == 11
        assert [r.axiom for r in report.results] == [
            AxiomId.REFLEXIVE,
            AxiomId.MIRROR_CONSISTENT,
            AxiomId.CONNECTED,
            AxiomId.TRANSITIVE,
            AxiomId.WEAK_DOMINANCE,
            AxiomId.STRONG_MONOTONICITY,
            AxiomId.STRONG_DOMINANCE,
            AxiomId.NON_COMPENSATION,
            AxiomId.AXIOM2_MS,
            AxiomId.IWA,
            AxiomId.WEAK_IWA,
        ]

    def test_subset_selection(self, nine_grid):
        report = run_checks(
            LEX, nine_grid, [AxiomId.TRANSITIVE, AxiomId.WEAK_IWA]
        )
        assert [r.axiom for r in report.results] == [
            AxiomId.TRANSITIVE,
            AxiomId.WEAK_IWA,
        ]
        # every single axiom, and mixed subsets given out of order or repeated,
        # come back exactly as requested, in ALL_AXIOMS order
        subsets = [[axiom] for axiom in ALL_AXIOMS] + [
            [AxiomId.WEAK_IWA, AxiomId.REFLEXIVE, AxiomId.STRONG_DOMINANCE],
            [AxiomId.IWA, AxiomId.CONNECTED, AxiomId.IWA, AxiomId.TRANSITIVE],
            [AxiomId.AXIOM2_MS, AxiomId.MIRROR_CONSISTENT, AxiomId.WEAK_DOMINANCE],
            [AxiomId.CONNECTED, AxiomId.MIRROR_CONSISTENT],
        ]
        for subset in subsets:
            rel = CountingLex()
            report = run_checks(rel, nine_grid, subset)
            assert [r.axiom for r in report.results] == [a for a in ALL_AXIOMS if a in subset]
            assert report.passed
        # Mirror and Connected share the verdict table: each ordered pair is drawn once
        assert rel.calls == len(rel.drawn) == 9 * 8

    def test_empty_sample_rejected(self):
        with pytest.raises(RafprefError):
            run_checks(LEX, [])

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda sample: run_checks(LEX, sample, ["NoSuchAxiom"]), "unknown axioms"),
            (lambda sample: run_checks(LEX, sample, [AxiomId.REFLEXIVE]).result_for(
                AxiomId.TRANSITIVE), "no result for axiom Transitive"),
            (lambda sample: replay_violation(LEX, AxiomViolation("NoSuchAxiom", tuple(sample), ())),
             "cannot replay axiom NoSuchAxiom"),
        ],
    )
    def test_unknown_axiom_refused(self, nine_grid, call, message):
        with pytest.raises(RafprefError, match=message):
            call(nine_grid)

    def test_strong_monotonicity_alone_draws_only_qualifying_pairs(self):
        sample = grid_points(GridSpec.of([0, Fraction(1, 2), 1], 3))
        rel = CountingLex()
        result = run_checks(rel, sample, [AxiomId.STRONG_MONOTONICITY]).results[0]
        assert result.passed
        assert rel.calls == len(rel.drawn) == result.qualifying == 81
        assert all(single_coordinate_increase(a, b) for a, b in rel.drawn)

    def test_audit_keeps_one_verdict_table(self):
        # with the sample's tables built first, what an all-axiom lex audit
        # holds is its n x n verdict table: n^2 words, here under twice that
        n = 128
        sample = _Sample(grid_points(GridSpec.of([0, 1], 7)))
        for axiom in PAIR_AXIOMS:
            sample.qualifying(axiom)
        for axiom in QUAD_AXIOMS:
            sample.classes(axiom)
        tracemalloc.start()
        try:
            report = sample.audit(LEX, ALL_AXIOMS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed and report.sample_size == n
        assert peak < 2 * n * n * 8, f"peak {peak / 1024:.0f} KiB"

    def test_sample_tables_stay_small(self):
        # every table of {0,1}^7 at once: one (i, j) tuple per pair, shared
        # by every table, and one packed int per pair. Measured at 2.1-2.4
        # MiB held (CPython 3.11); with a tuple per signature and per class
        # member it was 3.5-3.7 MiB
        sample = _Sample(grid_points(GridSpec.of([0, 1], 7)))
        tracemalloc.start()
        try:
            for axiom in PAIR_AXIOMS:
                sample.qualifying(axiom)
            for axiom in QUAD_AXIOMS:
                sample.classes(axiom)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(sample.signatures) == 128 * 128
        assert peak < 3 * 1024 * 1024, f"peak {peak / 1024:.0f} KiB"

    def test_connected_draws_every_pair(self, nine_grid):
        rel = CountingLex()
        assert run_checks(rel, nine_grid, [AxiomId.CONNECTED]).passed
        assert rel.calls == 9 * 8
        assert run_checks(NoVerdictOffDiagonal(), nine_grid, [AxiomId.REFLEXIVE]).passed
        with pytest.raises(RafprefError, match="not a ComparisonOutcome"):
            run_checks(NoVerdictOffDiagonal(), nine_grid, [AxiomId.CONNECTED])

    @pytest.mark.parametrize(
        "axioms", [[axiom] for axiom in ALL_AXIOMS] + [list(ALL_AXIOMS)],
        ids=[str(axiom) for axiom in ALL_AXIOMS] + ["all"],
    )
    def test_draws_exactly_the_pairs_each_axiom_reads(self, axioms):
        # every pair an axiom reads is drawn, no other, and none twice
        sample = grid_points(GridSpec.of([0, Fraction(1, 2), 1], 3))
        reads = {
            AxiomId.REFLEXIVE: lambda a, b: a == b,
            AxiomId.MIRROR_CONSISTENT: lambda a, b: a != b,
            AxiomId.CONNECTED: lambda a, b: a != b,
            AxiomId.TRANSITIVE: lambda a, b: True,
            AxiomId.WEAK_DOMINANCE: strictly_dominates,
            AxiomId.STRONG_MONOTONICITY: single_coordinate_increase,
            AxiomId.STRONG_DOMINANCE: qualifies_strong_dominance,
            AxiomId.NON_COMPENSATION: lambda a, b: True,
            AxiomId.AXIOM2_MS: lambda a, b: sum(x != y for x, y in zip(a.values, b.values)) == 1,
            AxiomId.IWA: lambda a, b: a != b,
            AxiomId.WEAK_IWA: lambda a, b: a != b,
        }
        sizes = {
            AxiomId.REFLEXIVE: 27, AxiomId.MIRROR_CONSISTENT: 702, AxiomId.CONNECTED: 702,
            AxiomId.TRANSITIVE: 729, AxiomId.WEAK_DOMINANCE: 27, AxiomId.STRONG_MONOTONICITY: 81,
            AxiomId.STRONG_DOMINANCE: 189, AxiomId.NON_COMPENSATION: 729, AxiomId.AXIOM2_MS: 162,
            AxiomId.IWA: 702, AxiomId.WEAK_IWA: 702,
        }
        expected = {
            (a, b) for a in sample for b in sample if any(reads[axiom](a, b) for axiom in axioms)
        }
        assert len(expected) == (sizes[axioms[0]] if len(axioms) == 1 else 27 ** 2)
        rel = CountingLex()
        assert run_checks(rel, sample, axioms).passed
        assert rel.calls == len(rel.drawn)
        assert rel.drawn == expected

    @pytest.mark.parametrize("axiom", [
        AxiomId.MIRROR_CONSISTENT, AxiomId.CONNECTED, AxiomId.TRANSITIVE,
        AxiomId.NON_COMPENSATION, AxiomId.IWA, AxiomId.WEAK_IWA,
    ])
    def test_bulk_draw_refuses_a_non_outcome(self, nine_grid, axiom):
        rel = OneBadVerdict(nine_grid[5], nine_grid[2])
        with pytest.raises(RafprefError, match="returned 'first_preferred', not a ComparisonOutcome"):
            run_checks(rel, nine_grid, [axiom])
        assert run_checks(rel, nine_grid, [AxiomId.REFLEXIVE]).passed


# Mixed denominators, so that profiles of one sample have different ones
MIXED_LEVELS = [Fraction(0), Fraction(1, 6), Fraction(1, 4), Fraction(1, 3),
                Fraction(1, 2), Fraction(2, 3), Fraction(1)]


class CompareOnly(PreferenceRelation):
    """Delegates compare to inner and has no ranks hook, so its audits
    draw every verdict pair by pair."""

    def __init__(self, inner: PreferenceRelation) -> None:
        self.inner = inner
        self.name = inner.name

    def compare(self, a: Raf, b: Raf) -> ComparisonOutcome:
        return self.inner.compare(a, b)


class FlippedLex(LexicographicRelation):
    """Lex with the verdict of one ordered pair, top against bottom,
    flipped: a subclass that overrides compare but not ranks."""

    def compare(self, a: Raf, b: Raf) -> ComparisonOutcome:
        out = lex_compare(a, b)
        flipped = all(v == 1 for v in a.values) and not any(b.values)
        return out.mirrored() if flipped else out


@st.composite
def ranked_relations(draw):
    """A sample of 1-8 profiles of arity 2-4 over MIXED_LEVELS, repeats
    allowed, and one of the five relations that answer the ranks hook."""
    arity = draw(st.integers(2, 4))
    labels = [f"x{i}" for i in range(1, arity + 1)]
    payoffs = draw(st.lists(st.integers(0, 9), min_size=arity, max_size=arity))
    ctx = PriorityContext.of(labels, dict(zip(labels, payoffs)))
    rows = draw(st.lists(st.tuples(*[st.sampled_from(MIXED_LEVELS)] * arity), min_size=1, max_size=8))
    points = [Raf(ctx, row) for row in rows]
    kind = draw(st.sampled_from(["lex", "mep", "wlog", "utility", "table"]))
    if kind == "lex":
        return LexicographicRelation(), points
    if kind == "mep":
        return MaxExpectedPayoffRelation(), points
    if kind == "wlog":
        weights = draw(st.lists(st.integers(1, 3), min_size=arity, max_size=arity))
        return WeightedLogProductRelation(WeightVector(ctx, tuple(weights))), points
    if kind == "utility":
        return UtilityRelation(lambda a: sum(a.values) - 2 * a.values[-1]), points
    distinct = list(dict.fromkeys(points))
    ranks = draw(st.lists(st.integers(0, 3), min_size=len(distinct), max_size=len(distinct)))
    remap = {r: i for i, r in enumerate(sorted(set(ranks)))}
    return table_relation(RankedRelation.from_rank_map(
        {p: remap[r] for p, r in zip(distinct, ranks)})), points


class TestRanksHook:
    """Relations that rank by a key build an audit's verdict table from their
    ranks; every other relation is asked pair by pair, with the same
    reports."""

    @settings(max_examples=150, deadline=None)
    @given(ranked_relations())
    def test_table_is_compare_and_reports_match_compare_only(self, case):
        rel, points = case
        table = _Audit(rel, _Sample(points)).table
        assert table == [[rel.compare(a, b) for b in points] for a in points]
        config = CheckConfig(all_violations=True)
        assert run_checks(rel, points, ALL_AXIOMS, config) == \
            run_checks(CompareOnly(rel), points, ALL_AXIOMS, config)

    def test_subclass_overriding_compare_is_drawn_pair_by_pair(self, nine_grid):
        rel = FlippedLex()
        assert rel.compare(nine_grid[-1], nine_grid[0]) is SECOND
        assert rel.compare(nine_grid[0], nine_grid[-1]) is SECOND
        assert all(out is None for row in _Audit(rel, _Sample(nine_grid)).table for out in row)
        assert all(None not in row for row in _Audit(LEX, _Sample(nine_grid)).table)
        report = run_checks(rel, nine_grid, ALL_AXIOMS, CheckConfig(all_violations=True))
        failed = {r.axiom for r in report.results if not r.passed}
        assert {AxiomId.MIRROR_CONSISTENT, AxiomId.TRANSITIVE} <= failed
        for axiom in (AxiomId.MIRROR_CONSISTENT, AxiomId.TRANSITIVE):
            violations = report.result_for(axiom).violations
            assert violations and all(replay_violation(rel, v) for v in violations)
        assert report.result_for(AxiomId.MIRROR_CONSISTENT).violations[0].witness == \
            (nine_grid[0], nine_grid[-1])

    # The errors below come as the audit starts, so an audit that would
    # put no pair to the relation, such as StrongMonotonicity alone on one
    # point, raises them too instead of passing vacuously.

    def test_table_point_outside_its_domain(self, unit_square, nine_grid):
        rel = table_relation(RankedRelation.from_rank_map({p: 0 for p in unit_square}))
        outside = [p for p in nine_grid if p not in unit_square][0]
        for sample, axioms in ((unit_square + [outside], ALL_AXIOMS), ([outside], [AxiomId.STRONG_MONOTONICITY])):
            with pytest.raises(UnknownPointError, match="^" + re.escape(f"point {outside} not in table domain") + "$"):
                run_checks(rel, sample, axioms)

    def test_wlog_on_profiles_of_another_context(self, nine_grid):
        other = PriorityContext.of(("p", "q"))
        rel = WeightedLogProductRelation(WeightVector(other, (1, 2)))
        for sample, axioms in ((nine_grid, ALL_AXIOMS), (nine_grid[:1], [AxiomId.STRONG_MONOTONICITY])):
            with pytest.raises(WeightArityMismatchError, match="^weights built on a different context$"):
                run_checks(rel, sample, axioms)

    def test_utility_without_an_exact_integer_ratio(self, nine_grid):
        rel = UtilityRelation(lambda a: float("nan"), name="nan")
        for sample, axioms in ((nine_grid, ALL_AXIOMS), (nine_grid[:1], [AxiomId.STRONG_MONOTONICITY])):
            with pytest.raises(RafprefError, match=re.escape(f"relation 'nan': the utility of {nine_grid[0]} is nan,")):
                run_checks(rel, sample, axioms)

    @pytest.mark.parametrize("first", [AxiomId.MIRROR_CONSISTENT, AxiomId.CONNECTED, AxiomId.IWA])
    def test_scan_after_an_off_diagonal_fill_still_draws_the_diagonal(self, nine_grid, first):
        rng = random.Random(5)
        rel = DrawnVerdicts({(a, b): rng.choice([FIRST, SECOND, INDIFF]) for a in nine_grid for b in nine_grid})
        config = CheckConfig(all_violations=True)
        for later in (AxiomId.TRANSITIVE, AxiomId.NON_COMPENSATION):
            together = run_checks(rel, nine_grid, [first, later], config)
            assert together.result_for(later) == run_checks(rel, nine_grid, [later], config).results[0]
