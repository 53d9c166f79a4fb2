"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts. Everything asserted here is exact
arithmetic, an exhaustive scan, or a pinned enumeration regression.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from rafpref import (
    AxiomId,
    CheckConfig,
    ComparisonOutcome,
    GridSpec,
    LexicographicRelation,
    MaxExpectedPayoffRelation,
    PriorityContext,
    Raf,
    WeightVector,
    WeightedLogProductRelation,
    check_axiom2_ms,
    check_iwa,
    check_non_compensation,
    check_order_axioms,
    check_strong_dominance,
    check_strong_monotonicity,
    check_weak_dominance,
    check_weak_iwa,
    default_context,
    enumerate_weak_orders,
    fubini,
    grid_points,
    lex_compare,
    make_raf,
    mep_utility,
    proof_trace_check,
    replay_violation,
    utility_compare,
    verify_characterization,
)
from rafpref.axioms import iwa_indices, qualifies_non_compensation, qualifies_axiom2, qualifies_weak_iwa
from rafpref.cli import main

LEX = LexicographicRelation()
FIRST = ComparisonOutcome.FIRST_PREFERRED
SECOND = ComparisonOutcome.SECOND_PREFERRED
INDIFF = ComparisonOutcome.INDIFFERENT


@contextmanager
def criterion(tag, description):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] {tag} FAIL — {description}")
        raise
    print(f"[ACCEPTANCE] {tag} PASS — {description}")


def run_cli_json(argv):
    import io
    from contextlib import redirect_stdout

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    return code, json.loads(buffer.getvalue())


def test_c1_money_example_reproduction():
    with criterion("C1", "two-alternative example: utilities 8 and 9, opposite verdicts"):
        ctx = PriorityContext.of(("$40", "$10"), {"$40": 40, "$10": 10})
        a = make_raf(("1/5", "4/5"), ctx)
        b = make_raf(("1/10", "9/10"), ctx)
        # warm-up so the timed run measures arithmetic, not import machinery
        mep_utility(a), utility_compare(a, b, mep_utility), lex_compare(a, b)
        started = time.perf_counter()
        ua = mep_utility(a)
        ub = mep_utility(b)
        mep_verdict = utility_compare(a, b, mep_utility)
        lex_verdict = lex_compare(a, b)
        elapsed = time.perf_counter() - started
        assert ua == Fraction(8)
        assert ub == Fraction(9)
        assert mep_verdict is SECOND  # B strictly preferred under mep
        assert lex_verdict is FIRST  # A strictly preferred under lex
        assert elapsed < 0.001, f"took {elapsed * 1000:.3f} ms"


def test_c2_lex_full_axiom_suite():
    with criterion("C2", "lex passes all eight checkers exhaustively on {0,1/2,1}^2 in < 1 s"):
        points = grid_points(GridSpec.of(["0", "1/2", "1"], 2))
        started = time.perf_counter()
        reports = [
            check_order_axioms(LEX, points),
            check_weak_dominance(LEX, points),
            check_strong_monotonicity(LEX, points),
            check_strong_dominance(LEX, points),
            check_non_compensation(LEX, points),
            check_axiom2_ms(LEX, points),
            check_iwa(LEX, points),
            check_weak_iwa(LEX, points),
        ]
        elapsed = time.perf_counter() - started
        for report in reports:
            assert report.passed
            for result in report.results:
                assert result.violation_count == 0
        for quad_report in reports[4:]:
            assert quad_report.results[0].tuples_examined == 6561
        assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_c3_negative_controls_with_replayable_witnesses():
    with criterion("C3", "mep and wlog fail strong monotonicity with replayable witnesses"):
        # mep on a grid containing (1/5, 3/5) and (1/5, 1/2): both utilities 8
        ctx = PriorityContext.of(("x1", "x2"), {"x1": 40, "x2": 10})
        mep = MaxExpectedPayoffRelation()
        points = grid_points(GridSpec.of(["1/5", "1/2", "3/5"], 2), ctx)
        report = check_strong_monotonicity(mep, points, CheckConfig(all_violations=True))
        result = report.results[0]
        assert not result.passed
        tie_a = make_raf(("1/5", "3/5"), ctx)
        tie_b = make_raf(("1/5", "1/2"), ctx)
        assert mep_utility(tie_a) == mep_utility(tie_b) == Fraction(8)
        assert (tie_a, tie_b) in [v.witness for v in result.violations]
        for violation in result.violations:
            assert replay_violation(mep, violation)

        # wlog on grids containing two distinct points sharing a zero coordinate
        for levels in (["0", "1"], ["0", "1/2", "1"]):
            grid = grid_points(GridSpec.of(levels, 2))
            wlog = WeightedLogProductRelation(
                WeightVector(grid[0].context, (1, 1))
            )
            wlog_report = check_strong_monotonicity(wlog, grid)
            wlog_result = wlog_report.results[0]
            assert not wlog_result.passed
            assert replay_violation(wlog, wlog_result.violations[0])


def test_c4_characterization_exhaustive_converse():
    with criterion("C4", "SM + WeakIWA leave exactly the lex survivor on all three grids"):
        started = time.perf_counter()
        code, payload = run_cli_json(
            ["verify", "--levels", "0,1", "--arity", "2",
             "--axioms", "SM,WeakIWA", "--format", "json"]
        )
        elapsed = time.perf_counter() - started
        assert code == 0
        assert payload["enumerated"] == 75
        assert payload["survivor_count"] == 1
        assert payload["matches_lex"] is True
        assert elapsed < 1.0, f"small grid took {elapsed:.2f} s"

        started = time.perf_counter()
        code, payload = run_cli_json(
            ["verify", "--levels", "0,1/2,1", "--arity", "2",
             "--axioms", "SM,WeakIWA", "--prune", "--format", "json"]
        )
        elapsed = time.perf_counter() - started
        assert code == 0
        assert payload["enumerated"] == 7087261 == fubini(9)
        assert payload["pruned"] is True
        assert payload["survivor_count"] == 1
        assert payload["matches_lex"] is True
        assert elapsed < 120.0, f"stress grid took {elapsed:.2f} s"

        code, payload = run_cli_json(
            ["verify", "--levels", "0,1", "--arity", "3",
             "--axioms", "SM,WeakIWA", "--format", "json"]
        )
        assert code == 0
        assert payload["enumerated"] == 545835 == fubini(8)
        assert payload["survivor_count"] == 1
        assert payload["matches_lex"] is True


def test_c5_full_iwa_same_survivor():
    """SM + IWA leave the same unique survivor as SM + WeakIWA.

    As implemented, IWA and WeakIWA are one predicate (see check_iwa and
    the property test in test_axioms), so this holds by definition; it
    pins the CLI wiring of the IWA name, not extra evidence.
    """
    with criterion("C5", "SM + IWA yield the identical unique survivor on the same grids"):
        for levels, arity in (("0,1", 2), ("0,1/2,1", 2), ("0,1", 3)):
            code_weak, weak = run_cli_json(
                ["verify", "--levels", levels, "--arity", str(arity),
                 "--axioms", "SM,WeakIWA", "--format", "json"]
            )
            code_full, full = run_cli_json(
                ["verify", "--levels", levels, "--arity", str(arity),
                 "--axioms", "SM,IWA", "--format", "json"]
            )
            assert code_weak == code_full == 0
            assert full["survivor_count"] == 1
            assert full["matches_lex"] is True
            assert [s["ranks"] for s in full["survivors"]] == [
                s["ranks"] for s in weak["survivors"]
            ]


def test_c6_axiom_set_controls():
    with criterion("C6", "single-axiom controls admit extra survivors (pinned counts)"):
        code, sm_only = run_cli_json(
            ["verify", "--levels", "0,1", "--arity", "2",
             "--axioms", "SM", "--format", "json"]
        )
        assert code == 1
        assert sm_only["survivor_count"] == 3  # pinned enumeration regression
        ranks = [tuple(s["ranks"]) for s in sm_only["survivors"]]
        assert (3, 2, 1, 0) in ranks  # lex
        assert (3, 1, 2, 0) in ranks  # priority-reversed lex

        code, wiwa_only = run_cli_json(
            ["verify", "--levels", "0,1", "--arity", "2",
             "--axioms", "WeakIWA", "--format", "json"]
        )
        assert code == 1
        assert wiwa_only["survivor_count"] == 7  # pinned enumeration regression
        ranks = [tuple(s["ranks"]) for s in wiwa_only["survivors"]]
        assert (0, 0, 0, 0) in ranks  # total indifference
        assert (3, 2, 1, 0) in ranks  # lex


def test_c7_proof_trace_on_random_pairs():
    with criterion("C7", "characterization trace holds for lex on 1000 seeded random pairs"):
        rng = random.Random(0)
        contexts = {k: default_context(k) for k in (2, 3, 4)}
        checked = 0
        def draw_value():
            denominator = rng.choice((4, 6, 12))
            return Fraction(rng.randrange(0, denominator + 1), denominator)

        while checked < 1000:
            arity = rng.choice((2, 3, 4))
            ctx = contexts[arity]
            a = Raf(ctx, tuple(draw_value() for _ in range(arity)))
            b = Raf(ctx, tuple(draw_value() for _ in range(arity)))
            if a == b:
                continue
            trace = proof_trace_check(LEX, a, b)
            assert trace.passed, (a, b, trace.steps)
            checked += 1


def test_c8_implication_properties():
    with criterion("C8", "qualification subsets and the dominance chain on product grids"):
        rng = random.Random(0)
        weak_iwa_hits = 0
        axiom2_hits = 0
        for _ in range(50):
            arity = rng.choice((2, 3))
            ctx = default_context(arity)
            denom = rng.choice((3, 4, 6))
            pool = [Fraction(i, denom) for i in range(denom + 1)]
            sample = []
            seen = set()
            while len(sample) < 7:
                values = tuple(rng.choice(pool) for _ in range(arity))
                if values not in seen:
                    seen.add(values)
                    sample.append(Raf(ctx, values))
            for _ in range(200):
                quad = tuple(rng.choice(sample) for _ in range(4))
                k = qualifies_weak_iwa(*quad)
                if k is not None:
                    weak_iwa_hits += 1
                    assert k in iwa_indices(*quad)
                if qualifies_axiom2(*quad) is not None:
                    axiom2_hits += 1
                    assert qualifies_non_compensation(*quad)
        assert weak_iwa_hits > 0 and axiom2_hits > 0

        # dominance chain: any built-in relation passing strong monotonicity
        # on a product grid must also pass weak and strong dominance there
        chain_exercised = 0
        for levels in (["0", "1"], ["1/4", "3/4"], ["0", "1/2", "1"], ["1/5", "1/2", "3/5"]):
            for arity in (2, 3):
                if len(levels) ** arity > 12:
                    continue
                ctx = PriorityContext.of(
                    tuple(f"x{i}" for i in range(1, arity + 1)),
                    {f"x{i}": p for i, p in enumerate((40, 10, 5)[:arity], start=1)},
                )
                points = grid_points(GridSpec.of(levels, arity), ctx)
                relations = [
                    LEX,
                    MaxExpectedPayoffRelation(),
                    WeightedLogProductRelation(WeightVector(ctx, (1,) * arity)),
                ]
                for rel in relations:
                    if check_strong_monotonicity(rel, points).passed:
                        chain_exercised += 1
                        assert check_weak_dominance(rel, points).passed
                        assert check_strong_dominance(rel, points).passed
        assert chain_exercised > 0  # lex exercises the chain on every grid


def test_c9_enumeration_matches_recurrence_oracle():
    with criterion("C9", "weak-order counts for n=1..9 equal the recurrence values"):
        pinned = (1, 3, 13, 75, 541, 4683, 47293, 545835, 7087261)
        base = grid_points(GridSpec.of(["0", "1/2", "1"], 2))
        for n, expected in enumerate(pinned, start=1):
            assert fubini(n) == expected
            streamed = sum(1 for _ in enumerate_weak_orders(base[:n]))
            assert streamed == expected, f"n={n}: streamed {streamed}"


# OEIS A000670 at n = 81, the weak orders on the 81 points of {0,1/2,1}^4
FUBINI_81 = int(
    "3269602373817648700301767843715283175182953626969514831242153251243876662933"
    "1337467457372188965826162331372814768194762261217544238621"
)


def test_c10_forward_checked_search_on_81_points():
    with criterion("C10", "SM + WeakIWA leave exactly lex among all weak orders on {0,1/2,1}^4"):
        # the same total as sum_k k! S(81, k), ordered partitions by block count
        stirling = [1]  # S(0, k) for k = 0
        for m in range(1, 82):
            stirling = [
                (k * stirling[k] if k < len(stirling) else 0)
                + (stirling[k - 1] if k >= 1 else 0)
                for k in range(m + 1)
            ]
        factorial = 1
        total = 0
        for k in range(1, 82):
            factorial *= k
            total += factorial * stirling[k]
        assert total == FUBINI_81 == fubini(81)

        started = time.perf_counter()
        report = verify_characterization(
            GridSpec.of(["0", "1/2", "1"], 4),
            [AxiomId.STRONG_MONOTONICITY, AxiomId.WEAK_IWA],
        )
        elapsed = time.perf_counter() - started
        assert report.pruned
        assert report.enumerated == FUBINI_81
        assert report.checked == report.survivor_count == 1
        assert report.matches_lex
        assert sum(c for _, c in report.pruned_by) == report.pruned_away == FUBINI_81 - 1
        assert elapsed < 30.0, f"81 points took {elapsed:.2f} s"
