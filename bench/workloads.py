"""Workloads, expected answers and the measuring loop of the rafpref benchmark.

``bench/run.py`` starts this file in a child process, once per workload run:

    python3 bench/workloads.py --workload check-lex --seed 3 --seconds 30 --trace 0

and reads the JSON object it prints as its only line of output. With
``--setup-only`` it sets up, reports how long that took and exits.

Every case calls the public API of ``rafpref`` (``core``, ``relations``,
``axioms``, ``characterization``, ``cli``) and its outcome is compared with
the hand-written tables below after the timed call returns.
"""

from __future__ import annotations

import time

# Set-up time counts from here: importing rafpref is part of set-up.
STARTED = time.perf_counter()

import argparse
import contextlib
import dataclasses
import gc
import io
import json
import random
import resource
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from statistics import median
from typing import Callable, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rafpref import (  # noqa: E402
    ALL_AXIOMS,
    AxiomId,
    CheckConfig,
    GridSpec,
    LexicographicRelation,
    MaxExpectedPayoffRelation,
    PriorityContext,
    TableRelation,
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
    enumerate_weak_orders,
    grid_points,
    replay_violation,
    run_checks,
    verify_characterization,
)
from rafpref import cli  # noqa: E402

from tracing import NullTracer, Tracer  # noqa: E402

WORKLOADS = ("verify-pruned", "verify-full", "check-lex", "check-fail")

# Ordered Bell (Fubini) numbers, OEIS A000670, keyed by point count. They
# are written out, not computed by rafpref, so every enumeration total is
# checked against an independent source.
FUBINI = {4: 75, 8: 545_835, 9: 7_087_261}

GRIDS = {
    "{0,1}^2": (("0", "1"), 2),
    "{0,1}^3": (("0", "1"), 3),
    "{0,1/2,1}^2": (("0", "1/2", "1"), 2),
    "{0,1/3,2/3,1}^2": (("0", "1/3", "2/3", "1"), 2),
    "{0,1/2,1}^3": (("0", "1/2", "1"), 3),
    "{1/5,1/2,3/5}^3": (("1/5", "1/2", "3/5"), 3),
}

AXIOM_NAMES = tuple(str(a) for a in ALL_AXIOMS)

# (qualifying, violation_count) of every axiom in AXIOM_NAMES order:
#   Reflexive, MirrorConsistent, Connected, Transitive, WeakDominance,
#   StrongMonotonicity, StrongDominance, NonCompensation, Axiom2MS, IWA, WeakIWA.
# Recorded from exhaustive scans; an axiom passes exactly when its count of
# violations is 0. tuples_examined and the scan mode are deliberately not
# pinned, so a kernel that changes how the scan is covered still matches.
EXPECTED_CHECKS = {
    ("lex", "{0,1/2,1}^2"): (
        (9, 0), (72, 0), (72, 0), (165, 0), (9, 0), (18, 0),
        (27, 0), (729, 0), (108, 0), (1620, 0), (1620, 0),
    ),
    ("lex", "{0,1/3,2/3,1}^2"): (
        (16, 0), (240, 0), (240, 0), (816, 0), (36, 0), (48, 0),
        (84, 0), (7744, 0), (384, 0), (19584, 0), (19584, 0),
    ),
    ("lex", "{0,1/2,1}^3"): (
        (27, 0), (702, 0), (702, 0), (3654, 0), (27, 0), (81, 0),
        (189, 0), (19683, 0), (1458, 0), (132678, 0), (132678, 0),
    ),
    ("mep", "{0,1/2,1}^2"): (
        (9, 0), (72, 0), (72, 0), (235, 0), (9, 0), (18, 6),
        (27, 6), (729, 36), (108, 12), (1620, 36), (1620, 36),
    ),
    ("mep", "{0,1/3,2/3,1}^2"): (
        (16, 0), (240, 0), (240, 0), (1164, 0), (36, 0), (48, 18),
        (84, 18), (7744, 216), (384, 36), (19584, 216), (19584, 216),
    ),
    ("mep", "{0,1/2,1}^3"): (
        (27, 0), (702, 0), (702, 0), (6349, 0), (27, 0), (81, 43),
        (189, 61), (19683, 1052), (1458, 148), (132678, 2880), (132678, 2880),
    ),
    ("mep", "{1/5,1/2,3/5}^3"): (
        (27, 0), (702, 0), (702, 0), (7290, 0), (27, 0), (81, 54),
        (189, 81), (19683, 0), (1458, 0), (132678, 0), (132678, 0),
    ),
    ("wlog", "{0,1/2,1}^2"): (
        (9, 0), (72, 0), (72, 0), (306, 0), (9, 0), (18, 6),
        (27, 6), (729, 128), (108, 24), (1620, 476), (1620, 476),
    ),
    ("wlog", "{0,1/3,2/3,1}^2"): (
        (16, 0), (240, 0), (240, 0), (1318, 0), (36, 0), (48, 12),
        (84, 12), (7744, 1584), (384, 72), (19584, 6192), (19584, 6192),
    ),
    ("wlog", "{0,1/2,1}^3"): (
        (27, 0), (702, 0), (702, 0), (10729, 0), (27, 0), (81, 45),
        (189, 72), (19683, 4428), (1458, 360), (132678, 42336), (132678, 42336),
    ),
    ("wlog", "{1/5,1/2,3/5}^3"): (
        (27, 0), (702, 0), (702, 0), (4663, 0), (27, 0), (81, 0),
        (189, 0), (19683, 2796), (1458, 0), (132678, 45396), (132678, 45396),
    ),
}

PAYOFFS = ("40", "10", "5")

# Every public checker, timed one by one on traced passes; run_checks runs
# the same scans behind a single call.
CHECKERS = (
    ("order_axioms", check_order_axioms),
    ("weak_dominance", check_weak_dominance),
    ("strong_monotonicity", check_strong_monotonicity),
    ("strong_dominance", check_strong_dominance),
    ("non_compensation", check_non_compensation),
    ("axiom2ms", check_axiom2_ms),
    ("iwa", check_iwa),
    ("weak_iwa", check_weak_iwa),
)

SM = AxiomId.STRONG_MONOTONICITY
IWA = AxiomId.IWA
WEAK_IWA = AxiomId.WEAK_IWA

# Case ids whose wall times give characterization.workers2_speedup.
WORKERS1_CASE = "verify SM+WeakIWA {0,1}^3 no-prune workers=1"
WORKERS2_CASE = "verify SM+WeakIWA {0,1}^3 no-prune workers=2"


@dataclass
class Case:
    """One call into rafpref and the check of its outcome."""

    id: str
    points: int
    call: Callable[[object], object]  # takes the tracer, returns the outcome
    check: Callable[[object], list[str]]  # problems with the outcome; empty when right
    probe: Optional[Callable[[object, Tracer], list[str]]] = None  # traced passes only
    twin: Optional[str] = None  # a CLI case's library case on the same input


def exhaustive(n: int) -> CheckConfig:
    """A config that scans every quadruple of an n-point sample.

    The cap is set only while CheckConfig has one, so the request keeps
    meaning "exhaustive" once sampled mode is gone.
    """
    if "exhaustive_cap" in {f.name for f in dataclasses.fields(CheckConfig)}:
        return CheckConfig(exhaustive_cap=n)
    return CheckConfig()


def grid_sample(grid: str, setup: Tracer, payoffs: bool = False):
    levels, arity = GRIDS[grid]
    spec = GridSpec.of(levels, arity)
    labels = [f"x{i}" for i in range(1, arity + 1)]
    ctx = PriorityContext.of(labels, dict(zip(labels, PAYOFFS)) if payoffs else None)
    with setup.span("core.grid_points"):
        points = grid_points(spec, ctx)
    return spec, ctx, points


def mismatches(what: str, pairs) -> list[str]:
    return [f"{what}: {name} is {got!r}, expected {want!r}" for name, got, want in pairs if got != want]


def axiom_problems(rows, expected) -> list[str]:
    """rows: (axiom name, passed, qualifying, violation_count) per result."""
    names = tuple(r[0] for r in rows)
    if names != AXIOM_NAMES:
        return [f"axioms reported {names}, expected {AXIOM_NAMES}"]
    problems = []
    for (name, passed, qualifying, violations), (want_q, want_v) in zip(rows, expected):
        problems += mismatches(
            name,
            [("passed", passed, want_v == 0), ("qualifying", qualifying, want_q),
             ("violation_count", violations, want_v)],
        )
    return problems


def traced_checks(tracer, rel, sample, axioms, config):
    with tracer.span("axioms.run_checks"):
        report = run_checks(tracer.relation(rel), sample, axioms, config)
    tracer.count_checks(report)
    return report


def probe_checkers(tracer, rel, sample, config) -> None:
    for name, checker in CHECKERS:
        with tracer.span(f"axioms.{name}"):
            checker(rel, sample, config)


# ---------------------------------------------------------------------------
# Case builders
# ---------------------------------------------------------------------------


def verify_case(setup, grid, axioms, survivors, lex, *, prune=True, workers=1):
    spec, _, points = grid_sample(grid, setup)
    n = len(points)
    names = "+".join("SM" if a is SM else str(a) for a in axioms)
    cid = f"verify {names} {grid}"
    if not prune:
        cid += f" no-prune workers={workers}"

    def call(tracer):
        with tracer.span("characterization.verify"):
            report = verify_characterization(spec, axioms, prune=prune, workers=workers)
        tracer.count_verify(report)
        return report

    def check(report):
        return mismatches(cid, [
            ("enumerated", report.enumerated, FUBINI[n]),
            ("survivor_count", report.survivor_count, survivors),
            ("matches_lex", report.matches_lex, lex),
        ])

    def probe(report, tracer):
        # The survivor re-audit, repeated through the public checkers.
        problems = []
        for ranking in report.survivors:
            rel = TableRelation(ranking)
            sample = list(ranking.domain)
            config = exhaustive(len(sample))
            with tracer.span("characterization.audit"):
                audit = traced_checks(tracer, rel, sample, report.axiom_order, config)
            if not audit.passed:
                problems.append(f"{cid}: a survivor fails its own axioms on re-audit")
            probe_checkers(tracer, rel, sample, config)
        return problems

    return Case(cid, n, call, check, probe)


def drain_case(setup, grid):
    _, _, points = grid_sample(grid, setup)
    n = len(points)

    def call(tracer):
        with tracer.span("characterization.enumerate"):
            count = 0
            for _ in enumerate_weak_orders(points, max_points=n):
                count += 1
        return count

    def check(count):
        return mismatches("drain", [("orders", count, FUBINI[n])])

    return Case(f"enumerate_weak_orders {grid}", n, call, check)


def relation_for(name: str, ctx: PriorityContext):
    if name == "lex":
        return LexicographicRelation()
    if name == "mep":
        return MaxExpectedPayoffRelation()
    return WeightedLogProductRelation(WeightVector(ctx, (1,) * ctx.arity))


def check_case(setup, rng, relation, grid):
    _, ctx, points = grid_sample(grid, setup, payoffs=relation == "mep")
    rel = relation_for(relation, ctx)
    sample = list(points)
    rng.shuffle(sample)
    config = exhaustive(len(sample))
    expected = EXPECTED_CHECKS[relation, grid]
    cid = f"run_checks {relation} {grid}"

    def call(tracer):
        return traced_checks(tracer, rel, sample, ALL_AXIOMS, config)

    def check(report):
        rows = [(str(r.axiom), r.passed, r.qualifying, r.violation_count) for r in report.results]
        problems = [f"{cid}: {p}" for p in axiom_problems(rows, expected)]
        for r in report.results:
            if r.violations and not replay_violation(rel, r.violations[0]):
                problems.append(f"{cid}: {r.axiom} witness does not replay")
        return problems

    def probe(report, tracer):
        probe_checkers(tracer, rel, sample, config)
        return []

    return Case(cid, len(points), call, check, probe)


def cli_case(setup, cid, argv, grid, code, check_payload, twin):
    n = len(grid_sample(grid, setup)[2])

    def call(tracer):
        out, err = io.StringIO(), io.StringIO()
        with tracer.span("cli.main"), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv)
        text = out.getvalue()
        tracer.count_output(len(text.encode()))
        return status, text, err.getvalue()

    def check(outcome):
        status, text, err = outcome
        if status != code:
            return [f"{cid}: exit code {status}, expected {code} ({err.strip()[:200]})"]
        return [f"{cid}: {p}" for p in check_payload(json.loads(text))]

    return Case(cid, n, call, check, twin=twin)


def cli_check_payload(relation, grid, all_violations=False):
    expected = EXPECTED_CHECKS[relation, grid]

    def check(payload):
        rows = [
            (r["axiom"], r["status"] == "pass", r["qualifying"], r["violation_count"])
            for r in payload["results"]
        ]
        problems = axiom_problems(rows, expected)
        if all_violations:
            for r in payload["results"]:
                if len(r["violations"]) != r["violation_count"]:
                    problems.append(f"{r['axiom']}: {len(r['violations'])} violations listed")
        return problems

    return check


def cli_verify_payload(payload):
    return mismatches("verify", [
        ("enumerated", payload["enumerated"], FUBINI[9]),
        ("survivor_count", payload["survivor_count"], 1),
        ("matches_lex", payload["matches_lex"], True),
    ])


def build(workload: str, seed: int, setup: Tracer, tiny: bool = False) -> list[Case]:
    """The workload's case list; check-* samples are shuffled by the seed.

    verify-* cases take no input but their grid, so the seed leaves them
    unchanged: the search order is fixed by the grid's point order.
    """
    rng = random.Random(seed)
    if workload == "verify-pruned":
        cases = [
            verify_case(setup, "{0,1}^2", (SM, WEAK_IWA), 1, True),
            verify_case(setup, "{0,1}^3", (SM, WEAK_IWA), 1, True),
            verify_case(setup, "{0,1/2,1}^2", (SM, WEAK_IWA), 1, True),
            verify_case(setup, "{0,1/2,1}^2", (SM, IWA), 1, True),
            verify_case(setup, "{0,1/2,1}^2", (SM,), 197, False),
            cli_case(
                setup, "cli verify SM,WeakIWA {0,1/2,1}^2",
                ["verify", "--levels", "0,1/2,1", "--arity", "2", "--axioms", "SM,WeakIWA",
                 "--format", "json"],
                "{0,1/2,1}^2", 0, cli_verify_payload, twin="verify SM+WeakIWA {0,1/2,1}^2",
            ),
        ]
    elif workload == "verify-full":
        cases = [
            verify_case(setup, "{0,1}^3", (SM, WEAK_IWA), 1, True, prune=False, workers=1),
            verify_case(setup, "{0,1}^3", (SM, WEAK_IWA), 1, True, prune=False, workers=2),
            verify_case(setup, "{0,1}^3", (WEAK_IWA,), 15, False),
            drain_case(setup, "{0,1}^3"),
        ]
    elif workload == "check-lex":
        cases = [
            check_case(setup, rng, "lex", grid)
            for grid in ("{0,1/2,1}^2", "{0,1/3,2/3,1}^2", "{0,1/2,1}^3")
        ]
        cases.append(cli_case(
            setup, "cli check lex {0,1/2,1}^2",
            ["check", "--relation", "lex", "--grid", "0,1/2,1", "--arity", "2",
             "--axioms", "all", "--format", "json"],
            "{0,1/2,1}^2", 0, cli_check_payload("lex", "{0,1/2,1}^2"),
            twin="run_checks lex {0,1/2,1}^2",
        ))
    elif workload == "check-fail":
        cases = [
            check_case(setup, rng, relation, grid)
            for relation in ("mep", "wlog")
            for grid in ("{0,1/2,1}^2", "{0,1/3,2/3,1}^2", "{0,1/2,1}^3", "{1/5,1/2,3/5}^3")
        ]
        cases.append(cli_case(
            setup, "cli check wlog {0,1/2,1}^2 --all-violations",
            ["check", "--relation", "wlog", "--grid", "0,1/2,1", "--arity", "2",
             "--weights", "1,1", "--axioms", "all", "--all-violations", "--format", "json"],
            "{0,1/2,1}^2", 1, cli_check_payload("wlog", "{0,1/2,1}^2", all_violations=True),
            twin="run_checks wlog {0,1/2,1}^2",
        ))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if tiny:
        smallest = min(c.points for c in cases)
        cases = [c for c in cases if c.points == smallest]
    return cases


# ---------------------------------------------------------------------------
# Measuring
# ---------------------------------------------------------------------------


def cpu_seconds() -> float:
    """User and system CPU of this process and of its children that ended."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


REFERENCE_AFTER_S = 0.1  # shorter cases share the reference measured after the next long one


def reference_loop(rounds: int = 40_000):
    """Fixed pure-Python work that shares no code with rafpref."""
    counts: dict = {}
    total = Fraction(0)
    for i in range(rounds):
        key = (i & 7, (i >> 3) & 7, i % 5)
        counts[key] = counts.get(key, 0) + 1
        if i % 16 == 0:
            total += Fraction(i % 13, 7)
    return len(counts), total


def reference_seconds(repeats: int = 5) -> float:
    """Median time of the reference loop: the machine's speed at this moment.

    The machine this benchmark was defined on changes speed by a third or
    more from one minute to the next, as other tenants come and go.
    Dividing a timing by a reference measured next to it cancels that drift.
    """
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - started)
    return median(times)


def run_pass(cases, tracer) -> dict:
    """One pass over the case list; outcomes are checked after the clock stops.

    The reference is measured before the first case, after each case that
    took at least REFERENCE_AFTER_S and after the last one. The time of the
    cases between two reference measurements is also given in reference
    units: that time over the mean of the two reference times.
    """
    gc.collect()
    outcomes, case_s = [], {}
    wall = cpu = wall_refs = cpu_refs = 0.0
    since_wall = since_cpu = 0.0
    ref_before = reference_seconds()
    for index, case in enumerate(cases):
        tracer.case = case.id
        w0, c0 = time.perf_counter(), cpu_seconds()
        try:
            out = case.call(tracer)
        except Exception as exc:  # a case that raises is counted as failed; the pass goes on
            out = exc
        w1, c1 = time.perf_counter(), cpu_seconds()
        wall += w1 - w0
        cpu += c1 - c0
        since_wall += w1 - w0
        since_cpu += c1 - c0
        if w1 - w0 >= REFERENCE_AFTER_S or index == len(cases) - 1:
            ref_after = reference_seconds()
            ref = (ref_before + ref_after) / 2
            wall_refs += since_wall / ref
            cpu_refs += since_cpu / ref
            ref_before, since_wall, since_cpu = ref_after, 0.0, 0.0
        case_s[case.id] = w1 - w0
        outcomes.append(out)
    problems, failed = [], 0
    for case, out in zip(cases, outcomes):
        tracer.case = case.id
        if isinstance(out, Exception):
            found = [f"{case.id}: raised {out!r}"]
        else:
            try:
                found = case.check(out)
                if tracer.enabled and case.probe is not None:
                    found += case.probe(out, tracer)
            except Exception as exc:  # an outcome the check cannot read is a wrong outcome
                found = [f"{case.id}: outcome not readable: {exc!r}"]
        failed += bool(found)
        problems += found
    return {"wall_s": wall, "cpu_s": cpu, "wall_refs": wall_refs, "cpu_refs": cpu_refs,
            "case_s": case_s, "attempted": len(cases), "failed": failed, "problems": problems}


def layer_metrics(cases, tracer: Tracer, case_s: dict, grid_points_ms: float) -> dict:
    """Per-layer numbers of one traced pass and its probes."""
    ms = lambda name: 1000.0 * tracer.seconds(name)  # noqa: E731
    overhead = sum(case_s[c.id] - case_s[c.twin] for c in cases if c.twin in case_s)
    speedup = 0.0
    if WORKERS1_CASE in case_s and WORKERS2_CASE in case_s:
        speedup = case_s[WORKERS1_CASE] / case_s[WORKERS2_CASE]
    metrics = {
        "core.grid_points_ms": grid_points_ms,
        "relations.compare_calls": tracer.compare_calls,
        "relations.compare_ms": 1000.0 * tracer.compare_s,
        "axioms.run_checks_ms": ms("axioms.run_checks"),
    }
    metrics.update({f"axioms.{name}_ms": ms(f"axioms.{name}") for name, _ in CHECKERS})
    metrics.update({
        "axioms.qualifying": tracer.qualifying,
        "axioms.violations": tracer.violations,
        "axioms.qualifying_ratio": tracer.qualifying / tracer.examined if tracer.examined else 0.0,
        "characterization.verify_ms": ms("characterization.verify"),
        "characterization.checked": tracer.checked,
        "characterization.survivors": tracer.survivors,
        "characterization.leaf_yield": tracer.survivors / tracer.checked if tracer.checked else 0.0,
        "characterization.audit_ms": ms("characterization.audit"),
        "characterization.enumerate_ms": ms("characterization.enumerate"),
        "characterization.workers2_speedup": speedup,
        "cli.main_ms": ms("cli.main"),
        "cli.overhead_ms": 1000.0 * overhead,
        "cli.output_bytes": tracer.output_bytes,
    })
    bases = {"workers1_ms": 1000.0 * case_s.get(WORKERS1_CASE, 0.0),
             "workers2_ms": 1000.0 * case_s.get(WORKERS2_CASE, 0.0)}
    return {"metrics": metrics, "speedup_bases": bases}


def measure(cases, seconds: float, trace: bool, grid_points_ms: float) -> dict:
    """Repeat passes, after one warm-up pass, until the next would end after ``seconds``.

    With tracing, each untraced pass is followed by a traced one, so both
    see the same machine conditions.
    """
    started = time.perf_counter()
    untraced, traced, layers, cycles, spans = [], [], [], [], []
    # The first pass fills caches and grows the heap; it is checked but not timed.
    warmup = run_pass(cases, NullTracer())
    attempted, failed = warmup["attempted"], warmup["failed"]
    problems: list[str] = warmup["problems"]
    while True:
        cycle_start = time.perf_counter()
        runs = [("untraced", NullTracer())]
        if trace:
            runs.append(("traced", Tracer()))
        for kind, tracer in runs:
            result = run_pass(cases, tracer)
            attempted += result["attempted"]
            failed += result["failed"]
            problems += result["problems"]
            sample = {k: result[k] for k in ("wall_s", "cpu_s", "wall_refs", "cpu_refs", "case_s")}
            if kind == "untraced":
                untraced.append(sample)
            else:
                traced.append(sample)
                layers.append(layer_metrics(cases, tracer, result["case_s"], grid_points_ms))
                spans = [dataclasses.asdict(span) for span in tracer.spans]
        now = time.perf_counter()
        cycles.append(now - cycle_start)
        if now - started + median(cycles) > seconds:
            break
    return {"untraced": untraced, "traced": traced, "layers": layers, "last_traced_spans": spans,
            "attempted": attempted, "failed": failed, "problems": problems[:50]}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="only the cases on the smallest grid")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    setup = Tracer()
    cases = build(args.workload, args.seed, setup, tiny=args.tiny)
    setup_s = time.perf_counter() - STARTED
    out = {
        "setup_s": setup_s,
        "setup_refs": setup_s / reference_seconds(),
        "grid_points_ms": 1000.0 * setup.seconds("core.grid_points"),
        "cases": [c.id for c in cases],
    }
    if not args.setup_only:
        out.update(measure(cases, args.seconds, bool(args.trace), out["grid_points_ms"]))
        out["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
