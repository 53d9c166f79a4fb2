"""Self-test of the benchmark on each workload's smallest grid.

    PYTHONPATH=src python3 -m pytest bench/tests -q

It checks the output schema, the metric names and units against
BENCHMARK.json, and that wrong answers are counted as failures. It makes
no timing assertions.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_workload_names_match_benchmark_json():
    assert tuple(w["name"] for w in SPEC["workloads"]) == workloads.WORKLOADS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float)) and not isinstance(entry["value"], bool)
    if workload == "verify-full" and trace:
        # the speedup is found by case id; an id that drifts would leave it 0
        assert result["metrics"]["characterization.workers2_speedup"]["value"] > 0
    table = proc.stdout.strip().splitlines()[:-1]
    for m in listed:
        assert any(m["name"] in line and line.endswith(" " + m["unit"]) for line in table)

    record = json.loads(
        (BENCH / "results" / f"{workload}-seed3-trace{trace}-tiny.json").read_text()
    )
    assert record["seed"] == 3 and record["seed_effect"]
    assert {"nproc", "cpu_model", "python", "git_commit", "src_sha256", "loadavg",
            "steal_share_since_boot"} <= set(record["environment"])
    all_metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    assert record["metric_units"] == {m["name"]: m["unit"] for m in all_metrics}


def test_wrong_expected_check_entry_is_a_failure(monkeypatch):
    key = ("lex", "{0,1/2,1}^2")
    wrong = list(workloads.EXPECTED_CHECKS[key])
    wrong[3] = (wrong[3][0] + 1, 0)  # Transitive qualifying count
    monkeypatch.setitem(workloads.EXPECTED_CHECKS, key, tuple(wrong))
    cases = workloads.build("check-lex", 3, Tracer(), tiny=True)
    result = workloads.run_pass(cases, NullTracer())
    # the library case and the CLI case on the same grid both use the entry
    assert result["attempted"] == 2 and result["failed"] == 2
    assert all("Transitive" in p for p in result["problems"])


def test_wrong_fubini_entry_is_a_failure(monkeypatch):
    monkeypatch.setitem(workloads.FUBINI, 4, 76)
    cases = workloads.build("verify-pruned", 3, Tracer(), tiny=True)
    result = workloads.run_pass(cases, Tracer())
    assert result["failed"] == 1
    assert "enumerated is 75, expected 76" in result["problems"][0]


def test_seed_reorders_check_samples_but_not_counts():
    def first_case(seed):
        report = workloads.build("check-fail", seed, Tracer(), tiny=True)[0].call(NullTracer())
        counts = [(r.axiom, r.qualifying, r.violation_count) for r in report.results]
        witnesses = [r.violations[0].witness for r in report.results if r.violations]
        return counts, witnesses

    runs = [first_case(seed) for seed in range(1, 6)]
    assert runs[0] == first_case(1)
    assert all(counts == runs[0][0] for counts, _ in runs)
    assert len({tuple(witnesses) for _, witnesses in runs}) > 1


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "check-lex", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
