"""Run the rafpref benchmark and print every metric by name with its unit.

    python3 bench/run.py --workload check-lex --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each workload runs in its own child process (``bench/workloads.py``) under
an address-space limit, so a case that outgrows it fails instead of
exhausting the machine. Set-up is timed in further fresh interpreters.
With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` they are the per-layer ones, plus the tracing overhead.
The last line of output is one JSON object; a full record, with the
machine it ran on, goes to ``bench/results/``. The exit code is 0 only when
every case gave the expected answer.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"

SETUP_RUNS = 8  # fresh interpreters timed per run, besides the workload's own
ADDRESS_SPACE_LIMIT = 1 << 30  # bytes, per child process

# Time of workloads.reference_seconds() on an idle core of the machine the
# benchmark was defined on (2-core Intel Xeon at 2.1 GHz, CPython 3.11).
# The workload process gives each timing in reference units (its time over
# the reference time measured next to it), which cancels the minute-to-minute
# drift in speed of a shared machine; times are reported in seconds at that
# machine's idle speed. Raw timings are kept in the results record.
REFERENCE_S = 0.016

SEED_EFFECT = {
    "verify-pruned": "none: the cases take only their grid, whose point order fixes the search",
    "verify-full": "none: the cases take only their grid, whose point order fixes the search",
    "check-lex": "shuffles the order of each run_checks sample; exhaustive counts do not depend on it",
    "check-fail": "shuffles the order of each run_checks sample; exhaustive counts do not depend on it",
}


def limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))


def child(args: list[str], timeout: float) -> dict:
    """Run bench/workloads.py with args and return the JSON object it prints."""
    # A fixed hash seed keeps dict and set layouts the same from run to run.
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "workloads.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=timeout, text=True,
        preexec_fn=limit_address_space,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs since boot."""
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def environment() -> dict:
    model = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    steal, total = cpu_ticks()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "loadavg": os.getloadavg(),
        "steal_share_since_boot": steal / total,
        "steal_ticks": steal,
        "total_ticks": total,
    }


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else [values[0]] * 3
    return {"p50": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def run_workload(name: str, seed: int, seconds: int, trace: int, tiny: bool, spec: dict) -> dict:
    start_env = environment()
    common = ["--workload", name, "--seed", str(seed)] + (["--tiny"] if tiny else [])

    def setup_samples(count: int) -> list[dict]:
        return [child(common + ["--setup-only"], timeout=60) for _ in range(count)]

    # Set-up is sampled before and after the passes, so that its median
    # spans the run rather than one moment of a machine whose speed drifts.
    setups = setup_samples(SETUP_RUNS // 2)
    out = child(common + ["--seconds", str(seconds), "--trace", str(trace)], timeout=seconds + 100)
    setups += [out] + setup_samples(SETUP_RUNS - SETUP_RUNS // 2)
    steal, total = cpu_ticks()

    def scaled(passes: list[dict], key: str) -> dict:
        return summary([REFERENCE_S * p[key] for p in passes])

    walls = scaled(out["untraced"], "wall_refs")
    cpus = scaled(out["untraced"], "cpu_refs")
    setup_s = [REFERENCE_S * s["setup_refs"] for s in setups]
    failed_frac = out["failed"] / out["attempted"]
    end_to_end = {
        "pass_s.p50": walls["p50"],
        "cpu_s.p50": cpus["p50"],
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": out["peak_rss_mb"],
        "ok_frac": 1.0 - failed_frac,
    }
    per_layer = {}
    extra = {}
    if trace:
        for metric in out["layers"][0]["metrics"]:
            per_layer[metric] = statistics.median(l["metrics"][metric] for l in out["layers"])
        traced = scaled(out["traced"], "wall_refs")
        per_layer["trace.overhead_s"] = traced["p50"] - walls["p50"]
        bases = {k: statistics.median(l["speedup_bases"][k] for l in out["layers"])
                 for k in out["layers"][0]["speedup_bases"]}
        shares = {
            "characterization.verify_ms": per_layer["characterization.verify_ms"],
            "axioms.run_checks_ms": per_layer["axioms.run_checks_ms"],
            "axioms.quadruple_checkers_ms": sum(
                per_layer[f"axioms.{n}_ms"]
                for n in ("non_compensation", "axiom2ms", "iwa", "weak_iwa")
            ),
        }
        extra = {
            "last_traced_spans": out["last_traced_spans"],
            "traced_pass_s": traced,
            "workers2_speedup_bases_ms": bases,
            # layer times are raw, so they are compared with the raw traced pass
            "share_of_traced_pass": {
                k: v / (1000.0 * statistics.median(p["wall_s"] for p in out["traced"]))
                for k, v in shares.items()
            },
        }

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    reported = end_to_end if not trace else per_layer
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    missing = sorted(set(wanted) - set(reported))
    if missing:
        raise RuntimeError(f"metrics missing from the workload's output: {missing}")
    record = {
        "workload": name,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == name),
        "seed": seed,
        "seed_effect": SEED_EFFECT[name],
        "seconds": seconds,
        "trace": trace,
        "tiny": tiny,
        "environment": start_env,
        "steal_share_during_run": (steal - start_env["steal_ticks"]) / max(1, total - start_env["total_ticks"]),
        "metric_units": units,
        "cases": out["cases"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "failed_frac": failed_frac,
        "problems": out["problems"],
        "end_to_end": {k: {"value": v, "unit": units[k]} for k, v in end_to_end.items()},
        "reference_s": REFERENCE_S,
        "pass_s": walls,
        "cpu_s": cpus,
        "setup_s_samples": setup_s,
        "raw": {
            "pass_s": summary([p["wall_s"] for p in out["untraced"]]),
            "cpu_s": summary([p["cpu_s"] for p in out["untraced"]]),
            "setup_s": summary([s["setup_s"] for s in setups]),
            "measured_reference_s": summary([p["wall_s"] / p["wall_refs"] for p in out["untraced"]]),
            "pass_s_samples": [p["wall_s"] for p in out["untraced"]],
        },
        "case_s_p50": {c: statistics.median(p["case_s"][c] for p in out["untraced"]) for c in out["cases"]},
        "per_layer": {k: {"value": v, "unit": units[k]} for k, v in per_layer.items()},
        **extra,
        "grid_points_ms": out["grid_points_ms"],
        "metrics": {k: {"value": reported[k], "unit": units[k]} for k in wanted},
    }
    return record


def show(record: dict) -> None:
    name = record["workload"]
    for metric, entry in record["metrics"].items():
        print(f"{name:<14} {metric:<38} {entry['value']:>16.6g} {entry['unit']}")
    if not record["trace"]:
        p = record["pass_s"]
        print(f"{name:<14} {'pass_s quartiles':<38} q1 {p['q1']:.4f}  q3 {p['q3']:.4f}  n {p['n']}")
        print(f"{name:<14} {'failed_frac':<38} {record['failed_frac']:>16.6g} ratio")
    else:
        for layer, share in record["share_of_traced_pass"].items():
            print(f"{name:<14} {'share of traced pass: ' + layer:<38} {share:>16.4f} ratio")
    for problem in record["problems"]:
        print(f"{name:<14} FAILED {problem}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = tuple(w["name"] for w in spec["workloads"])
    parser = argparse.ArgumentParser(description="Run the rafpref benchmark.")
    parser.add_argument("--workload", default="all", choices=workloads + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run only each workload's smallest grid (self-test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rafpref" / "__init__.py").is_file():
        print(f"error: no rafpref sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = workloads if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        try:
            record = run_workload(name, args.seed, args.seconds, args.trace, args.tiny, spec)
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
            print(f"error: workload {name} gave no result: {exc}", file=sys.stderr)
            return 1
        show(record)
        RESULTS.mkdir(exist_ok=True)
        suffix = "-tiny" if args.tiny else ""
        path = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}{suffix}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        records.append(record)

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
