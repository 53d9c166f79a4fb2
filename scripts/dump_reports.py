#!/usr/bin/env python3
"""Print canonical check and verify reports over a fixed matrix of cases.

The output is meant to be diffed between two commits: any change in a
count, a verdict, a witness or its order shows up as a changed line.

- ``rafpref check`` text and JSON for lex, mep and wlog on five grids of
  4 to 27 points, three axiom selections, with and without
  ``--all-violations``;
- the same two renderings of ``run_checks`` reports for a random
  mirror-consistent comparator, which unlike the built-in relations
  breaks transitivity;
- ``repr`` of the report of each of the eight public ``check_*``
  functions for lex, mep and wlog on the grids of at most nine points,
  with and without ``all_violations``;
- after each ``run_checks`` and ``check_*`` report, one ``replay`` line per
  axiom with the ``replay_violation`` verdict (1 or 0) of every listed
  witness, so a change in replay shows up too;
- ``rafpref verify`` JSON as the CLI prints it, with its ``elapsed_ms``
  field cut out, and text without the ``elapsed:`` line, pruned and
  unpruned;
- ``rafpref rank`` text and JSON for lex, mep and wlog on the README's
  money document and on a document with a tie, written to a temporary
  file;
- the count and sha256 of the ``enumerate_weak_orders`` rank stream on
  1 to 8 points, so a change in the walk's order shows up too;
- the exit code and error line of every refusal in ``ERROR_DOCUMENTS``
  (given to ``rafpref rank --input``) and ``ERROR_FLAGS``, so a change in
  error text shows up as well as a change in a report.

Full witness lists are kept to samples of at most nine points, so the
output stays a few megabytes.

Each case starts with a ``== <case>`` line followed by its exit code.
To compare with another commit, run a copy of this script from a
checkout of that commit, for example::

    git archive <commit> --prefix=other/ | tar -x -C /tmp
    cp scripts/dump_reports.py /tmp/other/scripts/
    python3 /tmp/other/scripts/dump_reports.py > other.txt
    python3 scripts/dump_reports.py > this.txt
    diff other.txt this.txt
"""

import contextlib
import hashlib
import io
import json
import random
import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rafpref import (  # noqa: E402
    CheckConfig,
    ComparisonOutcome,
    GridSpec,
    PreferenceRelation,
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
)
from rafpref import cli  # noqa: E402

CHECK_GRIDS = [
    ("0,1", 2),
    ("1/5,1/2,3/5", 2),
    ("0,1/2,1", 2),
    ("0,1", 3),
    ("0,1/2,1", 3),
]
RELATION_FLAGS = {
    "lex": lambda arity: [],
    "mep": lambda arity: ["--payoffs", ",".join(("40", "10", "5")[:arity])],
    "wlog": lambda arity: ["--weights", ",".join(["1"] * arity)],
}
CHECK_SELECTIONS = ["all", "Transitive", "WeakDominance,StrongDominance"]
# Every witness of every axiom is listed only up to this many points: on
# 27 points the quadruple axioms have tens of thousands of witnesses.
LISTING_POINTS = 9

VERIFY_GRIDS = [("0,1", 2), ("0,1", 3), ("0,1/2,1", 2)]
VERIFY_SELECTIONS = [
    "SM",
    "SM,WeakIWA",
    "SM,IWA",
    "SM,IWA,WeakIWA",
    "IWA,WeakIWA",
    "NonCompensation,IWA,WeakIWA",
    "WeakIWA",
    "SM,WeakDominance,StrongDominance,NonCompensation,IWA,WeakIWA",
    "StrongDominance,WeakIWA",
    "WeakDominance",
    "SM,NonCompensation",
]
# The unpruned walk visits all fubini(n) weak orders: 545,835 on 8 points
# take seconds per selection, 7,087,261 on 9 points far longer.
UNPRUNED = {
    ("0,1", 2): VERIFY_SELECTIONS,
    ("0,1", 3): ["SM,WeakIWA", "WeakIWA", "SM,NonCompensation"],
}

# the README's example document, and one where X and Y tie under mep
MONEY_DOC = {
    "alternatives": ["$40", "$10"],
    "priority": ["$40", "$10"],
    "payoffs": {"$40": "40", "$10": "10"},
    "weights": {"$40": 1, "$10": 1},
    "rafs": {
        "A": {"$40": "1/5", "$10": "4/5"},
        "B": {"$40": "1/10", "$10": "9/10"},
    },
}
RANK_DOCS = {
    "money": MONEY_DOC,
    "ties": dict(
        MONEY_DOC,
        rafs={
            "X": {"$40": "1/5", "$10": "3/5"},
            "Y": {"$40": "1/5", "$10": "1/2"},
            "Z": {"$40": "0", "$10": "0"},
        },
    ),
}

# documents that `rafpref rank` refuses, one broken field each
ERROR_DOCUMENTS = {
    "not an object": [],
    "alternatives not a list": dict(MONEY_DOC, alternatives="$40,$10"),
    "alternatives repeated": dict(MONEY_DOC, alternatives=["$40", "$40"]),
    "priority with a number": dict(MONEY_DOC, priority=["$40", 10]),
    "priority not a permutation": dict(MONEY_DOC, priority=["$40", "$5"]),
    "payoffs not an object": dict(MONEY_DOC, payoffs=["40", "10"]),
    "payoffs unknown label": dict(MONEY_DOC, payoffs={"$40": "40", "$10": "10", "$5": "5"}),
    "payoffs unknown and missing label": dict(MONEY_DOC, payoffs={"$40": "40", "$5": "5"}),
    "payoffs missing label": dict(MONEY_DOC, payoffs={"$40": "40"}),
    "payoffs number value": dict(MONEY_DOC, payoffs={"$40": 40, "$10": "10"}),
    "payoffs negative": dict(MONEY_DOC, payoffs={"$40": "-1", "$10": "10"}),
    "weights not an object": dict(MONEY_DOC, weights=[1, 1]),
    "weights unknown and missing label": dict(MONEY_DOC, weights={"$40": 1, "$5": 1}),
    "weights missing label": dict(MONEY_DOC, weights={"$40": 1}),
    "weights zero": dict(MONEY_DOC, weights={"$40": 0, "$10": 1}),
    "weights string": dict(MONEY_DOC, weights={"$40": "1", "$10": 1}),
    "weights above bound": dict(MONEY_DOC, weights={"$40": 101, "$10": 1}),
    "rafs empty": dict(MONEY_DOC, rafs={}),
    "rafs not an object": dict(MONEY_DOC, rafs=[]),
    "raf not an object": dict(MONEY_DOC, rafs={"A": ["1/5", "4/5"]}),
    "raf unknown and missing label": dict(MONEY_DOC, rafs={"A": {"$40": "1/5", "$5": "1"}}),
    "raf missing label": dict(MONEY_DOC, rafs={"A": {"$40": "1/5"}}),
    "raf number value": dict(MONEY_DOC, rafs={"A": {"$40": 0.2, "$10": "4/5"}}),
    "raf bad literal": dict(MONEY_DOC, rafs={"A": {"$40": "1e-3", "$10": "4/5"}}),
    "raf zero denominator": dict(MONEY_DOC, rafs={"A": {"$40": "1/0", "$10": "4/5"}}),
    "raf out of range": dict(MONEY_DOC, rafs={"A": {"$40": "3/2", "$10": "4/5"}}),
    "raf non-ASCII digit": dict(MONEY_DOC, rafs={"A": {"$40": "\u0661/5", "$10": "4/5"}}),
}
CHECK_GRID = ["check", "--relation", "lex", "--grid", "0,1", "--arity", "2"]
VERIFY_GRID = ["verify", "--levels", "0,1", "--arity", "2"]
# flag values that `rafpref check` and `rafpref verify` refuse; <document>
# stands for the README's money document
ERROR_FLAGS = [
    ["check", "--relation", "lex", "--input", "<document>", "--arity", "2"],
    ["check", "--relation", "lex", "--input", "<document>", "--grid", "0,1"],
    ["check", "--relation", "lex", "--grid", "0,1"],
    ["check", "--relation", "lex", "--grid", "0,1", "--arity", "11"],
    ["check", "--relation", "lex", "--grid", "0,x", "--arity", "2"],
    ["check", "--relation", "wlog", "--grid", "0,1", "--arity", "2"],
    *(CHECK_GRID + ["--axioms", axioms] for axioms in (",", "Foo", "SM,Foo")),
    *(VERIFY_GRID + ["--axioms", axioms] for axioms in (",", "Foo", "Transitive")),
    *(CHECK_GRID + ["--weights", weights]
      for weights in ("1_0,1", "\u0661,1", "+1,1", "0,1", "-1,1", "101,1", "1", "1,x")),
    CHECK_GRID + ["--payoffs", "40,10,5"],
    CHECK_GRID + ["--payoffs=-1,2"],
    ["verify", "--levels", "0,1", "--arity", "30"],
    VERIFY_GRID + ["--max-points", "0"],
    VERIFY_GRID + ["--max-points=-1"],
    ["verify", "--levels", "0,2", "--arity", "2"],
    ["verify", "--levels", "0,1", "--arity", "1"],
    ["verify", "--levels", "0,1/0", "--arity", "2"],
    ["verify", "--levels", "0," + "1" * 300 + "x", "--arity", "2"],
    ["verify", "--levels", "0,\u0661", "--arity", "2"],
    ["check", "--relation", "lex", "--grid", "0,\u0661", "--arity", "2"],
    ["check", "--relation", "mep", "--grid", "0,1", "--arity", "2", "--payoffs", "\u0664,1"],
]

OUTCOMES = tuple(ComparisonOutcome)

CHECKERS = (
    check_order_axioms,
    check_weak_dominance,
    check_strong_monotonicity,
    check_strong_dominance,
    check_non_compensation,
    check_axiom2_ms,
    check_iwa,
    check_weak_iwa,
)


class RandomMirrorRelation(PreferenceRelation):
    """Indifferent on equal profiles, a random verdict on every other
    unordered pair, mirrored for the swapped order."""

    name = "random-mirror"

    def __init__(self, points, seed: int) -> None:
        rng = random.Random(seed)
        self.table = {}
        for i, a in enumerate(points):
            for b in points[i + 1:]:
                out = rng.choice(OUTCOMES)
                self.table[a, b] = out
                self.table[b, a] = out.mirrored()

    def compare(self, a, b):
        if a == b:
            return ComparisonOutcome.INDIFFERENT
        return self.table[a, b]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue() + err.getvalue()


def emit(case: str, code: int, text: str) -> None:
    print(f"== {case}")
    print(f"exit {code}")
    print(text.rstrip("\n"))


def replays(rel, report) -> str:
    """One line per result: the replay_violation verdict of each listed witness."""
    return "\n".join(
        f"replay {r.axiom}: " + "".join(str(int(replay_violation(rel, v))) for v in r.violations)
        for r in report.results
    )


def points_of(grid: str, arity: int) -> int:
    return len(grid.split(",")) ** arity


def check_cases() -> None:
    for grid, arity in CHECK_GRIDS:
        for relation, extra in RELATION_FLAGS.items():
            for axioms in CHECK_SELECTIONS:
                for flags in ([], ["--all-violations"]):
                    if flags and axioms == "all" and points_of(grid, arity) > LISTING_POINTS:
                        continue
                    for fmt in ("text", "json"):
                        argv = [
                            "check", "--relation", relation, "--grid", grid,
                            "--arity", str(arity), *extra(arity), "--axioms", axioms,
                            *flags, "--format", fmt,
                        ]
                        emit(" ".join(argv), *run_cli(argv))


def random_relation_cases() -> None:
    for grid, arity in CHECK_GRIDS:
        points = grid_points(GridSpec.of(grid.split(","), arity))
        for seed in (1, 2):
            rel = RandomMirrorRelation(points, seed)
            sample = list(points)
            random.Random(seed).shuffle(sample)
            for all_violations in (False, True):
                if all_violations and len(points) > LISTING_POINTS:
                    continue
                report = run_checks(rel, sample, config=CheckConfig(all_violations))
                case = f"run_checks random-mirror seed={seed} {grid}^{arity} all_violations={all_violations}"
                code = 0 if report.passed else 1
                # the CLI's own renderers, so these read as `rafpref check` output
                payload = cli._check_json(report, rel.name)
                emit(case + " text", code, cli._render_check_text(payload))
                emit(case + " json", code, cli._json_text(payload))
                emit(case + " replay", code, replays(rel, report))


def checker_cases() -> None:
    for grid, arity in CHECK_GRIDS:
        if points_of(grid, arity) > LISTING_POINTS:
            continue
        for relation, extra in RELATION_FLAGS.items():
            # the CLI's own sample and relation builders, as `rafpref check --grid`
            args = cli.build_parser().parse_args(
                ["check", "--relation", relation, "--grid", grid,
                 "--arity", str(arity), *extra(arity)]
            )
            ctx, sample, weights = cli._grid_sample(args)
            rel = cli._build_relation(relation, ctx, weights)
            for checker in CHECKERS:
                for all_violations in (False, True):
                    report = checker(rel, sample, CheckConfig(all_violations))
                    case = f"{checker.__name__} {relation} {grid}^{arity} all_violations={all_violations}"
                    emit(case, 0 if report.passed else 1, repr(report) + "\n" + replays(rel, report))


def verify_cases() -> None:
    for levels, arity in VERIFY_GRIDS:
        for axioms in VERIFY_SELECTIONS:
            for prune in ("--prune", "--no-prune"):
                if prune == "--no-prune" and axioms not in UNPRUNED.get((levels, arity), ()):
                    continue
                for fmt in ("json", "text"):
                    argv = [
                        "verify", "--levels", levels, "--arity", str(arity),
                        "--axioms", axioms, prune, "--format", fmt,
                    ]
                    code, text = run_cli(argv)
                    emit(" ".join(argv), code, without_elapsed(text))


def without_elapsed(text: str) -> str:
    """A verify report without its run time: the JSON as the CLI printed it
    with its elapsed_ms field cut out, or the text without its elapsed: line."""
    if text.startswith("{"):
        cut, count = re.subn(r',\n  "elapsed_ms": [^\n]*', "", text)
        if count != 1:
            raise ValueError(f"{count} elapsed_ms lines in a verify JSON report")
        return cut
    return "\n".join(line for line in text.splitlines() if not line.startswith("elapsed: "))


def rank_cases() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in RANK_DOCS.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            for relation in RELATION_FLAGS:
                for fmt in ("text", "json"):
                    code, text = run_cli(
                        ["rank", "--input", str(path), "--relation", relation, "--format", fmt]
                    )
                    emit(f"rank --input <{name} document> --relation {relation} --format {fmt}",
                         code, text)


def error_cases() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in ERROR_DOCUMENTS.items():
            path = Path(tmp) / "doc.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            code, text = run_cli(["rank", "--input", str(path), "--relation", "lex"])
            emit(f"rank --input <{name} document> --relation lex", code,
                 text.replace(str(path), "<document>"))
        path = Path(tmp) / "money.json"
        path.write_text(json.dumps(MONEY_DOC), encoding="utf-8")
        for argv in ERROR_FLAGS:
            code, text = run_cli([str(path) if a == "<document>" else a for a in argv])
            emit(" ".join(argv), code, text)


def stream_digests() -> None:
    points = grid_points(GridSpec.of(["0", "1/2", "1"], 2))
    for n in range(1, 9):
        digest = hashlib.sha256()
        count = 0
        # ranks are below n <= 8 and every tuple has n of them, so the
        # concatenated bytes determine the stream
        for ranking in enumerate_weak_orders(points[:n]):
            digest.update(bytes(ranking.ranks))
            count += 1
        print(f"== enumerate_weak_orders n={n} count={count} sha256={digest.hexdigest()}")


def main() -> int:
    check_cases()
    random_relation_cases()
    checker_cases()
    verify_cases()
    rank_cases()
    stream_digests()
    error_cases()
    return 0


if __name__ == "__main__":
    sys.exit(main())
