import contextlib
import errno
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from rafpref import (
    ALL_AXIOMS, CheckConfig, GridSpec, PriorityContext, Raf, RafprefError, WeightVector, axioms,
    characterization, cli, default_context, format_rational, grid_points, relations, run_checks,
)
from rafpref.cli import InputDocument, DocumentError, main

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


@pytest.fixture
def money_doc_path(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(MONEY_DOC))
    return str(path)


def write_doc(tmp_path, obj, name="bad.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class _Reached(Exception):
    """Raised by a stand-in for the first step of the work a bound guards."""


def _reach(*args):
    raise _Reached


class TestDocument:
    def test_round_trip(self):
        doc = InputDocument.from_json_dict(MONEY_DOC)
        again = InputDocument.from_json_dict(doc.to_json_dict())
        assert doc == again

    def test_decimals_normalize_exactly(self):
        obj = dict(MONEY_DOC, rafs={"A": {"$40": "0.2", "$10": "0.8"}})
        doc = InputDocument.from_json_dict(obj)
        assert doc.to_json_dict()["rafs"]["A"] == {"$40": "1/5", "$10": "4/5"}

    def test_priority_must_be_permutation(self):
        obj = dict(MONEY_DOC, priority=["$40", "$40"])
        with pytest.raises(DocumentError, match="priority"):
            InputDocument.from_json_dict(obj)

    def test_raf_missing_label_named(self):
        obj = dict(MONEY_DOC, rafs={"A": {"$40": "1/5"}})
        with pytest.raises(DocumentError, match=r"rafs\.A\.\$10"):
            InputDocument.from_json_dict(obj)

    def test_bad_rational_named(self):
        obj = dict(MONEY_DOC, rafs={"A": {"$40": "1e-3", "$10": "4/5"}})
        with pytest.raises(DocumentError, match=r"rafs\.A\.\$40"):
            InputDocument.from_json_dict(obj)

    def test_out_of_range_value(self):
        obj = dict(MONEY_DOC, rafs={"A": {"$40": "3/2", "$10": "4/5"}})
        with pytest.raises(DocumentError, match="outside"):
            InputDocument.from_json_dict(obj)

    def test_weights_positive_integers(self):
        obj = dict(MONEY_DOC, weights={"$40": 0, "$10": 1})
        with pytest.raises(DocumentError, match=r"^weights: .*'\$40'"):
            InputDocument.from_json_dict(obj)


class TestDemo:
    def test_contents(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "u(A) = 8" in out
        assert "u(B) = 9" in out
        assert "B ≻ A" in out
        assert "A ≻ B" in out
        assert "C = (1/10, 4/5)" in out
        assert "regret" in out


class TestRank:
    def test_lex(self, money_doc_path, capsys):
        assert main(["rank", "-i", money_doc_path, "-r", "lex"]) == 0
        assert capsys.readouterr().out.strip() == "A ≻ B"

    def test_mep(self, money_doc_path, capsys):
        assert main(["rank", "-i", money_doc_path, "-r", "mep"]) == 0
        assert capsys.readouterr().out.strip() == "B ≻ A"

    def test_single_raf(self, tmp_path, capsys):
        obj = dict(MONEY_DOC, rafs={"solo": {"$40": "1/2", "$10": "1/2"}})
        path = write_doc(tmp_path, obj, "solo.json")
        assert main(["rank", "-i", path, "-r", "wlog"]) == 0
        assert capsys.readouterr().out.strip() == "solo"

    def test_ties_grouped_in_input_order(self, tmp_path, capsys):
        obj = dict(
            MONEY_DOC,
            rafs={
                "X": {"$40": "1/5", "$10": "3/5"},
                "Y": {"$40": "1/5", "$10": "1/2"},
                "Z": {"$40": "0", "$10": "0"},
            },
        )
        path = write_doc(tmp_path, obj, "ties.json")
        # X and Y tie under mep (both have utility 8)
        assert main(["rank", "-i", path, "-r", "mep"]) == 0
        assert capsys.readouterr().out.strip() == "X ∼ Y ≻ Z"

    def test_json_document_round_trips(self, money_doc_path, capsys):
        assert main(["rank", "-i", money_doc_path, "-r", "lex", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ranking"] == [["A"], ["B"]]
        doc = InputDocument.from_json_dict(payload["document"])
        assert doc == InputDocument.from_json_dict(MONEY_DOC)

    def test_mep_without_payoffs_exits_2(self, tmp_path, capsys):
        obj = {k: v for k, v in MONEY_DOC.items() if k != "payoffs"}
        path = write_doc(tmp_path, obj, "nopay.json")
        assert main(["rank", "-i", path, "-r", "mep"]) == 2
        assert "payoffs" in capsys.readouterr().err

    def test_wlog_without_weights_exits_2(self, tmp_path, capsys):
        obj = {k: v for k, v in MONEY_DOC.items() if k != "weights"}
        path = write_doc(tmp_path, obj, "noweights.json")
        assert main(["rank", "-i", path, "-r", "wlog"]) == 2
        assert "weights" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["rank", "-i", "/nonexistent.json", "-r", "lex"]) == 2

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin.json"
        path.write_bytes(b"\xff\xfe{}")
        assert main(["check", "-i", str(path), "-r", "lex"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err
        assert "Traceback" not in err

    def test_deeply_nested_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        assert main(["rank", "-i", str(path), "-r", "lex"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err
        assert "Traceback" not in err


class TestCheck:
    def test_lex_full_suite_grid(self, capsys):
        code = main(
            ["check", "--relation", "lex", "--grid", "0,1/2,1", "--arity", "2",
             "--axioms", "all"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "all pass" in out

    def test_mep_sm_violation_grid(self, capsys):
        code = main(
            ["check", "--relation", "mep", "--grid", "1/5,1/2,3/5", "--arity", "2",
             "--payoffs", "40,10", "--axioms", "StrongMonotonicity"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "witness" in out

    def test_json_fields(self, capsys):
        code = main(
            ["check", "--relation", "mep", "--grid", "1/5,1/2,3/5", "--arity", "2",
             "--payoffs", "40,10", "--axioms", "SM", "--format", "json"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        result = payload["results"][0]
        assert result["axiom"] == "StrongMonotonicity"
        assert result["status"] == "fail"
        assert result["tuples_examined"] == 72
        assert result["violations"][0]["witness"]

    def test_document_sample(self, money_doc_path, capsys):
        code = main(
            ["check", "--relation", "lex", "--input", money_doc_path,
             "--axioms", "Transitive,WeakDominance"]
        )
        assert code == 0

    def test_unknown_relation_exits_2(self, capsys):
        assert main(["check", "--relation", "nosuch", "--grid", "0,1", "--arity", "2"]) == 2

    def test_unknown_axiom_exits_2(self, capsys):
        code = main(
            ["check", "--relation", "lex", "--grid", "0,1", "--arity", "2",
             "--axioms", "Nonsense"]
        )
        assert code == 2

    def test_input_and_grid_conflict(self, money_doc_path, capsys):
        assert (
            main(["check", "--relation", "lex", "--input", money_doc_path,
                  "--grid", "0,1", "--arity", "2"])
            == 2
        )

    def test_neither_source_exits_2(self, capsys):
        assert main(["check", "--relation", "lex"]) == 2

    def test_wlog_needs_weights_on_grid(self, capsys):
        assert (
            main(["check", "--relation", "wlog", "--grid", "0,1", "--arity", "2"]) == 2
        )
        assert capsys.readouterr().err == "error: --weights: required by the wlog relation\n"

    @pytest.mark.parametrize(
        "relation,left_out,error",
        [("mep", None, "--payoffs"), ("mep", "payoffs", "payoffs"), ("wlog", "weights", "weights")],
    )
    def test_missing_relation_input_names_flag_or_field(
        self, tmp_path, capsys, relation, left_out, error
    ):
        # a grid's pay-offs come from a flag, a document's from a field
        if left_out is None:
            source = ["--grid", "0,1", "--arity", "2"]
        else:
            obj = {k: v for k, v in MONEY_DOC.items() if k != left_out}
            source = ["--input", write_doc(tmp_path, obj)]
        assert main(["check", "--relation", relation, *source]) == 2
        assert capsys.readouterr().err == f"error: {error}: required by the {relation} relation\n"

    def test_json_keys_stable(self, capsys):
        code = main(
            ["check", "--relation", "mep", "--grid", "1/5,1/2,3/5", "--arity", "2",
             "--payoffs", "40,10", "--axioms", "SM", "--format", "json"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"command", "relation", "sample_size", "passed", "results"}
        result = payload["results"][0]
        assert set(result) == {
            "axiom", "status", "vacuous", "tuples_examined",
            "qualifying", "violation_count", "violations",
        }
        assert set(result["violations"][0]) == {
            "axiom", "witness", "index", "observed", "detail",
        }

    def test_huge_grid_refused_before_building_points(self, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("grid_points called on an oversized grid")

        monkeypatch.setattr(cli, "grid_points", refuse)
        argv = ["check", "--relation", "lex", "--grid", "0,1", "--arity", "30"]
        assert main(argv) == 2
        assert main(argv[:-1] + ["20000"]) == 2  # 2^20000 has too many digits to print
        err = capsys.readouterr().err
        assert err.count("error: --arity:") == 2 and "bound of 1024" in err

    def test_grid_point_bound_is_inclusive(self, capsys):
        argv = ["check", "--relation", "lex", "--grid", "0,1", "--axioms", "Reflexive"]
        assert cli.CHECK_MAX_POINTS == 2 ** 10
        assert main(argv + ["--arity", "10"]) == 0
        assert main(argv + ["--arity", "11"]) == 2
        assert "bound of 1024" in capsys.readouterr().err

    def test_oversized_document_refused_before_any_table(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(axioms, "_Sample", _reach)
        rafs = {f"p{i}": {"$40": "0", "$10": "0"} for i in range(1025)}
        argv = ["check", "-r", "lex", "-i", write_doc(tmp_path, dict(MONEY_DOC, rafs=rafs))]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: rafs: the document has 1025 profiles; the check bound of 1024 caps the sample\n"
        )
        del rafs["p0"]
        argv[-1] = write_doc(tmp_path, dict(MONEY_DOC, rafs=rafs))
        with pytest.raises(_Reached):  # 1,024 profiles are admitted
            main(argv)

    def test_wlog_with_grid_weights(self, capsys):
        argv = ["check", "--relation", "wlog", "--grid", "0,1/2,1", "--arity", "2"]
        assert main(argv + ["--weights", "1,1"]) == 1
        assert "violations found" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "extra,field",
        [
            (["--weights", "1,x"], "--weights"),
            (["--weights", "1"], "--weights"),
            (["--weights", "1,1", "--payoffs", "40,10,5"], "--payoffs"),
            (["--weights=0,1"], "--weights"),
            (["--weights", "1,1", "--payoffs=-1,2"], "--payoffs"),
        ],
    )
    def test_bad_grid_lists_exit_2(self, extra, field, capsys):
        argv = ["check", "--relation", "wlog", "--grid", "0,1", "--arity", "2", *extra]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}:")

    def test_huge_weight_refused_before_any_power(self, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("a weighted product was computed")

        monkeypatch.setattr(relations, "_weighted_product", refuse)
        argv = ["check", "--relation", "wlog", "--grid", "1/3,1", "--arity", "2",
                "--weights", f"{10 ** 22},1", "--axioms", "Reflexive"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: --weights:")

    def test_document_weight_above_bound_exits_2(self, tmp_path, capsys):
        path = write_doc(tmp_path, dict(MONEY_DOC, weights={"$40": 10 ** 22, "$10": 1}))
        assert main(["check", "-i", path, "-r", "wlog"]) == 2
        assert capsys.readouterr().err.startswith("error: weights:")

    @pytest.mark.parametrize("flag", [["--samples", "5"], ["--seed", "1"]])
    def test_removed_sampling_flags_exit_2(self, flag, capsys):
        argv = ["check", "--relation", "lex", "--grid", "0,1", "--arity", "2"]
        assert main(argv + flag) == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestVerify:
    def test_unit_square_json(self, capsys):
        code = main(
            ["verify", "--levels", "0,1", "--arity", "2",
             "--axioms", "SM,WeakIWA", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["enumerated"] == 75
        assert payload["survivor_count"] == 1
        assert payload["matches_lex"] is True
        assert payload["survivors"][0]["agrees_with_lex"] is True
        assert payload["pass_counts"] == {"StrongMonotonicity": 1, "WeakIWA": 1}
        assert payload["pruned_by"] == {"dominators": 70, "WeakIWA": 4}
        code = main(
            ["verify", "--levels", "0,1", "--arity", "2",
             "--axioms", "SM,WeakIWA", "--no-prune", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass_counts"]["StrongMonotonicity"] == 3
        assert payload["pruned_by"] == {}

    def test_text_output(self, capsys):
        assert main(["verify", "--levels", "0,1", "--arity", "2"]) == 0
        out = capsys.readouterr().out
        assert "enumerated 75 weak orders" in out
        assert "74 pruned (70 by dominators, 4 by WeakIWA)" in out
        assert "survivor set equals lex: yes" in out

    def test_sm_alone_exits_1(self, capsys):
        assert main(["verify", "--levels", "0,1", "--arity", "2", "--axioms", "SM"]) == 1
        out = capsys.readouterr().out
        assert "survivors: 3" in out

    def test_grid_past_nine_points_runs(self, capsys):
        assert main(["verify", "--levels", "0,1/4,1/2,3/4,1", "--arity", "2"]) == 0
        assert "survivor set equals lex: yes" in capsys.readouterr().out

    def test_huge_grid_refused_before_building_points(self, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("grid_points called on an oversized grid")

        monkeypatch.setattr(characterization, "grid_points", refuse)
        assert main(["verify", "--levels", "0,1", "--arity", "30"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --arity: ") and "bound of 1024" in err

    @pytest.mark.parametrize(
        "argv,size",
        [
            (["verify", "--levels", "0,1", "--arity", "20000"], "2^20000"),
            (["verify", "--levels", "1", "--arity", "1000000"], "1"),
            (["check", "--relation", "lex", "--grid", "1", "--arity", "1000000"], "1"),
            (["verify", "--levels", "0,1/2,1", "--arity", "10000000"], "3^10000000"),
        ],
    )
    def test_huge_arity_refused_before_building_points(
        self, monkeypatch, capsys, argv, size
    ):
        def refuse(*args):
            raise AssertionError("grid_points called on an oversized grid")

        monkeypatch.setattr(cli, "grid_points", refuse)
        monkeypatch.setattr(characterization, "grid_points", refuse)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"has {size} points at arity {argv[-1]};" in err

    @pytest.mark.parametrize(
        "levels,arity,size",
        [("0,1", "30", "1073741824"), ("0,1", "11", "2048"), ("0,1/2,1", "7", "2187")],
    )
    def test_check_bound_names_arity(self, monkeypatch, capsys, levels, arity, size):
        # 729 points at arity 6 took 5.6 s and 267 MB, most of it the n^2
        # tables, and they grow about ninefold per arity step; verify and
        # check --grid refuse a larger grid at one raise site
        monkeypatch.setattr(characterization, "grid_points", _reach)
        monkeypatch.setattr(characterization, "_Sample", _reach)
        message = f"the grid has {size} points at arity {arity}; the check bound of 1024 caps both"
        assert main(["verify", "--levels", levels, "--arity", arity]) == 2
        assert capsys.readouterr().err == f"error: --arity: {message}\n"
        assert main(["check", "-r", "lex", "--grid", levels, "--arity", arity]) == 2
        assert capsys.readouterr().err == f"error: --arity: {message}\n"

    @pytest.mark.parametrize(
        "levels,arity,axioms,budget",
        [("0,1", "4", "SM", 10_000), ("0,1/2,1", "2", "SM", 1_000),
         ("0,1/2,1", "3", "WeakIWA", None), ("0,1", "3", "SM,WeakIWA", 27)],
    )
    def test_budget_refusal_names_axioms(self, monkeypatch, capsys, levels, arity, axioms, budget):
        # the pruned walk's work is not known in advance; None keeps the
        # real budget, which WeakIWA alone on {0,1/2,1}^3 passes at the root
        if budget is not None:
            monkeypatch.setattr(characterization, "WALK_BUDGET", budget)
        argv = ["verify", "--levels", levels, "--arity", arity, "--axioms", axioms]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        points = len(levels.split(",")) ** int(arity)
        assert out == "" and err == (
            f"error: --axioms: the pruned walk of {points} points passed its budget of "
            f"{characterization.WALK_BUDGET} steps: these axioms prune too little\n"
        )

    def test_budget_refused_at_the_root_before_any_class(self):
        # NonCompensation alone leaves all 1,024 points of {0,1}^10 eligible
        # at the root, whose 2^1024 steps are charged before its 58,025
        # classes are built: the run peaked at 580 MiB when they were, and
        # at 16-18 MiB since (one fresh process each, CPython 3.11). Linux
        # carries a process's peak RSS across exec, so a small interpreter
        # runs the verify and reads its children's peak, which the size of
        # the test process does not reach.
        code = (
            "import resource, subprocess, sys\n"
            "argv = [sys.executable, '-m', 'rafpref', 'verify', '--levels', '0,1',"
            " '--arity', '10', '--axioms', 'NonCompensation']\n"
            "done = subprocess.run(argv, capture_output=True, text=True)\n"
            "peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024\n"
            "print(done.returncode, peak, done.stderr, sep='\\n', end='')\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env, timeout=120)
        status, peak, err = done.stdout.split("\n", 2)
        assert int(status) == 2
        assert err == (
            "error: --axioms: the pruned walk of 1024 points passed its budget of "
            f"{characterization.WALK_BUDGET} steps: these axioms prune too little\n"
        )
        assert float(peak) < 64  # MiB

    def test_no_prune_refused_above_nine_points(self, monkeypatch, capsys):
        for name in ("grid_points", "_Sample", "_runs"):
            monkeypatch.setattr(characterization, name, _reach)
        argv = ["verify", "--levels", "0,1", "--arity", "4", "--no-prune"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: --no-prune: grid has 16 points; the unpruned walk visits all fubini(16) "
            "weak orders and is refused above 9 points\n"
        )
        # pruned, the same grid is refused only once its walk passes the budget
        monkeypatch.undo()
        monkeypatch.setattr(characterization, "WALK_BUDGET", 1_000)
        assert main(argv[:-1] + ["--axioms", "SM"]) == 2
        assert capsys.readouterr().err.startswith("error: --axioms: the pruned walk of 16 points")
        assert main(argv[:-1]) == 0  # SM+WeakIWA walks 16 points in 82 steps

    def test_one_level_refused_naming_levels(self, monkeypatch, capsys):
        # one point has one weak order, which would pass as "equals lex"
        monkeypatch.setattr(characterization, "grid_points", _reach)
        assert main(["verify", "--levels", "1", "--arity", "2"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: --levels: one level gives one point")
        # check keeps the one point and flags what it cannot test
        argv = ["check", "-r", "lex", "--grid", "1", "--arity", "2", "--format", "json"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sample_size"] == 1
        assert {r["axiom"] for r in payload["results"] if r["vacuous"]} >= {
            "StrongMonotonicity", "IWA", "WeakIWA"}

    def test_internal_error_names_no_flag(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise RafprefError("internal error: survivor domain is not the audited point set")

        monkeypatch.setattr(cli, "verify_characterization", broken)
        assert main(["verify", "--levels", "0,1", "--arity", "2"]) == 2
        assert capsys.readouterr().err.startswith("error: internal error: ")

    def test_27_points_run_without_a_flag(self, capsys):
        # the paper's claim on {0,1/2,1}^3, which a 9-point cap once refused
        assert main(["verify", "--levels", "0,1/2,1", "--arity", "3"]) == 0
        out = capsys.readouterr().out
        assert "survivors: 1\n" in out and "survivor set equals lex: yes" in out

    def test_removed_max_points_flag_exit_2(self, capsys):
        argv = ["verify", "--levels", "0,1", "--arity", "2", "--max-points", "9"]
        assert main(argv) == 2
        assert "unrecognized arguments: --max-points 9" in capsys.readouterr().err

    def test_removed_workers_flag_exit_2(self, capsys):
        argv = ["verify", "--levels", "0,1", "--arity", "2", "--workers", "2"]
        assert main(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_json_keys_stable(self, capsys):
        assert main(["verify", "--levels", "0,1", "--arity", "2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "command", "grid", "axioms", "pruned", "enumerated", "checked",
            "pruned_away", "pruned_by", "pass_counts", "survivor_count", "survivors",
            "survivors_truncated", "matches_lex", "elapsed_ms",
        }
        assert set(payload["grid"]) == {"levels", "arity"}
        assert set(payload["survivors"][0]) == {"ranks", "chain", "agrees_with_lex"}

    def test_order_axiom_rejected_for_verify(self, capsys):
        code = main(["verify", "--levels", "0,1", "--arity", "2",
                     "--axioms", "Transitive"])
        assert code == 2


class TestEmit:
    @pytest.fixture
    def no_text(self, monkeypatch):
        def refuse(payload):
            raise AssertionError("a text report was built for --format json")

        monkeypatch.setattr(cli, "_render_check_text", refuse)
        monkeypatch.setattr(cli, "_render_verify_text", refuse)

    def test_json_builds_no_text(self, no_text, capsys):
        check = ["check", "--relation", "mep", "--grid", "1/5,1/2,3/5", "--arity", "2",
                 "--payoffs", "40,10", "--all-violations", "--format", "json"]
        assert main(check) == 1
        assert json.loads(capsys.readouterr().out)["passed"] is False
        verify = ["verify", "--levels", "0,1", "--arity", "2", "--format", "json"]
        assert main(verify) == 0
        assert json.loads(capsys.readouterr().out)["matches_lex"] is True

    def test_json_is_written_one_results_entry_at_a_time(self, monkeypatch):
        # each results entry's text is rendered and then written, before the
        # next one is rendered, and the pieces make the canonical text
        events = []
        real = cli._json_write

        def rendering(obj, depth, *caches):
            text = real(obj, depth, *caches)
            if depth == cli._JSON_PIECE_DEPTH:
                events.append(("render", text))
            return text

        class Out:
            def write(self, text):
                events.append(("write", text))

            def writelines(self, pieces):
                for piece in pieces:
                    self.write(piece)

            def flush(self):
                pass

        monkeypatch.setattr(cli, "_json_write", rendering)
        monkeypatch.setattr(sys, "stdout", Out())
        check = ["check", "--relation", "wlog", "--grid", "0,1/2,1", "--arity", "2",
                 "--weights", "1,1", "--all-violations", "--format", "json"]
        assert main(check) == 1
        text = "".join(t for kind, t in events if kind == "write")
        payload = json.loads(text)
        assert text == json.dumps(payload, indent=2) + "\n"
        rendered = [k for k, (kind, _) in enumerate(events) if kind == "render"]
        assert len(rendered) == len(payload["results"]) == len(ALL_AXIOMS)
        for k in rendered:
            assert events[k + 1] == ("write", events[k][1])
        assert max(len(t) for _, t in events) < len(text) / 2

    @pytest.mark.parametrize(
        "argv,render",
        [
            (["check", "--relation", "mep", "--grid", "1/5,1/2,3/5", "--arity", "2",
              "--payoffs", "40,10", "--axioms", "SM,WeakIWA"], "_render_check_text"),
            (["verify", "--levels", "0,1", "--arity", "2", "--axioms", "SM"],
             "_render_verify_text"),
        ],
    )
    def test_text_is_rendered_from_the_json_payload(self, argv, render, capsys):
        code = main(argv + ["--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert main(argv) == code
        text = capsys.readouterr().out.splitlines()
        expected = getattr(cli, render)(payload).splitlines()
        # two verify runs differ only in their elapsed line
        if argv[0] == "verify":
            assert text[-1].startswith("elapsed: ")
            text, expected = text[:-1], expected[:-1]
        assert text == expected


_JSON_STRING = st.text(
    st.characters(exclude_categories=())  # every code point, lone surrogates too
    | st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028é€😀')
)
_JSON_SCALAR = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(min_value=-(2**200), max_value=-1),
    st.floats(allow_nan=False, allow_infinity=False),
    _JSON_STRING,
)
_JSON_VALUE = st.recursive(
    _JSON_SCALAR,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_JSON_STRING, inner, max_size=4),
    max_leaves=30,
)


class TestJsonText:
    @settings(max_examples=300, deadline=None)
    @given(_JSON_VALUE)
    def test_matches_stdlib_indent_2(self, value):
        assert cli._json_text(value) == json.dumps(value, indent=2)

    def test_shared_containers(self):
        # a check report shares each witness point between its witnesses;
        # the writer reuses short texts by identity and depth, never by value
        point = {"values": ["1/2", "0"]}
        long = ["x" * 300]
        value = [point, point, {"p": point, "q": [point]}, [long, long], long, [1], [1]]
        assert cli._json_text(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize(
        "value",
        [(1, 2), {"a": (1,)}, {1: "x"}, {None: 1}, float("nan"), [float("inf")],
         {"a": float("-inf")}, b"x", {1, 2}, type("Text", (str,), {})("x")],
    )
    def test_other_values_raise_type_error(self, value):
        with pytest.raises(TypeError):
            cli._json_text(value)

    # each dict is written from one template of its keys at its depth

    def test_keys_holding_percent_signs(self):
        value = {"%": "%", "%s": ["%s", {"%%": "%%s"}], "%%": {"%d": None, "a%(b)s": 1}}
        assert cli._json_text(value) == json.dumps(value, indent=2)

    def test_one_key_set_in_two_orders(self):
        a, b = "a", "b"
        value = [{a: 1, b: [2]}, {b: 3, a: {a: 4, b: 5}}, {b: {b: 6, a: 7}, a: 8}]
        assert cli._json_text(value) == json.dumps(value, indent=2)

    def test_one_shape_at_several_depths(self):
        value = {"x": 1, "y": [{"x": 2, "y": {"x": 3, "y": [[{"x": 4, "y": None}]]}}]}
        assert cli._json_text(value) == json.dumps(value, indent=2)

    def test_one_dict_shared_at_two_depths(self):
        shared = {"k": [1, "%s"], "long": "x" * 300}
        short = {"k": "v"}
        value = [shared, [shared, short], {"d": shared, "e": [short]}, short]
        assert cli._json_text(value) == json.dumps(value, indent=2)

    def test_empty_containers_beside_full_ones(self):
        value = [{}, {"a": {}}, [], [[]], {"a": []}, {"a": [1]}, {"a": {"b": {}}}, [{}, {"c": 2}]]
        assert cli._json_text(value) == json.dumps(value, indent=2)

    def test_str_subclass_refused_after_a_plain_dict_of_its_shape(self):
        text = type("Text", (str,), {})
        key, plain = "x", {"x": "a"}
        assert cli._json_text(plain) == json.dumps(plain, indent=2)
        for value in ([plain, {text(key): "a"}], [plain, {key: text("a")}],
                      {text(key): "a"}, {key: text("a")}):
            with pytest.raises(TypeError):
                cli._json_text(value)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_check_reports_match_stdlib(self, data):
        # every verdict drawn, so that each axiom can fail, with every violation recorded
        levels = data.draw(st.sets(st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1, 2),
                                                    Fraction(1)]), min_size=1, max_size=3))
        sample = grid_points(GridSpec.of(sorted(levels), 2), default_context(2))
        outcomes = st.sampled_from(list(relations.ComparisonOutcome))
        verdicts = {(a, b): data.draw(outcomes) for a in sample for b in sample}

        class Drawn(relations.PreferenceRelation):
            def compare(self, a, b):
                return verdicts[a, b]

        report = run_checks(Drawn(), sample, config=CheckConfig(all_violations=True))
        payload = cli._check_json(report, data.draw(st.sampled_from(cli.RELATION_NAMES) | _JSON_STRING))
        assert cli._json_text(payload) == json.dumps(payload, indent=2)
        # the payload shares its axiom names and observed lists; each violation keeps its own
        listed = [(r["axiom"], v["axiom"], v["observed"], v["index"], v["detail"])
                  for r in payload["results"] for v in r["violations"]]
        assert listed == [(str(r.axiom), str(v.axiom), [str(o) for o in v.observed], v.index, v.detail)
                          for r in report.results for v in r.violations]


class TestCanonicalJson:
    """Every --format json report is exactly what json.dumps(indent=2) prints."""

    def assert_canonical(self, text):
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
        return json.loads(text)

    def test_check_all_violations(self, capsys):
        argv = ["check", "--relation", "wlog", "--grid", "0,1/2,1", "--arity", "2",
                "--weights", "1,1", "--axioms", "all", "--all-violations", "--format", "json"]
        assert main(argv) == 1
        payload = self.assert_canonical(capsys.readouterr().out)
        # witness points are formatted once per report: each witness still
        # carries the values of its own point
        _, sample, weights = cli._grid_sample(cli.build_parser().parse_args(argv))
        rel = relations.WeightedLogProductRelation(weights)
        report = run_checks(rel, sample, config=CheckConfig(all_violations=True))
        listed = [
            [w["values"] for w in v["witness"]]
            for r in payload["results"] for v in r["violations"]
        ]
        expected = [
            [[format_rational(x) for x in raf.values] for raf in v.witness]
            for r in report.results for v in r.violations
        ]
        assert len(listed) > 1000
        assert listed == expected

    def test_verify(self, capsys):
        assert main(["verify", "--levels", "0,1/2,1", "--arity", "2", "--format", "json"]) == 0
        assert type(self.assert_canonical(capsys.readouterr().out)["elapsed_ms"]) is float

    def test_rank_non_ascii_labels(self, tmp_path, capsys):
        labels = ["€40", "café \"10\"", "日本\\5"]
        doc = {
            "alternatives": labels,
            "priority": labels,
            "payoffs": dict(zip(labels, ["40", "10", "5"])),
            "rafs": {"Ä": dict(zip(labels, ["1/5", "4/5", "0"])),
                     "😀": dict(zip(labels, ["1/10", "9/10", "1"]))},
        }
        path = tmp_path / "labels.json"
        path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        assert main(["rank", "--input", str(path), "--relation", "mep", "--format", "json"]) == 0
        text = capsys.readouterr().out
        assert text.isascii()
        assert self.assert_canonical(text)["document"]["alternatives"] == labels


class ClosedPipe(io.StringIO):
    """A standard output whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_pipe_exits_quietly(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    argv = ["verify", "--levels", "0,1/2,1", "--arity", "2", "--format", "json"]
    assert main(argv) == cli.EXIT_BROKEN_PIPE == 141
    assert capsys.readouterr().err == ""


class FullDevice(io.StringIO):
    """A standard output whose device has no space left."""

    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")


def test_failed_write_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", FullDevice())
    # exit 1 would claim a violation that was never found
    assert main(["check", "--grid", "0,1/2,1", "--arity", "2", "-r", "lex"]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == "error: standard output: No space left on device\n"


class FailsPartway(io.StringIO):
    """A standard output that takes the first few writes, then raises error."""

    def __init__(self, error, accepted):
        super().__init__()
        self.error, self.accepted = error, accepted

    def write(self, text):
        if self.accepted == 0:
            raise self.error
        self.accepted -= 1
        return super().write(text)


@pytest.mark.parametrize(
    "error,code,err",
    [
        (BrokenPipeError(errno.EPIPE, "Broken pipe"), cli.EXIT_BROKEN_PIPE, ""),
        (OSError(errno.ENOSPC, "No space left on device"), cli.EXIT_USAGE,
         "error: standard output: No space left on device\n"),
    ],
)
def test_write_failing_partway_through_a_stream(monkeypatch, capsys, error, code, err):
    argv = ["check", "--relation", "wlog", "--grid", "0,1/2,1", "--arity", "2",
            "--weights", "1,1", "--all-violations", "--format", "json"]
    assert main(argv) == 1
    whole = capsys.readouterr().out
    out = FailsPartway(error, accepted=16)
    monkeypatch.setattr(sys, "stdout", out)
    assert main(argv) == code
    assert capsys.readouterr().err == err  # one line at most, and no traceback
    # the stream failed after its first results entry, well before its end
    written = out.getvalue()
    assert whole.startswith(written) and '"axiom": ' in written
    assert len(written) < len(whole) / 2


def test_package_runs_as_a_module(capsys):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "rafpref", "demo"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert main(["demo"]) == 0
    assert done.stdout == capsys.readouterr().out


class TestMainInSequence:
    """main builds its parser once per process, and no call leaves
    anything behind for the next."""

    CHECK = ["check", "--relation", "wlog", "--grid", "0,1/2,1", "--arity", "2",
             "--weights", "1,1", "--format", "json"]

    def test_parser_built_once(self, monkeypatch, capsys):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        try:
            for argv in (["demo"], self.CHECK, ["demo", "--bogus"], ["demo"]):
                main(argv)
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1

    def test_all_violations_do_not_carry_over(self, capsys):
        assert main(self.CHECK + ["--all-violations"]) == 1
        every = json.loads(capsys.readouterr().out)["results"]
        assert max(len(r["violations"]) for r in every) > 1
        assert main(self.CHECK) == 1
        first = json.loads(capsys.readouterr().out)["results"]
        assert [r["violations"] for r in first] == [r["violations"][:1] for r in every]

    def test_usage_error_then_a_good_call(self, capsys):
        assert main(self.CHECK + ["--all-violations", "--axioms", "SM", "--bogus"]) == 2
        assert "--bogus" in capsys.readouterr().err
        assert main(self.CHECK) == 1
        _, sample, weights = cli._grid_sample(cli.build_parser().parse_args(self.CHECK))
        report = run_checks(relations.WeightedLogProductRelation(weights), sample)
        assert capsys.readouterr().out == cli._json_text(cli._check_json(report, "wlog")) + "\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("argv", [
    ["demo"],
    ["check", "--grid", "0,1/2,1", "--arity", "2", "-r", "lex", "--format", "json"],
])
def test_full_device_exits_2_without_traceback(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "rafpref.cli", *argv],
            stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    assert done.returncode == cli.EXIT_USAGE
    assert done.stderr == "error: standard output: No space left on device\n"


class TestInputBoundary:
    """Every bad input value exits 2 with one line naming its field or flag."""

    ONES = "1" * 5000  # past int()'s 4,300-digit conversion limit
    RANK_WLOG = ["rank", "-i", "DOC", "-r", "wlog"]
    GRID_WLOG = ["check", "-r", "wlog", "--grid", "0,1", "--arity", "2"]

    def test_document_holds_core_objects(self):
        doc = InputDocument.from_json_dict(MONEY_DOC)
        ctx = PriorityContext.of(("$40", "$10"), {"$40": 40, "$10": 10})
        assert doc.context == ctx
        assert doc.weights == WeightVector(ctx, (1, 1))
        assert [name for name, _ in doc.rafs] == ["A", "B"]
        assert all(isinstance(raf, Raf) and raf.context == ctx for _, raf in doc.rafs)

    def test_document_payoff_sign_named(self):
        obj = dict(MONEY_DOC, payoffs={"$40": "-1", "$10": "10"})
        with pytest.raises(DocumentError, match=r"^payoffs: .*'\$40'.*nonnegative"):
            InputDocument.from_json_dict(obj)

    @pytest.mark.parametrize(
        "argv,weights,message",
        [
            (RANK_WLOG, {"$40": 0, "$10": 1}, "weights: weight for '$40' must be a positive integer"),
            (RANK_WLOG, {"$40": 1, "$10": 101}, "weights: weight for '$10' above 100 is refused"),
            (GRID_WLOG + ["--weights", "0,1"], None,
             "--weights: weight for 'x1' must be a positive integer"),
            (GRID_WLOG + ["--weights", "1,101"], None,
             "--weights: weight for 'x2' above 100 is refused"),
            (RANK_WLOG, {"$40": "1", "$10": 1}, "weights.$40: must be a positive integer"),
        ],
    )
    def test_weight_range_names_alternative(self, argv, weights, message, tmp_path, capsys):
        path = write_doc(tmp_path, dict(MONEY_DOC, weights=weights or MONEY_DOC["weights"]))
        argv = [path if a == "DOC" else a for a in argv]
        assert self.error_line(argv, capsys) == f"error: {message}\n"

    def error_line(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        return err

    @pytest.mark.parametrize(
        "argv,field",
        [
            (["verify", "--levels", "0,1/" + ONES, "--arity", "2"], "--levels"),
            (["check", "-r", "lex", "--grid", "0,0." + ONES, "--arity", "2"], "--grid"),
            (["verify", "--levels", "0,2", "--arity", "2"], "--levels"),
            (["verify", "--levels", "0,1", "--arity", "-3"], "--arity"),
            (["check", "-r", "lex", "--grid", "0,1", "--arity", "1"], "--arity"),
            (["check", "-r", "mep", "--grid", "0,1", "--arity", "2", "--payoffs=1/" + ONES + ",1"],
             "--payoffs"),
            # a rational in non-ASCII digits, here Arabic-Indic one and four
            (["verify", "--levels", "0,\u0661", "--arity", "2"], "--levels"),
            (["check", "-r", "lex", "--grid", "0,\u0661", "--arity", "2"], "--grid"),
            (["check", "-r", "mep", "--grid", "0,1", "--arity", "2", "--payoffs", "\u0664,1"],
             "--payoffs"),
        ],
    )
    def test_flag_value_named(self, argv, field, capsys):
        assert self.error_line(argv, capsys).startswith(f"error: {field}: ")

    RANK = ["rank", "-i", "DOC", "-r", "lex"]
    GRID = ["check", "-r", "lex", "--grid", "0,1", "--arity", "2"]

    @pytest.mark.parametrize(
        "argv,document,field",
        [
            (RANK, [], "document"),
            (RANK, dict(MONEY_DOC, alternatives="$40,$10"), "alternatives"),
            (RANK, dict(MONEY_DOC, priority=["$40", 10]), "priority"),
            (RANK, dict(MONEY_DOC, payoffs=["40", "10"]), "payoffs"),
            (RANK, dict(MONEY_DOC, payoffs={"$40": "40", "$10": "10", "$5": "5"}), "payoffs.$5"),
            # an unknown label is refused before a missing one, in every field
            (RANK, dict(MONEY_DOC, payoffs={"$40": "40", "$5": "5"}), "payoffs.$5"),
            (RANK, dict(MONEY_DOC, weights={"$40": 1, "$5": 1}), "weights.$5"),
            (RANK, dict(MONEY_DOC, rafs={"A": {"$40": "1/5", "$5": "1"}}), "rafs.A.$5"),
            (RANK, dict(MONEY_DOC, weights=[1, 1]), "weights"),
            (RANK, dict(MONEY_DOC, weights={"$40": 1}), "weights.$10"),
            (RANK, dict(MONEY_DOC, rafs={}), "rafs"),
            (RANK, dict(MONEY_DOC, rafs=[]), "rafs"),
            (RANK, dict(MONEY_DOC, rafs={"A": ["1/5", "4/5"]}), "rafs.A"),
            (RANK, dict(MONEY_DOC, rafs={"A": {"$40": 0.2, "$10": "4/5"}}), "rafs.A.$40"),
            (["check", "-r", "lex", "-i", "DOC", "--arity", "2"], MONEY_DOC,
             "--arity/--payoffs/--weights"),
            (["check", "-r", "lex", "-i", "DOC", "--weights", "1,1"], MONEY_DOC,
             "--arity/--payoffs/--weights"),
            (["check", "-r", "lex", "--grid", "0,1"], MONEY_DOC, "--arity"),
            (GRID + ["--axioms", ","], MONEY_DOC, "--axioms"),
            (["verify", "--levels", "0,1", "--arity", "2", "--axioms", ","], MONEY_DOC, "--axioms"),
            (GRID + ["--weights", "1_0,1"], MONEY_DOC, "--weights"),
            (GRID + ["--weights", "\u0661,1"], MONEY_DOC, "--weights"),
            (GRID + ["--weights", "+1,1"], MONEY_DOC, "--weights"),
            # a document rational in non-ASCII digits
            (RANK, dict(MONEY_DOC, rafs={"A": {"$40": "\u0661/5", "$10": "4/5"}}), "rafs.A.$40"),
        ],
    )
    def test_refusal_named(self, argv, document, field, tmp_path, capsys):
        path = write_doc(tmp_path, document)
        argv = [path if a == "DOC" else a for a in argv]
        assert self.error_line(argv, capsys).startswith(f"error: {field}: ")

    @pytest.mark.parametrize(
        "argv", [GRID, ["verify", "--levels", "0,1", "--arity", "2"]]
    )
    def test_unknown_axiom_named(self, argv, capsys):
        err = self.error_line(argv + ["--axioms", "Foo"], capsys)
        assert err == "error: --axioms: unknown axiom 'Foo'\n"
        long_name = self.error_line(argv + ["--axioms", "x" * 100_000], capsys)
        assert long_name.startswith("error: --axioms: unknown axiom 'xxx") and len(long_name) < 100

    @pytest.mark.parametrize(
        "document,field",
        [
            (dict(MONEY_DOC, alternatives=["$40", "\ud800$10"], priority=["$40", "\ud800$10"]),
             "alternatives"),
            (dict(MONEY_DOC, rafs={"A": MONEY_DOC["rafs"]["A"], "\ud800x": MONEY_DOC["rafs"]["B"]}),
             "rafs"),
        ],
    )
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_lone_surrogate_named(self, document, field, fmt, tmp_path, capsys):
        # a UTF-8 standard output cannot print a lone surrogate, so text and
        # JSON refuse the document alike
        path = write_doc(tmp_path, document)
        for argv in (["rank", "-i", path, "-r", "lex"], ["check", "-i", path, "-r", "lex"]):
            err = self.error_line(argv + ["--format", fmt], capsys)
            assert err.startswith(f"error: {field}: ") and "'\\ud800" in err

    def test_name_with_line_break_stays_one_line(self, tmp_path, capsys):
        obj = dict(MONEY_DOC, rafs={"A\nB\u2028": {"$40": "x", "$10": "0"}})
        err = self.error_line(["rank", "-i", write_doc(tmp_path, obj), "-r", "lex"], capsys)
        assert err.startswith("error: rafs.A\\nB\\u2028.$40: ")

    def test_document_rational_past_digit_limit_named(self, tmp_path, capsys):
        obj = dict(MONEY_DOC, rafs={"A": {"$40": "1/" + self.ONES, "$10": "0"}})
        err = self.error_line(["rank", "-i", write_doc(tmp_path, obj), "-r", "lex"], capsys)
        assert err.startswith("error: rafs.A.$40: ")

    def test_document_integer_past_digit_limit_exits_2(self, tmp_path, capsys):
        text = json.dumps(dict(MONEY_DOC, weights={"$40": 7, "$10": 1}))
        path = tmp_path / "big.json"
        path.write_text(text.replace('"$40": 7', '"$40": ' + self.ONES))
        err = self.error_line(["rank", "-i", str(path), "-r", "lex"], capsys)
        assert err.startswith(f"error: {path}: invalid JSON")


_DIGITS = st.one_of(st.text("0123456789", max_size=3), st.just("1" * 5000))
_RATIONAL_LIKE = st.builds(
    "{}{}{}{}".format,
    st.sampled_from(["", "+", "-", " "]),
    _DIGITS,
    st.sampled_from(["", "/", ".", "/-", "e", "x"]),
    _DIGITS,
)
# at most three parts: no grid at arity 2 has more than nine points
_CSV = st.lists(_RATIONAL_LIKE, max_size=3).map(",".join)
_WEIGHT = st.one_of(st.from_regex(r"-?[0-9]{1,3}", fullmatch=True), st.just("1" * 5000))


def _run(argv):
    # standard output encodes as a UTF-8 terminal's does, refusing what it cannot
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _document_text(payoffs, values, weight, name):
    doc = dict(
        MONEY_DOC,
        payoffs=dict(zip(("$40", "$10"), payoffs)),
        weights={"$40": 123456789, "$10": 1},
        rafs={name: dict(zip(("$40", "$10"), values))},
    )
    return json.dumps(doc).replace("123456789", weight)


@settings(max_examples=150, deadline=None)
@given(
    levels=_CSV,
    grid=_CSV,
    payoffs=_CSV,
    weights=_CSV,
    doc_payoffs=st.tuples(_RATIONAL_LIKE, _RATIONAL_LIKE),
    doc_values=st.tuples(_RATIONAL_LIKE, _RATIONAL_LIKE),
    doc_weight=_WEIGHT,
    # a profile name of any code points; the second branch makes lone
    # surrogates, which no UTF-8 output can print, common
    name=st.text(st.characters(exclude_categories=())
                 | st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF), max_size=4),
)
def test_fuzzed_inputs_exit_cleanly(levels, grid, payoffs, weights, doc_payoffs,
                                    doc_values, doc_weight, name):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_document_text(doc_payoffs, doc_values, doc_weight, name))
        # the name in a valid document, so that rank prints it
        rafs = {**MONEY_DOC["rafs"], name: {"$40": "1", "$10": "0"}}
        valid = write_doc(Path(tmp), dict(MONEY_DOC, rafs=rafs))
        grid_flags = [f"--grid={grid}", "--arity", "2", "--axioms", "SM,WeakIWA"]
        runs = [
            ["verify", f"--levels={levels}", "--arity", "2"],
            ["check", "-r", "mep", *grid_flags, f"--payoffs={payoffs}"],
            ["check", "-r", "wlog", *grid_flags, f"--weights={weights}"],
            ["rank", "-i", path, "-r", "mep"],
            ["rank", "-i", path, "-r", "wlog"],
            ["rank", "-i", valid, "-r", "lex"],
            ["rank", "-i", valid, "-r", "lex", "--format", "json"],
        ]
        named = re.compile(
            r"error: (--levels|--grid|--arity|--payoffs|--weights|input|payoffs|weights|rafs"
            rf"|{re.escape(path)})[.:]"
        )
        for argv in runs:
            code, err = _run(argv)  # no exception may escape main
            assert code in (0, 1, 2), argv
            if code == 2:
                assert err.count("\n") == 1 and named.match(err), (argv, err[:200])


_AXIOM_PART = st.sampled_from(
    ["", " ", "sm", "SM", "all", "ALL", "Foo", "WeakIWA", "iwa", "Transitive", "NonCompensation"]
)
_WEIGHT_PART = st.sampled_from(
    ["1_0", "\u0661", "+1", "0", "101", " 1", "2 ", "", "-1", "1.0", "1" * 5000]
)


# the unpruned walk has 4 points, and the pruned one at most 50 steps, so
# no draw starts a large walk; SM+WeakIWA, 28 steps on {0,1}^3, passes it,
# and any set that prunes too little, as SM or NonCompensation alone, does not
@settings(max_examples=100, deadline=None)
@given(
    axioms=st.lists(_AXIOM_PART, max_size=3).map(",".join),
    weights=st.lists(_WEIGHT_PART, max_size=3).map(",".join),
)
def test_fuzzed_flags_exit_cleanly(axioms, weights):
    runs = [
        ["verify", "--levels", "0,1", "--arity", "3", f"--axioms={axioms}"],
        ["verify", "--levels", "0,1", "--arity", "2", f"--axioms={axioms}", "--no-prune"],
        ["check", "-r", "wlog", "--grid", "0,1", "--arity", "2", f"--axioms={axioms}",
         f"--weights={weights}"],
    ]
    named = re.compile(r"error: (--axioms|--weights|weights): ")
    with mock.patch.object(characterization, "WALK_BUDGET", 50):
        for argv in runs:
            code, err = _run(argv)  # no exception may escape main
            assert code in (0, 1, 2), argv
            assert "Traceback" not in err
            if code == 2:
                assert err.count("\n") == 1 and named.match(err), (argv, err[:200])
