import contextlib
import io
import json
import os
import re
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from rafpref import (
    CheckConfig, PriorityContext, Raf, RafprefError, WeightVector, characterization, cli,
    format_rational, relations, run_checks,
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

    def test_grid_too_large_exits_2(self, capsys):
        code = main(["verify", "--levels", "0,1/4,1/2,3/4,1", "--arity", "2"])
        assert code == 2
        assert "bound of 9" in capsys.readouterr().err

    def test_huge_grid_refused_before_building_points(self, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("grid_points called on an oversized grid")

        monkeypatch.setattr(characterization, "grid_points", refuse)
        assert main(["verify", "--levels", "0,1", "--arity", "30"]) == 2
        assert "bound of 9" in capsys.readouterr().err

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
        "extra,message",
        [
            (["--arity", "30"], "1073741824 points at arity 30; the enumeration bound of 9"),
            (["--arity", "2", "--max-points", "0"], "4 points at arity 2; the enumeration bound of 0"),
            (["--arity", "2", "--max-points=-1"], "4 points at arity 2; the enumeration bound of -1"),
        ],
    )
    def test_point_bound_names_max_points(self, monkeypatch, capsys, extra, message):
        def refuse(*args):
            raise AssertionError("grid_points called on an oversized grid")

        monkeypatch.setattr(characterization, "grid_points", refuse)
        assert main(["verify", "--levels", "0,1", *extra]) == 2
        assert capsys.readouterr().err == f"error: --max-points: grid has {message} caps both\n"

    def test_internal_error_names_no_flag(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise RafprefError("internal error: survivor domain is not the audited point set")

        monkeypatch.setattr(cli, "verify_characterization", broken)
        assert main(["verify", "--levels", "0,1", "--arity", "2"]) == 2
        assert capsys.readouterr().err.startswith("error: internal error: ")

    def test_max_points_override(self, capsys):
        code = main(
            ["verify", "--levels", "0,1/2,1", "--arity", "2", "--max-points", "9"]
        )
        assert code == 0

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

    @pytest.mark.parametrize("indent", [0, 1, 4])
    def test_matches_stdlib_other_indents(self, indent):
        value = {"a": [1, [], {}, {"b": None}], "c": [[True, 1.5]]}
        assert cli._json_text(value, indent) == json.dumps(value, indent=indent)

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
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _document_text(payoffs, values, weight):
    doc = dict(
        MONEY_DOC,
        payoffs=dict(zip(("$40", "$10"), payoffs)),
        weights={"$40": 123456789, "$10": 1},
        rafs={"A": dict(zip(("$40", "$10"), values))},
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
)
def test_fuzzed_inputs_exit_cleanly(levels, grid, payoffs, weights, doc_payoffs,
                                    doc_values, doc_weight):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_document_text(doc_payoffs, doc_values, doc_weight))
        grid_flags = [f"--grid={grid}", "--arity", "2", "--axioms", "SM,WeakIWA"]
        runs = [
            ["verify", f"--levels={levels}", "--arity", "2"],
            ["check", "-r", "mep", *grid_flags, f"--payoffs={payoffs}"],
            ["check", "-r", "wlog", *grid_flags, f"--weights={weights}"],
            ["rank", "-i", path, "-r", "mep"],
            ["rank", "-i", path, "-r", "wlog"],
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


# every grid has at most 4 points, so no draw starts a large walk
@settings(max_examples=100, deadline=None)
@given(
    axioms=st.lists(_AXIOM_PART, max_size=3).map(",".join),
    weights=st.lists(_WEIGHT_PART, max_size=3).map(",".join),
    max_points=st.integers(-3, 6),
)
def test_fuzzed_flags_exit_cleanly(axioms, weights, max_points):
    runs = [
        ["verify", "--levels", "0,1", "--arity", "2", f"--axioms={axioms}",
         f"--max-points={max_points}"],
        ["check", "-r", "wlog", "--grid", "0,1", "--arity", "2", f"--axioms={axioms}",
         f"--weights={weights}"],
    ]
    named = re.compile(r"error: (--axioms|--weights|--max-points|weights): ")
    for argv in runs:
        code, err = _run(argv)  # no exception may escape main
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err
        if code == 2:
            assert err.count("\n") == 1 and named.match(err), (argv, err[:200])
