"""Command-line front end.

Subcommands: ``demo`` prints the built-in two-alternative walkthrough,
``rank`` orders named profiles from a JSON document, ``check`` audits a
relation against the axioms on a document or grid sample, and ``verify``
runs the characterization search. Exit codes: 0 all checks pass (or the
survivor set is exactly the priority-order comparator), 1 violations or a
different survivor set, 2 input or usage errors, 141 (what a shell reports
for a process ended by SIGPIPE) when the reader of standard output closed
it early, as ``| head`` does; nothing is printed then.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, cmp_to_key
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterator, Optional, Sequence, TypeVar

from .core import (
    GridSpec,
    InvalidArityError,
    InvalidGridError,
    PriorityContext,
    Raf,
    RafprefError,
    default_context,
    format_rational,
    grid_points,
    make_raf,
    parse_rational,
)
from .relations import (
    ComparisonOutcome,
    LexicographicRelation,
    MaxExpectedPayoffRelation,
    PreferenceRelation,
    WeightedLogProductRelation,
    WeightVector,
    lex_compare,
    mep_utility,
    utility_compare,
)
from .axioms import ALL_AXIOMS, CHECK_MAX_POINTS, AxiomId, AxiomReport, AxiomViolation, CheckConfig
from .axioms import TooManyPointsError, require_check_bound, run_checks
from .characterization import CharacterizationReport, UnprunedWalkError, VERIFY_AXIOMS
from .characterization import WalkBudgetError, construct_proof_witness, verify_characterization

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 128 + 13  # 13 is SIGPIPE

RELATION_NAMES = ("lex", "mep", "wlog")
T = TypeVar("T")


class DocumentError(RafprefError):
    """Input document failed validation; the message names the field."""


@contextmanager
def _field(name: str, errors: type = RafprefError) -> Iterator[None]:
    """Re-raise a core error from the block (only one of type errors, if given) as a
    DocumentError starting ``name:``; an arity error names --arity, every grid's arity flag."""
    try:
        yield
    except InvalidArityError as exc:
        raise DocumentError(f"--arity: {exc}") from None
    except errors as exc:
        raise DocumentError(f"{name}: {exc}") from None


@dataclass(frozen=True)
class InputDocument:
    """A JSON input document, held as the validated core objects.

    The document checks only its JSON shape; every range, sign and bound
    rule is the one ``PriorityContext``, ``WeightVector`` and ``Raf``
    enforce. Alternatives and named profiles keep their file order;
    pay-offs, weights and profile values are in priority order, so
    emitting and re-parsing a document yields an equal object.
    """

    alternatives: tuple[str, ...]
    context: PriorityContext
    weights: Optional[WeightVector]
    rafs: tuple[tuple[str, Raf], ...]

    @classmethod
    def from_json_dict(cls, obj: dict) -> "InputDocument":
        if not isinstance(obj, dict):
            raise DocumentError("document: expected a JSON object")
        alternatives = tuple(_require_str_list(obj, "alternatives"))
        with _field("alternatives"):
            PriorityContext(alternatives)  # the label rules, before priority is read
        priority = tuple(_require_str_list(obj, "priority"))
        if sorted(priority) != sorted(alternatives):
            raise DocumentError("priority: must be a permutation of alternatives")

        ctx = PriorityContext(priority)
        if obj.get("payoffs") is not None:
            ctx = _by_label(obj["payoffs"], "payoffs", priority, "rational",
                            lambda payoffs: PriorityContext(priority, payoffs))
        weights = None
        if obj.get("weights") is not None:
            weights = _by_label(obj["weights"], "weights", priority, "integer",
                                lambda ws: WeightVector(ctx, ws))

        raw_rafs = obj.get("rafs")
        if not isinstance(raw_rafs, dict) or not raw_rafs:
            raise DocumentError("rafs: expected a nonempty object of named profiles")
        rafs = tuple(
            (_utf8(name, "rafs"),
             _by_label(entry, f"rafs.{name}", priority, "rational", lambda values: Raf(ctx, values)))
            for name, entry in raw_rafs.items()
        )
        return cls(alternatives, ctx, weights, rafs)

    def to_json_dict(self) -> dict:
        priority = self.context.alternatives

        def by_label(values) -> dict:
            return {label: format_rational(v) for label, v in zip(priority, values)}

        out: dict = {"alternatives": list(self.alternatives), "priority": list(priority)}
        if self.context.payoffs is not None:
            out["payoffs"] = by_label(self.context.payoffs)
        if self.weights is not None:
            out["weights"] = dict(zip(priority, self.weights.weights))
        out["rafs"] = {name: by_label(raf.values) for name, raf in self.rafs}
        return out


def _require_str_list(obj: dict, field: str) -> list[str]:
    raw = obj.get(field)
    if not isinstance(raw, list) or not all(isinstance(x, str) for x in raw):
        raise DocumentError(f"{field}: expected a list of strings")
    return [_utf8(x, field) for x in raw]


def _utf8(text: str, field: str) -> str:
    """text, refused if it holds a lone surrogate: JSON can spell one as
    "\\ud800", but no UTF-8 output can print it."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise DocumentError(f"{field}: {text!r} holds a lone surrogate") from None
    return text


def _label_value(value, kind: str):
    if kind == "rational" and isinstance(value, str):
        return parse_rational(value)
    if kind == "integer" and type(value) is int:  # WeightVector checks the range
        return value
    raise RafprefError("expected a rational string" if kind == "rational"
                       else "must be a positive integer")


def _by_label(raw, field: str, priority: Sequence[str], kind: str,
              build: Callable[[tuple], T]) -> T:
    """Read payoffs, weights or rafs.<name>, one value per alternative. Refuse a
    non-object, then an unknown label, then a missing one; parse each value in
    _field("<field>.<label>"), and pass them in priority order to build in _field(field)."""
    if not isinstance(raw, dict):
        raise DocumentError(f"{field}: expected a label-to-{kind} object")
    unknown = [label for label in raw if label not in priority]
    if unknown:
        raise DocumentError(f"{field}.{unknown[0]}: not an alternative")
    values = []
    for label in priority:
        if label not in raw:
            raise DocumentError(f"{field}.{label}: missing")
        with _field(f"{field}.{label}"):
            values.append(_label_value(raw[label], kind))
    with _field(field):
        return build(tuple(values))


def load_document(path: str) -> InputDocument:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:  # a ValueError too, so caught first
        raise DocumentError(f"{path}: not UTF-8 text ({exc})") from None
    except ValueError as exc:  # bad syntax, or an integer past int()'s digit limit
        raise DocumentError(f"{path}: invalid JSON ({exc})") from None
    except RecursionError:
        raise DocumentError(f"{path}: JSON nested too deeply") from None
    return InputDocument.from_json_dict(obj)


# ---------------------------------------------------------------------------
# Relation and sample construction
# ---------------------------------------------------------------------------


def _build_relation(
    name: str, ctx: PriorityContext, weights: Optional[WeightVector], prefix: str = ""
) -> PreferenceRelation:
    if name == "lex":
        return LexicographicRelation()
    if name == "mep":
        if ctx.payoffs is None:
            raise DocumentError(f"{prefix}payoffs: required by the mep relation")
        return MaxExpectedPayoffRelation()
    if name == "wlog":
        if weights is None:
            raise DocumentError(f"{prefix}weights: required by the wlog relation")
        return WeightedLogProductRelation(weights)
    raise DocumentError(f"relation: unknown name {name!r}")


def _comma_list(text: str, flag: str, parse: Callable[[str], object],
                build: Callable[[tuple], T]) -> T:
    """Read a comma-list flag: parse each nonempty part and pass the parts
    to build, all inside _field(flag), so that every error names the flag."""
    with _field(flag):
        return build(tuple(parse(part) for part in text.split(",") if part.strip()))


def _weight_part(text: str) -> int:
    """A --weights part: an integer in plain ASCII digits, as in a document."""
    s = text.strip()
    if not (s.isascii() and s.removeprefix("-").isdigit()):
        raise RafprefError("expected integers in plain digits")
    return int(parse_rational(s))  # which refuses a run past int()'s digit limit


def _grid_sample(args) -> tuple[PriorityContext, list[Raf], Optional[WeightVector]]:
    spec = _comma_list(args.grid, "--grid", parse_rational,
                       lambda levels: GridSpec.of(levels, args.arity))
    with _field("--arity", TooManyPointsError):
        require_check_bound(spec)
    ctx = default_context(args.arity)
    if args.payoffs:
        ctx = _comma_list(args.payoffs, "--payoffs", parse_rational,
                          lambda payoffs: PriorityContext(ctx.alternatives, payoffs))
    weights = None
    if args.weights:
        weights = _comma_list(args.weights, "--weights", _weight_part,
                              lambda ws: WeightVector(ctx, ws))
    return ctx, grid_points(spec, ctx), weights


def _parse_axioms(text: str, allowed: Sequence[AxiomId]) -> list[AxiomId]:
    if text.strip().lower() == "all":
        return list(allowed)

    def usable(part: str) -> AxiomId:
        axiom = AxiomId.parse(part)
        if axiom not in allowed:
            raise RafprefError(f"axiom {axiom} not usable here")
        return axiom

    axioms = _comma_list(text, "--axioms", usable, list)
    if not axioms:
        raise DocumentError("--axioms: no axioms named")
    return axioms


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _raf_json(raf: Raf) -> dict:
    return {"values": [format_rational(v) for v in raf.values]}


def _violation_json(v: AxiomViolation, axiom: str, points: dict[Raf, dict],
                    observed: dict[tuple, list]) -> dict:
    """points and observed memoize across one report, as its witnesses reuse
    few points and few outcome tuples; _json_write then reuses their texts."""
    witness = []
    for w in v.witness:
        out = points.get(w)
        if out is None:
            out = points[w] = _raf_json(w)
        witness.append(out)
    seen = observed.get(v.observed)
    if seen is None:
        seen = observed[v.observed] = [str(o) for o in v.observed]
    return {
        "axiom": axiom,
        "witness": witness,
        "index": v.index,
        "observed": seen,
        "detail": v.detail,
    }


def _check_json(report: AxiomReport, relation: str) -> dict:
    points: dict[Raf, dict] = {}
    observed: dict[tuple, list] = {}
    results = []
    for r in report.results:
        axiom = str(r.axiom)
        results.append({
            "axiom": axiom,
            "status": "pass" if r.passed else "fail",
            "vacuous": r.vacuous,
            "tuples_examined": r.tuples_examined,
            "qualifying": r.qualifying,
            "violation_count": r.violation_count,
            "violations": [_violation_json(v, axiom, points, observed) for v in r.violations],
        })
    return {
        "command": "check",
        "relation": relation,
        "sample_size": report.sample_size,
        "passed": report.passed,
        "results": results,
    }


def _render_check_text(payload: dict) -> str:
    lines = [f"axiom check: relation={payload['relation']} sample={payload['sample_size']} points"]
    for r in payload["results"]:
        status = "pass" if r["status"] == "pass" else "FAIL"
        vac = ", vacuous" if r["vacuous"] else ""
        lines.append(
            f"  {r['axiom']:<20} {status:<4} "
            f"({r['tuples_examined']} tuples, {r['qualifying']} qualifying, "
            f"{r['violation_count']} violations{vac})"
        )
        for v in r["violations"]:
            witness = " vs ".join("(" + ", ".join(w["values"]) + ")" for w in v["witness"])
            where = f" at k={v['index']}" if v["index"] is not None else ""
            observed = ", ".join(v["observed"])
            lines.append(f"      witness: {witness}{where}; observed {observed}")
    lines.append("result: " + ("all pass" if payload["passed"] else "violations found"))
    return "\n".join(lines)


def _verify_json(rep: CharacterizationReport) -> dict:
    return {
        "command": "verify",
        "grid": {
            "levels": [format_rational(v) for v in rep.grid.levels],
            "arity": rep.grid.arity,
        },
        "axioms": [str(a) for a in rep.axiom_order],
        "pruned": rep.pruned,
        "enumerated": rep.enumerated,
        "checked": rep.checked,
        "pruned_away": rep.pruned_away,
        "pruned_by": dict(rep.pruned_by),
        "pass_counts": {str(a): c for a, c in rep.pass_counts},
        "survivor_count": rep.survivor_count,
        "survivors": [
            {
                "ranks": list(s.ranks),
                "chain": s.chain(),
                "agrees_with_lex": agrees,
            }
            for s, agrees in zip(rep.survivors, rep.survivor_lex_agreement)
        ],
        "survivors_truncated": rep.survivors_truncated,
        "matches_lex": rep.matches_lex,
        "elapsed_ms": rep.elapsed_ms,
    }


def _render_verify_text(payload: dict) -> str:
    levels, arity = payload["grid"]["levels"], payload["grid"]["arity"]
    pruned_by = payload["pruned_by"]
    lines = [
        f"grid: levels [{', '.join(levels)}] arity {arity} ({len(levels) ** arity} points)",
        "axioms: "
        + ", ".join(payload["axioms"])
        + f"   pruning: {'on' if payload['pruned'] else 'off'}",
        f"enumerated {payload['enumerated']} weak orders (recurrence check: ok); "
        f"{payload['checked']} reached the leaves, {payload['pruned_away']} pruned"
        + (" (" + ", ".join(f"{c} by {r}" for r, c in pruned_by.items()) + ")"
           if pruned_by else ""),
        "pass counts: " + ", ".join(f"{a}={c}" for a, c in payload["pass_counts"].items()),
        f"survivors: {payload['survivor_count']}"
        + (f" (listing first {len(payload['survivors'])})" if payload["survivors_truncated"] else ""),
    ]
    for s in payload["survivors"]:
        verdict = "agrees with lex" if s["agrees_with_lex"] else "differs from lex"
        lines.append(f"  {s['chain']}   [{verdict}]")
    lines.append("survivor set equals lex: " + ("yes" if payload["matches_lex"] else "no"))
    lines.append(f"elapsed: {payload['elapsed_ms']:.1f} ms")
    return "\n".join(lines)


def _finite_float(x: float) -> str:
    if not math.isfinite(x):
        raise TypeError(f"{x!r} has no JSON form")
    return float.__repr__(x)


# the JSON text of each scalar type a payload holds, keyed by exact type:
# bool is not printed as an int, and a subclass of any of these is refused
_JSON_SCALARS: dict[type, Callable[[object], str]] = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _finite_float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _json_text(obj) -> str:
    """The text json.dumps(obj, indent=2) prints, for dicts with str
    keys, lists, str, int, finite float, bool and None; any other value,
    key (a str subclass too) or a NaN raises TypeError. It is the pieces
    of _json_pieces joined.

    The stdlib's C encoder ignores indent, so json.dumps falls back to a
    chain of pure-Python generators. Here a container writes its scalar
    children inline, and its text is one join of its template with the
    values filled in: a list's for its length, a dict's for its keys at
    its depth, built once per call. A short container met again at the
    same depth (a check report's witness points and observed lists are
    shared, see _check_json) reuses its text. On a 2-core Xeon with
    CPython 3.11 (five runs, each the median of 15 calls), the benchmark's
    810 KB check report takes 6.6–10.8 ms against 12.5–18.5 ms with a call
    per scalar and a join per dict, and json.dumps 34–55 ms.
    """
    return "".join(_json_pieces(obj))


# the JSON writer's indent: --format json prints json.dumps(indent=2)'s text
_JSON_INDENT = 2
# _json_pieces writes each container at this depth as one piece: each
# entry of a check report's results
_JSON_PIECE_DEPTH = 2


def _json_pieces(obj, depth: int = 0,
                 texts: Optional[dict] = None, templates: Optional[dict] = None) -> Iterator[str]:
    """_json_text(obj) in pieces, in order: a container above
    _JSON_PIECE_DEPTH yields the text before each value, that value's
    pieces and its closing text, and a container at that depth is one
    piece, so that a report can be written while only one results entry's
    text exists. One texts and templates cache serves every piece (see
    _json_write)."""
    if texts is None or templates is None:
        texts, templates = {}, {}
    kind = type(obj)
    scalar = _JSON_SCALARS.get(kind)
    if scalar is not None:
        yield scalar(obj)
        return
    if depth >= _JSON_PIECE_DEPTH:
        yield _json_write(obj, depth, texts, templates)
        return
    if kind is dict:
        frame, values = _dict_template(obj, depth)[::2], obj.values()
    elif kind is list:
        frame, values = _list_template(len(obj), depth)[::2], obj
    else:
        raise TypeError(f"a {kind.__name__} has no JSON form")
    for before, value in zip(frame, values):
        yield before
        yield from _json_pieces(value, depth + 1, texts, templates)
    yield frame[-1]


# _json_write keeps a container's text only up to this length: enough for a
# witness point of 8 alternatives at 1/2 or 1/10. A long text contains the
# texts of its whole subtree; keeping every one would hold each level of the
# benchmark's 810 KB check report at once: a tracemalloc peak of 4.6 MiB
# against 1.6 MiB (CPython 3.11).
_JSON_KEPT_TEXT = 256


def _json_write(obj, depth: int, texts: dict[tuple[int, int], str],
                templates: dict[tuple[int, ...], list[Optional[str]]]) -> str:
    """obj's text at depth, obj a list or dict. texts holds short containers'
    by (id, depth), templates each dict's by (depth, id of each key); the
    whole value _json_text was given keeps every such id in use."""
    kind = type(obj)
    if kind is dict:
        shape = (depth, *map(id, obj))
        template = templates.get(shape)
        if template is None:
            template = templates[shape] = _dict_template(obj, depth)
        template, values = template.copy(), obj.values()
    elif kind is list:
        template, values = _list_template(len(obj), depth), obj
    else:
        raise TypeError(f"a {kind.__name__} has no JSON form")
    scalars, inner_depth = _JSON_SCALARS, depth + 1
    template[1::2] = [scalar(v) if (scalar := scalars.get(type(v))) is not None
                      else texts.get((id(v), inner_depth))
                      or _json_write(v, inner_depth, texts, templates) for v in values]
    out = "".join(template)
    if len(out) <= _JSON_KEPT_TEXT:
        texts[id(obj), depth] = out
    return out


def _dict_template(keys, depth: int) -> list[Optional[str]]:
    """The text of a dict with these keys at depth, as a list that holds the
    text around its values at even places and None at each value's place."""
    for k in keys:
        if type(k) is not str:
            raise TypeError(f"a {type(k).__name__} key has no JSON form")
    if not keys:
        return ["{}"]
    inner = "\n" + " " * (_JSON_INDENT * (depth + 1))
    pieces = ["," + inner + encode_basestring_ascii(k) + ": " for k in keys]
    pieces[0] = "{" + pieces[0][1:]
    pieces.append("\n" + " " * (_JSON_INDENT * depth) + "}")
    template: list[Optional[str]] = [None] * (2 * len(pieces) - 1)
    template[::2] = pieces
    return template


def _list_template(n: int, depth: int) -> list[Optional[str]]:
    """The text of a list of n values at depth, laid out as _dict_template's."""
    if not n:
        return ["[]"]
    inner = "\n" + " " * (_JSON_INDENT * (depth + 1))
    template: list[Optional[str]] = ["," + inner, None] * n
    template[0] = "[" + inner
    template.append("\n" + " " * (_JSON_INDENT * depth) + "]")
    return template


def _emit(args, payload: dict, render_text: Callable[[dict], str]) -> None:
    """Print the payload as JSON or as render_text(payload), building only
    that one. JSON is written piece by piece, as _json_pieces renders it."""
    if args.format == "json":
        sys.stdout.writelines(_json_pieces(payload))
        sys.stdout.write("\n")
    else:
        print(render_text(payload))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_demo(args) -> int:
    ctx = PriorityContext.of(("$40", "$10"), {"$40": 40, "$10": 10})
    a = make_raf(("1/5", "4/5"), ctx)
    b = make_raf(("1/10", "9/10"), ctx)
    ua, ub = mep_utility(a), mep_utility(b)
    mep_verdict = utility_compare(a, b, mep_utility)
    lex_verdict = lex_compare(a, b)
    c = construct_proof_witness(a, b)
    print("alternatives (priority first): $40, $10   pay-offs: 40, 10")
    print(f"A = {a}   (availability of $40, then $10)")
    print(f"B = {b}")
    print()
    print("maximum expected pay-off: u(X) = max over alternatives of payoff * availability")
    print(f"  u(A) = {format_rational(ua)}")
    print(f"  u(B) = {format_rational(ub)}")
    mep_line = "B ≻ A" if mep_verdict is ComparisonOutcome.SECOND_PREFERRED else "A ≻ B"
    print(f"  mep verdict: {mep_line}")
    print()
    print("priority-order comparison: decided at the first differing alternative")
    lex_line = "A ≻ B" if lex_verdict is ComparisonOutcome.FIRST_PREFERRED else "B ≻ A"
    print(f"  A($40) = 1/5 > 1/10 = B($40), so lex verdict: {lex_line}")
    print()
    print(f"characterization witness: C = {c}  (B through the first difference, A after)")
    print(
        "note: after picking B, a chooser who finds $40 sold out is left with a"
        " 9/10 shot at $10 and may regret forgoing A's 1/5 shot at $40;"
        " ranking by priority first avoids that regret."
    )
    return EXIT_OK


def _rank_groups(
    items: Sequence[tuple[str, Raf]], rel: PreferenceRelation
) -> list[list[str]]:
    def cmp(x, y) -> int:
        out = rel.compare(x[1], y[1])
        if out is ComparisonOutcome.FIRST_PREFERRED:
            return -1
        if out is ComparisonOutcome.SECOND_PREFERRED:
            return 1
        return 0

    ordered = sorted(items, key=cmp_to_key(cmp))
    groups: list[list[tuple[str, Raf]]] = []
    for item in ordered:
        if groups and rel.compare(groups[-1][0][1], item[1]) is ComparisonOutcome.INDIFFERENT:
            groups[-1].append(item)
        else:
            groups.append([item])
    return [[name for name, _ in group] for group in groups]


def cmd_rank(args) -> int:
    doc = load_document(args.input)
    rel = _build_relation(args.relation, doc.context, doc.weights)
    payload = {
        "command": "rank",
        "relation": args.relation,
        "ranking": _rank_groups(doc.rafs, rel),
        "document": doc.to_json_dict(),
    }
    _emit(args, payload, lambda p: " ≻ ".join(" ∼ ".join(g) for g in p["ranking"]))
    return EXIT_OK


def cmd_check(args) -> int:
    if bool(args.input) == bool(args.grid):
        raise DocumentError("input: give exactly one of --input or --grid")
    if args.input:
        if args.arity is not None or args.payoffs or args.weights:
            raise DocumentError("--arity/--payoffs/--weights: only meaningful with --grid")
        doc = load_document(args.input)
        if len(doc.rafs) > CHECK_MAX_POINTS:
            raise DocumentError(f"rafs: the document has {len(doc.rafs)} profiles; "
                                f"the check bound of {CHECK_MAX_POINTS} caps the sample")
        ctx, weights = doc.context, doc.weights
        sample = [raf for _, raf in doc.rafs]
    elif args.arity is None:
        raise DocumentError("--arity: required with --grid")
    else:
        ctx, sample, weights = _grid_sample(args)
    # a grid's pay-offs and weights come from flags, a document's from fields
    rel = _build_relation(args.relation, ctx, weights, "--" if args.grid else "")
    axioms = _parse_axioms(args.axioms, ALL_AXIOMS)
    config = CheckConfig(all_violations=args.all_violations)
    report = run_checks(rel, sample, axioms, config)
    _emit(args, _check_json(report, rel.name), _render_check_text)
    return EXIT_OK if report.passed else EXIT_VIOLATION


def cmd_verify(args) -> int:
    spec = _comma_list(args.levels, "--levels", parse_rational,
                       lambda levels: GridSpec.of(levels, args.arity))
    axioms = _parse_axioms(args.axioms, VERIFY_AXIOMS)
    # each refusal names its flag (the subclass's inside); internal errors none
    with _field("--levels", InvalidGridError), _field("--arity", TooManyPointsError), \
            _field("--no-prune", UnprunedWalkError), _field("--axioms", WalkBudgetError):
        rep = verify_characterization(spec, axioms, prune=args.prune)
    _emit(args, _verify_json(rep), _render_verify_text)
    return EXIT_OK if rep.matches_lex else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rafpref",
        description="Rank availability profiles, audit preference axioms, "
        "and verify the lexicographic characterization on finite grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_demo = sub.add_parser("demo", help="print the built-in $40/$10 walkthrough")
    p_demo.set_defaults(func=cmd_demo)

    p_rank = sub.add_parser("rank", help="rank the named profiles in a document")
    p_rank.add_argument("--input", "-i", required=True, help="JSON document path")
    p_rank.add_argument("--relation", "-r", required=True, choices=RELATION_NAMES)
    p_rank.add_argument("--format", choices=("text", "json"), default="text")
    p_rank.set_defaults(func=cmd_rank)

    p_check = sub.add_parser("check", help="audit a relation against the axioms")
    p_check.add_argument("--input", "-i", help="JSON document path (sample = its rafs)")
    p_check.add_argument("--grid", help="comma-separated levels for a product grid sample")
    p_check.add_argument("--arity", type=int, help="number of alternatives for --grid")
    p_check.add_argument("--payoffs", help="comma-separated pay-offs (priority order), for mep on a grid")
    p_check.add_argument("--weights", help="comma-separated positive integer weights, for wlog on a grid")
    p_check.add_argument("--relation", "-r", required=True, choices=RELATION_NAMES)
    p_check.add_argument("--axioms", default="all", help="comma-separated axiom names, or 'all'")
    p_check.add_argument("--all-violations", action="store_true", help="record every violation, not just the first")
    p_check.add_argument("--format", choices=("text", "json"), default="text")
    p_check.set_defaults(func=cmd_check)

    p_verify = sub.add_parser("verify", help="enumerate weak orders and filter by axioms")
    p_verify.add_argument("--levels", required=True, help="comma-separated grid levels")
    p_verify.add_argument("--arity", type=int, required=True)
    p_verify.add_argument("--axioms", default="SM,WeakIWA", help="comma-separated axiom names")
    p_verify.add_argument("--prune", action=argparse.BooleanOptionalAction, default=True,
                          help="refuse every block that breaks a requested axiom, so "
                          "only survivors are reached (exact, counted); --no-prune "
                          "walks and filters every weak order")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=cmd_verify)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """main's parser, built on its first call: parse_args keeps no state
    between calls, and building the tree takes 0.6–0.85 ms, eight times or
    more what a parse takes."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except RafprefError as exc:
        # one line, whatever the labels and names that the message quotes
        text = "".join(c if c.isprintable() else ascii(c)[1:-1] for c in str(exc))
        print(f"error: {text}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # a write to standard output failed
        # Point standard output at devnull, so that the interpreter's
        # flush at exit does not fail on the same output again.
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (AttributeError, OSError, ValueError):
            pass  # not backed by a file descriptor: nothing is left to flush
        if isinstance(exc, BrokenPipeError):  # the reader went away
            return EXIT_BROKEN_PIPE
        print(f"error: standard output: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
