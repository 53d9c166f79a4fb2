"""Executable audits of the order, dominance, and independence axioms.

Every checker takes an arbitrary comparator and a finite sample of
profiles sharing one context, covers the whole relevant tuple space, and
reports either a clean pass or concrete counterexample witnesses, listed
in canonical order (row-major over sample indices), that replay
deterministically.

Every audit reads two tables over the n^2 ordered pairs of the sample:
the (up-set, down-set, first difference) signature of each pair, and the
relation's verdicts, drawn once per pair and memoized.

- Reflexivity and mirror consistency visit every point and pair.
- The pair axioms' hypotheses are conditions on a pair's up and down
  sets, so only the qualifying pairs are put to the relation.
- Transitivity counts ordered triples from one bit row of weak verdicts
  per point, in O(n^2) big-integer steps instead of n^3 lookups.
- Each quadruple axiom's hypothesis says that its two pairs share a key
  derived from their signatures, so the axiom holds exactly when the
  weak verdict is constant on every key class; qualifying and violating
  quadruples are counted from the classes instead of visiting all n^4.

Counts are always exact; the witness policy only controls how many
violations are recorded, and only those are built.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Collection, Iterable, Iterator, Optional, Sequence

from .core import (
    ContextMismatchError,
    Raf,
    RafprefError,
    first_difference,
    pointwise_geq,
    require_same_context,
    strictly_dominates,
)
from .relations import ComparisonOutcome, PreferenceRelation, at_least_as_good

__all__ = [
    "AxiomId",
    "ORDER_AXIOMS",
    "PAIR_AXIOMS",
    "QUAD_AXIOMS",
    "ALL_AXIOMS",
    "CheckConfig",
    "DEFAULT_CONFIG",
    "AxiomViolation",
    "AxiomResult",
    "AxiomReport",
    "check_order_axioms",
    "check_weak_dominance",
    "check_strong_monotonicity",
    "check_strong_dominance",
    "check_non_compensation",
    "check_axiom2_ms",
    "check_iwa",
    "check_weak_iwa",
    "run_checks",
    "replay_violation",
    "single_coordinate_increase",
    "qualifies_strong_dominance",
    "qualifies_non_compensation",
    "qualifies_axiom2",
    "qualifies_iwa_at",
    "iwa_indices",
    "qualifies_weak_iwa",
]


class AxiomId(str, enum.Enum):
    """Stable axiom names used in reports, the CLI, and JSON output."""

    REFLEXIVE = "Reflexive"
    MIRROR_CONSISTENT = "MirrorConsistent"
    CONNECTED = "Connected"
    TRANSITIVE = "Transitive"
    WEAK_DOMINANCE = "WeakDominance"
    STRONG_MONOTONICITY = "StrongMonotonicity"
    STRONG_DOMINANCE = "StrongDominance"
    NON_COMPENSATION = "NonCompensation"
    AXIOM2_MS = "Axiom2MS"
    IWA = "IWA"
    WEAK_IWA = "WeakIWA"

    def __str__(self) -> str:
        return self.value

    @classmethod
    def parse(cls, name: str) -> "AxiomId":
        key = name.strip().lower()
        try:
            return _AXIOM_ALIASES[key]
        except KeyError:
            raise RafprefError(f"unknown axiom {name!r:.40}") from None


_AXIOM_ALIASES: dict[str, AxiomId] = {m.value.lower(): m for m in AxiomId}
_AXIOM_ALIASES["sm"] = AxiomId.STRONG_MONOTONICITY

ORDER_AXIOMS = (
    AxiomId.REFLEXIVE,
    AxiomId.MIRROR_CONSISTENT,
    AxiomId.CONNECTED,
    AxiomId.TRANSITIVE,
)
PAIR_AXIOMS = (
    AxiomId.WEAK_DOMINANCE,
    AxiomId.STRONG_MONOTONICITY,
    AxiomId.STRONG_DOMINANCE,
)
QUAD_AXIOMS = (
    AxiomId.NON_COMPENSATION,
    AxiomId.AXIOM2_MS,
    AxiomId.IWA,
    AxiomId.WEAK_IWA,
)
ALL_AXIOMS = ORDER_AXIOMS + PAIR_AXIOMS + QUAD_AXIOMS


@dataclass(frozen=True)
class CheckConfig:
    """Checker options. Every scan covers its whole tuple space; with
    all_violations every counterexample is recorded, not just the first."""

    all_violations: bool = False


DEFAULT_CONFIG = CheckConfig()


@dataclass(frozen=True)
class AxiomViolation:
    """One concrete counterexample: the witness tuple and what was observed."""

    axiom: AxiomId
    witness: tuple[Raf, ...]
    observed: tuple[ComparisonOutcome, ...]
    index: Optional[int] = None  # 1-based coordinate k (or y) where applicable
    detail: str = ""


@dataclass(frozen=True)
class AxiomResult:
    """Outcome of one axiom scan.

    tuples_examined is the number of tuples the scan covers: n, n(n-1),
    n^3 or n^4 for a sample of n points, whether the tuples were visited
    one by one or counted from a table. Every scan is exhaustive.
    """

    axiom: AxiomId
    passed: bool
    tuples_examined: int
    qualifying: int
    violation_count: int
    violations: tuple[AxiomViolation, ...]

    @property
    def vacuous(self) -> bool:
        """Passed without a single tuple meeting the axiom's hypothesis."""
        return self.passed and self.qualifying == 0


@dataclass(frozen=True)
class AxiomReport:
    """Results of one or more axiom scans over a single sample."""

    results: tuple[AxiomResult, ...]
    sample_size: int

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def result_for(self, axiom: AxiomId) -> AxiomResult:
        for r in self.results:
            if r.axiom is axiom:
                return r
        raise RafprefError(f"no result for axiom {axiom}")


# ---------------------------------------------------------------------------
# Hypothesis predicates on profiles. These state what qualifies a tuple;
# the scans use equivalent conditions on the pair-signature table, and
# replay_violation and the tests go back through these.
# ---------------------------------------------------------------------------


def single_coordinate_increase(a: Raf, b: Raf) -> Optional[int]:
    """1-based coordinate where a exceeds b, if that is their only difference."""
    require_same_context(a, b)
    found: Optional[int] = None
    for i, (x, y) in enumerate(zip(a.values, b.values)):
        if x != y:
            if found is not None or x < y:
                return None
            found = i + 1
    return found


def qualifies_strong_dominance(a: Raf, b: Raf) -> bool:
    """a != b and a is coordinatewise at least b."""
    return a.values != b.values and pointwise_geq(a, b)


def _updown(a: Raf, b: Raf) -> tuple[int, int]:
    """Bit i of up/down set when a is strictly above/below b at coordinate i+1."""
    up = down = 0
    for i, (x, y) in enumerate(zip(a.values, b.values)):
        if x > y:
            up |= 1 << i
        elif x < y:
            down |= 1 << i
    return up, down


def qualifies_non_compensation(a: Raf, b: Raf, c: Raf, d: Raf) -> bool:
    """The two pairs have identical up-sets and identical down-sets."""
    require_same_context(a, b)
    require_same_context(a, c)
    require_same_context(a, d)
    return _updown(a, b) == _updown(c, d)


def qualifies_axiom2(a: Raf, b: Raf, c: Raf, d: Raf) -> Optional[int]:
    """Single-coordinate hypothesis: both pairs differ only at one shared
    coordinate y with matching values there; returns the 1-based y."""
    require_same_context(a, b)
    require_same_context(a, c)
    require_same_context(a, d)
    y = None
    for i, (x, z) in enumerate(zip(a.values, b.values)):
        if x != z:
            if y is not None:
                return None
            y = i
    if y is None:
        return None
    for i, (x, z) in enumerate(zip(c.values, d.values)):
        if x != z and i != y:
            return None
    if c.values[y] != a.values[y] or d.values[y] != b.values[y]:
        return None
    return y + 1


def qualifies_iwa_at(a: Raf, b: Raf, c: Raf, d: Raf, k: int) -> bool:
    """Restricted-signature hypothesis at 1-based k: the first pair differs
    at k and both pairs show the same up/down pattern on coordinates <= k."""
    require_same_context(a, b)
    require_same_context(a, c)
    require_same_context(a, d)
    if a.values[k - 1] == b.values[k - 1]:
        return False
    mask = (1 << k) - 1
    up1, down1 = _updown(a, b)
    up2, down2 = _updown(c, d)
    return (up1 & mask, down1 & mask) == (up2 & mask, down2 & mask)


def iwa_indices(a: Raf, b: Raf, c: Raf, d: Raf) -> tuple[int, ...]:
    """All 1-based k at which the quadruple meets the restricted hypothesis."""
    arity = a.context.arity
    return tuple(k for k in range(1, arity + 1) if qualifies_iwa_at(a, b, c, d, k))


def qualifies_weak_iwa(a: Raf, b: Raf, c: Raf, d: Raf) -> Optional[int]:
    """Shared first-difference hypothesis: both pairs first differ at the
    same 1-based k with the same strict direction there; returns k."""
    ka = first_difference(a, b)
    kc = first_difference(c, d)
    if ka is None or ka != kc:
        return None
    sign_ab = a.values[ka - 1] > b.values[ka - 1]
    sign_cd = c.values[ka - 1] > d.values[ka - 1]
    return ka if sign_ab == sign_cd else None


# ---------------------------------------------------------------------------
# Scan machinery
# ---------------------------------------------------------------------------


def _pair_signatures(values: Sequence[tuple]) -> list[list[tuple[int, int, int]]]:
    """sig[i][j] = (up, down, fd) for every ordered pair of points.

    Bit c of up/down is set when point i is strictly above/below point j
    at 0-based coordinate c; fd is the first coordinate where they
    differ, -1 when they are equal. Each coordinate's values are first
    replaced by their rank among the sample's distinct values there, an
    order-preserving integer code, so the n^2 pair loop compares ints
    rather than exact rationals. Each pair i < j is computed once: sig[j][i]
    is its mirror, with up and down swapped.
    """
    ranks = [{v: r for r, v in enumerate(sorted(set(column)))} for column in zip(*values)]
    coded = [tuple(rank[x] for rank, x in zip(ranks, p)) for p in values]
    n = len(coded)
    sigs = [[(0, 0, -1)] * n for _ in range(n)]
    for i, p in enumerate(coded):
        row = sigs[i]
        for j in range(i + 1, n):
            up = down = 0
            for c, (x, y) in enumerate(zip(p, coded[j])):
                if x > y:
                    up |= 1 << c
                elif x < y:
                    down |= 1 << c
            diff = up | down
            fd = (diff & -diff).bit_length() - 1
            row[j] = (up, down, fd)
            sigs[j][i] = (down, up, fd)
    return sigs


def _qualifying_pairs(
    axiom: AxiomId, arity: int, sigs: list[list[tuple[int, int, int]]]
) -> Iterator[tuple[int, int, int]]:
    """(i, j, fd) for each ordered pair meeting a pair axiom's hypothesis,
    in row-major order. WeakDominance: strictly above at every coordinate.
    StrongMonotonicity: strictly above at exactly one coordinate and equal
    elsewhere. StrongDominance: nowhere below and above somewhere."""
    full = (1 << arity) - 1
    meets = {
        AxiomId.WEAK_DOMINANCE: lambda up: up == full,
        AxiomId.STRONG_MONOTONICITY: lambda up: up != 0 and up & (up - 1) == 0,
        AxiomId.STRONG_DOMINANCE: lambda up: up != 0,
    }[axiom]
    return (
        (i, j, fd)
        for i, row in enumerate(sigs) for j, (up, down, fd) in enumerate(row)
        if not down and meets(up)
    )


def _hypothesis_classes(
    axiom: AxiomId, values: Sequence[tuple], sigs: list[list[tuple[int, int, int]]]
) -> dict[tuple, list[tuple[int, int]]]:
    """Ordered pairs grouped by a quadruple axiom's hypothesis key.

    A quadruple (i, j, k, l) meets the hypothesis exactly when (i, j) and
    (k, l) fall in one class, so the axiom holds exactly when the weak
    verdict is constant on every class. Pairs outside the hypothesis
    belong to no class. Each key starts with the 1-based coordinate a
    witness reports (None for NonCompensation); classes and their members
    come in row-major order.

    IWA shares WeakIWA's classes: two pairs whose up/down patterns agree
    on the coordinates up to some k where the first pair differs also
    agree up to its first difference, so they first differ at the same
    coordinate in the same direction, and conversely.
    """
    if axiom is AxiomId.NON_COMPENSATION:
        keyed = (
            ((None, up, down), i, j)
            for i, row in enumerate(sigs) for j, (up, down, _) in enumerate(row)
        )
    elif axiom is AxiomId.AXIOM2_MS:
        keyed = (
            ((fd + 1, values[i][fd], values[j][fd]), i, j)
            for i, row in enumerate(sigs) for j, (up, down, fd) in enumerate(row)
            if fd >= 0 and (up | down) == 1 << fd
        )
    elif axiom is AxiomId.IWA or axiom is AxiomId.WEAK_IWA:
        keyed = (
            ((fd + 1, (up >> fd) & 1), i, j)
            for i, row in enumerate(sigs) for j, (up, _, fd) in enumerate(row)
            if fd >= 0
        )
    else:
        raise RafprefError(f"axiom {axiom} has no pair-class hypothesis")
    classes: dict[tuple, list[tuple[int, int]]] = {}
    for key, i, j in keyed:
        classes.setdefault(key, []).append((i, j))
    return classes


def _class_key(axiom: AxiomId) -> AxiomId:
    """The axiom whose hypothesis classes axiom's are: IWA shares WeakIWA's
    (see _hypothesis_classes), every other quadruple axiom has its own."""
    return AxiomId.WEAK_IWA if axiom is AxiomId.IWA else axiom


class _Audit:
    """Validated sample plus a memo of relation verdicts by index pair.

    signatures, when given, must be _pair_signatures of the sample's
    values in sample order; it is then read instead of being rebuilt.
    """

    def __init__(
        self,
        rel: PreferenceRelation,
        sample: Sequence[Raf],
        signatures: Optional[list[list[tuple[int, int, int]]]] = None,
    ) -> None:
        if not sample:
            raise RafprefError("sample must be nonempty")
        ctx = sample[0].context
        for raf in sample:
            if raf.context != ctx:
                raise ContextMismatchError("sample mixes profiles from different contexts")
        self.rel = rel
        self.sample = list(sample)
        self.n = len(sample)
        self.values = [raf.values for raf in self.sample]
        self._memo: dict[tuple[int, int], ComparisonOutcome] = {}
        self._tallies: dict[AxiomId, tuple[int, int, dict]] = {}
        if signatures is not None:
            # takes the place of the cached property's first computation
            self.signatures = signatures

    @cached_property
    def signatures(self) -> list[list[tuple[int, int, int]]]:
        return _pair_signatures(self.values)

    def tally(self, axiom: AxiomId) -> tuple[int, int, dict]:
        """A quadruple axiom's class tally, counted once per audit and
        kept: IWA and WeakIWA share theirs."""
        key = _class_key(axiom)
        if key not in self._tallies:
            self._tallies[key] = self._count(key)
        return self._tallies[key]

    def _count(self, axiom: AxiomId) -> tuple[int, int, dict]:
        """(qualifying, violation_count, mixed) over a quadruple axiom's
        classes. A class with t pairs of weak verdict true and f of false
        holds (t+f)^2 qualifying quadruples, 2tf of them violations; mixed
        maps each pair of a class with both verdicts to the witness index
        and the class."""
        geq = self.geq
        qualifying = violation_count = 0
        mixed: dict[tuple[int, int], tuple[Optional[int], list[tuple[int, int]]]] = {}
        for key, members in _hypothesis_classes(axiom, self.values, self.signatures).items():
            t = sum(1 for i, j in members if geq(i, j))
            f = len(members) - t
            qualifying += len(members) ** 2
            if t and f:
                violation_count += 2 * t * f
                for pair in members:
                    mixed[pair] = (key[0], members)
        return qualifying, violation_count, mixed

    def outcome(self, i: int, j: int) -> ComparisonOutcome:
        key = (i, j)
        out = self._memo.get(key)
        if out is None:
            out = self.rel.compare(self.sample[i], self.sample[j])
            if not isinstance(out, ComparisonOutcome):
                raise RafprefError(
                    f"relation {self.rel.name!r} returned {out!r}, not a ComparisonOutcome"
                )
            self._memo[key] = out
        return out

    def geq(self, i: int, j: int) -> bool:
        return at_least_as_good(self.outcome(i, j))


def _members(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _result(
    axiom: AxiomId,
    examined: int,
    qualifying: int,
    violations: Iterable[AxiomViolation],
    config: CheckConfig,
    violation_count: Optional[int] = None,
) -> AxiomResult:
    """violations lists witnesses in canonical order; only the recorded
    ones are drawn from it. violation_count defaults to its length, for
    scans that pass a list of every violation they find."""
    count = len(violations) if violation_count is None else violation_count
    recorded = tuple(islice(violations, None if config.all_violations else 1))
    return AxiomResult(
        axiom=axiom,
        passed=count == 0,
        tuples_examined=examined,
        qualifying=qualifying,
        violation_count=count,
        violations=recorded,
    )


def _order_results(
    audit: _Audit, config: CheckConfig, axioms: Collection[AxiomId]
) -> list[AxiomResult]:
    """Results for the requested order axioms, in canonical order; only
    their scans run."""
    n = audit.n
    sample = audit.sample
    INDIFF = ComparisonOutcome.INDIFFERENT
    results: list[AxiomResult] = []

    if AxiomId.REFLEXIVE in axioms:
        reflexive: list[AxiomViolation] = []
        for i in range(n):
            out = audit.outcome(i, i)
            if out is not INDIFF:
                reflexive.append(
                    AxiomViolation(
                        AxiomId.REFLEXIVE,
                        (sample[i],),
                        (out,),
                        detail="comparing a profile with itself must be Indifferent",
                    )
                )
        results.append(_result(AxiomId.REFLEXIVE, n, n, reflexive, config))

    pairs = n * (n - 1)
    if AxiomId.MIRROR_CONSISTENT in axioms or AxiomId.CONNECTED in axioms:
        mirror: list[AxiomViolation] = []
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                fwd = audit.outcome(i, j)
                back = audit.outcome(j, i)
                if back is not fwd.mirrored():
                    mirror.append(
                        AxiomViolation(
                            AxiomId.MIRROR_CONSISTENT,
                            (sample[i], sample[j]),
                            (fwd, back),
                            detail="swapped arguments must mirror the verdict",
                        )
                    )
        if AxiomId.MIRROR_CONSISTENT in axioms:
            results.append(_result(AxiomId.MIRROR_CONSISTENT, pairs, pairs, mirror, config))
        # Connectedness is structural: the outcome type has no "incomparable"
        # value, and the scan above has drawn a verdict for every ordered
        # pair (a comparator that cannot is rejected at memo time), so it
        # cannot fail.
        if AxiomId.CONNECTED in axioms:
            results.append(_result(AxiomId.CONNECTED, pairs, pairs, [], config))

    if AxiomId.TRANSITIVE in axioms:
        results.append(_transitive_result(audit, config))
    return results


def _transitive_result(audit: _Audit, config: CheckConfig) -> AxiomResult:
    """Transitivity counted over one weak-verdict bit row per point.

    Bit j of rows[i] is set when i is at least as good as j. The triple
    (i, j, k) qualifies when j is in rows[i] and k in rows[j], and
    violates when k is also missing from rows[i], so each j in rows[i]
    contributes |rows[j]| qualifying triples and |rows[j] & ~rows[i]|
    violations. Witnesses come in row-major (i, j, k) order.
    """
    n = audit.n
    sample = audit.sample
    geq = audit.geq
    rows = [sum(1 << j for j in range(n) if geq(i, j)) for i in range(n)]
    sizes = [row.bit_count() for row in rows]
    qualifying = violation_count = 0
    for row in rows:
        for j in _members(row):
            qualifying += sizes[j]
            violation_count += (rows[j] & ~row).bit_count()

    def witnesses() -> Iterator[AxiomViolation]:
        for i, row in enumerate(rows):
            for j in _members(row):
                for k in _members(rows[j] & ~row):
                    yield AxiomViolation(
                        AxiomId.TRANSITIVE,
                        (sample[i], sample[j], sample[k]),
                        (audit.outcome(i, j), audit.outcome(j, k), audit.outcome(i, k)),
                        detail="weak preference must chain through the middle profile",
                    )

    return _result(
        AxiomId.TRANSITIVE, n ** 3, qualifying, witnesses(), config, violation_count
    )


_PAIR_REQUIREMENTS = {
    AxiomId.WEAK_DOMINANCE: "strict dominance requires FirstPreferred",
    AxiomId.STRONG_MONOTONICITY: "a single-coordinate increase requires FirstPreferred",
    AxiomId.STRONG_DOMINANCE: "coordinatewise dominance requires FirstPreferred",
}


def _pair_result(axiom: AxiomId, audit: _Audit, config: CheckConfig) -> AxiomResult:
    """Pair audit over the signature table: only pairs that meet the
    hypothesis are put to the comparator. StrongMonotonicity witnesses
    report the raised coordinate; the other two have no index."""
    n = audit.n
    sample = audit.sample
    FIRST = ComparisonOutcome.FIRST_PREFERRED
    qualifying = 0
    failed: list[tuple[int, int, int]] = []
    for i, j, fd in _qualifying_pairs(axiom, len(audit.values[0]), audit.signatures):
        qualifying += 1
        if audit.outcome(i, j) is not FIRST:
            failed.append((i, j, fd))
    requirement = _PAIR_REQUIREMENTS[axiom]
    indexed = axiom is AxiomId.STRONG_MONOTONICITY
    witnesses = (
        AxiomViolation(
            axiom,
            (sample[i], sample[j]),
            (audit.outcome(i, j),),
            index=fd + 1 if indexed else None,
            detail=f"{requirement}; observed {audit.outcome(i, j)}",
        )
        for i, j, fd in failed
    )
    return _result(axiom, n * (n - 1), qualifying, witnesses, config, len(failed))


def _quad_result(axiom: AxiomId, audit: _Audit, config: CheckConfig) -> AxiomResult:
    """Quadruple audit counted over the axiom's hypothesis classes.

    Witnesses come in row-major order: for each pair, the members of its
    class with the opposite verdict.
    """
    sample = audit.sample
    geq = audit.geq
    qualifying, violation_count, mixed = audit.tally(axiom)

    def witnesses() -> Iterator[AxiomViolation]:
        for i, j in sorted(mixed):
            index, members = mixed[i, j]
            g = geq(i, j)
            for k, l in members:
                if geq(k, l) != g:
                    yield AxiomViolation(
                        axiom,
                        (sample[i], sample[j], sample[k], sample[l]),
                        (audit.outcome(i, j), audit.outcome(k, l)),
                        index=index,
                        detail="matching hypothesis but opposite weak verdicts",
                    )

    return _result(
        axiom, audit.n ** 4, qualifying, witnesses(), config, violation_count
    )


# ---------------------------------------------------------------------------
# Public checkers
# ---------------------------------------------------------------------------


def check_order_axioms(
    rel: PreferenceRelation,
    sample: Sequence[Raf],
    config: CheckConfig = DEFAULT_CONFIG,
) -> AxiomReport:
    """Reflexivity, mirror consistency, connectedness, and transitivity.

    Transitivity covers all n^3 ordered triples of the weak verdict,
    counted from one bit row of verdicts per point; the others scan
    points and ordered pairs.
    """
    return run_checks(rel, sample, ORDER_AXIOMS, config)


def check_weak_dominance(
    rel: PreferenceRelation,
    sample: Sequence[Raf],
    config: CheckConfig = DEFAULT_CONFIG,
) -> AxiomReport:
    """Strict coordinatewise dominance must be strictly preferred."""
    return run_checks(rel, sample, [AxiomId.WEAK_DOMINANCE], config)


def check_strong_monotonicity(
    rel: PreferenceRelation,
    sample: Sequence[Raf],
    config: CheckConfig = DEFAULT_CONFIG,
) -> AxiomReport:
    """Raising availability at one coordinate, all else equal, must win."""
    return run_checks(rel, sample, [AxiomId.STRONG_MONOTONICITY], config)


def check_strong_dominance(
    rel: PreferenceRelation,
    sample: Sequence[Raf],
    config: CheckConfig = DEFAULT_CONFIG,
) -> AxiomReport:
    """Coordinatewise at-least with any strict gap must be strictly preferred."""
    return run_checks(rel, sample, [AxiomId.STRONG_DOMINANCE], config)


def check_non_compensation(
    rel: PreferenceRelation,
    sample: Sequence[Raf],
    config: CheckConfig = DEFAULT_CONFIG,
) -> AxiomReport:
    """Only the sign pattern of coordinatewise differences may matter.

    Quadruples whose two pairs share the same up-set and down-set must
    receive the same weak verdict.
    """
    return run_checks(rel, sample, [AxiomId.NON_COMPENSATION], config)


def check_axiom2_ms(
    rel: PreferenceRelation,
    sample: Sequence[Raf],
    config: CheckConfig = DEFAULT_CONFIG,
) -> AxiomReport:
    """Single-coordinate substitution consistency.

    Quadruples where both pairs differ only at one shared coordinate with
    identical values there must receive the same weak verdict.
    """
    return run_checks(rel, sample, [AxiomId.AXIOM2_MS], config)


def check_iwa(
    rel: PreferenceRelation,
    sample: Sequence[Raf],
    config: CheckConfig = DEFAULT_CONFIG,
) -> AxiomReport:
    """Independence of worse alternatives.

    If the first pair differs at coordinate k and both pairs show the same
    up/down pattern on coordinates up to k, everything below k is noise:
    the weak verdicts must agree.

    As stated here this is the same predicate as WeakIWA: a quadruple
    qualifies at some k exactly when its pairs first differ at the same
    coordinate in the same direction, and the smallest such k is that
    coordinate. The two checkers report the same counts and witnesses.
    """
    return run_checks(rel, sample, [AxiomId.IWA], config)


def check_weak_iwa(
    rel: PreferenceRelation,
    sample: Sequence[Raf],
    config: CheckConfig = DEFAULT_CONFIG,
) -> AxiomReport:
    """Weak independence of worse alternatives.

    Restricted to quadruples whose pairs first differ at the same k with
    the same strict direction there; the weak verdicts must agree.
    """
    return run_checks(rel, sample, [AxiomId.WEAK_IWA], config)


def run_checks(
    rel: PreferenceRelation,
    sample: Sequence[Raf],
    axioms: Iterable[AxiomId] = ALL_AXIOMS,
    config: CheckConfig = DEFAULT_CONFIG,
) -> AxiomReport:
    """Run the requested axioms in canonical order, merged into one report.

    All scans share one memo of relation verdicts and one pair-signature
    table, built here from the sample. verify's survivor re-audit runs the
    same scans through _run_audit on the table its search was compiled
    from.
    """
    return _run_audit(_Audit(rel, sample), axioms, config)


def _run_audit(
    audit: _Audit, axioms: Iterable[AxiomId], config: CheckConfig = DEFAULT_CONFIG
) -> AxiomReport:
    """run_checks on a prepared audit."""
    requested = set(axioms)
    unknown = requested - set(ALL_AXIOMS)
    if unknown:
        raise RafprefError(f"unknown axioms: {sorted(str(a) for a in unknown)}")
    results = _order_results(audit, config, requested)
    results += [_pair_result(a, audit, config) for a in PAIR_AXIOMS if a in requested]
    results += [_quad_result(a, audit, config) for a in QUAD_AXIOMS if a in requested]
    return AxiomReport(tuple(results), audit.n)


def replay_violation(rel: PreferenceRelation, violation: AxiomViolation) -> bool:
    """Re-evaluate a witness from scratch; True if it still violates.

    Goes through the raf-level hypothesis predicates rather than the
    signature table, so it also cross-checks the table-driven scans.
    """
    w = violation.witness
    axiom = violation.axiom
    compare = rel.compare
    geq = rel.at_least_as_good
    if axiom is AxiomId.REFLEXIVE:
        return compare(w[0], w[0]) is not ComparisonOutcome.INDIFFERENT
    if axiom is AxiomId.MIRROR_CONSISTENT:
        return compare(w[1], w[0]) is not compare(w[0], w[1]).mirrored()
    if axiom is AxiomId.CONNECTED:
        return False
    if axiom is AxiomId.TRANSITIVE:
        a, b, c = w
        return geq(a, b) and geq(b, c) and not geq(a, c)
    if axiom is AxiomId.WEAK_DOMINANCE:
        a, b = w
        return strictly_dominates(a, b) and compare(a, b) is not ComparisonOutcome.FIRST_PREFERRED
    if axiom is AxiomId.STRONG_MONOTONICITY:
        a, b = w
        return (
            single_coordinate_increase(a, b) is not None
            and compare(a, b) is not ComparisonOutcome.FIRST_PREFERRED
        )
    if axiom is AxiomId.STRONG_DOMINANCE:
        a, b = w
        return (
            qualifies_strong_dominance(a, b)
            and compare(a, b) is not ComparisonOutcome.FIRST_PREFERRED
        )
    a, b, c, d = w
    mismatch = geq(a, b) != geq(c, d)
    if axiom is AxiomId.NON_COMPENSATION:
        return qualifies_non_compensation(a, b, c, d) and mismatch
    if axiom is AxiomId.AXIOM2_MS:
        return qualifies_axiom2(a, b, c, d) is not None and mismatch
    if axiom is AxiomId.IWA:
        return bool(iwa_indices(a, b, c, d)) and mismatch
    if axiom is AxiomId.WEAK_IWA:
        return qualifies_weak_iwa(a, b, c, d) is not None and mismatch
    raise RafprefError(f"cannot replay axiom {axiom}")
