"""Preference relations over availability profiles.

Every relation is a total three-valued comparator. The contract requires
reflexivity (comparing a profile with itself is Indifferent) and mirror
consistency (swapping the arguments mirrors the verdict) but deliberately
does not promise transitivity: the axiom checkers must be able to audit
broken relations, so the contract is the weakest structure they consume.

The three utility relations (mep, wlog and a caller-supplied utility)
evaluate the utility once per distinct profile per relation instance and
compare the stored integer ratios, so a utility must be a pure function of
the profile, and its value a number with an exact integer ratio (an int or
a Fraction, say): any other value is refused with a RafprefError.

Every relation shipped here is a total preorder given by a key (the
profile in priority order, a utility, a table's rank), so each also
answers the ranks hook: one sort of exact int keys ranks a whole sample.
"""

from __future__ import annotations

import abc
import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple, Optional, Sequence

from .core import (
    PriorityContext,
    Raf,
    RafprefError,
    require_same_context,
)

__all__ = [
    "ComparisonOutcome",
    "at_least_as_good",
    "PreferenceRelation",
    "MissingPayoffsError",
    "WeightArityMismatchError",
    "InvalidWeightError",
    "UnknownPointError",
    "NonContiguousRanksError",
    "lex_compare",
    "mep_utility",
    "utility_compare",
    "wlog_compare",
    "MAX_WEIGHT",
    "WeightVector",
    "LexicographicRelation",
    "MaxExpectedPayoffRelation",
    "WeightedLogProductRelation",
    "UtilityRelation",
    "RankedRelation",
    "TableRelation",
    "table_relation",
]


class MissingPayoffsError(RafprefError):
    """Pay-off based operation on a context without pay-offs."""


class WeightArityMismatchError(RafprefError):
    """Weight vector does not align with the context."""


class InvalidWeightError(RafprefError):
    """Weight outside the positive integers."""


class UnknownPointError(RafprefError):
    """Table relation queried with a point outside its domain."""


class NonContiguousRanksError(RafprefError):
    """Rank table is malformed (gaps, duplicates, or missing points)."""


class ComparisonOutcome(enum.Enum):
    """Three-valued verdict of comparing two profiles."""

    FIRST_PREFERRED = "first_preferred"
    SECOND_PREFERRED = "second_preferred"
    INDIFFERENT = "indifferent"

    def mirrored(self) -> "ComparisonOutcome":
        """The verdict expected when the two arguments are swapped."""
        if self is _FIRST:
            return _SECOND
        if self is _SECOND:
            return _FIRST
        return _INDIFFERENT

    def __str__(self) -> str:
        return self.value


# The members bound to names: read as class attributes, they cost an enum
# lookup on every verdict.
_FIRST = ComparisonOutcome.FIRST_PREFERRED
_SECOND = ComparisonOutcome.SECOND_PREFERRED
_INDIFFERENT = ComparisonOutcome.INDIFFERENT


def at_least_as_good(outcome: ComparisonOutcome) -> bool:
    """Weak verdict: the first argument is at least as good as the second."""
    return outcome is not _SECOND


def _outcome_of(x, y) -> ComparisonOutcome:
    if x > y:
        return _FIRST
    if x < y:
        return _SECOND
    return _INDIFFERENT


def _dense_ranks(keys: Iterable[Hashable]) -> list[int]:
    """Rank 0 for the largest key, one rank per distinct key: one sort."""
    keys = list(keys)
    rank = {key: r for r, key in enumerate(sorted(set(keys), reverse=True))}
    return list(map(rank.__getitem__, keys))


def _require_one_context(points: Sequence[Raf]) -> None:
    """What compare's require_same_context refuses on some pair of points."""
    for a in points[1:]:
        require_same_context(points[0], a)


class PreferenceRelation(abc.ABC):
    """Comparator contract shared by every relation and checker.

    ranks is an optional hook for relations that are total preorders given
    by a key. Either it returns None, as here, or one non-negative int per
    point, best lowest, such that compare(a, b) is the order of a's and
    b's ranks: Indifferent when they are equal, FirstPreferred when a's is
    lower. It raises what compare raises on any pair of the points. The
    axiom audits trust the hook only where it is defined on the class that
    defines compare or below it: a subclass that overrides compare but not
    ranks is asked pair by pair, through compare.
    """

    name: str = "relation"

    @abc.abstractmethod
    def compare(self, a: Raf, b: Raf) -> ComparisonOutcome:
        ...

    def ranks(self, points: Sequence[Raf]) -> Optional[list[int]]:
        return None

    def at_least_as_good(self, a: Raf, b: Raf) -> bool:
        return at_least_as_good(self.compare(a, b))


def lex_compare(a: Raf, b: Raf) -> ComparisonOutcome:
    """Priority-order comparison: decided at the first differing coordinate.

    Indifferent exactly when the profiles are equal; otherwise the profile
    with the larger availability at the first difference wins, regardless
    of every lower-priority coordinate.

    This is first_difference's rule on the profiles' integer ratios, with
    no Fraction compared: each coordinate is decided by cross-multiplying,
    a's numerator times b's denominator against b's numerator times a's.
    Over one shared denominator that is the order of the two numerator
    tuples, which compare in one step.
    """
    require_same_context(a, b)
    x, y = a.numerators, b.numerators
    p, q = a.denominator, b.denominator
    if p == q:
        if x == y:
            return _INDIFFERENT
        return _FIRST if x > y else _SECOND
    for u, v in zip(x, y):
        u *= q
        v *= p
        if u != v:
            return _FIRST if u > v else _SECOND
    return _INDIFFERENT


def mep_utility(a: Raf) -> Fraction:
    """Largest expected pay-off: max over alternatives of payoff * availability."""
    payoffs = a.context.payoffs
    if payoffs is None:
        raise MissingPayoffsError("context carries no pay-offs")
    return max(p * v for p, v in zip(payoffs, a.values))


def utility_compare(
    a: Raf, b: Raf, utility: Callable[[Raf], Fraction]
) -> ComparisonOutcome:
    """Order two profiles by exact comparison of their utility values.

    Equal utilities map to Indifferent; that is forced by the definition
    of a numerical representation, not a tie-breaking choice.
    """
    require_same_context(a, b)
    return _outcome_of(utility(a), utility(b))


# Exact powers grow with the weight. A Transitive check of wlog on the
# 1,024 points of {1/3, 2/3}^10 took 2.5 s with every weight 1, 4.6 s at
# 100 and 77 s at 1,000 (CPython 3.11 on a 2-core Xeon).
MAX_WEIGHT = 100


@dataclass(frozen=True)
class WeightVector:
    """One positive integer weight per alternative, in context order, at
    most MAX_WEIGHT.

    Integer weights keep the weighted product comparison in exact integer
    arithmetic; rational exponents would drag in radicals.
    """

    context: PriorityContext
    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.weights) != self.context.arity:
            raise WeightArityMismatchError(
                f"expected {self.context.arity} weights, got {len(self.weights)}"
            )
        for alt, w in zip(self.context.alternatives, self.weights):
            if not isinstance(w, int) or isinstance(w, bool) or w < 1:
                raise InvalidWeightError(f"weight for {alt!r} must be a positive integer")
            if w > MAX_WEIGHT:
                raise InvalidWeightError(f"weight for {alt!r} above {MAX_WEIGHT} is refused")


def _weighted_product(a: Raf, weights: WeightVector) -> Fraction:
    """The exact product of a's coordinates, each to the power of its weight."""
    return math.prod((v ** w for v, w in zip(a.values, weights.weights)), start=Fraction(1))


def _require_weights_context(a: Raf, weights: WeightVector) -> None:
    if weights.context is not a.context and weights.context != a.context:
        raise WeightArityMismatchError("weights built on a different context")


def wlog_compare(a: Raf, b: Raf, weights: WeightVector) -> ComparisonOutcome:
    """Order by the weighted product of coordinate availabilities.

    Wherever all coordinates are positive this matches ordering by the
    weighted sum of logarithms, since log is strictly increasing, but the
    product comparison needs no logarithms and stays exact. A zero
    coordinate zeroes the whole product, so every profile touching zero
    falls into one shared bottom indifference class. That boundary
    behaviour intentionally breaks strong monotonicity and gives the
    axiom checkers a designed negative control.
    """
    require_same_context(a, b)
    _require_weights_context(a, weights)
    return _outcome_of(_weighted_product(a, weights), _weighted_product(b, weights))


@dataclass(frozen=True)
class LexicographicRelation(PreferenceRelation):
    """Stateless comparator backed by lex_compare."""

    name: str = "lex"

    def compare(self, a: Raf, b: Raf) -> ComparisonOutcome:
        return lex_compare(a, b)

    def ranks(self, points: Sequence[Raf]) -> list[int]:
        """Ranks of the profiles' numerator tuples over one common
        denominator of the points, which order as lex_compare does."""
        _require_one_context(points)
        den = math.lcm(*{a.denominator for a in points})
        return _dense_ranks(
            a.numerators if a.denominator == den
            else tuple(p * (den // a.denominator) for p in a.numerators)
            for a in points
        )


@dataclass(frozen=True)
class _MemoizedUtilityRelation(PreferenceRelation):
    """Compares profiles by a utility evaluated once per distinct profile.

    The memo maps each profile this instance has compared to its utility's
    integer ratio (numerator, denominator > 0), so that a pair is decided
    by one cross-multiplication of ints rather than by Fraction comparisons,
    which go through the numbers.Rational checks each time. A utility value
    with no exact integer ratio raises RafprefError. The memo takes no part
    in repr, == or hash. compare checks each pair's contexts, and _utility
    checks a profile alone before the memo keeps it: a profile of another
    context is unequal to every key, so it misses the memo and is checked.
    ranks makes the same checks and ranks the memoized ratios as ints over
    one common denominator.
    """

    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @abc.abstractmethod
    def _utility(self, a: Raf) -> Fraction:
        ...

    def _ratio(self, a: Raf) -> tuple[int, int]:
        """a's utility as its integer ratio, kept in the memo."""
        u = self._utility(a)
        try:  # a NaN or an infinity raises ValueError or OverflowError
            ratio = self._memo[a] = u.as_integer_ratio()
        except (AttributeError, TypeError, ValueError, OverflowError):
            raise RafprefError(f"relation {self.name!r}: the utility of {a} is "
                               f"{u!r:.40}, which has no exact integer ratio") from None
        return ratio

    def compare(self, a: Raf, b: Raf) -> ComparisonOutcome:
        require_same_context(a, b)
        memo = self._memo
        ra = memo.get(a) or self._ratio(a)
        rb = memo.get(b) or self._ratio(b)
        return _outcome_of(ra[0] * rb[1], rb[0] * ra[1])

    def ranks(self, points: Sequence[Raf]) -> list[int]:
        _require_one_context(points)
        memo = self._memo
        ratios = [memo.get(a) or self._ratio(a) for a in points]
        den = math.lcm(*{q for _, q in ratios})
        return _dense_ranks(p * (den // q) for p, q in ratios)


@dataclass(frozen=True)
class MaxExpectedPayoffRelation(_MemoizedUtilityRelation):
    """Utility relation ranking profiles by their largest expected pay-off."""

    name: str = "mep"

    def _utility(self, a: Raf) -> Fraction:
        return mep_utility(a)


@dataclass(frozen=True)
class WeightedLogProductRelation(_MemoizedUtilityRelation):
    """Utility relation backed by the exact weighted product comparison."""

    weights: WeightVector
    name: str = "wlog"

    def _utility(self, a: Raf) -> Fraction:
        _require_weights_context(a, self.weights)
        return _weighted_product(a, self.weights)


@dataclass(frozen=True)
class UtilityRelation(_MemoizedUtilityRelation):
    """Generic numerical representation: compare by a caller-supplied utility.

    The utility is evaluated once per distinct profile per instance and
    its value reused, so it must be a pure function of the profile. Its
    value must have an exact integer ratio, as an int or a Fraction has;
    compare raises RafprefError on one that has none.
    """

    utility: Callable[[Raf], Fraction]
    name: str = "utility"

    def _utility(self, a: Raf) -> Fraction:
        return self.utility(a)


class RankedRelation(NamedTuple):
    """A total preorder on a finite point set, as an ordered partition.

    rank 0 is the most preferred block and equal rank means indifferent.
    The bare constructor trusts its inputs so bulk enumeration stays
    cheap; use from_rank_map (or validate) for anything user-supplied.
    """

    domain: tuple[Raf, ...]
    ranks: tuple[int, ...]

    @classmethod
    def from_rank_map(cls, ranks: Mapping[Raf, int]) -> "RankedRelation":
        rel = cls(tuple(ranks), tuple(ranks[p] for p in ranks))
        rel.validate()
        return rel

    def validate(self) -> "RankedRelation":
        if not self.domain:
            raise NonContiguousRanksError("empty ranking")
        if len(self.domain) != len(self.ranks):
            raise NonContiguousRanksError("one rank per point required")
        if len(set(self.domain)) != len(self.domain):
            raise NonContiguousRanksError("duplicate points in ranking domain")
        if set(self.ranks) != set(range(max(self.ranks) + 1)):
            raise NonContiguousRanksError("ranks must cover 0..m without gaps")
        return self

    def rank_of(self, point: Raf) -> int:
        try:
            return self.ranks[self.domain.index(point)]
        except ValueError:
            raise UnknownPointError(f"point {point} not in ranking domain") from None

    def blocks(self) -> tuple[tuple[Raf, ...], ...]:
        out: list[list[Raf]] = [[] for _ in range(max(self.ranks) + 1)]
        for point, rank in zip(self.domain, self.ranks):
            out[rank].append(point)
        return tuple(tuple(block) for block in out)

    def chain(self) -> str:
        """Human-readable ordering, e.g. "(1, 1) ≻ (1, 0) ∼ (0, 1) ≻ (0, 0)"."""
        return " ≻ ".join(
            " ∼ ".join(str(p) for p in block) for block in self.blocks()
        )


class TableRelation(PreferenceRelation):
    """Comparator backed by an explicit rank table on a finite domain."""

    name = "table"

    def __init__(self, ranking: RankedRelation) -> None:
        ranking.validate()
        self.ranking = ranking
        self._rank = dict(zip(ranking.domain, ranking.ranks))

    def compare(self, a: Raf, b: Raf) -> ComparisonOutcome:
        ra, rb = self.ranks((a, b))
        # lower rank is better
        return _outcome_of(rb, ra)

    def ranks(self, points: Sequence[Raf]) -> list[int]:
        try:
            return [self._rank[a] for a in points]
        except KeyError as missing:
            raise UnknownPointError(
                f"point {missing.args[0]} not in table domain"
            ) from None


def table_relation(ranks: RankedRelation) -> TableRelation:
    """Wrap a validated rank table as a relation."""
    return TableRelation(ranks)
