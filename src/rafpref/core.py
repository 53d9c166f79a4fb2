"""Exact-rational availability profiles over a fixed priority order.

Probabilities are ``fractions.Fraction`` throughout and every comparison
reduces to exact integer arithmetic. Floats never enter a comparison path:
the first-difference test that drives the priority-order comparator needs
exact coordinate equality, which binary floating point would corrupt.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Iterable, Mapping, Optional, Sequence, Union

__all__ = [
    "Rational",
    "RafprefError",
    "RationalParseError",
    "OutOfRangeError",
    "ArityMismatchError",
    "ContextMismatchError",
    "InvalidContextError",
    "InvalidGridError",
    "InvalidArityError",
    "parse_rational",
    "format_rational",
    "PriorityContext",
    "Raf",
    "make_raf",
    "require_same_context",
    "first_difference",
    "strictly_dominates",
    "pointwise_geq",
    "GridSpec",
    "default_context",
    "grid_points",
]

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

RationalLike = Union[Fraction, int, str]


class RafprefError(Exception):
    """Base class for every error this package raises deliberately."""


class RationalParseError(RafprefError, ValueError):
    """String or value is not an exact rational literal."""


class OutOfRangeError(RafprefError, ValueError):
    """Availability value outside [0, 1]."""


class ArityMismatchError(RafprefError, ValueError):
    """Value count does not match the context's number of alternatives."""


class ContextMismatchError(RafprefError, ValueError):
    """Binary operation applied to profiles from different contexts."""


class InvalidContextError(RafprefError, ValueError):
    """Priority context violates its invariants."""


class InvalidGridError(RafprefError, ValueError):
    """Grid specification violates its invariants."""


class InvalidArityError(InvalidGridError):
    """Grid arity not an integer, or below two."""


_FRACTION_RE = re.compile(r"^([+-]?\d+)/(\d+)$", re.ASCII)
# A digit run matches in one way only: with "\d+\.?\d*" a failed match
# would retry every split of the run, quadratic in its length.
_DECIMAL_RE = re.compile(r"^[+-]?(?:\d+(?:\.\d*)?|\.\d+)$", re.ASCII)


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q`` (with q > 0) or a finite decimal, exactly.

    Decimals convert without rounding ("0.8" is 4/5). Exponents and any
    other float notation are rejected so no inexactness can sneak in, and
    so is a literal with more digits than ``int()`` converts. An error
    quotes at most the first 40 characters of the literal's repr.
    """
    s = text.strip()
    m = _FRACTION_RE.match(s)
    if not (m or _DECIMAL_RE.match(s)):
        raise RationalParseError(
            f"not a rational literal: {text!r:.40} (use p/q or a finite decimal)"
        )
    try:
        return Fraction(int(m.group(1)), int(m.group(2))) if m else Fraction(s)
    except ZeroDivisionError:
        raise RationalParseError(f"zero denominator in {text!r:.40}") from None
    except ValueError:
        raise RationalParseError(
            f"more than {sys.get_int_max_str_digits()} digits in a rational literal"
        ) from None


def format_rational(value: Fraction) -> str:
    """Lowest-terms string form; parse_rational(format_rational(q)) == q."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _exact(value) -> bool:
    """Whether value is an int or a Fraction, not a bool: the values that a
    profile or a grid holds."""
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def coerce_rational(value: RationalLike) -> Fraction:
    """Accept Fraction, int, or rational string. Floats are refused."""
    if _exact(value):
        return value if isinstance(value, Fraction) else Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, float):
        raise RationalParseError(
            f"refusing float {value!r}: pass an exact rational instead"
        )
    raise RationalParseError(f"cannot interpret {value!r} as an exact rational")


@dataclass(frozen=True)
class PriorityContext:
    """The alternatives in decreasing priority order, with optional pay-offs.

    Position i holds the alternative of priority rank i+1. All profiles
    built against one context index their values identically, and mixing
    contexts in any binary operation is a hard error rather than a silent
    reindexing.
    """

    alternatives: tuple[str, ...]
    payoffs: Optional[tuple[Fraction, ...]] = None

    def __post_init__(self) -> None:
        if len(self.alternatives) < 2:
            raise InvalidContextError("a context needs at least two alternatives")
        if len(set(self.alternatives)) != len(self.alternatives):
            raise InvalidContextError("alternative labels must be pairwise distinct")
        if self.payoffs is not None:
            if len(self.payoffs) != len(self.alternatives):
                raise InvalidContextError(
                    f"expected {len(self.alternatives)} payoffs, got {len(self.payoffs)}"
                )
            for alt, pay in zip(self.alternatives, self.payoffs):
                if pay < ZERO:
                    raise InvalidContextError(f"payoff for {alt!r} must be nonnegative")

    @classmethod
    def of(
        cls,
        alternatives: Sequence[str],
        payoffs: Optional[Mapping[str, RationalLike]] = None,
    ) -> "PriorityContext":
        """Build a context, accepting payoffs as a label-keyed mapping."""
        alts = tuple(alternatives)
        pay: Optional[tuple[Fraction, ...]] = None
        if payoffs is not None:
            missing = [a for a in alts if a not in payoffs]
            if missing:
                raise InvalidContextError(f"payoff missing for {missing[0]!r}")
            extra = [a for a in payoffs if a not in alts]
            if extra:
                raise InvalidContextError(f"payoff for unknown alternative {extra[0]!r}")
            pay = tuple(coerce_rational(payoffs[a]) for a in alts)
        return cls(alts, pay)

    @property
    def arity(self) -> int:
        return len(self.alternatives)

    def index_of(self, label: str) -> int:
        try:
            return self.alternatives.index(label)
        except ValueError:
            raise InvalidContextError(f"unknown alternative {label!r}") from None


@dataclass(frozen=True, repr=False)
class Raf:
    """One availability profile: an exact probability per alternative.

    The values' integer ratios are computed once, on construction, over
    one common denominator: values[i] == numerators[i] / denominator, the
    denominator being the least common multiple of the values' own. Two
    profiles then compare at a coordinate by integer cross-multiplication,
    with no Fraction arithmetic; lex_compare and the sample tables of the
    axiom checkers read them. Neither is an argument of the constructor,
    and neither takes part in ==, hash or repr.
    """

    context: PriorityContext
    values: tuple[Fraction, ...]
    numerators: tuple[int, ...] = field(init=False, repr=False, compare=False)
    denominator: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.values) != self.context.arity:
            raise ArityMismatchError(
                f"expected {self.context.arity} values, got {len(self.values)}"
            )
        for v in self.values:
            if not _exact(v):
                raise RationalParseError(f"availability {v!r:.40} is not an int or a Fraction")
        ratios = [v.as_integer_ratio() for v in self.values]
        for v, (p, q) in zip(self.values, ratios):
            if not 0 <= p <= q:  # q > 0
                raise OutOfRangeError(
                    f"availability {format_rational(v)} lies outside [0, 1]"
                )
        den = math.lcm(*[q for _, q in ratios])
        object.__setattr__(self, "numerators", tuple(p * (den // q) for p, q in ratios))
        object.__setattr__(self, "denominator", den)

    def __hash__(self) -> int:
        # Computed once and kept: hashing the values again would hash every
        # Fraction again. Equal profiles have equal values, so this agrees
        # with __eq__; Fraction hashes are not salted, so the kept hash
        # stays valid through pickling and copying.
        try:
            return self._hash
        except AttributeError:
            h = hash(self.values)
            object.__setattr__(self, "_hash", h)
            return h

    def value_of(self, label: str) -> Fraction:
        return self.values[self.context.index_of(label)]

    def __str__(self) -> str:
        return "(" + ", ".join(format_rational(v) for v in self.values) + ")"

    def __repr__(self) -> str:
        return f"Raf{self}"


def make_raf(values: Iterable[RationalLike], ctx: PriorityContext) -> Raf:
    """Validated profile constructor; accepts ints, fractions, or strings."""
    return Raf(ctx, tuple(coerce_rational(v) for v in values))


def require_same_context(a: Raf, b: Raf) -> None:
    """Refuse two profiles built on different contexts. Profiles built
    together share one context object, so identity is checked first."""
    if a.context is not b.context and a.context != b.context:
        raise ContextMismatchError(
            "profiles built on different contexts cannot be compared"
        )


def first_difference(a: Raf, b: Raf) -> Optional[int]:
    """1-based index of the highest-priority coordinate where a and b differ.

    Returns None exactly when the profiles are equal; symmetric in its
    arguments.
    """
    require_same_context(a, b)
    for i, (x, y) in enumerate(zip(a.values, b.values)):
        if x != y:
            return i + 1
    return None


def strictly_dominates(a: Raf, b: Raf) -> bool:
    """True when a exceeds b at every alternative."""
    require_same_context(a, b)
    return all(x > y for x, y in zip(a.values, b.values))


def pointwise_geq(a: Raf, b: Raf) -> bool:
    """True when a is at least b at every alternative."""
    require_same_context(a, b)
    return all(x >= y for x, y in zip(a.values, b.values))


@dataclass(frozen=True)
class GridSpec:
    """A finite product grid: the same sorted levels at every coordinate."""

    levels: tuple[Fraction, ...]
    arity: int

    def __post_init__(self) -> None:
        if not self.levels:
            raise InvalidGridError("a grid needs at least one level")
        for v in self.levels:
            if not _exact(v):
                raise InvalidGridError(f"level {v!r:.40} is not an int or a Fraction")
            if v < ZERO or v > ONE:
                raise InvalidGridError(f"level {format_rational(v)} outside [0, 1]")
        for lo, hi in zip(self.levels, self.levels[1:]):
            if lo >= hi:
                raise InvalidGridError("levels must be strictly increasing")
        if type(self.arity) is not int:
            raise InvalidArityError(f"arity {self.arity!r:.40} is not an int")
        if self.arity < 2:
            raise InvalidArityError("arity must be at least 2")

    @classmethod
    def of(cls, levels: Iterable[RationalLike], arity: int) -> "GridSpec":
        """Normalizing constructor: coerces, sorts, and deduplicates levels."""
        distinct = sorted({coerce_rational(v) for v in levels})
        return cls(tuple(distinct), arity)

    @property
    def size(self) -> int:
        return len(self.levels) ** self.arity

    def within(self, bound: int) -> bool:
        """Whether points and arity are both at most bound (one level gives
        one point at any arity). No power past bound is taken: two or more
        levels exceed any bound once the arity passes its bit length."""
        return self.arity <= bound and (
            len(self.levels) ** min(self.arity, bound.bit_length() + 1) <= bound
        )

    def size_text(self) -> str:
        """The point count in decimal, or as levels^arity past 64 bits."""
        if (len(self.levels) - 1).bit_length() * self.arity <= 64:
            return str(self.size)
        return f"{len(self.levels)}^{self.arity}"


def default_context(arity: int) -> PriorityContext:
    """Anonymous context x1..xK, used when only the grid geometry matters."""
    return PriorityContext(tuple(f"x{i}" for i in range(1, arity + 1)))


def grid_points(spec: GridSpec, ctx: Optional[PriorityContext] = None) -> list[Raf]:
    """Every grid point as a profile, in a fixed deterministic order.

    The order is lexicographic over level positions with the first
    (highest-priority) coordinate varying slowest, so repeated calls and
    separate processes enumerate identically.
    """
    if ctx is None:
        ctx = default_context(spec.arity)
    elif ctx.arity != spec.arity:
        raise ArityMismatchError(
            f"context has {ctx.arity} alternatives but the grid arity is {spec.arity}"
        )
    return [Raf(ctx, vals) for vals in product(spec.levels, repeat=spec.arity)]
