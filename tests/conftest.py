from fractions import Fraction

import pytest
from hypothesis import strategies as st

from rafpref import GridSpec, PriorityContext, grid_points, make_raf


def pytest_collection_modifyitems(items):
    """Mark fresh_tables every test that takes the fixture of that name, so
    that `-m fresh_tables` runs them all in a process of their own."""
    for item in items:
        if "fresh_tables" in getattr(item, "fixturenames", ()):
            item.add_marker(pytest.mark.fresh_tables)


@pytest.fixture
def money_ctx():
    """The $40/$10 context with pay-offs, priority on $40."""
    return PriorityContext.of(("$40", "$10"), {"$40": 40, "$10": 10})


@pytest.fixture
def raf_a(money_ctx):
    return make_raf(("1/5", "4/5"), money_ctx)


@pytest.fixture
def raf_b(money_ctx):
    return make_raf(("1/10", "9/10"), money_ctx)


@pytest.fixture
def unit_square():
    """The {0, 1}^2 grid on the anonymous context."""
    return grid_points(GridSpec.of([0, 1], 2))


@pytest.fixture
def nine_grid():
    """The {0, 1/2, 1}^2 grid on the anonymous context."""
    return grid_points(GridSpec.of([0, Fraction(1, 2), 1], 2))


def rationals01(max_denominator: int = 12):
    return st.fractions(
        min_value=0, max_value=1, max_denominator=max_denominator
    )


def raf_values(arity: int, max_denominator: int = 12):
    return st.tuples(*([rationals01(max_denominator)] * arity))
