"""The abstract's claims, as checked statements on finite samples.

Each test quotes the sentence of the abstract it checks. The headline
claim, that strong monotonicity (SM) and weak independence of worse
alternatives (WeakIWA) leave only the lexicographic order, is pinned
elsewhere: acceptance criteria C9 and C10 in test_acceptance.py and the
verify tests in test_characterization.py. So is SM's equivalence with
strong dominance (SD) on product grids, over every weak order of a few
small grids:
test_characterization.py::TestVerify::test_sm_alone_equals_sd_alone_on_product_grids.
This module adds what those leave out: that each axiom is needed, and
which weak orders WeakIWA alone leaves; that on larger grids every drawn
weak order meeting SM meets SD; and that the equivalence is a property of
product grids.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from rafpref import (
    AxiomId,
    GridSpec,
    RankedRelation,
    TableRelation,
    UtilityRelation,
    default_context,
    enumerate_weak_orders,
    fubini,
    grid_points,
    lex_ranking,
    make_raf,
    replay_violation,
    run_checks,
    table_relation,
    verify_characterization,
)
from rafpref.axioms import _Sample, single_coordinate_increase
from rafpref.characterization import _compile_constraint, _walk

SM = AxiomId.STRONG_MONOTONICITY
SD = AxiomId.STRONG_DOMINANCE
WEAK_IWA = AxiomId.WEAK_IWA
IWA = AxiomId.IWA
NON_COMPENSATION = AxiomId.NON_COMPENSATION
TRANSITIVE = AxiomId.TRANSITIVE

CUBE = grid_points(GridSpec.of([0, Fraction(1, 2), 1], 3))


def lex_reversed_at(k, points):
    """Lex with 1-based coordinate k read downwards, as a rank table."""
    key = {p: tuple(-v if i == k - 1 else v for i, v in enumerate(p.values)) for p in points}
    order = sorted(set(key.values()), reverse=True)
    return table_relation(RankedRelation.from_rank_map({p: order.index(key[p]) for p in points}))


def signed_cut_lex(points):
    """The signed cut lex orders of the points, as rank tuples: pick a cut t
    in 0..d and a direction for each of the first t coordinates, compare
    points lexicographically on those, each read in its direction, and tie
    every pair that agrees on them. There are 2^(d+1) - 1 of them."""
    d = len(points[0].values)
    orders = set()
    for t in range(d + 1):
        for signs in product((1, -1), repeat=t):
            keys = [tuple(s * v for s, v in zip(signs, p.values)) for p in points]
            levels = sorted(set(keys), reverse=True)
            orders.add(tuple(levels.index(k) for k in keys))
    return orders


class TestBothAxiomsAreNeeded:
    """"We provide an axiomatic characterization of lexicographic
    preferences over the set of all random availability functions using
    two assumptions." Neither assumption alone pins lex down: the first two
    tests give a transitive relation that meets one and breaks the other,
    and the third names every weak order that WeakIWA alone leaves."""

    def test_additive_utility_meets_sm_and_breaks_independence(self):
        rel = UtilityRelation(lambda r: sum(r.values))
        report = run_checks(rel, CUBE)
        for axiom in (TRANSITIVE, SM, SD):
            assert report.result_for(axiom).passed, axiom
        counts = {axiom: report.result_for(axiom).violation_count
                  for axiom in (NON_COMPENSATION, IWA, WEAK_IWA)}
        assert counts == {NON_COMPENSATION: 2064, IWA: 43544, WEAK_IWA: 43544}
        for axiom in counts:
            (witness,) = report.result_for(axiom).violations
            assert replay_violation(rel, witness)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_lex_reversed_at_one_coordinate_meets_independence_and_breaks_sm(self, k):
        rel = lex_reversed_at(k, CUBE)
        report = run_checks(rel, CUBE, [TRANSITIVE, SM, NON_COMPENSATION, IWA, WEAK_IWA])
        for axiom in (TRANSITIVE, NON_COMPENSATION, IWA, WEAK_IWA):
            assert report.result_for(axiom).passed, axiom
        sm = report.result_for(SM)
        assert sm.violation_count == 27
        assert replay_violation(rel, sm.violations[0])

    @pytest.mark.parametrize("levels,arity", [
        (["0", "1"], 2), (["0", "1/2", "1"], 2), (["1/5", "1/2", "3/5"], 2),
        (["0", "1"], 3), (["0", "1/3", "2/3", "1"], 2),
    ])
    def test_weak_iwa_alone_leaves_the_signed_cut_lex_orders(self, levels, arity):
        # verify lists only ten survivors, so the set comes from the walk
        # that verify's pruned search drains, fed its compiled WeakIWA groups
        spec = GridSpec.of(levels, arity)
        sample = _Sample(grid_points(spec))
        n = len(sample.points)
        _, groups = _compile_constraint(WEAK_IWA, sample)
        pruned_by = {"WeakIWA": 0}
        survivors = list(_walk(n, None, {"WeakIWA": groups}, pruned_by))
        assert len(survivors) + pruned_by["WeakIWA"] == fubini(n)
        family = signed_cut_lex(sample.points)
        assert len(family) == 2 ** (arity + 1) - 1
        assert len(survivors) == len(family) and set(survivors) == family
        assert lex_ranking(sample.points).ranks in family
        report = verify_characterization(spec, [WEAK_IWA])
        assert report.survivor_count == len(family)


class TestSmIsStrongDominanceOnGridsOnly:
    """"The first assumption is strong monotonicity, which in our framework
    is equivalent to the strong dominance property in microeconomics." On
    a product grid every dominance pair is a chain of single-coordinate
    increases through grid points, and the two leave the same weak orders
    (pinned in test_characterization.py). Off a grid the chain can be
    missing, and SM says less than SD."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.sampled_from([0, Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
                                  Fraction(2, 3), 1]), min_size=2, max_size=4, unique=True),
        st.integers(2, 3),
        st.data(),
    )
    def test_on_a_grid_an_order_meeting_sm_meets_sd(self, levels, arity, data):
        points = grid_points(GridSpec.of(sorted(levels), arity))  # at most 4^3 = 64
        above = {b: {a for a in points if single_coordinate_increase(a, b)} for b in points}
        # best block first; a point may join a block once every point that
        # increases it in one coordinate is placed, so the order meets SM
        ranks, rank = {}, 0
        while len(ranks) < len(points):
            eligible = [p for p in points if p not in ranks and above[p] <= ranks.keys()]
            block = data.draw(st.lists(st.sampled_from(eligible), min_size=1, unique=True))
            ranks.update(dict.fromkeys(block, rank))
            rank += 1
        rel = TableRelation(RankedRelation.from_rank_map(ranks))
        assert run_checks(rel, points, [TRANSITIVE, SM, SD]).passed

    def test_off_grid_sm_leaves_an_order_sd_refuses(self):
        ctx = default_context(2)
        sample = [make_raf(values, ctx) for values in (("0", "1/2"), ("0", "0"), ("1", "1"))]
        orders = list(enumerate_weak_orders(sample))
        assert len(orders) == 13

        def survivors(pair_axiom):
            return [order.chain() for order in orders
                    if run_checks(table_relation(order), sample, [pair_axiom, WEAK_IWA]).passed]

        assert survivors(SM) == ["(1, 1) ≻ (0, 1/2) ≻ (0, 0)", "(0, 1/2) ≻ (0, 0) ≻ (1, 1)"]
        assert survivors(SD) == [lex_ranking(sample).chain()] == ["(1, 1) ≻ (0, 1/2) ≻ (0, 0)"]
