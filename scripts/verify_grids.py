#!/usr/bin/env python3
"""Run the characterization search across the reference grids.

For each grid this prints the full candidate count, how many candidates
each axiom set leaves alive, and whether the survivor set collapses to
the priority-order comparator. The single-axiom rows are the controls:
each axiom alone admits extra orderings, the pair pins lex down uniquely.
The larger grids, of 16 to 81 points, run the pairs only: a control there
has too many survivors to walk.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rafpref import AxiomId, GridSpec, verify_characterization

SM = AxiomId.STRONG_MONOTONICITY
WEAK_IWA = AxiomId.WEAK_IWA
IWA = AxiomId.IWA

GRIDS = [
    (["0", "1"], 2),
    (["1/4", "3/4"], 2),
    (["0", "1"], 3),
    (["0", "1/2", "1"], 2),
]

AXIOM_SETS = [
    [SM],
    [WEAK_IWA],
    [SM, WEAK_IWA],
    [SM, IWA],
]

LARGE_GRIDS = [
    (["0", "1/3", "2/3", "1"], 2),
    (["0", "1/2", "1"], 3),
    (["0", "1"], 6),
    (["0", "1/2", "1"], 4),
]

PAIRS = AXIOM_SETS[2:]


def run() -> None:
    header = f"{'grid':<16} {'axioms':<29} {'candidates':>12} {'survivors':>10}  {'= lex':<5} {'ms':>8}"
    print(header)
    print("-" * len(header))
    rows = [(grid, axiom_set) for grid in GRIDS for axiom_set in AXIOM_SETS]
    rows += [(grid, axiom_set) for grid in LARGE_GRIDS for axiom_set in PAIRS]
    for (levels, arity), axiom_set in rows:
        spec = GridSpec.of(levels, arity)
        started = time.perf_counter()
        rep = verify_characterization(spec, axiom_set)
        elapsed = (time.perf_counter() - started) * 1000
        grid_name = "{" + ",".join(levels) + "}^" + str(arity)
        axioms = "+".join(str(a) for a in rep.axiom_order)
        # the Fubini number of 81 points has 133 digits
        candidates = str(rep.enumerated) if rep.enumerated < 10**12 else f"{rep.enumerated:.3e}"
        print(
            f"{grid_name:<16} {axioms:<29} {candidates:>12} "
            f"{rep.survivor_count:>10}  {'yes' if rep.matches_lex else 'no':<5} {elapsed:>8.1f}"
        )
    print()
    print("survivor chains for the {0,1}^2 controls:")
    for axiom_set in AXIOM_SETS[:2]:
        rep = verify_characterization(GridSpec.of(["0", "1"], 2), axiom_set)
        print(f"  {'+'.join(str(a) for a in rep.axiom_order)}:")
        for ranking in rep.survivors:
            print(f"    {ranking.chain()}")


if __name__ == "__main__":
    argparse.ArgumentParser(description=__doc__).parse_args()
    run()
