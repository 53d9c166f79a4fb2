"""The scripts in scripts/ are second front ends: run each end to end."""

import subprocess
import sys
from pathlib import Path

from rafpref import ALL_AXIOMS

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(name: str) -> list[str]:
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / name)], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_scripts_end_to_end():
    # verify_grids: one row per grid and axiom set, up to the blank line
    lines = _run("verify_grids.py")
    rows = [line.split() for line in lines[2:lines.index("")]]
    verdicts = {(grid, axioms): eq for grid, axioms, _, _, eq, _ in rows}
    assert len(verdicts) == len(rows) == 4 * 4 + 4 * 2
    pairs = ("StrongMonotonicity+WeakIWA", "StrongMonotonicity+IWA")
    controls = ("StrongMonotonicity", "WeakIWA")
    for grid in ("{0,1/3,2/3,1}^2", "{0,1/2,1}^3", "{0,1}^6", "{0,1/2,1}^4"):
        assert all((grid, axioms) in verdicts for axioms in pairs)
    for (grid, axioms), eq in verdicts.items():
        assert axioms in pairs + controls, axioms
        assert eq == ("yes" if axioms in pairs else "no"), (grid, axioms)

    # audit_relations: per grid, a header naming the relations, then one
    # row of cells per axiom
    lines = _run("audit_relations.py")
    headers = [i for i, line in enumerate(lines) if line.split() == ["lex", "mep", "wlog"]]
    assert len(headers) == 3
    names = [str(a) for a in ALL_AXIOMS]
    for h in headers:
        table = [line.split() for line in lines[h + 1:h + 1 + len(names)]]
        assert [row[0] for row in table] == names
        assert all(row[1] == "pass" for row in table), table
