"""Paired replay of a fixed run grid against another source tree: a check, not a test.

Runs the same 648 seeded runs with this checkout's ``src/`` and with
``OTHER_SRC`` (say, ``src/`` of the parent commit, unpacked with
``git archive``), in ``studies.run_cells`` children, and compares every
``RunResult`` field: the config, convergence flag and iteration, Dempster
skips, each agent's steady-state focal items in insertion order (in ascending
order for averaging, whose run lists them so), and the trajectory arrays.  Floats are compared bit for bit.  The grid is 216 sweep
cells of 3 runs (4 operators x n in {2, 3, 5} x r in {0.02, 0.3, 1} x sigma in
{0, 0.1, 0.3} x consensus on/off) at root seed 0, with k=30, a 600-iteration
cap, a 40-iteration window and trajectory stride 7.  Pytest does not collect
this file.  From the repository root:

    python tests/paired_replay.py OTHER_SRC

It prints the number of identical runs and the first differences, and exits
1 on any difference.  It takes about 50 s, or 25 s with DSTCONS_WORKERS=2.
"""

import itertools
import sys
from pathlib import Path

import studies

CELLS = [
    (*point, 3) for point in itertools.product(
        ("dempster", "dubois_prade", "yager", "average"), (2, 3, 5), (0.02, 0.3, 1.0),
        (0.0, 0.1, 0.3), (True, False))
]
GRID = dict(k=30, max_iterations=600, convergence_window=40, trajectory_stride=7)
SHOWN_DIFFERENCES = 5


def replay(other: Path, cells=CELLS) -> int:
    """Report how the runs of ``cells`` on ``other`` differ from this checkout's; 1 if any do."""
    own, theirs = (studies.run_cells(cells, 0, src=src, exact=True, **GRID)
                   for src in (studies.SRC, other))
    runs = [pair for c in cells for pair in zip(own[c], theirs[c], strict=True)]
    differing = [(a["config"], fields) for a, b in runs
                 if (fields := [name for name in a if a[name] != b.get(name)])]
    print(f"{len(runs) - len(differing)} of {len(runs)} runs identical")
    for config, fields in differing[:SHOWN_DIFFERENCES]:
        print(f"differs in {', '.join(fields)}: {config}")
    return 1 if differing else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(replay(Path(sys.argv[1]).resolve()))
