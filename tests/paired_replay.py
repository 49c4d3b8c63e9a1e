"""Paired replay of a fixed run grid against another source tree: a check, not a test.

Runs the same 648 seeded runs with this checkout's ``src/`` and with
``OTHER_SRC`` (say, ``src/`` of the parent commit, unpacked with
``git archive``), one subprocess per tree, and compares every ``RunResult``
field: the config, convergence flag and iteration, Dempster skips, each
agent's steady-state focal items in insertion order, and the trajectory
arrays.  Floats are compared bit for bit.  The grid is 4 operators x
n in {2, 3, 5} x r in {0.02, 0.3, 1} x sigma in {0, 0.1, 0.3} x consensus
on/off x seeds 0-2, with k=30, a 600-iteration cap, a 40-iteration window
and trajectory stride 7.  Pytest does not collect this file.  From the
repository root:

    python tests/paired_replay.py OTHER_SRC

It prints the number of identical runs and the first differences, and exits
1 on any difference.  It takes about 30 s on two cores.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve()
OWN_SRC = HERE.parent.parent / "src"

OPERATORS = ("dempster", "dubois_prade", "yager", "average")
STATES = (2, 3, 5)
RATES = (0.02, 0.3, 1.0)
SIGMAS = (0.0, 0.1, 0.3)
CONSENSUS = (True, False)
SEEDS = (0, 1, 2)
GRID = dict(k=30, max_iterations=600, convergence_window=40, trajectory_stride=7)
SHOWN_DIFFERENCES = 5


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


def emit() -> None:
    """Print one JSON line per run of the grid, from the ``dstcons`` on the path."""
    from dataclasses import asdict

    from dstcons import SimConfig, run

    for op, n, r, sigma, consensus, seed in itertools.product(
        OPERATORS, STATES, RATES, SIGMAS, CONSENSUS, SEEDS
    ):
        result = run(SimConfig(operator=op, n=n, r=r, sigma=sigma,
                               consensus_enabled=consensus, seed=seed, **GRID))
        record = {
            "config": asdict(result.config),
            "converged": result.converged,
            "convergence_iteration": result.convergence_iteration,
            "dempster_skips": result.dempster_skips,
            "steady_state": [[[a, v.hex()] for a, v in m.focal.items()]
                             for m in result.steady_state],
            "trajectory_iterations": result.trajectory_iterations.tolist(),
            "trajectory_bel": _bits(result.trajectory_bel.ravel()),
            "trajectory_bel_shape": list(result.trajectory_bel.shape),
            "trajectory_pl_best": _bits(result.trajectory_pl_best),
        }
        print(json.dumps(record), flush=True)


def replay(src: Path) -> list[dict]:
    """The grid's records from a subprocess that imports ``dstcons`` from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, str(HERE), "--emit"], env=env,
                          capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"replay with {src} failed:\n{done.stderr}")
    return [json.loads(line) for line in done.stdout.splitlines()]


def main(other: Path) -> int:
    with ThreadPoolExecutor(2) as pool:
        own, theirs = pool.map(replay, (OWN_SRC, other))
    if len(own) != len(theirs):
        print(f"run counts differ: {len(own)} here, {len(theirs)} in {other}")
        return 1
    differing = []
    for a, b in zip(own, theirs):
        fields = [name for name in a if a[name] != b.get(name)]
        if fields:
            differing.append((a["config"], fields))
    print(f"{len(own) - len(differing)} of {len(own)} runs identical")
    for config, fields in differing[:SHOWN_DIFFERENCES]:
        print(f"differs in {', '.join(fields)}: {config}")
    return 1 if differing else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--emit"]:
        emit()
    elif len(sys.argv) == 2:
        sys.exit(main(Path(sys.argv[1]).resolve()))
    else:
        sys.exit(__doc__)
