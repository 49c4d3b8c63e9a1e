"""The four benchmark workloads: what one round of operations is, built from a seed.

A round is a fixed list of operations.  A measured run repeats whole rounds
until its time is up, so every run attempts the same operations in the same
proportions.  Round ``i`` of a run with ``--seed s`` uses the root seed
``s * ROUND_STRIDE + i``; the same seed therefore gives the same inputs.

In-process workloads (``headline``, ``high_rate``, ``many_states``): one
operation is one ``run_sweep`` over one cell with ``workers=1``.

``cli_grid``: one operation is one ``dstcons`` command through the CLI's
entry point: a ``sweep --workers 1`` over a grid of many small cells, or a
``fixedpoints`` report.  The same sweep through a pool of ``pool_workers``
processes is run once per measured run, untimed, and must write the same
bytes.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

ROUND_STRIDE = 100_000
ALL_OPERATORS = ("average", "dempster", "dubois_prade", "yager")
# `python -m dstcons.cli` has no __main__ guard and does nothing, and no
# console script is installed, so the CLI is entered through main() directly.
CLI_ENTRY = "from dstcons.cli import main; main()"


@dataclass(frozen=True)
class Cell:
    operator: str
    n: int
    r: float
    sigma: float
    runs: int = 1  # runs per cell, i.e. per operation


@dataclass(frozen=True)
class InProcess:
    """A workload whose operations are single-cell ``run_sweep`` calls."""

    name: str
    cells: tuple[Cell, ...]
    k: int = 100
    max_iterations: int = 5000
    # Fixed number of rounds for the traced run, so its counts repeat exactly.
    trace_rounds: int = 1

    def spec(self, cell: Cell, root_seed: int):
        from dstcons import SweepSpec

        return SweepSpec(
            operators=(cell.operator,),
            n_values=(cell.n,),
            k=self.k,
            r_values=(cell.r,),
            sigma_values=(cell.sigma,),
            runs_per_cell=cell.runs,
            max_iterations=self.max_iterations,
            root_seed=root_seed,
        )

    def round_specs(self, root_seed: int) -> list:
        return [self.spec(cell, root_seed) for cell in self.cells]


@dataclass(frozen=True)
class CliGrid:
    """A workload whose operations are ``dstcons sweep`` and ``dstcons fixedpoints``."""

    name: str
    operators: tuple[str, ...]
    n_values: tuple[int, ...]
    r_values: tuple[float, ...]
    sigma_values: tuple[float, ...]
    runs_per_cell: int
    k: int
    max_iterations: int
    convergence_window: int
    fixedpoint_states: int
    # Workers of the untimed pooled rerun; the timed sweep runs at one worker,
    # because a wall spread over both of the host's two vCPUs is not corrected
    # for host speed by a calibration taken on one (see hostspeed).
    pool_workers: int = 2
    trace_rounds: int = 1

    def config_text(self) -> str:
        def join(values):
            return ", ".join(str(v) for v in values)

        return (
            f"operators = {join(self.operators)}\n"
            f"n_values = {join(self.n_values)}\n"
            f"k = {self.k}\n"
            f"r_values = {join(self.r_values)}\n"
            f"sigma_values = {join(self.sigma_values)}\n"
            f"runs_per_cell = {self.runs_per_cell}\n"
            f"max_iterations = {self.max_iterations}\n"
            f"convergence_window = {self.convergence_window}\n"
            "baselines = true\n"
        )

    def sweep_args(self, config: Path, root_seed: int, out: Path, workers: int) -> list[str]:
        return ["sweep", "--config", str(config), "--seed", str(root_seed),
                "--workers", str(workers), "--out", str(out)]

    def fixedpoints_args(self, out: Path) -> list[str]:
        return ["fixedpoints", "--states", str(self.fixedpoint_states), "--out", str(out)]


# Average runs to the cap (about 0.6 s); Dempster converges in about 500
# iterations and D&P and Yager in about 900, so 10 and 5 of their runs make
# operations of about the same length, which keeps the median operation steady.
HEADLINE = InProcess(
    "headline",
    (Cell("average", 3, 0.05, 0.1, runs=1), Cell("dempster", 3, 0.05, 0.1, runs=10),
     Cell("dubois_prade", 3, 0.05, 0.1, runs=5), Cell("yager", 3, 0.05, 0.1, runs=5)),
    trace_rounds=4,
)
# Capped at 300 iterations: uncapped, a run's length at r=1 varies with its
# seed from about 150 to 1100 iterations, and a 20-second run holds too few
# runs to average that out.  Every D&P and Yager run reaches the cap.
HIGH_RATE = InProcess(
    "high_rate",
    # Dempster converges in about 170 iterations, so two of its runs make an
    # operation of about the length of one capped D&P or Yager run.
    (Cell("dempster", 3, 1.0, 0.1, runs=2), Cell("dubois_prade", 3, 1.0, 0.1),
     Cell("yager", 3, 1.0, 0.1)),
    max_iterations=300,
    trace_rounds=6,
)
# n=8 rather than the paper's n=10: a D&P run at n=10 costs 0.35-2.9 s
# depending on how far its focal sets grow with the seed (coefficient of
# variation 0.7), which no 20-second run can average; at n=8 it is
# 0.46 s +- 34%, still with up to 255 focal sets per agent.  Two Yager runs
# make an operation of about the same length as one D&P run, which keeps the
# median operation inside one distribution.
MANY_STATES = InProcess(
    "many_states",
    (Cell("dubois_prade", 8, 0.05, 0.0, runs=1), Cell("yager", 8, 0.05, 0.0, runs=2)),
    trace_rounds=8,
)
# 24 cells of one run each plus their evidence-only baselines (48 runs): at
# one worker the sweep takes about as long as `fixedpoints --states 8` (both
# about 2 s), so the median operation falls where the two overlap.
CLI_GRID = CliGrid(
    "cli_grid",
    operators=ALL_OPERATORS,
    n_values=(3, 4, 5),
    r_values=(0.5,),
    sigma_values=(0.0, 0.2),
    runs_per_cell=1,
    k=20,
    max_iterations=400,
    convergence_window=50,
    fixedpoint_states=8,
)

WORKLOADS = {w.name: w for w in (HEADLINE, HIGH_RATE, MANY_STATES, CLI_GRID)}

# Tiny versions of the same workloads: every operation and check, in seconds.
SMOKE = {
    "headline": InProcess("headline", HEADLINE.cells, k=20, max_iterations=150),
    "high_rate": InProcess("high_rate", HIGH_RATE.cells, k=20, max_iterations=60),
    "many_states": InProcess("many_states", MANY_STATES.cells, k=20, max_iterations=150),
    "cli_grid": CliGrid(
        "cli_grid", ("dempster", "yager"), (3,), (0.5,), (0.1,),
        runs_per_cell=2, k=10, max_iterations=60, convergence_window=20,
        fixedpoint_states=3,
    ),
}


def get(name: str, smoke: bool = False):
    return (SMOKE if smoke else WORKLOADS)[name]


def root_seed(seed: int, round_index: int) -> int:
    return seed * ROUND_STRIDE + round_index


def build(workload, seed: int, workdir: Path):
    """The set-up a user does before the first operation: specs or config files."""
    if isinstance(workload, InProcess):
        return workload.round_specs(root_seed(seed, 0))
    workdir.mkdir(parents=True, exist_ok=True)
    config = workdir / "grid.cfg"
    config.write_text(workload.config_text())
    return config


def run_cli(src: Path, args: list[str]) -> subprocess.CompletedProcess:
    """Run one ``dstcons`` command in a child process and wait for it."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", CLI_ENTRY, *args],
        env=env, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"dstcons {' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()}"
        )
    return proc
