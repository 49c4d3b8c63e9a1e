"""Seeded Monte Carlo sweeps over the consensus dynamics, with CSV/JSON output.

A sweep is a grid over (operator, n, r, sigma, consensus-enabled).  Every run
gets its own seed derived from the root seed and the cell/run indices, so
results are reproducible run-by-run and independent of worker count; adding
grid points never perturbs existing cells.  Aggregation is a deterministic
reduction ordered by cell key and run index, so parallel execution produces
byte-identical output files.
"""

from __future__ import annotations

import csv
import json
import os
from collections.abc import Iterable
from concurrent.futures import ProcessPoolExecutor
from contextlib import suppress
from dataclasses import dataclass, replace
from itertools import product
from math import fsum
from operator import attrgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from .mass import COMBINERS, bel, check_count, get_combiner
from .simulation import RunResult, SimConfig, population_means, run

WORKERS_ENV_VAR = "DSTCONS_WORKERS"

# Stable operator identifiers used in seed derivation; never reorder.
OPERATOR_IDS = {"dempster": 0, "dubois_prade": 1, "yager": 2, "average": 3}

# The grid coordinates of a cell; cells, summaries and runs are ordered by them.
CELL_FIELDS = ("operator", "n", "r", "sigma", "consensus")
CELL_KEY = attrgetter(*CELL_FIELDS)
# The same coordinates as SimConfig fields: a cell's consensus is its runs'
# consensus_enabled.
CONFIG_FIELDS = tuple("consensus_enabled" if f == "consensus" else f for f in CELL_FIELDS)
CONFIG_KEY = attrgetter(*CONFIG_FIELDS)
# What a cell's records share and its summary carries: the grid point and k.
CELL_LABEL = CELL_FIELDS + ("k",)

FORMATS = ("csv", "json")

# Columns of the summary file (CellSummary attributes) and the leading
# columns of the runs file (RunRecord attributes; bel_s1..bel_sN follow).
SUMMARY_COLUMNS = (
    "operator", "n", "k", "r", "sigma", "consensus", "runs", "mean_bel_best",
    "std_bel_best", "converged_fraction", "mean_conv_iter", "std_conv_iter",
)
RUN_COLUMNS = (
    "operator", "n", "k", "r", "sigma", "consensus", "run_index", "seed",
    "converged", "convergence_iteration", "stasis_iteration", "dempster_skips",
    "mean_pl_best", "mean_bel_top2",
)


class ConfigError(ValueError):
    """A sweep config file or CLI parameter set is malformed."""


@dataclass(frozen=True)
class SweepSpec:
    """Grid definition for a Monte Carlo sweep."""

    operators: tuple[str, ...]
    n_values: tuple[int, ...] = (SimConfig.n,)
    k: int = SimConfig.k
    r_values: tuple[float, ...] = (SimConfig.r,)
    sigma_values: tuple[float, ...] = (0.1,)
    runs_per_cell: int = 30
    max_iterations: int = SimConfig.max_iterations
    root_seed: int = 0
    baselines: bool = False
    consensus: bool = True
    convergence_window: int = SimConfig.convergence_window
    trajectory_stride: int = SimConfig.trajectory_stride

    def __post_init__(self) -> None:
        grid_fields = ("operators", "n_values", "r_values", "sigma_values")
        try:
            for name in grid_fields:
                values = getattr(self, name)
                if isinstance(values, str) or not isinstance(values, Iterable):
                    raise ValueError(f"{name} must be a sequence of values, got {values!r}")
                object.__setattr__(self, name, values := tuple(values))
                if not values:
                    raise ValueError(f"{name} must be non-empty")
            check_count("runs_per_cell", self.runs_per_cell, 1)
            for name in ("baselines", "consensus"):
                if not isinstance(value := getattr(self, name), bool):
                    raise ValueError(f"{name} must be a bool, got {value!r}")
            # SimConfig checks every run parameter before the repeat check hashes them.
            build_cells(self)
            for name in grid_fields:
                if len(set(values := getattr(self, name))) != len(values):
                    raise ValueError(f"{name} has repeated values: {values}")
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


@dataclass(frozen=True)
class RunRecord:
    """Per-run outcome reduced to the quantities the experiment files carry.

    ``convergence_iteration`` is the detection iteration (the static window is
    complete there); ``stasis_iteration`` subtracts the window, i.e. the
    iteration after which nothing changed.  Convergence-time statistics use
    the latter, so a population that locks instantly reports 0, not the
    window length.
    """

    operator: str
    n: int
    k: int
    r: float
    sigma: float
    consensus: bool
    run_index: int
    seed: int
    converged: bool
    convergence_iteration: int | None
    stasis_iteration: int | None
    dempster_skips: int
    mean_bel: tuple[float, ...]
    mean_pl_best: float
    mean_bel_top2: float


@dataclass(frozen=True)
class CellSummary:
    """Across-run statistics for one cell."""

    operator: str
    n: int
    k: int
    r: float
    sigma: float
    consensus: bool
    runs: int
    mean_bel_best: float
    std_bel_best: float
    converged_fraction: float
    mean_conv_iter: float | None
    std_conv_iter: float | None
    mean_bel_top2: float


@dataclass
class SweepResult:
    """Everything a sweep produced, in deterministic order."""

    spec: SweepSpec
    summaries: list[CellSummary]
    records: list[RunRecord]
    # (cell, run index, result); the cell is the run's config at the root seed.
    results: list[tuple[SimConfig, int, RunResult]] | None = None


def derive_seed(
    root_seed: int,
    operator: str,
    n: int,
    r_index: int,
    sigma_index: int,
    consensus: bool,
    run_index: int,
) -> int:
    """Per-run seed from the root seed and cell/run indices.

    The hash is numpy's SeedSequence entropy mix over the 7-tuple
    (root_seed, operator id, n, r index, sigma index, consensus flag,
    run index); operator ids are pinned in ``OPERATOR_IDS``.  An unknown
    operator, a non-bool consensus flag, n < 2 or a negative seed or index is
    refused.
    """
    get_combiner(operator)
    if not isinstance(consensus, bool):
        raise ValueError(f"consensus must be a bool, got {consensus!r}")
    check_count("n", n, 2)
    for name, value in (("root_seed", root_seed), ("r_index", r_index),
                        ("sigma_index", sigma_index), ("run_index", run_index)):
        check_count(name, value, 0)
    entropy = [
        root_seed,
        OPERATOR_IDS[operator],
        n,
        r_index,
        sigma_index,
        int(consensus),
        run_index,
    ]
    return int(np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint64)[0])


def build_cells(spec: SweepSpec) -> list[SimConfig]:
    """Every grid point as a run config at the root seed.

    The grid's cells run consensus; ``baselines`` adds their evidence-only
    twins, and ``consensus=False`` keeps only those.  The configs are built in
    grid order, so a bad value is refused before the sort compares it, then
    sorted by ``CONFIG_KEY``, the cell order.
    """
    if not spec.consensus:
        modes = (False,)
    else:
        modes = (True, False) if spec.baselines else (True,)
    axes = (spec.operators, spec.n_values, spec.r_values, spec.sigma_values, modes)
    cells = [
        SimConfig(**dict(zip(CONFIG_FIELDS, point)), k=spec.k,
                  max_iterations=spec.max_iterations, seed=spec.root_seed,
                  trajectory_stride=spec.trajectory_stride,
                  convergence_window=spec.convergence_window)
        for point in product(*axes)
    ]
    return sorted(cells, key=CONFIG_KEY)


def cell_config(spec: SweepSpec, cell: SimConfig, run_index: int) -> SimConfig:
    """The cell's config for one run; r and sigma indices are their places in the spec."""
    seed = derive_seed(spec.root_seed, cell.operator, cell.n, spec.r_values.index(cell.r),
                       spec.sigma_values.index(cell.sigma), cell.consensus_enabled, run_index)
    return replace(cell, seed=seed)


def resolve_workers(workers: int | None = None) -> int:
    """Explicit argument, else the DSTCONS_WORKERS env var, else 1."""
    name = "worker count"
    if workers is None:
        name, workers = WORKERS_ENV_VAR, os.environ.get(WORKERS_ENV_VAR) or "1"
        with suppress(ValueError):
            workers = int(workers)  # text that is not an integer is refused below
    try:
        check_count(name, workers, 1)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return workers


def run_sweep(
    spec: SweepSpec, workers: int | None = None, keep_results: bool = False
) -> SweepResult:
    """Execute every (cell, run) pair and aggregate per-cell statistics.

    Worker processes only change wall-clock time: tasks are generated and
    reduced in a fixed order, and every run's seed is derived independently.
    The pool never gets more workers than there are runs or CPUs.
    """
    per_cell = spec.runs_per_cell
    cells = build_cells(spec)
    tasks = [(cell, i) for cell in cells for i in range(per_cell)]
    configs = [cell_config(spec, cell, i) for cell, i in tasks]
    workers = min(resolve_workers(workers), len(configs), os.cpu_count() or 1)
    if workers == 1:
        results = [run(config) for config in configs]
    else:
        chunk = max(1, len(configs) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, configs, chunksize=chunk))

    records = [_make_record(i, res) for (_, i), res in zip(tasks, results)]
    # Each cell's runs_per_cell records are adjacent, in run-index order.
    summaries = [
        summarize_cell(records[j : j + per_cell]) for j in range(0, len(records), per_cell)
    ]
    kept = None
    if keep_results:
        kept = [(cell, i, res) for (cell, i), res in zip(tasks, results)]
    return SweepResult(spec=spec, summaries=summaries, records=records, results=kept)


def _make_record(run_index: int, result: RunResult) -> RunRecord:
    config = result.config
    agents = result.steady_state
    frame = agents[0].frame
    top2 = frame.singleton(config.n) | frame.singleton(config.n - 1)
    mean_bel, mean_pl_best = population_means(agents)
    stasis = (
        result.convergence_iteration - config.convergence_window
        if result.converged
        else None
    )
    return RunRecord(
        **dict(zip(CELL_FIELDS, CONFIG_KEY(config))),
        k=config.k,
        run_index=run_index,
        seed=config.seed,
        converged=result.converged,
        convergence_iteration=result.convergence_iteration,
        stasis_iteration=stasis,
        dempster_skips=result.dempster_skips,
        mean_bel=mean_bel,
        mean_pl_best=mean_pl_best,
        mean_bel_top2=fsum(bel(m, top2) for m in agents) / len(agents),
    )


def summarize_cell(records: Sequence[RunRecord]) -> CellSummary:
    """Across-run statistics of one cell's records.

    The convergence-time mean and std are over the converged runs'
    ``stasis_iteration`` (detection iteration minus the convergence window),
    so they measure how long the dynamics actually ran; both are None when no
    run converged.
    """
    labels = {attrgetter(*CELL_LABEL)(rec) for rec in records}
    if len(labels) != 1:
        raise ValueError(f"records must come from one cell, got {sorted(labels)}")
    best = np.array([rec.mean_bel[-1] for rec in records])
    top2 = np.array([rec.mean_bel_top2 for rec in records])
    stasis = [rec.stasis_iteration for rec in records if rec.converged]
    conv = np.asarray(stasis, dtype=float)
    return CellSummary(
        **dict(zip(CELL_LABEL, labels.pop())),
        runs=len(records),
        mean_bel_best=float(best.mean()),
        std_bel_best=float(best.std()),
        converged_fraction=sum(rec.converged for rec in records) / len(records),
        mean_conv_iter=float(conv.mean()) if stasis else None,
        std_conv_iter=float(conv.std()) if stasis else None,
        mean_bel_top2=float(top2.mean()),
    )


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------


def _fmt(value, full_precision: bool = False) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if full_precision:
        return repr(float(value))
    return format(float(value), ".6g")


def _json_value(value, full_precision: bool = False):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, np.integer):
        return int(value)
    if full_precision:
        return float(value)
    return float(format(float(value), ".6g"))


def _check_format(fmt: str) -> None:
    if fmt not in FORMATS:
        raise ConfigError(f"unknown output format {fmt!r}; expected csv or json")


def _write_table(
    path: Path,
    columns: Sequence[str],
    rows: list[list],
    fmt: str,
    full_precision: bool = False,
) -> None:
    # Per-run files keep full float precision so aggregates can be recomputed
    # exactly; summary/trajectory files round to 6 significant digits.
    _check_format(fmt)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        payload = [
            {col: _json_value(value, full_precision) for col, value in zip(columns, row)}
            for row in rows
        ]
        path.write_text(json.dumps(payload, indent=2) + "\n")
    else:
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_fmt(value, full_precision) for value in row])


def emit_csv(
    summaries: Sequence[CellSummary],
    path: str | Path,
    records: Sequence[RunRecord],
    fmt: str = "csv",
) -> list[Path]:
    """Write the per-cell summary table and its per-run sibling ``<stem>_runs<suffix>``.

    Rows are sorted by ``CELL_KEY`` (operator, n, r, sigma, consensus), run
    rows then by run index.  Summary floats carry 6 significant digits and run
    floats full precision; ``fmt="json"`` writes the tables as JSON arrays.
    Returns the two paths, summary first.
    """
    path = Path(path)
    runs_path = path.with_name(path.stem + "_runs" + path.suffix)
    rows = [
        [getattr(s, col) for col in SUMMARY_COLUMNS]
        for s in sorted(summaries, key=CELL_KEY)
    ]
    _write_table(path, SUMMARY_COLUMNS, rows, fmt)
    rows = [
        ([getattr(rec, col) for col in RUN_COLUMNS], rec.mean_bel, [])
        for rec in sorted(records, key=attrgetter(*CELL_FIELDS, "run_index"))
    ]
    _write_table(runs_path, *_state_table(RUN_COLUMNS, rows, ()), fmt, full_precision=True)
    return [path, runs_path]


def _state_table(lead: Sequence[str], rows: list, tail: Sequence[str]) -> tuple[list, list]:
    """Columns ``lead + bel_s1..bel_sN + tail`` and rows from ``(lead, bels, tail)`` values.

    N is the largest frame among the rows; a row with fewer states gets blanks.
    """
    n = max((len(bels) for _, bels, _ in rows), default=0)
    columns = [*lead, *(f"bel_s{j}" for j in range(1, n + 1)), *tail]
    return columns, [[*head, *bels, *[None] * (n - len(bels)), *end] for head, bels, end in rows]


def emit_trajectory(
    trajectories: Sequence[tuple[str, np.ndarray, np.ndarray, np.ndarray]],
    path: str | Path,
    fmt: str = "csv",
) -> Path:
    """Write trajectory samples: operator, iteration, mean Bel per state, Pl(best).

    ``trajectories``: one ``(operator, iterations, bel_by_state, pl_best)`` per
    operator.  Frames may differ in size; a smaller frame's extra states are blank.
    """
    path = Path(path)
    rows = [
        ([operator, int(t)], [float(v) for v in bel_by_state[i]], [float(pl_best[i])])
        for operator, iterations, bel_by_state, pl_best in trajectories
        for i, t in enumerate(iterations)
    ]
    _write_table(path, *_state_table(("operator", "iteration"), rows, ("pl_best",)), fmt)
    return path


def mean_trajectory(results: Sequence[RunResult]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Average sampled trajectories over runs on a common iteration grid.

    The grid steps from 0 to the runs' iteration cap by their trajectory
    stride.  The runs must be repeats of one cell: their configs may differ
    only in the seed.  Converged runs hold their steady state, so samples past
    a run's final iteration reuse its last recorded value.
    """
    configs = {replace(res.config, seed=0) for res in results}
    if len(configs) != 1 or not all(c.trajectory_stride for c in configs):
        raise ValueError("runs must share one config apart from the seed, with a nonzero"
                         f" trajectory_stride; got {len(configs)} distinct configs")
    config, = configs
    grid = np.arange(0, config.max_iterations + 1, config.trajectory_stride)
    bel_sum = np.zeros((grid.size, config.n))
    pl_sum = np.zeros(grid.size)
    for res in results:
        iters = res.trajectory_iterations
        idx = np.searchsorted(iters, grid)
        idx = np.minimum(idx, iters.size - 1)
        bel_sum += res.trajectory_bel[idx]
        pl_sum += res.trajectory_pl_best[idx]
    return grid, bel_sum / len(results), pl_sum / len(results)


# ---------------------------------------------------------------------------
# Sweep config files: flat key = value lines, lists comma-separated
# ---------------------------------------------------------------------------


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _comma_list(cast):
    """Parser of a comma-separated list of ``cast`` values; blank items are skipped."""
    return lambda text: tuple(cast(item.strip()) for item in text.split(",") if item.strip())


# Config key -> parser of its value text.
CONFIG_KEYS = {
    "operators": _comma_list(str),
    "n_values": _comma_list(int),
    "k": int,
    "r_values": _comma_list(float),
    "sigma_values": _comma_list(float),
    "runs_per_cell": int,
    "max_iterations": int,
    "root_seed": int,
    "baselines": _parse_bool,
    "consensus": _parse_bool,
    "convergence_window": int,
}


def parse_sweep_config(text: str) -> dict:
    """Parse the flat ``key = value`` sweep config format into a kwargs dict."""
    values: dict = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw_line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {line_no}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"line {line_no}: duplicate config key {key!r}")
        try:
            values[key] = CONFIG_KEYS[key](value)
        except ValueError as exc:
            raise ConfigError(f"line {line_no}: bad value for {key!r}: {exc}") from None
    return values


def sweep_spec_from_config(text: str, overrides: dict | None = None) -> SweepSpec:
    """Build a SweepSpec from config text plus override kwargs, which win; SweepSpec checks all."""
    values = {**parse_sweep_config(text), **(overrides or {})}
    if "operators" not in values:
        raise ConfigError("config must name at least one operator (key 'operators')")
    try:
        return SweepSpec(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# Canned experiment grids
# ---------------------------------------------------------------------------

ALL_OPERATORS = tuple(sorted(COMBINERS))
FINE_R_GRID = (0.0005, 0.001, 0.002, 0.004, 0.006, 0.008, 0.01)
COARSE_R_GRID = (0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0)
SIGMA_GRID = (0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3)

# figure -> (description, SweepSpec fields beyond those every preset shares);
# a field named by neither takes SweepSpec's default.
FIGURE_PRESETS = {
    "fig1": (
        "belief trajectories for all operators (n=3, r=0.05, sigma=0.1)",
        dict(trajectory_stride=10),
    ),
    "fig2": (
        "steady-state belief vs evidence rate, with evidence-only baselines",
        dict(r_values=FINE_R_GRID + COARSE_R_GRID, baselines=True),
    ),
    "fig3": (
        "cross-run standard deviation vs evidence rate (r <= 0.5)",
        dict(r_values=tuple(r for r in FINE_R_GRID + COARSE_R_GRID if r <= 0.5),
             baselines=True),
    ),
    "fig4": (
        "steady-state belief vs noise level for r in {0.01, 0.05, 0.1}",
        dict(r_values=(0.01, 0.05, 0.1), sigma_values=SIGMA_GRID),
    ),
    "fig5": (
        "scalability: belief in the best state for n in {3, 5, 10}",
        dict(operators=("dubois_prade", "yager"), n_values=(3, 5, 10),
             sigma_values=SIGMA_GRID),
    ),
}


def preset_spec(
    figure: str,
    runs: int = 100,
    root_seed: int = SweepSpec.root_seed,
    max_iterations: int = SweepSpec.max_iterations,
) -> SweepSpec:
    """The sweep grid behind each canned experiment."""
    if figure not in FIGURE_PRESETS:
        raise ConfigError(
            f"unknown figure {figure!r}; expected one of {sorted(FIGURE_PRESETS)}"
        )
    shared = dict(operators=ALL_OPERATORS, runs_per_cell=runs,
                  max_iterations=max_iterations, root_seed=root_seed)
    return SweepSpec(**{**shared, **FIGURE_PRESETS[figure][1]})


def reproduce(
    figure: str,
    out_dir: str | Path,
    *,
    workers: int | None = None,
    fmt: str = "csv",
    **preset,
) -> list[Path]:
    """Run one canned experiment and write its summary/runs (and trajectory) files.

    ``preset`` holds the ``preset_spec`` keywords given: runs, root_seed, max_iterations.
    """
    spec = preset_spec(figure, **preset)
    _check_format(fmt)
    out_dir = Path(out_dir)
    suffix = "." + fmt
    keep = spec.trajectory_stride > 0
    sweep = run_sweep(spec, workers=workers, keep_results=keep)
    # One series per operator; mean_trajectory refuses an operator's runs from
    # more than one cell before any file is written.
    by_operator: dict[str, list[RunResult]] = {}
    for _, _, result in sweep.results or ():
        by_operator.setdefault(result.config.operator, []).append(result)
    trajectories = [(op, *mean_trajectory(runs)) for op, runs in sorted(by_operator.items())]
    written = emit_csv(
        sweep.summaries, out_dir / f"{figure}{suffix}", sweep.records, fmt=fmt
    )
    if keep:
        written.append(
            emit_trajectory(trajectories, out_dir / f"{figure}_trajectory{suffix}", fmt)
        )
    return written
