"""Correctness checks on what the workloads produce.

Each check is computed apart from the program or follows from the method; none
compares against recorded output of the program.  The brute-force combination
below works on dense vectors over every subset pair and does not use
``dstcons.mass``'s combiners.
"""

from __future__ import annotations

import contextlib
import csv
import random
from math import fsum, sqrt
from statistics import fmean, pstdev

import numpy as np

MASS_TOL = 1e-9  # masses total 1 within this
DENSE_TOL = 1e-12  # brute-force and program combinations agree within this
SUMMARY_RTOL = 1e-5  # summary CSV floats carry 6 significant digits
CONFLICT_EPS = 1e-9  # Dempster's rule is undefined at K >= 1 - this
# Orderings from the abstract are checked only with enough runs per operator.
MIN_ORDER_RUNS = 6
# "Yager exceeds D&P" with many states is a difference of wrong-state rates
# (about 10% against 30% of runs at n=8); at a run's size the strict ordering
# fails by chance in a few runs in a hundred, so only a reversal this many
# standard errors wide fails the check.
REVERSAL_Z = 2.5


class Checks:
    """Named checks with pass counts; a failure keeps its first details."""

    def __init__(self) -> None:
        self.passed: dict[str, int] = {}
        self.failed: dict[str, list[str]] = {}
        self.skipped: dict[str, str] = {}

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        if ok:
            self.passed[name] = self.passed.get(name, 0) + 1
        else:
            self.failed.setdefault(name, []).append(detail)

    def skip(self, name: str, why: str) -> None:
        self.skipped[name] = why

    @property
    def ok(self) -> bool:
        return not self.failed

    def lines(self) -> list[str]:
        out = [f"check {name}: pass x{count}" for name, count in sorted(self.passed.items())]
        out += [f"check {name}: skipped ({why})" for name, why in sorted(self.skipped.items())]
        out += [
            f"check {name}: FAIL x{len(details)}: {details[0]}"
            for name, details in sorted(self.failed.items())
        ]
        return out


# ---------------------------------------------------------------------------
# Mass functions and the brute-force dense combination
# ---------------------------------------------------------------------------


def mass_problem(focal: dict, n: int) -> str | None:
    """Why ``focal`` is not a valid mass function over ``n`` states, or None."""
    full = (1 << n) - 1
    for subset, value in focal.items():
        if not isinstance(subset, int) or not 1 <= subset <= full:
            return f"focal set {subset!r} is empty or outside the frame"
        if not value > 0.0:
            return f"mass {value!r} on subset {subset} is not positive"
    total = fsum(focal.values())
    if abs(total - 1.0) > MASS_TOL:
        return f"masses total {total!r}"
    return None


_TABLES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _pair_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _TABLES:
        idx = np.arange(1 << n)
        _TABLES[n] = (np.bitwise_and.outer(idx, idx), np.bitwise_or.outer(idx, idx))
    return _TABLES[n]


def dense(focal: dict, n: int) -> np.ndarray:
    v = np.zeros(1 << n)
    for subset, value in focal.items():
        v[subset] = value
    return v


def dense_combine(operator: str, f1: dict, f2: dict, n: int) -> tuple[np.ndarray | None, float]:
    """Combine by the textbook definitions over all subset pairs.

    Returns the normalised dense result and the conflict K; the result is
    None when Dempster's rule is undefined (K = 1).
    """
    v1, v2 = dense(f1, n), dense(f2, n)
    size = 1 << n
    if operator == "average":
        out = 0.5 * (v1 + v2)
        return out / out.sum(), 0.0
    inter, union = _pair_tables(n)
    products = np.outer(v1, v2)
    out = np.bincount(inter.ravel(), weights=products.ravel(), minlength=size)
    k = float(out[0])
    out[0] = 0.0
    if operator == "dempster":
        if k >= 1.0 - CONFLICT_EPS:
            return None, k
    elif operator == "dubois_prade":
        disjoint = inter == 0
        out += np.bincount(union[disjoint], weights=products[disjoint], minlength=size)
    elif operator == "yager":
        out[size - 1] += k
    else:
        raise ValueError(f"unknown operator {operator!r}")
    return out / out.sum(), k


def check_combinations(checks: Checks, samples: list) -> None:
    """Recombine captured (operator, n, left, right, program result) samples densely."""
    for operator, n, f1, f2, result in samples:
        expected, k = dense_combine(operator, f1, f2, n)
        name = f"dense recombination ({operator})"
        if result is None:  # the program reported total conflict
            checks.record(name, expected is None, f"program raised total conflict at K={k!r}")
            continue
        if expected is None:
            checks.record(name, False, f"program combined operands with K={k!r}")
            continue
        got = dense(result, n)
        err = float(np.max(np.abs(got - expected)))
        checks.record(name, err <= DENSE_TOL, f"max difference {err:.3e} (n={n})")


class CombineSampler:
    """Seeded reservoir sample of the operand pairs a workload combines."""

    def __init__(self, seed: int, size: int = 24) -> None:
        self.rng = random.Random(seed)
        self.size = size
        self.seen = 0
        self.samples: list = []

    def offer(self, operator: str, m1, m2, result) -> None:
        self.seen += 1
        slot = len(self.samples) if self.seen <= self.size else self.rng.randrange(self.seen)
        if slot >= self.size:
            return
        item = (operator, m1.frame.n, dict(m1.focal), dict(m2.focal),
                None if result is None else dict(result.focal))
        if slot == len(self.samples):
            self.samples.append(item)
        else:
            self.samples[slot] = item


@contextlib.contextmanager
def sampling_combinations(seed: int):
    """While open, every combiner the simulation looks up reports to a sampler."""
    import dstcons.simulation as simulation
    from dstcons import TotalConflictError

    sampler = CombineSampler(seed)
    get_combiner = simulation.get_combiner
    cache: dict = {}

    def sampling_get_combiner(name):
        if name not in cache:
            combine = get_combiner(name)

            def sampled(m1, m2):
                try:
                    result = combine(m1, m2)
                except TotalConflictError:
                    sampler.offer(name, m1, m2, None)
                    raise
                sampler.offer(name, m1, m2, result)
                return result

            cache[name] = sampled
        return cache[name]

    simulation.get_combiner = sampling_get_combiner
    try:
        yield sampler
    finally:
        simulation.get_combiner = get_combiner


# ---------------------------------------------------------------------------
# Runs and cell summaries
# ---------------------------------------------------------------------------


def check_final_states(checks: Checks, results) -> None:
    """Every final mass function of every run is valid."""
    for _cell, _run_index, result in results:
        n = result.config.n
        problem = None
        for m in result.steady_state:
            problem = mass_problem(m.focal, n)
            if problem:
                break
        checks.record("final mass functions valid", problem is None, problem or "")


def check_bel_le_pl(checks: Checks, bel_best: float, pl_best: float, where: str) -> None:
    checks.record("mean Bel(best) <= mean Pl(best)", bel_best <= pl_best + MASS_TOL,
                  f"{where}: Bel {bel_best!r} > Pl {pl_best!r}")


def recompute(bels_best: list[float], converged: list[bool], stasis: list[int]) -> dict:
    """Cell statistics from per-run values: mean/std of Bel(best), convergence."""
    conv = [float(s) for s, c in zip(stasis, converged) if c]
    return {
        "mean_bel_best": fmean(bels_best),
        "std_bel_best": pstdev(bels_best),
        "converged_fraction": sum(converged) / len(converged),
        "mean_conv_iter": fmean(conv) if conv else None,
        "std_conv_iter": pstdev(conv) if conv else None,
    }


def _close(a, b, rtol: float) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + 1e-12


def check_sweep(checks: Checks, sweep, window: int) -> None:
    """Recompute every cell summary of an in-process sweep from its runs."""
    per_cell = sweep.spec.runs_per_cell
    for i, summary in enumerate(sweep.summaries):
        records = sweep.records[i * per_cell:(i + 1) * per_cell]
        for rec in records:
            check_bel_le_pl(checks, rec.mean_bel[-1], rec.mean_pl_best,
                            f"{rec.operator} seed {rec.seed}")
        want = recompute(
            [rec.mean_bel[-1] for rec in records],
            [rec.converged for rec in records],
            [(rec.convergence_iteration or 0) - window for rec in records],
        )
        bad = [key for key, value in want.items()
               if not _close(value, getattr(summary, key), 1e-9)]
        checks.record("summary recomputed from runs", not bad,
                      f"{summary.operator}: {bad} differ")


def _float_or_none(text: str) -> float | None:
    return float(text) if text != "" else None


def check_sweep_csv(checks: Checks, summary_path, runs_path, window: int,
                    cap: int) -> tuple[int, int]:
    """Check the sweep CSVs; returns (runs, iterations simulated).

    A run's iterations are its convergence iteration, or the cap if it did not
    converge.
    """
    with open(runs_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(summary_path, newline="") as fh:
        summary_rows = list(csv.DictReader(fh))
    def key(row: dict) -> tuple:
        # The runs file prints floats with repr, the summary with 6 digits.
        return (row["operator"], int(row["n"]), int(row["k"]), float(row["r"]),
                float(row["sigma"]), row["consensus"])

    groups: dict[tuple, list[dict]] = {}
    iterations = 0
    for row in rows:
        groups.setdefault(key(row), []).append(row)
        n = int(row["n"])
        converged = row["converged"] == "true"
        iterations += int(row["convergence_iteration"]) if converged else cap
        bels = [float(row[f"bel_s{j}"]) for j in range(1, n + 1)]
        best = bels[-1]
        ok = (all(-MASS_TOL <= b <= 1.0 + MASS_TOL for b in bels)
              and fsum(bels) <= 1.0 + MASS_TOL
              and float(row["mean_bel_top2"]) >= best + bels[-2] - MASS_TOL)
        checks.record("run Bel values consistent", ok,
                      f"{row['operator']} seed {row['seed']}: {bels}")
        check_bel_le_pl(checks, best, float(row["mean_pl_best"]),
                        f"{row['operator']} seed {row['seed']}")
    for srow in summary_rows:
        cell = key(srow)
        group = groups.pop(cell, [])
        n = int(srow["n"])
        if not group:
            checks.record("summary recomputed from runs CSV", False, f"{cell}: no runs")
            continue
        converged = [row["converged"] == "true" for row in group]
        want = recompute(
            [float(row[f"bel_s{n}"]) for row in group],
            converged,
            [int(row["convergence_iteration"]) - window if c else 0
             for row, c in zip(group, converged)],
        )
        bad = [f for f, v in want.items() if not _close(v, _float_or_none(srow[f]), SUMMARY_RTOL)]
        if int(srow["runs"]) != len(group):
            bad.append("runs")
        checks.record("summary recomputed from runs CSV", not bad, f"{cell}: {bad} differ")
    checks.record("summary recomputed from runs CSV", not groups,
                  f"runs without a summary row: {sorted(groups)}")
    return len(rows), iterations



# ---------------------------------------------------------------------------
# The abstract's orderings, where a workload holds the cells
# ---------------------------------------------------------------------------


def _se(values: list[float]) -> float:
    return pstdev(values) / sqrt(len(values)) if len(values) > 1 else 0.0


def check_orderings(checks: Checks, workload: str, bel_best: dict[str, list[float]],
                    converged: dict[str, list[bool]], full_size: bool) -> None:
    """``bel_best``/``converged`` map operator -> per-run values over the whole run."""
    if not full_size:
        checks.skip("abstract orderings", "tiny smoke cells")
        return
    counts = [len(v) for v in bel_best.values()]
    if workload == "headline":
        avg = converged.get("average", [])
        checks.record("headline: average never converges", avg and not any(avg),
                      f"{sum(avg)} of {len(avg)} average runs converged")
    elif min(counts) < MIN_ORDER_RUNS:
        checks.skip("abstract orderings", f"fewer than {MIN_ORDER_RUNS} runs per operator")
    elif workload == "high_rate":
        dr = fmean(bel_best["dempster"])
        for op in ("dubois_prade", "yager"):
            mean = fmean(bel_best[op])
            checks.record(f"high_rate: {op} mean Bel(best) exceeds dempster's", mean > dr,
                          f"{op} {mean:.4f} vs dempster {dr:.4f}")
    elif workload == "many_states":
        yr, dp = bel_best["yager"], bel_best["dubois_prade"]
        gap = fmean(yr) - fmean(dp)
        se = max(sqrt(_se(yr) ** 2 + _se(dp) ** 2), 1e-12)
        checks.record("many_states: yager not below dubois_prade",
                      gap > -REVERSAL_Z * se,
                      f"yager {fmean(yr):.4f} vs dubois_prade {fmean(dp):.4f} (se {se:.4f})")


# ---------------------------------------------------------------------------
# Fixed points
# ---------------------------------------------------------------------------


def check_fixedpoints_csv(checks: Checks, path, n: int) -> None:
    """Categorical points are fixed; D&P keeps them stable and the vacuous mass is not."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    vacuous = "{" + ",".join(f"s{i}" for i in range(1, n + 1)) + "}"
    singletons = {f"{{s{i}}}" for i in range(1, n + 1)}
    seen = 0
    for row in rows:
        if row["subset"] in singletons:
            seen += 1
            residual = float(row["residual"])
            checks.record("fixedpoints: categorical residual <= 1e-10", residual <= 1e-10,
                          f"{row['operator']} {row['subset']}: {residual!r}")
            if row["operator"] == "dubois_prade":
                checks.record("fixedpoints: D&P categoricals stable",
                              row["classification"] == "stable",
                              f"{row['subset']}: {row['classification']}")
        elif row["subset"] == vacuous and row["operator"] == "dubois_prade":
            checks.record("fixedpoints: D&P vacuous mass not stable",
                          row["classification"] != "stable", row["classification"])
    checks.record("fixedpoints: every categorical reported", seen == 4 * n,
                  f"{seen} categorical rows for n={n}")


def check_average_jacobian(checks: Checks, n: int, seed: int) -> None:
    """Averaging a mass function with itself is the identity, so its Jacobian is I."""
    from dstcons import FrameOfDiscernment, MassFunction, numeric_jacobian

    frame = FrameOfDiscernment(n)
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(frame.full_set))
    m = MassFunction(frame, {a: float(w) for a, w in enumerate(weights, start=1) if w > 0})
    jac = numeric_jacobian("average", m)
    err = float(np.max(np.abs(jac - np.eye(jac.shape[0]))))
    checks.record("fixedpoints: average Jacobian is the identity", err <= 1e-8,
                  f"max |J - I| = {err:.3e} at n={n}")
