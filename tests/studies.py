"""The acceptance cells and criteria as data, and one runner for the studies.

A cell is ``(operator, n, r, sigma, consensus, runs)``, run as the one-cell
sweep ``spec(cell, root_seed)``.  Criteria 4-9 and the supplementary rate
check are functions marked with the cells they read: each takes those cells'
sweeps in order and returns ``(ok, line)``.  ``CELLS`` is their union, 37
cells and 910 runs.  ``test_acceptance`` runs cells in its own process; the
studies that pytest does not collect call ``run_cells``.  Run as a script,
this file is one of that function's child processes.
"""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress
from dataclasses import asdict
from importlib import import_module
from pathlib import Path
from queue import Empty, SimpleQueue

import numpy as np

HERE = Path(__file__).resolve()
SRC = HERE.parent.parent / "src"
# The studies run without PYTHONPATH, so this checkout's src/ comes last on
# the path; a child's PYTHONPATH entry comes first and picks its tree.
sys.path.append(str(SRC))

from dstcons import (  # noqa: E402
    EPS_CONV, CellSummary, RunRecord, SweepResult, SweepSpec, run_sweep)
from dstcons.harness import resolve_workers  # noqa: E402

# Tolerance a setting may change -> the dstcons module that reads it at run time.
TOLERANCES = {"EPS_CONFLICT": "mass", "EPS_PRUNE": "mass", "EPS_CONV": "simulation"}


def cell(operator, n=3, r=0.05, sigma=0.1, consensus=True, runs=30):
    return (operator, n, r, sigma, consensus, runs)


def spec(cell, root_seed, k=100, max_iterations=5000, **fields) -> SweepSpec:
    """The one-cell sweep behind ``cell``; ``fields`` are further ``SweepSpec`` fields."""
    operator, n, r, sigma, consensus, runs = cell
    return SweepSpec(operators=(operator,), n_values=(n,), k=k, r_values=(r,),
                     sigma_values=(sigma,), runs_per_cell=runs, max_iterations=max_iterations,
                     root_seed=root_seed, consensus=consensus, **fields)


def criterion(*cells):
    """Mark a check as a criterion over ``cells``."""
    def mark(check):
        check.cells = cells
        return check
    return mark


def _mean(sweep) -> float:
    return sweep.summaries[0].mean_bel_best


def _unanimous_best(sweep) -> int:
    """Runs that end with Bel(best) = 1 in every agent."""
    return sum(rec.mean_bel[-1] >= 1.0 - EPS_CONV for rec in sweep.records)


@criterion(*(cell(op) for op in ("dubois_prade", "yager", "dempster", "average")))
def headline(dp, yr, dr, avg):
    """AC4: the r=0.05, sigma=0.1 headline cell for all four operators."""
    dr_unanimous, dp_unanimous = _unanimous_best(dr), _unanimous_best(dp)
    checks = [
        ("D&P mean >= 0.95", _mean(dp) >= 0.95, f"{_mean(dp):.4f}"),
        ("YR mean >= 0.95", _mean(yr) >= 0.95, f"{_mean(yr):.4f}"),
        ("DR mean >= 0.80", _mean(dr) >= 0.80, f"{_mean(dr):.4f}"),
        (
            # Rests on Dempster's conflict threshold: see test_criterion_04's comment.
            "DR unanimous-best runs < D&P",
            dr_unanimous < dp_unanimous,
            f"{dr_unanimous}/{len(dr.records)} vs {dp_unanimous}/{len(dp.records)}",
        ),
        ("AVG mean in [0.25, 0.55]", 0.25 <= _mean(avg) <= 0.55, f"{_mean(avg):.4f}"),
        ("AVG never converges", avg.summaries[0].converged_fraction == 0.0,
         f"{avg.summaries[0].converged_fraction}"),
    ]
    for op, sweep in (("dubois_prade", dp), ("yager", yr), ("dempster", dr)):
        gap = abs(
            np.mean([rec.mean_bel[-1] for rec in sweep.records])
            - np.mean([rec.mean_pl_best for rec in sweep.records])
        )
        # Sampling basis: passes at root seeds 0-9 (30 runs) except seed 4, where
        # Yager's gap is 1.21e-05 (others 0 to 1.82e-09).  That is premature
        # stasis, a property of the protocol, not sampling noise: the window
        # declared one run converged while an untouched agent was uncommitted.
        # The repository holds no source for the 1e-6 bound.
        checks.append((f"{op} |Bel-Pl| < 1e-6", gap < 1e-6, f"{gap:.2e}"))
    ok = all(c[1] for c in checks)
    return ok, "AC4 headline-cell reproduction: " + "; ".join(
        f"{name}={detail}{'' if passed else ' <-- FAIL'}" for name, passed, detail in checks
    )


@criterion(cell("dempster", r=0.002), cell("dubois_prade", r=0.002),
           *(cell(op, r=1.0) for op in ("dempster", "dubois_prade", "yager")))
def rate_extremes(dr_low, dp_low, dr_hi, dp_hi, yr_hi):
    """AC5: DR leads at very low r; DR degrades while D&P/YR hold at r=1."""
    dr_low, dp_low, dr_hi, dp_hi, yr_hi = map(_mean, (dr_low, dp_low, dr_hi, dp_hi, yr_hi))
    # Sampling basis of "DR leads at r=0.002": over root seeds 0-9 (30 runs) the
    # DR - D&P gap runs from -0.040 to +0.198 (mean 0.106, SD 0.073) and the
    # line fails at seed 8.  Source: the abstract's "Dempster's rule is more
    # effective for very low evidence rates"; the repository holds none for
    # r=0.002 as the very low rate.
    ok = dr_low > dp_low and dr_hi < 0.85 and dp_hi >= 0.95 and yr_hi >= 0.95
    return ok, (
        f"AC5 evidence-rate extremes: r=0.002: DR {dr_low:.4f} > D&P {dp_low:.4f}; "
        f"r=1: DR {dr_hi:.4f} < 0.85, D&P {dp_hi:.4f}, YR {yr_hi:.4f}"
    )


@criterion(cell("dempster", consensus=False), cell("dubois_prade", consensus=False))
def evidence_only(dr, dp):
    """AC6: without pairwise combination, consensus often lands on the wrong state."""
    dr, dp = _mean(dr), _mean(dp)
    ok = 0.45 <= dr <= 0.75 and 0.45 <= dp <= 0.75
    return ok, (f"AC6 evidence-only baseline: r=0.05 sigma=0.1 evidence-only: "
                f"DR {dr:.4f}, D&P {dp:.4f} (band [0.45, 0.75])")


NOISE_SIGMAS = (0.0, 0.1, 0.2, 0.3)


@criterion(*(cell(op, r=0.1, sigma=s) for op in ("dubois_prade", "yager") for s in NOISE_SIGMAS),
           cell("dempster", r=0.1, sigma=0.0), cell("dempster", r=0.1, sigma=0.3))
def noise_robustness(*sweeps):
    """AC7: D&P/YR hold near 1 across sigma at r=0.1; DR degrades with noise."""
    *held, dr_clean, dr_noisy = map(_mean, sweeps)
    dp, yr = held[:len(NOISE_SIGMAS)], held[len(NOISE_SIGMAS):]
    drop = dr_clean - dr_noisy
    ok = all(v >= 0.95 for v in held) and drop >= 0.1
    return ok, (
        f"AC7 noise robustness: D&P {['%.3f' % v for v in dp]}, "
        f"YR {['%.3f' % v for v in yr]}, "
        f"DR drop {dr_clean:.4f} -> {dr_noisy:.4f} (delta {drop:.4f} >= 0.1)"
    )


@criterion(cell("yager", n=5, sigma=0.0), cell("yager", n=10, sigma=0.0),
           cell("dubois_prade", n=10, sigma=0.0))
def scalability(yr5, yr10, dp10):
    """AC8: belief in the best state for n = 5 and n = 10 at r=0.05, sigma=0."""
    yr5, yr10, dp10 = map(_mean, (yr5, yr10, dp10))
    # Sampling basis of "YR n=10 >= 0.8": over root seeds 0-9 (30 runs) the cell
    # mean is 0.867 with SD 0.080, and the line fails at seeds 7 and 9 (0.7667,
    # 0.7997).  The repository holds no source for the 0.8 bound.
    ok = yr5 >= 0.9 and yr10 >= 0.8 and 0.4 <= dp10 <= 0.8 and yr10 > dp10
    return ok, (
        f"AC8 scalability: YR n=5 {yr5:.4f} >= 0.9; YR n=10 {yr10:.4f} >= 0.8; "
        f"D&P n=10 {dp10:.4f} in [0.4, 0.8]; YR > D&P at n=10"
    )


@criterion(*(cell("dempster", r=r) for r in (0.001, 0.1, 1.0)),
           *(cell("dubois_prade", r=r) for r in (0.05, 0.1, 0.5)))
def convergence_times(*sweeps):
    """AC9: time-to-stasis trends: DR speeds up with r; D&P stays flat around 700."""
    times = [sweep.summaries[0].mean_conv_iter for sweep in sweeps]
    dr_times, dp_times = times[:3], times[3:]
    ok = (
        all(t is not None for t in times)
        and dr_times[0] > dr_times[1] > dr_times[2]
        and dr_times[2] < 100
        and all(300 <= t <= 1500 for t in dp_times)
    )
    return ok, (
        f"AC9 convergence times: DR mean stasis iterations "
        f"{['%.1f' % t for t in dr_times]} (strictly decreasing, r=1 < 100); "
        f"D&P {['%.1f' % t for t in dp_times]} (each in [300, 1500])"
    )


MONOTONE_RATES = (0.02, 0.05, 0.1, 0.5, 1.0)


@criterion(*(cell(op, r=r, sigma=0.0, runs=10)
             for op in ("dubois_prade", "yager") for r in MONOTONE_RATES))
def rate_monotonicity(*sweeps):
    """Sanity: D&P/YR mean belief non-decreasing in r at sigma=0 within pooled SE.

    Cells here routinely have ALL runs at exactly 1.0, making the sample SE
    collapse to 0 even though the true sampling noise is not zero (a lone
    run with one stray agent shifts the mean by 1e-3).  The pooled SE is
    floored accordingly so the comparison stays meaningful.
    """
    se_floor = 0.005
    detail = []
    ok = True
    for j, op in enumerate(("dubois_prade", "yager")):
        stats = sweeps[j * len(MONOTONE_RATES):(j + 1) * len(MONOTONE_RATES)]
        means = [s.summaries[0].mean_bel_best for s in stats]
        errs = [s.summaries[0].std_bel_best / np.sqrt(s.summaries[0].runs) for s in stats]
        for i in range(len(MONOTONE_RATES) - 1):
            pooled = max(float(np.hypot(errs[i], errs[i + 1])), se_floor)
            if means[i + 1] < means[i] - pooled:
                ok = False
        detail.append(f"{op} {['%.3f' % m for m in means]}")
    return ok, "supplementary rate monotonicity (sigma=0): " + "; ".join(detail)


CRITERIA = (headline, rate_extremes, evidence_only, noise_robustness, scalability,
            convergence_times, rate_monotonicity)
CELLS = tuple(dict.fromkeys(c for check in CRITERIA for c in check.cells))


def run_cells(cells, root_seed, setting=None, src=SRC, exact=False, **fields) -> dict:
    """Each cell's sweep at ``root_seed``, from child processes on ``src``'s ``dstcons``.

    ``resolve_workers()`` children take the cells from one queue, each its
    next cell when it has answered the last.  Each sets ``setting``
    (``TOLERANCES`` name -> value) in its own process, so no result depends
    on how processes start, then runs ``spec(cell, root_seed, **fields)`` with
    ``run_sweep(workers=1)``.  A cell maps to a ``SweepResult`` rebuilt from
    JSON (floats round-trip through repr), or with ``exact`` to its runs'
    ``RunResult`` fields: floats in hex, focal items in order.  A failed child
    raises its stderr.
    """
    cells = list(dict.fromkeys(cells))
    todo = SimpleQueue()
    for c in cells:
        todo.put(c)
    job = json.dumps(dict(root_seed=root_seed, setting=setting or {}, exact=exact, fields=fields))
    env = dict(os.environ, PYTHONPATH=str(src))
    results = {}

    def child():
        with subprocess.Popen([sys.executable, str(HERE), job], stdin=subprocess.PIPE,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              env=env) as proc:
            with suppress(Empty, BrokenPipeError):
                while True:
                    c = todo.get_nowait()
                    proc.stdin.write(json.dumps(c) + "\n")
                    proc.stdin.flush()
                    answer = proc.stdout.readline()
                    if not answer:  # the child failed: its stderr says why
                        break
                    results[c] = json.loads(answer)
            stderr = proc.communicate()[1]
        if proc.returncode:
            raise RuntimeError(f"study child on {src} exited {proc.returncode}:\n{stderr}")

    workers = min(resolve_workers(), len(cells))
    with ThreadPoolExecutor(workers) as pool:
        for started in [pool.submit(child) for _ in range(workers)]:
            started.result()
    results = {c: results[c] for c in cells}
    if exact:
        return results
    return {
        c: SweepResult(spec(c, root_seed, **fields), [CellSummary(**s) for s in summaries],
                       [RunRecord(**{**r, "mean_bel": tuple(r["mean_bel"])}) for r in records])
        for c, (summaries, records) in results.items()
    }


def _exact(result) -> dict:
    """A ``RunResult`` as JSON that compares bit for bit.

    Focal items keep their insertion order, except for averaging, whose run
    builds its masses from float lists at the end, in ascending subset order:
    they are sorted there.
    """
    order = sorted if result.config.operator == "average" else list
    return {
        "config": asdict(result.config),
        "converged": result.converged,
        "convergence_iteration": result.convergence_iteration,
        "dempster_skips": result.dempster_skips,
        "steady_state": [[[a, v.hex()] for a, v in order(m.focal.items())]
                         for m in result.steady_state],
        "trajectory_iterations": result.trajectory_iterations.tolist(),
        "trajectory_bel": [[v.hex() for v in row] for row in result.trajectory_bel.tolist()],
        "trajectory_pl_best": [v.hex() for v in result.trajectory_pl_best.tolist()],
    }


def _serve() -> None:
    """The child side of ``run_cells``: its job as the argument, then one cell
    per line on stdin, answered by one JSON line on stdout."""
    job = json.loads(sys.argv[1])
    for name, value in job["setting"].items():
        setattr(import_module("dstcons." + TOLERANCES[name]), name, value)
    for line in sys.stdin:
        sweep = run_sweep(spec(json.loads(line), job["root_seed"], **job["fields"]), workers=1,
                          keep_results=job["exact"])
        if job["exact"]:
            answer = [_exact(result) for _, _, result in sweep.results]
        else:
            answer = [[asdict(s) for s in sweep.summaries], [asdict(r) for r in sweep.records]]
        print(json.dumps(answer), flush=True)


if __name__ == "__main__":
    _serve()
