"""Acceptance margins across root seeds: a report, not a test.

Runs acceptance criteria 4-9 and the supplementary rate check at root seeds
0-9 (30 runs per cell, as in ``test_acceptance``), prints every criterion's
line at each seed, then the number of seeds at which each line passes.  The
bounds, cells and run counts are the acceptance module's own; only its root
seed changes.  Pytest does not collect this file.  From the repository root:

    DSTCONS_WORKERS=2 PYTHONPATH=src python tests/seed_margins.py [SEED ...]

One seed takes about two minutes with two workers.
"""

from __future__ import annotations

import contextlib
import io
import sys

import test_acceptance as acceptance

CRITERIA = (
    acceptance.test_criterion_04_trajectory_cell_reproduction,
    acceptance.test_criterion_05_evidence_rate_extremes,
    acceptance.test_criterion_06_evidence_only_baseline,
    acceptance.test_criterion_07_noise_robustness,
    acceptance.test_criterion_08_scalability,
    acceptance.test_criterion_09_convergence_times,
    acceptance.test_supplementary_rate_monotonicity,
)


def run_seed(seed: int) -> list[tuple[str, bool]]:
    """Each criterion's printed line at root ``seed``, and whether it passed."""
    acceptance.ROOT_SEED = seed
    acceptance._cell_cached.cache_clear()
    lines = []
    for criterion in CRITERIA:
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            try:
                criterion()
                passed = True
            except AssertionError:
                passed = False
        lines.append((printed.getvalue().strip(), passed))
    return lines


def main(seeds: list[int]) -> None:
    failed_at: dict[str, list[int]] = {}
    for seed in seeds:
        for line, passed in run_seed(seed):
            print(f"seed {seed} {line}", flush=True)
            # "PASS AC5 evidence-rate extremes: ..." -> "AC5 evidence-rate extremes"
            label = line.split(": ", 1)[0].split(" ", 1)[1]
            failed_at.setdefault(label, [])
            if not passed:
                failed_at[label].append(seed)
    print()
    for label, failures in failed_at.items():
        where = f" (fails at seed {', '.join(map(str, failures))})" if failures else ""
        print(f"{label}: {len(seeds) - len(failures)}/{len(seeds)} seeds pass{where}")
    total = len(failed_at) * len(seeds)
    failures = sum(map(len, failed_at.values()))
    print(f"{total - failures}/{total} lines pass")


if __name__ == "__main__":
    main([int(arg) for arg in sys.argv[1:]] or list(range(10)))
