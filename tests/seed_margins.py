"""Acceptance margins across root seeds: a report, not a test.

Runs acceptance criteria 4-9 and the supplementary rate check at root seeds
0-9 (30 runs per cell, as in ``test_acceptance``), prints every criterion's
line at each seed, then the number of seeds at which each line passes.  The
bounds, cells and run counts are those of ``studies``, which the acceptance
module also reads; only the root seed changes.  Pytest does not collect this
file.  From the repository root:

    DSTCONS_WORKERS=2 python tests/seed_margins.py [SEED ...]

One seed takes about half a minute with two workers.
"""

import sys

import studies


def run_seed(seed: int, setting: dict[str, float] | None = None) -> list[tuple[bool, str]]:
    """Whether each criterion passes at root ``seed`` under ``setting``, and its line."""
    sweeps = studies.run_cells(studies.CELLS, seed, setting)
    return [check(*(sweeps[c] for c in check.cells)) for check in studies.CRITERIA]


def main(seeds: list[int]) -> None:
    failed_at: dict[str, list[int]] = {}
    for seed in seeds:
        for passed, line in run_seed(seed):
            print(f"seed {seed} {'PASS' if passed else 'FAIL'} {line}", flush=True)
            label = line.split(": ", 1)[0]
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
