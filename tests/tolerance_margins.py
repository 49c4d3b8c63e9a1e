"""Acceptance lines across tolerances and root seeds: a report, not a test.

Reruns acceptance criteria 4-9 and the supplementary rate check
(``seed_margins.run_seed``) with the library's run-path tolerances changed:

- ``EPS_CONFLICT``: Dempster's rule treats K >= 1 - EPS_CONFLICT as total
  conflict and skips the pair (1e-9 by default; 0 skips only K >= 1);
- ``EPS_PRUNE``: ``renormalize`` drops masses below it (1e-12 by default);
- ``EPS_CONV``: the run loop's "unchanged" tolerance (1e-9 by default).

Each child process of ``studies.run_cells`` sets the tolerance in its own
``dstcons.mass`` or ``dstcons.simulation`` before its first run.  Only the
run loop's ``EPS_CONV`` moves: AC4's unanimity count reads the default in
this process, so the criteria's bounds stay as they are.

Pytest does not collect this file.  From the repository root:

    DSTCONS_WORKERS=2 python tests/tolerance_margins.py [SETTING ...] [SEED ...]

A SETTING is ``default`` or ``NAME=VALUE``, for example
``EPS_CONFLICT=1e-15``.  With no setting the grid runs: the defaults, then
each other value of one tolerance at a time.  Seeds default to 0-3.  With
two workers one (setting, seed) takes one to two minutes, and about ten
under ``EPS_PRUNE=0``.
"""

import sys

import seed_margins
from studies import CRITERIA, TOLERANCES

GRID = {
    "EPS_CONFLICT": (1e-12, 1e-15, 0.0),
    "EPS_PRUNE": (1e-15, 0.0),
    "EPS_CONV": (1e-12, 0.0),
}


def parse_setting(arg: str) -> dict[str, float]:
    if arg == "default":
        return {}
    name, _, value = arg.partition("=")
    if name not in TOLERANCES:
        raise SystemExit(f"unknown tolerance {name!r}; expected one of {sorted(TOLERANCES)}")
    return {name: float(value)}


def main(settings: list[dict[str, float]], seeds: list[int]) -> None:
    failed: dict[str, list[str]] = {}
    for setting in settings:
        label = ",".join(f"{name}={value:g}" for name, value in setting.items()) or "default"
        failed[label] = []
        for seed in seeds:
            for passed, line in seed_margins.run_seed(seed, setting):
                print(f"{label} seed {seed} {'PASS' if passed else 'FAIL'} {line}", flush=True)
                if not passed:
                    failed[label].append(f"seed {seed} FAIL {line.split(': ', 1)[0]}")
    print()
    total = len(CRITERIA) * len(seeds)
    for label, failures in failed.items():
        print(f"{label}: {total - len(failures)}/{total} lines pass")
        for failure in failures:
            print(f"  {failure}")


if __name__ == "__main__":
    args = sys.argv[1:]
    seeds = [int(arg) for arg in args if arg.isdigit()] or list(range(4))
    settings = [parse_setting(arg) for arg in args if not arg.isdigit()]
    if not settings:
        settings = [{}] + [{name: value} for name, values in GRID.items() for value in values]
    main(settings, seeds)
