"""Acceptance lines across tolerances and root seeds: a report, not a test.

Reruns acceptance criteria 4-9 and the supplementary rate check
(``seed_margins.run_seed``) with the library's run-path tolerances changed:

- ``EPS_CONFLICT``: Dempster's rule treats K >= 1 - EPS_CONFLICT as total
  conflict and skips the pair (1e-9 by default; 0 skips only K >= 1);
- ``EPS_PRUNE``: ``renormalize`` drops masses below it (1e-12 by default);
- ``EPS_CONV``: the run loop's "unchanged" tolerance (1e-9 by default).

A setting patches ``dstcons.mass.EPS_CONFLICT``, ``dstcons.mass.EPS_PRUNE``
and ``dstcons.simulation.EPS_CONV``, runs every seed, and restores them.
Only the run loop's ``EPS_CONV`` moves: AC4's unanimity count keeps the
acceptance module's own import, so the criteria's bounds stay as they are.
With ``DSTCONS_WORKERS=2`` each sweep forks its process pool after the
patch, and the workers inherit it (the fork start method, the default on
Linux with Python 3.11); a spawned worker would re-import the defaults.

Pytest does not collect this file.  From the repository root:

    DSTCONS_WORKERS=2 PYTHONPATH=src python tests/tolerance_margins.py [SETTING ...] [SEED ...]

A SETTING is ``default`` or ``NAME=VALUE``, for example
``EPS_CONFLICT=1e-15``.  With no setting the grid runs: the defaults, then
each other value of one tolerance at a time.  Seeds default to 0-3.  With
two workers one (setting, seed) takes one to two minutes, and about ten
under ``EPS_PRUNE=0``.
"""

from __future__ import annotations

import contextlib
import sys

import seed_margins

from dstcons import mass, simulation

TARGETS = {"EPS_CONFLICT": mass, "EPS_PRUNE": mass, "EPS_CONV": simulation}
GRID = {
    "EPS_CONFLICT": (1e-12, 1e-15, 0.0),
    "EPS_PRUNE": (1e-15, 0.0),
    "EPS_CONV": (1e-12, 0.0),
}


@contextlib.contextmanager
def patched(setting: dict[str, float]):
    """The tolerances in ``setting`` replaced for the duration of the block."""
    saved = {name: getattr(module, name) for name, module in TARGETS.items()}
    try:
        for name, value in setting.items():
            setattr(TARGETS[name], name, value)
        yield
    finally:
        for name, value in saved.items():
            setattr(TARGETS[name], name, value)


def parse_setting(arg: str) -> dict[str, float]:
    if arg == "default":
        return {}
    name, _, value = arg.partition("=")
    if name not in TARGETS:
        raise SystemExit(f"unknown tolerance {name!r}; expected one of {sorted(TARGETS)}")
    return {name: float(value)}


def label(setting: dict[str, float]) -> str:
    return ",".join(f"{name}={value:g}" for name, value in setting.items()) or "default"


def main(settings: list[dict[str, float]], seeds: list[int]) -> None:
    failed: dict[str, list[str]] = {}
    for setting in settings:
        name = label(setting)
        failed[name] = []
        with patched(setting):
            for seed in seeds:
                for line, passed in seed_margins.run_seed(seed):
                    print(f"{name} seed {seed} {line}", flush=True)
                    if not passed:
                        failed[name].append(f"seed {seed} {line.split(': ', 1)[0]}")
    print()
    total = len(seed_margins.CRITERIA) * len(seeds)
    for name, failures in failed.items():
        print(f"{name}: {total - len(failures)}/{total} lines pass")
        for failure in failures:
            print(f"  {failure}")


if __name__ == "__main__":
    args = sys.argv[1:]
    seeds = [int(arg) for arg in args if arg.isdigit()] or list(range(4))
    settings = [parse_setting(arg) for arg in args if not arg.isdigit()]
    if not settings:
        settings = [{}] + [{name: value} for name, values in GRID.items() for value in values]
    main(settings, seeds)
