"""Command-line front end: single runs, sweeps, fixed-point reports, canned experiments."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .fixedpoint import MAX_JACOBIAN_STATES, classify
from .harness import (
    ALL_OPERATORS,
    CONFIG_KEYS,
    FIGURE_PRESETS,
    FORMATS,
    _write_table,
    emit_csv,
    emit_trajectory,
    reproduce,
    run_sweep,
    sweep_spec_from_config,
)
from .mass import FrameOfDiscernment, MassFunction
from .simulation import SimConfig, population_means, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dstcons",
        description=(
            "Multi-agent consensus on the best-of-n problem with "
            "Dempster-Shafer belief combination."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Each flag's dest is the SimConfig field, sweep config key or reproduce
    # keyword it sets; a flag left out is absent, so the library default applies.
    absent = argparse.SUPPRESS

    p_run = sub.add_parser("run", help="execute a single simulation run", argument_default=absent)
    p_run.add_argument("--operator", required=True, choices=ALL_OPERATORS)
    p_run.add_argument("--states", dest="n", type=int, metavar="STATES",
                       help="number of states n")
    p_run.add_argument("--agents", dest="k", type=int, metavar="AGENTS",
                       help="population size k")
    p_run.add_argument("--evidence-rate", dest="r", type=float, metavar="R")
    p_run.add_argument("--noise", dest="sigma", type=float, metavar="SIGMA")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--max-iterations", type=int)
    p_run.add_argument("--no-consensus", dest="consensus", action="store_false",
                       help="evidence-only baseline (no pairwise combination)")
    p_run.add_argument("--stride", dest="trajectory_stride", type=int, default=1,
                       metavar="STRIDE",
                       help="trajectory sampling interval (0 disables the file)")
    p_run.add_argument("--out", default="trajectory.csv")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a Monte Carlo sweep over a parameter grid",
                             argument_default=absent)
    p_sweep.add_argument("--config", default=None, help="flat key = value config file")
    p_sweep.add_argument("--operator", dest="operators", metavar="OPERATOR",
                         help="override: comma-separated operator list")
    p_sweep.add_argument("--states", dest="n_values", metavar="STATES",
                         help="override: comma-separated n list")
    p_sweep.add_argument("--agents", dest="k", type=int, metavar="AGENTS",
                         help="override: population size k")
    p_sweep.add_argument("--evidence-rate", dest="r_values", metavar="EVIDENCE_RATE",
                         help="override: comma-separated r list")
    p_sweep.add_argument("--noise", dest="sigma_values", metavar="NOISE",
                         help="override: comma-separated sigma list")
    p_sweep.add_argument("--runs", dest="runs_per_cell", type=int, metavar="RUNS",
                         help="override: runs per cell")
    p_sweep.add_argument("--max-iterations", type=int)
    p_sweep.add_argument("--seed", dest="root_seed", type=int, metavar="SEED",
                         help="override: root seed")
    p_sweep.add_argument("--no-consensus", dest="consensus", action="store_false",
                         help="run evidence-only cells instead of consensus cells")
    p_sweep.add_argument("--baselines", action="store_true",
                         help="also run evidence-only baseline cells")
    p_sweep.add_argument("--workers", type=int, default=None,
                         help="parallel worker processes (default: DSTCONS_WORKERS or 1)")
    p_sweep.add_argument("--out", default="sweep.csv")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_fixed = sub.add_parser("fixedpoints",
                             help="residual/stability report for candidate fixed points")
    p_fixed.add_argument("--operator", choices=(*ALL_OPERATORS, "all"), default="all")
    p_fixed.add_argument("--states", type=int, default=SimConfig.n, metavar="N",
                         help="number of states n", choices=range(2, MAX_JACOBIAN_STATES + 1))
    p_fixed.add_argument("--out", default="fixedpoints.csv")
    p_fixed.set_defaults(func=_cmd_fixedpoints)

    figures = ", ".join(f"{k}: {v}" for k, (v, _) in FIGURE_PRESETS.items())
    p_repro = sub.add_parser("reproduce", help=f"canned experiments ({figures})",
                             argument_default=absent)
    p_repro.add_argument("figure", choices=sorted(FIGURE_PRESETS))
    p_repro.add_argument("--runs", type=int, help="runs per cell")
    p_repro.add_argument("--seed", dest="root_seed", type=int, metavar="SEED", help="root seed")
    p_repro.add_argument("--max-iterations", type=int)
    p_repro.add_argument("--workers", type=int)
    p_repro.add_argument("--out", dest="out_dir", default="reproduction", metavar="OUT",
                         help="output directory")
    p_repro.set_defaults(func=_cmd_reproduce)

    for command in (p_run, p_sweep, p_fixed, p_repro):
        command.add_argument("--format", dest="fmt", choices=FORMATS, default="csv")
    return parser


def _cmd_run(settings: dict) -> int:
    out, fmt = settings.pop("out"), settings.pop("fmt")
    config = SimConfig(**settings)
    result = run(config)
    if config.trajectory_stride:
        trajectory = (config.operator, result.trajectory_iterations,
                      result.trajectory_bel, result.trajectory_pl_best)
        path = emit_trajectory([trajectory], out, fmt=fmt)
        print(f"wrote {path}")
    if result.converged:
        print(f"converged: true (iteration {result.convergence_iteration})")
    else:
        print(f"converged: false (cap {config.max_iterations})")
    if config.operator == "dempster":
        print(f"skipped total-conflict interactions: {result.dempster_skips}")
    final_bel, _ = population_means(result.steady_state)
    bels = " ".join(f"s{j + 1}={v:.6g}" for j, v in enumerate(final_bel))
    print(f"final mean Bel: {bels}")
    return 0


# Sweep list flag -> the config key it sets: its comma-separated text is
# parsed as that key's config-file value, and a bad value names the flag.
LIST_FLAGS = {"--operator": "operators", "--states": "n_values",
              "--evidence-rate": "r_values", "--noise": "sigma_values"}


def _cmd_sweep(settings: dict) -> int:
    config, workers = settings.pop("config"), settings.pop("workers")
    out, fmt = settings.pop("out"), settings.pop("fmt")
    text = Path(config).read_text() if config else ""
    for flag, key in LIST_FLAGS.items():
        if key in settings:
            try:
                settings[key] = CONFIG_KEYS[key](settings[key])
            except ValueError as exc:
                raise ValueError(f"bad value for {flag}: {exc}") from None
    spec = sweep_spec_from_config(text, settings)
    sweep = run_sweep(spec, workers=workers)
    for path in emit_csv(sweep.summaries, out, sweep.records, fmt=fmt):
        print(f"wrote {path}")
    return 0


def _cmd_fixedpoints(settings: dict) -> int:
    operators = ALL_OPERATORS if settings["operator"] == "all" else (settings["operator"],)
    frame = FrameOfDiscernment(settings["states"])
    columns = ["operator", "subset", "residual", "spectral_radius", "classification"]
    candidates = [*map(frame.singleton, range(1, frame.n + 1)), frame.full_set]
    rows = []
    for operator in operators:
        for subset in candidates:
            report = classify(operator, MassFunction(frame, {subset: 1.0}))
            rows.append([operator, frame.subset_label(subset), report.residual,
                         report.spectral_radius, report.classification])
    _write_table(Path(settings["out"]), columns, rows, settings["fmt"])
    print(f"wrote {settings['out']}")
    return 0


def _cmd_reproduce(settings: dict) -> int:
    for path in reproduce(**settings):
        print(f"wrote {path}")
    return 0


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        settings = vars(parser.parse_args(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    del settings["command"]
    try:
        return settings.pop("func")(settings)
    except ValueError as exc:  # covers ConfigError and parameter validation
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
