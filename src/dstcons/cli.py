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

    p_run = sub.add_parser("run", help="execute a single simulation run")
    p_run.add_argument("--operator", required=True, choices=ALL_OPERATORS)
    p_run.add_argument("--states", type=int, default=3, help="number of states n")
    p_run.add_argument("--agents", type=int, default=100, help="population size k")
    p_run.add_argument("--evidence-rate", type=float, default=0.05, metavar="R")
    p_run.add_argument("--noise", type=float, default=0.0, metavar="SIGMA")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--max-iterations", type=int, default=5000)
    p_run.add_argument("--no-consensus", action="store_true",
                       help="evidence-only baseline (no pairwise combination)")
    p_run.add_argument("--stride", type=int, default=1,
                       help="trajectory sampling interval (0 disables the file)")
    p_run.add_argument("--out", default="trajectory.csv")
    p_run.add_argument("--format", choices=FORMATS, default="csv")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a Monte Carlo sweep over a parameter grid")
    p_sweep.add_argument("--config", help="flat key = value config file")
    p_sweep.add_argument("--operator", help="override: comma-separated operator list")
    p_sweep.add_argument("--states", help="override: comma-separated n list")
    p_sweep.add_argument("--agents", type=int, help="override: population size k")
    p_sweep.add_argument("--evidence-rate", help="override: comma-separated r list")
    p_sweep.add_argument("--noise", help="override: comma-separated sigma list")
    p_sweep.add_argument("--runs", type=int, help="override: runs per cell")
    p_sweep.add_argument("--max-iterations", type=int)
    p_sweep.add_argument("--seed", type=int, help="override: root seed")
    p_sweep.add_argument("--no-consensus", action="store_true",
                         help="run evidence-only cells instead of consensus cells")
    p_sweep.add_argument("--baselines", action="store_true",
                         help="also run evidence-only baseline cells")
    p_sweep.add_argument("--workers", type=int, default=None,
                         help="parallel worker processes (default: DSTCONS_WORKERS or 1)")
    p_sweep.add_argument("--out", default="sweep.csv")
    p_sweep.add_argument("--format", choices=FORMATS, default="csv")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_fixed = sub.add_parser("fixedpoints",
                             help="residual/stability report for candidate fixed points")
    p_fixed.add_argument("--operator", choices=(*ALL_OPERATORS, "all"), default="all")
    p_fixed.add_argument("--states", type=int, default=3, metavar="N", help="number of states n",
                         choices=range(2, MAX_JACOBIAN_STATES + 1))
    p_fixed.add_argument("--out", default="fixedpoints.csv")
    p_fixed.add_argument("--format", choices=FORMATS, default="csv")
    p_fixed.set_defaults(func=_cmd_fixedpoints)

    figures = ", ".join(f"{k}: {v}" for k, (v, _) in FIGURE_PRESETS.items())
    p_repro = sub.add_parser("reproduce", help=f"canned experiments ({figures})")
    p_repro.add_argument("figure", choices=sorted(FIGURE_PRESETS))
    p_repro.add_argument("--runs", type=int, default=100, help="runs per cell")
    p_repro.add_argument("--seed", type=int, default=0, help="root seed")
    p_repro.add_argument("--max-iterations", type=int, default=5000)
    p_repro.add_argument("--workers", type=int, default=None)
    p_repro.add_argument("--out", default="reproduction", help="output directory")
    p_repro.add_argument("--format", choices=FORMATS, default="csv")
    p_repro.set_defaults(func=_cmd_reproduce)

    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    config = SimConfig(
        operator=args.operator,
        k=args.agents,
        n=args.states,
        r=args.evidence_rate,
        sigma=args.noise,
        max_iterations=args.max_iterations,
        consensus_enabled=not args.no_consensus,
        seed=args.seed,
        trajectory_stride=args.stride,
    )
    result = run(config)
    if config.trajectory_stride:
        trajectory = (args.operator, result.trajectory_iterations,
                      result.trajectory_bel, result.trajectory_pl_best)
        path = emit_trajectory([trajectory], args.out, fmt=args.format)
        print(f"wrote {path}")
    if result.converged:
        print(f"converged: true (iteration {result.convergence_iteration})")
    else:
        print(f"converged: false (cap {config.max_iterations})")
    if args.operator == "dempster":
        print(f"skipped total-conflict interactions: {result.dempster_skips}")
    final_bel, _ = population_means(result.steady_state)
    bels = " ".join(f"s{j + 1}={v:.6g}" for j, v in enumerate(final_bel))
    print(f"final mean Bel: {bels}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    text = Path(args.config).read_text() if args.config else ""
    lists = {"operators": ("--operator", args.operator), "n_values": ("--states", args.states),
             "r_values": ("--evidence-rate", args.evidence_rate),
             "sigma_values": ("--noise", args.noise)}
    overrides = {}
    for key, (flag, value) in lists.items():
        if value is not None:
            try:
                overrides[key] = CONFIG_KEYS[key](value)
            except ValueError as exc:
                raise ValueError(f"bad value for {flag}: {exc}") from None
    overrides.update(k=args.agents, runs_per_cell=args.runs,
                     max_iterations=args.max_iterations, root_seed=args.seed)
    if args.no_consensus:
        overrides["consensus"] = False
    if args.baselines:
        overrides["baselines"] = True
    spec = sweep_spec_from_config(text, overrides)
    sweep = run_sweep(spec, workers=args.workers)
    for path in emit_csv(sweep.summaries, args.out, sweep.records, fmt=args.format):
        print(f"wrote {path}")
    return 0


def _cmd_fixedpoints(args: argparse.Namespace) -> int:
    operators = ALL_OPERATORS if args.operator == "all" else (args.operator,)
    frame = FrameOfDiscernment(args.states)
    columns = ["operator", "subset", "residual", "spectral_radius", "classification"]
    candidates = [*map(frame.singleton, range(1, frame.n + 1)), frame.full_set]
    rows = []
    for operator in operators:
        for subset in candidates:
            report = classify(operator, MassFunction(frame, {subset: 1.0}))
            rows.append([operator, frame.subset_label(subset), report.residual,
                         report.spectral_radius, report.classification])
    _write_table(Path(args.out), columns, rows, args.format)
    print(f"wrote {args.out}")
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    written = reproduce(
        args.figure,
        args.out,
        runs=args.runs,
        root_seed=args.seed,
        max_iterations=args.max_iterations,
        workers=args.workers,
        fmt=args.format,
    )
    for path in written:
        print(f"wrote {path}")
    return 0


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
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
