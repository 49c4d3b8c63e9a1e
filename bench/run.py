"""dstcons benchmark: Monte Carlo sweep throughput, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload headline --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --smoke

With ``--trace 0`` the timed phase repeats whole rounds of the workload's
operations until ``--seconds`` of operation time have passed, then checks the
outputs and prints the end-to-end metrics.  Operation times are corrected for
the host's speed with a calibration loop run before and after each operation
(see ``hostspeed``); the uncorrected rate is printed alongside.  With ``--trace 1`` it runs the
workload's fixed traced rounds once untraced and once with spans around every
layer boundary, adds micro-timings of the public functions, and prints the
per-layer metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 only
when every operation and every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 9
sys.path.insert(0, str(BENCH))

import checks as ck  # noqa: E402
import hostspeed  # noqa: E402
import workloads as wl  # noqa: E402


def cpu_seconds() -> float:
    """User + system CPU of this process and of every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest peak resident set among this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class Measure:
    """Operation walls and CPU; time spent between operations is not counted.

    Each operation is bracketed by calibrations (see ``hostspeed``): ``walls``
    and ``cpu`` are corrected to the reference host speed, ``raw_walls`` are
    the walls as measured.
    """

    def __init__(self) -> None:
        self.walls: list[float] = []
        self.raw_walls: list[float] = []
        self.calibrations: list[float] = []
        self.cpu = 0.0
        self.runs = 0
        self.iterations = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    @property
    def timed(self) -> float:
        return sum(self.raw_walls)

    def op(self, fn):
        self.attempted += 1
        before = hostspeed.calibration()
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # an operation that fails is counted, not fatal
            out = None
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - c0
        after = hostspeed.calibration()
        factor = hostspeed.scale(before, after)
        self.walls.append(wall * factor)
        self.raw_walls.append(wall)
        self.calibrations += [before, after]
        self.cpu += cpu * factor
        return out


# ---------------------------------------------------------------------------
# Workload runners: one round of operations, with the checks on their outputs
# ---------------------------------------------------------------------------


class InProcessRunner:
    def __init__(self, workload: wl.InProcess, seed: int, checks: ck.Checks) -> None:
        self.w = workload
        self.seed = seed
        self.checks = checks
        self.bel_best: dict[str, list[float]] = defaultdict(list)
        self.converged: dict[str, list[bool]] = defaultdict(list)
        self.first_round: list = []

    def run_round(self, m: Measure, index: int) -> None:
        import dstcons.harness as harness

        for spec in self.w.round_specs(wl.root_seed(self.seed, index)):
            sweep = m.op(lambda: harness.run_sweep(spec, workers=1, keep_results=True))
            if sweep is None:
                continue
            cap = spec.max_iterations
            m.runs += len(sweep.records)
            m.iterations += sum(rec.convergence_iteration if rec.converged else cap
                                for rec in sweep.records)
            ck.check_final_states(self.checks, sweep.results)
            ck.check_sweep(self.checks, sweep, spec.convergence_window)
            for rec in sweep.records:
                self.bel_best[rec.operator].append(rec.mean_bel[-1])
                self.converged[rec.operator].append(rec.converged)
            if index == 0:
                self.first_round.append((spec, sweep.records))

    def finish(self, smoke: bool) -> None:
        import dstcons

        ck.check_orderings(self.checks, self.w.name, self.bel_best, self.converged,
                           full_size=not smoke)
        if not self.first_round:
            return
        # Rerun one seeded operation of round 0, sampling what it combines.
        spec, records = random.Random(self.seed).choice(self.first_round)
        with ck.sampling_combinations(self.seed) as sampler:
            again = dstcons.run_sweep(spec, workers=1)
        self.checks.record("rerun reproduces the operation", again.records == records,
                           f"{spec.operators[0]} root seed {spec.root_seed}")
        ck.check_combinations(self.checks, sampler.samples)


class CliRunner:
    """``dstcons sweep`` and ``dstcons fixedpoints`` through the CLI's entry point.

    The commands run in this process: a child interpreter's start-up and
    imports (measured by ``setup_s``) swing with phases of their own that the
    host-speed correction does not follow, and took the corrected spread of
    this workload to 0.13-0.15 over ten seeds.
    """

    def __init__(self, workload: wl.CliGrid, seed: int, checks: ck.Checks, workdir: Path,
                 config: Path, entry=None, check_pool: bool = True) -> None:
        from dstcons.cli import cli_main

        self.w = workload
        self.seed = seed
        self.checks = checks
        self.workdir = workdir
        self.config = config
        # {"cli.sweep": fn, "cli.fixedpoints": fn}, each taking argv and
        # returning the exit code; the traced run passes wrapped entry points.
        self.entry = entry or {"cli.sweep": cli_main, "cli.fixedpoints": cli_main}
        self.check_pool = check_pool

    def command(self, kind: str, args: list[str]) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.entry[kind](args)
        if code != 0:
            raise RuntimeError(f"dstcons {' '.join(args)} exited {code}")

    def sweep_args(self, index: int, out: Path, workers: int) -> list[str]:
        return self.w.sweep_args(self.config, wl.root_seed(self.seed, index), out, workers)

    def run_round(self, m: Measure, index: int) -> None:
        rdir = self.workdir / f"round{index}"
        out = rdir / "grid.csv"
        m.op(lambda: self.command("cli.sweep", self.sweep_args(index, out, 1)))
        if out.exists():
            runs, iterations = ck.check_sweep_csv(
                self.checks, out, rdir / "grid_runs.csv", self.w.convergence_window,
                self.w.max_iterations)
            m.runs += runs
            m.iterations += iterations
        fixed = rdir / "fixedpoints.csv"
        m.op(lambda: self.command("cli.fixedpoints", self.w.fixedpoints_args(fixed)))
        if fixed.exists():
            ck.check_fixedpoints_csv(self.checks, fixed, self.w.fixedpoint_states)
        if index > 0:
            shutil.rmtree(rdir, ignore_errors=True)

    def finish(self, smoke: bool) -> None:
        import dstcons

        first = self.workdir / "round0"
        if not (first / "grid_runs.csv").exists():
            return
        if self.check_pool:
            # The same sweep through the process pool must write the same bytes.
            pooled = self.workdir / "round0_pool"
            wl.run_cli(SRC, self.sweep_args(0, pooled / "grid.csv", self.w.pool_workers))
            for name in ("grid.csv", "grid_runs.csv"):
                same = (first / name).read_bytes() == (pooled / name).read_bytes()
                self.checks.record("CSV bytes identical at 1 and 2 workers", same, name)
        ck.check_average_jacobian(self.checks, self.w.fixedpoint_states, self.seed)

        # Rerun one seeded (operator, n) slice of round 0 through the API, sampling
        # what it combines; it must match the CLI's runs file exactly.
        rng = random.Random(self.seed)
        operator, n = rng.choice(self.w.operators), rng.choice(self.w.n_values)
        spec = dstcons.SweepSpec(
            operators=(operator,), n_values=(n,), k=self.w.k, r_values=self.w.r_values,
            sigma_values=self.w.sigma_values, runs_per_cell=self.w.runs_per_cell,
            max_iterations=self.w.max_iterations, root_seed=wl.root_seed(self.seed, 0),
            baselines=True, convergence_window=self.w.convergence_window)
        with ck.sampling_combinations(self.seed) as sampler:
            sweep = dstcons.run_sweep(spec, workers=1)
        with open(first / "grid_runs.csv", newline="") as fh:
            rows = {(r["operator"], r["n"], r["r"], r["sigma"], r["consensus"], r["run_index"]): r
                    for r in csv.DictReader(fh)}
        for rec in sweep.records:
            key = (rec.operator, str(rec.n), repr(float(rec.r)), repr(float(rec.sigma)),
                   "true" if rec.consensus else "false", str(rec.run_index))
            row = rows.get(key)
            same = (row is not None and row["seed"] == str(rec.seed)
                    and row[f"bel_s{rec.n}"] == repr(rec.mean_bel[-1]))
            self.checks.record("API rerun matches the CLI runs file", same, str(key))
        ck.check_combinations(self.checks, sampler.samples)


def make_runner(workload, seed, checks, workdir, config, entry=None, check_pool=True):
    if isinstance(workload, wl.InProcess):
        return InProcessRunner(workload, seed, checks)
    return CliRunner(workload, seed, checks, workdir, config, entry, check_pool)


# ---------------------------------------------------------------------------
# Set-up, the timed phase and the traced run
# ---------------------------------------------------------------------------


def setup_probe(name: str, seed: int, smoke: bool, workdir: Path) -> float:
    """One fresh interpreter's time to import dstcons and build the workload's inputs."""
    code = (
        "import sys, time; from pathlib import Path; t = time.perf_counter(); "
        f"sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]; import dstcons, workloads; "
        f"workloads.build(workloads.get({name!r}, {smoke}), {seed}, Path({str(workdir)!r})); "
        "print(time.perf_counter() - t)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def timed_run(name: str, seed: int, seconds: float, smoke: bool, workdir: Path):
    workload = wl.get(name, smoke)
    checks = ck.Checks()
    # Set-up is probed SETUP_SAMPLES times, spread evenly over the timed phase
    # (between rounds, untimed), so that its median sees the same machine as
    # the operations do.  It is reported as measured: a fresh interpreter's
    # import time here swings between about 0.09 and 0.16 s in phases of a
    # few seconds that the calibration loop does not follow.
    samples = 1 if smoke else SETUP_SAMPLES
    due = [seconds * i / max(samples - 1, 1) for i in range(samples)]
    setup = []

    def probe_due() -> None:
        while due and due[0] <= m.timed:
            due.pop(0)
            setup.append(setup_probe(name, seed, smoke, workdir / f"setup{len(setup)}"))

    config = wl.build(workload, seed, workdir)
    runner = make_runner(workload, seed, checks, workdir, config)
    hostspeed.calibration()  # the first pass runs cold and would skew the first factor
    m = Measure()
    index = 0
    while True:
        probe_due()
        runner.run_round(m, index)
        index += 1
        if m.timed >= seconds:
            break
    probe_due()
    rss = peak_rss_mb()
    runner.finish(smoke)
    timed = sum(m.walls)
    metrics = {
        "setup_s": (median(setup), "s"),
        "runs_per_s": (m.runs / timed, "runs/s"),
        "iterations_per_s": (m.iterations / timed, "iterations/s"),
        "op_p50_s": (median(m.walls), "s"),
        "cpu_ms_per_run": (m.cpu / max(m.runs, 1) * 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    notes = [f"rounds {index}, operations {m.attempted} (op_p50_s over {len(m.walls)}), "
             f"runs {m.runs}, iterations {m.iterations}, timed {timed:.3f} s corrected, "
             f"{m.timed:.3f} s as measured ({m.runs / m.timed:.4g} runs/s uncorrected), "
             f"calibration median {median(m.calibrations) * 1e3:.3f} ms (reference "
             f"{hostspeed.REFERENCE_S * 1e3:g} ms), set-up probes {len(setup)}"]
    return metrics, m, checks, notes


def traced_run(name: str, seed: int, smoke: bool, workdir: Path):
    from dstcons.cli import cli_main

    import micro
    import tracing

    workload = wl.get(name, smoke)
    rounds = 1 if smoke else workload.trace_rounds
    checks = ck.Checks()
    config = wl.build(workload, seed, workdir)

    def passes(tracer, tag: str, w=workload, n_rounds=rounds):
        """The fixed rounds, in-process; spans go to ``tracer`` when given."""
        entry = {"cli.sweep": cli_main, "cli.fixedpoints": cli_main}
        restore = None
        if tracer is not None:
            restore = tracing.install(tracer)
            entry = {kind: tracer.span(kind, cli_main) for kind in entry}
        cfg = config if w is workload else wl.build(w, seed, workdir / tag)
        runner = make_runner(w, seed, checks, workdir / tag, cfg, entry=entry, check_pool=False)
        m = Measure()
        try:
            for index in range(n_rounds):
                runner.run_round(m, index)
        finally:
            if restore is not None:
                restore()
        return m

    # Both walls are corrected operation time (see Measure), so that a change
    # of host speed between the two passes does not pass for tracing overhead.
    untraced_wall = sum(passes(None, "untraced").walls)
    work = tracing.Tracer()
    m = passes(work, "traced")
    traced_wall = sum(m.walls)
    # Boundaries this workload never crosses are measured on the tiny CLI grid.
    probe = tracing.Tracer()
    passes(probe, "probe", w=wl.SMOKE["cli_grid"], n_rounds=1)

    metrics = tracing.span_metrics(work, probe)
    states = (3,) if smoke else micro.CLASSIFY_STATES
    metrics.update(micro.micro_metrics(seed, workdir, classify_states=states))
    metrics["cli.import_s"] = (micro.import_seconds(SRC), "s")

    grid = wl.get("cli_grid", smoke)
    grid_config = wl.build(grid, seed, workdir / "parallel")
    walls = {}
    for workers in (1, 2):
        out = workdir / "parallel" / f"w{workers}" / "grid.csv"
        args = grid.sweep_args(grid_config, wl.root_seed(seed, 0), out, workers)
        start = time.perf_counter()
        wl.run_cli(SRC, args)
        walls[workers] = time.perf_counter() - start
    metrics["harness.parallel_wall_1w_s"] = (walls[1], "s")
    metrics["harness.parallel_wall_2w_s"] = (walls[2], "s")
    metrics["harness.parallel_efficiency"] = (walls[1] / (2 * walls[2]), "ratio")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.traced_wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_pct"] = ((traced_wall / untraced_wall - 1.0) * 100.0, "%")

    trace_path = OUT / f"trace-{name}-seed{seed}.json"
    work.write(trace_path, {"workload": name, "seed": seed, "rounds": rounds,
                            "untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall})
    notes = [f"traced rounds {rounds}, operations {m.attempted}, spans kept "
             f"{len(work.spans)} (dropped {work.dropped}), written to {trace_path}",
             f"tracing overhead {metrics['trace.overhead_pct'][0]:.1f}% "
             f"({untraced_wall:.3f} s untraced, {traced_wall:.3f} s traced)"]
    return metrics, m, checks, notes


def run_one(name: str, seed: int, seconds: float, traced: bool, smoke: bool) -> tuple[dict, bool]:
    workdir = OUT / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if traced:
            metrics, m, checks, notes = traced_run(name, seed, smoke, workdir)
        else:
            metrics, m, checks, notes = timed_run(name, seed, seconds, smoke, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in notes + checks.lines() + [f"operation failed: {e}" for e in m.errors[:5]]:
        print(f"# {name}: {line}")
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    ok = checks.ok and m.failed == 0
    result = {
        "correct": checks.ok,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload and check at a tiny size, traced and untraced")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that subprocess.run kills the child it waits on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "dstcons" / "__init__.py").is_file():
        print(f"error: no dstcons sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        names = [args.workload] if args.workload else list(wl.WORKLOADS)
        all_ok = True
        for name in names:
            for traced in (False, True):
                _, ok = run_one(name, args.seed, 0.0, traced, smoke=True)
                print(f"# smoke {name} trace={int(traced)}: {'ok' if ok else 'FAILED'}")
                all_ok &= ok
        print(json.dumps({"smoke": "ok" if all_ok else "failed"}))
        return 0 if all_ok else 1
    if args.workload is None:
        parser.error("--workload is required")
    result, ok = run_one(args.workload, args.seed, args.seconds, bool(args.trace), smoke=False)
    print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
