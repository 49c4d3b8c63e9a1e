"""Spans around the calls from one dstcons module into the next, for the traced run.

``install`` replaces the module attributes through which one layer calls the
next with timing wrappers and returns a function that puts the originals back.
Spans are kept in memory as (name, start, end, parent index) up to
``max_spans``; beyond that only the per-name aggregates grow.  A span's self
time is its duration minus the time its child spans cover.  Bookkeeping the
wrappers do after a call (counting focal pairs, comparing an update with the
prior belief) is charged to neither the span nor its parent.
"""

from __future__ import annotations

import json
import pickle
import time
from array import array
from collections import defaultdict
from pathlib import Path
from statistics import median

RESULT_SIZE_SAMPLES = 8  # runs whose pickled result size is measured


class Tracer:
    def __init__(self, max_spans: int = 50_000) -> None:
        self.spans: list = []
        self.max_spans = max_spans
        self.dropped = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.durations: dict[str, array] = defaultdict(lambda: array("d"))
        self.samples: dict[str, list] = defaultdict(list)
        self._stack: list[list] = []  # [span index, child seconds, name]

    def current(self) -> str | None:
        return self._stack[-1][2] if self._stack else None

    def span(self, name: str, fn, after=None, keep: bool = False):
        """``fn`` wrapped in a span; ``after(args, result)`` runs outside all spans' self time."""
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            if len(spans) < self.max_spans:
                index = len(spans)
                spans.append(None)
            else:
                index = -2
                self.dropped += 1
            frame = [index, 0.0, name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if index >= 0:
                    spans[index] = (name, start, end, parent)
                if keep:
                    self.durations[name].append(duration)
            if after is not None:
                t0 = clock()
                after(args, result)
                spent = clock() - t0
                if stack:
                    stack[-1][1] += spent
                self.counts["trace.bookkeeping_s"] += spent
            return result

        return traced

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        names = sorted(self.calls)
        payload = {
            "meta": meta,
            "aggregates": {
                name: {"calls": self.calls[name], "total_s": self.total[name],
                       "self_s": self.self_time[name]}
                for name in names
            },
            "counts": dict(self.counts),
            "spans_dropped": self.dropped,
            "spans": [list(s) for s in self.spans if s is not None],
        }
        path.write_text(json.dumps(payload))


def _differs(prior: dict, posterior: dict, eps: float) -> bool:
    for subset in prior.keys() | posterior.keys():
        if abs(prior.get(subset, 0.0) - posterior.get(subset, 0.0)) > eps:
            return True
    return False


def install(tracer: Tracer):
    """Wrap the layer boundaries of dstcons; returns the function that unwraps them."""
    import dstcons.cli as cli
    import dstcons.fixedpoint as fixedpoint
    import dstcons.harness as harness
    import dstcons.simulation as simulation

    originals: list = []

    def patch(module, attr, wrapper) -> None:
        originals.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    counts, maxima = tracer.counts, tracer.maxima
    eps_conv = simulation.EPS_CONV

    def after_combine(args, result) -> None:
        f1, f2 = args[0].focal, args[1].focal
        counts["mass.combine_focal_pairs"] += len(f1) * len(f2)
        posterior = result.focal
        if len(posterior) > maxima["mass.focal_sets_max"]:
            maxima["mass.focal_sets_max"] = len(posterior)
        parent = tracer.current()
        if parent == "simulation.evidence_step":
            priors = (f1,)
        elif parent == "simulation.consensus_step":
            priors = (f1, f2)
        else:
            return
        for prior in priors:
            counts["simulation.updates"] += 1
            if _differs(prior, posterior, eps_conv):
                counts["simulation.changed_updates"] += 1

    combiners: dict = {}
    get_combiner = getattr(simulation, "get_combiner", None)

    def traced_get_combiner(name):
        if name not in combiners:
            combiners[name] = tracer.span("mass.combine", get_combiner(name),
                                          after=after_combine, keep=True)
        return combiners[name]

    def after_evidence(args, result) -> None:
        value = args[2] + (args[3] if len(args) > 3 else 0.0)
        if value < 0.0 or value > 1.0:
            counts["evidence.clamped"] += 1

    def after_run(args, result) -> None:
        config = result.config
        counts["simulation.runs"] += 1
        counts["simulation.iterations"] += (
            result.convergence_iteration if result.converged else config.max_iterations
        )
        counts["simulation.dempster_skips"] += result.dempster_skips
        sizes = tracer.samples["harness.result_bytes"]
        if len(sizes) < RESULT_SIZE_SAMPLES:
            sizes.append(len(pickle.dumps(result)))

    def after_emit(args, result) -> None:
        counts["harness.output_bytes"] += sum(Path(p).stat().st_size for p in result)

    if get_combiner is not None:
        patch(simulation, "get_combiner", traced_get_combiner)
    # (module, attribute, span, after-call hook, keep durations); an attribute
    # a later change removes is left out, so its numbers read as absent.
    boundaries = [
        (simulation, "renormalize", "mass.renormalize", None, False),
        (simulation, "select_state", "evidence.select_state", None, False),
        (simulation, "evidence_mass", "evidence.evidence_mass", after_evidence, False),
        (simulation, "approx_eq", "simulation.approx_eq", None, False),
        (simulation, "evidence_step", "simulation.evidence_step", None, False),
        (simulation, "consensus_step", "simulation.consensus_step", None, False),
        (harness, "run", "simulation.run", after_run, True),
        (harness, "derive_seed", "harness.derive_seed", None, False),
        (harness, "summarize_cell", "harness.summarize_cell", None, False),
        (cli, "emit_csv", "harness.emit_csv", after_emit, False),
        (cli, "classify", "fixedpoint.classify", None, False),
        (fixedpoint, "numeric_jacobian", "fixedpoint.numeric_jacobian", None, False),
        (fixedpoint, "_self_image", "fixedpoint.self_image", None, False),
    ]
    for module, attr, name, after, keep in boundaries:
        if hasattr(module, attr):
            patch(module, attr, tracer.span(name, getattr(module, attr), after=after, keep=keep))
    # The CLI imported run_sweep by name: both references get the same wrapper.
    traced_sweep = tracer.span("harness.run_sweep", harness.run_sweep)
    patch(harness, "run_sweep", traced_sweep)
    patch(cli, "run_sweep", traced_sweep)

    def restore() -> None:
        for module, attr, original in reversed(originals):
            setattr(module, attr, original)

    return restore


def _quantile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _changed_ratio(t: Tracer) -> float:
    return t.counts["simulation.changed_updates"] / t.counts["simulation.updates"]


# metric -> (span whose calls it needs, unit, value from the tracer holding that span)
SPAN_METRICS = {
    "mass.combine_calls": ("mass.combine", "count", lambda t: t.calls["mass.combine"]),
    "mass.combine_focal_pairs": (
        "mass.combine", "count", lambda t: t.counts["mass.combine_focal_pairs"]),
    "mass.combine_s": ("mass.combine", "s", lambda t: t.total["mass.combine"]),
    "mass.combine_ns_per_pair": (
        "mass.combine", "ns",
        lambda t: t.total["mass.combine"] / t.counts["mass.combine_focal_pairs"] * 1e9),
    "mass.combine_p50_us": (
        "mass.combine", "us", lambda t: median(t.durations["mass.combine"]) * 1e6),
    "mass.combine_p99_us": (
        "mass.combine", "us", lambda t: _quantile(t.durations["mass.combine"], 0.99) * 1e6),
    "mass.focal_sets_max": ("mass.combine", "count", lambda t: t.maxima["mass.focal_sets_max"]),
    "mass.renormalize_calls": ("mass.renormalize", "count", lambda t: t.calls["mass.renormalize"]),
    "mass.renormalize_s": ("mass.renormalize", "s", lambda t: t.total["mass.renormalize"]),
    "evidence.select_state_calls": (
        "evidence.select_state", "count", lambda t: t.calls["evidence.select_state"]),
    "evidence.select_state_s": (
        "evidence.select_state", "s", lambda t: t.total["evidence.select_state"]),
    "evidence.evidence_mass_s": (
        "evidence.evidence_mass", "s", lambda t: t.total["evidence.evidence_mass"]),
    "evidence.clamped": ("evidence.evidence_mass", "count", lambda t: t.counts["evidence.clamped"]),
    "simulation.run_p50_ms": (
        "simulation.run", "ms", lambda t: median(t.durations["simulation.run"]) * 1e3),
    "simulation.iterations": (
        "simulation.run", "count", lambda t: t.counts["simulation.iterations"]),
    "simulation.us_per_iteration": (
        "simulation.run", "us",
        lambda t: t.total["simulation.run"] / t.counts["simulation.iterations"] * 1e6),
    "simulation.run_self_s": ("simulation.run", "s", lambda t: t.self_time["simulation.run"]),
    "simulation.evidence_step_self_s": (
        "simulation.evidence_step", "s", lambda t: t.self_time["simulation.evidence_step"]),
    "simulation.consensus_step_self_s": (
        "simulation.consensus_step", "s", lambda t: t.self_time["simulation.consensus_step"]),
    "simulation.approx_eq_calls": (
        "simulation.approx_eq", "count", lambda t: t.calls["simulation.approx_eq"]),
    "simulation.approx_eq_s": ("simulation.approx_eq", "s", lambda t: t.total["simulation.approx_eq"]),
    "simulation.updates": ("mass.combine", "count", lambda t: t.counts["simulation.updates"]),
    "simulation.changed_update_ratio": ("mass.combine", "ratio", _changed_ratio),
    "simulation.dempster_skips": (
        "simulation.run", "count", lambda t: t.counts["simulation.dempster_skips"]),
    "harness.run_sweep_s": ("harness.run_sweep", "s", lambda t: t.total["harness.run_sweep"]),
    "harness.summarize_s": (
        "harness.summarize_cell", "s", lambda t: t.total["harness.summarize_cell"]),
    "harness.result_bytes_per_run": (
        "simulation.run", "bytes", lambda t: median(t.samples["harness.result_bytes"])),
    "harness.emit_csv_s": ("harness.emit_csv", "s", lambda t: t.total["harness.emit_csv"]),
    "harness.output_bytes": ("harness.emit_csv", "bytes", lambda t: t.counts["harness.output_bytes"]),
    "fixedpoint.jacobian_s": (
        "fixedpoint.numeric_jacobian", "s", lambda t: t.total["fixedpoint.numeric_jacobian"]),
    "fixedpoint.self_image_evals": (
        "fixedpoint.self_image", "count", lambda t: t.calls["fixedpoint.self_image"]),
    "cli.sweep_s": ("cli.sweep", "s", lambda t: t.total["cli.sweep"]),
    "cli.fixedpoints_s": ("cli.fixedpoints", "s", lambda t: t.total["cli.fixedpoints"]),
}


def span_metrics(work: Tracer, probe: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer numbers from the workload's spans, or from the probe's where the
    workload never crosses that boundary.  A boundary neither crosses (one a
    later change removed) gives no number rather than a zero."""
    out: dict[str, tuple[float, str]] = {}
    for metric, (span, unit, value) in SPAN_METRICS.items():
        t = work if work.calls.get(span) else probe
        if t.calls.get(span):
            try:
                out[metric] = (value(t), unit)
            except (ZeroDivisionError, ValueError):  # e.g. no update happened
                pass
    return out
