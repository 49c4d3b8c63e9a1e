"""Micro-timings of dstcons's public functions on seeded inputs.

Each timing is the median over ``REPEATS`` batches of the time per call, with
the batch size doubled until one batch lasts at least ``MIN_BATCH_S``.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

REPEATS = 5
MIN_BATCH_S = 0.005
FOCAL_COUNTS = (2, 8, 64, 512)
MICRO_STATES = 10  # 2^10 - 1 subsets, enough for 512 focal sets
CLASSIFY_STATES = (3, 5, 8)
IMPORT_SAMPLES = 3


def per_call_s(fn, *args) -> float:
    loops = 1
    while True:
        start = time.perf_counter()
        for _ in range(loops):
            fn(*args)
        if time.perf_counter() - start >= MIN_BATCH_S or loops >= 1 << 16:
            break
        loops *= 2
    batches = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(loops):
            fn(*args)
        batches.append((time.perf_counter() - start) / loops)
    return median(batches)


def random_mass(rng: np.random.Generator, frame, focal_count: int):
    """A mass function with ``focal_count`` focal sets, always including the frame."""
    from dstcons import MassFunction

    others = rng.choice(np.arange(1, frame.full_set), size=focal_count - 1, replace=False)
    subsets = [int(a) for a in others] + [frame.full_set]
    weights = rng.dirichlet(np.ones(focal_count))
    return MassFunction(frame, dict(zip(subsets, (float(w) for w in weights))))


def micro_metrics(seed: int, workdir: Path, classify_states=CLASSIFY_STATES) -> dict:
    import dstcons

    rng = np.random.default_rng([seed, 7])
    out: dict[str, tuple[float, str]] = {}
    frame = dstcons.FrameOfDiscernment(MICRO_STATES)
    for count in FOCAL_COUNTS:
        m1, m2 = random_mass(rng, frame, count), random_mass(rng, frame, count)
        for operator in sorted(dstcons.COMBINERS):
            combine = dstcons.get_combiner(operator)
            out[f"mass.micro.{operator}.f{count}_us"] = (per_call_s(combine, m1, m2) * 1e6, "us")
        out[f"mass.micro.renormalize.f{count}_us"] = (
            per_call_s(dstcons.renormalize, m1) * 1e6, "us")

    frame3 = dstcons.FrameOfDiscernment(3)
    belief = random_mass(rng, frame3, 7)
    draw_rng = np.random.default_rng(seed)
    out["evidence.micro.select_state_us"] = (
        per_call_s(dstcons.select_state, belief, draw_rng) * 1e6, "us")
    out["evidence.micro.evidence_mass_us"] = (
        per_call_s(dstcons.evidence_mass, frame3, 3, 0.75, float(rng.normal(0, 0.1))) * 1e6, "us")
    out["harness.derive_seed_us"] = (
        per_call_s(dstcons.derive_seed, seed, "dubois_prade", 3, 1, 0, True, 7) * 1e6, "us")

    spec = dstcons.SweepSpec(operators=("dempster", "yager"), n_values=(3,), k=10,
                             r_values=(0.2, 0.5), sigma_values=(0.1,), runs_per_cell=4,
                             max_iterations=50, root_seed=seed)
    sweep = dstcons.run_sweep(spec, workers=1)
    path = workdir / "micro" / "emit.csv"
    out["harness.micro.emit_csv_us"] = (
        per_call_s(dstcons.emit_csv, sweep.summaries, path, sweep.records) * 1e6, "us")

    for n in classify_states:
        frame_n = dstcons.FrameOfDiscernment(n)
        categorical = dstcons.MassFunction(frame_n, {frame_n.singleton(n): 1.0})
        out[f"fixedpoint.classify_ms.n{n}"] = (
            per_call_s(dstcons.classify, "dubois_prade", categorical) * 1e3, "ms")
    return out


def import_seconds(src: Path) -> float:
    """Median time to import ``dstcons.cli`` in a fresh interpreter."""
    code = (
        "import sys, time; t = time.perf_counter(); "
        f"sys.path.insert(0, {str(src)!r}); import dstcons.cli; "
        "print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True, timeout=60)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return median(samples)
