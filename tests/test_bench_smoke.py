"""The benchmark's smoke mode runs every workload and check against this tree.

A refactor that renames or breaks something the benchmark hooks into
(``bench/tracing.py``, ``bench/checks.py``) fails here rather than only when
the benchmark is run.  So does an engine change that stops combining through
``simulation.get_combiner``, which the dense-recombination check samples: the
check would otherwise drop out of the output without failing.  Every metric
must print as a finite number: a NaN or infinity would make the traced run's
JSON result line invalid.  Each workload's traced block must print every
per-layer metric that ``BENCHMARK.json`` declares, so a boundary the engine
stops crossing fails here rather than leaving a metric out of the result.
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH_RUN = ROOT / "bench" / "run.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
DENSE_CHECK = r"# {}: check dense recombination \(\w+\): pass x(\d+)"
METRIC = r"(\S+) = (\S+) \S+"
# The smoke size classifies fixed points at n=3 only.
NOT_IN_SMOKE = {"fixedpoint.classify_ms.n5", "fixedpoint.classify_ms.n8"}
PER_LAYER = {metric["name"] for metric in BENCHMARK["per_layer"]} - NOT_IN_SMOKE


def is_finite_metric(line: str) -> bool:
    """True for a ``name = value unit`` line whose value is a finite float."""
    match = re.fullmatch(METRIC, line)
    try:
        return bool(match) and math.isfinite(float(match[2]))
    except ValueError:
        return False


def test_bench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, str(BENCH_RUN), "--smoke"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    lines = proc.stdout.rstrip().splitlines()
    assert lines[-1] == '{"smoke": "ok"}'
    # Apart from that last line, every line is a "#" note or a finite metric.
    metrics = [line for line in lines[:-1] if not line.startswith("#")]
    bad = [line for line in metrics if not is_finite_metric(line)]
    assert metrics and not bad, bad
    # Each workload's block for trace T ends at its "# smoke W trace=T" line.
    blocks, block = {"0": {}, "1": {}}, []
    for line in lines:
        done = re.fullmatch(r"# smoke (\w+) trace=(\d): \w+", line)
        if done:
            blocks[done[2]][done[1]] = block
            block = []
        else:
            block.append(line)
    untraced, traced = blocks["0"], blocks["1"]
    assert sorted(untraced) == sorted(traced) == sorted(WORKLOADS)
    for name, block in untraced.items():
        matches = [re.fullmatch(DENSE_CHECK.format(name), line) for line in block]
        passes = [int(m[1]) for m in matches if m]
        assert passes and min(passes) >= 1, (name, block)
    for name, block in traced.items():
        matches = [re.fullmatch(METRIC, line) for line in block]
        printed = {m[1] for m in matches if m}
        assert not PER_LAYER - printed, (name, sorted(PER_LAYER - printed))
