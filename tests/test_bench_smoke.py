"""The benchmark's smoke mode runs every workload and check against this tree.

A refactor that renames or breaks something the benchmark hooks into
(``bench/tracing.py``, ``bench/checks.py``) fails here rather than only when
the benchmark is run.
"""

import subprocess
import sys
from pathlib import Path

BENCH_RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def test_bench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, str(BENCH_RUN), "--smoke"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert proc.stdout.rstrip().splitlines()[-1] == '{"smoke": "ok"}'
