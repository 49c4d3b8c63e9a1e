"""Every script in ``demos/`` runs to completion against this tree.

The demos call the public API the way a reader would, so API drift shows up
here.  The two sweep demos run a copy with ``RUNS = 1`` to stay quick.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# Demos whose RUNS constant is cut to 1 in the copy that is run.
SWEEP_DEMOS = {"evidence_rate_study.py", "noise_and_scaling.py"}


def test_sweep_demos_exist():
    assert SWEEP_DEMOS <= {demo.name for demo in DEMOS}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(tmp_path, demo):
    script = demo
    if demo.name in SWEEP_DEMOS:
        source, count = re.subn(r"^RUNS = \d+$", "RUNS = 1", demo.read_text(), flags=re.M)
        assert count == 1, f"{demo.name} has no RUNS constant"
        script = tmp_path / demo.name
        script.write_text(source)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.strip()
