"""Smoke test: the reduced-vs-full-chain demo runs and every line agrees."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_reduced_vs_full_chain_demo():
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "01_reduced_vs_full_chain.py")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    diffs = [float(x) for x in re.findall(r"\|diff\| (\S+)", proc.stdout)]
    assert len(diffs) == 9  # m = 1..6 system-only, m = 3..5 windowed
    assert max(diffs) <= 1e-10
