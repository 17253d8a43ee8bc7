"""Smoke tests: each demo and demo config runs, and every agreement it reports is tight."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ries.cli import run, validate_config
from ries.serialize import dump_json

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "demos" / "configs").glob("*.json"))


def _run_demo(name: str) -> str:
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_reduced_vs_full_chain_demo():
    out = _run_demo("01_reduced_vs_full_chain.py")
    diffs = [float(x) for x in re.findall(r"\|diff\| (\S+)", out)]
    assert len(diffs) == 9  # m = 1..6 system-only, m = 3..5 windowed
    assert max(diffs) <= 1e-10


def test_random_products_demo():
    out = _run_demo("02_random_products.py")
    match = re.search(r"\|\|Phi_n - \|psi_S><eta\|\|\| = (\S+), sigma2/sigma1 = (\S+)", out)
    assert match is not None, out
    residual, ratio = (float(x) for x in match.groups())
    assert residual <= 1e-10
    assert ratio <= 1e-10


def test_energy_entropy_fluxes_demo():
    out = _run_demo("03_energy_entropy_fluxes.py")
    residual = re.search(r"second law residual dS\+ - beta_E dE\+ = (\S+)", out)
    jump_diff = re.search(r"jump-family route: .*\(\|diff\| = (\S+)\)", out)
    assert residual is not None and jump_diff is not None, out
    assert abs(float(residual.group(1))) <= 1e-12
    assert float(jump_diff.group(1)) <= 1e-12


def _reject(token):
    raise ValueError(f"non-standard JSON constant {token}")


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_demo_config_runs_and_passes(path, tmp_path):
    """Every check passes, and the summary as written is standard JSON."""
    report = run(validate_config(json.loads(path.read_text())), out=str(tmp_path))
    assert report["passed"], report["checks"]
    dump_json(report, str(tmp_path / "summary.json"))
    json.loads((tmp_path / "summary.json").read_text(), parse_constant=_reject)
