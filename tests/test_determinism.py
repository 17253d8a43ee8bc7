"""A run's files repeat byte for byte across processes and BLAS thread counts."""

import json
import os
import subprocess
import sys
from pathlib import Path

from ries.serialize import dump_json

ROOT = Path(__file__).resolve().parent.parent
# demo configs with every trajectory kernel, and n_total lowered only to bound the runtime
N_TOTAL = {"ergodic": 2000, "decay": 300, "reverse": 200, "lyapunov": 2000, "fluxes": 2000}
DRIVER = (
    "import sys; from ries.cli import main; "
    "sys.exit(max(main(['run', c, '--out', o]) for c, o in zip(sys.argv[1::2], sys.argv[2::2])))"
)


def _run_all(tmp_path: Path, configs: list[Path], threads: int) -> Path:
    """Run every config through `ries run` in one fresh process; returns the output root."""
    root = tmp_path / f"threads{threads}"
    args = [x for cfg in configs for x in (str(cfg), str(root / cfg.stem))]
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(p for p in paths if p),
        "OPENBLAS_NUM_THREADS": str(threads),
    }
    proc = subprocess.run(
        [sys.executable, "-c", DRIVER, *args], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return root


def _without_wall_time(summary: Path) -> list[str]:
    return [line for line in summary.read_text().splitlines() if '"wall_time_s"' not in line]


def test_runs_repeat_across_processes_and_blas_threads(tmp_path):
    """Small ergodic, decay, reverse, lyapunov and fluxes configs, each run in two
    fresh processes with OPENBLAS_NUM_THREADS=1 and =2, write the same summary.json
    but for the wall time, and the same CSV files, byte for byte."""
    configs = []
    for name, n_total in N_TOTAL.items():
        doc = json.loads((ROOT / "demos" / "configs" / f"{name}.json").read_text())
        doc["n_total"] = n_total
        configs.append(tmp_path / f"{name}.json")
        dump_json(doc, str(configs[-1]))
    one, two = (_run_all(tmp_path, configs, threads) for threads in (1, 2))
    for cfg in configs:
        files = sorted(p.name for p in (one / cfg.stem).iterdir())
        assert files == sorted(p.name for p in (two / cfg.stem).iterdir())
        assert "summary.json" in files
        assert _without_wall_time(one / cfg.stem / "summary.json") == _without_wall_time(
            two / cfg.stem / "summary.json"
        )
        for name in files:
            if name.endswith(".csv"):
                assert (one / cfg.stem / name).read_bytes() == (two / cfg.stem / name).read_bytes(), name
