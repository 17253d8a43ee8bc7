"""Tests of the benchmark itself: metric names, configs, tracer, smoke runs.

    PYTHONPATH=src python -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import ries  # noqa: E402
import ries.cli  # noqa: E402
import run as bench_run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _ries_attributes() -> dict:
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "ries" or name.startswith("ries."))
        for attr, value in vars(mod).items()
    }


def test_metric_names_match_spec_and_grammar():
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert e2e == dict(bench_run.END_TO_END)
    assert layer == dict(spans.layer_metric_names()) | dict(bench_run.BENCH_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = list(e2e) + list(layer) + list(workloads.WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for unit in list(e2e.values()) + list(layer.values()):
        assert UNIT.match(unit), unit
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seconds", [1, 30])
def test_generated_configs_validate(workload, seconds):
    for seed in (0, 1, 2):
        configs = workloads.make_configs(workload, seed, seconds)
        assert configs == workloads.make_configs(workload, seed, seconds)
        for name, doc in configs:
            cfg = ries.cli.validate_config(json.loads(json.dumps(doc)))
            assert cfg["experiment"] == name


def test_seed_changes_inputs():
    a = workloads.make_configs("wide_qutrit", 0, 30)
    b = workloads.make_configs("wide_qutrit", 1, 30)
    assert a[0][1]["ensemble"] != b[0][1]["ensemble"]
    assert a[0][1]["seeds"] != b[0][1]["seeds"]


def test_demo_ensemble_matches_demo_config():
    demo = ROOT / "demos" / "configs" / "ergodic.json"
    if not demo.is_file():
        pytest.skip("demo configs not present")
    assert json.loads(demo.read_text())["ensemble"] == workloads.qubit_ensemble()


def test_mc_steps_counts_burn_in():
    cfg = {"experiment": "fluxes", "seeds": [5], "n_total": 4000, "monte_carlo": True}
    assert workloads.mc_steps(cfg) == 2 * (4000 + workloads.mc_burn_in(4000))
    assert workloads.mc_steps({"experiment": "oracle-check"}) == 0


def test_tracer_restores_ries_functions():
    before = _ries_attributes()
    original = ries.cli.simulate_forward
    ens = ries.ensemble.ensemble_from_json(workloads.qubit_ensemble())
    with spans.Tracer() as tracer:
        assert ries.cli.simulate_forward is not original
        assert ries.ensemble.simulate_forward is ries.cli.simulate_forward
        ries.cli.simulate_forward(ens, 3, 50, checkpoint_every=10)
    after = _ries_attributes()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    metrics, absent = tracer.layer_metrics(1)
    assert metrics["ries.ensemble.simulate_forward.calls"]["value"] == 1
    assert metrics["ries.ensemble.simulate_forward.ns_per_step"]["value"] > 0
    # theta_closed_form is unwrapped, so its theta_routes call is a direct child
    assert metrics["ries.ensemble.theta_routes.calls"]["value"] == 1
    assert absent == []


def test_missing_function_is_reported_absent():
    targets = spans.TARGETS + (("ries.model", "no_such_function", "layer", None),)
    with spans.Tracer(targets) as tracer:
        pass
    metrics, absent = tracer.layer_metrics(1)
    assert tracer.absent == ["ries.model.no_such_function"]
    assert set(absent) == {"ries.model.no_such_function.calls", "ries.model.no_such_function.self_s"}
    assert metrics["ries.model.no_such_function.calls"]["value"] == 0


def test_self_time_excludes_children():
    tracer = spans.Tracer(())
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            time.sleep(0.02)
        time.sleep(0.01)
    assert inner.parent is outer
    assert [row[:4] for row in tracer.rows()] == [[0, -1, 0, "outer"], [1, 0, 0, "inner"]]
    assert outer.self_s == pytest.approx(outer.duration - inner.duration)
    assert 0.005 < outer.self_s < inner.duration


def _run(args, cwd, timeout=120):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=timeout,
    )


@pytest.mark.parametrize("workload,trace", [(w, 0) for w in workloads.WORKLOADS] + [("mc_qubit", 1)])
def test_tiny_smoke_run(workload, trace):
    t0 = time.monotonic()
    proc = _run(["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace)], ROOT)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert time.monotonic() - t0 < 60
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "mc_qubit", "--seed", "0", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
