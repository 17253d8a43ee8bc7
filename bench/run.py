"""Benchmark of the `ries run` user path on seeded workloads.

    python3 bench/run.py --workload mc_qubit --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; `ries` is imported from its `src`.
Each pass runs every config of the workload through
`ries.cli.main(["run", config, "--out", dir])` in-process, as a user of
`ries run` would, and checks every result: exit code 0, `passed: true`,
oracle residual within its tol, theta-route mismatch within 1e-10, and a
SHA-256 of each summary (minus `wall_time_s`) that repeats across passes
and across runs of the same source tree. Passes repeat until `--seconds`
have elapsed; `run_s` sums each config's median time over the passes.

With `--trace 0` the last line reports the end-to-end metrics. With
`--trace 1` the run is split into untraced passes and traced passes, and
the last line reports the per-layer metrics from the traced ones plus the
tracing overhead. The last line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the exit code is 0 only
when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_SHARE = 0.1  # set-up timing per pass, as a share of the pass before it
SETUP_FIRST_REPS = 5
THETA_MISMATCH_MAX = 1e-10
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# per-layer metrics the benchmark adds to the tracer's own
BENCH_LAYER = (("bench.trace_overhead_s", "s"), ("bench.seed_steps_per_s", "steps/s"))


def _import_ries():
    """Import `ries` from this checkout's src, or exit 2 if it is not there."""
    src = ROOT / "src"
    if not (src / "ries" / "__init__.py").is_file():
        print(f"benchmark: no ries package under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import ries.cli

    if Path(ries.__file__).resolve().parent != (src / "ries").resolve():
        print(f"benchmark: imported ries from {ries.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    return ries.cli


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ries").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def summary_digest(summary: dict) -> str:
    """SHA-256 of a run summary without its wall-time field."""
    body = {k: v for k, v in summary.items() if k != "wall_time_s"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


class Checker:
    """Counts attempted and failed checks over every run of the workload.

    Per run: each theorem check in the summary, plus one check for the run
    itself (exit code 0, payload bounds, digest repeats). Summary digests are
    stored per source tree and config document, so a later run of the same
    config on the same `src/ries` must reproduce them.
    """

    def __init__(self, source: str, config_keys: list[str]):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[int, str] = {}
        self.store_path = OUT / "digests.json"
        self.source = source
        self.config_keys = config_keys
        self.stored = self._load_store().get(source, {})

    def _load_store(self) -> dict:
        try:
            doc = json.loads(self.store_path.read_text())
        except (OSError, ValueError):
            return {}
        return doc if isinstance(doc, dict) else {}

    def _fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(msg)

    def check(self, index: int, name: str, rc: int, out_dir: Path) -> None:
        try:
            summary = json.loads((out_dir / "summary.json").read_text())
        except (OSError, ValueError):
            self.attempted += 1
            self._fail(f"{name}: exit {rc}, no readable summary.json")
            return
        checks = summary.get("checks", {})
        self.attempted += len(checks) + 1
        for key, ok in checks.items():
            if ok is not True:
                self._fail(f"{name}: theorem check {key} failed")
        payload = summary.get("payload", {})
        problems = []
        if rc != 0 or summary.get("passed") is not True:
            problems.append(f"exit {rc}, passed {summary.get('passed')}")
        tol = summary.get("config", {}).get("tol", 0.0)
        if name == "oracle-check" and not payload.get("max_residual", float("inf")) <= tol:
            problems.append(f"max_residual {payload.get('max_residual')}")
        if name == "ergodic" and not payload.get("theta_mismatch", float("inf")) <= THETA_MISMATCH_MAX:
            problems.append(f"theta_mismatch {payload.get('theta_mismatch')}")
        digest = summary_digest(summary)
        first = self.digests.setdefault(index, digest)
        stored = self.stored.get(self.config_keys[index], digest)
        if digest != first or digest != stored:
            problems.append("summary digest differs from an earlier run")
        if problems:
            self._fail(f"{name}: " + "; ".join(problems))

    def save(self) -> None:
        """Record this run's digests, keeping only the current source tree."""
        if self.failed:
            return
        stored = {**self.stored, **{self.config_keys[i]: d for i, d in self.digests.items()}}
        doc = {self.source: stored}
        tmp = self.store_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(doc, sort_keys=True))
        os.replace(tmp, self.store_path)


class SetupTimer:
    """Times set-up, from a config document to a ready model or ensemble.

    It is measured in bursts between passes, so that its samples spread over
    the whole run rather than one moment of it; `median` is the result.
    """

    def __init__(self, cli, doc: dict):
        self.cli = cli
        self.text = json.dumps(doc)
        self.times: list[float] = []

    def burst(self, budget_s: float, min_reps: int = 1) -> None:
        from ries.ensemble import ensemble_from_json
        from ries.model import model_from_json, rdo_from_model

        end = time.perf_counter() + budget_s
        reps = 0
        while reps < min_reps or time.perf_counter() < end:
            doc = json.loads(self.text)
            t0 = time.perf_counter()
            cfg = self.cli.validate_config(doc)
            if "ensemble" in cfg:
                ensemble_from_json(cfg["ensemble"])
            else:
                rdo_from_model(*model_from_json(cfg["model"]))
            self.times.append(time.perf_counter() - t0)
            reps += 1

    def median(self) -> float:
        return statistics.median(self.times)


class Passes:
    """Wall time of every run, per config, over repeated passes."""

    def __init__(self, runs):
        from workloads import mc_steps

        self.times: list[list[float]] = [[] for _ in runs]
        self.steps = [mc_steps(cfg) for _, _, cfg, _ in runs]

    @property
    def count(self) -> int:
        return len(self.times[0])

    def run_s(self) -> float:
        """Typical pass: the sum over configs of each config's median time."""
        return sum(statistics.median(t) for t in self.times)

    def steps_per_s(self) -> float | None:
        mc = [(n, statistics.median(t)) for n, t in zip(self.steps, self.times) if n]
        return sum(n for n, _ in mc) / sum(t for _, t in mc) if mc else None


def run_passes(cli, runs, checker, deadline, min_passes, tracer=None, setup=None) -> Passes:
    """Repeat passes over the runs until the deadline (and at least min_passes).

    With a SetupTimer, a set-up burst of SETUP_SHARE of the previous pass's
    time precedes each pass.
    """
    passes = Passes(runs)
    sink = io.StringIO()
    while passes.count < min_passes or time.perf_counter() < deadline:
        if setup is not None:
            last = sum(t[-1] for t in passes.times) if passes.count else 0.0
            setup.burst(SETUP_SHARE * last, min_reps=SETUP_FIRST_REPS if not passes.count else 1)
        for index, (name, path, _, out_dir) in enumerate(runs):
            if tracer is not None:
                tracer.trace_id += 1
            span = tracer.span("bench.run") if tracer is not None else contextlib.nullcontext()
            (out_dir / "summary.json").unlink(missing_ok=True)
            t0 = time.perf_counter()
            try:
                with span, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    rc = cli.main(["run", str(path), "--out", str(out_dir)])
            except Exception:  # a crash is a failed run, not a benchmark crash
                traceback.print_exc(file=sys.stderr)
                rc = -1
            passes.times[index].append(time.perf_counter() - t0)
            sink.seek(0)
            sink.truncate()
            checker.check(index, name, rc, out_dir)
    return passes


def provenance() -> dict:
    import numpy as np
    import scipy

    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
    except (TypeError, AttributeError):  # numpy < 2 has no dict mode
        blas = {}
    threads = {k: os.environ.get(k) for k in BLAS_THREAD_VARS}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "blas_threads_env": threads,
        "git_commit": _git_commit(),
        "machine": platform.machine(),
    }


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = _import_ries()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from spans import Tracer, layer_metric_names
    from workloads import make_configs

    configs = make_configs(args.workload, args.seed, args.seconds)
    start = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    config_keys = [
        hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest() for _, doc in configs
    ]
    checker = Checker(_source_digest(), config_keys)
    try:
        runs = []
        for index, (name, doc) in enumerate(configs):
            path = work / "configs" / f"{index}-{name}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(doc))
            runs.append((name, path, doc, work / "out" / f"{index}-{name}"))
        setup = SetupTimer(cli, configs[0][1])  # set-up of the first config
        deadline = start + args.seconds
        if args.trace:
            # untraced passes first, traced passes after; overhead = difference
            half = start + (deadline - start) / 2
            plain = run_passes(cli, runs, checker, half, 2, setup=setup)
            with Tracer() as tracer:
                traced = run_passes(cli, runs, checker, deadline, 2, tracer)
            layers, absent = tracer.layer_metrics(traced.count)
            metrics = {n: layers[n] for n, _ in layer_metric_names()}
            bench_values = (traced.run_s() - plain.run_s(), plain.steps_per_s() or 0.0)
            for (name, unit), value in zip(BENCH_LAYER, bench_values):
                metrics[name] = {"value": value, "unit": unit}
        else:
            plain = run_passes(cli, runs, checker, deadline, 3, setup=setup)
            run_s = plain.run_s()
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                name: {"value": value, "unit": unit}
                for (name, unit), value in zip(END_TO_END, (run_s, setup.median(), peak))
            }
        checker.save()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info = {"workload": args.workload, "seed": args.seed, "passes": plain.count,
            "config_times_s": plain.times,
            "provenance": provenance()}
    if args.trace:
        info.update(absent=absent, traced_passes=traced.count, spans=len(tracer.spans))
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({**info, "metrics": metrics, "span_rows": tracer.rows()}, sort_keys=True))
    rate = plain.steps_per_s()
    steps_rate = f"{rate:.0f} steps/s" if rate else "n/a (no trajectories)"
    print(
        f"{args.workload} seed {args.seed}: run_s {plain.run_s():.4f} s, setup_s {setup.median():.6f} s, "
        f"seed_steps_per_s {steps_rate}, failed_ratio {checker.failed}/{checker.attempted}"
        + (f", peak_rss_mb {metrics['peak_rss_mb']['value']:.1f}" if not args.trace else "")
    )
    for problem in checker.problems:
        print(f"check failed: {problem}")
    print(json.dumps(info, sort_keys=True))
    correct = checker.failed == 0
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
