"""Spans around the calls into each `ries` module, recorded from outside.

`Tracer` replaces public `ries` functions by timing wrappers. A function
imported by name into another `ries` module (say `ries.cli` importing
`simulate_forward`) is patched there too, so every call path is seen.
Spans live in memory with their parent span and the id of the run
(trace) that caused them; a span's self time is its duration minus the
time covered by its child spans. `restore` puts every original back.

`ries.linalg` stays unwrapped: its helpers run inside the per-step
loops, so a wrapper there would distort the kernels it sits in, and
their cost already shows in the kernels' self time.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import inspect
import math
import os
import sys
import time
from dataclasses import dataclass, field

from workloads import mc_burn_in


def _n_total(a: dict) -> dict:
    return {"steps": int(a["n_total"])}


def _mc(a: dict) -> dict:
    burn = a["burn_in"] if a["burn_in"] is not None else mc_burn_in(a["n_total"])
    return {"steps": int(a["n_seeds"]) * (int(a["n_total"]) + int(burn))}


def _chain_dim(a: dict) -> dict:
    probes = a["steps"][: a["m"] + a["obs"].r] if a["m"] > 0 else []
    return {"dim": int(a["sys"].dim_s * math.prod(p.dim_e for p in probes))}


def _bytes(a: dict) -> dict:
    return {"bytes": os.path.getsize(a["path"])}


# (module, function, kind, hook): kind picks the metrics reported; the hook
# reads the call's arguments after it returns (work done, chain dim, bytes)
TARGETS = (
    ("ries.ensemble", "simulate_forward", "kernel", _n_total),
    ("ries.ensemble", "decay_estimator", "kernel", _n_total),
    ("ries.ensemble", "simulate_reverse", "kernel", _n_total),
    ("ries.ensemble", "lyapunov", "kernel", _n_total),
    ("ries.thermo", "ergodic_instant_monte_carlo", "kernel", _mc),
    ("ries.thermo", "flux_monte_carlo", "kernel", _mc),
    ("ries.thermo", "observable_family", "layer", None),
    ("ries.thermo", "flux_closed_form", "layer", None),
    ("ries.thermo", "atom_flux_matrix", "layer", None),
    ("ries.model", "full_chain_oracle", "oracle", _chain_dim),
    ("ries.model", "reduce_window_operator", "layer", None),
    ("ries.model", "step_unitary", "layer", None),
    ("ries.model", "rdo_from_model", "layer", None),
    ("ries.model", "reduced_heisenberg_map", "layer", None),
    ("ries.rdo", "classify", "layer", None),
    ("ries.rdo", "decompose", "layer", None),
    ("ries.ensemble", "ensemble_from_json", "layer", None),
    ("ries.ensemble", "mean_rdo", "layer", None),
    ("ries.ensemble", "theta_routes", "layer", None),
    ("ries.cli", "validate_config", "self", None),
    ("ries.serialize", "write_csv", "io", _bytes),
    ("ries.serialize", "dump_json", "io", _bytes),
)
# chain dims of the qubit oracle: system dim 2 times 2^m probes, m = 1..8
ORACLE_DIMS = tuple(2 ** (m + 1) for m in range(1, 9))
_KIND_METRICS = {
    "kernel": (("ns_per_step", "ns"), ("calls", "count")),
    "layer": (("calls", "count"), ("self_s", "s")),
    "oracle": (("calls", "count"), ("self_s", "s"))
    + tuple((f"s_at_dim{d}", "s") for d in ORACLE_DIMS),
    "self": (("self_s", "s"),),
    "io": (("self_s", "s"),),
}
BYTES_METRIC = ("ries.serialize.bytes_written", "bytes")


def layer_metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric the tracer reports, in order."""
    out = []
    for module, func, kind, _ in TARGETS:
        out += [(f"{module}.{func}.{m}", unit) for m, unit in _KIND_METRICS[kind]]
    out.append(BYTES_METRIC)
    return out


@dataclass
class Span:
    key: str
    span_id: int
    parent: "Span | None"
    trace_id: int
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Patch the TARGETS into timing wrappers; use as a context manager."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.absent: list[str] = []  # functions not found in `ries`
        self.hook_failures: set[str] = set()  # hooks that could not read args
        self.trace_id = 0
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, key: str):
        """A span opened by the benchmark itself, around a block."""
        s = self._open(key)
        try:
            yield s
        finally:
            self._close(s)

    def _open(self, key: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        s = Span(key, len(self.spans), parent, self.trace_id)
        self.spans.append(s)
        self._stack.append(s)
        s.start = time.perf_counter()
        return s

    def _close(self, s: Span) -> None:
        s.end = time.perf_counter()
        self._stack.pop()
        if s.parent is not None:
            s.parent.child_s += s.duration

    def _wrap(self, key: str, fn, hook):
        sig = inspect.signature(fn) if hook is not None else None

        def traced(*args, **kwargs):
            s = self._open(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(s)
            if hook is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    s.attrs = hook(bound.arguments)
                except (TypeError, KeyError, AttributeError, ValueError, OSError):
                    self.hook_failures.add(key)
            return result

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        for module, func, _, hook in self.targets:
            key = f"{module}.{func}"
            try:
                orig = getattr(importlib.import_module(module), func)
            except (ImportError, AttributeError):
                self.absent.append(key)
                continue
            wrapper = self._wrap(key, orig, hook)
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "ries" or name.startswith("ries.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))

    def restore(self) -> None:
        while self._patched:
            mod, attr, orig = self._patched.pop()
            setattr(mod, attr, orig)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def rows(self) -> list[list]:
        """Every span as [id, parent id or -1, trace id, key, start s, duration s]."""
        t0 = self.spans[0].start if self.spans else 0.0
        return [
            [s.span_id, s.parent.span_id if s.parent else -1, s.trace_id, s.key,
             s.start - t0, s.duration]
            for s in self.spans
        ]

    def layer_metrics(self, n_passes: int) -> tuple[dict, list[str]]:
        """Per-pass layer metrics over all spans, and the names reported absent."""
        agg: dict[str, dict] = collections.defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "steps": 0, "bytes": 0, "dims": {}}
        )
        for s in self.spans:
            a = agg[s.key]
            a["calls"] += 1
            a["self_s"] += s.self_s
            a["steps"] += s.attrs.get("steps", 0)
            a["bytes"] += s.attrs.get("bytes", 0)
            if "dim" in s.attrs:
                a["dims"].setdefault(s.attrs["dim"], []).append(s.duration)
        metrics, absent = {}, []
        for module, func, kind, _ in self.targets:
            key = f"{module}.{func}"
            a = agg[key]
            for metric, unit in _KIND_METRICS[kind]:
                name = f"{key}.{metric}"
                if metric == "calls":
                    value = a["calls"] / n_passes
                elif metric == "self_s":
                    value = a["self_s"] / n_passes
                elif metric == "ns_per_step":
                    value = 1e9 * a["self_s"] / a["steps"] if a["steps"] else 0.0
                else:  # s_at_dim<D>: mean duration of one call at chain dim D
                    times = a["dims"].get(int(metric[len("s_at_dim"):]), [])
                    value = sum(times) / len(times) if times else 0.0
                needs_hook = metric not in ("calls", "self_s")
                if key in self.absent or (needs_hook and key in self.hook_failures):
                    absent.append(name)
                metrics[name] = {"value": value, "unit": unit}
        io_keys = ("ries.serialize.write_csv", "ries.serialize.dump_json")
        written = sum(agg[k]["bytes"] for k in io_keys)
        metrics[BYTES_METRIC[0]] = {"value": written / n_passes, "unit": BYTES_METRIC[1]}
        if any(k in self.absent or k in self.hook_failures for k in io_keys):
            absent.append(BYTES_METRIC[0])
        return metrics, absent
