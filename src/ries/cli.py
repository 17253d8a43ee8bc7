"""Configuration-driven experiment runner.

``ries run config.json`` validates the config, builds its inputs, dispatches
to the named experiment, writes a JSON summary (and CSV series where a time
series is produced) into the output directory, and encodes the outcome in
the exit status:

- 0: run completed and every enabled theorem check passed,
- 1: run completed but a theorem check failed; the report is always written.
  A theorem's hypotheses (E[M] in the simple-gap class, an in-class atom, a
  convergent Neumann series for theta) are checks like any other: the
  library computes whatever the verdict, and only the runners judge,
- 2: config schema violation or parse error,
- 3: a dense-algebra capacity guard tripped,
- 4: internal error: any other exception, reported in one line.

The summary is standard JSON: a NaN or infinite number is written as null.
The runners build every payload from the library's reports and arrays; no
other module knows the summary format.

``ries validate config.json`` prints the fully-resolved config (defaults
applied) and exits 0/2. Both commands read a config in the same two steps,
once each: :func:`validate_config` checks the config level (the
experiment's keys and defaults, keys the run would not read, seeds,
counts, numbers and which sources are present), and the library builders
turn its model, ensemble and matrices into the run's typed inputs, with
their own checks. Whatever either step rejects exits 2 in both commands.
All seeds of a config step as one batch,
in every stochastic experiment alike: seed s drives ``trajectory_rng(s)``,
so a seed's results do not depend on the batch or on which other seeds
ran, and identical configs give byte-identical summaries except for the
wall-time field.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from collections import Counter
from dataclasses import asdict

import numpy as np

from .ensemble import (
    EnsembleError,
    decay_estimator,
    ensemble_from_json,
    lyapunov,
    simulate_forward,
    simulate_reverse,
    trajectory_rng,
)
from .linalg import random_hermitian, require_hermitian, vec
from .model import (
    CapacityError,
    ObservableWindow,
    check_capacity,
    full_chain_oracle,
    model_from_json,
    rdo_from_model,
    system_gns_data,
)
from .rdo import DEFAULT_GAP_MIN, DEFAULT_TOL_ONE, FIT_FLOOR, RdoValidationError, classify, ideal_asymptotics
from .rdo import validate as validate_rdo
from .serialize import check_fields, dump_json, is_int, is_real, matrix_from_json, write_csv
from .thermo import (
    ergodic_instant_limit,
    ergodic_instant_monte_carlo,
    flux_closed_form,
    flux_monte_carlo,
    identity_family,
    probe_energy_family,
    system_observable_family,
)

class ConfigError(Exception):
    """The config file violates the schema."""


_TOLERANCES = {"tol_one": DEFAULT_TOL_ONE, "gap_min": DEFAULT_GAP_MIN}
# the smallest standard error a Monte Carlo 3-sigma check compares against;
# instant and fluxes payloads report `sigma_floor_used` when a check did
_SIGMA_FLOOR = 1e-12
# reverse sigma_2 / sigma_1 ratios at or below this are rounding noise, which
# the sigma_ratio_rate fit skips
_SIGMA_RATIO_FLOOR = 1e3 * np.finfo(float).eps
# a decay rate alpha or a Lyapunov gap must exceed this to count as positive:
# unitary atoms, which neither decay nor have a gap, read about 1e-16
_RATE_FLOOR = 1e-12
# the instant runner's observable families, each built from the ensemble and the inputs
_FAMILIES = {
    "identity": lambda ens, inputs: identity_family(ens),
    "system": lambda ens, inputs: system_observable_family(ens, inputs["a_s"]),
    "probe_energy": lambda ens, inputs: probe_energy_family(ens),
}


def _is_number(x) -> bool:
    """A finite nonnegative JSON number (bools excluded)."""
    return is_real(x) and x >= 0


_COUNT = (lambda x: is_int(x, 1), "an integer >= 1")
_NUMBER = (_is_number, "a finite nonnegative number")
# per config key: the test its value must pass, and what that value must be
_VALUES = {
    "seeds": (
        lambda x: isinstance(x, list) and bool(x) and all(is_int(s, 0) for s in x),
        "a nonempty list of integers >= 0",
    ),
    "monte_carlo": (lambda x: isinstance(x, bool), "true or false"),
    "seed": (lambda x: is_int(x, 0), "an integer >= 0"),
    **dict.fromkeys(("n_total", "checkpoint_every", "reorth_every", "n_max", "m_max", "n_observables"), _COUNT),
    **dict.fromkeys(("bound_coefficient", "tol"), _NUMBER),
    "family": (lambda x: isinstance(x, str) and x in _FAMILIES, "identity, system or probe_energy"),
}


def _unread_keys(doc: dict) -> set:
    """Schema keys that the runner does not read for this config."""
    if doc["experiment"] == "fluxes" and doc.get("monte_carlo") is False:
        return {"seeds", "n_total", "rho_init"}
    if doc["experiment"] == "instant" and doc.get("family", "identity") != "system":
        return {"a_s"}
    if doc["experiment"] == "classify" and "model" in doc:
        return {"psi_s"}
    return set()


def _reject_unknown(doc, allowed: set, where: str) -> None:
    """:func:`ries.serialize.check_fields`, raising a ConfigError."""
    try:
        check_fields(doc, allowed, where)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def validate_config(doc: dict) -> dict:
    """Resolve defaults, reject unknown keys and bad config-level values; idempotent on
    its own output. The model, ensemble and matrices are checked by :func:`_load`."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    exp = doc.get("experiment")
    if exp not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {exp!r}")
    schema = {"experiment": None, **_EXPERIMENTS[exp][0]}
    _reject_unknown(doc, set(schema), "config")
    unread = _unread_keys(doc)
    if unread & set(doc):
        raise ConfigError(f"{exp} does not read {sorted(unread & set(doc))} in this configuration")
    resolved = {}
    for key, default in schema.items():
        if key in doc:
            resolved[key] = doc[key]
        elif default is not None and key not in unread:
            resolved[key] = default
    if "tolerances" in resolved:
        tdoc = resolved["tolerances"]
        _reject_unknown(tdoc, set(_TOLERANCES), "tolerances")
        tols = {k: tdoc.get(k, v) for k, v in _TOLERANCES.items()}
        if not all(_is_number(x) for x in tols.values()):
            raise ConfigError(f"tolerances must be finite nonnegative numbers, got {tols}")
        resolved["tolerances"] = {k: float(x) for k, x in tols.items()}
    _check_resolved(resolved)
    return resolved


def _check_resolved(cfg: dict) -> None:
    exp = cfg["experiment"]
    for key, (valid, what) in _VALUES.items():
        if key in cfg and not valid(cfg[key]):
            raise ConfigError(f"{key} must be {what}, got {cfg[key]!r}")
    if "seeds" in cfg:
        repeated = [s for s, n in Counter(cfg["seeds"]).items() if n > 1]
        if repeated:  # a repeated seed repeats its stream: no independent samples
            raise ConfigError(f"seeds must be distinct; {repeated[0]} is repeated")
        if exp in ("instant", "fluxes") and len(cfg["seeds"]) < 2:
            raise ConfigError(f"{exp} Monte Carlo needs at least 2 seeds for a standard error")
    if exp == "classify" and not (("model" in cfg) ^ ("matrix" in cfg)):
        raise ConfigError("classify needs exactly one of 'model' or 'matrix'")
    if exp == "classify" and "matrix" in cfg and "psi_s" not in cfg:
        raise ConfigError("matrix-form classify needs 'psi_s'")
    if exp in ("ideal", "oracle-check") and "model" not in cfg:
        raise ConfigError(f"{exp} needs a 'model'")
    if "ensemble" in _EXPERIMENTS[exp][0] and "ensemble" not in cfg:
        raise ConfigError(f"{exp} needs an 'ensemble'")
    if cfg.get("family") == "system" and "a_s" not in cfg:
        raise ConfigError("family 'system' needs 'a_s'")


def validate_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return validate_config(doc)


def _load(cfg: dict) -> dict:
    """The typed inputs of a resolved config, each built once by its library builder.

    A model becomes its ``system``, ``probe`` and ``rdo``, an ensemble its
    ``ens``, a classify matrix and psi_s an ``rdo`` (:func:`ries.rdo.validate`),
    ``a_s`` a (d, d) matrix and ``rho_init`` a density matrix on the system, which
    this loader checks. This is the one place where what the builders reject
    becomes a ConfigError.
    """
    inputs = {}
    try:
        if "model" in cfg:
            system, probe = model_from_json(cfg["model"])
            inputs.update(system=system, probe=probe, rdo=rdo_from_model(system, probe))
        if "matrix" in cfg:
            m = matrix_from_json(cfg["matrix"], "matrix")
            try:
                inputs["rdo"] = validate_rdo(m, matrix_from_json([cfg["psi_s"]], "psi_s")[0])
            except RdoValidationError as exc:
                raise ConfigError(f"matrix: {exc}") from exc
        if "ensemble" in cfg:
            ens = inputs["ens"] = ensemble_from_json(cfg["ensemble"])
            if cfg["experiment"] in ("instant", "fluxes") and ens.system is None:
                raise ConfigError(f"{cfg['experiment']} needs model-form atoms")
        for key in ("a_s", "rho_init"):  # read with a model-form ensemble only
            if key in cfg:
                d = ens.system.dim_s
                x = inputs[key] = matrix_from_json(cfg[key], key)
                if x.shape != (d, d):
                    raise ConfigError(f"{key} has shape {x.shape}, expected ({d}, {d})")
        if "rho_init" in cfg:  # a density matrix: Hermitian, of unit trace, positive semidefinite
            rho = require_hermitian(inputs["rho_init"], "rho_init: rho")
            trace = np.trace(rho).real
            if abs(trace - 1.0) > 1e-12:
                raise ConfigError(f"rho_init: trace is {trace}, expected 1")
            if (lowest := np.linalg.eigvalsh(rho).min()) < -1e-12:
                raise ConfigError(f"rho_init: negative eigenvalue {lowest:.3e}")
    except (ValueError, KeyError, TypeError, RdoValidationError, EnsembleError) as exc:
        raise ConfigError(str(exc)) from exc
    return inputs


def _theta_checks(ens) -> dict:
    """The hypotheses under which theta exists and both of its routes compute it."""
    routes = ens.routes
    return {
        "mean_in_class": bool(ens.mean_report.in_class_e),
        "neumann_converges": bool(np.isfinite(routes["theta_neumann"]).all()),
        "theta_routes_agree": bool(routes["mismatch"] <= 1e-10),
        "theta_normalized": bool(abs(np.vdot(ens.psi_s, routes["theta_projector"]) - 1.0) <= 1e-10),
    }


def _in_class_atom(ens) -> bool:
    """Some atom with positive weight has a simple gapped eigenvalue 1."""
    return bool(any(ic and p > 0 for ic, p in zip(ens.in_class, ens.probs)))


def _per_seed(seeds: list, **columns) -> list[dict]:
    """One payload record per seed: the seed, then its entry of each column, a per-seed
    array or one value that every seed shares, as a Python number."""
    rows = zip(*(np.broadcast_to(column, len(seeds)).tolist() for column in columns.values()))
    return [{"seed": seed, **dict(zip(columns, row))} for seed, row in zip(seeds, rows)]


def _fields(report, **replaced) -> dict:
    """A report dataclass as a payload: its fields but those that are None, with the
    `replaced` ones swapped in."""
    return {**{key: value for key, value in asdict(report).items() if value is not None}, **replaced}


def _run_classify(cfg: dict, inputs: dict, out: str) -> tuple[dict, dict]:
    tol = cfg["tolerances"]
    report = classify(inputs["rdo"], tol_one=tol["tol_one"], gap_min=tol["gap_min"])
    eigs = report.eigenvalues
    return _fields(report, eigenvalues=np.column_stack([eigs.real, eigs.imag]).tolist()), {}


def _run_ideal(cfg: dict, inputs: dict, out: str) -> tuple[dict, dict]:
    # fail fast: the n_max powers of M must fit the dense-algebra guard
    check_capacity([inputs["rdo"].dim], stack=int(cfg["n_max"]), powers=True)
    res = ideal_asymptotics(inputs["rdo"], n_max=int(cfg["n_max"]))
    rate_ref = np.log(res.spr_mq) if res.spr_mq > 0 else -np.inf
    if np.isfinite(res.fitted_rate):
        rate_ok = bool(np.isfinite(rate_ref) and abs(res.fitted_rate - rate_ref) <= 0.1 * abs(rate_ref))
    else:  # fewer than two errors above the fit floor: M^n sits at its limit from n = 1
        rate_ok = bool(res.spr_mq**2 <= FIT_FLOOR)
    payload = {
        "fitted_rate": float(res.fitted_rate),
        "spr_mq": float(res.spr_mq),
        "log_spr_mq": float(rate_ref),
        "final_error": float(res.errors[-1]),
    }
    checks = {
        "in_class": bool(classify(inputs["rdo"]).in_class_e),
        "rate_within_10pct": rate_ok,
        "final_error_small": bool(res.errors[-1] <= 1e-8),
    }
    write_csv(
        os.path.join(out, "ideal_errors.csv"),
        ["n", "error"],
        ([n + 1, float(e)] for n, e in enumerate(res.errors)),
    )
    return payload, checks


def _run_ergodic(cfg: dict, inputs: dict, out: str) -> tuple[dict, dict]:
    ens = inputs["ens"]
    routes = ens.routes
    coef = float(cfg["bound_coefficient"])
    rep = simulate_forward(
        ens, cfg["seeds"], int(cfg["n_total"]), checkpoint_every=int(cfg["checkpoint_every"])
    )
    final_n = int(rep.checkpoints[-1])
    bound_ok = rep.distances[:, -1] <= coef / np.sqrt(final_n)
    for seed, distances in zip(cfg["seeds"], rep.distances):
        write_csv(
            os.path.join(out, f"ergodic_seed{seed}.csv"),
            ["n", "distance", "bound"],
            ([int(n), float(d), coef / math.sqrt(n)] for n, d in zip(rep.checkpoints, distances)),
        )
    per_seed = _per_seed(
        cfg["seeds"],
        final_distance=rep.distances[:, -1],
        final_n=final_n,
        bound_ok=bound_ok,
        max_invariance_drift=rep.max_invariance_drift,
    )
    payload = {
        "per_seed": per_seed,
        "theta_mismatch": float(routes["mismatch"]),
        "spr_mean_mq": float(routes["spr_mean_mq"]),
    }
    return payload, {"distance_bound": bool(bound_ok.all()), **_theta_checks(ens)}


def _rate_kinds(rates, floor: str) -> list[str]:
    """Per seed, where its rate comes from, as JSON writes an infinite and a NaN rate
    alike as null: "fitted" (finite), `floor` (infinite: the series reached its
    floor) or "too_few_points" (NaN: too few points above it to fit)."""
    return ["fitted" if np.isfinite(x) else floor if np.isinf(x) else "too_few_points" for x in rates]


def _run_decay(cfg: dict, inputs: dict, out: str) -> tuple[dict, dict]:
    ens = inputs["ens"]
    rep = decay_estimator(ens, cfg["seeds"], int(cfg["n_total"]))
    payload = {
        "per_seed": _per_seed(
            cfg["seeds"],
            alpha=rep.alpha,
            alpha_kind=_rate_kinds(rep.alpha, "exact_zero"),
            n0=rep.n0,
            log_c=rep.log_c,
            final_log_norm=rep.log_norms[:, -1],
        ),
        "alpha_min": float(rep.alpha.min()),
        "alpha_median": float(np.median(rep.alpha)),
        "n0_max": int(rep.n0.max()),
        "n0_median": float(np.median(rep.n0)),
    }
    checks = {
        "alpha_positive_all_seeds": bool(rep.alpha.min() > _RATE_FLOOR),
        "in_class_atom": _in_class_atom(ens),
        "mean_in_class": bool(ens.mean_report.in_class_e),
    }
    write_csv(
        os.path.join(out, "decay_log_norms.csv"),
        ["n"] + [f"seed{s}" for s in cfg["seeds"]],
        ([n + 1] + row.tolist() for n, row in enumerate(rep.log_norms.T)),
    )
    return payload, checks


def _run_reverse(cfg: dict, inputs: dict, out: str) -> tuple[dict, dict]:
    ens = inputs["ens"]
    rep = simulate_reverse(
        ens, cfg["seeds"], int(cfg["n_total"]), checkpoint_every=int(cfg["checkpoint_every"])
    )
    rates = []
    for seed, residuals, ratios in zip(cfg["seeds"], rep.residuals, rep.sigma_ratios):
        fit = ratios > _SIGMA_RATIO_FLOOR  # fitted log-linearly; too few: -inf at the floor, else no rate
        too_few = np.nan if fit.all() else -np.inf
        rates.append(np.polyfit(rep.checkpoints[fit], np.log(ratios[fit]), 1)[0] if fit.sum() >= 2 else too_few)
        write_csv(
            os.path.join(out, f"reverse_seed{seed}.csv"),
            ["n", "residual", "sigma_ratio"],
            ([int(n), float(x), float(y)] for n, x, y in zip(rep.checkpoints, residuals, ratios)),
        )
    decays = all(rate < 0 and res[-1] <= res[0] for rate, res in zip(rates, rep.residuals))
    per_seed = _per_seed(
        cfg["seeds"],
        sigma_ratio_rate=rates,
        sigma_ratio_rate_kind=_rate_kinds(rates, "sigma_ratio_floor"),
        final_residual=rep.residuals[:, -1],
        final_sigma_ratio=rep.sigma_ratios[:, -1],
    )
    return {"per_seed": per_seed}, {"in_class_atom": _in_class_atom(ens), "rank_one_decay": bool(decays)}


def _run_lyapunov(cfg: dict, inputs: dict, out: str) -> tuple[dict, dict]:
    ens = inputs["ens"]
    rep = lyapunov(ens, cfg["seeds"], int(cfg["n_total"]), reorth_every=int(cfg["reorth_every"]))
    checks = {
        "gamma1_zero": bool(np.abs(rep.gamma_1).max() <= 2e-3),
        "gap_positive": bool(rep.gap.min() > _RATE_FLOOR),
    }
    per_seed = _per_seed(cfg["seeds"], gamma_1=rep.gamma_1, gamma_2=rep.gamma_2, gap=rep.gap)
    return {"per_seed": per_seed}, checks


def _within_3_sigma(diff: float, stderr: float) -> tuple[bool, bool]:
    """Whether a Monte Carlo estimate `diff` off its closed form lies within 3 standard
    errors, the error floored at _SIGMA_FLOOR, and whether the floor was used."""
    return bool(np.isfinite(stderr) and diff <= 3.0 * max(stderr, _SIGMA_FLOOR)), bool(stderr < _SIGMA_FLOOR)


def _run_instant(cfg: dict, inputs: dict, out: str) -> tuple[dict, dict]:
    ens = inputs["ens"]
    kind = cfg["family"]
    fam = _FAMILIES[kind](ens, inputs)
    closed = ergodic_instant_limit(ens, fam)
    mc = ergodic_instant_monte_carlo(ens, fam, cfg["seeds"], int(cfg["n_total"]))
    diff = abs(mc["mean"] - closed)
    within, floored = _within_3_sigma(diff, mc["stderr"])
    payload = {
        "family": kind,
        "closed_form": [closed.real, closed.imag],
        "monte_carlo": [mc["mean"].real, mc["mean"].imag],
        "stderr": mc["stderr"],
        "abs_difference": float(diff),
        "sigma_floor_used": floored,
    }
    return payload, {"mc_within_3_sigma": within, **_theta_checks(ens)}


def _run_fluxes(cfg: dict, inputs: dict, out: str) -> tuple[dict, dict]:
    ens = inputs["ens"]
    closed = flux_closed_form(ens)
    payload = {"closed_form": _fields(closed)}
    deterministic_beta = ens.betas.max() - ens.betas.min() <= 1e-14
    checks = {"real_valued": bool(closed.imag_defect <= 1e-9), **_theta_checks(ens)}
    if deterministic_beta:
        checks["second_law"] = bool(abs(closed.residual) <= 1e-8)
    if cfg["monte_carlo"]:
        rho_init = inputs.get("rho_init")
        mc = flux_monte_carlo(ens, cfg["seeds"], int(cfg["n_total"]), rho_init=rho_init)
        payload["monte_carlo"] = _fields(mc)
        de = _within_3_sigma(abs(mc.de_plus - closed.de_plus), mc.de_stderr)
        ds = _within_3_sigma(abs(mc.ds_plus - closed.ds_plus), mc.ds_stderr)
        checks.update(mc_de_within_3_sigma=de[0], mc_ds_within_3_sigma=ds[0])
        payload["sigma_floor_used"] = de[1] or ds[1]
    return payload, checks


def _run_oracle_check(cfg: dict, inputs: dict, out: str) -> tuple[dict, dict]:
    system, probe, rdo = inputs["system"], inputs["probe"], inputs["rdo"]
    m_max, d = int(cfg["m_max"]), system.dim_s
    _, sqrt_rho, psi_s = system_gns_data(system)
    rho_s = sqrt_rho @ sqrt_rho
    rng = trajectory_rng(int(cfg["seed"]))
    # n_observables observables per m, drawn for m = 1, 2, ..., m_max in turn
    a_s = np.array(
        [[random_hermitian(d, rng) for _ in range(int(cfg["n_observables"]))] for _ in range(m_max)]
    )
    # the oracle is linear in A_S: one chain evolution to m_max, read out after every step m
    # on the d^2 matrix units E_kl x 1, gives <A_S> = sum_kl A_kl <E_kl> for each m's A_S
    units = ObservableWindow.system_only(np.eye(d * d, dtype=complex).reshape(d * d, d, d), probe.dim_e)
    basis = full_chain_oracle(system, [probe] * m_max, units, range(1, m_max + 1), rho_s)
    rhs = np.einsum("nakl,nkl->na", a_s, basis.reshape(m_max, d, d))
    power = np.eye(rdo.dim, dtype=complex)
    residual_by_m = []
    for a_m, rhs_m in zip(a_s, rhs):
        power = power @ rdo.m  # M^m
        lhs = np.array([np.vdot(psi_s, power @ vec(a @ sqrt_rho)) for a in a_m])
        # np.max keeps a NaN residual, where max() over floats could drop it
        residual_by_m.append(float(np.max(np.abs(lhs - rhs_m))))
    worst = float(np.max(residual_by_m))
    payload = {
        "max_residual": worst,
        "m_max": m_max,
        "residual_by_m": residual_by_m,
        "residuals_finite": math.isfinite(worst),
    }
    return payload, {"oracle_agreement": bool(worst <= float(cfg["tol"]))}


# per experiment: its keys and defaults besides "experiment" (None marks "no
# default"), and its runner
_EXPERIMENTS = {
    "classify": (
        {"tolerances": _TOLERANCES, "model": None, "matrix": None, "psi_s": None},
        _run_classify,
    ),
    "ideal": ({"model": None, "n_max": 200}, _run_ideal),
    "ergodic": (
        {"ensemble": None, "seeds": [0], "n_total": 10_000, "checkpoint_every": 1000, "bound_coefficient": 5.0},
        _run_ergodic,
    ),
    "decay": ({"ensemble": None, "seeds": [0], "n_total": 2000}, _run_decay),
    "reverse": (
        {"ensemble": None, "seeds": [0], "n_total": 500, "checkpoint_every": 10},
        _run_reverse,
    ),
    "lyapunov": (
        {"ensemble": None, "seeds": [0], "n_total": 5000, "reorth_every": 10},
        _run_lyapunov,
    ),
    "instant": (
        {"ensemble": None, "family": "identity", "a_s": None, "seeds": [0, 1], "n_total": 10_000},
        _run_instant,
    ),
    "fluxes": (
        {"ensemble": None, "monte_carlo": True, "seeds": [0, 1], "n_total": 10_000, "rho_init": None},
        _run_fluxes,
    ),
    "oracle-check": (
        {"model": None, "m_max": 6, "n_observables": 5, "seed": 0, "tol": 1e-10},
        _run_oracle_check,
    ),
}
EXPERIMENTS = tuple(_EXPERIMENTS)


def run(cfg: dict, out: str = ".") -> dict:
    """Build the inputs of a resolved config (:func:`_load`), execute it and return
    the RunReport dict."""
    start = time.monotonic()
    inputs = _load(cfg)
    os.makedirs(out, exist_ok=True)
    _, runner = _EXPERIMENTS[cfg["experiment"]]
    payload, checks = runner(cfg, inputs, out)
    elapsed = time.monotonic() - start
    digest = hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()
    ).hexdigest()[:12]
    return {
        "config": cfg,
        "run_id": digest,
        "experiment": cfg["experiment"],
        "payload": payload,
        "checks": checks,
        "passed": all(checks.values()),
        "wall_time_s": elapsed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="ries", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--seed-offset", type=int, default=0, metavar="K")
    p_run.add_argument("--out", default=".", metavar="DIR")
    p_val = sub.add_parser("validate", help="validate a config and print it resolved")
    p_val.add_argument("config")
    args = parser.parse_args(argv)

    try:
        cfg = validate_config_file(args.config)
        if args.command == "validate":
            _load(cfg)
            json.dump(cfg, sys.stdout, sort_keys=True, indent=2)
            print()
            return 0
        if args.seed_offset:
            if "seeds" in cfg:
                cfg["seeds"] = [s + args.seed_offset for s in cfg["seeds"]]
            if "seed" in cfg:
                cfg["seed"] = cfg["seed"] + args.seed_offset
            cfg = validate_config(cfg)  # the shifted seeds are checked as the config's own
        report = run(cfg, out=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity guard: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a defect of the program, not of the config: no traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    dump_json(report, os.path.join(args.out, "summary.json"))
    status = "pass" if report["passed"] else "FAIL"
    print(f"{cfg['experiment']}: {status} ({report['wall_time_s']:.2f} s)")
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
