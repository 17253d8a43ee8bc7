import csv
import dataclasses
import glob
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest
from dense_reference import dumps_json, matrix_to_json, model_to_json, vector_to_json

import ries
from ries.cli import EXPERIMENTS, ConfigError, main, run, validate_config
from ries.serialize import dump_json, matrix_from_json, write_csv


@pytest.fixture(scope="module")
def model_doc():
    system, probe = ries.qubit_exchange_model(1.0, 0.9, 0.4, 1.1, 0.7, 1.3)
    return model_to_json(system, probe)


@pytest.fixture(scope="module")
def ensemble_doc(model_doc):
    system, probe = ries.model_from_json(model_doc)
    probe0 = ries.ProbeSpec(
        dim_e=2, h_e=probe.h_e, beta_e=probe.beta_e, v=0.0 * probe.v, tau=probe.tau
    )
    return {
        "atoms": [
            {"p": 0.5, "model": model_to_json(system, probe0)},
            {"p": 0.5, "model": model_doc},
        ]
    }


def test_write_csv_matches_csv_writer(tmp_path):
    """write_csv gives the bytes that csv.writer gives with every float as its repr,
    for ints, floats, -inf and nan."""
    header = ["n", "a", "b"]
    rows = [[1, 0.1, -np.inf], [2, float("nan"), 1e-300], [30, -0.0, 2.5], [4, 1 / 3, 7]]
    write_csv(str(tmp_path / "fast.csv"), header, rows)
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(x) if isinstance(x, float) else x for x in row])
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_matrix_json_roundtrip(rng):
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.allclose(matrix_from_json(matrix_to_json(a)), a)
    with pytest.raises(ValueError):
        matrix_from_json([[1.0, 2.0]])


def test_validate_fills_defaults(model_doc):
    cfg = validate_config({"experiment": "classify", "model": model_doc})
    assert cfg["tolerances"] == {"tol_one": 1e-8, "gap_min": 1e-6}


def test_validate_rejects_unknown_key(model_doc):
    with pytest.raises(ConfigError):
        validate_config({"experiment": "classify", "model": model_doc, "bogus": 1})


def test_validate_rejects_bad_probabilities(tmp_path, ensemble_doc):
    """Atom weights are the ensemble builder's to check: validate and run both exit 2."""
    for p in (0.7, "half", None, -0.5):
        doc = json.loads(json.dumps(ensemble_doc))
        doc["atoms"][0]["p"] = p
        path = tmp_path / "weights.json"
        dump_json({"experiment": "ergodic", "ensemble": doc}, str(path))
        assert main(["validate", str(path)]) == 2
        assert main(["run", str(path), "--out", str(tmp_path)]) == 2


def test_validate_roundtrip_idempotent(ensemble_doc):
    cfg = validate_config({"experiment": "decay", "ensemble": ensemble_doc})
    again = validate_config(json.loads(dumps_json(cfg)))
    assert dumps_json(again) == dumps_json(cfg)


def test_validate_requires_sources():
    with pytest.raises(ConfigError):
        validate_config({"experiment": "ideal"})
    with pytest.raises(ConfigError):
        validate_config({"experiment": "classify", "matrix": [[[1.0, 0.0]]]})
    with pytest.raises(ConfigError):
        validate_config({"experiment": "nope"})


def test_run_classify_matrix(tmp_path):
    cfg = validate_config(
        {
            "experiment": "classify",
            "matrix": matrix_to_json(np.diag([1.0, 0.5])),
            "psi_s": [[1.0, 0.0], [0.0, 0.0]],
        }
    )
    report = run(cfg, out=str(tmp_path))
    assert report["payload"]["in_class_e"] is True
    assert report["passed"]


def test_cli_exit_codes(tmp_path, model_doc, ensemble_doc, capsys):
    good = tmp_path / "oracle.json"
    dump_json({"experiment": "oracle-check", "model": model_doc, "m_max": 3}, str(good))
    assert main(["run", str(good), "--out", str(tmp_path)]) == 0

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad), "--out", str(tmp_path)]) == 2

    unknown = tmp_path / "unknown.json"
    dump_json({"experiment": "classify", "model": model_doc, "oops": 1}, str(unknown))
    assert main(["validate", str(unknown)]) == 2

    # mistyped or out-of-range values are config errors, never a traceback
    def edited(doc, path, value):
        out = json.loads(json.dumps(doc))
        *keys, last = path
        target = out
        for key in keys:
            target = target[key]
        target[last] = value
        return out

    bad_probability = edited(ensemble_doc, ("atoms", 0, "p"), "half")
    nan_tau_model = edited(model_doc, ("probe", "tau"), float("nan"))
    presample = {
        "presample": {
            "model": model_doc,
            "count": 4,
            "seed": 1,
            "tau": {"low": 0.6, "high": 1.6},
        }
    }
    tau_range = presample["presample"]["tau"]
    misspelt_presample = {"presample": {"model": model_doc, "tua": tau_range}}
    atoms = ensemble_doc["atoms"]
    misspelt_atom = {"atoms": [atoms[0], {"p": 0.5, "modle": atoms[1]["model"]}]}
    two_sources = {"atoms": [atoms[0], {**atoms[1], "matrix": [[[1.0, 0.0]]]}]}
    no_psi_s = {"atoms": [{"p": 1.0, "matrix": [[[1.0, 0.0]]]}]}
    matrix_atoms = {**no_psi_s, "psi_s": [[1.0, 0.0]]}
    path = tmp_path / "matrix_atoms.json"
    dump_json({"experiment": "decay", "ensemble": matrix_atoms}, str(path))
    assert main(["validate", str(path)]) == 0
    diagonal = matrix_to_json(np.diag([1.0, 0.5]))
    a_s = matrix_to_json(np.diag([1.0, -1.0]))
    system, probe = ries.model_from_json(model_doc)
    # atom 1 on a qutrit system: both systems and both atoms are valid on their own
    qutrit = ries.SystemSpec(dim_s=3, h_s=np.diag([0.0, 1.0, 2.0]), beta_s=system.beta_s)
    v = 0.3 * np.kron(np.diag([1.0, 0.0, -1.0]), np.diag([1.0, -1.0]))
    qutrit_probe = ries.ProbeSpec(dim_e=2, h_e=probe.h_e, beta_e=probe.beta_e, v=v, tau=probe.tau)
    other_dim = {"atoms": [atoms[0], {"p": 0.5, "model": model_to_json(qutrit, qutrit_probe)}]}
    other_beta = edited(ensemble_doc, ("atoms", 1, "model", "system", "beta"), 0.9)
    other_h = edited(ensemble_doc, ("atoms", 1, "model", "system", "h"), diagonal)
    # a matrix atom next to a model atom, with the model's GNS psi_s
    gns_psi_s = vector_to_json(ries.system_gns_data(system)[2])
    identity_atom = {"p": 0.5, "matrix": matrix_to_json(np.eye(4))}
    mixed_forms = {"atoms": [atoms[1], identity_atom], "psi_s": gns_psi_s}
    swapped_range, negative_range = {"low": 1.6, "high": 0.6}, {"low": -0.5, "high": 1.0}
    wide_range = {"low": -1e308, "high": 1e308}
    coupling_range = edited(presample, ("presample", "coupling"), negative_range)
    path = tmp_path / "negative_coupling.json"
    dump_json({"experiment": "ergodic", "ensemble": coupling_range}, str(path))
    assert main(["validate", str(path)]) == 0
    for doc in (
        {"experiment": "ergodic", "ensemble": ensemble_doc, "checkpoint_every": 0},
        {"experiment": "reverse", "ensemble": ensemble_doc, "checkpoint_every": 0},
        {"experiment": "lyapunov", "ensemble": ensemble_doc, "reorth_every": 0},
        {"experiment": "decay", "ensemble": ensemble_doc, "n_total": 10.7},
        {"experiment": "decay", "ensemble": ensemble_doc, "seeds": [1.5]},
        {"experiment": "decay", "ensemble": bad_probability},
        {"experiment": "classify", "model": model_doc, "tolerances": {"tol_one": "tight"}},
        {"experiment": "oracle-check", "model": model_doc, "tol": "small"},
        {"experiment": "oracle-check", "model": nan_tau_model},
        {"experiment": "ideal", "model": edited(model_doc, ("system", "beta"), "hot")},
        {"experiment": "classify", "model": edited(model_doc, ("probe", "dim"), 2.5)},
        {"experiment": "decay", "ensemble": edited(ensemble_doc, ("atoms", 1, "model"), nan_tau_model)},
        {"experiment": "ergodic", "ensemble": edited(presample, ("presample", "count"), 0)},
        {"experiment": "ergodic", "ensemble": edited(presample, ("presample", "count"), 10.7)},
        {"experiment": "ergodic", "ensemble": edited(presample, ("presample", "seed"), -1)},
        {"experiment": "ergodic", "ensemble": edited(presample, ("presample", "tau", "low"), float("nan"))},
        {"experiment": "ergodic", "ensemble": edited(presample, ("presample", "model"), nan_tau_model)},
        # keys no runner reads are unknown keys
        {"experiment": "oracle-check", "model": model_doc, "n_draws": 5},
        {"experiment": "decay", "ensemble": ensemble_doc, "tolerances": {"tol_one": 1e-8}},
        # misspelt, conflicting or missing keys at each level of an ensemble
        {"experiment": "ergodic", "ensemble": misspelt_presample},
        {"experiment": "decay", "ensemble": misspelt_atom},
        {"experiment": "decay", "ensemble": {"atomz": atoms}},
        {"experiment": "decay", "ensemble": two_sources},
        {"experiment": "decay", "ensemble": no_psi_s},
        {"experiment": "decay", "ensemble": {**ensemble_doc, **presample}},
        # an ensemble psi_s is read only next to matrix-form atoms
        {"experiment": "ergodic", "ensemble": {**presample, "psi_s": [[1.0, 0.0]] * 4}},
        {"experiment": "decay", "ensemble": {**ensemble_doc, "psi_s": [[1.0, 0.0]] * 4}},
        # keys a configuration does not read
        {"experiment": "fluxes", "ensemble": ensemble_doc, "monte_carlo": False, "seeds": [0, 1]},
        {"experiment": "fluxes", "ensemble": ensemble_doc, "monte_carlo": False, "n_total": 100},
        {"experiment": "fluxes", "ensemble": ensemble_doc, "monte_carlo": False, "rho_init": diagonal},
        {"experiment": "fluxes", "ensemble": ensemble_doc, "monte_carlo": "no"},
        {"experiment": "instant", "ensemble": ensemble_doc, "a_s": a_s},
        {"experiment": "instant", "ensemble": ensemble_doc, "family": "probe_energy", "a_s": a_s},
        {"experiment": "classify", "model": model_doc, "psi_s": [[1.0, 0.0]]},
        # Monte Carlo with one seed has no standard error
        {"experiment": "instant", "ensemble": ensemble_doc, "seeds": [3]},
        {"experiment": "fluxes", "ensemble": ensemble_doc, "seeds": [3]},
        # a psi_s needs one entry per matrix row
        {"experiment": "classify", "matrix": diagonal, "psi_s": [[1.0, 0.0]]},
        {"experiment": "decay", "ensemble": {**matrix_atoms, "psi_s": [[1.0, 0.0]] * 2}},
        # an ensemble has one system, and its atoms are all model-form or all matrix-form
        {"experiment": "decay", "ensemble": other_dim},
        {"experiment": "decay", "ensemble": other_beta},
        {"experiment": "decay", "ensemble": mixed_forms},
        # presample ranges: low <= high, and nonnegative tau and beta
        {"experiment": "ergodic", "ensemble": edited(presample, ("presample", "tau"), swapped_range)},
        {"experiment": "ergodic", "ensemble": edited(presample, ("presample", "tau", "low"), -0.5)},
        {"experiment": "ergodic", "ensemble": edited(presample, ("presample", "beta"), negative_range)},
        # a span past the largest float, and an integer too large for one, are not finite
        {"experiment": "ergodic", "ensemble": edited(presample, ("presample", "coupling"), wide_range)},
        # a range holds exactly a low and a high
        {"experiment": "ergodic", "ensemble": edited(presample, ("presample", "tau", "hgih"), 9)},
        {"experiment": "ergodic", "ensemble": edited(presample, ("presample", "beta"), {"low": 1, "high": 1.2, "width": 3})},
        {"experiment": "ergodic", "ensemble": edited(presample, ("presample", "tau"), {"low": 0.6})},
        {"experiment": "ergodic", "ensemble": edited(presample, ("presample", "tau"), [0.6, 1.6])},
        {"experiment": "ideal", "model": edited(model_doc, ("probe", "tau"), 10**400)},
        # unknown keys inside a model document, wherever it sits
        {"experiment": "classify", "model": edited(model_doc, ("system", "bta"), 0.7)},
        {"experiment": "ergodic", "ensemble": edited(ensemble_doc, ("atoms", 0, "model", "probe", "tua"), 1.1)},
        {"experiment": "ergodic", "ensemble": edited(presample, ("presample", "model", "system", "x"), 1)},
    ):
        path = tmp_path / "mistyped.json"
        dump_json(doc, str(path))
        assert main(["validate", str(path)]) == 2
        assert main(["run", str(path), "--out", str(tmp_path)]) == 2

    # validate parses every matrix and psi_s as run does: a psi_s entry that is no pair
    path = tmp_path / "psi_s_entry.json"
    dump_json({"experiment": "classify", "matrix": diagonal, "psi_s": [[1.0], [0.0]]}, str(path))
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path), "--out", str(tmp_path)]) == 2

    # the builders check that a matrix is an RDO for its psi_s, in validate as in run
    e1 = [[1.0, 0.0], [0.0, 0.0]]
    for doc in (
        {"experiment": "classify", "matrix": matrix_to_json(np.diag([1.0, 2.0])), "psi_s": e1},
        {"experiment": "decay", "ensemble": {**matrix_atoms, "psi_s": [[2.0, 0.0]]}},
        # model atoms whose system h differs
        {"experiment": "decay", "ensemble": other_h},
    ):
        path = tmp_path / "not_rdo.json"
        dump_json(doc, str(path))
        assert main(["validate", str(path)]) == 2
        assert main(["run", str(path), "--out", str(tmp_path)]) == 2

    huge = tmp_path / "huge.json"
    dump_json({"experiment": "oracle-check", "model": model_doc, "m_max": 12}, str(huge))
    capsys.readouterr()
    assert main(["run", str(huge), "--out", str(tmp_path)]) == 3
    # the oracle's own guard, before any chain evolution: one line with the estimate
    assert capsys.readouterr().err == (
        "capacity guard: chain dimension 8192 exceeds guard 4096: estimated peak 1,382 MiB "
        "(1.35 dense 8192x8192 arrays) and m = 12 encounters, one product W_k psi each, "
        "the last writing dim^2 = 67,108,864 entries\n"
    )

    failing = tmp_path / "failing.json"
    # an all-unitary ensemble has no in-class atom: a failed check, with its report
    probe0 = ries.ProbeSpec(
        dim_e=2, h_e=probe.h_e, beta_e=probe.beta_e, v=0.0 * probe.v, tau=probe.tau
    )
    dump_json(
        {
            "experiment": "decay",
            "ensemble": {"atoms": [{"p": 1.0, "model": model_to_json(system, probe0)}]},
            "n_total": 50,
        },
        str(failing),
    )
    (tmp_path / "summary.json").unlink(missing_ok=True)
    assert main(["run", str(failing), "--out", str(tmp_path)]) == 1
    assert json.loads((tmp_path / "summary.json").read_text())["checks"]["in_class_atom"] is False


def test_unknown_model_keys_are_named(model_doc):
    for part in ("system", "probe"):
        doc = {**model_doc, part: {**model_doc[part], "bta": 0.7}}
        where = re.escape(f"ensemble.atoms[0].model.{part}")
        with pytest.raises(ValueError, match=rf"unknown {where} keys: \['bta'\]"):
            ries.model_from_json(doc, "ensemble.atoms[0].model")
    with pytest.raises(ValueError, match=r"unknown model keys: \['sytem'\]"):
        ries.model_from_json({**model_doc, "sytem": model_doc["system"]})


def test_slowly_mixing_fluxes_pass(tmp_path):
    """The demo qubit ensemble (an uncoupled and an exchange-coupled atom, p = 1/2 each)
    at coupling 0.05: E[M] is in the class with gap 7.6e-4, and theta's series converges
    slowly, spr(E[M_Q]) = 0.99924, so that its first 10,000 terms miss theta by 2.8e-8.
    The resolvent solve sums it all."""
    system, probe = ries.qubit_exchange_model(1.0, 0.9, 0.05, 1.1, 0.7, 1.3)
    probe0 = ries.ProbeSpec(dim_e=2, h_e=probe.h_e, beta_e=probe.beta_e, v=0.0 * probe.v, tau=probe.tau)
    ensemble = {"atoms": [{"p": 0.5, "model": model_to_json(system, p)} for p in (probe0, probe)]}
    path = tmp_path / "fluxes.json"
    dump_json({"experiment": "fluxes", "ensemble": ensemble, "monte_carlo": False}, str(path))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 0
    checks = json.loads((tmp_path / "summary.json").read_text())["checks"]
    assert checks["neumann_converges"] is True and checks["theta_routes_agree"] is True


def test_theta_solve_skipped_just_below_one(tmp_path, capsys):
    """1 - spr(E[M_Q]) = 5e-13 lies below the solve's floor: theta's series is not
    summed, nothing raises, and the run fails its checks with a written report."""
    m = np.diag([1.0, 1.0 - 5e-13])
    ens = ries.RrdoEnsemble.from_matrices(np.array([1.0, 0.0]), [(1.0, m)])
    assert 1.0 - 1e-12 < ens.routes["spr_mean_mq"] < 1.0
    assert np.isnan(ens.routes["theta_neumann"]).all() and ens.routes["mismatch"] == np.inf
    path = tmp_path / "ergodic.json"
    ensemble = {"atoms": [{"p": 1.0, "matrix": matrix_to_json(m)}], "psi_s": [[1.0, 0.0], [0.0, 0.0]]}
    config = {"experiment": "ergodic", "ensemble": ensemble, "n_total": 200, "checkpoint_every": 100}
    dump_json(config, str(path))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    summary = _strict_json((tmp_path / "summary.json").read_text())
    assert summary["checks"]["neumann_converges"] is False
    assert summary["checks"]["theta_routes_agree"] is False
    assert summary["payload"]["theta_mismatch"] is None


def test_oracle_check_fails_on_non_finite_residual(tmp_path, model_doc, monkeypatch):
    """max(0.0, nan) is 0.0: a NaN from the oracle must not read as agreement."""

    def nan_oracle(system, steps, obs, m, rho_init):
        return np.full((len(m), len(obs.a_s)), complex("nan"))  # one row per m, one entry per operator

    monkeypatch.setattr("ries.cli.full_chain_oracle", nan_oracle)
    path = tmp_path / "oracle.json"
    dump_json({"experiment": "oracle-check", "model": model_doc, "m_max": 2}, str(path))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 1
    with open(tmp_path / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["payload"]["residuals_finite"] is False
    assert summary["payload"]["residual_by_m"] == [None, None]
    assert summary["checks"]["oracle_agreement"] is False


def test_oracle_check_reports_residual_by_m(tmp_path, model_doc, monkeypatch):
    """`residual_by_m` holds, for each m = 1..m_max, the largest |lhs - rhs| over that
    m's observables; `max_residual` is their largest. Re-runs repeat it exactly, and
    one chain evolution serves every m: one oracle call, asked about m = 1..m_max."""
    calls = []
    real = ries.cli.full_chain_oracle

    def recorded(system, steps, obs, m, rho_init):
        calls.append(list(m))
        return real(system, steps, obs, m, rho_init)

    monkeypatch.setattr("ries.cli.full_chain_oracle", recorded)
    path = tmp_path / "oracle.json"
    dump_json({"experiment": "oracle-check", "model": model_doc, "m_max": 5, "n_observables": 3}, str(path))
    payloads = []
    for run_dir in ("a", "b"):
        rc, summary = _run_summary(str(path), tmp_path / run_dir)
        assert rc == 0
        payloads.append(summary["payload"])
    assert calls == [[1, 2, 3, 4, 5]] * 2
    by_m = payloads[0]["residual_by_m"]
    assert len(by_m) == 5 and all(0.0 <= x <= 1e-10 for x in by_m)
    assert payloads[0]["max_residual"] == max(by_m)
    assert payloads[0] == payloads[1]

    # a NaN at one m, one observable: that m alone reads null, and the run fails
    def one_nan(system, steps, obs, m, rho_init):
        values = real(system, steps, obs, m, rho_init)
        values[2, 0] = complex("nan")
        return values

    monkeypatch.setattr("ries.cli.full_chain_oracle", one_nan)
    rc, summary = _run_summary(str(path), tmp_path / "nan")
    by_m = summary["payload"]["residual_by_m"]
    assert rc == 1 and by_m[2] is None and all(x is not None for i, x in enumerate(by_m) if i != 2)
    assert summary["payload"]["max_residual"] is None


def test_reverse_on_gns_dim_one(tmp_path, capsys):
    """1 x 1 matrix atoms: every product is rank one, so the sigma ratio is 0."""
    path = tmp_path / "reverse.json"
    ensemble = {"psi_s": [[1, 0]], "atoms": [{"p": 1, "matrix": [[[1, 0]]]}]}
    dump_json({"experiment": "reverse", "ensemble": ensemble, "n_total": 20}, str(path))
    assert main(["run", str(path), "--out", str(tmp_path)]) in (0, 1)
    assert "Traceback" not in capsys.readouterr().err
    with open(tmp_path / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["payload"]["per_seed"][0]["final_sigma_ratio"] == 0.0
    # no ratio lies above the floor: the rate is -inf, which JSON writes as null
    assert summary["payload"]["per_seed"][0]["sigma_ratio_rate"] is None
    assert summary["payload"]["per_seed"][0]["sigma_ratio_rate_kind"] == "sigma_ratio_floor"


def test_decay_word_at_exact_zero_reads_as_such(tmp_path):
    """A 1 x 1 matrix atom has M_Q = 0, so every word is exactly zero: alpha is
    infinite, which JSON writes as null, and the seed's `alpha_kind` says why."""
    path = tmp_path / "decay.json"
    ensemble = {"psi_s": [[1, 0]], "atoms": [{"p": 1, "matrix": [[[1, 0]]]}]}
    dump_json({"experiment": "decay", "ensemble": ensemble, "seeds": [0, 1], "n_total": 20}, str(path))
    _, summary = _run_summary(str(path), tmp_path / "out")
    assert summary["checks"]["alpha_positive_all_seeds"] is True
    assert [(r["alpha"], r["alpha_kind"]) for r in summary["payload"]["per_seed"]] == [(None, "exact_zero")] * 2


@pytest.mark.parametrize(
    "name, n_total, check",
    [("decay", 1, "alpha_positive_all_seeds"), ("reverse", 1, "rank_one_decay"), ("reverse", 5, "rank_one_decay")],
)
def test_too_short_runs_fail_their_decay_checks(tmp_path, name, n_total, check):
    """A fit over fewer than two points gives no rate unless the series reached its
    floor (a -inf log norm, a sigma ratio at the rounding floor), so a demo run too
    short to fit a rate fails its decay check instead of passing it for free, and
    each seed's rate, null in JSON, says that it had too few points."""
    with open(os.path.join(DEMO_CONFIGS, f"{name}.json")) as fh:
        doc = {**json.load(fh), "n_total": n_total}
    path = tmp_path / "cfg.json"
    dump_json(doc, str(path))
    rc, summary = _run_summary(str(path), tmp_path / "out")
    assert rc == 1 and summary["checks"][check] is False
    kind = {"decay": "alpha_kind", "reverse": "sigma_ratio_rate_kind"}[name]
    assert {r[kind] for r in summary["payload"]["per_seed"]} == {"too_few_points"}


def test_reverse_rate_ignores_rounding_noise(tmp_path, monkeypatch):
    """sigma_ratio_rate fits only the ratios above the rounding floor.

    On the demo reverse config the sigma_2 / sigma_1 ratio falls to ~1e-17;
    dividing every ratio below the floor by 10 (which keeps it below) must
    leave each rate bitwise the same.
    """
    root = os.path.join(os.path.dirname(__file__), "..", "demos", "configs")
    with open(os.path.join(root, "reverse.json")) as fh:
        cfg = validate_config(json.load(fh))
    before = run(cfg, out=str(tmp_path / "before"))["payload"]["per_seed"]
    real = ries.cli.simulate_reverse

    def noisier(*args, **kwargs):
        rep = real(*args, **kwargs)
        below = rep.sigma_ratios <= ries.cli._SIGMA_RATIO_FLOOR
        assert below.any()
        rep.sigma_ratios[below] /= 10.0
        return rep

    monkeypatch.setattr("ries.cli.simulate_reverse", noisier)
    after = run(cfg, out=str(tmp_path / "after"))["payload"]["per_seed"]
    assert [r["sigma_ratio_rate"] for r in after] == [r["sigma_ratio_rate"] for r in before]


def test_run_reports_byte_identical(tmp_path, ensemble_doc):
    cfg_path = tmp_path / "erg.json"
    dump_json(
        {
            "experiment": "ergodic",
            "ensemble": ensemble_doc,
            "seeds": [0, 1],
            "n_total": 3000,
        },
        str(cfg_path),
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["run", str(cfg_path), "--out", str(out_b)]) == 0
    rep_a = json.loads((out_a / "summary.json").read_text())
    rep_b = json.loads((out_b / "summary.json").read_text())
    rep_a.pop("wall_time_s")
    rep_b.pop("wall_time_s")
    assert dumps_json(rep_a) == dumps_json(rep_b)
    assert (out_a / "ergodic_seed0.csv").read_bytes() == (
        out_b / "ergodic_seed0.csv"
    ).read_bytes()


def test_seed_offset_changes_trajectories(tmp_path, ensemble_doc):
    cfg_path = tmp_path / "dec.json"
    dump_json(
        {"experiment": "decay", "ensemble": ensemble_doc, "seeds": [0], "n_total": 400},
        str(cfg_path),
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["run", str(cfg_path), "--out", str(out_b), "--seed-offset", "7"]) == 0
    rep_a = json.loads((out_a / "summary.json").read_text())
    rep_b = json.loads((out_b / "summary.json").read_text())
    assert rep_a["payload"]["per_seed"][0]["seed"] == 0
    assert rep_b["payload"]["per_seed"][0]["seed"] == 7
    assert rep_a["payload"]["alpha_min"] != rep_b["payload"]["alpha_min"]


def test_ergodic_csv_bound_uses_coefficient(tmp_path, ensemble_doc):
    cfg_path = tmp_path / "erg.json"
    dump_json(
        {
            "experiment": "ergodic",
            "ensemble": ensemble_doc,
            "n_total": 3000,
            "bound_coefficient": 3.0,
        },
        str(cfg_path),
    )
    # the CSV is written whether or not the tighter bound holds
    main(["run", str(cfg_path), "--out", str(tmp_path)])
    lines = (tmp_path / "ergodic_seed0.csv").read_text().splitlines()
    assert lines[0] == "n,distance,bound"
    for line in lines[1:]:
        n, _, bound = line.split(",")
        assert float(bound) == 3.0 / np.sqrt(int(n))


def test_theta_computed_once_per_ensemble(tmp_path, ensemble_doc, monkeypatch):
    """The runners' theta checks, both closed forms and an ergodic run share one theta_routes."""
    calls = {"theta_routes": 0}
    orig = ries.ensemble.theta_routes

    def counted(*args, **kwargs):
        calls["theta_routes"] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(ries.ensemble, "theta_routes", counted)
    ens = ries.ensemble.ensemble_from_json(ensemble_doc)
    ries.cli._theta_checks(ens)
    ries.flux_closed_form(ens)
    ries.ergodic_instant_limit(ens, ries.thermo.identity_family(ens))
    ries.cli._theta_checks(ens)
    assert calls == {"theta_routes": 1}
    # the ergodic runner's checks read the routes and simulate_forward reads theta: one call
    cfg = validate_config({"experiment": "ergodic", "ensemble": ensemble_doc, "n_total": 200})
    assert run(cfg, out=str(tmp_path))["passed"]
    assert calls == {"theta_routes": 2}


def test_all_demo_configs_validate():
    """Schema stability: every example config shipped with the repo validates."""
    root = os.path.join(os.path.dirname(__file__), "..", "demos", "configs")
    paths = sorted(glob.glob(os.path.join(root, "*.json")))
    assert paths, "demo configs missing"
    for path in paths:
        with open(path) as fh:
            validate_config(json.load(fh))


def test_run_instant_and_fluxes(tmp_path, ensemble_doc):
    for doc in (
        {
            "experiment": "instant",
            "ensemble": ensemble_doc,
            "family": "probe_energy",
            "seeds": [0, 1, 2, 3, 4],
            "n_total": 4000,
        },
        {
            "experiment": "fluxes",
            "ensemble": ensemble_doc,
            "seeds": [0, 1, 2],
            "n_total": 4000,
        },
        {"experiment": "reverse", "ensemble": ensemble_doc, "n_total": 300},
        {"experiment": "ideal", "model": ensemble_doc["atoms"][1]["model"]},
    ):
        path = tmp_path / f"{doc['experiment']}.json"
        dump_json(doc, str(path))
        assert main(["run", str(path), "--out", str(tmp_path / doc["experiment"])]) == 0
    # the flux Monte Carlo runs exactly the listed seeds
    summary = json.loads((tmp_path / "fluxes" / "summary.json").read_text())
    assert summary["payload"]["monte_carlo"]["seeds"] == 3


def test_sigma_floor_used_is_reported(tmp_path, ensemble_doc):
    """A 3-sigma check that fell back to the 1e-12 floor says so in the payload.

    With the flip-flop exchange of `ensemble_doc` every path's Cesaro mean of
    the probe energy is the same value, so the stderr is below the floor; a
    system observable whose per-seed means differ has a genuine stderr, and
    so do the demo instant and fluxes configs.
    """
    diag = matrix_to_json(np.diag([0.0, 1.0]).astype(complex))
    exchange = {"experiment": "instant", "ensemble": ensemble_doc, "family": "probe_energy",
                "seeds": list(range(10)), "n_total": 20_000}
    genuine = {"experiment": "instant", "ensemble": ensemble_doc, "family": "system",
               "a_s": diag, "seeds": [5, 7, 9], "n_total": 400}
    for name, doc, floor in (("exchange", exchange, True), ("genuine", genuine, False)):
        rep = run(validate_config(doc), out=str(tmp_path / name))
        assert rep["passed"]
        assert rep["payload"]["sigma_floor_used"] is floor
        assert (rep["payload"]["stderr"] < 1e-12) is floor
    root = os.path.join(os.path.dirname(__file__), "..", "demos", "configs")
    for name in ("instant", "fluxes"):
        with open(os.path.join(root, f"{name}.json")) as fh:
            rep = run(validate_config(json.load(fh)), out=str(tmp_path / name))
        assert rep["passed"]
        assert rep["payload"]["sigma_floor_used"] is False


def test_flux_checks_need_finite_stderr(tmp_path, ensemble_doc, monkeypatch):
    """One Monte Carlo seed gives an infinite stderr, which must not pass 3 sigma;
    the summary, standard JSON, writes it as null."""
    real = ries.cli.flux_monte_carlo
    monkeypatch.setattr(
        "ries.cli.flux_monte_carlo", lambda ens, seeds, *a, **kw: real(ens, seeds[:1], *a, **kw)
    )
    path = tmp_path / "fluxes.json"
    dump_json({"experiment": "fluxes", "ensemble": ensemble_doc, "n_total": 500}, str(path))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 1
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["payload"]["monte_carlo"]["de_stderr"] is None
    assert summary["checks"]["mc_de_within_3_sigma"] is False
    assert summary["checks"]["mc_ds_within_3_sigma"] is False


DEMO_CONFIGS = os.path.join(os.path.dirname(__file__), "..", "demos", "configs")


def _run_summary(path, out) -> tuple[int, dict]:
    rc = main(["run", path, "--out", str(out)])
    return rc, json.loads((out / "summary.json").read_text())


def test_instant_check_trips_on_shifted_closed_form(tmp_path, monkeypatch):
    """Mutation: the demo instant closed form moved by +10 sigma fails the 3-sigma
    check with rc 1, so the check tests the Monte Carlo statistics."""
    path = os.path.join(DEMO_CONFIGS, "instant.json")
    rc, base = _run_summary(path, tmp_path / "base")
    assert rc == 0 and base["checks"]["mc_within_3_sigma"] is True
    shift = 10.0 * base["payload"]["stderr"]
    real = ries.cli.ergodic_instant_limit
    monkeypatch.setattr("ries.cli.ergodic_instant_limit", lambda ens, fam: real(ens, fam) + shift)
    rc, shifted = _run_summary(path, tmp_path / "shifted")
    assert rc == 1 and shifted["checks"]["mc_within_3_sigma"] is False
    assert shifted["payload"]["closed_form"][0] == base["payload"]["closed_form"][0] + shift


@pytest.mark.parametrize("field", ["de", "ds"])
def test_flux_check_trips_on_shifted_closed_form(tmp_path, monkeypatch, field):
    """Mutation: the demo fluxes closed-form dE+ (or dS+) moved by +10 sigma fails
    its own 3-sigma check with rc 1; the other Monte Carlo check still holds."""
    path = os.path.join(DEMO_CONFIGS, "fluxes.json")
    rc, base = _run_summary(path, tmp_path / "base")
    assert rc == 0 and base["payload"]["sigma_floor_used"] is False
    shift = 10.0 * base["payload"]["monte_carlo"][f"{field}_stderr"]
    real = ries.cli.flux_closed_form

    def shifted_form(ens):
        rep = real(ens)
        return dataclasses.replace(rep, **{f"{field}_plus": getattr(rep, f"{field}_plus") + shift})

    monkeypatch.setattr("ries.cli.flux_closed_form", shifted_form)
    rc, shifted = _run_summary(path, tmp_path / "shifted")
    other = {"de": "ds", "ds": "de"}[field]
    assert rc == 1
    assert shifted["checks"][f"mc_{field}_within_3_sigma"] is False
    assert shifted["checks"][f"mc_{other}_within_3_sigma"] is True


@pytest.mark.parametrize("experiment", ["instant", "fluxes"])
def test_monte_carlo_runs_every_listed_seed(tmp_path, ensemble_doc, experiment):
    """Seed lists that share their first seed still run different paths."""
    doc = {"experiment": experiment, "ensemble": ensemble_doc, "n_total": 500}
    if experiment == "instant":
        doc.update(family="system", a_s=matrix_to_json(np.diag([1.0, -1.0])))
    payloads = []
    for seeds in ([5, 9], [5, 7]):
        cfg = validate_config({**doc, "seeds": seeds})
        payloads.append(dumps_json(run(cfg, out=str(tmp_path))["payload"]))
    assert payloads[0] != payloads[1]


def test_fluxes_build_energy_tables_once(tmp_path, ensemble_doc, monkeypatch):
    """A Monte Carlo fluxes run reduces each atom's interaction once, not per
    estimator: one stacked reduction over all atoms."""
    calls = []
    orig = ries.model.energy_terms

    def counted(enc, phis):
        calls.append(len(enc.probes))
        return orig(enc, phis)

    for mod in (ries.model, ries.ensemble, ries.thermo):  # wherever it is imported by name
        if getattr(mod, "energy_terms", None) is orig:
            monkeypatch.setattr(mod, "energy_terms", counted)
    cfg = validate_config({"experiment": "fluxes", "ensemble": ensemble_doc, "n_total": 500})
    assert cfg["monte_carlo"]
    run(cfg, out=str(tmp_path))
    assert calls == [len(ensemble_doc["atoms"])]


@pytest.mark.parametrize("experiment", ["instant", "fluxes"])
def test_monte_carlo_runs_build_each_encounter_once(tmp_path, ensemble_doc, monkeypatch, experiment):
    """A Monte Carlo instant or fluxes run builds one step-unitary row per atom: the
    RDOs, the energy tables and the observable family read one stack of encounters."""
    rows = []
    orig = ries.model.step_unitaries
    monkeypatch.setattr(ries.model, "step_unitaries", lambda sys, probes: rows.append(len(probes)) or orig(sys, probes))
    doc = {"experiment": experiment, "ensemble": ensemble_doc, "n_total": 500}
    if experiment == "instant":
        doc.update(family="system", a_s=matrix_to_json(np.diag([1.0, -1.0])))
    run(validate_config(doc), out=str(tmp_path))
    assert sum(rows) == len(ensemble_doc["atoms"])


class _ReadRecorder(dict):
    """A config dict that records which keys the runner looked at."""

    def __init__(self, doc):
        super().__init__(doc)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def test_every_resolved_key_is_read(tmp_path, model_doc, ensemble_doc):
    """A key that validates but that no runner reads is a dead knob."""
    small = {"seeds": [0, 1], "n_total": 200}
    docs = [
        {
            "experiment": "classify",
            "matrix": matrix_to_json(np.diag([1.0, 0.5])),
            "psi_s": [[1.0, 0.0], [0.0, 0.0]],
        },
        {"experiment": "ideal", "model": model_doc, "n_max": 20},
        {"experiment": "ergodic", "ensemble": ensemble_doc, **small, "checkpoint_every": 100},
        {"experiment": "decay", "ensemble": ensemble_doc, **small},
        {"experiment": "reverse", "ensemble": ensemble_doc, **small},
        {"experiment": "lyapunov", "ensemble": ensemble_doc, **small},
        {
            "experiment": "instant",
            "ensemble": ensemble_doc,
            "family": "system",
            "a_s": matrix_to_json(np.diag([1.0, -1.0])),
            **small,
        },
        {
            "experiment": "fluxes",
            "ensemble": ensemble_doc,
            "rho_init": matrix_to_json(np.diag([0.25, 0.75])),
            **small,
        },
        {"experiment": "oracle-check", "model": model_doc, "m_max": 2, "n_observables": 1},
        # configurations that leave some schema keys unread resolve without them
        {"experiment": "fluxes", "ensemble": ensemble_doc, "monte_carlo": False},
        {"experiment": "instant", "ensemble": ensemble_doc, "family": "probe_energy", **small},
    ]
    assert {d["experiment"] for d in docs} == set(EXPERIMENTS)
    for doc in docs:
        cfg = _ReadRecorder(validate_config(doc))
        run(cfg, out=str(tmp_path / doc["experiment"]))
        assert set(cfg) <= cfg.read, (doc["experiment"], sorted(set(cfg) - cfg.read))


@pytest.mark.parametrize(
    "rho, match",
    [
        (np.diag([1.0, 1.0]), "rho_init: trace is 2"),
        (np.array([[1.0, 5.0], [0.0, 0.0]]), "rho_init: rho is not Hermitian"),
        (np.diag([1.5, -0.5]), "rho_init: negative eigenvalue"),
        (np.diag([0.5, 0.25, 0.25]), "rho_init has shape \\(3, 3\\), expected \\(2, 2\\)"),
    ],
    ids=["trace", "non_hermitian", "negative", "shape"],
)
def test_fluxes_rejects_bad_rho_init(tmp_path, capsys, rho, match):
    """A fluxes rho_init that is not a density matrix on the system is a config
    error (rc 2) in validate and run, not a failed theorem check or a silent run."""
    with open(os.path.join(DEMO_CONFIGS, "fluxes.json")) as fh:
        doc = {**json.load(fh), "rho_init": matrix_to_json(rho)}
    path = tmp_path / "fluxes.json"
    dump_json(doc, str(path))
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2, err
    assert all(line.startswith("config error:") and re.search(match, line) for line in err), err
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("name", ["fluxes", "ergodic"])
def test_repeated_seeds_are_config_errors(tmp_path, capsys, name):
    """A repeated seed repeats its stream, so Monte Carlo errors shrink to nothing:
    validate and run both reject it (rc 2) and name the seed."""
    with open(os.path.join(DEMO_CONFIGS, f"{name}.json")) as fh:
        doc = {**json.load(fh), "seeds": [2, 0, 5, 0]}
    path = tmp_path / "repeated.json"
    dump_json(doc, str(path))
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("config error: seeds must be distinct; 0 is repeated") == 2, err
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize(
    "entry, shown",
    [("[1e400, 0.0]", "[inf, 0.0]"), ("[0.9, 0, 5]", "[0.9, 0, 5]")],
    ids=["overflow", "three_numbers"],
)
def test_model_matrix_entries_are_finite_pairs(tmp_path, capsys, entry, shown):
    """Mutation of the demo fluxes config: a probe h entry that is not an [re, im]
    pair of finite numbers is a config error in validate and run (rc 2), named by
    its place, not an SVD failure mid-run or a silently dropped number."""
    with open(os.path.join(DEMO_CONFIGS, "fluxes.json")) as fh:
        doc = json.load(fh)
    doc["ensemble"]["atoms"][1]["model"]["probe"]["h"][1][1] = "ENTRY"
    path = tmp_path / "entry.json"
    path.write_text(json.dumps(doc).replace('"ENTRY"', entry))
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path), "--out", str(tmp_path)]) == 2
    where = "ensemble.atoms[1].model.probe.h[1][1]"
    message = f"config error: {where} must be an [re, im] pair of finite numbers, got {shown}"
    assert capsys.readouterr().err.count(message) == 2
    assert not (tmp_path / "summary.json").exists()


def _matrix_docs():
    """(field: (config, path to one of its matrix entries, name in the message)) for
    every matrix `run` parses besides a model's h and v, each config valid as is."""
    with open(os.path.join(DEMO_CONFIGS, "instant.json")) as fh:
        instant = {**json.load(fh), "family": "system", "a_s": matrix_to_json(np.diag([0.5, -1.0]))}
    with open(os.path.join(DEMO_CONFIGS, "fluxes.json")) as fh:
        fluxes = {**json.load(fh), "rho_init": matrix_to_json(np.diag([0.75, 0.25]))}
    classify = {
        "experiment": "classify",
        "matrix": matrix_to_json(np.diag([1.0, 0.5])),
        "psi_s": [[1.0, 0.0], [0.0, 0.0]],
    }
    ergodic = {
        "experiment": "ergodic",
        "ensemble": {
            "atoms": [{"p": 0.5, "matrix": classify["matrix"]},
                      {"p": 0.5, "matrix": matrix_to_json(np.diag([1.0, 0.25]))}],
            "psi_s": classify["psi_s"],
        },
        "n_total": 200,
        "checkpoint_every": 100,
    }
    return {
        "a_s": (instant, ["a_s", 0, 0], "a_s[0][0]"),
        "matrix": (classify, ["matrix", 1, 1], "matrix[1][1]"),
        "psi_s": (classify, ["psi_s", 0], "psi_s[0][0]"),
        "rho_init": (fluxes, ["rho_init", 0, 1], "rho_init[0][1]"),
        "atom_matrix": (ergodic, ["ensemble", "atoms", 1, "matrix", 0, 0], "ensemble.atoms[1].matrix[0][0]"),
        "ensemble_psi_s": (ergodic, ["ensemble", "psi_s", 1], "ensemble.psi_s[0][1]"),
    }


@pytest.mark.parametrize("field", sorted(_matrix_docs()))
def test_validate_parses_every_matrix_run_parses(tmp_path, capsys, field):
    """`validate` rc 2 <=> `run` rc 2 for each matrix field: the config as is passes
    both (run exits 0 or 1), and with one entry of 1e400 (inf) both exit 2 with
    the same message, so validate no longer passes what run rejects."""
    doc, where, name = _matrix_docs()[field]
    path = tmp_path / "config.json"
    dump_json(doc, str(path))
    assert main(["validate", str(path)]) == 0
    assert main(["run", str(path), "--out", str(tmp_path / "as_is")]) in (0, 1)
    entry = doc
    for key in where:
        entry = entry[key]
    entry[0] = "ENTRY"
    path.write_text(json.dumps(doc).replace('"ENTRY"', "1e400"))
    capsys.readouterr()
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path), "--out", str(tmp_path / "bad")]) == 2
    message = f"config error: {name} must be an [re, im] pair of finite numbers, got [inf, "
    assert capsys.readouterr().err.count(message) == 2
    assert not (tmp_path / "bad" / "summary.json").exists()


def test_matrix_from_json_takes_only_finite_pairs():
    assert np.array_equal(matrix_from_json([[[1, 0], [0.5, -2]]]), [[1.0, 0.5 - 2j]])
    for entry in ([1.0], [1.0, 0.0, 0.0], [True, 0.0], ["1", 0.0], [math.nan, 0.0],
                  [0.0, -math.inf], [10**400, 0], (1.0, 0.0), 1.0):
        with pytest.raises(ValueError, match=re.escape("m[0][1] must be an [re, im] pair")):
            matrix_from_json([[[1.0, 0.0], entry]], "m")
    for data in ([[[1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]], "[[1, 0]]", [[1.0, 0.0]]):
        with pytest.raises(ValueError):
            matrix_from_json(data)


def test_ergodic_distance_check_trips_on_scaled_distances(tmp_path, monkeypatch):
    """Mutation: the demo ergodic distances scaled by 1e6 break the C / sqrt(N)
    bound, so `distance_bound` fails with rc 1 while the routes still agree."""
    real = ries.cli.simulate_forward

    def scaled(*args, **kwargs):
        rep = real(*args, **kwargs)
        return dataclasses.replace(rep, distances=rep.distances * 1e6)

    monkeypatch.setattr("ries.cli.simulate_forward", scaled)
    rc, summary = _run_summary(os.path.join(DEMO_CONFIGS, "ergodic.json"), tmp_path)
    assert rc == 1 and summary["checks"]["distance_bound"] is False
    assert summary["checks"]["theta_routes_agree"] is True


def test_ergodic_routes_check_trips_on_mismatch(tmp_path, monkeypatch):
    """Mutation: a theta-route mismatch of 1e-6 fails `theta_routes_agree` on the demo
    ergodic config with rc 1 and a written summary; the other checks still hold."""
    real = ries.ensemble.theta_routes
    monkeypatch.setattr(ries.ensemble, "theta_routes", lambda ens: {**real(ens), "mismatch": 1e-6})
    rc, summary = _run_summary(os.path.join(DEMO_CONFIGS, "ergodic.json"), tmp_path)
    assert rc == 1 and summary["checks"]["theta_routes_agree"] is False
    assert summary["payload"]["theta_mismatch"] == 1e-6
    assert all(ok for name, ok in summary["checks"].items() if name != "theta_routes_agree")


def test_decay_check_trips_on_nonpositive_alpha(tmp_path, monkeypatch):
    """Mutation: one seed's fitted rate set to 0 fails `alpha_positive_all_seeds`
    on the demo decay config with rc 1; `mean_in_class` still holds."""
    real = ries.cli.decay_estimator

    def flattened(*args, **kwargs):
        rep = real(*args, **kwargs)
        rep.alpha[-1] = 0.0
        return rep

    monkeypatch.setattr("ries.cli.decay_estimator", flattened)
    rc, summary = _run_summary(os.path.join(DEMO_CONFIGS, "decay.json"), tmp_path)
    assert rc == 1 and summary["checks"]["alpha_positive_all_seeds"] is False
    assert summary["checks"]["mean_in_class"] is True


@pytest.mark.parametrize(
    "check, field, mutate",
    [
        ("gamma1_zero", "gamma_1", lambda x: x + 1e-2),
        ("gap_positive", "gap", lambda x: -np.abs(x)),
    ],
)
def test_lyapunov_check_trips_on_mutated_exponents(tmp_path, monkeypatch, check, field, mutate):
    """Mutation: the demo lyapunov gamma_1 moved off 0 by 1e-2 (past the 2e-3
    bound), or every gap made nonpositive, fails that check alone with rc 1."""
    real = ries.cli.lyapunov

    def mutated(*args, **kwargs):
        rep = real(*args, **kwargs)
        return dataclasses.replace(rep, **{field: mutate(getattr(rep, field))})

    monkeypatch.setattr("ries.cli.lyapunov", mutated)
    rc, summary = _run_summary(os.path.join(DEMO_CONFIGS, "lyapunov.json"), tmp_path)
    assert rc == 1 and summary["checks"][check] is False
    assert all(ok for name, ok in summary["checks"].items() if name != check)


def test_reverse_check_trips_on_growing_residuals(tmp_path, monkeypatch):
    """Mutation: the demo reverse residuals played backwards grow instead of
    decaying, which fails `rank_one_decay` with rc 1 and a written summary."""
    path = os.path.join(DEMO_CONFIGS, "reverse.json")
    rc, base = _run_summary(path, tmp_path / "base")
    assert rc == 0 and base["checks"]["rank_one_decay"] is True
    real = ries.cli.simulate_reverse

    def backwards(*args, **kwargs):
        rep = real(*args, **kwargs)
        return dataclasses.replace(rep, residuals=rep.residuals[:, ::-1])

    monkeypatch.setattr("ries.cli.simulate_reverse", backwards)
    rc, summary = _run_summary(path, tmp_path / "mutated")
    assert rc == 1 and summary["checks"]["rank_one_decay"] is False


@pytest.mark.parametrize(
    "check, mutate",
    [
        ("rate_within_10pct", lambda res: dataclasses.replace(res, fitted_rate=0.5 * res.fitted_rate)),
        ("final_error_small", lambda res: dataclasses.replace(res, errors=res.errors + 1e-6)),
    ],
)
def test_ideal_check_trips_on_mutated_asymptotics(tmp_path, monkeypatch, check, mutate):
    """Mutation: the demo ideal fitted rate halved (50% off log spr(M_Q)), or every
    error raised by 1e-6 (past the 1e-8 bound), fails that check alone with rc 1."""
    real = ries.cli.ideal_asymptotics
    monkeypatch.setattr("ries.cli.ideal_asymptotics", lambda rdo, **kw: mutate(real(rdo, **kw)))
    rc, summary = _run_summary(os.path.join(DEMO_CONFIGS, "ideal.json"), tmp_path)
    assert rc == 1 and summary["checks"][check] is False
    assert all(ok for name, ok in summary["checks"].items() if name != check)


def test_ideal_passes_a_model_at_its_limit_from_one_step(tmp_path):
    """The resonant full-swap qubit model has M = P_1: every error ||M^n - P_1|| is
    rounding, at or below the fit floor, so no rate can be fitted. The rate check then
    holds because spr(M_Q)^2 is below that floor too, and the run exits 0."""
    system, probe = ries.qubit_exchange_model(1.0, 1.0, 1.0, math.pi / 2, 0.7, 1.3)
    path = tmp_path / "full_swap.json"
    dump_json({"experiment": "ideal", "model": model_to_json(system, probe)}, str(path))
    rc, summary = _run_summary(str(path), tmp_path)
    assert rc == 0, summary
    assert summary["payload"]["fitted_rate"] is None and summary["payload"]["spr_mq"] < 1e-13


def test_ideal_power_stack_capacity_guard(tmp_path, model_doc, capsys, monkeypatch):
    """n_max = 2^21 powers of the 4 x 4 qubit RDO hold 2^25 entries, past the guard's
    2^24: rc 3 with the estimated peak, no traceback, and no power is formed."""

    def no_powers(*args):
        raise AssertionError("the power stack was allocated")

    monkeypatch.setattr("ries.rdo._powers", no_powers)
    path = tmp_path / "ideal.json"
    dump_json({"experiment": "ideal", "model": model_doc, "n_max": 2**21}, str(path))
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    assert main(["run", str(path), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert err.startswith("capacity guard: 2,097,152 powers of a 4x4 RDO hold 33,554,432 entries")
    assert f"estimated peak {1.2 * 2**21 * 16 * 16 / 2**20:,.0f} MiB" in err
    assert not (tmp_path / "summary.json").exists()


def test_ideal_rate_check_trips_on_unfittable_slow_series(tmp_path, monkeypatch):
    """Mutation: a series that cannot be fitted (fitted rate -inf) while spr(M_Q) = 0.5
    fails `rate_within_10pct` alone with rc 1: M^n cannot sit at its limit then."""
    real = ries.cli.ideal_asymptotics
    unfittable = lambda rdo, **kw: dataclasses.replace(  # noqa: E731
        real(rdo, **kw), fitted_rate=-math.inf, spr_mq=0.5
    )
    monkeypatch.setattr("ries.cli.ideal_asymptotics", unfittable)
    rc, summary = _run_summary(os.path.join(DEMO_CONFIGS, "ideal.json"), tmp_path)
    assert rc == 1 and summary["checks"]["rate_within_10pct"] is False
    assert all(ok for name, ok in summary["checks"].items() if name != "rate_within_10pct")


def test_decay_check_trips_on_mean_out_of_class(tmp_path, monkeypatch):
    """Mutation: the spectral class of E[M] reported out of class fails `mean_in_class`
    on the demo decay config with rc 1; `alpha_positive_all_seeds` still holds."""
    real = ries.ensemble.classify
    out_of_class = lambda rdo: dataclasses.replace(real(rdo), in_class_e=False)  # noqa: E731
    monkeypatch.setattr(ries.ensemble, "classify", out_of_class)
    rc, summary = _run_summary(os.path.join(DEMO_CONFIGS, "decay.json"), tmp_path)
    assert rc == 1 and summary["checks"]["mean_in_class"] is False
    assert "mean_in_class" not in summary["payload"]  # a check, reported once
    assert summary["checks"]["alpha_positive_all_seeds"] is True


def _uncoupled(node):
    """A copy of `node` with every interaction operator `v` below it zeroed."""
    if isinstance(node, list):
        return [_uncoupled(x) for x in node]
    if not isinstance(node, dict):
        return node
    out = {k: _uncoupled(v) for k, v in node.items()}
    if "v" in out:
        out["v"] = [[[0.0, 0.0]] * len(row) for row in node["v"]]
    return out


def _strict_json(text: str):
    """Parse standard JSON only: a NaN or Infinity token raises."""

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize(
    "name, hypothesis",
    [
        ("ergodic", "mean_in_class"),
        ("instant", "mean_in_class"),
        ("fluxes", "mean_in_class"),
        ("decay", "in_class_atom"),
        ("reverse", "in_class_atom"),
        ("ideal", "in_class"),
        ("lyapunov", "gap_positive"),
    ],
)
def test_uncoupled_demo_fails_its_hypothesis_with_a_report(tmp_path, capsys, name, hypothesis):
    """The demo qubit ensemble (or the ideal model) with every coupling zeroed breaks
    the theorems' hypotheses: rc 1, a written standard-JSON summary, and the named
    check false; no exit 4 and no traceback. Its atoms are unitary, so the Lyapunov
    gap is rounding, which the stated floor does not pass. `n_total` is lowered to
    500 only to bound the runtime."""
    doc = _uncoupled(json.loads(Path(DEMO_CONFIGS, f"{name}.json").read_text()))
    if "n_total" in doc:
        doc["n_total"] = min(doc["n_total"], 500)
    path = tmp_path / "uncoupled.json"
    dump_json(doc, str(path))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    summary = _strict_json((out / "summary.json").read_text())
    assert summary["passed"] is False and summary["checks"][hypothesis] is False
    if name == "ergodic":  # the Neumann sum is not taken: an inf mismatch, written as null
        assert summary["payload"]["theta_mismatch"] is None


def test_internal_error_exits_4_without_traceback(tmp_path, capsys, monkeypatch):
    """An exception that is neither a config error nor a capacity guard is a defect
    of the program: exit 4 and one line, no traceback."""

    def broken(cfg, inputs, out):
        raise ValueError("a defect")

    schema, _ = ries.cli._EXPERIMENTS["classify"]
    monkeypatch.setitem(ries.cli._EXPERIMENTS, "classify", (schema, broken))
    path = os.path.join(DEMO_CONFIGS, "classify.json")
    assert main(["validate", path]) == 0
    capsys.readouterr()
    assert main(["run", path, "--out", str(tmp_path)]) == 4
    assert capsys.readouterr().err == "internal error: ValueError: a defect\n"
    assert not (tmp_path / "summary.json").exists()


def _matrix_names(doc: dict, where: str = "") -> list[str]:
    """The name each matrix of a config document is parsed under: its path."""
    names = []
    for key, value in doc.items():
        path = f"{where}.{key}" if where else key
        if key in ("h", "v", "matrix", "psi_s", "a_s", "rho_init"):
            names.append(path)
        elif key == "atoms":
            for i, atom in enumerate(value):
                names += _matrix_names(atom, f"{path}[{i}]")
        elif isinstance(value, dict):
            names += _matrix_names(value, path)
    return names


def test_every_matrix_is_parsed_once(tmp_path, monkeypatch):
    """`validate` and `run` each parse every matrix of a config exactly once: every
    demo config, and configs with each matrix field besides a model's h and v.
    The runs use n_total <= 200, which bounds their time and parses nothing."""
    parsed = []
    real = ries.serialize.matrix_from_json

    def counted(data, name="matrix"):
        parsed.append(name)
        return real(data, name)

    for mod in (ries.cli, ries.model, ries.ensemble):
        monkeypatch.setattr(mod, "matrix_from_json", counted)
    docs = [json.loads(p.read_text()) for p in sorted(Path(DEMO_CONFIGS).glob("*.json"))]
    docs += [doc for doc, _, _ in _matrix_docs().values()]
    for k, doc in enumerate(docs):
        doc = {**doc, "n_total": min(doc["n_total"], 200)} if "n_total" in doc else doc
        path = tmp_path / f"{k}.json"
        dump_json(doc, str(path))
        expected = sorted(_matrix_names(doc))
        assert expected, doc["experiment"]
        for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / str(k))]):
            parsed.clear()
            assert main(argv) in (0, 1)
            assert sorted(parsed) == expected, (argv[0], doc["experiment"])
