"""Acceptance criteria, one test per criterion, at the stated tolerances.

Criteria 4-7 are wrapped in summary-producing helpers so that criterion 9
(byte-identical reproducibility) can re-run them and compare raw JSON.
"""

import time

import numpy as np
import pytest
from dense_reference import dumps_json, gns_dual_norm, gns_norm, product_trace, sampled_power_bound

import ries
from ries.ensemble import RrdoEnsemble, theta_routes
from ries.linalg import random_hermitian, vec
from ries.rdo import decompose
from ries.thermo import flux_closed_form, flux_monte_carlo
from ries.model import reduce_instant


def _random_model(rng):
    return ries.qubit_exchange_model(
        e_s=rng.uniform(0.5, 1.5),
        e_e=rng.uniform(0.5, 1.5),
        coupling=rng.uniform(0.1, 0.8),
        tau=rng.uniform(0.3, 2.0),
        beta_s=rng.uniform(0.2, 2.0),
        beta_e=rng.uniform(0.2, 2.0),
    )


# ---------------------------------------------------------------- criterion 1
def test_criterion_1_oracle_equivalence():
    """50 random qubit-qubit models, m = 1..6, 10 observables each, 1e-10."""
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        system, probe = _random_model(rng)
        rdo = ries.rdo_from_model(system, probe)
        _, sqrt_rho, psi_s = ries.system_gns_data(system)
        rho_s = sqrt_rho @ sqrt_rho
        observables = [random_hermitian(2, rng) for _ in range(10)]
        basis_ops = np.kron(np.eye(4, dtype=complex).reshape(4, 2, 2), np.eye(2))
        # the oracle is linear in A_S: evaluate it on the matrix basis E_kl x 1, all
        # four at every m = 1..6 on one chain evolution
        basis_by_m = ries.full_chain_expectation(
            system, [probe] * 6, basis_ops, range(1, 7), 0, 0, rho_s
        ).reshape(6, 2, 2)
        power = np.eye(4, dtype=complex)
        for basis_vals in basis_by_m:
            power = power @ rdo.m
            for a_s in observables:
                lhs = np.vdot(psi_s, power @ vec(a_s @ sqrt_rho))
                rhs = np.sum(a_s * basis_vals)
                worst = np.maximum(worst, abs(lhs - rhs))  # a NaN residual propagates
    elapsed = time.monotonic() - t0
    print(f"\ncriterion 1: max residual {worst:.3e} in {elapsed:.1f} s")
    assert worst <= 1e-10
    assert elapsed < 10.0


# ---------------------------------------------------------------- criterion 2
def test_criterion_2_instant_observable_oracle():
    """l = r = 1 windows, m = 3..5, residual <= 1e-10."""
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(10):
        system, probe = _random_model(rng)
        rdo = ries.rdo_from_model(system, probe)
        _, sqrt_rho, psi_s = ries.system_gns_data(system)
        rho_s = system.gibbs_state()
        obs = ries.ObservableWindow(
            a_s=random_hermitian(2, rng),
            b_list=tuple(random_hermitian(2, rng) for _ in range(3)),
            l=1,
            r=1,
        )
        n_mat = reduce_instant(system, [probe] * 3, obs)
        for m in (3, 4, 5):
            word = np.linalg.matrix_power(rdo.m, m - 2)  # m - l - 1 factors
            lhs = np.vdot(psi_s, word @ vec(n_mat @ sqrt_rho))
            rhs = ries.full_chain_oracle(system, [probe] * (m + 1), obs, m, rho_s)
            worst = np.maximum(worst, abs(lhs - rhs))  # a NaN residual propagates
    elapsed = time.monotonic() - t0
    print(f"\ncriterion 2: max residual {worst:.3e} in {elapsed:.1f} s")
    assert worst <= 1e-10
    assert elapsed < 10.0


# ---------------------------------------------------------------- criterion 3
def test_criterion_3_ideal_convergence():
    """10 in-class RDOs: fitted rate within 10%, error at n=200 below 1e-8 C0 (C0 = 1)."""
    t0 = time.monotonic()
    rng = np.random.default_rng(303)
    found = 0
    while found < 10:
        system, probe = _random_model(rng)
        rdo = ries.rdo_from_model(system, probe)
        if not ries.classify(rdo).in_class_e:
            continue
        # the 1e-8 target at n = 200 presumes spr(M_Q)^200 <= 1e-8
        if decompose(rdo).spr_mq > 0.9:
            continue
        res = ries.ideal_asymptotics(rdo, n_max=200)
        ref = np.log(res.spr_mq)
        assert abs(res.fitted_rate - ref) <= 0.1 * abs(ref)
        assert res.errors[-1] <= 1e-8
        found += 1
    elapsed = time.monotonic() - t0
    print(f"\ncriterion 3: 10 models OK in {elapsed:.1f} s")
    assert elapsed < 5.0


# ------------------------------------------------------- criteria 4-7 helpers
@pytest.fixture(scope="module")
def reference(qubit_model, uncoupled_probe):
    system, probe = qubit_model
    return RrdoEnsemble.from_models(system, [(0.5, uncoupled_probe), (0.5, probe)])


def _criterion_4_summary(ens):
    routes = theta_routes(ens)
    rep = ries.simulate_forward(ens, range(20), 100_000, checkpoint_every=1000)
    idx4 = int(np.nonzero(rep.checkpoints == 10_000)[0][0])
    per_seed = [
        {"seed": seed, "d_1e4": float(dist[idx4]), "d_1e5": float(dist[-1])}
        for seed, dist in enumerate(rep.distances)
    ]
    return {
        "per_seed": per_seed,
        "theta_mismatch": float(routes["mismatch"]),
        "bound_1e4": 5.0 / np.sqrt(10_000),
        "bound_1e5": 5.0 / np.sqrt(100_000),
    }


def _criterion_5_summary(ens):
    est = ries.decay_estimator(ens, range(100), 2000)
    per_seed = [
        {"seed": seed, "alpha": float(alpha), "n0": int(n0)}
        for seed, (alpha, n0) in enumerate(zip(est.alpha, est.n0))
    ]
    alphas = [p["alpha"] for p in per_seed]
    n0s = [p["n0"] for p in per_seed]
    return {
        "per_seed": per_seed,
        "alpha_min": float(min(alphas)),
        "alpha_median": float(np.median(alphas)),
        "n0_quantiles": [float(q) for q in np.quantile(n0s, [0.5, 0.9, 1.0])],
        "mean_in_class": bool(ries.classify(ries.mean_rdo(ens)).in_class_e),
    }


def _criterion_6_summary(ens, alpha_ref):
    rep = ries.simulate_reverse(ens, range(10), 800, checkpoint_every=10)
    rates = []
    for ratios in rep.sigma_ratios:
        pos = ratios > 1e-300
        rates.append(float(np.polyfit(rep.checkpoints[pos], np.log(ratios[pos]), 1)[0]))
    ly = ries.lyapunov(ens, range(5), 30_000)
    return {
        "sigma_ratio_rates": rates,
        "sigma_ratio_rate_mean": float(np.mean(rates)),
        "alpha_ref": float(alpha_ref),
        "gamma_1": ly.gamma_1.tolist(),
        "gamma_2": ly.gamma_2.tolist(),
    }


def _criterion_7_summary():
    rng = np.random.default_rng(707)
    models = []
    while len(models) < 20:
        system, probe = _random_model(rng)
        ens = RrdoEnsemble.from_models(system, [(1.0, probe)])
        if not ens.mean_report.in_class_e:
            continue
        closed = flux_closed_form(ens)
        mc = flux_monte_carlo(ens, seeds=list(range(len(models), len(models) + 4)), n_total=10_000)
        models.append(
            {
                "de_plus": closed.de_plus,
                "ds_plus": closed.ds_plus,
                "residual": closed.residual,
                "mc_de": mc.de_plus,
                "mc_de_stderr": mc.de_stderr,
                "mc_ds": mc.ds_plus,
                "mc_ds_stderr": mc.ds_stderr,
            }
        )
    return {"models": models}


# ---------------------------------------------------------------- criterion 4
@pytest.fixture(scope="module")
def summary_4(reference):
    t0 = time.monotonic()
    out = _criterion_4_summary(reference)
    out_time = time.monotonic() - t0
    return out, out_time


def test_criterion_4_ergodic_theorem(summary_4):
    summary, elapsed = summary_4
    for row in summary["per_seed"]:
        assert row["d_1e4"] <= summary["bound_1e4"]
        assert row["d_1e5"] <= summary["bound_1e5"]
    assert summary["theta_mismatch"] <= 1e-10
    print(f"\ncriterion 4: 20 seeds within 5/sqrt(N) in {elapsed:.1f} s")
    assert elapsed < 60.0


# ---------------------------------------------------------------- criterion 5
@pytest.fixture(scope="module")
def summary_5(reference):
    t0 = time.monotonic()
    out = _criterion_5_summary(reference)
    return out, time.monotonic() - t0


def test_criterion_5_decay_theorem(summary_5):
    summary, elapsed = summary_5
    assert summary["alpha_min"] > 0
    assert summary["mean_in_class"]
    assert len(summary["per_seed"]) == 100
    print(
        f"\ncriterion 5: alpha in [{summary['alpha_min']:.4f}, "
        f"median {summary['alpha_median']:.4f}], n0 quantiles "
        f"{summary['n0_quantiles']} in {elapsed:.1f} s"
    )
    assert elapsed < 60.0


# ---------------------------------------------------------------- criterion 6
@pytest.fixture(scope="module")
def summary_6(reference, summary_5):
    t0 = time.monotonic()
    out = _criterion_6_summary(reference, summary_5[0]["alpha_median"])
    return out, time.monotonic() - t0


def test_criterion_6_reverse_and_lyapunov(summary_6):
    summary, elapsed = summary_6
    alpha = summary["alpha_ref"]
    rate = -summary["sigma_ratio_rate_mean"]
    assert abs(rate - alpha) <= 0.2 * alpha
    for g1 in summary["gamma_1"]:
        assert abs(g1) <= 2e-3
    for g2 in summary["gamma_2"]:
        assert g2 <= -alpha + 2e-3
        assert g2 < 0  # spectral gap: multiplicity one
    print(
        f"\ncriterion 6: sigma-ratio rate {rate:.4f} vs alpha {alpha:.4f}, "
        f"gamma1 max {max(abs(g) for g in summary['gamma_1']):.2e} in {elapsed:.1f} s"
    )
    assert elapsed < 60.0


# ---------------------------------------------------------------- criterion 7
@pytest.fixture(scope="module")
def summary_7():
    t0 = time.monotonic()
    out = _criterion_7_summary()
    return out, time.monotonic() - t0


def test_criterion_7_second_law(summary_7, qubit_model, uncoupled_probe):
    summary, elapsed = summary_7
    for row in summary["models"]:
        assert abs(row["residual"]) <= 1e-8
        assert abs(row["mc_de"] - row["de_plus"]) <= 3 * max(row["mc_de_stderr"], 1e-12)
        assert abs(row["mc_ds"] - row["ds_plus"]) <= 3 * max(row["mc_ds_stderr"], 1e-12)
    # v = 0: both productions vanish identically
    system, _ = qubit_model
    ens0 = RrdoEnsemble.from_models(system, [(1.0, uncoupled_probe)])
    assert np.abs(ens0.energy_tables[1]).max() <= 1e-12
    mc0 = flux_monte_carlo(ens0, list(range(0, 2)), 1000)
    assert abs(mc0.de_plus) <= 1e-12 and abs(mc0.ds_plus) <= 1e-12
    print(f"\ncriterion 7: 20 models, |dS - beta dE| <= 1e-8 in {elapsed:.1f} s")
    assert elapsed < 120.0


# ---------------------------------------------------------------- criterion 8
def test_criterion_8_uniform_bounds(reference, qubit_model, uncoupled_probe):
    """||Psi_n|| <= C0, ||theta_n|| <= C0^2, ||M_Q word|| <= C0(1+C0), both norms."""
    system, probe = qubit_model
    r1 = ries.rdo_from_model(system, probe)
    r0 = ries.rdo_from_model(system, uncoupled_probe)
    _, sqrt_rho, _ = ries.system_gns_data(system)
    rng = np.random.default_rng(808)
    c0 = sampled_power_bound([r.m for r in (r0, r1)], rng, n_words=200, max_len=300)
    slack = 1e-9
    for seed in range(5):
        # the Philox stream these words have always been drawn from
        word_rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(809, spawn_key=(seed,)))
        )
        rdos = [(r1 if b else r0) for b in word_rng.integers(0, 2, size=300)]
        trace = product_trace(rdos)
        # the two theta formulas and the rank-one-plus-contraction reconstruction
        assert trace.theta_mismatch.max() <= slack
        assert trace.recon_residuals.max() <= slack
        # exact GNS route: C0 = 1 for model-built RDOs
        assert max(gns_dual_norm(theta, sqrt_rho) for theta in trace.theta) <= 1.0 + slack
        psi_prod, mq_prod = trace.psi_prod, trace.mq_prod
        for _ in range(50):
            v = word_rng.standard_normal(4) + 1j * word_rng.standard_normal(4)
            nv = gns_norm(v, sqrt_rho)
            assert gns_norm(psi_prod @ v, sqrt_rho) <= 1.0 * nv * (1 + 1e-10)
            assert gns_norm(mq_prod @ v, sqrt_rho) <= 2.0 * nv * (1 + 1e-10)
        # spectral-norm route with the sampled power-bound constant
        assert trace.psi_prod_norms.max() <= c0 + slack
        assert trace.theta_norms.max() <= c0**2 + slack
        assert trace.mq_norms.max() <= c0 * (1 + c0) + slack
    print(f"\ncriterion 8: no bound violations; spectral C0 = {c0:.3f}")


# ---------------------------------------------------------------- criterion 9
def test_criterion_9_reproducibility(reference, summary_4, summary_5, summary_6, summary_7):
    """Re-running criteria 4-7 with identical seeds gives byte-identical JSON."""
    t0 = time.monotonic()
    again = {
        "4": _criterion_4_summary(reference),
        "5": _criterion_5_summary(reference),
        "7": _criterion_7_summary(),
    }
    again["6"] = _criterion_6_summary(reference, again["5"]["alpha_median"])
    firsts = {
        "4": summary_4[0],
        "5": summary_5[0],
        "6": summary_6[0],
        "7": summary_7[0],
    }
    for key in ("4", "5", "6", "7"):
        assert dumps_json(again[key]) == dumps_json(firsts[key]), f"criterion {key} drifted"
    print(f"\ncriterion 9: byte-identical re-runs in {time.monotonic() - t0:.1f} s")
