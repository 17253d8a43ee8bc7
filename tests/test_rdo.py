import json

import numpy as np
import pytest
from dense_reference import (
    gns_dual_norm,
    gns_norm,
    model_to_json,
    product_trace,
    random_complex_matrix,
    sampled_power_bound,
    spectral_norm,
)

import ries
from ries.cli import main
from ries.ensemble import EnsembleError, RrdoEnsemble
from ries.linalg import dag, random_hermitian
from ries.rdo import Rdo, RdoValidationError, decompose, ideal_asymptotics

E1 = np.array([1.0, 0.0])


def _diag_rdo(diag, psi_s=None):
    d = len(diag)
    psi = psi_s if psi_s is not None else np.eye(d)[0]
    return Rdo(m=np.diag(np.asarray(diag, dtype=complex)), psi_s=psi)


def test_gns_norm_of_psi_s(qubit_model):
    _, sqrt_rho, psi_s = ries.system_gns_data(qubit_model[0])
    assert np.isclose(gns_norm(psi_s, sqrt_rho), 1.0)
    assert np.isclose(gns_norm(2.0 * psi_s, sqrt_rho), 2.0)


def test_gns_norm_triangle_and_contraction(qubit_model, qubit_rdo, rng):
    _, sqrt_rho, _ = ries.system_gns_data(qubit_model[0])
    for _ in range(200):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert gns_norm(v + w, sqrt_rho) <= gns_norm(v, sqrt_rho) + gns_norm(w, sqrt_rho) + 1e-12
        assert gns_norm(qubit_rdo.m @ v, sqrt_rho) <= gns_norm(v, sqrt_rho) * (1 + 1e-10)


def test_validate_accepts_identity():
    rdo = ries.validate(np.eye(3), np.array([0.0, 1.0, 0.0]))
    assert np.array_equal(rdo.m, np.eye(3))


def test_validate_rejects_expanding():
    with pytest.raises(RdoValidationError):
        ries.validate(np.diag([1.0, 2.0]), E1)


def test_validate_rejects_broken_invariance():
    with pytest.raises(RdoValidationError):
        ries.validate(np.diag([0.5, 0.5]), E1)


def test_spectral_radius_containment(qubit_rdo):
    assert np.abs(np.linalg.eigvals(qubit_rdo.m)).max() <= 1 + 1e-9


def test_classify_examples():
    assert ries.classify(_diag_rdo([1.0, 0.5, 0.3])).in_class_e
    assert np.isclose(ries.classify(_diag_rdo([1.0, 0.5, 0.3])).gap, 0.5)
    rep = ries.classify(_diag_rdo([1.0, np.exp(0.7j)]))
    assert not rep.in_class_e
    rep2 = ries.classify(_diag_rdo([1.0, 1.0, 0.2]))
    assert rep2.one_multiplicity == 2 and not rep2.in_class_e


def test_v_zero_model_is_degenerate(qubit_model, uncoupled_probe):
    """Uncoupled encounters act unitarily: 1 is a degenerate eigenvalue."""
    rdo = ries.rdo_from_model(qubit_model[0], uncoupled_probe)
    rep = ries.classify(rdo)
    assert rep.one_multiplicity > 1
    assert not rep.in_class_e


def test_qubit_rdo_in_class(qubit_rdo):
    assert ries.classify(qubit_rdo).in_class_e


def test_decompose_rank_one():
    psi_s = np.array([1.0, 0.0])
    psi = np.array([1.0, 0.3])
    m = np.outer(psi_s, psi.conj())
    dec = decompose(Rdo(m=m, psi_s=psi_s))
    assert np.allclose(dec.p, m, atol=1e-12)
    assert np.allclose(dec.m_q, 0, atol=1e-12)


def test_decompose_diag():
    dec = decompose(_diag_rdo([1.0, 0.4]))
    assert np.allclose(dec.psi, E1, atol=1e-12)
    assert np.allclose(dec.m_q, np.diag([0.0, 0.4]), atol=1e-12)


def test_decompose_upper_triangular():
    c, a = 0.3 + 0.1j, 0.5 + 0.2j
    m = np.array([[1.0, c], [0.0, a]])
    dec = decompose(Rdo(m=m, psi_s=E1.astype(complex)))
    expected = np.array([1.0, np.conj(c) / (1.0 - np.conj(a))])
    assert np.allclose(dec.psi, expected, atol=1e-10)
    assert np.allclose(dag(m) @ dec.psi, dec.psi, atol=1e-10)


def test_decompose_algebra(qubit_rdo):
    dec = decompose(qubit_rdo)
    assert np.allclose(dec.p @ dec.p, dec.p, atol=1e-11)
    assert np.allclose(dec.m_q @ qubit_rdo.psi_s, 0, atol=1e-11)
    assert np.allclose(dec.p @ dec.m_q, 0, atol=1e-11)
    # M = P + M_Q since M* psi = psi here
    assert np.allclose(qubit_rdo.m, dec.p + dec.m_q, atol=1e-10)


def test_decompose_composition_relations(qubit_model, rng):
    """P_j P_k = P_k, Q_j Q_k = Q_j, Q_j P_k = 0 for shared psi_s."""
    system, probe = qubit_model
    probe2 = ries.ProbeSpec(
        dim_e=2, h_e=probe.h_e, beta_e=probe.beta_e, v=0.7 * probe.v, tau=probe.tau
    )
    d1 = decompose(ries.rdo_from_model(system, probe))
    d2 = decompose(ries.rdo_from_model(system, probe2))
    assert np.allclose(d1.p @ d2.p, d2.p, atol=1e-10)
    assert np.allclose(d1.q @ d2.q, d1.q, atol=1e-10)
    assert np.allclose(d1.q @ d2.p, 0, atol=1e-10)


def test_ideal_asymptotics_exact_diag():
    res = ideal_asymptotics(_diag_rdo([1.0, 0.5]), n_max=40)
    assert np.allclose(res.errors, 0.5 ** np.arange(1, 41), atol=1e-12)
    assert np.isclose(res.fitted_rate, np.log(0.5), atol=1e-6)


def test_ideal_asymptotics_one_step():
    psi_s = np.array([1.0, 0.0])
    m = np.outer(psi_s, np.array([1.0, 0.3]).conj())
    res = ideal_asymptotics(Rdo(m=m, psi_s=psi_s), n_max=10)
    assert res.errors.max() < 1e-13


def test_ideal_asymptotics_requires_class(tmp_path, qubit_model, uncoupled_probe):
    """Out of the class M^n need not converge to P_1: the asymptotics still run,
    and the ideal runner reports the hypothesis as a false `in_class` check, rc 1."""
    system = qubit_model[0]
    assert ideal_asymptotics(ries.rdo_from_model(system, uncoupled_probe)).errors[-1] > 1e-8
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps({"experiment": "ideal", "model": model_to_json(system, uncoupled_probe)}))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 1
    assert json.loads((tmp_path / "summary.json").read_text())["checks"]["in_class"] is False


def test_ideal_asymptotics_errors_equal_one_norm_per_power(qubit_rdo, rng):
    """The batched SVD gives each error bitwise as one spectral norm per power would,
    on the qubit RDO (D = 4) and a qutrit one (D = 9)."""
    system = ries.SystemSpec(dim_s=3, h_s=random_hermitian(3, rng), beta_s=0.6)
    probe = ries.ProbeSpec(dim_e=2, h_e=random_hermitian(2, rng), beta_e=0.9, v=random_hermitian(6, rng), tau=0.7)
    for rdo in (qubit_rdo, ries.rdo_from_model(system, probe)):
        p, power, want = decompose(rdo).p, np.eye(rdo.dim), []
        for _ in range(60):
            power = power @ rdo.m
            want.append(spectral_norm(power - p))
        assert np.array_equal(ideal_asymptotics(rdo, n_max=60).errors, want)


def test_ideal_asymptotics_qubit_rate(qubit_rdo):
    res = ideal_asymptotics(qubit_rdo, n_max=200)
    ref = np.log(res.spr_mq)
    assert abs(res.fitted_rate - ref) <= 0.1 * abs(ref)


def test_product_diagnostics_constant_rank_one():
    """The reference product loop: theta_n = psi for a constant rank-one factor."""
    psi_s = np.array([1.0, 0.0])
    psi = np.array([1.0, 0.3])
    rdo = Rdo(m=np.outer(psi_s, psi.conj()), psi_s=psi_s)
    trace = product_trace([rdo] * 8)
    assert np.allclose(trace.theta, np.tile(psi, (8, 1)), atol=1e-12)


def test_product_diagnostics_mixed_models(qubit_model, uncoupled_probe):
    """Theta recursions, reconstruction and the dual GNS bound on a random model product."""
    system, probe = qubit_model
    r1 = ries.rdo_from_model(system, probe)
    r0 = ries.rdo_from_model(system, uncoupled_probe)
    _, sqrt_rho, _ = ries.system_gns_data(system)
    rng = np.random.default_rng(3)
    rdos = [(r1 if b else r0) for b in rng.integers(0, 2, size=100)]
    trace = product_trace(rdos)
    assert trace.recon_residuals.max() < 1e-10
    assert trace.theta_mismatch.max() < 1e-10
    assert np.abs(trace.overlaps - 1.0).max() < 1e-9
    assert max(gns_dual_norm(theta, sqrt_rho) for theta in trace.theta) <= 1.0 + 1e-9


def test_ensemble_rejects_mismatched_psi():
    a = ries.validate(np.eye(2), np.array([1.0, 0.0]))
    b = ries.validate(np.eye(2), np.array([0.0, 1.0]))
    with pytest.raises(EnsembleError):
        RrdoEnsemble([0.5, 0.5], [a, b])


def test_power_bound_certificate(rng):
    """Sampled word norms of diagonal contractions stay at 1; an expanding
    candidate is rejected by validate."""
    mats = [np.diag([1.0, 0.5]), np.diag([1.0, 0.9])]
    assert sampled_power_bound(mats, rng) == 1.0
    bad = random_complex_matrix(3, rng, scale=2.0)
    with pytest.raises(RdoValidationError):
        ries.validate(bad, np.array([1.0, 0, 0]))
