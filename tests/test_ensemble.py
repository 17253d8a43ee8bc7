import numpy as np
import pytest

import ries
from ries.ensemble import (
    EnsembleError,
    RrdoEnsemble,
    ensemble_from_json,
    mean_rdo,
    theta_closed_form,
    theta_routes,
    trajectory_rng,
)
from ries.linalg import KahanAccumulator, random_hermitian, spectral_norm
from ries.model import model_to_json
from ries.rdo import decompose


def _diag_ensemble(pairs, psi_s=None):
    psi = psi_s if psi_s is not None else np.array([1.0, 0.0])
    return RrdoEnsemble.from_matrices(
        psi, [(p, np.diag(np.asarray(d, dtype=complex))) for p, d in pairs]
    )


def test_trajectory_rng_independent_and_stable():
    a = trajectory_rng(42).integers(0, 1000, size=5)
    b = trajectory_rng(42).integers(0, 1000, size=5)
    c = trajectory_rng(43).integers(0, 1000, size=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_ensemble_validation():
    with pytest.raises(EnsembleError):
        _diag_ensemble([(0.6, [1, 0.5]), (0.6, [1, 0.4])])
    with pytest.raises(EnsembleError):
        RrdoEnsemble([])


def test_mean_rdo_diagonal():
    ens = _diag_ensemble([(0.3, [1, 0.5]), (0.7, [1, 0.2])])
    mean = mean_rdo(ens)
    assert np.allclose(mean.m, np.diag([1.0, 0.3 * 0.5 + 0.7 * 0.2]), atol=1e-14)


def test_mean_rdo_deterministic_identity_case(qubit_rdo, qubit_model):
    system, probe = qubit_model
    ens = RrdoEnsemble.from_models(system, [(1.0, probe)])
    assert np.allclose(mean_rdo(ens).m, qubit_rdo.m, atol=1e-14)


def test_mean_rdo_class_theorem(reference_ensemble):
    """Mixture of degenerate (v=0) and gapped atom stays in the class."""
    assert reference_ensemble.in_class == [False, True]
    rep = ries.classify(mean_rdo(reference_ensemble))
    assert rep.in_class_e


def test_sampling_frequencies(reference_ensemble):
    idx = reference_ensemble.sample_paths([5], 100_000)[0]
    p_hat = np.mean(idx == 0)
    assert abs(p_hat - 0.5) <= 4 * np.sqrt(0.25 / 100_000)


def test_theta_deterministic_equals_psi(qubit_model, qubit_rdo):
    system, probe = qubit_model
    ens = RrdoEnsemble.from_models(system, [(1.0, probe)])
    theta = theta_closed_form(ens)
    assert np.allclose(theta, decompose(qubit_rdo).psi, atol=1e-10)


def test_theta_diagonal_ensemble():
    ens = _diag_ensemble([(0.5, [1, 0.5]), (0.5, [1, 0.2])])
    assert np.allclose(theta_closed_form(ens), [1.0, 0.0], atol=1e-12)


def test_theta_routes_agree(reference_ensemble):
    routes = theta_routes(reference_ensemble)
    assert routes["mismatch"] <= 1e-10
    assert routes["spr_mean_mq"] < 1.0
    assert routes["neumann_tail_bound"] < 1e-12


def test_theta_routes_diverge_for_unitary_ensemble():
    m = np.diag([1.0, np.exp(0.3j)])
    ens = RrdoEnsemble.from_matrices(np.array([1.0, 0.0]), [(1.0, m)])
    with pytest.raises(EnsembleError):
        theta_closed_form(ens)


def test_simulate_forward_deterministic(qubit_model):
    system, probe = qubit_model
    ens = RrdoEnsemble.from_models(system, [(1.0, probe)])
    rep = ries.simulate_forward(ens, 0, 2000, checkpoint_every=500)
    # Cesaro of an exponentially converging sequence: D(N) = O(1/N)
    assert rep.distances[0, -1] < 50.0 / 2000
    assert rep.max_invariance_drift[0] < 1e-10


def test_simulate_forward_reference(reference_ensemble):
    rep = ries.simulate_forward(reference_ensemble, 1, 10_000)
    assert rep.distances[0, -1] <= 5.0 / np.sqrt(10_000)
    assert rep.max_invariance_drift[0] < 1e-8


def test_simulate_theta_consistency(reference_ensemble):
    theta = theta_closed_form(reference_ensemble)
    out = ries.simulate_theta(reference_ensemble, range(10), 20_000)
    assert out["max_overlap_error"].max() < 1e-8
    means = out["cesaro_theta"]
    agg = np.mean(means, axis=0)
    spread = np.std([np.linalg.norm(m - theta) for m in means])
    assert np.linalg.norm(agg - theta) <= 3 * max(spread / np.sqrt(10), 1e-12)


def test_decay_deterministic_rate(qubit_model, qubit_rdo):
    system, probe = qubit_model
    ens = RrdoEnsemble.from_models(system, [(1.0, probe)])
    est = ries.decay_estimator(ens, 0, 800)
    spr = decompose(qubit_rdo).spr_mq
    assert abs(est.alpha[0] - (-np.log(spr))) <= 0.1 * abs(np.log(spr))


def test_decay_needs_in_class_atom(qubit_model, uncoupled_probe):
    system, _ = qubit_model
    ens = RrdoEnsemble.from_models(system, [(1.0, uncoupled_probe)])
    with pytest.raises(EnsembleError):
        ries.decay_estimator(ens, 0, 100)


def test_reverse_deterministic_neumann(qubit_model, qubit_rdo):
    system, probe = qubit_model
    ens = RrdoEnsemble.from_models(system, [(1.0, probe)])
    rep = ries.simulate_reverse(ens, 0, 600)
    dec = decompose(qubit_rdo)
    eta_closed = np.linalg.solve(np.eye(4) - dec.m_q.conj().T, dec.psi)
    assert np.linalg.norm(rep.eta[0] - eta_closed) < 1e-9
    assert rep.residuals[0, -1] < 1e-9


def test_reverse_mean_eta_equals_theta(reference_ensemble):
    theta = theta_closed_form(reference_ensemble)
    etas = ries.simulate_reverse(reference_ensemble, range(30), 400).eta
    mean_eta = np.mean(etas, axis=0)
    spread = np.std([np.linalg.norm(e - theta) for e in etas]) / np.sqrt(30)
    assert np.linalg.norm(mean_eta - theta) <= 4 * max(spread, 1e-12)


def test_lyapunov_diag():
    ens = _diag_ensemble([(1.0, [1, 0.5])])
    est = ries.lyapunov(ens, 0, 4000)
    assert abs(est.gamma_1[0]) < 1e-10
    assert np.isclose(est.gamma_2[0], np.log(0.5), atol=1e-10)


def test_lyapunov_unitary():
    m = np.diag([1.0, np.exp(0.4j)])
    ens = RrdoEnsemble.from_matrices(np.array([1.0, 0.0]), [(1.0, m)])
    est = ries.lyapunov(ens, 0, 2000)
    assert abs(est.gamma_1[0]) < 1e-10 and abs(est.gamma_2[0]) < 1e-10


def test_lyapunov_reference(reference_ensemble):
    est = ries.lyapunov(reference_ensemble, 0, 20_000)
    assert abs(est.gamma_1[0]) <= 2e-3
    assert est.gamma_2[0] < -0.01
    assert est.gap[0] > 0


def test_presampled_ensemble(qubit_model):
    system, probe = qubit_model
    ens = RrdoEnsemble.presampled(
        system, probe, {"tau": {"low": 0.5, "high": 1.5}}, count=8, seed=3
    )
    assert ens.n_atoms == 8
    assert np.isclose(ens.probs.sum(), 1.0)
    taus = {a.probe.tau for a in ens.atoms}
    assert len(taus) == 8
    # reproducible
    ens2 = RrdoEnsemble.presampled(
        system, probe, {"tau": {"low": 0.5, "high": 1.5}}, count=8, seed=3
    )
    assert {a.probe.tau for a in ens2.atoms} == taus


def test_ensemble_from_json(qubit_model, uncoupled_probe):
    system, probe = qubit_model
    doc = {
        "atoms": [
            {"p": 0.5, "model": model_to_json(system, uncoupled_probe)},
            {"p": 0.5, "model": model_to_json(system, probe)},
        ]
    }
    ens = ensemble_from_json(doc)
    assert ens.n_atoms == 2 and ens.has_models
    with pytest.raises(EnsembleError):
        ensemble_from_json({"atoms": [{"p": 1.0, "matrix": [[[1.0, 0.0]]]}]})


# ------------------------------------------------- per-seed reference loops
# The step-by-step, one-seed-at-a-time kernels that the seed-batched engine
# replaced, kept as references: every batched output must be bitwise theirs.


def _forward_loop(ens, seed, n_total, checkpoint_every):
    omega = trajectory_rng(seed).choice(ens.n_atoms, size=n_total, p=ens.probs)
    theta = theta_closed_form(ens)
    limit = np.outer(ens.psi_s, theta.conj())
    psi_prod = np.eye(ens.dim, dtype=complex)
    acc = KahanAccumulator((ens.dim, ens.dim))
    checkpoints, distances = [], []
    drift = 0.0
    for n in range(1, n_total + 1):
        psi_prod = psi_prod @ ens.matrices[omega[n - 1]]
        acc.add(psi_prod)
        if n % checkpoint_every == 0 or n == n_total:
            checkpoints.append(n)
            distances.append(np.linalg.norm(acc.mean - limit, "fro"))
            drift = max(drift, float(np.linalg.norm(psi_prod @ ens.psi_s - ens.psi_s)))
    return np.array(checkpoints), np.array(distances), drift


def _theta_loop(ens, seed, n_total):
    omega = trajectory_rng(seed).choice(ens.n_atoms, size=n_total, p=ens.probs)
    th = ens.psi_omega[omega[0]].copy()
    acc = KahanAccumulator(ens.dim)
    acc.add(th)
    max_overlap_err = abs(np.vdot(ens.psi_s, th) - 1.0)
    for n in range(1, n_total):
        th = ens.adjoints[omega[n]] @ th
        acc.add(th)
        if n % 1000 == 0:
            max_overlap_err = max(max_overlap_err, abs(np.vdot(ens.psi_s, th) - 1.0))
    max_overlap_err = max(max_overlap_err, abs(np.vdot(ens.psi_s, th) - 1.0))
    return acc.mean, th, float(max_overlap_err)


def _decay_loop(ens, seed, n_total):
    """The log-norm series only; the envelope fit is shared per-seed code."""
    omega = trajectory_rng(seed).choice(ens.n_atoms, size=n_total, p=ens.probs)
    word = np.eye(ens.dim, dtype=complex)
    log_norms = np.empty(n_total)
    log_scale = 0.0
    for n in range(n_total):
        word = word @ ens.mq[omega[n]]
        s = spectral_norm(word)
        if s == 0.0:
            log_norms[n:] = -np.inf
            break
        log_scale += np.log(s)
        log_norms[n] = log_scale
        word = word / s
    return log_norms


def _reverse_loop(ens, seed, n_total, checkpoint_every):
    omega = trajectory_rng(seed).choice(ens.n_atoms, size=n_total, p=ens.probs)
    d = ens.dim
    phi = np.eye(d, dtype=complex)
    lead = np.eye(d, dtype=complex)
    eta = np.zeros(d, dtype=complex)
    checkpoints, residuals, ratios = [], [], []
    for n in range(1, n_total + 1):
        k = omega[n - 1]
        phi = ens.matrices[k] @ phi
        eta = eta + lead @ ens.psi_omega[k]
        lead = lead @ ens.mq_adjoints[k]
        if n % checkpoint_every == 0 or n == n_total:
            checkpoints.append(n)
            residuals.append(spectral_norm(phi - np.outer(ens.psi_s, eta.conj())))
            sv = np.linalg.svd(phi, compute_uv=False)
            ratios.append(sv[1] / sv[0] if sv[0] > 0 else 0.0)
    return np.array(checkpoints), np.array(residuals), np.array(ratios), eta


def _lyapunov_loop(ens, seed, n_total, reorth_every):
    omega = trajectory_rng(seed).choice(ens.n_atoms, size=n_total, p=ens.probs)
    d = ens.dim
    frame = np.eye(d, dtype=complex)
    log_r = np.zeros(d)
    steps = 0
    for n in range(1, n_total + 1):
        frame = ens.matrices[omega[n - 1]].T @ frame
        if n % reorth_every == 0 or n == n_total:
            q, r = np.linalg.qr(frame)
            diag = np.abs(np.diag(r))
            diag[diag == 0] = np.finfo(float).tiny
            log_r += np.log(diag)
            frame = q
            steps = n
    exponents = np.sort(log_r / steps)[::-1]
    return float(exponents[0]), float(exponents[1]), float(exponents[0] - exponents[1])


def _assert_kernels_match_loops(ens, seeds, n_total, every):
    """All five batched kernels against the per-seed loops, bitwise."""
    fwd = ries.simulate_forward(ens, seeds, n_total, checkpoint_every=every)
    theta = ries.simulate_theta(ens, seeds, n_total)
    dec = ries.decay_estimator(ens, seeds, n_total)
    rev = ries.simulate_reverse(ens, seeds, n_total, checkpoint_every=every)
    lya = ries.lyapunov(ens, seeds, n_total, reorth_every=every)
    for s, seed in enumerate(seeds):
        checkpoints, distances, drift = _forward_loop(ens, seed, n_total, every)
        assert np.array_equal(fwd.checkpoints, checkpoints)
        assert np.array_equal(fwd.distances[s], distances)
        assert fwd.max_invariance_drift[s] == drift
        cesaro, final, overlap = _theta_loop(ens, seed, n_total)
        assert np.array_equal(theta["cesaro_theta"][s], cesaro)
        assert np.array_equal(theta["final_theta"][s], final)
        assert theta["max_overlap_error"][s] == overlap
        assert np.array_equal(dec.log_norms[s], _decay_loop(ens, seed, n_total))
        checkpoints, residuals, ratios, eta = _reverse_loop(ens, seed, n_total, every)
        assert np.array_equal(rev.checkpoints, checkpoints)
        assert np.array_equal(rev.residuals[s], residuals)
        assert np.array_equal(rev.sigma_ratios[s], ratios)
        assert np.array_equal(rev.eta[s], eta)
        gamma_1, gamma_2, gap = _lyapunov_loop(ens, seed, n_total, every)
        assert (lya.gamma_1[s], lya.gamma_2[s], lya.gap[s]) == (gamma_1, gamma_2, gap)
    return fwd, theta, dec, rev, lya


def _wide_ensemble():
    """Qutrit system, qubit probe, 6 presampled atoms: GNS dim 9."""
    rng = np.random.default_rng(909)
    system = ries.SystemSpec(dim_s=3, h_s=np.diag([0.0, 1.0, 2.3]), beta_s=0.7)
    probe = ries.ProbeSpec(
        dim_e=2, h_e=np.diag([0.0, 1.1]), beta_e=1.3, v=random_hermitian(6, rng, 0.4), tau=1.0
    )
    ranges = {"tau": {"low": 0.6, "high": 1.6}, "coupling": {"low": 0.5, "high": 1.5}}
    return RrdoEnsemble.presampled(system, probe, ranges, count=6, seed=4)


@pytest.mark.parametrize("case", ["qubit", "qutrit"])
def test_batched_kernels_match_per_seed_loops(case, reference_ensemble):
    """Seed-batched kernels are bitwise the per-seed loops (GNS dim 4 and 9).

    2600 steps take the theta check past two 1000-step marks; a checkpoint
    interval of 7 leaves a partial last block. Two-step runs make the
    checks at theta_0 and at the first checkpoint count.
    """
    ens = reference_ensemble if case == "qubit" else _wide_ensemble()
    assert ens.dim == (4 if case == "qubit" else 9)
    _assert_kernels_match_loops(ens, [5, 0, 12, 5], 2600, 7)
    _assert_kernels_match_loops(ens, list(range(8)), 2, 1)


def test_batched_kernels_independent_of_batch(reference_ensemble):
    """The first k seeds of a longer seed list give the same results."""
    ens, n_total = reference_ensemble, 900
    short, long = [3, 1], [3, 1, 4, 1, 5]
    fwd = [ries.simulate_forward(ens, seeds, n_total, 50) for seeds in (short, long)]
    assert np.array_equal(fwd[0].distances, fwd[1].distances[:2])
    assert np.array_equal(fwd[0].max_invariance_drift, fwd[1].max_invariance_drift[:2])
    theta = [ries.simulate_theta(ens, seeds, n_total) for seeds in (short, long)]
    for key in ("cesaro_theta", "final_theta", "max_overlap_error"):
        assert np.array_equal(theta[0][key], theta[1][key][:2])
    dec = [ries.decay_estimator(ens, seeds, n_total) for seeds in (short, long)]
    assert np.array_equal(dec[0].log_norms, dec[1].log_norms[:2])
    assert dec[0].to_json() == dec[1].to_json()[:2]
    rev = [ries.simulate_reverse(ens, seeds, n_total) for seeds in (short, long)]
    for key in ("residuals", "sigma_ratios", "eta"):
        assert np.array_equal(getattr(rev[0], key), getattr(rev[1], key)[:2])
    lya = [ries.lyapunov(ens, seeds, n_total) for seeds in (short, long)]
    assert lya[0].to_json() == lya[1].to_json()[:2]


def test_decay_word_hits_zero_in_one_seed_only():
    """Nilpotent M_Q: a word with two 'a' draws is exactly zero, others go on."""
    psi_s = np.array([1.0, 0.0, 0.0])
    m_a = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    m_b = np.diag([1.0, 0.5, 0.5])
    ens = RrdoEnsemble.from_matrices(psi_s, [(0.1, m_a), (0.9, m_b)])
    seeds, n_total = list(range(8)), 25
    dec = ries.decay_estimator(ens, seeds, n_total)
    dead = np.isneginf(dec.log_norms[:, -1])
    assert dead.any() and not dead.all()
    for s, seed in enumerate(seeds):
        assert np.array_equal(dec.log_norms[s], _decay_loop(ens, seed, n_total))
    assert np.isfinite(dec.alpha[~dead]).all()


def test_lyapunov_zero_qr_diagonal():
    """A rank-one factor zeroes a QR diagonal in some seeds' frames only."""
    ens = _diag_ensemble([(0.9, [1, 0.5]), (0.1, [1, 0])])
    seeds, n_total = list(range(8)), 20
    lya = ries.lyapunov(ens, seeds, n_total, reorth_every=5)
    collapsed = lya.gamma_2 < -10
    assert collapsed.any() and not collapsed.all()
    assert np.allclose(lya.gamma_2[~collapsed], np.log(0.5), atol=1e-12)
    for s, seed in enumerate(seeds):
        assert (lya.gamma_1[s], lya.gamma_2[s], lya.gap[s]) == _lyapunov_loop(ens, seed, n_total, 5)


def test_reverse_zero_leading_singular_value():
    """A zero product in one seed gives sigma ratio 0 there and leaves the others be.

    A valid RDO fixes psi_s, so Phi_n never vanishes; the zero factor is
    planted in the ensemble's matrix table by hand.
    """
    ens = _diag_ensemble([(0.95, [1, 0.5]), (0.05, [1, 0.3])])
    ens.matrices[1] = 0.0
    seeds, n_total = list(range(6)), 12
    rev = ries.simulate_reverse(ens, seeds, n_total, checkpoint_every=3)
    zero = rev.sigma_ratios[:, -1] == 0
    assert zero.any() and not zero.all()
    for s, seed in enumerate(seeds):
        _, residuals, ratios, eta = _reverse_loop(ens, seed, n_total, 3)
        assert np.array_equal(rev.residuals[s], residuals)
        assert np.array_equal(rev.sigma_ratios[s], ratios)
        assert np.array_equal(rev.eta[s], eta)
