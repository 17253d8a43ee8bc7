import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from dense_reference import model_to_json, per_atom_presample, per_pair_energy_tables, spectral_norm

import ries
from ries.cli import _theta_checks, main
from ries.ensemble import (
    EnsembleError,
    RrdoEnsemble,
    _e1_frame,
    _walk_tables,
    _word_length,
    _word_tables,
    _words,
    block_grid,
    ensemble_from_json,
    mean_rdo,
    theta_routes,
    trajectory_rng,
)
from ries.linalg import HERMITICITY_TOL, KahanAccumulator, dag, embed, random_hermitian, unvec, vec
from ries.rdo import INVARIANCE_TOL, Rdo, classify, decompose
from ries.thermo import ergodic_instant_monte_carlo, flux_closed_form, flux_monte_carlo, identity_family


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


def test_ensemble_validation(qubit_model):
    with pytest.raises(EnsembleError):
        _diag_ensemble([(0.6, [1, 0.5]), (0.6, [1, 0.4])])
    with pytest.raises(EnsembleError):
        RrdoEnsemble([], [])
    # a NaN weight makes the sum NaN, which no tolerance comparison rejects
    system, probe = qubit_model
    with pytest.raises(EnsembleError, match="finite"):
        RrdoEnsemble.from_models(system, [(np.nan, probe), (1.0, probe)])
    with pytest.raises(EnsembleError, match="finite"):
        _diag_ensemble([(np.nan, [1, 0.5]), (1.0, [1, 0.4])])


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
    theta = ens.routes["theta_projector"]
    assert np.allclose(theta, decompose(qubit_rdo).psi, atol=1e-10)


def test_theta_diagonal_ensemble():
    ens = _diag_ensemble([(0.5, [1, 0.5]), (0.5, [1, 0.2])])
    assert np.allclose(ens.routes["theta_projector"], [1.0, 0.0], atol=1e-12)


def test_theta_routes_agree(reference_ensemble):
    routes = theta_routes(reference_ensemble)
    assert routes["mismatch"] <= 1e-10
    assert routes["spr_mean_mq"] < 1.0
    # the resolvent solve is the series sum_k (E[M_Q]^*)^k E[psi], summed here term by term
    ens = reference_ensemble
    e_mq_adj = dag(np.einsum("k,kij->ij", ens.probs, ens.mq))
    term = np.einsum("k,ki->i", ens.probs, ens.psi_omega)
    partial = np.zeros_like(term)
    for _ in range(2000):
        partial, term = partial + term, e_mq_adj @ term
    assert np.linalg.norm(term) < 1e-14
    assert np.linalg.norm(routes["theta_neumann"] - partial) <= 1e-12


def test_theta_routes_diverge_for_unitary_ensemble():
    """A unitary E[M] is out of the class, which the runners' theta checks report;
    at spr(E[M_Q]) >= 1 the resolvent solve is not taken and the mismatch is inf."""
    m = np.diag([1.0, np.exp(0.3j)])
    ens = RrdoEnsemble.from_matrices(np.array([1.0, 0.0]), [(1.0, m)])
    assert abs(ens.routes["spr_mean_mq"] - 1.0) < 1e-15
    assert _theta_checks(ens)["mean_in_class"] is False
    outward = RrdoEnsemble.from_matrices(np.array([1.0, 0.0]), [(1.0, np.diag([1.0, -1.0]))])
    routes = theta_routes(outward)
    assert routes["spr_mean_mq"] >= 1.0
    assert routes["mismatch"] == np.inf
    assert np.isnan(routes["theta_neumann"]).all()


def test_theta_routes_agree_at_weak_coupling(qubit_model, uncoupled_probe):
    """At coupling 0.01, spr(E[M_Q]) = 0.99997: the first 10,000 terms of theta's series
    miss it by 5.5e-2, and the resolvent solve agrees with the projector route."""
    system, probe = qubit_model
    weak = ries.ProbeSpec(dim_e=2, h_e=probe.h_e, beta_e=probe.beta_e, v=probe.v / 40, tau=probe.tau)
    ens = RrdoEnsemble.from_models(system, [(0.5, uncoupled_probe), (0.5, weak)])
    routes = theta_routes(ens)
    assert 0.9999 < routes["spr_mean_mq"] < 1.0
    assert routes["mismatch"] <= 1e-10


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


def test_decay_deterministic_rate(qubit_model, qubit_rdo):
    system, probe = qubit_model
    ens = RrdoEnsemble.from_models(system, [(1.0, probe)])
    est = ries.decay_estimator(ens, 0, 800)
    spr = decompose(qubit_rdo).spr_mq
    assert abs(est.alpha[0] - (-np.log(spr))) <= 0.1 * abs(np.log(spr))


def test_decay_needs_in_class_atom(tmp_path, qubit_model, uncoupled_probe):
    """Without an in-class atom the estimator still runs; the decay runner reports
    the missing hypothesis as a false `in_class_atom` check, with rc 1."""
    system, _ = qubit_model
    ens = RrdoEnsemble.from_models(system, [(1.0, uncoupled_probe)])
    assert np.isfinite(ries.decay_estimator(ens, 0, 100).log_norms).all()
    atoms = [{"p": 1.0, "model": model_to_json(system, uncoupled_probe)}]
    path = tmp_path / "decay.json"
    path.write_text(json.dumps({"experiment": "decay", "ensemble": {"atoms": atoms}, "n_total": 100}))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 1
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["checks"]["in_class_atom"] is False


def test_reverse_deterministic_neumann(qubit_model, qubit_rdo):
    system, probe = qubit_model
    ens = RrdoEnsemble.from_models(system, [(1.0, probe)])
    rep = ries.simulate_reverse(ens, 0, 600)
    dec = decompose(qubit_rdo)
    eta_closed = np.linalg.solve(np.eye(4) - dec.m_q.conj().T, dec.psi)
    assert np.linalg.norm(rep.eta[0] - eta_closed) < 1e-9
    assert rep.residuals[0, -1] < 1e-9


def test_reverse_mean_eta_equals_theta(reference_ensemble):
    theta = reference_ensemble.routes["theta_projector"]
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
    taus = {p.tau for p in ens.probes}
    assert len(taus) == 8
    # reproducible
    ens2 = RrdoEnsemble.presampled(
        system, probe, {"tau": {"low": 0.5, "high": 1.5}}, count=8, seed=3
    )
    assert {p.tau for p in ens2.probes} == taus


def test_ensemble_from_json(qubit_model, uncoupled_probe):
    system, probe = qubit_model
    doc = {
        "atoms": [
            {"p": 0.5, "model": model_to_json(system, uncoupled_probe)},
            {"p": 0.5, "model": model_to_json(system, probe)},
        ]
    }
    ens = ensemble_from_json(doc)
    assert ens.n_atoms == 2 and ens.system is not None
    with pytest.raises(ValueError):
        ensemble_from_json({"atoms": [{"p": 1.0, "matrix": [[[1.0, 0.0]]]}]})


def _assert_rows_match(ens, k, rdo):
    """Row k of every stack is the build of atom k alone: its RDO, then decompose and classify."""
    split = decompose(rdo)
    for stack, ref in (
        (ens.matrices, rdo.m),
        (ens.mq, split.m_q),
        (ens.psi_omega, split.psi),
    ):
        assert np.array_equal(stack[k], ref)
    assert ens.in_class[k] == classify(rdo).in_class_e
    if rdo.phi is not None:
        assert np.array_equal(ens.phis[k], rdo.phi)


def _same_probe(a, b):
    return (a.dim_e, a.beta_e, a.tau) == (b.dim_e, b.beta_e, b.tau) and all(
        np.array_equal(x, y) for x, y in ((a.h_e, b.h_e), (a.v, b.v))
    )


def test_ensemble_stacks_match_per_atom_builds(qubit_model):
    """Each stack has one row per atom, bitwise that atom's own build, in input order."""
    rng = np.random.default_rng(11)
    # heterogeneous qutrit ensemble: unequal weights, betas and taus
    qutrit = ries.SystemSpec(dim_s=3, h_s=np.diag([0.0, 1.0, 2.3]), beta_s=0.7)
    h_e = np.diag([0.0, 1.1])
    probes = [
        ries.ProbeSpec(dim_e=2, h_e=h_e, beta_e=beta, v=random_hermitian(6, rng, 0.3), tau=tau)
        for beta, tau in ((1.3, 0.7), (0.4, 1.2), (2.0, 1.6))
    ]
    hetero = RrdoEnsemble.from_models(qutrit, list(zip([0.2, 0.5, 0.3], probes)))
    assert np.array_equal(hetero.probs, [0.2, 0.5, 0.3])
    assert np.array_equal(hetero.betas, [1.3, 0.4, 2.0])
    for k, probe in enumerate(probes):
        assert hetero.probes[k] is probe
        _assert_rows_match(hetero, k, ries.rdo_from_model(qutrit, probe))

    # presample: atom k is the k-th draw of (tau, beta) from the seed's stream
    system, probe = qubit_model
    ranges = {"tau": {"low": 0.5, "high": 1.5}, "beta": {"low": 0.2, "high": 2.0}}
    pre = RrdoEnsemble.presampled(system, probe, ranges, count=5, seed=4)
    draws = trajectory_rng(4)
    for k in range(5):
        tau, beta = draws.uniform(0.5, 1.5), draws.uniform(0.2, 2.0)
        assert (pre.probes[k].tau, pre.probes[k].beta_e, pre.betas[k]) == (tau, beta, beta)
        _assert_rows_match(pre, k, ries.rdo_from_model(system, pre.probes[k]))

    # the fluxes demo config's ensemble, each atom parsed on its own
    path = Path(__file__).resolve().parent.parent / "demos" / "configs" / "fluxes.json"
    doc = json.loads(path.read_text())["ensemble"]
    demo = ensemble_from_json(doc)
    for k, atom in enumerate(doc["atoms"]):
        sys_k, probe_k = ries.model_from_json(atom["model"])
        assert demo.probs[k] == atom["p"] and demo.betas[k] == probe_k.beta_e
        assert _same_probe(demo.probes[k], probe_k)
        _assert_rows_match(demo, k, ries.rdo_from_model(sys_k, probe_k))

    # matrix-form atoms carry no model data
    psi_s = np.array([1.0, 0.0])
    matrices = [np.diag([1.0, 0.5]), np.array([[1.0, 0.3], [0.0, -0.4]])]
    plain = RrdoEnsemble.from_matrices(psi_s, [(0.4, matrices[0]), (0.6, matrices[1])])
    for k, m in enumerate(matrices):
        _assert_rows_match(plain, k, ries.validate(m, psi_s))
    assert plain.system is None and plain.probes is None
    assert plain.phis is None and plain.betas is None
    with pytest.raises(EnsembleError):
        flux_closed_form(plain)


def test_ensemble_mixed_probe_dimensions(rng):
    """Qubit and qutrit probes on one qutrit system, interleaved, with unequal
    weights and two probe Hamiltonians per dimension: each stack row is bitwise
    the atom's own build, and the energy tables match the per-pair reductions."""
    system = ries.SystemSpec(dim_s=3, h_s=np.diag([0.0, 1.0, 2.3]), beta_s=0.7)
    h_e = {2: np.diag([0.0, 1.1]), 3: np.diag([0.0, 0.8, 1.9])}
    probes = [
        ries.ProbeSpec(
            dim_e=e, h_e=scale * h_e[e], beta_e=beta, v=random_hermitian(3 * e, rng, 0.3), tau=tau
        )
        for e, scale, beta, tau in (
            (2, 1.0, 1.3, 0.7),
            (3, 1.0, 0.4, 1.2),
            (2, 0.5, 2.0, 1.6),
            (3, 1.0, 0.9, 0.5),
            (2, 1.0, 0.6, 1.1),
        )
    ]
    probs = [0.1, 0.15, 0.2, 0.25, 0.3]
    ens = RrdoEnsemble.from_models(system, list(zip(probs, probes)))
    assert np.array_equal(ens.probs, probs)
    for k, probe in enumerate(probes):
        assert ens.probes[k] is probe
        _assert_rows_match(ens, k, ries.rdo_from_model(system, probe))
    jump, flux = ens.energy_tables
    ref_jump, ref_flux = per_pair_energy_tables(ens)
    assert np.abs(unvec(jump, 3) - ref_jump).max() < 1e-12
    assert np.abs(unvec(flux, 3) - ref_flux).max() < 1e-12


def _count_schur(monkeypatch) -> list:
    calls = []
    orig = scipy.linalg.schur

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return orig(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "schur", counted)
    return calls


def test_schur_fallback_only_for_clusters_at_one(wide_qutrit_model, monkeypatch):
    """The split reads each simple eigenvalue 1 off the batched eig: a 64-atom
    presample never calls the Schur route, and the fluxes demo ensemble calls it
    once, for its uncoupled atom (eigenvalue 1 of multiplicity 2)."""
    calls = _count_schur(monkeypatch)
    wide = RrdoEnsemble.presampled(*wide_qutrit_model, count=64, seed=31)
    assert all(wide.in_class) and calls == []
    path = Path(__file__).resolve().parent.parent / "demos" / "configs" / "fluxes.json"
    demo = ensemble_from_json(json.loads(path.read_text())["ensemble"])
    assert demo.in_class == [False, True] and calls == [(4, 4)]


def test_large_presample_rows_match_per_atom_builds(wide_qutrit_model):
    """A 1,024-atom presample builds as stacks; its first, middle and last rows are
    bitwise the per-atom builds."""
    system, probe, ranges = wide_qutrit_model
    ens = RrdoEnsemble.presampled(system, probe, ranges, count=1024, seed=5)
    assert ens.matrices.shape == ens.phis.shape == (1024, 9, 9)
    for k in (0, 511, 1023):
        _assert_rows_match(ens, k, ries.rdo_from_model(system, ens.probes[k]))


_PRESAMPLE_RANGES = {
    "tau_beta": {"tau": {"low": 0.6, "high": 1.6}, "beta": {"low": 0.2, "high": 2.0}},
    "tau_coupling": {"tau": {"low": 0.6, "high": 1.6}, "coupling": {"low": 0.5, "high": 1.5}},
    "negative_coupling": {"coupling": {"low": -1.5, "high": 0.5}},
}


@pytest.mark.parametrize("ranges", _PRESAMPLE_RANGES.values(), ids=_PRESAMPLE_RANGES)
def test_presampled_matches_per_atom_build(wide_qutrit_model, ranges):
    """Validating the draws once builds bitwise the ensemble that checking each
    atom's probe on its own builds: every stack, the betas and every probe field."""
    system, probe, _ = wide_qutrit_model
    ens = RrdoEnsemble.presampled(system, probe, ranges, count=16, seed=9)
    ref = per_atom_presample(system, probe, ranges, count=16, seed=9)
    for name in ("probs", "matrices", "mq", "psi_omega", "phis", "betas"):
        assert np.array_equal(getattr(ens, name), getattr(ref, name)), name
    assert ens.in_class == ref.in_class
    for got, want in zip(ens.probes, ref.probes, strict=True):
        assert type(got) is ries.ProbeSpec and _same_probe(got, want)


def _count_calls(monkeypatch, owner, name) -> list:
    calls = []
    orig = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_presampled_validates_once(wide_qutrit_model, monkeypatch):
    """The draws are checked as arrays: 4 and 64 atoms make the same number of
    Hermitian checks, and no atom's probe re-runs ProbeSpec's checks."""
    hermitian = _count_calls(monkeypatch, ries.model, "require_hermitian")
    post_init = _count_calls(monkeypatch, ries.ProbeSpec, "__post_init__")
    counts = []
    for count in (4, 64):
        hermitian.clear()
        RrdoEnsemble.presampled(*wide_qutrit_model, count=count, seed=31)
        counts.append(len(hermitian))
    assert counts[0] == counts[1] and not post_init


def _near_hermitian_probe(qubit_model):
    """The qubit probe with a V of norm 0.5 and Hermitian defect 0.9 HERMITICITY_TOL:
    V = H + eps A, H Hermitian, A anti-Hermitian. V passes its own check; a coupling
    scale c passes only if |c| 0.9 <= 1, since |c| ||V|| < 1 for |c| < 2."""
    _, probe = qubit_model
    h = 0.5 * probe.v / np.linalg.norm(probe.v, 2)
    a = 1j * np.diag([1.0, -1.0, 0.5, 0.0])
    v = h + 0.45 * HERMITICITY_TOL * a
    assert np.isclose(np.linalg.norm(v - dag(v), 2), 0.9 * HERMITICITY_TOL, rtol=1e-6)
    assert np.isclose(np.linalg.norm(v, 2), 0.5)
    return ries.ProbeSpec(dim_e=2, h_e=probe.h_e, beta_e=probe.beta_e, v=v, tau=probe.tau)


@pytest.mark.parametrize("build", [RrdoEnsemble.presampled, per_atom_presample], ids=["once", "per_atom"])
def test_presampled_hermitian_check_covers_every_scale(qubit_model, build):
    """The one check of max|c| V rejects what checking each c V rejects: the
    couplings 1.2..1.5 all fail on the near-Hermitian V, 0.5..0.9 all pass."""
    system, _ = qubit_model
    probe = _near_hermitian_probe(qubit_model)
    with pytest.raises(ValueError, match="v is not Hermitian"):
        build(system, probe, {"coupling": {"low": 1.2, "high": 1.5}}, count=8, seed=0)
    ens = build(system, probe, {"coupling": {"low": 0.5, "high": 0.9}}, count=8, seed=0)
    assert ens.n_atoms == 8


@pytest.mark.parametrize(
    "ranges, match",
    [
        ({"tau": {"low": -0.5, "high": 1.0}}, "nonnegative"),
        ({"beta": {"low": -2.0, "high": -1.0}}, "nonnegative"),
        ({"tau": {"low": 0.5, "high": math.inf}}, "finite"),
        ({"beta": {"low": math.nan, "high": 1.0}}, "finite"),
        ({"coupling": {"low": -math.inf, "high": 1.0}}, "finite"),
        ({"coupling": {"low": -1e308, "high": 1e308}}, "finite"),
    ],
    ids=["tau_low", "beta_range", "tau_inf", "beta_nan", "coupling_inf", "coupling_span"],
)
def test_presampled_rejects_bad_ranges(qubit_model, ranges, match):
    """A range that gives a negative tau or beta, or whose bounds or span are not
    finite, is a ValueError (not an OverflowError from the generator)."""
    with pytest.raises(ValueError, match=match):
        RrdoEnsemble.presampled(*qubit_model, ranges, count=16, seed=0)


def test_presampled_needs_an_atom(qubit_model):
    for count in (0, -1):
        with pytest.raises(EnsembleError, match="at least one atom"):
            RrdoEnsemble.presampled(*qubit_model, {"tau": {"low": 0.5, "high": 1.5}}, count=count)


def test_ensemble_psi_s_shared_without_relative_slack():
    """Atoms whose psi_s differ by 4e-6 are not one ensemble: the check is absolute
    (1e-12), with no relative tolerance. A difference of 1e-13 is still accepted."""
    psi = np.array([0.6, 0.8])

    def rotated(angle):
        c, s = np.cos(angle), np.sin(angle)
        psi_k = np.array([[c, -s], [s, c]]) @ psi
        p = np.outer(psi_k, psi_k)
        return Rdo(m=p + 0.5 * (np.eye(2) - p), psi_s=psi_k)

    far = rotated(4e-6)
    assert np.abs(far.psi_s - psi).max() > 3e-6
    with pytest.raises(EnsembleError, match="share psi_s"):
        RrdoEnsemble([0.5, 0.5], [Rdo(m=np.eye(2), psi_s=psi), far])
    RrdoEnsemble([0.5, 0.5], [Rdo(m=np.eye(2), psi_s=psi), rotated(1e-13)])


# ------------------------------------------------- per-seed reference loops
# The step-by-step, one-seed-at-a-time kernels that the blocked, seed-batched
# engine replaced, kept as references. They step the same e_1-basis atoms as
# the kernels (`RrdoEnsemble.e1`) and read out as the kernels do. The blocked
# kernels multiply and sum in another order, and the forward, reverse and
# Lyapunov kernels step whole k-atom words (k = 5, 6 and 6 on the qubit atoms,
# 2, 3 and 3 on two qutrit atoms, 1 on six), so they match the loops to the
# tolerances below, each at least 100x the largest deviation measured on these
# tests (the measured value follows each one) but eta's, about 40x, and never
# looser than 1e-10 absolute. Every product of these atoms keeps its first row
# (forward, Lyapunov) or column (reverse) bit for bit, so the forward drifts of
# kernel and loop agree to 1.2e-32. The reverse loop sums eta step by step, while
# the kernel reads eta_n = Phi_n^* psi(w_n) off its product: the two routes part
# by the rounding of that sum, which the loop's residuals carry too.
FORWARD_DISTANCE_ATOL = 2e-13  # measured 2.2e-16
FORWARD_DRIFT_ATOL = 1e-11  # measured 1.2e-32
DECAY_LOG_NORM_ATOL = 1e-10  # measured 2.2e-12 (log norms down to about -780)
REVERSE_RESIDUAL_ATOL = 1e-11  # measured 2.7e-15
REVERSE_RATIO_ATOL = 3e-14  # measured 2.8e-16
REVERSE_ETA_ATOL = 7e-14  # measured 1.7e-15
LYAPUNOV_ATOL = 2e-14  # measured 1.1e-16


def _forward_loop(ens, seed, n_total, checkpoint_every):
    omega = trajectory_rng(seed).choice(ens.n_atoms, size=n_total, p=ens.probs)
    h = ens.e1["frame"]
    psi_s = h @ ens.psi_s
    limit = np.outer(psi_s, (h @ ens.routes["theta_projector"]).conj())
    psi_prod = np.eye(ens.dim, dtype=complex)
    acc = KahanAccumulator((ens.dim, ens.dim))
    checkpoints, distances = [], []
    drift = 0.0
    for n in range(1, n_total + 1):
        psi_prod = psi_prod @ ens.e1["matrices"][omega[n - 1]]
        acc.add(psi_prod)
        if n % checkpoint_every == 0 or n == n_total:
            checkpoints.append(n)
            distances.append(np.linalg.norm(acc.total / n - limit, "fro"))
            drift = max(drift, float(np.linalg.norm(psi_prod @ psi_s - psi_s)))
    return np.array(checkpoints), np.array(distances), drift


def _decay_loop(ens, seed, n_total):
    """The log-norm series only; the envelope fit is shared per-seed code."""
    omega = trajectory_rng(seed).choice(ens.n_atoms, size=n_total, p=ens.probs)
    word = np.eye(ens.dim, dtype=complex)
    log_norms = np.empty(n_total)
    log_scale = 0.0
    for n in range(n_total):
        word = word @ dag(ens.e1["mq_adjoints"][omega[n]])
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
    d, e1 = ens.dim, ens.e1
    psi_s = e1["frame"] @ ens.psi_s
    phi = np.eye(d, dtype=complex)
    lead = np.eye(d, dtype=complex)
    eta = np.zeros(d, dtype=complex)
    checkpoints, residuals, ratios = [], [], []
    for n in range(1, n_total + 1):
        k = omega[n - 1]
        phi = e1["matrices"][k] @ phi
        eta = eta + lead @ e1["psi_omega"][k]
        lead = lead @ e1["mq_adjoints"][k]
        if n % checkpoint_every == 0 or n == n_total:
            checkpoints.append(n)
            residuals.append(spectral_norm(phi - np.outer(psi_s, eta.conj())))
            sv = np.linalg.svd(phi, compute_uv=False)
            ratios.append(sv[1] / sv[0] if sv[0] > 0 else 0.0)
    return np.array(checkpoints), np.array(residuals), np.array(ratios), dag(e1["frame"]) @ eta


def _lyapunov_loop(ens, seed, n_total, reorth_every):
    omega = trajectory_rng(seed).choice(ens.n_atoms, size=n_total, p=ens.probs)
    d = ens.dim
    frame = np.conj(ens.e1["frame"])
    log_r = np.zeros(d)
    steps = 0
    for n in range(1, n_total + 1):
        frame = ens.e1["matrices"][omega[n - 1]].T @ frame
        if n % reorth_every == 0 or n == n_total:
            q, r = np.linalg.qr(frame)
            diag = np.abs(np.diag(r))
            diag[diag == 0] = np.finfo(float).tiny
            log_r += np.log(diag)
            frame = q
            steps = n
    exponents = np.sort(log_r / steps)[::-1]
    return float(exponents[0]), float(exponents[1]), float(exponents[0] - exponents[1])


def _assert_log_norms_match(got, want, atol=DECAY_LOG_NORM_ATOL, rtol=0.0):
    """Decay log norms: -inf exactly where the loop's word hit zero, close elsewhere."""
    assert np.array_equal(np.isneginf(got), np.isneginf(want))
    np.testing.assert_allclose(got, want, rtol=rtol, atol=atol)


def _assert_kernels_match_loops(ens, seeds, n_total, every):
    """All four batched kernels against the per-seed loops, at the stated tolerances.

    Lyapunov re-orthonormalizes at most every 10 steps (the CLI default) here:
    over a much longer interval the loop itself loses gamma_2 to rounding on
    the qutrit ensemble, and the two orders of multiplication drift apart.
    """
    reorth = min(every, 10)
    fwd = ries.simulate_forward(ens, seeds, n_total, checkpoint_every=every)
    dec = ries.decay_estimator(ens, seeds, n_total)
    rev = ries.simulate_reverse(ens, seeds, n_total, checkpoint_every=every)
    lya = ries.lyapunov(ens, seeds, n_total, reorth_every=reorth)
    close = np.testing.assert_allclose
    for s, seed in enumerate(seeds):
        checkpoints, distances, drift = _forward_loop(ens, seed, n_total, every)
        assert np.array_equal(fwd.checkpoints, checkpoints)
        close(fwd.distances[s], distances, rtol=0, atol=FORWARD_DISTANCE_ATOL)
        close(fwd.max_invariance_drift[s], drift, rtol=0, atol=FORWARD_DRIFT_ATOL)
        _assert_log_norms_match(dec.log_norms[s], _decay_loop(ens, seed, n_total))
        checkpoints, residuals, ratios, eta = _reverse_loop(ens, seed, n_total, every)
        assert np.array_equal(rev.checkpoints, checkpoints)
        close(rev.residuals[s], residuals, rtol=0, atol=REVERSE_RESIDUAL_ATOL)
        close(rev.sigma_ratios[s], ratios, rtol=0, atol=REVERSE_RATIO_ATOL)
        close(rev.eta[s], eta, rtol=0, atol=REVERSE_ETA_ATOL)
        want = _lyapunov_loop(ens, seed, n_total, reorth)
        close((lya.gamma_1[s], lya.gamma_2[s], lya.gap[s]), want, rtol=0, atol=LYAPUNOV_ATOL)


def _wide_ensemble(count=6):
    """Qutrit system, qubit probe, `count` presampled atoms: GNS dim 9."""
    rng = np.random.default_rng(909)
    system = ries.SystemSpec(dim_s=3, h_s=np.diag([0.0, 1.0, 2.3]), beta_s=0.7)
    probe = ries.ProbeSpec(
        dim_e=2, h_e=np.diag([0.0, 1.1]), beta_e=1.3, v=random_hermitian(6, rng, 0.4), tau=1.0
    )
    ranges = {"tau": {"low": 0.6, "high": 1.6}, "coupling": {"low": 0.5, "high": 1.5}}
    return RrdoEnsemble.presampled(system, probe, ranges, count=count, seed=4)


@pytest.mark.parametrize("case", ["qubit", "qutrit", "two_qutrit"])
def test_batched_kernels_match_per_seed_loops(case, reference_ensemble):
    """Blocked, seed-batched kernels match the per-seed loops (GNS dim 4 and 9).

    A checkpoint interval of 7 leaves a partial last block in 2600 steps;
    two-step runs make the first checkpoint count. Six qutrit atoms walk
    single steps, two walk words (see `test_kernel_word_lengths`).
    """
    ens = {"qubit": reference_ensemble, "qutrit": _wide_ensemble(), "two_qutrit": _wide_ensemble(2)}[case]
    assert ens.dim == (4 if case == "qubit" else 9)
    _assert_kernels_match_loops(ens, [5, 0, 12, 5], 2600, 7)
    _assert_kernels_match_loops(ens, list(range(8)), 2, 1)


@pytest.mark.parametrize("case, slack", [("qubit", 1e-11), ("qutrit", 1.0)])
def test_decay_and_lyapunov_kernels_check_each_other(case, slack, reference_ensemble):
    """Psi_n = |psi_s><theta_n| + M_Q(w_1)...M_Q(w_n), so on one path the decay word's
    log norm and n times the second Lyapunov exponent differ by O(1): per seed,
    n |log ||W_n|| / n - gamma_2| at 10 n is at most its value at n plus a slack.

    The two kernels step different tables (M_Q^* against M^*) and take norms by
    different routes (scaled eigvalsh against accumulated QR), so a defect in either
    would grow with n. At GNS dim 4 they agree to rounding (below 1e-13 at n = 2,000);
    at dim 9 the bounded term moves by up to 0.58 between n = 200 and 2,000 over 12
    seeds, where stepping the words with M^* moves it by 10 n |gamma_2| ~ 500.
    """
    ens = reference_ensemble if case == "qubit" else _wide_ensemble()
    seeds, n = list(range(6)), 200
    log_norms = ries.decay_estimator(ens, seeds, 10 * n).log_norms
    offset = [np.abs(log_norms[:, k - 1] - k * ries.lyapunov(ens, seeds, k).gamma_2) for k in (n, 10 * n)]
    assert np.all(offset[1] <= offset[0] + slack), offset


@pytest.mark.parametrize("case", ["qubit", "qutrit", "two_qutrit"])
def test_reverse_routes_check_each_other(case, reference_ensemble):
    """M = |psi_s><psi(w)| + M_Q, with M_Q psi_s = 0 and M_Q^* psi(w) = 0, so
    Phi_n = |psi_s><eta_n| + M_Q(w_n)...M_Q(w_1): the final eta equals
    Phi_n^* psi(w_n), and each checkpoint's residual equals ||M_Q(w_n)...M_Q(w_1)||.

    Here Phi_n and the M_Q product are plain one-step products of the M and of the
    M_Q, in the atoms' own basis; the kernel reads eta_n = Phi_n^* psi(w_n) off its
    own word products in the e_1 basis, and keeps no eta sum, a route that only
    `_reverse_loop` keeps. The largest deviations measured are 1.2e-14, 7.6e-14 and
    1.1e-14 for eta and 3.3e-16, 3.9e-16 and 3.8e-16 for the residuals (qubit, six
    and two qutrit atoms); the tolerance is at least 100x of both.
    """
    ens = {"qubit": reference_ensemble, "qutrit": _wide_ensemble(), "two_qutrit": _wide_ensemble(2)}[case]
    seeds, n_total, every = [0, 1, 2, 3], 300, 7
    rev = ries.simulate_reverse(ens, seeds, n_total, every)
    omega = ens.sample_paths(seeds, n_total)
    phi = word = np.broadcast_to(np.eye(ens.dim, dtype=complex), (len(seeds), ens.dim, ens.dim))
    residuals = []
    for n in range(1, n_total + 1):
        phi = ens.matrices[omega[:, n - 1]] @ phi
        word = ens.mq[omega[:, n - 1]] @ word
        if n in rev.checkpoints:
            residuals.append([spectral_norm(w) for w in word])
    eta = np.einsum("sji,sj->si", phi.conj(), ens.psi_omega[omega[:, -1]])
    np.testing.assert_allclose(rev.eta, eta, rtol=0, atol=1e-11)
    np.testing.assert_allclose(rev.residuals, np.transpose(residuals), rtol=0, atol=1e-11)


def test_reverse_residual_floor():
    """Read off Phi_n, eta_n shares its rounding, so the residual ||Phi_n - |psi_s><eta_n|||
    of a decayed product sits at rounding level: on six and two qutrit atoms (GNS dim 9),
    16 seeds x 600 steps, it reads 2.6e-16 to 4.1e-16. A separately rounded sum of eta
    misses Phi_n by more: it read 1.3e-15 to 3.8e-15 on every seed."""
    for ens in (_wide_ensemble(), _wide_ensemble(2)):
        rev = ries.simulate_reverse(ens, list(range(16)), 600, 7)
        assert rev.residuals[:, -1].max() <= 1e-15, rev.residuals[:, -1]


@pytest.mark.parametrize("walk", ["forward", "reverse", "decay", "lyapunov", "instant", "fluxes"])
def test_walks_need_a_step(walk, reference_ensemble):
    """Every trajectory walk rejects n_total = 0 where it turns seeds into paths,
    instead of returning unwritten records, NaN means or dividing by zero."""
    ens, seeds = reference_ensemble, [0, 1]
    calls = {
        "forward": lambda: ries.simulate_forward(ens, seeds, 0),
        "reverse": lambda: ries.simulate_reverse(ens, seeds, 0),
        "decay": lambda: ries.decay_estimator(ens, seeds, 0),
        "lyapunov": lambda: ries.lyapunov(ens, seeds, 0),
        "instant": lambda: ergodic_instant_monte_carlo(ens, identity_family(ens), seeds, 0),
        "fluxes": lambda: flux_monte_carlo(ens, seeds, 0),
    }
    with pytest.raises(ValueError, match="n_total >= 1"):
        calls[walk]()


@pytest.mark.parametrize(
    "n_total, every",
    [
        (1, 1),  # one step
        (2, 1000),  # two steps, shorter than one checkpoint interval
        (17, 1),  # a checkpoint after every step: blocks of one step
        (300, 1000),  # one partial interval, cut into blocks of 17 and 18
        (1000, 300),  # 300 is not a multiple of the block length 32, nor 1000 of 300
        # blocks of `every` steps, then one of 2: every word length k of
        # `test_kernel_word_lengths` meets blocks of k - 1, k and k + 1 steps, and
        # blocks of 11 and 2 steps are a multiple of none but k = 2
        (6, 2),
        (11, 3),
        (18, 4),
        (27, 5),
        (38, 6),
        (51, 7),
        (123, 11),
    ],
)
def test_block_grid_edges_match_per_seed_loops(n_total, every, reference_ensemble):
    """Grid edge cases, including runs longer than one run of blocks, and word
    boundaries, each block cut into words of k steps from its start and ending in
    one shorter word, against the loops."""
    _assert_kernels_match_loops(reference_ensemble, [3, 8], n_total, every)
    _assert_kernels_match_loops(_wide_ensemble(), [4], n_total, every)
    _assert_kernels_match_loops(_wide_ensemble(2), [4], n_total, every)


def _fresh_reference(qubit_model, uncoupled_probe):
    """A new `reference_ensemble`, whose table cache (`walk_tables`) is still empty."""
    system, probe = qubit_model
    return RrdoEnsemble.from_models(system, [(0.5, uncoupled_probe), (0.5, probe)])


def test_kernel_word_lengths(qubit_model, uncoupled_probe, wide_qutrit_model, monkeypatch):
    """k is the largest k >= 1 with A**k times one word's float64 table entries at most
    2**12, a single atom counted as two: on two qubit atoms (D = 4) 5 for forward
    (W and Q, 8 D**2 entries a word), 6 for reverse (its M words, 4 D**2) and 6 for
    Lyapunov (its M^* words, 4 D**2); on two qutrit atoms (D = 9) 2, 3 and 3; on 64
    atoms 1."""
    ks = []
    monkeypatch.setattr(ries.ensemble, "_word_length", lambda *args: ks.append(_word_length(*args)) or ks[-1])
    wide = RrdoEnsemble.presampled(*wide_qutrit_model, count=64, seed=31)
    for ens in (_fresh_reference(qubit_model, uncoupled_probe), _wide_ensemble(2), wide):
        ries.simulate_forward(ens, [1], 50, 50)
        ries.simulate_reverse(ens, [1], 50, 50)
        ries.lyapunov(ens, [1], 50, 50)
    assert ks == [5, 6, 6, 2, 3, 3, 1, 1, 1]
    assert [_word_length(1, 2**12 // 2**j) for j in range(4)] == [1, 1, 2, 3]


_KERNELS = {
    "forward": lambda ens, n: ries.simulate_forward(ens, [3, 8], n, 7),
    "reverse": lambda ens, n: ries.simulate_reverse(ens, [3, 8], n, 7),
    "lyapunov": lambda ens, n: ries.lyapunov(ens, [3, 8], n, 7),
    "decay": lambda ens, n: ries.decay_estimator(ens, [3, 8], n),
}


@pytest.mark.parametrize("case", ["qubit", "wide"])
def test_kernel_tables_are_built_once(case, qubit_model, uncoupled_probe, wide_qutrit_model, monkeypatch):
    """After each matrix kernel's first call on an ensemble, a second call reads its
    tables from the ensemble's cache: it builds no word (`_word_tables`) and embeds
    no table (`embed`), and its record equals the first call's bit for bit. On two
    qubit atoms the walks step words (k = 5, 6 and 6), on 64 atoms single atoms.
    Decay also embeds its block products when a run holds more than one block, so
    on the qubit atoms it walks one block of 2 steps; at D = 9 every run is one block."""
    if case == "qubit":
        ens = _fresh_reference(qubit_model, uncoupled_probe)
    else:
        ens = RrdoEnsemble.presampled(*wide_qutrit_model, count=64, seed=31)
    for walk, call in _KERNELS.items():
        n = 2 if (case, walk) == ("qubit", "decay") else 300
        first = call(ens, n)
        with monkeypatch.context() as patch:
            built = [_count_calls(patch, ries.ensemble, name) for name in ("_word_tables", "embed")]
            second = call(ens, n)
        assert built == [[], []], (walk, built)
        for name, value in vars(first).items():
            assert np.array_equal(getattr(second, name), value, equal_nan=True), (walk, name)


def test_cached_tables_stay_within_the_word_budget(reference_ensemble, wide_qutrit_model):
    """Each walk's cache entry holds at most sum_(m = 1..k) A**m times one word's float64
    entries, which is at most 2 max(WORD_ENTRIES, A times one word's entries), on two
    qubit atoms (D = 4) and on 64 qutrit-qubit atoms (D = 9); every cached table is
    read-only, since every call of the walk shares it."""
    wide = RrdoEnsemble.presampled(*wide_qutrit_model, count=64, seed=31)
    for ens in (reference_ensemble, wide):
        a, d = ens.n_atoms, ens.dim
        for walk in _KERNELS:  # one word's float64 entries, as in `test_kernel_word_lengths`
            entries = {"forward": 8 * d * d}.get(walk, 4 * d * d)
            k, tables = _walk_tables(ens, walk)
            held = sum(table.size for table, _ in tables)
            assert held <= sum(a**m for m in range(1, k + 1)) * entries, (walk, held)
            assert held <= 2 * max(ries.ensemble.WORD_ENTRIES, a * entries), (walk, held)
            assert not any(table.flags.writeable for table, _ in tables), walk


@pytest.mark.parametrize("k", [4, 5, 6])
def test_words_index_their_own_products(k, reference_ensemble):
    """`_words` cuts blocks of 1 to 2k + 1 steps, some shorter than k, into words of k
    steps from each block's start, and each path entry is the row of the word's own
    product in a table that stacks the words of every length 1, ..., k: row
    A + ... + A**(m - 1) plus the flattened atom tuple, first atom first, for a word
    of m atoms. The product is taken in the builder's grouping, so it is bitwise the row."""
    ens = reference_ensemble
    steps = ens.e1["adjoints"]
    table = np.concatenate([w for w, _ in _word_tables(steps, steps[:, :, :0], 1, k).values()])
    sizes = np.arange(1, 2 * k + 2)
    ends = np.cumsum(sizes)
    omega = ens.sample_paths([0, 1, 2], int(ends[-1]))
    path, word_ends = _words(ens, omega, ends, k)
    assert np.array_equal(word_ends, np.cumsum(-(-sizes // k)))
    for s, rows in enumerate(path):
        words = [omega[s, a : min(a + k, b)] for first, b in zip(ends - sizes, ends) for a in range(first, b, k)]
        assert len(words) == len(rows)
        for word, row in zip(words, rows):
            prod = steps[word[-1]]  # S(c_m) ... S(c_2), then times S(c_1)
            for atom in word[-2::-1]:
                prod = prod @ steps[atom]
            assert np.array_equal(table[row], prod), (s, word, row)


def test_word_walks_do_not_pile_up_rounding(reference_ensemble):
    """A word's product rounds the same at every use of the word, so a rounding
    along psi_s, which no step contracts, would pile up: on the two qubit atoms,
    plain word products of the unrotated atoms let the forward invariance drift
    reach 4.1e-12 at 10^5 steps and the reverse residual 2.4e-13 at 6,000 steps.
    In the e_1 basis every word keeps its first row (column) bit for bit, and
    they read 1.1e-16 and 6.2e-16; the forward drift of seed 0 at 10^6 steps
    reads 1.1e-16 too. The bounds are about 10x these."""
    fwd = ries.simulate_forward(reference_ensemble, [0, 1], 100_000, 1000)
    assert fwd.max_invariance_drift.max() <= 1e-15
    fwd = ries.simulate_forward(reference_ensemble, [0], 1_000_000, 10_000)
    assert fwd.max_invariance_drift.max() <= 1e-15
    rev = ries.simulate_reverse(reference_ensemble, [0, 1], 6000, 10)
    assert rev.residuals[:, -1].max() <= 6e-15


def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    return v / np.linalg.norm(v)


_E1_CASES = {
    "e1": _unit([1.0, 0.0, 0.0]),
    "zero_lead": _unit([0.0, 1.0, 1j]),
    "random": _unit([1.0, 1j] @ np.random.default_rng(3).normal(size=(2, 9))),
    "vec_identity": _unit(vec(np.eye(3))),
    "dim_1": _unit([1j]),
}


@pytest.mark.parametrize("u", _E1_CASES.values(), ids=_E1_CASES)
def test_e1_frame_is_unitary_and_maps_u_to_e1(u):
    """H is unitary and H u = e_1, each to 1e-15, also where u is e_1 already or
    its first entry is 0."""
    eye = np.eye(len(u))
    h, _ = _e1_frame(u, eye[None])
    assert np.abs(dag(h) @ h - eye).max() <= 1e-15
    assert np.abs(h @ u - eye[0]).max() <= 1e-15


def _demo_ensemble(name):
    path = Path(__file__).resolve().parent.parent / "demos" / "configs" / f"{name}.json"
    return ensemble_from_json(json.loads(path.read_text())["ensemble"])


def test_projected_atoms_move_by_their_invariance_defect(reference_ensemble, wide_qutrit_model):
    """Setting the first row of H S H^* to e_1^* moves each step S by no more than its
    own invariance defect ||u^* S - u^*|| plus 1e-15 for the rounding of the rotation:
    the M^* of the reference, demo `instant`, six- and 64-atom ensembles, and their
    adjoint Heisenberg maps. A matrix-form atom that keeps psi_s only to 0.9
    INVARIANCE_TOL, as much as validation accepts, moves by that defect, at most
    INVARIANCE_TOL."""
    wide = RrdoEnsemble.presampled(*wide_qutrit_model, count=64, seed=31)
    for ens in (reference_ensemble, _demo_ensemble("instant"), _wide_ensemble(), wide):
        d = ens.system.dim_s
        frames = [
            (_unit(ens.psi_s), dag(ens.matrices), ens.e1["frame"], ens.e1["adjoints"]),
            (_unit(vec(np.eye(d))), dag(ens.phis), *ens.e1_heisenberg),
        ]
        for u, steps, h, kept in frames:
            moved = np.linalg.norm(kept - h @ steps @ dag(h), axis=(1, 2))
            defect = np.linalg.norm(u.conj() @ steps - u.conj(), axis=1)
            assert np.all(moved <= defect + 1e-15), (moved, defect)
    psi = np.array([0.6, 0.8])
    p = np.outer(psi, psi)
    off = np.array([0.8, -0.6])  # orthogonal to psi
    m = p + 0.5 * (np.eye(2) - p) + 0.9 * INVARIANCE_TOL * np.outer(off, psi)
    ens = RrdoEnsemble.from_matrices(psi, [(1.0, m)])
    h = ens.e1["frame"]
    moved = np.linalg.norm(ens.e1["matrices"][0] - h @ m @ dag(h))
    assert abs(moved - 0.9 * INVARIANCE_TOL) <= 1e-15 and moved <= INVARIANCE_TOL


def test_word_tables_keep_the_e1_row_bitwise(reference_ensemble):
    """On the two qubit atoms, every word of every length a walk uses keeps the first
    row e_1^* of its steps bit for bit (an M word its first column e_1), and so do
    the float64 embeddings the matrix kernels step (rows, or columns, 1 and D + 1)
    and a 2,000-step product of embedded atoms: the M^* words of forward (k = 5),
    Lyapunov (6) and the instant means (8), forward's prefix sums Q (first row m
    e_1^* at length m), reverse's M words (6) and the flux words (7)."""
    ens, d = reference_ensemble, reference_ensemble.dim
    e1 = ens.e1
    rows = embed(np.eye(d, dtype=complex))[[0, d]]  # rows 1 and D + 1 of embed(1)
    # (steps, pairing tables, k, whether the words keep their first column, not row)
    cases = [
        (e1["adjoints"], e1["matrices"], 8, False),
        (ens.e1_heisenberg[1], None, 7, False),
        (e1["matrices"], None, 6, True),
    ]
    for steps, tables, k, columns in cases:
        words = _word_tables(steps, steps[:, :, :0] if tables is None else tables, 1, k)
        for m, (w, g) in words.items():
            w = dag(w) if columns else w  # a kept first column is its adjoint's first row
            assert np.array_equal(w[:, 0], np.broadcast_to(rows[0, :d], w[:, 0].shape)), m
            assert np.array_equal(embed(w)[:, [0, d]], np.broadcast_to(rows, (len(w), 2, 2 * d))), m
            if tables is not None:  # forward's Q = G^*
                assert np.array_equal(dag(g)[:, 0], np.broadcast_to(m * rows[0, :d], (len(g), d))), m
    path = ens.sample_paths([0], 2000)[0]
    prod = np.eye(2 * d)
    atoms = _walk_tables(ens, "forward")[1][0][0]  # rows 0, ..., A - 1: the embedded M^*
    for i in path:
        prod = atoms[i] @ prod
    assert np.array_equal(prod[[0, d]], rows)


@pytest.mark.parametrize(
    "n, every",
    [(1, 1), (2, 1), (2, 1000), (17, 1), (17, 5), (300, 1000), (1000, 300), (20_000, 1000)],
)
def test_block_grid(n, every):
    """Checkpoints after every `every`-th step and the last; blocks of at most ceil(sqrt(n)).

    The blocks of one checkpoint interval differ in length by at most one step.
    """
    checkpoints, ends, at_checkpoint = block_grid(n, every)
    assert np.array_equal(checkpoints, sorted({*range(every, n + 1, every), n}))
    assert np.array_equal(ends[at_checkpoint], checkpoints)
    assert ends[-1] == n and np.all(np.diff(ends) > 0)
    lengths = np.diff(ends, prepend=0)
    assert lengths.max() <= math.isqrt(n - 1) + 1
    interval = np.searchsorted(checkpoints, ends)
    for c in range(len(checkpoints)):
        mine = lengths[interval == c]
        assert mine.max() - mine.min() <= 1


def test_batched_kernels_independent_of_batch(reference_ensemble):
    """The first k seeds of a longer seed list give the same results, bitwise.

    900 steps in checkpoint intervals of 50 make 36 blocks, several runs.
    """
    ens, n_total = reference_ensemble, 900
    short, long = [3, 1], [3, 1, 4, 1, 5]
    fwd = [ries.simulate_forward(ens, seeds, n_total, 50) for seeds in (short, long)]
    assert np.array_equal(fwd[0].distances, fwd[1].distances[:2])
    assert np.array_equal(fwd[0].max_invariance_drift, fwd[1].max_invariance_drift[:2])
    dec = [ries.decay_estimator(ens, seeds, n_total) for seeds in (short, long)]
    for key in ("log_norms", "alpha", "n0", "log_c"):
        assert np.array_equal(getattr(dec[0], key), getattr(dec[1], key)[:2])
    rev = [ries.simulate_reverse(ens, seeds, n_total) for seeds in (short, long)]
    for key in ("residuals", "sigma_ratios", "eta"):
        assert np.array_equal(getattr(rev[0], key), getattr(rev[1], key)[:2])
    lya = [ries.lyapunov(ens, seeds, n_total) for seeds in (short, long)]
    for key in ("gamma_1", "gamma_2", "gap"):
        assert np.array_equal(getattr(lya[0], key), getattr(lya[1], key)[:2])


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
        _assert_log_norms_match(dec.log_norms[s], _decay_loop(ens, seed, n_total))
    assert np.isfinite(dec.alpha[~dead]).all()


@pytest.mark.parametrize("scale", [1e-6, 1e-30])
def test_decay_log_norms_do_not_underflow(scale):
    """Tiny M_Q: block products would underflow unscaled; the log norms match the loop.

    With ||M_Q|| about 1e-6, 400 steps end near log norm -5500, and three
    blocks of 20 steps multiplied without rescaling leave the double range;
    with 1e-30 a single block does.
    """
    rng = np.random.default_rng(11)
    psi_s = np.array([1.0, 0.0, 0.0])
    atoms = []
    for p in (0.3, 0.7):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m = np.eye(3, dtype=complex)
        m[1:, 1:] = scale * a / np.linalg.norm(a, 2)
        atoms.append((p, m))
    ens = RrdoEnsemble.from_matrices(psi_s, atoms)
    seeds, n_total = [2, 9, 4], 400
    dec = ries.decay_estimator(ens, seeds, n_total)
    for s, seed in enumerate(seeds):
        want = _decay_loop(ens, seed, n_total)
        assert np.isfinite(want).all() and np.isfinite(dec.log_norms[s]).all()
        _assert_log_norms_match(dec.log_norms[s], want, atol=0.0, rtol=1e-10)


def test_lyapunov_zero_qr_diagonal():
    """A rank-one factor zeroes a QR diagonal in some seeds' frames only."""
    ens = _diag_ensemble([(0.9, [1, 0.5]), (0.1, [1, 0])])
    seeds, n_total = list(range(8)), 20
    lya = ries.lyapunov(ens, seeds, n_total, reorth_every=5)
    collapsed = lya.gamma_2 < -10
    assert collapsed.any() and not collapsed.all()
    assert np.allclose(lya.gamma_2[~collapsed], np.log(0.5), atol=1e-12)
    for s, seed in enumerate(seeds):
        got = (lya.gamma_1[s], lya.gamma_2[s], lya.gap[s])
        want = _lyapunov_loop(ens, seed, n_total, 5)
        np.testing.assert_allclose(got, want, rtol=0, atol=LYAPUNOV_ATOL)


def test_reverse_zero_leading_singular_value():
    """A zero product in one seed gives sigma ratio 0 there and leaves the others be.

    A valid RDO fixes psi_s, so Phi_n never vanishes; the zero factor is
    planted in the ensemble's e_1-basis matrix table by hand, before its first use.
    Such an M is no RDO, so eta_n = Phi_n^* psi(w_n), which the kernel reads, and
    the loop's running sum part ways once the product vanishes: from there on the
    kernel's residuals and eta are 0, and before it they match the loop's.
    """
    ens = _diag_ensemble([(0.95, [1, 0.5]), (0.05, [1, 0.3])])
    ens.e1["matrices"][1] = 0.0
    seeds, n_total = list(range(6)), 12
    rev = ries.simulate_reverse(ens, seeds, n_total, checkpoint_every=3)
    zero = rev.sigma_ratios[:, -1] == 0
    assert zero.any() and not zero.all()
    close = np.testing.assert_allclose
    for s, seed in enumerate(seeds):
        _, residuals, ratios, eta = _reverse_loop(ens, seed, n_total, 3)
        close(rev.sigma_ratios[s], ratios, rtol=0, atol=REVERSE_RATIO_ATOL)
        vanished = ratios == 0
        assert np.array_equal(rev.sigma_ratios[s] == 0, vanished)
        assert np.all(rev.residuals[s, vanished] == 0)
        close(rev.residuals[s, ~vanished], residuals[~vanished], rtol=0, atol=REVERSE_RESIDUAL_ATOL)
        if zero[s]:
            assert np.all(rev.eta[s] == 0)
        else:
            close(rev.eta[s], eta, rtol=0, atol=REVERSE_ETA_ATOL)
