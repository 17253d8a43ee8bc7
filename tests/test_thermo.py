import json
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from dense_reference import (
    dense_window_reduction,
    embed,
    identity_window,
    left_mult_matrix,
    per_pair_energy_tables,
    random_complex_matrix,
    replay_cesaro_means,
)

import ries
from ries.cli import _fields, _theta_checks
from ries.ensemble import EnsembleError, RrdoEnsemble, _word_length, ensemble_from_json, trajectory_rng
from ries.linalg import (
    KahanAccumulator,
    dag,
    random_hermitian,
    right_mult_matrix,
    unvec,
    vec,
)
from ries.model import full_chain_expectation, weighted_partial_trace
from ries.rdo import decompose
from ries.thermo import (
    energy_jump_family,
    ergodic_instant_limit,
    ergodic_instant_monte_carlo,
    flux_closed_form,
    flux_monte_carlo,
    identity_family,
    mean_beta,
    mean_reduced_observable,
    observable_family,
    probe_energy_family,
    system_observable_family,
)


def test_identity_family_normalized(reference_ensemble):
    fam = identity_family(reference_ensemble)
    e_n = mean_reduced_observable(reference_ensemble, fam)
    psi = reference_ensemble.psi_s
    assert np.isclose(np.vdot(psi, vec(e_n @ unvec(psi))), 1.0, atol=1e-12)
    assert np.isclose(ergodic_instant_limit(reference_ensemble, fam).real, 1.0, atol=1e-10)


def test_single_atom_mean_is_atom(qubit_model):
    system, probe = qubit_model
    ens = RrdoEnsemble.from_models(system, [(1.0, probe)])
    fam = probe_energy_family(ens)
    assert np.allclose(mean_reduced_observable(ens, fam), fam.x[0], atol=1e-14)


def test_mean_reduced_matches_enumeration(reference_ensemble, rng):
    """l = r = 1: the weighted sum over all 8 tuples, enumerated independently."""
    a_s = random_hermitian(2, rng)
    b = random_hermitian(2, rng)
    fam = observable_family(reference_ensemble, a_s, [[b, b]] * 3, 1, 1)
    obs = ries.ObservableWindow(a_s=a_s, b_list=(b, b, b), l=1, r=1)
    expected = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                probes = [reference_ensemble.probes[x] for x in (i, j, k)]
                expected += 0.125 * ries.reduce_instant(reference_ensemble.system, probes, obs)
    assert np.allclose(mean_reduced_observable(reference_ensemble, fam), expected, atol=1e-12)


def test_instant_limit_reduces_to_ideal(qubit_model, qubit_rdo, rng):
    """A_S-only family on a deterministic ensemble gives the Theorem-3.1 limit."""
    system, probe = qubit_model
    ens = RrdoEnsemble.from_models(system, [(1.0, probe)])
    a_s = random_hermitian(2, rng)
    fam = system_observable_family(ens, a_s)
    val = ergodic_instant_limit(ens, fam)
    _, sqrt_rho, psi_s = ries.system_gns_data(system)
    psi = decompose(qubit_rdo).psi
    expected = np.vdot(psi, vec(a_s @ sqrt_rho))
    assert abs(val - expected) < 1e-10


def test_instant_limit_needs_class(qubit_model, uncoupled_probe):
    """Out of the class the limit is still computed; the runners' theta checks fail."""
    system, _ = qubit_model
    ens = RrdoEnsemble.from_models(system, [(1.0, uncoupled_probe)])
    assert np.isfinite(ergodic_instant_limit(ens, identity_family(ens)))
    checks = _theta_checks(ens)
    assert checks["mean_in_class"] is False and checks["neumann_converges"] is False


def test_instant_monte_carlo_agrees(reference_ensemble):
    fam = probe_energy_family(reference_ensemble)
    closed = ergodic_instant_limit(reference_ensemble, fam)
    mc = ergodic_instant_monte_carlo(reference_ensemble, fam, list(range(11, 21)), 20_000)
    assert abs(mc["mean"] - closed) <= 3 * max(mc["stderr"], 1e-12)


def test_jump_family_zero_coupling(qubit_model, uncoupled_probe):
    system, _ = qubit_model
    ens = RrdoEnsemble.from_models(system, [(1.0, uncoupled_probe)])
    fam = energy_jump_family(ens)
    assert np.abs(fam.x).max() < 1e-12


def test_jump_family_needs_models():
    ens = RrdoEnsemble.from_matrices(np.array([1.0, 0.0]), [(1.0, np.diag([1.0, 0.5]))])
    with pytest.raises(EnsembleError):
        energy_jump_family(ens)


def test_jump_family_matches_flux_display(reference_ensemble):
    """Two independent dE+ formulas: jump-family ergodic limit vs Theorem display."""
    fam = energy_jump_family(reference_ensemble)
    via_jump = ergodic_instant_limit(reference_ensemble, fam)
    via_display = flux_closed_form(reference_ensemble).de_plus
    assert abs(via_jump.real - via_display) < 1e-8
    assert abs(via_jump.imag) < 1e-9


def test_jump_expectations_match_oracle(qubit_model):
    """Per-step jump expectation (reduced picture) vs brute-force chain, k = 1..4."""
    system, probe = qubit_model
    d = system.dim_s
    rho_init = system.gibbs_state()
    phi = ries.model.reduced_heisenberg_maps(ries.model.encounters(system, [probe]))[0]
    vbar = weighted_partial_trace(probe.v, d, probe.gibbs_state())
    next_term = dense_window_reduction(system, [probe], np.kron(vbar, np.eye(2)), 0, 0)
    own_term = dense_window_reduction(system, [probe], probe.v, 0, 0)
    jump_red = next_term - own_term
    w = vec(rho_init).astype(complex)
    for k in range(1, 5):
        reduced_val = np.vdot(w, vec(jump_red))
        # oracle: <alpha^k(V_(k+1))> - <alpha^k(V_k)> on the truncated chain
        op_next = embed(probe.v, [d, 2, 2], [0, 2])
        val_next = full_chain_expectation(system, [probe] * (k + 1), op_next, k, 0, 1, rho_init)
        val_own = full_chain_expectation(system, [probe] * k, probe.v, k, 0, 0, rho_init)
        oracle_val = val_next - val_own
        assert abs(reduced_val - oracle_val) < 1e-9
        w = dag(phi) @ w


def _heterogeneous_ensemble(rng) -> RrdoEnsemble:
    """Qutrit system, three qubit probes with their own V, tau and beta."""
    system = ries.SystemSpec(dim_s=3, h_s=np.diag([0.0, 1.0, 2.3]), beta_s=0.7)
    h_e = np.diag([0.0, 1.1])
    probes = [
        ries.ProbeSpec(dim_e=2, h_e=h_e, beta_e=beta, v=random_hermitian(6, rng, 0.3), tau=tau)
        for beta, tau in ((1.3, 0.7), (0.4, 1.2), (2.0, 1.6))
    ]
    return RrdoEnsemble.from_models(system, [(0.2, probes[0]), (0.5, probes[1]), (0.3, probes[2])])


def test_energy_tables_match_per_pair_reductions(rng):
    """Per-atom tables vs one window reduction per atom pair and a direct flux formula."""
    ens = _heterogeneous_ensemble(rng)
    d = 3
    jump, flux = ens.energy_tables
    fam = energy_jump_family(ens)
    ref_jump, ref_flux = per_pair_energy_tables(ens)
    for i in range(ens.n_atoms):
        for j in range(ens.n_atoms):
            assert np.abs(unvec(jump[i, j], d) - ref_jump[i, j]).max() < 1e-12
            assert np.abs(fam.x[i * ens.n_atoms + j] - ref_jump[i, j]).max() < 1e-12
        assert np.abs(unvec(flux[i], d) - ref_flux[i]).max() < 1e-12


def test_mean_operator_classified_once(rng, monkeypatch):
    """flux_closed_form, ergodic_instant_limit and the runners' theta checks share one
    mean and one classification."""
    ens = _heterogeneous_ensemble(rng)
    calls = {"mean_rdo": 0, "classify": 0}
    for name in calls:
        orig = getattr(ries.ensemble, name)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(ries.ensemble, name, counted)
    flux_closed_form(ens)
    ergodic_instant_limit(ens, identity_family(ens))
    _theta_checks(ens)
    _theta_checks(ens)
    assert calls == {"mean_rdo": 1, "classify": 1}


def _slot_dependent_family(ens, rng, l=1, r=1):
    """Window family whose B at each slot reads that slot's probe differently;
    returns the family, its A_S and its per-(slot, atom) table of B."""
    a_s = random_complex_matrix(ens.system.dim_s, rng)
    base = {e: [random_hermitian(e, rng) for _ in range(l + r + 1)] for e in {2, 3}}
    bs = [
        [(p.tau, p.beta_e, 1.0)[j % 3] * base[p.dim_e][j] + (j % 2) * p.h_e for p in ens.probes]
        for j in range(l + r + 1)
    ]
    return observable_family(ens, a_s, bs, l, r), a_s, bs


def _mixed_dimension_ensemble(rng) -> RrdoEnsemble:
    """Qutrit system; probes of dims 2, 3, 2 with their own V, tau and beta."""
    system = ries.SystemSpec(dim_s=3, h_s=np.diag([0.0, 1.0, 2.3]), beta_s=0.7)
    probes = [
        ries.ProbeSpec(
            dim_e=e, h_e=random_hermitian(e, rng), beta_e=beta, v=random_hermitian(3 * e, rng), tau=tau
        )
        for e, beta, tau in ((2, 1.3, 0.7), (3, 0.4, 1.2), (2, 2.0, 1.6))
    ]
    return RrdoEnsemble.from_models(system, [(0.2, probes[0]), (0.5, probes[1]), (0.3, probes[2])])


def test_family_rows_follow_tuple_order(rng):
    """Row t of the stack is reduce_instant of the t-th tuple of itertools.product,
    bitwise, and within 1e-12 of the dense window reduction; on three atoms with
    probe dims 2, 3, 2 and unequal p, and E[X] weights row t by its p product. The
    Monte Carlo table row is that tuple's GNS vector N psi_s."""
    ens = _mixed_dimension_ensemble(rng)
    for l, r in ((0, 0), (0, 1), (1, 0), (1, 1), (2, 1)):
        fam, a_s, bs = _slot_dependent_family(ens, rng, l, r)
        width = l + r + 1
        assert fam.x.shape == (3**width, 3, 3)
        table = fam.n_psi_table(ens.psi_s)
        expected = np.zeros((3, 3), dtype=complex)
        for t, tup in enumerate(product(range(3), repeat=width)):
            probes = [ens.probes[x] for x in tup]
            obs = ries.ObservableWindow(a_s, tuple(bs[s][x] for s, x in enumerate(tup)), l, r)
            x_t = ries.reduce_instant(ens.system, probes, obs)
            assert np.array_equal(fam.x[t], x_t)
            op = obs.a_s
            for b in obs.b_list:
                op = np.kron(op, b)
            want = dense_window_reduction(ens.system, probes, op, l, r)
            assert np.abs(x_t - want).max() < 1e-12
            assert np.abs(table[t] - left_mult_matrix(x_t) @ ens.psi_s).max() < 1e-14
            expected += np.prod(ens.probs[list(tup)]) * x_t
        assert np.abs(mean_reduced_observable(ens, fam) - expected).max() < 1e-12


def test_family_capacity_guard(qubit_model, monkeypatch):
    """The one window guard bounds the stacked reduction: 33 atoms at l + r = 3
    hold 33^4 (2 * 2)^2 entries, past ORACLE_DIM_GUARD^2 = 4096^2 (32 atoms would
    reach it exactly), and fail before any reduction work is done: no encounter is
    built, no U* stacked and no partial trace taken."""
    system, probe = qubit_model
    ens = RrdoEnsemble.from_models(system, [(1.0 / 33, probe)] * 33)
    built = []
    for name in ("step_unitaries", "dag", "weighted_partial_trace"):
        orig = getattr(ries.model, name)
        monkeypatch.setattr(ries.model, name, lambda *a, _orig=orig: built.append(a) or _orig(*a))
    with pytest.raises(ries.model.CapacityError, match="1,185,921 stacked window reductions hold 18,974,736 entries"):
        identity_window(ens, 3, 0)
    assert 32**4 * 4**2 == ries.model.ORACLE_DIM_GUARD**2 and not built
    with pytest.raises(ries.model.CapacityError, match="l \\+ r = 4"):
        identity_window(ens, 2, 2)


def test_family_builds_no_windows(wide_qutrit_model, monkeypatch):
    """A family is A_S and a per-slot table of B: the 4,096 tuples of the
    64-atom l = 1 identity family build no ObservableWindow."""
    ens = RrdoEnsemble.presampled(*wide_qutrit_model, count=64, seed=31)
    calls = []
    monkeypatch.setattr(ries.ObservableWindow, "__post_init__", lambda self: calls.append(self))
    assert len(identity_window(ens, 1, 0).x) == 4096 and not calls


def test_family_tables_are_checked(reference_ensemble):
    """A_S must be (d, d), each B (e, e) for its probe, one B per slot and atom."""
    eye = np.eye(2)
    for a_s, bs, match in (
        (np.eye(3), [[eye, eye]], "a \\(2, 2\\) A_S"),
        (eye, [[eye, np.eye(3)]], "slot 0: B has shape \\(3, 3\\), expected \\(2, 2\\)"),
        (eye, [[eye]], "one B per choice"),
        (eye, [[eye, eye]] * 2, "one B per choice"),
    ):
        with pytest.raises(ValueError, match=match):
            observable_family(reference_ensemble, a_s, bs, 0, 0)
    with pytest.raises(ValueError, match="l, r >= 0"):
        observable_family(reference_ensemble, eye, [[eye, eye]], -1, 1)


def _gns_instant_limit(ens, fam):
    """Reference: <theta, E[N] psi_s>, N the d^2 x d^2 left multiplication by X."""
    e_n = sum(
        np.prod(ens.probs[list(tup)]) * left_mult_matrix(x)
        for tup, x in zip(product(range(ens.n_atoms), repeat=fam.width), fam.x)
    )
    return np.vdot(ens.routes["theta_projector"], e_n @ ens.psi_s)


def _gns_fluxes(ens):
    """Reference: (dE+, dS+) from <theta, vec(F_i rho_s^(1/2))> on the GNS space."""
    _, flux = ens.energy_tables
    _, sqrt_rho, _ = ries.system_gns_data(ens.system)
    pairings = flux @ (right_mult_matrix(sqrt_rho).T @ ens.routes["theta_projector"].conj())
    betas = np.array([p.beta_e for p in ens.probes])
    return ens.probs @ pairings, (ens.probs * betas) @ pairings


def test_closed_forms_match_gns_matrix_formulas(reference_ensemble, rng):
    """Tr[rho_+ E[X]] and the rho_+ flux pairing equal the GNS-matrix formulas."""
    hetero = _heterogeneous_ensemble(rng)
    cases = [
        (reference_ensemble, identity_family(reference_ensemble)),
        (reference_ensemble, probe_energy_family(reference_ensemble)),
        (reference_ensemble, energy_jump_family(reference_ensemble)),
        (hetero, system_observable_family(hetero, random_complex_matrix(3, rng))),
        (hetero, energy_jump_family(hetero)),
        (hetero, _slot_dependent_family(hetero, rng)[0]),
    ]
    for ens, fam in cases:
        assert abs(ergodic_instant_limit(ens, fam) - _gns_instant_limit(ens, fam)) < 1e-12
    for ens in (reference_ensemble, hetero):
        rep = flux_closed_form(ens)
        de, ds = _gns_fluxes(ens)
        assert abs(rep.de_plus - de.real) < 1e-12 and abs(rep.ds_plus - ds.real) < 1e-12
        assert abs(rep.imag_defect - max(abs(de.imag), abs(ds.imag))) < 1e-12


def test_second_law_deterministic_beta(rng):
    for _ in range(5):
        system, probe = ries.qubit_exchange_model(
            e_s=rng.uniform(0.5, 1.5),
            e_e=rng.uniform(0.5, 1.5),
            coupling=rng.uniform(0.2, 0.8),
            tau=rng.uniform(0.5, 1.5),
            beta_s=rng.uniform(0.3, 1.5),
            beta_e=rng.uniform(0.3, 1.5),
        )
        ens = RrdoEnsemble.from_models(system, [(1.0, probe)])
        if not ens.mean_report.in_class_e:
            continue
        rep = flux_closed_form(ens)
        assert abs(rep.residual) <= 1e-8
        assert rep.imag_defect <= 1e-9


def test_flux_zero_coupling(qubit_model, uncoupled_probe):
    """A v = 0 encounter hands no energy to the chain: its flux matrix vanishes."""
    system, _ = qubit_model
    ens = RrdoEnsemble.from_models(system, [(1.0, uncoupled_probe)])
    assert np.abs(ens.energy_tables[1]).max() < 1e-12


def test_flux_monte_carlo_agrees(reference_ensemble):
    closed = flux_closed_form(reference_ensemble)
    mc = flux_monte_carlo(reference_ensemble, list(range(3, 13)), 10_000)
    assert abs(mc.de_plus - closed.de_plus) <= 3 * max(mc.de_stderr, 1e-12)
    assert abs(mc.ds_plus - closed.ds_plus) <= 3 * max(mc.ds_stderr, 1e-12)


def test_flux_monte_carlo_initial_state_independence(reference_ensemble):
    rho_a = np.diag([1.0, 0.0]).astype(complex)
    rho_b = np.diag([0.25, 0.75]).astype(complex)
    mc_a = flux_monte_carlo(reference_ensemble, list(range(5, 13)), 8000, rho_init=rho_a)
    mc_b = flux_monte_carlo(reference_ensemble, list(range(5, 13)), 8000, rho_init=rho_b)
    tol = 3 * max(np.hypot(mc_a.de_stderr, mc_b.de_stderr), 1e-10)
    assert abs(mc_a.de_plus - mc_b.de_plus) <= tol


def test_random_beta_residual_definition(qubit_model, rng):
    """With random beta_E the report's residual uses the mean inverse temperature."""
    system, probe = qubit_model
    hot = ries.ProbeSpec(dim_e=2, h_e=probe.h_e, beta_e=0.4, v=probe.v, tau=probe.tau)
    ens = RrdoEnsemble.from_models(system, [(0.5, probe), (0.5, hot)])
    rep = flux_closed_form(ens)
    assert np.isclose(mean_beta(ens), 0.5 * probe.beta_e + 0.5 * 0.4)
    assert np.isclose(rep.residual, rep.ds_plus - mean_beta(ens) * rep.de_plus)


def test_flux_report_json_fields(reference_ensemble):
    """The fluxes payload holds every field of a report but the Monte Carlo ones of a
    closed form."""
    doc = _fields(flux_closed_form(reference_ensemble))
    assert set(doc) == {"de_plus", "ds_plus", "residual", "method", "imag_defect"}
    mc_doc = _fields(flux_monte_carlo(reference_ensemble, list(range(1, 4)), 2000))
    assert {"de_stderr", "ds_stderr", "seeds"} <= set(mc_doc)


def _instant_per_seed_loop(ens, fam, seeds, n_total, burn_in):
    """Reference: one seed at a time, one np.vdot per step, on the e_1-basis atoms
    that the walk steps."""
    h, adjoints = ens.e1["frame"], ens.e1["adjoints"]
    table = fam.n_psi_table(ens.psi_s) @ h.T
    w = fam.width
    per_seed = np.empty(len(seeds), dtype=complex)
    for s, seed in enumerate(seeds):
        rng = trajectory_rng(seed)
        omega = rng.choice(ens.n_atoms, size=burn_in + n_total + w, p=ens.probs)
        u = h @ ens.psi_s
        acc = KahanAccumulator(())
        for n in range(burn_in + n_total):
            if n >= burn_in:
                flat = 0
                for i in omega[n : n + w]:
                    flat = flat * ens.n_atoms + int(i)
                acc.add(np.vdot(u, table[flat]))
            u = adjoints[omega[n]] @ u
        per_seed[s] = acc.total / n_total
    return per_seed


def _flux_per_seed_loop(ens, seeds, n_total, rho_init, burn_in):
    """Reference: (de, ds, de_stderr, ds_stderr), one seed at a time, on the e_1-basis
    maps that the walk steps."""
    h, phis_adj = ens.e1_heisenberg
    jump, flux = ens.energy_tables
    jump, flux = jump @ h.T, flux @ h.T
    ent_vecs = np.array([p.beta_e for p in ens.probes])[:, None] * flux
    de_seed = np.empty(len(seeds))
    ds_seed = np.empty(len(seeds))
    for s, seed in enumerate(seeds):
        rng = trajectory_rng(seed)
        omega = rng.choice(ens.n_atoms, size=burn_in + n_total + 1, p=ens.probs)
        w = h @ vec(rho_init)
        acc_e = KahanAccumulator(())
        acc_s = KahanAccumulator(())
        for n in range(burn_in + n_total):
            i, j = omega[n], omega[n + 1]
            if n >= burn_in:
                acc_e.add(np.vdot(w, jump[i, j]))
                acc_s.add(np.vdot(w, ent_vecs[i]))
            w = phis_adj[i] @ w
        de_seed[s] = (acc_e.total / n_total).real
        ds_seed[s] = (acc_s.total / n_total).real
    err = np.sqrt(len(seeds))
    return (
        float(de_seed.mean()),
        float(ds_seed.mean()),
        float(de_seed.std(ddof=1) / err),
        float(ds_seed.std(ddof=1) / err),
    )


def _qubit_case(reference_ensemble, rng, wide_qutrit_model):
    ens = reference_ensemble
    return ens, probe_energy_family(ens), ens.system.gibbs_state()


def _qutrit_case(reference_ensemble, rng, wide_qutrit_model):
    ens = _heterogeneous_ensemble(rng)
    a = random_complex_matrix(3, rng)
    rho = a @ dag(a)
    return ens, energy_jump_family(ens), rho / np.trace(rho)


def _other_qutrit_case(reference_ensemble, rng, wide_qutrit_model):
    return _qutrit_case(reference_ensemble, np.random.default_rng(8), wide_qutrit_model)


def _wide_case(reference_ensemble, rng, wide_qutrit_model):
    ens = RrdoEnsemble.presampled(*wide_qutrit_model, count=64, seed=31)
    return ens, identity_family(ens), ens.system.gibbs_state()


# The estimators walk k-atom words (k = 8 for the qubit instant run, 7 for its
# fluxes, 2 for the qutrit runs, 1 for 64 atoms). A word's product rounds
# differently from k single steps, so the vectors stray from the loops' by a
# few units in the last place. Both step the same e_1-basis atoms, whose every
# product keeps the conserved component bit for bit, so no stray piles up
# along it: the largest deviations measured on these tests are 1.1e-16 (the
# instant means) and 1.7e-16 (the fluxes). At k = 1 the walk is the one-step
# engine, which sums each block's pairings in one matmul and the blocks in a
# Kahan sum.
MONTE_CARLO_ATOL = 5e-15


def _assert_estimators_match_loops(ens, fam, rho_init, n_total):
    burn = min(n_total // 10, 1000)
    seeds = list(range(17, 21))
    mc = ergodic_instant_monte_carlo(ens, fam, seeds, n_total)
    ref = _instant_per_seed_loop(ens, fam, seeds, n_total, burn)
    np.testing.assert_allclose(mc["per_seed"], ref, rtol=0, atol=MONTE_CARLO_ATOL)
    np.testing.assert_allclose(mc["mean"], ref.mean(), rtol=0, atol=MONTE_CARLO_ATOL)
    seeds = list(range(23, 27))
    rep = flux_monte_carlo(ens, seeds, n_total, rho_init=rho_init)
    got = (rep.de_plus, rep.ds_plus, rep.de_stderr, rep.ds_stderr)
    want = _flux_per_seed_loop(ens, seeds, n_total, rho_init, burn)
    np.testing.assert_allclose(got, want, rtol=0, atol=MONTE_CARLO_ATOL)


@pytest.mark.parametrize(
    "case, n_totals",
    [
        (_qubit_case, (1500, 7, 1)),
        (_qutrit_case, (1500, 7, 1)),
        (_other_qutrit_case, (1500,)),
        (_wide_case, (120, 1)),
    ],
    ids=["qubit", "qutrit", "other_qutrit", "wide"],
)
def test_monte_carlo_matches_per_seed_loops(case, n_totals, reference_ensemble, rng, wide_qutrit_model):
    """The seed-batched estimators match the per-seed loops, at every run length.

    1500 steps average over several buffers of the block grid, the last one
    partial, and on the qubit (k = 8 and 7) start and end with a shorter word;
    7 steps and 1 step have no burn-in and at most one word. The 64 atoms walk
    single steps (k = 1). Loops of the plain atoms would differ from the walks by
    up to 7.6e-15 (qutrit) and 5.4e-14 (second qutrit) at 1500 steps: their own
    drift along the conserved direction.
    """
    ens, fam, rho_init = case(reference_ensemble, rng, wide_qutrit_model)
    for n_total in n_totals:
        _assert_estimators_match_loops(ens, fam, rho_init, n_total)


def _monte_carlo_k(ens, width):
    """The Monte Carlo word length: one word's tables counted as a D x D matrix per
    pairing row, max(A, 2)**(width - 1) of them."""
    return _word_length(ens.n_atoms, max(ens.n_atoms, 2) ** (width - 1) * ens.dim**2)


def test_word_length_rule(reference_ensemble, rng, wide_qutrit_model):
    """k is the largest k >= 1 with A**(k + width - 1) D**2 <= 2**12."""
    qutrit = _heterogeneous_ensemble(rng)
    wide = RrdoEnsemble.presampled(*wide_qutrit_model, count=64, seed=31)
    got = {
        "qubit instant": _monte_carlo_k(reference_ensemble, 1),
        "qubit fluxes": _monte_carlo_k(reference_ensemble, 2),
        "qutrit jump window": _monte_carlo_k(qutrit, 2),
        "wide instant": _monte_carlo_k(wide, 1),
        "wide fluxes": _monte_carlo_k(wide, 2),
    }
    assert got == {"qubit instant": 8, "qubit fluxes": 7, "qutrit jump window": 2, "wide instant": 1, "wide fluxes": 1}
    for a, width, dim in product((1, 2, 3, 5), (1, 2), (1, 2, 4, 9, 70)):
        k = _word_length(a, max(a, 2) ** (width - 1) * dim**2)
        entries = [max(a, 2) ** (j + width - 1) * dim**2 for j in (k, k + 1)]
        assert k >= 1 and (entries[0] <= 2**12 or k == 1) and entries[1] > 2**12


@pytest.mark.parametrize("case", [_qubit_case, _qutrit_case], ids=["qubit", "qutrit"])
def test_word_boundaries_match_per_seed_loops(case, reference_ensemble, rng, wide_qutrit_model):
    """Runs of k - 1, k, k + 1 and 8k + 3 steps for each estimator's k: no full word,
    exactly one, one and a one-step tail, and a burn-in (n_total // 10) that is
    not a multiple of k before eight words and a tail."""
    ens, fam, rho_init = case(reference_ensemble, rng, wide_qutrit_model)
    for width in sorted({fam.width, 2}):  # the instant family's width, and the fluxes'
        k = _monte_carlo_k(ens, width)
        assert (8 * k + 3) // 10 % k
        for n_total in (k - 1, k, k + 1, 8 * k + 3):
            if n_total >= 1:
                _assert_estimators_match_loops(ens, fam, rho_init, n_total)


def test_monte_carlo_does_not_drift(reference_ensemble):
    """On the two-atom exchange ensemble every seed's one-step walk sits still at
    the same vector, so a drift along the conserved direction shows in full: at
    10^5 steps the instant mean must stay within 1e-14 of its closed form
    (measured 5.6e-17; plain word products of the unrotated atoms drift to about
    4e-13)."""
    fam = probe_energy_family(reference_ensemble)
    mc = ergodic_instant_monte_carlo(reference_ensemble, fam, list(range(4)), 100_000)
    assert abs(mc["mean"] - ergodic_instant_limit(reference_ensemble, fam)) <= 1e-14


def test_instant_means_match_an_extended_precision_replay():
    """On the demo `instant` ensemble, whose coupled atom keeps psi_s only to 6.7e-16
    in float64, the per-seed means of seeds 0 and 1 at 2 * 10^4 steps lie within
    1e-14 of a np.clongdouble replay of the same e_1-basis atoms (measured 6.4e-17).
    A walk of the plain atoms missed it by 1.06e-12: their float rows drift along
    psi_s."""
    path = Path(__file__).resolve().parent.parent / "demos" / "configs" / "instant.json"
    ens = ensemble_from_json(json.loads(path.read_text())["ensemble"])
    fam = probe_energy_family(ens)
    seeds, n_total = [0, 1], 20_000
    mc = ergodic_instant_monte_carlo(ens, fam, seeds, n_total)["per_seed"]
    frame = (ens.e1["frame"], ens.e1["adjoints"])
    want = replay_cesaro_means(ens, frame, ens.psi_s, [fam.n_psi_table(ens.psi_s)], fam.width, seeds, n_total)
    assert np.abs(mc - want[:, 0]).max() <= 1e-14


def test_monte_carlo_seed_independent_of_batch(reference_ensemble):
    """Each listed seed's row depends only on that seed, for both estimators."""
    ens = reference_ensemble
    fam = probe_energy_family(ens)
    small = ergodic_instant_monte_carlo(ens, fam, list(range(4, 9)), 400)
    large = ergodic_instant_monte_carlo(ens, fam, list(range(4, 24)), 400)
    assert np.array_equal(small["per_seed"], large["per_seed"][:5])
    # an observable whose per-seed means differ from seed to seed
    fam = system_observable_family(ens, np.diag([0.0, 1.0]).astype(complex))
    rows = {}
    for seeds in ([5, 9], [9, 5, 7]):
        per_seed = ergodic_instant_monte_carlo(ens, fam, seeds, 400)["per_seed"]
        for seed, row in zip(seeds, per_seed):
            rows.setdefault(seed, []).append(row)
    assert all(len(set(r)) == 1 for r in rows.values())
    assert len({r[0] for r in rows.values()}) == 3
    # flux rows: a batch's mean and stderr are those of its one-seed runs, in order
    alone = {s: flux_monte_carlo(ens, [s], 400) for s in (5, 7, 9)}
    for seeds in ([5, 9], [9, 5, 7]):
        rep = flux_monte_carlo(ens, seeds, 400)
        for field in ("de", "ds"):
            means = np.array([getattr(alone[s], f"{field}_plus") for s in seeds])
            assert getattr(rep, f"{field}_plus") == means.mean()
            assert getattr(rep, f"{field}_stderr") == means.std(ddof=1) / np.sqrt(len(seeds))
    assert len({alone[s].de_plus for s in alone}) == 3
