import math

import numpy as np
import pytest
from dense_reference import (
    choi_matrix,
    dense_chain_unitary,
    dense_window_reduction,
    embed,
    gibbs_product,
    model_to_json,
)

import ries
from ries.linalg import dag, random_hermitian, unvec, vec
from ries.model import (
    CapacityError,
    _gibbs_states,
    check_capacity,
    encounters,
    full_chain_expectation,
    model_from_json,
    reduced_heisenberg_maps,
    step_unitaries,
    weighted_partial_trace,
)


# ------------------------------------------------- dense reference contraction
def _dense_expectation(system, steps, op, m, l, r, rho_init):
    probes = steps[: m + r]
    dims = [system.dim_s] + [p.dim_e for p in probes]
    u = dense_chain_unitary(system, probes, m, dims)
    o_full = embed(op, dims, [0] + [m + j for j in range(-l, r + 1)])
    rho_tot = np.kron(rho_init, gibbs_product(probes))
    return np.trace(rho_tot @ dag(u) @ o_full @ u)


def _mixed_chain(rng):
    """Qutrit system; probes of dims 2, 3, 2, 3 with distinct tau and beta."""
    system = ries.SystemSpec(dim_s=3, h_s=random_hermitian(3, rng), beta_s=0.6)
    probes = [
        ries.ProbeSpec(
            dim_e=e, h_e=random_hermitian(e, rng), beta_e=beta, v=random_hermitian(3 * e, rng), tau=tau
        )
        for e, beta, tau in ((2, 0.9, 0.7), (3, 1.4, 1.3), (2, 0.3, 0.45), (3, 1.1, 0.95))
    ]
    return system, probes


def _complex_matrix(n, rng):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_gibbs_properties(rng):
    h = random_hermitian(3, rng)
    rho, mixed, cold = _gibbs_states(h, [0.8, 0.0, 500.0])
    assert np.isclose(np.trace(rho).real, 1.0)
    assert np.linalg.eigvalsh(rho).min() > 0
    # beta = 0 gives the maximally mixed state
    assert np.allclose(mixed, np.eye(3) / 3)
    # large beta concentrates on the ground state without overflow
    w, u = np.linalg.eigh(h)
    ground = u[:, 0]
    assert np.isclose(np.vdot(ground, cold @ ground).real, 1.0, atol=1e-10)
    # a spec's Gibbs state is the one-row case
    system = ries.SystemSpec(dim_s=3, h_s=h, beta_s=0.8)
    assert np.array_equal(system.gibbs_state(), rho)


def test_gibbs_rejects_bad_beta(rng):
    with pytest.raises(ValueError):
        _gibbs_states(np.eye(2), [-1.0])
    with pytest.raises(ValueError):
        _gibbs_states(np.eye(2), [np.inf])


def test_spec_validation():
    with pytest.raises(ValueError):
        ries.SystemSpec(dim_s=2, h_s=np.array([[0.0, 1.0], [0.0, 0.0]]), beta_s=1.0)
    for tau in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError):
            ries.ProbeSpec(dim_e=2, h_e=np.eye(2), beta_e=1.0, v=np.eye(4), tau=tau)


def test_step_unitary_is_unitary(qubit_model):
    u = step_unitaries(qubit_model[0], [qubit_model[1]])[0]
    assert np.allclose(u @ dag(u), np.eye(4), atol=1e-12)


def test_weighted_partial_trace_identity(rng):
    rho = _gibbs_states(random_hermitian(3, rng), [1.0])[0]
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    out = weighted_partial_trace(np.kron(a, b), 2, rho)
    assert np.allclose(out, a * np.trace(rho @ b))


def test_heisenberg_map_unital_and_cp(qubit_model):
    phi = reduced_heisenberg_maps(encounters(qubit_model[0], [qubit_model[1]]))[0]
    # unital: Phi(1) = 1
    assert np.allclose(unvec(phi @ vec(np.eye(2)), 2), np.eye(2), atol=1e-12)
    # completely positive: Choi matrix positive semidefinite
    w = np.linalg.eigvalsh(choi_matrix(phi, 2))
    assert w.min() > -1e-12
    # hermiticity preserving
    a = random_hermitian(2, np.random.default_rng(0))
    out = unvec(phi @ vec(a), 2)
    assert np.allclose(out, dag(out), atol=1e-12)


def test_heisenberg_map_matches_definition(rng):
    """The einsum map equals Phi(A) = Tr_E[(1 x rho_E) U* (A x 1) U] on random A."""
    system = ries.SystemSpec(dim_s=3, h_s=random_hermitian(3, rng), beta_s=0.6)
    probe = ries.ProbeSpec(
        dim_e=2, h_e=random_hermitian(2, rng), beta_e=1.1, v=random_hermitian(6, rng), tau=0.8
    )
    phi = reduced_heisenberg_maps(encounters(system, [probe]))[0]
    u = step_unitaries(system, [probe])[0]
    rho_e = probe.gibbs_state()
    for _ in range(4):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        expected = weighted_partial_trace(dag(u) @ np.kron(a, np.eye(2)) @ u, 3, rho_e)
        assert np.abs(unvec(phi @ vec(a), 3) - expected).max() < 1e-12


def test_rdo_fixes_psi_s(qubit_rdo):
    assert np.allclose(qubit_rdo.m @ qubit_rdo.psi_s, qubit_rdo.psi_s, atol=1e-12)
    assert np.isclose(np.linalg.norm(qubit_rdo.psi_s), 1.0)


def test_oracle_identity_random_draws(rng):
    """<psi_S, M_1...M_m A_S psi_S> equals the truncated-chain expectation."""
    for _ in range(5):
        system, probe = ries.qubit_exchange_model(
            e_s=rng.uniform(0.5, 1.5),
            e_e=rng.uniform(0.5, 1.5),
            coupling=rng.uniform(0.1, 0.8),
            tau=rng.uniform(0.3, 2.0),
            beta_s=rng.uniform(0.2, 2.0),
            beta_e=rng.uniform(0.2, 2.0),
        )
        rdo = ries.rdo_from_model(system, probe)
        _, sqrt_rho, psi_s = ries.system_gns_data(system)
        rho_s = sqrt_rho @ sqrt_rho
        for m in (1, 3):
            a_s = random_hermitian(2, rng)
            lhs = np.vdot(psi_s, np.linalg.matrix_power(rdo.m, m) @ vec(a_s @ sqrt_rho))
            rhs = ries.full_chain_oracle(
                system, [probe] * m, ries.ObservableWindow.system_only(a_s, 2), m, rho_s
            )
            assert abs(lhs - rhs) < 1e-10


def test_oracle_capacity_guard(qubit_model):
    system, probe = qubit_model
    obs = ries.ObservableWindow.system_only(np.eye(2), 2)
    with pytest.raises(CapacityError):
        ries.full_chain_oracle(system, [probe] * 12, obs, 12, system.gibbs_state())
    # the message states the estimated cost: chain dim, peak bytes, factor applications;
    # with r = 1 the probe after step m is traced out of the operator, never evolved, so
    # only the m = 12 evolved legs count: m = 11 (dim 4096) is within the guard
    future = ries.ObservableWindow(a_s=np.eye(2), b_list=(np.eye(2), np.eye(2)), l=0, r=1)
    with pytest.raises(CapacityError) as exc:
        ries.full_chain_oracle(system, [probe] * 13, future, 12, system.gibbs_state())
    message = str(exc.value)
    assert "chain dimension 8192" in message
    assert f"{1.35 * 8192**2 * 16 / 2**20:,.0f} MiB (1.35 dense 8192x8192 arrays)" in message
    # the chain grows one probe per step and applies only its encounters: 12 products
    assert f"m = 12 encounters, one product W_k psi each, the last writing dim^2 = {8192**2:,} entries" in message


@pytest.mark.parametrize("m", [63, 64, 2000])
def test_capacity_guard_counts_past_int64(m):
    """A chain of m qubit probes has dimension 2**(m + 1), counted in Python ints: an int64
    product wraps to 0 from m = 63 on and would pass the guard, and the estimate in the
    message, which a float overflows from about 2**1024 on, still formats."""
    with pytest.raises(CapacityError, match=f"^chain dimension {2 ** (m + 1)} exceeds guard 4096"):
        check_capacity([2] + [2] * m)


def test_oracle_heterogeneous_chain(qubit_model, uncoupled_probe, rng):
    """Mixed probe sequences: reduced product equals the oracle."""
    system, probe = qubit_model
    rdo1 = ries.rdo_from_model(system, probe)
    rdo0 = ries.rdo_from_model(system, uncoupled_probe)
    _, sqrt_rho, psi_s = ries.system_gns_data(system)
    rho_s = sqrt_rho @ sqrt_rho
    steps = [probe, uncoupled_probe, probe]
    word = rdo1.m @ rdo0.m @ rdo1.m
    a_s = random_hermitian(2, rng)
    lhs = np.vdot(psi_s, word @ vec(a_s @ sqrt_rho))
    rhs = ries.full_chain_oracle(
        system, steps, ries.ObservableWindow.system_only(a_s, 2), 3, rho_s
    )
    assert abs(lhs - rhs) < 1e-10


def test_reduce_instant_oracle_window(qubit_model, rng):
    system, probe = qubit_model
    rdo = ries.rdo_from_model(system, probe)
    _, sqrt_rho, psi_s = ries.system_gns_data(system)
    rho_s = system.gibbs_state()
    obs = ries.ObservableWindow(
        a_s=random_hermitian(2, rng),
        b_list=tuple(random_hermitian(2, rng) for _ in range(3)),
        l=1,
        r=1,
    )
    n_mat = ries.reduce_instant(system, [probe] * 3, obs)
    for m in (3, 4):
        word = np.linalg.matrix_power(rdo.m, m - 2)  # m - l - 1 factors
        lhs = np.vdot(psi_s, word @ vec(n_mat @ sqrt_rho))
        rhs = ries.full_chain_oracle(system, [probe] * (m + 1), obs, m, rho_s)
        assert abs(lhs - rhs) < 1e-10


def test_reduce_instant_future_slot_is_scalar(qubit_model, rng):
    """A probe that has not interacted enters only through its Gibbs mean."""
    system, probe = qubit_model
    b_future = random_hermitian(2, rng)
    obs = ries.ObservableWindow(
        a_s=random_hermitian(2, rng), b_list=(np.eye(2), b_future), l=0, r=1
    )
    n_mat = ries.reduce_instant(system, [probe, probe], obs)
    scalar = np.trace(probe.gibbs_state() @ b_future)
    obs0 = ries.ObservableWindow(a_s=obs.a_s, b_list=(np.eye(2),), l=0, r=0)
    n0 = ries.reduce_instant(system, [probe], obs0)
    assert np.allclose(n_mat, scalar * n0, atol=1e-12)


def test_full_chain_matches_dense_reference_on_unequal_legs(rng):
    """Encounters on the grown chain and one accumulated free evolution per kept window
    leg equal the dense embedded chain, which evolves every leg at every step, on legs
    of dims 3, 2 and 3."""
    system, probes = _mixed_chain(rng)
    probes.append(
        ries.ProbeSpec(dim_e=2, h_e=random_hermitian(2, rng), beta_e=0.8, v=random_hermitian(6, rng), tau=0.6)
    )
    a = _complex_matrix(3, rng)
    rho_init = a @ dag(a) / np.trace(a @ dag(a))
    # (1, 0, 2) and (1, 0, 3): idle legs of unequal dims join after the one step;
    # (4, 0, 0): all four legs coupled, chain dim 108; (4, 3, 0) and (4, 2, 1): every
    # kept leg E_n carries its free evolution over the steps n + 1 .. 4, of distinct tau
    cases = ((1, 0, 0), (2, 1, 1), (3, 1, 1), (3, 2, 0), (1, 0, 2), (1, 0, 3), (4, 0, 0), (4, 3, 0), (4, 2, 1))
    for m, l, r in cases:
        dims = [3] + [p.dim_e for p in probes[m - l - 1 : m + r]]  # window probes
        op = _complex_matrix(int(np.prod(dims)), rng)  # not Hermitian
        got = full_chain_expectation(system, probes, op, m, l, r, rho_init)
        want = _dense_expectation(system, probes, op, m, l, r, rho_init)
        assert abs(got - want) <= 1e-12


def _product_window(system, window, l, r, rng):
    """A random non-Hermitian product window A_S x B^(-l) x ... x B^(r) on the
    window probes, and its dense operator."""
    obs = ries.ObservableWindow(
        a_s=_complex_matrix(system.dim_s, rng),
        b_list=tuple(_complex_matrix(p.dim_e, rng) for p in window),
        l=l,
        r=r,
    )
    op = obs.a_s
    for b in obs.b_list:
        op = np.kron(op, b)
    return obs, op


def test_window_reduction_matches_dense_reference_on_unequal_legs(rng):
    system, probes = _mixed_chain(rng)
    window = probes[:3]  # slots -1, 0, +1 with dims 2, 3, 2
    obs, op = _product_window(system, window, 1, 1, rng)
    got = ries.reduce_instant(system, window, obs)
    want = dense_window_reduction(system, window, op, 1, 1)
    assert np.abs(got - want).max() <= 1e-12


def test_oracle_builds_every_factor(qubit_model, uncoupled_probe, rng, monkeypatch):
    """An m-step oracle call builds its step unitaries as one stack per distinct probe
    dimension, never one stack per step, and one free evolution per kept
    window leg E_n (m - l <= n < m): l in all, 0 for a system-only observable. A leg
    traced out needs none, as Tr_E[g x g*] = Tr_E[x], and a leg not yet coupled,
    in its Gibbs state, none either. A stack of n observables shares them."""
    calls = {"step_unitaries": 0, "expm_hermitian": 0}
    for name in calls:
        original = getattr(ries.model, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(ries.model, name, counted)
    system, probe = qubit_model
    qubit_steps = [probe, uncoupled_probe, probe, uncoupled_probe, probe]
    mixed_system, mixed_steps = _mixed_chain(rng)  # probe dims 2, 3, 2, 3
    # (system, steps, m, l, r, distinct probe dims among steps[:m])
    cases = (
        (system, qubit_steps, 4, 1, 1, 1),
        (system, qubit_steps, 5, 0, 0, 1),
        (mixed_system, mixed_steps, 4, 3, 0, 2),
        (mixed_system, mixed_steps, 3, 2, 1, 2),
        (mixed_system, mixed_steps, 4, 0, 0, 2),
        (mixed_system, mixed_steps[:1], 1, 0, 0, 1),
    )
    for sys_, steps, m, l, r, n_dims in cases:
        d = sys_.dim_s
        b_list = tuple(random_hermitian(p.dim_e, rng) for p in steps[m - l - 1 : m + r])
        for a_s in (random_hermitian(d, rng), np.array([random_hermitian(d, rng) for _ in range(3)])):
            calls.update(step_unitaries=0, expm_hermitian=0)
            obs = ries.ObservableWindow(a_s=a_s, b_list=b_list, l=l, r=r)
            ries.full_chain_oracle(sys_, steps, obs, m, sys_.gibbs_state())
            assert calls["step_unitaries"] == n_dims
            # each stacked build is itself one expm_hermitian; the rest are free evolutions
            assert calls["expm_hermitian"] - calls["step_unitaries"] == l


def test_stacked_oracle_equals_one_call_per_operator(rng):
    """A stack shares one chain evolution; every entry is bitwise the one-operator
    value, which stays a Python complex. Qutrit S with qubit and qutrit probes, a
    non-Gibbs start and an l = r = 1 window."""
    system, probes = _mixed_chain(rng)
    a = _complex_matrix(3, rng)
    rho_init = a @ dag(a) / np.trace(a @ dag(a))
    a_s = np.array([random_hermitian(3, rng) for _ in range(4)])
    b_list = (random_hermitian(2, rng), random_hermitian(3, rng), random_hermitian(2, rng))
    windowed = ries.ObservableWindow(a_s=a_s, b_list=b_list, l=1, r=1)  # probes 1..3 at m = 2
    system_only = ries.ObservableWindow.system_only(a_s, 2)
    for obs, m in ((windowed, 2), (system_only, 3)):
        got = ries.full_chain_oracle(system, probes, obs, m, rho_init)
        assert got.shape == (4,) and got.dtype == complex
        one_each = [ries.ObservableWindow(a, obs.b_list, obs.l, obs.r) for a in a_s]
        single = [ries.full_chain_oracle(system, probes, one, m, rho_init) for one in one_each]
        assert all(type(value) is complex for value in single)
        assert np.array_equal(got, np.array(single))
    # arbitrary (n, D, D) window operators on S x E_1 x E_2 x E_3 (dims 3, 2, 3, 2)
    ops = np.array([_complex_matrix(36, rng) for _ in range(3)])
    got = full_chain_expectation(system, probes, ops, 2, 1, 1, rho_init)
    single = [full_chain_expectation(system, probes, op, 2, 1, 1, rho_init) for op in ops]
    assert all(type(value) is complex for value in single)
    assert np.array_equal(got, np.array(single))


def test_sequence_readout_equals_one_call_per_m(qubit_model, rng):
    """A sequence of step counts is read out of one evolution to its largest m, and
    each entry is bitwise the one-m call: on the qubit chain for m = 1..8, for one
    observable and for a stack."""
    system, probe = qubit_model
    steps, ms = [probe] * 8, range(1, 9)
    a = _complex_matrix(2, rng)
    rho_init = a @ dag(a) / np.trace(a @ dag(a))
    one = ries.ObservableWindow.system_only(random_hermitian(2, rng), 2)
    stack = ries.ObservableWindow.system_only(np.array([random_hermitian(2, rng) for _ in range(3)]), 2)
    for obs, shape in ((one, (8,)), (stack, (8, 3))):
        got = ries.full_chain_oracle(system, steps, obs, ms, rho_init)
        assert got.shape == shape and got.dtype == complex
        single = np.array([ries.full_chain_oracle(system, steps, obs, m, rho_init) for m in ms])
        assert np.array_equal(got, single)
        # a subsequence reads the same entries, and a one-element sequence keeps its axis
        assert np.array_equal(ries.full_chain_oracle(system, steps, obs, [2, 5, 8], rho_init), single[[1, 4, 7]])
        assert np.array_equal(ries.full_chain_oracle(system, steps, obs, [4], rho_init), single[3:4])


def test_sequence_readout_on_unequal_legs(rng):
    """On the qutrit chain with qubit and qutrit probes, for windows with l = 0..3 and
    r = 0..1, kept legs with their free evolutions and idle legs traced against their
    Gibbs states, every m of a sequence is bitwise its one-m call, for one arbitrary
    operator and for a stack. The probe dims repeat with period 2, so one window
    operator fits m and m + 2."""
    system, probes = _mixed_chain(rng)
    _, more = _mixed_chain(rng)  # dims 2, 3, 2, 3 again, other h, beta, v and tau
    probes += more
    a = _complex_matrix(3, rng)
    rho_init = a @ dag(a) / np.trace(a @ dag(a))
    for l in range(4):
        for r in range(2):
            ms = (l + 1, l + 3)
            size = 3 * math.prod(p.dim_e for p in probes[: l + 1 + r])
            for op in (_complex_matrix(size, rng), np.array([_complex_matrix(size, rng) for _ in range(2)])):
                got = full_chain_expectation(system, probes, op, ms, l, r, rho_init)
                single = [full_chain_expectation(system, probes, op, m, l, r, rho_init) for m in ms]
                assert got.shape == (2, *op.shape[:-2])
                assert np.array_equal(got, np.array(single)), (l, r)


def test_sequence_builds_and_applies_each_encounter_once(qubit_model, uncoupled_probe, rng, monkeypatch):
    """One sequence call builds its step unitaries as one stack per distinct probe
    dimension, and its isometries W_k = U_k (1 x g_k) in one build, one (n, d e^2, d)
    stack per probe dimension, and applies max(m) encounters, each as one product
    W_k psi on the S leg whose result is the purified vector at that step's chain size
    (d_A, d e_k^2, e_1^2 ... e_(k-1)^2), however many m it reads out."""
    calls, builds, products = {"step_unitaries": 0}, [], []
    original = ries.model.step_unitaries

    def counted(*args):
        calls["step_unitaries"] += 1
        return original(*args)

    class Recorded(np.ndarray):
        """An isometry stack whose products record the shape of their result."""

        def __matmul__(self, other):
            out = np.asarray(self) @ other
            products.append(out.shape)
            return out

    build = ries.model._chain_isometries

    def recorded(enc):
        ws = build(enc)
        builds.append({e: w.shape for e, w in ws.items()})
        return {e: w.view(Recorded) for e, w in ws.items()}

    monkeypatch.setattr(ries.model, "step_unitaries", counted)
    monkeypatch.setattr(ries.model, "_chain_isometries", recorded)
    system, probe = qubit_model
    mixed_system, mixed_steps = _mixed_chain(rng)
    # (system, steps, ms); on the mixed chain (dims 2, 3, 2, 3) the m of a sequence
    # share their window's probe dim
    cases = (
        (system, [probe, uncoupled_probe] * 4, range(1, 9)),
        (system, [probe] * 8, [3, 8]),
        (mixed_system, mixed_steps, [1, 3]),
        (mixed_system, mixed_steps, [2, 4]),
        (mixed_system, mixed_steps, [1]),
    )
    for sys_, steps, ms in cases:
        calls["step_unitaries"] = 0
        builds.clear()
        products.clear()
        obs = ries.ObservableWindow.system_only(random_hermitian(sys_.dim_s, rng), steps[ms[-1] - 1].dim_e)
        ries.full_chain_oracle(sys_, steps, obs, ms, sys_.gibbs_state())
        d, es = sys_.dim_s, [p.dim_e for p in steps[: ms[-1]]]
        assert calls["step_unitaries"] == len(set(es))
        assert builds == [{e: (es.count(e), d * e * e, d) for e in sorted(set(es))}]
        assert products == [(d, d * e * e, math.prod(f * f for f in es[:k])) for k, e in enumerate(es)]


def test_full_chain_matches_dense_reference_for_indefinite_and_pure_starts(rng):
    """The start rho_init = V diag(lam) V* enters the purified chain as V |lam|^(1/2),
    weighted by sign(lam) at readout: an indefinite Hermitian rho_init (eigenvalues of
    both signs) and a rank-1 one (zero eigenvalues) match the dense chain, on the qutrit
    chain with qubit and qutrit probes, for an l = 2, r = 1 window among others."""
    system, probes = _mixed_chain(rng)
    q, _ = np.linalg.qr(_complex_matrix(3, rng))
    indefinite = (q * np.array([0.9, -0.6, 0.3])) @ dag(q)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    pure = np.outer(v, v.conj()) / np.vdot(v, v).real
    for rho_init in (indefinite, pure):
        for m, l, r in ((3, 2, 1), (2, 1, 0), (2, 0, 2), (4, 0, 0)):
            dims = [3] + [p.dim_e for p in probes[m - l - 1 : m + r]]  # window probes
            op = _complex_matrix(int(np.prod(dims)), rng)
            got = full_chain_expectation(system, probes, op, m, l, r, rho_init)
            want = _dense_expectation(system, probes, op, m, l, r, rho_init)
            assert abs(got - want) <= 1e-12, (m, l, r)


def test_oracle_rejects_non_hermitian_rho_init(qubit_model):
    system, probe = qubit_model
    obs = ries.ObservableWindow.system_only(np.eye(2), 2)
    with pytest.raises(ValueError, match="rho_init is not Hermitian"):
        ries.full_chain_oracle(system, [probe] * 2, obs, 2, np.array([[0.5, 0.1], [0.0, 0.5]]))


@pytest.mark.parametrize(
    "ms, l, r, match",
    [
        ([], 0, 0, "increasing sequence"),
        ([2, 2], 0, 0, "increasing sequence"),
        ([3, 1, 4], 0, 0, "increasing sequence"),
        ([0, 1], 0, 0, "reaches probe 0 < 1"),
        ([-1], 0, 0, "reaches probe -1 < 1"),
        ([1, 2], 1, 0, "reaches probe 0 < 1"),
        ([2, 4], 0, 1, "need 5 probe specs, got 4"),
        (range(1, 6), 0, 0, "need 5 probe specs, got 4"),
    ],
    ids=["empty", "repeated", "not_increasing", "zero", "negative", "slot_before_chain", "idle_past_chain", "past_chain"],
)
def test_bad_step_sequences_raise(qubit_model, ms, l, r, match):
    system, probe = qubit_model
    op = np.eye(2 * 2 ** (l + r + 1), dtype=complex)
    with pytest.raises(ValueError, match=match):
        full_chain_expectation(system, [probe] * 4, op, ms, l, r, system.gibbs_state())


def test_reduce_window_capacity_guard(qubit_model, rng):
    """l + r = 4 is past the window guard; l + r = 3 reduces, and matches the
    dense reduction."""
    system, probe = qubit_model
    obs, _ = _product_window(system, [probe] * 5, 2, 2, rng)
    with pytest.raises(CapacityError, match="l \\+ r = 4"):
        ries.reduce_instant(system, [probe] * 5, obs)
    obs, op = _product_window(system, [probe] * 4, 2, 1, rng)
    want = dense_window_reduction(system, [probe] * 4, op, 2, 1)
    assert np.abs(ries.reduce_instant(system, [probe] * 4, obs) - want).max() <= 1e-12


def test_model_json_roundtrip(qubit_model):
    system, probe = qubit_model
    doc = model_to_json(system, probe)
    system2, probe2 = model_from_json(doc)
    assert np.allclose(system2.h_s, system.h_s)
    assert np.allclose(probe2.v, probe.v)
    assert probe2.tau == probe.tau and system2.beta_s == system.beta_s
    with pytest.raises(ValueError):
        model_from_json({"system": doc["system"]})
