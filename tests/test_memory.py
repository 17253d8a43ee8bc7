"""Peak memory of the trajectory kernels at the benchmark's sizes.

The blocked kernels hold stacks of block products and buffers of vectors
that the one-step loops they replaced did not. Each kernel's tracemalloc
peak over one call must stay within 1.25x of the peak those one-step loops
reached on the same call, recorded below in bytes (numpy 2.4, Python 3.11).
The call follows a warm-up call, which fills the ensemble's cache with the
walk's word tables, so a matrix kernel's tables count as ensemble state; the
Monte Carlo means build theirs within every call. The sizes are the full
sizes of the `mc_qubit` and `wide_qutrit` benchmark workloads.
The stacked window reduction must stay within the peak per tuple that its
capacity guard states, for a window (l + r >= 1) and for one slot, a
full-chain oracle call (one m, or every m of one evolution, on the qubit chain
and on a chain of qubit and qutrit probes, with a system-only observable or a
window with kept legs) within the 1 + 1/e^2 dense arrays that its guard's
comment states, e the last probe's dimension, plus a margin of 0.1, and the
ideal asymptotics within the arrays per power that the guard states for a
stack of RDO powers.
"""

import tracemalloc

import numpy as np
import pytest
from dense_reference import identity_window

import ries
from ries.linalg import random_hermitian
from ries.rdo import ideal_asymptotics
from ries.thermo import (
    ergodic_instant_monte_carlo,
    flux_monte_carlo,
    identity_family,
    probe_energy_family,
)

ONE_STEP_LOOP_PEAK = {
    "mc_qubit-decay": 190299,
    "mc_qubit-fluxes": 224712,
    "mc_qubit-forward": 402228,
    "mc_qubit-instant": 222700,
    "mc_qubit-lyapunov": 192153,
    "mc_qubit-reverse": 122228,
    "wide_qutrit-decay": 53180,
    "wide_qutrit-fluxes": 2311088,
    "wide_qutrit-forward": 74574,
    "wide_qutrit-instant": 117771,
}
ALLOWED_GROWTH = 1.25


def _calls(workload, ens):
    """(kernel, call) pairs of one workload pass, at its full sizes and seed counts."""
    seeds = list(range(100, 132))
    if workload == "mc_qubit":
        fam = probe_energy_family(ens)
        return {
            "forward": lambda: ries.simulate_forward(ens, seeds[:4], 20_000, 1000),
            "decay": lambda: ries.decay_estimator(ens, seeds[:8], 1500),
            "reverse": lambda: ries.simulate_reverse(ens, seeds[:4], 6000, 10),
            "lyapunov": lambda: ries.lyapunov(ens, seeds[:3], 10_000, 10),
            "instant": lambda: ergodic_instant_monte_carlo(ens, fam, seeds[:4], 10_000),
            "fluxes": lambda: flux_monte_carlo(ens, seeds[:4], 10_000),
        }
    fam = identity_family(ens)
    return {
        "fluxes": lambda: flux_monte_carlo(ens, seeds, 4000),
        "forward": lambda: ries.simulate_forward(ens, seeds[:2], 4000, 1000),
        "decay": lambda: ries.decay_estimator(ens, seeds[:4], 500),
        "instant": lambda: ergodic_instant_monte_carlo(ens, fam, seeds[:8], 4000),
    }


def peak_bytes(call) -> int:
    """tracemalloc peak of one call, after a warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def ensembles(reference_ensemble, wide_qutrit_model):
    # 64 presampled atoms (GNS dim 9), as in `wide_qutrit`
    wide = ries.RrdoEnsemble.presampled(*wide_qutrit_model, count=64, seed=31)
    return {"mc_qubit": reference_ensemble, "wide_qutrit": wide}


@pytest.mark.parametrize("key", sorted(ONE_STEP_LOOP_PEAK))
def test_kernel_peak_memory_within_one_step_loops(key, ensembles):
    workload, kernel = key.split("-")
    peak = peak_bytes(_calls(workload, ensembles[workload])[kernel])
    assert peak <= ALLOWED_GROWTH * ONE_STEP_LOOP_PEAK[key], f"{key}: {peak} bytes"


WINDOW_ARRAYS_PER_TUPLE = 3.5  # the factors `ries.model.check_capacity` states: l + r >= 1,
ONE_SLOT_ARRAYS_PER_TUPLE = 4.5  # and l = r = 0


def test_window_family_peak_within_guard_estimate(ensembles):
    """The 4,096-tuple l = 1 identity family on 64 atoms (d = 3, e = 2) peaks at or
    below the guard's stated arrays per tuple, each (d e)^2 complex entries."""
    wide = ensembles["wide_qutrit"]
    n, de = wide.n_atoms**2, wide.system.dim_s * 2
    peak = peak_bytes(lambda: identity_window(wide, 1, 0))
    assert peak <= WINDOW_ARRAYS_PER_TUPLE * 16 * n * de**2, f"{peak / (16 * n * de**2):.2f} arrays"


def test_one_slot_family_peak_within_guard_estimate(qubit_model):
    """A one-slot identity family (l = r = 0) on 1,024 qubit atoms (d = e = 2), whose
    tuples are the atoms, peaks at or below the guard's stated arrays per tuple."""
    ens = ries.RrdoEnsemble.presampled(
        *qubit_model, {"tau": {"low": 0.6, "high": 1.6}, "coupling": {"low": 0.5, "high": 1.5}},
        count=1024, seed=3,
    )
    unit = 16 * ens.n_atoms * 4**2
    peak = peak_bytes(lambda: identity_family(ens))
    assert peak <= ONE_SLOT_ARRAYS_PER_TUPLE * unit, f"{peak / unit:.2f} arrays"


# the peak that `ries.model.check_capacity` states for one oracle call on a chain whose last
# probe is a qubit: 1 + 1/2^2 dense dim x dim arrays, plus a margin of 0.1
ORACLE_ARRAYS = 1.35


def _mixed_chain(qubit_model, rng):
    """The qubit system with qubit and qutrit probes alternating, 7 of them (dim 864),
    each qutrit probe with its own random h_e and v."""
    system, qubit = qubit_model
    qutrit = [
        ries.ProbeSpec(dim_e=3, h_e=random_hermitian(3, rng), beta_e=0.8, v=random_hermitian(6, rng), tau=0.9)
        for _ in range(3)
    ]
    return system, [qubit, qutrit[0], qubit, qutrit[1], qubit, qutrit[2], qubit], 864


def test_oracle_peak_within_guard_estimate(qubit_model, rng):
    """An m = 8 oracle call on the qubit chain (dim 512) with two observables, as in
    `oracle_chain`, and an m = 7 call on the qubit system with qubit and qutrit probes
    (dim 864), each probe dimension joining the chain on its own, peak at or below the
    stated dense dim x dim arrays."""
    system, probe = qubit_model
    for system, steps, dim in ((system, [probe] * 8, 512), _mixed_chain(qubit_model, rng)):
        a_s = np.array([random_hermitian(2, rng) for _ in range(2)])
        obs = ries.ObservableWindow.system_only(a_s, steps[-1].dim_e)
        unit = 16 * dim**2
        peak = peak_bytes(lambda: ries.full_chain_oracle(system, steps, obs, len(steps), system.gibbs_state()))
        assert peak <= ORACLE_ARRAYS * unit, f"dim {dim}: {peak / unit:.3f} arrays"


@pytest.mark.parametrize("l, r", [(1, 0), (1, 1), (3, 0)])
def test_oracle_window_peak_within_guard_estimate(qubit_model, rng, l, r):
    """An m = 8 oracle call on the qubit chain (dim 512) with two observables on a
    window that keeps l >= 1 evolved probe legs peaks at or below the same stated
    arrays: the readout copies one slice of the chain vector at a time."""
    system, probe = qubit_model
    dim = 512
    a_s = np.array([random_hermitian(2, rng) for _ in range(2)])
    obs = ries.ObservableWindow(a_s, tuple(random_hermitian(2, rng) for _ in range(l + r + 1)), l, r)
    unit = 16 * dim**2
    peak = peak_bytes(lambda: ries.full_chain_oracle(system, [probe] * (8 + r), obs, 8, system.gibbs_state()))
    assert peak <= ORACLE_ARRAYS * unit, f"{peak / unit:.3f} arrays"


def test_oracle_sequence_peak_within_guard_estimate(qubit_model, rng):
    """One oracle call read out after every m = 1..8 of one evolution, on the qubit
    chain with two observables, peaks at or below the same stated arrays: a readout
    holds no chain-sized array past its own step."""
    system, probe = qubit_model
    dim = 512
    a_s = np.array([random_hermitian(2, rng) for _ in range(2)])
    obs = ries.ObservableWindow.system_only(a_s, 2)
    unit = 16 * dim**2
    peak = peak_bytes(
        lambda: ries.full_chain_oracle(system, [probe] * 8, obs, range(1, 9), system.gibbs_state())
    )
    assert peak <= ORACLE_ARRAYS * unit, f"{peak / unit:.3f} arrays"


ARRAYS_PER_POWER = 1.2  # the factor `ries.model.check_capacity` states for a stack of RDO powers


@pytest.mark.parametrize("n_max", [10_000, 40_000])
def test_ideal_peak_within_guard_estimate(qubit_rdo, n_max):
    """The ideal asymptotics of the 4 x 4 qubit RDO peak at or below the guard's
    stated arrays per power, each D^2 complex entries."""
    unit = 16 * n_max * qubit_rdo.dim**2
    peak = peak_bytes(lambda: ideal_asymptotics(qubit_rdo, n_max))
    assert peak <= ARRAYS_PER_POWER * unit, f"{peak / unit:.3f} arrays"
