import numpy as np
import pytest

import ries


@pytest.fixture(scope="session")
def qubit_model():
    """Reference two-level system and exchange-coupled probe, off resonance."""
    return ries.qubit_exchange_model(
        e_s=1.0, e_e=0.9, coupling=0.4, tau=1.1, beta_s=0.7, beta_e=1.3
    )


@pytest.fixture(scope="session")
def uncoupled_probe(qubit_model):
    _, probe = qubit_model
    return ries.ProbeSpec(
        dim_e=probe.dim_e, h_e=probe.h_e, beta_e=probe.beta_e, v=0.0 * probe.v, tau=probe.tau
    )


@pytest.fixture(scope="session")
def qubit_rdo(qubit_model):
    return ries.rdo_from_model(*qubit_model)


@pytest.fixture(scope="session")
def reference_ensemble(qubit_model, uncoupled_probe):
    """Two-atom ensemble with p(in-class) = 0.5: one v=0 atom, one gapped atom."""
    system, probe = qubit_model
    return ries.RrdoEnsemble.from_models(system, [(0.5, uncoupled_probe), (0.5, probe)])


@pytest.fixture(scope="session")
def wide_qutrit_model():
    """(system, base probe, ranges) of a `wide_qutrit`-like presample: qutrit system,
    qubit probe, random interaction, tau and coupling drawn per atom."""
    rng = np.random.default_rng(2024)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    v = a + a.conj().T
    system = ries.SystemSpec(dim_s=3, h_s=np.diag([0.0, 1.0, 2.3]), beta_s=0.7)
    probe = ries.ProbeSpec(
        dim_e=2, h_e=np.diag([0.0, 1.1]), beta_e=1.3, v=0.5 * v / np.linalg.norm(v, 2), tau=1.0
    )
    ranges = {"tau": {"low": 0.6, "high": 1.6}, "coupling": {"low": 0.5, "high": 1.5}}
    return system, probe, ranges


@pytest.fixture
def rng():
    return np.random.default_rng(7)
