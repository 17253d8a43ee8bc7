"""Repeated interaction quantum systems via reduced dynamics operators.

Subpackages:

- ``linalg``: vectorization conventions and dense helpers,
- ``model``: finite system-probe models, reductions, full-chain oracle,
- ``rdo``: reduced dynamics operators, spectra, decompositions,
- ``ensemble``: random products, ergodic limits, decay and Lyapunov rates,
- ``thermo``: instantaneous observables and energy/entropy fluxes,
- ``cli``: configuration-driven experiment runner.

The package namespace re-exports the most used entry points; everything
else is reached through its submodule.
"""

from .ensemble import (
    RrdoEnsemble,
    decay_estimator,
    lyapunov,
    mean_rdo,
    simulate_forward,
    simulate_reverse,
    theta_routes,
)
from .model import (
    ObservableWindow,
    ProbeSpec,
    SystemSpec,
    full_chain_expectation,
    full_chain_oracle,
    model_from_json,
    qubit_exchange_model,
    rdo_from_model,
    reduce_instant,
    system_gns_data,
)
from .rdo import classify, ideal_asymptotics, validate
from .thermo import ergodic_instant_limit, flux_closed_form, flux_monte_carlo

__version__ = "0.1.0"

__all__ = [
    "ObservableWindow",
    "ProbeSpec",
    "RrdoEnsemble",
    "SystemSpec",
    "classify",
    "decay_estimator",
    "ergodic_instant_limit",
    "flux_closed_form",
    "flux_monte_carlo",
    "full_chain_expectation",
    "full_chain_oracle",
    "ideal_asymptotics",
    "lyapunov",
    "mean_rdo",
    "model_from_json",
    "qubit_exchange_model",
    "rdo_from_model",
    "reduce_instant",
    "simulate_forward",
    "simulate_reverse",
    "system_gns_data",
    "theta_routes",
    "validate",
]
