"""Instantaneous observables, their ergodic limits, and energy/entropy fluxes.

A window family A_S x B^(-l) x ... x B^(r) is A_S and a per-slot table of
B, one B per slot and atom (:func:`observable_family`); the system, probe
energy and identity families are its one-slot case. It becomes one stack
of reduced Heisenberg system matrices X, one per tuple of ensemble atom
indices, all reduced at once, slot by slot, by
:func:`ries.model.reduce_windows`. Every ergodic limit is read off one
asymptotic state on the system, rho_+ = unvec(psi_s) unvec(theta)^*: the
limit of a family is Tr[rho_+ E[X]], with E[X] a finite weighted sum over
atom tuples. The asymptotic energy production per step comes from the
per-encounter flux matrix

    F = E_rho_E[(H_S + V) - W* (H_S + V) W]

reduced to the system, and the entropy production weights the same
matrix by the probe inverse temperature inside the ensemble expectation.
At deterministic probe temperature the two satisfy dS+ = beta_E dE+.

Every energy quantity is built from per-atom pieces in the Heisenberg
picture (:attr:`RrdoEnsemble.energy_tables`, built once per ensemble and
read by every flux function here): atom i's map
Phi_i (row i of the ensemble's ``phis`` stack), the Gibbs mean field
vbar_i = Tr_E[(1 x rho_E) V_i], and own_i, the reduction of V_i through
atom i's encounter. Then F_i = H_S + vbar_i - Phi_i(H_S) - own_i, and
the energy jump when atom j follows atom i is Phi_i(vbar_j) - own_i.

Both Monte Carlo estimators are one seed-batched Cesaro average of the
pairing of a vector, carried by adjoint one-step maps, with a table over
the next atoms: :func:`ries.ensemble.cesaro_means`, which walks their seeds
as the ensemble's other trajectory kernels walk theirs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import EnsembleError, RrdoEnsemble, cesaro_means
from .linalg import dag, unvec, vec
from .model import Encounters, reduce_windows


@dataclass
class InstantObservableFamily:
    """Stationary family of reduced window observables over atom tuples.

    `x` is the (n_atoms**width, d, d) stack of reduced Heisenberg system
    matrices X, one per atom tuple (i_(-l), ..., i_r), flattened row-major
    as ``itertools.product`` enumerates them. Stationarity (no dependence
    on the absolute time step) is built in: the same stack is used at every
    step.
    """

    l: int
    r: int
    x: np.ndarray

    @property
    def width(self) -> int:
        return self.l + self.r + 1

    def n_psi_table(self, psi_s: np.ndarray) -> np.ndarray:
        """(n_atoms**width, d^2) GNS vectors vec(X unvec(psi_s)), one per atom tuple."""
        return (self.x @ unvec(psi_s, self.x.shape[1])).transpose(0, 2, 1).reshape(len(self.x), -1)


def _require_models(ens: RrdoEnsemble) -> Encounters:
    if ens.encounters is None:
        raise EnsembleError("this operation needs model-built atoms (interaction data)")
    return ens.encounters


def observable_family(
    ens: RrdoEnsemble, a_s: np.ndarray, bs: list, l: int, r: int
) -> InstantObservableFamily:
    """Reduce A_S x B^(-l) x ... x B^(r) over every atom tuple of the window, as one stack.

    A family is `a_s` and a per-slot table of B: ``bs[j + l][i]`` is the B at
    slot j when atom i sits there. Row t of the stack reduces the t-th tuple
    of ``itertools.product``; see :func:`ries.model.reduce_windows`.
    """
    x = reduce_windows(_require_models(ens), [range(ens.n_atoms)] * (l + r + 1), a_s, bs, l, r)
    return InstantObservableFamily(l=l, r=r, x=x)


def system_observable_family(ens: RrdoEnsemble, a_s: np.ndarray) -> InstantObservableFamily:
    """Window family carrying only a system observable (l = r = 0, B = 1)."""
    return observable_family(ens, a_s, [[np.eye(p.dim_e) for p in _require_models(ens).probes]], 0, 0)


def probe_energy_family(ens: RrdoEnsemble) -> InstantObservableFamily:
    """B^(0) = probe Hamiltonian at the interacting slot."""
    enc = _require_models(ens)
    return observable_family(ens, np.eye(enc.system.dim_s), [[p.h_e for p in enc.probes]], 0, 0)


def identity_family(ens: RrdoEnsemble) -> InstantObservableFamily:
    """The system observable A_S = 1; a wider identity window is an :func:`observable_family`."""
    return system_observable_family(ens, np.eye(_require_models(ens).system.dim_s))


def mean_reduced_observable(ens: RrdoEnsemble, fam: InstantObservableFamily) -> np.ndarray:
    """E[X]: expectation of the reduced system matrix over the product measure."""
    weights = np.ones(1)
    for _ in range(fam.width):
        weights = np.outer(weights, ens.probs).ravel()
    return np.einsum("t,tij->ij", weights, fam.x)


def _rho_plus(ens: RrdoEnsemble) -> np.ndarray:
    """Asymptotic state rho_+ = unvec(psi_s) unvec(theta)^*.

    <theta, vec(X rho_s^(1/2))> = Tr[rho_+ X] for every system matrix X.
    """
    return unvec(ens.psi_s) @ dag(unvec(ens.routes["theta_projector"]))


def ergodic_instant_limit(ens: RrdoEnsemble, fam: InstantObservableFamily) -> complex:
    """Closed-form ergodic limit Tr[rho_+ E[X]] (= <theta, E[N] psi_s> on the GNS space)."""
    return complex(np.trace(_rho_plus(ens) @ mean_reduced_observable(ens, fam)))


def _mean_stderr(per_seed: np.ndarray) -> tuple:
    """Mean over seeds and its standard error (inf for a single seed)."""
    n = per_seed.size
    stderr = per_seed.std(ddof=1) / np.sqrt(n) if n > 1 else np.inf
    return per_seed.mean(), stderr


def ergodic_instant_monte_carlo(
    ens: RrdoEnsemble, fam: InstantObservableFamily, seeds, n_total: int
) -> dict:
    """Cesaro average of <psi_s, M(w_1)...M(w_n) N(w_(n+1),...) psi_s>, one per seed.

    Carries (M_1 ... M_n)^* psi_s by the adjoints of the atom matrices and
    pairs it with the stacked N psi_s table of the family; see
    :func:`ries.ensemble.cesaro_means` for the seed batching and the burn-in.
    """
    frame = (ens.e1["frame"], ens.e1["adjoints"])
    per_seed = cesaro_means(ens, frame, ens.psi_s, [fam.n_psi_table(ens.psi_s)], fam.width, seeds, n_total)[:, 0]
    mean, stderr = _mean_stderr(per_seed)
    return {"mean": complex(mean), "stderr": float(np.abs(stderr)), "per_seed": per_seed}


def energy_jump_family(ens: RrdoEnsemble) -> InstantObservableFamily:
    """Window family of the per-step total-energy jump (l = 0, r = 1).

    The jump at step m is the evolved difference of consecutive interaction
    operators; slot +1 enters through its Gibbs mean field because that
    probe has not yet interacted.
    """
    d = _require_models(ens).system.dim_s
    jump, _ = ens.energy_tables
    # row i * n_atoms + j holds unvec(jump[i, j]); a column-major vec reshapes to X^T
    x = jump.reshape(-1, d, d).transpose(0, 2, 1)
    return InstantObservableFamily(l=0, r=1, x=x)


@dataclass
class FluxReport:
    de_plus: float
    ds_plus: float
    residual: float  # ds_plus - E[beta] de_plus
    method: str  # "closed_form" | "monte_carlo"
    imag_defect: float = 0.0
    de_stderr: float | None = None
    ds_stderr: float | None = None
    seeds: int | None = None


def mean_beta(ens: RrdoEnsemble) -> float:
    _require_models(ens)
    return float(ens.probs @ ens.betas)


def flux_closed_form(ens: RrdoEnsemble) -> FluxReport:
    """Asymptotic energy and entropy production per step, from the displays.

    Both are steady-state values Tr[rho_+ E[...]] of the flux matrices; the
    entropy display carries beta_E inside the expectation, evaluated per
    joint atom draw.
    """
    _require_models(ens)
    _, flux = ens.energy_tables
    # Tr[rho_+ F_i] = vec(F_i) . vec(rho_+^T) for every atom at once
    pairings = flux @ vec(_rho_plus(ens).T)
    de = ens.probs @ pairings
    ds = (ens.probs * ens.betas) @ pairings
    imag = max(abs(de.imag), abs(ds.imag))
    residual = ds.real - mean_beta(ens) * de.real
    return FluxReport(
        de_plus=float(de.real),
        ds_plus=float(ds.real),
        residual=float(residual),
        method="closed_form",
        imag_defect=float(imag),
    )


def flux_monte_carlo(
    ens: RrdoEnsemble, seeds, n_total: int, rho_init: np.ndarray | None = None
) -> FluxReport:
    """Flux estimates by ergodic averaging of the jump observables.

    Runs in the Heisenberg picture so any initial system state is allowed:
    vec(rho_init) is carried by the adjoint maps Phi_i^* and paired, in one
    pass per seed, with two tables over consecutive atom pairs (i, j): the
    energy jump of atom i followed by j, and atom i's beta-weighted flux
    matrix. See :func:`ries.ensemble.cesaro_means` for the seed batching and the burn-in.
    """
    system = _require_models(ens).system
    if rho_init is None:
        rho_init = system.gibbs_state()
    # Heisenberg picture: plain system matrices, no GNS transport
    jump, flux = ens.energy_tables
    ent = np.repeat(ens.betas[:, None] * flux, ens.n_atoms, axis=0)  # indexed by (i, j)
    tables = [jump.reshape(ent.shape), ent]
    means = cesaro_means(ens, ens.e1_heisenberg, vec(rho_init), tables, 2, seeds, n_total)
    de, de_err = _mean_stderr(means[:, 0].real)
    ds, ds_err = _mean_stderr(means[:, 1].real)
    return FluxReport(
        de_plus=float(de),
        ds_plus=float(ds),
        residual=float(ds - mean_beta(ens) * de),
        method="monte_carlo",
        de_stderr=float(de_err),
        ds_stderr=float(ds_err),
        seeds=len(means),
    )
