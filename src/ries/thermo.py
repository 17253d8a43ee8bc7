"""Instantaneous observables, their ergodic limits, and energy/entropy fluxes.

A window family maps tuples of ensemble atom indices to reduced matrices
on the GNS space; its ergodic limit in the asymptotic state is
<theta, E[N] psi_s>, with E[N] a finite weighted sum over atom tuples.
The asymptotic energy production per step comes from the per-encounter
flux matrix

    F = E_rho_E[(H_S + V) - W* (H_S + V) W]

reduced to the system, and the entropy production weights the same
matrix by the probe inverse temperature inside the ensemble expectation.
At deterministic probe temperature the two satisfy dS+ = beta_E dE+.

Every energy quantity is built from per-atom pieces in the Heisenberg
picture (:func:`energy_tables`): atom i's map Phi_i, kept on its RDO, the
Gibbs mean field vbar_i = Tr_E[(1 x rho_E) V_i], and own_i, the reduction
of V_i through atom i's encounter. Then F_i = H_S + vbar_i - Phi_i(H_S) - own_i,
and the energy jump when atom j follows atom i is Phi_i(vbar_j) - own_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product

import numpy as np

from .ensemble import EnsembleError, RrdoEnsemble, theta_closed_form, trajectory_rng
from .linalg import KahanAccumulator, dag, left_mult_matrix, right_mult_matrix, unvec, vec
from .model import (
    ObservableWindow,
    ProbeSpec,
    SystemSpec,
    check_capacity,
    reduce_instant,
    reduce_window_operator,
    reduced_heisenberg_map,
    system_gns_data,
    weighted_partial_trace,
)


@dataclass
class InstantObservableFamily:
    """Stationary family of reduced window observables over atom tuples.

    `reduced` maps (i_(-l), ..., i_r) atom-index tuples to the d^2 x d^2
    GNS matrix of the corresponding instantaneous observable. Stationarity
    (no dependence on the absolute time step) is built in: the same map is
    used at every step.
    """

    l: int
    r: int
    reduced: dict
    name: str = ""

    @property
    def width(self) -> int:
        return self.l + self.r + 1

    def n_psi_table(self, psi_s: np.ndarray, n_atoms: int) -> np.ndarray:
        """Stacked N psi_s vectors, indexed by flattened atom tuple."""
        d2 = psi_s.size
        table = np.empty((n_atoms**self.width, d2), dtype=complex)
        for flat, tup in enumerate(iter_product(range(n_atoms), repeat=self.width)):
            table[flat] = self.reduced[tup] @ psi_s
        return table

    @staticmethod
    def flatten_tuple(tup, n_atoms: int) -> int:
        flat = 0
        for i in tup:
            flat = flat * n_atoms + int(i)
        return flat


def _require_models(ens: RrdoEnsemble) -> SystemSpec:
    if not ens.has_models:
        raise EnsembleError("this operation needs model-built atoms (interaction data)")
    return ens.system


def observable_family(
    ens: RrdoEnsemble,
    builder,
    l: int,
    r: int,
    name: str = "",
) -> InstantObservableFamily:
    """Reduce builder(probes) over every atom tuple of the window.

    `builder` receives the tuple of ProbeSpecs at slots -l..r and returns an
    ObservableWindow; the result is cached per tuple.
    """
    system = _require_models(ens)
    check_capacity([system.dim_s], l + r)
    reduced = {}
    for tup in iter_product(range(ens.n_atoms), repeat=l + r + 1):
        probes = [ens.atoms[i].probe for i in tup]
        obs = builder(tuple(probes))
        reduced[tup] = reduce_instant(system, probes, obs)
    return InstantObservableFamily(l=l, r=r, reduced=reduced, name=name)


def system_observable_family(ens: RrdoEnsemble, a_s: np.ndarray) -> InstantObservableFamily:
    """Window family carrying only a system observable (l = r = 0, B = 1)."""

    def build(probes):
        return ObservableWindow.system_only(a_s, probes[0].dim_e)

    return observable_family(ens, build, 0, 0, name="system_observable")


def probe_energy_family(ens: RrdoEnsemble) -> InstantObservableFamily:
    """B^(0) = probe Hamiltonian at the interacting slot."""
    system = _require_models(ens)

    def build(probes):
        return ObservableWindow(
            a_s=np.eye(system.dim_s), b_list=(probes[0].h_e,), l=0, r=0
        )

    return observable_family(ens, build, 0, 0, name="probe_energy")


def identity_family(ens: RrdoEnsemble, l: int = 0, r: int = 0) -> InstantObservableFamily:
    system = _require_models(ens)

    def build(probes):
        return ObservableWindow(
            a_s=np.eye(system.dim_s),
            b_list=tuple(np.eye(p.dim_e) for p in probes),
            l=l,
            r=r,
        )

    return observable_family(ens, build, l, r, name="identity")


def mean_reduced_observable(ens: RrdoEnsemble, fam: InstantObservableFamily) -> np.ndarray:
    """E[N]: expectation of the reduced window matrix over the product measure."""
    d2 = ens.dim
    out = np.zeros((d2, d2), dtype=complex)
    for tup, n_mat in fam.reduced.items():
        weight = float(np.prod([ens.probs[i] for i in tup]))
        out += weight * n_mat
    return out


def ergodic_instant_limit(ens: RrdoEnsemble, fam: InstantObservableFamily) -> complex:
    """Closed-form ergodic limit <theta, E[N] psi_s>."""
    theta = theta_closed_form(ens)
    return complex(np.vdot(theta, mean_reduced_observable(ens, fam) @ ens.psi_s))


def ergodic_instant_monte_carlo(
    ens: RrdoEnsemble,
    fam: InstantObservableFamily,
    master_seed: int,
    n_total: int,
    n_seeds: int = 20,
    burn_in: int | None = None,
) -> dict:
    """Cesaro average of <psi_s, M(w_1)...M(w_n) N(w_(n+1),...) psi_s> over seeds.

    The first `burn_in` steps are excluded from the average; the transient
    of the mean decays geometrically, so this removes the O(1/n) bias of
    the plain Cesaro estimator without touching its variance.
    """
    if burn_in is None:
        burn_in = min(n_total // 10, 1000)
    table = fam.n_psi_table(ens.psi_s, ens.n_atoms)
    w = fam.width
    per_seed = np.empty(n_seeds, dtype=complex)
    for s in range(n_seeds):
        rng = trajectory_rng(master_seed, s)
        omega = ens.sample_indices(rng, burn_in + n_total + w)
        u = ens.psi_s.copy()  # (M_1 ... M_n)^* psi_s
        acc = KahanAccumulator(())
        for n in range(burn_in + n_total):
            if n >= burn_in:
                flat = InstantObservableFamily.flatten_tuple(
                    omega[n : n + w], ens.n_atoms
                )
                acc.add(np.vdot(u, table[flat]))
            u = ens.adjoints[omega[n]] @ u
        per_seed[s] = acc.mean
    mean = per_seed.mean()
    stderr = per_seed.std(ddof=1) / np.sqrt(n_seeds) if n_seeds > 1 else np.inf
    return {"mean": complex(mean), "stderr": float(np.abs(stderr)), "per_seed": per_seed}


def _atom_energy_terms(
    system: SystemSpec, probe: ProbeSpec, phi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(vbar, own, F) of one atom with Heisenberg map `phi`, as system matrices.

    vbar = Tr_E[(1 x rho_E) V] is the Gibbs mean field of the interaction,
    own = Tr_E[(1 x rho_E) W* V W] its reduction through the encounter, and
    F = H_S + vbar - Phi(H_S) - own the per-encounter flux matrix.
    """
    d = system.dim_s
    vbar = weighted_partial_trace(probe.v, d, probe.gibbs_state())
    own = reduce_window_operator(system, [probe], probe.v, 0, 0)
    flux = system.h_s + vbar - unvec(phi @ vec(system.h_s), d) - own
    return vbar, own, flux


def atom_flux_matrix(system: SystemSpec, probe: ProbeSpec) -> np.ndarray:
    """Per-encounter energy flux matrix on the system.

    E_rho_E[(H_S + V) - W* (H_S + V) W]; its steady-state expectation is the
    energy handed to the chain per step.
    """
    return _atom_energy_terms(system, probe, reduced_heisenberg_map(system, probe))[2]


def energy_tables(ens: RrdoEnsemble) -> tuple[np.ndarray, np.ndarray]:
    """Per-atom energy-jump and flux tables, as column-major system vectors.

    ``jump[i, j] = vec(Phi_i(vbar_j) - own_i)`` is the total-energy jump of a
    step drawn from atom i followed by atom j; ``flux[i] = vec(F_i)`` is atom
    i's flux matrix. One reduction per atom builds both.
    """
    system = _require_models(ens)
    phis = np.stack([a.rdo.phi for a in ens.atoms])
    terms = [_atom_energy_terms(system, a.probe, a.rdo.phi) for a in ens.atoms]
    vbar, own, flux = (np.stack([vec(x) for x in column]) for column in zip(*terms))
    jump = np.einsum("iab,jb->ija", phis, vbar) - own[:, None, :]
    return jump, flux


def energy_jump_family(ens: RrdoEnsemble) -> InstantObservableFamily:
    """Window family of the per-step total-energy jump (l = 0, r = 1).

    The jump at step m is the evolved difference of consecutive interaction
    operators; slot +1 enters through its Gibbs mean field because that
    probe has not yet interacted.
    """
    d = _require_models(ens).dim_s
    jump, _ = energy_tables(ens)
    reduced = {
        (i, j): left_mult_matrix(unvec(jump[i, j], d))
        for i, j in iter_product(range(ens.n_atoms), repeat=2)
    }
    return InstantObservableFamily(l=0, r=1, reduced=reduced, name="energy_jump")


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

    def to_json(self) -> dict:
        out = {
            "de_plus": self.de_plus,
            "ds_plus": self.ds_plus,
            "residual": self.residual,
            "method": self.method,
            "imag_defect": self.imag_defect,
        }
        if self.de_stderr is not None:
            out["de_stderr"] = self.de_stderr
            out["ds_stderr"] = self.ds_stderr
            out["seeds"] = self.seeds
        return out


def _betas(ens: RrdoEnsemble) -> np.ndarray:
    return np.array([a.probe.beta_e for a in ens.atoms])


def mean_beta(ens: RrdoEnsemble) -> float:
    _require_models(ens)
    return float(ens.probs @ _betas(ens))


def flux_closed_form(ens: RrdoEnsemble) -> FluxReport:
    """Asymptotic energy and entropy production per step, from the displays.

    Both are steady-state pairings <theta, E[...] psi_s>; the entropy display
    carries beta_E inside the expectation, evaluated per joint atom draw.
    """
    system = _require_models(ens)
    theta = theta_closed_form(ens)
    _, flux = energy_tables(ens)
    _, sqrt_rho, _ = system_gns_data(system)
    # <theta, vec(F_i rho_s^(1/2))> for every atom at once
    pairings = flux @ (right_mult_matrix(sqrt_rho).T @ theta.conj())
    de = ens.probs @ pairings
    ds = (ens.probs * _betas(ens)) @ pairings
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
    ens: RrdoEnsemble,
    master_seed: int,
    n_total: int,
    n_seeds: int = 20,
    rho_init: np.ndarray | None = None,
    burn_in: int | None = None,
) -> FluxReport:
    """Flux estimates by ergodic averaging of the jump observables.

    Runs in the Heisenberg picture so any initial system state is allowed;
    the energy route accumulates the two-slot jump family, the entropy route
    the beta-weighted per-encounter flux matrices. The first `burn_in`
    steps are excluded to remove the geometric transient's O(1/n) bias.
    """
    if burn_in is None:
        burn_in = min(n_total // 10, 1000)
    system = _require_models(ens)
    if rho_init is None:
        rho_init = system.gibbs_state()
    # Heisenberg picture: plain system matrices, no GNS transport
    jump, flux = energy_tables(ens)
    ent_vecs = _betas(ens)[:, None] * flux
    phis_adj = np.stack([dag(a.rdo.phi) for a in ens.atoms])

    de_seed = np.empty(n_seeds)
    ds_seed = np.empty(n_seeds)
    for s in range(n_seeds):
        rng = trajectory_rng(master_seed, s)
        omega = ens.sample_indices(rng, burn_in + n_total + 1)
        w = vec(rho_init).astype(complex)  # row state: value = <w, vec(obs)>
        acc_e = KahanAccumulator(())
        acc_s = KahanAccumulator(())
        for n in range(burn_in + n_total):
            i, j = omega[n], omega[n + 1]
            if n >= burn_in:
                acc_e.add(np.vdot(w, jump[i, j]))
                acc_s.add(np.vdot(w, ent_vecs[i]))
            w = phis_adj[i] @ w
        de_seed[s] = acc_e.mean.real
        ds_seed[s] = acc_s.mean.real
    de = float(de_seed.mean())
    ds = float(ds_seed.mean())
    de_err = float(de_seed.std(ddof=1) / np.sqrt(n_seeds)) if n_seeds > 1 else np.inf
    ds_err = float(ds_seed.std(ddof=1) / np.sqrt(n_seeds)) if n_seeds > 1 else np.inf
    return FluxReport(
        de_plus=de,
        ds_plus=ds,
        residual=float(ds - mean_beta(ens) * de),
        method="monte_carlo",
        de_stderr=de_err,
        ds_stderr=ds_err,
        seeds=n_seeds,
    )
