"""Random reduced dynamics processes over finite-support ensembles.

An ensemble is a finite probability distribution over RDOs sharing one
invariant vector psi_s; iid draws from it generate the random product
Psi_n = M(w_1) ... M(w_n). This module provides the mean operator and
the closed-form asymptotic vector theta (two independent routes), seeded
forward/reverse trajectory simulation, decay-rate estimation for the
strictly-contracting parts, and Lyapunov exponent estimation.

Randomness is counter-based (Philox) and fully reproducible: the
trajectory stream for (master_seed, trajectory_index) never depends on
how many other trajectories ran.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import rdo as rdo_mod
from .linalg import KahanAccumulator, dag, spectral_norm
from .model import ProbeSpec, SystemSpec, model_from_json, rdo_from_model, system_gns_data
from .rdo import (
    GnsCertificate,
    PowerBoundCertificate,
    Rdo,
    SpectralReport,
    classify,
    decompose,
    power_bound_certificate,
)
from .serialize import matrix_from_json, vector_to_json

NEUMANN_TERM_TOL = 1e-14
NEUMANN_MAX_TERMS = 10_000


class EnsembleError(Exception):
    pass


def trajectory_rng(master_seed: int, trajectory_index: int = 0) -> np.random.Generator:
    """Counter-based generator for one trajectory; independent across indices."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(trajectory_index,))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class EnsembleAtom:
    prob: float
    rdo: Rdo
    probe: ProbeSpec | None = None


class RrdoEnsemble:
    """Finite-support distribution over RDOs with a common invariant vector."""

    def __init__(self, atoms: list[EnsembleAtom], system: SystemSpec | None = None):
        if not atoms:
            raise EnsembleError("ensemble needs at least one atom")
        total = sum(a.prob for a in atoms)
        if abs(total - 1.0) > 1e-12:
            raise EnsembleError(f"probabilities sum to {total}, expected 1")
        if any(a.prob < 0 for a in atoms):
            raise EnsembleError("probabilities must be nonnegative")
        psi_s = atoms[0].rdo.psi_s
        for a in atoms[1:]:
            if not np.allclose(a.rdo.psi_s, psi_s, atol=1e-12):
                raise EnsembleError("all atoms must share psi_s")
        self.atoms = list(atoms)
        self.system = system
        self.psi_s = psi_s
        self.probs = np.array([a.prob for a in atoms])
        self.matrices = np.stack([a.rdo.m for a in atoms])
        self.adjoints = np.stack([dag(a.rdo.m) for a in atoms])
        self.decompositions = [decompose(a.rdo) for a in atoms]
        self.mq = np.stack([d.m_q for d in self.decompositions])
        self.mq_adjoints = np.stack([dag(d.m_q) for d in self.decompositions])
        self.psi_omega = np.stack([d.psi for d in self.decompositions])
        self.in_class = [classify(a.rdo).in_class_e for a in atoms]

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    @property
    def has_models(self) -> bool:
        """Whether every atom carries its probe and Heisenberg map (model-built)."""
        return self.system is not None and all(
            a.probe is not None and a.rdo.phi is not None for a in self.atoms
        )

    @cached_property
    def mean(self) -> Rdo:
        """E[M], computed once per ensemble (see :func:`mean_rdo`)."""
        return mean_rdo(self, check_class=False)

    @cached_property
    def mean_report(self) -> SpectralReport:
        """Spectral class of E[M], computed once per ensemble."""
        return classify(self.mean)

    def sample_indices(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.choice(self.n_atoms, size=n, p=self.probs)

    @classmethod
    def from_models(
        cls, system: SystemSpec, weighted_probes: list[tuple[float, ProbeSpec]]
    ) -> "RrdoEnsemble":
        atoms = [
            EnsembleAtom(prob=p, rdo=rdo_from_model(system, probe), probe=probe)
            for p, probe in weighted_probes
        ]
        return cls(atoms, system=system)

    @classmethod
    def from_matrices(
        cls, psi_s: np.ndarray, weighted_matrices: list[tuple[float, np.ndarray]]
    ) -> "RrdoEnsemble":
        atoms = [
            EnsembleAtom(prob=p, rdo=rdo_mod.validate(m, psi_s)) for p, m in weighted_matrices
        ]
        return cls(atoms)

    @classmethod
    def presampled(
        cls,
        system: SystemSpec,
        base_probe: ProbeSpec,
        ranges: dict,
        count: int = 32,
        seed: int = 0,
    ) -> "RrdoEnsemble":
        """Realize continuous parameter distributions as `count` equal-weight atoms.

        `ranges` maps any of "tau", "beta", "coupling" to {"low": a, "high": b};
        "coupling" scales the interaction operator.
        """
        rng = trajectory_rng(seed, 0)
        weighted = []
        for _ in range(count):
            tau = base_probe.tau
            beta = base_probe.beta_e
            scale = 1.0
            if "tau" in ranges:
                tau = rng.uniform(ranges["tau"]["low"], ranges["tau"]["high"])
            if "beta" in ranges:
                beta = rng.uniform(ranges["beta"]["low"], ranges["beta"]["high"])
            if "coupling" in ranges:
                scale = rng.uniform(ranges["coupling"]["low"], ranges["coupling"]["high"])
            probe = ProbeSpec(
                dim_e=base_probe.dim_e,
                h_e=base_probe.h_e,
                beta_e=beta,
                v=scale * base_probe.v,
                tau=tau,
            )
            weighted.append((1.0 / count, probe))
        return cls.from_models(system, weighted)


def mean_rdo(ens: RrdoEnsemble, check_class: bool = True) -> Rdo:
    """Probability-weighted mean of the ensemble's RDOs.

    If some atom with positive probability has a simple gapped eigenvalue 1,
    the mean must too; with `check_class` this is asserted.
    """
    mean = np.einsum("k,kij->ij", ens.probs, ens.matrices)
    if all(isinstance(a.rdo.certificate, GnsCertificate) for a in ens.atoms):
        cert: GnsCertificate | PowerBoundCertificate = ens.atoms[0].rdo.certificate
    else:
        cert = power_bound_certificate([mean], np.random.default_rng(0))
    out = Rdo(m=mean, psi_s=ens.psi_s, certificate=cert)
    if check_class and any(p > 0 and ic for p, ic in zip(ens.probs, ens.in_class)):
        if not classify(out).in_class_e:
            raise EnsembleError("mean operator left the simple-gap class; theorem check failed")
    return out


def mean_mq_and_psi(ens: RrdoEnsemble) -> tuple[np.ndarray, np.ndarray]:
    e_mq = np.einsum("k,kij->ij", ens.probs, ens.mq)
    e_psi = np.einsum("k,ki->i", ens.probs, ens.psi_omega)
    return e_mq, e_psi


def theta_routes(ens: RrdoEnsemble) -> dict:
    """Asymptotic vector theta by two independent formulas.

    Route "projector": adjoint of the spectral projection of E[M] at 1,
    applied to psi_s. Route "neumann": sum_k (E[M_Q]^*)^k E[psi], truncated
    when the term norm drops below 1e-14, with a geometric tail bound from
    spr(E[M_Q]).
    """
    theta_proj = decompose(ens.mean).psi

    e_mq, e_psi = mean_mq_and_psi(ens)
    spr = float(np.abs(np.linalg.eigvals(e_mq)).max())
    if spr >= 1.0:
        raise EnsembleError(f"spr(E[M_Q]) = {spr} >= 1; Neumann series diverges")
    e_mq_adj = dag(e_mq)
    term = e_psi.copy()
    theta_series = np.zeros_like(e_psi)
    tail_bound = np.inf
    for k in range(NEUMANN_MAX_TERMS):
        theta_series = theta_series + term
        term = e_mq_adj @ term
        tnorm = np.linalg.norm(term)
        if tnorm < NEUMANN_TERM_TOL:
            tail_bound = tnorm / (1.0 - spr)
            break
    return {
        "theta_projector": theta_proj,
        "theta_neumann": theta_series,
        "mismatch": float(np.linalg.norm(theta_proj - theta_series)),
        "spr_mean_mq": spr,
        "neumann_tail_bound": float(tail_bound),
    }


def theta_closed_form(ens: RrdoEnsemble, tol: float = 1e-10) -> np.ndarray:
    if not ens.mean_report.in_class_e:
        raise EnsembleError("theta needs the mean operator in the simple-gap class")
    routes = theta_routes(ens)
    if routes["mismatch"] > tol:
        raise EnsembleError(f"theta routes disagree by {routes['mismatch']:.3e}")
    theta = routes["theta_projector"]
    if abs(np.vdot(ens.psi_s, theta) - 1.0) > 1e-10:
        raise EnsembleError("theta lost its normalization against psi_s")
    return theta


@dataclass
class Trajectory:
    seed: int
    max_invariance_drift: float


@dataclass
class ErgodicReport:
    checkpoints: np.ndarray
    distances: np.ndarray  # Frobenius distance to |psi_s><theta| at checkpoints
    theta: np.ndarray


def simulate_forward(
    ens: RrdoEnsemble, seed: int, n_total: int, checkpoint_every: int = 1000
) -> tuple[Trajectory, ErgodicReport]:
    """Simulate Psi_n = M(w_1)...M(w_n) and its Cesaro mean along one trajectory.

    At each checkpoint N the Frobenius distance between the running average
    (1/N) sum Psi_n and the rank-one limit |psi_s><theta| is recorded.
    """
    rng = trajectory_rng(seed)
    omega = ens.sample_indices(rng, n_total)
    theta = theta_closed_form(ens)
    limit = np.outer(ens.psi_s, theta.conj())

    d = ens.dim
    psi_prod = np.eye(d, dtype=complex)
    acc = KahanAccumulator((d, d))
    checkpoints, distances = [], []
    drift = 0.0
    for n in range(1, n_total + 1):
        psi_prod = psi_prod @ ens.matrices[omega[n - 1]]
        acc.add(psi_prod)
        if n % checkpoint_every == 0 or n == n_total:
            checkpoints.append(n)
            distances.append(np.linalg.norm(acc.mean - limit, "fro"))
            drift = max(drift, float(np.linalg.norm(psi_prod @ ens.psi_s - ens.psi_s)))
    traj = Trajectory(seed=seed, max_invariance_drift=drift)
    report = ErgodicReport(
        checkpoints=np.array(checkpoints), distances=np.array(distances), theta=theta
    )
    return traj, report


def simulate_theta(ens: RrdoEnsemble, seed: int, n_total: int) -> dict:
    """Cesaro mean of the Markov process theta_n = M^*(w_n) theta_(n-1)."""
    rng = trajectory_rng(seed)
    omega = ens.sample_indices(rng, n_total)
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
    return {
        "cesaro_theta": acc.mean,
        "final_theta": th,
        "max_overlap_error": float(max_overlap_err),
        "n": n_total,
    }


@dataclass
class DecayEstimate:
    log_norms: np.ndarray  # log ||M_Q(w_1)...M_Q(w_n)||
    alpha: float
    n0: int
    log_c: float

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha,
            "n0": self.n0,
            "log_c": self.log_c,
            "final_log_norm": float(self.log_norms[-1]),
        }


def decay_estimator(ens: RrdoEnsemble, seed: int, n_total: int) -> DecayEstimate:
    """Norm series of the strictly-contracting word, with fitted decay rate.

    Needs at least one atom in the simple-gap class; the fitted envelope
    C e^(-alpha n) comes from a log-linear fit on the second half of the
    series, and n0 is the first index from which the envelope bounds the
    whole tail.
    """
    if not any(ic and p > 0 for ic, p in zip(ens.in_class, ens.probs)):
        raise EnsembleError("decay estimation needs an in-class atom with positive probability")
    rng = trajectory_rng(seed)
    omega = ens.sample_indices(rng, n_total)
    d = ens.dim
    word = np.eye(d, dtype=complex)
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

    finite = np.isfinite(log_norms)
    ns = np.arange(1, n_total + 1)
    fit_from = max(n_total // 2, 1)
    sel = finite & (ns >= fit_from)
    if sel.sum() < 2:  # word hit exact zero early; decay is as fast as it gets
        return DecayEstimate(log_norms=log_norms, alpha=np.inf, n0=1, log_c=0.0)
    slope, intercept = np.polyfit(ns[sel], log_norms[sel], 1)
    alpha = -float(slope)
    # envelope C e^(-alpha n) with C inflated by the fit's residual spread,
    # so n0 marks genuine pre-asymptotic excess, not fit noise
    resid = log_norms[sel] - (intercept + slope * ns[sel])
    log_c = float(intercept + 3.0 * resid.std() + 1e-9)
    envelope = log_c - alpha * ns
    violations = np.nonzero(log_norms[finite] > envelope[finite])[0]
    n0 = int(ns[finite][violations.max()]) + 1 if violations.size else 1
    return DecayEstimate(log_norms=log_norms, alpha=alpha, n0=n0, log_c=log_c)


@dataclass
class ReverseReport:
    checkpoints: np.ndarray
    residuals: np.ndarray  # ||Phi_n - |psi_s><eta_n||
    sigma_ratios: np.ndarray  # sigma_2 / sigma_1 of Phi_n
    eta: np.ndarray  # final partial sum of eta_inf

    def to_json(self) -> dict:
        return {
            "checkpoints": [int(n) for n in self.checkpoints],
            "residuals": [float(x) for x in self.residuals],
            "sigma_ratios": [float(x) for x in self.sigma_ratios],
            "eta": vector_to_json(self.eta),
        }


def simulate_reverse(
    ens: RrdoEnsemble, seed: int, n_total: int, checkpoint_every: int = 10
) -> ReverseReport:
    """Reverse-order product Phi_n = M(w_n)...M(w_1) and its rank-one limit.

    eta_inf is accumulated incrementally as
    sum_k M_Q^*(w_1)...M_Q^*(w_(k-1)) psi(w_k); the residual to
    |psi_s><eta| and the singular-value ratio of Phi_n both decay
    exponentially when decay of the M_Q words holds.
    """
    if not any(ic and p > 0 for ic, p in zip(ens.in_class, ens.probs)):
        raise EnsembleError("reverse-product analysis needs an in-class atom")
    rng = trajectory_rng(seed)
    omega = ens.sample_indices(rng, n_total)
    d = ens.dim
    phi = np.eye(d, dtype=complex)
    lead = np.eye(d, dtype=complex)  # M_Q^*(w_1)...M_Q^*(w_(k-1))
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
    return ReverseReport(
        checkpoints=np.array(checkpoints),
        residuals=np.array(residuals),
        sigma_ratios=np.array(ratios),
        eta=eta,
    )


@dataclass
class LyapunovEstimate:
    gamma_1: float
    gamma_2: float
    gap: float

    def to_json(self) -> dict:
        return {
            "gamma_1": self.gamma_1,
            "gamma_2": self.gamma_2,
            "gap": self.gap,
        }


def lyapunov(
    ens: RrdoEnsemble,
    seed: int,
    n_total: int,
    reorth_every: int = 10,
) -> LyapunovEstimate:
    """Lyapunov spectrum of the random product via periodic re-orthonormalization.

    Works on transposed factors so that appending a factor on the right of
    Psi_n becomes a left multiplication; QR steps accumulate the log
    stretching factors. The sigma_2 / sigma_1 diagnostic of the reverse
    product belongs to :func:`simulate_reverse`.
    """
    rng = trajectory_rng(seed)
    omega = ens.sample_indices(rng, n_total)
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
    return LyapunovEstimate(
        gamma_1=float(exponents[0]),
        gamma_2=float(exponents[1]) if d > 1 else -np.inf,
        gap=float(exponents[0] - exponents[1]) if d > 1 else np.inf,
    )


def ensemble_from_json(doc: dict) -> RrdoEnsemble:
    """Build an ensemble from its JSON document.

    {"atoms": [{"p": w, "model": {...}} | {"p": w, "matrix": [...]}, ...],
     "psi_s": [[re, im], ...]   # required when any atom is matrix-form
     "presample": {...}}        # alternative generative form
    """
    if "presample" in doc:
        gen = doc["presample"]
        system, base_probe = model_from_json(gen["model"])
        ranges = {k: gen[k] for k in ("tau", "beta", "coupling") if k in gen}
        return RrdoEnsemble.presampled(
            system, base_probe, ranges, count=int(gen.get("count", 32)), seed=int(gen.get("seed", 0))
        )

    atoms_doc = doc.get("atoms")
    if not atoms_doc:
        raise EnsembleError("ensemble document needs 'atoms' or 'presample'")
    system = None
    atoms = []
    psi_s = None
    if "psi_s" in doc:
        psi_s = np.array([complex(z[0], z[1]) for z in doc["psi_s"]])
    for entry in atoms_doc:
        p = float(entry["p"])
        if "model" in entry:
            sys_k, probe = model_from_json(entry["model"])
            if system is None:
                system = sys_k
            elif not (
                np.allclose(system.h_s, sys_k.h_s) and system.beta_s == sys_k.beta_s
            ):
                raise EnsembleError("all atoms must share the same system")
            atoms.append(EnsembleAtom(prob=p, rdo=rdo_from_model(sys_k, probe), probe=probe))
        elif "matrix" in entry:
            if psi_s is None:
                raise EnsembleError("matrix-form atoms require a top-level psi_s")
            m = matrix_from_json(entry["matrix"], "atom matrix")
            atoms.append(EnsembleAtom(prob=p, rdo=rdo_mod.validate(m, psi_s)))
        else:
            raise EnsembleError("each atom needs 'model' or 'matrix'")
    if system is not None and psi_s is None:
        _, _, psi_gns = system_gns_data(system)
        for a in atoms:
            if not np.allclose(a.rdo.psi_s, psi_gns, atol=1e-12):
                raise EnsembleError("atom psi_s differs from the system reference vector")
    return RrdoEnsemble(atoms, system=system)
