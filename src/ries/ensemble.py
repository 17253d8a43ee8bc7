"""Random reduced dynamics processes over finite-support ensembles.

An ensemble is a finite probability distribution over RDOs sharing one
invariant vector psi_s; iid draws from it generate the random product
Psi_n = M(w_1) ... M(w_n). This module provides the mean operator and
the closed-form asymptotic vector theta (two independent routes), seeded
forward/reverse trajectory simulation, decay-rate estimation for the
strictly-contracting parts, and Lyapunov exponent estimation.

The trajectory kernels take a list of seeds (or one seed) and step them as
one (S, d, d) or (S, d) stack, with one batched SVD or QR where a step or
checkpoint needs one and norms taken slice by slice; their records hold one
row per seed, bitwise equal to a run of that seed alone.

Randomness is counter-based (Philox) and fully reproducible: a seed is
one realization of the atom sequence, and :meth:`RrdoEnsemble.sample_paths`
is the one place where it becomes a stream, so a seed's path never depends
on which other seeds ran.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import rdo as rdo_mod
from .linalg import KahanAccumulator, dag, vec
from .model import ProbeSpec, SystemSpec, atom_energy_terms, model_from_json, rdo_from_model
from .rdo import (
    GnsCertificate,
    PowerBoundCertificate,
    Rdo,
    SpectralReport,
    classify,
    decompose,
    power_bound_certificate,
)
from .serialize import matrix_from_json

NEUMANN_TERM_TOL = 1e-14
NEUMANN_MAX_TERMS = 10_000


class EnsembleError(Exception):
    pass


def trajectory_rng(seed: int) -> np.random.Generator:
    """Counter-based generator for one seed; independent across seeds."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(0,))
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

    @cached_property
    def routes(self) -> dict:
        """Theta by both routes (see :func:`theta_routes`), computed once per ensemble."""
        return theta_routes(self)

    @cached_property
    def energy_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Energy-jump and flux tables of model-built atoms, computed once per ensemble.

        ``jump[i, j] = vec(Phi_i(vbar_j) - own_i)`` and ``flux[i] = vec(F_i)``
        (see :func:`ries.thermo.energy_tables`); one reduction per atom builds both.
        """
        phis = np.stack([a.rdo.phi for a in self.atoms])
        terms = [atom_energy_terms(self.system, a.probe, a.rdo.phi) for a in self.atoms]
        vbar, own, flux = (np.stack([vec(x) for x in column]) for column in zip(*terms))
        jump = np.einsum("iab,jb->ija", phis, vbar) - own[:, None, :]
        return jump, flux

    def sample_paths(self, seeds, n: int) -> np.ndarray:
        """(S, n) iid atom indices, smallest dtype; row s is drawn from trajectory_rng(seeds[s])."""
        seeds = np.atleast_1d(seeds)
        paths = np.empty((len(seeds), n), dtype=np.min_scalar_type(self.n_atoms))
        for row, seed in zip(paths, seeds):
            row[:] = trajectory_rng(int(seed)).choice(self.n_atoms, size=n, p=self.probs)
        return paths

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
        rng = trajectory_rng(seed)
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


def theta_routes(ens: RrdoEnsemble) -> dict:
    """Asymptotic vector theta by two independent formulas.

    Route "projector": adjoint of the spectral projection of E[M] at 1,
    applied to psi_s. Route "neumann": sum_k (E[M_Q]^*)^k E[psi], truncated
    when the term norm drops below 1e-14, with a geometric tail bound from
    spr(E[M_Q]).
    """
    theta_proj = decompose(ens.mean).psi

    e_mq = np.einsum("k,kij->ij", ens.probs, ens.mq)
    e_psi = np.einsum("k,ki->i", ens.probs, ens.psi_omega)
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


def theta_closed_form(ens: RrdoEnsemble) -> np.ndarray:
    if not ens.mean_report.in_class_e:
        raise EnsembleError("theta needs the mean operator in the simple-gap class")
    routes = ens.routes
    if routes["mismatch"] > 1e-10:
        raise EnsembleError(f"theta routes disagree by {routes['mismatch']:.3e}")
    theta = routes["theta_projector"]
    if abs(np.vdot(ens.psi_s, theta) - 1.0) > 1e-10:
        raise EnsembleError("theta lost its normalization against psi_s")
    return theta


def _start(ens: RrdoEnsemble, seeds, n_total: int) -> tuple[np.ndarray, ...]:
    """Seeds as a 1-d array, their (S, n_total) paths and an (S, d, d) identity stack.

    Row s of the paths is seeds[s]'s (see :meth:`RrdoEnsemble.sample_paths`);
    the kernels start their products from the identities and never write
    into them.
    """
    seeds = np.atleast_1d(seeds)
    paths = ens.sample_paths(seeds, n_total)
    return seeds, paths, np.tile(np.eye(ens.dim, dtype=complex), (len(seeds), 1, 1))


def _blocks(omega: np.ndarray, every: int) -> tuple[np.ndarray, Iterator[np.ndarray]]:
    """Checkpoints after every `every`-th step and the last, and the steps before each.

    Block c is made when reached, as the (steps, S) atom indices since the
    previous checkpoint; iterating it yields one contiguous (S,) row per step.
    """
    n = omega.shape[1]
    stops = np.unique(np.append(np.arange(every, n + 1, every), n))
    starts = np.concatenate(([0], stops[:-1]))
    return stops, (np.ascontiguousarray(omega[:, a:b].T, np.intp) for a, b in zip(starts, stops))


def _records(seeds: np.ndarray, **columns: np.ndarray) -> list[dict]:
    """One JSON record per seed: the seed, then its entry of each per-seed column."""
    rows = zip(seeds, *columns.values())
    return [dict(zip(["seed", *columns], (x.item() for x in row))) for row in rows]


@dataclass
class ErgodicReport:
    """Forward trajectories of several seeds; row s of each array is seeds[s]."""

    seeds: np.ndarray
    checkpoints: np.ndarray
    distances: np.ndarray  # (S, checkpoints): Frobenius distance to |psi_s><theta|
    max_invariance_drift: np.ndarray  # (S,): max ||Psi_n psi_s - psi_s|| at checkpoints


def simulate_forward(
    ens: RrdoEnsemble, seeds, n_total: int, checkpoint_every: int = 1000
) -> ErgodicReport:
    """Simulate Psi_n = M(w_1)...M(w_n) and its Cesaro mean, all seeds as one stack.

    At each checkpoint N the Frobenius distance between the running average
    (1/N) sum Psi_n and the rank-one limit |psi_s><theta| is recorded. Norms
    are taken slice by slice, so each seed's numbers are bitwise those of a
    one-seed run.
    """
    seeds, omega, psi_prod = _start(ens, seeds, n_total)
    limit = np.outer(ens.psi_s, theta_closed_form(ens).conj())
    checkpoints, blocks = _blocks(omega, checkpoint_every)
    acc = KahanAccumulator(psi_prod.shape)
    distances = np.empty((len(seeds), len(checkpoints)))
    drift = np.zeros(len(seeds))
    for c, block in enumerate(blocks):
        for k in block:
            psi_prod = np.matmul(psi_prod, ens.matrices[k])
            acc.add(psi_prod)
        mean = acc.mean
        for s in range(len(seeds)):
            distances[s, c] = np.linalg.norm(mean[s] - limit, "fro")
            drift[s] = max(drift[s], np.linalg.norm(psi_prod[s] @ ens.psi_s - ens.psi_s))
    return ErgodicReport(seeds, checkpoints, distances, drift)


def simulate_theta(ens: RrdoEnsemble, seeds, n_total: int) -> dict:
    """Cesaro mean of the Markov process theta_n = M^*(w_n) theta_(n-1), per seed.

    The overlap <psi_s, theta_n> - 1 is checked at theta_0, every 1000 steps
    and at the end; every returned array has one row per seed.
    """
    seeds, omega, _ = _start(ens, seeds, n_total)
    th = ens.psi_omega[omega[:, 0]]
    acc = KahanAccumulator(th.shape)
    acc.add(th)
    err = np.zeros(len(seeds))  # max |<psi_s, theta_n> - 1| at the checks
    _, blocks = _blocks(omega[:, 1:], 1000)
    for block in itertools.chain([()], blocks):  # the empty first block checks theta_0
        for k in block:
            th = np.matmul(ens.adjoints[k], th[:, :, None])[:, :, 0]
            acc.add(th)
        for s in range(len(seeds)):
            err[s] = max(err[s], abs(np.vdot(ens.psi_s, th[s]) - 1.0))
    return {"seeds": seeds, "cesaro_theta": acc.mean, "final_theta": th, "max_overlap_error": err}


@dataclass
class DecayEstimate:
    """Decay of the M_Q words of several seeds; row s of each array is seeds[s]."""

    seeds: np.ndarray
    log_norms: np.ndarray  # (S, n_total): log ||M_Q(w_1)...M_Q(w_n)||
    alpha: np.ndarray
    n0: np.ndarray
    log_c: np.ndarray

    def to_json(self) -> list[dict]:
        columns = {"alpha": self.alpha, "n0": self.n0, "log_c": self.log_c}
        return _records(self.seeds, **columns, final_log_norm=self.log_norms[:, -1])


def _fit_envelope(log_norms: np.ndarray) -> tuple[float, int, float]:
    """(alpha, n0, log_c) of one seed's log-norm series; see :func:`decay_estimator`."""
    n_total = log_norms.size
    finite = np.isfinite(log_norms)
    ns = np.arange(1, n_total + 1)
    fit_from = max(n_total // 2, 1)
    sel = finite & (ns >= fit_from)
    if sel.sum() < 2:  # word hit exact zero early; decay is as fast as it gets
        return np.inf, 1, 0.0
    slope, intercept = np.polyfit(ns[sel], log_norms[sel], 1)
    alpha = -float(slope)
    # envelope C e^(-alpha n) with C inflated by the fit's residual spread,
    # so n0 marks genuine pre-asymptotic excess, not fit noise
    resid = log_norms[sel] - (intercept + slope * ns[sel])
    log_c = float(intercept + 3.0 * resid.std() + 1e-9)
    envelope = log_c - alpha * ns
    violations = np.nonzero(log_norms[finite] > envelope[finite])[0]
    n0 = int(ns[finite][violations.max()]) + 1 if violations.size else 1
    return alpha, n0, log_c


def decay_estimator(ens: RrdoEnsemble, seeds, n_total: int) -> DecayEstimate:
    """Norm series of the strictly-contracting words, with fitted decay rates.

    Needs at least one atom in the simple-gap class. All seeds step as one
    stack with one batched SVD per step; a word that hits exact zero stays
    zero, and its log norms are -inf from then on. Per seed, the fitted
    envelope C e^(-alpha n) comes from a log-linear fit on the second half of
    the series, and n0 is the first index from which the envelope bounds the
    whole tail.
    """
    if not any(ic and p > 0 for ic, p in zip(ens.in_class, ens.probs)):
        raise EnsembleError("decay estimation needs an in-class atom with positive probability")
    seeds, omega, word = _start(ens, seeds, n_total)
    log_norms = np.empty((len(seeds), n_total))
    log_scale = np.zeros(len(seeds))
    _, steps = _blocks(omega, 1)  # a checkpoint after every step
    for n, (k,) in enumerate(steps):
        word = np.matmul(word, ens.mq[k])
        s = np.linalg.svd(word, compute_uv=False)[:, 0]
        alive = s > 0
        s[~alive] = 1.0
        log_scale += np.log(s)
        log_norms[:, n] = np.where(alive, log_scale, -np.inf)
        word = word / s[:, None, None]
    alpha, n0, log_c = (np.array(x) for x in zip(*map(_fit_envelope, log_norms)))
    return DecayEstimate(seeds, log_norms, alpha, n0, log_c)


@dataclass
class ReverseReport:
    """Reverse products of several seeds; row s of each array is seeds[s]."""

    seeds: np.ndarray
    checkpoints: np.ndarray
    residuals: np.ndarray  # (S, checkpoints): ||Phi_n - |psi_s><eta_n|||
    sigma_ratios: np.ndarray  # (S, checkpoints): sigma_2 / sigma_1 of Phi_n
    eta: np.ndarray  # (S, d): final partial sums of eta_inf


def simulate_reverse(
    ens: RrdoEnsemble, seeds, n_total: int, checkpoint_every: int = 10
) -> ReverseReport:
    """Reverse-order products Phi_n = M(w_n)...M(w_1) and their rank-one limits.

    eta_inf is accumulated incrementally as sum_k lead_k psi(w_k), with
    lead_k = M_Q^*(w_1)...M_Q^*(w_(k-1)); the residual to
    |psi_s><eta| and the singular-value ratio of Phi_n both decay
    exponentially when decay of the M_Q words holds. All seeds step as one
    stack, with one batched SVD per checkpoint for each quantity.
    """
    if not any(ic and p > 0 for ic, p in zip(ens.in_class, ens.probs)):
        raise EnsembleError("reverse-product analysis needs an in-class atom")
    seeds, omega, phi = _start(ens, seeds, n_total)
    lead = phi  # M_Q^*(w_1)...M_Q^*(w_(k-1))
    checkpoints, blocks = _blocks(omega, checkpoint_every)
    eta = np.zeros((len(seeds), ens.dim), dtype=complex)
    residuals = np.empty((len(seeds), len(checkpoints)))
    ratios = np.zeros((len(seeds), len(checkpoints)))
    for c, block in enumerate(blocks):
        for k in block:
            phi = np.matmul(ens.matrices[k], phi)
            eta = eta + np.matmul(lead, ens.psi_omega[k][:, :, None])[:, :, 0]
            lead = np.matmul(lead, ens.mq_adjoints[k])
        rank_one = ens.psi_s[:, None] * eta.conj()[:, None, :]
        residuals[:, c] = np.linalg.svd(phi - rank_one, compute_uv=False)[:, 0]
        if ens.dim > 1:  # at GNS dim 1 every product is rank one: ratio 0
            sv = np.linalg.svd(phi, compute_uv=False)
            np.divide(sv[:, 1], sv[:, 0], out=ratios[:, c], where=sv[:, 0] > 0)
    return ReverseReport(seeds, checkpoints, residuals, ratios, eta)


@dataclass
class LyapunovEstimate:
    """Top two Lyapunov exponents of several seeds; entry s is seeds[s]."""

    seeds: np.ndarray
    gamma_1: np.ndarray
    gamma_2: np.ndarray
    gap: np.ndarray

    def to_json(self) -> list[dict]:
        return _records(self.seeds, gamma_1=self.gamma_1, gamma_2=self.gamma_2, gap=self.gap)


def lyapunov(
    ens: RrdoEnsemble, seeds, n_total: int, reorth_every: int = 10
) -> LyapunovEstimate:
    """Lyapunov spectra of the random products via periodic re-orthonormalization.

    Works on transposed factors so that appending a factor on the right of
    Psi_n becomes a left multiplication; one batched QR per
    re-orthonormalization accumulates every seed's log stretching factors.
    The sigma_2 / sigma_1 diagnostic of the reverse product belongs to
    :func:`simulate_reverse`.
    """
    seeds, omega, frame = _start(ens, seeds, n_total)
    _, blocks = _blocks(omega, reorth_every)
    log_r = np.zeros((len(seeds), ens.dim))
    for block in blocks:
        for k in block:
            frame = np.matmul(ens.matrices[k].transpose(0, 2, 1), frame)
        frame, r = np.linalg.qr(frame)
        diag = np.abs(np.diagonal(r, axis1=1, axis2=2))
        diag[diag == 0] = np.finfo(float).tiny
        log_r += np.log(diag)
    exponents = np.sort(log_r / n_total)[:, ::-1]
    gamma_2 = exponents[:, 1] if ens.dim > 1 else np.full(len(seeds), -np.inf)
    return LyapunovEstimate(seeds, exponents[:, 0], gamma_2, exponents[:, 0] - gamma_2)


def ensemble_from_json(doc: dict) -> RrdoEnsemble:
    """Build an ensemble from its JSON document.

    {"atoms": [{"p": w, "model": {...}} | {"p": w, "matrix": [...]}, ...],
     "psi_s": [[re, im], ...]   # with matrix-form atoms only, and then required
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
    return RrdoEnsemble(atoms, system=system)
