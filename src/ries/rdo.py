"""Reduced dynamics operators: validation, spectra, decompositions.

An RDO is a complex matrix M that fixes a distinguished unit vector psi_s
and whose powers stay bounded. A model-built RDO is an exact contraction
for the GNS norm |||v||| = ||unvec(v) rho_s^(-1/2)||_op, so its products
obey the uniform bounds with C0 = 1; a matrix from a config is accepted
when its spectral radius is at most 1 and its first powers stay bounded.

The spectral class of interest contains RDOs whose only peripheral
eigenvalue is a simple 1; for those, powers converge to the rank-one
projection |psi_s><psi| exponentially fast, with psi the left
eigenvector at 1 normalized so <psi, psi_s> = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .linalg import dag, spectral_norm
from .serialize import vector_to_json

INVARIANCE_TOL = 1e-11
SPECTRAL_RADIUS_TOL = 1e-10
DEFAULT_TOL_ONE = 1e-8
DEFAULT_GAP_MIN = 1e-6
# powers of a candidate matrix that validate() checks for boundedness
POWER_CHECK_LEN = 50


class RdoValidationError(Exception):
    """Candidate matrix violates the RDO contract."""


@dataclass(frozen=True)
class Rdo:
    """A reduced dynamics operator and its invariant vector.

    A model-built RDO also keeps `phi`, the vectorized Heisenberg map it
    transports to the GNS space (M = iota Phi iota^(-1)); other RDOs have None.
    """

    m: np.ndarray
    psi_s: np.ndarray
    phi: np.ndarray | None = None

    def __post_init__(self):
        m = np.asarray(self.m, dtype=complex)
        psi = np.asarray(self.psi_s, dtype=complex)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "psi_s", psi)
        n = m.shape[0]
        if m.shape != (n, n) or psi.shape != (n,):
            raise RdoValidationError(f"shape mismatch: m {m.shape}, psi_s {psi.shape}")
        if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
            raise RdoValidationError("psi_s must be a unit vector")
        resid = np.linalg.norm(m @ psi - psi)
        if resid > INVARIANCE_TOL:
            raise RdoValidationError(f"psi_s is not invariant (residual {resid:.3e})")

    @property
    def dim(self) -> int:
        return self.m.shape[0]


def validate(candidate: np.ndarray, psi_s: np.ndarray) -> Rdo:
    """Accept a candidate matrix as an RDO or raise RdoValidationError.

    Its spectral radius must not exceed 1 and its powers up to
    POWER_CHECK_LEN must stay bounded in spectral norm.
    """
    candidate = np.asarray(candidate, dtype=complex)
    spr = float(np.abs(np.linalg.eigvals(candidate)).max())
    if spr > 1.0 + SPECTRAL_RADIUS_TOL:
        raise RdoValidationError(f"spectral radius {spr} exceeds 1")
    sup = 1.0
    power = np.eye(candidate.shape[0], dtype=complex)
    for _ in range(POWER_CHECK_LEN):
        power = power @ candidate
        sup = max(sup, spectral_norm(power))
    if not np.isfinite(sup) or sup > 1e8:
        raise RdoValidationError(f"powers appear unbounded (sampled sup {sup:.3e})")
    return Rdo(m=candidate, psi_s=psi_s)


@dataclass(frozen=True)
class SpectralReport:
    eigenvalues: np.ndarray
    gap: float
    one_multiplicity: int
    in_class_e: bool
    tol_one: float
    gap_min: float

    def to_json(self) -> dict:
        return {
            "eigenvalues": vector_to_json(self.eigenvalues),
            "gap": self.gap,
            "one_multiplicity": self.one_multiplicity,
            "in_class_e": self.in_class_e,
            "tol_one": self.tol_one,
            "gap_min": self.gap_min,
        }


def classify(
    rdo: Rdo | np.ndarray,
    tol_one: float = DEFAULT_TOL_ONE,
    gap_min: float = DEFAULT_GAP_MIN,
) -> SpectralReport:
    """Spectral classification: is 1 the only peripheral eigenvalue, and simple?"""
    m = rdo.m if isinstance(rdo, Rdo) else np.asarray(rdo, dtype=complex)
    eigs = np.linalg.eigvals(m)
    near_one = np.abs(eigs - 1.0) <= tol_one
    mult = int(near_one.sum())
    others = np.abs(eigs[~near_one])
    gap = float(1.0 - others.max()) if others.size else 1.0
    in_class = mult == 1 and (others.size == 0 or gap >= gap_min)
    order = np.argsort(-np.abs(eigs))
    return SpectralReport(
        eigenvalues=eigs[order],
        gap=gap,
        one_multiplicity=mult,
        in_class_e=in_class,
        tol_one=tol_one,
        gap_min=gap_min,
    )


@dataclass(frozen=True)
class RdoDecomposition:
    """Split M = P + Q M Q along the spectral subspace at eigenvalue 1.

    psi = P_1^* psi_s, p = |psi_s><psi| (rank one even when the eigenvalue
    is degenerate), q = 1 - p, m_q = q M q.
    """

    psi: np.ndarray
    p: np.ndarray
    q: np.ndarray
    m_q: np.ndarray

    @property
    def spr_mq(self) -> float:
        return float(np.abs(np.linalg.eigvals(self.m_q)).max())


def _spectral_projection_one(m: np.ndarray, tol_one: float) -> np.ndarray:
    """Spectral projection of the eigenvalue cluster at 1, via sorted Schur form.

    Robust at near-defective spectra: uses a Sylvester solve on the Schur
    blocks rather than eigenvector matrices.
    """
    t, z, sdim = scipy.linalg.schur(
        m, output="complex", sort=lambda lam: abs(lam - 1.0) <= tol_one
    )
    if sdim == 0:
        raise RdoValidationError(f"no eigenvalue within {tol_one} of 1")
    if sdim == m.shape[0]:
        return np.eye(m.shape[0], dtype=complex)
    t11, t12, t22 = t[:sdim, :sdim], t[:sdim, sdim:], t[sdim:, sdim:]
    x = scipy.linalg.solve_sylvester(t11, -t22, t12)
    proj = np.zeros_like(m)
    proj[:sdim, :sdim] = np.eye(sdim)
    proj[:sdim, sdim:] = x
    return z @ proj @ dag(z)


def decompose(rdo: Rdo, tol_one: float = DEFAULT_TOL_ONE) -> RdoDecomposition:
    """Rank-one/strictly-contracting split of an RDO at eigenvalue 1."""
    m, psi_s = rdo.m, rdo.psi_s
    p1 = _spectral_projection_one(m, tol_one)
    psi = dag(p1) @ psi_s
    overlap = np.vdot(psi, psi_s)
    if abs(overlap - 1.0) > 1e-10:
        raise RdoValidationError(f"<psi, psi_s> = {overlap}, expected 1")
    p = np.outer(psi_s, psi.conj())
    q = np.eye(rdo.dim) - p
    m_q = q @ m @ q
    return RdoDecomposition(psi=psi, p=p, q=q, m_q=m_q)


@dataclass(frozen=True)
class IdealAsymptotics:
    errors: np.ndarray
    fitted_rate: float
    spr_mq: float


def ideal_asymptotics(rdo: Rdo, n_max: int = 200) -> IdealAsymptotics:
    """Convergence of M^n to the rank-one limit, with fitted decay rate.

    Requires the RDO to be in the simple-peripheral-eigenvalue class.
    The fitted rate is the log-linear slope of ||M^n - P_1||; it tracks
    log spr(M_Q).
    """
    report = classify(rdo)
    if not report.in_class_e:
        raise RdoValidationError("ideal asymptotics requires a simple gapped eigenvalue 1")
    dec = decompose(rdo)
    errors = np.empty(n_max)
    power = np.eye(rdo.dim, dtype=complex)
    for n in range(1, n_max + 1):
        power = power @ rdo.m
        errors[n - 1] = spectral_norm(power - dec.p)
    valid = errors > 1e-13
    if valid.sum() < 2:
        return IdealAsymptotics(errors=errors, fitted_rate=-np.inf, spr_mq=dec.spr_mq)
    ns = np.arange(1, n_max + 1)[valid]
    slope = np.polyfit(ns, np.log(errors[valid]), 1)[0]
    return IdealAsymptotics(errors=errors, fitted_rate=float(slope), spr_mq=dec.spr_mq)
