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

A stack of RDOs (an ensemble's atoms) is classified and split in one
pass: :func:`spectra` is one batched eig of the adjoints M_k*, whose
eigenvalues give every spectral class (:func:`class_flags`) and whose
eigenvectors give psi_k wherever exactly one eigenvalue lies within
DEFAULT_TOL_ONE of 1 (:func:`rank_one_split`); M_Q = Q M Q is one batched
product. An atom whose cluster at 1 has any other size, such as an
uncoupled encounter, whose eigenvalue 1 is degenerate, falls back to the
Schur/Sylvester spectral projection, which stays robust there. Each row is
computed as it would be alone, so :func:`classify` and :func:`decompose`
are the one-row case: they keep the report and split formats of one RDO.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .linalg import dag

INVARIANCE_TOL = 1e-11
SPECTRAL_RADIUS_TOL = 1e-10
DEFAULT_TOL_ONE = 1e-8
DEFAULT_GAP_MIN = 1e-6
# errors ||M^n - P_1|| at or below this are rounding, which the decay fit skips
FIT_FLOOR = 1e-13
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


def _powers(m: np.ndarray, n: int) -> np.ndarray:
    """The (n, D, D) stack M, M^2, ..., M^n, each power the previous one times M. Its
    spectral norms are one batched SVD's first (largest) singular values."""
    powers = np.empty((n, *m.shape), dtype=complex)
    power = np.eye(m.shape[0], dtype=complex)
    for k in range(n):
        power = powers[k] = power @ m
    return powers


def validate(candidate: np.ndarray, psi_s: np.ndarray) -> Rdo:
    """Accept a candidate matrix as an RDO or raise RdoValidationError.

    It must be square with one psi_s entry per row, fix the unit vector
    psi_s (checked first, by :class:`Rdo`), have a spectral radius of at
    most 1, and its powers up to POWER_CHECK_LEN must stay bounded in
    spectral norm.
    """
    rdo = Rdo(m=candidate, psi_s=psi_s)
    spr = float(np.abs(np.linalg.eigvals(rdo.m)).max())
    if spr > 1.0 + SPECTRAL_RADIUS_TOL:
        raise RdoValidationError(f"spectral radius {spr} exceeds 1")
    norms = np.linalg.svd(_powers(rdo.m, POWER_CHECK_LEN), compute_uv=False)[:, 0]
    sup = max(1.0, float(norms.max()))
    if not np.isfinite(sup) or sup > 1e8:
        raise RdoValidationError(f"powers appear unbounded (sampled sup {sup:.3e})")
    return rdo


@dataclass(frozen=True)
class SpectralReport:
    eigenvalues: np.ndarray
    gap: float
    one_multiplicity: int
    in_class_e: bool
    tol_one: float
    gap_min: float


def spectra(ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of each matrix of a stack, and its left eigenvectors.

    One batched eig of the adjoints M_k*: row k of the first array holds the
    eigenvalues of M_k, column j of the k-th left matrix a left eigenvector
    of M_k at eigenvalue j (a right eigenvector of M_k*).
    """
    w, left = np.linalg.eig(dag(ms))
    return w.conj(), left


def class_flags(
    eigs: np.ndarray, tol_one: float = DEFAULT_TOL_ONE, gap_min: float = DEFAULT_GAP_MIN
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(multiplicity at 1, gap, in class) of each row of eigenvalues.

    The multiplicity counts eigenvalues within `tol_one` of 1, the gap is 1
    minus the largest modulus of the others (1 if there are none), and a row
    is in the class when the multiplicity is 1 and the gap is at least `gap_min`.
    """
    near_one = np.abs(eigs - 1.0) <= tol_one
    mult = near_one.sum(axis=-1)
    gap = 1.0 - np.where(near_one, 0.0, np.abs(eigs)).max(axis=-1)
    in_class = (mult == 1) & ((mult == eigs.shape[-1]) | (gap >= gap_min))
    return mult, gap, in_class


def classify(
    rdo: Rdo, tol_one: float = DEFAULT_TOL_ONE, gap_min: float = DEFAULT_GAP_MIN
) -> SpectralReport:
    """Spectral classification: is 1 the only peripheral eigenvalue, and simple?

    The one-row case of :func:`spectra` and :func:`class_flags`.
    """
    eigs = spectra(rdo.m[None])[0]
    mult, gap, in_class = class_flags(eigs, tol_one, gap_min)
    eigs = eigs[0]
    return SpectralReport(
        eigenvalues=eigs[np.argsort(-np.abs(eigs))],
        gap=float(gap[0]),
        one_multiplicity=int(mult[0]),
        in_class_e=bool(in_class[0]),
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


def _spectral_projection_one(m: np.ndarray) -> np.ndarray:
    """Spectral projection of the eigenvalue cluster within DEFAULT_TOL_ONE of 1, via
    sorted Schur form.

    Robust at near-defective spectra: uses a Sylvester solve on the Schur
    blocks rather than eigenvector matrices.
    """
    t, z, sdim = scipy.linalg.schur(
        m, output="complex", sort=lambda lam: abs(lam - 1.0) <= DEFAULT_TOL_ONE
    )
    if sdim == 0:
        raise RdoValidationError(f"no eigenvalue within {DEFAULT_TOL_ONE} of 1")
    if sdim == m.shape[0]:
        return np.eye(m.shape[0], dtype=complex)
    t11, t12, t22 = t[:sdim, :sdim], t[:sdim, sdim:], t[sdim:, sdim:]
    x = scipy.linalg.solve_sylvester(t11, -t22, t12)
    proj = np.zeros_like(m)
    proj[:sdim, :sdim] = np.eye(sdim)
    proj[:sdim, sdim:] = x
    return z @ proj @ dag(z)


def rank_one_split(
    ms: np.ndarray, psi_s: np.ndarray, eigs: np.ndarray, left: np.ndarray
) -> RdoDecomposition:
    """Rank-one/strictly-contracting split of a stack of RDOs fixing psi_s.

    `eigs` and `left` are the stack's :func:`spectra`. Where exactly one
    eigenvalue lies within DEFAULT_TOL_ONE of 1, psi is its left eigenvector,
    normalized so <psi, psi_s> = 1; a cluster of any other size goes
    through the Schur/Sylvester spectral projection. Every field is a stack
    with one row per matrix, each row computed as it would be alone.
    """
    near_one = np.abs(eigs - 1.0) <= DEFAULT_TOL_ONE
    simple = near_one.sum(axis=-1) == 1
    rows = np.flatnonzero(simple)
    v = left[rows, :, near_one[rows].argmax(axis=-1)][:, None, :]  # (n, 1, D)
    overlap = np.matmul(v.conj(), psi_s[:, None])  # <v, psi_s>, one dot per row
    psi = np.empty(ms.shape[:2], dtype=complex)
    psi[rows] = (v / overlap.conj())[:, 0]
    for k in np.flatnonzero(~simple):
        psi[k] = dag(_spectral_projection_one(ms[k])) @ psi_s
    overlap = np.matmul(psi.conj()[:, None, :], psi_s[:, None])[:, 0, 0]
    if (bad := np.abs(overlap - 1.0) > 1e-10).any():
        raise RdoValidationError(f"<psi, psi_s> = {overlap[bad][0]}, expected 1")
    p = psi_s[:, None] * psi.conj()[:, None, :]
    q = np.eye(ms.shape[-1]) - p
    return RdoDecomposition(psi=psi, p=p, q=q, m_q=q @ ms @ q)


def decompose(rdo: Rdo) -> RdoDecomposition:
    """Rank-one/strictly-contracting split of an RDO at eigenvalue 1.

    The one-row case of :func:`rank_one_split`.
    """
    m = rdo.m[None]
    split = rank_one_split(m, rdo.psi_s, *spectra(m))
    return RdoDecomposition(psi=split.psi[0], p=split.p[0], q=split.q[0], m_q=split.m_q[0])


@dataclass(frozen=True)
class IdealAsymptotics:
    errors: np.ndarray
    fitted_rate: float
    spr_mq: float


def ideal_asymptotics(rdo: Rdo, n_max: int = 200) -> IdealAsymptotics:
    """Convergence of M^n to the rank-one limit, with fitted decay rate.

    The fitted rate is the log-linear slope of the errors ||M^n - P_1||
    above FIT_FLOOR, and -inf when fewer than two lie above it (M^n sits at
    its limit); for an RDO in the simple-peripheral-eigenvalue class, which
    the ideal runner checks, it tracks log spr(M_Q). Outside the class the
    errors need not decay.
    """
    dec = decompose(rdo)
    powers = _powers(rdo.m, n_max)
    powers -= dec.p  # in place: the one stack holds the errors M^n - P_1
    errors = np.linalg.svd(powers, compute_uv=False)[:, 0]
    valid = errors > FIT_FLOOR
    if valid.sum() < 2:
        return IdealAsymptotics(errors=errors, fitted_rate=-np.inf, spr_mq=dec.spr_mq)
    ns = np.arange(1, n_max + 1)[valid]
    slope = np.polyfit(ns, np.log(errors[valid]), 1)[0]
    return IdealAsymptotics(errors=errors, fitted_rate=float(slope), spr_mq=dec.spr_mq)
