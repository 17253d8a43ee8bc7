"""Reduced dynamics operators: norms, spectra, decompositions, products.

An RDO is a complex matrix that fixes a distinguished unit vector psi_s
and is a contraction for a suitable norm. Model-built RDOs carry an
exact certificate: in the GNS picture the norm is
|||v||| = ||unvec(v) rho_s^(-1/2)||_op and the contraction constant is 1.
Arbitrary matrices can instead carry an empirical power-bound
certificate (a sampled sup over finite products).

The spectral class of interest contains RDOs whose only peripheral
eigenvalue is a simple 1; for those, powers converge to the rank-one
projection |psi_s><psi| exponentially fast, with psi the left
eigenvector at 1 normalized so <psi, psi_s> = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .linalg import dag, nuclear_norm, spectral_norm, unvec
from .serialize import matrix_to_json, vector_to_json

INVARIANCE_TOL = 1e-11
SPECTRAL_RADIUS_TOL = 1e-10
DEFAULT_TOL_ONE = 1e-8
DEFAULT_GAP_MIN = 1e-6


class RdoValidationError(Exception):
    """Candidate matrix violates the RDO contract."""


@dataclass(frozen=True)
class GnsCertificate:
    """Exact contraction certificate carried by model-built RDOs.

    Holds rho_s^(1/2); the certified norm is the operator norm of
    unvec(v) rho_s^(-1/2), for which the RDO is an exact contraction
    and the uniform product constant is C0 = 1.
    """

    sqrt_rho_s: np.ndarray

    @property
    def c0(self) -> float:
        return 1.0

    def _inv_sqrt(self) -> np.ndarray:
        return np.linalg.inv(self.sqrt_rho_s)

    def norm(self, v: np.ndarray) -> float:
        """|||v||| = largest singular value of unvec(v) rho_s^(-1/2)."""
        d = self.sqrt_rho_s.shape[0]
        return spectral_norm(unvec(v, d) @ self._inv_sqrt())

    def dual_norm(self, v: np.ndarray) -> float:
        """Dual norm of |||.|||: nuclear norm of rho_s^(1/2) unvec(v)^dag."""
        d = self.sqrt_rho_s.shape[0]
        return nuclear_norm(self.sqrt_rho_s @ dag(unvec(v, d)))


@dataclass(frozen=True)
class PowerBoundCertificate:
    """Empirical bound: max spectral norm over sampled words of RDO factors."""

    c0: float
    depth: int
    n_words: int


def gns_norm(v: np.ndarray, cert: GnsCertificate) -> float:
    """Norm for which model-built RDOs are exact contractions."""
    return cert.norm(v)


@dataclass(frozen=True)
class Rdo:
    """A reduced dynamics operator with its invariant vector and norm certificate.

    A model-built RDO also keeps `phi`, the vectorized Heisenberg map it
    transports to the GNS space (M = iota Phi iota^(-1)); other RDOs have None.
    """

    m: np.ndarray
    psi_s: np.ndarray
    certificate: GnsCertificate | PowerBoundCertificate
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

    @property
    def c0(self) -> float:
        return self.certificate.c0


def validate(
    candidate: np.ndarray,
    psi_s: np.ndarray,
    cert: GnsCertificate | None = None,
    rng: np.random.Generator | None = None,
    n_probes: int = 200,
    max_len: int = 50,
) -> Rdo:
    """Accept a candidate matrix as an RDO or raise RdoValidationError.

    With a GNS certificate the exact contraction property is spot-checked on
    random probe vectors. Without one, spectral radius and sampled powers up
    to `max_len` must stay bounded; the observed sup is recorded as the
    power-bound constant.
    """
    candidate = np.asarray(candidate, dtype=complex)
    psi_s = np.asarray(psi_s, dtype=complex)
    rng = rng if rng is not None else np.random.default_rng(0)

    spr = float(np.abs(np.linalg.eigvals(candidate)).max())
    if spr > 1.0 + SPECTRAL_RADIUS_TOL:
        raise RdoValidationError(f"spectral radius {spr} exceeds 1")

    if cert is not None:
        n = candidate.shape[0]
        for _ in range(n_probes):
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            if cert.norm(candidate @ v) > cert.norm(v) * (1.0 + 1e-10):
                raise RdoValidationError("candidate is not a contraction for the GNS norm")
        return Rdo(m=candidate, psi_s=psi_s, certificate=cert)

    c0 = 1.0
    power = np.eye(candidate.shape[0], dtype=complex)
    for _ in range(max_len):
        power = power @ candidate
        c0 = max(c0, spectral_norm(power))
    if not np.isfinite(c0) or c0 > 1e8:
        raise RdoValidationError(f"powers appear unbounded (sampled sup {c0:.3e})")
    return Rdo(
        m=candidate,
        psi_s=psi_s,
        certificate=PowerBoundCertificate(c0=c0, depth=max_len, n_words=max_len),
    )


def power_bound_certificate(
    matrices: list[np.ndarray],
    rng: np.random.Generator,
    n_words: int = 200,
    max_len: int = 50,
) -> PowerBoundCertificate:
    """Sampled sup of spectral norms over random words in the given factors."""
    c0 = 1.0
    for _ in range(n_words):
        length = int(rng.integers(1, max_len + 1))
        word = np.eye(matrices[0].shape[0], dtype=complex)
        for idx in rng.integers(0, len(matrices), size=length):
            word = word @ matrices[idx]
            c0 = max(c0, spectral_norm(word))
    if not np.isfinite(c0):
        raise RdoValidationError("sampled word norms are unbounded")
    return PowerBoundCertificate(c0=c0, depth=max_len, n_words=n_words)


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


@dataclass
class ProductTrace:
    """Step-by-step diagnostics of a finite product of RDOs sharing psi_s.

    theta follows the adjoint recursion theta_n = M_n^* theta_(n-1); the sum
    form theta_n = psi_n + M_Qn^* theta_(n-1) is tracked independently and
    the two must agree. The product is reconstructed at every step as
    |psi_s><theta_n| + M_Q1 ... M_Qn and compared with the direct product.
    """

    psi_s: np.ndarray
    theta: np.ndarray  # (n, d) adjoint-recursion values
    theta_sum: np.ndarray  # (n, d) values from the telescoped sum form
    psi_n: np.ndarray  # (n, d) per-factor left eigenvectors
    psi_prod: np.ndarray  # final direct product Psi_n
    mq_prod: np.ndarray  # final M_Q word
    mq_norms: np.ndarray  # (n,) spectral norms of the M_Q words
    psi_prod_norms: np.ndarray  # (n,) spectral norms of Psi_n
    theta_norms: np.ndarray  # (n,) euclidean norms of theta_n
    overlaps: np.ndarray  # (n,) <psi_s, theta_n>
    recon_residuals: np.ndarray  # (n,) reconstruction error
    theta_mismatch: np.ndarray  # (n,) |theta - theta_sum| per step
    gns_theta_dual_norms: np.ndarray | None = None  # dual GNS norms, exact route

    @property
    def n_steps(self) -> int:
        return self.theta.shape[0]

    def to_json(self) -> dict:
        return {
            "n_steps": self.n_steps,
            "theta_final": vector_to_json(self.theta[-1]),
            "max_theta_mismatch": float(self.theta_mismatch.max()),
            "max_recon_residual": float(self.recon_residuals.max()),
            "max_overlap_error": float(np.abs(self.overlaps - 1.0).max()),
            "final_mq_norm": float(self.mq_norms[-1]),
            "psi_prod": matrix_to_json(self.psi_prod),
        }


def product_diagnostics(rdos: list[Rdo], tol: float = 1e-9) -> ProductTrace:
    """Run the structural identities of a finite RDO product and record them.

    Raises if the two theta formulas or the rank-one-plus-contraction
    reconstruction disagree beyond `tol`.
    """
    if not rdos:
        raise ValueError("empty product")
    psi_s = rdos[0].psi_s
    for r in rdos[1:]:
        if not np.allclose(r.psi_s, psi_s, atol=1e-12):
            raise RdoValidationError("all RDOs in a product must share psi_s")
    n, d = len(rdos), rdos[0].dim
    decs = {}
    for r in rdos:
        if id(r) not in decs:
            decs[id(r)] = decompose(r)

    theta = np.empty((n, d), dtype=complex)
    theta_sum = np.empty((n, d), dtype=complex)
    psi_n = np.empty((n, d), dtype=complex)
    mq_norms = np.empty(n)
    psi_prod_norms = np.empty(n)
    theta_norms = np.empty(n)
    overlaps = np.empty(n, dtype=complex)
    recon = np.empty(n)
    mismatch = np.empty(n)
    gns_dual = None
    cert = rdos[0].certificate
    if isinstance(cert, GnsCertificate):
        gns_dual = np.empty(n)

    psi_prod = np.eye(d, dtype=complex)
    mq_prod = np.eye(d, dtype=complex)
    th = None
    th_sum = None
    for k, r in enumerate(rdos):
        dec = decs[id(r)]
        psi_prod = psi_prod @ r.m
        mq_prod = mq_prod @ dec.m_q
        if k == 0:
            th = dec.psi.copy()
            th_sum = dec.psi.copy()
        else:
            th = dag(r.m) @ th
            th_sum = dec.psi + dag(dec.m_q) @ th_sum
        theta[k], theta_sum[k], psi_n[k] = th, th_sum, dec.psi
        mq_norms[k] = spectral_norm(mq_prod)
        psi_prod_norms[k] = spectral_norm(psi_prod)
        theta_norms[k] = np.linalg.norm(th)
        overlaps[k] = np.vdot(psi_s, th)
        recon[k] = spectral_norm(psi_prod - (np.outer(psi_s, th.conj()) + mq_prod))
        mismatch[k] = np.linalg.norm(th - th_sum)
        if gns_dual is not None:
            gns_dual[k] = cert.dual_norm(th)

    if mismatch.max() > tol:
        raise RdoValidationError(f"theta formulas disagree by {mismatch.max():.3e}")
    if recon.max() > tol:
        raise RdoValidationError(f"product reconstruction residual {recon.max():.3e}")
    return ProductTrace(
        psi_s=psi_s,
        theta=theta,
        theta_sum=theta_sum,
        psi_n=psi_n,
        psi_prod=psi_prod,
        mq_prod=mq_prod,
        mq_norms=mq_norms,
        psi_prod_norms=psi_prod_norms,
        theta_norms=theta_norms,
        overlaps=overlaps,
        recon_residuals=recon,
        theta_mismatch=mismatch,
        gns_theta_dual_norms=gns_dual,
    )


def uniform_bound_report(trace: ProductTrace, c0: float) -> dict:
    """Check the product bounds ||Psi_n|| <= C0, ||theta_n|| <= C0^2,
    ||M_Q word|| <= C0 (1 + C0) along a trace, in spectral norm."""
    slack = 1e-9
    return {
        "c0": c0,
        "max_psi_prod_norm": float(trace.psi_prod_norms.max()),
        "max_theta_norm": float(trace.theta_norms.max()),
        "max_mq_word_norm": float(trace.mq_norms.max()),
        "psi_prod_ok": bool(trace.psi_prod_norms.max() <= c0 + slack),
        "theta_ok": bool(trace.theta_norms.max() <= c0**2 + slack),
        "mq_word_ok": bool(trace.mq_norms.max() <= c0 * (1 + c0) + slack),
    }


@dataclass(frozen=True)
class ConvergenceReport:
    status: str  # "ok" or "inconclusive"
    tail_distance: float
    tail_mq_norm: float
    limit_is_projection: bool
    projection_residual: float

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "tail_distance": self.tail_distance,
            "tail_mq_norm": self.tail_mq_norm,
            "limit_is_projection": self.limit_is_projection,
            "projection_residual": self.projection_residual,
        }


def convergence_equivalence_check(
    trace: ProductTrace, decay_tol: float = 1e-8
) -> ConvergenceReport:
    """Under decaying M_Q words, theta_n and psi_n converge together.

    Reports the tail distance ||theta_n - psi_n||, and whether the
    reconstructed limit |psi_s><psi_inf| squares to itself. If the M_Q
    word has not decayed below `decay_tol`, the check is inconclusive.
    """
    if trace.mq_norms[-1] > decay_tol:
        return ConvergenceReport(
            status="inconclusive",
            tail_distance=float(np.linalg.norm(trace.theta[-1] - trace.psi_n[-1])),
            tail_mq_norm=float(trace.mq_norms[-1]),
            limit_is_projection=False,
            projection_residual=np.inf,
        )
    psi_inf = trace.psi_n[-1]
    limit = np.outer(trace.psi_s, psi_inf.conj())
    proj_res = spectral_norm(limit @ limit - limit)
    return ConvergenceReport(
        status="ok",
        tail_distance=float(np.linalg.norm(trace.theta[-1] - trace.psi_n[-1])),
        tail_mq_norm=float(trace.mq_norms[-1]),
        limit_is_projection=bool(proj_res <= 1e-9),
        projection_residual=float(proj_res),
    )
