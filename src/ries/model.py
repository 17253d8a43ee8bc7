"""Finite-dimensional system-probe models and their exact reductions.

A model is one encounter between a small reference system (dimension
``dim_s``, Hamiltonian ``h_s``, inverse temperature ``beta_s``) and a
probe (``h_e``, ``beta_e``), coupled by a Hermitian interaction ``v`` for
a time ``tau``. This module builds, from such data:

- the one-step unitary on system x probe,
- the reduced Heisenberg map ``Phi(A) = Tr_E[(1 x rho_E) U* (A x 1) U]``,
- the reduced dynamics operator (RDO) acting on the vectorized GNS
  space of the system, with invariant vector ``psi_s = vec(rho_s^(1/2))``,
- reductions of windowed chain observables to single system matrices in
  the Heisenberg picture (the GNS space sees them by left multiplication),

and, crucially, an exact brute-force evaluation of the repeated
interaction dynamics on a truncated chain (``full_chain_oracle``) against
which every reduced-picture quantity can be checked at small sizes. The
oracle alone evolves the chain, as a purified vector (the GNS picture): the
legs run [A_S, S, E_k, A_k, ..., E_1, A_1], each probe joining next to S at
its own encounter as g_k = Gibbs_k^(1/2) on E_k and its ancilla A_k, so step
k is one matmul, W_k = U_k (1 x g_k) on the S leg. The kept window legs,
which arrive newest first, are put back in probe order at readout. A probe's
free evolution commutes with every later encounter: it is applied once, on
the reduced window state, and only to the window legs that keep it. One
evolution to the largest m asked for serves every m and every observable of a
stack: the chain is read out after each step that is asked about.

Encounters are built once per probe list, as one stack with one row per probe
(:func:`encounters`): :func:`step_unitaries` diagonalizes every generator
h_s x 1 + 1 x h_e + v of one probe dimension in one batched eigh, and the
probe Gibbs states take one eigh per distinct h_e. Every Phi
(:func:`reduced_heisenberg_maps`), RDO (:func:`rdos_from_model`, with iota and
iota^(-1) formed once), atom's energy terms (:func:`energy_terms`), window
reduction and the oracle's chain read that stack, group by group of probe
dimension. Each batched step runs once per row (batched eigh and matmul, never
a contraction that folds the row axis), so a row is bitwise what a one-probe
build gives: one probe's step unitary, Heisenberg map or Gibbs state is the
one-row case of its stack, and :func:`rdo_from_model` is the one-row case of
:func:`rdos_from_model`. A window family is A_S and a per-slot table of B, one
B per slot and allowed probe; it reduces every atom tuple at once from the
stacked encounters, slot by slot, each tuple's B gathered from its slot's
table (:func:`reduce_windows`). :func:`reduce_instant` is the one-tuple case.

The GNS transport never builds a non-normal generator: with
``iota(A) = A rho_s^(1/2)``, the RDO is ``iota o Phi o iota^(-1)``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy.linalg.blas import zherk

from . import rdo as rdo_mod
from .linalg import (
    dag,
    expm_hermitian,
    require_hermitian,
    right_mult_matrix,
    unvec,
    vec,
)
from .serialize import check_fields, is_int, is_real, matrix_from_json

ORACLE_DIM_GUARD = 4096  # largest chain dimension; its square bounds a stack of window reductions
WINDOW_CAPACITY = 3  # largest l + r of an observation window


class CapacityError(Exception):
    """Raised when a brute-force computation would exceed the dense-algebra guard."""


def check_capacity(dims: list[int], window: int = 0, stack: int = 1, powers: bool = False) -> None:
    """Raise CapacityError past a dense-algebra guard.

    The guards: an observation window extent `window` (= l + r) may not
    exceed WINDOW_CAPACITY, and `stack` dense arrays over the tensor legs
    `dims` may not hold more than ORACLE_DIM_GUARD^2 entries (one chain: its
    dimension may not exceed ORACLE_DIM_GUARD). With `powers`, the stack is
    the powers M, M^2, ..., M^stack of one RDO on the GNS space `dims`, as
    the ideal asymptotics hold them. The error states the estimated peak
    bytes and, for a chain of S and one probe leg per step, the number of
    encounter products: step k is one product with the isometry of the
    encounter of S with E_k, m in m steps, the last writing dim^2 entries.
    The free evolutions of the l kept window legs act on the reduced window
    state, not on the chain.
    """
    if window > WINDOW_CAPACITY:
        raise CapacityError(f"window capacity guard: l + r = {window} exceeds {WINDOW_CAPACITY}")
    dim = int(np.prod(dims, dtype=np.int64))
    if stack * dim * dim <= ORACLE_DIM_GUARD**2:
        return
    # tracemalloc peaks in dim x dim complex arrays. An oracle call holds 1 + 1/e^2, e the
    # last probe's dimension (1.25 at dims 512 to 4096 on the qubit chain, l = 0 to 3: the
    # last step's vector and the one before, 1/e^2 of it); the guard adds 0.1 for the readout,
    # which for l >= 1 copies 1/(d_S e^(l+1)) of the vector at a time. On the qubit chain (2
    # cores, OpenBLAS) one call took 0.05 s at dim 2048 (m = 10) and 0.15 s at dim 4096 (m =
    # 11, traced peak 320 MiB, maximum RSS 402 MiB). A window reduction with l + r >= 1 holds
    # 3.5 per tuple (3.50 at d = e = 2 for l + r = 1 to 3, 3.38 at d = 3, e = 2, l = 1: a
    # gathered U or U*, the product it enters and its result, plus the tuple's X row and
    # indices). With l = r = 0 the tuples are the atoms, whose encounters are built before,
    # once per probe list: 4.5 per tuple (identity family 4.39 at d = e = 2, 3.83 at d = 2,
    # e = 3, 3.76 at d = 3, e = 2, 3.43 at d = e = 3; probe energy 3.76 at d = e = 2; on
    # 1,024 and 4,096 atoms; below d e = 4 the per-tuple bookkeeping weighs more). The ideal
    # asymptotics hold one stack, the powers M^n turned into their errors M^n - P_1 in place:
    # 1.2 per power (1.16 at D = 4 for 10^4 and 4 * 10^4 powers; the D singular values of
    # each error and the decay fit's arrays of one entry per power add the rest).
    per_item = 1.2 if powers else 4.5 if window == 0 else 3.5
    arrays = per_item * stack if powers or stack > 1 else 1.1 + 1 / dims[-1] ** 2
    count = f"{arrays:,.2f}".rstrip("0").removesuffix(".")
    peak = f"{arrays * dim * dim * 16 / 2**20:,.0f} MiB ({count} dense {dim}x{dim} arrays)"
    entries = f"hold {stack * dim * dim:,} entries, past ORACLE_DIM_GUARD^2 = {ORACLE_DIM_GUARD**2:,}"
    if powers:
        raise CapacityError(
            f"{stack:,} powers of a {dim}x{dim} RDO {entries}: estimated peak {peak}, {per_item} per power"
        )
    if stack > 1:
        raise CapacityError(
            f"{stack:,} stacked window reductions {entries}: estimated peak {peak}, "
            f"{per_item} per tuple at l + r = {window}"
        )
    raise CapacityError(
        f"chain dimension {dim} exceeds guard {ORACLE_DIM_GUARD}: estimated peak {peak} and "
        f"m = {len(dims) - 1} encounters, one product W_k psi each, the last writing "
        f"dim^2 = {dim * dim:,} entries"
    )


@dataclass(frozen=True)
class SystemSpec:
    """Reference system: Hamiltonian and inverse temperature of its Gibbs state."""

    dim_s: int
    h_s: np.ndarray
    beta_s: float

    def __post_init__(self):
        if self.dim_s < 1:
            raise ValueError("dim_s must be positive")
        h = require_hermitian(self.h_s, "h_s")
        if h.shape != (self.dim_s, self.dim_s):
            raise ValueError(f"h_s has shape {h.shape}, expected ({self.dim_s}, {self.dim_s})")
        object.__setattr__(self, "h_s", h)
        if not np.isfinite(self.beta_s) or self.beta_s < 0:
            raise ValueError("beta_s must be finite and nonnegative")

    def gibbs_state(self) -> np.ndarray:
        return _gibbs_states(self.h_s, [self.beta_s])[0]


@dataclass(frozen=True)
class ProbeSpec:
    """One chain element: probe Hamiltonian, temperature, coupling and interaction time."""

    dim_e: int
    h_e: np.ndarray
    beta_e: float
    v: np.ndarray
    tau: float

    def __post_init__(self):
        if self.dim_e < 1:
            raise ValueError("dim_e must be positive")
        h = require_hermitian(self.h_e, "h_e")
        if h.shape != (self.dim_e, self.dim_e):
            raise ValueError(f"h_e has shape {h.shape}, expected ({self.dim_e}, {self.dim_e})")
        object.__setattr__(self, "h_e", h)
        v = require_hermitian(self.v, "v")
        object.__setattr__(self, "v", v)
        if not np.isfinite(self.beta_e) or self.beta_e < 0:
            raise ValueError("beta_e must be finite and nonnegative")
        if not np.isfinite(self.tau) or self.tau < 0:
            raise ValueError("tau must be finite and nonnegative")

    def gibbs_state(self) -> np.ndarray:
        return _gibbs_states(self.h_e, [self.beta_e])[0]


def scaled_probes(base: ProbeSpec, taus, betas, scales) -> list[ProbeSpec]:
    """Copies of the checked `base` probe, copy k with taus[k], betas[k] and v = scales[k] V.

    The copies are checked once as a batch, not one by one. Each field that
    ``ProbeSpec.__post_init__`` checks is then either the base's own checked
    value (dim_e, h_e) or covered here: every tau, beta and scale must be
    finite, and tau and beta nonnegative. One Hermitian check of c V with the
    largest |c| covers every c V: for real c the defect of c V is |c| D, D
    that of V, so its ratio to the allowed defect tol max(1, |c| ||V||) does
    not decrease as |c| grows, and if some c V fails, the largest |c| fails.
    Skipping ``__post_init__`` on the copies is therefore safe: it could
    reject none of them. Copy k's v is ``scales[k] * base.v``, bitwise.
    """
    taus, betas, scales = (np.asarray(x, dtype=float) for x in (taus, betas, scales))
    if not all(np.isfinite(x).all() for x in (taus, betas, scales)):
        raise ValueError("tau, beta and coupling draws must be finite")
    if (taus < 0).any() or (betas < 0).any():
        raise ValueError("tau and beta draws must be nonnegative")
    require_hermitian(np.abs(scales).max(initial=0.0) * base.v, "v")
    vs = scales[:, None, None] * base.v
    probes = []
    for tau, beta, v in zip(taus.tolist(), betas.tolist(), vs):
        probe = object.__new__(ProbeSpec)  # no __post_init__: checked above as a batch
        probe.__dict__.update(dim_e=base.dim_e, h_e=base.h_e, beta_e=beta, v=v, tau=tau)
        probes.append(probe)
    return probes


@dataclass(frozen=True)
class ObservableWindow:
    """A system observable tensored with a train of l+r+1 probe observables.

    ``b_list[j + l]`` sits on the probe at relative slot ``j``, for
    ``j = -l..r``; slot 0 is the probe interacting at the observation step.
    ``a_s`` is one (d, d) observable or an (n, d, d) stack of them sharing
    the probe train; :func:`full_chain_oracle` evaluates a stack on one
    chain evolution.
    """

    a_s: np.ndarray
    b_list: tuple
    l: int
    r: int

    def __post_init__(self):
        if self.l < 0 or self.r < 0:
            raise ValueError("window extents must be nonnegative")
        bl = tuple(np.asarray(b, dtype=complex) for b in self.b_list)
        if len(bl) != self.l + self.r + 1:
            raise ValueError(f"b_list has length {len(bl)}, expected l+r+1 = {self.l + self.r + 1}")
        object.__setattr__(self, "b_list", bl)
        object.__setattr__(self, "a_s", np.asarray(self.a_s, dtype=complex))

    @classmethod
    def system_only(cls, a_s: np.ndarray, dim_e: int) -> "ObservableWindow":
        return cls(a_s=a_s, b_list=(np.eye(dim_e),), l=0, r=0)


def _gibbs_states(h: np.ndarray, betas) -> np.ndarray:
    """(n, e, e) Gibbs states exp(-beta h) / Tr[exp(-beta h)] of one Hermitian h at each
    of n inverse temperatures, full rank for finite beta: one eigh."""
    betas = np.asarray(betas, dtype=float)
    if not np.isfinite(betas).all() or (betas < 0).any():
        raise ValueError("beta must be finite and nonnegative")
    w, u = np.linalg.eigh(h)
    p = np.exp(-betas[:, None] * (w - w.min()))  # shift avoids overflow; cancels in the ratio
    z = p.sum(axis=1, keepdims=True)
    if not np.isfinite(z).all() or (z <= 0).any():
        raise OverflowError("Gibbs weights over/underflowed")
    return (u * (p / z)[:, None, :]) @ dag(u)


def step_unitaries(sys: SystemSpec, probes: list[ProbeSpec]) -> np.ndarray:
    """(n, d e, d e) one-encounter unitaries exp(-i tau (h_s x 1 + 1 x h_e + v)) on S x E.

    The probes share one dimension e; one batched eigh gives every unitary.
    """
    d, e = sys.dim_s, probes[0].dim_e
    for probe in probes:
        if probe.dim_e != e:
            raise ValueError(f"probes of dimension {probe.dim_e} and {e} in one stack")
        if probe.v.shape != (d * e, d * e):
            raise ValueError(f"v has shape {probe.v.shape}, expected ({d * e}, {d * e})")
    h_e = np.stack([probe.h_e for probe in probes])
    v = np.stack([probe.v for probe in probes])
    h = np.kron(sys.h_s, np.eye(e)) + np.kron(np.eye(d), h_e) + v
    return expm_hermitian(h, -1j * np.array([probe.tau for probe in probes]))


@dataclass(frozen=True, eq=False)
class Encounters:
    """Encounters of the system with each of `probes`, as stacks: ``groups[e] = (rows, U,
    rho_E)`` holds the indices into `probes` of the probes of dimension e, their (n, d e, d e)
    step unitaries and their (n, e, e) Gibbs states; probe k is row ``pos[k]`` of its group."""

    system: SystemSpec
    probes: list[ProbeSpec]
    groups: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]
    pos: np.ndarray


def encounters(sys: SystemSpec, probes: list[ProbeSpec]) -> Encounters:
    """The stacked encounters of `sys` with `probes`: one batched :func:`step_unitaries`
    per probe dimension, and one eigh per distinct h_e for the Gibbs states."""
    dims = np.array([probe.dim_e for probe in probes])
    pos = np.empty(len(probes), dtype=np.intp)
    groups = {}
    for e in np.unique(dims).tolist():
        rows = np.flatnonzero(dims == e)
        pos[rows] = np.arange(len(rows))
        group = [probes[k] for k in rows]
        by_h: dict[bytes, list[int]] = {}
        for i, probe in enumerate(group):
            by_h.setdefault(probe.h_e.tobytes(), []).append(i)
        rho_e = np.empty((len(group), e, e), dtype=complex)
        for same in by_h.values():
            rho_e[same] = _gibbs_states(group[same[0]].h_e, [group[i].beta_e for i in same])
        groups[e] = (rows, step_unitaries(sys, group), rho_e)
    return Encounters(sys, list(probes), groups, pos)


def weighted_partial_trace(x: np.ndarray, dim_s: int, rho_env: np.ndarray) -> np.ndarray:
    """Tr_E[(1_S x rho_env) X] for X on S x E, or for each X of a stack (with one
    rho_env or one per X); one matmul per X, so each is reduced as it would be alone."""
    de = rho_env.shape[-1]
    batch = x.shape[:-2]
    xt = x.reshape(*batch, dim_s, de, dim_s, de).swapaxes(-3, -2)  # (i, j, e, f)
    r = rho_env.swapaxes(-1, -2).reshape(*rho_env.shape[:-2], de * de, 1)  # rho_env[f, e]
    return (xt.reshape(*batch, dim_s * dim_s, de * de) @ r).reshape(*batch, dim_s, dim_s)


def reduced_heisenberg_maps(enc: Encounters) -> np.ndarray:
    """(n, d^2, d^2) matrices of the one-step Heisenberg maps Phi, one per probe.

    Phi(A) = Tr_E[(1 x rho_E) U* (A x 1) U] is unital and completely positive;
    entry (j + d k, i + d x) is Phi(E_ix)[j, k]. Per probe dimension, the
    stacked unitaries and Gibbs states are contracted by two batched matmuls.
    """
    d = enc.system.dim_s
    phis = np.empty((len(enc.probes), d * d, d * d), dtype=complex)
    for rows, u, rho_e in enc.groups.values():
        n, e = len(rows), rho_e.shape[-1]
        u = u.reshape(n, d, e, d, e)
        # pair U* with U over the probe leg of their rows before weighting by rho_E:
        # with rho_E first, Phi(1) = 1 picks up a rounding bias that long random
        # products accumulate. t[(i, j, f), (x, k, g)] = sum_e conj(U[ie, jf]) U[xe, kg]
        a = u.conj().transpose(0, 1, 3, 4, 2).reshape(n, d * d * e, e)
        t = a @ u.transpose(0, 2, 1, 3, 4).reshape(n, e, d * d * e)
        # Phi(E_ix)[j, k] = sum_(g, f) t[i, j, f, x, k, g] rho_E[g, f]
        t = t.reshape(n, d, d, e, d, d, e).transpose(0, 5, 2, 4, 1, 6, 3).reshape(n, d**4, e * e)
        phis[rows] = (t @ rho_e.reshape(n, e * e, 1)).reshape(n, d * d, d * d)
    return phis


def system_gns_data(sys: SystemSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rho_s, rho_s^(1/2), psi_s) for the system Gibbs reference state."""
    rho_s = sys.gibbs_state()
    w, u = np.linalg.eigh(rho_s)
    if w.min() <= 0:
        raise ValueError("rho_s is singular; beta_s must be finite")
    sqrt_rho = (u * np.sqrt(w)) @ dag(u)
    return rho_s, sqrt_rho, vec(sqrt_rho)


def rdos_from_model(enc: Encounters) -> list["rdo_mod.Rdo"]:
    """Reduced dynamics operators of the system's encounter with each probe.

    The maps Phi come as one stack (:func:`reduced_heisenberg_maps`), and
    iota and iota^(-1) are formed once: M = iota Phi iota^(-1) is one batched
    product. Each returned matrix fixes psi_s = vec(rho_s^(1/2)) and is an
    exact contraction for the GNS norm |||v||| = ||unvec(v) rho_s^(-1/2)||_op
    (C0 = 1). Each RDO keeps the Heisenberg map Phi it transports, so the
    Heisenberg picture needs no inverse transport.
    """
    _, sqrt_rho, psi_s = system_gns_data(enc.system)
    phis = reduced_heisenberg_maps(enc)
    iota = right_mult_matrix(sqrt_rho)  # iota(A) = A rho_s^(1/2)
    ms = iota @ phis @ np.linalg.inv(iota)
    return [rdo_mod.Rdo(m=m, psi_s=psi_s, phi=phi) for m, phi in zip(ms, phis)]


def rdo_from_model(sys: SystemSpec, probe: ProbeSpec) -> "rdo_mod.Rdo":
    """Reduced dynamics operator of one encounter (see :func:`rdos_from_model`)."""
    return rdos_from_model(encounters(sys, [probe]))[0]


def _chain_isometries(enc: Encounters) -> dict[int, np.ndarray]:
    """Per probe dimension e, the (n, d e^2, d) isometries W_k[(s, e, a), s'] = (U_k (1 x
    g_k))[(s, e), (s', a)] from S to S x E_k x A_k, g_k = Gibbs_k^(1/2): one batched eigh
    and one batched matmul per group."""
    d, ws = enc.system.dim_s, {}
    for e, (_, u, rho_e) in enc.groups.items():
        w, v = np.linalg.eigh(rho_e)
        g = (v * np.sqrt(np.maximum(w, 0.0))[:, None, :]) @ dag(v)
        ws[e] = (u.reshape(-1, d * e, d, e) @ g[:, None]).transpose(0, 1, 3, 2).reshape(-1, d * e * e, d)
    return ws


def _purified_chain(psi: np.ndarray, enc: Encounters) -> Iterator[np.ndarray]:
    """The purified chain vector after each step k = 1 .. len(enc.probes), yielded in turn:
    the oracle's evolution by its encounters alone (free ones: :func:`full_chain_expectation`).

    `psi` is a (d_A, d) purification of the start on S, the state sum_alpha sign_alpha
    psi[alpha] psi[alpha]*. Probe k joins as the vector g_k on E_k and an ancilla A_k
    (g_k g_k* = Gibbs_k), so the legs run [A_S, S, E_k, A_k, ..., E_1, A_1]: step k is
    one product W_k psi on the S leg (:func:`_chain_isometries`), which adds E_k and A_k
    next to S and applies U_k, with no kron, no column side and no transposed copy; it
    holds the new vector and the old one, e^-2 of it. A yielded vector is not changed
    by later steps, which build new arrays.
    """
    ws, d = _chain_isometries(enc), enc.system.dim_s
    for probe, k in zip(enc.probes, enc.pos):
        psi = ws[probe.dim_e][k] @ psi.reshape(len(psi), d, -1)
        yield psi


def _read_window(
    psi: np.ndarray, signs: np.ndarray, steps: list[ProbeSpec], dims: list[int], ops: np.ndarray, m: int, l: int, r: int
) -> complex | np.ndarray:
    """The expectation of the window operator(s) `ops` in the chain vector `psi` after step
    m (see :func:`full_chain_expectation`). The window state is sum_alpha signs[alpha] Y Y*
    over the slices Y of row alpha: S and E_m .. E_(m-l) are Y's rows and the other legs its
    columns, and for l > 0 there is one Y per value of the kept legs' ancillas A_m .. A_(m-l)."""
    d, kept = dims[0], dims[m - l : m + 1]  # the window legs E_(m-l) .. E_m, in probe order
    size = math.prod(kept)
    x = psi.reshape(len(psi), d, *[n for e in kept[::-1] for n in (e, e)], -1)
    rho_t = np.zeros((d * size, d * size), dtype=complex, order="F")  # upper triangle of rho_w^T
    for alpha, sign in enumerate(signs.tolist()):
        for idx in np.ndindex(*kept[::-1] if l else ()):  # zherk: no conjugated copy
            y = x[(alpha, slice(None), *[i for a in idx for i in (slice(None), a)])]  # copied if l > 0
            rho_t = zherk(sign, y.reshape(d * size, -1).T, beta=1.0, c=rho_t, trans=2, overwrite_c=1)
    rho_w = np.tril(rho_t.T) + np.triu(rho_t, 1).conj()
    if l:  # the kept legs arrive newest first: put them back in probe order
        n = l + 1
        rho_w = rho_w.reshape(d, *kept[::-1], d, *kept[::-1])
        rho_w = rho_w.transpose(0, *range(n, 0, -1), n + 1, *range(2 * n + 1, n + 1, -1))
    rho_w = rho_w.reshape(d * size, d * size)
    if l:  # each kept leg E_n, n < m, evolves freely over the steps n + 1 .. m
        free = [expm_hermitian(steps[n - 1].h_e, -1j * sum(p.tau for p in steps[n:m]))
                for n in range(m - l, m)]
        f = reduce(np.kron, [np.eye(d), *free, np.eye(dims[m])])
        rho_w = f @ rho_w @ dag(f)
    if r:  # Tr_idle[(1 x Gibbs_(m+1) x ... x Gibbs_(m+r)) op], the idle legs' expectation
        idle = reduce(np.kron, [probe.gibbs_state() for probe in steps[m : m + r]])
        ops = weighted_partial_trace(ops, d * size, idle)
    if ops.ndim == 2:
        return complex(np.einsum("ij,ji->", rho_w, ops))
    return np.array([np.einsum("ij,ji->", rho_w, op) for op in ops], dtype=complex)


def full_chain_expectation(
    sys: SystemSpec,
    steps: list[ProbeSpec],
    op_window: np.ndarray,
    m: int | Sequence[int],
    l: int,
    r: int,
    rho_init: np.ndarray,
) -> complex | np.ndarray:
    """Exact expectation of an arbitrary window operator after m steps, m >= 1.

    `op_window` acts on S x E_(m-l) x ... x E_(m+r), in that tensor order;
    `rho_init` is a Hermitian matrix on S (every caller passes a density
    matrix), else a ValueError. Evolves rho_init x (x_k Gibbs_k) on the
    truncated chain S x E_1 x ... x E_m as a purified vector, every probe leg
    carried to the end and each full U_k applied (:func:`_purified_chain`):
    with rho_init = V diag(lam) V*, an ancilla leg A_S carries V |lam|^(1/2),
    and the readout weights it by sign(lam), exact for any Hermitian rho_init.
    Step k also evolves every other probe freely for tau_k. A probe not yet
    coupled needs no factor, as its Gibbs state commutes with its free
    evolution, so the r probes after step m are traced out of `op_window`
    against their Gibbs states, never joined to the state. The free
    evolution of a probe E_n already coupled commutes with every later
    encounter and collects into one factor f_n = exp(-i h_(E_n) t_n), t_n =
    tau_(n+1) + ... + tau_m. The legs outside the window are traced out
    first (:func:`_read_window`) and need none, as Tr_E[f x f*] = Tr_E[x];
    the kept legs, newest first, are put back in probe order, and each kept
    leg E_n (m - l <= n < m) gets its f_n once, as f rho_w f* on the reduced
    window state rho_w. No reduced-picture shortcut is used.

    `m` is one step count or an increasing sequence of them. A sequence is
    served by one evolution, to its largest m: after each step m it asks
    about, the evolved chain state is read out as above (trace, free
    evolutions, idle legs, contraction), so each entry is bitwise the
    one-m value. `op_window` is one (D, D) operator, giving a complex, or
    an (n, D, D) stack, giving an (n,) complex array; a sequence adds a
    leading axis with one entry per m. The evolved state does not depend
    on the operator, so a stack shares the chain evolution; each operator
    is contracted with it exactly as a one-operator call would be.
    """
    rho_init = require_hermitian(rho_init, "rho_init")
    d = sys.dim_s
    if rho_init.shape != (d, d):
        raise ValueError("rho_init must act on the system space")
    single = np.ndim(m) == 0
    ms = [m] if single else list(m)
    if not ms or any(b <= a for a, b in zip(ms, ms[1:])):
        raise ValueError(f"m must be a step count or an increasing sequence of them, got {m!r}")
    if ms[0] - l < 1:
        raise ValueError(f"window slot -l reaches probe {ms[0] - l} < 1 at m = {ms[0]}")
    if ms[-1] + r > len(steps):
        raise ValueError(f"need {ms[-1] + r} probe specs, got {len(steps)}")
    dims = [d] + [p.dim_e for p in steps[: ms[-1]]]
    check_capacity(dims)

    op_window, values = np.asarray(op_window), []
    lam, v = np.linalg.eigh(rho_init)  # rho_init = sum_alpha sign(lam_alpha) psi[alpha] psi[alpha]*
    states = _purified_chain((v * np.sqrt(np.abs(lam))).T, encounters(sys, steps[: ms[-1]]))
    for k in range(1, ms[-1] + 1):
        psi = next(states)  # not enumerate, whose reused tuple would keep the vector alive
        if k in ms:
            values.append(_read_window(psi, np.sign(lam), steps, dims, op_window, k, l, r))
        del psi  # while the next step runs, only the chain engine holds the vector
    return values[0] if single else np.array(values)


def full_chain_oracle(
    sys: SystemSpec,
    steps: list[ProbeSpec],
    obs: ObservableWindow,
    m: int | Sequence[int],
    rho_init: np.ndarray,
) -> complex | np.ndarray:
    """Exact expectation of a windowed product observable after m >= 1 steps.

    See :func:`full_chain_expectation` for the underlying brute-force
    contraction; this wrapper assembles A_S x B^(-l) x ... x B^(r). With
    a stack of system observables in `obs.a_s` it assembles one operator
    per observable, evaluates them all on one chain evolution and returns
    an (n,) complex array. `m` may be an increasing sequence of step
    counts, read out of one evolution to its largest; the result then has
    a leading axis with one entry per m.
    """
    ops = obs.a_s
    for b in obs.b_list:
        ops = np.kron(ops, b)
    return full_chain_expectation(sys, steps, ops, m, obs.l, obs.r, rho_init)


def reduce_windows(enc: Encounters, choices: list, a_s: np.ndarray, bs: list, l: int, r: int) -> np.ndarray:
    """(n, d, d) reduced Heisenberg matrices X of A_S x B^(-l) x ... x B^(r), one per tuple.

    A window family is A_S and a per-slot table of B. The tuples are those of
    ``itertools.product(*choices)``: ``choices[j + l]`` lists the indices into
    ``enc.probes`` allowed at slot j, and ``bs[j + l][i]`` is the (e, e) B at slot j
    for probe ``choices[j + l][i]`` of dimension e; every tuple shares the
    (d, d) `a_s`. Each is checked once, and a slot's B enter its step as one
    gather per probe dimension.
    All tuples are reduced at once, slot by slot from r down to -l: from
    Y = A_S, slot j sets Y <- Tr_E[(1 x rho_E) U* (Y x B_j(t)) U], with the
    stacked step unitary U and Gibbs state rho_E of the slot's probe and
    B_j(t) = e^(ith) B_j e^(-ith) evolved freely over the summed tau t of
    slots j+1..0. A future slot (j > 0) has not interacted: it takes no U,
    so it only scales Y by Tr[rho_E B_j]. Each step is a batched matmul per
    tuple, so a row is bitwise its one-tuple reduction. The window guard is
    checked before any reduction work is done.
    """
    d, n, a_s = enc.system.dim_s, math.prod(len(c) for c in choices), np.asarray(a_s, dtype=complex)
    if (min(l, r) < 0 or len(choices) != l + r + 1 or a_s.shape != (d, d)
            or [*map(len, bs)] != [*map(len, choices)]):
        raise ValueError(f"a window family needs l, r >= 0, a ({d}, {d}) A_S and one B per choice")
    check_capacity([d, max(enc.probes[k].dim_e for c in choices for k in c)], l + r, stack=n)
    dim_e, taus = np.array([p.dim_e for p in enc.probes]), np.array([p.tau for p in enc.probes])
    # per slot and probe dimension e: a table whose row i is choice i's B if it has dimension e
    tables = [{e: np.zeros((len(c), e, e), complex) for e in np.unique(dim_e[c])} for c in choices]
    for j, (c, slot_bs, table) in enumerate(zip(choices, bs, tables), start=-l):
        for i, (e, b) in enumerate(zip(dim_e[c], slot_bs)):
            if np.shape(b) != (e, e):
                raise ValueError(f"slot {j}: B has shape {np.shape(b)}, expected ({e}, {e})")
            table[e][i] = b
    # per probe dimension e, if a past slot evolves its B freely: the probes' h_E, row for row
    h_es = {e: np.stack([enc.probes[k].h_e for k in rows]) for e, (rows, _, _) in enc.groups.items()} if l else {}
    picks = np.indices([len(c) for c in choices]).reshape(len(choices), n)  # row s: slot s - l
    x = np.repeat(a_s[None], n, axis=0)
    elapsed = np.zeros(n)  # summed tau of the slots j+1..0
    for j in range(r, -l - 1, -1):
        atoms = np.asarray(choices[j + l], dtype=np.intp)[picks[j + l]]
        for e, table in tables[j + l].items():
            _, u, rho_e = enc.groups[e]
            rows = np.flatnonzero(dim_e[atoms] == e)
            k, m = enc.pos[atoms[rows]], len(rows)
            b = table[picks[j + l, rows]]
            if j < 0:
                free = expm_hermitian(h_es[e][k], -1j * elapsed[rows])
                b = dag(free) @ b @ free
                del free
            y = (x[rows][:, :, None, :, None] * b[:, None, :, None, :]).reshape(m, d * e, d * e)
            del b  # before the products, which hold 3 (m, d e, d e) arrays at most
            if j <= 0:
                y = np.ascontiguousarray(dag(u[k])) @ y
                y = y @ u[k]
            x[rows] = weighted_partial_trace(y, d, rho_e[k])
        if j <= 0:
            elapsed += taus[atoms]
    return x


def reduce_instant(sys: SystemSpec, window_steps: list[ProbeSpec], obs: ObservableWindow) -> np.ndarray:
    """Reduced Heisenberg system matrix X of one instantaneous observable.

    The one-tuple case of :func:`reduce_windows`, with `window_steps` the
    probes at slots -l..r. The GNS matrix N of X is left multiplication by X,
    so N psi_S = vec(X rho_s^(1/2)) and <psi_0, alpha^m(O) psi_0> =
    <psi_S, M_1 ... M_(m-l-1) N psi_S> with the M_k of the same models.
    """
    choices = [[k] for k in range(len(window_steps))]
    bs = [[b] for b in obs.b_list]
    return reduce_windows(encounters(sys, window_steps), choices, obs.a_s, bs, obs.l, obs.r)[0]


def energy_terms(enc: Encounters, phis: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(vbar, own, F) of each probe's encounter, as (n, d, d) stacks of system matrices.

    `phis` holds the probes' Heisenberg maps. vbar = Tr_E[(1 x rho_E) V] is
    the Gibbs mean field of the interaction, own = Tr_E[(1 x rho_E) W* V W]
    its reduction through the encounter, and F = H_S + vbar - Phi(H_S) - own
    the per-encounter flux matrix. Both reductions read the stacked step
    unitaries and Gibbs states of `enc`, as :func:`reduced_heisenberg_maps` does.
    """
    sys, d = enc.system, enc.system.dim_s
    vbar = np.empty((len(enc.probes), d, d), dtype=complex)
    own = np.empty_like(vbar)
    for rows, u, rho_e in enc.groups.values():
        v = np.stack([enc.probes[k].v for k in rows])
        vbar[rows] = weighted_partial_trace(v, d, rho_e)
        own[rows] = weighted_partial_trace(dag(u) @ v @ u, d, rho_e)
    flux = sys.h_s + vbar - unvec(phis @ vec(sys.h_s), d) - own
    return vbar, own, flux


def qubit_exchange_model(
    e_s: float,
    e_e: float,
    coupling: float,
    tau: float,
    beta_s: float,
    beta_e: float,
) -> tuple[SystemSpec, ProbeSpec]:
    """Two-level system and probe with excitation-exchange coupling.

    h_s = diag(0, e_s), h_e = diag(0, e_e),
    v = coupling (sp x sm + sm x sp).
    """
    sp = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    sm = dag(sp)
    v = coupling * (np.kron(sp, sm) + np.kron(sm, sp))
    sys = SystemSpec(dim_s=2, h_s=np.diag([0.0, e_s]).astype(complex), beta_s=beta_s)
    probe = ProbeSpec(dim_e=2, h_e=np.diag([0.0, e_e]).astype(complex), beta_e=beta_e, v=v, tau=tau)
    return sys, probe


def model_from_json(doc: dict, where: str = "model") -> tuple[SystemSpec, ProbeSpec]:
    """The (system, probe) of a model document.

    ``{"system": {"dim", "h", "beta"}, "probe": {"dim", "h", "beta", "v", "tau"}}``:
    each dim an integer >= 1, each beta and tau a finite real number (not a
    bool), each matrix as :func:`ries.serialize.matrix_from_json` parses it.
    Anything else (an unknown key at any of the three levels too), or a value
    the specs reject, is a ValueError that names its field by its path below
    `where`.
    """
    parts = {"system": ("dim", "h", "beta"), "probe": ("dim", "h", "beta", "v", "tau")}
    check_fields(doc, tuple(parts), where)
    for part, keys in parts.items():
        check_fields(doc.get(part), keys, f"{where}.{part}")
        if not is_int(doc[part].get("dim"), 1):
            raise ValueError(f"{where}.{part}.dim must be an integer >= 1, got {doc[part].get('dim')!r}")
        for key in ("beta", "tau"):
            if key in keys and not is_real(x := doc[part].get(key)):
                raise ValueError(f"{where}.{part}.{key} must be a finite real number, got {x!r}")
    sdoc, pdoc = doc["system"], doc["probe"]
    h_s = matrix_from_json(sdoc.get("h"), f"{where}.system.h")
    h_e = matrix_from_json(pdoc.get("h"), f"{where}.probe.h")
    v = matrix_from_json(pdoc.get("v"), f"{where}.probe.v")
    try:  # the specs name the field they reject: h_s, beta_s, h_e, v, beta_e or tau
        sys = SystemSpec(dim_s=sdoc["dim"], h_s=h_s, beta_s=float(sdoc["beta"]))
        probe = ProbeSpec(
            dim_e=pdoc["dim"], h_e=h_e, beta_e=float(pdoc["beta"]), v=v, tau=float(pdoc["tau"])
        )
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc
    return sys, probe
