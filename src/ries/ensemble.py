"""Random reduced dynamics processes over finite-support ensembles.

An ensemble is a finite probability distribution over RDOs sharing one
invariant vector psi_s; iid draws from it generate the random product
Psi_n = M(w_1) ... M(w_n). :class:`RrdoEnsemble` holds it as stacks, one
array per quantity with one row per atom, and every reader indexes those
rows. This module provides the mean operator and the closed-form
asymptotic vector theta (two independent routes), and every trajectory
walk: seeded forward/reverse trajectory simulation, decay-rate estimation
for the strictly-contracting parts, Lyapunov exponent estimation, and the
Monte Carlo Cesaro means that :mod:`ries.thermo` estimates from.

The trajectory kernels take a list of seeds (or one seed) and step them as
one stack, with one batched SVD or QR where a step or checkpoint needs one
and norms taken slice by slice; their records hold one row per seed. Time
is blocked as well (a blocked prefix scan): :func:`block_grid` cuts each
checkpoint interval into near-equal blocks of at most ceil(sqrt(n_total))
steps, the matrix kernels walk runs of blocks side by side into block
products (:func:`_sweeps`) and then chain the blocks, and the Monte Carlo
means (:func:`cesaro_means`) sum per-block buffers of vectors. The grid
depends only on n_total and the interval, so each seed's results are
bitwise independent of batching and of which other seeds ran; they are
within a stated tolerance of a one-step loop (see the tests), not bitwise
equal to it.

The forward, reverse and Lyapunov kernels and the Monte Carlo means walk
one k-atom word per matmul (the "method of Four Russians": Arlazarov,
Dinic, Kronrod and Faradzev, 1970), from tables of one builder
(:func:`_word_tables`), at one rule (:func:`_word_length`): k is the
largest k >= 1 with A**k times one word's table entries at most
WORD_ENTRIES = 2**12 (A atoms, a single atom counted as two). On two qubit
atoms (GNS dimension D = 4) k is 5 for forward, 4 for reverse and 6 for
Lyapunov, whose words :func:`_words` cuts from each block's start, and 8
for the instant average and 7 for the fluxes, which walk in complex; on 64
atoms at D = 9 k is 1, and every walk steps single atoms as a one-step walk
does. The decay kernel reads a norm after every step, so it steps single
atoms too. The four matrix kernels read their float64 tables, at every k,
from one cache on the ensemble with one entry per walk, built on the walk's
first call (:func:`_walk_tables`); the Monte Carlo means build theirs once
per call, from the observable tables they are given.

Every walk steps its atoms in a basis where the vector they keep (psi_s, or
vec(1) for the flux walk's adjoint maps) is a multiple of e_1, each M^* (each
adjoint map) with its first row set to e_1^* exactly and each M with its first
column set to e_1 (:func:`_e1_frame`, :attr:`RrdoEnsemble.e1`). Every float
product of such steps keeps that row or column bit for bit, so the words are
plain products and nothing drifts along the kept vector.

The matrix kernels step their block products in float64. A complex D x D
product X is carried as [Re X; Im X], the first column of its real 2D x 2D
embedding [[Re X, -Im X], [Im X, Re X]] (:func:`ries.linalg.embed`), and
each step left-multiplies it by an embedded word or atom matrix, gathered
from the walk's float64 table; a product that grows on the right steps as
its adjoint. The embedding is an exact algebra homomorphism, so
the products are those of the complex matrices up to rounding. Each kernel
reads its blocks back as complex once per run of blocks (the decay norms
once per in-block offset), and its Kahan sums, distances, drift, SVDs and
QRs stay complex.

Randomness is counter-based (Philox) and fully reproducible: a seed is
one realization of the atom sequence, :meth:`RrdoEnsemble.sample_paths`
is the one place where it becomes a stream, and :func:`_start` the one
place where a walk turns its seeds into paths, so a seed's path never
depends on which other seeds ran.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from . import rdo as rdo_mod
from .linalg import KahanAccumulator, dag, embed, readback, vec
from .model import (
    Encounters, ProbeSpec, SystemSpec, encounters, energy_terms, model_from_json, rdos_from_model, scaled_probes
)
from .rdo import Rdo, RdoValidationError, SpectralReport, classify, decompose
from .serialize import check_fields, is_int, is_real, matrix_from_json

# theta_routes sums theta's series, as one resolvent solve, only when
# 1 - spr(E[M_Q]) exceeds this floor
RESOLVENT_FLOOR = 1e-12
# complex entries per seed that the products of one run of blocks (see
# _sweeps), or one buffer of vectors, hold: 2048 bytes, a float64 block product
# holding D**2 of them as its 2D x D embedding column. It bounds a kernel's
# working set, so that its peak memory stays near that of a one-step loop
SWEEP_ENTRIES = 128


class EnsembleError(Exception):
    pass


def trajectory_rng(seed: int) -> np.random.Generator:
    """Counter-based generator for one seed; independent across seeds."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(0,))
    return np.random.Generator(np.random.Philox(ss))


def _e1_frame(u: np.ndarray, steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(H, S'): a unitary H with H u = e_1 for the unit vector u, and the stack `steps`
    in its basis, each S' = H S H^* with its first row set to e_1^* exactly.

    H is the Householder reflection 1 - 2 v v^* / (v^* v), v = u + phi e_1, which
    maps u to -phi e_1 (Householder, "Unitary triangularization of a nonsymmetric
    matrix", J. ACM 1958), times the phase -conj(phi), phi = u_1 / |u_1| (1 if
    u_1 = 0). Each step keeps u^* (u^* S = u^*) up to its rounding, so setting the
    row moves it by that defect ||u^* S - u^*||, and every float product of the S'
    keeps the row bit for bit.
    """
    phase = u[0] / abs(u[0]) if u[0] != 0 else 1.0
    v = u.astype(complex)
    v[0] += phase
    h = -np.conj(phase) * (np.eye(len(u)) - (2.0 / np.vdot(v, v).real) * np.outer(v, v.conj()))
    kept = h @ steps @ dag(h)
    kept[:, 0] = 0.0
    kept[:, 0, 0] = 1.0
    return h, kept


class RrdoEnsemble:
    """Finite-support distribution over RDOs with a common invariant vector, as stacks.

    Each per-atom quantity is stored once, as one array with one row per
    atom: ``probs`` (the weights), ``matrices`` (M), ``mq`` (M_Q = Q M Q), ``psi_omega``
    (psi(w) = P_1(w)^* psi_s) and the ``in_class`` flags (simple gapped 1).
    A model-built ensemble also holds its ``encounters`` (:class:`ries.model.Encounters`)
    with its one ``system`` and its ``probes``, the ``phis`` stack of vectorized
    Heisenberg maps and the probe ``betas``; a matrix-form ensemble has None in all five.

    The stacks are filled by batched builds, never atom by atom: the atoms'
    psi_s must all equal the first to 1e-12 (absolute), one batched eig of
    the M* gives the classes, psi(w) and M_Q (:func:`ries.rdo.rank_one_split`),
    and :meth:`from_models` builds the encounters once, which every M and Phi
    (:func:`ries.model.rdos_from_model`), the energy tables and every observable
    family read. Row k is bitwise atom k's own build.

    The matrix kernels step float64 word tables of the e_1-basis stacks (:attr:`e1`),
    which ``walk_tables`` holds, one read-only entry per walk, each built on the
    walk's first call (:func:`_walk_tables`).
    """

    def __init__(
        self,
        probs,
        rdos: list[Rdo],
        encounters: Encounters | None = None,
    ):
        if not rdos:
            raise EnsembleError("ensemble needs at least one atom")
        if len(probs) != len(rdos) or (encounters is not None and len(encounters.probes) != len(rdos)):
            raise EnsembleError("one weight (and one probe) per atom")
        self.probs = np.array(probs, dtype=float)
        # a NaN weight passes every tolerance comparison, so it is rejected by name
        if not np.isfinite(self.probs).all() or (self.probs < 0).any():
            raise EnsembleError(f"probabilities must be finite and nonnegative: {self.probs}")
        total = self.probs.sum()
        if abs(total - 1.0) > 1e-12:
            raise EnsembleError(f"probabilities sum to {total}, expected 1")
        self.matrices = np.stack([r.m for r in rdos])
        psis = np.stack([r.psi_s for r in rdos])
        self.psi_s = psis[0]
        if not np.allclose(psis, self.psi_s, rtol=0.0, atol=1e-12):
            raise EnsembleError("all atoms must share psi_s")
        # one batched eig of the M* gives the spectral classes and the splits
        eigs, left = rdo_mod.spectra(self.matrices)
        self.in_class = rdo_mod.class_flags(eigs)[2].tolist()
        split = rdo_mod.rank_one_split(self.matrices, self.psi_s, eigs, left)
        self.mq, self.psi_omega = split.m_q, split.psi
        self.encounters = encounters
        self.walk_tables = {}  # walk: (k, its float64 tables), see _walk_tables
        self.system = self.probes = self.phis = self.betas = None
        if encounters is not None:
            self.system, self.probes = encounters.system, encounters.probes
            self.phis, self.betas = np.stack([r.phi for r in rdos]), np.array([p.beta_e for p in self.probes])

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    @property
    def n_atoms(self) -> int:
        return len(self.probs)

    @cached_property
    def e1(self) -> dict:
        """The stacks the walks step, in the basis of H = :func:`_e1_frame` of psi_s / |psi_s|,
        built on first use: "frame" (H), "adjoints" (H M^* H^*, first row e_1^* exactly),
        "matrices" (their adjoints), "mq" (H M_Q H^*), "mq_adjoints" and "psi_omega" (H psi(w))."""
        h, adjoints = _e1_frame(self.psi_s / np.linalg.norm(self.psi_s), dag(self.matrices))
        mq = h @ self.mq @ dag(h)
        return {
            "frame": h,
            "adjoints": adjoints,
            "matrices": np.ascontiguousarray(dag(adjoints)),
            "mq": mq,
            "mq_adjoints": np.ascontiguousarray(dag(mq)),
            "psi_omega": self.psi_omega @ h.T,
        }

    @cached_property
    def e1_heisenberg(self) -> tuple[np.ndarray, np.ndarray]:
        """:func:`_e1_frame` of u = vec(1) / sqrt(d) and the Phi^*, which keep the trace
        (u^* Phi^* = u^*), built on first use: the flux walk's steps."""
        d = self.system.dim_s
        return _e1_frame(vec(np.eye(d)) / np.sqrt(d), dag(self.phis))

    @cached_property
    def mean(self) -> Rdo:
        """E[M], computed once per ensemble (see :func:`mean_rdo`)."""
        return mean_rdo(self)

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

        As column-major system vectors: ``jump[i, j] = vec(Phi_i(vbar_j) - own_i)``
        is the total-energy jump of a step drawn from atom i followed by atom j,
        and ``flux[i] = vec(F_i)`` is atom i's flux matrix. One stacked reduction
        of the ensemble's encounters builds both (:func:`ries.model.energy_terms`);
        callers must not write into them.
        """
        vbar, own, flux = map(vec, energy_terms(self.encounters, self.phis))
        jump = np.einsum("iab,jb->ija", self.phis, vbar) - own[:, None, :]
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
        enc = encounters(system, [probe for _, probe in weighted_probes])
        return cls([p for p, _ in weighted_probes], rdos_from_model(enc), enc)

    @classmethod
    def from_matrices(
        cls, psi_s: np.ndarray, weighted_matrices: list[tuple[float, np.ndarray]], where: str = "atoms"
    ) -> "RrdoEnsemble":
        """Atoms from matrices, each one an RDO for `psi_s` (:func:`ries.rdo.validate`); one that
        is not raises RdoValidationError naming it as ``{where}[k].matrix``."""
        rdos = []
        for k, (_, m) in enumerate(weighted_matrices):
            try:
                rdos.append(rdo_mod.validate(m, psi_s))
            except RdoValidationError as exc:
                raise RdoValidationError(f"{where}[{k}].matrix: {exc}") from exc
        return cls([p for p, _ in weighted_matrices], rdos)

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
        "coupling" scales the interaction operator. Atom by atom, tau, then
        beta, then the coupling scale is drawn from ``trajectory_rng(seed)``.
        The draws are validated once, as arrays, and the atoms' probes are
        built from the checked base probe without re-checking each one
        (:func:`ries.model.scaled_probes`). A range that is not exactly a low
        and a high, whose bounds are no finite real numbers or whose span is
        not finite, whose low exceeds its high, or (but for the coupling,
        which scales V and may be negative) whose low is negative, or a draw
        that ProbeSpec would reject, raises ValueError.
        """
        for key, bounds in ranges.items():
            check_fields(bounds, ("low", "high"), f"{key} range")
            low, high = bounds.get("low"), bounds.get("high")
            if not (is_real(low) and is_real(high) and math.isfinite(float(high) - float(low))):
                raise ValueError(f"{key} range {bounds}: bounds and span must be finite real numbers")
            if low > high or (low < 0 and key != "coupling"):
                raise ValueError(f"{key} range {bounds}: need low <= high, and low nonnegative but for coupling")
        rng = trajectory_rng(seed)

        def draw(key: str, default: float) -> float:
            return rng.uniform(ranges[key]["low"], ranges[key]["high"]) if key in ranges else default

        draws = [  # per atom: tau, then beta, then the coupling scale
            (draw("tau", base_probe.tau), draw("beta", base_probe.beta_e), draw("coupling", 1.0))
            for _ in range(count)
        ]
        taus, betas, scales = np.array(draws, dtype=float).reshape(-1, 3).T  # count < 1: no rows
        probes = scaled_probes(base_probe, taus, betas, scales)
        return cls.from_models(system, [(1.0 / count, probe) for probe in probes])


def mean_rdo(ens: RrdoEnsemble) -> Rdo:
    """Probability-weighted mean of the ensemble's RDOs."""
    return Rdo(m=np.einsum("k,kij->ij", ens.probs, ens.matrices), psi_s=ens.psi_s)


def theta_routes(ens: RrdoEnsemble) -> dict:
    """Asymptotic vector theta by two independent formulas.

    Route "projector": adjoint of the spectral projection of E[M] at 1,
    applied to psi_s. Route "neumann": the series sum_k (E[M_Q]^*)^k E[psi],
    which converges exactly when spr(E[M_Q]) < 1, to the resolvent
    (1 - E[M_Q]^*)^(-1) E[psi]; it is taken as one linear solve, and only
    when 1 - spr(E[M_Q]) exceeds RESOLVENT_FLOOR. Below the floor its
    vector is NaN and the mismatch inf. Whether theta exists is the
    runners' to judge, from these numbers and the class of E[M].
    """
    theta_proj = decompose(ens.mean).psi

    e_mq = np.einsum("k,kij->ij", ens.probs, ens.mq)
    e_psi = np.einsum("k,ki->i", ens.probs, ens.psi_omega)
    spr = float(np.abs(np.linalg.eigvals(e_mq)).max())
    theta_series = np.full_like(e_psi, np.nan)
    mismatch = np.inf
    if 1.0 - spr > RESOLVENT_FLOOR:
        theta_series = np.linalg.solve(np.eye(len(e_psi)) - dag(e_mq), e_psi)
        mismatch = np.linalg.norm(theta_proj - theta_series)
    return {
        "theta_projector": theta_proj,
        "theta_neumann": theta_series,
        "mismatch": float(mismatch),
        "spr_mean_mq": spr,
    }


def _start(ens: RrdoEnsemble, seeds, n_total: int, extra: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Seeds as a 1-d array and their (S, n_total + extra) paths (see
    :meth:`RrdoEnsemble.sample_paths`), `extra` counting the steps that a walk draws
    besides its n_total (a burn-in, a window's next atoms); n_total < 1 raises ValueError."""
    if n_total < 1:
        raise ValueError(f"a walk needs n_total >= 1 steps, got {n_total}")
    seeds = np.atleast_1d(seeds)
    return seeds, ens.sample_paths(seeds, n_total + extra)


def block_grid(n: int, every: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Block grid of an n-step run: checkpoints, block ends, and which blocks end at one.

    A checkpoint falls after every `every`-th step and after the last; each
    interval between checkpoints is cut into near-equal blocks of at most
    ceil(sqrt(n)) steps. The grid depends on n and `every` only, never on the
    seeds, so a seed's arithmetic does not depend on which other seeds ran.
    """
    stops = np.unique(np.append(np.arange(every, n + 1, every), n))
    sizes = np.diff(stops, prepend=0)
    per = -(-sizes // (math.isqrt(max(n - 1, 0)) + 1))  # blocks per interval
    interval = np.repeat(np.arange(len(stops)), per)
    rank = np.arange(per.sum()) - np.repeat(np.cumsum(per) - per, per) + 1
    size, count = sizes[interval], per[interval]
    ends = stops[interval] - size + size * rank // count
    return stops, ends, rank == count


# the word tables' budget: the A**k words of length k, times the entries of one word's
# tables, hold at most this many entries (see :func:`_word_length`)
WORD_ENTRIES = 2**12


def _word_length(n_atoms: int, entries: int) -> int:
    """The word length k of a trajectory walk: the largest k >= 1 with
    A**k * entries <= WORD_ENTRIES, where A = n_atoms and `entries` counts one word's
    tables. A single atom, whose one word of each length would fit at any k, is
    budgeted as two."""
    a, k = max(n_atoms, 2), 1
    while a ** (k + 1) * entries <= WORD_ENTRIES:
        k += 1
    return k


def _word_tables(steps: np.ndarray, tables: np.ndarray, width: int, k: int) -> dict:
    """{m: (W, G)} for every word length m = 1, ..., k, in increasing m: the words and
    their pairing tables.

    W[c] = S(c_m) ... S(c_1) is the product of word c's steps and
    G[c] = sum_j P_j^* tables[c_(j+1), ..., c_(j+width)] pairs the vector at the
    word's start with its m tables at once, P_j = S(c_j) ... S(c_1) being the
    product of the word's first j steps; both are indexed by the flattened atom
    tuple, c_1 first, G by m + width - 1 atoms. Both grow from length 1 (the
    atoms' own `steps` and `tables`) one atom at a time, prepended as the first
    step: W = W'[c_2, ...] S(c_1), and G by Horner from the last step,
    G = tables[c_1, ...] + S(c_1)^* G'[c_2, ...]. `tables` may have no columns.
    The words are the plain float products: steps whose first row (or column) is
    e_1 exactly (:func:`_e1_frame`) give words whose first row (or column) is e_1
    bit for bit, each entry of it a sum of 1 x and 0 y terms.
    """
    a, dim, cols = len(steps), steps.shape[1], tables.shape[2]
    heads = steps[:, None]  # S(c_1), broadcast over the rest of the word
    out = {1: (steps, tables)}
    for m in range(2, k + 1):
        w, g = out[m - 1]
        rest = g.reshape(1, a ** (width - 1), a ** (m - 1), dim, cols)
        g = tables.reshape(a, a ** (width - 1), 1, dim, cols) + dag(steps)[:, None, None] @ rest
        out[m] = (w[None] @ heads).reshape(-1, dim, dim), g.reshape(a ** (m + width - 1), dim, cols)
    return out


def _words(ens: RrdoEnsemble, omega: np.ndarray, ends: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The walk of k-atom words over the grid `ends` and the (S, n) paths `omega`: (path, word ends).

    Each block is cut into words of k steps from its start, a block whose
    length is not a multiple of k ending in one shorter word (a block shorter
    than k is one word), so a word never spans two blocks. `path` holds, as
    (S, words) in the smallest dtype, each word's row in a table that stacks
    the words of every length 1, ..., k in that order (:func:`_walk_tables`):
    a word of length m sits at row offset_m plus its flattened atom tuple,
    first atom first, offset_m = A + A**2 + ... + A**(m - 1) for A atoms.
    `word ends` counts the words up to each block end. At k = 1 the words are
    the steps: the path is `omega`, and the word ends are `ends`.
    """
    if k == 1:  # single steps, without the index arithmetic, which would double forward's peak
        return omega, ends
    sizes = np.diff(ends, prepend=0)
    per_block = -(-sizes // k)
    word_ends = np.cumsum(per_block)
    block = np.repeat(np.arange(len(ends)), per_block)
    start = ends[block] - sizes[block] + k * (np.arange(word_ends[-1]) - (word_ends - per_block)[block])
    size = np.minimum(ends[block] - start, k)
    rows = np.cumsum([0] + [ens.n_atoms**m for m in range(1, k + 1)])  # offset_m at m - 1, then all rows
    path = np.zeros((len(omega), len(start)), dtype=np.min_scalar_type(rows[-1]))
    for i in range(k):  # Horner over each word's own atoms
        digit = i < size
        np.multiply(path, ens.n_atoms, out=path, where=digit)
        np.add(path, omega[:, np.minimum(start + i, omega.shape[1] - 1)], out=path, where=digit)
    path += rows[:-1].astype(path.dtype)[size - 1]
    return path, word_ends


def _walk_tables(ens: RrdoEnsemble, walk: str) -> tuple[int, list[tuple[np.ndarray, object]]]:
    """(k, [(table, fill), ...]) of a matrix kernel's walk, "forward", "reverse",
    "lyapunov" or "decay": its word length and its float64 tables, each with the fill
    of a finished block's slot (:func:`_sweeps`), from the ensemble's one cache.

    The walk's entry in ``ens.walk_tables`` is built on its first call and read by
    every later one, at every k; the calls share its arrays, which are read-only.
    k is the :func:`_word_length` of one word's float64 entries. A table stacks the
    words (:func:`_word_tables`, e_1 basis of :attr:`RrdoEnsemble.e1`) of every
    length 1, ..., k in that order, as :func:`_words` indexes them, each embedded
    once (:func:`ries.linalg.embed`, a D x 1 column as 2D x 2): forward's M^* words
    W and the sums Q = G^* of their prefix products (8 D**2 entries a word; at
    k = 1 Q = W, so no Q), reverse's M and M_Q words and local eta sums G
    (8 D**2 + 4 D), Lyapunov's M^* words (4 D**2), and decay's M_Q^* atoms: decay
    reads a norm after every step, so its k is 1.
    """
    if walk not in ens.walk_tables:
        e1, d = ens.e1, ens.dim
        eye, none = np.eye(2 * d), e1["matrices"][:, :, :0]  # the identity fill; no pairing tables
        if walk == "forward":
            k = _word_length(ens.n_atoms, 8 * d * d)
            w, g = zip(*_word_tables(e1["adjoints"], e1["matrices"], 1, k).values())
            parts = [(w, eye), ([dag(q) for q in g], 0.0)] if k > 1 else [(w, eye)]
        elif walk == "reverse":
            k = _word_length(ens.n_atoms, 8 * d * d + 4 * d)
            left, _ = zip(*_word_tables(e1["matrices"], none, 1, k).values())
            lead, eta = zip(*_word_tables(e1["mq"], e1["psi_omega"][:, :, None], 1, k).values())
            parts = [(left, eye), (lead, eye), (eta, 0.0)]
        elif walk == "lyapunov":
            k = _word_length(ens.n_atoms, 4 * d * d)
            w, _ = zip(*_word_tables(e1["adjoints"], none, 1, k).values())
            parts = [(w, eye)]
        else:  # decay
            k, parts = 1, [((e1["mq_adjoints"],), eye)]
        tables = [(embed(np.concatenate(rows)), fill) for rows, fill in parts]
        for table, _ in tables:
            table.flags.writeable = False
        ens.walk_tables[walk] = k, tables
    return ens.walk_tables[walk]


def _sweeps(
    ens: RrdoEnsemble, path: np.ndarray, ends: np.ndarray, *tables: tuple[np.ndarray, np.ndarray]
) -> Iterator[tuple[np.ndarray, Callable[[], Iterator]]]:
    """Runs of consecutive blocks of the grid, walked side by side one word at a time.

    `path` and `ends` are a walk's words and its block ends counted in words
    (:func:`_words`; for a walk of single steps, the paths and the grid's
    ends). Yields (run, steps) for runs of at most max(1, SWEEP_ENTRIES // dim**2)
    blocks: `run` holds the run's block indices into `ends`, and each call
    of `steps()` iterates the in-block word offsets j = 0, 1, ... of the run.
    `tables` are (table, fill) pairs, float64 tables of the walk's words;
    offset j yields one gather per table and the (blocks,) mask of
    blocks that have a word j (None when all do). A gather returns the
    (blocks, S, ...) stack of table[w] at each block's word j, with `fill` in
    the slots of blocks shorter than j + 1 words. Tables of one shape share
    one stack, reused from offset to offset, so a gather overwrites the last
    one of its shape. The run's indices are cut from the small-dtype path.
    An identity fill is exact, so a block's numbers do not depend on the run
    it is walked in.
    """

    def steps(run: np.ndarray) -> Iterator[tuple[list, np.ndarray | None]]:
        first = np.where(run > 0, ends[run - 1], 0)
        lengths = ends[run] - first
        cols = np.minimum(first[:, None] + np.arange(lengths.max()), path.shape[1] - 1)
        indices = np.ascontiguousarray(path[:, cols].transpose(2, 1, 0))
        short_from = lengths.min()
        shapes = {table.shape[1:] for table, _ in tables}
        stacks = {shape: np.empty(indices.shape[1:] + shape) for shape in shapes}

        def gather(table: np.ndarray, fill, idx: np.ndarray, live: np.ndarray | None) -> np.ndarray:
            stack = table.take(idx, axis=0, out=stacks[table.shape[1:]], mode="clip")
            if live is not None:
                stack[~live] = fill
            return stack

        for j, idx in enumerate(indices):
            live = None if j < short_from else j < lengths
            yield [partial(gather, table, fill, idx, live) for table, fill in tables], live

    per = max(1, SWEEP_ENTRIES // ens.dim**2)
    for a in range(0, len(ends), per):
        run = np.arange(a, min(a + per, len(ends)))
        yield run, partial(steps, run)


def _identities(eye: np.ndarray, *shape: int) -> np.ndarray:
    """Read-only stack of `eye`, the empty products: np.eye(d) for a complex product, or
    np.eye(2 d, d) = [1; 0] for the first embedding column of a float64 one."""
    return np.broadcast_to(eye, (*shape, *eye.shape))


def _pair(shape: tuple) -> Iterator[np.ndarray]:
    """Two float64 buffers of `shape`, in turn: the out= of a running product."""
    return itertools.cycle(np.empty((2, *shape)))


@dataclass
class ErgodicReport:
    """Forward trajectories of several seeds; row s of each array is seeds[s]."""

    seeds: np.ndarray
    checkpoints: np.ndarray
    distances: np.ndarray  # (S, checkpoints): Frobenius distance to |psi_s><theta|
    # (S,): max ||Psi_n psi_s - psi_s|| at checkpoints, in the e_1 basis: H psi_s's rounding
    max_invariance_drift: np.ndarray


def simulate_forward(
    ens: RrdoEnsemble, seeds, n_total: int, checkpoint_every: int = 1000
) -> ErgodicReport:
    """Simulate Psi_n = M(w_1)...M(w_n) and its Cesaro mean, all seeds as one stack.

    At each checkpoint N the Frobenius distance between the running average
    (1/N) sum Psi_n and the rank-one limit |psi_s><theta| is recorded, and the
    invariance drift ||Psi_N psi_s - psi_s||, both in the e_1 basis of
    :attr:`RrdoEnsemble.e1`, where Psi_N keeps its first column e_1 bit for bit:
    the drift measures only the rounding of H psi_s. The blocks of the grid
    (:func:`block_grid`) are walked side by side, one word at a time
    (:func:`_words`), into each block's product P and local prefix sum Q, in
    float64: P^* = M^*(w_b)...M^*(w_a) grows as the first column of its
    embedding (:func:`ries.linalg.embed`). A word c first adds Q[c] P^* to the
    block's sum, Q[c] = sum_j M^*(c_j)...M^*(c_1) being the sum of its prefix
    products, then left-multiplies P^* by its product W[c] (both from the
    ensemble's cached tables, :func:`_walk_tables`); at k = 1, where Q = W,
    each step left-multiplies by the embedded M^* and adds the product.
    Chaining the blocks, read back once per run, adds Psi_a Q to a Kahan sum
    and moves Psi_a to Psi_a P. Norms are taken slice by slice. Each seed's numbers are bitwise independent of batching, and within
    the stated tolerance of a one-step loop.
    """
    seeds, omega = _start(ens, seeds, n_total)
    e1 = ens.e1
    psi_s = e1["frame"] @ ens.psi_s  # |psi_s| e_1 up to rounding
    limit = np.outer(psi_s, (e1["frame"] @ ens.routes["theta_projector"]).conj())
    checkpoints, ends, at_checkpoint = block_grid(n_total, checkpoint_every)
    d = ens.dim
    k, tables = _walk_tables(ens, "forward")
    path, ends = _words(ens, omega, ends, k)
    del omega
    psi_prod = _identities(np.eye(d, dtype=complex), len(seeds))
    acc = KahanAccumulator(psi_prod.shape)
    distances = np.empty((len(seeds), len(checkpoints)))
    drift = np.zeros(len(seeds))
    c = 0
    for run, steps in _sweeps(ens, path, ends, *tables):
        prod = _identities(np.eye(2 * d, d), len(run), len(seeds))
        outs = _pair(prod.shape)
        sums = np.zeros(prod.shape)  # local prefix sums of the P^*
        for factors, live in steps():
            # at k = 1 Q = W, so Q[c] P^* would repeat the step's matmul: add the stepped
            # product instead, one matmul a step, not two
            if k == 1:
                prod = np.matmul(factors[0](), prod, out=next(outs))
                sums += prod if live is None else prod * live[:, None, None, None]
            else:  # words: Q[c] P^* is the sum of the word's prefix products
                sums += np.matmul(factors[1](), prod)
                prod = np.matmul(factors[0](), prod, out=next(outs))
        prod, sums = dag(readback(prod)), dag(readback(sums))
        for b, block in enumerate(run):
            acc.add(np.matmul(psi_prod, sums[b]))
            psi_prod = np.matmul(psi_prod, prod[b])
            if at_checkpoint[block]:
                mean = acc.total / checkpoints[c]
                for s in range(len(seeds)):
                    distances[s, c] = np.linalg.norm(mean[s] - limit, "fro")
                    drift[s] = max(drift[s], np.linalg.norm(psi_prod[s] @ psi_s - psi_s))
                c += 1
    return ErgodicReport(seeds, checkpoints, distances, drift)


@dataclass
class DecayEstimate:
    """Decay of the M_Q words of several seeds; row s of each array is seeds[s]."""

    seeds: np.ndarray
    log_norms: np.ndarray  # (S, n_total): log ||M_Q(w_1)...M_Q(w_n)||
    alpha: np.ndarray
    n0: np.ndarray
    log_c: np.ndarray


def _fit_envelope(log_norms: np.ndarray) -> tuple[float, int, float]:
    """(alpha, n0, log_c) of one seed's log-norm series; see :func:`decay_estimator`."""
    n_total = log_norms.size
    finite = np.isfinite(log_norms)
    ns = np.arange(1, n_total + 1)
    fit_from = max(n_total // 2, 1)
    sel = finite & (ns >= fit_from)
    if sel.sum() < 2:  # as fast as it gets if the word hit exact zero; else no rate
        return np.inf if not finite.all() else np.nan, 1, 0.0
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


def _pow2_scaled(a: np.ndarray) -> np.ndarray:
    """Scale each real matrix of `a` in place, exactly, by a power of two to a largest entry in [1/2, 1).

    Returns the exponents e with (a before) = 2**e * (a after); a zero matrix
    stays zero with e = 0, and a matrix already scaled is left as it is.
    """
    _, e = np.frexp(np.maximum(a.max(axis=(-2, -1)), -a.min(axis=(-2, -1))))
    a *= np.ldexp(1.0, -e)[..., None, None]
    return e


def _top_singular_values(c: np.ndarray) -> np.ndarray:
    """sigma_max of each complex Y = A + iB given as the first column [A; B] of its embedding.

    sigma_max^2 is the largest eigenvalue of Y^* Y = A^T A + B^T B + i (A^T B - B^T A).
    """
    d = c.shape[-1]
    ab = np.matmul(c[..., :d, :].swapaxes(-1, -2), c[..., d:, :])
    gram = np.empty(ab.shape, dtype=complex)
    np.matmul(c.swapaxes(-1, -2), c, out=gram.real)
    np.subtract(ab, ab.swapaxes(-1, -2), out=gram.imag)
    return np.sqrt(np.linalg.eigvalsh(gram)[..., -1])


def decay_estimator(ens: RrdoEnsemble, seeds, n_total: int) -> DecayEstimate:
    """Norm series of the strictly-contracting words, with fitted decay rates.

    The words decay when some atom is in the simple-gap class, which the
    decay runner checks; the estimator runs either way. Each word W steps in
    float64 as W^* = M_Q^*(w_n)...M_Q^*(w_1), the first column of its
    embedding (:func:`ries.linalg.embed`), scaled by a power of two at every
    step so that it can neither underflow nor overflow: the scale is an exact
    integer exponent per word. Two passes over each run of blocks of the grid
    (:func:`block_grid`): the block products are chained into the word at
    each block start; then, at each in-block offset, the words step on, and
    their spectral norms are sqrt(lambda_max(W W^*)), one batched eigvalsh.
    A word that hits exact zero stays zero, and its log norms are -inf from
    then on, at the same steps as in a one-step loop; the finite ones are
    within the stated tolerance of it, and bitwise independent of batching.
    Per seed, the fitted envelope C e^(-alpha n) comes from a log-linear fit
    on the second half of the series, and n0 is the first index from which
    the envelope bounds the whole tail; too few to fit, alpha is inf if the
    word hit exact zero, and NaN (no rate) if not.
    """
    seeds, omega = _start(ens, seeds, n_total)
    _, ends, _ = block_grid(n_total, n_total)
    d = ens.dim
    log_norms = np.empty((len(seeds), n_total))
    word = _identities(np.eye(2 * d, d), len(seeds))  # W^* at the next block start is 2**exp * word
    exp = np.zeros(len(seeds), dtype=np.int64)

    def step_run(run, steps):  # a function, so that the run's stacks go on return
        nonlocal word, exp
        first = np.where(run > 0, ends[run - 1], 0)
        n_offsets = (ends[run] - first).max()
        # the words, and the buffer they step into in turn; the first pass steps
        # the block products in the rows of both that the later words fill after it
        bufs = np.empty((2, len(run), len(seeds), 2 * d, d))
        words = bufs[n_offsets % 2]  # the buffer that the first pass does not end in
        exps = np.empty(words.shape[:2], dtype=np.int64)
        words[0], exps[0] = word, exp
        if len(run) > 1:  # chain block products into the words at the later block starts
            prod = _identities(np.eye(2 * d, d), len(run) - 1, len(seeds))
            outs = itertools.cycle(bufs[:, 1:])
            prod_exp = np.zeros(prod.shape[:2], dtype=np.int64)
            for (factor,), _ in steps():
                prod = np.matmul(factor()[:-1], prod, out=next(outs))
                prod_exp += _pow2_scaled(prod)
            for b in range(1, len(run)):
                np.matmul(embed(readback(prod[b - 1])), words[b - 1], out=words[b])
                exps[b] = exps[b - 1] + prod_exp[b - 1] + _pow2_scaled(words[b])
        outs = itertools.cycle((bufs[1 - n_offsets % 2], words))
        for j, ((factor,), live) in enumerate(steps()):
            words = np.matmul(factor(), words, out=next(outs))
            exps += _pow2_scaled(words)
            s = _top_singular_values(words)
            dead = s == 0
            s[dead] = 1.0
            value = exps * np.log(2.0) + np.log(s)
            value[dead] = -np.inf
            cols = first + j
            if live is None:
                log_norms[:, cols] = value.T
            else:  # a block past its end keeps its word
                log_norms[:, cols[live]] = value[live].T
        word, exp = words[-1].copy(), exps[-1].copy()

    for run, steps in _sweeps(ens, omega, ends, *_walk_tables(ens, "decay")[1]):
        step_run(run, steps)
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
    exponentially when decay of the M_Q words holds. The blocks of the grid
    (:func:`block_grid`) are walked side by side, in float64, one word at a
    time (:func:`_words`), into their left product and local lead product,
    each as the first column of an embedding (:func:`ries.linalg.embed`; the
    lead product as its adjoint, a left product of the M_Q), and their local
    eta sum: each word left-multiplies them by its M and M_Q products and adds
    its own local eta sum, paired with the lead product at its start (all
    from the ensemble's cached tables, :func:`_walk_tables`); at k = 1 the
    words are the atoms. Read back once per run, the blocks are chained. Each run of blocks ends in one
    batched SVD for the ratios and one batched eigvalsh for the residuals
    (:func:`_top_singular_values`) over the checkpoints it reached. The walk
    runs in the e_1 basis of :attr:`RrdoEnsemble.e1`, and eta is mapped back
    once, at the end. Each seed's numbers are bitwise independent of batching, and within the
    stated tolerance of a one-step loop.
    """
    seeds, omega = _start(ens, seeds, n_total)
    checkpoints, ends, at_checkpoint = block_grid(n_total, checkpoint_every)
    d = ens.dim
    k, tables = _walk_tables(ens, "reverse")
    path, ends = _words(ens, omega, ends, k)
    del omega
    e1 = ens.e1
    psi_s = e1["frame"] @ ens.psi_s
    phi = lead = _identities(np.eye(d, dtype=complex), len(seeds))  # lead = M_Q^*(w_1)...M_Q^*(w_(k-1))
    eta = np.zeros((len(seeds), d, 1), dtype=complex)
    residuals = np.empty((len(seeds), len(checkpoints)))
    ratios = np.zeros((len(seeds), len(checkpoints)))
    c = 0

    def step_run(run, steps):  # a function, so that the run's stacks go on return
        nonlocal phi, eta, lead, c
        left = lead_adj = _identities(np.eye(2 * d, d), len(run), len(seeds))
        left_outs, lead_outs = _pair(left.shape), _pair(left.shape)
        local_eta = np.zeros((len(run), len(seeds), d, 2))  # [Re, -Im] of the local eta sum
        for (factor, mq, psi), _ in steps():
            left = np.matmul(factor(), left, out=next(left_outs))
            # lead psi = [A; B]^T embed(psi) for lead^* = A + iB, as [Re, -Im]
            local_eta += np.matmul(lead_adj.swapaxes(-1, -2), psi())
            lead_adj = np.matmul(mq(), lead_adj, out=next(lead_outs))
        del factor, mq, psi  # their stacks go before the read-back
        left, local_lead = readback(left), dag(readback(lead_adj))
        local_eta = local_eta[..., :1] - 1j * local_eta[..., 1:]
        del left_outs, lead_outs, lead_adj
        reached = slice(c, c + at_checkpoint[run].sum())
        phis = np.empty((len(seeds), reached.stop - c, d, d), dtype=complex)
        etas = np.empty(phis.shape[:3], dtype=complex)
        for b, block in enumerate(run):
            phi = np.matmul(left[b], phi)
            eta = eta + np.matmul(lead, local_eta[b])
            lead = np.matmul(lead, local_lead[b])
            if at_checkpoint[block]:
                phis[:, c - reached.start], etas[:, c - reached.start] = phi, eta[:, :, 0]
                c += 1
        del left, local_lead, local_eta  # before the SVDs
        if d > 1:  # at GNS dim 1 every product is rank one: ratio 0
            sv = np.linalg.svd(phis, compute_uv=False)
            np.divide(sv[..., 1], sv[..., 0], out=ratios[:, reached], where=sv[..., 0] > 0)
        phis -= psi_s[:, None] * etas.conj()[..., None, :]
        residuals[:, reached] = _top_singular_values(np.concatenate((phis.real, phis.imag), axis=-2))

    for run, steps in _sweeps(ens, path, ends, *tables):
        step_run(run, steps)
    return ReverseReport(seeds, checkpoints, residuals, ratios, eta[:, :, 0] @ e1["frame"].conj())


@dataclass
class LyapunovEstimate:
    """Top two Lyapunov exponents of several seeds; entry s is seeds[s]."""

    seeds: np.ndarray
    gamma_1: np.ndarray
    gamma_2: np.ndarray
    gap: np.ndarray


def lyapunov(
    ens: RrdoEnsemble, seeds, n_total: int, reorth_every: int = 10
) -> LyapunovEstimate:
    """Lyapunov spectra of the random products via periodic re-orthonormalization.

    Works on transposed factors so that appending a factor on the right of
    Psi_n becomes a left multiplication. The blocks of the grid (:func:`block_grid`,
    with the re-orthonormalization interval as checkpoint interval) are
    stepped side by side into their products, which are no longer than an
    interval. A block grows in float64 as M^*(w_b)...M^*(w_a), the first
    column of its embedding (embed(M^*) = embed(M)^T, :func:`ries.linalg.embed`),
    one word product per matmul (:func:`_words`, :func:`_walk_tables`; at k = 1
    one M^* per matmul), and is read back and conjugated once per run, since
    conj(M^*) = M^T. The M^* are H M^* H^* (:attr:`RrdoEnsemble.e1`), and the
    frame starts at conj(H), so that the QR diagonals keep the moduli of the
    plain products'. Chaining the blocks, one batched QR per
    re-orthonormalization accumulates every seed's log stretching factors;
    they are bitwise independent of batching, and within the stated tolerance
    of a one-step loop. The sigma_2 / sigma_1 diagnostic of the reverse
    product belongs to :func:`simulate_reverse`.
    """
    seeds, omega = _start(ens, seeds, n_total)
    _, ends, at_reorth = block_grid(n_total, reorth_every)
    d = ens.dim
    k, tables = _walk_tables(ens, "lyapunov")
    path, ends = _words(ens, omega, ends, k)
    del omega
    frame = _identities(np.conj(ens.e1["frame"]), len(seeds))  # conj(H) Psi^T has the R of Psi^T
    log_r = np.zeros((len(seeds), d))
    for run, steps in _sweeps(ens, path, ends, *tables):
        prod = _identities(np.eye(2 * d, d), len(run), len(seeds))
        outs = _pair(prod.shape)
        for (factor,), _ in steps():
            prod = np.matmul(factor(), prod, out=next(outs))
        prod = np.conjugate(readback(prod))  # M^T(w_b)...M^T(w_a)
        for b, block in enumerate(run):
            frame = np.matmul(prod[b], frame)
            if at_reorth[block]:
                frame, r = np.linalg.qr(frame)
                diag = np.abs(np.diagonal(r, axis1=1, axis2=2))
                diag[diag == 0] = np.finfo(float).tiny
                log_r += np.log(diag)
    exponents = np.sort(log_r / n_total)[:, ::-1]
    gamma_2 = exponents[:, 1] if d > 1 else np.full(len(seeds), -np.inf)
    return LyapunovEstimate(seeds, exponents[:, 0], gamma_2, exponents[:, 0] - gamma_2)


def cesaro_means(
    ens: RrdoEnsemble,
    frame: tuple[np.ndarray, np.ndarray],
    start: np.ndarray,
    tables: list,
    width: int,
    seeds,
    n_total: int,
) -> np.ndarray:
    """(S, len(tables)) Cesaro means of <v_n, t[w_(n+1), ..., w_(n+width)]>, one per table t.

    v_0 = `start` and v_n = S(w_n) v_(n-1), for steps S that keep <u, v> for a
    unit vector u. `frame` is (H, steps) with H u = e_1 and each step given in
    its basis, H S H^* with its first row e_1^* exactly (:attr:`RrdoEnsemble.e1`,
    :attr:`RrdoEnsemble.e1_heisenberg`): the walk carries H v_n, whose first
    entry every float product keeps bit for bit, and pairs it with H t. Each
    table t is (n_atoms**width, D), indexed by the flattened atom tuple; they
    are stacked once, in the basis of H. Row s is seeds[s]'s path (:func:`_start`);
    all seeds step as one stack. The first min(n_total // 10, 1000) steps are
    left out: the transient decays geometrically, so this removes the O(1/n)
    bias of the plain Cesaro mean without touching its variance.

    The seeds walk k steps at a time, one k-atom word per matmul, k from
    :func:`_word_length`, one word's tables counted as a D x D matrix per
    pairing row; the words of every length 1, ..., k and their pairing tables
    are built once per call (:func:`_word_tables`, plain products), not cached
    on the ensemble as the matrix kernels' are (:func:`_walk_tables`): they
    pair with `tables`, which a cache keyed by walk could serve stale. A
    burn-in that is not a multiple of k starts with one shorter word, and a
    run that is not ends with one shorter pairing. The averaged words follow :func:`block_grid`,
    with blocks of at most SWEEP_ENTRIES / D words: the words of a chunk of
    SWEEP_ENTRIES / D^2 of them, rounded up, are gathered at once, each word's
    matmul writes the vector straight into a time-major buffer, and one matmul
    per seed pairs the block's vectors with their gathered pairing rows and
    sums them into a Kahan sum. At k = 1 the words are the steps and this is a
    one-step walk. Each seed's mean is bitwise independent of batching, and
    within the stated tolerance of a one-step loop.
    """
    n_atoms = ens.n_atoms
    burn = min(n_total // 10, 1000)
    _, omega = _start(ens, seeds, n_total, burn + width - 1)
    n_seeds, dim = len(omega), len(start)
    h, steps = frame
    # H t into its column of the stack, a block of rows at a time: one matmul into the
    # strided column would copy it whole, and one of more than 2**14 multiply-adds may
    # start BLAS threads, which wait for a busy core
    pairings = np.empty((len(tables[0]), dim, len(tables)), dtype=complex)
    rows = max(1, 2**14 // dim**2)
    for i, table in enumerate(tables):
        for a in range(0, len(table), rows):
            pairings[a : a + rows, :, i] = table[a : a + rows] @ h.T
    k = _word_length(n_atoms, max(n_atoms, 2) ** (width - 1) * dim**2)  # a D x D matrix per pairing row
    lead, tail = burn % k, n_total % k
    words = _word_tables(steps, pairings, width, k)
    chunk = -(-SWEEP_ENTRIES // dim**2)
    _, ends, _ = block_grid(n_total // k, max(1, SWEEP_ENTRIES // dim))
    # time-major: while words are walked, buf[i] holds v after the i-th of them
    longest = max(chunk, np.diff(ends, prepend=0).max(initial=0))
    buf = np.empty((longest + 1, n_seeds, dim, 1), dtype=complex)
    buf[0] = (h @ start)[:, None]
    slots = list(buf)  # its rows, as views made once
    acc = KahanAccumulator((n_seeds, pairings.shape[2]))

    def atoms(a: int, b: int, m: int, n: int) -> np.ndarray:
        """(S, (b - a) / m) flattened tuples of the n atoms from each step a, a + m, ..., b - m."""
        flat = omega[:, a:b:m].astype(np.min_scalar_type(n_atoms**n))
        for j in range(1, n):
            flat *= n_atoms
            flat += omega[:, a + j : b + j : m]
        return flat

    def walk(m: int, word_atoms: np.ndarray) -> None:
        """v after each of the (S, L) words of length m into buf[1 : L + 1], from buf[0]."""
        table = words[m][0]
        for c in range(0, word_atoms.shape[1], chunk):  # one gather per chunk of words
            for i, word in enumerate(table[word_atoms[:, c : c + chunk].T], c):
                np.matmul(word, slots[i], out=slots[i + 1])

    def pair(m: int, tuples: np.ndarray) -> None:
        """Add the pairings of the vectors in buf[: L] with their (S, L) tuples' rows."""
        rows = np.conjugate(buf[: tuples.shape[1], :, :, 0].transpose(1, 0, 2), order="C")
        rows = rows.reshape(n_seeds, 1, -1)
        acc.add(np.matmul(rows, words[m][1][tuples].reshape(n_seeds, rows.shape[2], -1))[:, 0])

    if lead:  # the burn-in's first steps, as one shorter word
        walk(lead, atoms(0, lead, lead, lead))
        buf[0] = buf[1]
    for a in range(lead, burn, chunk * k):  # the rest of it, a chunk of words at a time
        b = min(a + chunk * k, burn)
        walk(k, atoms(a, b, k, k))
        buf[0] = buf[(b - a) // k]
    for a, b in zip(np.concatenate(([0], ends[:-1])) * k + burn, ends * k + burn):
        tuples = atoms(a, b, k, k + width - 1)
        walk(k, tuples // n_atoms ** (width - 1))
        pair(k, tuples)
        buf[0] = buf[(b - a) // k]
    if tail:  # the last steps, paired as one shorter word
        pair(tail, atoms(burn + n_total - tail, burn + n_total, tail, tail + width - 1))
    return acc.total / n_total


def ensemble_from_json(doc: dict, where: str = "ensemble") -> RrdoEnsemble:
    """Build an ensemble from its JSON document.

    {"atoms": [{"p": w, "model": {...}}, ...]   # all model-form, one system
     | "atoms": [{"p": w, "matrix": [...]}, ...], "psi_s": [[re, im], ...]
     | "presample": {"model": {...}, "count": n, "seed": s,
                     "tau" | "beta" | "coupling": {"low": a, "high": b}}}

    The document goes to :meth:`RrdoEnsemble.from_models`,
    :meth:`RrdoEnsemble.from_matrices` or :meth:`RrdoEnsemble.presampled`,
    each of its matrices parsed once; a presample count or seed left out
    takes the default of :meth:`RrdoEnsemble.presampled`, which checks the
    ranges. A malformed document raises ValueError naming its place below
    `where`: an unknown key, an ensemble or atom without exactly one form,
    mixed forms, a weight that is no finite real number, model atoms whose
    systems differ, matrix atoms without psi_s (or a psi_s next to model
    atoms), a presample count or seed that is no integer >= 1 (>= 0), or a
    bad range. Matrix atoms that are not RDOs for psi_s raise
    RdoValidationError, and weights that are negative or do not sum to 1
    EnsembleError.
    """
    check_fields(doc, ("atoms", "psi_s", "presample"), where, one_of=("atoms", "presample"))
    if "presample" in doc:
        if "psi_s" in doc:
            raise ValueError(f"{where}.psi_s is read only with matrix-form atoms")
        gen, where = doc["presample"], f"{where}.presample"
        check_fields(gen, ("model", "count", "seed", "tau", "beta", "coupling"), where)
        counts = {key: gen[key] for key in ("count", "seed") if key in gen}
        for key, low in (("count", 1), ("seed", 0)):
            if key in counts and not is_int(counts[key], low):
                raise ValueError(f"{where}.{key} must be an integer >= {low}, got {counts[key]!r}")
        ranges = {key: gen[key] for key in ("tau", "beta", "coupling") if key in gen}
        system, base_probe = model_from_json(gen.get("model"), f"{where}.model")
        try:
            return RrdoEnsemble.presampled(system, base_probe, ranges, **counts)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc
    atoms = doc["atoms"]
    if not (isinstance(atoms, list) and atoms):
        raise ValueError(f"{where}.atoms must be a nonempty list")
    for i, atom in enumerate(atoms):
        check_fields(atom, ("p", "model", "matrix"), f"{where}.atoms[{i}]", one_of=("model", "matrix"))
        if not is_real(atom.get("p")):
            raise ValueError(f"{where}.atoms[{i}].p must be a finite real number, got {atom.get('p')!r}")
    probs = [float(atom["p"]) for atom in atoms]
    if len({"model" in atom for atom in atoms}) > 1:
        raise ValueError(f"{where}: atoms must be all model-form or all matrix-form")
    if "model" in atoms[0]:
        if "psi_s" in doc:
            raise ValueError(f"{where}.psi_s is read only with matrix-form atoms")
        systems, probes = zip(*(
            model_from_json(atom["model"], f"{where}.atoms[{i}].model") for i, atom in enumerate(atoms)
        ))
        first = (systems[0].dim_s, systems[0].beta_s, systems[0].h_s.tolist())
        if any((s.dim_s, s.beta_s, s.h_s.tolist()) != first for s in systems[1:]):
            raise ValueError(f"{where}: model-form atoms must share one system (dim, h and beta)")
        return RrdoEnsemble.from_models(systems[0], list(zip(probs, probes)))
    if "psi_s" not in doc:
        raise ValueError(f"{where}: matrix-form atoms need a psi_s")
    psi_s = matrix_from_json([doc["psi_s"]], f"{where}.psi_s")[0]
    matrices = [matrix_from_json(a["matrix"], f"{where}.atoms[{i}].matrix") for i, a in enumerate(atoms)]
    return RrdoEnsemble.from_matrices(psi_s, list(zip(probs, matrices)), where=f"{where}.atoms")
