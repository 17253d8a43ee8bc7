"""Random reduced dynamics processes over finite-support ensembles.

An ensemble is a finite probability distribution over RDOs sharing one
invariant vector psi_s; iid draws from it generate the random product
Psi_n = M(w_1) ... M(w_n). :class:`RrdoEnsemble` holds it as stacks, one
array per quantity with one row per atom, and every reader indexes those
rows. This module provides the mean operator and the closed-form
asymptotic vector theta (two independent routes), seeded forward/reverse
trajectory simulation, decay-rate estimation for the
strictly-contracting parts, and Lyapunov exponent estimation.

The trajectory kernels take a list of seeds (or one seed) and step them as
one stack, with one batched SVD or QR where a step or checkpoint needs one
and norms taken slice by slice; their records hold one row per seed. Time
is blocked as well (a blocked prefix scan): :func:`block_grid` cuts each
checkpoint interval into near-equal blocks of at most ceil(sqrt(n_total))
steps, the matrix kernels step runs of blocks side by side into block
products (:func:`_sweeps`) and then chain the blocks, and the vector
kernels sum per-block buffers. The grid depends only on n_total and the
interval, so each seed's results are bitwise independent of batching and
of which other seeds ran; they are within a stated tolerance of a one-step
loop (see the tests), not bitwise equal to it.

Randomness is counter-based (Philox) and fully reproducible: a seed is
one realization of the atom sequence, and :meth:`RrdoEnsemble.sample_paths`
is the one place where it becomes a stream, so a seed's path never depends
on which other seeds ran.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from . import rdo as rdo_mod
from .linalg import KahanAccumulator, dag, vec
from .model import ProbeSpec, SystemSpec, energy_terms, model_from_json, rdos_from_model, scaled_probes
from .rdo import Rdo, RdoValidationError, SpectralReport, classify, decompose
from .serialize import is_int, is_real, matrix_from_json

NEUMANN_TERM_TOL = 1e-14
NEUMANN_MAX_TERMS = 10_000
# matrix or vector entries per seed that one run of blocks (see _sweeps), or
# one buffer of vectors, holds: it bounds a kernel's working set, so that its
# peak memory stays near that of a one-step loop
SWEEP_ENTRIES = 128


class EnsembleError(Exception):
    pass


def trajectory_rng(seed: int) -> np.random.Generator:
    """Counter-based generator for one seed; independent across seeds."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(0,))
    return np.random.Generator(np.random.Philox(ss))


class RrdoEnsemble:
    """Finite-support distribution over RDOs with a common invariant vector, as stacks.

    Each per-atom quantity is stored once, as one array with one row per
    atom: ``probs`` (the weights), ``matrices`` (M), ``adjoints`` (M*),
    ``mq`` and ``mq_adjoints`` (M_Q = Q M Q and its adjoint), ``psi_omega``
    (psi(w) = P_1(w)^* psi_s) and the ``in_class`` flags (simple gapped 1).
    A model-built ensemble also holds its one ``system``, its ``probes``, the
    ``phis`` stack of vectorized Heisenberg maps and the probe ``betas``; a
    matrix-form ensemble has None in all four.

    The stacks are filled by batched builds, never atom by atom: the atoms'
    psi_s must all equal the first to 1e-12 (absolute), one batched eig of
    the M* gives the classes, psi(w) and M_Q (:func:`ries.rdo.rank_one_split`),
    and :meth:`from_models` builds every M and Phi as one stack
    (:func:`ries.model.rdos_from_model`). Row k is bitwise atom k's own build.
    """

    def __init__(
        self,
        probs,
        rdos: list[Rdo],
        system: SystemSpec | None = None,
        probes: list[ProbeSpec] | None = None,
    ):
        if not rdos:
            raise EnsembleError("ensemble needs at least one atom")
        if (system is None) != (probes is None):
            raise EnsembleError("model-built atoms need both the system and the probes")
        if len(probs) != len(rdos) or (probes is not None and len(probes) != len(rdos)):
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
        self.adjoints = np.ascontiguousarray(dag(self.matrices))
        # one batched eig of the M* gives the spectral classes and the splits
        eigs, left = rdo_mod.spectra(self.matrices)
        self.in_class = rdo_mod.class_flags(eigs)[2].tolist()
        split = rdo_mod.rank_one_split(self.matrices, self.psi_s, eigs, left)
        self.mq, self.psi_omega = split.m_q, split.psi
        self.mq_adjoints = np.ascontiguousarray(dag(self.mq))
        self.system = system
        self.probes = probes
        self.phis = None if probes is None else np.stack([r.phi for r in rdos])
        self.betas = None if probes is None else np.array([p.beta_e for p in probes])

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    @property
    def n_atoms(self) -> int:
        return len(self.probs)

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

        ``jump[i, j] = vec(Phi_i(vbar_j) - own_i)`` and ``flux[i] = vec(F_i)``
        (see :func:`ries.thermo.energy_tables`); one stacked reduction of every
        atom's encounter builds both (:func:`ries.model.energy_terms`).
        """
        vbar, own, flux = map(vec, energy_terms(self.system, self.probes, self.phis))
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
        probes = [probe for _, probe in weighted_probes]
        return cls([p for p, _ in weighted_probes], rdos_from_model(system, probes), system, probes)

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
        (:func:`ries.model.scaled_probes`). A range whose bounds or span are
        not finite, whose low exceeds its high, or (but for the coupling,
        which scales V and may be negative) whose low is negative, or a draw
        that ProbeSpec would reject, raises ValueError.
        """
        for key, bounds in ranges.items():
            low, high = bounds["low"], bounds["high"]
            if not np.isfinite(high - low):
                raise ValueError(f"{key} range {bounds}: bounds and span must be finite")
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
    applied to psi_s. Route "neumann": sum_k (E[M_Q]^*)^k E[psi], truncated
    when the term norm drops below 1e-14, with a geometric tail bound from
    spr(E[M_Q]). The tail bound is inf when the sum did not get there in
    NEUMANN_MAX_TERMS terms; at spr(E[M_Q]) >= 1 the sum is not taken, and
    its vector is NaN and the mismatch inf. Whether theta exists is the
    runners' to judge, from these numbers and the class of E[M].
    """
    theta_proj = decompose(ens.mean).psi

    e_mq = np.einsum("k,kij->ij", ens.probs, ens.mq)
    e_psi = np.einsum("k,ki->i", ens.probs, ens.psi_omega)
    spr = float(np.abs(np.linalg.eigvals(e_mq)).max())
    theta_series = np.full_like(e_psi, np.nan)
    mismatch = tail_bound = np.inf
    if spr < 1.0:
        e_mq_adj = dag(e_mq)
        term, theta_series = e_psi, np.zeros_like(e_psi)
        for _ in range(NEUMANN_MAX_TERMS):
            theta_series = theta_series + term
            term = e_mq_adj @ term
            tnorm = np.linalg.norm(term)
            if tnorm < NEUMANN_TERM_TOL:
                tail_bound = tnorm / (1.0 - spr)
                break
        mismatch = np.linalg.norm(theta_proj - theta_series)
    return {
        "theta_projector": theta_proj,
        "theta_neumann": theta_series,
        "mismatch": float(mismatch),
        "spr_mean_mq": spr,
        "neumann_tail_bound": float(tail_bound),
    }


def _start(ens: RrdoEnsemble, seeds, n_total: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeds as a 1-d array and their (S, n_total) paths (see :meth:`RrdoEnsemble.sample_paths`)."""
    seeds = np.atleast_1d(seeds)
    return seeds, ens.sample_paths(seeds, n_total)


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


def _sweeps(
    ens: RrdoEnsemble, omega: np.ndarray, ends: np.ndarray, *tables: tuple[np.ndarray, np.ndarray]
) -> Iterator[tuple[np.ndarray, Callable[[], Iterator]]]:
    """Runs of consecutive blocks of the grid, stepped side by side.

    Yields (run, steps) for runs of at most max(1, SWEEP_ENTRIES // dim**2)
    blocks: `run` holds the run's block indices into `ends`, and each call
    of `steps()` iterates the in-block offsets j = 0, 1, ... of the run.
    `tables` are (per-atom table, fill) pairs; offset j yields, for each
    table, the (blocks, S, ...) stack of table[w] at each block's step j,
    with `fill` in the slots of blocks shorter than j + 1 steps, and the
    (blocks,) mask of blocks that have a step j (None when all do). The
    stacks are reused from offset to offset. Indices are converted from the
    small-dtype paths one run at a time. An identity fill is exact, so a
    block's numbers do not depend on the run it is stepped in.
    """
    starts = np.concatenate(([0], ends[:-1]))

    def steps(first: np.ndarray, lengths: np.ndarray) -> Iterator[tuple[list, np.ndarray | None]]:
        offsets = np.arange(lengths.max())
        cols = np.minimum(first[:, None] + offsets, omega.shape[1] - 1)
        indices = np.ascontiguousarray(omega[:, cols].transpose(2, 1, 0), dtype=np.intp)
        short_from = lengths.min()
        stacks = [np.empty(indices.shape[1:] + table.shape[1:], table.dtype) for table, _ in tables]
        for j, idx in enumerate(indices):
            for stack, (table, _) in zip(stacks, tables):
                np.take(table, idx, axis=0, out=stack, mode="clip")
            live = None if j < short_from else j < lengths
            if live is not None:
                for stack, (_, fill) in zip(stacks, tables):
                    stack[~live] = fill
            yield stacks, live

    per = max(1, SWEEP_ENTRIES // ens.dim**2)
    for a in range(0, len(ends), per):
        run = np.arange(a, min(a + per, len(ends)))
        yield run, partial(steps, starts[run], ends[run] - starts[run])


def _identities(ens: RrdoEnsemble, *shape: int) -> np.ndarray:
    """Read-only stack of identity matrices: the empty products."""
    return np.broadcast_to(np.eye(ens.dim, dtype=complex), (*shape, ens.dim, ens.dim))


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
    (1/N) sum Psi_n and the rank-one limit |psi_s><theta| is recorded. The
    blocks of the grid (:func:`block_grid`) are stepped side by side into each
    block's product P and local prefix sum Q; chaining them adds Psi_a Q to
    a Kahan sum and moves Psi_a to Psi_a P. Norms are taken slice by slice.
    Each seed's numbers are bitwise independent of batching, and within the
    stated tolerance of a one-step loop.
    """
    seeds, omega = _start(ens, seeds, n_total)
    limit = np.outer(ens.psi_s, ens.routes["theta_projector"].conj())
    checkpoints, ends, at_checkpoint = block_grid(n_total, checkpoint_every)
    psi_prod = _identities(ens, len(seeds))
    acc = KahanAccumulator(psi_prod.shape)
    distances = np.empty((len(seeds), len(checkpoints)))
    drift = np.zeros(len(seeds))
    c = 0
    for run, steps in _sweeps(ens, omega, ends, (ens.matrices, np.eye(ens.dim))):
        prod = _identities(ens, len(run), len(seeds))
        sums = np.zeros(prod.shape, dtype=complex)  # local prefix sums
        for (factor,), live in steps():
            prod = np.matmul(prod, factor)
            sums += prod if live is None else prod * live[:, None, None, None]
        for b, block in enumerate(run):
            acc.add(np.matmul(psi_prod, sums[b]))
            psi_prod = np.matmul(psi_prod, prod[b])
            if at_checkpoint[block]:
                mean = acc.total / ends[block]
                for s in range(len(seeds)):
                    distances[s, c] = np.linalg.norm(mean[s] - limit, "fro")
                    drift[s] = max(drift[s], np.linalg.norm(psi_prod[s] @ ens.psi_s - ens.psi_s))
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


def _pow2_scaled(a: np.ndarray) -> np.ndarray:
    """Scale each matrix of `a` in place, exactly, by a power of two to a largest entry in [1/2, 1).

    Returns the exponents e with (a before) = 2**e * (a after); a zero matrix
    stays zero with e = 0, and a matrix already scaled is left as it is.
    """
    _, e = np.frexp(np.abs(a).max(axis=(-2, -1)))
    a *= np.ldexp(1.0, -e)[..., None, None]
    return e


def decay_estimator(ens: RrdoEnsemble, seeds, n_total: int) -> DecayEstimate:
    """Norm series of the strictly-contracting words, with fitted decay rates.

    The words decay when some atom is in the simple-gap class, which the
    decay runner checks; the estimator runs either way. Two passes over each
    run of blocks of the grid (:func:`block_grid`): the block products, scaled by
    powers of two at every step so that they cannot underflow, are chained
    into the word at each block start; then one batched SVD per in-block
    offset gives the spectral norms, with the words renormalized at every
    step as a one-step loop would. A word that hits exact zero stays zero,
    and its log norms are -inf from then on, at the same steps as in a
    one-step loop; the finite ones are within the stated tolerance of it, and
    bitwise independent of batching. Per seed, the fitted envelope
    C e^(-alpha n) comes from a log-linear fit on the second half of the
    series, and n0 is the first index from which the envelope bounds the
    whole tail.
    """
    seeds, omega = _start(ens, seeds, n_total)
    _, ends, _ = block_grid(n_total, n_total)
    log_norms = np.empty((len(seeds), n_total))
    word = _identities(ens, len(seeds))  # the word at the next block start is e**log_scale * word
    log_scale = np.zeros(len(seeds))

    def step_run(run, steps):  # a function, so that the run's stacks go on return
        nonlocal word, log_scale
        words = np.empty((len(run), len(seeds), ens.dim, ens.dim), dtype=complex)
        logs = np.empty(words.shape[:2])
        words[0], logs[0] = word, log_scale
        if len(run) > 1:  # chain block products into the words at the later block starts
            prod = _identities(ens, len(run) - 1, len(seeds))
            prod_exp = np.zeros(prod.shape[:2], dtype=np.int64)
            for (factor,), _ in steps():
                prod = np.matmul(prod, factor[:-1])
                prod_exp += _pow2_scaled(prod)
            for b in range(1, len(run)):
                words[b] = np.matmul(words[b - 1], prod[b - 1])
                logs[b] = logs[b - 1] + (_pow2_scaled(words[b]) + prod_exp[b - 1]) * np.log(2.0)
            del prod
        series = []  # (blocks, S) log norms at each in-block offset
        for (factor,), live in steps():
            words = np.matmul(words, factor)
            s = np.linalg.svd(words, compute_uv=False)[..., 0]
            dead = s == 0
            s[dead] = 1.0
            if live is not None:  # a block past its end keeps its word and scale
                s[~live] = 1.0
            logs += np.log(s)
            series.append(np.where(dead, -np.inf, logs))
            words /= s[..., None, None]
        series = np.array(series)
        for b, (a, z) in enumerate(zip(np.concatenate(([0], ends))[run], ends[run])):
            log_norms[:, a:z] = series[: z - a, b].T
        word, log_scale = words[-1].copy(), logs[-1].copy()

    for run, steps in _sweeps(ens, omega, ends, (ens.mq, np.eye(ens.dim))):
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
    (:func:`block_grid`) are stepped side by side into their left product, local
    lead product and local eta sum, then chained; each run of blocks ends in
    one batched SVD per quantity over the checkpoints it reached. Each seed's
    numbers are bitwise independent of batching, and within the stated
    tolerance of a one-step loop.
    """
    seeds, omega = _start(ens, seeds, n_total)
    checkpoints, ends, at_checkpoint = block_grid(n_total, checkpoint_every)
    tables = (
        (ens.matrices, np.eye(ens.dim)),
        (ens.mq_adjoints, np.eye(ens.dim)),
        (ens.psi_omega[:, :, None], 0.0),
    )
    phi = lead = _identities(ens, len(seeds))  # lead = M_Q^*(w_1)...M_Q^*(w_(k-1))
    eta = np.zeros((len(seeds), ens.dim, 1), dtype=complex)
    residuals = np.empty((len(seeds), len(checkpoints)))
    ratios = np.zeros((len(seeds), len(checkpoints)))
    c = 0

    def step_run(run, steps):  # a function, so that the run's stacks go on return
        nonlocal phi, eta, lead, c
        left = local_lead = _identities(ens, len(run), len(seeds))
        local_eta = np.zeros((len(run), len(seeds), ens.dim, 1), dtype=complex)
        for (factor, lead_factor, psi), _ in steps():
            left = np.matmul(factor, left)
            local_eta += np.matmul(local_lead, psi)
            local_lead = np.matmul(local_lead, lead_factor)
        reached = slice(c, c + at_checkpoint[run].sum())
        phis = np.empty((len(seeds), reached.stop - c, ens.dim, ens.dim), dtype=complex)
        etas = np.empty(phis.shape[:3], dtype=complex)
        for b, block in enumerate(run):
            phi = np.matmul(left[b], phi)
            eta = eta + np.matmul(lead, local_eta[b])
            lead = np.matmul(lead, local_lead[b])
            if at_checkpoint[block]:
                phis[:, c - reached.start], etas[:, c - reached.start] = phi, eta[:, :, 0]
                c += 1
        del left, local_lead, local_eta, factor, lead_factor, psi  # before the SVDs
        if ens.dim > 1:  # at GNS dim 1 every product is rank one: ratio 0
            sv = np.linalg.svd(phis, compute_uv=False)
            np.divide(sv[..., 1], sv[..., 0], out=ratios[:, reached], where=sv[..., 0] > 0)
        phis -= ens.psi_s[:, None] * etas.conj()[..., None, :]
        residuals[:, reached] = np.linalg.svd(phis, compute_uv=False)[..., 0]

    for run, steps in _sweeps(ens, omega, ends, *tables):
        step_run(run, steps)
    return ReverseReport(seeds, checkpoints, residuals, ratios, eta[:, :, 0])


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
    Psi_n becomes a left multiplication. The blocks of the grid (:func:`block_grid`,
    with the re-orthonormalization interval as checkpoint interval) are
    stepped side by side into their products, which are no longer than an
    interval; chaining them, one batched QR per re-orthonormalization
    accumulates every seed's log stretching factors; they are bitwise
    independent of batching, and within the stated tolerance of a one-step
    loop. The sigma_2 / sigma_1 diagnostic of the reverse product belongs to
    :func:`simulate_reverse`.
    """
    seeds, omega = _start(ens, seeds, n_total)
    _, ends, at_reorth = block_grid(n_total, reorth_every)
    frame = _identities(ens, len(seeds))
    log_r = np.zeros((len(seeds), ens.dim))
    transposed = (ens.matrices.transpose(0, 2, 1), np.eye(ens.dim))
    for run, steps in _sweeps(ens, omega, ends, transposed):
        prod = _identities(ens, len(run), len(seeds))
        for (factor,), _ in steps():
            prod = np.matmul(factor, prod)
        for b, block in enumerate(run):
            frame = np.matmul(prod[b], frame)
            if at_reorth[block]:
                frame, r = np.linalg.qr(frame)
                diag = np.abs(np.diagonal(r, axis1=1, axis2=2))
                diag[diag == 0] = np.finfo(float).tiny
                log_r += np.log(diag)
    exponents = np.sort(log_r / n_total)[:, ::-1]
    gamma_2 = exponents[:, 1] if ens.dim > 1 else np.full(len(seeds), -np.inf)
    return LyapunovEstimate(seeds, exponents[:, 0], gamma_2, exponents[:, 0] - gamma_2)


def _fields(doc, allowed: tuple, one_of: tuple, where: str) -> None:
    """`doc` is a JSON object with keys from `allowed`, and exactly one of `one_of` (if given)."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ValueError(f"unknown {where} keys: {sorted(unknown)}")
    if one_of and (one_of[0] in doc) == (one_of[1] in doc):
        raise ValueError(f"{where} needs exactly one of {one_of[0]!r} or {one_of[1]!r}")


def ensemble_from_json(doc: dict, where: str = "ensemble") -> RrdoEnsemble:
    """Build an ensemble from its JSON document.

    {"atoms": [{"p": w, "model": {...}}, ...]   # all model-form, one system
     | "atoms": [{"p": w, "matrix": [...]}, ...], "psi_s": [[re, im], ...]
     | "presample": {"model": {...}, "count": 32, "seed": 0,
                     "tau" | "beta" | "coupling": {"low": a, "high": b}}}

    The document goes to :meth:`RrdoEnsemble.from_models`,
    :meth:`RrdoEnsemble.from_matrices` or :meth:`RrdoEnsemble.presampled`,
    each of its matrices parsed once. A malformed document raises ValueError
    naming its place below `where`: an unknown key, an ensemble or atom
    without exactly one form, mixed forms, a weight that is no finite real
    number, model atoms whose systems differ, matrix atoms without psi_s (or
    a psi_s next to model atoms), a presample count or seed that is no
    integer >= 1 (>= 0), or a bad range. Matrix atoms that are not RDOs for
    psi_s raise RdoValidationError, and weights that are negative or do not
    sum to 1 EnsembleError.
    """
    _fields(doc, ("atoms", "psi_s", "presample"), ("atoms", "presample"), where)
    if "presample" in doc:
        if "psi_s" in doc:
            raise ValueError(f"{where}.psi_s is read only with matrix-form atoms")
        gen, where = doc["presample"], f"{where}.presample"
        _fields(gen, ("model", "count", "seed", "tau", "beta", "coupling"), (), where)
        count, seed = gen.get("count", 32), gen.get("seed", 0)
        if not (is_int(count, 1) and is_int(seed, 0)):
            raise ValueError(f"{where} needs integers count >= 1 and seed >= 0, got {count!r}, {seed!r}")
        ranges = {key: gen[key] for key in ("tau", "beta", "coupling") if key in gen}
        for key, bounds in ranges.items():
            if not (isinstance(bounds, dict) and all(is_real(bounds.get(b)) for b in ("low", "high"))):
                raise ValueError(f"{where}.{key} needs finite real 'low' and 'high', got {bounds!r}")
        system, base_probe = model_from_json(gen.get("model"), f"{where}.model")
        try:
            return RrdoEnsemble.presampled(system, base_probe, ranges, count=count, seed=seed)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc
    atoms = doc["atoms"]
    if not (isinstance(atoms, list) and atoms):
        raise ValueError(f"{where}.atoms must be a nonempty list")
    for i, atom in enumerate(atoms):
        _fields(atom, ("p", "model", "matrix"), ("model", "matrix"), f"{where}.atoms[{i}]")
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
