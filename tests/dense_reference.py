"""Dense reference constructions used only by the tests.

The package never forms these: the oracle applies each factor to its own
tensor legs, and window observables stay d x d system matrices. The tests
build the dense objects to check those shortcuts against. The dense window
reduction is the reference for the stacked window reductions. The GNS norms,
the sampled power bound and the one-step product loop are the references
for the uniform product bounds and identities of finite RDO products. The
per-pair energy tables are the reference for the stacked energy reduction.
The per-atom presample, which builds and checks each atom's probe on its own,
is the reference for the presample that checks its draws once. The wider
identity windows are observable families of identity slots. The replay of
the Monte Carlo Cesaro means in extended precision is the yardstick for the
rounding of their float64 walk. The last helpers take spectral norms, write
vectors, matrices, model documents and JSON text and draw random matrices for
the tests; the package reads config documents but never writes them.
"""

import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from ries.ensemble import RrdoEnsemble, trajectory_rng
from ries.linalg import dag, expm_hermitian, unvec, vec
from ries.model import step_unitaries, weighted_partial_trace
from ries.rdo import decompose
from ries.thermo import observable_family


def embed(op: np.ndarray, dims: list[int], sites: list[int]) -> np.ndarray:
    """Embed an operator acting on `sites` (in that tensor order) into the
    full product space with factor dimensions `dims`.

    `op` must act on the tensor product of the listed sites, ordered as given.
    """
    n = len(dims)
    rest = [s for s in range(n) if s not in sites]
    order = sites + rest
    dim_rest = int(np.prod([dims[s] for s in rest], dtype=np.int64)) if rest else 1
    big = np.kron(op, np.eye(dim_rest))
    # permute tensor factors from `order` back to 0..n-1
    shaped = big.reshape([dims[s] for s in order] * 2)
    inv = np.argsort(order)
    perm = list(inv) + [n + i for i in inv]
    shaped = shaped.transpose(perm)
    dim_tot = int(np.prod(dims, dtype=np.int64))
    return shaped.reshape(dim_tot, dim_tot)


def dense_chain_unitary(system, probes, n_steps: int, dims: list[int]) -> np.ndarray:
    """W_n ... W_1 as one dense matrix over the legs `dims`, every factor embedded."""
    u = np.eye(int(np.prod(dims)), dtype=complex)
    for k in range(1, n_steps + 1):
        tau = probes[k - 1].tau
        w_k = embed(step_unitaries(system, [probes[k - 1]])[0], dims, [0, k])
        for n, other in enumerate(probes, start=1):
            if n != k:
                w_k = embed(expm_hermitian(other.h_e, -1j * tau), dims, [n]) @ w_k
        u = w_k @ u
    return u


def gibbs_product(probes) -> np.ndarray:
    """Gibbs_1 x Gibbs_2 x ... of the listed probes."""
    rho = np.eye(1, dtype=complex)
    for p in probes:
        rho = np.kron(rho, p.gibbs_state())
    return rho


def dense_window_reduction(system, window_steps, op: np.ndarray, l: int, r: int) -> np.ndarray:
    """Tr_E[(1 x Gibbs) W* op W] of an operator on S x (window probes), W the dense
    chain unitary of slots -l..0 (slot -l first): the window reduction, by brute force."""
    dims = [system.dim_s] + [p.dim_e for p in window_steps]
    w = dense_chain_unitary(system, window_steps[: l + 1], l + 1, dims)
    return weighted_partial_trace(dag(w) @ op @ w, system.dim_s, gibbs_product(window_steps))


def left_mult_matrix(a: np.ndarray) -> np.ndarray:
    """Matrix of X -> A X in the column-major vectorized picture."""
    return np.kron(np.eye(a.shape[0]), a)


def choi_matrix(phi: np.ndarray, d: int) -> np.ndarray:
    """Choi matrix sum_kl E_kl x Phi(E_kl) of a vectorized map."""
    c = np.zeros((d * d, d * d), dtype=complex)
    for k in range(d):
        for ll in range(d):
            e_kl = np.zeros((d, d), dtype=complex)
            e_kl[k, ll] = 1.0
            c += np.kron(e_kl, unvec(phi @ vec(e_kl), d))
    return c


def gns_norm(v: np.ndarray, sqrt_rho: np.ndarray) -> float:
    """|||v||| = ||unvec(v) rho_s^(-1/2)||_op, for which model RDOs are exact contractions."""
    return spectral_norm(unvec(v, sqrt_rho.shape[0]) @ np.linalg.inv(sqrt_rho))


def gns_dual_norm(v: np.ndarray, sqrt_rho: np.ndarray) -> float:
    """Dual norm of :func:`gns_norm`: nuclear norm of rho_s^(1/2) unvec(v)^*."""
    return float(np.linalg.norm(sqrt_rho @ dag(unvec(v, sqrt_rho.shape[0])), "nuc"))


def sampled_power_bound(matrices, rng, n_words: int = 200, max_len: int = 50) -> float:
    """Sup (at least 1) of the spectral norms of every prefix of `n_words` random
    words of random length 1..max_len in the given factors."""
    c0 = 1.0
    for _ in range(n_words):
        length = int(rng.integers(1, max_len + 1))
        word = np.eye(matrices[0].shape[0], dtype=complex)
        for idx in rng.integers(0, len(matrices), size=length):
            word = word @ matrices[idx]
            c0 = max(c0, spectral_norm(word))
    return c0


def product_trace(rdos) -> SimpleNamespace:
    """Step-by-step record of the finite product Psi_n = M_1 ... M_n of RDOs sharing psi_s.

    theta follows the adjoint recursion theta_n = M_n^* theta_(n-1) and,
    independently, the sum form theta_n = psi_n + M_Qn^* theta_(n-1); the
    product is compared at every step with |psi_s><theta_n| + M_Q1 ... M_Qn.
    Per step it records theta_n, |theta_n - sum form|, the reconstruction
    residual, <psi_s, theta_n>, ||Psi_n||, ||M_Q word|| (spectral) and
    ||theta_n||; it also keeps the final Psi_n and M_Q word.
    """
    psi_s, d = rdos[0].psi_s, rdos[0].dim
    decs = {id(r): decompose(r) for r in rdos}
    psi_prod = np.eye(d, dtype=complex)
    mq_prod = np.eye(d, dtype=complex)
    trace = {k: [] for k in ("theta", "theta_mismatch", "recon_residuals", "overlaps",
                             "psi_prod_norms", "mq_norms", "theta_norms")}
    for k, r in enumerate(rdos):
        dec = decs[id(r)]
        psi_prod = psi_prod @ r.m
        mq_prod = mq_prod @ dec.m_q
        if k == 0:
            theta, theta_sum = dec.psi, dec.psi
        else:
            theta = dag(r.m) @ theta
            theta_sum = dec.psi + dag(dec.m_q) @ theta_sum
        recon = psi_prod - (np.outer(psi_s, theta.conj()) + mq_prod)
        trace["theta"].append(theta)
        trace["theta_mismatch"].append(np.linalg.norm(theta - theta_sum))
        trace["recon_residuals"].append(spectral_norm(recon))
        trace["overlaps"].append(np.vdot(psi_s, theta))
        trace["psi_prod_norms"].append(spectral_norm(psi_prod))
        trace["mq_norms"].append(spectral_norm(mq_prod))
        trace["theta_norms"].append(np.linalg.norm(theta))
    arrays = {k: np.array(v) for k, v in trace.items()}
    return SimpleNamespace(**arrays, psi_prod=psi_prod, mq_prod=mq_prod)


def per_pair_energy_tables(ens) -> tuple[np.ndarray, np.ndarray]:
    """(jump, flux) of a model-built ensemble, as (n, n, d, d) and (n, d, d) system matrices.

    jump[i, j] = Phi_i(vbar_j) - own_i comes from one dense window reduction per
    atom pair, and flux[i] from the direct formula E_rho_E[(H_S + V) - W* (H_S + V) W]
    with W built for atom i alone.
    """
    system, d, n = ens.system, ens.system.dim_s, ens.n_atoms
    jump = np.empty((n, n, d, d), dtype=complex)
    flux = np.empty((n, d, d), dtype=complex)
    for i, p_i in enumerate(ens.probes):
        eye_e = np.eye(p_i.dim_e)
        own = dense_window_reduction(system, [p_i], p_i.v, 0, 0)
        for j, p_j in enumerate(ens.probes):
            vbar_j = weighted_partial_trace(p_j.v, d, p_j.gibbs_state())
            jump[i, j] = dense_window_reduction(system, [p_i], np.kron(vbar_j, eye_e), 0, 0) - own
        x = np.kron(system.h_s, eye_e) + p_i.v
        w = step_unitaries(system, [p_i])[0]
        rho_e = p_i.gibbs_state()
        after = weighted_partial_trace(dag(w) @ x @ w, d, rho_e)
        flux[i] = weighted_partial_trace(x, d, rho_e) - after
    return jump, flux


def per_atom_presample(system, base_probe, ranges: dict, count: int, seed: int) -> RrdoEnsemble:
    """:meth:`RrdoEnsemble.presampled` with each atom's probe built by ``dataclasses.replace``,
    so that every atom re-runs all of ``ProbeSpec``'s checks: same draws, same order."""
    rng = trajectory_rng(seed)

    def draw(key: str, default: float) -> float:
        return rng.uniform(ranges[key]["low"], ranges[key]["high"]) if key in ranges else default

    probes = []
    for _ in range(count):  # per atom: tau, then beta, then the coupling scale
        tau, beta = draw("tau", base_probe.tau), draw("beta", base_probe.beta_e)
        v = draw("coupling", 1.0) * base_probe.v
        probes.append(replace(base_probe, beta_e=beta, v=v, tau=tau))
    return RrdoEnsemble.from_models(system, [(1.0 / count, probe) for probe in probes])


def identity_window(ens, l: int, r: int):
    """The identity window family of extents l and r: A_S = 1 and every B = 1."""
    eye_e = [np.eye(p.dim_e) for p in ens.probes]
    return observable_family(ens, np.eye(ens.system.dim_s), [eye_e] * (l + r + 1), l, r)


def spectral_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, 2))


def complex_to_json(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def vector_to_json(v: np.ndarray) -> list[list[float]]:
    """The [re, im] pairs of a vector, as a config's psi_s holds them."""
    return [complex_to_json(z) for z in np.asarray(v, dtype=complex)]


def matrix_to_json(a: np.ndarray) -> list[list[list[float]]]:
    """The [re, im] nested lists that :func:`ries.serialize.matrix_from_json` reads back."""
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    return [[complex_to_json(z) for z in row] for row in a]


def model_to_json(system, probe) -> dict:
    """The model document that :func:`ries.model.model_from_json` reads back."""
    return {
        "system": {"dim": system.dim_s, "h": matrix_to_json(system.h_s), "beta": float(system.beta_s)},
        "probe": {
            "dim": probe.dim_e,
            "h": matrix_to_json(probe.h_e),
            "beta": float(probe.beta_e),
            "v": matrix_to_json(probe.v),
            "tau": float(probe.tau),
        },
    }


def dumps_json(obj) -> str:
    """JSON text as :func:`ries.serialize.dump_json` writes it."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def random_complex_matrix(d: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    return scale * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))


def replay_cesaro_means(ens, frame, start, tables, width, seeds, n_total) -> np.ndarray:
    """:func:`ries.ensemble.cesaro_means` of the same arguments, replayed one step at a
    time in ``np.clongdouble`` (a 64-bit significand on x86-64): the same paths, burn-in
    and e_1-basis steps, each float64 atom taken exactly, with the vector, its pairings and
    their sums carried in extended precision. Returns the (S, len(tables)) means."""
    h, steps = frame
    burn = min(n_total // 10, 1000)
    omega = ens.sample_paths(seeds, burn + n_total + width - 1)
    steps = steps.astype(np.clongdouble)
    pairings = np.stack([t @ h.T for t in tables], axis=-1).astype(np.clongdouble)
    v = np.broadcast_to((h @ start).astype(np.clongdouble), (len(omega), len(start)))
    total = np.zeros((len(omega), len(tables)), dtype=np.clongdouble)
    for n in range(burn + n_total):
        if n >= burn:
            flat = np.zeros(len(omega), dtype=np.int64)
            for i in range(width):
                flat = flat * ens.n_atoms + omega[:, n + i]
            total += np.einsum("sd,sdt->st", v.conj(), pairings[flat])
        v = np.einsum("sij,sj->si", steps[omega[:, n]], v)
    return total / n_total
