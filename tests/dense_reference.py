"""Dense reference constructions used only by the tests.

The package never forms these: the oracle applies each factor to its own
tensor legs, and window observables stay d x d system matrices. The tests
build the dense objects to check those shortcuts against.
"""

import numpy as np

from ries.linalg import unvec, vec


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
