"""Small dense linear-algebra helpers shared by all modules.

Conventions fixed here and used everywhere else:

- Vectorization is **column-major**: ``vec(A) = A.flatten(order="F")``,
  so ``vec(A X B) = (B.T kron A) vec(X)``.
- ``dag``, ``vec``, ``unvec`` and ``expm_hermitian`` act on the last two
  axes (the last one for ``unvec``), so a stack of matrices is handled
  row by row, each row exactly as it would be on its own.
- Matrix exponentials of Hermitian generators go through an
  eigendecomposition (``expm_hermitian``), never Padé.
- A complex matrix A has one real form, ``embed(A) = [[Re A, -Im A], [Im A,
  Re A]]``, and ``readback`` inverts it: the trajectory kernels step their
  products in float64 in this form.
"""

from __future__ import annotations

import numpy as np

HERMITICITY_TOL = 1e-12


def dag(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def vec(a: np.ndarray) -> np.ndarray:
    """Column-major vectorization of a square matrix (of each matrix of a stack)."""
    a = np.asarray(a)
    return a.swapaxes(-1, -2).reshape(*a.shape[:-2], -1)


def embed(a: np.ndarray) -> np.ndarray:
    """Real 2D x 2D form [[Re A, -Im A], [Im A, Re A]] of a complex D x D matrix (of each of a stack).

    It is an exact algebra homomorphism: embed(A B) = embed(A) embed(B) and
    embed(A + B) = embed(A) + embed(B), so a product or sum of embeddings,
    read back, is the complex product or sum. Also embed(A).T = embed(A*),
    and the first block column of embed(v[:, None]) is the stacked [Re v; Im v].
    The four blocks are written into one preallocated array.
    """
    m, n = a.shape[-2:]
    out = np.empty((*a.shape[:-2], 2 * m, 2 * n))
    out[..., :m, :n] = out[..., m:, n:] = a.real
    out[..., m:, :n] = a.imag
    np.negative(a.imag, out=out[..., :m, n:])
    return out


def readback(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`embed`, from the first block column: X[:D, :D] + i X[D:, :D].

    `x` has 2D rows; it is an embedding (2D x 2D, of each of a stack) or
    stacked [Re; Im] columns (2D x k with k <= D), read back whole.
    """
    d = x.shape[-2] // 2
    k = min(d, x.shape[-1])
    z = np.empty((*x.shape[:-2], d, k), dtype=complex)
    z.real, z.imag = x[..., :d, :k], x[..., d:, :k]
    return z


def unvec(v: np.ndarray, d: int | None = None) -> np.ndarray:
    """Inverse of :func:`vec`."""
    v = np.asarray(v)
    if d is None:
        d = round(np.sqrt(v.shape[-1]))
        if d * d != v.shape[-1]:
            raise ValueError(f"vector of size {v.shape[-1]} is not a vectorized square matrix")
    return v.reshape(*v.shape[:-1], d, d).swapaxes(-1, -2)


def right_mult_matrix(b: np.ndarray) -> np.ndarray:
    """Matrix of X -> X B in the column-major vectorized picture."""
    return np.kron(b.T, np.eye(b.shape[0]))


def require_hermitian(a: np.ndarray, name: str = "matrix", tol: float = HERMITICITY_TOL) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    defect, norm = np.linalg.svd(np.stack([a - dag(a), a]), compute_uv=False).max(axis=1, initial=0.0).tolist()
    if defect > tol * max(1.0, norm):
        raise ValueError(f"{name} is not Hermitian (defect {defect:.3e})")
    return a


def expm_hermitian(h: np.ndarray, scale: complex | np.ndarray = 1.0) -> np.ndarray:
    """exp(scale * h) for Hermitian h, via eigendecomposition.

    `h` may be a stack of matrices, with one scale or one scale per matrix.
    """
    w, u = np.linalg.eigh(h)
    return (u * np.exp(np.asarray(scale)[..., None] * w)[..., None, :]) @ dag(u)


def random_hermitian(d: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * (a + dag(a)) / 2.0


class KahanAccumulator:
    """Compensated (Kahan) running sum of same-shape complex arrays."""

    def __init__(self, shape):
        self._sum = np.zeros(shape, dtype=complex)
        self._comp = np.zeros(shape, dtype=complex)

    def add(self, x: np.ndarray) -> None:
        y = x - self._comp
        t = self._sum + y
        self._comp = (t - self._sum) - y
        self._sum = t

    @property
    def total(self) -> np.ndarray:
        return self._sum - self._comp
