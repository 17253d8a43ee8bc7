import numpy as np
import pytest
from dense_reference import embed, left_mult_matrix, random_complex_matrix

from ries import linalg
from ries.ensemble import _top_singular_values
from ries.linalg import (
    KahanAccumulator,
    dag,
    expm_hermitian,
    random_hermitian,
    require_hermitian,
    right_mult_matrix,
    unvec,
    vec,
)


def test_vec_unvec_roundtrip(rng):
    a = random_complex_matrix(3, rng)
    assert np.array_equal(unvec(vec(a), 3), a)
    assert np.array_equal(unvec(vec(a)), a)


def test_vec_is_column_major():
    a = np.array([[1, 2], [3, 4]])
    assert np.array_equal(vec(a), [1, 3, 2, 4])


def test_mult_matrices_implement_sandwich(rng):
    a, x, b = (random_complex_matrix(3, rng) for _ in range(3))
    assert np.allclose(unvec(left_mult_matrix(a) @ vec(x), 3), a @ x)
    assert np.allclose(unvec(right_mult_matrix(b) @ vec(x), 3), x @ b)
    # vec(A X B) = (B.T kron A) vec(X)
    assert np.allclose(np.kron(b.T, a) @ vec(x), vec(a @ x @ b))


def test_require_hermitian_rejects():
    with pytest.raises(ValueError):
        require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        require_hermitian(np.zeros((2, 3)))


def test_expm_hermitian_unitary(rng):
    h = random_hermitian(4, rng)
    u = expm_hermitian(h, -1j * 0.7)
    assert np.allclose(u @ dag(u), np.eye(4), atol=1e-12)
    assert np.allclose(u, np.linalg.matrix_power(expm_hermitian(h, -1j * 0.35), 2), atol=1e-12)


def test_embed_matches_kron(rng):
    dims = [2, 3, 2]
    a = random_complex_matrix(3, rng)
    full = embed(a, dims, [1])
    assert np.allclose(full, np.kron(np.kron(np.eye(2), a), np.eye(2)))
    # two-site embedding on non-adjacent sites: check action on product vectors
    op = random_complex_matrix(4, rng)  # acts on sites [0, 2]
    big = embed(op, dims, [0, 2])
    x = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in dims]
    lhs = big @ np.kron(np.kron(x[0], x[1]), x[2])
    opr = op.reshape(2, 2, 2, 2)
    expected = np.einsum("acbd,b,e,d->aec", opr, x[0], x[1], x[2]).reshape(-1)
    assert np.allclose(lhs, expected)


def test_embed_order_sensitivity(rng):
    # embedding with swapped site list must transpose the operator's factors
    dims = [2, 2]
    op = random_complex_matrix(4, rng)
    a = embed(op, dims, [0, 1])
    swapped = op.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    b = embed(swapped, dims, [1, 0])
    assert np.allclose(a, b)


def test_norms(rng):
    """The package's spectral norm, `ensemble._top_singular_values` of the first block
    column [Re Y; Im Y] of each Y's embedding, is numpy's 2-norm on a random complex
    stack, a zero matrix and a rank-one matrix."""
    d = 4
    rank_one = random_complex_matrix(d, rng)[:, :1] @ random_complex_matrix(d, rng)[:1]
    stack = np.array([random_complex_matrix(d, rng) for _ in range(6)])
    for ys in (stack, np.zeros((1, d, d), dtype=complex), rank_one[None]):
        got = _top_singular_values(linalg.embed(ys)[..., :d])
        assert np.allclose(got, [np.linalg.norm(y, 2) for y in ys], rtol=1e-12, atol=0)


def test_kahan_matches_direct_sum(rng):
    xs = rng.standard_normal(1000) * 10.0**rng.integers(-8, 8, size=1000)
    acc = KahanAccumulator(())
    for x in xs:
        acc.add(x)
    assert np.isclose(acc.total.real, np.sum(xs), rtol=1e-12)


def _complex_stack(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_real_embedding_reads_back_bitwise(rng):
    """readback(embed(A)) is A, and embed(A)^T is embed(A^*), bit for bit, on a
    random stack with a signed zero in it; a stacked [Re; Im] column reads back too."""
    a = _complex_stack(rng, 5, 3, 3)
    a[0, 0, 0] = complex(-0.0, 0.0)
    assert linalg.readback(linalg.embed(a)).tobytes() == a.tobytes()
    assert linalg.embed(a).swapaxes(-1, -2).tobytes() == linalg.embed(dag(a)).tobytes()
    v = a[:, :, :1]
    assert linalg.readback(linalg.embed(v)[..., :1]).tobytes() == v.tobytes()


def test_real_embedding_blocks(rng):
    """embed(A) is the block matrix [[Re A, -Im A], [Im A, Re A]], bit for bit, on
    a stack, on a column stack and on a real matrix."""
    for a in (_complex_stack(rng, 4, 8, 4, 4), _complex_stack(rng, 3, 5, 1), rng.standard_normal((3, 3))):
        want = np.block([[a.real, -a.imag], [a.imag, a.real]])
        assert linalg.embed(a).tobytes() == want.tobytes() and linalg.embed(a).shape == want.shape


def test_real_embedding_is_multiplicative(rng):
    """The product of two embedded stacks reads back as the complex product, to
    1e-15 relative in the Frobenius norm of each matrix."""
    a, b = _complex_stack(rng, 40, 4, 4), _complex_stack(rng, 40, 4, 4)
    got = linalg.readback(linalg.embed(a) @ linalg.embed(b))
    want = a @ b
    rel = np.linalg.norm(got - want, axis=(-2, -1)) / np.linalg.norm(want, axis=(-2, -1))
    assert rel.max() <= 1e-15
