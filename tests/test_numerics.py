"""Unit tests for the dense linear algebra kernel."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

import support

from kreinkit.errors import NotHermitian, NotUnitary, SingularMatrix
from kreinkit.numerics import (
    TOL_HERM,
    TOL_ORTHO,
    TOL_RANK,
    SpectralDecomposition,
    Subspace,
    as_matrix,
    frob,
    hermitian_deviation,
    hermitian_eig,
    inverse,
    projector,
    unitary_eig,
)


def _rng(seed):
    return np.random.default_rng(seed)


def _random_hermitian(seed, k):
    g = _rng(seed).standard_normal((k, k)) + 1j * _rng(seed + 1).standard_normal((k, k))
    return (g + g.conj().T) / 2.0


def _random_unitary(seed, k):
    g = _rng(seed).standard_normal((k, k)) + 1j * _rng(seed + 1).standard_normal((k, k))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))[None, :]


# ---------------------------------------------------------------------------
# validation and small utilities


def test_as_matrix_rejects_non_2d_and_non_finite():
    with pytest.raises(ValueError):
        as_matrix([1.0, 2.0])
    with pytest.raises(ValueError):
        as_matrix([[np.nan, 0.0], [0.0, 1.0]])
    out = as_matrix([[1, 2], [3, 4]])
    assert out.dtype == np.complex128 and out.shape == (2, 2)


def test_frob_and_hermitian_deviation():
    assert frob([[3.0, 4.0], [0.0, 0.0]]) == pytest.approx(5.0)
    assert hermitian_deviation(np.array([[1.0, 1j], [-1j, 2.0]])) == 0.0
    assert hermitian_deviation(np.array([[0.0, 1.0], [0.0, 0.0]])) > 0.1


def test_subspace_validates_orthonormality():
    with pytest.raises(ValueError):
        Subspace(basis=np.array([[1.0], [1.0]]))
    s = Subspace(basis=np.array([[1.0], [1.0]]) / math.sqrt(2))
    assert_allclose(projector(s), np.full((2, 2), 0.5), atol=1e-14)
    # rank 0 is legal and gives the zero projector
    z = Subspace(basis=np.zeros((3, 0)))
    assert (z.ambient, z.rank) == (3, 0) and (s.ambient, s.rank) == (2, 1)
    assert_allclose(projector(z), np.zeros((3, 3)), atol=0.0)


def _scaled_frame(k, factor):
    """The k x k identity times c, c^2 = 1 + t chosen so that
    ||B* B - 1|| = t sqrt(k) is factor times the gate TOL_ORTHO max(1, k)."""
    t = factor * TOL_ORTHO * max(1.0, k) / math.sqrt(k)
    return np.eye(k) * math.sqrt(1.0 + t)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("build", [
    lambda b: Subspace(basis=b),
    lambda b: SpectralDecomposition(np.arange(b.shape[1]), b),
], ids=["Subspace", "SpectralDecomposition"])
def test_orthonormality_gates_sit_at_tol_ortho_times_rank(build, k):
    # the gates that keep Bp, Bm, Qf and every eigenvector frame orthonormal,
    # and so M(i) = i: just under TOL_ORTHO max(1, k) a basis is accepted,
    # just over it refused
    gate = TOL_ORTHO * max(1.0, k)
    under, over = _scaled_frame(k, 0.99), _scaled_frame(k, 1.01)
    assert frob(under.T @ under - np.eye(k)) < gate < frob(over.T @ over - np.eye(k))
    build(under)
    with pytest.raises(ValueError, match="not orthonormal"):
        build(over)


@pytest.mark.parametrize("factor, accepted", [(0.99, True), (1.01, False)])
def test_hermitian_eig_gate_sits_at_tol_herm(factor, accepted):
    # 1 + s J with J = [[0, 1], [-1, 0]]: ||H - H*|| = 2 sqrt(2) s and
    # ||H|| = sqrt(2 + 2 s^2), so s sets the relative deviation
    s = factor * TOL_HERM * (1.0 + math.sqrt(2.0)) / (2.0 * math.sqrt(2.0))
    h = np.array([[1.0, s], [-s, 1.0]])
    assert (hermitian_deviation(h) <= TOL_HERM) == accepted
    if accepted:
        assert_allclose(hermitian_eig(h).eigenvalues, [1.0, 1.0], atol=1e-10)
    else:
        with pytest.raises(NotHermitian):
            hermitian_eig(h)


def test_projector_frozen_complex_line():
    u = np.array([[1.0], [1j]]) / math.sqrt(2)
    s = Subspace(basis=u)
    expected = 0.5 * np.array([[1.0, -1j], [1j, 1.0]])
    assert_allclose(projector(s), expected, atol=1e-15)


# ---------------------------------------------------------------------------
# eigendecompositions


def test_hermitian_eig_frozen_2x2():
    # trace 2, det 0: eigenvalues {0, 2}
    h = np.array([[1.0, 1j], [-1j, 1.0]])
    dec = hermitian_eig(h)
    assert_allclose(dec.eigenvalues, [0.0, 2.0], atol=1e-14)
    rec = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
    assert frob(rec - h) < 1e-13


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_unitary_eig_frozen_values():
    # i * (swap matrix): eigenvalues -i, i, sorted by principal argument
    u = np.array([[0.0, 1j], [1j, 0.0]])
    dec = unitary_eig(u)
    assert_allclose(dec.eigenvalues, [-1j, 1j], atol=1e-14)
    dec1 = unitary_eig(np.array([[1j]]))
    assert_allclose(dec1.eigenvalues, [1j], atol=0.0)
    assert np.angle(dec1.eigenvalues[0]) == pytest.approx(math.pi / 2)


def test_unitary_eig_rejects_non_unitary():
    with pytest.raises(NotUnitary):
        unitary_eig(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_unitary_eig_handles_clustered_eigenvalues():
    # nearly-degenerate spectrum, where plain nonsymmetric eig loses
    # orthogonality of the eigenvector frame
    q = _random_unitary(3, 4)
    w = np.exp(1j * np.array([0.5, 0.5 + 1e-9, 0.5 + 2e-9, 1.5]))
    u = (q * w) @ q.conj().T
    dec = unitary_eig(u)
    gram = dec.eigenvectors.conj().T @ dec.eigenvectors
    assert frob(gram - np.eye(4)) < 1e-12


def test_spectral_decomposition_validates_frame():
    with pytest.raises(ValueError):
        SpectralDecomposition(
            eigenvalues=np.array([1.0, 2.0]),
            eigenvectors=np.array([[1.0, 1.0], [0.0, 0.0]]),
        )


# ---------------------------------------------------------------------------
# range, kernel, function calculus, solves


def _kernel_projector(m):
    """Projector onto the kernel of m: the complement of the range of m*."""
    m = np.asarray(m)
    return np.eye(m.shape[1]) - projector(support.orthonormal_range(m.conj().T))


def test_range_and_null_space_of_rank_one():
    m = np.array([[1.0, 1.0], [1.0, 1.0]])
    ran = support.orthonormal_range(m)
    assert ran.rank == 1
    assert_allclose(projector(ran), np.full((2, 2), 0.5), atol=1e-14)
    half = np.array([[0.5, -0.5], [-0.5, 0.5]])
    assert_allclose(_kernel_projector(m), half, atol=1e-14)
    assert support.orthonormal_range(np.zeros((3, 2))).rank == 0
    assert_allclose(_kernel_projector(np.zeros((3, 2))), np.eye(2), atol=0.0)


def test_compose_matches_matrix_square():
    h = _random_hermitian(11, 5)
    dec = hermitian_eig(h)
    sq = dec.compose(dec.eigenvalues * dec.eigenvalues)
    assert frob(sq - h @ h) < 1e-12 * (1.0 + frob(h @ h))


def test_inverse_known_system_and_failures():
    m = np.array([[2.0, 0.0], [0.0, 4.0]])
    x = inverse(m)
    assert_allclose(x, np.diag([0.5, 0.25]), atol=1e-15)
    with pytest.raises(SingularMatrix):
        inverse(np.array([[1.0, 1.0], [1.0, 1.0]]))
    # the singular-value gate sits at TOL_RANK = 1e-9
    with pytest.raises(SingularMatrix):
        inverse(np.diag([1.0, 5e-10]))
    assert_allclose(inverse(np.diag([1.0, 2e-9])), np.diag([1.0, 5e8]), rtol=1e-15)
    with pytest.raises(ValueError):
        inverse(np.zeros((2, 3)))
    assert inverse(np.zeros((0, 0))).shape == (0, 0)


def test_inverse_exact_zero_pivot_raises_without_warning():
    # np.linalg.solve refuses the exactly singular matrix by an exception,
    # the singular-value gate turns it into SingularMatrix, and nothing
    # reaches the warnings machinery
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMatrix):
            inverse(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_inverse_decides_each_matrix_of_a_stack():
    # one matrix of the stack fails its own singular-value gate
    with pytest.raises(SingularMatrix):
        inverse(np.stack([np.eye(2), np.diag([1.0, 5e-10])]))
    # two singular matrices after two that the norm bound settles: the
    # error is the 2-d call's on the first of them, at its flat position
    stack = np.stack([np.eye(2), 2.0 * np.eye(2), np.diag([1.0, 5e-10]),
                      np.diag([1.0, 1e-10])])
    assert support.raised(inverse, stack) == support.first_error(inverse, stack)
    with pytest.raises(SingularMatrix) as info:
        inverse(stack.reshape(2, 2, 2, 2))
    assert info.value.position == 2
    # a ratio of 1e-12 between matrices is no failure: each passes alone
    x = inverse(np.array([[[1.0]], [[1e-12]]]))
    assert_allclose(x, np.array([[[1.0]], [[1e12]]]), rtol=1e-15)
    # the empty stack inverts to the empty stack
    assert inverse(np.zeros((0, 2, 2))).shape == (0, 2, 2)
    # any number of leading axes; the result is the matching stack
    rng = _rng(4)
    a = rng.standard_normal((2, 1, 3, 3)) + 3j * np.eye(3)
    x = inverse(a)
    assert x.shape == (2, 1, 3, 3)
    assert x[1, 0].tobytes() == inverse(a[1, 0]).tobytes()
    with pytest.raises(ValueError):
        inverse(np.zeros((2, 2, 3)))
    with pytest.raises(ValueError):
        inverse(np.stack([np.eye(2), np.diag([1.0, np.inf])]))
    with pytest.raises(ValueError):
        inverse(np.ones(2))


def test_inverse_settles_a_well_conditioned_inverse_without_an_svd(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    rng = _rng(9)
    stack = rng.standard_normal((4, 3, 3)) + 3j * np.eye(3)
    expected = np.linalg.solve(stack, np.eye(3))
    monkeypatch.setattr(np.linalg, "svd", refuse)
    assert inverse(stack).tobytes() == expected.tobytes()


@given(st.integers(0, 10 ** 6), st.integers(1, 6), st.floats(-1.0, 10.0),
       st.floats(-200.0, 200.0), st.integers(0, 2))
def test_inverse_decides_an_inverse_as_its_singular_values_do(
        seed, k, decades, scale, depth):
    # matrices U diag(s) V* with s_min / s_max = TOL_RANK * 10**decades, from
    # a decade below the cutoff to ten above it, at any overall scale: the
    # Frobenius bound may settle only what the singular values pass
    rng = _rng(seed)

    def matrix():
        s = np.geomspace(1.0, TOL_RANK * 10.0 ** decades, k) if k > 1 else np.ones(1)
        u = _random_unitary(int(rng.integers(10 ** 6)), k)
        v = _random_unitary(int(rng.integers(10 ** 6)), k)
        return 2.0 ** scale * (u * s) @ v.conj().T

    stack = np.stack([matrix() for _ in range(depth + 1)])
    sv = np.linalg.svd(stack, compute_uv=False)
    if (sv[:, -1] > TOL_RANK * sv[:, 0]).all():
        x = inverse(stack)
        assert x.tobytes() == np.linalg.solve(stack, np.eye(k)).tobytes()
    else:
        with pytest.raises(SingularMatrix):
            inverse(stack)


# ---------------------------------------------------------------------------
# property tests


def _laid_out(rng, rows, cols, layout):
    """A random complex (rows, cols) array: C-ordered, a Fortran-ordered
    copy, or a .T or .conj().T view."""
    if layout in ("transpose", "adjoint"):
        g = rng.standard_normal((cols, rows)) + 1j * rng.standard_normal((cols, rows))
        return g.T if layout == "transpose" else g.conj().T
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return np.asfortranarray(g) if layout == "fortran" else g


_LAYOUTS = ("c", "fortran", "transpose", "adjoint")


@given(st.integers(0, 10 ** 6), st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 64]), st.data())
def test_inverse_matches_numpy_solve_bit_for_bit(seed, n, data):
    rng = _rng(seed)
    a = _laid_out(rng, n, n, data.draw(st.sampled_from(_LAYOUTS), label="matrix layout"))
    if data.draw(st.booleans(), label="read-only"):
        a.flags.writeable = False
    a_before = a.tobytes()
    expected = np.linalg.solve(a, np.eye(n))
    got = inverse(a)
    assert got.tobytes() == expected.tobytes()
    # numpy's own output array, not a copy in another order: frob and the
    # records built on it sum in memory order
    assert got.strides == expected.strides
    assert a.tobytes() == a_before
    # a stack holding a: each matrix inverts as its own 2-d call does, to
    # the bit
    depth = data.draw(st.integers(0, 3), label="further matrices in the stack")
    stack = np.stack([a] + [_laid_out(rng, n, n, "c") for _ in range(depth)])
    x = inverse(stack)
    assert x.shape == (depth + 1, n, n)
    for solution, matrix in zip(x, stack):
        assert solution.tobytes() == inverse(matrix).tobytes()
    assert x[0].tobytes() == expected.tobytes()


@given(st.integers(0, 10 ** 6), st.integers(1, 8))
def test_hermitian_eig_properties(seed, k):
    h = _random_hermitian(seed, k)
    dec = hermitian_eig(h)
    assert np.all(dec.eigenvalues.imag == 0.0)
    assert np.all(np.diff(dec.eigenvalues.real) >= 0.0)
    rec = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
    assert frob(rec - h) < 1e-10 * (1.0 + frob(h))


@given(st.integers(0, 10 ** 6), st.integers(1, 8))
def test_unitary_eig_properties(seed, k):
    u = _random_unitary(seed, k)
    dec = unitary_eig(u)
    assert np.max(np.abs(np.abs(dec.eigenvalues) - 1.0)) < 1e-11
    assert np.all(np.diff(np.angle(dec.eigenvalues)) >= -1e-15)
    rec = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
    assert frob(rec - u) < 1e-10 * (1.0 + frob(u))


@given(st.integers(0, 10 ** 6), st.integers(1, 6), st.integers(1, 6))
def test_rank_nullity_partition(seed, rows, cols):
    g = _rng(seed).standard_normal((rows, cols)) \
        + 1j * _rng(seed + 1).standard_normal((rows, cols))
    # randomly zero out some columns to vary the rank
    mask = _rng(seed + 2).integers(0, 2, size=cols).astype(bool)
    g[:, mask] = 0.0
    ran = support.orthonormal_range(g)
    ker = _kernel_projector(g)
    # one cutoff decides the rank of g and of g*: row rank = column rank
    assert ran.rank + round(np.trace(ker).real) == cols
    assert frob(g @ ker) < 1e-10 * (1.0 + frob(g))
    assert frob(g - projector(ran) @ g) < 1e-10 * (1.0 + frob(g))


@given(st.integers(0, 10 ** 6), st.integers(1, 8))
def test_inverse_residual(seed, k):
    m = _random_hermitian(seed, k) + 1j * np.eye(k)  # shifted: never singular
    x = inverse(m)
    assert frob(m @ x - np.eye(k)) < 1e-9 * (1.0 + frob(m) * frob(x))
