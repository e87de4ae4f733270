"""Dense complex linear algebra kernel with explicit tolerance contracts.

Everything downstream (Cayley transforms, deficiency subspaces, resolvent
formulas) reduces to a small set of dense operations: Hermitian and unitary
eigendecompositions, spectral function calculus
(SpectralDecomposition.compose), and the gated inverse of the n x n
denominators.  This module owns those operations and their failure modes.
An N x N solve whose matrix is already decided elsewhere (a - z behind the
spectral guard, a - i, C - 1 behind the Cayley gap of the extension) calls
np.linalg.solve directly, with no gate of its own.

Matrices are numpy complex128 arrays, validated on entry.  Residuals use the
Frobenius norm throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NotHermitian, NotUnitary, NumericalFailure, SingularMatrix

# Gate constants.  Each numerical decision in this module reads one of them
# at the single place it is made; no operation takes a tolerance argument.
TOL_ORTHO = 1e-12   # orthonormality of bases / unitarity gate
TOL_RECON = 1e-10   # eigendecomposition reconstruction, relative
TOL_HERM = 1e-11    # Hermitian deviation, relative; unit-circle deviation
TOL_RANK = 1e-9     # relative singular value cutoff


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Validate and convert to a 2-d complex128 array.

    Rejects non-finite entries; accepts anything array-like with two axes.
    """
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-d, got shape {a.shape}")
    if a.size and not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite entries")
    return a


def _as_stack(m, name: str) -> np.ndarray:
    """Validate and convert to a complex128 stack of matrices: two or more
    axes, the last two indexing one matrix, under as_matrix's finiteness
    rule.  as_matrix itself stays 2-d for its callers."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim < 2:
        raise ValueError(f"{name} must have at least 2 axes, got shape {a.shape}")
    if a.size and not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite entries")
    return a


def frob(m) -> float:
    return float(np.linalg.norm(m))


def hermitian_deviation(h: np.ndarray) -> float:
    """Relative Hermitian deviation ||H - H*|| / (1 + ||H||)."""
    return frob(h - h.conj().T) / (1.0 + frob(h))


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of C^ambient given by an orthonormal column basis.

    basis has shape (ambient, rank); rank 0 (zero subspace) is legal and
    carried as an (ambient, 0) array so projectors and restrictions work
    uniformly.
    """

    basis: np.ndarray

    def __post_init__(self):
        b = as_matrix(self.basis, "subspace basis")
        object.__setattr__(self, "basis", b)
        gram = b.conj().T @ b
        if frob(gram - np.eye(self.rank)) > TOL_ORTHO * max(1.0, float(self.rank)):
            raise ValueError("subspace basis is not orthonormal within tolerance")

    @property
    def ambient(self) -> int:
        return self.basis.shape[0]

    @property
    def rank(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues with a matching orthonormal eigenvector frame.

    eigenvalues: 1-d complex array (imaginary parts are exactly zero for
    Hermitian input, on the unit circle for unitary input).
    eigenvectors: columns form an orthonormal basis; the source matrix equals
    V diag(eigenvalues) V*.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.eigenvalues, dtype=np.complex128)
        v = as_matrix(self.eigenvectors, "eigenvector matrix")
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "eigenvectors", v)
        if w.ndim != 1 or v.shape != (w.size, w.size):
            raise ValueError("eigenvalue/eigenvector shapes are inconsistent")
        gram = v.conj().T @ v
        if frob(gram - np.eye(w.size)) > TOL_ORTHO * max(1.0, float(w.size)):
            raise ValueError("eigenvector frame is not orthonormal within tolerance")

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.size)

    def compose(self, values) -> np.ndarray:
        """V diag(values) V*: the matrix with this eigenframe and the given
        eigenvalues (one per stored eigenvalue, in the same order)."""
        v = self.eigenvectors
        return (v * values) @ v.conj().T


def hermitian_eig(h) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Raises NotHermitian if hermitian_deviation(H) > TOL_HERM, and
    NumericalFailure if the reconstruction residual exceeds
    TOL_RECON * (1 + ||H||).
    """
    a = as_matrix(h, "hermitian matrix")
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected square matrix, got {a.shape}")
    if hermitian_deviation(a) > TOL_HERM:
        raise NotHermitian(
            f"Hermitian deviation {frob(a - a.conj().T):.3e} exceeds tolerance"
        )
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare backend failure
        raise NumericalFailure(f"eigh failed: {exc}") from exc
    res = frob(a - (v * w) @ v.conj().T)
    if res > TOL_RECON * (1.0 + frob(a)):
        raise NumericalFailure(f"eigh reconstruction residual {res:.3e}")
    return SpectralDecomposition(w.astype(np.complex128), v)


def unitary_eig(u) -> SpectralDecomposition:
    """Eigendecomposition of a unitary matrix via the complex Schur form.

    The Schur frame of a normal matrix is an orthonormal eigenbasis, which is
    robust under eigenvalue clustering (plain nonsymmetric eig is not).
    Eigenvalues are sorted by principal argument, ascending.
    """
    a = as_matrix(u, "unitary matrix")
    d = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected square matrix, got {a.shape}")
    if d == 0:
        return SpectralDecomposition(np.zeros(0, dtype=np.complex128),
                                     np.zeros((0, 0), dtype=np.complex128))
    dev = frob(a.conj().T @ a - np.eye(d))
    if dev > TOL_ORTHO * max(1.0, float(d)):
        raise NotUnitary(f"unitarity deviation {dev:.3e} exceeds tolerance")
    try:
        t, zf = scipy.linalg.schur(a, output="complex")
    except Exception as exc:  # pragma: no cover - rare backend failure
        raise NumericalFailure(f"schur failed: {exc}") from exc
    w = np.diag(t).astype(np.complex128)
    circ = np.max(np.abs(np.abs(w) - 1.0))
    if circ > TOL_HERM:
        raise NumericalFailure(f"eigenvalue off the unit circle by {circ:.3e}")
    order = np.argsort(np.angle(w), kind="stable")
    w = w[order]
    zf = zf[:, order]
    res = frob(a - (zf * w) @ zf.conj().T)
    if res > TOL_RECON * (1.0 + frob(a)):
        raise NumericalFailure(f"unitary reconstruction residual {res:.3e}")
    return SpectralDecomposition(w, zf)


def inverse(m) -> np.ndarray:
    """M^{-1} behind a singular-value gate.

    m is one square matrix (k, k) or a stack (..., k, k) of them.  Each
    matrix is decided on its own: SingularMatrix when its smallest singular
    value is at or below TOL_RANK times its largest, which is the package's
    test for a degenerate denominator.  The whole stack is inverted by one
    np.linalg.solve against the identity, so a stack holds the inverses of
    the 2-d calls on its matrices, bit for bit, and fails where one of them
    would: with the 2-d call's error on the first, at that matrix's position.

    ||M||_F ||M^{-1}||_F, an upper bound on s_max / s_min, settles at O(k^2)
    cost every matrix it puts below half of 1 / TOL_RANK (the margin covers
    the solve's roundoff).  The singular values of the other matrices come
    from one batched SVD.
    """
    a = _as_stack(m, "inverse input")
    d = a.shape[-1]
    if a.shape[-2] != d:
        raise ValueError(f"expected square matrix, got {a.shape}")
    try:
        x = np.linalg.solve(a, np.eye(d))
    except np.linalg.LinAlgError:
        x = None  # an exactly singular matrix, which the gate refuses
    if d:
        doubtful = np.ones(a.shape[:-2], dtype=bool)
        if x is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                cond = np.linalg.norm(a, axis=(-2, -1)) * np.linalg.norm(x, axis=(-2, -1))
            doubtful = ~(cond < 0.5 / TOL_RANK)
        if doubtful.any():
            try:
                sv = np.linalg.svd(a[doubtful], compute_uv=False)
            except np.linalg.LinAlgError as exc:  # pragma: no cover - rare backend failure
                raise NumericalFailure(f"svd failed: {exc}") from exc
            passed = sv[:, -1] > TOL_RANK * sv[:, 0]
            if not passed.all():
                k = int(np.argmin(passed))
                ratio = sv[k, -1] / max(sv[k, 0], np.finfo(float).tiny)
                raise SingularMatrix(
                    f"singular value ratio {ratio:.3e} below cutoff {TOL_RANK:.1e}",
                    position=int(np.flatnonzero(doubtful)[k]),
                )
    if x is None:  # pragma: no cover - LAPACK and the SVD disagree
        raise NumericalFailure("solve failed on a matrix the gate passed")
    if x.size and not np.isfinite(x).all():
        raise NumericalFailure("solve produced non-finite entries")
    return x


def projector(s: Subspace) -> np.ndarray:
    """Orthogonal projector onto the subspace (basis @ basis*)."""
    return s.basis @ s.basis.conj().T
