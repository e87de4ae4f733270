"""Finite matrix model of a symmetric restriction and its self-adjoint
extensions, parametrized through Cayley transforms.

The model starts from one Hermitian matrix ``a1`` on C^N and a chosen
n-dimensional "defect" subspace N+.  The symmetric object being extended is
the restriction of ``a1`` to D = (a1 + i)^{-1}(N+^perp); every Hermitian
matrix that agrees with ``a1`` on D is an extension.  The deficiency
subspaces are N+ and N- = C1^{-1} N+ (C1 the Cayley transform of ``a1``),
and extensions (rank-n updates of a1) biject with unitaries N+ -> N-.

The model holds D by its n-dimensional orthogonal complement
D^perp = (a1 - i) N+ (x in D iff (a1 + i) x is orthogonal to N+, that is,
iff x is orthogonal to (a1 - i) N+).  Every question about D that the
package asks - does a matrix agree with a1 on D, does D meet a subspace -
is then an O(N^2 n) product or an n x n decomposition, with no N-sized
solve or SVD.

A word of caution that applies to everything built on this model: D is a
proper subspace of C^N, so the restricted operator is *not* densely defined.
None of the identities implemented downstream need density - they are
resolvent and Cayley-transform identities, and the restricted object is
exactly the intersection of its self-adjoint extensions' graphs.  The package
treats that as a feature: it gives closed-form, fully checkable linear
algebra for every formula.

Coordinate convention, fixed at build time: restricted n x n operators are
expressed in the orthonormal bases stored in ``nplus`` / ``nminus``.  The
``nminus`` basis is the isometric image of the ``nplus`` basis under
-C1^{-1}, which normalizes the reference extension's unitary parameter to the
identity matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    NotAnExtension,
    NotUnitary,
    NumericalFailure,
    RankDeficientInput,
    UnitEigenvalue,
)
from .numerics import (
    TOL_ORTHO,
    TOL_RANK,
    SpectralDecomposition,
    Subspace,
    as_matrix,
    frob,
    hermitian_eig,
)

DEFAULT_TOL = 1e-9  # instance tolerance for extension-level checks


@dataclass(frozen=True, eq=False)
class Extension:
    """A self-adjoint extension, given by its Hermitian matrix a.  The
    eigendecomposition of a is computed on first use and kept: the Cayley
    transform and every resolvent-type function of a at any z are diagonal
    functions of it.  A non-Hermitian a raises NotHermitian there."""

    a: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.a, "extension matrix")
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"extension matrix must be square, got {a.shape}")
        object.__setattr__(self, "a", a)

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    @cached_property
    def spectrum(self) -> SpectralDecomposition:
        return hermitian_eig(self.a)

    @cached_property
    def cayley(self) -> np.ndarray:
        """Cayley transform (a + i)(a - i)^{-1} = V diag((w + i)/(w - i)) V*,
        unitary by construction."""
        w = self.spectrum.eigenvalues.real
        return self.spectrum.compose((w + 1j) / (w - 1j))


@dataclass(frozen=True, eq=False)
class ExtensionParameter:
    """Unitary parameter v: coordinates of the isometry N+ -> N- that selects
    an extension, in the model's fixed bases."""

    v: np.ndarray

    def __post_init__(self):
        v = as_matrix(self.v, "extension parameter")
        object.__setattr__(self, "v", v)
        n = v.shape[0]
        if v.shape[0] != v.shape[1]:
            raise ValueError("extension parameter must be square")
        dev = frob(v.conj().T @ v - np.eye(n))
        if dev > TOL_ORTHO * max(1.0, float(n)):
            raise NotUnitary(f"extension parameter not unitary, deviation {dev:.3e}")


@dataclass(frozen=True, eq=False)
class RestrictionModel:
    """The fixed data of one model: ambient dimension, deficiency index,
    reference matrix, the two deficiency subspaces, and the orthogonal
    complement D^perp = (a1 - i) N+ of the restricted domain D, of rank n
    (the whole space when n = N, where D = {0})."""

    dim: int
    deficiency: int
    a1: np.ndarray
    nplus: Subspace
    nminus: Subspace
    domain_complement: Subspace
    reference: Extension


def _orthonormal_columns(m: np.ndarray, failure: Exception) -> np.ndarray:
    """Phase-fixed reduced QR: orientation-preserving orthonormalization of
    the columns of m, raising failure when they are not independent (an
    |R_ii| ratio at or below TOL_RANK).

    diag(R) is rotated to the positive real axis, so an already-orthonormal
    input comes back unchanged (up to roundoff) and the first basis vector is
    a positive multiple of the first input column.
    """
    q, r = np.linalg.qr(m)
    d = np.diag(r)
    mags = np.abs(d)
    dmax = float(mags.max()) if mags.size else 0.0
    if dmax == 0.0 or float(mags.min()) <= TOL_RANK * dmax:
        raise failure
    return q * (d.conj() / mags)[None, :]


def build_model(a1, nplus_raw) -> RestrictionModel:
    """Assemble the model from the reference matrix and a raw N+ spanning set.

    nplus_raw is N x n with independent columns; it is orthonormalized with
    the orientation-preserving QR above.  N- is the isometric image
    -C1^{-1} N+, and domain_complement is the QR basis of F = (a1 - i) Bp,
    which spans D^perp.  F has full rank in exact arithmetic (its singular
    values are at least 1), so a failed pivot gate there is NumericalFailure.
    """
    a1 = as_matrix(a1, "reference matrix")
    dim = a1.shape[0]
    raw = as_matrix(nplus_raw, "nplus spanning set")
    n = raw.shape[1]
    if raw.shape[0] != dim:
        raise ValueError(f"nplus rows {raw.shape[0]} != dimension {dim}")
    if not 1 <= n <= dim:
        raise ValueError(f"deficiency index {n} out of range 1..{dim}")
    bp = _orthonormal_columns(
        raw, RankDeficientInput("defect-subspace columns are not independent"))
    reference = Extension(a1)
    bm = -reference.cayley.conj().T @ bp
    nplus = Subspace(basis=bp)
    nminus = Subspace(basis=bm)  # ctor verifies isometry
    qf = _orthonormal_columns(
        a1 @ bp - 1j * bp, NumericalFailure("restricted domain has wrong rank"))
    return RestrictionModel(
        dim=dim,
        deficiency=n,
        a1=a1,
        nplus=nplus,
        nminus=nminus,
        domain_complement=Subspace(basis=qf),
        reference=reference,
    )


def extension_from_parameter(model: RestrictionModel,
                             p: ExtensionParameter) -> Extension:
    """Build the extension selected by the unitary parameter v as the rank-n
    update a2 = a1 + F T F* of the reference, F = (a1 - i) Bp: Woodbury on
    c - 1 for its Cayley transform c = C1 + Bp (1 - v)* Bm* gives
    T = u (2i - (h + i) u)^{-1}, u = (1 - v)*, h + i = Bp* a1 Bp + i = Bp* F + 2i.
    At n >= 2 that loses about eps ||a1||^2, so where a1 outweighs a2 on D^perp,
    ||Qf* a1 Qf|| > 10 (1 + ||Qf* a2 Qf||), a2 = a1 + Qf X Qf* is solved there
    from G = (a2 - i)^{-1} Bm = (Bp v* + Bm) i/2, X (Qf* G) = Qf* ((Bm - Bp v*)/2
    - a1 G): every factor but a1 is bounded by 1.
    Raises UnitEigenvalue when c has an eigenvalue within DEFAULT_TOL of 1
    (v selects a relation), read off a2 and not off a pivot ratio: an
    eigenvalue w has |(w + i)/(w - i) - 1| = 2/|w - i| <= DEFAULT_TOL, or an
    entry of a2 is at least 2/DEFAULT_TOL (so is some |w|) or nan (overflow).
    """
    bp, bm, eye = model.nplus.basis, model.nminus.basis, np.eye(model.deficiency)
    if p.v.shape != eye.shape:
        raise ValueError(f"parameter size {p.v.shape[0]} != deficiency {model.deficiency}")
    f, u, qf = model.a1 @ bp - 1j * bp, (eye - p.v).conj().T, model.domain_complement.basis
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            t = u @ np.linalg.solve(2j * eye - (bp.conj().T @ f + 2j * eye) @ u, eye)
            t, r, y1 = (t + t.conj().T) / 2.0, qf.conj().T @ f, qf.conj().T @ model.a1 @ qf
            if model.deficiency > 1 and frob(y1) > 10.0 * (1.0 + frob(y1 + r @ t @ r.conj().T)):
                bv = bp @ p.v.conj().T
                g = (bv + bm) * 0.5j
                rhs = qf.conj().T @ ((bm - bv) / 2.0 - model.a1 @ g)
                x = np.linalg.solve((qf.conj().T @ g).T, rhs.T).T
                a2 = model.a1 + qf @ ((x + x.conj().T) / 2.0) @ qf.conj().T
            else:
                a2 = model.a1 + f @ t @ f.conj().T
        except np.linalg.LinAlgError:  # exactly singular
            raise UnitEigenvalue("cayley transform has eigenvalue 1") from None
    if not np.abs(a2).max() < 2.0 / DEFAULT_TOL:
        raise UnitEigenvalue(f"extension has an entry of size {np.abs(a2).max():.3e}")
    ext = Extension((a2 + a2.conj().T) / 2.0)
    gap = float(np.min(2.0 / np.abs(ext.spectrum.eigenvalues.real - 1j)))
    if gap <= DEFAULT_TOL:
        raise UnitEigenvalue(f"cayley transform has eigenvalue within {gap:.3e} of 1")
    return ext


def parameter_of(model: RestrictionModel, ext: Extension) -> ExtensionParameter:
    """Recover the unitary parameter of an extension: v = -Bm* C^{-1} Bp.

    Raises NotAnExtension unless ext agrees with the reference on the
    restricted domain, within DEFAULT_TOL of the scale 1 + ||a|| + ||a1||.
    """
    dev = domain_deviation(model, ext.a)
    scale = 1.0 + frob(ext.a) + frob(model.a1)
    if dev > DEFAULT_TOL * scale:
        raise NotAnExtension(
            f"matrix deviates from the reference on the restricted domain by {dev:.3e}"
        )
    v = -(ext.cayley @ model.nminus.basis).conj().T @ model.nplus.basis
    return ExtensionParameter(v)


def domain_deviation(model: RestrictionModel, a: np.ndarray) -> float:
    """||(a - a1) P_D||, how far a departs from the reference on the
    restricted domain: with d = a - a1 and Qf the basis of D^perp,
    ||d - (d Qf) Qf*||, O(N^2 n)."""
    d = a - model.a1
    qf = model.domain_complement.basis
    return frob(d - (d @ qf) @ qf.conj().T)


def restricted_cayley_product(ext1: Extension, ext2: Extension,
                              subspace: Subspace) -> np.ndarray:
    """Coordinates of (C2 C1^{-1}) restricted to the subspace, in its basis.

    This is the unitary whose spectrum encodes how the two extensions differ;
    the restriction is meaningful on an invariant subspace.  N+ is one for
    every pair in exact arithmetic: each Cayley transform maps N- onto N+
    (the record cayley_exchanges_deficiency_spaces), so C2 C1^{-1} maps N+
    onto N+.  No invariance check is made here; krein.angle_operator gates
    it numerically.
    """
    s = subspace.basis
    return s.conj().T @ ext2.cayley @ (ext1.cayley.conj().T @ s)

