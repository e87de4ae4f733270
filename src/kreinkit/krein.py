"""Resolvent-difference calculus for pairs of self-adjoint extensions.

For two extensions A1, A2 of the same restricted operator, the central object
is the sandwiched resolvent difference

    P(z) = (A1 - z)(A1 - i)^{-1} (R2(z) - R1(z)) (A1 - z)(A1 + i)^{-1},

an operator supported on the deficiency subspace N+ on both sides.  Its value
at z = i is (i/2)(1 - C2 C1^{-1}) compressed to N+, which links it to the
Cayley/unitary parametrization.  With alpha the angle operator of the pair on
N+ and

    M(z) = z + (1 + z^2) P_N (A - z)^{-1} P_N |_N

the Weyl-Titchmarsh operator of an extension compressed to a subspace N, it
satisfies (sin alpha - cos alpha M1(z)) P(z) = cos alpha on N+: the paper's
(tan alpha - M1(z))^{-1} multiplied through by cos alpha.  This sine/cosine
form holds for every pair, relatively prime or not (cos alpha vanishes on
the blocks where the extensions agree), so no function of the module needs
a primeness decision.  Out of these pieces the module assembles:

  * the resolvent formula recovering R2(z) from A1-data plus the angle, in
    A1's eigenframe, where it is a rank-n update of a diagonal (one
    implementation, krein_resolvent_frame; krein_resolvent maps it back),
  * the Herglotz lower bound for Im z * Im M,
  * the fractional-linear law mapping M1 to M2, in coefficient form with
    p(i) and in angle form.

Every function of z runs on a 1-d grid of z; weyl_operator also takes a
number, the grid of one, and krein_resolvent takes one z, which it runs as
that grid.  The module holds formulas only; the checks module turns them
into the records of the check report.  Its suites read their inputs from a
PairContext, which computes each quantity of one pair once (P(z) in ext1's
eigenframe, from the one N x N product per z that also gives R1(z) and
R2(z) there, with its compression to and leakage off N+; M(z) per
extension and grid in one stacked product; the angle with the pair's one
rank decision; the Cayley products) and shares it.

All restricted matrices live in the coordinate frames of the subspaces they
are compressed to (see the extension module's convention).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    NotHermitian,
    NotInvariant,
    NumericalFailure,
    RealParameter,
    SingularDenominator,
    SingularMatrix,
    SpectralParameter,
)
from .extension import (
    DEFAULT_TOL,
    Extension,
    ExtensionParameter,
    RestrictionModel,
    parameter_of,
    restricted_cayley_product,
)
from .numerics import (
    SpectralDecomposition,
    Subspace,
    _as_stack,
    frob,
    inverse,
    unitary_eig,
)

@dataclass(frozen=True, eq=False)
class PSample:
    """One evaluation of the sandwiched resolvent difference in a frame of
    C^N, as PairContext.p holds it in ext1's eigenframe V1: the full-space
    matrix (V1* P(z) V1), its compression to N+ in the N+ frame and its
    leakage ||(1 - P_N+) P(z)|| off N+, which that change of frame leaves
    unchanged, and the resolvents it is read off: ext2's V1* R2(z) V1 =
    Q D2 Q* and ext1's diagonal D1 = 1/(w1 - z)."""

    full: np.ndarray
    restricted: np.ndarray
    r2: np.ndarray
    d1: np.ndarray
    leak: float


@dataclass(frozen=True, eq=False)
class AngleOperator:
    """Hermitian angle operator alpha of an extension pair on an invariant
    subspace, held as its spectral decomposition: -exp(-2i alpha) equals the
    restricted Cayley product, and angle_operator reduces the spectrum to the
    branch (-pi/2, pi/2].  Every function of alpha is a diagonal function of
    that one decomposition; the four factors of the angle-form law
    (law_factors) are built once and shared by the law and Krein's formula."""

    spectrum: SpectralDecomposition
    subspace: Subspace

    def __post_init__(self):
        if self.spectrum.dim != self.subspace.rank:
            raise ValueError("angle operator shape does not match subspace rank")
        if np.any(np.imag(self.spectrum.eigenvalues) != 0.0):
            raise NotHermitian("angle operator spectrum is not real")

    @cached_property
    def alpha(self) -> np.ndarray:
        """alpha as a matrix in the subspace frame, read-only."""
        return _frozen(self.spectrum.compose(self.spectrum.eigenvalues))

    @cached_property
    def rank(self) -> int:
        """The pair's one rank decision: the number of Cayley eigenvalues
        mu = -exp(-2i alpha_k) with |mu - 1| = 2|cos alpha_k| > DEFAULT_TOL,
        which is rank cos(alpha) and so rank P(z)|N+ at every non-real z."""
        gaps = 2.0 * np.abs(np.cos(self.spectrum.eigenvalues.real))
        return int(np.count_nonzero(gaps > DEFAULT_TOL))

    @property
    def prime(self) -> bool:
        """Primeness: cos(alpha) has full rank."""
        return self.rank == self.spectrum.dim

    @cached_property
    def law_factors(self) -> tuple[np.ndarray, ...]:
        """(cos alpha, sin alpha, e^{-i alpha}, e^{i alpha}), diagonal
        functions of the spectrum, read-only."""
        spec = self.spectrum
        a = spec.eigenvalues
        factors = (spec.compose(np.cos(a)), spec.compose(np.sin(a)),
                   spec.compose(np.exp(-1j * a)), spec.compose(np.exp(1j * a)))
        _frozen(*factors)
        return factors


def _resolvent_diagonal(ext: Extension, zs) -> np.ndarray:
    """Eigenvalues 1/(w - z) of the resolvent (a - z)^{-1} for each z of the
    1-d grid zs, as a (k, N) array whose rows follow the extension's cached
    eigenframe.  Rejects the grid at its first z within DEFAULT_TOL of the
    (real) spectrum, the error's position."""
    zs = np.asarray(zs, dtype=np.complex128)[:, None]
    w = ext.spectrum.eigenvalues[None, :]
    if w.size:
        dist = np.min(np.abs(w - zs), axis=-1)
        hit = np.flatnonzero(dist <= DEFAULT_TOL)
        if hit.size:
            k = int(hit[0])
            raise SpectralParameter(f"z = {complex(zs[k, 0]):.6g} is within "
                                    f"{float(dist[k]):.3e} of the spectrum", position=k)
    return 1.0 / (w - zs)


def _branch_angle(lam: complex) -> float:
    """Angle alpha in (-pi/2, pi/2] with -exp(-2i alpha) = lam for |lam| = 1."""
    theta = cmath.phase(lam)          # (-pi, pi]
    alpha = (math.pi - theta) / 2.0   # [0, pi)
    if alpha > math.pi / 2.0:
        alpha -= math.pi
    return alpha


def angle_operator(ext1: Extension, ext2: Extension,
                   subspace: Subspace) -> AngleOperator:
    """Hermitian angle operator of the pair on an invariant subspace S.

    Checks invariance of the subspace under C2 C1^{-1} (NotInvariant
    otherwise) on the N x n image C2 C1* S, takes one Schur form of the
    restricted product W = S* C2 C1* S read off that image, and maps each
    unitary eigenvalue through the branch (-pi/2, pi/2], keeping W's frame.
    The reconstruction -exp(-2i alpha) == W is re-verified on exit.
    """
    s = subspace.basis
    image = ext2.cayley @ (ext1.cayley.conj().T @ s)
    w = s.conj().T @ image
    invariance = frob(image - s @ w)
    # 1 + sqrt(N) = 1 + ||C2 C1^{-1}||, the product being unitary
    if invariance > DEFAULT_TOL * (1.0 + math.sqrt(ext1.dim)):
        raise NotInvariant(
            f"subspace is not invariant under the Cayley product ({invariance:.3e})"
        )
    dec = unitary_eig(w)
    # the scalar cmath.phase per eigenvalue: np.angle differs from it in the
    # last bit on some unit inputs, and reports would move with it
    alpha = np.array([_branch_angle(lam) for lam in dec.eigenvalues], dtype=np.complex128)
    res = frob(-dec.compose(np.exp(-2j * alpha)) - w)
    if res > DEFAULT_TOL * (1.0 + frob(w)):
        raise NumericalFailure(f"angle reconstruction residual {res:.3e}")
    return AngleOperator(SpectralDecomposition(alpha, dec.eigenvectors), subspace)


def weyl_operator(ext: Extension, subspace: Subspace, z) -> np.ndarray:
    """Weyl-Titchmarsh operator of one extension compressed to a subspace:
    m(z) = z + (1 + z^2) S* (a - z)^{-1} S in the subspace frame.

    m(i) = i * identity for every extension and every subspace.  Evaluated
    in the extension's cached eigenframe V in the Herglotz-kernel form
    W* diag((1 + w z)/(w - z)) W with W = V* S.  Because W* W = 1 this is
    the operator above, and unlike it, it cancels no two terms of size |z|.

    z is a 1-d array, giving the (k, n, n) stack from one stacked product,
    or a number, the grid of one, giving that stack's one n x n matrix.  A
    grid raises the SpectralParameter of its first z on the spectrum."""
    zs = np.asarray(z, dtype=np.complex128)
    if zs.ndim > 1:
        raise ValueError(f"z must be a number or a 1-d array, got shape {zs.shape}")
    grid = zs.reshape(-1)
    # (1, N) against (k, 1), (k, N, 1) against (1, N, n): operands with equal
    # numbers of axes, which numpy rounds by one loop at every k, N and n
    w = ext.spectrum.eigenvalues[None, :]
    kernel = (1.0 + w * grid[:, None]) * _resolvent_diagonal(ext, grid)
    ws = ext.spectrum.eigenvectors.conj().T @ subspace.basis
    m = _as_stack(ws.conj().T @ (kernel[..., None] * ws[None]), "weyl operator")
    return m if zs.ndim else m[0]


def krein_resolvent_frame(ext1: Extension, angle: AngleOperator, zs, m1):
    """Krein's formula in the cached eigenframe V1 of a1 (S the basis of
    angle.subspace, S1 = V1* S), where R1(z) is the diagonal D1 = 1/(w1 - z):

        V1* R2(z) V1 = D1 + diag((w1 - i) D1) S1 mid S1* diag((w1 + i) D1),
        mid = (sin a - cos a m1(z))^{-1} cos a,

    the paper's (tan(alpha) - m1(z))^{-1} multiplied through by cos(alpha),
    so it holds for every pair: mid vanishes on the blocks where
    alpha = +-pi/2 (identical extensions give D1).  The second term is a
    rank-n update, so one matrix costs O(N^2 n).

    zs is a 1-d grid and m1 the (k, n, n) stack
    weyl_operator(ext1, angle.subspace, zs), which the caller holds
    (PairContext.m, say); the result is an iterator over the matrices in
    grid order.  The k denominators are inverted in one inverse call; each
    N x N matrix is assembled only when the iterator reaches it, so no
    N x N stack is held.  Every error is raised by the call, before any
    matrix is formed: the SpectralParameter of D1's guard at the first z on
    a1's spectrum (where weyl_operator would have raised m1's), else
    SingularDenominator at the first singular denominator.
    """
    zs = np.asarray(zs, dtype=np.complex128)
    cos_a, sin_a, _, _ = angle.law_factors
    d = _resolvent_diagonal(ext1, zs)
    try:
        mid = inverse(sin_a - cos_a @ m1) @ cos_a
    except SingularMatrix as exc:
        raise SingularDenominator(
            f"sin(alpha) - cos(alpha) m(z) is singular at z = {complex(zs[exc.position]):.6g}"
        ) from exc
    w = ext1.spectrum.eigenvalues
    s1 = ext1.spectrum.eigenvectors.conj().T @ angle.subspace.basis
    s1h = s1.conj().T

    def resolvent(dk: np.ndarray, midk: np.ndarray) -> np.ndarray:
        left = ((w - 1j) * dk)[:, None] * s1                      # (a1 - i) R1 S
        right = s1h * ((w + 1j) * dk)                              # S* (a1 + i) R1
        frame = left @ midk @ right
        frame[np.diag_indices_from(frame)] += dk
        return frame

    return map(resolvent, d, mid)


def krein_resolvent(ext1: Extension, angle: AngleOperator, z) -> np.ndarray:
    """Resolvent of the second extension at one z from first-extension data
    and the pair's angle operator on N+ (S the basis of angle.subspace):

        R2(z) = R1(z) + (a1 - i) R1(z) S (sin a - cos a m1(z))^{-1} cos a S* (a1 + i) R1(z)

    computed as V1 F V1* with F the frame of krein_resolvent_frame on the
    grid [z], the one implementation of the formula, and m1 from
    weyl_operator on that grid, so it costs two N x N products on top of
    F's O(N^2 n).  A grid takes krein_resolvent_frame (ValueError here).
    It is public in this module and not exported by the package, since the
    check tool reads the frame form."""
    if np.ndim(z):
        raise ValueError("krein_resolvent takes one z; a grid takes krein_resolvent_frame")
    zs = np.array([z], dtype=np.complex128)
    frame, = krein_resolvent_frame(ext1, angle, zs, weyl_operator(ext1, angle.subspace, zs))
    v = ext1.spectrum.eigenvectors
    return (v @ frame) @ v.conj().T


def _frozen(*arrays: np.ndarray) -> np.ndarray:
    """Set the arrays read-only; return the first."""
    for a in arrays:
        a.flags.writeable = False
    return arrays[0]


class PairContext:
    """Memo of what the check suites read about one pair (ext1, ext2)
    of extensions of a model, with N+ as the sampling subspace.

    Every entry is computed on first use and shared by every later read, so
    a check suite over a z-grid evaluates P(z) once per distinct z and M(z)
    once per (extension, grid), by one weyl_operator call on the whole grid
    (Krein's formula reads ext1's).  M(z) and the pair-level entries come
    from the functions a direct call would use (weyl_operator,
    angle_operator, parameter_of, ...).  P(z) is held in ext1's eigenframe:
    the full matrix with its compression to N+ (p), one N x N product per
    z, one z at a time, which the suites read at the grid's z and at i,
    never at a conjugate point; p is the one code path of the compression
    X(z) = Bp* P(z) Bp.  Its PSample is the suites' one source of per-z
    data, and its spectral guards, ext1's before ext2's, the ones they meet
    at a collision.  Cached arrays are read-only.  The context is the only
    owner of its entries: it lives as long as its creator keeps it.
    Spectral parameters and grids are keys by value, so z and a twin
    differing only in the sign of a zero part share one entry.
    """

    def __init__(self, model: RestrictionModel, ext1: Extension, ext2: Extension):
        self.model = model
        self.ext1 = ext1
        self.ext2 = ext2
        self._p: dict = {}
        self._m: dict = {}
        self._parameters: dict = {}

    def p(self, z) -> PSample:
        """P(z) of the pair in ext1's eigenframe V1, and compressed to N+:
        V1* P(z) V1 = D_l (Q D2 Q* - D1) D_r with the diagonals
        D_l = (w1 - z)/(w1 - i), D_r = (w1 - z)/(w1 + i), D1 = 1/(w1 - z),
        D2 = 1/(w2 - z), one N x N product per z, Q D2 Q*, which the sample
        keeps as r2 (and D1 as d1).  The compression S1* (V1* P V1) S1 is
        Bp* P(z) Bp, as in the original frame; the leak reads the same S1* P."""
        z = complex(z)
        if z not in self._p:
            w1 = self.ext1.spectrum.eigenvalues
            d1 = _resolvent_diagonal(self.ext1, [z])[0]
            r2 = (self.frame_q * _resolvent_diagonal(self.ext2, [z])[0]) @ self.frame_q_adjoint
            middle = r2.copy()
            middle[np.diag_indices_from(middle)] -= d1
            full = ((w1 - z) / (w1 - 1j))[:, None] * middle * ((w1 - z) / (w1 + 1j))
            s1 = self.frame_nplus
            top = s1.conj().T @ full
            ps = PSample(full=full, restricted=top @ s1, r2=r2, d1=d1,
                         leak=frob(full - s1 @ top))
            _frozen(ps.full, ps.restricted, ps.r2, ps.d1)
            self._p[z] = ps
        return self._p[z]

    @cached_property
    def frame_q(self) -> np.ndarray:
        """Q = V1* V2, ext2's eigenframe in ext1's."""
        return _frozen(self.ext1.spectrum.eigenvectors.conj().T
                       @ self.ext2.spectrum.eigenvectors)

    @cached_property
    def frame_q_adjoint(self) -> np.ndarray:
        """Q*, which p reads at every z."""
        return _frozen(self.frame_q.conj().T)

    @cached_property
    def frame_nplus(self) -> np.ndarray:
        """S1 = V1* Bp, the N+ basis in ext1's eigenframe."""
        return _frozen(self.ext1.spectrum.eigenvectors.conj().T @ self.model.nplus.basis)

    def m(self, ext: Extension, zs) -> np.ndarray:
        """The (k, n, n) stack of M(z) of ext (an extension of the pair or
        any other extension of the model) compressed to N+ over the 1-d grid
        zs, from one weyl_operator call per (extension, grid), which raises
        the error of the grid's first offending z."""
        key = (ext, tuple(map(complex, zs)))
        if key not in self._m:
            self._m[key] = _frozen(weyl_operator(ext, self.model.nplus, key[1]))
        return self._m[key]

    def parameter(self, ext: Extension) -> ExtensionParameter:
        """parameter_of(model, ext), the von Neumann parameter of ext."""
        if ext not in self._parameters:
            par = self._parameters[ext] = parameter_of(self.model, ext)
            _frozen(par.v)
        return self._parameters[ext]

    @cached_property
    def p_at_i_via_cayley(self) -> np.ndarray:
        """(i/2)(1 - W): P(i) on N+ from Cayley data alone, W = (C2 C1^{-1})|N+
        the restricted Cayley product in the N+ frame."""
        w = restricted_cayley_product(self.ext1, self.ext2, self.model.nplus)
        return _frozen(0.5j * (np.eye(self.model.deficiency) - w))

    @cached_property
    def angle(self) -> AngleOperator:
        """angle_operator(ext1, ext2, N+), with its law factors cached; its
        rank is the one rank decision of the pair, primeness among it."""
        return angle_operator(self.ext1, self.ext2, self.model.nplus)


def herglotz_lower_bound(z) -> float:
    """Lower bound (Im z)^2 / (max(1, |z|^2) + |Re z|) for the smallest
    eigenvalue of Im z * Im m(z).  Requires Im z != 0.

    The (Im z)^2 numerator is forced by the exact identity
    Im m(z) = Im z * S*(1+a^2)^{1/2}((a - Re z)^2 + (Im z)^2)^{-1}(1+a^2)^{1/2}S
    together with the scalar estimate
    (1+t^2)/((t - Re z)^2 + (Im z)^2) >= 1/(max(1,|z|^2) + |Re z|), t real;
    without it the bound fails for |Im z| < 1 (e.g. z = i/2, eigenvalue 3).
    At z = i the bound is 1, attained: m(i) = i * identity.  Beyond
    |z| = 1e150 numerator and denominator are divided by max(|Re z|, |Im z|)^2
    first, so |z|^2 cannot overflow."""
    z = complex(z)
    if z.imag == 0.0:
        raise RealParameter("herglotz bound needs a non-real z")
    x, y = abs(z.real), abs(z.imag)
    s = max(x, y)
    if s > 1e150:
        x, y = x / s, y / s
        return y * y / (x * x + y * y + x / s)
    return z.imag ** 2 / (max(1.0, abs(z) ** 2) + abs(z.real))


def lft_m1_to_m2(m1, p_i) -> np.ndarray:
    """Fractional-linear law sending the reference M-operator to the second
    extension's, with coefficients built from the compressed
    resolvent-difference value p_i at z = i:

        m2 = (p_i + (1 + i p_i) m1) ((1 + i p_i) - p_i m1)^{-1}

    Holds for arbitrary pairs, degenerate ones included (p_i = 0 on a
    degenerate block gives the identity map there).  m1 is one k x k matrix
    or a stack (..., k, k) of them, say one per z, and p_i is one k x k
    matrix or a stack whose leading axes broadcast against m1's, say one per
    pair of a grid of pairs.  The whole grid takes one inverse call,
    which decides each denominator on its own, and maps every matrix bit for
    bit as a call on its own m1 and p_i would.
    """
    m = _as_stack(m1, "weyl matrix")
    p = _as_stack(p_i, "p at i")
    k = m.shape[-1]
    eye = np.eye(k)
    coefficient = eye + 1j * p
    num = p + coefficient @ m
    den = coefficient - p @ m
    try:
        den_inv = inverse(den)
    except SingularMatrix as exc:
        raise SingularDenominator("fractional-linear denominator is singular") from exc
    return num @ den_inv


def _angle_form(m, factors: tuple) -> np.ndarray:
    """e^{-i b} (cos b + sin b * m) (sin b - cos b * m)^{-1} e^{i b} for
    factors = (cos b, sin b, e^{-i b}, e^{i b}); m is one matrix or a stack
    of them, as in lft_m1_to_m2, and the factors broadcast against it.  One
    inverse call decides each denominator on its own."""
    m = _as_stack(m, "weyl matrix")
    cos_b, sin_b, phase_left, phase_right = factors
    num = cos_b + sin_b @ m
    den = sin_b - cos_b @ m
    try:
        den_inv = inverse(den)
    except SingularMatrix as exc:
        raise SingularDenominator("angle-form denominator is singular") from exc
    return phase_left @ num @ den_inv @ phase_right


def lft_m1_to_m2_angle(m1, angle: AngleOperator) -> np.ndarray:
    """Angle form of the same law, for every pair:

        m2 = e^{-i alpha} (cos a + sin a * m1) (sin a - cos a * m1)^{-1} e^{i alpha}

    It is lft_m1_to_m2 written in the angle: p(i) = i e^{-i alpha} cos(alpha)
    and 1 + i p(i) = i e^{-i alpha} sin(alpha).  m1 is one matrix or a stack
    of them, as in lft_m1_to_m2, and the factors are the angle's cached
    law_factors.
    """
    return _angle_form(m1, angle.law_factors)
