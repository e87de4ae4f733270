"""Shared oracles and fixtures for the test suite.

The scalar functions below are independent re-derivations written in plain
complex arithmetic; they never call into the package.  Agreement between
package output and these values is therefore a genuine cross-check, not a
tautology.  The 2x2 helpers use the adjugate and the trace/det quadratic so
matrix examples can be verified without numpy.linalg either.
"""

import contextlib
import dataclasses
import math
import sys

import numpy as np
import pytest
from scipy.linalg import expm

from kreinkit import checks, cli
from kreinkit import krein as kr
from kreinkit.errors import (
    KreinKitError,
    NumericalFailure,
    SingularDenominator,
    SingularMatrix,
    UnitEigenvalue,
)
from kreinkit.extension import (
    DEFAULT_TOL,
    Extension,
    ExtensionParameter,
    build_model,
    extension_from_parameter,
    parameter_of,
)
from kreinkit.halfline import m1_halfline, sqrt_upper
from kreinkit.krein import PSample, _resolvent_diagonal
from kreinkit.numerics import (
    TOL_HERM,
    TOL_RANK,
    SpectralDecomposition,
    Subspace,
    _as_stack,
    as_matrix,
    frob,
    hermitian_deviation,
    projector,
    unitary_eig,
)


# ---------------------------------------------------------------------------
# scalar oracles (deficiency index 1, everything is a complex number)


def cay(a):
    """Cayley transform of a real scalar: (a + i)/(a - i)."""
    return (a + 1j) / (a - 1j)


def resolvent(a, z):
    return 1.0 / (a - z)


def weyl(a, z):
    """Scalar Weyl function z + (1 + z^2)/(a - z) in closed form."""
    return (1.0 + z * a) / (a - z)


def p12(a1, a2, z):
    """Scalar sandwiched resolvent difference of the pair (a1, a2)."""
    diff = resolvent(a2, z) - resolvent(a1, z)
    return (a1 - z) / (a1 - 1j) * diff * (a1 - z) / (a1 + 1j)


def lft(p_i, m1):
    """Scalar coefficient-form fractional-linear law."""
    return (p_i + (1.0 + 1j * p_i) * m1) / ((1.0 + 1j * p_i) - p_i * m1)


def branch_angle(w):
    """Angle in (-pi/2, pi/2] with -exp(-2i alpha) = w, |w| = 1."""
    alpha = (math.pi - math.atan2(w.imag, w.real)) / 2.0
    if alpha > math.pi / 2.0:
        alpha -= math.pi
    return alpha


# ---------------------------------------------------------------------------
# 2x2 helpers, linalgebra-free


def inv22(m):
    m = np.asarray(m, dtype=np.complex128)
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    adj = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])
    return adj / det


def eig22(m):
    """Eigenvalues of a 2x2 matrix from trace and determinant, as a sorted
    pair (by real part, then imaginary part)."""
    m = np.asarray(m, dtype=np.complex128)
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    disc = np.sqrt(tr * tr / 4.0 - det + 0j)
    pair = [tr / 2.0 - disc, tr / 2.0 + disc]
    return tuple(sorted(pair, key=lambda w: (w.real, w.imag)))


# ---------------------------------------------------------------------------
# the half-line pair with n = 2: -d^2/dx^2 on [0, inf) tensored with C^2.
# The reference is Dirichlet, with M(z) = m1(z) I; an extension with a
# Hermitian 2x2 boundary matrix A has the matrix forms of the scalar closed
# forms.  Functions of A come from expm and the 2x2 helpers, not from an
# eigendecomposition, so they are independent of the library's spectral
# calculus.


def cos_sin(a):
    """(cos A, sin A) of a Hermitian matrix, from e^{iA} and e^{-iA}."""
    e, e_inv = expm(1j * a), expm(-1j * a)
    return (e + e_inv) / 2.0, (e - e_inv) / 2j


def matrix_m_halfline(z, a):
    """M_A(z) = (cos A + sin A m1(z)) (sin A - cos A m1(z))^{-1}: the matrix
    form of m2_halfline.  M_A(i) = i; A = (pi/2) I is Dirichlet itself."""
    m1 = m1_halfline(complex(z))
    cos_a, sin_a = cos_sin(a)
    return (cos_a + sin_a * m1) @ inv22(sin_a - cos_a * m1)


def matrix_p_at_i(a1, a2):
    """P(i) of the pair (A1, A2), A1 the reference: (i/2)(1 - C2 C1^{-1})
    on N+.  The restricted Cayley product of each extension against
    Dirichlet is W_k = -e^{-2i A_k} (the scalar pair's -e^{-2i a2}), and
    C2 C1^{-1} = (C2 C_D^{-1})(C1 C_D^{-1})^{-1} makes the pair's product
    W2 W1^{-1}."""
    w1, w2 = -expm(-2j * a1), -expm(-2j * a2)
    return 0.5j * (np.eye(2) - w2 @ inv22(w1))


def matrix_p12_halfline(z, a1, a2):
    """Compressed resolvent difference of the pair (A1, A2):
    P(z) = ((1 + i P(i)) - P(i) M_{A1}(z))^{-1} P(i), the paper's
    (sin a - cos a M1(z)) P(z) = cos a multiplied by i e^{-ia}."""
    p_i = matrix_p_at_i(a1, a2)
    return inv22(np.eye(2) + 1j * p_i - p_i @ matrix_m_halfline(z, a1)) @ p_i


def matrix_bound_states(a):
    """The bound states z = -c^2 of the extension with boundary matrix A, one
    per eigenvalue a_k with c = (1 - tan a_k)/sqrt(2) > 0: there
    m1(z) = tan a_k, and sin A - cos A m1(z) is singular."""
    c = [(1.0 - math.tan(w.real)) * math.sqrt(0.5) for w in eig22(a)]
    return [complex(-ck * ck) for ck in c if ck > 0.0]


# ---------------------------------------------------------------------------
# reference routes: computations the library makes another way, kept here
# for the tests that compare the two


def orthonormal_range(m, floor=0.0):
    """Orthonormal basis of the (numerical) column range of m: the left
    singular vectors of the singular values above
    TOL_RANK * max(sigma_max, floor).  A floor at the natural norm scale of
    m brings pure roundoff back as the zero subspace, not as full-rank noise."""
    uu, ss, _ = np.linalg.svd(as_matrix(m, "range input"), full_matrices=False)
    smax = float(ss[0]) if ss.size else 0.0
    return Subspace(basis=uu[:, :int(np.count_nonzero(ss > TOL_RANK * max(smax, floor)))])


def inverse_cayley(c):
    """Invert the Cayley transform: a = i (c + 1)(c - 1)^{-1}, taken in the
    unitary eigenframe (Schur frame) of c as V diag(cot(theta/2)) V*,
    theta = arg mu.  The library recovers a by an LU solve
    (cayley_roundtrip) and builds extensions as rank-n updates of a1.

    Raises UnitEigenvalue when c has an eigenvalue within DEFAULT_TOL of 1;
    that is the self-adjoint-relation case and is never silently perturbed.
    """
    c = as_matrix(c, "cayley transform")
    dec = unitary_eig(c)
    if dec.dim:
        gap = float(np.min(np.abs(dec.eigenvalues - 1.0)))
        if gap <= DEFAULT_TOL:
            raise UnitEigenvalue(
                f"cayley transform has eigenvalue within {gap:.3e} of 1"
            )
    # the real cot of the phase: i (mu + 1)/(mu - 1) would keep an imaginary
    # rounding error that grows like 1/gap^2
    a = dec.compose(1.0 / np.tan(np.angle(dec.eigenvalues) / 2.0))
    if hermitian_deviation(a) > TOL_HERM:
        raise NumericalFailure(
            f"inverse cayley lost Hermiticity by {frob(a - a.conj().T):.3e}"
        )
    return (a + a.conj().T) / 2.0


def p_function(ext1, ext2, subspace, z):
    """Sandwiched resolvent difference at z in the original frame, full and
    compressed to the subspace's frame: four spectral functions and two
    N x N products, where the pair memo (PairContext.p) takes one product
    in ext1's eigenframe; the PSample's d1 and leak are read as there, the
    leak off the subspace.  z must stay off both spectra (SpectralParameter
    otherwise)."""
    z = complex(z)
    d1 = _resolvent_diagonal(ext1, z)
    r1 = ext1.spectrum.compose(d1)
    r2 = ext2.spectrum.compose(_resolvent_diagonal(ext2, z))
    spec1 = ext1.spectrum
    w1 = spec1.eigenvalues
    left = spec1.compose((w1 - z) / (w1 - 1j))
    right = spec1.compose((w1 - z) / (w1 + 1j))
    full = left @ (r2 - r1) @ right
    s = subspace.basis
    top = s.conj().T @ full
    return PSample(full=full, restricted=top @ s, r2=r2, d1=d1,
                   leak=frob(full - s @ top))


def resolvent_coefficient(z, scenario):
    """Coefficient -1/(c + i sqrt(z)) of the rank-one resolvent correction
    of the half-line pair, c = scenario.c; it is sqrt(2) p12_halfline(z),
    which the library computes instead.

    Blows up exactly at the bound state z = -c^2, present when c > 0."""
    root = sqrt_upper(complex(z))
    den = scenario.c + 1j * root
    if abs(den) <= 1e-12 * (1.0 + abs(scenario.c) + abs(root)):
        raise SingularDenominator(
            f"z = {complex(z):.6g} is the bound state of the second extension"
        )
    return -1.0 / den


def canonical_bytes(scenario):
    """The scenario document in the canonical layout, as UTF-8 bytes."""
    return cli._dump_json(scenario.to_json()).encode("utf-8")


# ---------------------------------------------------------------------------
# random model / pair builders


def random_hermitian(rng, k):
    g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    return (g + g.conj().T) / 2.0


def random_model(dim, deficiency, seed):
    rng = np.random.default_rng(seed)
    a1 = random_hermitian(rng, dim)
    raw = rng.standard_normal((dim, deficiency)) \
        + 1j * rng.standard_normal((dim, deficiency))
    return build_model(a1, raw)


def random_pair(dim, deficiency, seed, *, degenerate=0, clamp=1.4, gap=0.0):
    """Model plus a second extension from a random Hermitian angle matrix.

    The unitary parameter is v2 = -expm(2i h), with expm from scipy: a route
    independent of the package's own spectral calculus.  `degenerate` pins
    that many eigenvalues of h to pi/2 - gap; at gap 0 that forces the
    restricted Cayley product to have eigenvalue 1 on a block of that size,
    i.e. a deliberately non-relatively-prime pair, and a small gap puts the
    Cayley eigenvalue about 2 * gap from 1.  Returns (model, ext1, ext2, h).
    """
    model = random_model(dim, deficiency, seed)
    rng = np.random.default_rng(seed + 10_000)
    h = random_hermitian(rng, deficiency)
    evs, vec = np.linalg.eigh(h)
    evs = np.clip(evs, -clamp, clamp)
    if degenerate:
        evs[:degenerate] = math.pi / 2.0 - gap
    h = (vec * evs) @ vec.conj().T
    h = (h + h.conj().T) / 2.0
    # reference parameter is the identity by the model's basis convention
    v2 = -expm(2j * h)
    ext2 = extension_from_parameter(model, ExtensionParameter(v2))
    return model, model.reference, ext2, h


def restricted_domain(model):
    """Orthonormal basis of the restricted domain D = (a1 + i)^{-1}(N+^perp)
    itself, of rank N - n: N+^perp from a complete QR of the N+ basis, one
    N x N solve with a1 + i and the range by SVD.  build_model holds D by
    its complement (a1 - i) N+ instead; this is the route it replaced."""
    q, _ = np.linalg.qr(model.nplus.basis, mode="complete")
    perp = q[:, model.deficiency:]
    return orthonormal_range(np.linalg.solve(model.a1 + 1j * np.eye(model.dim), perp))


def direct_sum_codimension(model, ext):
    """N - rank([D | (1 - C^{-1}) Bp]), D from restricted_domain and C the
    Cayley transform of ext: the codimension of D + (1 - C^{-1}) N+ in C^N,
    which is 0 for every extension by von Neumann's formula."""
    g = (np.eye(model.dim) - ext.cayley.conj().T) @ model.nplus.basis
    return model.dim - orthonormal_range(np.hstack([restricted_domain(model).basis, g])).rank


def assembled_cayley(model, v):
    """The N x N Cayley transform C1 + Bp (1 - v)* Bm* of the extension with
    unitary parameter v.  inverse_cayley of it is the reference route to that
    extension, through a Schur form of c, independent of the rank-n update
    a1 + F T F* that extension_from_parameter takes."""
    bp, bm = model.nplus.basis, model.nminus.basis
    return model.reference.cayley \
        + bp @ (np.eye(model.deficiency) - v).conj().T @ bm.conj().T


def near_unit_parameter(model, delta):
    """A unitary parameter whose Cayley transform has an eigenvalue about
    delta from 1.  In the eigenframe g of h = Bp* a1 Bp, v = g diag(e^{i phi})
    g* makes 2i - (h + i)(1 - v)* diagonal, singular at the phase
    2 atan2(1, eta) for an eigenvalue eta of h; the first phase sits delta
    from it and the others opposite theirs.  At n = 1 this is
    v = exp(i (2 atan2(1, h) + delta))."""
    bp = model.nplus.basis
    eta, g = np.linalg.eigh(bp.conj().T @ model.a1 @ bp)
    phases = 2.0 * np.arctan2(1.0, eta) + math.pi
    phases[0] = 2.0 * math.atan2(1.0, eta[0]) + delta
    return (g * np.exp(1j * phases)) @ g.conj().T


def unitary_scenario(scenario, v):
    """The scenario with its parameter replaced by {"unitary": v}."""
    return cli.ScenarioFile.from_json({**scenario.to_json(),
                                       "parameter": {"unitary": cli._m_to_json(v)}})


def near_unit_scenario(dim, deficiency, seed, delta):
    """generate_scenario(dim, deficiency, seed) with the parameter
    {"unitary": near_unit_parameter(model, delta)}."""
    scenario = cli.generate_scenario(dim, deficiency, seed)
    model = build_model(scenario.a1, scenario.nplus)
    return unitary_scenario(scenario, near_unit_parameter(model, delta))


def role_swapped(scenario):
    """The same restriction with the roles of the two extensions swapped:
    a2 agrees with a1 on D, so build_model(a2, nplus) models it with a2 as
    the reference, and a1 is its extension with the parameter
    parameter_of(model2, a1).  Returns the scenario, with explicit a1 = a2,
    nplus and that {"unitary": V}, and the original a1."""
    _, ext1, ext2, _ = cli.materialize(scenario)
    model2 = build_model(ext2.a, scenario.nplus)
    v = parameter_of(model2, Extension(ext1.a)).v
    swapped = cli.ScenarioFile.from_json({**scenario.to_json(),
                                          "a1": cli._m_to_json(ext2.a)})
    return unitary_scenario(swapped, v), ext1.a


def random_unitary(rng, k):
    """A k x k unitary: the QR factor of a complex Gaussian matrix, its
    columns' phases fixed by diag(R)."""
    q, r = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    d = np.diag(r)
    return q * (d.conj() / np.abs(d))


def unitarily_rotated(scenario, u):
    """The scenario in another orthonormal basis of C^N: a1 -> U a1 U* and
    nplus_raw -> U nplus_raw, with explicit a1 and nplus.  build_model's
    QR then gives the N+ basis U Bp, and the parameter, read in the N+
    frame, is kept, so the rotated pair is (U a1 U*, U a2 U*)."""
    a1 = u @ scenario.a1 @ u.conj().T
    return dataclasses.replace(scenario, a1=(a1 + a1.conj().T) / 2.0,
                               nplus=u @ scenario.nplus)


def common_subspace(ext1, ext2):
    """Range of R2(i) - R1(i): the deficiency subspace of the pair's maximal
    common symmetric part.  It is N+ for a relatively prime pair and rank 0
    for identical extensions.  Both resolvents have norm at most 1, so the
    rank cutoff floors the scale at 1.  Each resolvent is a direct solve with
    a - i, which is invertible for every Hermitian a."""
    eye = np.eye(ext1.dim)
    r1, r2 = (np.linalg.solve(ext.a - 1j * eye, eye) for ext in (ext1, ext2))
    return orthonormal_range(r2 - r1, floor=1.0)


def p_full(pair, z):
    """The full N x N P(z) of the pair from p_function, in the original
    frame: a route independent of the eigenframe form the pair's memo holds."""
    return p_function(pair.ext1, pair.ext2, pair.model.nplus, z).full


def full_range_drift(pair, z, zp):
    """|| range-projector(P(z)) - range-projector(P(z')) || with the ranges
    of the full N x N P from p_function, the rank cutoff's scale floored at
    1, since P(z) of identical extensions is pure roundoff.  The library
    reports a bound on this drift from n x n data; this is the direct route
    it replaced."""
    ranges = [orthonormal_range(p_full(pair, w), floor=1.0) for w in (z, zp)]
    return float(np.linalg.norm(projector(ranges[0]) - projector(ranges[1])))


def records(suite, pair, zs=(), tol=1e-9):
    """{name: max_residual} of the records that one suite of kreinkit.checks
    (zs the grid it runs on) yields for the pair."""
    return {rec["name"]: rec["max_residual"] for rec in suite(pair, list(zs), tol)}


def layer_records(pair, tol=1e-9):
    """The records of checks.model_layer for the pair, as records() gives
    them; each extension's parameter stands in for the one that built it."""
    v1, v2 = (pair.parameter(ext).v for ext in (pair.ext1, pair.ext2))
    return {rec["name"]: rec["max_residual"] for rec in checks.model_layer(pair, v1, v2, tol)}


def raised(f, *args):
    """(class, message) of the error that f(*args) raises."""
    with pytest.raises(KreinKitError) as info:
        f(*args)
    return type(info.value), str(info.value)


def first_error(f, xs):
    """(class, message) of the error that the calls f(x), x in xs in
    order, raise first."""
    for x in xs:
        try:
            f(x)
        except KreinKitError as exc:
            return type(exc), str(exc)
    raise AssertionError("no call raises")


def translation_residual(pair, z, zp):
    """|| P(z) - P(z') - (z - z') P(z') (a1+i)(a1-z')^{-1}(a1-i)(a1-z)^{-1} P(z) ||,
    unnormalized, with P from p_function in the original frame and the
    middle factor composed from ext1's eigenframe.  The p_translation record
    divides it by 1 + ||P(z)||."""
    pz, pzp = p_full(pair, z), p_full(pair, zp)
    spec = pair.ext1.spectrum
    w = spec.eigenvalues
    mid = spec.compose((1.0 + w * w) / ((w - zp) * (w - z)))
    return float(np.linalg.norm(pz - pzp - (z - zp) * (pzp @ mid @ pz)))


def tan_of(angle):
    """tan(alpha) from the angle's spectrum, for a relatively prime pair."""
    spec = angle.spectrum
    return spec.compose(np.tan(spec.eigenvalues.real))


# ---------------------------------------------------------------------------
# scenario documents

# 1x1 model whose reference spectrum {0} sits 1e-14 below the first grid
# point: every check suite that evaluates M(z) or P(z) there raises
# SpectralParameter
SPECTRAL_COLLISION = {
    "version": 1, "seed": 0, "dimension": 1, "deficiency": 1,
    "a1": [[[0.0, 0.0]]], "nplus": [[[1.0, 0.0]]],
    "parameter": {"unitary": [[[0.0, -1.0]]]},
    "z_grid": [[0.0, 1e-14], [0.0, 1.0]],
    "tolerance": 1e-9,
}


# ---------------------------------------------------------------------------
# pairs whose first extension is not the reference


def unitary_pair(dim, deficiency, seed):
    """(pair, v1, v2), the pair on the model of generate_scenario(dim,
    deficiency, seed) with both extensions built from random unitary
    parameters (random_unitary of default_rng(seed), v1 first), so v1 != I:
    a pair that no report forms, since materialize takes ext1 = model.reference."""
    model, _, _, _ = cli.materialize(cli.generate_scenario(dim, deficiency, seed))
    rng = np.random.default_rng(seed)
    v1, v2 = (random_unitary(rng, deficiency) for _ in range(2))
    ext1, ext2 = (extension_from_parameter(model, ExtensionParameter(v)) for v in (v1, v2))
    return kr.PairContext(model, ext1, ext2), v1, v2


# ---------------------------------------------------------------------------
# mutation table: named mutants, each one library formula changed by a
# monkeypatch (the library has no mutation hook), and the records that fail
# under them.  `angle + pi` is left out: it is an equivalent mutant, since
# cos, sin and the two phases all change sign, and every law, Krein's
# formula, the inversion of P(z) and the primeness decision read them in
# pairs whose signs cancel.

_ANGLE_OPERATOR = kr.angle_operator
_CAYLEY = Extension.cayley.func
_EXTENSION_FROM_PARAMETER = extension_from_parameter
_HERGLOTZ_BOUND = kr.herglotz_lower_bound
_LFT = kr.lft_m1_to_m2
_PAIR_INIT = kr.PairContext.__init__
_PARAMETER_OF = kr.parameter_of
_UNITARY_EIG = kr.unitary_eig
_WEYL = kr.weyl_operator


def _angle_form_with(num, den, phases):
    """The angle-form law with its numerator num(cos b, sin b, m), its
    denominator den(cos b, sin b, m) and its phase pair
    phases(e^{-ib}, e^{ib}) given."""
    def law(m, factors):
        m = _as_stack(m, "weyl matrix")
        cos_b, sin_b, left, right = factors
        left, right = phases(left, right)
        try:
            den_inv = kr.inverse(den(cos_b, sin_b, m))
        except SingularMatrix as exc:
            raise SingularDenominator("angle-form denominator is singular") from exc
        return left @ num(cos_b, sin_b, m) @ den_inv @ right
    return law


def _numerator(cos_b, sin_b, m):
    return cos_b + sin_b @ m


def _denominator(cos_b, sin_b, m):
    return sin_b - cos_b @ m


def _as_given(left, right):
    return left, right


def _phase_identity(phase):
    return np.broadcast_to(np.eye(phase.shape[-1]), phase.shape)


def _law_factors_at_minus_alpha(angle):
    spec = angle.spectrum
    a = -spec.eigenvalues
    return (spec.compose(np.cos(a)), spec.compose(np.sin(a)),
            spec.compose(np.exp(-1j * a)), spec.compose(np.exp(1j * a)))


def _angle_at_minus_alpha(ext1, ext2, subspace):
    angle = _ANGLE_OPERATOR(ext1, ext2, subspace)
    spec = angle.spectrum
    return kr.AngleOperator(SpectralDecomposition(-spec.eigenvalues, spec.eigenvectors),
                            subspace)


def _conjugated_frame(w):
    dec = _UNITARY_EIG(w)
    return SpectralDecomposition(dec.eigenvalues, dec.eigenvectors.conj())


def _perturbed_weyl(ext, subspace, z):
    """M(z) + 1e-7 (z - i), which keeps M(i) = i."""
    m = _WEYL(ext, subspace, z)
    shift = 1e-7 * (np.asarray(z, dtype=np.complex128) - 1j)
    return m + shift[..., None, None] * np.eye(m.shape[-1])


def _krein_m1_cos(ext1, angle, z, m1):
    """Krein's formula in ext1's eigenframe with m1 @ cos a for cos a @ m1
    in its denominator; krein_resolvent reads it through the module."""
    zs = np.asarray(z, dtype=np.complex128)
    cos_a, sin_a, _, _ = angle.law_factors
    d = kr._resolvent_diagonal(ext1, zs)
    mid = kr.inverse(sin_a - m1 @ cos_a) @ cos_a
    w = ext1.spectrum.eigenvalues
    s1 = ext1.spectrum.eigenvectors.conj().T @ angle.subspace.basis

    def resolvent(dk, midk):
        frame = (((w - 1j) * dk)[:, None] * s1) @ midk @ (s1.conj().T * ((w + 1j) * dk))
        frame[np.diag_indices_from(frame)] += dk
        return frame

    return map(resolvent, d, mid) if zs.ndim else resolvent(d, mid)


def _p_right_factor_minus_i(self, z):
    """PairContext.p with (w1 - z)/(w1 - i) as its right factor."""
    z = complex(z)
    if z not in self._p:
        w1 = self.ext1.spectrum.eigenvalues
        d1 = kr._resolvent_diagonal(self.ext1, z)
        r2 = (self.frame_q * kr._resolvent_diagonal(self.ext2, z)) @ self.frame_q_adjoint
        middle = r2.copy()
        middle[np.diag_indices_from(middle)] -= d1
        full = ((w1 - z) / (w1 - 1j))[:, None] * middle * ((w1 - z) / (w1 - 1j))
        s1 = self.frame_nplus
        top = s1.conj().T @ full
        self._p[z] = PSample(full=full, restricted=top @ s1, r2=r2, d1=d1,
                             leak=frob(full - s1 @ top))
    return self._p[z]


def _reference_cayley(mp):
    """angle_operator reads the reference's Cayley transform in place of
    ext1's.  The reference of a call's model is found through the N+
    subspace the call names, recorded when a PairContext is built on it;
    only a pair whose ext1 is not the reference can show the change."""
    references = {}

    def remembering(self, model, ext1, ext2):
        references[id(model.nplus)] = (model.nplus, model.reference)
        _PAIR_INIT(self, model, ext1, ext2)

    def angle_operator(ext1, ext2, subspace):
        held, reference = references.get(id(subspace), (None, ext1))
        return _ANGLE_OPERATOR(reference if held is subspace else ext1, ext2, subspace)

    mp.setattr(kr.PairContext, "__init__", remembering)
    mp.setattr(kr, "angle_operator", angle_operator)


def _on_built_extensions(change):
    """The mutant that applies change(ext) to every extension that
    extension_from_parameter builds for cli and for this module: ext2 of a
    report, both extensions of a unitary_pair.  The reference is untouched."""
    def build(model, p):
        ext = _EXTENSION_FROM_PARAMETER(model, p)
        change(ext)
        return ext

    def apply(mp):
        mp.setattr(cli, "extension_from_parameter", build)
        mp.setattr(sys.modules[__name__], "extension_from_parameter", build)
    return apply


def _eigenvalue_near_0_shifted(ext):
    """The cached eigenvalue nearest 0 moved by 1e-9, the frame kept."""
    spec = ext.spectrum
    w = spec.eigenvalues.copy()
    w[np.argmin(np.abs(w))] += 1e-9
    ext.__dict__["spectrum"] = SpectralDecomposition(w, spec.eigenvectors)


def _dense_matrix_moved(ext):
    """a moved by 1e-8 times a unit Hermitian matrix (seeded) after its frame
    is cached (extension_from_parameter reads the frame): the direct solves
    read the moved a, the eigenframe routes the old one."""
    rng = np.random.default_rng(0)
    g = rng.standard_normal((ext.dim, ext.dim)) + 1j * rng.standard_normal((ext.dim, ext.dim))
    h = g + g.conj().T
    object.__setattr__(ext, "a", ext.a + 1e-8 * h / frob(h))


MUTANTS = {
    "angle form: phases swapped": lambda mp: mp.setattr(kr, "_angle_form", _angle_form_with(
        _numerator, _denominator, lambda left, right: (right, left))),
    "angle form: phases conjugated": lambda mp: mp.setattr(kr, "_angle_form", _angle_form_with(
        _numerator, _denominator, lambda left, right: (left.conj(), right.conj()))),
    "angle form: phases dropped": lambda mp: mp.setattr(kr, "_angle_form", _angle_form_with(
        _numerator, _denominator,
        lambda left, right: (_phase_identity(left), _phase_identity(right)))),
    "angle form: m @ sin b in the numerator": lambda mp: mp.setattr(
        kr, "_angle_form", _angle_form_with(
            lambda cos_b, sin_b, m: cos_b + m @ sin_b, _denominator, _as_given)),
    "angle form: m @ cos b in the denominator": lambda mp: mp.setattr(
        kr, "_angle_form", _angle_form_with(
            _numerator, lambda cos_b, sin_b, m: sin_b - m @ cos_b, _as_given)),
    "law factors at -alpha": lambda mp: mp.setattr(
        kr.AngleOperator, "law_factors", property(_law_factors_at_minus_alpha)),
    "angle at -alpha": lambda mp: mp.setattr(kr, "angle_operator", _angle_at_minus_alpha),
    "lft_m1_to_m2 given p(i)*": lambda mp: mp.setattr(
        kr, "lft_m1_to_m2", lambda m1, p_i: _LFT(m1, np.swapaxes(np.conj(p_i), -1, -2))),
    "weyl_operator + 1e-7 (z - i)": lambda mp: mp.setattr(kr, "weyl_operator", _perturbed_weyl),
    "weyl_operator transposed": lambda mp: mp.setattr(
        kr, "weyl_operator", lambda *args: np.swapaxes(_WEYL(*args), -1, -2)),
    "unitary_eig with a conjugated frame": lambda mp: mp.setattr(
        kr, "unitary_eig", _conjugated_frame),
    "parameter_of transposed": lambda mp: mp.setattr(
        kr, "parameter_of", lambda model, ext: ExtensionParameter(_PARAMETER_OF(model, ext).v.T)),
    "parameter_of with the sign of v flipped": lambda mp: mp.setattr(
        kr, "parameter_of", lambda model, ext: ExtensionParameter(-_PARAMETER_OF(model, ext).v)),
    # a property, which an instance's cached transform cannot shadow
    "Cayley transform with its sign flipped": lambda mp: mp.setattr(
        Extension, "cayley", property(lambda ext: -_CAYLEY(ext))),
    "Krein's formula: m1 @ cos a": lambda mp: mp.setattr(
        kr, "krein_resolvent_frame", _krein_m1_cos),
    "PairContext.p: (w1 - i) as its right factor": lambda mp: mp.setattr(
        kr.PairContext, "p", _p_right_factor_minus_i),
    "Herglotz bound times 1.5": lambda mp: mp.setattr(
        kr, "herglotz_lower_bound", lambda z: 1.5 * _HERGLOTZ_BOUND(z)),
    "angle_operator reads the reference's Cayley transform": _reference_cayley,
    "built extension: eigenvalue nearest 0 + 1e-9 in its frame": _on_built_extensions(
        _eigenvalue_near_0_shifted),
    "built extension: a + 1e-8 H after its frame is cached": _on_built_extensions(
        _dense_matrix_moved),
}


@contextlib.contextmanager
def mutant(name):
    """The library with the named mutant of MUTANTS applied, restored on exit."""
    with pytest.MonkeyPatch.context() as mp:
        MUTANTS[name](mp)
        yield


# the (dim, deficiency, seed) cases of the tier-1 mutation test and of
# scripts/mutation_matrix.py's default run
MUTATION_CASES = ((8, 2, 3), (32, 3, 7), (6, 6, 1), (16, 4, 9))


def failing_records(cases):
    """{record name: kinds} of the records that fail on the cases, each a
    (dim, deficiency, seed) triple: kind "report" for a record of
    run_checks(generate_scenario(dim, deficiency, seed)), "pair" for one of
    checks.run(*unitary_pair(dim, deficiency, seed)) on the scenario's grid.
    An error record counts under its suite's name."""
    out = {}
    for dim, deficiency, seed in cases:
        scenario = cli.generate_scenario(dim, deficiency, seed)
        try:
            pair = unitary_pair(dim, deficiency, seed)
        except KreinKitError as exc:
            pair_records = [checks.error_record("unitary_pair", scenario.tolerance, exc)]
        else:
            pair_records = checks.run(*pair, scenario.z_grid, scenario.tolerance)
        for kind, recs in (("report", cli.run_checks(scenario)["checks"]),
                           ("pair", pair_records)):
            for rec in recs:
                if not rec["pass"]:
                    out.setdefault(rec["name"], set()).add(kind)
    return out
