"""Tests for the resolvent-difference calculus.

The 1x1 model makes every operator a complex number, so the scalar oracles
in support.py pin down exact expected values; matrix cases are then checked
against internal identities and the independently built second extension.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from numpy.testing import assert_allclose

import support
from kreinkit import checks, cli
from kreinkit import krein as krein_module
from kreinkit.errors import (
    NotAnExtension,
    NotHermitian,
    NotInvariant,
    RealParameter,
    SingularDenominator,
    SpectralParameter,
)
from kreinkit.extension import (
    DEFAULT_TOL,
    Extension,
    build_model,
    parameter_of,
    restricted_cayley_product,
)
from kreinkit.halfline import verify_halfline
from kreinkit.krein import (
    AngleOperator,
    PairContext,
    angle_operator,
    herglotz_lower_bound,
    krein_resolvent,
    lft_m1_to_m2,
    lft_m1_to_m2_angle,
    weyl_operator,
)
from kreinkit.numerics import (
    Subspace,
    frob,
    hermitian_eig,
    inverse,
    unitary_eig,
)

SAFE_Z = (1j, 2j, -3j, 1 + 1j, -1 + 1j, -2 - 1j, 0.5 + 0.5j)


def scalar_pair(a1, a2):
    """1x1 model for reference value a1 plus the extension a2."""
    model = build_model(np.array([[a1]]), np.ones((1, 1)))
    return model, model.reference, Extension([[a2]])


@pytest.fixture
def s1():
    # reference 0, second extension -1: the fully hand-checked instance
    return scalar_pair(0.0, -1.0)


# ---------------------------------------------------------------------------
# frozen 1-dimensional chain


def test_s1_p_function_frozen(s1):
    model, ext1, ext2 = s1
    ps = support.p_function(ext1, ext2, model.nplus, 1j)
    assert_allclose(ps.restricted, [[0.5 + 0.5j]], atol=1e-14)
    assert_allclose(PairContext(model, ext1, ext2).p_at_i_via_cayley,
                    [[0.5 + 0.5j]], atol=1e-14)
    # scalar oracle at a generic point
    ps2 = support.p_function(ext1, ext2, model.nplus, 2j)
    assert abs(ps2.restricted[0, 0] - support.p12(0.0, -1.0, 2j)) < 1e-14


def test_s1_angle_and_tan_frozen(s1):
    model, ext1, ext2 = s1
    ang = angle_operator(ext1, ext2, model.nplus)
    assert_allclose(ang.alpha, [[math.pi / 4.0]], atol=1e-14)
    assert_allclose(support.tan_of(ang), [[1.0]], atol=1e-14)
    # inversion at i: (tan a - i) p(i) = 1, and its sine/cosine form
    # (sin a - i cos a) p(i) = cos a
    p_i = support.p_function(ext1, ext2, model.nplus, 1j).restricted
    assert abs((1.0 - 1j) * p_i[0, 0] - 1.0) < 1e-14
    cos_a, sin_a, _, _ = ang.law_factors
    assert_allclose((sin_a - 1j * cos_a) @ p_i, cos_a, atol=1e-14)


def test_s1_weyl_frozen(s1):
    model, ext1, ext2 = s1
    m1 = weyl_operator(ext1, model.nplus, 2j)
    m2 = weyl_operator(ext2, model.nplus, 2j)
    assert_allclose(m1, [[0.5j]], atol=1e-14)
    assert_allclose(m2, [[0.6 + 0.8j]], atol=1e-14)
    assert abs(m1[0, 0] - support.weyl(0.0, 2j)) < 1e-15
    assert abs(m2[0, 0] - support.weyl(-1.0, 2j)) < 1e-15


def test_s1_lft_frozen(s1):
    model, ext1, ext2 = s1
    m1 = weyl_operator(ext1, model.nplus, 2j)
    p_i = PairContext(model, ext1, ext2).p_at_i_via_cayley
    via_plain = lft_m1_to_m2(m1, p_i)
    assert_allclose(via_plain, [[0.6 + 0.8j]], atol=1e-14)
    ang = angle_operator(ext1, ext2, model.nplus)
    via_angle = lft_m1_to_m2_angle(m1, ang)
    assert_allclose(via_angle, [[0.6 + 0.8j]], atol=1e-13)
    assert abs(via_plain[0, 0] - support.lft(0.5 + 0.5j, 0.5j)) < 1e-14


def test_s1_krein_resolvent_frozen(s1):
    model, ext1, ext2 = s1
    ang = angle_operator(ext1, ext2, model.nplus)
    r2 = krein_resolvent(ext1, ang, 1j)
    assert_allclose(r2, [[-0.5 + 0.5j]], atol=1e-14)
    assert abs(r2[0, 0] - support.resolvent(-1.0, 1j)) < 1e-14


def test_s1_herglotz_frozen(s1):
    model, ext1, ext2 = s1
    # bound at 2i is 4 / max(1, 4) = 1, attained by the reference:
    # Im(2i) * Im m1(2i) = 2 * 0.5 = 1
    assert herglotz_lower_bound(2j) == pytest.approx(1.0)
    pair = PairContext(model, ext1, ext2)
    # the records are the worst over ext1 and ext2
    res = support.records(checks.weyl_suite, pair, [2j])
    assert res["herglotz_bound"] <= 1e-14
    assert res["herglotz_identity"] < 1e-14
    assert frob(pair.m(ext1, -2j) - pair.m(ext1, 2j).conj().T) < 1e-14


def test_herglotz_lower_bound_frozen_values():
    assert herglotz_lower_bound(1j) == pytest.approx(1.0)
    assert herglotz_lower_bound(0.5j) == pytest.approx(0.25)
    assert herglotz_lower_bound(1 + 1j) == pytest.approx(1.0 / 3.0)
    assert herglotz_lower_bound(-3j) == pytest.approx(1.0)
    with pytest.raises(RealParameter):
        herglotz_lower_bound(2.0)


def test_herglotz_lower_bound_at_huge_z():
    # |z|^2 overflows a float from |z| ~ 1.34e154; library callers reach the
    # bound there, the half-line verifier among them
    assert herglotz_lower_bound(1e200j) == 1.0
    assert herglotz_lower_bound(1e160 + 1j) == pytest.approx(1e-320, rel=1e-3)
    assert herglotz_lower_bound(-1e200 - 1e200j) == pytest.approx(0.5)
    res = verify_halfline((1e200j,), (0.3,))
    assert all(math.isfinite(value) for value in res.values())
    # up to |z| = 1e150 the bound is the unscaled formula, bit for bit
    for z in (1e150j, 1e150 + 1e-3j, -7e149 + 7e149j, 2 - 1e-200j):
        assert herglotz_lower_bound(z) == \
            z.imag ** 2 / (max(1.0, abs(z) ** 2) + abs(z.real))


# ---------------------------------------------------------------------------
# scalar-oracle property sweep


@given(
    st.floats(-3.0, 3.0, allow_nan=False),
    st.floats(-3.0, 3.0, allow_nan=False),
    st.sampled_from(SAFE_Z),
)
def test_scalar_oracle_sweep(a1, a2, z):
    assume(abs(a1 - a2) > 1e-3)
    assume(min(abs(a1 - z), abs(a2 - z)) > 0.3)
    model, ext1, ext2 = scalar_pair(a1, a2)
    sub = model.nplus

    ps = support.p_function(ext1, ext2, sub, z).restricted[0, 0]
    assert abs(ps - support.p12(a1, a2, z)) < 1e-11

    m1 = weyl_operator(ext1, sub, z)[0, 0]
    m2 = weyl_operator(ext2, sub, z)[0, 0]
    assert abs(m1 - support.weyl(a1, z)) < 1e-11
    assert abs(m2 - support.weyl(a2, z)) < 1e-11

    # angle from the restricted Cayley product, via the scalar branch rule
    w = support.cay(a2) / support.cay(a1)
    alpha = support.branch_angle(w)
    ang = angle_operator(ext1, ext2, sub)
    assert abs(ang.alpha[0, 0] - alpha) < 1e-10

    # resolvent formula equals the direct resolvent of a2
    r2 = krein_resolvent(ext1, ang, z)[0, 0]
    assert abs(r2 - support.resolvent(a2, z)) < 1e-9 * (1.0 + abs(r2))

    # both fractional-linear routes land on m2
    p_i = PairContext(model, ext1, ext2).p_at_i_via_cayley
    assert abs(lft_m1_to_m2([[m1]], p_i)[0, 0] - m2) < 1e-9 * (1.0 + abs(m2))
    assert abs(lft_m1_to_m2_angle([[m1]], ang)[0, 0] - m2) < 1e-9 * (1.0 + abs(m2))

    # scalar inversion identity: 1/p12(z) = tan(alpha) - m1(z)
    assume(abs(alpha - math.pi / 2.0) > 1e-2)
    inv = math.tan(alpha) - m1
    assert abs(inv * ps - 1.0) < 1e-9 * (1.0 + abs(inv))


# ---------------------------------------------------------------------------
# matrix pairs: identities against the independently built extension


@pytest.mark.parametrize("dim,deficiency,seed", [(4, 2, 0), (6, 3, 1), (5, 1, 2)])
def test_matrix_pair_identities(dim, deficiency, seed):
    model, ext1, ext2, _ = support.random_pair(dim, deficiency, seed)
    sub = model.nplus
    n = model.deficiency
    eye = np.eye(dim)
    eyen = np.eye(n)
    ang = angle_operator(ext1, ext2, sub)
    assert ang.prime
    tan_a = support.tan_of(ang)
    for z in SAFE_Z:
        ps = support.p_function(ext1, ext2, sub, z)
        scale = 1.0 + frob(ps.full)
        # adjoint symmetry and support inside N+
        psc = support.p_function(ext1, ext2, sub, np.conj(z))
        assert frob(ps.full.conj().T - psc.full) < 1e-11 * scale
        pperp = eye - sub.basis @ sub.basis.conj().T
        assert frob(ps.full @ pperp) < 1e-10 * scale
        assert frob(pperp @ ps.full) < 1e-10 * scale
        # inversion through the Weyl operator
        inv = tan_a - weyl_operator(ext1, sub, z)
        assert frob(inv @ ps.restricted - eyen) < 1e-9 * (1.0 + frob(inv))
        # resolvent formula vs direct inverse
        direct = np.linalg.solve(ext2.a - z * eye, eye)
        via = krein_resolvent(ext1, ang, z)
        assert frob(via - direct) < 1e-9 * frob(direct)

    # value at i, both routes
    p_i = support.p_function(ext1, ext2, sub, 1j).restricted
    assert frob(p_i - PairContext(model, ext1, ext2).p_at_i_via_cayley) < 1e-12
    assert frob((tan_a - 1j * eyen) @ p_i - eyen) < 1e-10 * (1.0 + frob(tan_a))


@pytest.mark.parametrize("dim,deficiency,seed", [(4, 2, 10), (6, 3, 11)])
def test_matrix_pair_lft_and_links(dim, deficiency, seed):
    model, ext1, ext2, _ = support.random_pair(dim, deficiency, seed)
    pair = PairContext(model, ext1, ext2)
    res = support.records(checks.lft_suite, pair, (2j, 1 + 1j))
    for key, value in res.items():
        assert value < 1e-9, (key, value)
    # Cayley compression at i: p(i) = (i/2)(1 - W) and 1 + i p(i) = (1 + W)/2
    eyen = np.eye(deficiency)
    w = restricted_cayley_product(ext1, ext2, model.nplus)
    p_i = support.p_function(ext1, ext2, model.nplus, 1j).restricted
    assert frob(p_i - 0.5j * (eyen - w)) < 1e-9
    assert frob((eyen + 1j * p_i) - 0.5 * (eyen + w)) < 1e-9
    vn = support.records(checks.vonneumann_suite, pair)
    assert vn["vonneumann_link"] < 1e-10


def test_one_membership_gate_rejects_a_near_extension():
    model, ext1, ext2, _ = support.random_pair(6, 2, seed=53)
    pair = PairContext(model, ext1, ext2)
    assert pair.parameter(ext2) is pair.parameter(ext2)
    # off the restricted domain by 3e-9 of the scale, three times the
    # DEFAULT_TOL gate: every route to its von Neumann parameter refuses it
    shift = np.eye(model.dim)
    scale = 1.0 + frob(ext2.a) + frob(model.a1)
    # ||shift on D|| = ||1 - Qf Qf*|| = sqrt(N - n)
    qf = model.domain_complement.basis
    eps = 3e-9 * scale / frob(shift - (shift @ qf) @ qf.conj().T)
    near = Extension(ext2.a + eps * shift)
    with pytest.raises(NotAnExtension):
        parameter_of(model, near)
    pair = PairContext(model, ext1, near)
    with pytest.raises(NotAnExtension):
        pair.parameter(near)
    with pytest.raises(NotAnExtension):
        support.records(checks.vonneumann_suite, pair)


@pytest.mark.parametrize("z,zp", [(1j, 2j), (1 + 1j, -2 - 1j), (2j, -3j)])
def test_translation_identity(z, zp):
    model, ext1, ext2, _ = support.random_pair(5, 2, seed=17)
    pair = PairContext(model, ext1, ext2)
    assert support.translation_residual(pair, z, zp) < 1e-10
    # on the grid [z, zp] the record reads this pair's range drift, which is
    # symmetric in z and zp
    res = support.records(checks.p_function_suite, pair, [z, zp])
    assert res["p_range_constancy"] < 1e-9


def test_angle_matches_parameter_spectrum():
    # pair built from a Hermitian angle matrix h: the pair's angle operator
    # must reproduce the eigenvalues of h (exact construction, both routes
    # independent)
    model, ext1, ext2, h = support.random_pair(6, 3, seed=23)
    ang = angle_operator(ext1, ext2, model.nplus)
    got = np.sort(np.linalg.eigvalsh(ang.alpha))
    want = np.sort(np.linalg.eigvalsh(h))
    assert_allclose(got, want, atol=1e-10)


def test_weyl_fixed_point_and_conjugate_symmetry():
    model, ext1, ext2, _ = support.random_pair(6, 2, seed=29)
    for ext in (ext1, ext2):
        m_i = weyl_operator(ext, model.nplus, 1j)
        assert frob(m_i - 1j * np.eye(2)) < 1e-12
        for z in (2j, 1 + 1j):
            m = weyl_operator(ext, model.nplus, z)
            mc = weyl_operator(ext, model.nplus, np.conj(z))
            assert frob(mc - m.conj().T) < 1e-11 * (1.0 + frob(m))


def test_herglotz_on_matrix_pair():
    model, ext1, ext2, _ = support.random_pair(6, 2, seed=37)
    pair = PairContext(model, ext1, ext2)
    res = support.records(checks.weyl_suite, pair, SAFE_Z)
    assert res["herglotz_bound"] <= 1e-12
    assert res["herglotz_identity"] < 1e-10
    for ext in (ext1, ext2):
        for z in SAFE_Z:
            assert frob(pair.m(ext, np.conj(z)) - pair.m(ext, z).conj().T) < 1e-10


# ---------------------------------------------------------------------------
# non-prime pairs


@settings(max_examples=40, deadline=None)
@given(st.floats(-12.0, -2.0), st.integers(2, 8), st.integers(1, 3),
       st.integers(0, 10 ** 6), st.sampled_from(SAFE_Z))
@example(log_gap=-11.0, dim=8, deficiency=2, seed=5, z=2j)
@example(log_gap=-4.0, dim=8, deficiency=2, seed=5, z=2j)
def test_sine_cosine_forms_across_the_primeness_decision(log_gap, dim, deficiency, seed, z):
    # one angle eigenvalue pi/2 - gap, with the gap log-uniform over
    # [1e-12, 1e-2]: the Cayley gap is about 2 * gap, so the one primeness
    # decision (Cayley gap > DEFAULT_TOL) falls on either side of it, and
    # neither Krein's formula nor the angle-form law may notice
    gap = 10.0 ** log_gap
    deficiency = min(deficiency, dim)
    model, ext1, ext2, _ = support.random_pair(dim, deficiency, seed, degenerate=1, gap=gap)
    assume(min(np.min(np.abs(np.linalg.eigvalsh(ext.a) - z)) for ext in (ext1, ext2)) > 0.1)
    ang = angle_operator(ext1, ext2, model.nplus)
    if gap > 2e-9:
        assert ang.prime
    elif gap < 2e-10:
        assert not ang.prime
    eye = np.eye(dim)
    direct = np.linalg.solve(ext2.a - z * eye, eye)
    assert frob(krein_resolvent(ext1, ang, z) - direct) < 1e-9 * frob(direct)
    m2 = weyl_operator(ext2, model.nplus, z)
    via = lft_m1_to_m2_angle(weyl_operator(ext1, model.nplus, z), ang)
    assert frob(via - m2) < 1e-9 * (1.0 + frob(m2))


@settings(max_examples=40, deadline=None)
@given(st.floats(-12.0, -2.0), st.integers(2, 8), st.integers(1, 3), st.integers(0, 10 ** 6))
@example(log_gap=-9.155, dim=8, deficiency=2, seed=5)   # Cayley gap 1.4e-9: prime
@example(log_gap=-10.0, dim=3, deficiency=3, seed=0)    # 2e-10: not prime
def test_angle_spectrum_decides_primeness_and_rebuilds_w(log_gap, dim, deficiency, seed):
    # one Schur form of W = (C2 C1^{-1})|N+ gives the angle and primeness:
    # prime agrees with W's eigenvalues from an independent nonsymmetric
    # solver, away from the DEFAULT_TOL threshold itself
    gap = 10.0 ** log_gap
    deficiency = min(deficiency, dim)
    model, ext1, ext2, _ = support.random_pair(dim, deficiency, seed, degenerate=1, gap=gap)
    w = restricted_cayley_product(ext1, ext2, model.nplus)
    cayley_gap = float(np.min(np.abs(np.linalg.eigvals(w) - 1.0)))
    assume(abs(cayley_gap - DEFAULT_TOL) > 1e-3 * DEFAULT_TOL)
    ang = angle_operator(ext1, ext2, model.nplus)
    assert ang.prime == (cayley_gap > DEFAULT_TOL)
    # one degenerate eigenvalue: the rank is n, or n - 1 where it is decided
    # to sit at 1, and prime is full rank
    assert ang.rank == deficiency - (cayley_gap <= DEFAULT_TOL)
    # the rebuilt product is unitary by construction, W only up to the
    # roundoff of the Cayley transforms, so that defect enters the bound
    tol = 10 * deficiency * np.finfo(float).eps
    spec = ang.spectrum
    rebuilt = -spec.compose(np.exp(-2j * spec.eigenvalues))
    assert frob(rebuilt - w) < tol + frob(w.conj().T @ w - np.eye(deficiency))
    assert frob(ang.alpha - ang.alpha.conj().T) <= tol * frob(ang.alpha)
    with pytest.raises(ValueError):
        ang.alpha[0, 0] = 0.0


def test_non_prime_pair_behaviour():
    model, ext1, ext2, h = support.random_pair(6, 3, seed=41, degenerate=1)
    sub = model.nplus
    pair = PairContext(model, ext1, ext2)
    assert not pair.angle.prime
    assert support.common_subspace(ext1, ext2).rank == 2

    # the angle operator on N+ exists (N+ stays invariant) and has an
    # eigenvalue at one end of the branch: cos(alpha) vanishes on the
    # degenerate block
    ang = pair.angle
    evs = ang.spectrum.eigenvalues.real
    assert np.sum(np.abs(np.abs(evs) - math.pi / 2.0) < 1e-8) == 1
    cos_a, sin_a, _, _ = ang.law_factors
    eye = np.eye(model.dim)
    for z in (2j, 1 + 1j, -2 - 1j):
        # the sine/cosine forms hold on all of N+: the inversion of P(z),
        # Krein's formula and the angle-form law
        m1 = weyl_operator(ext1, sub, z)
        m2 = weyl_operator(ext2, sub, z)
        assert frob((sin_a - cos_a @ m1) @ pair.p(z).restricted - cos_a) < 1e-9 * (1.0 + frob(m1))
        direct = np.linalg.solve(ext2.a - z * eye, eye)
        via = krein_resolvent(ext1, ang, z)
        assert frob(via - direct) < 1e-9 * frob(direct)
        assert frob(lft_m1_to_m2_angle(m1, ang) - m2) < 1e-9 * (1.0 + frob(m2))

    # the coefficient-form fractional-linear law still holds on all of N+
    for z in (2j, 1 + 1j):
        m1 = weyl_operator(ext1, sub, z)
        m2 = weyl_operator(ext2, sub, z)
        assert frob(lft_m1_to_m2(m1, pair.p_at_i_via_cayley) - m2) < 1e-9 * (1.0 + frob(m2))
        assert support.records(checks.lft_suite, pair, [z])["lft_direct"] < 1e-9


def test_range_of_p_has_the_angle_rank_at_every_z():
    # two angle eigenvalues at pi/2: the one rank decision is the angle's,
    # rank cos(alpha) = 1, and the range of P(z)|N+ has that dimension at
    # every z, with the kept singular value far above the dropped ones
    model, ext1, ext2, _ = support.random_pair(6, 3, seed=41, degenerate=2)
    pair = PairContext(model, ext1, ext2)
    assert pair.angle.rank == 1
    assert not pair.angle.prime
    for z in (*SAFE_Z, 1e3j, 0.5 + 1e-6j):
        sub, sv = pair.p_range(z)
        assert sub.rank == pair.angle.rank
        assert np.linalg.matrix_rank(pair.p(z).restricted, tol=1e-9) == 1
        assert sv[1] < 1e-12 * sv[0]


def test_identical_extensions_degenerate_cleanly():
    model = support.random_model(4, 2, seed=43)
    ext1 = model.reference
    assert support.common_subspace(ext1, ext1).rank == 0
    # every angle eigenvalue sits at an end of the branch, so Krein's
    # formula on N+ adds a vanishing term to R1
    ang = angle_operator(ext1, ext1, model.nplus)
    assert_allclose(np.abs(ang.spectrum.eigenvalues.real), math.pi / 2.0, atol=1e-8)
    eye = np.eye(4)
    for z in (2j, 1 + 1j):
        via = krein_resolvent(ext1, ang, z)
        direct = np.linalg.solve(ext1.a - z * eye, eye)
        assert frob(via - direct) < 1e-12 * frob(direct)
        m1 = weyl_operator(ext1, model.nplus, z)
        assert frob(lft_m1_to_m2_angle(m1, ang) - m1) < 1e-12 * (1.0 + frob(m1))
    # compressed difference on N+ is numerically zero
    ps = support.p_function(ext1, ext1, model.nplus, 2j)
    assert frob(ps.restricted) < 1e-12


# ---------------------------------------------------------------------------
# error paths


def test_angle_operator_rejects_non_invariant_subspace():
    model, ext1, ext2, _ = support.random_pair(4, 2, seed=59)
    line = Subspace(basis=model.nplus.basis[:, :1])
    with pytest.raises(NotInvariant):
        angle_operator(ext1, ext2, line)


def test_spectral_parameter_guard():
    model, ext1, ext2 = scalar_pair(0.0, 1.0)
    with pytest.raises(SpectralParameter):
        weyl_operator(ext1, model.nplus, 1e-14j)
    with pytest.raises(SpectralParameter):
        support.p_function(ext1, ext2, model.nplus, 1.0 + 1e-14j)
    with pytest.raises(SpectralParameter):
        krein_resolvent(ext1, angle_operator(ext1, ext2, model.nplus), 1e-14j)
    # the guard sits at DEFAULT_TOL = 1e-9 from the spectrum, on both sides
    with pytest.raises(SpectralParameter):
        weyl_operator(ext1, model.nplus, 5e-10j)
    with pytest.raises(SpectralParameter):
        support.p_function(ext1, ext2, model.nplus, 1.0 + 5e-10j)
    assert np.all(np.isfinite(weyl_operator(ext1, model.nplus, 2e-9j)))
    assert np.all(np.isfinite(support.p_function(ext1, ext2, model.nplus, 1.0 + 2e-9j).full))


def test_lft_singular_denominator():
    with pytest.raises(SingularDenominator):
        lft_m1_to_m2([[1.0 + 1j]], np.array([[1.0]]))
    # in a stack, the one singular denominator fails the call
    with pytest.raises(SingularDenominator):
        lft_m1_to_m2([[[0.5j]], [[1.0 + 1j]]], np.array([[1.0]]))


def test_angle_form_laws_are_finite_at_the_pole():
    # the angle form needs no pole guard at either end of the branch
    # (-pi/2, pi/2]: it is the coefficient form with p(i) = i e^{-ia} cos a,
    # and at the pole itself it is the identity map
    line = Subspace(basis=np.eye(1))
    m1 = np.array([[0.5j]])
    for sign in (1.0, -1.0):
        for gap in (0.0, 1e-12, 5e-9, 2e-8):
            a = sign * (math.pi / 2.0 - gap)
            ang = AngleOperator(hermitian_eig(np.array([[a]])), line)
            for _ in range(2):   # the second pass reads the cached factors
                p_i = np.array([[1j * np.exp(-1j * a) * math.cos(a)]])
                assert_allclose(lft_m1_to_m2_angle(m1, ang), lft_m1_to_m2(m1, p_i),
                                atol=1e-15)
            if gap == 0.0:
                assert_allclose(lft_m1_to_m2_angle(m1, ang), m1, atol=1e-15)


def _angle_form_rebuilt(m, angle):
    """The angle-form law, every factor composed afresh."""
    spec = angle.spectrum
    b = spec.eigenvalues
    cos_b, sin_b = spec.compose(np.cos(b)), spec.compose(np.sin(b))
    den_inv = inverse(sin_b - cos_b @ m)
    return (spec.compose(np.exp(-1j * b)) @ (cos_b + sin_b @ m) @ den_inv
            @ spec.compose(np.exp(1j * b)))


def test_angle_form_laws_reuse_read_only_factors():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    angle = AngleOperator(hermitian_eig((g + g.conj().T) / 4.0), Subspace(basis=np.eye(3)))
    for _ in range(2):   # the second pass reads the cached factors
        for k in range(3):
            m = rng.standard_normal((3, 3)) + 1j * (np.eye(3) + 0.1 * k)
            assert lft_m1_to_m2_angle(m, angle).tobytes() == \
                _angle_form_rebuilt(m, angle).tobytes()
    factors = angle.law_factors
    assert angle.law_factors is factors
    for factor in factors:
        with pytest.raises(ValueError):
            factor[0, 0] = 0.0


@pytest.mark.parametrize("n", [1, 3])
def test_laws_on_a_stack_match_their_per_matrix_calls(n):
    # a stack of M-values over a z-grid takes one call of each law, and each
    # matrix maps as a call on it alone does, to the bit
    model, ext1, ext2, _ = support.random_pair(n + 5, n, 21)
    pair = PairContext(model, ext1, ext2)
    stack = np.stack([pair.m(ext1, z) for z in (2j, 1 + 1j, -0.5 + 0.3j, 4 - 2j)])
    routes = ((lft_m1_to_m2, pair.p_at_i_via_cayley), (lft_m1_to_m2_angle, pair.angle))
    for law, coefficients in routes:
        mapped = law(stack, coefficients)
        assert mapped.shape == stack.shape
        for m, out in zip(stack, mapped):
            assert out.tobytes() == law(m, coefficients).tobytes()
        grid = law(stack.reshape(2, 2, n, n), coefficients)
        assert grid.reshape(stack.shape).tobytes() == mapped.tobytes()
        assert law(stack[:0], coefficients).shape == (0, n, n)
    with pytest.raises(ValueError):
        lft_m1_to_m2(np.stack([stack[0], np.full((n, n), np.nan)]), pair.p_at_i_via_cayley)


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2, 3]), st.integers(0, 4),
       st.integers(0, 5))
def test_coefficient_law_on_a_stack_of_p_matches_the_per_p_calls(seed, k, pairs, zs):
    # a grid of pairs against a grid of z takes one call of the coefficient
    # law, with p(i) stacked over the pairs on a leading axis of its own; each
    # pair's slice maps as a call with its p(i) alone does, to the bit
    rng = np.random.default_rng(seed)

    def draw(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    m1, p_i = draw(zs, k, k), draw(pairs, k, k)
    grid = lft_m1_to_m2(m1, p_i[:, None])
    assert grid.shape == (pairs, zs, k, k)
    for p, mapped in zip(p_i, grid):
        assert mapped.tobytes() == lft_m1_to_m2(m1, p).tobytes()
    # one m1 against the stack of p(i)
    if zs:
        for p, mapped in zip(p_i, lft_m1_to_m2(m1[0], p_i)):
            assert mapped.tobytes() == lft_m1_to_m2(m1[0], p).tobytes()


def test_krein_resolvent_singular_denominator():
    # a genuine angle can never make sin(alpha) - cos(alpha) m1(z) singular
    # off the real axis (Im m1 is definite there), so force it on the axis:
    # for a1 = 1, m1(-1) = (1 + w z)/(w - z) = 0 exactly, and alpha = 0
    model, ext1, _ = scalar_pair(1.0, 0.0)
    ang = AngleOperator(hermitian_eig(np.zeros((1, 1))), model.nplus)
    with pytest.raises(SingularDenominator):
        krein_resolvent(ext1, ang, -1.0)
    # on a grid, the error is the one of the first offending point, as the
    # per-z calls raise it: the singular denominator at -1 before a later
    # collision with the spectrum at 1, and that collision before a later
    # singular denominator, also when nothing of the grid comes before it
    def call(z):
        return krein_resolvent(ext1, ang, z)

    for grid, error in (([2j, 1j, -1.0, 1.0 + 1e-12j], SingularDenominator),
                        ([2j, 1.0 + 1e-12j, -1.0], SpectralParameter),
                        ([1.0 + 1e-12j, -1.0], SpectralParameter)):
        expected = support.first_error(call, grid)
        assert expected[0] is error
        assert support.raised(call, np.array(grid)) == expected


def _off_axis_z():
    # from 1e-3 off the real axis up to |z| = 1e6, in either half-plane
    def build(log_im, sign, share):
        im = sign * 10.0 ** log_im
        return complex(share * math.sqrt(1e12 - im * im), im)

    return st.builds(build, st.floats(-3.0, 6.0), st.sampled_from([1.0, -1.0]),
                     st.floats(-1.0, 1.0))


@given(st.sampled_from([(64, 3), (32, 3), (8, 2), (6, 6), (1, 1), (64, 64)]),
       st.integers(0, 2 ** 32 - 1), st.lists(_off_axis_z(), min_size=1, max_size=6))
# one z at N = n = 1: every operand has one entry, where numpy rounds a
# complex product by another loop unless the operands have equal numbers of
# axes
@example((1, 1), 0, [999999.9999995 + 1j])
def test_weyl_operator_and_krein_resolvent_on_an_array_match_the_per_z_calls(shape, seed, zs):
    # one call on the grid gives, to the bit, what the per-z calls give:
    # M(z) of both extensions as a stack, R2(z) one at a time
    model, ext1, ext2, _ = support.random_pair(*shape, seed)
    grid = np.array(zs)
    for ext in (ext1, ext2):
        stack = weyl_operator(ext, model.nplus, grid)
        assert stack.shape == (len(zs), shape[1], shape[1])
        for z, m in zip(zs, stack):
            assert m.tobytes() == weyl_operator(ext, model.nplus, z).tobytes()
    angle = angle_operator(ext1, ext2, model.nplus)
    for z, r2 in zip(zs, krein_resolvent(ext1, angle, grid), strict=True):
        assert r2.tobytes() == krein_resolvent(ext1, angle, z).tobytes()


def test_weyl_operator_on_an_array_raises_at_its_first_collision():
    # the grid meets the spectrum at its third and fourth points: the error
    # is the per-z call's at the third, class and message
    model, ext1, ext2, _ = support.random_pair(8, 2, 5)
    w = ext1.spectrum.eigenvalues.real
    grid = [1j, 2j, w[4] + 1e-12j, w[1] + 1e-11j, -1j]
    expected = support.first_error(lambda z: weyl_operator(ext1, model.nplus, z), grid)
    assert expected[0] is SpectralParameter
    assert support.raised(weyl_operator, ext1, model.nplus, np.array(grid)) == expected
    angle = angle_operator(ext1, ext2, model.nplus)
    assert support.raised(krein_resolvent, ext1, angle, np.array(grid)) == expected


def test_pair_memo_stacks_the_per_z_entries_and_computes_each_once(monkeypatch):
    # a sequence takes the entries it lacks from one weyl_operator call on
    # them (a twin that differs in the sign of a zero part is one entry),
    # and its stack holds the per-z entries to the bit, all read-only
    model, ext1, ext2, _ = support.random_pair(8, 2, 7)
    calls = []

    def counting(ext, subspace, z):
        calls.append((ext, list(np.atleast_1d(z))))
        return real(ext, subspace, z)

    real = krein_module.weyl_operator
    monkeypatch.setattr(krein_module, "weyl_operator", counting)
    pair = PairContext(model, ext1, ext2)
    zs = [1j, 2j, 1j, complex(-0.0, 2.0), -1 + 1j]
    stack = pair.m(ext1, zs)
    assert calls == [(ext1, [1j, 2j, -1 + 1j])]
    assert stack.shape == (5, 2, 2) and not stack.flags.writeable
    for z, m in zip(zs, stack):
        cached = pair.m(ext1, z)
        assert cached is pair.m(ext1, z) and not cached.flags.writeable
        assert cached.tobytes() == m.tobytes() == real(ext1, model.nplus, z).tobytes()
    assert len(calls) == 1
    pair.m(ext1, [2j, 3j, 1j])
    pair.m(ext2, 2j)
    pair.m(ext2, zs)
    assert calls[1:] == [(ext1, [3j]), (ext2, [2j]), (ext2, [1j, -1 + 1j])]


def test_krein_suite_guards_both_spectra_at_z_before_krein_formula_at_z(s1):
    # ext2 meets the grid at -1, ext1 at 0: whichever comes first in the
    # grid raises, as the per-z loop (P(z)'s guards, ext1's before ext2's,
    # then Krein's formula), ext2's also at the grid's first point
    pair = PairContext(*s1)

    def per_z(z):
        krein_module._resolvent_diagonal(pair.ext1, z)
        krein_module._resolvent_diagonal(pair.ext2, z)
        krein_resolvent(pair.ext1, pair.angle, z)

    for grid in ([-1 + 1e-12j, 1e-12j], [2j, -1 + 1e-12j, 1e-12j],
                 [2j, 1e-12j, -1 + 1e-12j]):
        expected = support.first_error(per_z, grid)
        assert support.raised(support.records, checks.krein_suite, pair, grid) == expected
    assert expected[1].startswith("z = 0+1e-12j ")


def test_p_function_and_krein_suites_raise_at_the_first_collision_of_either_extension():
    # the grid meets one spectrum at its second point and the other at its
    # third.  p_function_suite raises as P(z) at each grid z raises, ext1's
    # guard before ext2's; krein_suite as P(z)'s guards and then Krein's
    # formula at each z
    model, ext1, ext2, _ = support.random_pair(8, 2, 5)
    pair = PairContext(model, ext1, ext2)
    w1, w2 = ext1.spectrum.eigenvalues.real, ext2.spectrum.eigenvalues.real

    def p_at(z):
        krein_module._resolvent_diagonal(ext1, z)
        krein_module._resolvent_diagonal(ext2, z)

    def krein_at(z):
        p_at(z)
        krein_module.krein_resolvent_frame(ext1, pair.angle, z)

    hit1, hit2 = w1[4] + 1e-12j, w2[1] + 1e-11j
    for grid, first in (([1j, hit1, hit2, -1j], hit1), ([2j, hit2, hit1, -1j], hit2)):
        for suite, per_z in ((checks.p_function_suite, p_at), (checks.krein_suite, krein_at)):
            expected = support.first_error(per_z, grid)
            assert expected[0] is SpectralParameter
            assert expected[1].startswith(f"z = {first:.6g} ")
            assert support.raised(support.records, suite, pair, grid) == expected


def test_sample_shape_validation():
    line = Subspace(basis=np.array([[1.0], [0.0]]))
    with pytest.raises(ValueError):
        AngleOperator(hermitian_eig(np.zeros((2, 2))), line)
    # a unitary spectrum passed by mistake is not an angle
    with pytest.raises(NotHermitian):
        AngleOperator(unitary_eig(np.array([[1j]])), line)


# ---------------------------------------------------------------------------
# eigenbasis routes against independent dense solves at N = 64

EPS = np.finfo(float).eps


def _pair_64(kind):
    if kind == "identical":
        model = support.random_model(64, 3, seed=61)
        return model, model.reference, model.reference
    deficiency = 64 if kind == "n_equals_N" else 3
    model, ext1, ext2, _ = support.random_pair(64, deficiency, seed=67)
    return model, ext1, ext2


def _z_cases(ext1):
    # near the real axis, midway between two neighbouring eigenvalues of a1
    w = np.linalg.eigvalsh(ext1.a)
    near_axis = (w[31] + w[32]) / 2.0 + 1e-6j
    return {"moderate": 1 + 1j, "near_axis": near_axis,
            "large_imag": 1e6j, "large_oblique": 6e5 + 8e5j}


def _solve_resolvent(a, z):
    eye = np.eye(a.shape[0])
    return np.linalg.solve(a - z * eye, eye)


def _budget(exts, z):
    """n * eps * kappa(a - z), worst over the extensions: how far apart two
    backward-stable evaluations may land, relative to the size of the terms
    the formula combines."""
    kappa = max(
        float(np.max(np.abs(w - z)) / np.min(np.abs(w - z)))
        for w in (np.linalg.eigvalsh(ext.a) for ext in exts)
    )
    return exts[0].dim * EPS * kappa


@pytest.mark.parametrize("kind", ["prime", "identical", "n_equals_N"])
def test_eigenbasis_routes_match_dense_solves(kind):
    model, ext1, ext2 = _pair_64(kind)
    sub = model.nplus
    s = sub.basis
    eye = np.eye(model.dim)
    assert support.common_subspace(ext1, ext2).rank == \
        {"prime": 3, "identical": 0, "n_equals_N": 64}[kind]
    angle = angle_operator(ext1, ext2, sub)
    for label, z in _z_cases(ext1).items():
        budget = 10.0 * _budget((ext1, ext2), z)
        r1 = _solve_resolvent(ext1.a, z)
        r2 = _solve_resolvent(ext2.a, z)
        r1_norm = np.linalg.norm(r1, 2)

        m_ref = z * np.eye(sub.rank) + (1.0 + z * z) * (s.conj().T @ r1 @ s)
        m_scale = abs(z) + abs(1.0 + z * z) * r1_norm
        m_err = frob(weyl_operator(ext1, sub, z) - m_ref)
        assert m_err <= budget * m_scale, (label, "weyl", m_err)

        left = (ext1.a - z * eye) @ _solve_resolvent(ext1.a, 1j)
        right = (ext1.a - z * eye) @ _solve_resolvent(ext1.a, -1j)
        p_ref = left @ (r2 - r1) @ right
        p_scale = (np.linalg.norm(left, 2) * np.linalg.norm(right, 2)
                   * (r1_norm + np.linalg.norm(r2, 2)))
        p_err = frob(support.p_function(ext1, ext2, sub, z).full - p_ref)
        assert p_err <= budget * p_scale, (label, "p", p_err)

        # the acceptance oracle's relative measure, 100x below its tolerance
        via = krein_resolvent(ext1, angle, z)
        assert frob(via - r2) <= 1e-11 * frob(r2), (label, "krein")


def _oracle_pair(shape):
    if shape == "non-prime":
        scenario = dataclasses.replace(
            cli.generate_scenario(6, 2, 9),
            parameter={"angle": np.diag([math.pi / 2, 0.3]).astype(complex)})
    else:
        scenario = cli.generate_scenario(*shape, 3)
    return cli.materialize(scenario)[:3]


@pytest.mark.parametrize("shape", [(1, 1), (3, 3), (6, 6), (8, 2), (64, 3), "non-prime"])
def test_frame_forms_match_their_oracles(shape):
    # Krein's formula in ext1's eigenframe, mapped back by V1, against a
    # dense solve with a2 - z, relative to ||R2(z)||, at z 1e-6 off the axis
    # between two eigenvalues of a1, and at |z| = 1e6
    model, ext1, ext2 = _oracle_pair(shape)
    pair = PairContext(model, ext1, ext2)
    if shape == "non-prime":
        assert pair.angle.rank == 1
    v1 = ext1.spectrum.eigenvectors
    w1 = ext1.spectrum.eigenvalues.real
    between = w1[0] - 0.5 if model.dim == 1 else (w1[0] + w1[1]) / 2.0
    zs = [between + 1e-6j, between - 1e-6j, 1e6j, 6e5 - 8e5j, 1 + 1j]
    unit = 10.0 * model.dim * EPS
    eye = np.eye(model.dim)
    frames = krein_module.krein_resolvent_frame(ext1, pair.angle, np.array(zs))
    for z, frame in zip(zs, frames, strict=True):
        direct = np.linalg.solve(ext2.a - z * eye, eye)
        assert frob(v1 @ frame @ v1.conj().T - direct) <= unit * frob(direct), z


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(1, 1), (6, 6), (8, 2), (64, 3), "non-prime"]),
       st.one_of(st.none(), st.floats(-10.0, 10.0), st.floats(-1e6, 1e6)),
       st.floats(-6.0, 0.0), st.sampled_from([1.0, -1.0]))
@example((64, 3), None, -6.0, 1.0)
@example((64, 3), 1e6, -6.0, -1.0)
def test_p_and_m_are_adjoint_at_conjugate_points(shape, re, log_im, sign):
    # P(conj z) = P(z)* and M(conj z) = M(z)* of both extensions, as the
    # spectral forms give them, which no report record reads: up to the
    # roundoff of two evaluations, N eps kappa(a - z) times the size of the
    # terms each combines.  Im z from 1e-6 to 1 and |z| up to 1e6; re None
    # is midway between the two lowest eigenvalues of a1
    model, ext1, ext2 = _oracle_pair(shape)
    pair = PairContext(model, ext1, ext2)
    w1 = ext1.spectrum.eigenvalues.real
    if re is None:
        re = w1[0] - 0.5 if model.dim == 1 else (w1[0] + w1[1]) / 2.0
    z = complex(re, sign * 10.0 ** log_im)
    budget = 10.0 * _budget((ext1, ext2), z)
    p_err = frob(pair.p(z.conjugate()).full - pair.p(z).full.conj().T)
    assert p_err <= budget * _p_terms(ext1, ext2, z), (z, p_err)
    for ext in (ext1, ext2):
        w = ext.spectrum.eigenvalues.real
        m_scale = float(np.max(np.abs(1.0 + w * z) / np.abs(w - z)))
        m_err = frob(pair.m(ext, z.conjugate()) - pair.m(ext, z).conj().T)
        assert m_err <= budget * m_scale, (z, m_err)


def _p_terms(ext1, ext2, z):
    """The size of the terms P(z) combines in ext1's eigenframe:
    ||(a1 - z)(a1 - i)^{-1}|| ||(a1 - z)(a1 + i)^{-1}|| (||R1(z)|| + ||R2(z)||)."""
    w1, w2 = ext1.spectrum.eigenvalues.real, ext2.spectrum.eigenvalues.real
    return float(np.max(np.abs(w1 - z) / np.abs(w1 - 1j))
                 * np.max(np.abs(w1 - z) / np.abs(w1 + 1j))
                 * (1.0 / np.min(np.abs(w1 - z)) + 1.0 / np.min(np.abs(w2 - z))))


@pytest.mark.parametrize("shape", [(64, 3), (8, 2), (6, 6), (1, 1), "identical"])
def test_pair_memo_eigenframe_p_matches_p_function(shape):
    # PairContext.p holds V1* P(z) V1, one N x N product per z.  Mapped back
    # to the original frame, it and its compression to N+ agree with
    # p_function (four spectral functions, two products) up to the roundoff
    # of two backward-stable routes: N eps kappa(a - z) times the size of the
    # terms P(z) combines, ||(a1 - z)(a1 - i)^{-1}|| ||(a1 - z)(a1 + i)^{-1}||
    # (||R1(z)|| + ||R2(z)||)
    if shape == "identical":
        model = support.random_model(8, 2, seed=61)
        ext1 = ext2 = model.reference
    else:
        model, ext1, ext2, _ = support.random_pair(*shape, seed=67)
    pair = PairContext(model, ext1, ext2)
    v1 = ext1.spectrum.eigenvectors
    w1 = ext1.spectrum.eigenvalues.real
    zs = [1j, 1 + 1j, -0.7 + 0.3j, 2 - 1j, 1e6j, 6e5 + 8e5j]
    if model.dim > 1:
        zs.append((w1[0] + w1[1]) / 2.0 + 1e-6j)
    for z in zs:
        ps, ref = pair.p(z), support.p_function(ext1, ext2, model.nplus, z)
        budget = 10.0 * _budget((ext1, ext2), z) * _p_terms(ext1, ext2, z)
        assert frob(v1 @ ps.full @ v1.conj().T - ref.full) <= budget, z
        assert frob(ps.restricted - ref.restricted) <= budget, z
