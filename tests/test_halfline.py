"""Tests for the closed-form half-line pair and the quadrature cross-check."""

import cmath
import decimal
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.linalg import expm

from kreinkit.errors import (
    BadDimensions,
    BranchCut,
    GridTooCoarse,
    NotRelativelyPrime,
    NumericalFailure,
    SingularDenominator,
)
import support
from kreinkit import cli, halfline
from kreinkit.krein import AngleOperator, lft_m1_to_m2_angle
from kreinkit.numerics import SpectralDecomposition, Subspace, hermitian_eig, unitary_eig
from kreinkit.halfline import (
    DEFAULT_ALPHA2,
    DEFAULT_Z,
    HalflineScenario,
    QuadratureGrid,
    dirichlet_resolvent_quadrature,
    m1_halfline,
    m2_halfline,
    p12_halfline,
    quadrature_roundtrip,
    sqrt_upper,
    verify_halfline,
)

SQRT2 = math.sqrt(2.0)
EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# branch of the square root


def test_sqrt_upper_frozen_values():
    assert abs(sqrt_upper(2j) - (1 + 1j)) < 1e-15
    assert abs(sqrt_upper(-4.0) - 2j) < 1e-15
    assert abs(sqrt_upper(-1.0) - 1j) < 1e-15
    w = sqrt_upper(3 - 4j)  # lower half plane input still maps upward
    assert w.imag > 0.0 and abs(w * w - (3 - 4j)) < 1e-14


def test_sqrt_upper_rejects_the_cut():
    for z in (0.0, 4.0, 1e-13j, 2.0 + 1e-13j):
        with pytest.raises(BranchCut):
            sqrt_upper(z)
    # strictly negative real z is off the cut
    assert sqrt_upper(-9.0) == pytest.approx(3j)


# ---------------------------------------------------------------------------
# scalar formulas


def test_m1_fixed_point_and_frozen_value():
    assert abs(m1_halfline(1j) - 1j) < 1e-15
    expected = 1.0 + 1j * cmath.sqrt(4j)  # sqrt(4i) already has Im > 0
    assert abs(m1_halfline(2j) - expected) < 1e-15
    assert abs(m1_halfline(2j) - ((1.0 - SQRT2) + SQRT2 * 1j)) < 1e-14


def test_m2_angle_law_frozen_value():
    scen = HalflineScenario(math.pi / 4.0)
    m1 = m1_halfline(2j)
    expected = (1.0 + m1) / (1.0 - m1)  # cos = sin at pi/4
    assert abs(m2_halfline(2j, scen) - expected) < 1e-14
    # m2 also fixes i, like every Weyl function here
    assert abs(m2_halfline(1j, scen) - 1j) < 1e-14


def _m2_reference(z, alpha2):
    """Re and Im of (cos a2 + sin a2 m1)/(sin a2 - cos a2 m1) in 120-digit
    decimal arithmetic, m1 = 1 + i sqrt(2z) on the upper branch."""
    with decimal.localcontext() as ctx:
        ctx.prec = 120
        D = decimal.Decimal
        a, b = 2 * D(z.real), 2 * D(z.imag)  # b > 0 here
        root_re = (((a * a + b * b).sqrt() + a) / 2).sqrt()
        root_im = b / (2 * root_re)  # principal root, Im > 0
        m1_re, m1_im = 1 - root_im, root_re
        ca, sa = D(math.cos(alpha2)), D(math.sin(alpha2))
        num_re, num_im = ca + sa * m1_re, sa * m1_im
        den_re, den_im = sa - ca * m1_re, -ca * m1_im
        den2 = den_re * den_re + den_im * den_im
        return (float((num_re * den_re + num_im * den_im) / den2),
                float((num_im * den_re - num_re * den_im) / den2))


@pytest.mark.parametrize("alpha2", [0.3, 2.0])
@pytest.mark.parametrize("z", [1e34j, 1e50j, 1e100 + 1e100j])
def test_m2_halfline_keeps_its_imaginary_part_at_huge_z(z, alpha2):
    # Im m2 is about 1/|z|^(1/2) against Re m2 ~ -tan a2, so the quotient's
    # own imaginary part cancels to 0 here; 120 digits resolve it exactly
    want_re, want_im = _m2_reference(z, alpha2)
    got = m2_halfline(z, HalflineScenario(alpha2))
    assert abs((got.real - want_re) / want_re) < 8 * EPS
    assert abs((got.imag - want_im) / want_im) < 8 * EPS
    if alpha2 == 0.3 and z == 1e50j:
        # a true Herglotz function: no false positivity violation
        assert verify_halfline((z,), (alpha2,))["herglotz_m2"] == 0.0


def test_p12_inversion_identity():
    for a2 in DEFAULT_ALPHA2:
        scen = HalflineScenario(a2)
        t = math.tan(a2)
        for z in DEFAULT_Z:
            p = p12_halfline(z, scen)
            assert abs(1.0 / p - (t - m1_halfline(z))) < 1e-12 * (1.0 + abs(1.0 / p))


def test_scalar_formulas_take_arrays_of_z():
    # one implementation serves a number and an array of z: the array holds
    # the per-z values (to the last bit where no complex division enters;
    # numpy rounds some quotients differently from Python) and refuses the
    # first bad point of the array by the message of the scalar call
    z = np.array([[1j, -2 - 1j, 1e50j], [-9.0 + 0j, 0.5 + 0.5j, 3 - 4j]])
    assert sqrt_upper(z).tobytes() == np.array(
        [[sqrt_upper(complex(v)) for v in row] for row in z]).tobytes()
    assert m1_halfline(z).tobytes() == np.array(
        [[m1_halfline(complex(v)) for v in row] for row in z]).tobytes()
    for a2 in DEFAULT_ALPHA2:
        scen = HalflineScenario(a2)
        for formula in (m2_halfline, p12_halfline):
            got = formula(z, scen)
            assert got.shape == z.shape and got.dtype == np.complex128
            for value, point in zip(got.ravel(), z.ravel()):
                want = formula(complex(point), scen)
                assert abs(value - want) <= 2 * EPS * abs(want)
    scen = HalflineScenario(0.0)  # bound state at z = -1/2
    poles = np.array([1j, -0.5 + 0j, -0.5 + 0j])
    for formula in (m2_halfline, p12_halfline):
        with pytest.raises(SingularDenominator) as on_array:
            formula(poles, scen)
        with pytest.raises(SingularDenominator) as on_number:
            formula(-0.5, scen)
        assert str(on_array.value) == str(on_number.value)
    with pytest.raises(BranchCut) as on_array:
        m1_halfline(np.array([-1 + 1j, 2.0, 3.0]))
    with pytest.raises(BranchCut) as on_number:
        m1_halfline(2.0)
    assert str(on_array.value) == str(on_number.value)


def test_resolvent_coefficient_proportional_to_p12():
    # -1/(c + i sqrt(z)) = sqrt(2) * p12(z), c = (1 - tan a2)/sqrt(2)
    for a2 in (0.0, math.pi / 8, 3 * math.pi / 4):
        scen = HalflineScenario(a2)
        for z in (1j, -2 - 1j, -9.0 + 0j):
            r = support.resolvent_coefficient(z, scen)
            p = p12_halfline(z, scen)
            assert abs(r - SQRT2 * p) < 1e-13 * (1.0 + abs(r))


def test_scenario_constructor_contracts():
    scen = HalflineScenario(0.0)
    assert scen.c == pytest.approx(1.0 / SQRT2)
    with pytest.raises(ValueError):
        HalflineScenario(math.inf)
    for bad in (math.pi / 2, -math.pi / 2, 3 * math.pi / 2, math.pi / 2 + 1e-9):
        with pytest.raises(NotRelativelyPrime):
            HalflineScenario(bad)


def test_bound_state_pole_detected():
    # alpha2 = 0 gives c = 1/sqrt(2) > 0: bound state at z = -1/2, where all
    # three scalar objects lose their denominator
    scen = HalflineScenario(0.0)
    with pytest.raises(SingularDenominator):
        support.resolvent_coefficient(-0.5, scen)
    with pytest.raises(SingularDenominator):
        p12_halfline(-0.5, scen)
    with pytest.raises(SingularDenominator):
        m2_halfline(-0.5, scen)
    # another c > 0 case: tan(3 pi/4) = -1 gives c = sqrt(2), pole at -2
    scen2 = HalflineScenario(3 * math.pi / 4)
    with pytest.raises(SingularDenominator):
        support.resolvent_coefficient(-scen2.c ** 2, scen2)
    for formula in (p12_halfline, m2_halfline):
        with pytest.raises(SingularDenominator):
            formula(-2.0, scen2)
    # for c < 0 (tan a2 > 1) the candidate point -c^2 is regular:
    # c + i sqrt(-c^2) = c - |c| = 2c there
    scen3 = HalflineScenario(3 * math.pi / 8)
    assert scen3.c < 0.0
    r = support.resolvent_coefficient(-scen3.c ** 2, scen3)
    assert abs(r - (-1.0 / (2.0 * scen3.c))) < 1e-12


@pytest.mark.parametrize("alpha2, z, pole", [
    (0.0, -0.5 + 0j, True),
    (3 * math.pi / 4, -2.0 + 0j, True),
    # 3e-10 off the bound state -60.5 of tan a2 = -10: |1 - t + i root| is
    # 2.7e-11 against the cutoff 2.2e-11, while m2's own denominator, -cos a2
    # times it, is 2.7e-12 and would fall below a cutoff 1e-12 (1 + |m1|)
    (math.atan(-10.0) % math.pi, -60.5 + 3e-10j, False),
    # 3e-12 off the bound state -1/2 of alpha2 = 0: 3e-12 against 2e-12,
    # while |c + i sqrt(z)| = 2.1e-12 would fall below a cutoff
    # 1e-12 (1 + |c| + |sqrt z|) = 2.4e-12
    (0.0, -0.5 + 3e-12j, False),
], ids=["pole-alpha2-0", "pole-alpha2-3pi/4", "near-pole-tan-minus-10", "near-pole-alpha2-0"])
def test_p12_and_m2_share_one_pole_rule(alpha2, z, pole):
    # p12 and m2 decide each point alike, on a number and on an array, and
    # the halfline command writes a pole_validation record exactly for a pole
    scen = HalflineScenario(alpha2)
    for formula in (p12_halfline, m2_halfline):
        for arg in (z, np.array([1j, z])):
            if pole:
                with pytest.raises(SingularDenominator):
                    formula(arg, scen)
            else:
                formula(arg, scen)
    report = cli.halfline_command([alpha2], [z])
    names = [rec["name"] for rec in report["checks"]]
    assert [name.startswith("pole_validation") for name in names] == (
        [True] if pole else [False] * len(names))


# ---------------------------------------------------------------------------
# quadrature


def test_grid_validation():
    with pytest.raises(ValueError):
        QuadratureGrid(nodes=15)
    with pytest.raises(ValueError):
        QuadratureGrid(nodes=17)
    with pytest.raises(ValueError):
        QuadratureGrid(length=-1.0)
    with pytest.raises(ValueError):
        QuadratureGrid(residual_tol=0.0)
    g = QuadratureGrid(length=10.0, nodes=100)
    assert g.step == pytest.approx(0.1)
    pts = g.points()
    assert pts.shape == (101,) and pts[0] == 0.0 and pts[-1] == 10.0


def test_quadrature_closed_form_exponential():
    # (A - z) u = f with f = e^{-x}, z = -1 has the bounded Dirichlet
    # solution u = x e^{-x} / 2
    grid = QuadratureGrid()
    x = grid.points()
    u = dirichlet_resolvent_quadrature(np.exp(-x), -1.0 + 0j, grid)
    exact = 0.5 * x * np.exp(-x)
    assert float(np.max(np.abs(u - exact))) < 1e-7


def test_quadrature_decaying_tail_is_kept():
    # z far down the negative axis: sin(kx) grows like e^{3x}/2 and any
    # cancellation in the tail integral would blow up to order one
    grid = QuadratureGrid()
    x = grid.points()
    z = -9.0 + 0j
    a = float(x[grid.nodes // 2])
    t = np.clip(x / a, 0.0, 1.0)
    g = 256.0 * (t * (1.0 - t)) ** 4
    c = 256.0 / a ** 8
    inside = (x > 0.0) & (x < a)
    xx = np.where(inside, x, 0.0)
    g2 = np.where(
        inside,
        c * (12.0 * xx ** 2 * (a - xx) ** 4
             - 32.0 * xx ** 3 * (a - xx) ** 3
             + 12.0 * xx ** 4 * (a - xx) ** 2),
        0.0,
    )
    u = dirichlet_resolvent_quadrature(-g2 - z * g, z, grid)
    assert float(np.max(np.abs(u - g))) < 1e-6


def test_quadrature_input_validation():
    grid = QuadratureGrid(length=10.0, nodes=100)
    with pytest.raises(BadDimensions):
        dirichlet_resolvent_quadrature(np.zeros(50), 1j, grid)
    bad = np.zeros(101)
    bad[3] = np.nan
    with pytest.raises(BadDimensions):
        dirichlet_resolvent_quadrature(bad, 1j, grid)
    with pytest.raises(BranchCut):
        dirichlet_resolvent_quadrature(np.zeros(101), 4.0, grid)


def test_quadrature_overflow_guard():
    grid = QuadratureGrid(length=40.0, nodes=400)
    with pytest.raises(NumericalFailure):
        dirichlet_resolvent_quadrature(np.zeros(401), -400.0 + 0j, grid)


def test_quadrature_at_the_edge_of_the_overflow_guard():
    # k = 17.25 i puts Im k * L at 690 exactly, the largest the guard admits:
    # sin(kx) is read off the tables e^{ikx} and e^{-ikx} as their difference
    # over 2i, with |e^{-ikx}| up to e^690.  For f = e^{-x} and z = -kappa^2
    # the Dirichlet solution is
    # (e^{-x} - e^{-kappa x}) / (kappa^2 - 1)
    grid = QuadratureGrid(nodes=20000)
    x = grid.points()
    kappa = 17.25
    u = dirichlet_resolvent_quadrature(np.exp(-x), -kappa ** 2 + 0j, grid)
    exact = (np.exp(-x) - np.exp(-kappa * x)) / (kappa ** 2 - 1.0)
    assert float(np.max(np.abs(u - exact))) < 1e-9
    with pytest.raises(NumericalFailure):
        dirichlet_resolvent_quadrature(np.exp(-x), -17.3 ** 2 + 0j, grid)


@pytest.mark.parametrize("count", [1, 17, 64, 65, 129, 4001])
@pytest.mark.parametrize("growth", [690.0, -690.0])
def test_exp_table_matches_exp_up_to_the_guard(count, growth):
    # e^{a j}, j < count, from a coarse and a fine table.  |e^{a j}| reaches
    # e^{+-690} at the last kept j, as e^{-ikx} does at the edge of the
    # quadrature's guard, while the surplus of the last row, up to 63 steps
    # further, may leave the float range: no error is raised for it, and
    # each kept entry is exp's to the rounding of its argument
    steps = max(count - 1, 1)
    for a in (growth / steps + 0.3j, (growth + 300j) / steps):
        with np.errstate(all="raise"):
            table = halfline._exp_table(a, count)
        exact = np.exp(a * np.arange(count))
        bound = 8.0 * EPS * (1.0 + abs(a) * count)
        assert float(np.max(np.abs(table - exact) / np.abs(exact))) <= bound, a


@given(
    n=st.one_of(st.integers(8, 128).map(lambda half: 2 * half + 1),
                st.just(QuadratureGrid().nodes + 1)),
    dx=st.floats(1e-6, 10.0),
    seed=st.integers(0, 2 ** 32 - 1),
    zero_share=st.sampled_from((0.0, 0.25, 1.0)),
)
def test_cumulative_matches_scipy_bit_for_bit(n, dx, seed, zero_share):
    # scipy.integrate is the oracle here and is imported nowhere else
    from scipy.integrate import cumulative_simpson

    rng = np.random.default_rng(seed)

    def part():
        # magnitudes from 1e-300 to 1e300 in both signs, plus signed zeros
        values = rng.choice((-1.0, 1.0), n) * 10.0 ** rng.uniform(-300.0, 300.0, n)
        zeros = rng.random(n) < zero_share
        values[zeros] = rng.choice((-0.0, 0.0), int(zeros.sum()))
        return values

    # set the parts in place: `re + 1j * im` could flip the sign of a zero
    y = np.empty(n, dtype=np.complex128)
    y.real, y.imag = part(), part()
    expected = np.empty(n, dtype=np.complex128)
    expected.real = cumulative_simpson(y.real, dx=dx, initial=0.0)
    expected.imag = cumulative_simpson(y.imag, dx=dx, initial=0.0)
    got = halfline._cumulative(y, dx)
    assert got.tobytes() == expected.tobytes()
    reversed_view = halfline._cumulative(y[::-1], dx)
    assert reversed_view.tobytes() == halfline._cumulative(y[::-1].copy(), dx).tobytes()


@given(
    rows=st.integers(1, 3),
    n=st.integers(1, 64).map(lambda half: 2 * half + 1),
    seed=st.integers(0, 2 ** 32 - 1),
    zero_share=st.sampled_from((0.0, 0.5, 1.0)),
)
def test_stacked_cumulative_equals_the_rows_bit_for_bit(rows, n, seed, zero_share):
    # each row of a stack is integrated along the last axis as its own 1-D
    # call does it, signs of zero sums included; the quadrature stacks the
    # two running integrals this way
    rng = np.random.default_rng(seed)
    y = np.empty((rows, n), dtype=np.complex128)
    for part in (y.real, y.imag):
        part[...] = rng.standard_normal((rows, n)) * 10.0 ** rng.uniform(-8.0, 8.0, (rows, n))
        zeros = rng.random((rows, n)) < zero_share
        part[zeros] = rng.choice((-0.0, 0.0), int(zeros.sum()))
    stacked = halfline._cumulative(y, 0.37)
    assert stacked.shape == y.shape
    for row, expected in zip(stacked, y):
        assert row.tobytes() == halfline._cumulative(expected, 0.37).tobytes()
    # a stack of reversed rows reads as its contiguous copy does
    assert (halfline._cumulative(y[:, ::-1], 0.37).tobytes()
            == halfline._cumulative(y[:, ::-1].copy(), 0.37).tobytes())


def test_cumulative_rejects_an_even_number_of_samples():
    # every grid, and every support cut of one, has an odd number of points
    with pytest.raises(ValueError, match="odd number of samples"):
        halfline._cumulative(np.ones(16, dtype=np.complex128), 0.1)


def _full_grid_quadrature(f, z, grid):
    """u of dirichlet_resolvent_quadrature with both running integrals taken
    over the whole grid, without the support trim and the gate."""
    k, h, n = sqrt_upper(z), grid.step, grid.nodes + 1
    e = halfline._exp_table(1j * k * h, n)
    s = (e - halfline._exp_table(-1j * k * h, n)) / 2j
    c1 = halfline._cumulative(s * f, h)
    c2 = halfline._cumulative((e * f)[::-1], h)[::-1]
    u = (e * c1 + s * c2) / k
    u[0] = 0.0
    return u


@given(last=st.integers(-1, 100), seed=st.integers(0, 2 ** 32 - 1),
       z=st.sampled_from(DEFAULT_Z))
@example(last=-1, seed=0, z=1j)    # f = 0
@example(last=100, seed=0, z=1j)   # f nonzero at the last point
@example(last=99, seed=0, z=-9.0)  # a zero tail of one point
def test_support_trimmed_quadrature_equals_the_full_grid(last, seed, z):
    # f is rough on [0, x_last] (zeros inside included) and zero after it,
    # with zeros of both signs, so that the zero tail takes every length and
    # parity; residual_tol = 1e300 lets rough data through the gate
    grid = QuadratureGrid(length=10.0, nodes=100, residual_tol=1e300)
    rng = np.random.default_rng(seed)
    f = np.empty(101, dtype=np.complex128)
    f.real = rng.choice((-0.0, 0.0), 101)
    f.imag = rng.choice((-0.0, 0.0), 101)
    keep = rng.random(last + 1) < 0.8
    keep[-1:] = True
    f[:last + 1] = (rng.standard_normal(last + 1) + 1j * rng.standard_normal(last + 1)) * keep
    u = dirichlet_resolvent_quadrature(f, z, grid)
    assert u.tobytes() == _full_grid_quadrature(f, z, grid).tobytes()


def test_quadrature_of_the_bump_equals_the_full_grid():
    grid = QuadratureGrid()
    g, g2 = grid.bump
    for z in DEFAULT_Z:
        f = -g2 - z * g
        u = dirichlet_resolvent_quadrature(f, z, grid)
        assert u.tobytes() == _full_grid_quadrature(f, z, grid).tobytes(), z


def _roundtrip_via_the_public_solve(zs):
    """quadrature_roundtrip's value from dirichlet_resolvent_quadrature:
    max over z of max |u - g| on the whole grid."""
    g, g2 = QuadratureGrid().bump
    out = 0.0
    for z in zs:
        u = dirichlet_resolvent_quadrature(-g2 - z * g, z)
        out = max(out, float(np.max(np.abs(u - g))))
    return out


# the halfline workload's box of z, |Re z| <= 4 and 0.1 <= |Im z| <= 5
_WORKLOAD_Z = st.builds(
    complex, st.floats(-4.0, 4.0),
    st.floats(0.1, 5.0).flatmap(lambda im: st.sampled_from((im, -im))))


@given(zs=st.lists(_WORKLOAD_Z, min_size=1, max_size=8))
@example(zs=list(DEFAULT_Z))  # its real point -9 takes the zero-sign branch
def test_roundtrip_equals_the_public_solve_bit_for_bit(zs):
    # the round trip reads |u - g| only where the bump g is nonzero and |u|
    # beyond it; its value is the whole-grid maximum exactly
    got = quadrature_roundtrip(zs)
    assert got.hex() == _roundtrip_via_the_public_solve(zs).hex()


def test_roundtrip_reads_the_solution_beyond_the_bump(monkeypatch):
    # on real data the largest |u - g| lies on the bump's support; where g
    # vanishes the round trip reads |u| without subtracting g, so an error
    # there still counts
    g, _ = QuadratureGrid().bump
    u = g.astype(np.complex128)
    u[3000] = 0.5j
    monkeypatch.setattr(halfline, "dirichlet_resolvent_quadrature", lambda f, z, grid: u)
    assert quadrature_roundtrip([1j]) == 0.5


@pytest.mark.parametrize("zs, error", [
    ([1j, -25.0 + 0j, -300.0 + 0j], GridTooCoarse),
    ([1j, -300.0 + 0j, -25.0 + 0j], NumericalFailure),
])
def test_roundtrip_raises_at_the_first_offending_z(zs, error):
    # -25 is beyond what DEFAULT_GRID resolves, and sin(kx) overflows at
    # -300: the round trip raises the class and message of the earlier one
    g, g2 = QuadratureGrid().bump
    z = next(z for z in zs if z.imag == 0.0)
    with pytest.raises(error) as expected:
        dirichlet_resolvent_quadrature(-g2 - z * g, z)
    with pytest.raises(error) as raised:
        quadrature_roundtrip(zs)
    assert str(raised.value) == str(expected.value)


def test_bump_is_computed_once_per_grid_and_read_only():
    grid = QuadratureGrid(length=10.0, nodes=100)
    g, g2 = grid.bump
    assert grid.bump[0] is g and grid.bump[1] is g2
    x = grid.points()
    expected = halfline._bump_with_second_derivative(x, float(x[50]))
    assert g.tobytes() == expected[0].tobytes() and g2.tobytes() == expected[1].tobytes()
    for array in (g, g2):
        with pytest.raises(ValueError):
            array[1] = 0.0


_OFF_AXIS_Z = st.builds(complex, st.floats(-30.0, 30.0),
                       st.floats(0.01, 30.0) | st.floats(-30.0, -0.01))


def _scalar_angle_law(monkeypatch, zs, alphas):
    """verify_halfline's angle-form call on the grid: its factors and what
    the law maps m1(z) to, read off a wrapper of halfline._angle_form."""
    calls = []

    def spy(m, factors):
        out = real(m, factors)
        calls.append((factors, out))
        return out

    real = halfline._angle_form
    monkeypatch.setattr(halfline, "_angle_form", spy)
    verify_halfline(tuple(zs), tuple(alphas))
    monkeypatch.undo()
    (call,) = calls
    return call


@given(st.lists(st.floats(-3.0, 3.0).filter(
           lambda a: abs(math.remainder(a - math.pi / 2.0, math.pi)) > 1e-8),
           min_size=1, max_size=8),
       st.lists(st.sampled_from(DEFAULT_Z) | _OFF_AXIS_Z, max_size=8))
@example(alphas=[0.3, 2.0], zs=[])          # an empty z grid
@example(alphas=[0.3], zs=list(DEFAULT_Z))  # one alpha2
@example(alphas=list(DEFAULT_ALPHA2), zs=list(DEFAULT_Z))
def test_verify_scalar_factors_map_as_one_by_one_angles(alphas, zs):
    # the scalar factors of the alpha2 column map each (alpha2, z) as the
    # angle-form law with the 1x1 angle operator of hermitian_eig does, to
    # the bit
    with pytest.MonkeyPatch.context() as monkeypatch:
        factors, grid = _scalar_angle_law(monkeypatch, zs, alphas)
    assert all(f.shape == (len(alphas), 1, 1, 1) for f in factors)
    assert grid.shape == (len(alphas), len(zs), 1, 1)
    m1 = m1_halfline(np.array(zs, dtype=np.complex128)).reshape(-1, 1, 1)
    line = Subspace(basis=np.eye(1, dtype=np.complex128))
    for a, mapped in zip(alphas, grid):
        angle = AngleOperator(hermitian_eig(np.array([[a]], dtype=np.complex128)), line)
        assert mapped.tobytes() == lft_m1_to_m2_angle(m1, angle).tobytes()


def test_verify_scalar_factors_refuse_a_singular_denominator(monkeypatch):
    # alpha = 0 against m1 = 0 makes sin a - cos a m1 exactly 0: the stacked
    # factors raise the message of the law with that angle alone
    factors, _ = _scalar_angle_law(monkeypatch, [1j], [0.3, 0.0])
    m1 = np.array([[[1j]], [[0.0]]])
    line = Subspace(basis=np.eye(1, dtype=np.complex128))
    message = "angle-form denominator is singular"
    with pytest.raises(SingularDenominator, match=message):
        lft_m1_to_m2_angle(m1, AngleOperator(hermitian_eig(np.zeros((1, 1))), line))
    with pytest.raises(SingularDenominator, match=message):
        halfline._angle_form(m1, factors)
    halfline._angle_form(m1, tuple(f[:1] for f in factors))


def test_grid_too_coarse_is_reported():
    coarse = QuadratureGrid(length=40.0, nodes=16)
    x = coarse.points()
    f = np.exp(-((x - 10.0) ** 2))
    with pytest.raises(GridTooCoarse):
        dirichlet_resolvent_quadrature(f, 1j, coarse)
    # same data on the default grid passes its self-check
    fine = QuadratureGrid()
    xf = fine.points()
    dirichlet_resolvent_quadrature(np.exp(-((xf - 10.0) ** 2)), 1j, fine)


# ---------------------------------------------------------------------------
# the assembled verification


def test_verify_halfline_default_grid():
    res = verify_halfline()
    for key, value in res.items():
        assert value < 1e-10, (key, value)
    assert quadrature_roundtrip() < 1e-6


# halfline workload op 931 of seed 110: alpha2 is 6.2e-7 from pi/2, so
# |tan a2| = 1.6e6, whose one ulp is 2^-32 and exceeds the report tolerance
# 1e-10 as an absolute residual
def test_p_records_are_relative_to_tan_a2_near_pi_over_2():
    zs = [0.7329020198748104 - 0.42192310768367j, -3.072312125382016 - 0.22754828249327613j,
          -2.724555458484195 + 0.6137772601800328j, 2.8027496646809427 - 0.44555237844421763j,
          -2.043910287614378 - 1.4381459386807007j, -3.5041287182097394 - 1.412097943679314j,
          2.188575788977804 - 0.5138091549303914j, -3.697176978893201 - 0.6153542733380237j]
    report = cli.halfline_command([1.5707969421060015], zs)
    assert report["summary"] == "pass", report["checks"]
    records = {rec["name"]: rec["max_residual"] for rec in report["checks"]}
    assert records["p_inverse_via_m"] < 1e-15
    assert records["p_at_i_inverse"] < 1e-15


def test_verify_halfline_on_an_empty_z_grid():
    # the laws run on the empty stack of m1 values and return an empty stack
    res = verify_halfline(z_values=())
    assert all(value == 0.0 for key, value in res.items()
               if key not in ("p_at_i_inverse", "angle_recovery")), res
    res = verify_halfline(z_values=(), alpha2_values=())
    assert set(res.values()) == {0.0}
    assert quadrature_roundtrip(()) == 0.0


def test_verify_halfline_without_quadrature(monkeypatch):
    # the closed-form laws run no quadrature: quadrature_roundtrip is the
    # one caller of the Green-kernel solve, under its own error boundary
    def refuse(*args, **kwargs):
        raise AssertionError("verify_halfline ran the quadrature")

    monkeypatch.setattr(halfline, "dirichlet_resolvent_quadrature", refuse)
    res = verify_halfline()
    assert "quadrature_roundtrip" not in res
    assert res["lft_phase_form"] < 1e-10


def test_verify_halfline_angle_recovery_mod_pi():
    # angles beyond (-pi/2, pi/2] are recovered modulo pi
    res = verify_halfline(z_values=(1j,), alpha2_values=(5 * math.pi / 8,))
    assert res["angle_recovery"] < 1e-12


# ---------------------------------------------------------------------------
# n = 2: boundary matrices that do not commute (support's matrix closed forms)


def _boundary_pair(seed):
    """Two Hermitian 2x2 boundary matrices with commutator norm above 0.1."""
    rng = np.random.default_rng(seed)
    a1, a2 = (0.6 * support.random_hermitian(rng, 2) for _ in range(2))
    assert np.linalg.norm(a1 @ a2 - a2 @ a1) > 0.1
    return a1, a2


def _angle_of(p_i):
    """The pair's angle read off P(i) = i e^{-i alpha} cos(alpha):
    1 + 2i P(i) = -e^{-2i alpha}, mapped through the branch (-pi/2, pi/2]."""
    w = unitary_eig(np.eye(2) + 2j * p_i)
    alpha = [support.branch_angle(lam) for lam in w.eigenvalues]
    return AngleOperator(SpectralDecomposition(alpha, w.eigenvectors),
                         Subspace(basis=np.eye(2, dtype=np.complex128)))


@pytest.mark.parametrize("seed", [1, 4, 7])
def test_angle_form_law_maps_m_a1_to_m_a2_for_non_commuting_boundary_matrices(seed):
    # the operator-valued law on the densely defined pair: the factor order
    # of the law and of the Cayley product, which no scalar example sees
    a1, a2 = _boundary_pair(seed)
    angle = _angle_of(support.matrix_p_at_i(a1, a2))
    m_a1 = np.stack([support.matrix_m_halfline(z, a1) for z in DEFAULT_Z])
    m_a2 = np.stack([support.matrix_m_halfline(z, a2) for z in DEFAULT_Z])
    mapped = lft_m1_to_m2_angle(m_a1, angle)
    for got, want in zip(mapped, m_a2):
        assert np.linalg.norm(got - want) <= 1e-13 * (1.0 + np.linalg.norm(want))
    # the other order of the Cayley product, W1^{-1} W2, gives another angle
    # that misses: the example tells the two orders apart
    w1, w2 = -expm(-2j * a1), -expm(-2j * a2)
    wrong = _angle_of(0.5j * (np.eye(2) - support.inv22(w1) @ w2))
    assert np.max(np.linalg.norm(lft_m1_to_m2_angle(m_a1, wrong) - m_a2, axis=(1, 2))) > 1e-2


@pytest.mark.parametrize("seed", [1, 4])
def test_matrix_p12_against_dirichlet_is_p12_on_each_boundary_eigenvalue(seed):
    # A1 = (pi/2) I is Dirichlet (M_A1 = m1 I), so the pair's P(z) is the
    # scalar p12_halfline of each eigenvalue of A2 in A2's eigenframe
    _, a2 = _boundary_pair(seed)
    dirichlet = (math.pi / 2) * np.eye(2)
    w, v = np.linalg.eigh(a2)
    for z in DEFAULT_Z:
        assert np.linalg.norm(support.matrix_m_halfline(z, dirichlet)
                              - m1_halfline(z) * np.eye(2)) < 1e-14 * (1.0 + abs(m1_halfline(z)))
        scalar = [p12_halfline(z, HalflineScenario(float(a))) for a in w]
        want = (v * scalar) @ v.conj().T
        assert np.linalg.norm(support.matrix_p12_halfline(z, dirichlet, a2) - want) < 1e-13


@pytest.mark.parametrize("seed", [1, 4, 7])
def test_bound_states_of_the_second_boundary_matrix_are_poles_of_the_law(seed):
    # at a bound state of A2, sin A2 - cos A2 m1(z) is singular, and so is the
    # denominator of the law that maps M_A1 there
    a1, a2 = _boundary_pair(seed)
    angle = _angle_of(support.matrix_p_at_i(a1, a2))
    states = support.matrix_bound_states(a2)
    assert states
    for z in states:
        cos_a, sin_a = support.cos_sin(a2)
        sv = np.linalg.svd(sin_a - cos_a * m1_halfline(z), compute_uv=False)
        assert sv[-1] <= 1e-14 * sv[0]
        with pytest.raises(SingularDenominator):
            lft_m1_to_m2_angle(support.matrix_m_halfline(z, a1), angle)
