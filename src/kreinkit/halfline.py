"""Half-line Laplacian pair in closed form, plus a quadrature cross-check.

The reference extension is -d^2/dx^2 on [0, inf) with the Dirichlet boundary
condition u(0) = 0; the second extension carries the Robin condition

    u'(0) + c u(0) = 0,  c = (1 - tan a2)/sqrt(2),

that is sqrt(2) cos(a2) u'(0) + (cos a2 - sin a2) u(0) = 0, parametrized by
a single angle a2; a2 = pi/2 (|c| -> inf) gives back the Dirichlet condition.
Deficiency indices are (1, 1), so every operator-valued object of the general
theory collapses to a scalar function of z with explicit formulas:

    m1(z)  = 1 + i sqrt(2 z)                    (Dirichlet Weyl function, shifted frame)
    m2(z)  = (cos a2 + sin a2 * m1) / (sin a2 - cos a2 * m1)
    p12(z) = -1 / (1 - tan a2 + i sqrt(2 z))    (compressed resolvent difference)

with the square root taken in the upper half plane (cut along [0, inf)).
The coefficient -1/(c + i sqrt(z)) of the rank-one resolvent correction is
sqrt(2) p12(z): imposing the Robin condition on the kernel
G_D + beta e^{i sqrt(z) x} e^{i sqrt(z) y}, G_D the Dirichlet kernel below,
gives beta = -1/(c + i sqrt(z)).  For c > 0 the second extension has the
bound state e^{-c x} at z = -c^2, where 1 - tan a2 + i sqrt(2 z) vanishes.
That is p12's denominator, and m2's is -cos a2 times it, so one pole rule
(_pole_checked_root) refuses both there.

The module also solves (A_D - z) u = f numerically through the Dirichlet
Green kernel sin(sqrt(z) min(x,y)) e^{i sqrt(z) max(x,y)} / sqrt(z) on a
uniform grid, which gives the scalar formulas an independent, discretization-
based check.  The tail integral is accumulated from the right end toward the
origin: computing it as (total - running integral) would cancel away the
exponentially small tail that the growing factor sin(sqrt(z) x) then
amplifies back to order one.  Both integrals, and sin(sqrt(z) x) itself,
are read only where f is nonzero (up to the end of its last Simpson
window); beyond it the solution is e^{i sqrt(z) x} times a constant.

verify_halfline cross-checks the closed forms against the general
fractional-linear laws; quadrature_roundtrip checks the Green-kernel
solve against a closed-form bump.  They fail independently of each other.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BadDimensions,
    BranchCut,
    GridTooCoarse,
    NotRelativelyPrime,
    NumericalFailure,
    SingularDenominator,
)
from .krein import _angle_form, herglotz_lower_bound, lft_m1_to_m2

SQRT_HALF = math.sqrt(0.5)
BRANCH_CUT_TOL = 1e-12  # how close to [0, inf) a spectral parameter may sit

DEFAULT_ALPHA2 = (
    0.0,
    math.pi / 8,
    math.pi / 4,
    3 * math.pi / 8,
    5 * math.pi / 8,
    3 * math.pi / 4,
    7 * math.pi / 8,
    15 * math.pi / 16,
)

DEFAULT_Z = (
    1j,
    2j,
    -3j,
    1 + 1j,
    -1 + 1j,
    -2 - 1j,
    0.5 + 0.5j,
    -9.0 + 0j,
)


@dataclass(frozen=True)
class HalflineScenario:
    """Second-extension boundary angle a2 and the derived Robin constant
    c = (1 - tan a2) / sqrt(2).  a2 within 1e-8 of pi/2 (mod pi) is
    rejected: there the pair degenerates and every formula below loses its
    denominator.
    """

    alpha2: float

    def __post_init__(self):
        a = float(self.alpha2)
        if not math.isfinite(a):
            raise ValueError("alpha2 must be finite")
        if abs(math.remainder(a - math.pi / 2.0, math.pi)) <= 1e-8:
            raise NotRelativelyPrime("alpha2 is (numerically) pi/2 mod pi")
        object.__setattr__(self, "alpha2", a)

    @property
    def c(self) -> float:
        return (1.0 - math.tan(self.alpha2)) * SQRT_HALF


def sqrt_upper(z):
    """Square root with positive imaginary part, cut along [0, inf).

    z is a number or a numpy array of them, which gives an array of roots
    of its shape.  Points within BRANCH_CUT_TOL of the cut (z nearly real
    with Re z >= -BRANCH_CUT_TOL) are rejected: both the branch and the
    decay of e^{i sqrt(z) x} degenerate there.  Strictly negative real z is
    fine and gives i sqrt(|z|).  Every root is cmath.sqrt's: np.sqrt rounds
    some of them differently.
    """
    if isinstance(z, np.ndarray):
        roots = [sqrt_upper(v) for v in z.astype(np.complex128).ravel().tolist()]
        return np.array(roots, dtype=np.complex128).reshape(z.shape)
    z = complex(z)
    if abs(z.imag) <= BRANCH_CUT_TOL and z.real >= -BRANCH_CUT_TOL:
        raise BranchCut(f"z = {z:.6g} lies on the [0, inf) branch cut")
    w = cmath.sqrt(z)
    if w.imag < 0.0:
        w = -w
    return w


def _assemble(re, im):
    """The complex number, or array, with these parts exactly."""
    if isinstance(re, np.ndarray):
        out = np.empty(re.shape, dtype=np.complex128)
        out.real, out.imag = re, im
        return out
    return complex(re, im)


# m1_halfline, m2_halfline and p12_halfline take a number z or a numpy array
# of them.  One expression serves both: Python's complex arithmetic for a
# number, numpy's for an array, whose division can round differently in the
# last bit.  verify_halfline passes the angle's constants as columns, which
# broadcast against an array of z.


def m1_halfline(z):
    """Weyl function of the reference (Dirichlet) extension: 1 + i sqrt(2z).

    Fixed point m1(i) = i, matching the finite-model normalization."""
    return 1.0 + 1j * sqrt_upper(2.0 * z)


def _pole_rule(z, t):
    """root = sqrt_upper(2z), den = 1 - t + i root for tan a2 = t (the
    denominator of p12 and, times -cos a2, of m2) and the one pole rule of
    the pair, the mask |den| <= 1e-12 (1 + |t| + |root|)."""
    root = sqrt_upper(2.0 * z)
    den = 1.0 - t + 1j * root
    return root, den, abs(den) <= 1e-12 * (1.0 + abs(t) + abs(root))


def _pole_error(z) -> SingularDenominator:
    return SingularDenominator(f"z = {complex(z):.6g} is a pole of the resolvent difference")


def _pole_checked_root(z, t):
    """root and den of _pole_rule, or SingularDenominator where the rule
    finds a pole, naming z, or for an array the first such point."""
    root, den, poles = _pole_rule(z, t)
    if isinstance(poles, np.ndarray):
        if not poles.any():
            return root, den
        z = np.broadcast_to(z, poles.shape)[poles][0]
    elif not poles:
        return root, den
    raise _pole_error(z)


def m2_halfline(z, scenario: HalflineScenario):
    """Weyl function of the angle-a2 extension via the scalar angle law.

    Its poles are p12's, refused by the same rule."""
    a2 = scenario.alpha2
    root, _ = _pole_checked_root(z, math.tan(a2))
    return _m2_from_m1(1.0 + 1j * root, math.cos(a2), math.sin(a2))


def _m2_from_m1(m1, ca, sa):
    """(ca + sa m1) / (sa - ca m1) for cos a2 = ca and sin a2 = sa.  The
    imaginary part is Im m1 / |sa - ca m1|^2, exact for a map of
    determinant 1; read off the quotient it cancels away for |z| >= 1e34."""
    den = sa - ca * m1
    size = abs(den)
    return _assemble(((ca + sa * m1) / den).real, m1.imag / size / size)


def p12_halfline(z, scenario: HalflineScenario):
    """Compressed resolvent difference of the pair: -1/(1 - tan a2 + i sqrt(2z))."""
    _, den = _pole_checked_root(z, math.tan(scenario.alpha2))
    return -1.0 / den


@dataclass(frozen=True)
class QuadratureGrid:
    """Uniform grid on [0, length] with `nodes` subintervals (nodes+1 points).

    The quadrature integrates on it by the composite Simpson rule, which
    pushes the Green-kernel round trip below 1e-6 on the default grid.
    residual_tol bounds the relative second-difference residual of the
    returned solution."""

    length: float = 40.0
    nodes: int = 4000
    residual_tol: float = 1e-4

    def __post_init__(self):
        if not (math.isfinite(self.length) and self.length > 0.0):
            raise ValueError("length must be positive and finite")
        if int(self.nodes) != self.nodes or self.nodes < 16 or self.nodes % 2:
            raise ValueError("nodes must be an even integer >= 16")
        object.__setattr__(self, "nodes", int(self.nodes))
        if not (math.isfinite(self.residual_tol) and self.residual_tol > 0.0):
            raise ValueError("residual_tol must be positive")

    @property
    def step(self) -> float:
        return self.length / self.nodes

    def points(self) -> np.ndarray:
        return np.linspace(0.0, self.length, self.nodes + 1)

    @cached_property
    def bump(self) -> tuple[np.ndarray, np.ndarray]:
        """The solution g of quadrature_roundtrip on these points, the C^3
        bump on [0, a] with a the middle point, and g''; computed once per
        grid and read-only."""
        x = self.points()
        g, g2 = _bump_with_second_derivative(x, float(x[self.nodes // 2]))
        g.flags.writeable = False
        g2.flags.writeable = False
        return g, g2


def _parts(y: np.ndarray) -> np.ndarray:
    """Contiguous (..., n, 2) real array of complex samples: the real and
    imaginary parts as the last axis."""
    y = np.ascontiguousarray(y, dtype=np.complex128)
    return y.view(np.float64).reshape(*y.shape, 2)


def _cumulative(y: np.ndarray, dx: float) -> np.ndarray:
    """Running integral of complex samples y on a uniform grid of an odd
    number of points, from 0, by the composite Simpson rule, along the last
    axis: each row of a stack is integrated as its own 1-D call would be,
    bit for bit.

    The rule is that of scipy.integrate.cumulative_simpson (initial=0),
    applied to the real and imaginary parts in scipy's operation order, so
    the result is bit-identical.  The products with the real factors 5/4,
    1/4, 2 and dx/3 are taken on the two parts as the columns of one real
    array: a complex product with a real factor rounds the same but can flip
    the sign of a zero.  The sums and differences of the windows, and the
    running sum, add the steps as complex numbers, which adds each part on
    its own.
    """
    y = np.asarray(y, dtype=np.complex128)
    n = y.shape[-1]
    if n % 2 == 0:
        raise ValueError(f"Simpson's rule needs an odd number of samples, got {n}")
    # even steps from the forward windows (f0, f1, f2) = (y[2j], y[2j+1],
    # y[2j+2]), odd steps from the same windows read backwards; both read
    # 5 f0/4 and f2/4 off the even samples and 2 f1 off the odd ones, whose
    # contiguous copies are computed on once
    even, odd = _parts(y[..., ::2]), _parts(y[..., 1::2])
    five, quarter, twice = (a.view(np.complex128)[..., 0]
                            for a in (5 * even / 4, even / 4, 2 * odd))
    # each window is summed where its step is stored, and every step is
    # scaled by dx/3 in one pass over the parts
    steps = np.empty(y.shape[:-1] + (n - 1,), dtype=np.complex128)
    for out, near, far in ((steps[..., ::2], five[..., :-1], quarter[..., 1:]),
                           (steps[..., 1::2], five[..., 1:], quarter[..., :-1])):
        np.add(near, twice, out=out)
        out -= far
    scaled = steps.view(np.float64)
    scaled *= dx / 3
    out = np.zeros(y.shape, dtype=np.complex128)
    np.cumsum(steps, axis=-1, out=out[..., 1:])
    out += 0.0  # scipy adds `initial` to the sums, which turns -0.0 into 0.0
    return out


def _exp_table(a: complex, count: int) -> np.ndarray:
    """e^{a j} for j = 0..count-1, as the outer product of a coarse table
    e^{a block q} and a fine table e^{a r} (j = block q + r, block = 64):
    about block + count/block complex exponentials instead of count.  The
    last row runs past count; its surplus entries may overflow or underflow
    and are dropped."""
    block = 64
    fine = np.exp(a * np.arange(min(block, count)))
    coarse = np.exp((a * block) * np.arange(-(-count // block)))
    with np.errstate(all="ignore"):
        return np.outer(coarse, fine).ravel()[:count]


def _support_end(size: np.ndarray) -> int:
    """K + 1 for the even index K that ends the Simpson window of the last
    nonzero of size (the |f| samples on a grid of an odd number of points),
    or 0 when f vanishes.  Beyond K every window holds zeros of f."""
    nonzero = np.flatnonzero(size != 0.0)
    if not nonzero.size:
        return 0
    return min(2 * (int(nonzero[-1]) // 2) + 3, size.shape[0])


# The grid of quadrature_roundtrip and the default of dirichlet_resolvent_quadrature:
# one instance, so that its bump is computed once per process.
DEFAULT_GRID = QuadratureGrid()


def dirichlet_resolvent_quadrature(f_samples, z, grid: QuadratureGrid = DEFAULT_GRID) -> np.ndarray:
    """Apply the Dirichlet resolvent (A_D - z)^{-1} to sampled data.

    u(x) = [e^{ikx} c1(x) + sin(kx) c2(x)] / k,
    c1(x) = int_0^x sin(ky) f(y) dy,   c2(x) = int_x^L e^{iky} f(y) dy,

    with k = sqrt_upper(z).  f_samples must hold f on grid.points().  The
    exponentials e^{ikx} and e^{-ikx} come from _exp_table, and
    sin(kx) = (e^{ikx} - e^{-ikx})/(2i) is read off them; Im k * length > 690
    raises NumericalFailure, which keeps |e^{-ikx}| <= e^690 finite.

    Both integrals run over the support of f only: beyond the even index K
    that ends the Simpson window of f's last nonzero sample every window
    holds zeros of f, so c2 = 0 and c1 = c1[K] there, exactly as the sums
    over the whole grid give them.  So e^{-ikx} and sin(kx) are read on
    [0, x_K] only, and u = e^{ikx} c1[K] / k beyond it; where a part of
    e^{ikx} c1[K] is zero, the sign that + sin(kx) * 0 gives it over the
    whole grid is kept.  The result is bit-identical to the sums over the
    whole grid.  It is validated in place by the three-point second
    difference of the defining equation -u'' - z u = f; GridTooCoarse
    reports a violation.

    Both running integrals come from one _cumulative call on the (2, K+1)
    stack of sin(kx) f and the reversed e^{ikx} f.
    """
    f = np.asarray(f_samples, dtype=np.complex128)
    n = grid.nodes + 1
    if f.ndim != 1 or f.shape[0] != n:
        raise BadDimensions(
            f"expected {n} samples on the grid, got shape {f.shape}"
        )
    size = np.abs(f)
    f_max = float(np.max(size))
    if not math.isfinite(f_max):
        raise BadDimensions("f samples must be finite")
    z = complex(z)
    k = sqrt_upper(z)
    if k.imag * grid.length > 690.0:
        raise NumericalFailure(
            "sin(kx) overflows on this grid; shorten the interval or move z"
        )
    h = grid.step
    end = _support_end(size)  # K + 1
    e = _exp_table(1j * k * h, n)
    u = np.empty(n, dtype=np.complex128)
    c1_end = np.complex128(0.0)
    if end:
        head = e[:end]
        s = (head - _exp_table(-1j * k * h, end)) / 2j
        rows = np.empty((2, end), dtype=np.complex128)
        np.multiply(s, f[:end], out=rows[0])
        np.multiply(head, f[:end], out=rows[1, ::-1])
        c1, c2 = _cumulative(rows, h)
        # (e c1 + s c2) / k, formed in place in u
        body = np.multiply(head, c1, out=u[:end])
        body += s * c2[::-1]
        body /= k
        c1_end = c1[-1]
    tail = np.multiply(e[end:], c1_end, out=u[end:])
    if not tail.view(np.float64).all():
        # the sign of a zero part comes from + sin(kx) * c2 with c2 = 0
        s = (e[end:] - _exp_table(-1j * k * h, n)[end:]) / 2j
        tail += s * 0j
    tail /= k
    u[0] = 0.0
    u_max = float(np.max(np.abs(u)))
    if not math.isfinite(u_max):
        raise NumericalFailure("quadrature produced non-finite values")
    # |-u'' - z u - f| as |u'' + z u + f|, which rounds to the same value;
    # u'' is divided by h^2 part by part, each part correctly rounded
    second = u[:-2] - 2.0 * u[1:-1]
    second += u[2:]
    parts = second.view(np.float64)
    parts /= h * h
    second += z * u[1:-1]
    second += f[1:-1]
    residual = np.abs(second)
    scale = 1.0 + f_max + abs(z) * u_max
    worst = float(np.max(residual)) if residual.size else 0.0
    if worst > grid.residual_tol * scale:
        raise GridTooCoarse(
            f"second-difference residual {worst:.3e} exceeds "
            f"{grid.residual_tol:.1e} * {scale:.3e}"
        )
    return u


def _bump_with_second_derivative(x: np.ndarray, a: float):
    """C^3 bump 256 (t(1-t))^4 on [0, a] (t = x/a), zero outside, peak 1,
    together with its closed-form second derivative."""
    c = 256.0 / a ** 8
    inside = (x > 0.0) & (x < a)
    xx = np.where(inside, x, 0.0)
    g = np.where(inside, c * xx ** 4 * (a - xx) ** 4, 0.0)
    g2 = np.where(
        inside,
        c * (12.0 * xx ** 2 * (a - xx) ** 4
             - 32.0 * xx ** 3 * (a - xx) ** 3
             + 12.0 * xx ** 4 * (a - xx) ** 2),
        0.0,
    )
    return g, g2


def _wrap_mod_pi(x: float) -> float:
    return x - math.pi * round(x / math.pi)


def verify_halfline(z_values=DEFAULT_Z, alpha2_values=DEFAULT_ALPHA2) -> dict[str, float]:
    """Cross-check every scalar formula against the general machinery.

    The checks are array expressions over the (alpha2, z) grid.  m1(z),
    m2(z) and p12(z) come from one pole-checked root per z, by the code of
    m1_halfline, m2_halfline and p12_halfline with one row per angle, and
    the Herglotz bound is evaluated once per z.  Each fractional-linear law
    runs once on the whole grid against the stack of 1x1 values m1(z) over
    z: the coefficient law on the stack of p12(i) over alpha2, the
    angle-form law on the scalar factors cos b, sin b, e^{-ib}, e^{ib} of
    the alpha2 column b, which map each (alpha2, z) bit for bit as the law
    with a 1x1 angle operator does.  Each law's inverse decides every
    (alpha2, z) by its own denominator.

    Returns max residuals over the (alpha2, z) grid:
      lft_phase_form       m2 vs the matrix angle-form law on 1x1 blocks
      lft_plain_form       m2 vs the matrix coefficient law with p12(i)
      p_inverse_via_m      1/p12(z) vs tan a2 - m1(z), over 1 + |tan a2| + |m1(z)|
      p_at_i_inverse       1/p12(i) vs tan a2 - i, over 2 + |tan a2| (|m1(i)| = 1)
      angle_recovery       a2 recovered from p12(i), compared mod pi
      herglotz_m1/_m2      positivity-bound deficit, non-real z only

    Residuals other than the p records' are raw; callers pick the
    thresholds.  The Green-kernel cross-check is quadrature_roundtrip's.
    """
    keys = [
        "lft_phase_form", "lft_plain_form", "p_inverse_via_m",
        "p_at_i_inverse", "angle_recovery", "herglotz_m1", "herglotz_m2",
    ]
    out = {key: 0.0 for key in keys}
    z_grid = np.array([complex(z) for z in z_values], dtype=np.complex128)
    scenarios = [HalflineScenario(float(a2)) for a2 in alpha2_values]

    # the per-alpha2 constants as columns against the z grid
    def column(fn):
        return np.array([fn(scenario.alpha2) for scenario in scenarios]).reshape(-1, 1)

    t = column(math.tan)
    root, den = _pole_checked_root(z_grid, t)
    m1 = 1.0 + 1j * root  # m1_halfline from the one root
    m1_stack = m1.reshape(-1, 1, 1)
    m2 = _m2_from_m1(m1, column(math.cos), column(math.sin))
    p_z = -1.0 / den
    p_i = [p12_halfline(1j, scenario) for scenario in scenarios]
    for scenario, p in zip(scenarios, p_i):
        tan_a2 = math.tan(scenario.alpha2)
        out["p_at_i_inverse"] = max(
            out["p_at_i_inverse"], abs(1.0 / p - (tan_a2 - 1j)) / (2.0 + abs(tan_a2))
        )
        recovered = math.atan((1.0 / p + 1j).real)
        out["angle_recovery"] = max(
            out["angle_recovery"], abs(_wrap_mod_pi(recovered - scenario.alpha2))
        )
    # the angle's factors as 1x1 blocks against the stack of m1(z), by the
    # complex functions of AngleOperator.law_factors
    b = np.array([complex(scenario.alpha2) for scenario in scenarios]).reshape(-1, 1, 1, 1)
    factors = (np.cos(b), np.sin(b), np.exp(-1j * b), np.exp(1j * b))
    via_angle = _angle_form(m1_stack, factors)[..., 0, 0]
    via_plain = lft_m1_to_m2(
        m1_stack, np.array(p_i, dtype=np.complex128).reshape(-1, 1, 1, 1))[..., 0, 0]

    def worst(residuals) -> float:
        return float(np.max(residuals, initial=0.0))

    out["lft_phase_form"] = worst(np.abs(via_angle - m2))
    out["lft_plain_form"] = worst(np.abs(via_plain - m2))
    out["p_inverse_via_m"] = worst(np.abs(1.0 / p_z - (t - m1))
                                   / (1.0 + np.abs(t) + np.abs(m1)))
    # the Herglotz bound of each non-real z (DEFAULT_Z holds the real point -9)
    nonreal = z_grid.imag != 0.0
    bounds = np.array([herglotz_lower_bound(z) for z in z_grid[nonreal]])
    y = z_grid.imag[nonreal]
    out["herglotz_m1"] = worst(bounds - y * m1.imag[nonreal])
    out["herglotz_m2"] = worst(bounds - y * m2.imag[:, nonreal])
    return out


def quadrature_roundtrip(z_values=DEFAULT_Z) -> float:
    """Max over z of |u - g| on DEFAULT_GRID, where u is the Green-kernel
    solve (dirichlet_resolvent_quadrature) of -u'' - z u = -g'' - z g and g
    the closed-form bump of QuadratureGrid.bump.  The solve's errors
    propagate: GridTooCoarse where the grid does not resolve z (from about
    |z| = 25 on DEFAULT_GRID), NumericalFailure where sin(kx) would
    overflow.

    g vanishes from the middle point a of the grid on, so |u - g| is |u|
    there and is read without the subtraction."""
    g, g2 = DEFAULT_GRID.bump
    # complex copies once, where each z would cast the real arrays again
    g, minus_g2 = g.astype(np.complex128), (-g2).astype(np.complex128)
    cut = DEFAULT_GRID.nodes // 2  # g[cut:] == 0 exactly
    out = 0.0
    for z in z_values:
        z = complex(z)
        u = dirichlet_resolvent_quadrature(minus_g2 - z * g, z, DEFAULT_GRID)
        out = max(out, float(np.max(np.abs(u[:cut] - g[:cut]))),
                  float(np.max(np.abs(u[cut:]))))
    return out
