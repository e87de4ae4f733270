"""Shared oracles and fixtures for the test suite.

The scalar functions below are independent re-derivations written in plain
complex arithmetic; they never call into the package.  Agreement between
package output and these values is therefore a genuine cross-check, not a
tautology.  The 2x2 helpers use the adjugate and the trace/det quadratic so
matrix examples can be verified without numpy.linalg either.
"""

import math

import numpy as np
from scipy.linalg import expm

from kreinkit.extension import (
    ExtensionParameter,
    build_model,
    extension_from_parameter,
    resolvent_difference_at_i,
)
from kreinkit.numerics import _svd_range, projector


# ---------------------------------------------------------------------------
# scalar oracles (deficiency index 1, everything is a complex number)


def cay(a):
    """Cayley transform of a real scalar: (a + i)/(a - i)."""
    return (a + 1j) / (a - 1j)


def inv_cay(c):
    """Inverse Cayley transform: i (c + 1)/(c - 1)."""
    return 1j * (c + 1.0) / (c - 1.0)


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


def common_subspace(ext1, ext2):
    """Range of R2(i) - R1(i): the deficiency subspace of the pair's maximal
    common symmetric part.  It is N+ for a relatively prime pair and rank 0
    for identical extensions.  Both resolvents have norm at most 1, so the
    rank cutoff floors the scale at 1."""
    return _svd_range(resolvent_difference_at_i(ext1, ext2), 1.0)[0]


def full_range_drift(pair, z, zp):
    """|| range-projector(P(z)) - range-projector(P(z')) || with the ranges
    of the full N x N P from the pair's memo, at the scale floor the memo
    uses for P|N+.  The library reports a bound on this drift from n x n
    data; this is the direct route it replaced."""
    ranges = [_svd_range(pair.p(w).full, 1.0)[0] for w in (z, zp)]
    return float(np.linalg.norm(projector(ranges[0]) - projector(ranges[1])))


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
