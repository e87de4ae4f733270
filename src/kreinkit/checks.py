"""The records of the check report, each defined once.

A record is one identity of the finite model, reported as its worst
residual over the scenario's z-grid against the report tolerance.  Records
come in suites, generators over one krein.PairContext: model_layer (the
model's parametrization and Cayley geometry), then the suites of SUITES
(Weyl operators, P(z), the angle operator, Krein's formula, the
fractional-linear laws and the von Neumann link), each with the name of the
failed record that an error in it becomes.  run yields them in that order,
each behind one error boundary.  A suite computes its residuals from the
pair's memo and calls the krein formulas through the module, none of its
privates, so each P(z) and M(z) is computed once per run, and no record
decides a rank of its own.  The n x n blocks of a grid are (k, n, n)
stacks, and each record folds its residuals with one np.max.
"""

from __future__ import annotations

import numpy as np

from . import krein as kr
from .errors import KreinKitError
from .numerics import frob, projector


def record(name: str, residual: float, tol: float, **extra) -> dict:
    """The record of one identity.  A suite passes the worst residual over
    its grid as np.max of the residuals, which keeps a NaN, so a residual
    that turned NaN fails its record wherever it falls."""
    rec = {
        "name": name,
        "max_residual": float(residual),
        "tolerance": float(tol),
        "pass": bool(residual <= tol),
    }
    rec.update(extra)
    return rec


def error_record(name: str, tol: float, exc: Exception) -> dict:
    return {
        "name": name,
        "max_residual": -1.0,
        "tolerance": float(tol),
        "pass": False,
        "error": type(exc).__name__,
        "note": str(exc),
    }


def _norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a (..., n, n) stack."""
    return np.linalg.norm(stack, axis=(-2, -1))


def _adjoint(stack: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a (..., m, n) stack."""
    return np.swapaxes(stack.conj(), -1, -2)


def model_layer(pair: kr.PairContext, v1: np.ndarray, v2: np.ndarray, tol: float):
    """Parametrization and Cayley geometry; the resolvent difference at i
    against Cayley data, noted with the pair's primeness.  v1 and v2 are the
    parameters that built ext1 and ext2 (v1 = I for the reference).  The
    model's own facts, orthonormal bases and a Hermitian a1, are gated where
    it is built, and D + (1 - C^{-1}) N+ = C^N holds for every extension by
    von Neumann's formula, so no record re-reads them."""
    model, ext1, ext2 = pair.model, pair.ext1, pair.ext2
    eye, bp = np.eye(model.dim), model.nplus.basis
    yield record("extension_parameter_roundtrip", np.max([
        frob(pair.parameter(ext2).v - v2) / (1.0 + frob(v2)),
        frob(pair.parameter(ext1).v - v1),
    ]), tol)
    # a = i (C - 1)^{-1} (C + 1) by one direct solve, independent of the eigh
    # frame that built C; the extension's Cayley gap keeps C - 1 invertible
    yield record("cayley_roundtrip", np.max([
        frob(1j * np.linalg.solve(ext.cayley - eye, ext.cayley + eye) - ext.a)
        / (1.0 + frob(ext.a)) for ext in (ext1, ext2)
    ]), tol)

    # per extension with Cayley transform C and R = (a - i)^{-1}, one direct
    # solve read by two records: ||P_N+ - (C Bm)(C Bm)*|| and
    # ||R C^{-1} Bp - (i/2)(C^{-1} - 1) Bp||
    geometry, resolvents = [], []
    pn_plus, bm = projector(model.nplus), model.nminus.basis
    for ext in (ext1, ext2):
        c_bm = ext.cayley @ bm
        c_inv_bp = ext.cayley.conj().T @ bp
        r = np.linalg.solve(ext.a - 1j * eye, eye)
        resolvents.append(r)
        geometry.append((frob(pn_plus - c_bm @ c_bm.conj().T),
                         frob(r @ c_inv_bp - 0.5j * (c_inv_bp - bp))))
    for name, first, second in zip(("cayley_exchanges_deficiency_spaces",
                                    "resolvent_cayley_identity"), *geometry):
        yield record(name, np.max([first, second]), tol)

    # R2(i) - R1(i) = P(i) C1, with P(i) = Bp (i/2)(1 - W) Bp* from Cayley
    # data, multiplied from the right so that no N x N x N product is formed
    note = "relatively prime" if pair.angle.prime else "not relatively prime"
    r1, r2 = resolvents
    yield record("relatively_prime_consistency", frob(
        r2 - r1 - bp @ (pair.p_at_i_via_cayley @ (bp.conj().T @ ext1.cayley)),
    ), tol, note=note)


def herglotz_form(z, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Im z * Im M(z), Hermitian by construction, and its smallest
    eigenvalue, the margin the Herglotz bound is compared with: for a number
    z and its M(z), or for a 1-d array of z and the (k, n, n) stack of their
    M(z), from one eigvalsh call."""
    im_m = (m - _adjoint(m)) / 2j
    lhs = np.asarray(z).imag[..., None, None] * ((im_m + _adjoint(im_m)) / 2.0)
    return lhs, np.min(np.linalg.eigvalsh(lhs), axis=-1)  # build_model: rank N+ >= 1


def weyl_suite(pair: kr.PairContext, zs: list, tol: float):
    """M(z) of both extensions: the Herglotz bound on
    lambda_min(Im z * Im M(z)) and the exact identity
    Im z * Im M = (Im z)^2 S*(1+a^2)^{1/2}((a-x)^2+y^2)^{-1}(1+a^2)^{1/2} S.
    M(conj z) = M(z)* holds by construction of weyl_operator's spectral
    form, so no record reads M at a conjugate, and M(i) = i holds by the
    orthonormality gates of the eigenframe and the N+ basis, so none reads
    M at i."""
    grid = np.array(zs)
    deficits, identities = [], []
    for ext in (pair.ext1, pair.ext2):
        # one memo call for the grid, so that a collision raises at its first z
        ms = pair.m(ext, zs)
        # after ext's M(z), so that its collision raises before a RealParameter
        bounds = np.array([kr.herglotz_lower_bound(z) for z in zs])
        lhs, lam_min = herglotz_form(grid, ms)
        # (1 + a^2)^{1/2} Bp, the N x n factor of the Herglotz identity;
        # (1 + a^2)^{1/2} is a diagonal function of ext's eigenframe
        spec = ext.spectrum
        eye = np.eye(ext.dim)
        root = spec.compose(np.sqrt(1.0 + spec.eigenvalues.real ** 2)) @ pair.model.nplus.basis
        # the direct route of the identity: a solve with the dense a - conj z,
        # not the eigenframe that M(z) reads; one per z, which measured faster
        # than one stacked solve
        halves = np.stack([np.linalg.solve(ext.a - z.conjugate() * eye, root) for z in zs])
        rhs = (grid.imag ** 2)[:, None, None] * (_adjoint(halves) @ halves)
        deficits.append(np.maximum(0.0, bounds - lam_min))
        identities.append(_norms(lhs - rhs))
    yield record("herglotz_bound", np.max(deficits), tol)
    yield record("herglotz_identity", np.max(identities), tol)


def p_function_suite(pair: kr.PairContext, zs: list, tol: float):
    """P(i) against Cayley data, then P(z) over the grid, read in ext1's
    eigenframe (every record is a norm that the frame leaves unchanged),
    each z paired with the next one z' (cyclically, by np.roll).  The
    records read the grid's PSamples of PairContext.p: P(z), its compression
    X(z) = S1* P(z) S1 (S1 the N+ basis), stacked over the grid, its leak
    and ext1's diagonal D1.  P(conj z) = P(z)* holds by construction of that
    spectral form, so no record reads a conjugate:

      p_translation      || X(z) - X(z') - (z - z') X(z') (S1* mid S1) X(z) ||,
                         mid = (a1+i)(a1-z')^{-1}(a1-i)(a1-z)^{-1}, an
                         identity on N+ that holds given P(z)'s support there
      p_range_constancy  || range-projector(P(z)|N+) - range-projector(P(z')|N+) ||
                         + leak(z) + leak(z'), leak = ||(1 - P_N+) P|| / sigma_r(P|N+),
                         r = angle.rank the pair's rank (no leak at rank 0);
                         a sin-theta bound on the full range's drift,
                         symmetric in z and z'

    p_support and p_translation are divided by 1 + ||P(z)||.
    """
    rank = pair.angle.rank  # read first: an angle error is the first output
    p_i = pair.p(1j).restricted
    yield record("p_at_i_consistency", frob(p_i - pair.p_at_i_via_cayley), tol)
    # the grid z in grid order, so a collision raises at its first z
    samples = [pair.p(z) for z in zs]
    s1 = pair.frame_nplus
    s1h = s1.conj().T
    scale = 1.0 + np.array([frob(ps.full) for ps in samples])
    leak = np.array([ps.leak for ps in samples])
    # ||P (1 - P_N+)|| and ||(1 - P_N+) P||, in ext1's eigenframe; the N x N
    # products stay one per sample
    support = np.array([frob(ps.full - (ps.full @ s1) @ s1h) for ps in samples])
    yield record("p_support", np.max([support / scale, leak / scale]), tol)
    x = np.stack([ps.restricted for ps in samples])
    d1 = np.stack([ps.d1 for ps in samples])
    xp, d1p = np.roll(x, -1, axis=0), np.roll(d1, -1, axis=0)
    dz = (np.array(zs) - np.roll(zs, -1))[:, None, None]
    # the translation identity's middle factor, diagonal in ext1's
    # eigenframe, compressed to N+
    w1 = pair.ext1.spectrum.eigenvalues
    mid = s1h @ (((1.0 + w1 * w1) * d1p * d1)[..., None] * s1)
    yield record("p_translation", np.max(_norms(x - xp - dz * (xp @ mid @ x)) / scale), tol)
    # one batched SVD of the grid's X(z): the range at the pair's rank, and
    # sigma_r, which each leak is divided by
    u, sv, _ = np.linalg.svd(x)
    ranges = u[..., :rank]
    proj = ranges @ _adjoint(ranges)
    leaks = leak / sv[:, rank - 1] if rank else np.zeros(len(zs))
    yield record("p_range_constancy",
                 np.max(_norms(proj - np.roll(proj, -1, axis=0)) + (leaks + np.roll(leaks, -1))), tol)


def angle_suite(pair: kr.PairContext, zs: list, tol: float):
    """sin(alpha) - i cos(alpha) and sin(alpha) - cos(alpha) M1(z) invert P(i)
    and P(z) up to the factor cos(alpha), and the angle form of the
    fractional-linear law."""
    angle = pair.angle
    cos_a, sin_a, _, _ = angle.law_factors
    yield record("angle_tan_inversion",
                 frob((sin_a - 1j * cos_a) @ pair.p(1j).restricted - cos_a), tol)
    # the angle form maps the stacked M1(z) of the whole grid in one call,
    # bit for bit the per-z maps
    m1 = pair.m(pair.ext1, zs)
    via = kr.lft_m1_to_m2_angle(m1, angle)
    # M2 is read before any P(z): a collision of a2 with the grid raises
    # here, at its first z, with the error P(z) would raise there
    m2 = pair.m(pair.ext2, zs)
    x = np.stack([pair.p(z).restricted for z in zs])
    yield record("p_inverse_via_weyl",
                 np.max(_norms((sin_a - cos_a @ m1) @ x - cos_a) / (1.0 + _norms(m1))), tol)
    yield record("lft_angle_vs_direct", np.max(_norms(via - m2) / (1.0 + _norms(m2))), tol)


def krein_suite(pair: kr.PairContext, zs: list, tol: float):
    """Krein's formula on N+ in ext1's eigenframe (krein_resolvent_frame,
    with the pair's M1(z)) against ext2's resolvent in that frame, Q D2 Q*
    (the r2 of PairContext.p): a route that reads ext2 through its own
    eigenframe, where the formula reads it through the n x n angle alone.
    The record is ||via - direct|| / ||direct||, which the frame leaves
    unchanged.  The grid's samples are read first, so a collision raises as
    in p_function_suite, ahead of any singular denominator of the formula."""
    samples = [pair.p(z) for z in zs]
    vias = kr.krein_resolvent_frame(pair.ext1, pair.angle, zs, pair.m(pair.ext1, zs))
    yield record("krein_vs_direct",
                 np.max([frob(via - ps.r2) / frob(ps.r2) for ps, via in zip(samples, vias)]), tol)


def lft_suite(pair: kr.PairContext, zs: list, tol: float):
    """The coefficient form of the fractional-linear law, with p(i) from
    Cayley data, mapping M1(z) to M2(z) (lft_direct); its angle form is
    angle_suite's lft_angle_vs_direct."""
    # the law maps the stacked M1(z) of the whole grid in one call, bit for
    # bit the per-z maps
    direct = kr.lft_m1_to_m2(pair.m(pair.ext1, zs), pair.p_at_i_via_cayley)
    yield record("lft_direct", np.max(_norms(direct - pair.m(pair.ext2, zs))), tol)


def vonneumann_suite(pair: kr.PairContext, zs: list, tol: float):
    """P(i) = (i/2)(1 - u2^{-1} u1) on N+ with the von Neumann parameters u1,
    u2 of the pair, for every pair."""
    u1 = pair.parameter(pair.ext1).v
    u2 = pair.parameter(pair.ext2).v
    right = 0.5j * (np.eye(pair.model.deficiency) - u2.conj().T @ u1)
    yield record("vonneumann_link", frob(pair.p(1j).restricted - right), tol)


# (error record name, suite), run in this order after model_layer
SUITES = (
    ("weyl_suite", weyl_suite),
    ("p_function_suite", p_function_suite),
    ("angle_suite", angle_suite),
    ("krein_vs_direct", krein_suite),
    ("lft_suite", lft_suite),
    ("vonneumann_link", vonneumann_suite),
)


def suite_runs(pair: kr.PairContext, v1: np.ndarray, v2: np.ndarray, zs: list, tol: float) -> list:
    """(name, records) of model_layer and then of each suite of SUITES on
    the pair over the grid zs, v1 and v2 the parameters that built ext1 and
    ext2.  Each records is the suite's generator, so no suite runs before
    the one ahead of it has been read to its end."""
    runs = [("model_layer", model_layer(pair, v1, v2, tol))]
    return runs + [(name, suite(pair, zs, tol)) for name, suite in SUITES]


def run(pair: kr.PairContext, v1: np.ndarray, v2: np.ndarray, zs: list, tol: float):
    """Every record of suite_runs in its order.  A KreinKitError in a suite
    becomes the failed record named after it, after the records it yielded;
    the later suites still run."""
    for name, records in suite_runs(pair, v1, v2, zs, tol):
        try:
            yield from records
        except KreinKitError as exc:
            yield error_record(name, tol, exc)
