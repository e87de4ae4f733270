"""Acceptance gate: one test per numbered criterion, at its stated tolerance.

Each test prints a single summary line (visible with `pytest -s` or `-rA`);
pytest's own PASSED/FAILED verdict per test is the pass/fail line per
criterion.  The sweep fixtures build twenty seeded scenarios spanning
dimensions {2, 4, 8, 12} and deficiency indices {1, 2, 3} through the same
generator the command line uses, plus three deliberately non-relatively-prime
pairs with a degenerate block in the restricted Cayley product.
"""

import json
import math
import time

import numpy as np
import pytest

import support
from kreinkit import checks, cli
from kreinkit import krein as kr
from kreinkit.extension import ExtensionParameter, build_model, extension_from_parameter
from kreinkit.halfline import (
    HalflineScenario,
    m1_halfline,
    m2_halfline,
    quadrature_roundtrip,
    verify_halfline,
)
from kreinkit.numerics import frob, projector

SHAPES = [(2, 1), (4, 1), (4, 2), (4, 3), (8, 1),
          (8, 2), (8, 3), (12, 1), (12, 2), (12, 3)]
SEEDS = (101, 202)
Z16 = list(cli.FIXED_Z16)


def _line(num, label, detail):
    print(f"criterion {num:02d} [{label}]: {detail} -> PASS")


@pytest.fixture(scope="module")
def sweep():
    """Twenty materialized scenarios; all are relatively prime by the
    generator's angle clamp, asserted here so coverage cannot silently
    shrink."""
    out = []
    for dim, deficiency in SHAPES:
        for seed in SEEDS:
            scenario = cli.generate_scenario(dim, deficiency, seed)
            model, ext1, ext2, _ = cli.materialize(scenario)
            assert kr.angle_operator(ext1, ext2, model.nplus).prime
            out.append((model, ext1, ext2))
    assert len(out) == 20
    return out


@pytest.fixture(scope="module")
def degenerate_pairs():
    """Three non-relatively-prime pairs: a pi/2 block in the angle matrix
    forces eigenvalue 1 in the restricted Cayley product."""
    cases = [(4, 2, 301, 1), (8, 3, 302, 2), (12, 3, 303, 1)]
    out = []
    for dim, deficiency, seed, degenerate in cases:
        model, ext1, ext2, _ = support.random_pair(
            dim, deficiency, seed, degenerate=degenerate)
        assert not kr.angle_operator(ext1, ext2, model.nplus).prime
        out.append((model, ext1, ext2))
    return out


def test_criterion_01_krein_resolvent_oracle(sweep):
    started = time.perf_counter()
    worst = 0.0
    for model, ext1, ext2 in sweep:
        eye = np.eye(model.dim)
        angle = kr.angle_operator(ext1, ext2, model.nplus)
        for z in Z16:
            direct = np.linalg.solve(ext2.a - z * eye, eye)
            via = kr.krein_resolvent(ext1, angle, z)
            worst = max(worst, frob(via - direct) / frob(direct))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-8
    assert elapsed < 5.0
    _line(1, "krein resolvent vs direct",
          f"20 scenarios x 16 z, worst relative residual {worst:.3e} "
          f"(tol 1e-8), {elapsed:.2f} s")


def test_criterion_02_general_lft_including_degenerate(sweep, degenerate_pairs):
    # both forms of the law, the coefficient form with p(i) from Cayley data
    # (the lft_direct record) and the angle form, against M2(z); both
    # residuals are absolute
    worst_direct = 0.0
    worst_angle = 0.0
    pairs = sweep + degenerate_pairs
    for model, ext1, ext2 in pairs:
        pair = kr.PairContext(model, ext1, ext2)
        res = support.records(checks.lft_suite, pair, Z16)
        worst_direct = max(worst_direct, res["lft_direct"])
        via_angle = kr.lft_m1_to_m2_angle(pair.m(ext1, Z16), pair.angle)
        for m, m2 in zip(via_angle, pair.m(ext2, Z16)):
            worst_angle = max(worst_angle, frob(m - m2))
    assert worst_direct <= 1e-8
    assert worst_angle <= 1e-8
    _line(2, "general fractional-linear law",
          f"{len(pairs)} pairs (3 with a degenerate block) x 16 z, "
          f"coefficient form {worst_direct:.3e}, angle form "
          f"{worst_angle:.3e} (tol 1e-8)")


def test_criterion_03_angle_form_matches_coefficient_form(sweep):
    worst = 0.0
    for model, ext1, ext2 in sweep:
        sub = model.nplus
        angle = kr.angle_operator(ext1, ext2, sub)
        p_i = kr.PairContext(model, ext1, ext2).p_at_i_via_cayley
        for z in Z16:
            m1 = kr.weyl_operator(ext1, sub, z)
            via_angle = kr.lft_m1_to_m2_angle(m1, angle)
            via_plain = kr.lft_m1_to_m2(m1, p_i)
            worst = max(worst, frob(via_angle - via_plain))
    assert worst <= 1e-9
    _line(3, "angle form vs coefficient form",
          f"20 prime pairs x 16 z, worst residual {worst:.3e} (tol 1e-9)")


def test_criterion_04_herglotz_suite(sweep):
    worst_deficit = 0.0
    worst_identity = 0.0
    for model, ext1, ext2 in sweep:
        # worst over both extensions and the grid
        res = support.records(checks.weyl_suite, kr.PairContext(model, ext1, ext2), Z16)
        worst_deficit = max(worst_deficit, res["herglotz_bound"])
        worst_identity = max(worst_identity, res["herglotz_identity"])
    assert worst_deficit <= 1e-10
    assert worst_identity <= 1e-9
    _line(4, "herglotz positivity",
          f"40 extensions x 16 z, bound deficit {worst_deficit:.3e} "
          f"(tol 1e-10), identity residual {worst_identity:.3e} (tol 1e-9); "
          "bound scaled by (Im z)^2")


def test_criterion_05_p_function_identities(sweep):
    worst_sym = worst_support = worst_translation = 0.0
    worst_inv_i = worst_inv_z = worst_at_i = 0.0
    rank_violations = 0
    for model, ext1, ext2 in sweep:
        sub = model.nplus
        pair = kr.PairContext(model, ext1, ext2)
        n = model.deficiency
        eyen = np.eye(n)
        pperp = np.eye(model.dim) - projector(sub)
        tan_a = support.tan_of(kr.angle_operator(ext1, ext2, sub))
        p_i = support.p_function(ext1, ext2, sub, 1j)
        worst_at_i = max(worst_at_i, frob(
            p_i.restricted - pair.p_at_i_via_cayley))
        worst_inv_i = max(worst_inv_i, frob(
            (tan_a - 1j * eyen) @ p_i.restricted - eyen))
        for idx, z in enumerate(Z16):
            ps = support.p_function(ext1, ext2, sub, z)
            psc = support.p_function(ext1, ext2, sub, np.conj(z))
            worst_sym = max(worst_sym, frob(ps.full.conj().T - psc.full))
            worst_support = max(worst_support,
                                frob(ps.full @ pperp), frob(pperp @ ps.full))
            worst_translation = max(worst_translation, support.translation_residual(
                pair, z, Z16[(idx + 1) % len(Z16)]))
            if np.linalg.matrix_rank(ps.restricted, tol=1e-9) != n:
                rank_violations += 1
            inv = tan_a - kr.weyl_operator(ext1, sub, z)
            worst_inv_z = max(worst_inv_z, frob(inv @ ps.restricted - eyen))
    assert worst_sym <= 1e-8
    assert worst_support <= 1e-8
    assert worst_translation <= 1e-8
    assert worst_inv_i <= 1e-8
    assert worst_inv_z <= 1e-8
    assert rank_violations == 0
    assert worst_at_i <= 1e-10
    _line(5, "compressed difference identities",
          f"adjoint {worst_sym:.3e}, support {worst_support:.3e}, "
          f"translation {worst_translation:.3e}, inversions "
          f"{worst_inv_i:.3e}/{worst_inv_z:.3e} (tol 1e-8), rank constant, "
          f"value at i both routes {worst_at_i:.3e} (tol 1e-10)")


def test_criterion_06_cayley_geometry_suite(sweep):
    worst_roundtrip = worst_exchange = worst_resolvent = 0.0
    worst_link = 0.0
    min_sv_seen = np.inf
    for model, ext1, ext2 in sweep:
        n = model.deficiency
        eye = np.eye(model.dim)
        pair = kr.PairContext(model, ext1, ext2)
        # each record is the worst over both extensions; the round trip is
        # measured relative to the operator scale
        geo = support.layer_records(pair)
        worst_roundtrip = max(worst_roundtrip, geo["cayley_roundtrip"])
        worst_exchange = max(worst_exchange, geo["cayley_exchanges_deficiency_spaces"])
        worst_resolvent = max(worst_resolvent, geo["resolvent_cayley_identity"])
        assert [support.direct_sum_codimension(model, ext) for ext in (ext1, ext2)] == [0, 0]
        assert support.common_subspace(ext1, ext2).rank == n
        r1 = np.linalg.solve(ext1.a - 1j * eye, eye)
        r2 = np.linalg.solve(ext2.a - 1j * eye, eye)
        on_nminus = (r2 - r1) @ model.nminus.basis
        min_sv_seen = min(min_sv_seen, float(
            np.linalg.svd(on_nminus, compute_uv=False)[-1]))
        vn = support.records(checks.vonneumann_suite, pair)
        worst_link = max(worst_link, vn["vonneumann_link"])
    assert worst_roundtrip <= 1e-10
    assert worst_exchange <= 1e-10
    assert worst_resolvent <= 1e-10
    assert min_sv_seen > 1e-9
    assert worst_link <= 1e-9
    _line(6, "cayley geometry",
          f"relative round trip {worst_roundtrip:.3e}, exchange "
          f"{worst_exchange:.3e}, resolvent identity {worst_resolvent:.3e} "
          f"(tol 1e-10); difference rank full with min sv {min_sv_seen:.3e} "
          f"(> 1e-9); parameter link {worst_link:.3e} (tol 1e-9)")


def test_criterion_07_scalar_ground_truth():
    model = build_model(np.zeros((1, 1)), np.ones((1, 1)))
    ext1 = model.reference
    ext2 = extension_from_parameter(model, ExtensionParameter([[-1j]]))
    res_a2 = abs(ext2.a[0, 0] - (-1.0))
    p_i = support.p_function(ext1, ext2, model.nplus, 1j).restricted[0, 0]
    res_p = abs(p_i - (0.5 + 0.5j))
    alpha = kr.angle_operator(ext1, ext2, model.nplus).alpha[0, 0]
    res_alpha = abs(alpha - math.pi / 4.0)
    m2 = kr.weyl_operator(ext2, model.nplus, 2j)[0, 0]
    res_m2 = abs(m2 - (0.6 + 0.8j))
    # the frozen constants themselves come from the scalar oracle
    assert support.weyl(-1.0, 2j) == pytest.approx(0.6 + 0.8j, abs=1e-15)
    assert support.p12(0.0, -1.0, 1j) == pytest.approx(0.5 + 0.5j, abs=1e-15)
    for res in (res_a2, res_p, res_alpha, res_m2):
        assert res <= 1e-12
    _line(7, "scalar ground truth",
          f"a2 {res_a2:.1e}, p(i) {res_p:.1e}, alpha {res_alpha:.1e}, "
          f"m2(2i) {res_m2:.1e} (tol 1e-12)")


def test_criterion_08_halfline_grid():
    started = time.perf_counter()
    res = verify_halfline()
    roundtrip = quadrature_roundtrip()
    elapsed = time.perf_counter() - started
    for key, value in res.items():
        assert value <= 1e-10, (key, value)
    assert roundtrip <= 1e-6
    assert elapsed < 10.0
    worst_scalar = max(res.values())
    _line(8, "half-line closed forms",
          f"8x8 grid, scalar identities {worst_scalar:.3e} (tol 1e-10), "
          f"quadrature {roundtrip:.3e} (tol 1e-6), "
          f"{elapsed:.2f} s")


def test_criterion_09_weyl_fixed_point(sweep, degenerate_pairs):
    worst = 0.0
    count = 0
    for model, ext1, ext2 in sweep + degenerate_pairs:
        for ext in (ext1, ext2):
            n = model.deficiency
            m_i = kr.weyl_operator(ext, model.nplus, 1j)
            worst = max(worst, frob(m_i - 1j * np.eye(n)))
            count += 1
        common = support.common_subspace(ext1, ext2)
        if 0 < common.rank:
            m_c = kr.weyl_operator(ext1, common, 1j)
            worst = max(worst, frob(m_c - 1j * np.eye(common.rank)))
    worst = max(worst, abs(m1_halfline(1j) - 1j))
    worst = max(worst, abs(m2_halfline(1j, HalflineScenario(math.pi / 8)) - 1j))
    assert worst <= 1e-12
    _line(9, "weyl fixed point at i",
          f"{count} extensions plus common subspaces and the half-line pair, "
          f"worst deviation {worst:.3e} (tol 1e-12)")


def test_criterion_10_cli_contract(tmp_path):
    p1, p2 = tmp_path / "g1.json", tmp_path / "g2.json"
    assert cli.main(["gen", "--dim", "4", "--def", "2", "--seed", "42",
                     "-o", str(p1)]) == 0
    assert cli.main(["gen", "--dim", "4", "--def", "2", "--seed", "42",
                     "-o", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()

    code_pass = cli.main(["check", str(p1)])
    assert code_pass == 0

    hard = tmp_path / "hard.json"
    assert cli.main(["gen", "--dim", "12", "--def", "3", "--seed", "12",
                     "-o", str(hard)]) == 0
    rep = tmp_path / "rep.json"
    code_fail = cli.main(["check", str(hard), "--tol", "1e-14", "-o", str(rep)])
    assert code_fail == 1
    with open(rep, "r", encoding="utf-8") as fh:
        assert json.load(fh)["summary"] == "fail"

    broken = tmp_path / "broken.json"
    broken.write_text("{ not json", encoding="utf-8")
    code_invalid = cli.main(["check", str(broken)])
    assert code_invalid == 2
    _line(10, "cli determinism and exit codes",
          f"gen byte-identical; exit codes {code_pass}/{code_fail}/"
          f"{code_invalid} on pass/engineered-failure/malformed")
