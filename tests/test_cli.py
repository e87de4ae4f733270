"""Tests for scenario files, the check suite, and the command line contract.

Exit code contract: 0 all checks passed, 1 at least one failed, 2 invalid
input.  Everything runs in-process through cli.main except one subprocess
smoke test for the installed entry points.
"""

import collections
import dataclasses
import inspect
import json
import math
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

import support
from kreinkit import checks, cli, halfline
from kreinkit import extension as extension_module
from kreinkit import krein as krein_module
from kreinkit.errors import BadDimensions, KreinKitError, NotInvariant
from kreinkit.numerics import frob


def run_main(args):
    return cli.main(list(args))


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# complex literal parsing


@pytest.mark.parametrize("text,value", [
    ("i", 1j),
    ("-i", -1j),
    ("j", 1j),
    ("2", 2 + 0j),
    ("1+2i", 1 + 2j),
    ("1-2j", 1 - 2j),
    ("1e-3i", 1e-3j),
    (" 1 + 2 i ", 1 + 2j),
    ("3.5-0.25j", 3.5 - 0.25j),
    ("-0.5i", -0.5j),
])
def test_parse_complex_accepts(text, value):
    assert cli.parse_complex(text) == value


@pytest.mark.parametrize("text", ["abc", "1+2k", "nan", "inf", "", "1++2i"])
def test_parse_complex_rejects(text):
    with pytest.raises(ValueError):
        cli.parse_complex(text)


# ---------------------------------------------------------------------------
# scenario documents


def test_generate_scenario_roundtrip():
    scenario = cli.generate_scenario(4, 2, 42)
    again = cli.ScenarioFile.from_json(json.loads(support.canonical_bytes(scenario)))
    assert support.canonical_bytes(again) == support.canonical_bytes(scenario)
    assert again.sha256() == scenario.sha256()
    assert len(scenario.z_grid) == 16
    assert all(z.imag != 0.0 for z in scenario.z_grid)


def test_generate_scenario_is_deterministic():
    a = support.canonical_bytes(cli.generate_scenario(5, 2, 7))
    b = support.canonical_bytes(cli.generate_scenario(5, 2, 7))
    assert a == b
    c = support.canonical_bytes(cli.generate_scenario(5, 2, 8))
    assert c != a


def _with_signed_zero(a1):
    a1 = a1.copy()
    assert a1[0, 0].imag == 0.0 and not np.signbit(a1[0, 0].imag)
    a1[0, 0] = complex(a1[0, 0].real, -0.0)
    return a1


@pytest.mark.parametrize("change", [
    lambda s: dataclasses.replace(s, seed=s.seed + 1),
    lambda s: dataclasses.replace(s, tolerance=1e-8),
    lambda s: dataclasses.replace(s, parameter={"unitary": s.parameter["angle"]}),
    lambda s: dataclasses.replace(s, a1=None),
    lambda s: dataclasses.replace(s, z_grid=s.z_grid[::-1]),
    lambda s: dataclasses.replace(s, a1=_with_signed_zero(s.a1)),
], ids=["seed", "tolerance", "parameter_tag", "a1_absent", "z_order", "signed_zero"])
def test_scenario_digest_reads_every_field(change):
    scenario = cli.generate_scenario(4, 2, 42)
    assert change(scenario).sha256() != scenario.sha256()


def test_scenario_digest_reads_decoded_values():
    scenario = cli.generate_scenario(4, 2, 42)
    real = dataclasses.replace(scenario, a1=np.ascontiguousarray(scenario.a1.real))
    assert real.a1.dtype == np.float64
    assert real.sha256() == dataclasses.replace(
        scenario, a1=real.a1.astype(np.complex128)).sha256()
    fortran = dataclasses.replace(scenario, a1=np.asfortranarray(scenario.a1))
    assert not fortran.a1.flags.c_contiguous
    assert fortran.sha256() == scenario.sha256()
    compact = json.dumps(scenario.to_json(), separators=(",", ":"))
    assert compact.encode("utf-8") != support.canonical_bytes(scenario)
    assert cli.ScenarioFile.from_json(json.loads(compact)).sha256() == scenario.sha256()


# the document of generate_scenario(2, 1, 0), written out so that the pin
# reads the digest layout and not the platform's QR and eigh
GEN_2_1_0 = {
    "version": 1, "seed": 0, "dimension": 2, "deficiency": 1,
    "a1": [[[0.1257302210933933, 0.0], [0.2541588935759901, -0.47120249511032625]],
           [[0.2541588935759901, 0.47120249511032625], [0.10490011715303971, 0.0]]],
    "nplus": [[[-0.2513055417191923, -0.8302740698558034]],
              [[-0.22257280647326555, -0.4449177895352335]]],
    "parameter": {"angle": [[[-0.5442589828573099, 0.0]]]},
    "z_grid": [[z.real, z.imag] for z in cli.FIXED_Z16],
    "tolerance": 1e-09,
}


def test_provenance_digests_are_pinned():
    # a change of either layout must change its "layout" tag and these pins
    assert cli.ScenarioFile.from_json(GEN_2_1_0).sha256() == \
        "fb3064c05195e383d45149020e23da812b28460dd4119a3abb12d3430b84e0fd"
    report = cli.halfline_command([0.0, 0.3], [1j, 1 + 1j])
    assert report["provenance"]["request_sha256"] == \
        "aa25b54505ae6ecf289c716f8e08c7d88f48ac76116ea46fb72ff0ac093072d5"


def test_scenario_built_in_python_rejects_non_finite_values():
    base = cli.generate_scenario(4, 2, 42)
    with pytest.raises(BadDimensions):
        cli.ScenarioFile(dimension=4, deficiency=2, parameter=base.parameter,
                         z_grid=[1j, complex(math.nan, 1.0)], a1=base.a1, nplus=base.nplus)
    a1 = base.a1.copy()
    a1[1, 2] = math.nan
    with pytest.raises(BadDimensions):
        dataclasses.replace(base, a1=a1)
    with pytest.raises(BadDimensions):
        dataclasses.replace(base, nplus=np.full_like(base.nplus, math.inf))
    with pytest.raises(BadDimensions):
        dataclasses.replace(base, parameter={"angle": np.full((2, 2), math.nan)})


@pytest.mark.parametrize("field,value", [
    ("a1", [[0.0] * 4] * 4),
    ("nplus", [[1.0, 0.0]] * 4),
    ("seed", 1.7),
    ("seed", np.int64(3)),
    ("dimension", 4.9),
    ("deficiency", 2.0),
    ("version", True),
    ("tolerance", "1e-9"),
    ("tolerance", True),
    ("z_grid", ["1j", "2+1j"]),
    ("z_grid", np.array([1j, 2j])),
    ("z_grid", [1j, None]),
    ("z_grid", [True, 1j]),
    ("z_grid", "1j"),
])
def test_scenario_built_in_python_rejects_what_from_json_rejects(field, value):
    # the exact-type rule of from_json: nothing is coerced, a matrix must be
    # decoded to an array first, and z_grid is a list or tuple of numbers
    base = cli.generate_scenario(4, 2, 42)
    with pytest.raises(BadDimensions):
        dataclasses.replace(base, **{field: value})


def test_scenario_built_in_python_takes_a_z_grid_of_numbers():
    # numpy scalars are numbers too; the grid is stored as a list of complex
    base = cli.generate_scenario(4, 2, 42)
    grid = dataclasses.replace(base, z_grid=(np.complex128(1j), 2j, np.float64(1.0) + 1j)).z_grid
    assert grid == [1j, 2j, 1 + 1j] and all(type(z) is complex for z in grid)


AWKWARD_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e300, 1.0, 2.0 ** 53])
JSON_FLOATS = st.one_of(AWKWARD_FLOATS, st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def scenario_documents(draw):
    dim = draw(st.integers(1, 8))
    n = draw(st.integers(1, dim))

    def matrix(rows, cols):
        flat = draw(st.lists(JSON_FLOATS, min_size=2 * rows * cols,
                             max_size=2 * rows * cols))
        pairs = np.array(flat).reshape(rows, cols, 2)
        return cli._m_to_json(pairs[..., 0] + 1j * pairs[..., 1])

    return {
        "version": 1,
        "seed": draw(st.integers(0, 2 ** 31)),
        "dimension": dim,
        "deficiency": n,
        "a1": draw(st.one_of(st.none(), st.just(matrix(dim, dim)))),
        "nplus": matrix(dim, n),
        "parameter": {draw(st.sampled_from(["angle", "unitary"])): matrix(n, n)},
        "z_grid": draw(st.lists(st.lists(JSON_FLOATS, min_size=2, max_size=2))),
        "tolerance": draw(JSON_FLOATS),
    }


REPORT_RECORDS = st.fixed_dictionaries(
    {
        "name": st.text(),
        "max_residual": st.one_of(st.just(-1.0), st.floats()),
        "tolerance": JSON_FLOATS,
        "pass": st.booleans(),
    },
    optional={"error": st.text(), "note": st.text()},
)
REPORTS = st.fixed_dictionaries({
    "version": st.integers(),
    "checks": st.lists(REPORT_RECORDS, max_size=4),
    "summary": st.sampled_from(["pass", "fail"]),
    "provenance": st.dictionaries(st.text(), st.one_of(st.none(), st.text(), st.integers())),
    "rows": st.lists(st.fixed_dictionaries(
        {"z": st.lists(JSON_FLOATS, max_size=2)},
        optional={"m": st.lists(st.lists(st.lists(st.floats(), max_size=2), max_size=2)),
                  "lambda_min": JSON_FLOATS},
    ), max_size=3),
})


@given(st.one_of(scenario_documents(), REPORTS))
def test_dump_json_matches_the_reference_encoder(doc):
    assert cli._dump_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _scenario_doc(**overrides):
    doc = json.loads(support.canonical_bytes(cli.generate_scenario(2, 1, 0)))
    doc.update(overrides)
    return doc


@pytest.mark.parametrize("mutate", [
    {"version": 2},
    {"extra_field": 1},
    {"dimension": 100},
    {"deficiency": 3},
    {"tolerance": 1e-20},
    {"tolerance": 1.0},
    {"z_grid": []},
    {"z_grid": [[1.0, 0.0]]},
    {"z_grid": [[1.0]]},
    {"parameter": {"angle": [[[0.0, 0.0]]], "unitary": [[[0.0, 0.0]]]}},
    {"parameter": {"twist": [[[0.0, 0.0]]]}},
    {"parameter": {"angle": [[[0.0, 0.0], [0.0, 0.0]]]}},
    {"a1": [[[0.0, 0.0]]]},
    {"deficiency": 1.7},
    {"dimension": "2"},
    {"seed": 1.5},
    {"tolerance": "1e-9"},
    {"version": True},
])
def test_scenario_validation_rejects(mutate):
    with pytest.raises(BadDimensions):
        cli.ScenarioFile.from_json(_scenario_doc(**mutate))


def test_scenario_missing_field_rejected():
    doc = _scenario_doc()
    del doc["parameter"]
    with pytest.raises(BadDimensions):
        cli.ScenarioFile.from_json(doc)


def test_materialize_regenerates_from_seed():
    explicit = cli.generate_scenario(4, 2, 11)
    doc = json.loads(support.canonical_bytes(explicit))
    doc["a1"] = None
    doc["nplus"] = None
    implicit = cli.ScenarioFile.from_json(doc)
    m1, e1a, e1b, v1 = cli.materialize(explicit)
    m2, e2a, e2b, v2 = cli.materialize(implicit)
    assert np.allclose(m1.a1, m2.a1)
    assert np.allclose(e1b.a, e2b.a)
    assert np.allclose(v1, v2)


def test_materialize_unitary_parameter():
    base = cli.generate_scenario(3, 2, 5)
    doc = json.loads(support.canonical_bytes(base))
    doc["parameter"] = {"unitary": cli._m_to_json(np.eye(2))}
    scenario = cli.ScenarioFile.from_json(doc)
    model, ext1, ext2, v2 = cli.materialize(scenario)
    # unitary parameter = identity reproduces the reference extension
    assert np.allclose(ext2.a, ext1.a, atol=1e-9)


# ---------------------------------------------------------------------------
# gen / check / mfunc / halfline through main()


def test_gen_writes_byte_identical_files(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_main(["gen", "--dim", "4", "--def", "2", "--seed", "42",
                     "-o", str(p1)]) == 0
    assert run_main(["gen", "--dim", "4", "--def", "2", "--seed", "42",
                     "-o", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_check_passes_and_is_deterministic(tmp_path):
    scen = tmp_path / "scen.json"
    rep1 = tmp_path / "rep1.json"
    rep2 = tmp_path / "rep2.json"
    assert run_main(["gen", "--dim", "4", "--def", "2", "--seed", "42",
                     "-o", str(scen)]) == 0
    assert run_main(["check", str(scen), "-o", str(rep1)]) == 0
    assert run_main(["check", str(scen), "-o", str(rep2)]) == 0
    assert rep1.read_bytes() == rep2.read_bytes()
    report = read_json(rep1)
    assert report["summary"] == "pass"
    assert report["provenance"]["scenario_sha256"] == \
        cli.generate_scenario(4, 2, 42).sha256()
    names = [c["name"] for c in report["checks"]]
    assert names == sorted(names)
    assert all(c["pass"] for c in report["checks"])
    assert all(c["max_residual"] <= c["tolerance"] for c in report["checks"])


def test_check_engineered_failure_exits_1(tmp_path):
    scen = tmp_path / "scen.json"
    rep = tmp_path / "rep.json"
    assert run_main(["gen", "--dim", "12", "--def", "3", "--seed", "12",
                     "-o", str(scen)]) == 0
    # default tolerance passes, an unreachable one fails with real residuals
    assert run_main(["check", str(scen)]) == 0
    assert run_main(["check", str(scen), "--tol", "1e-14", "-o", str(rep)]) == 1
    report = read_json(rep)
    assert report["summary"] == "fail"
    failing = [c for c in report["checks"] if not c["pass"]]
    assert failing and all(c["max_residual"] > 1e-14 for c in failing)


def test_check_invalid_inputs_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json", encoding="utf-8")
    assert run_main(["check", str(bad)]) == 2
    assert run_main(["check", str(tmp_path / "missing.json")]) == 2
    unknown = tmp_path / "unknown.json"
    doc = _scenario_doc(extra_field=1)
    unknown.write_text(json.dumps(doc), encoding="utf-8")
    assert run_main(["check", str(unknown)]) == 2
    real_z = tmp_path / "realz.json"
    doc = _scenario_doc(z_grid=[[1.0, 0.0]])
    real_z.write_text(json.dumps(doc), encoding="utf-8")
    assert run_main(["check", str(real_z)]) == 2
    scen = tmp_path / "scen.json"
    assert run_main(["gen", "--dim", "2", "--def", "1", "-o", str(scen)]) == 0
    assert run_main(["check", str(scen), "--tol", "1e-20"]) == 2


def test_check_identical_pair_scenario(tmp_path):
    # unitary parameter = identity: the two extensions coincide; the suite
    # must report "not relatively prime", run the angle block on N+, and pass
    base = cli.generate_scenario(4, 2, 3)
    doc = json.loads(support.canonical_bytes(base))
    doc["parameter"] = {"unitary": cli._m_to_json(np.eye(2))}
    scen = tmp_path / "same.json"
    scen.write_text(json.dumps(doc), encoding="utf-8")
    rep = tmp_path / "rep.json"
    assert run_main(["check", str(scen), "-o", str(rep)]) == 0
    report = read_json(rep)
    names = {c["name"] for c in report["checks"]}
    assert "angle_tan_inversion" in names and "krein_vs_direct" in names
    prime_rec = next(c for c in report["checks"]
                     if c["name"] == "relatively_prime_consistency")
    assert "not relatively prime" in prime_rec["note"]


def test_check_non_prime_block_scenario(tmp_path):
    # angle parameter with one eigenvalue pinned at pi/2: honestly
    # non-prime but not identical; the suite still passes end to end
    base = cli.generate_scenario(6, 2, 9)
    doc = json.loads(support.canonical_bytes(base))
    h = np.diag([math.pi / 2.0, 0.3])
    doc["parameter"] = {"angle": cli._m_to_json(h)}
    scen = tmp_path / "nonprime.json"
    scen.write_text(json.dumps(doc), encoding="utf-8")
    rep = tmp_path / "rep.json"
    assert run_main(["check", str(scen), "-o", str(rep)]) == 0
    report = read_json(rep)
    assert report["summary"] == "pass"
    names = {c["name"] for c in report["checks"]}
    assert "krein_vs_direct" in names and "lft_direct" in names
    assert "angle_tan_inversion" in names


def test_mfunc_rows_and_flagged_spectral_collision(tmp_path):
    scen = tmp_path / "scen.json"
    assert run_main(["gen", "--dim", "4", "--def", "2", "--seed", "1",
                     "-o", str(scen)]) == 0
    out = tmp_path / "m.json"
    assert run_main(["mfunc", str(scen), "--which", "1", "-o", str(out)]) == 0
    table = read_json(out)
    assert table["which"] == 1 and len(table["rows"]) == 16
    for row in table["rows"]:
        assert row["lambda_min"] >= row["herglotz_bound"] - 1e-10

    # a z essentially on the spectrum is flagged per row, not fatal
    doc = {
        "version": 1, "seed": 0, "dimension": 1, "deficiency": 1,
        "a1": [[[0.0, 0.0]]], "nplus": [[[1.0, 0.0]]],
        "parameter": {"unitary": [[[0.0, -1.0]]]},
        "z_grid": [[0.0, 1e-14], [0.0, 1.0]],
        "tolerance": 1e-9,
    }
    tricky = tmp_path / "tricky.json"
    tricky.write_text(json.dumps(doc), encoding="utf-8")
    out2 = tmp_path / "m2.json"
    # which=1 samples the reference, whose spectrum {0} sits 1e-14 from the
    # first grid point
    assert run_main(["mfunc", str(tricky), "--which", "1", "-o", str(out2)]) == 0
    rows = read_json(out2)["rows"]
    assert rows[0].get("error") == "SpectralParameter"
    assert "m" in rows[1]


def test_run_checks_turns_suite_errors_into_records():
    # each suite that evaluates at the colliding grid point becomes one
    # error record, the records it yielded before the error stay, and the
    # suites after it still run
    report = cli.run_checks(cli.ScenarioFile.from_json(support.SPECTRAL_COLLISION))
    checks = {rec["name"]: rec for rec in report["checks"]}
    errors = {name: rec["error"] for name, rec in checks.items() if "error" in rec}
    assert errors == dict.fromkeys(
        ("weyl_suite", "p_function_suite", "angle_suite", "krein_vs_direct",
         "lft_suite"), "SpectralParameter")
    # each suite meets the collision at the first grid point, whether it
    # reads the grid z by z or as one stack
    for name in errors:
        assert checks[name]["note"] == "z = 0+1e-14j is within 1.000e-14 of the spectrum"
    for name in errors:
        assert checks[name]["max_residual"] == -1.0 and not checks[name]["pass"]
    for name in ("p_at_i_consistency", "angle_tan_inversion", "vonneumann_link"):
        assert checks[name]["pass"]
    assert report["summary"] == "fail"


def test_angle_error_in_the_model_layer_is_a_failed_record(tmp_path, monkeypatch):
    # the model layer is the first suite behind the error boundary: an angle
    # error there is the failed record model_layer, the suites that read the
    # angle fail the same way, and check writes its report and exits 1
    def broken_angle(*args):
        raise NotInvariant("broken")

    monkeypatch.setattr(krein_module, "angle_operator", broken_angle)
    report = cli.run_checks(cli.generate_scenario(4, 1, 3))
    errors = {rec["name"]: rec["error"] for rec in report["checks"] if "error" in rec}
    assert errors["model_layer"] == "NotInvariant"
    assert report["summary"] == "fail"
    scen = tmp_path / "scen.json"
    assert run_main(["gen", "--dim", "4", "--def", "1", "--seed", "3",
                     "-o", str(scen)]) == 0
    out = tmp_path / "report.json"
    assert run_main(["check", str(scen), "-o", str(out)]) == 1
    assert read_json(out)["summary"] == "fail"


def test_parameter_off_the_unitary_group_in_the_model_layer_is_a_failed_record(monkeypatch):
    # with the Cayley transform inverted, the von Neumann parameter read back
    # from an extension is not unitary: the gate's NotUnitary is the failed
    # record model_layer, not an error out of the report
    cayley = extension_module.Extension.cayley.func
    monkeypatch.setattr(extension_module.Extension, "cayley",
                        property(lambda ext: cayley(ext).conj().T))
    report = cli.run_checks(cli.generate_scenario(8, 2, 3))
    errors = {rec["name"]: rec["error"] for rec in report["checks"] if "error" in rec}
    assert errors["model_layer"] == "NotUnitary"


def _check_file(tmp_path, scenario):
    scen = tmp_path / "scen.json"
    scen.write_text(cli._dump_json(scenario.to_json()), encoding="utf-8")
    out = tmp_path / "report.json"
    return run_main(["check", str(scen), "-o", str(out)]), read_json(out)


def _check_near_unit(tmp_path, delta):
    return _check_file(tmp_path, support.near_unit_scenario(8, 1, 5, delta))


def test_unit_eigenvalue_parameter_is_a_failed_build_model_record(tmp_path):
    # {"unitary": V} 1e-9 from the unit-eigenvalue phase of (8, 1) seed 5,
    # and {"unitary": diag(0.5, 1)}, which is no unitary
    not_unitary = support.unitary_scenario(cli.generate_scenario(8, 2, 3),
                                           np.diag([0.5, 1.0]).astype(complex))
    for (code, report), error in ((_check_near_unit(tmp_path, 1e-9), "UnitEigenvalue"),
                                  (_check_file(tmp_path, not_unitary), "NotUnitary")):
        assert code == 1
        (rec,) = report["checks"]
        assert rec["name"] == "build_model" and rec["error"] == error


def test_model_layer_error_on_a_valid_scenario_exits_1(tmp_path):
    # 1e-8 from that phase the extension builds (||a2|| = 5.3e8), and the
    # pair's angle operator finds N+ not invariant under C2 C1^{-1} (3e-8)
    code, report = _check_near_unit(tmp_path, 1e-8)
    assert code == 1
    errors = {rec["name"]: rec["error"] for rec in report["checks"] if "error" in rec}
    assert errors["model_layer"] == "NotInvariant"
    assert "extension_parameter_roundtrip" in {rec["name"] for rec in report["checks"]}


def test_mfunc_which_choice_enforced(tmp_path):
    scen = tmp_path / "scen.json"
    run_main(["gen", "--dim", "2", "--def", "1", "-o", str(scen)])
    with pytest.raises(SystemExit) as err:
        run_main(["mfunc", str(scen), "--which", "3"])
    assert err.value.code == 2


def test_halfline_command_paths(tmp_path):
    rep = tmp_path / "hl.json"
    assert run_main(["halfline", "-o", str(rep)]) == 0
    report = read_json(rep)
    assert report["summary"] == "pass"
    names = {c["name"] for c in report["checks"]}
    assert "quadrature_roundtrip" in names and "lft_phase_form" in names
    # determinism
    rep2 = tmp_path / "hl2.json"
    assert run_main(["halfline", "-o", str(rep2)]) == 0
    assert rep.read_bytes() == rep2.read_bytes()


def test_halfline_decides_each_z_on_its_own():
    # z = -0.5 + 1e-10 i lies 1e-10 from the bound state z = -c^2 = -0.5 of
    # alpha2 = 0, so its law denominators are about 1e-10 while those at
    # z = i are of order 1: each z passes its own gate
    doc = cli.halfline_command([0.0, 0.3], [1j, -0.5 + 1e-10j])
    assert doc["summary"] == "pass", doc["checks"]


LAW_RECORDS = ["angle_recovery", "herglotz_m1", "herglotz_m2", "lft_phase_form",
               "lft_plain_form", "p_at_i_inverse", "p_inverse_via_m"]


@pytest.mark.parametrize("z, residual", [(-25.0 + 0j, "5.180e-03"), (30.0 + 1j, "7.546e-03")])
def test_a_quadrature_failure_keeps_the_law_records(z, residual):
    # the 4000-node grid does not resolve |z| of about 25 or more: the round
    # trip fails on its own record, and the closed-form laws still report
    doc = cli.halfline_command([0.3], [z])
    assert doc["summary"] == "fail"
    *laws, quadrature = doc["checks"]
    assert [rec["name"] for rec in laws] == LAW_RECORDS
    assert all(rec["pass"] and "error" not in rec for rec in laws)
    assert quadrature == {
        "name": "quadrature_roundtrip", "max_residual": -1.0,
        "tolerance": cli.QUADRATURE_TOL, "pass": False, "error": "GridTooCoarse",
        "note": quadrature["note"],
    }
    assert quadrature["note"].startswith(f"second-difference residual {residual} exceeds")


def _pole_records(alpha2_values, z_values, tol=1e-10):
    """The pole_validation records of per-point m2_halfline calls, in the
    order of the (alpha2, z) loops."""
    out = []
    for a2 in alpha2_values:
        scen = halfline.HalflineScenario(a2)
        for z in z_values:
            try:
                halfline.m2_halfline(z, scen)
            except KreinKitError as exc:
                out.append(checks.error_record(
                    f"pole_validation[alpha2={a2:.6g},z={z:.6g}]", tol, exc))
    return out


@pytest.mark.parametrize("alpha2_values, z_values, poles", [
    # 3e-10 off the bound state -60.5 of tan a2 = -10, and 3e-12 off the
    # bound state -1/2 of alpha2 = 0: both points are regular
    ([math.atan(-10.0) % math.pi], [-60.5 + 3e-10j], 0),
    ([0.0], [-0.5 + 3e-12j], 0),
    # the bound states -1/2 of alpha2 = 0 and -2 of alpha2 = 3 pi/4
    ([0.0, 3 * math.pi / 4], [-0.5 + 0j, -2.0 + 0j], 2),
    # rows that mix poles and regular points, and a row without a pole
    ([0.3, 0.0, 3 * math.pi / 4], [1j, -0.5 + 0j, -2.0 + 0j, -0.5 + 3e-12j, 1 + 1j], 2),
], ids=["near-pole-tan-minus-10", "near-pole-alpha2-0", "bound-states", "mixed-rows"])
def test_pole_screen_decides_like_per_point_calls(alpha2_values, z_values, poles):
    # the mask of one pole-rule call on the (alpha2, z) grid gives the
    # same records as one scalar call per point.  m2_halfline on the array
    # of a row decides that row as its points do
    z_array = np.array(z_values)
    for a2 in alpha2_values:
        scen = halfline.HalflineScenario(a2)
        row_has_pole = bool(_pole_records([a2], z_values))
        try:
            halfline.m2_halfline(z_array, scen)
            assert not row_has_pole
        except KreinKitError:
            assert row_has_pole
    doc = cli.halfline_command(alpha2_values, z_values)
    flagged = [rec for rec in doc["checks"] if rec["name"].startswith("pole_validation")]
    expected = _pole_records(alpha2_values, z_values)
    assert len(expected) == poles
    assert flagged == sorted(expected, key=lambda rec: rec["name"])
    if poles:
        assert all(rec["note"].endswith("is a pole of the resolvent difference")
                   for rec in flagged)
        assert len(doc["checks"]) == poles  # no law runs on a grid with a pole


def test_pole_free_grid_is_screened_by_one_call(monkeypatch):
    # the screen decides the whole (alpha2, z) grid in one pole-rule call
    # with tan a2 as a column; the laws and the round trip are stubbed out,
    # since verify_halfline applies the rule again
    calls = []
    real = halfline._pole_rule

    def counted(z, t):
        calls.append((np.shape(z), np.shape(t)))
        return real(z, t)

    monkeypatch.setattr(halfline, "_pole_rule", counted)
    monkeypatch.setattr(halfline, "verify_halfline", lambda zs, alphas: {})
    monkeypatch.setattr(halfline, "quadrature_roundtrip", lambda zs: 0.0)
    doc = cli.halfline_command(list(halfline.DEFAULT_ALPHA2), list(halfline.DEFAULT_Z))
    assert calls == [((8,), (8, 1))]
    assert [rec["name"] for rec in doc["checks"]] == ["quadrature_roundtrip"]


def test_halfline_flagged_inputs_exit_1(tmp_path):
    rep = tmp_path / "hl.json"
    # z on the branch cut: flagged record, exit 1
    assert run_main(["halfline", "--z", "4", "-o", str(rep)]) == 1
    report = read_json(rep)
    assert report["summary"] == "fail"
    assert any(c.get("error") == "BranchCut" for c in report["checks"])
    # degenerate angle: flagged record, exit 1
    assert run_main(["halfline", "--alpha2", str(math.pi / 2), "-o", str(rep)]) == 1
    report = read_json(rep)
    assert any(c.get("error") == "NotRelativelyPrime" for c in report["checks"])
    # pole of the second extension inside the grid: flagged, exit 1
    # (equals form: argparse would read a space-separated "-0.5+0i" as a flag)
    assert run_main(["halfline", "--alpha2", "0", "--z=-0.5+0i",
                     "-o", str(rep)]) == 1
    report = read_json(rep)
    assert any(c.get("error") == "SingularDenominator" for c in report["checks"])


# |z| above 1e150 is rejected where it enters, before |z|^2 in the Herglotz
# bound can overflow (near 1.3e154) past the exit-code contract; 1e150 runs
@pytest.mark.parametrize("modulus,check_codes,mfunc_code", [
    (1e200, (2,), 2), (1e150, (0, 1), 0),
])
def test_huge_z_keeps_the_exit_code_contract(tmp_path, capsys, modulus, check_codes,
                                             mfunc_code):
    scen = tmp_path / "scen.json"
    assert run_main(["gen", "--dim", "4", "--def", "2", "--seed", "1", "-o", str(scen)]) == 0
    doc = read_json(scen)
    doc["z_grid"] = [[0.0, modulus], [1.0, 1.0]]
    scen.write_text(json.dumps(doc), encoding="utf-8")
    out = str(tmp_path / "out.json")
    assert run_main(["check", str(scen), "-o", out]) in check_codes
    assert run_main(["mfunc", str(scen), "--which", "2", "-o", out]) == mfunc_code
    assert run_main(["halfline", "--z", f"{modulus:g}i", "-o", out]) == 1
    flagged = [c for c in read_json(out)["checks"] if c["name"].startswith("z_validation")]
    assert [c["error"] for c in flagged] == (["BadDimensions"] if modulus > 1e150 else [])
    if modulus > 1e150:
        assert "1e150" in capsys.readouterr().err


def test_halfline_invalid_inputs_exit_2():
    assert run_main(["halfline", "--z", "abc"]) == 2
    assert run_main(["halfline", "--z", ""]) == 2
    assert run_main(["halfline", "--tol", "1.0"]) == 2


def test_error_record_sentinel_shape(tmp_path):
    rep = tmp_path / "hl.json"
    run_main(["halfline", "--z", "4", "-o", str(rep)])
    report = read_json(rep)
    flagged = [c for c in report["checks"] if "error" in c]
    assert flagged
    for rec in flagged:
        assert rec["max_residual"] == -1.0
        assert rec["pass"] is False
        assert isinstance(rec["note"], str)


# a residual that turns NaN (overflow, 0/0) must fail its record wherever it
# falls among the values, not drop out of the max
@pytest.mark.parametrize("values", [
    [(math.nan,)],
    [(1.0,), (math.nan,)],
    [(0.5, math.nan, 0.25)],
    [(math.nan,), (2.0,)],
])
def test_a_nan_residual_fails_its_record(values):
    worst = checks._Worst()
    for group in values:
        worst.add("x", *group)
    (rec,) = worst.records(1e-9)
    assert math.isnan(rec["max_residual"])
    assert rec["pass"] is False


def test_module_entry_point_subprocess():
    out = subprocess.run(
        [sys.executable, "-m", "kreinkit", "gen", "--dim", "2", "--def", "1",
         "--seed", "7"],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["version"] == 1 and doc["dimension"] == 2


def _scipy_subpackages(statement: str) -> set:
    code = (f"import json, sys; {statement}; "
            "print(json.dumps(sorted({name.split('.')[1] for name in sys.modules "
            "if name.startswith('scipy.')})))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, check=True)
    return set(json.loads(out.stdout))


def test_import_loads_no_scipy_subpackage_beyond_linalg():
    # every `kreinkit check` pays the import: scipy.integrate alone would add
    # about 0.35 s and 23 MB through the subpackages it pulls in
    loaded = _scipy_subpackages("import kreinkit, kreinkit.cli")
    allowed = _scipy_subpackages("import scipy.linalg")
    assert "linalg" in loaded
    assert loaded <= allowed, sorted(loaded - allowed)


def test_every_public_name_resolves():
    import kreinkit
    assert len(set(kreinkit.__all__)) == len(kreinkit.__all__)
    missing = [name for name in kreinkit.__all__ if not hasattr(kreinkit, name)]
    assert missing == []


def test_every_exported_function_is_called_by_the_tool():
    # the library exports the routes the tool runs: each function of
    # kreinkit.__all__ is entered by a check of a generated (8, 2) scenario,
    # its M(z) table or the halfline command on its default grid and on a
    # grid with poles.  Reference routes that only tests compare against
    # live in tests/support.py; m1_halfline and m2_halfline, the scalar
    # closed forms, stay in kreinkit.halfline for the demo script and the
    # tests, and krein_resolvent, the N x N form of Krein's formula, stays in
    # kreinkit.krein
    import kreinkit
    exported = {obj.__code__: name for name in kreinkit.__all__
                if inspect.isfunction(obj := getattr(kreinkit, name))}
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    scenario = cli.generate_scenario(8, 2, 0)
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        cli.run_checks(scenario)
        cli.tabulate_m(scenario, 2)
        cli.halfline_command(list(halfline.DEFAULT_ALPHA2), list(halfline.DEFAULT_Z))
        cli.halfline_command([0.0, 3 * math.pi / 4, 0.3], [-0.5 + 0j, -2.0 + 0j, 1j])
    finally:
        sys.setprofile(previous)
    assert sorted(name for code, name in exported.items() if code not in entered) == []


def test_each_report_record_comes_from_one_suite():
    # a (64, 3) report holds exactly the records that checks.run yields,
    # and no two suites yield one name
    scenario = cli.generate_scenario(64, 3, 3)
    model, ext1, ext2, v2 = cli.materialize(scenario)
    pair = krein_module.PairContext(model, ext1, ext2)
    records = checks.run(pair, np.eye(3), v2, scenario.z_grid, scenario.tolerance)
    names = collections.Counter(rec["name"] for rec in records)
    assert max(names.values()) == 1
    report = cli.run_checks(scenario)
    assert [rec["name"] for rec in report["checks"]] == sorted(names)


# ---------------------------------------------------------------------------
# cost contract of the check suite


def test_run_checks_decomposes_each_extension_once(monkeypatch):
    # counted, not timed: every resolvent-type evaluation of ext1 and ext2
    # reuses one cached eigendecomposition per extension, and no other
    # extension is built; the pair memo builds the full P(z) in ext1's
    # eigenframe once for each of the 16 distinct z of the grid, i among
    # them, and none at a conjugate, the SVD of P(z)|N+ (3 x 3), taken in
    # PairContext.p_range, once per grid point and no SVD of the full
    # 64 x 64 P(z), and the angle operator once, for the pair.
    # angle_operator is the one caller of unitary_eig in the library, so
    # this is the one Schur form, 3 x 3, which also decides primeness:
    # extensions are rank-n updates of a1, and cayley_roundtrip inverts
    # each Cayley transform by a direct solve
    decompositions = collections.Counter()
    svds = []
    frames = []
    ranges = []
    angles = []
    schurs = []
    pairs = []
    real_eig = extension_module.hermitian_eig
    real_svd = np.linalg.svd
    real_angle = krein_module.angle_operator

    def counting_eig(a, **kwargs):
        decompositions[np.asarray(a).tobytes()] += 1
        return real_eig(a, **kwargs)

    def counting(calls, real):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        return wrapper

    def counting_svd(*args, **kwargs):
        svds.append(args)
        if sys._getframe(1).f_code is krein_module.PairContext.p_range.__code__:
            ranges.append(args)
        return real_svd(*args, **kwargs)

    class RecordedPair(krein_module.PairContext):
        def __init__(self, *args):
            super().__init__(*args)
            pairs.append(self)

        def p(self, z):
            if complex(z) not in self._p:
                frames.append(z)
            return super().p(z)

    monkeypatch.setattr(extension_module, "hermitian_eig", counting_eig)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(krein_module, "angle_operator", counting(angles, real_angle))
    monkeypatch.setattr(krein_module, "unitary_eig",
                        counting(schurs, krein_module.unitary_eig))
    monkeypatch.setattr(krein_module, "PairContext", RecordedPair)
    report = cli.run_checks(cli.generate_scenario(64, 3, 3))
    assert report["summary"] == "pass"
    assert len(decompositions) == 2
    assert max(decompositions.values()) == 1
    assert len(frames) == len(set(frames)) == 16
    assert [args[0].shape for args in ranges] == [(3, 3)] * 16
    # they are the only SVDs; none is N-sized
    assert [args[0].shape for args in svds] == [(3, 3)] * 16
    assert len(angles) == 1
    assert [args[0].shape for args in schurs] == [(3, 3)]
    (pair,) = pairs
    for cached in (pair.p(2j).full, pair.p(2j).restricted, pair.p(2j).r2, pair.p(2j).d1,
                   pair.m(pair.ext2, 2j),
                   pair.p_range(2j)[0].basis, pair.p_range(2j)[1],
                   pair.p_at_i_via_cayley, pair.angle.alpha,
                   pair.frame_q, pair.frame_q_adjoint, pair.frame_nplus,
                   *pair.angle.law_factors):
        with pytest.raises(ValueError):
            cached.flat[0] = 0.0


def test_run_checks_takes_m_and_krein_denominators_once_per_grid(monkeypatch):
    # counted, not timed: M(z) comes from one weyl_operator call per
    # extension (ext1 and ext2 at the 16 points of the grid, and at no
    # conjugate) and one for ext1 inside Krein's formula, Krein's 16 n x n
    # denominators from one inverse call, and the two law calls one each.
    # The 40 solves are those 3, the 32 herglotz_identity solves, 4 in the
    # model layer (C - 1 for cayley_roundtrip and a - i, whose resolvent
    # resolvent_cayley_identity and relatively_prime_consistency share, per
    # extension) and 1 that builds ext2 (krein_vs_direct reads ext2's
    # resolvent from the pair memo's P(z) and solves nothing); no N x N
    # stack reaches a solve, and no N x N matrix is solved twice.  The one
    # matrix that two solves get is the stack of Krein's denominators
    # sin a - cos a M1(z), which the angle form of the law inverts as well
    weyl, inverses, solves = [], [], []

    def counting(calls, real):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(krein_module, "weyl_operator",
                        counting(weyl, krein_module.weyl_operator))
    monkeypatch.setattr(krein_module, "inverse", counting(inverses, krein_module.inverse))
    monkeypatch.setattr(np.linalg, "solve", counting(solves, np.linalg.solve))
    report = cli.run_checks(cli.generate_scenario(64, 3, 3))
    assert report["summary"] == "pass"
    assert [np.shape(args[2]) for args in weyl] == [(16,), (16,), (16,)]
    assert [np.shape(args[0]) for args in inverses] == [(16, 3, 3)] * 3
    assert len(solves) == 40
    assert all(np.ndim(args[0]) == 2 or np.shape(args[0])[-2:] == (3, 3)
               for args in solves)
    seen = collections.Counter(np.asarray(args[0]).tobytes() for args in solves)
    assert [np.shape(args[0]) for args in solves
            if seen[np.asarray(args[0]).tobytes()] > 1] == [(16, 3, 3)] * 2


def test_run_checks_passes_each_spectral_guard_once_per_sample(monkeypatch):
    # counted, not timed: a pass of a spectral guard is one
    # _resolvent_diagonal call.  The pair memo's P(z) makes one per
    # extension at each of the 16 distinct z (32 scalar passes), and the
    # grid passes are the 3 weyl_operator calls' and the D1 of Krein's
    # formula (4).  The suites read R1(z)'s diagonal from the sample, so no
    # pass is made from checks
    calls = []
    real = krein_module._resolvent_diagonal

    def counting(ext, z):
        calls.append((np.ndim(z), sys._getframe(1).f_globals["__name__"]))
        return real(ext, z)

    monkeypatch.setattr(krein_module, "_resolvent_diagonal", counting)
    report = cli.run_checks(cli.generate_scenario(64, 3, 3))
    assert report["summary"] == "pass"
    assert len(calls) == 36
    assert collections.Counter(ndim for ndim, _ in calls) == {0: 32, 1: 4}
    assert {caller for _, caller in calls} == {"kreinkit.krein"}


# a draw whose second extension has a Cayley eigenvalue 3e-4 to 2e-3 from 1,
# so ||a2|| is in the thousands and the inverse Cayley transform is ill
# conditioned
def test_cayley_roundtrip_holds_for_a_near_unit_cayley_eigenvalue():
    report = cli.run_checks(cli.generate_scenario(64, 3, 586626706))
    assert report["summary"] == "pass"


@given(st.sampled_from([(64, 3), (32, 3), (8, 2), (6, 6), (1, 1)]),
       st.integers(0, 2 ** 32 - 1))
# large-norm second extensions (||a2|| up to 1.49e4)
@example((64, 3), 450058655)
@example((64, 3), 586626706)
@example((64, 3), 824942258)
# n = N = 1 with |a2| about 2e3: cond(C - 1) = 1, and the error is that of
# forming C - 1 from C
@example((1, 1), 800)
def test_cayley_roundtrip_is_bounded_by_the_conditioning_of_its_solve(shape, seed):
    # the record solves (C - 1) X = C + 1 for each extension.  A
    # backward-stable solve errs by N eps cond(C - 1) relative to ||X|| = ||a||,
    # and an error of N eps in C moves C - 1 relative to itself by
    # N eps ||(C - 1)^{-1}||, which cancels where every |w| is large
    model, ext1, ext2, _ = cli.materialize(cli.generate_scenario(*shape, seed))
    eye = np.eye(model.dim)
    bound = max(10.0 * model.dim * np.finfo(float).eps
                * (np.linalg.cond(ext.cayley - eye)
                   + np.linalg.norm(np.linalg.inv(ext.cayley - eye), 2))
                for ext in (ext1, ext2))
    pair = krein_module.PairContext(model, ext1, ext2)
    assert support.layer_records(pair)["cayley_roundtrip"] <= bound


# two of the near-unit draws pinned on test_parameter_roundtrip_random_pairs
@pytest.mark.parametrize("seed", [7412, 12824])
def test_small_parameter_roundtrips_keep_hermiticity(seed):
    model, _, ext2, _ = support.random_pair(3, 3, seed)
    rebuilt = extension_module.extension_from_parameter(
        model, extension_module.parameter_of(model, ext2))
    assert frob(rebuilt.a - ext2.a) < 1e-8 * (1.0 + frob(ext2.a))


# battery workload inputs (seeds 31 and 32) that build such an extension
# inside materialize
@pytest.mark.parametrize("seed", [513004044, 1895223984])
def test_battery_report_passes_on_a_near_unit_cayley_eigenvalue(seed):
    assert cli.run_checks(cli.generate_scenario(64, 3, seed))["summary"] == "pass"


# ||a2|| = 1.49e4 on this draw: the identity is an absolute residual
def test_herglotz_identity_holds_for_a_large_norm_extension():
    model, ext1, ext2, _ = cli.materialize(cli.generate_scenario(64, 3, 450058655))
    pair = krein_module.PairContext(model, ext1, ext2)
    worst = support.records(checks.weyl_suite, pair, cli.FIXED_Z16)["herglotz_identity"]
    assert worst <= 1e-9


@given(st.sampled_from([(64, 3), (32, 3), (8, 2), (6, 6), (1, 1)]),
       st.integers(0, 2 ** 32 - 1))
# large-norm second extensions (||a2|| up to 1.49e4): swapped, they are
# references the battery never draws
@example((64, 3), 450058655)
@example((64, 3), 586626706)
@example((64, 3), 824942258)
# swapped references of norm 2.9e3 to 8.5e5 over an a1 of norm 6 to 9, which
# the Woodbury update a1 + F T F* rebuilt up to 296x past the bound, and
# whose run_checks failed or raised at 80304, 4686, 14325 and 6096
@example((6, 6), 1521)
@example((6, 6), 2304)
@example((6, 6), 6096)
@example((6, 6), 6300)
@example((6, 6), 16041)
@example((6, 6), 2120651806)
@example((8, 2), 4686)
@example((8, 2), 14325)
@example((8, 2), 80304)
@example((8, 2), 2191532363)
def test_role_swap_passes_and_rebuilds_the_reference(shape, seed):
    # a2 agrees with a1 on D, so a2 as the reference models the same
    # restriction, and a1 is its extension with parameter_of(model2, a1)
    swapped, a1 = support.role_swapped(cli.generate_scenario(*shape, seed))
    assert cli.run_checks(swapped)["summary"] == "pass"
    model2 = extension_module.build_model(swapped.a1, swapped.nplus)
    rebuilt = extension_module.extension_from_parameter(
        model2, extension_module.ExtensionParameter(swapped.parameter["unitary"]))
    # the round trip passes through the Cayley transforms of both extensions;
    # inverting one at a has relative condition about 1 + ||a||
    bound = 4.0 * shape[0] * np.finfo(float).eps * (1.0 + frob(a1)) * (1.0 + frob(swapped.a1))
    assert frob(rebuilt.a - a1) <= bound


# both parameters drawn, so neither extension is the reference (v1 != I):
# every record of checks.run, the model layer's with v1 among them, must
# hold for such a pair, as the paper's formulas do for any two self-adjoint
# extensions.  The shapes repeat so that few examples are 64 x 64
@given(st.sampled_from([(32, 3), (8, 2), (6, 6), (1, 1)] * 4 + [(64, 3)]),
       st.integers(0, 2 ** 32 - 1))
# a large-norm ext2 (||a2|| = 2.8e4) and a large-norm ext1 (||a1|| = 3.3e4),
# each from a Cayley eigenvalue about 7e-5 from 1
@example((32, 3), 16)
@example((64, 3), 21)
def test_every_suite_passes_when_neither_extension_is_the_reference(shape, seed):
    pair, v1, v2 = support.unitary_pair(*shape, seed)
    # records fail on valid extensions of norm beyond about 1e6 (ROADMAP
    # item 15); that band is not what this test is about
    assume(max(frob(pair.ext1.a), frob(pair.ext2.a)) < 1e5)
    records = list(checks.run(pair, v1, v2, list(cli.FIXED_Z16), 1e-9))
    assert "extension_parameter_roundtrip" in {rec["name"] for rec in records}
    assert not [rec for rec in records if not rec["pass"]]


def _weyl_error_scales(ext, z):
    """Three sizes that bound the error of M(z) = z + (1 + z^2) Bp* (a - z)^{-1} Bp
    of ext, per unit of roundoff, with w the spectrum and d = min |w - z|:
    its Herglotz-kernel entries (1 + |w| |z|)/|w - z|, at most
    (1 + ||a|| |z|)/d; its condition |1 + z^2|/d^2 for an error in a; and
    its condition for an error in the Cayley transform C,
    |1 + z^2| max |w - i|/(2|w - z|) (1 + |z - i|/d), from
    (a - z)^{-1} = (C - 1)((i - z) C + i + z)^{-1}, whose middle factor has
    the eigenvalues 2i (w - z)/(w - i)."""
    w = ext.spectrum.eigenvalues.real
    d = float(np.min(np.abs(w - z)))
    kernel = (1.0 + frob(ext.a) * abs(z)) / d
    in_a = abs(1.0 + z * z) / d ** 2
    in_cayley = abs(1.0 + z * z) * float(np.max(np.abs(w - 1j) / (2.0 * np.abs(w - z)))) \
        * (1.0 + abs(z - 1j) / d)
    return kernel, in_a, in_cayley


SWEEP_SHAPES = [(64, 3), (32, 3), (8, 2), (6, 6), (1, 1)]


@given(st.sampled_from(SWEEP_SHAPES), st.integers(0, 2 ** 32 - 1))
# large-norm second extensions (||a2|| up to 1.49e4)
@example((64, 3), 450058655)
@example((64, 3), 586626706)
@example((64, 3), 824942258)
# |a2| = 4.4e3 at n = N = 1
@example((1, 1), 184)
def test_unitary_change_of_basis_keeps_m_v_and_every_verdict(shape, seed):
    # a1 -> U a1 U* and nplus_raw -> U nplus_raw: the N+ basis becomes U Bp,
    # so M1(z), M2(z) and v in the N+ frame are unchanged and every record
    # moves by roundoff only.  Units of 10 (N + n) eps: each route takes
    # products over C^N and n x n solves.  The eigh of a errs by ||a|| units
    # in a, and the rank-n update that builds ext2 from the rotated a1 by
    # 1 + ||a1|| units in its Cayley transform (the inverse Cayley map then
    # scales it by up to (1 + ||a2||^2)/2 in a2); C moves by at most twice
    # an error in a, as ||(a - i)^{-1}|| <= 1
    scenario = cli.generate_scenario(*shape, seed)
    dim, deficiency = shape
    rotated = support.unitarily_rotated(
        scenario, support.random_unitary(np.random.default_rng(seed), dim))
    model, ext1, ext2, _ = cli.materialize(scenario)
    model_u, ext1_u, ext2_u, _ = cli.materialize(rotated)
    unit = 10.0 * (dim + deficiency) * np.finfo(float).eps
    in_cayley_error = 1.0 + frob(model.a1)
    for ext, ext_u in ((ext1, ext1_u), (ext2, ext2_u)):
        in_a_error = 1.0 + frob(ext.a)
        for z in scenario.z_grid:
            kernel, in_a, in_cayley = _weyl_error_scales(ext, z)
            error = frob(krein_module.weyl_operator(ext_u, model_u.nplus, z)
                         - krein_module.weyl_operator(ext, model.nplus, z))
            assert error <= unit * (kernel + in_a * in_a_error
                                    + in_cayley * in_cayley_error), (z, error)
        error = frob(extension_module.parameter_of(model_u, ext_u).v
                     - extension_module.parameter_of(model, ext).v)
        assert error <= unit * 2.0 * (in_a_error + in_cayley_error)
    verdicts = {rec["name"]: rec["pass"] for rec in cli.run_checks(scenario)["checks"]}
    assert {rec["name"]: rec["pass"] for rec in cli.run_checks(rotated)["checks"]} == verdicts


@given(st.sampled_from(SWEEP_SHAPES), st.integers(0, 2 ** 32 - 1))
@example((64, 3), 450058655)
@example((1, 1), 184)
def test_change_of_nplus_basis_conjugates_m_and_v(shape, seed):
    # nplus_raw -> nplus_raw X for an invertible n x n X: the model's N+
    # basis becomes Bp G, G = Bp* Bp' unitary, so M(z) -> G* M(z) G and
    # v -> G* v G, and G* v2 G builds the same ext2.  The QR of Bp X errs by
    # cond(X) units in the basis (units as in the test above), which moves
    # M(z) by twice that times its kernel entries and v by twice that; the
    # rebuilt a2 reads the basis and a1 in its Cayley transform
    scenario = cli.generate_scenario(*shape, seed)
    dim, deficiency = shape
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((deficiency, deficiency)) \
        + 1j * rng.standard_normal((deficiency, deficiency))
    model, ext1, ext2, v2 = cli.materialize(scenario)
    moved = extension_module.build_model(scenario.a1, scenario.nplus @ x)
    g = model.nplus.basis.conj().T @ moved.nplus.basis
    unit = 10.0 * (dim + deficiency) * np.finfo(float).eps * np.linalg.cond(x)
    assert frob(g.conj().T @ g - np.eye(deficiency)) <= unit
    for ext in (ext1, ext2):
        for z in scenario.z_grid:
            kernel, _, _ = _weyl_error_scales(ext, z)
            m = krein_module.weyl_operator(ext, model.nplus, z)
            error = frob(krein_module.weyl_operator(ext, moved.nplus, z) - g.conj().T @ m @ g)
            assert error <= unit * 3.0 * kernel, (z, error)
        v = extension_module.parameter_of(model, ext).v
        error = frob(extension_module.parameter_of(moved, ext).v - g.conj().T @ v @ g)
        assert error <= unit * 2.0
    rebuilt = extension_module.extension_from_parameter(
        moved, extension_module.ExtensionParameter(g.conj().T @ v2 @ g))
    assert frob(rebuilt.a - ext2.a) <= unit * (1.0 + frob(model.a1)) * (1.0 + frob(ext2.a)) ** 2


# defect 1, the scenario of the primeness decision: angle diag(pi/2 - eps, 0.3)
def _defect_1(eps):
    return dataclasses.replace(
        cli.generate_scenario(8, 2, 5),
        parameter={"angle": np.diag([math.pi / 2 - eps, 0.3]).astype(complex)},
    )


# defect 2: a z-grid point at |z| = 1e6
def _defect_2():
    return dataclasses.replace(cli.generate_scenario(8, 2, 5), z_grid=[1e6j, 1 + 1j])


# the Cayley gap of defect 1 is about 2 eps, so the one decision
# (gap > 1e-9) reads prime exactly for eps >= 7e-10
@pytest.mark.parametrize("eps", [1e-6, 3e-9, 1.5e-9, 7e-10, 3e-10, 0.0])
def test_every_pair_runs_one_code_path_near_the_degenerate_angle(eps):
    checks = {rec["name"]: rec for rec in cli.run_checks(_defect_1(eps))["checks"]}
    assert not [name for name, rec in checks.items() if "error" in rec]
    note = checks["relatively_prime_consistency"]["note"]
    assert note == ("relatively prime" if eps >= 7e-10 else "not relatively prime")
    # the sine/cosine forms hold on both sides of the decision; the rank-type
    # records (p_range_constancy and its kin) are not asserted here
    for name in ("krein_vs_direct", "angle_tan_inversion", "p_inverse_via_weyl",
                 "lft_angle_vs_direct", "vonneumann_link"):
        assert checks[name]["pass"], (name, checks[name])


def test_large_z_grid_keeps_the_weyl_operator_accurate():
    # at |z| = 1e6 the Herglotz-kernel form of M(z) cancels nothing, so the
    # Herglotz identity and both forms of the law hold there
    checks = {rec["name"]: rec for rec in cli.run_checks(_defect_2())["checks"]}
    for name in ("herglotz_identity", "lft_direct", "lft_angle_vs_direct"):
        assert checks[name]["pass"], (name, checks[name])


# range_drift is computed from P(z)|N+ and the leakage of P(z) off N+; it
# must bound the drift of the full-space range, measured by the oracle,
# wherever that drift is above roundoff
@pytest.mark.parametrize("scenario", [
    _defect_1(1e-6), _defect_1(3e-9), _defect_2(),
    cli.generate_scenario(64, 3, 3), cli.generate_scenario(8, 2, 0),
    cli.generate_scenario(6, 6, 1), cli.generate_scenario(1, 1, 2),
], ids=["defect1-1e-6", "defect1-3e-9", "defect2", "64x3", "8x2", "6x6", "1x1"])
def test_range_drift_bounds_the_full_space_drift(scenario):
    model, ext1, ext2, _ = cli.materialize(scenario)
    pair = krein_module.PairContext(model, ext1, ext2)
    zs = scenario.z_grid
    for z, zp in zip(zs, zs[1:] + zs[:1]):
        oracle = support.full_range_drift(pair, z, zp)
        # on the grid [z, zp] the record is this pair's drift, which is
        # symmetric in z and zp
        drift = support.records(checks.p_function_suite, pair, [z, zp])["p_range_constancy"]
        assert oracle <= 1e-14 or drift >= oracle, (z, zp, oracle, drift)


@pytest.mark.parametrize("scenario", [
    _defect_1(1e-6), _defect_1(3e-9), _defect_1(1.5e-9), _defect_1(7e-10), _defect_2(),
], ids=["defect1-1e-6", "defect1-3e-9", "defect1-1.5e-9", "defect1-7e-10", "defect2"])
def test_defect_scenarios_fail_range_constancy(scenario):
    # the bound stays sensitive: a compressed-range drift alone reads
    # roundoff on these scenarios, where the full-space drift does not.
    # At eps 1.5e-9 and 7e-10 the pair is prime (the angle's rank is 2), so
    # the leak is divided by sigma_2(P(z)|N+), of the order of eps, at every z
    checks = {rec["name"]: rec for rec in cli.run_checks(scenario)["checks"]}
    assert not checks["p_range_constancy"]["pass"]


def _table_rows(text, heading):
    """The cells of each body row of the first table after the heading,
    split at the bars that are not escaped."""
    lines = text[text.index(heading):].splitlines()
    start = next(k for k, line in enumerate(lines) if line.startswith("|"))
    end = next(k for k in range(start, len(lines)) if not lines[k].startswith("|"))
    return [[cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]]
            for line in lines[start + 2:end]]


def test_readme_records_table_matches_the_default_reports():
    # README's table of records has one row per record name of a default
    # check report and of a default halfline report, and no other, and each
    # row names the routes of both sides of its comparison; every criterion
    # row names a record or a tier-1 test, and the records it names are
    # those whose criterion column cites it
    root = pathlib.Path(__file__).resolve().parent.parent
    text = (root / "README.md").read_text(encoding="utf-8")
    rows = _table_rows(text, "## Records")
    table = {row[0].strip("`"): (row[1], {int(k) for k in row[5].split(",")}) for row in rows}
    assert len(table) == len(rows)
    assert all(" / " in row[3] for row in rows), [row[0] for row in rows if " / " not in row[3]]
    check = cli.run_checks(cli.generate_scenario(8, 2, 3))["checks"]
    half = cli.halfline_command(list(halfline.DEFAULT_ALPHA2), list(halfline.DEFAULT_Z))["checks"]
    for report, recs in (("check", check), ("halfline", half)):
        assert {name for name, (where, _) in table.items() if where == report} \
            == {rec["name"] for rec in recs}
    tests = set(re.findall(r"^def (test_\w+)", "".join(
        path.read_text(encoding="utf-8") for path in (root / "tests").glob("test_*.py")), re.M))
    criteria = _table_rows(text, "| criterion | check |")
    assert [row[0] for row in criteria] == [str(k) for k in range(1, 11)]
    for row in criteria:
        named = re.findall(r"`([a-z0-9_]+)`", row[3])
        assert named and set(named) <= set(table) | tests, row
        cited = {name for name, (_, ks) in table.items() if int(row[0]) in ks}
        assert set(named) & set(table) == cited, row
    assert "test_criterion_09_weyl_fixed_point" in criteria[8][3]
    assert "support.direct_sum_codimension" in criteria[5][3]
