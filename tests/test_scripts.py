"""Tests for the scripts that drive the check suite over many scenarios."""

import ast
import hashlib
import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np

import support
from kreinkit import cli
from kreinkit import krein
from kreinkit.errors import NumericalFailure

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"
SRC = SCRIPTS.parent / "src"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_identity_sweep_counts_each_failing_scenario_once(monkeypatch, capsys):
    # seed 0 raises out of run_checks; seed 1 returns a report with five
    # error records.  Each counts as one failed scenario.  The digest reads
    # each scenario's report, or its "raised" line, and then its two M(z)
    # tables, which flag the collision row by row
    raising = cli.generate_scenario(2, 1, 0)
    collision = cli.ScenarioFile.from_json(support.SPECTRAL_COLLISION)
    real_run_checks = cli.run_checks

    def run_checks(scenario, tol_override=None):
        if scenario is raising:
            raise NumericalFailure("injected")
        return real_run_checks(scenario, tol_override)

    monkeypatch.setattr(cli, "generate_scenario",
                        lambda dim, deficiency, seed: (raising, collision)[seed])
    monkeypatch.setattr(cli, "run_checks", run_checks)

    def tables(scenario):
        return b"".join(cli._dump_json(cli.tabulate_m(scenario, which)).encode("utf-8")
                        for which in (1, 2))

    expected = hashlib.sha256(
        b"raised NumericalFailure: injected\n" + tables(raising)
        + cli._dump_json(real_run_checks(collision)).encode("utf-8") + tables(collision)
    ).hexdigest()

    sweep = _load("identity_sweep")
    outputs = []
    for _ in range(2):
        assert sweep.main(["--dims", "1", "--defs", "1", "--seeds", "2"]) == 1
        outputs.append(capsys.readouterr().out.splitlines())
    first, second = outputs
    assert first[0] == "raised NumericalFailure: injected at dim=1 n=1 seed=0"
    assert first[-2].startswith("2 scenarios, 2 failed, ")
    assert first[-1] == second[-1] == f"reports sha256 {expected}"


def test_identity_sweep_reports_do_not_depend_on_the_blas_thread_count():
    # one (1, 1) scenario: its n = 1 report once moved in the last bits
    # between one and two OpenBLAS threads.  Each child process gets its
    # thread count before numpy is imported, whatever this process runs with
    lines = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        done = subprocess.run(
            [sys.executable, str(SCRIPTS / "identity_sweep.py"),
             "--dims", "1", "--defs", "1", "--seeds", "1"],
            env=env, capture_output=True, text=True, timeout=300, check=True)
        lines.append(done.stdout.splitlines()[-1])
    assert lines[0].startswith("reports sha256 ")
    assert lines[0] == lines[1]


def test_bench_writes_medians_per_tree(monkeypatch, tmp_path):
    src = str(SCRIPTS.parent / "src")
    out = tmp_path / "bench.json"
    bench = _load("bench")
    monkeypatch.setattr(bench, "SHAPES", ((2, 1),))
    monkeypatch.setattr(bench, "KERNELS", {"inverse n=1": bench.KERNELS["inverse n=1"]})
    assert bench.main(["--src", src, "--runs", "1", "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert set(result["cases"]) == {"import kreinkit.cli", "check (2,1)"}
    assert set(result["kernels"]) == {"inverse n=1"}
    for per_tree in [*result["cases"].values(), *result["kernels"].values()]:
        stats = per_tree[src]
        assert stats["exit_code"] == 0
        assert stats["q1_s"] == stats["median_s"] == stats["q3_s"] == stats["samples_s"][0] > 0.0
    assert set(result["machine"]["thread_variables"]) == set(bench.THREAD_VARIABLES)


def test_bench_stops_on_a_failing_kernel(monkeypatch, tmp_path, capsys):
    src = str(SCRIPTS.parent / "src")
    out = tmp_path / "bench.json"
    bench = _load("bench")
    monkeypatch.setattr(bench, "SHAPES", ((2, 1),))
    monkeypatch.setattr(bench, "KERNELS", {"raises": ("raise SystemExit(3)", "pass", 1)})
    assert bench.main(["--src", src, "--runs", "1", "--out", str(out)]) == 1
    assert f"kernel raises on {src} exited 3" in capsys.readouterr().err
    assert not out.exists()


def test_bench_kernels_run_on_the_current_tree(monkeypatch):
    # every kernel's set-up and statement run once; a set-up that no longer
    # matches the library would otherwise surface only in a full bench run
    monkeypatch.setattr(sys, "path", sys.path[:])  # set-ups may extend it
    kernels = _load("bench").KERNELS
    # the layers of a halfline op each have a kernel of their own
    assert {"halfline_command", "quadrature 8 z of a halfline input",
            "verify_halfline default grid"} <= set(kernels)
    for setup, stmt, _ in kernels.values():
        namespace = {}
        exec(setup, namespace)
        exec(stmt, namespace)


def test_mutation_matrix_prints_every_mutant_and_exits_0(capsys):
    matrix = _load("mutation_matrix")
    assert matrix.main(["--case", "8", "2", "3", "--repeats", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"1 cases [(8, 2, 3)], {len(support.MUTANTS)} mutants, ")
    header = lines[1].split()
    assert header[:3] == ["record", "suite", "ms"]
    assert header[3:] == [str(k) for k in range(1, len(support.MUTANTS) + 1)]
    assert any(line.split()[:2] == ["lft_direct", "lft_suite"] for line in lines)
    for k, name in enumerate(support.MUTANTS, 1):
        assert any(line.startswith(f"{k:>2} {name}: fails ") for line in lines)


def test_mutation_matrix_exits_1_on_a_mutant_that_fails_no_record(monkeypatch, capsys):
    matrix = _load("mutation_matrix")
    monkeypatch.setattr(support, "MUTANTS", {"no change": lambda mp: None})
    assert matrix.main(["--case", "1", "1", "2", "--repeats", "1"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == [" 1 no change: fails 0", "mutants that fail no record: ['no change']"]


def test_mutation_matrix_exits_1_on_a_mutant_that_one_case_misses(monkeypatch, capsys):
    # M(z) transposed at N = 4 alone: (4, 2) fails records, (1, 1) none
    matrix = _load("mutation_matrix")
    weyl = krein.weyl_operator

    def transposed_at_4(ext, subspace, z):
        m = weyl(ext, subspace, z)
        return np.swapaxes(m, -1, -2) if ext.dim == 4 else m

    monkeypatch.setattr(support, "MUTANTS", {"weyl at N = 4 transposed": lambda mp: mp.setattr(
        krein, "weyl_operator", transposed_at_4)})
    assert matrix.main(["--case", "4", "2", "1", "--case", "1", "1", "2", "--repeats", "1"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "mutants that fail no record on some case: {'weyl at N = 4 transposed': [(1, 1, 2)]}"


def test_mutation_matrix_exits_1_on_a_record_that_no_mutant_fails(monkeypatch, capsys):
    # the Herglotz bound's mutant fails herglotz_bound alone on (8, 2, 3), so
    # every other record of its report fails under no mutant
    matrix = _load("mutation_matrix")
    name = "Herglotz bound times 1.5"
    monkeypatch.setattr(support, "MUTANTS", {name: support.MUTANTS[name]})
    assert matrix.main(["--case", "8", "2", "3", "--repeats", "1"]) == 1
    out = capsys.readouterr().out.splitlines()
    names = {rec["name"] for rec in cli.run_checks(cli.generate_scenario(8, 2, 3))["checks"]}
    prefix = "records that fail under no mutant: "
    assert out[-2] == f" 1 {name}: fails 1" and out[-1].startswith(prefix)
    assert sorted(ast.literal_eval(out[-1][len(prefix):])) == sorted(names - {"herglotz_bound"})


def test_record_diff_of_a_tree_with_itself_moves_nothing(monkeypatch, capsys):
    # the same tree twice: every record's movement is 0, it differs on no
    # input, and nothing flips.  The 82 inputs hold (8, 2, 3) and (64, 3, 3)
    # at the tightest tolerance a scenario accepts
    diff = _load("record_diff")
    assert diff.main(["--src", str(SRC), "--src", str(SRC)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith(", 82 inputs") and lines[1].split()[0] == "record"
    monkeypatch.setattr(sys, "path", sys.path[:])  # _build_inputs extends it
    inputs = dict(diff._build_inputs())
    for case in ("(8,2,3)", "(64,3,3)"):
        assert inputs[f"{case} tolerance 1e-14"]["scenario"]["tolerance"] == 1e-14
    rows = lines[2:lines.index("")]
    assert {"krein_vs_direct", "p_translation", "quadrature_roundtrip"} <= {
        row.split()[0] for row in rows}
    # an error-record name has no residual on either tree
    assert all(row.split()[-2:] == ["0.000", "0"] for row in rows)
    # both M(z) tables of each of the 78 scenario inputs
    assert lines[lines.index("") + 1] == (
        "mfunc tables: 0 of 78 inputs differ in bits, largest relative entry change "
        "0.000e+00 at -")
    assert lines[-1] == "0 pass/fail or error flips"


def test_record_diff_compares_each_record_over_the_inputs():
    # one record scaled by 2 on one input moves by log10 2 and no other;
    # a pass that turns into a failure, and an error that changes class,
    # are flips
    diff = _load("record_diff")
    a = {"x": [["r", 1e-10, True, None], ["s", 3e-12, True, None]],
         "y": [["r", 4e-13, True, None], ["suite", -1.0, False, "SpectralParameter"]]}
    b = {"x": [["r", 2e-10, True, None], ["s", 3e-12, True, None]],
         "y": [["r", 4e-9, False, None], ["suite", -1.0, False, "NotInvariant"]]}
    rows, flips, one_tree = diff.compare(a, {"x": b["x"], "y": a["y"]})
    assert rows["r"][:2] == [1e-10, 2e-10] and rows["r"][3] == "x"
    assert math.isclose(rows["r"][2], math.log10(2.0), rel_tol=1e-12)
    assert rows["s"][2] == 0.0 and flips == [] and one_tree == {}
    assert rows["r"][4] == 1 and rows["s"][4] == rows["suite"][4] == 0
    # r scaled by 2 on every input differs on every input; NaN equals NaN
    doubled = {label: [[n, 2.0 * r, p, e] if n == "r" else [n, r, p, e]
                       for n, r, p, e in recs] for label, recs in a.items()}
    assert diff.compare(a, doubled)[0]["r"][4] == 2
    nan = {"x": [["r", math.nan, False, None]]}
    assert diff.compare(nan, nan)[0]["r"][4] == 0
    rows, flips, one_tree = diff.compare(a, b)
    assert rows["r"][1] == 4e-9 and rows["r"][3] == "y"
    assert math.isclose(rows["r"][2], 4.0, rel_tol=1e-12)
    assert flips == [("y", "r", "pass 4e-13", "fail 4e-09"),
                     ("y", "suite", "error SpectralParameter", "error NotInvariant")]
    assert one_tree == {}


def test_record_diff_compares_both_mfunc_tables_of_each_input():
    # the rows of tables 1 and 2 per input: one moved entry of M(z) is one
    # input that differs, by its relative change; a table that raises on one
    # tree only, a NaN against a number and a missing input differ by inf;
    # NaN equals NaN
    diff = _load("record_diff")
    row = {"z": [0.0, 2.0], "m": [[[1e-3, 0.5]]], "lambda_min": 1.0, "herglotz_bound": 1.0}
    moved = {**row, "m": [[[1e-3, 0.5 + 2.0 ** -41]]]}
    collision = {"z": [1.0, 1e-12], "error": "SpectralParameter"}
    a = {"x": [[row, collision], [row, collision]], "y": [[row], "SpectralParameter"]}
    assert diff.compare_tables(a, a) == (0, 2, 0.0, None)
    differ, inputs, largest, where = diff.compare_tables(a, {**a, "x": [[row, collision],
                                                                        [moved, collision]]})
    assert (differ, inputs, where) == (1, 2, "x")
    assert math.isclose(largest, 2.0 ** -41 / abs(complex(1e-3, 0.5 + 2.0 ** -41)),
                        rel_tol=1e-12)
    assert diff.compare_tables(a, {**a, "y": [[row], [row]]}) == (1, 2, math.inf, "y")
    assert diff.compare_tables(a, {"x": a["x"]}) == (1, 2, math.inf, "y")
    nan = {"x": [[{**row, "lambda_min": math.nan}], "SpectralParameter"]}
    assert diff.compare_tables(nan, nan) == (0, 1, 0.0, None)
    assert diff.compare_tables(nan, {"x": [[row], "SpectralParameter"]}) == (1, 1, math.inf, "x")


def test_record_diff_lists_a_record_one_tree_lacks_once():
    # a record that tree B dropped, passing on one input and failing on the
    # other, is one entry with its input count, and no flip; a record that
    # only B reports is its own entry
    diff = _load("record_diff")
    a = {"x": [["r", 1e-10, True, None], ["gone", 1e-16, True, None]],
         "y": [["r", 4e-13, True, None], ["gone", 2.0, False, None]]}
    b = {"x": [["r", 1e-10, True, None]],
         "y": [["r", 4e-13, True, None], ["new", 1e-12, True, None]]}
    rows, flips, one_tree = diff.compare(a, b)
    assert flips == []
    assert one_tree == {("gone", "A"): [2, "x"], ("new", "B"): [1, "y"]}
    assert rows["gone"] == [2.0, -math.inf, 0.0, None, 0]
    assert rows["r"][2] == 0.0
