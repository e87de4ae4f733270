"""Time the command line from a cold start, and the kernels in process, on
one or more source trees.

Usage:
    python3 scripts/bench.py --src src --src ../parent/src --runs 10 --out BENCH.json

Each --src is a directory that holds the `kreinkit` package.  Every case
runs in a fresh interpreter with PYTHONPATH set to that directory alone.
The cold-start cases ("cases" in the output) time the whole process:
`python -c "import kreinkit.cli"`, then `python -m kreinkit check` on a
seeded scenario file of each shape in SHAPES.  The scenario files are generated
once, by the first tree, so every tree checks the same bytes.  The kernel
cases ("kernels") time one call in process: each interpreter runs the
case's set-up, then prints the best per-call time of KERNEL_REPEATS
samples; a kernel that exits non-zero stops the script with exit code 1.
Runs alternate between the trees, and the order flips on every round, so a
slow phase of the host falls on both sides.  The JSON output
holds each side's samples, median and quartiles, the BLAS thread variables
as the runs saw them, the processor count, and the Python, numpy and scipy
versions.  A case whose exit code differs between runs of one tree stops
the script.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SHAPES = ((8, 2), (32, 3), (64, 3))
SCENARIO_SEED = 3
PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")

_INVERSE = "import numpy as np\nfrom kreinkit.numerics import inverse\n"
_RANDOM = _INVERSE + ("g = np.random.default_rng(0).standard_normal((2, {n}, {n}))\n"
                      "a = g[0] + 1j * g[1]")
# name -> (set-up, timed statement, calls per sample)
KERNELS = {
    "halfline_command": (
        f"import sys\nsys.path.insert(0, {PERFBENCH!r})\nimport workloads\n"
        "from kreinkit import cli\ninp = workloads.Halfline(1).next_input()",
        "cli.halfline_command(*inp)", 2),
    "extension_from_parameter (64,3)": (
        "from kreinkit import cli\n"
        "from kreinkit.extension import ExtensionParameter, extension_from_parameter\n"
        f"model, _, _, v2 = cli.materialize(cli.generate_scenario(64, 3, {SCENARIO_SEED}))\n"
        "p = ExtensionParameter(v2)",
        "extension_from_parameter(model, p)", 20),
    # the model layer on its own: build_model (the eigh of a1 and two
    # N x n QRs), and checks.model_layer on a fresh pair memo of the
    # battery input's extensions
    "build_model (64,3)": (
        f"import sys\nsys.path.insert(0, {PERFBENCH!r})\nimport workloads\n"
        "from kreinkit.extension import build_model\n"
        f"_, scenario = workloads.Battery({SCENARIO_SEED}).next_input()",
        "build_model(scenario.a1, scenario.nplus)", 10),
    "model_layer (64,3)": (
        f"import sys\nsys.path.insert(0, {PERFBENCH!r})\nimport workloads\n"
        "import numpy as np\n"
        "from kreinkit import checks, cli\nfrom kreinkit.krein import PairContext\n"
        f"_, scenario = workloads.Battery({SCENARIO_SEED}).next_input()\n"
        "model, ext1, ext2, v2 = cli.materialize(scenario)",
        "list(checks.model_layer(PairContext(model, ext1, ext2), np.eye(3), v2, 1e-9))", 10),
    "run_checks battery input": (
        f"import sys\nsys.path.insert(0, {PERFBENCH!r})\nimport workloads\n"
        f"from kreinkit import cli\n_, scenario = workloads.Battery({SCENARIO_SEED}).next_input()",
        "cli.run_checks(scenario)", 1),
    # n = N: every gated denominator is 64 x 64
    "run_checks (64,64)": (
        "from kreinkit import cli\n"
        f"scenario = cli.generate_scenario(64, 64, {SCENARIO_SEED})",
        "cli.run_checks(scenario)", 1),
    # M(z) of one extension at the 26 distinct points of the 16-point grid,
    # its conjugates and i, in one call: more than weyl_suite reads (i and
    # the grid), kept so that the kernel's times compare across trees
    "weyl_operator battery grid (64,3)": (
        f"import sys\nsys.path.insert(0, {PERFBENCH!r})\nimport workloads\n"
        "import numpy as np\nfrom kreinkit import cli\nfrom kreinkit import krein as kr\n"
        f"_, scenario = workloads.Battery({SCENARIO_SEED}).next_input()\n"
        "model, ext1, _, _ = cli.materialize(scenario)\n"
        "zs = scenario.z_grid\n"
        "pts = np.array(list(dict.fromkeys([1j, *zs, *(z.conjugate() for z in zs)])))",
        "kr.weyl_operator(ext1, model.nplus, pts)", 50),
    # P(z) over the grid on a fresh pair memo, as the first suite of a
    # report to read it: the full P(z) at each grid z and the SVDs of
    # P(z)|N+
    "p_function_suite (64,3)": (
        f"import sys\nsys.path.insert(0, {PERFBENCH!r})\nimport workloads\n"
        "from kreinkit import checks, cli\nfrom kreinkit.krein import PairContext\n"
        f"_, scenario = workloads.Battery({SCENARIO_SEED}).next_input()\n"
        "model, ext1, ext2, _ = cli.materialize(scenario)",
        "list(checks.p_function_suite(PairContext(model, ext1, ext2), scenario.z_grid, 1e-9))",
        10),
    # Krein's formula against the direct side over the grid, on a memo
    # whose angle is already cached
    "krein_suite (64,3)": (
        f"import sys\nsys.path.insert(0, {PERFBENCH!r})\nimport workloads\n"
        "from kreinkit import checks, cli\nfrom kreinkit.krein import PairContext\n"
        f"_, scenario = workloads.Battery({SCENARIO_SEED}).next_input()\n"
        "pair = PairContext(*cli.materialize(scenario)[:3])\npair.angle",
        "list(checks.krein_suite(pair, scenario.z_grid, 1e-9))", 10),
    # the two suites in report order on a fresh pair memo per call: the
    # timed loops of krein_suite (64,3) reuse one memo, so an entry the
    # suite caches on its first call (ext2's resolvent in PairContext.p) is
    # free in the best time, and only this kernel charges it to the suites
    "p_function_suite + krein_suite (64,3)": (
        f"import sys\nsys.path.insert(0, {PERFBENCH!r})\nimport workloads\n"
        "from kreinkit import checks, cli\nfrom kreinkit.krein import PairContext\n"
        f"_, scenario = workloads.Battery({SCENARIO_SEED}).next_input()\n"
        "model, ext1, ext2, _ = cli.materialize(scenario)",
        "pair = PairContext(model, ext1, ext2)\n"
        "list(checks.p_function_suite(pair, scenario.z_grid, 1e-9))\n"
        "list(checks.krein_suite(pair, scenario.z_grid, 1e-9))", 10),
    # the provenance digest that every run_checks and tabulate_m computes
    "ScenarioFile.sha256 (64,3)": (
        f"import sys\nsys.path.insert(0, {PERFBENCH!r})\nimport workloads\n"
        f"_, scenario = workloads.Battery({SCENARIO_SEED}).next_input()",
        "scenario.sha256()", 10),
    "inverse n=1": (_RANDOM.format(n=1), "inverse(a)", 2000),
    "inverse n=3": (_RANDOM.format(n=3), "inverse(a)", 2000),
    # n = N: the gated inverse at the size of the largest denominator a
    # scenario can have, deficiency equal to dimension
    "inverse n=N=64": (_RANDOM.format(n=64), "inverse(a)", 100),
    # the eight 1x1 denominators of one angle-form law call in the halfline
    # command, as one stack
    "inverse 8 stacked 1x1": (
        _INVERSE + "a = ((1.0 + 1.0j) * np.arange(1, 9)).reshape(8, 1, 1)",
        "inverse(a)", 2000),
    "lft_m1_to_m2_angle 1x1": (
        "import numpy as np\n"
        "from kreinkit.extension import Extension, build_model\n"
        "from kreinkit.krein import angle_operator, lft_m1_to_m2_angle\n"
        "model = build_model(np.zeros((1, 1)), np.eye(1))\n"
        "angle = angle_operator(model.reference, Extension(np.ones((1, 1))), model.nplus)\n"
        "m = np.array([[1.0 + 1.0j]])",
        "lft_m1_to_m2_angle(m, angle)", 2000),
    # eight M-values through the angle law, one call on their stack
    "lft_m1_to_m2_angle 8 stacked 1x1": (
        "import numpy as np\n"
        "from kreinkit.extension import Extension, build_model\n"
        "from kreinkit.krein import angle_operator, lft_m1_to_m2_angle\n"
        "model = build_model(np.zeros((1, 1)), np.eye(1))\n"
        "angle = angle_operator(model.reference, Extension(np.ones((1, 1))), model.nplus)\n"
        "ms = (1.0 + 1.0j) * np.arange(1, 9).reshape(8, 1, 1)",
        "lft_m1_to_m2_angle(ms, angle)", 500),
    # the Simpson rule
    "halfline._cumulative 4001": (
        "import numpy as np\nfrom kreinkit import halfline as hl\n"
        "x = np.linspace(0.0, 40.0, 4001)\ny = np.exp((-0.3 + 1j) * x)",
        "hl._cumulative(y, 0.01)", 200),
    "dirichlet_resolvent_quadrature": (
        "import numpy as np\nfrom kreinkit import halfline as hl\n"
        "grid = hl.QuadratureGrid()\nf = np.exp(-grid.points())",
        "hl.dirichlet_resolvent_quadrature(f, 1j, grid)", 20),
    # verify_halfline's data: the bump -g'' - z g, zero on the right half
    "dirichlet_resolvent_quadrature bump": (
        "from kreinkit import halfline as hl\n"
        "grid = hl.QuadratureGrid()\nx = grid.points()\n"
        "g, g2 = hl._bump_with_second_derivative(x, float(x[grid.nodes // 2]))\n"
        "f = -g2 - 1j * g",
        "hl.dirichlet_resolvent_quadrature(f, 1j, grid)", 20),
    # the quadrature round trip of one halfline workload input: the bump
    # solved at each of its eight z
    "quadrature 8 z of a halfline input": (
        f"import sys\nsys.path.insert(0, {PERFBENCH!r})\nimport workloads\n"
        "from kreinkit import halfline as hl\n"
        "_, zs = workloads.Halfline(1).next_input()\n"
        "grid = hl.QuadratureGrid()\ng, g2 = grid.bump",
        "[hl.dirichlet_resolvent_quadrature(-g2 - z * g, z, grid) for z in zs]", 5),
    # the law step of a halfline op: the closed forms and both
    # fractional-linear laws on the default grid
    "verify_halfline default grid": (
        "from kreinkit import halfline as hl",
        "hl.verify_halfline()", 50),
}
KERNEL_REPEATS = 7
_KERNEL_MAIN = """{setup}
import timeit
best = min(timeit.Timer({stmt!r}, globals=globals()).repeat({repeats}, {number}))
print(best / {number})
"""


def _run(src: str, args: list) -> tuple:
    """(wall seconds, exit code) of one fresh interpreter on tree `src`."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *args], env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, timeout=600)
    return time.perf_counter() - start, done.returncode


def _run_kernel(src: str, args: list) -> tuple:
    """(seconds per call, exit code) that one fresh interpreter on tree
    `src` prints for a kernel case; None seconds when it failed."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=600)
    if done.returncode != 0:
        return None, done.returncode
    return float(done.stdout.split()[-1]), 0


def _summary(samples: list) -> dict:
    if len(samples) > 1:
        q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    else:
        q1 = median = q3 = samples[0]
    return {"median_s": median, "q1_s": q1, "q3_s": q3, "samples_s": samples}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", action="append", required=True,
                    help="directory holding the kreinkit package; repeat to compare trees")
    ap.add_argument("--runs", type=int, default=10, help="fresh processes per case and tree")
    ap.add_argument("--out", required=True, help="path of the JSON result")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    for src in args.src:
        if not os.path.isfile(os.path.join(src, "kreinkit", "__init__.py")):
            ap.error(f"no kreinkit package under {src}")

    with tempfile.TemporaryDirectory() as scratch:
        cases = {"import kreinkit.cli": ["-c", "import kreinkit.cli"]}
        for dim, deficiency in SHAPES:
            path = os.path.join(scratch, f"scenario_{dim}x{deficiency}.json")
            _, code = _run(args.src[0], ["-m", "kreinkit", "gen", "--dim", str(dim),
                                         "--def", str(deficiency),
                                         "--seed", str(SCENARIO_SEED), "-o", path])
            if code != 0:
                print(f"bench.py: gen {dim}x{deficiency} exited {code}", file=sys.stderr)
                return 1
            cases[f"check ({dim},{deficiency})"] = ["-m", "kreinkit", "check", path]

        kernels = {
            case: ["-c", _KERNEL_MAIN.format(setup=setup, stmt=stmt,
                                             repeats=KERNEL_REPEATS, number=number)]
            for case, (setup, stmt, number) in KERNELS.items()
        }
        runners = [(cases, _run), (kernels, _run_kernel)]
        samples = {case: {src: [] for src in args.src} for case in [*cases, *kernels]}
        exits = {case: {} for case in samples}
        for round_index in range(args.runs):
            order = args.src if round_index % 2 == 0 else args.src[::-1]
            for table, run in runners:
                for case, case_args in table.items():
                    for src in order:
                        seconds, code = run(src, case_args)
                        if seconds is None:
                            print(f"bench.py: kernel {case} on {src} exited {code}",
                                  file=sys.stderr)
                            return 1
                        if exits[case].setdefault(src, code) != code:
                            print(f"bench.py: {case} on {src} exited {code}, "
                                  f"earlier {exits[case][src]}", file=sys.stderr)
                            return 1
                        samples[case][src].append(seconds)

    def per_tree(case):
        return {src: {"exit_code": exits[case][src], **_summary(samples[case][src])}
                for src in args.src}

    result = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"),
            "platform": platform.platform(),
            "thread_variables": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        },
        "runs": args.runs,
        "scenario_seed": SCENARIO_SEED,
        "cases": {case: per_tree(case) for case in cases},
        "kernel_repeats": KERNEL_REPEATS,
        "kernels": {case: per_tree(case) for case in kernels},
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    for case, trees in {**result["cases"], **result["kernels"]}.items():
        for src, stats in trees.items():
            print(f"{case:30s} {src:30s} median {stats['median_s'] * 1e3:9.4g} ms  "
                  f"quartiles {stats['q1_s'] * 1e3:.4g}-{stats['q3_s'] * 1e3:.4g} ms  "
                  f"exit {stats['exit_code']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
