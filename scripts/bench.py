"""Time the command line from a cold start, on one or more source trees.

Usage:
    python3 scripts/bench.py --src src --src ../parent/src --runs 10 --out BENCH.json

Each --src is a directory that holds the `kreinkit` package.  Every case
runs in a fresh interpreter with PYTHONPATH set to that directory alone:
`python -c "import kreinkit.cli"`, then `python -m kreinkit check` on a
seeded scenario file of each shape in SHAPES.  The scenario files are generated
once, by the first tree, so every tree checks the same bytes.  Runs
alternate between the trees, and the order flips on every round, so a slow
phase of the host falls on both sides.  The JSON output holds each side's
samples, median and quartiles, the BLAS thread variables as the runs saw
them, the processor count, and the Python, numpy and scipy versions.  A
case whose exit code differs between runs of one tree stops the script.
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


def _run(src: str, args: list) -> tuple:
    """(wall seconds, exit code) of one fresh interpreter on tree `src`."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *args], env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, timeout=600)
    return time.perf_counter() - start, done.returncode


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

        samples = {case: {src: [] for src in args.src} for case in cases}
        exits = {case: {} for case in cases}
        for round_index in range(args.runs):
            order = args.src if round_index % 2 == 0 else args.src[::-1]
            for case, case_args in cases.items():
                for src in order:
                    seconds, code = _run(src, case_args)
                    if exits[case].setdefault(src, code) != code:
                        print(f"bench.py: {case} on {src} exited {code}, "
                              f"earlier {exits[case][src]}", file=sys.stderr)
                        return 1
                    samples[case][src].append(seconds)

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
        "cases": {case: {src: {"exit_code": exits[case][src], **_summary(samples[case][src])}
                         for src in args.src}
                  for case in cases},
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    for case, per_tree in result["cases"].items():
        for src, stats in per_tree.items():
            print(f"{case:22s} {src:30s} median {stats['median_s'] * 1e3:8.1f} ms  "
                  f"quartiles {stats['q1_s'] * 1e3:.1f}-{stats['q3_s'] * 1e3:.1f} ms  "
                  f"exit {stats['exit_code']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
