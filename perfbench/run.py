"""kreinkit benchmark: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a kreinkit checkout; the program is imported from its
src/ directory.  With --trace 0 the run times set-up in several fresh
interpreters, then runs the workload's closed loop for the number of ops it
plans for S seconds, checks every op's output and prints the end-to-end
metrics.  With --trace 1 it runs the traced pass instead and prints the
per-layer metrics.  The last line of
output is one JSON object: correct, attempted, failed and metrics.  The
workloads are described in perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
import time

import stats

WORKLOADS = ("battery", "halfline")
SETUP_PROBES = 4      # set-up-only interpreters; the measuring one adds a fifth
DEADLINE_S = 170.0    # the whole run, probes included
HERE = os.path.dirname(os.path.abspath(__file__))
OUT_ROOT = ".perfbench_out"


class BenchError(Exception):
    pass


def spawn(args, mode: str, outdir: str, deadline: float):
    """Start a worker; return (seconds until READY, its result object)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), args.workload,
           str(args.seed), mode, str(args.seconds), outdir]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    try:
        ready = None
        for line in proc.stdout:
            if line.strip() == "READY":
                ready = time.perf_counter() - start
                break
        rest = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None or not rest:
        raise BenchError(f"worker {mode} exited {code} (ready={ready is not None})")
    return ready, json.loads(rest[-1])


def end_to_end(loop: dict, setup: list[float], peak_rss_kb: int) -> tuple[dict, dict]:
    """(metrics, details) of a closed loop with at least one successful op."""
    ok = loop["ok_ms"]
    attempted = loop["attempted"]
    percentile, tail = stats.tail(ok)
    metrics = {
        "setup_s": (stats.median(setup), "s"),
        "op_min_ms": (min(ok), "ms"),
        "ok_ratio": (len(ok) / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }
    # Printed with the metrics but left out of BENCHMARK.json: on a shared
    # host they spread by more than any bound allows (see NOTES.md).
    unbounded = {
        "op_p50_ms": (stats.median(ok), "ms"),
        "op_tail_ms": (tail, "ms"),
        "ops_per_s": (len(ok) / loop["busy_s"], "1/s"),
        "fail_ratio": (len(loop["failures"]) / attempted, "ratio"),
    }
    details = {
        "samples": len(ok),
        "tail_percentile": percentile,
        "unbounded": {k: {"value": v, "unit": u} for k, (v, u) in unbounded.items()},
        "setup_samples_s": setup,
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join("src", "kreinkit", "__init__.py")):
        print("run.py: no src/kreinkit here; run from the root of a kreinkit checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    outdir = os.path.join(OUT_ROOT, f"{args.workload}-{args.seed}-trace{args.trace}")
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    try:
        # Half the probes run before the measuring worker and half after it,
        # so that the median samples the host's speed over the whole run.
        probes = 0 if args.trace else SETUP_PROBES
        setup = [spawn(args, "setup", outdir, deadline)[0] for _ in range(probes // 2)]
        ready, result = spawn(args, "trace" if args.trace else "run", outdir, deadline)
        setup += [spawn(args, "setup", outdir, deadline)[0]
                  for _ in range(probes - probes // 2)]
    except (BenchError, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    loop = result["loop"]
    if not loop["ok_ms"]:
        print(f"run.py: no op succeeded: {loop['failures'][:3]}", file=sys.stderr)
        return 1
    if args.trace:
        metrics, details = result["per_layer"], {}
    else:
        metrics, details = end_to_end(loop, setup + [ready], result["peak_rss_kb"])

    details.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "failures": loop["failures"], "wrong": loop["wrong"],
        "blas_threads": result["blas_threads"], "platform": result["platform"],
        "spans_file": os.path.join(outdir, "spans.json") if args.trace else None,
    })
    print(json.dumps({"details": details}))
    for name, m in {**metrics, **details.get("unbounded", {})}.items():
        print(f"{args.workload} {name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not loop["wrong"],
        "attempted": loop["attempted"],
        "failed": len(loop["failures"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
