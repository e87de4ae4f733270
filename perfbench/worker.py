"""Run one workload in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED MODE SECONDS OUTDIR

from the root of a checkout.  The worker pins the BLAS thread count, imports
kreinkit from the checkout's src/, builds the workload's fixed inputs and
prints READY; the parent times set-up up to that line.  MODE is
  setup  stop there;
  run    closed loop of untimed input, timed op, untimed output check, for
         the op count the workload plans for SECONDS (see Workload.rate);
  trace  the workload's first trace_ops inputs without tracing, then the
         same inputs again with every public kreinkit function wrapped.
The last line of output is one JSON object with the raw results.
"""

import os
import sys
import time

# Pinned before numpy is imported: with more than one OpenBLAS thread the
# small LU solves of the in-process workloads cost several times more.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)
sys.path.insert(0, os.path.abspath("src"))

_t = time.perf_counter()
import kreinkit.cli  # noqa: E402,F401  (timed: the cli.import_ms metric)

IMPORT_MS = (time.perf_counter() - _t) * 1e3

import json  # noqa: E402
import resource  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from loop import Loop, closed_loop  # noqa: E402


def traced(workload, outdir: str) -> dict:
    """Per-layer totals per successful op over the first trace_ops inputs,
    plus the ratio of traced to untraced throughput on those same inputs.
    Failed ops are left out of the totals, so that the counts do not depend
    on which seeds happen to fail."""
    count = workload.trace_ops
    workload.rewind()
    plain = Loop(workload)
    for _ in range(count):
        plain.op(workload.run, workload.next_input())

    workload.rewind()
    loop = Loop(workload)
    recorder = spans.Recorder()
    total = spans.OpTrace()
    op_spans = []
    recorder.install()
    try:
        for _ in range(count):
            inp = workload.next_input()
            recorder.take_op()  # drop whatever input generation recorded
            ok = loop.op(workload.run, inp)
            op, local = recorder.take_op()
            if ok:
                total.add(op)
                op_spans.append(local)
    finally:
        recorder.uninstall()
    if not loop.ok_ms:
        return {"loop": loop.to_json()}

    with open(os.path.join(outdir, "spans.json"), "w", encoding="utf-8") as fh:
        json.dump({"names": recorder.names, "ops": op_spans}, fh)
    return {
        "loop": loop.to_json(),
        "per_layer": spans.per_layer_metrics(
            total, len(loop.ok_ms), IMPORT_MS, plain.busy / loop.busy
        ),
    }


def platform() -> dict:
    import numpy
    import scipy

    def blas(config):
        return config.get("Build Dependencies", {}).get("blas", {}).get("version")

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(numpy.show_config(mode="dicts")),
        "scipy_openblas": blas(scipy.show_config(mode="dicts")),
    }


def main(argv) -> int:
    name, seed, mode, seconds, outdir = argv
    workload = workloads.WORKLOADS[name](int(seed))
    print("READY", flush=True)
    result = {"import_ms": IMPORT_MS, "platform": platform(),
              "blas_threads": BLAS_THREADS}
    if mode == "run":
        result["loop"] = closed_loop(
            workload, workload.planned_ops(float(seconds))).to_json()
    elif mode == "trace":
        result.update(traced(workload, outdir))
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
