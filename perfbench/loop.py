"""One pass of ops over a workload: timing, failure records, output checks."""

from __future__ import annotations

import os
import time
import traceback


def failure_record(exc: BaseException, op, label) -> dict:
    """Error class, message and raising line of a failed attempt."""
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return {
        "op": op,
        "input": label,
        "error": type(exc).__name__,
        "message": str(exc)[:200],
        "where": f"{os.path.basename(frame.filename)}:{frame.lineno}",
    }


class Loop:
    """Counts, op times and failure records of one pass over inputs."""

    def __init__(self, workload):
        self.workload = workload
        self.failures: list[dict] = []
        self.attempted = 0
        self.busy = 0.0          # summed wall time of all ops, seconds
        self.ok_ms: list[float] = []
        self.wrong: list[dict] = []

    def op(self, run, inp) -> bool:
        """One op: run is timed; a raised exception is a failed op and the
        loop goes on; the output is checked after the timer stops.  True
        when the op did not raise."""
        index = self.attempted
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = run(inp)
        except Exception as exc:  # every program error is a counted failure
            self.busy += time.perf_counter() - start
            self.failures.append(failure_record(exc, index, self.workload.label(inp)))
            return False
        elapsed = time.perf_counter() - start
        self.busy += elapsed
        self.ok_ms.append(elapsed * 1e3)
        problem = self.workload.check(inp, out)
        if problem is not None:
            self.wrong.append({"op": index, "input": self.workload.label(inp),
                               "problem": problem})
        return True

    def to_json(self) -> dict:
        return {"attempted": self.attempted, "busy_s": self.busy, "ok_ms": self.ok_ms,
                "failures": self.failures, "wrong": self.wrong}


def closed_loop(workload, ops: int) -> Loop:
    """`ops` ops back to back (at least one).  The count is fixed before the
    loop starts, never read off the clock, so a given seed always runs the
    same inputs and meets the same failures, however fast the host is."""
    loop = Loop(workload)
    for _ in range(max(1, ops)):
        loop.op(workload.run, workload.next_input())
    return loop
