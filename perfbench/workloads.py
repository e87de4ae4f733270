"""The two workloads.  Each is one closed loop in one process, driven from
the workload seed: set-up builds the fixed inputs, next_input draws the next
op's input (untimed), run is the op (timed), check validates its output
(untimed) and returns a description of what is wrong, or None.

Imported only after the BLAS thread variables are pinned (see worker.py).
"""

from __future__ import annotations

import math
import random

import kreinkit.cli as cli


def seed_stream(seed: int, name: str) -> random.Random:
    return random.Random(f"{name}:{seed}")


def report_problem(report: dict):
    """None for a passing report, else which checks failed."""
    if report.get("summary") == "pass":
        return None
    failed = [f"{c.get('name')} {c.get('max_residual')} > {c.get('tolerance')}"
              for c in report.get("checks", []) if not c.get("pass")]
    return f"summary {report.get('summary')!r}, failed checks {failed}"


class Workload:
    """Defaults shared by the workloads.  Op inputs come from their own seed
    stream, so rewind() replays the same inputs without redoing set-up."""

    # Ops per second the loop is planned for on a 2-vCPU x86-64 VM when the
    # host slows it.  A run makes round(seconds * rate) ops, so that the
    # inputs, and which of them fail, depend on the seed alone.
    rate: float

    def __init__(self, seed: int):
        self.seed = seed
        self.rewind()

    def planned_ops(self, seconds: float) -> int:
        return max(1, round(seconds * self.rate))

    def rewind(self) -> None:
        self.rng = seed_stream(self.seed, self.name + ":ops")

    def label(self, inp):
        """What identifies an op's input in a failure record."""
        return None


class Battery(Workload):
    """cli.run_checks on generated (64, 3) scenarios, one scenario per op."""

    name = "battery"
    rate = 1.2
    trace_ops = 6
    shape = (64, 3)

    def next_input(self):
        s = self.rng.getrandbits(31)
        return s, cli.generate_scenario(*self.shape, s)

    def label(self, inp):
        return inp[0]

    def run(self, inp):
        return cli.run_checks(inp[1])

    def check(self, inp, report):
        return report_problem(report)


class Halfline(Workload):
    """cli.halfline_command on 8 seeded alpha2 and 8 seeded non-real z."""

    name = "halfline"
    rate = 25.0
    trace_ops = 120

    def next_input(self):
        r = self.rng
        alpha2 = [r.uniform(0.0, math.pi) for _ in range(8)]
        zs = []
        for _ in range(8):
            im = math.exp(r.uniform(math.log(0.1), math.log(5.0)))
            zs.append(complex(r.uniform(-4.0, 4.0), im if r.random() < 0.5 else -im))
        return alpha2, zs

    def run(self, inp):
        return cli.halfline_command(*inp)

    def check(self, inp, report):
        return report_problem(report)


WORKLOADS = {w.name: w for w in (Battery, Halfline)}
