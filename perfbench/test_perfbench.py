"""Tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
from loop import Loop, closed_loop  # noqa: E402


@pytest.mark.parametrize("n, expected", [
    (1, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
    (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
    (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_is_highest_with_ten_beyond(n, expected):
    p = stats.tail_percentile(n)
    assert p == expected
    if p is not None:
        assert stats.beyond(n, p) >= stats.MIN_BEYOND
    higher = [q for q in stats.TAIL_LADDER if p is None or q > p]
    assert all(stats.beyond(n, q) < stats.MIN_BEYOND for q in higher)


def test_tail_value_is_nearest_rank_or_the_median():
    values = [float(v) for v in range(100, 0, -1)]
    assert stats.tail(values) == (90.0, 90.0)
    assert stats.tail(values[:40]) == (75.0, 90.0)  # 61..100: 30th value
    assert stats.tail([2.0, 1.0]) == (50.0, 1.5)
    assert stats.nearest_rank([3.0], 99.9) == 3.0


def test_self_time_of_nested_spans():
    # root [0, 100] holds a [10, 40] (which holds [20, 30]) and b [50, 70]
    spans_ = [
        ("root", 0, 100, -1),
        ("a", 10, 40, 0),
        ("inner", 20, 30, 1),
        ("b", 50, 70, 0),
        ("next_root", 100, 110, -1),
    ]
    assert stats.self_times(spans_) == [50, 20, 10, 20, 10]


def test_covered_merges_overlaps_and_clips():
    assert stats.covered([(5, 15), (10, 20), (30, 40)], 0, 35) == 20
    assert stats.covered([], 0, 10) == 0
    assert stats.covered([(0, 50)], 10, 20) == 10


def test_distinct_ratio_counts_inputs_at_the_numpy_attribute():
    a = np.diag([1.0, 2.0])
    b = np.diag([3.0, 4.0])
    recorder = spans.Recorder()
    recorder.install()
    try:
        for m in (a, b, a.copy(), a):
            np.linalg.eigvalsh(m)
        op, _ = recorder.take_op()
    finally:
        recorder.uninstall()
    assert op.lapack["eigvalsh"] == [4, 2]
    metrics = spans.per_layer_metrics(op, 2, 1.0, 1.0)
    assert metrics["lapack.eigvalsh.calls"]["value"] == 2.0
    assert metrics["lapack.eigvalsh.distinct_ratio"]["value"] == 0.5
    assert metrics["lapack.svd.distinct_ratio"]["value"] == 0.0
    assert stats.distinct_ratio(0, 0) == 0.0


def test_recorder_wraps_every_binding_and_restores_them():
    import kreinkit
    import kreinkit.cli as cli
    import kreinkit.krein as kr
    import kreinkit.numerics as nm

    original = nm.solve_linear
    recorder = spans.Recorder()
    recorder.install()
    try:
        assert cli.solve_linear is nm.solve_linear is kreinkit.solve_linear
        assert nm.solve_linear is not original
        model = kreinkit.build_model(np.diag([1.0, 2.0, 3.0]), np.ones((3, 1)))
        recorder.take_op()
        kr.weyl_operator(model.reference, model.nplus, 1j)
        op, local = recorder.take_op()
    finally:
        recorder.uninstall()
    assert nm.solve_linear is original and cli.solve_linear is original
    assert op.functions["krein.weyl_operator"][0] == 1
    assert op.functions["numerics.solve_linear"][0] == 1
    assert op.lapack["lu_factor"][0] == 1
    root = [s for s in local if s[3] == -1]
    assert len(root) == 1
    total_self = sum(own for _, own in op.functions.values())
    assert total_self == root[0][2] - root[0][1]


class Flaky:
    """Synthetic workload whose odd inputs raise and whose input 4 is wrong."""

    def __init__(self):
        self.n = 0

    def next_input(self):
        self.n += 1
        return self.n

    def label(self, inp):
        return inp

    def run(self, inp):
        if inp % 2:
            raise ValueError(f"odd {inp}")
        return inp

    def check(self, inp, out):
        return "four" if out == 4 else None


def test_failures_are_counted_and_the_loop_goes_on():
    workload = Flaky()
    loop = Loop(workload)
    outcomes = [loop.op(workload.run, workload.next_input()) for _ in range(6)]
    assert outcomes == [False, True] * 3
    assert loop.attempted == 6
    assert [f["input"] for f in loop.failures] == [1, 3, 5]
    assert {f["error"] for f in loop.failures} == {"ValueError"}
    assert loop.failures[0]["where"].startswith("test_perfbench.py:")
    assert len(loop.ok_ms) == 3
    assert [w["input"] for w in loop.wrong] == [4]

    doc = loop.to_json()
    metrics, details = run.end_to_end(doc, [1.0, 3.0, 2.0], 2048)
    assert details["unbounded"]["fail_ratio"]["value"] == 0.5
    assert metrics["ok_ratio"]["value"] == 0.5
    assert metrics["setup_s"]["value"] == 2.0
    assert metrics["peak_rss_mb"]["value"] == 2.0
    assert metrics["op_min_ms"]["value"] == min(doc["ok_ms"])
    assert details["unbounded"]["ops_per_s"]["value"] == pytest.approx(3 / doc["busy_s"])


def test_closed_loop_runs_the_planned_op_count_and_at_least_one():
    assert closed_loop(Flaky(), 0).attempted == 1
    assert closed_loop(Flaky(), 7).attempted == 7
