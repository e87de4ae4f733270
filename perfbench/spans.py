"""Tracing from outside the program.

Recorder wraps every public function of the five kreinkit layers at each
module binding that refers to it (cli and krein import names directly, so
patching the defining module alone would miss calls), and counts the LAPACK
entry points at their numpy/scipy attributes (krein calls
np.linalg.eigvalsh directly).  Spans (function, start, end, parent) stay in
memory; self time and per-function totals are derived per op.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import time

import numpy as np

import stats

LAYERS = ("cli", "krein", "extension", "numerics", "halfline")

# Functions reported one by one; every other public function still counts
# toward its layer's totals.
REPORTED = {
    "cli": ("run_checks", "materialize", "halfline_command"),
    "krein": ("weyl_operator", "p_function", "krein_resolvent", "herglotz_check",
              "angle_operator", "general_lft_check", "choose_third_extension",
              "p_translation_check"),
    "extension": ("build_model", "extension_from_parameter", "parameter_of",
                  "inverse_cayley", "is_relatively_prime", "common_plus_subspace",
                  "check_cayley_geometry"),
    "numerics": ("solve_linear", "hermitian_eig", "unitary_eig", "orthonormal_range",
                 "apply_function_normal"),
    "halfline": ("verify_halfline", "dirichlet_resolvent_quadrature"),
}

LAPACK = {
    "lu_factor": ("scipy.linalg", "lu_factor"),
    "eigvalsh": ("numpy.linalg", "eigvalsh"),
    "eigh": ("numpy.linalg", "eigh"),
    "svd": ("numpy.linalg", "svd"),
    "schur": ("scipy.linalg", "schur"),
}


def public_functions():
    """(layer, name, function) for every public function a layer defines."""
    for layer in LAYERS:
        module = importlib.import_module(f"kreinkit.{layer}")
        for name, obj in sorted(vars(module).items()):
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_")):
                yield layer, name, obj


def digest(matrix) -> bytes:
    a = np.ascontiguousarray(matrix)
    h = hashlib.blake2b(a.tobytes(), digest_size=16)
    h.update(repr((a.shape, a.dtype.str)).encode())
    return h.digest()


class Recorder:
    """Installs the wrappers; collects spans and LAPACK inputs per op."""

    def __init__(self):
        self.names: list[str] = []   # "layer.function", indexed by span name id
        self.spans: list = []        # (name id, start ns, end ns, parent index)
        self._stack: list[int] = []
        self._lapack: dict[str, list[bytes]] = {k: [] for k in LAPACK}
        self._restore: list = []
        self._taken = 0

    def install(self) -> None:
        wrappers = {}
        for layer, name, fn in public_functions():
            self.names.append(f"{layer}.{name}")
            wrappers[id(fn)] = self._span_wrapper(len(self.names) - 1, fn)
        for modname, module in list(sys.modules.items()):
            if modname != "kreinkit" and not modname.startswith("kreinkit."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patch(module, attr, wrappers[id(value)])
        for key, (modname, attr) in LAPACK.items():
            module = sys.modules[modname]
            self._patch(module, attr, self._lapack_wrapper(key, getattr(module, attr)))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _patch(self, module, attr, replacement) -> None:
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def _span_wrapper(self, name_id: int, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name_id, start, clock(), parent)
                stack.pop()

        return wrapper

    def _lapack_wrapper(self, key: str, fn):
        inputs = self._lapack[key]

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            inputs.append(digest(a))
            return fn(a, *args, **kwargs)

        return wrapper

    def take_op(self):
        """(OpTrace, spans) of everything recorded since the previous call;
        the spans' parent indices count from the first of them."""
        local = [(n, s, e, p - self._taken if p >= 0 else -1)
                 for n, s, e, p in self.spans[self._taken:]]
        self._taken = len(self.spans)
        op = OpTrace.from_spans(self.names, local)
        for key, inputs in self._lapack.items():
            op.lapack[key] = [len(inputs), len(set(inputs))]
            inputs.clear()
        return op, local


class OpTrace:
    """Per-function [calls, self ns] and per-LAPACK-routine [calls, distinct]."""

    def __init__(self):
        self.functions: dict[str, list[int]] = {}
        self.lapack: dict[str, list[int]] = {k: [0, 0] for k in LAPACK}

    @classmethod
    def from_spans(cls, names, spans) -> "OpTrace":
        op = cls()
        for (name_id, *_), own in zip(spans, stats.self_times(spans)):
            entry = op.functions.setdefault(names[name_id], [0, 0])
            entry[0] += 1
            entry[1] += own
        return op

    def add(self, other: "OpTrace") -> None:
        for name, (calls, own) in other.functions.items():
            entry = self.functions.setdefault(name, [0, 0])
            entry[0] += calls
            entry[1] += own
        for key, (calls, distinct) in other.lapack.items():
            self.lapack[key][0] += calls
            self.lapack[key][1] += distinct


def per_layer_metrics(total: OpTrace, ops: int, import_ms: float,
                      overhead_ratio: float) -> dict:
    """The per-layer metrics, per op, from the totals over `ops` ops."""
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for layer in LAYERS:
        rows = [v for k, v in total.functions.items() if k.split(".")[0] == layer]
        put(f"{layer}.self_ms", sum(v[1] for v in rows) / 1e6 / ops, "ms")
        put(f"{layer}.calls", sum(v[0] for v in rows) / ops, "count")
        for fn in REPORTED[layer]:
            calls, own = total.functions.get(f"{layer}.{fn}", (0, 0))
            put(f"{layer}.{fn}.calls", calls / ops, "count")
            put(f"{layer}.{fn}.self_ms", own / 1e6 / ops, "ms")
    put("cli.import_ms", import_ms, "ms")
    for key, (calls, distinct) in total.lapack.items():
        put(f"lapack.{key}.calls", calls / ops, "count")
        put(f"lapack.{key}.distinct_ratio", stats.distinct_ratio(calls, distinct), "ratio")
    put("trace.overhead_ratio", overhead_ratio, "ratio")
    return out
