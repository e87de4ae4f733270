"""Show which check records move between two source trees.

Usage:
    python3 scripts/record_diff.py --src ../parent/src --src src

Each --src is a directory that holds the `kreinkit` package, as for
scripts/bench.py; the first is tree A, the second tree B.  Every tree runs in
a fresh interpreter with PYTHONPATH set to that directory and to tests/ (for
the scenario builders of tests/support.py).  Tree A first writes the input
set, so both trees check the same scenario bytes:

  * the identity sweeps that CI runs (SWEEPS, as scripts/identity_sweep.py
    takes them), and the scenarios TIGHTEST at 1e-14, the tightest
    tolerance a scenario may carry, so that a record a change deletes or
    redefines shows its pass/fail at every accepted tolerance;
  * the failing sets of the rank and leakage defects: (8, 2) seed 5 with the
    angle diag(pi/2 - eps, 0.3) for each eps of DEGENERATE_EPS, the same
    scenario on the grid [1e6 i, 1 + i], and the pairs UNITARY_PAIRS of
    support.unitary_pair (neither extension the reference) on FIXED_Z16;
  * the band near a self-adjoint relation, support.near_unit_scenario at
    every case and delta of NEAR_UNIT, and the role-swapped draws
    support.role_swapped of the scenarios ROLE_SWAPPED;
  * the default `kreinkit halfline` grid and the halfline workload ops
    HALFLINE_OPS (workload seed, 0-based op index) of perfbench.

For each record name the script prints its worst residual on each tree,
the largest |log10(r_B / r_A)| over the inputs, each residual floored at
eps, the number of inputs on which the record's residual or state is not
bit for bit the same on both trees (NaN equals NaN), and the input where
the largest |log10| is.  A record that one tree reports on
inputs where the other does not, say one that a tree deleted, is listed on
one line: its name, the tree that has it and on how many inputs.  Then it
lists every input and record of both trees whose pass/fail or error class
differs, with both values.  Nothing it prints goes into a report.  It
informs and is no gate: the exit status is 0, also when a tree fails to
run (its error is printed).
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
TESTS = os.path.join(HERE, os.pardir, "tests")
PERFBENCH = os.path.join(HERE, os.pardir, "perfbench")
EPS = 2.220446049250313e-16

# (dims, deficiencies, seeds 0..seeds-1) of the CI identity sweeps
SWEEPS = (((2, 4, 8), (1, 2), 2), ((32,), (1,), 9), ((1, 64), (1, 3), 2),
          ((3, 6), (3, 6), 2), ((8, 64), (2, 3), 3))
TIGHTEST = ((8, 2, 3), (64, 3, 3))
DEGENERATE_EPS = (1e-6, 3e-9, 1.5e-9, 7e-10, 3e-10)
UNITARY_PAIRS = ((32, 3, 4891), (32, 3, 268435455))
NEAR_UNIT = (((8, 2, 5), (64, 3, 5), (32, 1, 8), (8, 1, 5)), (1e-5, 1e-6, 1e-7, 1e-8))
ROLE_SWAPPED = ((64, 3, 450058655), (64, 3, 586626706), (64, 3, 824942258),
                (6, 6, 1521), (6, 6, 2304), (6, 6, 6096), (6, 6, 6300), (6, 6, 16041),
                (6, 6, 2120651806), (8, 2, 4686), (8, 2, 14325), (8, 2, 80304),
                (8, 2, 2191532363))
HALFLINE_OPS = ((110, 931),)


def _build_inputs() -> list:
    """[(label, input)] of the whole input set, each input a JSON document:
    {"scenario": ...}, {"pair": [dim, deficiency, seed]} or
    {"halfline": [alpha2 list, z list as [re, im]]}."""
    import dataclasses

    import numpy as np

    import support
    from kreinkit import cli
    from kreinkit import halfline as hl
    from kreinkit.errors import KreinKitError

    scenarios = []
    for dims, defs, seeds in SWEEPS:
        for dim in dims:
            for deficiency in defs:
                scenarios += [(f"sweep ({dim},{deficiency},{seed})",
                               lambda d=dim, n=deficiency, s=seed: cli.generate_scenario(d, n, s))
                              for seed in range(seeds) if deficiency <= dim]
    scenarios += [(f"({dim},{deficiency},{seed}) tolerance 1e-14",
                   lambda c=(dim, deficiency, seed): dataclasses.replace(
                       cli.generate_scenario(*c), tolerance=1e-14))
                  for dim, deficiency, seed in TIGHTEST]
    base = cli.generate_scenario(8, 2, 5)
    for eps in DEGENERATE_EPS:
        angle = np.diag([math.pi / 2 - eps, 0.3]).astype(complex)
        scenarios.append((f"(8,2,5) angle diag(pi/2 - {eps:g}, 0.3)",
                          lambda a=angle: dataclasses.replace(base, parameter={"angle": a})))
    scenarios.append(("(8,2,5) grid [1e6 i, 1 + i]",
                      lambda: dataclasses.replace(base, z_grid=[1e6j, 1 + 1j])))
    cases, deltas = NEAR_UNIT
    scenarios += [(f"near-unit ({dim},{deficiency},{seed}) delta {delta:g}",
                   lambda c=(dim, deficiency, seed), d=delta: support.near_unit_scenario(*c, d))
                  for dim, deficiency, seed in cases for delta in deltas]
    scenarios += [(f"role-swapped ({dim},{deficiency},{seed})",
                   lambda c=(dim, deficiency, seed): support.role_swapped(cli.generate_scenario(*c))[0])
                  for dim, deficiency, seed in ROLE_SWAPPED]

    inputs, seen = [], set()
    for label, build in scenarios:
        if label in seen:
            continue
        seen.add(label)
        try:
            inputs.append((label, {"scenario": build().to_json()}))
        except KreinKitError as exc:
            inputs.append((label, {"raised": type(exc).__name__}))
    inputs += [(f"unitary pair ({dim},{deficiency},{seed})", {"pair": [dim, deficiency, seed]})
               for dim, deficiency, seed in UNITARY_PAIRS]

    def halfline_input(alpha2, zs):
        return {"halfline": [list(alpha2), [[complex(z).real, complex(z).imag] for z in zs]]}

    inputs.append(("halfline default grid", halfline_input(hl.DEFAULT_ALPHA2, hl.DEFAULT_Z)))
    sys.path.insert(0, PERFBENCH)
    import workloads

    for seed, op in HALFLINE_OPS:
        stream = workloads.Halfline(seed)
        for _ in range(op):
            stream.next_input()
        inputs.append((f"halfline seed {seed} op {op}", halfline_input(*stream.next_input())))
    return inputs


def _records(inputs: list) -> dict:
    """{label: [compact record]} of every input, a record as [name,
    max_residual, pass, error class or None]; an input whose build or check
    raised is the one record "raised" with the error's class."""
    import support
    from kreinkit import checks, cli
    from kreinkit.errors import KreinKitError

    def raised(error):
        return [{"name": "raised", "max_residual": -1.0, "pass": False, "error": error}]

    out = {}
    for label, doc in inputs:
        try:
            if "raised" in doc:
                recs = raised(doc["raised"])
            elif "scenario" in doc:
                recs = cli.run_checks(cli.ScenarioFile.from_json(doc["scenario"]))["checks"]
            elif "pair" in doc:
                pair, v1, v2 = support.unitary_pair(*doc["pair"])
                recs = list(checks.run(pair, v1, v2, list(cli.FIXED_Z16), 1e-9))
            else:
                alpha2, zs = doc["halfline"]
                recs = cli.halfline_command(alpha2, [complex(*z) for z in zs])["checks"]
        except KreinKitError as exc:
            recs = raised(type(exc).__name__)
        out[label] = [[rec["name"], float(rec["max_residual"]), bool(rec["pass"]),
                       rec.get("error")] for rec in recs]
    return out


def _worker(mode: str, path: str) -> int:
    if mode == "inputs":
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(_build_inputs(), handle)
        return 0
    with open(path, encoding="utf-8") as handle:
        inputs = json.load(handle)
    json.dump(_records(inputs), sys.stdout)
    return 0


def _run(src: str, args: list) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.abspath(src),
                                                      os.path.abspath(TESTS)]))
    return subprocess.run([sys.executable, os.path.abspath(__file__), *args], env=env,
                          capture_output=True, text=True, timeout=1800)


def _state(rec) -> str:
    name, residual, passed, error = rec
    if error:
        return f"error {error}"
    return f"{'pass' if passed else 'fail'} {residual:.6g}"


def _floored(r: float) -> float:
    return math.log10(max(r, EPS))


def _differs(ra, rb) -> bool:
    """Whether two compact records of one name differ in residual, pass or
    error class; a NaN residual equals a NaN."""
    same = ra[1] == rb[1] or (math.isnan(ra[1]) and math.isnan(rb[1]))
    return not same or ra[2:] != rb[2:]


def compare(a: dict, b: dict) -> tuple:
    """(rows, flips, one_tree): per record name [worst r_A, worst r_B, max
    |dlog10|, input of that max, number of inputs that both trees report it
    on and where it differs (_differs)]; per input and record that both trees
    report and whose pass/fail or error class differs (label, name, state A,
    state B); and per record and tree "A" or "B" that alone reports it on
    some inputs, [number of those inputs, the first of them]."""
    rows, flips, one_tree = {}, [], {}
    for label in a:
        recs_a = {rec[0]: rec for rec in a[label]}
        recs_b = {rec[0]: rec for rec in b.get(label, [])}
        for name in [*recs_a, *(n for n in recs_b if n not in recs_a)]:
            ra, rb = recs_a.get(name), recs_b.get(name)
            if ra is None or rb is None:
                seen = one_tree.setdefault((name, "B" if ra is None else "A"), [0, label])
                seen[0] += 1
            elif ra[2] != rb[2] or ra[3] != rb[3]:
                flips.append((label, name, _state(ra), _state(rb)))
            row = rows.setdefault(name, [-math.inf, -math.inf, 0.0, None, 0])
            for k, rec in ((0, ra), (1, rb)):
                if rec is not None and not rec[3] and not math.isnan(rec[1]):
                    row[k] = max(row[k], rec[1])
            if ra is None or rb is None:
                continue
            row[4] += _differs(ra, rb)
            if ra[3] or rb[3]:
                continue
            if math.isnan(ra[1]) or math.isnan(rb[1]):
                move = 0.0 if math.isnan(ra[1]) and math.isnan(rb[1]) else math.inf
            else:
                move = abs(_floored(rb[1]) - _floored(ra[1]))
            if move > row[2]:
                row[2], row[3] = move, label
    return rows, flips, one_tree


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", action="append", help="directory holding the kreinkit package; "
                    "give it twice, tree A then tree B")
    ap.add_argument("--worker", nargs=2, metavar=("MODE", "PATH"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        return _worker(*args.worker)
    if not args.src or len(args.src) != 2:
        ap.error("give --src twice")
    for src in args.src:
        if not os.path.isfile(os.path.join(src, "kreinkit", "__init__.py")):
            ap.error(f"no kreinkit package under {src}")

    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "inputs.json")
        done = _run(args.src[0], ["--worker", "inputs", path])
        if done.returncode != 0:
            print(f"record_diff.py: building the inputs on {args.src[0]} failed:\n{done.stderr}")
            return 0
        results = []
        for src in args.src:
            done = _run(src, ["--worker", "records", path])
            if done.returncode != 0:
                print(f"record_diff.py: checking on {src} failed:\n{done.stderr}")
                return 0
            results.append(json.loads(done.stdout))

    rows, flips, one_tree = compare(*results)
    print(f"A = {args.src[0]}, B = {args.src[1]}, {len(results[0])} inputs")
    width = max(map(len, rows))
    print(f"{'record':<{width}}  {'worst A':>10}  {'worst B':>10}  {'max |dlog10|':>12}"
          f"  {'differ':>6}  at")
    for name in sorted(rows):
        worst_a, worst_b, move, where, differ = rows[name]
        cells = "  ".join(f"{w:10.3e}" if w > -math.inf else f"{'-':>10}" for w in (worst_a, worst_b))
        print(f"{name:<{width}}  {cells}  {move:12.3f}  {differ:6d}  {where or ''}")
    print()
    if one_tree:
        print(f"{len(one_tree)} records reported by one tree only:")
        for (name, tree), (count, first) in sorted(one_tree.items()):
            print(f"  {name}: {tree} only, on {count} inputs, first {first}")
    print(f"{len(flips)} pass/fail or error flips" + (":" if flips else ""))
    for label, name, state_a, state_b in flips:
        print(f"  {label}: {name}: {state_a} -> {state_b}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
