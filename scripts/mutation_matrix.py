"""Print which check records fail under each named mutant of the library.

Usage:
    python3 scripts/mutation_matrix.py --case 8 2 3 --case 64 3 3

The mutants are the table MUTANTS of tests/support.py, each one library
formula changed by a monkeypatch.  Each --case (dim, deficiency, seed) is
checked two ways: the report of run_checks on generate_scenario(dim,
deficiency, seed), and every record of checks.run, the model layer's
included, on a pair of that scenario's model whose two extensions come from
random unitary parameters (support.unitary_pair), where ext1 is not the
reference.  Without --case the cases are support.MUTATION_CASES.

The matrix has one row per record and one column per mutant: R marks a
record that fails in a report, P one that fails on a pair, RP both.  An
error record counts under the name of its suite.  Next to each record
stands its suite and the suite's time on the unmutated reports, summed over
the cases (best of --repeats, the suites run in report order on one fresh
pair memo, so a shared entry is timed in the suite that reads it first).
A record that is the only one to fail under some mutant is marked "only".

Exit status 1 if a mutant fails no record on some case, if a record of
the unmutated reports fails under no mutant on any case (a record that
cannot fail shows nothing), or if a record fails unmutated.
"""

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests"))

import support  # noqa: E402
from kreinkit import checks, cli  # noqa: E402
from kreinkit import krein as kr  # noqa: E402


def suite_times(cases, repeats):
    """{suite name: ms} and {record name: suite name} over the unmutated
    reports of the cases (checks.suite_runs, as run_checks reads them)."""
    best, owner = {}, {}
    for dim, deficiency, seed in cases:
        scenario = cli.generate_scenario(dim, deficiency, seed)
        model, ext1, ext2, v2 = cli.materialize(scenario)
        samples = {}
        for _ in range(repeats):
            pair = kr.PairContext(model, ext1, ext2)
            for name, records in checks.suite_runs(pair, np.eye(deficiency), v2,
                                                   scenario.z_grid, scenario.tolerance):
                started = time.perf_counter()
                for rec in records:
                    owner[rec["name"]] = name
                samples.setdefault(name, []).append(time.perf_counter() - started)
        for name, values in samples.items():
            best[name] = best.get(name, 0.0) + 1e3 * min(values)
    return best, owner


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--case", type=int, nargs=3, action="append", metavar=("DIM", "DEF", "SEED"),
                    help="a (dim, deficiency, seed) case; repeat for more")
    ap.add_argument("--repeats", type=int, default=5, help="timing samples per suite")
    args = ap.parse_args(argv)
    cases = [tuple(case) for case in args.case] if args.case else list(support.MUTATION_CASES)

    unmutated = support.failing_records(cases)
    if unmutated:
        print(f"records that fail unmutated: {sorted(unmutated)}")
        return 1
    times, owner = suite_times(cases, args.repeats)
    started = time.perf_counter()
    caught, missed = {}, {}
    for name in support.MUTANTS:
        caught[name] = {}
        with support.mutant(name):
            for case in cases:
                failing = support.failing_records([case])
                if not failing:
                    missed.setdefault(name, []).append(case)
                for record, kinds in failing.items():
                    caught[name].setdefault(record, set()).update(kinds)
    elapsed = time.perf_counter() - started

    never = [row for row in owner if not any(row in f for f in caught.values())]
    errors = sorted({r for f in caught.values() for r in f} - set(owner))
    owner.update((name, name) for name in errors if name in times)
    rows = list(owner) + [name for name in errors if name not in owner]
    only = {next(iter(f)) for f in caught.values() if len(f) == 1}
    width = max(len(r) for r in rows)
    suite_width = max(map(len, times))
    print(f"{len(cases)} cases {cases}, {len(caught)} mutants, {elapsed:.2f} s")
    header = f"{'record':<{width}}  {'suite':<{suite_width}}  {'ms':>6}  "
    print(header + " ".join(f"{k + 1:>2}" for k in range(len(caught))))
    for row in rows:
        suite = owner.get(row, "")
        ms = f"{times[suite]:6.2f}" if suite in times else " " * 6
        marks = ("".join(kind[0].upper() for kind in sorted(f.get(row, ()), reverse=True))
                 for f in caught.values())
        cells = " ".join(f"{mark or '.':>2}" for mark in marks)
        print(f"{row:<{width}}  {suite:<{suite_width}}  {ms}  {cells}"
              + ("  only" if row in only else ""))
    print()
    uncaught = []
    for k, (name, failing) in enumerate(caught.items(), 1):
        print(f"{k:>2} {name}: fails {len(failing)}")
        if not failing:
            uncaught.append(name)
    if uncaught:
        print(f"mutants that fail no record: {uncaught}")
        return 1
    if missed:
        print(f"mutants that fail no record on some case: {missed}")
        return 1
    if never:
        print(f"records that fail under no mutant: {never}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
