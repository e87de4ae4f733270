"""Sweep the full identity battery over seeded scenarios and report how the
worst residual of each check scales with model size.

Usage:
    python3 scripts/identity_sweep.py --dims 2 4 8 12 --defs 1 2 3 --seeds 5

A scenario counts as failed once, whether its report fails or run_checks
raises.  The last line is the SHA-256 of the canonical bytes of every
scenario's report and of its two M(z) tables (cli.tabulate_m, which 1 and
2, the tables of `kreinkit mfunc`), in that order, with
"raised <Class>: <message>" standing in for a call that raised, so two
source trees give byte-identical reports and tables on the sweep iff they
print the same line.
"""

import argparse
import hashlib
import sys
import time

from kreinkit import cli
from kreinkit.errors import KreinKitError


def _add_tables(digest, scenario) -> None:
    """Add the canonical bytes of the scenario's two M(z) tables, or the
    "raised" line of a table that raised, to digest."""
    for which in (1, 2):
        try:
            table = cli._dump_json(cli.tabulate_m(scenario, which))
        except KreinKitError as exc:
            table = f"raised {type(exc).__name__}: {exc}\n"
        digest.update(table.encode("utf-8"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dims", type=int, nargs="+", default=[2, 4, 8, 12])
    ap.add_argument("--defs", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--seeds", type=int, default=3,
                    help="seeds 0..seeds-1 per shape")
    ap.add_argument("--tol", type=float, default=None,
                    help="override the scenario tolerance")
    args = ap.parse_args(argv)

    worst = {}   # check name -> (residual, dim, deficiency, seed)
    count = 0
    failed = 0
    digest = hashlib.sha256()
    started = time.perf_counter()
    for dim in args.dims:
        for deficiency in args.defs:
            if deficiency > dim:
                continue
            for seed in range(args.seeds):
                scenario = cli.generate_scenario(dim, deficiency, seed)
                count += 1
                try:
                    report = cli.run_checks(scenario, tol_override=args.tol)
                except KreinKitError as exc:
                    raised = f"raised {type(exc).__name__}: {exc}"
                    print(f"{raised} at dim={dim} n={deficiency} seed={seed}")
                    digest.update((raised + "\n").encode("utf-8"))
                    _add_tables(digest, scenario)
                    failed += 1
                    continue
                digest.update(cli._dump_json(report).encode("utf-8"))
                _add_tables(digest, scenario)
                if report["summary"] != "pass":
                    failed += 1
                for rec in report["checks"]:
                    r = rec["max_residual"]
                    if r < 0.0:
                        # error sentinel: the failed summary already counts it
                        print(f"error in {rec['name']} at dim={dim} "
                              f"n={deficiency} seed={seed}: {rec['note']}")
                        continue
                    if rec["name"] not in worst or r > worst[rec["name"]][0]:
                        worst[rec["name"]] = (r, dim, deficiency, seed)
    elapsed = time.perf_counter() - started

    name_width = max(len(k) for k in worst) if worst else 10
    print(f"{'check':<{name_width}}  {'worst residual':>14}  at (dim, n, seed)")
    for name in sorted(worst):
        r, dim, deficiency, seed = worst[name]
        print(f"{name:<{name_width}}  {r:>14.3e}  ({dim}, {deficiency}, {seed})")
    print(f"\n{count} scenarios, {failed} failed, {elapsed:.2f} s")
    print(f"reports sha256 {digest.hexdigest()}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
