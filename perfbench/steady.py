"""Run every workload several times with different seeds and report, per
end-to-end metric, the median, the quartile spread (Q3 - Q1 over the median)
and whether that spread is within the metric's bound in BENCHMARK.json; then
the same for the metrics run.py prints but BENCHMARK.json does not bound.

    python3 perfbench/steady.py [--runs 10] [--workloads battery]
                                [--save set1.json] [--against set0.json]

Run from the root of a kreinkit checkout.  --save writes the medians and
every run's result; --against compares this set's medians with a saved set,
as a regression check of one set of runs against another.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import stats


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    details = next(json.loads(line)["details"] for line in lines
                   if line.startswith('{"details"'))
    result["unbounded"] = details.get("unbounded", {})
    return result


def main(argv=None) -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--save", help="write medians and results to this JSON file")
    parser.add_argument("--against", help="compare medians with this saved file")
    args = parser.parse_args(argv)

    previous = {}
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            previous = json.load(fh)["medians"]
    medians: dict = {}
    runs: dict = {}
    worst = 0.0
    for workload in args.workloads:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            results.append(run_once(bench, workload, seed, 0))
            r = results[-1]
            print(f"{workload} seed {seed}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']}", flush=True)
        runs[workload] = results
        medians[workload] = {}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in results]
            med = stats.median(values)
            spread = stats.quartile_spread(values) if len(values) > 1 else 0.0
            medians[workload][name] = med
            line = (f"  {workload:9s} {name:12s} median {med:12.6g} {metric['unit']:6s} "
                    f"spread {spread:7.4f} bound {bound:5.3f}")
            if name != "setup_s":
                worst = max(worst, spread / bound)
                line += "  ok" if spread <= bound / 3 else "  WIDE"
            if workload in previous:
                before = previous[workload][name]
                change = (med - before) / before
                if metric["better"] == "higher":
                    change = -change
                line += f"  worse by {change:+.4f}" + ("  REGRESSED" if change > bound else "")
            print(line, flush=True)
        for name in results[0]["unbounded"]:
            values = [r["unbounded"][name]["value"] for r in results]
            med = stats.median(values)
            spread = stats.quartile_spread(values) if len(values) > 1 and med else 0.0
            print(f"  {workload:9s} {name:12s} median {med:12.6g} "
                  f"{results[0]['unbounded'][name]['unit']:6s} spread {spread:7.4f} "
                  "(not bounded)", flush=True)
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump({"medians": medians, "runs": runs}, fh, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
