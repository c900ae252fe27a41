"""Run-to-run spread of the end-to-end metrics, for setting and checking bounds.

    python3 bench/spread.py --runs 10 --seconds 60 [--workloads NAME ...]
                            [--first-seed 1] [--out FILE]

Runs bench/run.py once per (seed, workload), seeds first-seed ..
first-seed + runs - 1, interleaving the workloads so that a slow spell on
the machine touches all of them.  For every (metric, workload) it prints the
median, the quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median next to the metric's bound in BENCHMARK.json.  --out
writes the same figures, with every value, as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workloads", nargs="+", choices=workloads.WORKLOADS,
                        help="default: the workloads BENCHMARK.json lists")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    values = {w: {} for w in names}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in names:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT,
            )
            result = json.loads(proc.stdout.splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: exit {proc.returncode}, {result}", file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4f}" for n, m in result["metrics"].items()), flush=True)

    report = {}
    for workload, metrics in values.items():
        for name, xs in metrics.items():
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            report.setdefault(workload, {})[name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "values": xs,
            }
            print(f"{workload:<11} {name:<12} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}"
                  f"  spread {spread:6.3f}  bound {bounds[name]:.2f}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
