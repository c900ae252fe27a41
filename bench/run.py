"""The hookpaths benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

A run is a closed loop with one client, on one process and one thread:
each CLI command starts only after the previous one has finished.  With
--trace 0 the run repeats, each time in fresh interpreters, three timings of
`import hookpaths.cli` + load_fixture() and one pass over the workload's
seeded command list, until the next repeat would end after --seconds.  It
reports each command's fastest time over the passes, taken per verify
instance (wall_s is their sum, cmd_p50_ms and cmd_p90_ms their
percentiles), and the median of the set-up times and of peak RSS.  With
--trace 1 it runs one untraced and one traced pass and reports the
per-layer metrics.  Every command's output is checked against golden.json
and by cheap independent checks.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it name each metric with its unit and
sample count.  The exit code is 0 when every output is correct, 1 when some
output is wrong, and 2 when the benchmark cannot run (for example without
the program's sources next to it).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import golden
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PASSRUN = os.path.join(HERE, "passrun.py")
TRACE_DIR = os.path.join(ROOT, ".bench_out")

SETUPS_PER_PASS = 3
CHILD_TIMEOUT_S = 150
# totals of the eight verify suites at their default caps
VERIFY_TOTALS = {"pass": 327, "reported": 21}



# Children may write bytecode caches, so set-up is timed with compiled
# modules, as an installed CLI runs, whatever the caller's environment says.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}


class BenchError(Exception):
    pass


def _child(mode, spec=None):
    proc = subprocess.run(
        [sys.executable, PASSRUN, mode],
        input=None if spec is None else json.dumps(spec),
        capture_output=True, text=True, cwd=ROOT, env=CHILD_ENV, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"passrun {mode} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def judge(workload, passes, record):
    """(attempted, failed, problems) for the passes against the golden record.

    A verify command counts once per instance it reports; any other command
    counts once.
    """
    expected = record[workload]
    attempted = failed = 0
    problems = []
    for result in passes:
        totals = {}
        for cmd in result["commands"]:
            key = " ".join(cmd["argv"])
            want = expected.get(key)
            if want is None:
                raise BenchError(f"no golden record for {key!r}")
            same = cmd["exit"] == want["exit"] and cmd["sha256"] == want["sha256"]
            if "instances" in want:
                got = cmd.get("instances") or []
                attempted += len(want["instances"])
                wrong = sum(
                    1 for i, inst in enumerate(want["instances"])
                    if i >= len(got) or got[i] != inst
                )
                if not same or cmd["check"]:
                    wrong = max(wrong, 1)
                for inst in got:
                    totals[inst[2]] = totals.get(inst[2], 0) + 1
            else:
                attempted += 1
                wrong = 0 if same and not cmd["check"] else 1
            if wrong:
                failed += wrong
                problems.append(f"{key}: {cmd['check'] or 'differs from the golden record'}")
        if workload == "verify-all" and len(result["commands"]) == len(workloads.VERIFY_SUITES):
            if totals != VERIFY_TOTALS:
                problems.append(f"verify totals {totals} != {VERIFY_TOTALS}")
    return attempted, failed, problems


def measure(argvs, seconds):
    """End-to-end metrics, tracing off."""
    start = time.perf_counter()
    _child("setup")  # writes the bytecode caches on a fresh checkout; not timed
    setups, passes, durations = [], [], []
    while True:
        began = time.perf_counter()
        # spread over the run, so one slow spell cannot move the median
        setups += [_child("setup")["setup_s"] for _ in range(SETUPS_PER_PASS)]
        passes.append(_child("pass", {"argvs": argvs}))
        durations.append(time.perf_counter() - began)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            break
    # Every pass runs the same commands in the same order, each pass in a
    # fresh interpreter.  A command's time is its fastest over the passes,
    # taken piece by piece (one piece per verify instance): this host's
    # speed swings by a third within seconds, and the fastest of ten short
    # repeats varies far less between runs than their median does.
    best_ms = [_best_s([p["commands"][i] for p in passes]) * 1000 for i in range(len(argvs))]
    metrics = {
        "wall_s": sum(best_ms) / 1000,
        "cmd_p50_ms": statistics.median(best_ms),
        "cmd_p90_ms": _p90(best_ms),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(setups),
    }
    commands = f"{len(argvs)} commands, best of {len(passes)}"
    samples = {
        "wall_s": commands, "cmd_p50_ms": commands, "cmd_p90_ms": commands,
        "peak_rss_mb": len(passes), "setup_s": len(setups),
    }
    return metrics, samples, passes


def _best_s(runs):
    """One command's fastest time over its runs, summed over its pieces."""
    pieces = [run["pieces"] for run in runs]
    if len({len(p) for p in pieces}) != 1:  # the pieces do not pair up
        return min(run["seconds"] for run in runs)
    return sum(min(piece) for piece in zip(*pieces))


def _p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def trace(argvs, workload, seed):
    """Per-layer metrics from one traced pass, next to one untraced pass."""
    plain = _child("pass", {"argvs": argvs})
    traced = _child("pass", {"argvs": argvs, "trace": True})
    metrics = dict(traced["layers"])
    metrics["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"trace-{workload}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "layers": metrics,
                   "spans": traced["spans"]}, fh, indent=1)
    return metrics, {name: 1 for name in metrics}, [plain, traced]


def run_workload(workload, seed, seconds, traced, record, units):
    """Measure one workload, print its metrics and return the JSON result.

    `units` maps each metric the run must report, in order, to its unit.
    """
    argvs = workloads.sample(workload, seed)
    if traced:
        metrics, samples, passes = trace(argvs, workload, seed)
    else:
        metrics, samples, passes = measure(argvs, seconds)
    metrics = {name: metrics[name] for name in units}
    attempted, failed, problems = judge(workload, passes, record)
    for problem in problems[:20]:
        print(f"{workload}: CHECK FAILED {problem}")
    for name, value in metrics.items():
        shown = f"{value:>14.6f}" if isinstance(value, float) else f"{value:>14d}"
        print(f"{workload:<11} {name:<30} {shown} {units[name]:<6} n={samples[name]}")
    print(f"{workload:<11} {'error_rate':<30} {failed / attempted:>14.6f} {'ratio':<6} "
          f"n={attempted} ({failed} failed)")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "hookpaths", "cli.py")):
        print(f"bench: no program sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        record = golden.load_golden()
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        kind = "per_layer" if args.trace == 1 else "end_to_end"
        units = {m["name"]: m["unit"] for m in spec[kind]}
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        results = {
            name: run_workload(name, args.seed, args.seconds, args.trace == 1, record, units)
            for name in names
        }
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
