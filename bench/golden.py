"""Record the golden outputs every benchmark pass is checked against.

    python3 bench/golden.py            rewrite bench/golden.json

For every command in every workload's pool it stores the exit code and the
sha256 of stdout; for the verify commands also the per-instance
(suite, params, status, witness) list.  The record is made once, at the
commit whose behaviour defines "correct", and is not regenerated by a change
that claims to keep the output the same.
"""

import json
import os
import sys

import passrun
import workloads

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def load_golden(path=GOLDEN_PATH):
    with open(path) as fh:
        return json.load(fh)


def record():
    from hookpaths import cli

    golden = {}
    for name in workloads.WORKLOADS:
        entries = {}
        for argv in workloads.pool(name):
            result = passrun.run_command(cli, argv)
            if result["check"] is not None:
                raise SystemExit(f"{' '.join(argv)}: {result['check']}")
            entry = {"exit": result["exit"], "sha256": result["sha256"]}
            if "instances" in result:
                entry["instances"] = result["instances"]
            entries[" ".join(argv)] = entry
        golden[name] = entries
        print(f"{name}: {len(entries)} commands", file=sys.stderr)
    return golden


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(record(), fh, indent=0, sort_keys=True)
        fh.write("\n")
