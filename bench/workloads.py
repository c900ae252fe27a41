"""The benchmark's workloads: fixed command pools and their seeded samples.

Each pool is split into strata of commands that cost about the same.  A
sample takes a fixed number of commands from every stratum, so a different
seed picks different commands (and a different order) while the work in a
pass, and with it the timings, stays comparable between seeds.  The program
only ever sees the generated argv lists.
"""

import math
import random

VERIFY_SUITES = (
    "alternating", "bijections", "difference-W", "gf",
    "hrs-t0", "pieri-paths", "restriction2", "two-column",
)

EXPAND_MODES = ((), ("--json",), ("--specialize", "2"), ("--restrict", "hooks"))
EXPAND_PER_SHAPE = 2       # commands drawn from the 8 (r, mode) variants of each mu
PATHS_GF_SHARE = 0.7       # share of each equal-length stratum drawn


def _partitions(n, cap=None):
    # kept here rather than imported, so a change to the program cannot
    # change which commands a seed picks
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _expand_argv(mu, r, mode):
    pre = ["--json"] if mode == ("--json",) else []
    post = [] if mode == ("--json",) else list(mode)
    return pre + ["expand", "--mu", ",".join(map(str, mu)), "--r", str(r)] + post


def strata(name):
    """The workload's pool as a list of (stratum, take) pairs."""
    if name == "verify-all":
        return [([["--json", "verify", "--suite", s]], 1) for s in VERIFY_SUITES]
    if name == "expand-mix":
        return [
            ([_expand_argv(mu, r, mode) for r in (1, 2) for mode in EXPAND_MODES],
             EXPAND_PER_SHAPE)
            for n in (9, 10) for mu in _partitions(n)
        ]
    if name == "paths-gf":
        # one stratum per (command, path length n - s - 2): equal path counts
        groups = {}
        for cmd, sizes in (("gf", range(13, 20)), ("paths", range(10, 16))):
            for n in sizes:
                for s in range(n - 1):
                    groups.setdefault((cmd, n - s - 2), []).append(
                        [cmd, "--n", str(n), "--s", str(s)]
                    )
        return [
            (group, math.ceil(len(group) * PATHS_GF_SHARE))
            for _, group in sorted(groups.items())
        ]
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")


WORKLOADS = ("verify-all", "expand-mix", "paths-gf")


def pool(name):
    """Every command the workload can draw, in a fixed order."""
    return [argv for group, _ in strata(name) for argv in group]


def sample(name, seed, size=None):
    """The argv lists of one pass, in run order; `size` truncates (for tests)."""
    rng = random.Random(f"{name}:{seed}")
    chosen = []
    for group, take in strata(name):
        chosen.extend(rng.sample(group, take))
    rng.shuffle(chosen)
    return chosen if size is None else chosen[:size]
