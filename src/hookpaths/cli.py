"""Command-line front end.

Subcommands: expand, paths, gf, pieri, two-column, verify, fixtures.
Output is plain text by default and canonical JSON under --json; identical
invocations produce byte-identical output (suite timings are therefore
only shown under --timings).
"""

import argparse
import json
import os
import sys

from . import characters, pierimaps, verify
from .fixtures import load_fixture
from .paths import LatticePath, enumerate_T, gf_T, gf_closed, path_hook, stats_T
from .schur import restrict, specialize2
from .shapes import parse_partition, partition_str


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=1, sort_keys=True))


def cmd_expand(args) -> int:
    mu = parse_partition(args.mu)
    n = args.n if args.n is not None else sum(mu)
    result = characters.hook_formula(n, args.r, mu)
    expansion = result.expansion
    if args.restrict:
        expansion = restrict(expansion, args.restrict)
    if args.specialize == 2:
        poly = specialize2(expansion)
        if args.json:
            _emit_json({"banner": result.banner(), "specialized": poly.to_json_obj()})
        else:
            print(f"# {result.banner()}")
            print(poly)
        return 0
    if args.json:
        _emit_json({"banner": result.banner(), "expansion": expansion.to_json_obj()})
    else:
        print(f"# {result.banner()}")
        print(expansion)
    return 0


def cmd_paths(args) -> int:
    n, s = args.n, args.s
    paths = enumerate_T(n, s)
    labels = {}  # (area, ht) -> hook label: every path of a class shares it

    def rows():
        for path, stats in zip(paths, stats_T(n, s)):
            hook = labels.get(stats)
            if hook is None:
                hook = labels[stats] = partition_str(path_hook(n, *stats))
            yield str(path), stats[0], stats[1], hook

    if args.json:
        _emit_json({"n": n, "s": s, "paths": [
            {"word": word, "area": area, "ht": ht, "hook": hook}
            for word, area, ht, hook in rows()
        ]})
    else:
        print(f"# paths for n={n} s={s}: {len(paths)} total")
        width = max(3, n)
        for word, area, ht, hook in rows():
            print(f"{word:>{width}}  area={area:<3d} ht={ht:<2d} hook={hook}")
    return 0


def cmd_gf(args) -> int:
    gf = gf_T(args.n, args.s)
    closed = gf_closed(args.n, args.s)
    if args.json:
        _emit_json(
            {"n": args.n, "s": args.s, "gf": gf.to_json_obj(),
             "matches_closed_form": gf == closed}
        )
    else:
        print(f"# generating function for n={args.n} s={args.s}")
        print(gf)
        print(f"# closed form agrees: {gf == closed}")
    return 0


def cmd_pieri(args) -> int:
    n, k = args.n, args.k
    # the domain predicates would otherwise filter out every path first
    pierimaps.check_pieri_k(k, n)
    if args.path is not None:
        paths = [LatticePath.parse(n, 0, args.path)]
    else:
        paths = enumerate_T(n, 0)
    sides = (
        ("plus", pierimaps.plus_domain, pierimaps.e_plus_map),
        ("minus", pierimaps.minus_domain, pierimaps.e_minus_map),
    )
    entries = []
    for gamma in paths:
        entry = {"word": str(gamma), "area": gamma.area(), "ht": gamma.ht()}
        for side, in_domain, pieri_map in sides:
            if in_domain(k, gamma):
                tagged = pieri_map(k, gamma)
                entry[side] = {
                    "descents": sorted(tagged.descents),
                    "word": str(tagged.path),
                    "hook": partition_str(pierimaps.hook_of(tagged)),
                }
        entries.append(entry)
    if args.json:
        _emit_json({"n": n, "k": k, "paths": entries})
        return 0
    print(f"# adjoint Pieri images for n={n} k={k}")
    for entry in entries:
        print(f"{entry['word']:>{max(3, n)}}  area={entry['area']:<3d} ht={entry['ht']}")
        for side in ("plus", "minus"):
            if side in entry:
                img = entry[side]
                print(
                    f"    {side:5s} -> {img['word']:<{max(3, n)}} "
                    f"descents={img['descents']} hook={img['hook']}"
                )
    return 0


def cmd_two_column(args) -> int:
    lifted = characters.two_column_formula(args.n, "lifted")
    path = characters.two_column_formula(args.n, "path")
    if args.json:
        _emit_json(
            {"n": args.n, "lifted": lifted.to_json_obj(),
             "path": path.to_json_obj(), "agree": lifted == path}
        )
    else:
        print(f"# two-column component for n={args.n}")
        print(f"lifted: {lifted}")
        print(f"path:   {path}")
        print(f"# forms agree: {lifted == path}")
    return 0


def cmd_verify(args) -> int:
    reports = verify.run_suite(args.suite, args.max_n)
    if args.json:
        _emit_json([r.to_json_obj(timings=args.timings) for r in reports])
    else:
        for report in reports:
            print(report.line(timings=args.timings))
        counts = {}
        for report in reports:
            counts[report.status] = counts.get(report.status, 0) + 1
        summary = " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        print(f"# {len(reports)} instances: {summary}")
    return 1 if verify.has_failure(reports) else 0


def cmd_fixtures(args) -> int:
    table = load_fixture()
    if args.json:
        _emit_json(
            {partition_str(mu): exp.to_json_obj() for mu, exp in sorted(table.items())}
        )
    else:
        print("# stored n=4 character components (checksum verified)")
        for mu, expansion in sorted(table.items()):
            print(f"<E, s[{partition_str(mu)}]> = {expansion}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hookpaths",
        description="Exact staircase-path combinatorics and hook Schur expansions",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON output")
    parser.add_argument(
        "--max-n", type=int, default=None, dest="max_n",
        help="size cap for the verify suites",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="hook-component Schur expansion")
    p.add_argument("--mu", required=True, help='partition, e.g. "1,1,1,1"')
    p.add_argument("--n", type=int, default=None, help="size (defaults to |mu|)")
    p.add_argument("--r", type=int, default=1)
    p.add_argument(
        "--restrict",
        choices=["hooks", "one_part", "V1", "V2", "two-column"],
        default=None,
    )
    p.add_argument("--specialize", type=int, choices=[2], default=None)
    p.set_defaults(fn=cmd_expand)

    p = sub.add_parser("paths", help="list a path family with statistics")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, default=0)
    p.set_defaults(fn=cmd_paths)

    p = sub.add_parser("gf", help="generating function of a path family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, default=0)
    p.set_defaults(fn=cmd_gf)

    p = sub.add_parser("pieri", help="path-level adjoint Pieri images")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--path", default=None, help="single word over N/E")
    p.set_defaults(fn=cmd_pieri)

    p = sub.add_parser("two-column", help="both two-column forms")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_two_column)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument(
        "--suite", default="all", choices=sorted(verify.SUITES) + ["all"]
    )
    # SUPPRESS keeps the top-level --max-n value unless given again here
    p.add_argument("--max-n", type=int, default=argparse.SUPPRESS, dest="max_n")
    p.add_argument("--timings", action="store_true", help="include wall times")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("fixtures", help="print the stored n=4 character table")
    p.set_defaults(fn=cmd_fixtures)
    return parser


# the status a shell reports for a command ended by SIGPIPE (128 + 13)
EXIT_CLOSED_STDOUT = 141


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout: what is still buffered goes to devnull,
        # so the interpreter's final flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    # RuntimeError: a fixture checksum mismatch; AssertionError: a map's
    # internal consistency check; OSError: an unreadable data file
    except (ValueError, KeyError, RuntimeError, AssertionError, OSError) as exc:
        print(f"error ({args.command}): {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
