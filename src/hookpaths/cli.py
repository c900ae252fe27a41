"""Command-line front end.

Subcommands: expand, paths, gf, pieri, two-column, verify, fixtures.
Output is plain text by default and canonical JSON under --json; identical
invocations produce byte-identical output (suite timings are therefore
only shown under --timings).

`main(argv)` can be called repeatedly in one process. It builds its
argument parser at the first call and parses every later call with the
same one, so `verify --suite`'s choices are read from `verify.SUITES` then.
Each call gets its own namespace, so no option carries over to the next.
`build_parser()` returns a fresh parser for a caller that wants its own.
"""

import argparse
import json
import os
import sys

from . import characters, pierimaps, verify
from .fixtures import load_fixture
from .paths import (
    PATH_STEP_BOUND, LatticePath, _family_grid, family_blocks, family_counts, gf_T, gf_closed,
    path_hook, words_T,
)
from .paths import enumerate_T  # noqa: F401  bench/test_bench.py traces it as cli.enumerate_T
from .schur import restrict, specialize2
from .shapes import parse_partition, partition_str


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=1, sort_keys=True))


def cmd_expand(args) -> int:
    mu = parse_partition(args.mu)
    result = characters.hook_formula(sum(mu), args.r, mu)
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


def _hook_labels(n: int):
    """label(a, ht, context) == partition_str(path_hook(n, a, ht, context)):
    the text of the hook (a + ht + 1, 1^(n-2-ht)) that a path term labels.
    Its leg ",1" * (n-2-ht) depends on the height alone, so each height's is
    written once; an arm of 0 or less, or a height outside 0..n-2, goes
    through path_hook and its guard."""
    legs = [",1" * (n - 2 - ht) for ht in range(n - 1)]
    top = n - 2

    def label(a: int, ht: int, context="") -> str:
        arm = a + ht + 1
        if arm > 0 and 0 <= ht <= top:
            return f"{arm}{legs[ht]}"
        return partition_str(path_hook(n, a, ht, context))

    return label


def cmd_paths(args) -> int:
    n, s = args.n, args.s
    grid = _family_grid(n, s)  # refuses an oversized family before any output
    if n > PATH_STEP_BOUND + 2:  # even a one-word family's row is n wide
        raise ValueError(f"n={n} is past the listing bound of {PATH_STEP_BOUND + 2}: rows are n wide")
    length = grid[1] if grid else 0
    heads, block = family_blocks(n, s)
    if grid and not length:  # the family of the empty word lists it as "eps"
        block = [("eps", 0, 0)]
    # every row of an (area, ht) class shares its text but the word, so the
    # rows of each head come out as one string
    classes, label = family_counts(n, s), _hook_labels(n)
    write = sys.stdout.write
    if args.json:
        if not block:
            _emit_json({"n": n, "s": s, "paths": []})
            return 0
        opens = {
            (area, ht): f'  {{\n   "area": {area},\n   "hook": "{label(area, ht)}",'
                        f'\n   "ht": {ht},\n   "word": "'
            for area, ht in classes
        }
        write(f'{{\n "n": {n},\n "paths": [\n')
        sep = ""
        for head, area, ht in heads:
            write(sep + ",\n".join([
                opens[area + da, ht + dh] + head + word + '"\n  }' for word, da, dh in block
            ]))
            sep = ",\n"
        write(f'\n ],\n "s": {s}\n}}\n')
        return 0
    tails = {
        (area, ht): f"  area={area:<3d} ht={ht:<2d} hook={label(area, ht)}\n"
        for area, ht in classes
    }
    write(f"# paths for n={n} s={s}: {2 ** length if grid else 0} total\n")
    pad = " " * (max(3, n) - (length or 3))
    for head, area, ht in heads:
        prefix = pad + head
        write("".join([prefix + word + tails[area + da, ht + dh] for word, da, dh in block]))
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


SIDES = ("plus", "minus")  # the two Pieri maps, in the text listing's order


def _pieri_rows(n: int, k: int):
    """(word, area, ht, {side: (descents, image word)}) for every base word
    of T(n, 0), in words_T's order: the plus and the minus image stream at
    k, which share one suffix table, merged into the walk over the words."""
    table = pierimaps.suffix_table(n)
    streams = {side: pierimaps.image_stream(n, k, side == "minus", table) for side in SIDES}
    upcoming = {side: next(stream, None) for side, stream in streams.items()}
    for word, area, ht in words_T(n, 0):
        images = {}
        for side in SIDES:
            entry = upcoming[side]
            if entry is not None and entry[0] == word:
                images[side] = entry[3:]
                upcoming[side] = next(streams[side], None)
        yield word, area, ht, images
    if any(entry is not None for entry in upcoming.values()):
        raise AssertionError(f"an image stream at k={k} left the word order")


def cmd_pieri(args) -> int:
    n, k = args.n, args.k
    # refused here: past 0..n-2 the kernels would list every path bare
    pierimaps.check_pieri_k(k, n)
    if args.path is not None:  # one word: the per-word kernels
        gamma = LatticePath.parse(n, 0, args.path)
        ks = range(k, k + 1)
        images = {
            side: (descents, image)
            for side, kernel in zip(SIDES, (pierimaps.plus_image, pierimaps.minus_image))
            for _, descents, image in kernel(n, ks, gamma.word)
        }
        rows = [(gamma.word, gamma.area(), gamma.ht(), images)]
    else:
        rows = _pieri_rows(n, k)
    stats = pierimaps.image_stats(n, k)
    label = _hook_labels(n)
    width = max(3, n)
    if args.json:
        lead, sep = f'{{\n "k": {k},\n "n": {n},\n "paths": [\n', ",\n"
    else:
        lead, sep = f"# adjoint Pieri images for n={n} k={k}\n", ""
    # each base path's entry is written once its images are known, and the
    # header with the first one: a map that fails on it leaves stdout empty
    for word, area, ht, maps in rows:
        images = {}  # side -> (descents, image word, hook)
        for side, (descents, image) in maps.items():
            image_area, image_ht = stats(word, image)
            hook = label(image_area - sum(descents), image_ht, word)
            images[side] = (sorted(descents), image or "eps", hook)
        word = word or "eps"
        if args.json:  # json.dumps(indent=1, sort_keys=True) two levels deep
            text = f'  {{\n   "area": {area},\n   "ht": {ht},\n'
            for side in ("minus", "plus"):
                if side in images:
                    descents, image, hook = images[side]
                    listed = (
                        "[\n" + ",\n".join(f"     {d}" for d in descents) + "\n    ]"
                        if descents else "[]"
                    )
                    text += (
                        f'   "{side}": {{\n    "descents": {listed},\n'
                        f'    "hook": "{hook}",\n    "word": "{image}"\n   }},\n'
                    )
            text += f'   "word": "{word}"\n  }}'
        else:
            text = f"{word:>{width}}  area={area:<3d} ht={ht}\n"
            for side in SIDES:
                if side in images:
                    descents, image, hook = images[side]
                    text += f"    {side:5s} -> {image:<{width}} descents={descents} hook={hook}\n"
        sys.stdout.write(lead + text)
        lead = sep
    if args.json:
        sys.stdout.write("\n ]\n}\n")
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


# the parser every main() call shares: built at the first call, not at import
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
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
