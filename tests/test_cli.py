import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

import hookpaths
from hookpaths import cli, fixtures, paths, pierimaps, verify
from hookpaths.paths import enumerate_T, gf_T, gf_closed, hat_gf, words_T
from hookpaths.qpoly import LaurentPoly
from hookpaths.schur import SchurExpansion
from hookpaths.shapes import hook_index, partition_str
from hookpaths.verify import VerifyReport, has_failure


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_expand_text(capsys):
    code, out = run_cli(capsys, "expand", "--mu", "1,1,1,1", "--r", "1")
    assert code == 0
    assert "proven" in out
    assert "s[6] + s[4,1] + s[3,1] + s[1,1,1]" in out


def test_expand_takes_its_size_from_mu():
    # the formula is stated at n = |mu|, so there is no --n to pass
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["expand", "--mu", "1,1,1,1", "--n", "4"])
    assert exit_info.value.code == 2


def test_expand_published_small_cases(capsys):
    _, out = run_cli(capsys, "expand", "--mu", "3,1")
    assert "s[3] + s[2] + s[1]" in out
    _, out = run_cli(capsys, "expand", "--mu", "4")
    assert out.splitlines()[-1] == "1"


def test_expand_conjectural_banner(capsys):
    _, out = run_cli(capsys, "expand", "--mu", "2,2")
    assert "conjectural" in out


def test_expand_restrict_and_specialize(capsys):
    _, out = run_cli(capsys, "expand", "--mu", "1,1,1,1,1", "--restrict", "V1")
    assert "s[" in out and "1,1" in out
    _, out = run_cli(capsys, "--json", "expand", "--mu", "1,1,1,1", "--specialize", "2")
    doc = json.loads(out)
    poly = LaurentPoly.from_json_obj(doc["specialized"])
    assert poly.coeff(eq=6) == 1  # top one-row term survives two variables
    # at r = 10^18 the one-row index s_(a) has a + 1, about 3 * 10^18, monomials:
    # refused before any is built
    code, out = run_cli(capsys, "expand", "--mu", "2,1", "--r", str(10 ** 18), "--specialize", "2")
    assert code == 2 and out == ""


def test_expand_json_round_trip(capsys):
    _, out = run_cli(capsys, "--json", "expand", "--mu", "1,1,1,1")
    doc = json.loads(out)
    expansion = SchurExpansion.from_json_obj(doc["expansion"])
    from hookpaths.characters import hook_formula

    assert expansion == hook_formula(4, 1, (1, 1, 1, 1)).expansion


def test_paths_and_gf(capsys):
    _, out = run_cli(capsys, "paths", "--n", "4")
    assert "EE" in out and "hook=6" in out
    _, out = run_cli(capsys, "--json", "gf", "--n", "5", "--s", "0")
    doc = json.loads(out)
    assert doc["matches_closed_form"] is True
    assert LaurentPoly.from_json_obj(doc["gf"]).coeff(eq=6, ez=3) == 1


def test_pieri_single_path(capsys):
    _, out = run_cli(capsys, "pieri", "--n", "10", "--k", "2", "--path", "NENEENEE")
    assert "NNENEE" in out and "[6, 8]" in out
    assert "NEENEE" in out and "[1, 8]" in out


def test_two_column(capsys):
    # n = 22 is the largest size the path bound lets through; both forms
    # read class counts or Gaussian binomials there, not words
    for n in ("6", "22"):
        code, out = run_cli(capsys, "two-column", "--n", n)
        assert code == 0
        assert out.splitlines()[-1] == "# forms agree: True"


def test_fixtures_output(capsys):
    code, out = run_cli(capsys, "fixtures")
    assert code == 0
    assert "<E, s[1,1,1,1]> = s[6] + s[4,1] + s[3,1] + s[1,1,1]" in out


def tamper_fixture(monkeypatch, tmp_path):
    """Make load_fixture read a payload whose checksum no longer matches: a
    tampered copy of the table in a data directory beside a stand-in module
    file under tmp_path."""
    data_file = os.path.join(os.path.dirname(fixtures.__file__), "data", fixtures._DATA_FILE)
    with open(data_file, encoding="utf-8") as f:
        doc = json.load(f)
    doc["payload"]["4"] = [{"lambda": [1], "coeff": [{"q": 0, "t": 0, "z": 0, "c": "1"}]}]
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / fixtures._DATA_FILE).write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.setattr(fixtures, "__file__", str(tmp_path / "fixtures.py"))


def test_fixture_tamper_detection(monkeypatch, tmp_path):
    tamper_fixture(monkeypatch, tmp_path)
    with pytest.raises(RuntimeError, match="checksum mismatch"):
        fixtures.load_fixture()


def test_fixture_checksum_error_is_a_clean_cli_error(monkeypatch, capsys, tmp_path):
    tamper_fixture(monkeypatch, tmp_path)
    code = cli.main(["fixtures"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error (fixtures): fixture checksum mismatch")
    assert captured.err.count("\n") == 1


def test_missing_data_file_is_a_clean_cli_error(monkeypatch, capsys):
    monkeypatch.setattr(fixtures, "_DATA_FILE", "no_such_table.json")
    code = cli.main(["fixtures"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error (fixtures): ")
    assert "no_such_table.json" in captured.err and captured.err.count("\n") == 1


def test_a_closed_stdout_ends_quietly():
    # the reader takes one line and closes the pipe; the 65,536 rows of
    # n = 18 cannot all fit in a pipe's buffer, so the writer sees it closed
    src = os.path.dirname(os.path.dirname(os.path.abspath(hookpaths.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))
    proc = subprocess.Popen(
        [sys.executable, "-m", "hookpaths.cli", "paths", "--n", "18"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    code = proc.wait(timeout=120)
    assert first == b"# paths for n=18 s=0: 65536 total\n"
    assert err == b""
    assert code == cli.EXIT_CLOSED_STDOUT == 141


def test_the_cli_starts_without_the_heavy_stdlib():
    # -S: a site .pth file may import importlib.resources and hide a regression
    src = os.path.dirname(os.path.dirname(os.path.abspath(hookpaths.__file__)))
    code = (
        "import sys, hookpaths.cli\n"
        "from hookpaths.fixtures import load_fixture\n"
        "assert len(load_fixture()) == 5\n"
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'importlib.resources', 'typing',"
        " 'array', 'struct') if m in sys.modules))\n"
        # the argument parser is built at the first main() call, not at import
        "print(hookpaths.cli._parser)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\nNone\n"


def test_map_assertion_is_a_clean_cli_error(monkeypatch, capsys):
    # two east steps that record the same descent n-2
    monkeypatch.setattr(pierimaps, "_east_descents", lambda n, word, count: [n - 2] * count)
    code = cli.main(["pieri", "--n", "6", "--k", "2", "--path", "EENN"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error (pieri): descent construction collided\n"


def test_pieri_refuses_k_outside_the_maps_range(capsys):
    # the domain predicates would filter every path before the maps' k check
    for k, path in (("9", None), ("4", None), ("-1", None), ("9", "EEN"), ("4", "NNE")):
        argv = ["pieri", "--n", "5", "--k", k] + (["--path", path] if path else [])
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error (pieri): k={k} outside 0..3\n"
    code = cli.main(["pieri", "--n", "1", "--k", "0"])
    assert code == 2 and capsys.readouterr().err == "error (pieri): k=0 outside 0..-1\n"


def test_oversized_path_families_are_refused(capsys):
    # 2^28 paths: refused before anything is built, with one line on stderr
    for command in ("gf", "paths"):
        code = cli.main([command, "--n", "30"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"error ({command}): the (n=30, s=0) family has 2^28 paths, "
            "past the enumeration bound of 2^20\n"
        )
    # two-column refuses the same (n, 0) family before either form runs
    code = cli.main(["two-column", "--n", "30"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        "error (two-column): the (n=30, s=0) family has 2^28 paths, "
        "past the enumeration bound of 2^20\n"
    )


def test_paths_refuses_rows_wider_than_the_listing_bound(capsys):
    # a one-word family past n = 22 still pads its row to n columns
    refusal = "is past the listing bound of 22: rows are n wide"
    for n, s in ((23, 21), (10 ** 9, 10 ** 9 - 2), (10 ** 9, 10 ** 9)):
        for argv in ([], ["--json"]):
            code = cli.main(argv + ["paths", "--n", str(n), "--s", str(s)])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert captured.err == f"error (paths): n={n} {refusal}\n"
    code, out = run_cli(capsys, "paths", "--n", "22", "--s", "20")
    assert code == 0 and out == reference_paths_output(22, 20, False)


def test_path_bound_is_shared(monkeypatch, capsys):
    # one bound behind every path family consumer: a 5-step family is
    # refused under a bound of 4 steps, a 4-step one is not
    monkeypatch.setattr(paths, "PATH_STEP_BOUND", 4)
    refusal = "the (n=7, s=0) family has 2^5 paths, past the enumeration bound of 2^4"
    for fn in (enumerate_T, words_T, gf_T, hat_gf):
        with pytest.raises(ValueError) as exc:
            fn(7, 0)
        assert str(exc.value) == refusal
        fn(6, 0)
    for fn in (enumerate_T, words_T, gf_T, gf_closed):
        assert fn(7, 1)  # 4 steps from start height 1
        with pytest.raises(ValueError, match="start height must be nonnegative"):
            fn(5, -1)
    for command in ("gf", "paths", "two-column"):
        assert cli.main([command, "--n", "7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error ({command}): {refusal}\n"
        assert cli.main([command, "--n", "6"]) == 0
        capsys.readouterr()
    for command in ("gf", "paths"):
        assert cli.main([command, "--n", "7", "--s", "1"]) == 0
        capsys.readouterr()


def reference_paths_output(n, s, as_json):
    """`paths` as first written: one LatticePath per row, read through
    area() and ht()."""
    rows = []
    for path in enumerate_T(n, s):
        area, ht = path.area(), path.ht()
        hook = hook_index(area + ht + 1, n - 2 - ht)
        rows.append({"word": str(path), "area": area, "ht": ht, "hook": partition_str(hook)})
    if as_json:
        return json.dumps({"n": n, "s": s, "paths": rows}, indent=1, sort_keys=True) + "\n"
    lines = [f"# paths for n={n} s={s}: {len(rows)} total"]
    for row in rows:
        lines.append(f"{row['word']:>{max(3, n)}}  area={row['area']:<3d} ht={row['ht']:<2d} hook={row['hook']}")
    return "".join(line + "\n" for line in lines)


def test_paths_output_matches_reference_rendering(capsys):
    # every family up to n = 10, and past the walk's block depth up to n = 14
    cases = [(n, s) for n in range(0, 11) for s in range(0, n + 1)]
    cases += [(n, s) for n in range(11, 15) for s in (0, 1, n - 2)]
    assert max(n - s - 2 for n, s in cases) > paths.WALK_BLOCK_STEPS + 1
    for n, s in cases:
        for as_json in (False, True):
            argv = ["--json"] if as_json else []
            code, out = run_cli(capsys, *argv, "paths", "--n", str(n), "--s", str(s))
            assert code == 0
            assert out == reference_paths_output(n, s, as_json), (n, s, as_json)


def reference_pieri_output(n, k, as_json):
    """`pieri` as first written: the whole family's entries in one list,
    printed after every path is mapped."""
    sides = (("plus", False, pierimaps.e_plus_map), ("minus", True, pierimaps.e_minus_map))
    entries = []
    for gamma in enumerate_T(n, 0):
        entry = {"word": str(gamma), "area": gamma.area(), "ht": gamma.ht()}
        for side, minus, pieri_map in sides:
            if pierimaps.map_domain(range(k, k + 1), gamma.word, minus):
                tagged = pieri_map(k, gamma)
                entry[side] = {
                    "descents": sorted(tagged.descents),
                    "word": str(tagged.path),
                    "hook": partition_str(pierimaps.hook_of(tagged)),
                }
        entries.append(entry)
    if as_json:
        return json.dumps({"n": n, "k": k, "paths": entries}, indent=1, sort_keys=True) + "\n"
    lines = [f"# adjoint Pieri images for n={n} k={k}"]
    for entry in entries:
        lines.append(f"{entry['word']:>{max(3, n)}}  area={entry['area']:<3d} ht={entry['ht']}")
        for side in ("plus", "minus"):
            if side in entry:
                img = entry[side]
                lines.append(
                    f"    {side:5s} -> {img['word']:<{max(3, n)}} "
                    f"descents={img['descents']} hook={img['hook']}"
                )
    return "".join(line + "\n" for line in lines)


def test_hook_labels_equal_the_partition_text():
    # every arm and leg around the guard's edges: arm 0 with leg 0 ("empty"),
    # arm 0 with a leg, arms below 0, and heights outside 0..n-2
    def outcome(fn, *args):
        try:
            return fn(*args)
        except ValueError as exc:
            return ("ValueError", str(exc))

    for n in range(0, 9):
        label = cli._hook_labels(n)
        for ht in range(-2, n + 2):
            for a in range(-n - 4, 6):
                arm, leg = a + ht + 1, n - 2 - ht
                want = outcome(lambda: partition_str(hook_index(arm, leg, "EN")))
                assert outcome(label, a, ht, "EN") == want, (n, a, ht)
                assert want == outcome(lambda: partition_str(paths.path_hook(n, a, ht, "EN")))
        assert outcome(label, -n + 1, n - 2) == "empty"
        assert outcome(label, -n, n - 2) == ("ValueError", "hook arm -1 out of range for ")
        if n >= 3:
            assert outcome(label, -1, 0, "NE") == ("ValueError", "hook arm 0 out of range for NE")


def test_pieri_output_matches_reference_rendering(capsys):
    for n in range(2, 9):
        for k in range(0, n - 1):
            for as_json in (False, True):
                argv = ["--json"] if as_json else []
                code, out = run_cli(capsys, *argv, "pieri", "--n", str(n), "--k", str(k))
                assert code == 0
                assert out == reference_pieri_output(n, k, as_json), (n, k, as_json)


def test_pieri_output_matches_pinned_digests(capsys):
    # the reference above is built from the maps under test; these digests
    # of the same listings were taken before the maps were read by word
    for argv, digest in (
        (["pieri", "--n", "8", "--k", "2"],
         "99d87710fd9fabdbbcaa6ec0780899a40fb7b561f4df7f6a2cfe8c29fd933efc"),
        (["--json", "pieri", "--n", "8", "--k", "3"],
         "c62e7bd99e6e5bf73f279a84463b96a0d4f63f068cea5edf3796109fd98c7e37"),
    ):
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv
    # every listing of n <= 12 at every k, hashed in order; taken before the
    # map kernels took a range of k
    for argv, digest in (
        ([], "81f945b40257cc418710e4c275f13269d42c71119e2659c3910fda136dd683e6"),
        (["--json"], "dbfacb58178774f432e0e3e94cc4e8d98be5c74cb7f2f84cbf95a729ace93a7d"),
    ):
        sweep = hashlib.sha256()
        for n in range(2, 13):
            for k in range(0, n - 1):
                code, out = run_cli(capsys, *argv, "pieri", "--n", str(n), "--k", str(k))
                assert code == 0
                sweep.update(out.encode())
        assert sweep.hexdigest() == digest, argv


with open(os.path.join(os.path.dirname(__file__), "pinned.json")) as pinned_file:
    PINNED = json.load(pinned_file)


@pytest.mark.parametrize("pin", PINNED, ids=lambda pin: " ".join(pin["argv"]))
def test_pinned_output(capsys, pin):
    # each pin's "why" says what a changed digest or last line would miss
    code, out = run_cli(capsys, *pin["argv"])
    assert code == pin["exit"]
    if "sha256" in pin:
        assert hashlib.sha256(out.encode()).hexdigest() == pin["sha256"]
    else:
        assert out.splitlines()[-1] == pin["last_line"]


def test_pieri_reads_its_images_without_building_a_path(monkeypatch, capsys):
    # the constructors wrapped as test_pierimaps wraps TaggedPath's, and the
    # trusted path constructor too
    built = []
    for cls in (pierimaps.TaggedPath, paths.LatticePath):
        def counting_init(self, *args, init=cls.__dict__["__init__"]):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", counting_init)
    trusted = paths.LatticePath._trusted

    def counting_trusted(*args):
        built.append(args)
        return trusted(*args)

    monkeypatch.setattr(paths.LatticePath, "_trusted", staticmethod(counting_trusted))
    pierimaps.e_plus_map(2, paths.LatticePath(8, 0, "NENEEE"))
    assert len(built) == 3  # the base path, its image and the tagged pair
    built.clear()
    for argv in (["pieri", "--n", "8", "--k", "2"], ["--json", "pieri", "--n", "8", "--k", "2"]):
        code, out = run_cli(capsys, *argv)
        assert code == 0 and out
    # the map checks and the perp sum read the same way
    stats = cache(lambda k: pierimaps.image_stats(6, k))
    members = cache(lambda k: pierimaps.member_prefixes(6, k))
    table = cache(lambda: pierimaps.suffix_table(6))
    for minus in (False, True):
        assert verify._check_pieri(6, minus, stats, members, table) is None
    pierimaps.perp_via_paths(6, 2)
    assert built == []


@pytest.mark.parametrize("as_json", [False, True])
def test_paths_listing_memory_does_not_grow_with_the_family(as_json):
    # 2^16 rows stream through a bounded block walk; one object per row
    # would hold over 10 MB
    argv = (["--json"] if as_json else []) + ["paths", "--n", "18"]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = cli.main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 1_000_000, peak


def test_paths_text_output_matches_reference_where_classes_repeat(capsys):
    # paths labels each (area, ht) class once; these families repeat classes most
    for n in (13, 14):
        for s in range(0, 3):
            code, out = run_cli(capsys, "paths", "--n", str(n), "--s", str(s))
            assert code == 0
            assert out == reference_paths_output(n, s, False), (n, s)


def test_verify_rejects_caps_below_suite_minimum(capsys):
    # the refusal probes each suite for its smallest cap: every suite is
    # refused one below it, naming it, and runs at it
    smallest = {
        "gf": 2, "alternating": 3, "restriction2": 2, "hrs-t0": 2,
        "pieri-paths": 3, "bijections": 3, "two-column": 2, "difference-W": 3,
    }
    assert set(smallest) == set(verify.SUITES)
    cases = [(["verify", "--suite", suite, "--max-n", str(m - 1)], m) for suite, m in smallest.items()]
    cases += [
        (["verify", "--suite", "gf", "--max-n", "-3"], 2),
        (["--max-n", "1", "verify", "--suite", "all"], 2),
    ]
    for argv, m in cases:
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error (verify): max_n={argv[argv.index('--max-n') + 1]} is below {m},")
    for suite, m in smallest.items():
        assert verify.run_suite(suite, m), suite
    # the smallest caps still run: two-column's emptiness check runs one size past
    code, out = run_cli(capsys, "verify", "--suite", "two-column", "--max-n", "2")
    assert code == 0 and out.endswith("# 1 instances: pass=1\n")
    code, out = run_cli(capsys, "verify", "--suite", "all", "--max-n", "2")
    assert code == 0 and "# 0 instances" not in out


def test_verify_exit_codes(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "gf", "--max-n", "5")
    assert code == 0
    assert "[PASS" in out
    # reported statuses never flip the exit code
    code, out = run_cli(capsys, "verify", "--suite", "difference-W", "--max-n", "4")
    assert code == 0
    assert "[REPORTED]" in out


def test_verify_unknown_suite():
    with pytest.raises(SystemExit):
        cli.main(["verify", "--suite", "bogus"])


def test_has_failure_contract():
    ok = VerifyReport("x", {}, "pass")
    rep = VerifyReport("x", {}, "reported")
    bad = VerifyReport("x", {}, "fail", witness="counterexample")
    assert not has_failure([ok, rep])
    assert has_failure([ok, bad])


def test_verify_reports_compare_without_their_timing():
    a = VerifyReport("x", {"n": 3}, "fail", witness="w", seconds=0.5)
    assert a == VerifyReport("x", {"n": 3}, "fail", "w")
    assert a != VerifyReport("x", {"n": 3}, "fail", witness="v", seconds=0.5)
    assert a.witness == "w" and a.seconds == 0.5
    assert VerifyReport("x", {}, "pass").witness is None
    assert "__init__" in VerifyReport.__dict__  # bench/passrun.py wraps it


def test_byte_identical_output(capsys):
    first = run_cli(capsys, "verify", "--suite", "pieri-paths", "--max-n", "5")
    second = run_cli(capsys, "verify", "--suite", "pieri-paths", "--max-n", "5")
    assert first == second
    first = run_cli(capsys, "--json", "expand", "--mu", "2,1,1")
    second = run_cli(capsys, "--json", "expand", "--mu", "2,1,1")
    assert first == second


def test_verify_json_shape(capsys):
    _, out = run_cli(capsys, "--json", "verify", "--suite", "two-column", "--max-n", "5")
    docs = json.loads(out)
    assert all(d["status"] in ("pass", "fail", "reported") for d in docs)
    assert all("seconds" not in d for d in docs)  # timings only on request


def test_cli_error_handling(capsys):
    code = cli.main(["expand", "--mu", "2,9"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error (expand):" in err


def test_global_max_n(capsys):
    code, out = run_cli(capsys, "--max-n", "5", "verify", "--suite", "bijections")
    assert code == 0
    assert "n=5" in out and "n=6" not in out
    # a cap above a suite's default runs the default, as it does for "all"
    code, out = run_cli(capsys, "verify", "--suite", "gf", "--max-n", "30")
    assert code == 0 and out.endswith("# 39 instances: pass=39\n")


def call_main(argv):
    """(exit code, stdout, stderr) of one cli.main call, argparse's own exits
    included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def shared_and_fresh(monkeypatch, argvs):
    """Each argv's call_main result through one parser shared by every call,
    then through a fresh parser per call, and how many parsers each built."""
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    monkeypatch.setattr(cli, "_parser", None)
    shared = [call_main(argv) for argv in argvs]
    shared_builds = len(built)
    fresh = []
    for argv in argvs:
        monkeypatch.setattr(cli, "_parser", None)
        fresh.append(call_main(argv))
    return shared, fresh, shared_builds, len(built) - shared_builds


def test_main_calls_in_one_process_are_independent(monkeypatch):
    # a refused argv, then options that must not carry over to the next call:
    # the top-level cap, the verify subparser's own (SUPPRESSed) cap and --json
    argvs = [
        ["gf", "--n", "x"],
        ["--max-n", "3", "verify", "--suite", "gf"],
        ["verify", "--suite", "gf"],
        ["--json", "gf", "--n", "6"],
        ["gf", "--n", "6"],
        ["verify", "--suite", "gf", "--max-n", "4"],
    ]
    shared, fresh, shared_builds, fresh_builds = shared_and_fresh(monkeypatch, argvs)
    assert (shared_builds, fresh_builds) == (1, len(argvs))
    for argv, got, want in zip(argvs, shared, fresh):
        assert got == want, argv
    refused, capped, full, as_json, text, recapped = shared
    assert refused[0] == 2 and refused[1] == "" and "invalid int value: 'x'" in refused[2]
    assert capped[0] == 0 and capped[1].endswith("# 6 instances: pass=6\n")
    assert full[0] == 0 and full[1].endswith("# 39 instances: pass=39\n")
    assert json.loads(as_json[1])["matches_closed_form"] is True
    assert text[1].startswith("# generating function for n=6 s=0\n")
    assert recapped[0] == 0 and recapped[1].endswith("# 9 instances: pass=9\n")


def test_the_shared_parser_changes_no_output(monkeypatch):
    # every command the paths-gf benchmark pool can draw, some under --json,
    # and the eight suites as the verify-all benchmark runs them
    argvs = [
        [command, "--n", str(n), "--s", str(s)]
        for command, sizes in (("gf", range(13, 20)), ("paths", range(10, 16)))
        for n in sizes for s in range(n - 1)
    ]
    argvs += [["--json"] + argv for argv in argvs if argv[2] in ("10", "13", "19")]
    argvs += [["--json", "verify", "--suite", suite] for suite in sorted(verify.SUITES)]
    shared, fresh, shared_builds, fresh_builds = shared_and_fresh(monkeypatch, argvs)
    assert (shared_builds, fresh_builds) == (1, len(argvs))
    for argv, got, want in zip(argvs, shared, fresh):
        assert got == want, argv
        assert got[0] == 0 and got[1] and got[2] == "", argv


def test_verify_all_small_cap(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "all", "--max-n", "5")
    assert code == 0
    assert "fail" not in out.split("# ")[-1]


# listings stay at n <= 14; sizes of 23 or more must be refused
_LISTED = st.integers(-3, 14)
_OVERSIZED = st.integers(23, 10 ** 12)
_PARAMETER = st.integers(-3, 14) | st.integers(10 ** 6, 10 ** 18)  # s, k or r
_NOT_AN_INT = st.sampled_from(["", "x", "1.5", "--3", "1e3"])


@st.composite
def _argv(draw):
    """(argv, oversized): one command line over expand, paths, gf, pieri and
    two-column, with malformed partitions, words and numbers among them."""
    command = draw(st.sampled_from(["expand", "paths", "gf", "pieri", "two-column"]))
    oversized = draw(st.booleans())
    n = draw(_OVERSIZED if oversized else _LISTED)

    def number(ints=_PARAMETER):  # one in eight is no integer at all
        return str(draw(ints)) if draw(st.integers(0, 7)) else draw(_NOT_AN_INT)

    argv = [command]
    if command == "expand":
        parts = st.lists(st.integers(1, 4), min_size=1, max_size=4).map(lambda ps: sorted(ps, reverse=True))
        parts |= st.lists(st.integers(-1, 4), max_size=4)  # mostly malformed
        malformed = st.sampled_from(["", "x", "3,,1", "empty"])
        mu = f"{n},1" if oversized else draw(parts.map(lambda ps: ",".join(map(str, ps))) | malformed)
        argv += ["--mu", mu, "--r", number()]
        argv += draw(st.sampled_from([[], ["--specialize", "2"], ["--restrict", "hooks"]]))
    elif command in ("paths", "gf"):
        # an n of 23 or more is refused: by gf from a start height of 0 or
        # below, and by paths from any start height
        heights = _PARAMETER
        if oversized:
            heights = st.integers(-3, 0) if command == "gf" else st.integers(-3, n) | st.integers(n - 22, n)
        argv += ["--n", number(st.just(n)), "--s", number(heights)]
    elif command == "pieri":
        argv += ["--n", number(st.just(n)), "--k", number()]
        word = st.text("NE", min_size=max(n - 2, 0), max_size=max(n - 2, 0))
        path = draw(st.none() | st.text("NEx", max_size=16) | (st.nothing() if oversized else word))
        argv += [] if path is None else ["--path", path]
    else:
        argv += ["--n", number(st.just(n))]
    return draw(st.sampled_from([[], ["--json"]])) + argv, oversized


@settings(max_examples=60, deadline=None)
@given(_argv())
def test_no_command_line_hangs_or_ends_in_a_traceback(case):
    argv, oversized = case
    code, out, err = call_main(argv)  # argparse refuses a malformed number by SystemExit(2)
    assert code in (0, 2), (argv, code, err)
    assert "Traceback" not in err, argv
    if oversized:
        assert code == 2 and out == "", argv
