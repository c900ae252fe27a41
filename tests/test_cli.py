import contextlib
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

import hookpaths
from hookpaths import cli, fixtures, paths, pierimaps
from hookpaths.paths import enumerate_T, gf_T, gf_closed, hat_gf, stats_T, words_T
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
    code, out = run_cli(capsys, "two-column", "--n", "6")
    assert code == 0
    assert "forms agree: True" in out


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
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'importlib.resources', 'typing')"
        " if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


def test_map_assertion_is_a_clean_cli_error(monkeypatch, capsys):
    # stats whose first two east steps give the same descent n-2
    monkeypatch.setattr(pierimaps, "path_stats", lambda path: pierimaps.PathStats((1, 0), 0, ()))
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
    # the path form enumerates the same family, and both forms are refused
    # before either runs: same bound
    code = cli.main(["two-column", "--n", "30"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        "error (two-column): the two-column forms at n=30 sum over 2^28 paths, "
        "past the enumeration bound of 2^20\n"
    )


def test_path_bound_is_shared(monkeypatch, capsys):
    # one bound behind every path family consumer: a 5-step family is
    # refused under a bound of 4 steps, a 4-step one is not
    monkeypatch.setattr(paths, "PATH_STEP_BOUND", 4)
    refusal = "the (n=7, s=0) family has 2^5 paths, past the enumeration bound of 2^4"
    for fn in (enumerate_T, stats_T, words_T, gf_T, hat_gf):
        with pytest.raises(ValueError) as exc:
            fn(7, 0)
        assert str(exc.value) == refusal
        fn(6, 0)
    for fn in (enumerate_T, stats_T, words_T, gf_T, gf_closed):
        assert fn(7, 1)  # 4 steps from start height 1
        with pytest.raises(ValueError, match="start height must be nonnegative"):
            fn(5, -1)
    for command in ("gf", "paths"):
        assert cli.main([command, "--n", "7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error ({command}): {refusal}\n"
        assert cli.main([command, "--n", "6"]) == 0
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
    sides = (
        ("plus", pierimaps.plus_domain, pierimaps.e_plus_map),
        ("minus", pierimaps.minus_domain, pierimaps.e_minus_map),
    )
    entries = []
    for gamma in enumerate_T(n, 0):
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


def test_pieri_output_matches_reference_rendering(capsys):
    for n in range(2, 9):
        for k in range(0, n - 1):
            for as_json in (False, True):
                argv = ["--json"] if as_json else []
                code, out = run_cli(capsys, *argv, "pieri", "--n", str(n), "--k", str(k))
                assert code == 0
                assert out == reference_pieri_output(n, k, as_json), (n, k, as_json)


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
    for argv, smallest in (
        (["verify", "--suite", "gf", "--max-n", "-3"], 2),
        (["verify", "--suite", "pieri-paths", "--max-n", "2"], 3),
        (["--max-n", "1", "verify", "--suite", "all"], 2),
    ):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error (verify): max_n={argv[argv.index('--max-n') + 1]} is below {smallest}")
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


def test_verify_all_small_cap(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "all", "--max-n", "5")
    assert code == 0
    assert "fail" not in out.split("# ")[-1]
