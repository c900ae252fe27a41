"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py"""

import copy
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import golden  # noqa: E402
import passrun  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

RECORD = golden.load_golden()
SMOKE = {"verify-all": [["--json", "verify", "--suite", "two-column"]]}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_argvs_other_seed_other_sample(name):
    assert workloads.sample(name, 7) == workloads.sample(name, 7)
    a, b = workloads.sample(name, 7), workloads.sample(name, 8)
    assert a != b
    if name != "verify-all":  # its sample is the whole pool; the seed sets the order
        assert sorted(a) != sorted(b)
    pool = {tuple(argv) for argv in workloads.pool(name)}
    assert {tuple(argv) for argv in a} <= pool


def test_pass_sizes_leave_ten_samples_beyond_p90():
    for name in ("expand-mix", "paths-gf"):
        assert len(workloads.sample(name, 1)) >= 100


def test_golden_covers_every_pool():
    for name in workloads.WORKLOADS:
        assert set(RECORD[name]) == {" ".join(argv) for argv in workloads.pool(name)}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_pass(name):
    argvs = SMOKE.get(name) or workloads.sample(name, 3, size=4)
    result = passrun.run_pass(argvs)
    attempted, failed, problems = run.judge(name, [result], RECORD)
    assert attempted >= len(argvs) and failed == 0 and problems == []


def test_verify_time_is_cut_per_instance():
    argvs = [["--json", "verify", "--suite", "two-column"], ["gf", "--n", "9", "--s", "1"]]
    verify_cmd, gf_cmd = passrun.run_pass(argvs)["commands"]
    assert len(verify_cmd["pieces"]) == len(verify_cmd["instances"]) + 1
    assert gf_cmd["pieces"] == [gf_cmd["seconds"]]
    assert sum(verify_cmd["pieces"]) == pytest.approx(verify_cmd["seconds"])
    fast = dict(verify_cmd, pieces=[p / 2 for p in verify_cmd["pieces"]])
    assert run._best_s([verify_cmd, fast]) == pytest.approx(verify_cmd["seconds"] / 2)


def test_corrupted_golden_fails_the_run(monkeypatch, capsys):
    bad = copy.deepcopy(RECORD)
    key = " ".join(workloads.sample("paths-gf", 1)[0])
    bad["paths-gf"][key]["sha256"] = "0" * 64
    monkeypatch.setattr(golden, "load_golden", lambda: bad)
    code = run.main(["--workload", "paths-gf", "--seed", "1", "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] > 0


def test_wrong_output_is_caught_without_golden():
    assert passrun.independent_check(["gf", "--n", "5", "--s", "0"], "# closed form agrees: False\n")
    assert passrun.independent_check(["paths", "--n", "5", "--s", "0"], "# paths for n=5 s=0: 8 total\n")
    assert passrun.independent_check(["gf", "--n", "5", "--s", "0"], "x\n# closed form agrees: True\n") is None


def _traced(argvs):
    proc = subprocess.run(
        [sys.executable, passrun.__file__, "pass"],
        input=json.dumps({"argvs": argvs, "trace": True}),
        capture_output=True, text=True, check=True, timeout=120,
    )
    layers = json.loads(proc.stdout)["layers"]
    return {k: v for k, v in layers.items() if not k.endswith("_s")}


def test_traced_counts_repeat_exactly():
    argvs = workloads.sample("expand-mix", 2, size=3) + [
        ["--json", "verify", "--suite", "two-column"], ["gf", "--n", "9", "--s", "1"],
    ]
    first = _traced(argvs)
    assert first == _traced(argvs)
    assert first["characters.calls"] >= 3 and first["verify.instances"] > 0


def test_tracer_restores_the_library():
    from hookpaths import characters, cli, paths, qpoly
    from tracing import Tracer

    before = (paths.enumerate_T, characters.enumerate_T, cli.enumerate_T,
              qpoly.LaurentPoly.__add__, cli.main)
    tracer = Tracer()
    with tracer.installed():
        assert characters.enumerate_T is cli.enumerate_T is not before[0]
        qpoly.LaurentPoly.const(1) + qpoly.LaurentPoly.const(2)
    after = (paths.enumerate_T, characters.enumerate_T, cli.enumerate_T,
             qpoly.LaurentPoly.__add__, cli.main)
    assert after == before
    assert tracer.counts["qpoly.add_calls"] == 1
