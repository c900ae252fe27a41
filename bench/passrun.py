"""One measurement in a fresh interpreter; started by run.py.

    python3 bench/passrun.py setup     time `import hookpaths.cli` + load_fixture()
    python3 bench/passrun.py pass      run the argv lists read as JSON from stdin

A pass runs each command in-process through `hookpaths.cli.main` with its
output captured, one after the other, and prints one JSON object: the pass's
wall time, its peak RSS, and per command the exit code, an output digest,
the latency, the latency cut at the end of each verify instance, and the
result of the cheap independent checks.  With {"trace": true} it instead
wraps the library's entry points and reports the per-layer counts and self
times.

Only modules the interpreter has already loaded are imported before the
setup clock starts, so the setup time includes every import the CLI pays.
"""

import contextlib
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)


def _check_origin():
    import hookpaths

    if not os.path.abspath(hookpaths.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"hookpaths imported from {hookpaths.__file__}, not {SRC}")


def measure_setup():
    start = time.perf_counter()
    import hookpaths.cli  # noqa: F401
    from hookpaths.fixtures import load_fixture

    load_fixture()
    elapsed = time.perf_counter() - start
    _check_origin()
    return elapsed


def _flag(argv, name):
    return int(argv[argv.index(name) + 1])


def subcommand(argv):
    return next(arg for arg in argv if not arg.startswith("-"))


def independent_check(argv, text):
    """An error string when the output breaks a property known without the
    golden record, else None."""
    command = subcommand(argv)
    if command == "gf":
        lines = text.splitlines()
        if not lines or lines[-1] != "# closed form agrees: True":
            return "gf: closed form does not agree"
    elif command == "paths":
        n, s = _flag(argv, "--n"), _flag(argv, "--s")
        expected = 2 ** (n - s - 2)
        lines = text.splitlines()
        header = f"# paths for n={n} s={s}: {expected} total"
        if not lines or lines[0] != header or len(lines) - 1 != expected:
            return f"paths: expected {expected} rows"
    return None


@contextlib.contextmanager
def instance_marks(marks):
    """Append the time to `marks` whenever a verify instance ends.

    Each instance ends by building its VerifyReport, so the marks cut a
    verify command's time into one piece per instance, with the suite's own
    work between instances in the piece that follows it.
    """
    from hookpaths import verify

    cls = verify.VerifyReport
    original = cls.__init__

    def __init__(self, *args, **kwargs):
        original(self, *args, **kwargs)
        marks.append(time.perf_counter())

    cls.__init__ = __init__
    try:
        yield
    finally:
        cls.__init__ = original


def run_command(cli, argv, marks=None):
    """Run one CLI command in-process and describe its outcome.

    With a `marks` list filled by instance_marks(), the result also has the
    command's time cut into pieces at the marks.
    """
    import hashlib
    import io
    import json

    out, err = io.StringIO(), io.StringIO()
    error = None
    if marks is not None:
        marks.clear()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects an argv this way
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception as exc:  # an uncaught error is a failed command, not a crashed pass
            code, error = None, f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    text = out.getvalue()
    data = text.encode()
    result = {
        "argv": argv,
        "exit": code,
        "sha256": hashlib.sha256(data).hexdigest(),
        "bytes": len(data),
        "check": error or independent_check(argv, text),
        "seconds": end - start,
    }
    if marks is not None:
        cuts = [start] + marks + [end]
        result["pieces"] = [b - a for a, b in zip(cuts, cuts[1:])]
    if subcommand(argv) == "verify" and code is not None:
        try:
            result["instances"] = [
                [r["suite"], r["params"], r["status"], r["witness"]] for r in json.loads(text)
            ]
        except (ValueError, KeyError, TypeError):
            result["instances"] = None
    return result


def run_pass(argvs, trace=False):
    """One closed-loop pass over `argvs`; the JSON-ready result.

    An untraced pass also cuts each command's time at its verify instances.
    """
    import resource

    from hookpaths import cli, fixtures, qpoly

    _check_origin()
    gauss = qpoly.gauss_binomial  # the cached function itself, not a trace wrapper
    tracer = marks = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        stack = tracer.installed()
    else:
        marks = []
        stack = instance_marks(marks)
    with stack:
        if tracer is not None:
            fixtures.load_fixture()  # fixtures.self_s: the part of setup the CLI repeats
        before = gauss.cache_info()
        commands = []
        start = time.perf_counter()
        for argv in argvs:
            commands.append(run_command(cli, argv, marks))
        wall = time.perf_counter() - start
        after = gauss.cache_info()
    out = {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "commands": commands,
    }
    if tracer is not None:
        hits, misses = after.hits - before.hits, after.misses - before.misses
        layers = tracer.layer_metrics()
        layers["qpoly.gauss_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        layers["cli.bytes_out"] = sum(c["bytes"] for c in commands)
        out["layers"] = layers
        out["spans"] = tracer.record()
    return out


def main(argv):
    if argv == ["setup"]:
        seconds = measure_setup()
        import json

        print(json.dumps({"setup_s": seconds}))
        return 0
    if argv == ["pass"]:
        import json

        spec = json.load(sys.stdin)
        print(json.dumps(run_pass(spec["argvs"], spec.get("trace", False))))
        return 0
    print("usage: passrun.py setup | pass  (pass reads {\"argvs\": [...]} on stdin)",
          file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
