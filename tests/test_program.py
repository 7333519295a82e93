"""The CLI run as a program: its BLAS thread cap, its fast exit and its entry points."""

import contextlib
import io
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from v2vlos.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")
SCENARIO = ["--env", "urban", "--density", "low", "--seed", "2"]

# The two ways a process starts the CLI: ``python -m v2vlos.cli`` and the
# ``v2vlos`` console script, whose wrapper calls ``v2vlos.__main__.main``.
ENTRIES = {
    "module": 'import runpy; runpy.run_module("v2vlos.cli", run_name="__main__", alter_sys=True)',
    "script": "import sys; from v2vlos.__main__ import main; sys.exit(main())",
}

# An entry with os.fork and os._exit patched to report the process's OS threads first.
_REPORTING = """
import os
def threads():
    return len(os.listdir("/proc/self/task"))
def report(what):
    os.write(2, f"{what} threads={threads()} blas={os.environ.get('OPENBLAS_NUM_THREADS')}\\n".encode())
fork, exit_ = os.fork, os._exit
def reporting_fork():
    report("fork")
    return fork()
def reporting_exit(code):
    report("exit")
    exit_(code)
os.fork, os._exit = reporting_fork, reporting_exit
"""


def _env(**extra):
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("PYTHONUNBUFFERED", None)  # buffered, so the exit's flush has work to do
    if "OPENBLAS_NUM_THREADS" not in extra:
        env.pop("OPENBLAS_NUM_THREADS", None)
    return env


def _reported(argv, entry="module", **env):
    r = subprocess.run([sys.executable, "-c", _REPORTING + ENTRIES[entry], *argv], capture_output=True, text=True,
                       env=_env(**env))
    assert r.returncode == 0, r.stderr
    return [line for line in r.stderr.splitlines() if " threads=" in line]


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("program") / "t.csv"
    assert _in_process(["generate", *SCENARIO, "--steps", "300", "--count", "10", "--out", str(path)])[0] == 0
    return path


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
@pytest.mark.parametrize("entry", list(ENTRIES))
def test_a_generate_process_ends_with_one_thread(tmp_path, entry):
    argv = ["generate", *SCENARIO, "--steps", "30", "--count", "3", "--out", str(tmp_path / "t.csv")]
    assert _reported(argv, entry) == ["exit threads=1 blas=1"]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
def test_an_estimate_fit_process_never_forks_and_ends_with_one_thread(tmp_path, trace_file):
    argv = ["estimate", *SCENARIO, "--traces", str(trace_file), "--out-report", str(tmp_path / "r.txt"),
            "--fit", "--out-model", str(tmp_path / "m.json")]
    # It reads, counts and refits in this one process: no fork is reported.
    assert _reported(argv) == ["exit threads=1 blas=1"]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
def test_a_thread_count_the_caller_set_is_kept(tmp_path):
    argv = ["generate", *SCENARIO, "--steps", "30", "--out", str(tmp_path / "t.csv")]
    [line] = _reported(argv, OPENBLAS_NUM_THREADS="2")
    assert line.startswith("exit ") and line.endswith(" blas=2")


def test_library_use_leaves_the_environment_and_the_exit_alone(tmp_path):
    script = f"""
import atexit, os
before = dict(os.environ)
import v2vlos, v2vlos.cli
assert v2vlos.cli.main(["generate", *{SCENARIO!r}, "--steps", "30", "--out", {str(tmp_path / "t.csv")!r}]) == 0
assert dict(os.environ) == before
atexit.register(print, "atexit ran")
"""
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_env())
    assert r.returncode == 0, r.stderr
    assert r.stdout.endswith("atexit ran\n")


_CASES = {
    "version": (0, ["--version"]),
    "help": (0, ["--help"]),
    "usage-error": (2, ["generate", "--bogus"]),
    "runtime-error": (1, ["generate", *SCENARIO, "--trace-in", "missing.csv", "--out", "o.csv"]),
    "generate": (0, ["generate", *SCENARIO, "--steps", "40", "--count", "2", "--out", "t.csv"]),
    "curves": (0, ["curves", *SCENARIO, "--d-step", "25", "--out", "c.csv"]),
    "compare": (0, ["compare", *SCENARIO, "--steps", "40", "--out", "cmp.csv"]),
    "estimate": (0, ["estimate", *SCENARIO, "--traces", "TRACES"]),
    "estimate-fit": (0, ["estimate", *SCENARIO, "--traces", "TRACES", "--fit", "--out-model", "m.json"]),
}


@pytest.mark.parametrize("program", [["-m", "v2vlos.cli"], ["-m", "v2vlos"], ["-c", ENTRIES["script"]]],
                         ids=["cli", "package", "script"])
@pytest.mark.parametrize("case", list(_CASES))
def test_the_program_prints_and_exits_as_main_does(tmp_path, monkeypatch, trace_file, program, case):
    # stdout and stderr are pipes here: every byte main writes must arrive.
    # Warnings are silenced in-process, so the child does not print them either.
    expected_code, argv = _CASES[case]
    argv = [str(trace_file) if a == "TRACES" else a for a in argv]
    monkeypatch.chdir(tmp_path)
    expected = _in_process(argv)
    r = subprocess.run([sys.executable, "-W", "ignore::UserWarning", *program, *argv], capture_output=True,
                       text=True, env=_env())
    assert (r.returncode, r.stdout, r.stderr) == expected
    assert expected[0] == expected_code and (expected[1] or expected[2])
    if case in ("version", "help"):
        assert r.stdout.startswith(("v2vlos 0.1.0", "usage: v2vlos"))


def test_a_closed_stdout_ends_as_it_did_before_the_fast_exit(tmp_path):
    # generate's summary waits in the stdout buffer, whose flush then fails. The
    # program leaves through ``raise SystemExit(code)``, as the entry did before.
    before = "from v2vlos.cli import main\nraise SystemExit(main())"
    argv = ["generate", *SCENARIO, "--steps", "20", "--out", str(tmp_path / "t.csv")]
    results = []
    for program in (["-c", before], ["-m", "v2vlos.cli"]):
        read, write = os.pipe()
        os.close(read)
        try:
            r = subprocess.run([sys.executable, *program, *argv], stdout=write, stderr=subprocess.PIPE,
                               text=True, env=_env())
        finally:
            os.close(write)
        results.append((r.returncode, r.stderr))
    assert results[0] == results[1]
    assert results[1][0] != 0 and "BrokenPipeError" in results[1][1]


# A short fast urban walk whose refit drops 14 points from an exponential fit, with a UserWarning.
_URBAN_WALK = ["--env", "urban", "--density", "medium", "--profile", "walk", "--vmax", "60", "--d0", "250",
               "--steps", "40", "--count", "1", "--seed", "5"]
_URBAN_REFIT = ["estimate", "--env", "urban", "--density", "medium", "--traces", "t.csv", "--out-report", "r.txt",
                "--fit", "--out-model", "m.json"]


def _outputs(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _run_in(directory, argv, *options):
    return subprocess.run([sys.executable, *options, "-m", "v2vlos.cli", *argv], capture_output=True, text=True,
                          env=_env(), cwd=directory)


def test_the_program_prints_a_warning_as_one_line(tmp_path, monkeypatch):
    program, library = tmp_path / "program", tmp_path / "library"
    program.mkdir(), library.mkdir()
    generate = _run_in(program, ["generate", *_URBAN_WALK, "--out", "t.csv"])
    refit = _run_in(program, _URBAN_REFIT)
    assert (generate.returncode, generate.stderr) == (0, "")
    assert (refit.returncode, refit.stderr) == (0, "warning: excluded 14 non-positive point(s) from exponential fit\n")
    # Only stderr changes: stdout and every file are what main writes when called from Python.
    monkeypatch.chdir(library)
    assert _in_process(["generate", *_URBAN_WALK, "--out", "t.csv"]) == (0, generate.stdout, "")
    assert _in_process(_URBAN_REFIT) == (0, refit.stdout, "")
    assert _outputs(program) == _outputs(library)
    # Warning filters still apply.
    quiet = _run_in(program, _URBAN_REFIT, "-W", "ignore::UserWarning")
    assert (quiet.returncode, quiet.stdout, quiet.stderr) == (0, refit.stdout, "")


def test_each_clamped_distance_warns_on_one_line(tmp_path):
    (tmp_path / "d.csv").write_text("t,d\n0,0.5\n1,0.7\n2,3.0\n", encoding="utf-8")
    r = _run_in(tmp_path, ["generate", *SCENARIO, "--trace-in", "d.csv", "--out", "t.csv"])
    assert r.returncode == 0, r.stderr
    lines = r.stderr.splitlines()
    assert [line.split(" m ")[0] for line in lines] == ["warning: distance 0.5", "warning: distance 0.7"]
    assert not any(".py:" in line for line in lines)


def test_library_use_leaves_the_warning_format_alone(tmp_path):
    script = f"""
import warnings
before = warnings.formatwarning
import v2vlos.cli
assert v2vlos.cli.main(["generate", *{_URBAN_WALK!r}, "--out", "t.csv"]) == 0
assert v2vlos.cli.main({_URBAN_REFIT!r}) == 0
assert warnings.formatwarning is before
"""
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_env(), cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert "estimation.py:" in r.stderr and "UserWarning: excluded 14 non-positive point(s)" in r.stderr
