"""Command-line interface: determinism, exit codes, output formats."""

import contextlib
import dataclasses
import io
import json
import math
import os
import shlex
import stat
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from v2vlos import (
    Density,
    DistanceTrace,
    Environment,
    PathLossParams,
    StateTrace,
    builtin_model,
    chain,
    cli,
    derive_subseed,
    load_scenario,
    markov,
    read_labeled_traces,
    write_state_traces,
)
from v2vlos.cli import main
from v2vlos.errors import ParseError, V2vLosError
from test_traces import ROW_RULES, row_rule_file

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, cwd=None, timeout=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "v2vlos.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=timeout,
    )


def test_generate_deterministic_across_processes(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["generate", "--env", "urban", "--density", "medium",
            "--profile", "separate1ms", "--steps", "60", "--seed", "7"]
    r1 = run_cli(*args, "--out", str(out1))
    r2 = run_cli(*args, "--out", str(out2))
    assert r1.returncode == 0 and r2.returncode == 0, r1.stderr + r2.stderr
    assert out1.read_bytes() == out2.read_bytes()
    assert "occupancy:" in r1.stdout


def test_generate_output_is_readable_labeled_trace(tmp_path):
    out = tmp_path / "t.csv"
    r = run_cli("generate", "--env", "highway", "--density", "low",
                "--steps", "40", "--seed", "3", "--count", "2", "--out", str(out))
    assert r.returncode == 0, r.stderr
    traces = read_labeled_traces(out)
    assert len(traces) == 2
    assert all(len(t) == 40 for t in traces)
    head = out.read_text().splitlines()[:4]  # the provenance lives in the file's header
    assert "# scenario=highway-low" in head and "# seed=3" in head


def test_generated_trace_i_is_the_library_trace_under_sub_seed_i(tmp_path):
    out = tmp_path / "t.csv"
    assert main(GENERATE + ["--profile", "walk", "--vmax", "10", "--d0", "100", "--steps", "60",
                            "--seed", "7", "--count", "2", "--out", str(out)]) == 0
    sampler = chain(builtin_model(Environment.URBAN, Density.LOW))
    for i, trace in enumerate(read_labeled_traces(out)):
        expected = sampler.trace(trace.grid, derive_subseed(7, i))
        assert trace.states.tobytes() == expected.states.tobytes(), i


def test_generate_provenance_header(tmp_path):
    out = tmp_path / "t.csv"
    run_cli("generate", "--env", "urban", "--density", "low", "--steps", "5",
            "--seed", "2", "--out", str(out))
    head = out.read_text().splitlines()[:4]
    assert head[0].startswith("# v2vlos=")
    assert "# command=generate" in head
    assert "# scenario=urban-low" in head
    assert "# seed=2" in head


def test_missing_required_flag_is_usage_error(tmp_path):
    r = run_cli("generate", "--env", "urban", "--steps", "10", "--out", str(tmp_path / "x.csv"))
    assert r.returncode == 2
    assert "density" in r.stderr


def test_invalid_density_lists_valid_values(tmp_path):
    r = run_cli("generate", "--env", "urban", "--density", "extreme",
                "--steps", "10", "--out", str(tmp_path / "x.csv"))
    assert r.returncode == 2
    for value in ("low", "medium", "high"):
        assert value in r.stderr


def read_table(path):
    """A CLI table as a structured array, one field per column, provenance lines skipped."""
    lines = [line for line in Path(path).read_text().splitlines() if not line.startswith("#")]
    return np.genfromtxt(lines, delimiter=",", names=True)


def test_runtime_error_exits_one(tmp_path):
    r = run_cli("generate", "--env", "urban", "--density", "low",
                "--trace-in", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "x.csv"))
    assert r.returncode == 1
    assert "error:" in r.stderr


def test_trace_time_beyond_int64_exits_one_naming_the_line(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("t,d,state\n0,10.0,LOS\n99999999999999999999,11.0,LOS\n", encoding="utf-8")
    out = tmp_path / "x.csv"
    for args in (("estimate", "--traces", str(path)), ("generate", "--trace-in", str(path), "--out", str(out))):
        r = run_cli(args[0], "--env", "urban", "--density", "low", *args[1:])
        assert r.returncode == 1, r.stderr
        assert r.stderr.startswith("error: line 3: ") and "Traceback" not in r.stderr
    assert not out.exists()


def test_curves_output_values_and_closure(tmp_path):
    out = tmp_path / "curves.csv"
    r = run_cli("curves", "--env", "urban", "--density", "high",
                "--d-max", "3", "--out", str(out))
    assert r.returncode == 0, r.stderr
    table = read_table(out)
    assert table["d"][0] == 1.0
    assert table["p_los"][0] == pytest.approx(0.8962 * math.exp(-0.017), abs=1e-6)
    # Columns cover the state vector and the full matrix.
    assert len(table.dtype.names) == 13
    sums = table["p_los"] + table["p_nlosv"] + table["p_nlosb"]
    assert all(abs(s - 1.0) < 1e-7 for s in sums)


def test_curves_show_piecewise_branch_switch(tmp_path):
    out = tmp_path / "curves.csv"
    r = run_cli("curves", "--env", "highway", "--density", "medium",
                "--d-min", "85", "--d-max", "95", "--out", str(out))
    assert r.returncode == 0, r.stderr
    table = read_table(out)
    d = table["d"]
    low_at_89 = -4.8e-5 * 89.0**2 - 5.62e-3 * 89.0 + 1.11
    high_at_90 = -2.286e-6 * 90.0**2 + 1.443e-3 * 90.0 + 0.1022
    i89 = list(d).index(89.0)
    i90 = list(d).index(90.0)
    assert table["p_nlosv_los"][i89] == pytest.approx(low_at_89, abs=1e-6)
    assert table["p_nlosv_los"][i90] == pytest.approx(high_at_90, abs=1e-6)


# (d_max - d_min) / d_step is 6.999999999999999, 0.9999999999999998, 8.999999999999998, 4.000000000000001 and 9.
_ON_GRID_D_MAX = [("1", "1.7", "0.1"), ("1", "1.2", "0.2"), ("1", "4.6", "0.4"), ("1", "2.2", "0.3"), ("1", "10", "1")]


@pytest.mark.parametrize("d_min, d_max, d_step", _ON_GRID_D_MAX, ids=["-".join(g) for g in _ON_GRID_D_MAX])
def test_curves_grid_ends_at_d_max(tmp_path, d_min, d_max, d_step):
    out = tmp_path / "c.csv"
    assert main(["curves", "--env", "urban", "--density", "low", "--d-min", d_min, "--d-max", d_max,
                 "--d-step", d_step, "--out", str(out)]) == 0
    d = read_table(out)["d"]
    rows = round((float(d_max) - float(d_min)) / float(d_step)) + 1
    assert len(d) == rows
    assert d.tolist() == pytest.approx([float(d_min) + i * float(d_step) for i in range(rows)], abs=1e-12)
    assert d[-1] == float(d_max)


@pytest.mark.parametrize("d_max, last", [("1.75", 1.7), ("1.74", 1.7), ("1.66", 1.6)])
def test_curves_grid_off_d_max_stops_below_it(tmp_path, d_max, last):
    out = tmp_path / "c.csv"
    assert main(["curves", "--env", "urban", "--density", "low", "--d-min", "1", "--d-max", d_max,
                 "--d-step", "0.1", "--out", str(out)]) == 0
    d = read_table(out)["d"]
    assert d[-1] == last and len(d) == round((last - 1.0) / 0.1) + 1


def test_compare_emits_joint_series_and_dwell_table(tmp_path):
    out = tmp_path / "compare.csv"
    r = run_cli("compare", "--env", "urban", "--density", "medium",
                "--steps", "80", "--seed", "5", "--out", str(out))
    assert r.returncode == 0, r.stderr
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "t,d,state_model,pl_model_db,state_umi,pl_umi_db"
    assert len(lines) == 81
    assert "model=proposed" in r.stdout
    assert "model=umi" in r.stdout
    first = lines[1].split(",")
    assert first[2] in ("LOS", "NLOSv", "NLOSb")
    assert first[4] in ("LOS", "NLOSb")


def test_estimate_report_and_fit(tmp_path):
    traces = tmp_path / "traces.csv"
    r = run_cli("generate", "--env", "urban", "--density", "medium",
                "--steps", "450", "--seed", "11", "--count", "30", "--out", str(traces))
    assert r.returncode == 0, r.stderr

    report = tmp_path / "report.txt"
    stats = tmp_path / "stats.csv"
    model_out = tmp_path / "fitted.json"
    r = run_cli("estimate", "--env", "urban", "--density", "medium",
                "--traces", str(traces), "--out-stats", str(stats),
                "--out-report", str(report), "--fit", "--out-model", str(model_out))
    assert r.returncode == 0, r.stderr

    text = report.read_text()
    assert "[los_probabilities]" in text
    assert "[transition_probabilities]" in text
    for state in ("LOS", "NLOSb", "NLOSv"):
        assert f"\n{state}=" in text
    for origin in ("LOS", "NLOSb", "NLOSv"):
        for target in ("LOS", "NLOSb", "NLOSv"):
            assert f"{origin}->{target}=" in text

    table = read_table(stats)
    assert len(table["bin"]) == 50

    fitted = load_scenario(model_out)
    assert fitted.environment.value == "urban"


def test_estimate_report_to_stdout(tmp_path):
    traces = tmp_path / "traces.csv"
    run_cli("generate", "--env", "urban", "--density", "low",
            "--steps", "300", "--seed", "1", "--count", "10", "--out", str(traces))
    r = run_cli("estimate", "--env", "urban", "--density", "low", "--traces", str(traces))
    assert r.returncode == 0, r.stderr
    assert "[los_probabilities]" in r.stdout


def test_config_file_supplies_defaults(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"steps": 25, "profile": "separate1ms"}), encoding="utf-8")
    out = tmp_path / "t.csv"
    r = run_cli("generate", "--env", "urban", "--density", "low", "--seed", "4",
                "--config", str(config), "--out", str(out))
    assert r.returncode == 0, r.stderr
    assert len(read_labeled_traces(out)[0]) == 25


def test_config_file_fills_options_that_have_defaults(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"count": 3, "steps": 4, "seed": 9, "d0": 5.0, "profile": "constant",
                                  "speed": 2.0}), encoding="utf-8")
    out = tmp_path / "t.csv"
    assert main(GENERATE + ["--config", str(config), "--out", str(out)]) == 0
    traces = read_labeled_traces(out)
    assert [len(t) for t in traces] == [4, 4, 4]
    assert "# seed=9" in out.read_text().splitlines()
    assert traces[0].distances.tolist() == [5.0, 7.0, 9.0, 11.0]
    # Flags win over the file, before or after --config.
    assert main(GENERATE + ["--count", "2", "--config", str(config), "--seed", "1", "--out", str(out)]) == 0
    traces = read_labeled_traces(out)
    assert len(traces) == 2 and "# seed=1" in out.read_text().splitlines()


def test_config_file_sets_curve_range(tmp_path):
    curves_cfg = tmp_path / "curves.json"
    curves_cfg.write_text(json.dumps({"d_min": 10.0, "d_max": 30.0, "d_step": 10.0}), encoding="utf-8")
    out = tmp_path / "c.csv"
    assert main(["curves", "--env", "urban", "--density", "low", "--config", str(curves_cfg),
                 "--out", str(out)]) == 0
    rows = [ln for ln in out.read_text().splitlines() if ln and not ln.startswith("#")][1:]
    assert [float(r.split(",")[0]) for r in rows] == [10.0, 20.0, 30.0]


def test_config_file_rejects_unknown_keys(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"stepz": 25}), encoding="utf-8")
    r = run_cli("generate", "--env", "urban", "--density", "low", "--seed", "4",
                "--config", str(config), "--out", str(tmp_path / "t.csv"))
    assert r.returncode == 2
    assert "stepz" in r.stderr


def test_flags_override_config(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"steps": 25}), encoding="utf-8")
    out = tmp_path / "t.csv"
    r = run_cli("generate", "--env", "urban", "--density", "low", "--seed", "4",
                "--steps", "10", "--config", str(config), "--out", str(out))
    assert r.returncode == 0, r.stderr
    assert len(read_labeled_traces(out)[0]) == 10


def test_version_flag():
    r = run_cli("--version")
    assert r.returncode == 0
    assert "v2vlos" in r.stdout


def readme_block(section):
    """The first fenced block of a README section, without its language tag."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split(f"## {section}", 1)[1].split("```", 2)[1]
    return block.split("\n", 1)[1]


def readme_commands():
    """The ``v2vlos`` lines of the README's command-line block, continuations joined."""
    block = readme_block("Command line")
    joined = block.replace("\\\n", " ")
    return [shlex.split(line) for line in joined.splitlines() if line.startswith("v2vlos ")]


def test_readme_commands_run_as_written(tmp_path):
    commands = readme_commands()
    assert [c[1] for c in commands] == ["generate", "curves", "compare", "estimate"]
    for argv in commands:
        r = run_cli(*argv[1:], cwd=str(tmp_path))
        assert r.returncode == 0, f"{' '.join(argv)}: {r.stderr}"
    assert load_scenario(tmp_path / "fit.json").environment.value == "urban"


def test_readme_quick_start_runs_as_written(capsys):
    block = readme_block("Quick start")
    assert "chain(model).trace(" in block and "fit_same_family(spec, " in block
    exec(compile(block, "README.md", "exec"), {})
    *_, occupancy, refit = capsys.readouterr().out.splitlines()
    assert sum(float(x) for x in occupancy.strip("[]").split()) == pytest.approx(1.0)
    assert refit.startswith("ExpDecay(a=")


def run_in_process(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code, capsys.readouterr().err


GENERATE = ["generate", "--env", "urban", "--density", "low"]


@pytest.mark.parametrize("flags", [
    ["--steps", "10", "--count", "0"],
    ["--steps", "10", "--count", "-2"],
    ["--steps", "0"],
    ["--steps", "-5"],
    ["--steps", "ten"],
], ids=["count-0", "count-negative", "steps-0", "steps-negative", "steps-not-a-number"])
def test_non_positive_sizes_are_usage_errors(tmp_path, capsys, flags):
    out = tmp_path / "t.csv"
    code, err = run_in_process(GENERATE + flags + ["--out", str(out)], capsys)
    assert code == 2
    assert "positive int" in err and "Traceback" not in err
    assert not out.exists()


# sys.maxsize itself is a valid size, of a batch that never ends; one more fails before anything is made.
_BIG = sys.maxsize + 1


def _big_size_argv(tmp_path, command, flags, config):
    (tmp_path / "in.csv").write_text("t,d\n0,10.0\n1,11.0\n", encoding="utf-8")
    argv = [command, "--env", "urban", "--density", "low", *(f.format(tmp=tmp_path) for f in flags)]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(tmp_path / "cfg.json")]
    return argv + ["--out", str(tmp_path / "out.csv")]


@pytest.mark.parametrize("command", ["generate", "compare"])
@pytest.mark.parametrize("flags, config", [
    (["--steps", "5", "--count", str(_BIG)], None),
    (["--trace-in", "{tmp}/in.csv", "--count", str(_BIG)], None),
    (["--steps", "5"], {"count": _BIG}),
    (["--trace-in", "{tmp}/in.csv"], {"count": _BIG}),
], ids=["flag", "flag-trace-in", "config", "config-trace-in"])
def test_a_count_above_sys_maxsize_is_a_usage_error(tmp_path, capsys, command, flags, config):
    code, err = run_in_process(_big_size_argv(tmp_path, command, flags, config), capsys)
    assert code == 2
    assert f"count: expected at most {sys.maxsize}, got" in err and "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command", ["generate", "compare"])
@pytest.mark.parametrize("flags, config", [(["--steps", str(_BIG)], None), ([], {"steps": _BIG})],
                         ids=["flag", "config"])
def test_steps_above_sys_maxsize_are_a_usage_error(tmp_path, capsys, command, flags, config):
    # Parsed only: without the bound, a trace of that many steps is built step by step until memory runs out.
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(_big_size_argv(tmp_path, command, flags, config))
    assert exc.value.code == 2 and f"expected at most {sys.maxsize}, got" in capsys.readouterr().err


@pytest.mark.parametrize("step", ["0", "-1", "nan", "inf"])
def test_curves_non_positive_step_is_usage_error(tmp_path, capsys, step):
    out = tmp_path / "c.csv"
    code, err = run_in_process(["curves", "--env", "urban", "--density", "low", "--d-step", step,
                                "--out", str(out)], capsys)
    assert code == 2
    assert "--d-step" in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--d-min", "--d-max"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e400"])
def test_curves_non_finite_bound_is_usage_error(tmp_path, capsys, flag, value):
    out = tmp_path / "c.csv"
    code, err = run_in_process(["curves", "--env", "urban", "--density", "low", f"{flag}={value}",
                                "--out", str(out)], capsys)
    assert code == 2
    assert f"{flag} must be finite" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("key", ["d_min", "d_max"])
@pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN"])
def test_curves_non_finite_bound_from_config_is_usage_error(tmp_path, capsys, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"{key}": {value}}}', encoding="utf-8")  # Python's json reads these names
    out = tmp_path / "c.csv"
    code, err = run_in_process(["curves", "--env", "urban", "--density", "low", "--config", str(cfg),
                                "--out", str(out)], capsys)
    assert code == 2
    assert f"--{key.replace('_', '-')} must be finite" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("how", ["flags", "config", "both"])
def test_curves_d_min_above_d_max_is_usage_error(tmp_path, capsys, how):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d_min": 10.0, "d_max": 5.0} if how == "config" else {"d_min": 10.0}),
                   encoding="utf-8")
    extra = {"flags": ["--d-min", "10", "--d-max", "5"],
             "config": ["--config", str(cfg)],
             "both": ["--config", str(cfg), "--d-max", "5"]}[how]
    out = tmp_path / "c.csv"
    code, err = run_in_process(["curves", "--env", "urban", "--density", "low", *extra, "--out", str(out)], capsys)
    assert code == 2
    assert "--d-min" in err and "--d-max" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--profile", "walk", "--vmax", "inf"],
    ["--profile", "walk", "--vmax", "1e300"],
    ["--profile", "constant", "--speed", "1e12"],
], ids=["vmax-inf", "vmax-huge", "speed-huge"])
def test_unbounded_profile_speeds_exit_one(tmp_path, flags):
    for command in ("generate", "compare"):
        out = tmp_path / f"{command}.csv"
        r = run_cli(command, "--env", "urban", "--density", "low", "--steps", "10", *flags, "--out", str(out),
                    timeout=60)
        assert r.returncode == 1, r.stderr
        assert "error:" in r.stderr and "Traceback" not in r.stderr
        assert not out.exists()


@pytest.mark.parametrize("config", [
    {"steps": "10"},
    {"steps": 2.5},
    {"steps": True},
    {"steps": None},
    {"steps": 0},
    {"steps": 10, "speed": "fast"},
    {"steps": 10, "profile": "teleport"},
], ids=["string-int", "float-int", "bool-int", "null", "zero", "string-float", "bad-choice"])
def test_config_values_of_wrong_type_are_usage_errors(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "t.csv"
    code, err = run_in_process(GENERATE + ["--config", str(cfg), "--out", str(out)], capsys)
    assert code == 2
    assert "config key" in err and "Traceback" not in err
    assert not out.exists()


def test_output_files_get_the_umask_mode(tmp_path):
    out = tmp_path / "t.csv"
    old = os.umask(0o027)
    try:
        assert main(GENERATE + ["--steps", "5", "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]  # no temporary file left behind


def test_output_modes_come_from_the_kernel_alone(tmp_path, monkeypatch):
    # The writer neither reads the umask (which only setting it can do) nor sets a mode.
    def umask(mask):
        raise AssertionError("os.umask called")

    old = os.umask(0o027)
    try:
        monkeypatch.setattr(os, "umask", umask)
        monkeypatch.delattr(os, "fchmod")
        assert main(GENERATE + ["--steps", "5", "--out", str(tmp_path / "t.csv")]) == 0
        write_state_traces([StateTrace(DistanceTrace.from_distances([5.0, 6.0]), [0, 2])], tmp_path / "w.csv")
    finally:
        monkeypatch.undo()
        os.umask(old)
    assert {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()} == {"t.csv": 0o640, "w.csv": 0o640}


# No command needs scipy or a process pool: the refit's solver is the
# package's own, and a count in two processes forks bare. Nor does one load
# numpy.ma (a name the --version import log cannot be searched for, as
# numpy.matrixlib contains it): the refit counts distinct distances by the
# path of np.unique that never loads it.
_UNUSED_MODULES = ("scipy", "multiprocessing", "concurrent.futures.process")


def test_no_command_imports_scipy_or_a_process_pool(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    r = subprocess.run([sys.executable, "-X", "importtime", "-m", "v2vlos.cli", "--version"],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0 and "v2vlos" in r.stdout
    assert "v2vlos.estimation" in r.stderr
    assert not [name for name in (*_UNUSED_MODULES, "v2vlos._minpack") if name in r.stderr], r.stderr
    out = tmp_path / "t.csv"
    script = f"""
import sys
import v2vlos
late = lambda: [name for name in {(*_UNUSED_MODULES, "numpy.ma")!r} if name in sys.modules]
assert not late(), ("import v2vlos", late())
from v2vlos.cli import main
base = ["--env", "urban", "--density", "low", "--seed", "2"]
assert main(["generate", *base, "--steps", "30", "--count", "2", "--out", {str(out)!r}]) == 0
assert main(["compare", *base, "--steps", "30", "--out", {str(tmp_path / "cmp.csv")!r}]) == 0
assert main(["curves", *base, "--d-step", "50", "--out", {str(tmp_path / "c.csv")!r}]) == 0
assert main(["estimate", *base, "--traces", {str(out)!r}, "--out-report", {str(tmp_path / "r.txt")!r}]) == 0
assert not late(), ("generate, compare, curves, estimate", late())
assert "v2vlos._minpack" not in sys.modules, "plain estimate"
assert main(["generate", *base, "--steps", "300", "--count", "10", "--out", {str(out)!r}]) == 0
assert main(["estimate", *base, "--traces", {str(out)!r}, "--out-report", {str(tmp_path / "r.txt")!r},
             "--fit", "--out-model", {str(tmp_path / "m.json")!r}]) == 0
assert "v2vlos._minpack" in sys.modules
assert not late(), ("estimate --fit", late())
"""
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr


def test_estimate_fit_refits_without_scipy(tmp_path):
    traces = tmp_path / "t.csv"
    assert main(GENERATE + ["--steps", "300", "--seed", "1", "--count", "10", "--out", str(traces)]) == 0
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    fitted = tmp_path / "fit.json"
    script = f"""
import sys
sys.modules["scipy"] = None  # an import of scipy now raises ImportError
from v2vlos.cli import main
raise SystemExit(main(["estimate", "--env", "urban", "--density", "low", "--traces", {str(traces)!r},
                       "--out-report", {str(tmp_path / "r.txt")!r}, "--fit", "--out-model", {str(fitted)!r}]))
"""
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    model = load_scenario(fitted)
    assert model.environment.value == "urban" and model.density.value == "low"


def assert_no_child():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _estimate(tmp_path, traces, *flags):
    return ["estimate", "--env", "urban", "--density", "low", "--traces", str(traces),
            "--out-stats", str(tmp_path / "stats.csv"), "--out-report", str(tmp_path / "report.txt"), *flags]


# The exponential-decay refit drops the bins where a transition never happened.
_quiet_refit = pytest.mark.filterwarnings("ignore:excluded .* from exponential fit:UserWarning")


@_quiet_refit
def test_estimate_fit_counts_in_this_process(tmp_path, monkeypatch):
    traces = tmp_path / "t.csv"
    assert main(GENERATE + ["--steps", "450", "--seed", "11", "--count", "30", "--out", str(traces)]) == 0
    assert main(_estimate(tmp_path, traces)) == 0
    plain = (tmp_path / "stats.csv").read_bytes()
    counted, accumulate = [], cli.accumulate
    monkeypatch.setattr(cli, "accumulate", lambda batch: counted.append(os.getpid()) or accumulate(batch))
    monkeypatch.setattr(os, "fork", None)  # a fork would now fail
    assert main(_estimate(tmp_path, traces, "--fit", "--out-model", str(tmp_path / "m.json"))) == 0
    assert counted == [os.getpid()] and threading.active_count() == 1
    assert (tmp_path / "stats.csv").read_bytes() == plain
    assert_no_child()


@pytest.mark.parametrize("content, message", [
    (b"t,d,state\n0,10.0,LOS\n1,oops,LOS\n", "error: line 3: "),
    (b"t,d,state\n0,10.0,LOS\n1,505.5,LOS\n", "error: trace distance 505.5 outside [0, 500.0]\n"),
    (None, "error: [Errno 2] No such file or directory: "),
    (b"t,d,state\n0,10.0,LOS\n1,\xff1.0,LOS\n", "error: 'utf-8' codec can't decode byte 0xff"),
], ids=["malformed-row", "above-500-m", "missing-file", "not-utf-8"])
def test_estimate_fit_fails_as_estimate_does(tmp_path, capsys, content, message):
    traces = tmp_path / "in.csv"
    if content is not None:
        traces.write_bytes(content)
    before = sorted(tmp_path.iterdir())
    results = []
    for fit in ([], ["--fit", "--out-model", str(tmp_path / "m.json")]):
        code = main(_estimate(tmp_path, traces, *fit))
        results.append((code, capsys.readouterr()))
        assert sorted(tmp_path.iterdir()) == before
        assert_no_child()
    assert results[0] == results[1]
    code, (out, err) = results[0]
    assert code == 1 and out == "" and err.startswith(message) and err.count("\n") == 1


@pytest.mark.parametrize("rule", ROW_RULES)
def test_every_row_rule_fails_estimate_alike_with_and_without_fit(tmp_path, capsys, rule):
    traces = row_rule_file(tmp_path / "in.csv", rule)
    results = []
    for fit in ([], ["--fit", "--out-model", str(tmp_path / "m.json")]):
        results.append((main(_estimate(tmp_path, traces, *fit)), tuple(capsys.readouterr())))
        assert_no_child()
    assert results == [(1, ("", f"error: line 4: {ROW_RULES[rule][1]}\n"))] * 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv"]


@_quiet_refit
def test_a_bad_row_beats_an_earlier_distance_above_500_m(tmp_path, capsys):
    # The 505 m step is counted, and refused, in the first count block, long
    # before the reader reaches the bad row: a file read whole raised the row.
    traces = tmp_path / "in.csv"
    rows = ["t,d,state", *(f"{k},10.0,LOS" for k in range(5)), "0,505.0,LOS", "1,499.0,LOS"]
    rows += [f"{k},{100.0 + k},NLOSv" for _ in range(1000) for k in range(100)] + ["100,abc,LOS"]
    traces.write_text("\n".join(rows) + "\n", encoding="utf-8")
    for fit in ([], ["--fit", "--out-model", str(tmp_path / "m.json")]):
        assert main(_estimate(tmp_path, traces, *fit)) == 1
        assert capsys.readouterr() == ("", "error: line 100009: could not convert string to float: 'abc'\n")
    assert [p.name for p in tmp_path.iterdir()] == ["in.csv"]


def test_a_time_gap_beats_an_earlier_distance_above_500_m(tmp_path, capsys):
    # The 505 m step is in the first block and the gap 100,000 steps later, in
    # the second half of the file: a file read whole raised the gap.
    traces = tmp_path / "in.csv"
    rows = ["t,d,state", *(f"{k},10.0,LOS" for k in range(5)), "5,505.0,LOS"]
    rows += [f"{k},{100.0 + k % 100},NLOSv" for k in range(6, 100_006)] + ["100007,50.0,LOS"]
    traces.write_text("\n".join(rows) + "\n", encoding="utf-8")
    for fit in ([], ["--fit", "--out-model", str(tmp_path / "m.json")]):
        assert main(_estimate(tmp_path, traces, *fit)) == 1
        assert capsys.readouterr() == ("", "error: time steps must increase by exactly one second\n")
        assert_no_child()
        r = _forking_estimate(tmp_path, traces, "", *fit)
        assert (r.returncode, r.stdout) == (1, "forks=1\n")
        assert r.stderr == "error: time steps must increase by exactly one second\n"
    assert [p.name for p in tmp_path.iterdir()] == ["in.csv"]


_can_split = pytest.mark.skipif(sys.platform != "linux" or len(os.sched_getaffinity(0)) < 2,
                                reason="a count splits in two on Linux with two CPUs")


def _forking_command(tmp_path, traces, setup, *flags):
    """``estimate`` through ``cli.main`` in a process of one thread, which splits every regular file's count.

    ``setup`` runs first; ``forks=N`` ends stdout, and exit code 99 means that a child was left behind.
    """
    argv = _estimate(tmp_path, traces, *flags)
    script = f"""
import os, sys, time, warnings
from v2vlos import cli, estimation, traces
estimation._SHARD_BYTES = 0
traces._BLOCK_BYTES = 1024
warnings.filterwarnings("ignore", "excluded .* from exponential fit")
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
{setup}
code = cli.main({argv!r})
try:
    os.waitpid(-1, os.WNOHANG)
    code = 99
except ChildProcessError:
    pass
print(f"forks={{len(forks)}}")
sys.exit(code)
"""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return [sys.executable, "-c", script], env


def _forking_estimate(tmp_path, traces, setup, *flags, timeout=60):
    command, env = _forking_command(tmp_path, traces, setup, *flags)
    return subprocess.run(command, capture_output=True, text=True, env=env, timeout=timeout)


# In the child only, each count block first runs ``{0}``.
_IN_CHILD = """
parent, count = os.getpid(), estimation._count
def _count(*args):
    if os.getpid() != parent:
        {0}
    return count(*args)
estimation._count = _count
"""


def _outputs(tmp_path):
    return [(tmp_path / name).read_bytes() for name in ("stats.csv", "report.txt", "m.json")]


@_can_split
@_quiet_refit
def test_a_count_in_two_processes_writes_the_same_bytes_as_one(tmp_path):
    traces = tmp_path / "t.csv"
    assert main(GENERATE + ["--steps", "450", "--seed", "11", "--count", "30", "--out", str(traces)]) == 0
    fit = ["--fit", "--out-model", str(tmp_path / "m.json")]
    assert main(_estimate(tmp_path, traces, *fit)) == 0
    one = _outputs(tmp_path)
    r = _forking_estimate(tmp_path, traces, "", *fit)
    assert (r.returncode, r.stderr, r.stdout.splitlines()[-1]) == (0, "", "forks=1")
    assert _outputs(tmp_path) == one
    # Under one-CPU affinity, and from a FIFO, the count stays in one process.
    one_cpu = "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})"
    r = _forking_estimate(tmp_path, traces, one_cpu, *fit)
    assert (r.returncode, r.stderr, r.stdout.splitlines()[-1]) == (0, "", "forks=0")
    assert _outputs(tmp_path) == one
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_bytes(traces.read_bytes()), daemon=True)
    writer.start()
    try:
        r = _forking_estimate(tmp_path, fifo, "", *fit)
    finally:
        writer.join(timeout=60)
    assert (r.returncode, r.stderr, r.stdout.splitlines()[-1]) == (0, "", "forks=0")
    assert _outputs(tmp_path) == one
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "m.json", "report.txt", "stats.csv", "t.csv"]
    assert_no_child()


@_can_split
def test_a_counting_child_killed_mid_count_fails_the_run_and_writes_nothing(tmp_path):
    traces = tmp_path / "t.csv"
    assert main(GENERATE + ["--steps", "450", "--seed", "11", "--count", "30", "--out", str(traces)]) == 0
    r = _forking_estimate(tmp_path, traces, _IN_CHILD.format("os.kill(os.getpid(), 9)"),
                          "--fit", "--out-model", str(tmp_path / "m.json"))
    assert (r.returncode, r.stdout) == (1, "forks=1\n")
    assert r.stderr == "error: forked child ended without a result (signal 9)\n"
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]
    assert_no_child()


@_can_split
def test_a_bad_row_in_the_first_half_kills_and_reaps_the_counting_child(tmp_path):
    # The child sleeps 30 s on its first block, then exits with no result: the run ends sooner only if it is killed.
    traces = tmp_path / "t.csv"
    traces.write_text("t,d,state\n" + "".join(f"{k},{10.0 + k % 400},LOS\n" for k in range(5000)) + "5000,abc,LOS\n"
                      + "".join(f"{k},{10.0 + k % 400},NLOSb\n" for k in range(5001, 20_000)), encoding="utf-8")
    started = time.monotonic()
    r = _forking_estimate(tmp_path, traces, _IN_CHILD.format("time.sleep(30); os._exit(3)"))
    assert time.monotonic() - started < 20
    assert (r.returncode, r.stdout, r.stderr) == (
        1, "forks=1\n", "error: line 5002: could not convert string to float: 'abc'\n")
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]
    assert_no_child()


@_can_split
def test_a_counting_child_stops_at_its_next_block_once_its_parent_is_killed(tmp_path):
    # The parent stalls on its first block; the child counts a block each 0.2 s, 100 blocks in all.
    traces = tmp_path / "t.csv"
    traces.write_text("t,d,state\n" + "".join(f"{k},{10.0 + k % 400},LOS\n" for k in range(12_800)), encoding="utf-8")
    setup = _IN_CHILD.format("time.sleep(0.2)") + """
stall, shown = estimation._count, os.fork
estimation._count = lambda *args: (os.getpid() == parent and time.sleep(3600)) or stall(*args)
def show():
    pid = shown()
    if pid:
        print(pid, flush=True)
    return pid
os.fork = show
"""
    command, env = _forking_command(tmp_path, traces, setup)
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env) as proc:
        child = int(proc.stdout.readline())
        time.sleep(1.0)  # the child is counting by now
        proc.kill()
        proc.wait()
    gone = time.monotonic() + 5.0  # a whole count would take the child 19 s more
    while _running(child) and time.monotonic() < gone:
        time.sleep(0.05)
    assert not _running(child)
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]
    assert_no_child()


def _running(pid):
    """Whether process ``pid`` exists and has not yet exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_a_failing_refit_writes_nothing_and_names_its_curve(tmp_path, capsys):
    # Every distance lies in the first 10 m bin, too few for any curve's refit.
    traces = tmp_path / "in.csv"
    traces.write_text("t,d,state\n0,1.5,LOS\n1,2.5,NLOSv\n0,3.5,LOS\n", encoding="utf-8")
    code = main(_estimate(tmp_path, traces, "--fit", "--out-model", str(tmp_path / "model.json")))
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == "error: refit state_probs.explicit.LOS: need at least 2 distinct distances with positive values\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv"]
    assert_no_child()


@_quiet_refit
def test_a_refit_error_keeps_its_type_and_names_a_transition_curve():
    # The model's own curves at the bin centres refit; the NLOSv row has one bin left.
    model = builtin_model(Environment.URBAN, Density.MEDIUM)
    centers = cli.bin_centers()
    emp_state = np.stack([cli.state_probabilities(model, float(d)) for d in centers])
    emp_trans = np.stack([cli.transition_matrix(model, float(d)) for d in centers])
    emp_trans[1:, 1] = np.nan
    state, spec = next(iter(model.rows[1].explicit.items()))
    with pytest.raises(V2vLosError) as direct:
        cli.fit_same_family(spec, centers[:1], emp_trans[:1, 1, int(state)])
    with pytest.raises(type(direct.value)) as err:
        cli._refit_model(model, centers, emp_state, emp_trans)
    assert type(err.value) is type(direct.value)
    assert str(err.value) == f"refit transitions.NLOSv.explicit.{state.name}: {direct.value}"


def test_estimate_fit_keeps_the_parse_error_line(tmp_path, capsys):
    bad = tmp_path / "in.csv"
    bad.write_text("t,d,state\n0,10.0,LOS\n1,11.0,LOS\n2,x,LOS\n", encoding="utf-8")
    args = cli.build_parser().parse_args(_estimate(tmp_path, bad, "--fit", "--out-model", str(tmp_path / "m.json")))
    with pytest.raises(ParseError) as exc:
        args.func(args)
    assert exc.value.line == 4
    assert main(_estimate(tmp_path, bad, "--fit", "--out-model", str(tmp_path / "m.json"))) == 1
    assert capsys.readouterr() == ("", f"error: {exc.value}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv"]


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="reads /dev/stdin")
@pytest.mark.parametrize("stdin", ["file", "pipe", "owned-file"])
def test_estimate_fit_reads_a_trace_file_on_stdin(tmp_path, stdin):
    # The trace file is read from fd 0 through /dev/stdin, also where
    # sys.stdin owns fd 0 ("owned-file"), with and without the refit.
    traces = tmp_path / "t.csv"
    assert main(GENERATE + ["--steps", "200", "--seed", "3", "--count", "20", "--out", str(traces)]) == 0
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    assert main(_estimate(tmp_path, traces)) == 0
    stats = [(tmp_path / "stats.csv").read_bytes()]
    own = "sys.stdin = open(0, encoding='utf-8')" if stdin == "owned-file" else ""
    for fit in ([], ["--fit", "--out-model", str(tmp_path / "m.json")]):
        argv = _estimate(tmp_path, "/dev/stdin", *fit)
        script = f"import sys\n{own}\nfrom v2vlos.cli import main\nraise SystemExit(main({argv!r}))\n"
        source = {"input": traces.read_bytes()} if stdin == "pipe" else {"stdin": traces.open("rb")}
        try:
            r = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env, **source)
        finally:
            if "stdin" in source:
                source["stdin"].close()
        assert r.returncode == 0, r.stderr
        stats.append((tmp_path / "stats.csv").read_bytes())
    assert stats[1] == stats[0] and stats[2] == stats[0]


def test_non_utf8_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'{"steps": 5, "profile": "\xff\xfe"}')
    out = tmp_path / "t.csv"
    code, err = run_in_process(GENERATE + ["--config", str(cfg), "--out", str(out)], capsys)
    assert code == 2
    assert "cannot read config" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("how", ["flag", "config"])
def test_estimate_fit_without_out_model_is_usage_error_before_any_work(tmp_path, capsys, how):
    traces = tmp_path / "t.csv"
    traces.write_text("t,d,state\n0,10.0,LOS\n1,11.0,NLOSv\n", encoding="utf-8")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fit": True}), encoding="utf-8")
    stats, report = tmp_path / "stats.csv", tmp_path / "report.txt"
    fit = ["--fit"] if how == "flag" else ["--config", str(cfg)]
    code, err = run_in_process(["estimate", "--env", "urban", "--density", "low", "--traces", str(traces),
                                "--out-stats", str(stats), "--out-report", str(report), *fit], capsys)
    assert code == 2
    assert "--fit requires --out-model" in err
    assert not stats.exists() and not report.exists()


@pytest.mark.parametrize("how", ["flag", "config"])
def test_curves_grid_above_row_cap_is_usage_error(tmp_path, capsys, how):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d_step": 1e-300}), encoding="utf-8")
    step = ["--d-step", "1e-300"] if how == "flag" else ["--config", str(cfg)]
    out = tmp_path / "c.csv"
    code, err = run_in_process(["curves", "--env", "urban", "--density", "low", *step, "--out", str(out)], capsys)
    assert code == 2
    assert "--d-step" in err and "rows" in err and "Traceback" not in err
    assert not out.exists()


def test_curves_row_cap_is_the_largest_grid_allowed(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_CURVES_MAX_ROWS", 10)
    out = tmp_path / "c.csv"
    base = ["curves", "--env", "urban", "--density", "low", "--d-min", "1", "--out", str(out)]
    assert main(base + ["--d-max", "10"]) == 0  # ten rows
    assert len(read_table(out)) == 10
    out.unlink()
    code, err = run_in_process(base + ["--d-max", "11"], capsys)  # eleven rows
    assert code == 2 and "more than 10 rows" in err
    assert not out.exists()


def test_curves_row_cap_counts_the_d_max_row(tmp_path, capsys, monkeypatch):
    # (1.7 - 1) / 0.1 is 6.999999999999999, and the grid has eight rows.
    base = ["curves", "--env", "urban", "--density", "low", "--d-min", "1", "--d-max", "1.7", "--d-step", "0.1"]
    out = tmp_path / "c.csv"
    monkeypatch.setattr(cli, "_CURVES_MAX_ROWS", 7)
    code, err = run_in_process(base + ["--out", str(out)], capsys)
    assert code == 2 and "more than 7 rows" in err
    assert not out.exists()
    monkeypatch.setattr(cli, "_CURVES_MAX_ROWS", 8)
    assert main(base + ["--out", str(out)]) == 0
    assert len(read_table(out)) == 8


def _pathloss_file(**changes):
    obj = dataclasses.asdict(PathLossParams.defaults())
    obj.update(changes)
    return json.dumps(obj)


@pytest.mark.parametrize("text", [
    _pathloss_file(los=1),
    _pathloss_file(los={"intercept_db": "40", "exponent": True}),
    _pathloss_file(nlosb={"intercept_db": 40.0, "exponent": 2.0, "extra": 1.0}),
    _pathloss_file(nlosv_extra_db=math.nan),
    _pathloss_file(carrier_freq_hz=math.inf),
    _pathloss_file(los={"intercept_db": 40.0, "exponent": math.inf}),
    "[1, 2]",
], ids=["curve-not-object", "text-and-bool", "extra-key", "nan-extra", "inf-frequency", "inf-exponent", "list"])
def test_bad_pathloss_params_exit_one(tmp_path, capsys, text):
    params = tmp_path / "pl.json"
    params.write_text(text, encoding="utf-8")
    out = tmp_path / "cmp.csv"
    code = main(["compare", "--env", "urban", "--density", "low", "--steps", "5",
                 "--pathloss-params", str(params), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--umi-d1", "--umi-d2"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "0"])
def test_compare_rejects_a_baseline_distance_that_is_not_finite_and_positive(tmp_path, capsys, flag, value):
    out = tmp_path / "cmp.csv"
    code = main(["compare", "--env", "urban", "--density", "low", "--steps", "5", f"{flag}={value}", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: d1 and d2 must be finite and positive, got ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["estimate", "generate"])
def test_trace_files_with_a_byte_order_mark_read_as_without(tmp_path, capsys, command):
    text = "t,d,state\n0,10.0,LOS\n1,11.0,NLOSv\n2,12.0,NLOSv\n"
    outputs = []
    for name, encoding in (("plain", "utf-8"), ("marked", "utf-8-sig")):
        (tmp_path / f"{name}.csv").write_text(text, encoding=encoding)
        out = tmp_path / f"{name}.out"
        argv = (["estimate", "--env", "urban", "--density", "low", "--traces", str(tmp_path / f"{name}.csv"),
                 "--out-stats", str(out)] if command == "estimate" else
                ["generate", "--env", "urban", "--density", "low", "--trace-in", str(tmp_path / f"{name}.csv"),
                 "--count", "3", "--out", str(out)])
        assert main(argv) == 0
        outputs.append((out.read_bytes(), capsys.readouterr().out.replace(name, "")))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("flags, message", [
    (["--profile", "walk"], "--vmax is required for the walk profile"),
    (["--profile", "urban-mixed", "--vmax", "5"], "--speed is required for the urban-mixed profile"),
    (["--profile", "constant"], "--speed is required for the constant profile"),
    (["--profile", "walk", "--vmax", "600"], "a step may move at most 499 m, got 600 m"),
    (["--speed", "600"], None),  # separate1ms moves at 1 m/s whatever --speed says
])
def test_profile_options_are_checked_before_any_work(tmp_path, capsys, flags, message):
    out = tmp_path / "out.csv"
    code = main(["generate", "--env", "urban", "--density", "low", "--steps", "5", *flags, "--out", str(out)])
    err = capsys.readouterr().err
    assert (code, err) == ((1, f"error: {message}\n") if message else (0, ""))
    assert out.exists() == (message is None)

@pytest.mark.parametrize("existing", [False, True], ids=["no-old-file", "old-file"])
@pytest.mark.parametrize("command", ["generate", "compare"])
def test_over_range_error_leaves_no_output_or_temporary_file(tmp_path, capsys, monkeypatch, command, existing):
    # Engine chunks of one trace: the batch streams through the writer and the
    # dwell counts chunk by chunk before its error is raised.
    monkeypatch.setattr(markov, "_CHUNK", 5)
    (tmp_path / "in.csv").write_text("t,d\n0,490.0\n1,495.0\n2,500.0\n3,505.5\n4,498.0\n", encoding="utf-8")
    out = tmp_path / "out.csv"
    if existing:
        out.write_text("old contents\n", encoding="utf-8")
    code = main([command, "--env", "urban", "--density", "medium", "--trace-in", str(tmp_path / "in.csv"),
                 "--count", "3", "--over-range", "error", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == ("error: 3 trace(s) failed (indices: 0, 1, 2); first error: "
                            "distance 505.5 m above model ceiling 500.0 m (policy 'error')\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == (["in.csv", "out.csv"] if existing else ["in.csv"])
    if existing:
        assert out.read_text(encoding="utf-8") == "old contents\n"


@pytest.mark.parametrize("command, flag", [
    ("generate", "--out"), ("curves", "--out"), ("compare", "--out"),
    ("estimate", "--out-stats"), ("estimate", "--out-report"), ("estimate", "--out-model"),
])
@pytest.mark.parametrize("target, problem", [
    ("adir", "is a directory"), ("", "is empty"), ("gone/o.csv", "is in a missing directory"),
], ids=["directory", "empty", "missing-parent"])
def test_an_unusable_output_path_fails_before_any_work(tmp_path, capsys, monkeypatch, command, flag, target, problem):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    (tmp_path / "in.csv").write_text("t,d,state\n0,10.0,LOS\n1,11.0,NLOSv\n", encoding="utf-8")
    argv = {
        "generate": GENERATE + ["--steps", "5", "--out", "o.csv"],
        "curves": ["curves", "--env", "urban", "--density", "low", "--out", "o.csv"],
        "compare": ["compare", "--env", "urban", "--density", "low", "--steps", "5", "--out", "o.csv"],
        "estimate": ["estimate", "--env", "urban", "--density", "low", "--traces", "in.csv", "--out-stats", "s.csv",
                     "--out-report", "r.txt", "--fit", "--out-model", "m.json"],
    }[command]
    argv[argv.index(flag) + 1] = target
    monkeypatch.setattr(cli, "_scenario", lambda args: pytest.fail("the command started its work"))
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {flag} {target!r} {problem}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "in.csv"]
    assert list((tmp_path / "adir").iterdir()) == []


def test_walk_generate_memory_does_not_grow_with_the_count(tmp_path, monkeypatch):
    # Synthesis and engine chunks of 50 traces of 100 steps, dwell counts of
    # 50 traces: 800 traces stream through the same working set as 200.
    monkeypatch.setattr(markov, "_CHUNK", 50 * 9 * 100)
    monkeypatch.setattr(markov, "_COUNT_BLOCK", 50 * 100)

    def peak(count):
        argv = ["generate", "--env", "highway", "--density", "medium", "--profile", "walk", "--vmax", "20",
                "--d0", "250", "--steps", "100", "--count", str(count), "--seed", "1", "--out", str(tmp_path / "o.csv")]
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(200)  # one-time allocations
    small, large = peak(200), peak(800)
    assert large < 1.1 * small, (small, large)

def test_estimate_memory_does_not_grow_with_the_file(tmp_path, monkeypatch):
    # Chunks of 8 KiB and count blocks of 20 traces of 100 steps: a file
    # of 800 traces streams through the same working set as one of 100.
    monkeypatch.setattr("v2vlos.traces._BLOCK_BYTES", 1 << 13)
    monkeypatch.setattr(markov, "_COUNT_BLOCK", 20 * 100)

    def peak(count):
        traces = tmp_path / f"walk{count}.csv"
        if not traces.exists():
            argv = ["generate", "--env", "highway", "--density", "medium", "--profile", "walk", "--vmax", "20",
                    "--d0", "250", "--steps", "100", "--count", str(count), "--seed", "1", "--out", str(traces)]
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
        tracemalloc.start()
        try:
            assert main(_estimate(tmp_path, traces)) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(100)  # one-time allocations
    small, large = peak(100), peak(800)
    assert large < 1.25 * small, (small, large)


def test_failing_batch_memory_grows_only_by_its_error_list(tmp_path, monkeypatch):
    # Engine chunks of about 200 traces of 100 steps, every trace failing at
    # its 51st step. Each kept failure costs its index, error and message; its
    # traceback would also keep the whole chunk's engine frame alive.
    monkeypatch.setattr(markov, "_CHUNK", 200 * 100 + 800)
    rows = "".join(f"{k},{505.5 if k == 50 else 100.0}\n" for k in range(100))
    (tmp_path / "in.csv").write_text("t,d\n" + rows, encoding="utf-8")

    def peak(count):
        argv = ["generate", "--env", "urban", "--density", "low", "--trace-in", str(tmp_path / "in.csv"),
                "--count", str(count), "--over-range", "error", "--out", str(tmp_path / "o.csv")]
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert main(argv) == 1
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(200)  # one-time allocations
    for count in (200, 2000):
        assert peak(count) < 2**20 + 512 * count, count

# Malformed inputs for the robustness property below. Every size the CLI
# sees (steps, count, rows of a curves grid, rows of a trace file) stays
# small, so no example allocates much memory.
_LEAF = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 60), st.floats(-5.0, 600.0),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e300]), st.text(max_size=4),
)
_JSON = st.recursive(_LEAF, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                                        max_size=3), max_leaves=6)
_CONFIG_VALUES = {
    "steps": st.integers(-2, 40) | _LEAF,
    "count": st.integers(-1, 4) | _LEAF,
    "d_step": st.floats(0.5, 100.0) | st.sampled_from([0, -1.0, math.nan, math.inf, "1", True, None]),
    "profile": st.sampled_from(["walk", "constant", "opposing", "urban-mixed", "teleport"]) | _LEAF,
    "over_range": st.sampled_from(["error", "clamp", "wrap"]) | _LEAF,
    "env": st.sampled_from(["urban", "highway", "rural"]) | _LEAF,
    "density": st.sampled_from(["low", "high", "extreme"]) | _LEAF,
    "seed": st.integers(-2**65, 2**65) | _LEAF,
    **{key: _LEAF for key in ("speed", "vmax", "d0", "umi_d1", "umi_d2", "d_min", "d_max", "fit", "bogus")},
}
_CONFIG_KEYS = {
    "generate": ("steps", "count", "profile", "speed", "vmax", "d0", "over_range", "env", "density", "seed", "bogus"),
    "compare": ("steps", "count", "profile", "speed", "vmax", "d0", "over_range", "seed", "umi_d1", "umi_d2", "bogus"),
    "curves": ("d_min", "d_max", "d_step", "seed", "env", "bogus"),
    "estimate": ("seed", "fit", "density", "bogus"),
}
_TIME = st.integers(-2, 6).map(str) | st.sampled_from(["", "x", "1.5", "99999999999999999999"])
_DISTANCE = st.floats(-1.0, 700.0).map(repr) | st.sampled_from(["nan", "inf", "-0", "", "1e400", "d"])
_STATE = st.sampled_from(["LOS", "NLOSv", "NLOSb", "los", "X", ""])
_TRACE_TEXT = st.tuples(
    st.sampled_from(["t,d\n", "t,d,state\n", "# seed=3\nt,d,state\n", "x,y\n", ""]),
    st.lists(st.lists(_TIME | _DISTANCE | _STATE, min_size=1, max_size=4).map(",".join), max_size=8),
).map(lambda parts: (parts[0] + "\n".join(parts[1]) + "\n").encode())
_PATHLOSS = st.fixed_dictionaries(
    {"los": _JSON | st.fixed_dictionaries({"intercept_db": _LEAF, "exponent": _LEAF}), "nlosb": _JSON,
     "nlosv_extra_db": _LEAF, "carrier_freq_hz": _LEAF},
    optional={"extra": _LEAF},
)


def _file_bytes(obj_strategy):
    return st.binary(max_size=40) | _JSON.map(lambda o: json.dumps(o).encode()) | obj_strategy.map(
        lambda o: json.dumps(o).encode())


def _exit_code(argv, files):
    """Write ``files`` (name -> bytes) to a fresh directory, run ``cli.main`` on it and check the exit."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            (Path(tmp) / name).write_bytes(data)
        argv = [a.format(tmp=tmp) for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    if code == 1:
        assert err.getvalue().startswith("error: "), err.getvalue()


_OUT = {"estimate": ["--out-report", "{tmp}/report.txt"]}


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(sorted(_CONFIG_KEYS)), data=st.data())
def test_malformed_config_ends_in_an_exit_code(command, data):
    config = st.fixed_dictionaries({}, optional={k: _CONFIG_VALUES[k] for k in _CONFIG_KEYS[command]})
    argv = [command, "--env", "urban", "--density", "low", "--config", "{tmp}/cfg.json"]
    files = {"cfg.json": data.draw(_file_bytes(config), label="config")}
    if command in ("generate", "compare") and data.draw(st.booleans(), label="with --steps"):
        argv += ["--steps", str(data.draw(st.integers(1, 40), label="steps"))]
    if command == "estimate":
        argv += ["--traces", "{tmp}/traces.csv"]
        files["traces.csv"] = b"t,d,state\n0,10.0,LOS\n1,11.0,NLOSv\n"
    _exit_code(argv + _OUT.get(command, ["--out", "{tmp}/out.csv"]), files)


@settings(max_examples=100, deadline=None)
@given(params=_file_bytes(_PATHLOSS))
def test_malformed_pathloss_file_ends_in_an_exit_code(params):
    argv = ["compare", "--env", "urban", "--density", "low", "--steps", "5",
            "--pathloss-params", "{tmp}/pl.json", "--out", "{tmp}/out.csv"]
    _exit_code(argv, {"pl.json": params})


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(["generate", "compare", "estimate"]), text=_TRACE_TEXT | st.binary(max_size=40),
       count=st.integers(1, 3))
def test_malformed_trace_file_ends_in_an_exit_code(command, text, count):
    if command == "estimate":
        argv = ["estimate", "--traces", "{tmp}/in.csv", *_OUT["estimate"]]
    else:
        argv = [command, "--trace-in", "{tmp}/in.csv", "--count", str(count), "--out", "{tmp}/out.csv"]
    _exit_code(argv + ["--env", "urban", "--density", "low"], {"in.csv": text})
