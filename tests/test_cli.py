"""Command-line interface: determinism, exit codes, output formats."""

import json
import math
import os
import shlex
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from v2vlos import load_scenario, read_labeled_traces
from v2vlos.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "v2vlos.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
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
    assert traces[0].scenario == "highway-low"
    assert traces[0].seed == 3


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
    assert traces[0].seed == 9
    assert traces[0].distances.tolist() == [5.0, 7.0, 9.0, 11.0]
    # Flags win over the file, before or after --config.
    assert main(GENERATE + ["--count", "2", "--config", str(config), "--seed", "1", "--out", str(out)]) == 0
    traces = read_labeled_traces(out)
    assert len(traces) == 2 and traces[0].seed == 1


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


def readme_commands():
    """The ``v2vlos`` lines of the README's command-line block, continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    joined = block.replace("\\\n", " ")
    return [shlex.split(line) for line in joined.splitlines() if line.startswith("v2vlos ")]


def test_readme_commands_run_as_written(tmp_path):
    commands = readme_commands()
    assert [c[1] for c in commands] == ["generate", "curves", "compare", "estimate"]
    for argv in commands:
        r = run_cli(*argv[1:], cwd=str(tmp_path))
        assert r.returncode == 0, f"{' '.join(argv)}: {r.stderr}"
    assert load_scenario(tmp_path / "fit.json").environment.value == "urban"


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


@pytest.mark.parametrize("step", ["0", "-1", "nan"])
def test_curves_non_positive_step_is_usage_error(tmp_path, capsys, step):
    out = tmp_path / "c.csv"
    code, err = run_in_process(["curves", "--env", "urban", "--density", "low", "--d-step", step,
                                "--out", str(out)], capsys)
    assert code == 2
    assert "--d-step" in err
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


def test_scipy_stays_off_the_start_path(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    r = subprocess.run([sys.executable, "-X", "importtime", "-m", "v2vlos.cli", "--version"],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0 and "v2vlos" in r.stdout
    assert "v2vlos.estimation" in r.stderr and "scipy" not in r.stderr
    out = tmp_path / "t.csv"
    script = f"""
import sys
import v2vlos
assert "scipy" not in sys.modules, "import v2vlos"
from v2vlos.cli import main
base = ["--env", "urban", "--density", "low", "--seed", "2"]
assert main(["generate", *base, "--steps", "30", "--count", "2", "--out", {str(out)!r}]) == 0
assert main(["compare", *base, "--steps", "30", "--out", {str(tmp_path / "cmp.csv")!r}]) == 0
assert main(["curves", *base, "--d-step", "50", "--out", {str(tmp_path / "c.csv")!r}]) == 0
assert main(["estimate", *base, "--traces", {str(out)!r}, "--out-report", {str(tmp_path / "r.txt")!r}]) == 0
assert "scipy" not in sys.modules, "generate, compare, curves, estimate"
"""
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr


def test_estimate_fit_still_refits_with_scipy(tmp_path):
    traces = tmp_path / "t.csv"
    assert main(GENERATE + ["--steps", "300", "--seed", "1", "--count", "10", "--out", str(traces)]) == 0
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    fitted = tmp_path / "fit.json"
    script = f"""
import sys
from v2vlos.cli import main
assert main(["estimate", "--env", "urban", "--density", "low", "--traces", {str(traces)!r},
             "--out-report", {str(tmp_path / "r.txt")!r}, "--fit", "--out-model", {str(fitted)!r}]) == 0
assert "scipy.optimize" in sys.modules
"""
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    model = load_scenario(fitted)
    assert model.environment.value == "urban" and model.density.value == "low"
