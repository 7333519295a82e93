"""Tests of the benchmark's own span arithmetic, probes and output checks.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

from traced import op_metrics  # noqa: E402
from tracing import Probe, Span, Tracer, installed, self_times  # noqa: E402
from workloads import GOLDEN_SEED, CompareWalk, GenerateFleet, OutputCheck  # noqa: E402


class SmallFleet(GenerateFleet):
    count = 3


class SmallCompare(CompareWalk):
    count = 2


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(0, "root", 0.0, 10.0, None, 0),
        Span(1, "a", 1.0, 4.0, 0, 0),
        Span(2, "leaf", 2.0, 3.0, 1, 0),
        Span(3, "b", 5.0, 6.0, 0, 0),
        Span(4, "b", 7.0, 8.5, 0, 0),
    ]
    assert self_times(spans) == {"root": 4.5, "a": 2.0, "leaf": 1.0, "b": 2.5}


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        Span(0, "root", 0.0, 10.0, None, 0),
        Span(1, "x", 1.0, 5.0, 0, 0),
        Span(2, "y", 3.0, 6.0, 0, 0),
        Span(3, "z", 9.0, 12.0, 0, 0),
    ]
    assert self_times(spans)["root"] == 10.0 - 5.0 - 1.0


def test_tracer_nests_calls_and_counts_them():
    ticks = iter([0.0, 1.0, 3.0, 7.0])
    tracer = Tracer(clock=lambda: next(ticks))
    tracer.begin_op()
    assert tracer.call("outer", lambda: tracer.call("inner", lambda: 42)) == 42
    outer, = [s for s in tracer.spans if s.name == "outer"]
    inner, = [s for s in tracer.spans if s.name == "inner"]
    assert inner.parent == outer.id and outer.parent is None
    assert self_times(tracer.spans) == {"outer": 5.0, "inner": 2.0}
    assert tracer.counts[0]["outer.calls"] == 1


def test_absent_names_are_reported_and_wrappers_restored():
    from v2vlos import rng

    original = rng.SplitMix64.next_u64
    tracer = Tracer()
    tracer.begin_op()
    probes = [
        Probe("gone", "v2vlos.cli:generate_batch_removed"),
        Probe("gone.module", "v2vlos.no_such_module:f"),
        Probe("gone.owner", "v2vlos.rng:NoSuchClass.next_u64", span=False),
        Probe("rng.draws", "v2vlos.rng:SplitMix64.next_u64", span=False),
    ]
    with installed(tracer, probes) as absent:
        rng.SplitMix64(1).next_float()
    assert [p.name for p in absent] == ["gone", "gone.module", "gone.owner"]
    assert tracer.counts[0]["rng.draws"] == 1
    assert rng.SplitMix64.next_u64 is original


def test_row_reuse_is_one_minus_row_assemblies_per_transition():
    m = op_metrics([], {"markov.transitions": 1000, "assembly.transition_row.calls": 10})
    assert m["markov.row_reuse"] == pytest.approx(0.99)
    assert op_metrics([], {})["markov.row_reuse"] == 0.0


def _run_cli(workload, seed, work, monkeypatch, capsys) -> str:
    from v2vlos import cli

    monkeypatch.chdir(work)
    capsys.readouterr()
    assert cli.main(workload.argv(seed)) == 0
    return capsys.readouterr().out


def _set_last_state(path: Path, state: str | None = None) -> None:
    """Rewrite the state column of the last row; by default to another valid state."""
    lines = path.read_text(encoding="utf-8").splitlines()
    row = lines[-1].split(",")
    row[2] = state or ("NLOSb" if row[2] == "LOS" else "LOS")
    lines[-1] = ",".join(row)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_golden_check_flags_tampered_file_but_not_provenance(tmp_path, monkeypatch, capsys):
    workload = SmallFleet()
    stdout = _run_cli(workload, GOLDEN_SEED, tmp_path, monkeypatch, capsys)
    golden = {workload.name: {"argv": workload.argv(GOLDEN_SEED), "digests": workload.digests(tmp_path, stdout)}}
    check = OutputCheck(workload, GOLDEN_SEED, golden)
    assert check.golden_checked and check.check(tmp_path, stdout) is None

    out = tmp_path / "fleet.csv"
    out.write_text("# extra=provenance\n" + out.read_text(encoding="utf-8"), encoding="utf-8")
    assert check.check(tmp_path, stdout) is None

    _set_last_state(out)
    assert check.check(tmp_path, stdout) == "digest mismatch: fleet.csv"
    assert check.check(tmp_path, stdout.replace("traces=3", "traces=4")) == "digest mismatch: fleet.csv, stdout"


def test_golden_made_with_other_arguments_fails(tmp_path, monkeypatch, capsys):
    workload = SmallFleet()
    stdout = _run_cli(workload, GOLDEN_SEED, tmp_path, monkeypatch, capsys)
    golden = {workload.name: {"argv": GenerateFleet().argv(GOLDEN_SEED), "digests": workload.digests(tmp_path, stdout)}}
    check = OutputCheck(workload, GOLDEN_SEED, golden)
    assert "stale" in check.check(tmp_path, stdout)


@pytest.mark.parametrize("tamper, reason", [
    (lambda p: p.write_text(p.read_text().replace(",LOS\n", ",LOX\n", 1)), "ParseError"),
    (lambda p: p.write_text("".join(p.read_text().splitlines(keepends=True)[:-1])), "trace lengths"),
])
def test_validity_check_flags_tampered_trace_file(tmp_path, monkeypatch, capsys, tamper, reason):
    workload = SmallFleet()
    stdout = _run_cli(workload, 5, tmp_path, monkeypatch, capsys)
    check = OutputCheck(workload, 5, {workload.name: {"argv": [], "digests": {}}})
    assert not check.golden_checked
    tamper(tmp_path / "fleet.csv")
    assert reason in check.check(tmp_path, stdout)


def test_later_operations_must_repeat_the_first_byte_for_byte(tmp_path, monkeypatch, capsys):
    workload = SmallCompare()
    stdout = _run_cli(workload, 5, tmp_path, monkeypatch, capsys)
    check = OutputCheck(workload, 5, {})
    assert check.check(tmp_path, stdout) is None
    assert check.check(tmp_path, stdout) is None
    _set_last_state(tmp_path / "compare.csv")
    assert check.check(tmp_path, stdout) == "digest mismatch: compare.csv"


def test_compare_validity_rejects_an_unknown_state(tmp_path, monkeypatch, capsys):
    workload = SmallCompare()
    stdout = _run_cli(workload, 5, tmp_path, monkeypatch, capsys)
    _set_last_state(tmp_path / "compare.csv", "NLOSx")
    assert "bad state" in OutputCheck(workload, 5, {}).check(tmp_path, stdout)
