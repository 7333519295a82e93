"""The traced run: per-layer numbers for one workload.

The workload's CLI command runs in this process through ``cli.main``: once
with every probe installed for the call counts, then in pairs, once as is and
once with the span probes. The pairs' wall-time difference is the tracing
overhead. Layer micro-timings on fixed inputs, the import cost of the
estimation layer and the child's CPU time are measured alongside.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import statistics
import time
from pathlib import Path
from typing import Callable

from child import CliRunner
from tracing import Probe, Tracer, installed, self_times
from workloads import OutputCheck, Workload


def _batch_tally(traces) -> dict[str, int]:
    steps = sum(len(t) for t in traces)
    return {"markov.steps": steps, "markov.transitions": steps - len(traces)}


PROBES = (
    Probe("markov.generate_batch", "v2vlos.cli:generate_batch", tally=_batch_tally),
    Probe("umi.generate_batch_umi", "v2vlos.cli:generate_batch_umi"),
    Probe("pathloss.render_path_loss", "v2vlos.cli:render_path_loss"),
    Probe("traces.synth_distance_trace", "v2vlos.cli:synth_distance_trace"),
    Probe("traces.dwell_statistics", "v2vlos.cli:dwell_statistics"),
    Probe("traces.merge_dwell", "v2vlos.cli:merge_dwell"),
    Probe("traces.read_labeled_traces", "v2vlos.cli:read_labeled_traces",
          tally=lambda traces: {"traces.rows": sum(len(t) for t in traces)}),
    Probe("estimation.accumulate", "v2vlos.cli:accumulate"),
    Probe("estimation.fit_same_family", "v2vlos.cli:fit_same_family"),
    Probe("cli.write_atomic", "v2vlos.cli:_write_atomic"),
    # Per-step functions are counted, not spanned. state_probabilities is
    # bound in two namespaces; each call passes through exactly one of them.
    Probe("assembly.transition_row.calls", "v2vlos.markov:assembly.transition_row", span=False),
    Probe("assembly.state_probabilities.calls", "v2vlos.markov:assembly.state_probabilities", span=False),
    Probe("assembly.state_probabilities.calls", "v2vlos.cli:state_probabilities", span=False),
    Probe("curves.eval_curve.calls", "v2vlos.assembly:eval_curve", span=False),
    Probe("rng.draws", "v2vlos.rng:SplitMix64.next_u64", span=False),
)

SPAN_SECONDS = {
    "markov.generate_batch.s": "markov.generate_batch",
    "umi.generate_batch_umi.s": "umi.generate_batch_umi",
    "pathloss.render_path_loss.s": "pathloss.render_path_loss",
    "traces.synth_distance_trace.s": "traces.synth_distance_trace",
    "traces.dwell_statistics.s": "traces.dwell_statistics",
    "traces.merge_dwell.s": "traces.merge_dwell",
    "traces.read_labeled_traces.s": "traces.read_labeled_traces",
    "estimation.accumulate.s": "estimation.accumulate",
    "estimation.fit_same_family.s": "estimation.fit_same_family",
    "cli.write_atomic.s": "cli.write_atomic",
    "cli.self_s": "cli.main",
}

COUNTS = ("assembly.transition_row.calls", "assembly.state_probabilities.calls",
          "curves.eval_curve.calls", "rng.draws", "estimation.fit_same_family.calls")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def op_metrics(spans, counts) -> dict[str, float]:
    """Per-layer metrics of one traced operation."""
    own = self_times(spans)
    m = {metric: own.get(name, 0.0) for metric, name in SPAN_SECONDS.items()}
    m.update({name: float(counts.get(name, 0)) for name in COUNTS})
    m["markov.steps_per_s"] = _ratio(counts.get("markov.steps", 0), m["markov.generate_batch.s"])
    transitions = counts.get("markov.transitions", 0)
    m["markov.row_reuse"] = 1.0 - _ratio(counts.get("assembly.transition_row.calls", 0), transitions) if transitions else 0.0
    m["traces.parse_rows_per_s"] = _ratio(counts.get("traces.rows", 0), m["traces.read_labeled_traces.s"])
    return m


# Layer micro-timings on fixed inputs. Curve coefficients are taken from the
# shipped highway-medium and urban-medium scenarios.
CURVES = {
    "poly2": ("Poly2", lambda c: c.Poly2(2.7e-06, -0.0025, 1.0)),
    "exp_decay": ("ExpDecay", lambda c: c.ExpDecay(0.8372, 0.0114)),
    "log_bell": ("LogBell", lambda c: c.LogBell(0.0346, 5.021, 1.5875)),
    "offset_minus_log_bell": ("OffsetMinusLogBell",
                              lambda c: c.OffsetMinusLogBell(0.9132, c.LogBell(0.0484, 4.7076, 0.748))),
    "piecewise": ("Piecewise", lambda c: c.Piecewise(90.0, c.Poly2(-4.8e-05, -0.00562, 1.11),
                                                     c.Poly2(-2.286e-06, 0.001443, 0.1022))),
}
MICRO_REPEATS = 7


def _median_rate(work: Callable[[], int]) -> float:
    """Median over repeats of items per second; ``work`` returns its item count."""
    rates = []
    for _ in range(MICRO_REPEATS):
        t0 = time.perf_counter()
        n = work()
        rates.append(n / (time.perf_counter() - t0))
    return statistics.median(rates)


def micro_timings() -> tuple[dict[str, float], list[str]]:
    from v2vlos import assembly, curves, params, rng, states

    metrics, absent = {}, []
    draw = rng.SplitMix64(0x5EED).next_float

    def draws(n=200_000):
        for _ in range(n):
            draw()
        return n

    metrics["rng.draws_per_s"] = _median_rate(draws)

    grid = [1.0 + 0.5 * i for i in range(999)]
    for family, (cls, build) in CURVES.items():
        name = f"curves.evals_per_s.{family}"
        if not hasattr(curves, cls):
            absent.append(name)
            metrics[name] = 0.0
            continue
        spec, ev = build(curves), curves.eval_curve

        def evals(spec=spec, ev=ev, reps=50):
            for _ in range(reps):
                for d in grid:
                    ev(spec, d)
            return reps * len(grid)

        metrics[name] = _median_rate(evals)

    models = [params.builtin_model(e, d) for e in states.Environment for d in states.Density]
    d_grid = [1.0 + 499.0 * i / 99 for i in range(100)]

    def matrices():
        for model in models:
            for d in d_grid:
                assembly.transition_matrix(model, d)
                assembly.state_probabilities(model, d)
        return len(models) * len(d_grid)

    metrics["assembly.matrix_us"] = 1e6 / _median_rate(matrices)
    return metrics, absent


IMPORT_REPEATS = 3


def estimation_import_s(runner: CliRunner, work: Path) -> float | None:
    """Cumulative import time of ``v2vlos.estimation`` from ``-X importtime``."""
    samples = []
    for _ in range(IMPORT_REPEATS):
        run = runner.version(work, python_flags=("-X", "importtime"))
        hit = re.search(r"^import time:\s*\d+ \|\s*(\d+) \|\s*v2vlos\.estimation$", run.stderr, re.M)
        if hit is None:
            return None
        samples.append(int(hit.group(1)) / 1e6)
    return statistics.median(samples)


def _in_process(argv: list[str], work: Path, main: Callable, tracer: Tracer | None) -> tuple[int, float, str]:
    out, err = io.StringIO(), io.StringIO()
    cwd = Path.cwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = tracer.call("cli.main", main, argv) if tracer else main(argv)
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code if isinstance(exc.code, int) else 2
            wall = time.perf_counter() - t0
    finally:
        os.chdir(cwd)
    return rc, wall, out.getvalue()


def run_traced(workload: Workload, seed: int, seconds: float, runner: CliRunner, work: Path,
               check: OutputCheck) -> dict:
    """Per-layer metrics; the caller has already prepared ``work``."""
    from v2vlos import cli

    metrics, absent = micro_timings()
    import_s = estimation_import_s(runner, work)
    if import_s is None:
        absent.append("estimation.import_s")
    metrics["estimation.import_s"] = import_s or 0.0

    argv = workload.argv(seed)
    failures: list[str] = []

    def checked(ok: bool, why: str, stdout: str) -> None:
        reason = check.check(work, stdout) if ok else why
        if reason is not None:
            failures.append(reason)

    child = runner.run(argv, cwd=work)
    checked(child.ok, child.describe_failure(), child.stdout)
    metrics["cli.cpu_s"] = child.cpu_s
    metrics["cli.output_bytes"] = float(workload.output_bytes(work)) if child.ok else 0.0
    attempted = 1

    # Counts are exact and repeat on every operation, so one operation with
    # the per-step counters installed gives them; the timed operations carry
    # spans only, so that counting does not inflate the layer times.
    tracer = Tracer()
    count_op = tracer.begin_op()
    with installed(tracer, PROBES) as missing:
        rc, _, stdout = _in_process(argv, work, cli.main, tracer)
    checked(rc == 0, f"exit {rc}", stdout)
    counts = tracer.counts[count_op]
    attempted += 1

    spanned = [p for p in PROBES if p.span]
    plain_walls, traced_walls, per_op = [], [], []
    deadline = time.perf_counter() + seconds
    while not per_op or time.perf_counter() < deadline:
        rc, wall, stdout = _in_process(argv, work, cli.main, None)
        checked(rc == 0, f"exit {rc}", stdout)
        plain_walls.append(wall)

        op = tracer.begin_op()
        with installed(tracer, spanned):
            rc, wall, stdout = _in_process(argv, work, cli.main, tracer)
        checked(rc == 0, f"exit {rc}", stdout)
        traced_walls.append(wall)
        per_op.append(op_metrics(tracer.op_spans(op), counts))
        attempted += 2
    absent.extend(sorted(f"{p.name} ({p.target})" for p in missing))

    for name in per_op[0]:
        metrics[name] = statistics.median(m[name] for m in per_op)
    metrics["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced_walls, plain_walls))
    return {
        "metrics": metrics,
        "absent": absent,
        "attempted": attempted,
        "failures": failures,
        "samples": len(per_op),
        "traced_wall_s": traced_walls,
        "untraced_wall_s": plain_walls,
        "spans": len(tracer.spans),
    }
