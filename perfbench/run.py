"""Benchmark of the v2vlos command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload generate-fleet --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20     # summary table of all workloads
    python3 perfbench/run.py --write-golden                  # refresh golden.json

Load model: a closed loop with one client. One CLI process runs at a time,
single-threaded, and the next starts after the previous one exits, for
``--seconds`` seconds. With ``--trace 0`` the end-to-end metrics come from
those child processes: steps per second of wall time (interpreter start and
imports included), the child's peak RSS, and the set-up time of a
``--version`` start, each the median over the run. With ``--trace 1`` the
workload runs in-process with spans and counters around each layer instead
(see traced.py). The last line of stdout is one JSON object with the result;
a per-run record with the machine description goes to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

from child import CliRunner
from traced import run_traced
from workloads import GOLDEN_FILE, GOLDEN_SEED, WORKLOADS, OutputCheck, Workload, load_golden, readme_edge

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".perfbench"

SETUP_REPEATS = 5
OP_TIMEOUT_S = 60.0


def declared_units(kind: str) -> dict[str, str]:
    """Metric name to unit for ``end_to_end`` or ``per_layer`` in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")), model)
    except OSError:
        pass

    def version(pkg: str) -> str:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "absent"

    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy")}


def setup_times(runner: CliRunner, work: Path) -> list[float]:
    """Warm the bytecode cache once, then time ``--version`` starts."""
    runner.version(work)
    return [runner.version(work).wall_s for _ in range(SETUP_REPEATS)]


def run_untraced(workload: Workload, seed: int, seconds: float, runner: CliRunner, work: Path,
                 check: OutputCheck) -> dict:
    setup = setup_times(runner, work)
    workload.prepare(runner, work, seed)
    argv = workload.argv(seed)
    ops, failures = [], []
    deadline = time.perf_counter() + seconds
    while not ops or time.perf_counter() < deadline:
        run = runner.run(argv, cwd=work)
        reason = check.check(work, run.stdout) if run.ok else run.describe_failure()
        if reason is not None:
            failures.append(reason)
        ops.append(run)
    good = [r for r in ops if r.ok] or ops
    return {
        "metrics": {
            "steps_per_s": statistics.median(workload.total_steps / r.wall_s for r in good),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in good),
            "setup_s": statistics.median(setup),
        },
        "attempted": len(ops),
        "failures": failures,
        "samples": len(good),
        "op_wall_s": [r.wall_s for r in ops],
        "setup_wall_s": setup,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]()
    runner = CliRunner(SRC, OP_TIMEOUT_S)
    work = STATE_DIR / f"work-{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        check = OutputCheck(workload, seed, load_golden())
        if trace:
            runner.version(work)  # warms the bytecode cache
            workload.prepare(runner, work, seed)
            result = run_traced(workload, seed, seconds, runner, work, check)
            result["readme_edge"] = readme_edge(runner, work / "readme-edge")
        else:
            result = run_untraced(workload, seed, seconds, runner, work, check)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result.update(workload=name, seed=seed, seconds=seconds, trace=int(trace), golden=check.describe(),
                  machine=machine())
    return result


def report(result: dict) -> dict:
    """Print the human-readable lines and return the result object for the last stdout line."""
    units = declared_units("per_layer" if result["trace"] else "end_to_end")
    attempted, failed = result["attempted"], len(result["failures"])
    m = result["machine"]
    samples = (f"{result['samples']} traced operations" if result["trace"]
               else f"{result['samples']} operations; set-up over {SETUP_REPEATS} starts")
    print(f"workload={result['workload']} seed={result['seed']} trace={result['trace']} "
          f"ops={attempted} failed={failed} error_rate={failed / attempted:.4g} (medians over {samples})")
    print(f"machine: nproc={m['nproc']} cpu={m['cpu_model']!r} python={m['python']} "
          f"numpy={m['numpy']} scipy={m['scipy']}")
    print(result["golden"])
    for reason in result["failures"][:5]:
        print(f"FAILED: {reason}")
    for name in result.get("absent", []):
        print(f"absent: {name} (reported as 0)")
    if "readme_edge" in result:
        ok, detail = result["readme_edge"]
        print(f"readme-edge probe: {'PASS' if ok else 'FAIL'} ({detail})")
    for name, unit in units.items():
        print(f"  {name:42s} {result['metrics'][name]:>16.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()},
    }


def save_record(result: dict, summary: dict) -> None:
    out = STATE_DIR / "results"
    out.mkdir(parents=True, exist_ok=True)
    name = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}-{int(time.time())}.json"
    (out / name).write_text(json.dumps({**result, "result": summary}, indent=1) + "\n", encoding="utf-8")


def summary_table(seconds: float) -> None:
    """One untraced run of every workload, then the README probe."""
    rows = []
    for name in WORKLOADS:
        result = run_workload(name, GOLDEN_SEED, seconds, trace=False)
        summary = report(result)
        save_record(result, summary)
        rows.append((name, result["metrics"], summary["failed"] / summary["attempted"], summary["attempted"]))
    print()
    print(f"{'workload':16s} {'steps_per_s [1/s]':>18s} {'peak_rss_mb [MB]':>17s} {'setup_s [s]':>12s} "
          f"{'error_rate [failed/ops]':>24s}")
    for name, metrics, error_rate, ops in rows:
        print(f"{name:16s} {metrics['steps_per_s']:18.1f} {metrics['peak_rss_mb']:17.1f} "
              f"{metrics['setup_s']:12.3f} {error_rate:17.3g} of {ops:3d}")
    probe_dir = STATE_DIR / f"readme-edge-{os.getpid()}"
    try:
        ok, detail = readme_edge(CliRunner(SRC, OP_TIMEOUT_S), probe_dir)
    finally:
        shutil.rmtree(probe_dir, ignore_errors=True)
    print(f"readme-edge probe: {'PASS' if ok else 'FAIL'} ({detail})")


def write_golden() -> None:
    """Record output digests at the golden seed, after validating the outputs."""
    runner = CliRunner(SRC, OP_TIMEOUT_S)
    golden = {}
    for name, cls in WORKLOADS.items():
        workload = cls()
        work = STATE_DIR / f"golden-{name}-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            workload.prepare(runner, work, GOLDEN_SEED)
            run = runner.run(workload.argv(GOLDEN_SEED), cwd=work)
            if not run.ok:
                raise RuntimeError(f"{name}: {run.describe_failure()}")
            workload.validate(work, run.stdout)
            golden[name] = {"argv": workload.argv(GOLDEN_SEED), "digests": workload.digests(work, run.stdout)}
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"{name}: {golden[name]['digests']}")
    GOLDEN_FILE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "v2vlos" / "cli.py").is_file():
        print(f"error: no v2vlos sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # output checks and the traced run import the library
    if args.write_golden:
        write_golden()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        summary_table(args.seconds)
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    summary = report(result)
    save_record(result, summary)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
