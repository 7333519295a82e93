"""The benchmark's workloads and the checks on their outputs.

Each workload is one CLI command whose inputs derive from the workload seed.
The three weigh different layers:

* ``generate-fleet`` moves every trace apart at 1 m/s, so distances are
  integer metres shared by the whole batch and the sampler's row memo nearly
  always hits. It weighs the write path (row formatting) and the sampler loop.
* ``compare-walk`` uses the walk profile, whose distances are continuous, so
  the memo never hits and every step assembles a row from the curves. Only
  the first trace is written. It weighs assembly, curves, the RNG and UMi.
* ``estimate-fit`` parses a labelled file (built untimed from walk traces,
  because measured traces have continuous distances), accumulates bin counts
  and refits the curves. It draws no random numbers and runs no sampler.

Outputs are checked on every operation. At the golden seed the digests of the
output files and of stdout, with ``#`` provenance lines stripped, must match
``golden.json``. At any other seed the first operation's outputs must parse
back and have the right shape; every later operation must reproduce them
byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from child import CliRunner

GOLDEN_SEED = 0
GOLDEN_FILE = Path(__file__).with_name("golden.json")

STATE_NAMES = ("LOS", "NLOSv", "NLOSb")


class CheckError(Exception):
    """An output failed its check."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def strip_provenance(data: bytes) -> bytes:
    return b"".join(line for line in data.splitlines(keepends=True) if not line.startswith(b"#"))


def _data_lines(path: Path) -> list[str]:
    return [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln and not ln.startswith("#")]


def _labeled_trace_count(path: Path, count: int, steps: int) -> None:
    """The file parses back through the library reader with the right shape."""
    from v2vlos.errors import V2vLosError  # checks only; the CLI runs in a child
    from v2vlos.traces import read_labeled_traces

    try:
        traces = read_labeled_traces(path)  # rejects any state name but the three
    except V2vLosError as exc:
        raise CheckError(f"{path.name}: {type(exc).__name__}: {exc}") from exc
    _require(len(traces) == count, f"{path.name}: {len(traces)} traces, expected {count}")
    lengths = {len(t) for t in traces}
    _require(lengths == {steps}, f"{path.name}: trace lengths {sorted(lengths)}, expected {steps}")


class Workload:
    name: str
    why: str
    outputs: tuple[str, ...]
    count: int
    steps: int

    @property
    def total_steps(self) -> int:
        return self.count * self.steps

    def prepare(self, runner: CliRunner, work: Path, seed: int) -> None:
        """Build input files in ``work``; not timed."""

    def argv(self, seed: int) -> list[str]:
        raise NotImplementedError

    def validate(self, work: Path, stdout: str) -> None:
        raise NotImplementedError

    def digests(self, work: Path, stdout: str) -> dict[str, str]:
        out = {}
        for name in self.outputs:
            path = work / name
            _require(path.is_file(), f"missing output {name}")
            out[name] = hashlib.sha256(strip_provenance(path.read_bytes())).hexdigest()
        out["stdout"] = hashlib.sha256(strip_provenance(stdout.encode("utf-8"))).hexdigest()
        return out

    def output_bytes(self, work: Path) -> int:
        return sum((work / name).stat().st_size for name in self.outputs)


class GenerateFleet(Workload):
    name = "generate-fleet"
    why = "integer distances shared by a batch: the row memo hits; weighs the sampler loop and the write path"
    outputs = ("fleet.csv",)
    count = 800
    steps = 500

    def argv(self, seed: int) -> list[str]:
        return ["generate", "--env", "urban", "--density", "medium", "--profile", "separate1ms",
                "--steps", str(self.steps), "--count", str(self.count), "--seed", str(seed),
                "--out", "fleet.csv"]

    def validate(self, work: Path, stdout: str) -> None:
        _labeled_trace_count(work / "fleet.csv", self.count, self.steps)
        _require(f"traces={self.count} steps={self.total_steps} " in stdout, "stdout summary lacks the batch size")


class CompareWalk(Workload):
    name = "compare-walk"
    why = "continuous walk distances: the row memo never hits; weighs curve assembly, the RNG and UMi, with little write"
    outputs = ("compare.csv",)
    count = 250
    steps = 500

    def argv(self, seed: int) -> list[str]:
        return ["compare", "--env", "highway", "--density", "medium", "--profile", "walk", "--vmax", "20",
                "--d0", "250", "--steps", str(self.steps), "--count", str(self.count), "--seed", str(seed),
                "--out", "compare.csv"]

    def validate(self, work: Path, stdout: str) -> None:
        lines = _data_lines(work / "compare.csv")
        _require(lines[:1] == ["t,d,state_model,pl_model_db,state_umi,pl_umi_db"], "compare.csv: bad header")
        rows = [ln.split(",") for ln in lines[1:]]
        _require(len(rows) == self.steps, f"compare.csv: {len(rows)} rows, expected {self.steps}")
        for t, row in enumerate(rows):
            _require(len(row) == 6, f"compare.csv row {t}: {len(row)} columns")
            _require(int(row[0]) == t, f"compare.csv row {t}: time {row[0]}")
            _require(row[2] in STATE_NAMES and row[4] in ("LOS", "NLOSb"), f"compare.csv row {t}: bad state")
            _require(all(math.isfinite(float(row[i])) for i in (1, 3, 5)), f"compare.csv row {t}: bad number")
        _require(f"traces={self.count} " in stdout and "model=umi " in stdout, "stdout summary incomplete")


class EstimateFit(Workload):
    name = "estimate-fit"
    why = "parses a labelled file of continuous-distance traces, accumulates bin counts and refits curves; no RNG or sampler"
    outputs = ("stats.csv", "report.txt", "fit.json")
    count = 1000
    steps = 500
    n_bins = 50  # 10 m bins over [0, 500) m

    def labels_argv(self, seed: int) -> list[str]:
        return ["generate", "--env", "highway", "--density", "medium", "--profile", "walk", "--vmax", "20",
                "--d0", "250", "--steps", str(self.steps), "--count", str(self.count), "--seed", str(seed),
                "--out", "labels.csv"]

    def prepare(self, runner: CliRunner, work: Path, seed: int) -> None:
        # The file's shape is checked through the estimate outputs: stats.csv
        # must count every step.
        run = runner.run(self.labels_argv(seed), cwd=work)
        if not run.ok:
            raise RuntimeError(f"building the labelled input failed: {run.describe_failure()}")

    def argv(self, seed: int) -> list[str]:
        return ["estimate", "--env", "highway", "--density", "medium", "--seed", str(seed),
                "--traces", "labels.csv", "--out-stats", "stats.csv", "--out-report", "report.txt",
                "--fit", "--out-model", "fit.json"]

    def validate(self, work: Path, stdout: str) -> None:
        from v2vlos.errors import V2vLosError
        from v2vlos.params import load_scenario

        stats = _data_lines(work / "stats.csv")
        _require(len(stats) == 1 + self.n_bins, f"stats.csv: {len(stats) - 1} bins, expected {self.n_bins}")
        occupancy = sum(sum(int(v) for v in row.split(",")[2:5]) for row in stats[1:])
        _require(occupancy == self.total_steps, f"stats.csv: {occupancy} steps counted, expected {self.total_steps}")
        report = [ln for ln in _data_lines(work / "report.txt") if "=" in ln]
        _require(len(report) == 3 + 9, f"report.txt: {len(report)} correlations, expected 12")
        try:
            load_scenario(work / "fit.json")
        except V2vLosError as exc:
            raise CheckError(f"fit.json: {exc}") from exc
        _require(stdout.count("wrote ") == 3, "stdout does not list the three outputs")


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (GenerateFleet, CompareWalk, EstimateFit)}


def load_golden() -> dict:
    return json.loads(GOLDEN_FILE.read_text(encoding="utf-8")) if GOLDEN_FILE.is_file() else {}


class OutputCheck:
    """Checks every operation's outputs for one workload and seed."""

    def __init__(self, workload: Workload, seed: int, golden: dict):
        self.workload = workload
        self.seed = seed
        entry = golden.get(workload.name) if seed == GOLDEN_SEED else None
        if entry is not None and entry["argv"] != workload.argv(seed):
            entry = {"argv": entry["argv"], "digests": {"stale": "golden.json was made with other arguments"}}
        self.golden_checked = entry is not None
        self.expected: dict[str, str] | None = entry["digests"] if entry else None

    def describe(self) -> str:
        if self.golden_checked:
            return f"golden digests checked (seed {self.seed})"
        why = f"seed {self.seed} is not the golden seed {GOLDEN_SEED}" if self.seed != GOLDEN_SEED \
            else f"golden.json has no entry for {self.workload.name}"
        return (f"golden check skipped: {why}; "
                "outputs validated, then required byte-identical on every later operation")

    def check(self, work: Path, stdout: str) -> str | None:
        """None when the outputs pass, else the reason they fail."""
        try:
            got = self.workload.digests(work, stdout)
            if self.expected is None:
                self.workload.validate(work, stdout)
                self.expected = got
                return None
        except (CheckError, ValueError, OSError) as exc:
            return f"{type(exc).__name__}: {exc}"
        bad = sorted(k for k in self.expected.keys() | got.keys() if self.expected.get(k) != got.get(k))
        return f"digest mismatch: {', '.join(bad)}" if bad else None


README_EDGE = (
    ["generate", "--env", "urban", "--density", "medium", "--profile", "separate1ms",
     "--steps", "500", "--seed", "7", "--out", "trace.csv"],
    ["estimate", "--env", "urban", "--density", "medium", "--traces", "trace.csv",
     "--out-stats", "stats.csv", "--out-report", "report.txt", "--fit", "--out-model", "fit.json"],
)


def readme_edge(runner: CliRunner, work: Path) -> tuple[bool, str]:
    """Run the README's generate-then-estimate example exactly as written.

    The generated trace ends at d = 500 m, the edge of the model domain; the
    probe shows whether estimate accepts it. Inputs are not altered.
    """
    work.mkdir(parents=True, exist_ok=True)
    for argv in README_EDGE:
        run = runner.run(argv, cwd=work)
        if not run.ok:
            return False, f"{argv[0]}: {run.describe_failure()}"
    return True, "generate and estimate both exit 0"
