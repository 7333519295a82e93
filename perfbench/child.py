"""Run the v2vlos CLI as a child process and measure it.

Each run is one CLI process started from the checkout's ``src/`` (the package
need not be installed). Wall time spans spawn to reap; peak RSS and CPU time
come from ``os.wait4``, so they belong to the child alone.

The CLI is not started from the benchmark process itself but through this
file run as a small launcher script. Linux carries the peak RSS of the
process that calls exec into the new program's ``ru_maxrss``, so a CLI
started straight from the benchmark would report the benchmark's own peak
(for instance after it parsed an output file) whenever that is larger.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

# Extra time the launcher gets beyond the CLI's own timeout before it is killed.
_LAUNCHER_GRACE_S = 30.0


@dataclass(frozen=True)
class ChildRun:
    returncode: int
    timed_out: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and not self.timed_out

    def describe_failure(self) -> str:
        if self.timed_out:
            return f"timed out after {self.wall_s:.1f} s"
        last = self.stderr.strip().splitlines()[-1:] or [""]
        return f"exit {self.returncode}: {last[0]}"


def launch(timeout_s: float, stdout_path: str, stderr_path: str, cmd: list[str]) -> dict:
    """Run ``cmd`` to completion (killing it after ``timeout_s``) and measure it."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        killed = threading.Event()

        def kill() -> None:
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout_s, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "returncode": proc.returncode,
        "timed_out": killed.is_set(),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
    }


class CliRunner:
    """Starts ``python -m v2vlos.cli`` children against one source tree."""

    def __init__(self, src: Path, timeout_s: float):
        self.src = src
        self.timeout_s = timeout_s

    def run(self, argv: list[str], cwd: Path, python_flags: tuple[str, ...] = ()) -> ChildRun:
        env = dict(os.environ, PYTHONPATH=str(self.src))
        out_path, err_path = cwd / ".child.stdout", cwd / ".child.stderr"
        cmd = [sys.executable, *python_flags, "-m", "v2vlos.cli", *argv]
        launcher = [sys.executable, "-I", __file__, str(self.timeout_s), str(out_path), str(err_path), *cmd]
        done = subprocess.run(launcher, cwd=cwd, env=env, stdin=subprocess.DEVNULL, capture_output=True,
                              text=True, timeout=self.timeout_s + _LAUNCHER_GRACE_S, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"launcher failed with exit {done.returncode}: {done.stderr.strip()}")
        measured = json.loads(done.stdout)
        return ChildRun(
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
            **measured,
        )

    def version(self, cwd: Path, python_flags: tuple[str, ...] = ()) -> ChildRun:
        """A ``--version`` start: imports every module and does no work."""
        run = self.run(["--version"], cwd=cwd, python_flags=python_flags)
        if not run.ok:
            raise RuntimeError(f"--version failed: {run.describe_failure()}")
        return run


if __name__ == "__main__":
    timeout, stdout_file, stderr_file, *command = sys.argv[1:]
    print(json.dumps(launch(float(timeout), stdout_file, stderr_file, command)))
