"""Distance-trace synthesis, dwell statistics, trace files, Fresnel clearance.

Synthetic traces respect the per-environment relative-speed envelopes (urban
up to 20 m/s, same-direction highway up to 25 m/s, opposing highway 50 to
100 m/s) so that consecutive distances stay physically plausible at the
one-second step. Distances reflect off the valid range instead of clamping,
to avoid piling mass onto the boundary.

Trace files are delimited text with a mandatory header: ``t,d`` for plain
distance traces, ``t,d,state`` for labeled traces, one row per step, with
``#`` comment lines skipped. A non-increasing time value starts a new trace,
so several traces can live in one labeled file.
"""

from __future__ import annotations

import math
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import DomainError, ParseError, RangeError
from .markov import DistanceTrace, StateTrace
from .rng import RngSeed, uniform_block
from .states import LosState

SPEED_OF_LIGHT = 299792458.0

PROFILE_KINDS = ("constant", "walk", "opposing_highway", "same_direction_highway", "urban_mixed")

OPPOSING_SPEED_RANGE = (50.0, 100.0)
SAME_DIRECTION_SPEED_RANGE = (0.0, 25.0)
URBAN_MIXED_SPEED_RANGE = (0.0, 20.0)


@dataclass(frozen=True)
class MobilityProfile:
    """Recipe for one synthetic Tx-Rx distance trace.

    ``constant`` moves apart (or together, for negative speed) at a fixed
    rate; ``opposing_highway`` approaches at the given closing speed and
    separates after passing; the remaining kinds draw each step uniformly
    within their speed envelope.
    """

    kind: str
    d0: float
    n_steps: int
    speed: float | None = None
    v_max: float | None = None

    def __post_init__(self):
        if self.kind not in PROFILE_KINDS:
            raise ValueError(f"kind must be one of {PROFILE_KINDS}, got {self.kind!r}")
        if not (math.isfinite(self.d0) and 1.0 <= self.d0 <= 500.0):
            raise ValueError(f"d0 must be within [1, 500] m, got {self.d0!r}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.kind == "walk":
            if self.v_max is None or not (0.0 < self.v_max):
                raise ValueError("walk profile needs v_max > 0")
        else:
            if self.speed is None or not math.isfinite(self.speed):
                raise ValueError(f"{self.kind} profile needs a finite speed")
            lo_hi = {
                "opposing_highway": OPPOSING_SPEED_RANGE,
                "same_direction_highway": SAME_DIRECTION_SPEED_RANGE,
                "urban_mixed": URBAN_MIXED_SPEED_RANGE,
            }.get(self.kind)
            if lo_hi is not None and not (lo_hi[0] <= self.speed <= lo_hi[1]):
                raise ValueError(f"{self.kind} speed must lie in [{lo_hi[0]}, {lo_hi[1]}] m/s, got {self.speed}")

    @property
    def step_bound(self) -> float:
        """Largest possible |d(t+1) - d(t)| in meters."""
        return float(self.v_max if self.kind == "walk" else abs(self.speed))


def _reflect(x: float, lo: float, hi: float) -> tuple[float, bool]:
    bounced = False
    while x < lo or x > hi:
        x = 2.0 * lo - x if x < lo else 2.0 * hi - x
        bounced = True
    return x, bounced


def synth_distance_trace(
    profile: MobilityProfile,
    seed: RngSeed = 0,
    d_min: float = 1.0,
    d_max: float = 500.0,
) -> DistanceTrace:
    """Deterministic synthetic distance trace for one profile and seed."""
    ds = [profile.d0]
    if profile.kind in ("constant", "opposing_highway"):
        vel = profile.speed if profile.kind == "constant" else -abs(profile.speed)
        for _ in range(profile.n_steps - 1):
            nxt, bounced = _reflect(ds[-1] + vel, d_min, d_max)
            if bounced:
                vel = -vel
            ds.append(nxt)
    else:
        # Step k + 1 takes draw k of the seed's stream.
        bound = profile.step_bound
        for u in uniform_block(seed, 0, profile.n_steps - 1).tolist():
            nxt, _ = _reflect(ds[-1] + (2.0 * u - 1.0) * bound, d_min, d_max)
            ds.append(nxt)
    return DistanceTrace.from_distances(ds)


@dataclass(frozen=True)
class DwellStats:
    """State-change counts and dwell-time histograms for one or more traces."""

    n_steps: int
    n_traces: int
    changes: int
    histograms: dict[LosState, dict[int, int]]

    @property
    def mean_dwell(self) -> float:
        """Mean seconds per uninterrupted run: steps / (changes + traces)."""
        return self.n_steps / (self.changes + self.n_traces)

    def merge(self, other: "DwellStats") -> "DwellStats":
        hist = {s: dict(self.histograms.get(s, {})) for s in LosState}
        for s, h in other.histograms.items():
            for length, count in h.items():
                hist[s][length] = hist[s].get(length, 0) + count
        return DwellStats(
            self.n_steps + other.n_steps,
            self.n_traces + other.n_traces,
            self.changes + other.changes,
            hist,
        )


def dwell_statistics(trace: StateTrace) -> DwellStats:
    """Count state changes and per-state run lengths (final run included)."""
    if len(trace) == 0:
        raise DomainError("dwell statistics need a non-empty trace")
    s = trace.states
    last = np.empty(s.size, dtype=bool)  # True at the last step of each run
    np.not_equal(s[1:], s[:-1], out=last[:-1])
    last[-1] = True
    ends = last.nonzero()[0]
    changes = int(ends.size) - 1
    runs = ends.copy()
    runs[1:] -= ends[:-1]
    runs[0] += 1
    # One bincount over state * width + run length gives all three histograms.
    width = int(runs.max()) + 1
    counts = np.bincount(s[ends].astype(np.intp) * width + runs, minlength=3 * width).reshape(3, width)
    hist: dict[LosState, dict[int, int]] = {}
    for state in LosState:
        row = counts[state]
        lengths = row.nonzero()[0]
        hist[state] = dict(zip(lengths.tolist(), row[lengths].tolist()))
    return DwellStats(n_steps=int(s.size), n_traces=1, changes=changes, histograms=hist)


def merge_dwell(stats: Iterable[DwellStats]) -> DwellStats:
    total = DwellStats(0, 0, 0, {s: {} for s in LosState})
    for item in stats:
        total = total.merge(item)
    if total.n_traces == 0:
        raise DomainError("nothing to merge")
    return total


def fresnel_clearance_radius(d1: float, d2: float, f: float) -> float:
    """Radius of 60% of the first Fresnel zone at distances d1, d2 from the ends."""
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in (d1, d2, f)):
        raise DomainError("d1, d2 and f must be finite numbers")
    if d1 <= 0.0 or d2 <= 0.0 or f <= 0.0:
        raise DomainError(f"d1, d2 and f must be positive, got {(d1, d2, f)}")
    lam = SPEED_OF_LIGHT / f
    return 0.6 * math.sqrt(lam * d1 * d2 / (d1 + d2))


# Trace file format helpers.

_HEADER_DISTANCE = ("t", "d")
_HEADER_LABELED = ("t", "d", "state")


_STATE_NAMES = tuple(state.name for state in LosState)


def _umask() -> int:
    # The umask can only be read by setting it; it is restored at once.
    mask = os.umask(0o022)
    os.umask(mask)
    return mask


@contextmanager
def atomic_output(path: str | Path) -> Iterator[TextIO]:
    """Text handle whose contents replace ``path`` only once the block succeeds.

    The data goes to a temporary file in the same directory, which is renamed
    over ``path`` at the end, so readers never see a partial file. The result
    gets the mode a newly created file would get under the process umask.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent) or ".", prefix=path.name + ".", suffix=".tmp")
    try:
        os.fchmod(fd, 0o666 & ~_umask())
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_state_trace(trace: StateTrace, path: str | Path) -> None:
    write_state_traces([trace], path)


def write_state_traces(traces: Iterable[StateTrace], path: str | Path, provenance: Sequence[str] = ()) -> None:
    """Write labeled traces atomically; several traces are separated by time restarts.

    ``provenance`` lines (each starting with ``#``) precede the header.
    """
    with atomic_output(path) as handle:
        handle.write("".join(line + "\n" for line in provenance) + "t,d,state\n")
        for trace in traces:
            rows = zip(trace.times.tolist(), trace.distances.tolist(), trace.states.tolist())
            handle.write("".join([f"{t},{d!r},{_STATE_NAMES[s]}\n" for t, d, s in rows]))


def _parse_header(parts: list[str], lineno: int) -> bool:
    """True when the header carries a state column."""
    lowered = tuple(p.strip().lower() for p in parts)
    if lowered == _HEADER_DISTANCE:
        return False
    if lowered == _HEADER_LABELED:
        return True
    raise ParseError(f"header must be 't,d' or 't,d,state', got {','.join(parts)!r}", line=lineno)


def _parse_rows(path: str | Path) -> tuple[bool, list[tuple[int, float, LosState | None]], dict[str, str]]:
    labeled: bool | None = None
    rows: list[tuple[int, float, LosState | None]] = []
    meta: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    meta[key.strip()] = value.strip()
                continue
            parts = line.split(",")
            if labeled is None:
                labeled = _parse_header(parts, lineno)
                continue
            expected = 3 if labeled else 2
            if len(parts) != expected:
                raise ParseError(f"expected {expected} columns, got {len(parts)}", line=lineno)
            try:
                t = int(parts[0])
                d = float(parts[1])
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from exc
            if not math.isfinite(d) or d <= 0.0:
                raise RangeError(f"line {lineno}: distance must be finite and positive, got {parts[1]}")
            state: LosState | None = None
            if labeled:
                name = parts[2].strip()
                if name not in LosState.__members__:
                    raise ParseError(f"unknown state {name!r}", line=lineno)
                state = LosState[name]
            rows.append((t, d, state))
    if labeled is None:
        raise ParseError("no header row found")
    if not rows:
        raise ParseError("no data rows found")
    return labeled, rows, meta


def _split_traces(rows: list[tuple[int, float, LosState | None]]) -> list[list[tuple[int, float, LosState | None]]]:
    groups: list[list[tuple[int, float, LosState | None]]] = [[rows[0]]]
    for prev, cur in zip(rows, rows[1:]):
        if cur[0] <= prev[0]:
            groups.append([cur])
        else:
            groups[-1].append(cur)
    return groups


def read_distance_trace(path: str | Path) -> DistanceTrace:
    """Read a single distance trace; a state column, when present, is ignored."""
    _, rows, _ = _parse_rows(path)
    groups = _split_traces(rows)
    if len(groups) > 1:
        raise ParseError(f"expected a single trace, found {len(groups)} (time restarts)")
    ts = np.asarray([r[0] for r in rows], dtype=np.int64)
    ds = np.asarray([r[1] for r in rows], dtype=float)
    try:
        return DistanceTrace(ts, ds)
    except DomainError as exc:
        raise ParseError(str(exc)) from exc


def read_labeled_traces(path: str | Path) -> list[StateTrace]:
    """Read one or more labeled traces from a single file."""
    labeled, rows, meta = _parse_rows(path)
    if not labeled:
        raise ParseError("file has no state column")
    scenario = meta.get("scenario", "unknown")
    try:
        seed = int(meta.get("seed", "0"))
    except ValueError:
        seed = 0
    traces = []
    for group in _split_traces(rows):
        ts = np.asarray([r[0] for r in group], dtype=np.int64)
        ds = np.asarray([r[1] for r in group], dtype=float)
        ss = np.asarray([int(r[2]) for r in group], dtype=np.int8)
        if ts.size > 1 and np.any(np.diff(ts) != 1):
            raise ParseError("time steps within a trace must increase by exactly one second")
        traces.append(StateTrace(ts, ds, ss, scenario=scenario, seed=seed))
    return traces
