"""Distance-trace synthesis, dwell statistics, trace files, Fresnel clearance.

Synthetic traces respect the per-environment relative-speed envelopes (urban
up to 20 m/s, same-direction highway up to 25 m/s, opposing highway 50 to
100 m/s) so that consecutive distances stay physically plausible at the
one-second step. Distances reflect off the valid range instead of clamping,
to avoid piling mass onto the boundary.

Dwell statistics are counted per batch of traces into one array of run
lengths per state (:class:`DwellStats`).

Trace files are delimited text with a mandatory header: ``t,d`` for plain
distance traces, ``t,d,state`` for labeled traces, one row per step, with
``#`` comment lines skipped. A non-increasing time value starts a new trace,
so several traces can live in one labeled file; a trace that breaks the
:class:`DistanceTrace` rules is a :class:`ParseError`.
"""

from __future__ import annotations

import math
import os
import tempfile
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import groupby, islice
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import DomainError, ParseError, RangeError
from .markov import DistanceTrace, StateTrace, _frozen, count_blocks
from .params import DEFAULT_D_MAX, DEFAULT_D_MIN, as_real
from .rng import RngSeed, uniforms
from .states import STATE_NAMES

SPEED_OF_LIGHT = 299792458.0

PROFILE_KINDS = ("constant", "walk", "opposing_highway", "same_direction_highway", "urban_mixed")

OPPOSING_SPEED_RANGE = (50.0, 100.0)
SAME_DIRECTION_SPEED_RANGE = (0.0, 25.0)
URBAN_MIXED_SPEED_RANGE = (0.0, 20.0)

# Width of the range of d0: no step may cross the whole range.
_MAX_STEP = DEFAULT_D_MAX - DEFAULT_D_MIN


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
        if not (math.isfinite(self.d0) and DEFAULT_D_MIN <= self.d0 <= DEFAULT_D_MAX):
            raise ValueError(f"d0 must be within [{DEFAULT_D_MIN:g}, {DEFAULT_D_MAX:g}] m, got {self.d0!r}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.kind == "walk":
            if self.v_max is None or not (0.0 < self.v_max < math.inf):
                raise ValueError("walk profile needs a finite v_max > 0")
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
        if self.step_bound > _MAX_STEP:
            raise ValueError(f"a step may move at most {_MAX_STEP:g} m, got {self.step_bound:g} m")

    @property
    def step_bound(self) -> float:
        """Largest possible |d(t+1) - d(t)| in meters."""
        return float(self.v_max if self.kind == "walk" else abs(self.speed))

    @property
    def seeded(self) -> bool:
        """Whether the trace depends on the seed; the other kinds draw nothing."""
        return self.kind not in ("constant", "opposing_highway")


def _reflect(x: float, lo: float, hi: float) -> tuple[float, bool]:
    bounced = False
    while x < lo or x > hi:
        x = 2.0 * lo - x if x < lo else 2.0 * hi - x
        bounced = True
    return x, bounced


def synth_distance_trace(profile: MobilityProfile, seed: RngSeed = 0) -> DistanceTrace:
    """Deterministic synthetic distance trace for one profile and seed, reflected into [1, 500] m."""
    ds = [profile.d0]
    if not profile.seeded:
        vel = profile.speed if profile.kind == "constant" else -abs(profile.speed)
        for _ in range(profile.n_steps - 1):
            nxt, bounced = _reflect(ds[-1] + vel, DEFAULT_D_MIN, DEFAULT_D_MAX)
            if bounced:
                vel = -vel
            ds.append(nxt)
    else:
        # Step k + 1 takes draw k of the seed's stream.
        bound = profile.step_bound
        for u in uniforms(np.uint64(seed % 2**64), 0, profile.n_steps - 1).tolist():
            nxt, _ = _reflect(ds[-1] + (2.0 * u - 1.0) * bound, DEFAULT_D_MIN, DEFAULT_D_MAX)
            ds.append(nxt)
    return DistanceTrace.from_distances(ds)


@dataclass(frozen=True, eq=False)
class DwellStats:
    """Dwell-time counts of a batch of state traces.

    ``runs[s, n]`` is the number of uninterrupted runs of exactly ``n`` steps
    in state ``s``; a run ends where the state changes and at the end of
    every trace.
    """

    n_traces: int
    runs: np.ndarray

    @property
    def occupancy(self) -> np.ndarray:
        """Steps spent in each state, in state order."""
        return self.runs @ np.arange(self.runs.shape[1])

    @property
    def n_steps(self) -> int:
        return int(self.occupancy.sum())

    @property
    def changes(self) -> int:
        """State changes within the traces: every run but the first of each trace."""
        return int(self.runs.sum()) - self.n_traces

    @property
    def mean_dwell(self) -> float:
        """Mean seconds per uninterrupted run: steps / (changes + traces)."""
        return self.n_steps / int(self.runs.sum())


def _count_runs(runs: np.ndarray, block: list[StateTrace]) -> np.ndarray:
    """``runs`` plus the run-length counts of the traces in ``block``."""
    s = np.concatenate([trace.states for trace in block])
    last = np.empty(s.size, dtype=bool)  # True at the last step of each run
    np.not_equal(s[1:], s[:-1], out=last[:-1])
    last[np.cumsum([len(trace) for trace in block]) - 1] = True
    ends = last.nonzero()[0]
    lengths = np.diff(ends, prepend=-1)
    # One bincount over state * width + run length gives all three rows.
    width = int(lengths.max()) + 1
    counts = np.bincount(s[ends].astype(np.intp) * width + lengths, minlength=3 * width).reshape(3, width)
    if width > runs.shape[1]:
        runs, counts = counts, runs  # add the narrower array into the wider one
    runs[:, :counts.shape[1]] += counts
    return runs


def dwell_statistics(traces: Iterable[StateTrace]) -> DwellStats:
    """Run-length counts of a batch of state traces (final runs included).

    The traces are read once, in order, and counted a block at a time
    (:func:`count_blocks`).
    """
    runs = np.zeros((3, 1), dtype=np.int64)
    n_traces = 0
    for block in count_blocks(traces):
        n_traces += len(block)
        runs = _count_runs(runs, block)
    if n_traces == 0:
        raise DomainError("dwell statistics need at least one trace")
    runs.setflags(write=False)
    return DwellStats(n_traces=n_traces, runs=runs)


def fresnel_clearance_radius(d1: float, d2: float, f: float) -> float:
    """Radius of 60% of the first Fresnel zone at distances d1, d2 from the ends."""
    d1, d2, f = as_real(d1, "d1"), as_real(d2, "d2"), as_real(f, "f")
    if d1 <= 0.0 or d2 <= 0.0 or f <= 0.0:
        raise DomainError(f"d1, d2 and f must be positive, got {(d1, d2, f)}")
    lam = SPEED_OF_LIGHT / f
    return 0.6 * math.sqrt(lam * d1 * d2 / (d1 + d2))


# Trace file format helpers.

_HEADER_DISTANCE = ("t", "d")
_HEADER_LABELED = ("t", "d", "state")


_STATE_CODES = {name: code for code, name in enumerate(STATE_NAMES)}
_TIME_MIN, _TIME_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)

# Lines per block of a trace file read; bounds the reader's memory.
_BLOCK_LINES = 1 << 15
# One parsed row; state -1 when the file has no state column.
_ROW_DTYPE = np.dtype([("t", np.int64), ("d", np.float64), ("state", np.int8)])
_BULK_DTYPE = {
    False: [("t", np.int64), ("d", np.float64)],
    True: [("t", np.int64), ("d", np.float64), ("state", "U6")],
}
# ASCII characters that np.loadtxt skips (around numbers) or drops (at the end
# of strings) where int, float and the state check would not.
_BULK_UNSAFE = "\x00\x1c\x1d\x1e\x1f"


def _loadtxt_refuses_float_integers() -> bool:
    # Older numpy releases read "1.0" as the integer 1 (with a
    # DeprecationWarning) where int() refuses it; there every block is parsed
    # row by row.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        try:
            np.loadtxt(["1.0"], dtype=np.int64)
        except ValueError:
            return True
    return False


_USE_LOADTXT = _loadtxt_refuses_float_integers()


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


def write_state_traces(traces: Iterable[StateTrace], path: str | Path, provenance: Sequence[str] = ()) -> None:
    """Write labeled traces atomically; several traces are separated by time restarts.

    ``provenance`` lines (each starting with ``#``) precede the header. Of a
    run of consecutive traces on one grid (one :class:`DistanceTrace`
    object), the first is written row by row and the rest from one table of
    the grid's rows (:func:`_grid_rows`).
    """
    with atomic_output(path) as handle:
        handle.write("".join(line + "\n" for line in provenance) + "t,d,state\n")
        for grid, group in groupby(traces, attrgetter("grid")):
            rows = zip(grid.times.tolist(), grid.distances.tolist(), next(group).states.tolist())
            handle.write("".join([f"{t},{d!r},{STATE_NAMES[s]}\n" for t, d, s in rows]))
            for n, trace in enumerate(group):
                if n == 0:
                    grid_rows, offsets = _grid_rows(grid)
                handle.write("".join(grid_rows.take(offsets + trace.states).tolist()))


def _grid_rows(grid: DistanceTrace) -> tuple[np.ndarray, np.ndarray]:
    """Every row a state trace on ``grid`` can have, and where each step's rows start.

    Row ``3 * k + s`` of the object array is step ``k`` in state ``s``.
    """
    prefixes = [f"{t},{d!r}," for t, d in zip(grid.times.tolist(), grid.distances.tolist())]
    rows = np.array([p + name + "\n" for p in prefixes for name in STATE_NAMES], dtype=object)
    return rows, np.arange(0, rows.size, 3)


def _parse_header(parts: list[str], lineno: int) -> bool:
    """True when the header carries a state column."""
    lowered = tuple(p.strip().lower() for p in parts)
    if lowered == _HEADER_DISTANCE:
        return False
    if lowered == _HEADER_LABELED:
        return True
    raise ParseError(f"header must be 't,d' or 't,d,state', got {','.join(parts)!r}", line=lineno)


def _parse_row(parts: list[str], lineno: int, labeled: bool) -> tuple[int, float, int]:
    """One data row as (time, distance, state code; -1 without a state column).

    These are the rules for a row; the bulk conversion below only takes
    blocks whose every row it reads exactly as this function does.
    """
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
    state = -1
    if labeled:
        name = parts[2].strip()
        if name not in _STATE_CODES:
            raise ParseError(f"unknown state {name!r}", line=lineno)
        state = _STATE_CODES[name]
    if not _TIME_MIN <= t <= _TIME_MAX:
        raise ParseError(f"time {t} does not fit in a 64-bit integer", line=lineno)
    return t, d, state


def _read_comment(line: str, meta: dict[str, str]) -> None:
    """Record a ``# key=value`` line in ``meta``; other comments carry nothing."""
    body = line.lstrip("#").strip()
    if "=" in body:
        key, _, value = body.partition("=")
        meta[key.strip()] = value.strip()


def _drop_comments(lines: list[str], numbers: Sequence[int], meta: dict[str, str]) -> tuple[list[str], list[int]]:
    """The lines that are not comments, with their numbers; comments go to ``meta``."""
    kept: list[str] = []
    kept_numbers: list[int] = []
    for lineno, raw in zip(numbers, lines):
        line = raw.strip()
        if line.startswith("#"):
            _read_comment(line, meta)
        else:
            kept.append(raw)
            kept_numbers.append(lineno)
    return kept, kept_numbers


def _bulk_rows(lines: list[str], text: str, labeled: bool) -> np.ndarray | None:
    """The block's rows read by ``np.loadtxt``; None when a row needs a closer look.

    ``loadtxt`` reads printable ASCII numbers exactly as ``int``/``float`` do,
    but takes some other characters for digits or spaces and drops trailing
    NULs from strings, so blocks holding any of those go row by row. A state
    name longer than the ``U6`` field is cut to six characters and so still
    matches no name.
    """
    if not _USE_LOADTXT or not text.isascii() or any(c in text for c in _BULK_UNSAFE):
        return None
    try:
        table = np.loadtxt(lines, delimiter=",", comments=None, dtype=_BULK_DTYPE[labeled], ndmin=1)
    except ValueError:
        return None
    d = table["d"]
    if not (np.isfinite(d).all() and (d > 0.0).all()):
        return None
    rows = np.empty(table.size, dtype=_ROW_DTYPE)
    rows["t"] = table["t"]
    rows["d"] = d
    rows["state"] = -1
    if labeled:
        names, state = table["state"], rows["state"]
        for name, code in _STATE_CODES.items():
            state[names == name] = code
        if (state < 0).any():
            return None
    return rows


def _parse_block(lines: list[str], numbers: Sequence[int], labeled: bool, text: str) -> np.ndarray:
    """Rows of a block of data and blank lines (``text`` is their join)."""
    rows = _bulk_rows(lines, text, labeled)
    if rows is None:
        rows = np.array(
            [_parse_row(line.split(","), lineno, labeled) for lineno, raw in zip(numbers, lines) if (line := raw.strip())],
            dtype=_ROW_DTYPE,
        )
    return rows


def _read_rows(path: str | Path) -> tuple[bool, np.ndarray, dict[str, str]]:
    """Header kind, all data rows as a ``_ROW_DTYPE`` array, and ``#`` metadata.

    After the header the file is read in blocks of ``_BLOCK_LINES`` lines,
    each converted in bulk or, when that fails, row by row, so the first bad
    row raises the error a row-by-row reader would.
    """
    labeled: bool | None = None
    meta: dict[str, str] = {}
    blocks = [np.empty(0, dtype=_ROW_DTYPE)]
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if line.startswith("#"):
                _read_comment(line, meta)
            elif line:
                labeled = _parse_header(line.split(","), lineno)
                break
        if labeled is None:
            raise ParseError("no header row found")
        first = lineno + 1
        while True:
            block: list[str] = []
            undecodable = None
            try:
                block.extend(islice(handle, _BLOCK_LINES))
            except UnicodeDecodeError as exc:
                # The lines decoded before the error are parsed first.
                undecodable = exc
            lines, numbers = block, range(first, first + len(block))
            first += len(block)
            text = "".join(lines)
            if "#" in text:
                lines, numbers = _drop_comments(lines, numbers, meta)
                text = "".join(lines)
            if text.strip():
                blocks.append(_parse_block(lines, numbers, labeled, text))
            if undecodable is not None:
                raise undecodable
            if len(block) < _BLOCK_LINES:
                break
    rows = np.concatenate(blocks)
    if rows.size == 0:
        raise ParseError("no data rows found")
    return labeled, rows, meta


def _trace_starts(t: np.ndarray) -> np.ndarray:
    """Indices where a new trace starts: the time does not increase."""
    return np.flatnonzero(t[1:] <= t[:-1]) + 1


def read_distance_trace(path: str | Path) -> DistanceTrace:
    """Read a single distance trace; a state column, when present, is ignored."""
    _, rows, _ = _read_rows(path)
    starts = _trace_starts(rows["t"])
    if starts.size:
        raise ParseError(f"expected a single trace, found {starts.size + 1} (time restarts)")
    try:
        return DistanceTrace(rows["t"], rows["d"])
    except DomainError as exc:
        raise ParseError(str(exc)) from exc


def read_labeled_traces(path: str | Path) -> list[StateTrace]:
    """Read one or more labeled traces from a single file, each on its own :class:`DistanceTrace`."""
    labeled, rows, meta = _read_rows(path)
    if not labeled:
        raise ParseError("file has no state column")
    scenario = meta.get("scenario", "unknown")
    try:
        seed = int(meta.get("seed", "0"))
    except ValueError:
        seed = 0
    starts = _trace_starts(rows["t"])
    # Each column is frozen once; the traces hold read-only views of it.
    columns = [np.split(_frozen(rows[name]), starts) for name in ("t", "d", "state")]
    try:
        return [StateTrace(DistanceTrace(t, d), s, scenario=scenario, seed=seed) for t, d, s in zip(*columns)]
    except DomainError as exc:
        raise ParseError(str(exc)) from exc
