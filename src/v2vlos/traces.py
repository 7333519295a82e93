"""Distance-trace synthesis, dwell statistics, trace files, Fresnel clearance.

Synthetic traces respect the per-environment relative-speed envelopes (urban
up to 20 m/s, same-direction highway up to 25 m/s, opposing highway 50 to
100 m/s) so that consecutive distances stay physically plausible at the
one-second step. Distances reflect off the valid range instead of clamping,
to avoid piling mass onto the boundary.

Dwell statistics are counted per batch of traces, as they pass by, into one
array of run lengths per state (:class:`DwellCount`).

Trace files are delimited text with a mandatory header: ``t,d`` for plain
distance traces, ``t,d,state`` for labeled traces, one row per step, with
``#`` comment lines skipped wherever they stand and not parsed: provenance
headers are for whoever reads the file. A non-increasing time value starts a new trace,
so several traces can live in one labeled file; a trace that breaks the
:class:`DistanceTrace` rules is a :class:`ParseError`. The readers parse the
whole file before they build a trace.
"""

from __future__ import annotations

import codecs
import io
import math
import os
import re
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, groupby, islice
from operator import attrgetter
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import DomainError, ParseError
from .markov import DistanceTrace, StateTrace, _frozen, chunk_width, count_blocks
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


# Draws per block of a chunk's steps.
_SYNTH_BLOCK = 1 << 14
# Chunks of fewer traces are synthesised a trace at a time. At 1,000 and 5,000
# steps, v_max 20 and 400 (best of 5, 2-core Xeon, numpy 2.4.6), the column
# walk took 1.2-1.4 times the per-trace loop's time at 16 traces, 0.45-0.98 at 24.
_SYNTH_COLUMNS_FROM = 24


def _reflect(x: float, lo: float, hi: float) -> tuple[float, bool]:
    bounced = False
    while x < lo or x > hi:
        x = 2.0 * lo - x if x < lo else 2.0 * hi - x
        bounced = True
    return x, bounced


def _synth_alone(profile: MobilityProfile, seed: RngSeed) -> list[float]:
    """The distances of one trace, a step at a time."""
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
    return ds


def _synth_columns(d: np.ndarray, seeds: list[RngSeed], bound: float) -> None:
    """Fill steps 1 on of each row of ``d`` as ``_synth_alone`` would, all rows a step at a time.

    ``2 * clip(x) - x`` is ``_reflect``'s one pass, rounded alike, and one pass
    settles every step: a step of at most ``_MAX_STEP`` lands in [2 lo - hi,
    2 hi - lo], whose mirror image is [lo, hi], with exact bounds.
    """
    seeds_u64, n_steps = np.array(seeds, dtype=np.uint64), d.shape[1]
    x, twice = d[:, 0], np.empty(d.shape[0])
    block = max(1, _SYNTH_BLOCK // d.shape[0])
    for start in range(1, n_steps, block):
        # Step k takes draw k - 1 of each seed's stream.
        steps = (2.0 * uniforms(seeds_u64, start - 1, min(block, n_steps - start)) - 1.0) * bound
        for out in steps:
            np.add(x, out, out=out)
            np.clip(out, DEFAULT_D_MIN, DEFAULT_D_MAX, out=twice)
            twice *= 2.0
            x = np.subtract(twice, out, out=out)
        d[:, start:start + len(steps)] = steps.T


def synth_distance_traces(profile: MobilityProfile, seeds: Iterable[RngSeed]) -> Iterator[DistanceTrace]:
    """Lazily, ``synth_distance_trace(profile, seed)`` for each of ``seeds``, bit for bit.

    An unseeded profile gives one shared trace. Seeded ones are synthesised
    into one read-only ``(traces, steps)`` matrix per chunk of the sampling
    engine (:func:`markov.chunk_width`), whose rows the traces hold with one
    shared time column; a chunk narrower than ``_SYNTH_COLUMNS_FROM`` is
    synthesised a trace at a time.
    """
    times = np.arange(profile.n_steps, dtype=np.int64)
    times.setflags(write=False)
    if not profile.seeded:
        trace = DistanceTrace(times, _synth_alone(profile, 0))
        yield from (trace for _ in seeds)
        return
    seeds = iter(seeds)
    while chunk := [seed % 2**64 for seed in islice(seeds, chunk_width(profile.n_steps))]:
        d = np.empty((len(chunk), profile.n_steps))
        if len(chunk) < _SYNTH_COLUMNS_FROM:
            for row, seed in zip(d, chunk):
                row[:] = _synth_alone(profile, seed)
        else:
            d[:, 0] = profile.d0
            _synth_columns(d, chunk, profile.step_bound)
        d.setflags(write=False)
        yield from (DistanceTrace(times, row) for row in d)


def synth_distance_trace(profile: MobilityProfile, seed: RngSeed = 0) -> DistanceTrace:
    """Deterministic synthetic distance trace for one profile and seed, reflected into [1, 500] m."""
    return next(synth_distance_traces(profile, [seed]))


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


class DwellCount:
    """Dwell-time counts of the state traces passed through :meth:`tap` so far.

    ``runs[s, n]`` is the number of uninterrupted runs of exactly ``n`` steps
    in state ``s``; a run ends where the state changes and at the end of
    every trace.
    """

    def __init__(self):
        self.n_traces, self._runs = 0, np.zeros((3, 1), dtype=np.int64)

    def tap(self, traces: Iterable[StateTrace]) -> Iterator[StateTrace]:
        """The traces, read once and in order, each passed on once its block is counted (:func:`count_blocks`)."""
        for block in count_blocks(traces):
            self.n_traces += len(block)
            self._runs = _count_runs(self._runs, block)
            yield from block

    @property
    def runs(self) -> np.ndarray:
        """A read-only copy of the counts so far."""
        return _frozen(self._runs)

    @property
    def occupancy(self) -> np.ndarray:
        """Steps spent in each state, in state order."""
        return self._runs @ np.arange(self._runs.shape[1])

    @property
    def n_steps(self) -> int:
        return int(self.occupancy.sum())

    @property
    def changes(self) -> int:
        """State changes within the traces: every run but the first of each trace."""
        return int(self._runs.sum()) - self.n_traces

    @property
    def mean_dwell(self) -> float:
        """Mean seconds per uninterrupted run: steps / (changes + traces)."""
        if self.n_traces == 0:
            raise DomainError("dwell statistics need at least one trace")
        return self.n_steps / int(self._runs.sum())


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

# Bytes per read of a trace file, whose pieces end at the last line end read; bounds the reader's memory.
_BLOCK_BYTES = 1 << 17
_LINE_END = re.compile(rb"\r\n|\r|\n")  # as text mode reads them
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


@contextmanager
def atomic_output(path: str | Path) -> Iterator[TextIO]:
    """Text handle whose contents replace ``path`` only once the block succeeds.

    The data goes to a temporary file in the same directory, which is renamed
    over ``path`` at the end, so readers never see a partial file. It is made
    with mode 0o666, which the kernel masks as it masks any new file's mode.
    """
    path = Path(path)
    tmp = path.parent / f"{path.name}.{os.urandom(6).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_state_traces(traces: Iterable[StateTrace], path: str | Path, provenance: Sequence[str] = ()) -> None:
    """Write labeled traces atomically; several traces are separated by time restarts.

    ``provenance`` lines (each starting with ``#``) precede the header. Of a
    run of consecutive traces on one grid (one :class:`DistanceTrace`
    object), the first is written row by row and the rest from one table of
    the grid's rows (:func:`_grid_rows`). Traces must restart time: a grid that
    starts after the one before it ends is a :class:`DomainError`.
    """
    with atomic_output(path) as handle:
        handle.write("".join(line + "\n" for line in provenance) + "t,d,state\n")
        last = _TIME_MAX  # no trace precedes the first
        for grid, group in groupby(traces, attrgetter("grid")):
            times = grid.times.tolist()
            if times[0] > last:
                raise DomainError(f"a trace from t={times[0]} after one ending at t={last} would read back as one")
            last = times[-1]
            rows = zip(times, grid.distances.tolist(), next(group).states.tolist())
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
        raise ParseError(f"distance must be finite and positive, got {parts[1]}", line=lineno)
    state = -1
    if labeled:
        name = parts[2].strip()
        if name not in _STATE_CODES:
            raise ParseError(f"unknown state {name!r}", line=lineno)
        state = _STATE_CODES[name]
    if not _TIME_MIN <= t <= _TIME_MAX:
        raise ParseError(f"time {t} does not fit in a 64-bit integer", line=lineno)
    return t, d, state


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


def _pieces(handle: BinaryIO) -> Iterator[bytes]:
    """The bytes of ``handle`` in pieces of about ``_BLOCK_BYTES`` that end at a line end, the last at the file's."""
    rest = b""
    while more := handle.read(_BLOCK_BYTES):
        data = rest + more + handle.readline(_BLOCK_BYTES)  # bounded: lines that end in a lone CR hold no LF
        cut = len(data) if data.endswith(b"\n") else max(data.rfind(b"\n"), data.rfind(b"\r", 0, -1)) + 1
        if cut:
            yield data[:cut]  # the same bytes object when the piece ends in LF
        rest = data[cut:]
    if rest:
        yield rest


def _chunks(path: str | Path, split: int | None = None, second: bool = False) -> Iterator[bool | tuple]:
    """The header kind (True with a state column), then each chunk of the lines after it: (bytes, first line, offset).

    Chunks are :func:`_pieces`, decoded only by their parse (:func:`_parse_chunk`); an offset counts the bytes before
    it after any byte-order mark. With ``split``, the chunks are cut in two at the first chunk edge with ``split`` or
    more bytes of chunks before it; those before the cut are yielded, or with ``second`` those after it.
    """
    with open(path, "rb") as handle:
        pieces = _pieces(handle)
        rest, lineno, offset = next(pieces, b"").removeprefix(codecs.BOM_UTF8), 0, 0
        while True:
            if not rest and not (rest := next(pieces, b"")):
                raise ParseError("no header row found")
            end = line_end.end() if (line_end := _LINE_END.search(rest)) else len(rest)
            text, rest, lineno, offset = rest[:end].decode("utf-8").strip(), rest[end:], lineno + 1, offset + end
            if text and not text.startswith("#"):
                break
        yield _parse_header(text.split(","), lineno)
        first, size, skip = lineno + 1, 0, second
        for data in chain([rest] if rest else [], pieces):
            if not skip:
                yield data, first, offset + size
            first += np.count_nonzero(np.frombuffer(data, np.uint8) == 10) + (
                data.count(b"\r") - data.count(b"\r\n") if b"\r" in data else 0)  # 8x as fast as bytes.count
            size += len(data)
            cut = split is not None and size >= split
            if cut and not second:
                break
            skip = skip and not cut


def _parse_chunk(chunk: tuple[bytes, int, int], labeled: bool) -> np.ndarray | None:
    """The data rows of a chunk from :func:`_chunks`, or None without any; ``#`` lines are skipped.

    The rows are converted in bulk or, when that fails, row by row, so the first bad row raises the error a
    row-by-row reader would. An undecodable byte is raised once the lines before it are parsed, at the position
    text mode gives it (with no byte-order mark): text mode decodes 8 KiB at a time, counting from each start.
    """
    data, first, offset = chunk
    try:
        text, undecodable = data.decode("utf-8"), None
    except UnicodeDecodeError as exc:
        at = (offset + exc.start) % 8192
        undecodable = UnicodeDecodeError("utf-8", bytes(at) + data[exc.start:exc.end], at, at + exc.end - exc.start,
                                         exc.reason)
        text = data[:exc.start].decode("utf-8")
        text = text[:max(text.rfind("\n"), text.rfind("\r")) + 1]
    lines = list(io.StringIO(text, newline=None))  # text mode's lines; ``text`` keeps its own line ends
    numbers = range(first, first + len(lines))
    if "#" in text:
        kept = [(raw, lineno) for lineno, raw in zip(numbers, lines) if not raw.strip().startswith("#")]
        lines, numbers, text = [raw for raw, _ in kept], [lineno for _, lineno in kept], "".join(raw for raw, _ in kept)
    rows = None
    if text.strip() and (rows := _bulk_rows(lines, text, labeled)) is None:
        rows = np.array([_parse_row(line.split(","), lineno, labeled)
                         for lineno, raw in zip(numbers, lines) if (line := raw.strip())], dtype=_ROW_DTYPE)
    if undecodable is not None:
        raise undecodable
    return rows


def _trace_starts(t: np.ndarray) -> np.ndarray:
    """Indices where a new trace starts: the time does not increase."""
    return np.flatnonzero(t[1:] <= t[:-1]) + 1


def _read_rows(path: str | Path) -> tuple[bool, np.ndarray]:
    """The header kind and every data row of a trace file (:func:`_chunks`), joined."""
    chunks = _chunks(path)
    labeled = next(chunks)
    blocks = [rows for chunk in chunks if (rows := _parse_chunk(chunk, labeled)) is not None]
    if not blocks:
        raise ParseError("no data rows found")
    return labeled, np.concatenate(blocks)


def read_distance_trace(path: str | Path) -> DistanceTrace:
    """Read a single distance trace; a state column, when present, is ignored."""
    _, rows = _read_rows(path)
    starts = _trace_starts(rows["t"])
    if starts.size:
        raise ParseError(f"expected a single trace, found {starts.size + 1} (time restarts)")
    try:
        return DistanceTrace(rows["t"], rows["d"])
    except DomainError as exc:
        raise ParseError(str(exc)) from exc


def read_labeled_traces(path: str | Path) -> list[StateTrace]:
    """The labeled traces of a file, in order, each on its own :class:`DistanceTrace`.

    Every row is parsed before any trace is built, so errors come in this
    order: the first bad row or undecodable byte, no data rows, no state
    column, then the first trace that breaks the grid rules. Counting a file
    needs no traces: ``estimation.accumulate(path)`` bins its rows a chunk at
    a time.
    """
    labeled, rows = _read_rows(path)
    if not labeled:
        raise ParseError("file has no state column")
    try:
        return [StateTrace(DistanceTrace(part["t"], part["d"]), part["state"])
                for part in np.split(rows, _trace_starts(rows["t"]))]
    except DomainError as exc:
        raise ParseError(str(exc)) from exc
