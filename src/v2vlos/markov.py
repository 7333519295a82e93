"""Seeded generation of visibility-state sequences over a distance trace.

The first state is drawn from the state probabilities at the first distance.
Every later state is drawn from the transition-matrix row selected by the
previous state, evaluated at the distance of the step being generated. The
sampler consults nothing but (previous state, current distance), so the
output is a Markov chain by construction. A sampler holds no mutable state.

Each trace is a strict one-second grid, a :class:`DistanceTrace`, checked
once and held by every :class:`StateTrace` on it; the transition
probabilities are per-second quantities and other spacings are rejected.
A grid is its object: both trace types compare and hash by identity, so
traces share a grid only when they hold the same :class:`DistanceTrace`.
Step ``k`` of a trace consumes draw ``k`` of its seed's counter-based
splitmix64 stream, and batches give every trace its own sub-seed by index.

One engine generates every trace (:func:`_walk`): a block of steps at a
time, all traces together, from one numpy threshold table per distinct grid.
The table is the scalar thresholds evaluated with numpy's ``exp`` and
``log``; it is NaN outside [d_min, d_max] and where a repair is decided by a
near tie. A draw closer than the guard band of 2**-40 to a threshold it used,
or one that used a NaN entry, goes to the scalar thresholds instead, as does
a block with a lone live trace. The bytes are those of the scalar thresholds
as long as every finite table entry is within the band of them. That holds
on the builtin scenarios (within 2**-50) and on the random loadable scenarios
the tests draw, where numpy's ``exp`` and ``log`` stay within a few ulps of
the math module's (the CI log names numpy's SIMD targets). A curve that
magnifies a last-bit difference past the band, such as an
``offset_minus_log_bell`` that cancels two terms near 1e5, can break it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import assembly
from .errors import BatchError, DomainError
from .params import ScenarioModel, effective_distance
from .rng import RngSeed, derive_subseed, uniforms

# Draws per block of steps (table entries: a quarter per origin); bounds the
# engine's working set to about a megabyte.
_BLOCK = 1 << 14
# Entries of the state matrix of one chunk of traces (one byte each).
_CHUNK = 1 << 20
# Fewer live traces than this are walked by the scalar thresholds alone: for
# a lone trace, two array lookups per step cost more than one scalar step.
_TABLE_FROM = 2
# Guard band in units of 2**-53: a draw this close to a table threshold is
# decided by the scalar thresholds.
_GUARD = 1 << 13


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` as a read-only column, copied only when it can still be written.

    An array is taken as it is when neither it nor the array it views is
    writeable; anything else (a writeable array, or a read-only view of one)
    is copied once, so later writes by the caller never reach a trace.
    """
    base = a.base
    shared = base is not None and (not isinstance(base, np.ndarray) or base.flags.writeable)
    if a.flags.writeable or shared:
        a = a.copy()
        a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class DistanceTrace:
    """Tx-Rx distance per one-second time step: the grid of a trace.

    The grid rules, stated here only: matching non-empty columns, one-second
    steps and finite positive distances; a breach is a :class:`DomainError`.
    """

    times: np.ndarray
    distances: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.int64)
        d = np.asarray(self.distances, dtype=float)
        if t.ndim != 1 or d.ndim != 1 or t.size != d.size or t.size == 0:
            raise DomainError("trace needs matching, non-empty time and distance vectors")
        if np.any(np.diff(t) != 1):
            raise DomainError("time steps must increase by exactly one second")
        if not ((d > 0.0) & (d < np.inf)).all():  # both False at NaN
            raise DomainError("distances must be finite and positive")
        object.__setattr__(self, "times", _frozen(t))
        object.__setattr__(self, "distances", _frozen(d))

    @classmethod
    def from_distances(cls, distances: Sequence[float]) -> "DistanceTrace":
        d = np.asarray(distances, dtype=float)
        return cls(np.arange(d.size, dtype=np.int64), d)

    def __len__(self) -> int:
        return int(self.times.size)


@dataclass(frozen=True, eq=False)
class StateTrace:
    """One visibility state per step of ``grid``, whose ``times`` and ``distances`` it shares."""

    grid: DistanceTrace
    states: np.ndarray
    scenario: str = ""
    seed: RngSeed = 0

    def __post_init__(self):
        s = np.asarray(self.states, dtype=np.int8)
        if s.shape != self.grid.times.shape:
            raise DomainError("states must align with time steps")
        if s.view(np.uint8).max() > 2:  # a negative state reads as 128 or more
            raise DomainError("states must be LOS, NLOSv or NLOSb")
        object.__setattr__(self, "states", _frozen(s))

    times = property(lambda self: self.grid.times, doc="The grid's read-only time column.")
    distances = property(lambda self: self.grid.distances, doc="The grid's read-only distance column.")

    def __len__(self) -> int:
        return len(self.grid)


# Steps per block of a batch count; bounds the memory of counting a batch.
_COUNT_BLOCK = 1 << 16


def count_blocks(traces: Iterable[StateTrace]) -> Iterator[list[StateTrace]]:
    """The traces, read once and in order, in lists of at least ``_COUNT_BLOCK`` steps (the last may be short)."""
    block: list[StateTrace] = []
    size = 0
    for trace in traces:
        block.append(trace)
        size += len(trace)
        if size >= _COUNT_BLOCK:
            yield block
            block, size = [], 0
    if block:
        yield block


@dataclass(eq=False, slots=True)
class Sampler:
    """The generation engine: state traces from distance traces and seeds.

    ``thresholds(origin, d)`` gives the cumulative thresholds (c0, c1) of a
    draw from state ``origin`` at distance ``d``, origin -1 being the initial
    draw; a uniform u picks state 0 when u < c0, state 1 when u < c1 and
    state 2 otherwise. ``table(origin, d)`` is its numpy twin over an array
    of distances, shape ``(2, n)``, NaN wherever ``thresholds`` must decide.
    :func:`chain` and :func:`umi.baseline` build the two samplers.
    """

    thresholds: Callable[[int, float], tuple[float, float]]
    table: Callable[[int, np.ndarray], np.ndarray]
    tag: str

    def trace(self, trace: DistanceTrace, seed: RngSeed) -> StateTrace:
        """One state trace on ``trace`` itself; step ``k`` takes draw ``k`` of ``seed``'s stream."""
        (states,), (error,) = _walk(self, [trace], [seed])
        if error is not None:
            raise error
        return StateTrace(trace, states, scenario=self.tag, seed=seed)

    def batch(self, traces: Iterable[DistanceTrace], seed: RngSeed) -> Iterator[StateTrace]:
        """Lazily generate one state trace per input trace.

        Trace ``i`` uses sub-seed ``derive_subseed(seed, i)``, so each output
        depends only on its own input and index. Every trace is attempted; a
        trace that fails is skipped, and after the last one the failures are
        raised together as one :class:`BatchError` with their indices. The
        input is read a chunk at a time (:func:`_chunks`).
        """
        failures: list[tuple[int, Exception]] = []
        end = 0
        for chunk in _chunks(traces):
            start, end = end, end + len(chunk)
            seeds = [derive_subseed(seed, i) for i in range(start, end)]
            for i, grid, sub, states, error in zip(range(start, end), chunk, seeds, *_walk(self, chunk, seeds)):
                if error is None:
                    yield StateTrace(grid, states, scenario=self.tag, seed=sub)
                else:
                    failures.append((i, error))
        if failures:
            raise BatchError(failures)


def _chunks(traces: Iterable[DistanceTrace]) -> Iterator[list[DistanceTrace]]:
    """The traces, read once, in lists of at most ``_BLOCK`` traces and, bar one long trace, ``_CHUNK`` padded steps."""
    chunk: list[DistanceTrace] = []
    longest = 0
    for trace in traces:
        longest = max(longest, len(trace))
        if chunk and (len(chunk) == _BLOCK or (len(chunk) + 1) * longest > _CHUNK):
            yield chunk
            chunk, longest = [], len(trace)
        chunk.append(trace)
    if chunk:
        yield chunk


def _walk(sampler: Sampler, grids: Sequence[DistanceTrace], seeds: Sequence[RngSeed]
          ) -> tuple[list[np.ndarray], list[DomainError | None]]:
    """The read-only states of each trace, or the :class:`DomainError` that stopped it.

    Traces are walked longest first, so the live ones are a prefix. A table
    of the live grids, each distinct grid once, covers about ``_BLOCK / 4``
    entries per origin; blocks of about ``_BLOCK`` draws are resolved from
    it. After a block, a trace with a draw within ``_GUARD * 2**-53`` of a
    threshold it used, or that used a NaN, is walked again from that step to
    the block's end by ``sampler.thresholds``, which alone makes its picks,
    warnings and errors. A block of fewer than ``_TABLE_FROM`` live traces is
    walked by ``sampler.thresholds`` from its first step.
    """
    lengths = np.array([len(grid) for grid in grids])
    order = np.argsort(-lengths, kind="stable")
    lengths, n, longest = lengths[order], len(grids), int(lengths.max())
    ids: dict[DistanceTrace, int] = {}
    base = 3 * np.array([ids.setdefault(grids[t], len(ids)) for t in order.tolist()], dtype=np.intp)
    uniq = list(ids)
    seeds_u64 = np.array([seeds[t] % 2**64 for t in order.tolist()], dtype=np.uint64)
    states = np.empty((n, longest), dtype=np.int8)  # in walk order
    errors: list[DomainError | None] = [None] * n
    guard = _GUARD * 2.0**-53
    start, table_stop, carry = 0, 0, np.zeros(n, dtype=np.int8)  # carry: the states before the block
    while start < longest:
        live = int(np.count_nonzero(lengths > start))
        if live >= _TABLE_FROM and start == table_stop:
            n_grids = int(base[:live].max()) // 3 + 1
            table_start, table_stop = start, min(start + max(1, _BLOCK // (4 * n_grids)), longest)
            table = None  # freed before the next one is built
            table = _grid_table(sampler, uniq[:n_grids], start, table_stop)
        stop = min(start + max(1, _BLOCK // live), table_stop if live >= _TABLE_FROM else longest)
        u = uniforms(seeds_u64[:live], start, stop - start)
        if live < _TABLE_FROM:
            block, hit = np.empty(u.shape, dtype=np.int8), np.ones((1, live), dtype=bool)
        else:
            block, used = _resolve(table[:, start - table_start:stop - table_start], u, base[:live], carry[:live])
            gap = np.abs(np.subtract(used, u, out=used), out=used)  # each draw's distance from the thresholds it used
            hit = ~((gap[0] > guard) & (gap[1] > guard))  # ``>`` is False at NaN
        for t in np.flatnonzero(hit.any(axis=0)).tolist():
            j, end = int(hit[:, t].argmax()), min(stop, lengths[t]) - start  # the trace's steps to walk again
            if errors[t] is not None or j >= end:
                continue
            prev, picks = int(block[j - 1, t] if j else carry[t]) if start + j else -1, []
            try:
                for d, u_k in zip(uniq[base[t] // 3].distances[start + j:start + end].tolist(), u[j:end, t].tolist()):
                    c0, c1 = sampler.thresholds(prev, d)
                    prev = 0 if u_k < c0 else 1 if u_k < c1 else 2
                    picks.append(prev)
            except DomainError as exc:
                errors[t] = exc
            block[j:j + len(picks), t] = picks
        states[:live, start:stop] = block.T
        start, carry = stop, block[-1]
        u = used = gap = None  # freed before the next block's are made
    states.setflags(write=False)
    back = np.argsort(order).tolist()
    return [states[k, :lengths[k]] for k in back], [errors[k] for k in back]


def _grid_table(sampler: Sampler, grids: list[DistanceTrace], start: int, stop: int) -> np.ndarray:
    """Thresholds (c0, c1) of ``grids`` at steps ``start .. stop - 1``, shape ``(2, steps, 3 * len(grids))``.

    Grid ``g`` from state ``s`` is entry ``3g + s``; step 0 holds the initial
    draw in every origin. A grid that ends early is padded, never read.
    """
    span, n_grids = stop - start, len(grids)
    segs = [grid.distances[start:stop] for grid in grids]
    d = np.array([x if x.size == span else np.resize(x, span) for x in segs]).ravel(order="F")
    c = np.empty((2, d.size, 3))
    for origin in (0, 1, 2):
        c[..., origin] = sampler.table(origin, d)
    if start == 0:
        c[:, :n_grids] = sampler.table(-1, d[:n_grids])[..., None]
    c = c.reshape(2, span, 3 * n_grids)
    # The scalar pick (0 below c0, else 1 below c1, else 2) is the count of
    # thresholds at or below u once c1 is raised to at least c0.
    np.maximum(c[0], c[1], out=c[1])
    return c


def _resolve(rows: np.ndarray, u: np.ndarray, base: np.ndarray, carry: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A block's states from ``carry`` on, and the ``rows`` thresholds each draw ``u`` used.

    Each step picks every trace's state with two ``take``s.
    """
    width, live = u.shape
    block, used = np.empty((width, live), dtype=np.int8), np.empty((2, width, live))
    idx, above = np.empty(live, dtype=np.intp), np.empty((2, live), dtype=bool)
    s = carry
    for row, c0, c1, u0, u1, out in zip(u, rows[0], rows[1], used[0], used[1], block):
        np.add(base, s, out=idx)
        c0.take(idx, out=u0, mode="clip")
        c1.take(idx, out=u1, mode="clip")
        np.greater_equal(row, u0, out=above[0])
        np.greater_equal(row, u1, out=above[1])
        s = out
        np.add(above[0].view(np.int8), above[1].view(np.int8), out=s)
    return block, used


def chain(model: ScenarioModel, over_range: str = "error") -> Sampler:
    """The sampler of a scenario's distance-dependent chain.

    The state vector and the three transition rows are compiled here, once,
    in both forms; an unknown ``over_range`` policy is rejected here too, not
    at the first draw. The table is NaN outside [d_min, d_max], so the scalar
    thresholds decide those steps: clamp warnings and errors come at the
    steps a trace reaches, as the scalar chain gives them.
    """
    d_min, d_max = model.d_min, model.d_max
    effective_distance(d_min, d_min, d_max, over_range)  # checks the policy only
    # Origins 0-2 index the transition rows; origin -1 is the initial draw.
    blocks = (*model.rows, model.state_probs)
    vectors = tuple(assembly.compile_vector(block) for block in blocks)
    arrays = tuple(assembly.compile_array(block) for block in blocks)

    def thresholds(origin: int, d: float) -> tuple[float, float]:
        if not d_min <= d <= d_max:
            d = effective_distance(d, d_min, d_max, over_range)
        p = vectors[origin](d)
        return p[0], p[0] + p[1]

    def table(origin: int, d: np.ndarray) -> np.ndarray:
        p = arrays[origin](np.where((d >= d_min) & (d <= d_max), d, np.nan))
        p[1] += p[0]
        return p[:2]

    return Sampler(thresholds, table, model.tag)
