"""Seeded generation of visibility-state sequences over a distance trace.

The first state is drawn from the state probabilities at the first distance.
Every later state is drawn from the transition-matrix row selected by the
previous state, evaluated at the distance of the step being generated. The
sampler consults nothing but (previous state, current distance), so the
output is a Markov chain by construction. :func:`chain` compiles its
scenario's state vector and rows once, for that sampler alone; there is no
process-wide cache.

Each trace is a strict one-second grid; the transition probabilities are
per-second quantities and traces at other spacings are rejected. Step ``k``
of a trace consumes draw ``k`` of its seed's counter-based splitmix64
stream, and batches give every trace its own sub-seed by index, so any step
of any trace can be drawn on its own.

:func:`chain` returns the chain's :class:`Sampler`, whose ``trace`` and
``batch`` methods are the two ways to generate. ``trace`` walks one trace
step by step. ``batch`` is the one place that chooses how: a run of enough
consecutive traces on one distance array, as ``[trace] * n`` gives, shares
one threshold table of the grid and is sampled one step at a time across
all of its traces; every other trace goes through ``trace``. Both paths
give the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import assembly
from .errors import BatchError, DomainError
from .params import ScenarioModel, effective_distance
from .rng import RngSeed, derive_subseed, draw_bits, uniform_block

# Threshold memo bound; beyond it thresholds are recomputed instead of cached.
# Integer-metre distances need only about 1,500 entries (500 distances x 3
# origins), while continuous distances never repeat, so a larger memo only
# holds misses that never hit (about 28 MB at 2^18 entries).
_ROW_CACHE_MAX = 1 << 12
# Uniforms per block; bounds the engine's memory on long traces.
_UNIFORM_BLOCK = 1 << 16
# Narrowest run of traces on one distance array that is sampled across the
# traces; narrower runs go trace by trace. A step across a narrow run costs
# about 9 us and one step of one trace about 0.5 us, so the two paths break
# even near 20 traces (measured on a 2-core Xeon at 200 and 500 steps, chain
# and UMi alike).
_SHARED_MIN = 24
# Steps per shared run; bounds its state matrix (one byte per step).
_SHARED_STEPS = 1 << 20
# Draws per block of a shared run (eight bytes each).
_SHARED_BLOCK = 1 << 14


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


@dataclass(frozen=True)
class DistanceTrace:
    """Tx-Rx distance per one-second time step."""

    times: np.ndarray
    distances: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.int64)
        d = np.asarray(self.distances, dtype=float)
        if t.ndim != 1 or d.ndim != 1 or t.size != d.size or t.size == 0:
            raise DomainError("trace needs matching, non-empty time and distance vectors")
        if t.size > 1 and np.any(np.diff(t) != 1):
            raise DomainError("time steps must increase by exactly one second")
        if np.any(~np.isfinite(d)) or np.any(d <= 0.0):
            raise DomainError("distances must be finite and positive")
        object.__setattr__(self, "times", _frozen(t))
        object.__setattr__(self, "distances", _frozen(d))

    @classmethod
    def from_distances(cls, distances: Sequence[float]) -> "DistanceTrace":
        d = np.asarray(distances, dtype=float)
        return cls(np.arange(d.size, dtype=np.int64), d)

    def __len__(self) -> int:
        return int(self.times.size)


@dataclass(frozen=True)
class StateTrace:
    """Distance trace plus one visibility state per step."""

    times: np.ndarray
    distances: np.ndarray
    states: np.ndarray
    scenario: str = ""
    seed: RngSeed = 0

    def __post_init__(self):
        s = np.asarray(self.states, dtype=np.int8)
        if s.shape != np.asarray(self.times).shape:
            raise DomainError("states must align with time steps")
        if s.size and s.view(np.uint8).max() > 2:  # a negative state reads as 128 or more
            raise DomainError("states must be LOS, NLOSv or NLOSb")
        object.__setattr__(self, "times", _frozen(np.asarray(self.times, dtype=np.int64)))
        object.__setattr__(self, "distances", _frozen(np.asarray(self.distances, dtype=float)))
        object.__setattr__(self, "states", _frozen(s))

    def __len__(self) -> int:
        return int(self.times.size)


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


class Sampler:
    """The generation engine: state traces from distance traces and seeds.

    ``thresholds(origin, d)`` gives the cumulative thresholds (c0, c1) of a
    draw from state ``origin`` at distance ``d``, origin -1 being the initial
    draw; a uniform u picks state 0 when u < c0, state 1 when u < c1 and
    state 2 otherwise. They are memoised per (origin, d) across all traces of
    the sampler, up to ``_ROW_CACHE_MAX`` entries. ``trace`` takes a trace's
    uniforms from :func:`uniform_block` in fixed-size blocks, which one scalar
    loop walks alongside the distances; ``batch`` may instead sample a run of
    traces on one grid together (:func:`_shared_states`). :func:`chain` and
    :func:`umi.baseline` build the two samplers of the package.
    """

    __slots__ = ("thresholds", "tag", "memo")

    def __init__(self, thresholds: Callable[[int, float], tuple[float, float]], tag: str):
        self.thresholds = thresholds
        self.tag = tag
        self.memo: dict[tuple[int, float], tuple[float, float]] = {}

    def _states(self, distances: list[float], seed: RngSeed) -> list[int]:
        memo, thresholds = self.memo, self.thresholds
        get = memo.get
        out: list[int] = []
        emit = out.append
        s = -1
        for start in range(0, len(distances), _UNIFORM_BLOCK):
            ds = distances[start:start + _UNIFORM_BLOCK]
            for u, d in zip(uniform_block(seed, start, len(ds)).tolist(), ds):
                c = get((s, d))
                if c is None:
                    c = thresholds(s, d)
                    if len(memo) < _ROW_CACHE_MAX:
                        memo[(s, d)] = c
                c0, c1 = c
                s = 0 if u < c0 else 1 if u < c1 else 2
                emit(s)
        return out

    def trace(self, trace: DistanceTrace, seed: RngSeed) -> StateTrace:
        """One state trace; step ``k`` takes draw ``k`` of ``seed``'s stream."""
        states = np.array(self._states(trace.distances.tolist(), seed), dtype=np.int8)
        states.setflags(write=False)
        return StateTrace(trace.times, trace.distances, states, scenario=self.tag, seed=seed)

    def _table(self, distances: list[float]) -> np.ndarray:
        """Integer thresholds of one distance grid, shape ``(T, 3, 2)``.

        Row ``k`` holds the thresholds of each origin at step ``k``, taken
        through the memo; at step 0 every origin row holds the initial draw.
        A uniform ``u = m / 2**53`` is below a threshold ``c`` exactly when
        ``m < ceil(c * 2**53)``, and ``c`` is first clipped into [0, 1]
        (``fmax`` takes NaN to 0), which changes no comparison with a ``u``
        in [0, 1).
        """
        memo, thresholds = self.memo, self.thresholds

        def cached(s: int, d: float) -> tuple[float, float]:
            c = memo.get((s, d))
            if c is None:
                c = thresholds(s, d)
                if len(memo) < _ROW_CACHE_MAX:
                    memo[(s, d)] = c
            return c

        c = np.empty((len(distances), 3, 2))
        c[0] = cached(-1, distances[0])
        c[1:] = np.array([cached(s, d) for d in distances[1:] for s in (0, 1, 2)]).reshape(-1, 3, 2)
        k = np.ceil(np.fmin(np.fmax(c, 0.0), 1.0) * 2.0**53).astype(np.uint64)
        # The scalar pick (0 below c0, else 1 below c1, else 2) is then the
        # count of thresholds at or below u once c1 is raised to at least c0.
        np.maximum(k[..., 0], k[..., 1], out=k[..., 1])
        return k

    def batch(self, traces: Iterable[DistanceTrace], seed: RngSeed) -> Iterator[StateTrace]:
        """Lazily generate one state trace per input trace.

        Trace ``i`` uses sub-seed ``derive_subseed(seed, i)``, so each output
        depends only on its own input and index. Every trace is attempted; a
        trace that fails is skipped, and after the last one the failures are
        raised together as one :class:`BatchError` with their indices.

        This is the one place that picks the path: a run of at least
        ``_SHARED_MIN`` consecutive traces on one distance array
        (:func:`_shared_runs`) is sampled across the traces by
        :func:`_shared_states`; any other trace goes through :meth:`trace`.
        Both give the same states.
        """
        failures: list[tuple[int, Exception]] = []
        end = 0
        for run in _shared_runs(traces):
            start, end = end, end + len(run)
            seeds = [derive_subseed(seed, i) for i in range(start, end)]
            if len(run) < _SHARED_MIN:
                for i, trace, sub in zip(range(start, end), run, seeds):
                    try:
                        out = self.trace(trace, sub)
                    except DomainError as exc:
                        failures.append((i, exc))
                        continue
                    yield out
                continue
            # Every origin raises the same error at a distance, so a failing
            # table fails each trace of the run as its own draws would.
            try:
                table = self._table(run[0].distances.tolist())
            except DomainError as exc:
                failures.extend((i, exc) for i in range(start, end))
                continue
            states = _shared_states(table, np.array(seeds, dtype=np.uint64))
            for trace, sub, row in zip(run, seeds, states):
                yield StateTrace(trace.times, trace.distances, row, scenario=self.tag, seed=sub)
        if failures:
            raise BatchError(failures)


def _shared_runs(traces: Iterable[DistanceTrace]) -> Iterator[list[DistanceTrace]]:
    """The traces, read once and in order, in runs of consecutive traces on one distance array.

    Traces share a distance array when their ``distances`` is the same
    object, as in ``[trace] * n``. A run holds at most ``_SHARED_STEPS``
    steps, but always at least one trace.
    """
    run: list[DistanceTrace] = []
    for trace in traces:
        if run and (trace.distances is not run[0].distances or (len(run) + 1) * len(trace) > _SHARED_STEPS):
            yield run
            run = []
        run.append(trace)
    if run:
        yield run


def _shared_states(table: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Read-only ``(n, T)`` states of ``n`` traces on one grid, from its :meth:`Sampler._table`.

    The draws come a block of steps at a time for all traces; each step then
    picks every trace's state from its previous state's thresholds.
    """
    n_steps, n = table.shape[0], seeds.size
    c0, c1 = table[..., 0], table[..., 1]
    states = np.empty((n, n_steps), dtype=np.int8)
    width = max(1, _SHARED_BLOCK // n)
    block = np.empty((width, n), dtype=np.int8)  # the block's states, step by step
    s = np.zeros(n, dtype=np.int8)  # any origin row serves step 0
    for start in range(0, n_steps, width):
        bits = draw_bits(seeds, start, min(width, n_steps - start))
        for m, k0, k1, out in zip(bits, c0[start:], c1[start:], block):
            above0 = m >= k0.take(s)
            above1 = m >= k1.take(s)
            s = out
            np.add(above0.view(np.int8), above1.view(np.int8), out=s)
        states[:, start:start + len(bits)] = block[:len(bits)].T
    states.setflags(write=False)
    return states


def chain(model: ScenarioModel, over_range: str = "error") -> Sampler:
    """The sampler of a scenario's distance-dependent chain.

    The state vector and the three transition rows are compiled here, once;
    an unknown ``over_range`` policy is rejected here too, not at the first
    draw. Each step then takes one range test and one evaluator call.
    """
    d_min, d_max = model.d_min, model.d_max
    effective_distance(d_min, d_min, d_max, over_range)  # checks the policy only
    # Origins 0-2 index the transition rows; origin -1 is the initial draw.
    vectors = tuple(assembly.compile_vector(block) for block in (*model.rows, model.state_probs))

    # The thresholds come from the scalar assembly only: numpy's exp can
    # differ from math.exp in the last bit, which would change the stream.
    def thresholds(origin: int, d: float) -> tuple[float, float]:
        if not d_min <= d <= d_max:
            d = effective_distance(d, d_min, d_max, over_range)
        p = vectors[origin](d)
        return p[0], p[0] + p[1]

    return Sampler(thresholds, model.tag)
