"""Seeded generation of visibility-state sequences over a distance trace.

The first state is drawn from the state probabilities at the first distance.
Every later state is drawn from the transition-matrix row selected by the
previous state, evaluated at the distance of the step being generated. The
sampler consults nothing but (previous state, current distance), so the
output is a Markov chain by construction. :func:`chain` compiles its
scenario's state vector and rows once, for that sampler alone. A sampler
holds no mutable state: nothing it computes outlives the call that did so.

Each trace is a strict one-second grid, a :class:`DistanceTrace`, checked
once and held by every :class:`StateTrace` on it; the transition
probabilities are per-second quantities and other spacings are rejected.
A grid is its object: both trace types compare and hash by identity, so
traces share a grid only when they hold the same :class:`DistanceTrace`.
Step ``k`` of a trace consumes draw ``k`` of its seed's counter-based
splitmix64 stream, and batches give every trace its own sub-seed by index,
so any step of any trace can be drawn on its own.

:func:`chain` returns the chain's :class:`Sampler`, whose ``trace`` and
``batch`` methods are the two ways to generate. ``trace`` walks one trace
step by step. ``batch`` is the one place that chooses how: a run of enough
consecutive traces on one grid (one :class:`DistanceTrace` object, as
``[trace] * n`` gives) shares one threshold table of the grid and is sampled
one step at a time across all of its traces; every other trace goes through
``trace``. Both paths give the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby, islice
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import assembly
from .errors import BatchError, DomainError
from .params import ScenarioModel, effective_distance
from .rng import RngSeed, derive_subseed, draw_bits, uniform_block

# Uniforms per block; bounds the engine's memory on long traces.
_UNIFORM_BLOCK = 1 << 16
# Narrowest run of traces on one grid that is sampled across the
# traces; narrower runs go trace by trace. A step across a narrow run costs
# about 11 us, its table included, and one step of one trace about 1 us, so
# the two paths break even near 10 traces for the chain and 11-14 for UMi
# (fitted on a 2-core Xeon at 500 and 5000 steps of an integer grid).
_SHARED_MIN = 12
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


class Sampler:
    """The generation engine: state traces from distance traces and seeds.

    ``thresholds(origin, d)`` gives the cumulative thresholds (c0, c1) of a
    draw from state ``origin`` at distance ``d``, origin -1 being the initial
    draw; a uniform u picks state 0 when u < c0, state 1 when u < c1 and
    state 2 otherwise. ``trace`` calls it once per step, taking the uniforms
    from :func:`uniform_block` in fixed-size blocks, which one scalar loop
    walks alongside the distances; ``batch`` may instead sample a run of
    traces on one grid together from one table of the grid
    (:func:`_shared_states`). No result is kept, so a sampler holds no
    mutable state. :func:`chain` and :func:`umi.baseline` build the two
    samplers of the package.
    """

    __slots__ = ("thresholds", "tag")

    def __init__(self, thresholds: Callable[[int, float], tuple[float, float]], tag: str):
        self.thresholds = thresholds
        self.tag = tag

    def trace(self, trace: DistanceTrace, seed: RngSeed) -> StateTrace:
        """One state trace on ``trace`` itself; step ``k`` takes draw ``k`` of ``seed``'s stream."""
        thresholds, distances = self.thresholds, trace.distances.tolist()
        out: list[int] = []
        emit = out.append
        s = -1
        for start in range(0, len(distances), _UNIFORM_BLOCK):
            ds = distances[start:start + _UNIFORM_BLOCK]
            for u, d in zip(uniform_block(seed, start, len(ds)).tolist(), ds):
                c0, c1 = thresholds(s, d)
                s = 0 if u < c0 else 1 if u < c1 else 2
                emit(s)
        states = np.array(out, dtype=np.int8)
        states.setflags(write=False)
        return StateTrace(trace, states, scenario=self.tag, seed=seed)

    def _table(self, distances: list[float]) -> np.ndarray:
        """Integer thresholds of one distance grid, shape ``(T, 3, 2)``.

        Row ``k`` holds the thresholds of each origin at step ``k``; at step 0
        every origin row holds the initial draw. A uniform ``u = m / 2**53``
        is below a threshold ``c`` exactly when ``m < ceil(c * 2**53)``, and
        ``c`` is first clipped into [0, 1] (``fmax`` takes NaN to 0), which
        changes no comparison with a ``u`` in [0, 1).
        """
        thresholds = self.thresholds
        c = np.empty((len(distances), 3, 2))
        c[0] = thresholds(-1, distances[0])
        c[1:] = np.array([thresholds(s, d) for d in distances[1:] for s in (0, 1, 2)]).reshape(-1, 3, 2)
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

        This is the one place that picks the path. Consecutive inputs that
        are one grid object form a run (``groupby``), cut at ``_SHARED_STEPS``
        steps but never below one trace. A run of at least ``_SHARED_MIN``
        traces is sampled across the traces by :func:`_shared_states`; any
        other trace goes through :meth:`trace`. Both give the same states.
        """
        failures: list[tuple[int, Exception]] = []
        end = 0
        for grid, group in groupby(traces):
            cap = max(1, _SHARED_STEPS // len(grid))
            while run := list(islice(group, cap)):
                start, end = end, end + len(run)
                seeds = [derive_subseed(seed, i) for i in range(start, end)]
                if len(run) < _SHARED_MIN:
                    for i, sub in enumerate(seeds, start):
                        try:
                            out = self.trace(grid, sub)
                        except DomainError as exc:
                            failures.append((i, exc))
                            continue
                        yield out
                    continue
                # Every origin raises the same error at a distance, so a failing
                # table fails each trace of the run as its own draws would.
                try:
                    table = self._table(grid.distances.tolist())
                except DomainError as exc:
                    failures.extend((i, exc) for i in range(start, end))
                    continue
                for sub, row in zip(seeds, _shared_states(table, np.array(seeds, dtype=np.uint64))):
                    yield StateTrace(grid, row, scenario=self.tag, seed=sub)
        if failures:
            raise BatchError(failures)


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
