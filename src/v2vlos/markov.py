"""Seeded generation of visibility-state sequences over a distance trace.

The first state is drawn from the state probabilities at the first distance.
Every later state is drawn from the transition-matrix row selected by the
previous state, with the matrix assembled at the distance of the step being
generated. The sampler consults nothing but (previous state, current
distance), so the output is a Markov chain by construction.

Each trace is a strict one-second grid; the transition probabilities are
per-second quantities and traces at other spacings are rejected. Step ``k``
of a trace consumes draw ``k`` of its seed's counter-based splitmix64
stream. A single generation is inherently sequential; batches give every
trace its own sub-seed by index, so traces may be processed in any order or
in parallel without changing the result.

:func:`chain` returns the chain's :class:`Sampler`, whose ``trace`` and
``batch`` methods are the two ways to generate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import assembly
from .errors import BatchError, DomainError
from .params import ScenarioModel
from .rng import RngSeed, derive_subseed, uniform_block
from .states import LosState

# Threshold memo bound; beyond it thresholds are recomputed instead of cached.
# Integer-metre distances need only about 1,500 entries (500 distances x 3
# origins), while continuous distances never repeat, so a larger memo only
# holds misses that never hit (about 28 MB at 2^18 entries).
_ROW_CACHE_MAX = 1 << 12
# Uniforms per block; bounds the engine's memory on long traces.
_UNIFORM_BLOCK = 1 << 16


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
    def from_distances(cls, distances: Sequence[float], t0: int = 0) -> "DistanceTrace":
        d = np.asarray(distances, dtype=float)
        return cls(np.arange(t0, t0 + d.size, dtype=np.int64), d)

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
        if s.size and (s.min() < 0 or s.max() > 2):
            raise DomainError("states must be LOS, NLOSv or NLOSb")
        object.__setattr__(self, "times", _frozen(np.asarray(self.times, dtype=np.int64)))
        object.__setattr__(self, "distances", _frozen(np.asarray(self.distances, dtype=float)))
        object.__setattr__(self, "states", _frozen(s))

    def __len__(self) -> int:
        return int(self.times.size)

    def state(self, i: int) -> LosState:
        return LosState(int(self.states[i]))


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
    the sampler, up to ``_ROW_CACHE_MAX`` entries. Each trace's uniforms come
    from :func:`uniform_block` in fixed-size blocks, which one scalar loop
    walks alongside the distances. :func:`chain` and :func:`umi.baseline`
    build the two samplers of the package.
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

    def batch(self, traces: Iterable[DistanceTrace], seed: RngSeed) -> Iterator[StateTrace]:
        """Lazily generate one state trace per input trace.

        Trace ``i`` uses sub-seed ``derive_subseed(seed, i)``, so each output
        depends only on its own input and index. Every trace is attempted; a
        trace that fails is skipped, and after the last one the failures are
        raised together as one :class:`BatchError` with their indices.
        """
        failures: list[tuple[int, Exception]] = []
        for i, trace in enumerate(traces):
            try:
                out = self.trace(trace, derive_subseed(seed, i))
            except DomainError as exc:
                failures.append((i, exc))
                continue
            yield out
        if failures:
            raise BatchError(failures)


def chain(model: ScenarioModel, over_range: str = "error") -> Sampler:
    """The sampler of a scenario's distance-dependent chain."""

    # The thresholds come from the scalar assembly only: numpy's exp can
    # differ from math.exp in the last bit, which would change the stream.
    def thresholds(origin: int, d: float) -> tuple[float, float]:
        if origin < 0:
            p = assembly.state_probabilities(model, d, over_range=over_range).as_tuple()
        else:
            p = assembly.transition_row(model, origin, d, over_range=over_range)
        return p[0], p[0] + p[1]

    return Sampler(thresholds, model.tag)
