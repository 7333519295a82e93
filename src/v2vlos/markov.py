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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import assembly
from .errors import BatchError, DomainError
from .params import ScenarioModel
from .rng import RngSeed, SplitMix64, derive_subseed, uniform_block
from .states import LosState

# Threshold memo bound; beyond it thresholds are recomputed instead of cached.
# Integer-metre distances need only about 1,500 entries (500 distances x 3
# origins), while continuous distances never repeat, so a larger memo only
# holds misses that never hit (about 28 MB at 2^18 entries).
_ROW_CACHE_MAX = 1 << 12
# Uniforms per block; bounds the engine's memory on long traces.
_UNIFORM_BLOCK = 1 << 16


def _as_readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
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
        object.__setattr__(self, "times", _as_readonly(t))
        object.__setattr__(self, "distances", _as_readonly(d))

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
        object.__setattr__(self, "times", _as_readonly(np.asarray(self.times, dtype=np.int64)))
        object.__setattr__(self, "distances", _as_readonly(np.asarray(self.distances, dtype=float)))
        object.__setattr__(self, "states", _as_readonly(s))

    def __len__(self) -> int:
        return int(self.times.size)

    def state(self, i: int) -> LosState:
        return LosState(int(self.states[i]))

    def occupancy(self) -> dict[LosState, float]:
        n = max(len(self), 1)
        return {s: float(np.count_nonzero(self.states == int(s))) / n for s in LosState}


def sample_initial_state(probs: assembly.StateProbVector, rng: SplitMix64) -> LosState:
    """Inverse-CDF draw over (LOS, NLOSv, NLOSb)."""
    u = rng.next_float()
    if u < probs.los:
        return LosState.LOS
    if u < probs.los + probs.nlosv:
        return LosState.NLOSv
    return LosState.NLOSb


class _Sampler:
    """Generation engine shared by one batch of traces.

    ``thresholds(origin, d)`` gives the cumulative thresholds (c0, c1) of a
    draw from state ``origin`` at distance ``d``, origin -1 being the initial
    draw; a uniform u picks state 0 when u < c0, state 1 when u < c1 and
    state 2 otherwise. They are memoised per (origin, d) across the batch, up
    to ``_ROW_CACHE_MAX`` entries. Each trace's uniforms come from
    :func:`uniform_block` in fixed-size blocks, which one scalar loop walks
    alongside the distances.
    """

    __slots__ = ("thresholds", "tag", "memo")

    def __init__(self, thresholds: Callable[[int, float], tuple[float, float]], tag: str):
        self.thresholds = thresholds
        self.tag = tag
        self.memo: dict[tuple[int, float], tuple[float, float]] = {}

    def states(self, distances: list[float], seed: RngSeed) -> list[int]:
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
        states = np.array(self.states(trace.distances.tolist(), seed), dtype=np.int8)
        return StateTrace(trace.times, trace.distances, states, scenario=self.tag, seed=seed)

    def batch(self, traces: Iterable[DistanceTrace], seed: RngSeed) -> Iterator[StateTrace]:
        """Trace ``i`` uses sub-seed ``derive_subseed(seed, i)``."""
        for i, trace in enumerate(traces):
            yield self.trace(trace, derive_subseed(seed, i))

    def collect(self, traces: Sequence[DistanceTrace], seed: RngSeed) -> list[StateTrace]:
        """Every trace is attempted; failures are raised together as a BatchError."""
        out: list[StateTrace] = []
        failures: list[tuple[int, Exception]] = []
        for i, trace in enumerate(traces):
            try:
                out.append(self.trace(trace, derive_subseed(seed, i)))
            except DomainError as exc:
                failures.append((i, exc))
        if failures:
            raise BatchError(failures)
        return out


def _chain_sampler(model: ScenarioModel, over_range: str) -> _Sampler:
    # The thresholds come from the scalar assembly only: numpy's exp can
    # differ from math.exp in the last bit, which would change the stream.
    def thresholds(origin: int, d: float) -> tuple[float, float]:
        if origin < 0:
            p = assembly.state_probabilities(model, d, over_range=over_range).as_tuple()
        else:
            p = assembly.transition_row(model, origin, d, over_range=over_range)
        return p[0], p[0] + p[1]

    return _Sampler(thresholds, model.tag)


def generate_states(
    model: ScenarioModel,
    trace: DistanceTrace,
    seed: RngSeed,
    over_range: str = "error",
) -> StateTrace:
    """Generate one state sequence. Equal inputs and seed give equal output."""
    return _chain_sampler(model, over_range).trace(trace, seed)


def iter_generate_batch(
    model: ScenarioModel,
    traces: Iterable[DistanceTrace],
    seed: RngSeed,
    over_range: str = "error",
) -> Iterator[StateTrace]:
    """Lazily generate one state trace per input trace.

    Trace ``i`` uses sub-seed ``derive_subseed(seed, i)``, so each output
    depends only on its own input and index. Raises on the first failure;
    use :func:`generate_batch` for aggregated error reporting.
    """
    return _chain_sampler(model, over_range).batch(traces, seed)


def generate_batch(
    model: ScenarioModel,
    traces: Sequence[DistanceTrace],
    seed: RngSeed,
    over_range: str = "error",
) -> list[StateTrace]:
    """Generate state traces for a whole batch.

    All traces are attempted; failures are collected and raised together as
    a :class:`BatchError` carrying (index, error) pairs.
    """
    return _chain_sampler(model, over_range).collect(traces, seed)
