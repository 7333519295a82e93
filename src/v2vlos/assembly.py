"""Assembly of valid probability vectors and row-stochastic matrices.

Two curves per vector are evaluated explicitly; the third entry is the
complement to one. Curve-fit imperfection can drive the complement negative
at extreme distances, in which case a deterministic repair is applied: the
smallest of the three values is forced to zero, the best-supported (largest)
explicit value is kept, and the remaining one is set to one minus the kept
value. A transition row is the probability vector of the next state, so
:func:`compile_vector` turns the state vector or any row (each a
:class:`~v2vlos.params.StateProbModel`) into one flat evaluator over the
curves' ``raw`` methods, and :func:`compile_array` into its numpy twin over
their ``values``. Each sampler compiles its scenario once
(:func:`v2vlos.markov.chain`); :func:`state_probabilities` and
:func:`transition_matrix` apply the distance policy and compile only what
they evaluate, so nothing is cached. All functions here are pure and safe
to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError
from .params import ScenarioModel, StateProbModel, effective_distance
from .states import CANONICAL_STATES, LosState

SUM_TOLERANCE = 1e-9
# A repair that keeps one of two explicit values closer than this is left to
# the scalar: numpy's last bits could flip which of the two is kept.
_TIE = 2.0**-40


@dataclass(frozen=True)
class StateProbVector:
    """Probability of each visibility state at one distance."""

    los: float
    nlosv: float
    nlosb: float

    def __post_init__(self):
        t = (self.los, self.nlosv, self.nlosb)
        if not all(-SUM_TOLERANCE <= p <= 1.0 + SUM_TOLERANCE for p in t):  # NaN fails too
            raise ValueError(f"probabilities outside [0, 1]: {t}")
        if abs(sum(t) - 1.0) > SUM_TOLERANCE:
            raise ValueError(f"probabilities sum to {sum(t)!r}, expected 1")

    def __getitem__(self, state: LosState) -> float:
        return self.as_tuple()[int(state)]

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.los, self.nlosv, self.nlosb)

    def as_dict(self) -> dict[LosState, float]:
        return {s: self[s] for s in CANONICAL_STATES}


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Row-stochastic 3x3 one-second transition matrix assembled at distance ``d``."""

    m: np.ndarray
    d: float

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        if m.shape != (3, 3):
            raise ValueError(f"expected 3x3 matrix, got shape {m.shape}")
        if not np.all((m >= -SUM_TOLERANCE) & (m <= 1.0 + SUM_TOLERANCE)):  # NaN fails too
            raise ValueError("matrix entries outside [0, 1]")
        if np.any(np.abs(m.sum(axis=1) - 1.0) > SUM_TOLERANCE):
            raise ValueError(f"rows must sum to 1, got {m.sum(axis=1)}")
        m.setflags(write=False)
        object.__setattr__(self, "m", m)


def repair_vector(values: tuple[float, float, float]) -> tuple[float, float, float]:
    """Return a valid probability triple, repairing an invalid one.

    Already-valid input is returned unchanged. Otherwise the smallest entry
    (earliest state on ties) is zeroed, the largest remaining entry (earlier
    state on ties) is kept, and the other is set to one minus the kept value.
    """
    if min(values) >= 0.0 and abs(sum(values) - 1.0) <= SUM_TOLERANCE:
        return values
    i_small = min(range(3), key=lambda i: (values[i], i))
    rest = [i for i in range(3) if i != i_small]
    i_keep = max(rest, key=lambda i: (values[i], -i))
    i_other = rest[1] if i_keep == rest[0] else rest[0]
    out = [0.0, 0.0, 0.0]
    out[i_keep] = min(max(values[i_keep], 0.0), 1.0)
    out[i_other] = 1.0 - out[i_keep]
    return (out[0], out[1], out[2])


def repair_array(v: np.ndarray) -> np.ndarray:
    """:func:`repair_vector` on every column of a ``(3, n)`` array of finite values, in place."""
    bad = ~((v.min(axis=0) >= 0.0) & (np.abs(v[0] + v[1] + v[2] - 1.0) <= SUM_TOLERANCE))
    if bad.any():
        w, cols = v[:, bad], np.arange(np.count_nonzero(bad))
        small = w.argmin(axis=0)  # earliest state on ties
        lo, hi = np.where(small == 0, 1, 0), np.where(small == 2, 1, 2)  # the other two, in state order
        keep = np.where(w[hi, cols] > w[lo, cols], hi, lo)  # the larger, the earlier on ties
        kept = np.clip(w[keep, cols], 0.0, 1.0)
        w[:] = 0.0
        w[keep, cols], w[lo + hi - keep, cols] = kept, 1.0 - kept
        v[:, bad] = w
    return v


_Vector = Callable[[float], tuple[float, float, float]]


def compile_vector(block: StateProbModel) -> _Vector:
    """Evaluator of one probability triple at an in-domain distance.

    Both explicit curves are clamped into [0, 1], the complement state gets
    one minus their sum, and :func:`repair_vector` runs only when that triple
    is invalid. The clamped values are never negative, so only the complement
    needs the sign test; ``x + y + z`` is the sum ``repair_vector`` takes.
    """
    (i, f), (j, g) = sorted((int(state), spec.raw) for state, spec in block.explicit.items())
    k = int(block.complement)

    def vector(d: float) -> tuple[float, float, float]:
        x = f(d)
        if x < 0.0:
            x = 0.0
        elif x > 1.0:
            x = 1.0
        y = g(d)
        if y < 0.0:
            y = 0.0
        elif y > 1.0:
            y = 1.0
        z = 1.0 - (x + y)
        v = (x, y, z) if k == 2 else (x, z, y) if k == 1 else (z, x, y)
        if z >= 0.0 and abs(v[0] + v[1] + v[2] - 1.0) <= SUM_TOLERANCE:
            return v
        return repair_vector(v)

    return vector


def compile_array(block: StateProbModel) -> Callable[[np.ndarray], np.ndarray]:
    """Array twin of :func:`compile_vector`: the triples at distances ``d``, shape ``(3, n)``.

    Where a curve value is NaN, or the repair keeps one of two explicit
    values within ``_TIE`` of each other (bar two values both clamped from
    well above one), the whole column is NaN, left to the scalar.
    """
    (i, f), (j, g) = sorted((int(state), spec.values) for state, spec in block.explicit.items())
    k = int(block.complement)

    def vector(d: np.ndarray) -> np.ndarray:
        v = np.empty((3, d.size))
        with np.errstate(all="ignore"):  # +-inf clamps as in the scalar; NaN is flagged below
            x, y = f(d), g(d)
            np.minimum(np.maximum(x, 0.0), 1.0, out=v[i])
            np.minimum(np.maximum(y, 0.0), 1.0, out=v[j])
            np.subtract(1.0, v[i] + v[j], out=v[k])
            tie = np.flatnonzero(v[k] < 0.0)  # the columns the repair changes
            tie = tie[(np.abs(v[i, tie] - v[j, tie]) < _TIE) & ((x[tie] < 1.0 + _TIE) | (y[tie] < 1.0 + _TIE))]
            nan = np.isnan(v[k])
            repair_array(v)
        v[:, nan] = np.nan
        v[:, tie] = np.nan
        return v

    return vector


def state_probabilities(model: ScenarioModel, d: float, over_range: str = "error") -> StateProbVector:
    """Probability of LOS/NLOSv/NLOSb at distance ``d`` for one scenario."""
    d = effective_distance(d, model.d_min, model.d_max, over_range)
    return StateProbVector(*compile_vector(model.state_probs)(d))


def transition_matrix(model: ScenarioModel, d: float, over_range: str = "error") -> TransitionMatrix:
    """Row-stochastic transition matrix assembled at exact distance ``d``."""
    d = effective_distance(d, model.d_min, model.d_max, over_range)
    return TransitionMatrix(np.array([compile_vector(row)(d) for row in model.rows], dtype=float), d=d)


@dataclass(frozen=True)
class StationaryResult:
    """Equilibrium distribution of a transition matrix (diagnostic)."""

    probs: StateProbVector
    unique: bool
    residual: float


def stationary_distribution(tm: TransitionMatrix) -> StationaryResult:
    """Left eigenvector for eigenvalue one: the solution of pi (M - I) = 0, sum(pi) = 1.

    ``unique`` is False when the chain is reducible (several eigenvalues at
    one), in which case the returned vector is one of many equilibria.
    Periodic chains (an eigenvalue on the unit circle other than one) have no
    limiting distribution and raise :class:`ConvergenceError`.
    """
    m = tm.m
    eigvals = np.linalg.eigvals(m)
    at_one = np.abs(eigvals - 1.0) < 1e-8
    if np.any(~at_one & (np.abs(np.abs(eigvals) - 1.0) < 1e-8)):
        raise ConvergenceError(f"periodic chain: eigenvalues {eigvals} lie on the unit circle")
    system = np.vstack([(m - np.eye(3)).T, np.ones(3)])
    pi = np.linalg.lstsq(system, np.array([0.0, 0.0, 0.0, 1.0]), rcond=None)[0]
    residual = float(np.max(np.abs(pi @ m - pi)))
    probs = StateProbVector(float(pi[0]), float(pi[1]), float(pi[2]))
    return StationaryResult(probs, int(np.sum(at_one)) == 1, residual)
