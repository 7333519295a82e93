"""Assembly of valid probability vectors and row-stochastic matrices.

Two curves per vector are evaluated explicitly; the third entry is the
complement to one. Curve-fit imperfection can drive the complement negative
at extreme distances, in which case a deterministic repair is applied: the
smallest of the three values is forced to zero, the best-supported (largest)
explicit value is kept, and the remaining one is set to one minus the kept
value. Each scenario's state vector and transition rows are compiled once
into flat evaluators over the curves' ``raw`` methods. All functions here
are pure and safe to call concurrently.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .curves import CurveSpec
from .errors import ConvergenceError
from .params import OVER_RANGE_POLICIES, ScenarioModel, effective_distance
from .states import CANONICAL_STATES, LosState

SUM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class StateProbVector:
    """Probability of each visibility state at one distance."""

    los: float
    nlosv: float
    nlosb: float

    def __post_init__(self):
        t = (self.los, self.nlosv, self.nlosb)
        if any(p < -SUM_TOLERANCE or p > 1.0 + SUM_TOLERANCE for p in t):
            raise ValueError(f"probabilities outside [0, 1]: {t}")
        if abs(sum(t) - 1.0) > SUM_TOLERANCE:
            raise ValueError(f"probabilities sum to {sum(t)!r}, expected 1")

    def __getitem__(self, state: LosState) -> float:
        return self.as_tuple()[int(state)]

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.los, self.nlosv, self.nlosb)

    def as_array(self) -> np.ndarray:
        return np.array(self.as_tuple(), dtype=float)

    def as_dict(self) -> dict[LosState, float]:
        return {s: self[s] for s in CANONICAL_STATES}


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic 3x3 one-second transition matrix assembled at distance ``d``."""

    m: np.ndarray
    d: float

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        if m.shape != (3, 3):
            raise ValueError(f"expected 3x3 matrix, got shape {m.shape}")
        if np.any(m < -SUM_TOLERANCE) or np.any(m > 1.0 + SUM_TOLERANCE):
            raise ValueError("matrix entries outside [0, 1]")
        if np.any(np.abs(m.sum(axis=1) - 1.0) > SUM_TOLERANCE):
            raise ValueError(f"rows must sum to 1, got {m.sum(axis=1)}")
        m.setflags(write=False)
        object.__setattr__(self, "m", m)

    def row(self, origin: LosState) -> StateProbVector:
        r = self.m[int(origin)]
        return StateProbVector(float(r[0]), float(r[1]), float(r[2]))


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


_Vector = Callable[[float], tuple[float, float, float]]


def _compile_vector(explicit: Mapping[LosState, CurveSpec], complement: LosState) -> _Vector:
    """Evaluator of one probability triple at an in-domain distance.

    Both explicit curves are clamped into [0, 1], the complement state gets
    one minus their sum, and :func:`repair_vector` runs only when that triple
    is invalid. The clamped values are never negative, so only the complement
    needs the sign test; ``x + y + z`` is the sum ``repair_vector`` takes.
    """
    (i, f), (j, g) = sorted((int(state), spec.raw) for state, spec in explicit.items())
    k = int(complement)

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


# Per live model: (d_min, d_max, state vector, rows by origin), built on first
# use. Kept here rather than on the model, so that models stay picklable.
_COMPILED: dict[int, tuple[float, float, _Vector, tuple[_Vector, _Vector, _Vector]]] = {}


def _compiled(model: ScenarioModel) -> tuple[float, float, _Vector, tuple[_Vector, _Vector, _Vector]]:
    key = id(model)
    c = _COMPILED.get(key)
    if c is None:
        sp = model.state_probs
        rows = tuple(_compile_vector(r.explicit, r.complement) for r in model.rows)
        c = _COMPILED[key] = (model.d_min, model.d_max, _compile_vector(sp.explicit, sp.complement), rows)
        # The entry leaves with its model, before the id can be reused.
        weakref.finalize(model, _COMPILED.pop, key, None)
    return c


# Each public function below takes a plain in-range float as it is and sends
# everything else (ints, numpy scalars, NaN, clamping, bad policies) through
# effective_distance.


def state_probabilities(model: ScenarioModel, d: float, over_range: str = "error") -> StateProbVector:
    """Probability of LOS/NLOSv/NLOSb at distance ``d`` for one scenario."""
    d_min, d_max, vector, _ = _compiled(model)
    if not (type(d) is float and d_min <= d <= d_max and over_range in OVER_RANGE_POLICIES):
        d = effective_distance(d, d_min, d_max, over_range)
    return StateProbVector(*vector(d))


def transition_row(model: ScenarioModel, origin: int, d: float, over_range: str = "error") -> tuple[float, float, float]:
    """One outgoing-probability row, in canonical state order; ``origin`` is a state or its int."""
    d_min, d_max, _, rows = _compiled(model)
    if not (type(d) is float and d_min <= d <= d_max and over_range in OVER_RANGE_POLICIES):
        d = effective_distance(d, d_min, d_max, over_range)
    return rows[origin](d)


def transition_matrix(model: ScenarioModel, d: float, over_range: str = "error") -> TransitionMatrix:
    """Row-stochastic transition matrix assembled at exact distance ``d``."""
    d_min, d_max, _, rows = _compiled(model)
    if not (type(d) is float and d_min <= d <= d_max and over_range in OVER_RANGE_POLICIES):
        d = effective_distance(d, d_min, d_max, over_range)
    return TransitionMatrix(np.array([row(d) for row in rows], dtype=float), d=d)


@dataclass(frozen=True)
class StationaryResult:
    """Equilibrium distribution of a transition matrix (diagnostic)."""

    probs: StateProbVector
    unique: bool
    iterations: int
    residual: float


def stationary_distribution(
    tm: TransitionMatrix,
    tol: float = 1e-10,
    max_iter: int = 100_000,
) -> StationaryResult:
    """Left eigenvector for eigenvalue one, found by power iteration.

    ``unique`` is False when the chain is reducible (several eigenvalues at
    one), in which case the returned vector is one of many equilibria.
    Periodic chains do not converge and raise :class:`ConvergenceError`.
    """
    m = np.asarray(tm.m, dtype=float)
    # Asymmetric start: the uniform vector is a fixed point of every doubly
    # stochastic matrix and would mask periodic chains.
    pi = np.array([0.5, 0.3, 0.2])
    for it in range(1, max_iter + 1):
        nxt = pi @ m
        nxt /= nxt.sum()
        residual = float(np.max(np.abs(nxt - pi)))
        pi = nxt
        if residual < tol:
            eigvals = np.linalg.eigvals(m)
            unique = int(np.sum(np.abs(eigvals - 1.0) < 1e-8)) == 1
            pi = pi / pi.sum()
            probs = StateProbVector(float(pi[0]), float(pi[1]), float(pi[2]))
            return StationaryResult(probs, unique, it, residual)
    raise ConvergenceError(f"power iteration did not reach residual {tol} in {max_iter} iterations")
