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
:func:`transition_matrix` compile only what they evaluate, so nothing is
cached, and keep to the [1, 500] m domain: below 1 m a warning and a
clamp, above 500 m a :class:`~v2vlos.errors.DomainError`. They return
read-only float64 arrays in state order, shaped ``(3,)`` and ``(3, 3)`` (rows
by origin state), the layout of one bin of :func:`~v2vlos.estimation.frequencies`
of :func:`~v2vlos.estimation.accumulate`'s counts; index them with
:class:`~v2vlos.states.LosState`. :func:`stationary_distribution` is the one
function that takes a matrix from the caller, and checks it. All functions
here are pure and safe to call concurrently.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ConvergenceError
from .params import ScenarioModel, StateProbModel, effective_distance

SUM_TOLERANCE = 1e-9
# A repair that keeps one of two explicit values closer than this is left to
# the scalar: numpy's last bits could flip which of the two is kept.
_TIE = 2.0**-40


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


def state_probabilities(model: ScenarioModel, d: float) -> np.ndarray:
    """Probability of LOS/NLOSv/NLOSb at distance ``d`` for one scenario: read-only, shape ``(3,)``."""
    d = effective_distance(d)
    p = np.array(compile_vector(model.state_probs)(d))
    p.setflags(write=False)
    return p


def transition_matrix(model: ScenarioModel, d: float) -> np.ndarray:
    """Row-stochastic transition matrix at distance ``d``: read-only, shape ``(3, 3)``, rows by origin state."""
    d = effective_distance(d)
    m = np.array([compile_vector(row)(d) for row in model.rows])
    m.setflags(write=False)
    return m


def stationary_distribution(m) -> tuple[np.ndarray, bool]:
    """Left eigenvector for eigenvalue one: the solution of pi (M - I) = 0, sum(pi) = 1.

    ``m`` is any 3x3 array-like; it must be row-stochastic within
    ``SUM_TOLERANCE`` (NaN fails), else :class:`ValueError`. Returns
    ``(pi, unique)``: ``unique`` is False when the chain is reducible (several
    eigenvalues at one), in which case ``pi`` is one of many equilibria.
    Periodic chains (an eigenvalue on the unit circle other than one) have no
    limiting distribution and raise :class:`ConvergenceError`.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"expected 3x3 matrix, got shape {m.shape}")
    if not np.all((m >= -SUM_TOLERANCE) & (m <= 1.0 + SUM_TOLERANCE)):  # NaN fails too
        raise ValueError("matrix entries outside [0, 1]")
    if np.any(np.abs(m.sum(axis=1) - 1.0) > SUM_TOLERANCE):
        raise ValueError(f"rows must sum to 1, got {m.sum(axis=1)}")
    eigvals = np.linalg.eigvals(m)
    at_one = np.abs(eigvals - 1.0) < 1e-8
    if np.any(~at_one & (np.abs(np.abs(eigvals) - 1.0) < 1e-8)):
        raise ConvergenceError(f"periodic chain: eigenvalues {eigvals} lie on the unit circle")
    system = np.vstack([(m - np.eye(3)).T, np.ones(3)])
    pi = np.linalg.lstsq(system, np.array([0.0, 0.0, 0.0, 1.0]), rcond=None)[0]
    return pi, int(np.sum(at_one)) == 1
