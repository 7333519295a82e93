"""Empirical estimation from labeled traces and curve refitting.

Counting runs over 10 m distance bins. A transition between steps t and t+1
is attributed to the bin of the distance at step t; state occurrences are
counted per step in each step's own bin. Counts merge associatively, so
partial statistics can be accumulated in any order (or in parallel) and
combined afterwards.

Bins that saw no data stay flagged undefined rather than reading as zero
probability. Curve refitting mirrors the published families: plain least
squares for the polynomial family, log-linear least squares for exponential
decay, and a coarse grid search with local refinement for the log-domain
bell shapes. Only that refinement uses scipy, which is imported on first use
so that the rest of the package starts without it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .curves import (
    CurveSpec,
    ExpDecay,
    LogBell,
    OffsetMinusLogBell,
    Piecewise,
    Poly2,
)
from .errors import ConvergenceError, DegenerateError, DomainError, RangeError, SingularError
from .markov import StateTrace

BIN_WIDTH = 10.0
N_BINS = 50
# The last bin is closed, so that the model's d_max falls in it.
_D_EDGE = BIN_WIDTH * N_BINS


@dataclass(frozen=True)
class DistanceBin:
    """10 m distance interval [10*index, 10*(index+1)); the last one also holds 500 m."""

    index: int

    def __post_init__(self):
        if not (0 <= self.index < N_BINS):
            raise RangeError(f"bin index must be in [0, {N_BINS}), got {self.index}")

    @property
    def low(self) -> float:
        return BIN_WIDTH * self.index

    @property
    def high(self) -> float:
        return BIN_WIDTH * (self.index + 1)

    @property
    def center(self) -> float:
        return BIN_WIDTH * self.index + BIN_WIDTH / 2.0


def bin_of(d: float) -> DistanceBin:
    if not (isinstance(d, (int, float)) and math.isfinite(d)) or d < 0.0 or d > _D_EDGE:
        raise RangeError(f"distance must be in [0, {_D_EDGE}], got {d!r}")
    return DistanceBin(min(int(d // BIN_WIDTH), N_BINS - 1))


def bin_centers() -> np.ndarray:
    return BIN_WIDTH * np.arange(N_BINS) + BIN_WIDTH / 2.0


class EmpiricalStats:
    """Per-bin state occurrence counts and transition counts."""

    __slots__ = ("occupancy", "transitions")

    def __init__(self, occupancy: np.ndarray | None = None, transitions: np.ndarray | None = None):
        self.occupancy = (
            np.zeros((N_BINS, 3), dtype=np.int64) if occupancy is None else np.array(occupancy, dtype=np.int64)
        )
        self.transitions = (
            np.zeros((N_BINS, 3, 3), dtype=np.int64) if transitions is None else np.array(transitions, dtype=np.int64)
        )
        if self.occupancy.shape != (N_BINS, 3) or self.transitions.shape != (N_BINS, 3, 3):
            raise ValueError("count array shapes must be (50, 3) and (50, 3, 3)")

    def merge(self, other: "EmpiricalStats") -> "EmpiricalStats":
        return EmpiricalStats(self.occupancy + other.occupancy, self.transitions + other.transitions)

    __add__ = merge

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EmpiricalStats)
            and np.array_equal(self.occupancy, other.occupancy)
            and np.array_equal(self.transitions, other.transitions)
        )

    @property
    def total_steps(self) -> int:
        return int(self.occupancy.sum())

    @property
    def total_transitions(self) -> int:
        return int(self.transitions.sum())


def accumulate(stats: EmpiricalStats, trace: StateTrace) -> EmpiricalStats:
    """New statistics with one trace counted in. The input is not mutated."""
    d = trace.distances
    if d.size and (float(d.min()) < 0.0 or float(d.max()) > _D_EDGE):
        bad = float(d.min()) if float(d.min()) < 0.0 else float(d.max())
        raise RangeError(f"trace distance {bad} outside [0, {_D_EDGE}]")
    bins = np.minimum(d // BIN_WIDTH, N_BINS - 1).astype(np.int64)
    s = trace.states.astype(np.int64)

    occ = stats.occupancy.copy()
    trans = stats.transitions.copy()
    np.add.at(occ, (bins, s), 1)
    if s.size >= 2:
        np.add.at(trans, (bins[:-1], s[:-1], s[1:]), 1)
    return EmpiricalStats(occ, trans)


def accumulate_traces(traces: Iterable[StateTrace]) -> EmpiricalStats:
    stats = EmpiricalStats()
    for trace in traces:
        stats = accumulate(stats, trace)
    return stats


@dataclass(frozen=True)
class BinnedStateProbs:
    """Per-bin state frequencies; undefined bins are NaN with defined=False."""

    probs: np.ndarray   # (N_BINS, 3) float
    defined: np.ndarray  # (N_BINS,) bool


@dataclass(frozen=True)
class BinnedTransitionProbs:
    """Per-bin transition frequencies; undefined rows are NaN with defined=False."""

    probs: np.ndarray   # (N_BINS, 3, 3) float
    defined: np.ndarray  # (N_BINS, 3) bool


def empirical_state_probs(stats: EmpiricalStats) -> BinnedStateProbs:
    totals = stats.occupancy.sum(axis=1)
    defined = totals > 0
    probs = np.full((N_BINS, 3), np.nan)
    np.divide(stats.occupancy, totals[:, None], out=probs, where=defined[:, None])
    return BinnedStateProbs(probs, defined)


def empirical_transition_probs(stats: EmpiricalStats) -> BinnedTransitionProbs:
    row_totals = stats.transitions.sum(axis=2)
    defined = row_totals > 0
    probs = np.full((N_BINS, 3, 3), np.nan)
    np.divide(stats.transitions, row_totals[:, :, None], out=probs, where=defined[:, :, None])
    return BinnedTransitionProbs(probs, defined)


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample Pearson correlation; NaN pairs are dropped pairwise."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DomainError(f"series must be 1-d and equal length, got {x.shape} vs {y.shape}")
    keep = np.isfinite(x) & np.isfinite(y)
    x, y = x[keep], y[keep]
    if x.size < 2:
        raise DegenerateError(f"need at least 2 defined pairs, got {x.size}")
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        raise DegenerateError("zero variance in at least one series")
    r = float(dx @ dy) / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))


@dataclass(frozen=True)
class FitResult:
    spec: CurveSpec
    sse: float


def _split_points(points: Iterable[tuple[float, float]]) -> tuple[np.ndarray, np.ndarray]:
    pts = list(points)
    d = np.asarray([p[0] for p in pts], dtype=float)
    y = np.asarray([p[1] for p in pts], dtype=float)
    return d, y


def fit_poly2(points: Iterable[tuple[float, float]]) -> FitResult:
    """Least-squares quadratic via the 3x3 normal equations.

    Distances are rescaled before solving so the normal equations stay well
    conditioned; the coefficients are mapped back exactly.
    """
    d, y = _split_points(points)
    if np.unique(d).size < 3:
        raise SingularError(f"need at least 3 distinct distances, got {np.unique(d).size}")
    scale = float(np.max(np.abs(d))) or 1.0
    u = d / scale
    X = np.column_stack([u * u, u, np.ones_like(u)])
    try:
        beta = np.linalg.solve(X.T @ X, X.T @ y)
    except np.linalg.LinAlgError as exc:
        raise SingularError(f"normal equations are singular: {exc}") from exc
    spec = Poly2(float(beta[0]) / (scale * scale), float(beta[1]) / scale, float(beta[2]))
    resid = (spec.a * d + spec.b) * d + spec.c - y
    return FitResult(spec, float(resid @ resid))


def fit_expdecay(points: Iterable[tuple[float, float]]) -> FitResult:
    """Log-linear least squares on strictly positive values."""
    d, y = _split_points(points)
    pos = y > 0.0
    dropped = int(np.count_nonzero(~pos))
    if dropped:
        warnings.warn(f"excluded {dropped} non-positive point(s) from exponential fit", UserWarning)
    d, y = d[pos], y[pos]
    if np.unique(d).size < 2:
        raise DegenerateError("need at least 2 distinct distances with positive values")
    X = np.column_stack([np.ones_like(d), -d])
    beta, *_ = np.linalg.lstsq(X, np.log(y), rcond=None)
    spec = ExpDecay(float(math.exp(beta[0])), float(beta[1]))
    resid = spec.a * np.exp(-spec.b * d) - y
    return FitResult(spec, float(resid @ resid))


def _logbell_values(d: np.ndarray, s: float, mu: float, k: float) -> np.ndarray:
    t = np.log(d) - mu
    return (1.0 / (s * d)) * np.exp(-(t * t) / k)


def _logbell_grid(d: np.ndarray, y: np.ndarray) -> tuple[float, tuple[float, float, float]]:
    """Coarse grid over (mu, k) with the scale parameter solved in closed form."""
    ln_d = np.log(d)
    mus = np.linspace(float(ln_d.min()) - 1.0, float(ln_d.max()) + 2.0, 17)
    ks = np.geomspace(0.2, 20.0, 15)
    best_sse = math.inf
    best = None
    for mu in mus:
        for k in ks:
            g = _logbell_values(d, 1.0, mu, k)
            gg = float(g @ g)
            if gg == 0.0:
                continue
            q = float(g @ y) / gg  # best 1/s for this (mu, k)
            if q <= 0.0:
                continue
            resid = q * g - y
            sse = float(resid @ resid)
            if sse < best_sse:
                best_sse = sse
                best = (1.0 / q, float(mu), float(k))
    if best is None:
        raise DegenerateError("no usable grid point for bell fit (values carry no signal)")
    return best_sse, best


def fit_logbell(points: Iterable[tuple[float, float]]) -> FitResult:
    """Grid search plus local refinement for the log-domain bell family."""
    d, y = _split_points(points)
    if d.size < 4:
        raise DegenerateError(f"need at least 4 points, got {d.size}")
    if np.any(d <= 0.0):
        raise DomainError("bell fit requires positive distances")
    if np.any(y < 0.0):
        raise DomainError("bell fit requires non-negative values")
    if not np.any(y > 0.0):
        raise DegenerateError("all values are zero")

    from scipy.optimize import least_squares  # slow import, needed only by the refits

    grid_sse, (s0, mu0, k0) = _logbell_grid(d, y)

    def residuals(theta):
        s, mu, k = math.exp(theta[0]), theta[1], math.exp(theta[2])
        return _logbell_values(d, s, mu, k) - y

    sol = least_squares(residuals, x0=[math.log(s0), mu0, math.log(k0)], method="lm", xtol=1e-14, ftol=1e-14)
    refined_sse = float(sol.fun @ sol.fun)
    if refined_sse > grid_sse:
        raise ConvergenceError(f"refinement worsened the grid optimum ({refined_sse} > {grid_sse})")
    spec = LogBell(float(math.exp(sol.x[0])), float(sol.x[1]), float(math.exp(sol.x[2])))
    return FitResult(spec, refined_sse)


def fit_offset_minus_logbell(points: Iterable[tuple[float, float]]) -> FitResult:
    """Fit offset minus bell: offset candidates from max(y), bell fit conditional on each."""
    d, y = _split_points(points)
    if d.size < 4:
        raise DegenerateError(f"need at least 4 points, got {d.size}")
    if np.any(d <= 0.0):
        raise DomainError("bell fit requires positive distances")

    base = float(np.max(y))
    offsets = base + np.linspace(0.0, 0.2, 21)
    best_sse = math.inf
    best = None
    for off in offsets:
        z = off - y
        if np.any(z < 0.0) or not np.any(z > 0.0):
            continue
        try:
            sse, (s, mu, k) = _logbell_grid(d, z)
        except DegenerateError:
            continue
        if sse < best_sse:
            best_sse = sse
            best = (float(off), s, mu, k)
    if best is None:
        raise DegenerateError("no usable offset candidate")
    off0, s0, mu0, k0 = best
    from scipy.optimize import least_squares  # slow import, needed only by the refits

    def residuals(theta):
        off, s, mu, k = theta[0], math.exp(theta[1]), theta[2], math.exp(theta[3])
        return (off - _logbell_values(d, s, mu, k)) - y

    sol = least_squares(residuals, x0=[off0, math.log(s0), mu0, math.log(k0)], method="lm", xtol=1e-14, ftol=1e-14)
    refined_sse = float(sol.fun @ sol.fun)
    if refined_sse > best_sse:
        raise ConvergenceError(f"refinement worsened the grid optimum ({refined_sse} > {best_sse})")
    spec = OffsetMinusLogBell(float(sol.x[0]), LogBell(float(math.exp(sol.x[1])), float(sol.x[2]), float(math.exp(sol.x[3]))))
    return FitResult(spec, refined_sse)


def fit_same_family(template: CurveSpec, points: Iterable[tuple[float, float]]) -> FitResult:
    """Fit the family of ``template`` to the points (piecewise splits kept)."""
    if isinstance(template, Poly2):
        return fit_poly2(points)
    if isinstance(template, ExpDecay):
        return fit_expdecay(points)
    if isinstance(template, LogBell):
        return fit_logbell(points)
    if isinstance(template, OffsetMinusLogBell):
        return fit_offset_minus_logbell(points)
    if isinstance(template, Piecewise):
        pts = list(points)
        low_pts = [p for p in pts if p[0] < template.d_t]
        high_pts = [p for p in pts if p[0] >= template.d_t]
        low = fit_same_family(template.low, low_pts)
        high = fit_same_family(template.high, high_pts)
        return FitResult(Piecewise(template.d_t, low.spec, high.spec), low.sse + high.sse)
    raise TypeError(f"unknown curve spec {type(template).__name__}")
