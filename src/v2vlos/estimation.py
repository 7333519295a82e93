"""Empirical estimation from labeled traces and curve refitting.

Counting runs over 10 m distance bins, once per batch of labelled traces
(:func:`accumulate`). A transition between steps t and t+1 of one trace is
attributed to the bin of the distance at step t; state occurrences are
counted per step in each step's own bin.

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
from .markov import StateTrace, _frozen, count_blocks
from .params import DEFAULT_D_MAX

BIN_WIDTH = 10.0
N_BINS = int(DEFAULT_D_MAX / BIN_WIDTH)


def bin_centers() -> np.ndarray:
    return BIN_WIDTH * np.arange(N_BINS) + BIN_WIDTH / 2.0


@dataclass(frozen=True, eq=False)
class EmpiricalStats:
    """Per-bin counts, read-only int64: ``occupancy[bin, state]`` and ``transitions[bin, from, to]``."""

    occupancy: np.ndarray
    transitions: np.ndarray

    def __post_init__(self):
        for name in ("occupancy", "transitions"):
            object.__setattr__(self, name, _frozen(np.asarray(getattr(self, name), dtype=np.int64)))
        if self.occupancy.shape != (N_BINS, 3) or self.transitions.shape != (N_BINS, 3, 3):
            raise ValueError(f"count array shapes must be ({N_BINS}, 3) and ({N_BINS}, 3, 3)")


def accumulate(traces: Iterable[StateTrace]) -> EmpiricalStats:
    """Per-bin counts of a batch of labelled traces, read once and counted by :func:`count_blocks`.

    No pair of steps spans two traces. An empty batch gives zero counts.
    """
    occupancy = np.zeros(N_BINS * 3, dtype=np.int64)
    transitions = np.zeros(N_BINS * 9, dtype=np.int64)
    for block in count_blocks(traces):
        d = np.concatenate([trace.distances for trace in block])
        inside = d <= DEFAULT_D_MAX  # the last bin is closed; a grid's distances are positive
        if not inside.all():
            raise RangeError(f"trace distance {float(d[~inside][0])} outside [0, {DEFAULT_D_MAX}]")
        s = np.concatenate([trace.states for trace in block]).astype(np.intp)
        cell = np.minimum(d // BIN_WIDTH, N_BINS - 1).astype(np.intp) * 3 + s  # bin * 3 + state
        occupancy += np.bincount(cell, minlength=occupancy.size)
        # A pair goes in the bin of its earlier step, unless its later step starts a trace.
        sizes = np.array([len(trace) for trace in block])
        starts = np.zeros(d.size, dtype=bool)
        starts[np.cumsum(sizes) - sizes] = True
        pairs = (cell[:-1] * 3 + s[1:])[~starts[1:]]
        transitions += np.bincount(pairs, minlength=transitions.size)
    return EmpiricalStats(occupancy.reshape(N_BINS, 3), transitions.reshape(N_BINS, 3, 3))


@dataclass(frozen=True)
class BinnedProbs:
    """Per-bin frequencies; undefined bins or rows are NaN with defined=False."""

    probs: np.ndarray    # (N_BINS, 3) state or (N_BINS, 3, 3) transition frequencies
    defined: np.ndarray  # (N_BINS,) or (N_BINS, 3) bool


def empirical_state_probs(stats: EmpiricalStats) -> BinnedProbs:
    totals = stats.occupancy.sum(axis=1)
    defined = totals > 0
    probs = np.full((N_BINS, 3), np.nan)
    np.divide(stats.occupancy, totals[:, None], out=probs, where=defined[:, None])
    return BinnedProbs(probs, defined)


def empirical_transition_probs(stats: EmpiricalStats) -> BinnedProbs:
    row_totals = stats.transitions.sum(axis=2)
    defined = row_totals > 0
    probs = np.full((N_BINS, 3, 3), np.nan)
    np.divide(stats.transitions, row_totals[:, :, None], out=probs, where=defined[:, :, None])
    return BinnedProbs(probs, defined)


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
    resid = spec.raw(d) - y
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


# Family class -> its fit; piecewise curves split their points instead.
_FITS = {Poly2: fit_poly2, ExpDecay: fit_expdecay, LogBell: fit_logbell, OffsetMinusLogBell: fit_offset_minus_logbell}


def fit_same_family(template: CurveSpec, points: Iterable[tuple[float, float]]) -> FitResult:
    """Fit the family of ``template`` to the points (piecewise splits kept)."""
    if isinstance(template, Piecewise):
        pts = list(points)
        low = fit_same_family(template.low, [p for p in pts if p[0] < template.d_t])
        high = fit_same_family(template.high, [p for p in pts if p[0] >= template.d_t])
        return FitResult(Piecewise(template.d_t, low.spec, high.spec), low.sse + high.sse)
    fit = _FITS.get(type(template))
    if fit is None:
        raise TypeError(f"unknown curve spec {type(template).__name__}")
    return fit(points)
