"""Empirical estimation from labeled traces and curve refitting.

Counting runs over 10 m distance bins (:func:`accumulate`), over a batch of
labelled traces or over a trace file a chunk at a time, whose plain rows are
binned straight from their bytes and any other row parsed exactly. A
transition between steps t and t+1 of one trace is attributed to the bin of
the distance at step t; each step is counted in its own bin.

Frequencies are plain arrays, NaN in a bin or row that saw no data rather
than reading as zero probability. Every fit takes 1-D arrays of distances
``d`` and values ``y``, and raises :class:`DegenerateError` when they are too
few or too alike to fit. Curve refitting mirrors the published families:
plain least squares for the polynomial family, log-linear least squares for
exponential decay, and for the log-domain bell shapes a grid search (one
array pass, the scalar formula confirming the winner) refined by
Levenberg-Marquardt: the port of MINPACK's ``lmder`` in ``_minpack``, which
matches scipy's ``least_squares(method="lm")`` and is imported on first
use, so that the rest of the package never compiles it.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
import warnings
from collections import namedtuple
from dataclasses import dataclass
from itertools import takewhile
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from .curves import (
    CurveSpec,
    ExpDecay,
    LogBell,
    OffsetMinusLogBell,
    Piecewise,
    Poly2,
    log_bell_values,
)
from .errors import ConvergenceError, DegenerateError, DomainError, ParseError, V2vLosError
from .markov import StateTrace, _frozen, count_blocks
from .params import DEFAULT_D_MAX
from .traces import _chunks, _parse_chunk

BIN_WIDTH = 10.0
N_BINS = int(DEFAULT_D_MAX / BIN_WIDTH)

# Smaller trace files are counted in one process. Counting alone (2-core Xeon, numpy 2.4.6, medians of 21), a split
# cost 2.6 ms at 0.26 MiB (7.9 against 5.3 ms), broke even at 0.5 MiB and saved 2.6 ms at 1 MiB (16.3 against 18.9).
_SHARD_BYTES = 1 << 20


def bin_centers() -> np.ndarray:
    return BIN_WIDTH * np.arange(N_BINS) + BIN_WIDTH / 2.0


def _count(cell: np.ndarray, s: np.ndarray, continues: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat counts of steps in cells ``cell`` (bin * 3 + state ``s``) and of pairs k, k + 1 where ``continues[k]``."""
    pairs = (cell[:-1] * 3 + s[1:])[continues]
    return np.bincount(cell, minlength=N_BINS * 3), np.bincount(pairs, minlength=N_BINS * 9)


_KEYS = {name: int.from_bytes(name.encode("ascii"), "little") for name in (",LOS", ",NLO", "LOSv", "LOSb")}


def _bin_plain(data: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Times, cells and states of a chunk of plain rows, read straight from its bytes; None for any other chunk.

    A plain row is ``T,I.F,S`` and a newline (or the data's end): T 1 to 18 ASCII digits, I 1 to 3 digits of value
    v in [1, 499], or 500 with F all zeros, F digits, S a state name. ``float`` rounds to nearest and doubles below
    512 are 2^-44 apart, so the distance is in bin v // 10 (49 for 500 m) unless it lies within 2^-45 below the next
    multiple of 10, where v ends in 9 and F starts with 13 nines: such a chunk is refused. A refused chunk, one with a
    blank or ``#`` line, a space, sign, exponent, CR, other byte or a distance without a dot, say, goes to the exact
    parse.
    """
    if not data.endswith(b"\n"):  # the file's last line
        data += b"\n"
    a = np.frombuffer(data, np.uint8)
    sep = np.flatnonzero(a <= 46)  # the only bytes below "/" a plain row holds are ",", "." and the newline
    n = sep.size // 4
    if sep.size != 4 * n or not (a[sep].reshape(n, 4) == (44, 46, 44, 10)).all():
        return None
    c1, dot, c2, nl = sep.reshape(n, 4).T
    t_len, i_len = c1 - np.concatenate(([-1], nl[:-1])) - 1, dot - c1 - 1
    if t_len.min() < 1 or t_len.max() > 18 or i_len.min() < 1 or i_len.max() > 3:
        return None
    u4 = np.ndarray((a.size - 3,), "<u4", data, 0, (1,))  # the four bytes from each offset
    # A comma four or six bytes before a newline is the row's second, so S is the rest. The first row's newline is
    # at 5 or later; at -1 are the last four bytes, which end in a newline and match no key.
    last = u4[nl - 4]
    los = last == _KEYS[",LOS"]
    s = ((last == _KEYS["LOSv"]) + 2 * (last == _KEYS["LOSb"])) * (u4[nl - 6] == _KEYS[",NLO"])
    if not (los | (s > 0)).all() or np.count_nonzero(a - 48 > 9) != 9 * n - 2 * np.count_nonzero(los):
        return None  # so every byte but the separators and state names is a digit
    t, v = np.zeros(n, np.int64), np.zeros(n, np.int64)
    for digits, end, value in ((t_len, c1, t), (i_len, dot, v)):
        for k in range(int(digits.max())):  # the k-th digit from the right
            value += (np.where(digits > k, a[end - 1 - k], 48) - 48).astype(np.int64) * 10**k
    near = dot[(a[dot - 1] == 57) & (c2 - dot > 13)]  # v ends in 9, and F has 13 digits or more
    if v.min() < 1 or v.max() > 500 or (a[near[:, None] + np.arange(1, 14)] == 57).all(axis=1).any() or any(
            data[i + 1:j].strip(b"0") for i, j in zip(dot[v == 500], c2[v == 500])):  # above 500 m
        return None
    return t, np.minimum(v // 10, N_BINS - 1) * 3 + s, s  # 500 m is in the last bin


def accumulate(traces: Iterable[StateTrace] | str | os.PathLike) -> tuple[np.ndarray, np.ndarray]:
    """Per-bin counts of a batch of labelled traces, read once and counted by :func:`count_blocks`, or of a trace file.

    Returns read-only int64 ``occupancy[bin, state]`` and ``transitions[bin, from, to]``. No pair of steps spans two
    traces. An empty batch gives zero counts; a distance above 500 m is a :class:`DomainError`, as in the chain. A
    file is counted as ``read_labeled_traces`` would read it, errors included, but builds no trace.
    """
    if isinstance(traces, (str, os.PathLike)):
        return _count_file(traces, _split_point(traces))
    occupancy = np.zeros(N_BINS * 3, dtype=np.int64)
    transitions = np.zeros(N_BINS * 9, dtype=np.int64)
    for block in count_blocks(traces):
        d = np.concatenate([trace.distances for trace in block])
        inside = d <= DEFAULT_D_MAX  # the last bin is closed; a grid's distances are positive
        if not inside.all():
            raise DomainError(f"trace distance {float(d[~inside][0])} outside [0, {DEFAULT_D_MAX}]")
        s = np.concatenate([trace.states for trace in block]).astype(np.intp)
        continues = np.ones(d.size - 1, dtype=bool)
        continues[np.cumsum([len(trace) for trace in block])[:-1] - 1] = False  # the last step of a trace
        cell = np.minimum(d // BIN_WIDTH, N_BINS - 1).astype(np.intp) * 3 + s  # bin * 3 + state
        block_occupancy, block_transitions = _count(cell, s, continues)
        occupancy += block_occupancy
        transitions += block_transitions
    return _frozen(occupancy.reshape(N_BINS, 3)), _frozen(transitions.reshape(N_BINS, 3, 3))


# Counts of a run of a file's rows: flat occupancy and transitions, the first row's (t, state), the last row's
# (t, bin * 3 + state), whether a time step skipped a second, and the first distance above 500 m (or None).
_Rows = namedtuple("_Rows", "occupancy transitions head tail gap above")


def _join(a: _Rows | None, b: _Rows | None) -> _Rows | None:
    """The counts of rows ``a`` then rows ``b`` (None: no rows), the step from one to the other counted here."""
    if a is None or b is None:
        return b if a is None else a
    (t, cell), (t_next, s_next) = a.tail, b.head
    transitions = a.transitions + b.transitions
    transitions[cell * 3 + s_next] += t_next == t + 1
    return _Rows(a.occupancy + b.occupancy, transitions, a.head, b.tail, a.gap or t_next > t + 1 or b.gap,
                 b.above if a.above is None else a.above)


def _count_rows(chunks: Iterator) -> tuple[bool, _Rows | None]:
    """The header kind and the counts of the chunks after it (:func:`traces._chunks`), binned or parsed exactly."""
    labeled, counts = next(chunks), None
    for chunk in chunks:
        if labeled and (binned := _bin_plain(chunk[0])) is not None:
            (t, cell, s), above = binned, None
        elif (rows := _parse_chunk(chunk, labeled)) is not None:
            t, d = rows["t"], rows["d"]
            s = rows["state"].astype(np.intp) if labeled else np.zeros(t.size, np.intp)  # no states: rows still found
            cell, above = np.minimum(d // BIN_WIDTH, N_BINS - 1).astype(np.intp) * 3 + s, d[d > DEFAULT_D_MAX]
            above = float(above[0]) if above.size else None
        else:
            continue
        rises = t[1:] > t[:-1]
        continues = rises & (np.diff(t) == 1)  # compared as well: a difference can wrap around
        occupancy, transitions = _count(cell, s, continues)
        counts = _join(counts, _Rows(occupancy, transitions, (int(t[0]), int(s[0])), (int(t[-1]), int(cell[-1])),
                                     bool((rises != continues).any()), above))
    return labeled, counts


def _split_point(path: str | os.PathLike) -> int | None:
    """Half the size of a regular file of ``_SHARD_BYTES`` or more, for a forked child to count the rest, else None.

    A child is forked only on Linux with two CPUs to run on, by a process with no other thread (the CLI's).
    """
    try:
        if sys.platform == "linux" and len(os.sched_getaffinity(0)) > 1 and len(os.listdir("/proc/self/task")) == 1:
            size = os.path.getsize(path) if os.path.isfile(path) else -1  # a pipe can be read only once
            return size // 2 if size >= _SHARD_BYTES else None
    except OSError:  # no /proc, say, or no file: counted in one process, whose reader reports a missing file
        pass
    return None


def _in_two(first: Callable[[], Any], second: Callable[[], Any]) -> tuple[Any, Any]:
    """``(first(), second())``, ``second`` run by a forked child while this process runs ``first``.

    The child sends its result or exception through a pipe and leaves by ``os._exit``, writing nothing else. It is
    reaped on every path, killed first if ``first`` raises; one that ends without a result is a :class:`V2vLosError`.
    """
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        try:
            os.close(read)
            try:
                sent = second()
            except BaseException as exc:
                sent = exc
            with open(write, "wb") as pipe:
                pickle.dump(sent, pipe)
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write)
    try:
        with open(read, "rb") as pipe:
            mine, sent = first(), pipe.read()
    except BaseException:
        os.kill(pid, 9)  # SIGKILL, then the reaping below
        raise
    finally:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code:
        raise V2vLosError(f"forked child ended without a result ({f'signal {-code}' if code < 0 else f'exit {code}'})")
    sent = pickle.loads(sent)
    if isinstance(sent, BaseException):
        raise sent
    return mine, sent


def _count_file(path: str | os.PathLike, split: int | None) -> tuple[np.ndarray, np.ndarray]:
    """:func:`accumulate` of a trace file; with ``split``, a forked child counts the chunks after it (``_chunks``).

    Errors come in the order of a whole read: the first bad row or undecodable byte, then no data rows or no state
    column, then a time gap, then the first distance above 500 m.
    """
    if split is None:
        labeled, counts = _count_rows(_chunks(path))
    else:
        parent = os.getpid()  # a child whose parent is gone stops at its next chunk
        (labeled, counts), (_, later) = _in_two(
            lambda: _count_rows(_chunks(path, split)),
            lambda: _count_rows(takewhile(lambda _: os.getppid() == parent, _chunks(path, split, second=True))))
        counts = _join(counts, later)
    if counts is None:
        raise ParseError("no data rows found")
    if not labeled:
        raise ParseError("file has no state column")
    if counts.gap:
        raise ParseError("time steps must increase by exactly one second")
    if counts.above is not None:
        raise DomainError(f"trace distance {counts.above} outside [0, {DEFAULT_D_MAX}]")
    return _frozen(counts.occupancy.reshape(N_BINS, 3)), _frozen(counts.transitions.reshape(N_BINS, 3, 3))


def frequencies(counts: np.ndarray) -> np.ndarray:
    """``counts`` over their last axis's totals; NaN where a total is zero, so an unseen bin or row never reads as 0."""
    totals = counts.sum(axis=-1, keepdims=True)
    return np.divide(counts, totals, out=np.full(counts.shape, np.nan), where=totals > 0)


def _points(d, y) -> tuple[np.ndarray, np.ndarray]:
    """``d`` and ``y`` as float arrays, once they are known to be 1-D and of one length."""
    d, y = np.asarray(d, dtype=float), np.asarray(y, dtype=float)
    if d.ndim != 1 or d.shape != y.shape:
        raise DomainError(f"series must be 1-d and equal length, got {d.shape} vs {y.shape}")
    return d, y


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample Pearson correlation; NaN pairs are dropped pairwise."""
    x, y = _points(xs, ys)
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


def fit_poly2(d, y) -> FitResult:
    """Least-squares quadratic via the 3x3 normal equations.

    Distances are rescaled before solving so the normal equations stay well
    conditioned; the coefficients are mapped back exactly.
    """
    d, y = _points(d, y)
    distinct = np.unique(d, return_counts=True)[0].size  # counts take np.unique's path that loads no numpy.ma
    if distinct < 3:
        raise DegenerateError(f"need at least 3 distinct distances, got {distinct}")
    scale = float(np.max(np.abs(d))) or 1.0
    u = d / scale
    X = np.column_stack([u * u, u, np.ones_like(u)])
    try:
        beta = np.linalg.solve(X.T @ X, X.T @ y)
    except np.linalg.LinAlgError as exc:
        raise DegenerateError(f"normal equations are singular: {exc}") from exc
    spec = Poly2(float(beta[0]) / (scale * scale), float(beta[1]) / scale, float(beta[2]))
    resid = spec.raw(d) - y
    return FitResult(spec, float(resid @ resid))


def fit_expdecay(d, y) -> FitResult:
    """Log-linear least squares on strictly positive values."""
    d, y = _points(d, y)
    pos = y > 0.0
    dropped = int(np.count_nonzero(~pos))
    if dropped:
        warnings.warn(f"excluded {dropped} non-positive point(s) from exponential fit", UserWarning)
    d, y = d[pos], y[pos]
    if np.unique(d, return_counts=True)[0].size < 2:  # as in fit_poly2
        raise DegenerateError("need at least 2 distinct distances with positive values")
    X = np.column_stack([np.ones_like(d), -d])
    beta, *_ = np.linalg.lstsq(X, np.log(y), rcond=None)
    spec = ExpDecay(float(math.exp(beta[0])), float(beta[1]))
    resid = spec.values(d) - y
    return FitResult(spec, float(resid @ resid))


def _logbell_grid(d: np.ndarray, y: np.ndarray) -> tuple[float, tuple[float, float, float]]:
    """Coarse grid over (mu, k), ``y`` non-negative, with the scale parameter solved in closed form."""
    ln_d = np.log(d)
    mus = np.linspace(float(ln_d.min()) - 1.0, float(ln_d.max()) + 2.0, 17)
    ks = np.geomspace(0.2, 20.0, 15)
    G = log_bell_values(d, 1.0, mus[:, None, None], ks[:, None]).reshape(-1, d.size)
    # A dot product of non-negative terms errs by under (n + 2) * 2**-53 relative in any order, so an SSE, at most
    # y @ y, moves by under 6 * (n + 2) * 2**-53 * (y @ y) via them and 32 * 2**-53 * (y @ y) via an exp 4 ulps off:
    # c = 32 covers both, 2**-1074 a term underflow. The scalar loop rescores rows near the best or not surely usable.
    with np.errstate(all="ignore"):
        qs = (G @ y) / np.square(G).sum(axis=1)
        sses = np.square(qs[:, None] * G - y).sum(axis=1)
        margin = 32 * (d.size + 2) * (2.0**-53 * float(y @ y) + 2.0**-1074)
    sure = np.isfinite(qs) & (qs >= np.finfo(float).tiny)
    best_sse, best = math.inf, None
    for i in np.flatnonzero(~sure | (sses <= np.min(sses[sure], initial=math.inf) + 2 * margin)):
        mu, k = mus[i // ks.size], ks[i % ks.size]
        g = log_bell_values(d, 1.0, mu, k)
        gg = float(g @ g)
        if gg == 0.0:
            continue
        q = float(g @ y) / gg  # best 1/s for this (mu, k)
        if q <= 0.0:
            continue
        resid = q * g - y
        sse = float(resid @ resid)
        if sse < best_sse:
            best_sse, best = sse, (1.0 / q, float(mu), float(k))
    if best is None:
        raise DegenerateError("no usable grid point for bell fit (values carry no signal)")
    return best_sse, best


def _bell_points(d, y) -> tuple[np.ndarray, np.ndarray]:
    """The points of a bell fit, once they are known to be at least four, all at positive distances."""
    d, y = _points(d, y)
    if d.size < 4:
        raise DegenerateError(f"need at least 4 points, got {d.size}")
    if np.any(d <= 0.0):
        raise DomainError("bell fit requires positive distances")
    return d, y


def _bell(theta) -> tuple[float, float, float]:
    """(s, mu, k) of a bell the refinement holds as (ln s, mu, ln k)."""
    return math.exp(theta[0]), theta[1], math.exp(theta[2])


def _refine(residuals, x0: list[float], grid_sse: float) -> tuple[np.ndarray, float]:
    """Levenberg-Marquardt from the grid optimum; the solution and its SSE, which must not exceed the grid's."""
    from ._minpack import lmder  # compiled only by the refits

    try:
        with np.errstate(all="ignore"):  # a step to NaN or infinite residuals is the solver's to reject, quietly
            x, fun = lmder(residuals, x0)
    except ArithmeticError as exc:  # math.exp in _bell overflows on a wild step
        raise ConvergenceError(f"refinement stepped out of range: {exc!r}") from exc
    refined_sse = float(fun @ fun)
    if refined_sse > grid_sse:
        raise ConvergenceError(f"refinement worsened the grid optimum ({refined_sse} > {grid_sse})")
    return x, refined_sse


def fit_logbell(d, y) -> FitResult:
    """Grid search plus local refinement for the log-domain bell family."""
    d, y = _bell_points(d, y)
    if np.any(y < 0.0):
        raise DomainError("bell fit requires non-negative values")
    if not np.any(y > 0.0):
        raise DegenerateError("all values are zero")
    grid_sse, (s0, mu0, k0) = _logbell_grid(d, y)
    theta, sse = _refine(lambda x: log_bell_values(d, *_bell(x)) - y, [math.log(s0), mu0, math.log(k0)], grid_sse)
    return FitResult(LogBell(*map(float, _bell(theta))), sse)


def fit_offset_minus_logbell(d, y) -> FitResult:
    """Fit offset minus bell: offset candidates from max(y), bell fit conditional on each."""
    d, y = _bell_points(d, y)
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
    theta, sse = _refine(lambda x: (x[0] - log_bell_values(d, *_bell(x[1:]))) - y,
                         [off0, math.log(s0), mu0, math.log(k0)], best_sse)
    return FitResult(OffsetMinusLogBell(float(theta[0]), LogBell(*map(float, _bell(theta[1:])))), sse)


# Family class -> its fit; piecewise curves split their points instead.
_FITS = {Poly2: fit_poly2, ExpDecay: fit_expdecay, LogBell: fit_logbell, OffsetMinusLogBell: fit_offset_minus_logbell}


def fit_same_family(template: CurveSpec, d, y) -> FitResult:
    """Fit the family of ``template`` to the points ``(d, y)``; a piecewise curve keeps its split, ties going high."""
    if isinstance(template, Piecewise):
        d, y = _points(d, y)
        low = d < template.d_t
        lo, hi = fit_same_family(template.low, d[low], y[low]), fit_same_family(template.high, d[~low], y[~low])
        return FitResult(Piecewise(template.d_t, lo.spec, hi.spec), lo.sse + hi.sse)
    fit = _FITS.get(type(template))
    if fit is None:
        raise TypeError(f"unknown curve spec {type(template).__name__}")
    return fit(d, y)
