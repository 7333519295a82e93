"""Levenberg-Marquardt least squares: a port of MINPACK's ``lmder`` with a forward-difference Jacobian.

The port repeats MINPACK-1's ``lmder``, ``lmpar``, ``qrfac``, ``qrsolv`` and ``enorm`` step for step (Moré, "The
Levenberg-Marquardt algorithm: implementation and theory", Lecture Notes in Mathematics 630, 1978; Moré, Garbow and
Hillstrom, *User Guide for MINPACK-1*, ANL-80-74, 1980) as scipy's C translation runs them, with the Jacobian that
``scipy.optimize.least_squares`` (1.16 on) hands them: two-point forward differences with step
``2**-26 * sign(x) * max(1, |x|)``. So :func:`lmder` gives ``least_squares(fun, x0, method="lm", xtol=XTOL,
ftol=FTOL)``'s ``x`` and ``fun`` bit for bit, save where the C reads past the Jacobian (:func:`_recomputed_norm`).
That holds because every sum is a left-to-right loop of float operations, as in the C (never ``sum()``, which
compensates from Python 3.12, nor a BLAS reduction), ``max`` and ``min`` are C's ``fmax`` and ``fmin``, and a
division by zero gives the IEEE result rather than an exception. Matrices are lists of columns: ``a[j][i]`` is
MINPACK's ``a(i+1, j+1)``.

This product includes software developed by the University of Chicago, as Operator of Argonne National Laboratory.
MINPACK's copyright notice, conditions and disclaimer are in the file LICENSE-MINPACK at the root of the source tree.
"""

from __future__ import annotations

import math

import numpy as np

EPSMCH = 2.0**-52  # machine precision
DWARF = 2.0**-1022  # smallest positive normal magnitude
RDWARF, RGIANT = 3.834e-20, 1.304e19  # enorm's bounds of the squares that neither underflow nor overflow
GTOL, FACTOR, FTOL, XTOL = 1e-8, 100.0, 1e-14, 1e-14  # least_squares's gtol and factor; the refits' ftol and xtol


def _fmax(a: float, b: float) -> float:
    return b if a != a or b > a else a  # C's fmax: a NaN argument loses


def _fmin(a: float, b: float) -> float:
    return b if a != a or b < a else a


def _div(a: float, b: float) -> float:
    """``a / b``, with C's infinity or NaN where ``b`` is zero; a bare ``/`` here has a divisor known to be nonzero."""
    try:
        return a / b
    except ZeroDivisionError:
        return math.copysign(math.inf, a) * math.copysign(1.0, b) if a == a and a != 0.0 else math.nan


def _dot(u, v) -> float:
    """``u . v`` over the shorter of the two, summed left to right as the C sums it."""
    s = 0.0
    for p, q in zip(u, v):
        s += p * q
    return s


def enorm(x: list[float]) -> float:
    """Euclidean norm of ``x``, summing small, intermediate and large entries apart so that no square under- or
    overflows; as in the C, a NaN sums with the intermediate entries and ``s3`` weighs in the small ones."""
    agiant = RGIANT / len(x)
    s1 = s2 = s3 = x1max = x3max = 0.0
    for xi in x:
        xabs = abs(xi)
        if xabs <= RDWARF:
            if xabs > x3max:
                r = x3max / xabs
                s3, x3max = 1.0 + s3 * (r * r), xabs
            elif xabs != 0.0:
                r = xabs / x3max
                s3 += r * r
        elif xabs < agiant or xabs != xabs:
            s2 += xabs * xabs
        elif xabs <= x1max:
            r = xabs / x1max
            s1 += r * r
        else:
            r = x1max / xabs
            s1, x1max = 1.0 + s1 * (r * r), xabs
    if s1 != 0.0:
        return x1max * math.sqrt(s1 + (s2 / x1max) / x1max)
    if s2 == 0.0:
        return x3max * math.sqrt(s3)
    if s2 >= x3max:
        return math.sqrt(s2 * (1.0 + (x3max / s2) * (x3max * s3)))
    return math.sqrt(x3max * (_div(s2, x3max) + (x3max * s3)))  # x3max is 0 when s2 is NaN


def qrfac(a: list[list[float]], m: int) -> tuple[list[int], list[float], list[float]]:
    """Householder QR of the columns ``a`` with column pivoting, in place; returns ``(ipvt, rdiag, acnorm)``.

    ``a`` ends with R's strict upper triangle and the Householder vectors below it; ``rdiag`` holds R's diagonal,
    ``acnorm`` the norms of the columns as given, and column ``j`` of ``a @ P`` is column ``ipvt[j]`` of ``a``.
    """
    n = len(a)
    acnorm = [enorm(col) for col in a]
    rdiag, wa, ipvt = acnorm[:], acnorm[:], list(range(n))
    for j in range(min(m, n)):
        kmax = j  # bring the column of largest remaining norm into the pivot position
        for k in range(j, n):
            if rdiag[k] > rdiag[kmax]:
                kmax = k
        if kmax != j:
            a[j], a[kmax] = a[kmax], a[j]
            rdiag[kmax], wa[kmax] = rdiag[j], wa[j]
            ipvt[j], ipvt[kmax] = ipvt[kmax], ipvt[j]
        aj = a[j]
        ajnorm = enorm(aj[j:])
        if ajnorm != 0.0:
            if aj[j] < 0.0:
                ajnorm = -ajnorm
            aj[j:] = [v / ajnorm for v in aj[j:]]
            aj[j] = aj[j] + 1.0
            for k in range(j + 1, n):  # apply the reflection to the later columns and downdate their norms
                ak = a[k]
                temp = _dot(aj[j:], ak[j:]) / aj[j]
                ak[j:] = [w - temp * v for v, w in zip(aj[j:], ak[j:])]
                if rdiag[k] != 0.0:
                    temp = ak[j] / rdiag[k]
                    rdiag[k] = rdiag[k] * math.sqrt(_fmax(0.0, 1.0 - temp * temp))
                    r = rdiag[k] / wa[k]
                    if 0.05 * (r * r) <= EPSMCH:  # the downdate lost too much: recompute the norm
                        rdiag[k] = wa[k] = _recomputed_norm(a, j, k)
        rdiag[j] = -ajnorm
    return ipvt, rdiag, acnorm


def _recomputed_norm(a: list[list[float]], j: int, k: int) -> float:
    """Column ``k``'s norm below row ``j``, as scipy's C takes it: over m - j entries from row j + 1, so the last is
    row 0 of column k + 1. Past the last column the C reads memory it never wrote; that entry is taken as absent."""
    return enorm(a[k][j + 1:] + a[k + 1][:1] if k + 1 < len(a) else a[k][j + 1:])


def qrsolv(r: list[list[float]], ipvt: list[int], diag: list[float], qtb: list[float],
           sdiag: list[float]) -> list[float]:
    """The least-squares solution of ``[A; D] x = [b; 0]`` given R and ``Q^T b`` of ``A P = Q R``.

    Givens rotations reduce ``[R; P^T D P]`` to the upper triangle S, whose diagonal goes to ``sdiag`` and whose
    strict upper triangle, transposed, overwrites R's strict lower triangle; R's upper triangle and diagonal stay.
    """
    n = len(diag)
    x, wa = [r[j][j] for j in range(n)], qtb[:]
    for j in range(n):
        r[j][j:n] = [r[i][j] for i in range(j, n)]
    for j in range(n):
        if diag[ipvt[j]] != 0.0:
            sdiag[j:] = [diag[ipvt[j]]] + [0.0] * (n - j - 1)
            qtbpj = 0.0
            for k in range(j, n):  # a rotation eliminates sdiag[k]
                if sdiag[k] == 0.0:
                    continue
                rk = r[k]
                if abs(rk[k]) >= abs(sdiag[k]):
                    tan = sdiag[k] / rk[k]
                    cos = 0.5 / math.sqrt(0.25 + 0.25 * (tan * tan))
                    sin = cos * tan
                else:
                    cotan = rk[k] / sdiag[k]
                    sin = 0.5 / math.sqrt(0.25 + 0.25 * (cotan * cotan))
                    cos = sin * cotan
                rk[k] = cos * rk[k] + sin * sdiag[k]
                wa[k], qtbpj = cos * wa[k] + sin * qtbpj, -sin * wa[k] + cos * qtbpj
                for i in range(k + 1, n):
                    rk[i], sdiag[i] = cos * rk[i] + sin * sdiag[i], -sin * rk[i] + cos * sdiag[i]
        sdiag[j], r[j][j] = r[j][j], x[j]
    nsing = next((j for j in range(n) if sdiag[j] == 0.0), n)  # a singular S gives a least-squares solution
    wa[nsing:] = [0.0] * (n - nsing)
    for j in range(nsing - 1, -1, -1):
        wa[j] = (wa[j] - _dot(r[j][j + 1:nsing], wa[j + 1:nsing])) / sdiag[j]
    for j in range(n):
        x[ipvt[j]] = wa[j]
    return x


def lmpar(r: list[list[float]], ipvt: list[int], diag: list[float], qtb: list[float], delta: float,
          par: float) -> tuple[float, list[float]]:
    """The Levenberg-Marquardt parameter ``par`` and step ``x`` with ``|D x|`` within 10 % of ``delta`` (or below it,
    for ``par`` 0), starting from ``par``."""
    n = len(diag)
    nsing = next((j for j in range(n) if r[j][j] == 0.0), n)  # the Gauss-Newton step, least squares if singular
    sdiag, wa1, x = [0.0] * n, qtb[:nsing] + [0.0] * (n - nsing), [0.0] * n
    for j in range(nsing - 1, -1, -1):
        wa1[j] = wa1[j] / r[j][j]
        wa1[:j] = [w - v * wa1[j] for v, w in zip(r[j][:j], wa1[:j])]
    for j in range(n):
        x[ipvt[j]] = wa1[j]
    wa2 = [diag[j] * x[j] for j in range(n)]
    dxnorm = enorm(wa2)
    fp = dxnorm - delta
    if fp <= 0.1 * delta:
        return 0.0, x
    parl = 0.0  # a lower bound from the Newton step, unless R is singular
    if nsing == n:
        for j in range(n):
            wa1[j] = diag[ipvt[j]] * _div(wa2[ipvt[j]], dxnorm)
        for j in range(n):
            wa1[j] = (wa1[j] - _dot(r[j][:j], wa1)) / r[j][j]
        temp = enorm(wa1)
        parl = _div(_div(_div(fp, delta), temp), temp)
    for j in range(n):  # an upper bound
        wa1[j] = _div(_dot(r[j][:j + 1], qtb), diag[ipvt[j]])
    gnorm = enorm(wa1)
    paru = _div(gnorm, delta)
    if paru == 0.0:
        paru = _div(DWARF, _fmin(delta, 0.1))
    par = _fmin(_fmax(par, parl), paru)
    if par == 0.0:
        par = _div(gnorm, dxnorm)
    for iteration in range(1, 11):
        if par == 0.0:
            par = _fmax(DWARF, 0.001 * paru)
        temp = math.sqrt(par)
        x = qrsolv(r, ipvt, [temp * dj for dj in diag], qtb, sdiag)
        wa2 = [diag[j] * x[j] for j in range(n)]
        dxnorm = enorm(wa2)
        temp, fp = fp, dxnorm - delta
        if abs(fp) <= 0.1 * delta or parl == 0.0 and fp <= temp and temp < 0.0 or iteration == 10:
            break
        for j in range(n):  # the Newton correction
            wa1[j] = diag[ipvt[j]] * _div(wa2[ipvt[j]], dxnorm)
        for j in range(n):
            wa1[j] = _div(wa1[j], sdiag[j])
            wa1[j + 1:] = [w - v * wa1[j] for v, w in zip(r[j][j + 1:], wa1[j + 1:])]
        temp = enorm(wa1)
        parc = _div(_div(_div(fp, delta), temp), temp)
        if fp > 0.0:
            parl = _fmax(parl, par)
        if fp < 0.0:
            paru = _fmin(paru, par)
        par = _fmax(parl, par + parc)
    return par, x


def _jacobian(fun, x: np.ndarray, f: np.ndarray) -> list[list[float]]:
    """Forward differences at ``x``, where ``fun`` is ``f``, as columns; the step is ``least_squares``'s."""
    h = 2.0**-26 * np.where(x >= 0, 1.0, -1.0) * np.maximum(1.0, np.abs(x))
    dx, cols = (x + h) - x, []
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(x.size):
            x1 = x.copy()
            x1[j] = x[j] + h[j]
            cols.append(((fun(x1) - f) / dx[j]).tolist())
    return cols


def lmder(fun, x0) -> tuple[np.ndarray, np.ndarray]:
    """Minimise ``sum(fun(x)**2)`` from ``x0``; returns ``x`` and ``fun(x)``, a 1-d array.

    The scaling is MINPACK's mode 1: ``diag`` starts at the Jacobian's column norms and rises with them. At most
    ``100 * len(x0)`` evaluations of ``fun`` are made outside the Jacobians.
    """
    x = np.array(x0, dtype=float)
    f = fun(x)
    if not np.all(np.isfinite(f)):
        raise ValueError("Residuals are not finite in the initial point.")
    n, m, nfev, maxfev = x.size, f.size, 1, 100 * x.size
    xl, fnorm, par, first = x.tolist(), enorm(f.tolist()), 0.0, True
    while True:
        a = _jacobian(fun, x, f)
        ipvt, rdiag, acnorm = qrfac(a, m)
        if first:  # scale by the first Jacobian's column norms; the first step bound is FACTOR * |D x|
            diag = [c if c != 0.0 else 1.0 for c in acnorm]
            xnorm = enorm([diag[j] * xl[j] for j in range(n)])
            delta = FACTOR * xnorm or FACTOR
        wa4, qtf = f.tolist(), [0.0] * n  # the first n entries of Q^T f
        for j in range(n):
            aj = a[j]
            if aj[j] != 0.0:
                temp = -_dot(aj[j:], wa4[j:]) / aj[j]
                wa4[j:] = [w + v * temp for v, w in zip(aj[j:], wa4[j:])]
            aj[j] = rdiag[j]
            qtf[j] = wa4[j]
        gnorm = 0.0  # the scaled gradient's norm
        if fnorm != 0.0:
            qtf_scaled = [q / fnorm for q in qtf]
            for j in range(n):
                if acnorm[ipvt[j]] != 0.0:
                    gnorm = _fmax(gnorm, abs(_dot(a[j][:j + 1], qtf_scaled) / acnorm[ipvt[j]]))
        if gnorm <= GTOL:
            return x, f
        diag = [_fmax(diag[j], acnorm[j]) for j in range(n)]
        while True:
            par, p = lmpar(a, ipvt, diag, qtf, delta, par)
            p = [-v for v in p]
            wa2 = [xl[j] + p[j] for j in range(n)]
            pnorm = enorm([diag[j] * p[j] for j in range(n)])
            if first:
                delta = _fmin(delta, pnorm)
            x2 = np.array(wa2)
            f2 = fun(x2)
            nfev += 1
            fnorm1 = enorm(f2.tolist())
            actred = -1.0  # the scaled actual and predicted reductions, and the directional derivative
            if 0.1 * fnorm1 < fnorm:
                r = fnorm1 / fnorm
                actred = 1.0 - r * r
            wa3 = [0.0] * n
            for j in range(n):
                temp = p[ipvt[j]]
                wa3[:j + 1] = [w + v * temp for v, w in zip(a[j][:j + 1], wa3)]
            temp1 = enorm(wa3) / fnorm
            temp2 = (math.sqrt(par) * pnorm) / fnorm
            prered = temp1 * temp1 + temp2 * temp2 / 0.5
            dirder = -(temp1 * temp1 + temp2 * temp2)
            ratio = actred / prered if prered != 0.0 else 0.0
            if not ratio > 0.25:  # update the step bound
                temp = 0.5 if actred >= 0.0 else _div(0.5 * dirder, dirder + 0.5 * actred)
                if 0.1 * fnorm1 >= fnorm or temp < 0.1:
                    temp = 0.1
                delta = temp * _fmin(delta, pnorm / 0.1)
                par = par / temp
            elif not (par != 0.0 and ratio < 0.75):
                delta = pnorm / 0.5
                par = 0.5 * par
            if not ratio < 1e-4:  # a successful step
                x, f, xl = x2, f2, wa2
                xnorm = enorm([diag[j] * xl[j] for j in range(n)])
                fnorm, first = fnorm1, False
            if abs(actred) <= FTOL and prered <= FTOL and 0.5 * ratio <= 1.0 or delta <= XTOL * xnorm:
                return x, f
            if nfev >= maxfev or abs(actred) <= EPSMCH and prered <= EPSMCH and 0.5 * ratio <= 1.0 \
                    or delta <= EPSMCH * xnorm or gnorm <= EPSMCH:
                return x, f
            if not ratio < 1e-4:
                break
