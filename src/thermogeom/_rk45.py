"""Dormand-Prince 5(4) with dense output and terminal events.

A port of the path that ``scipy.integrate.solve_ivp(method="RK45",
dense_output=True, events=...)`` takes in scipy 1.17, so geodesics need
no scipy.  It keeps scipy's numpy operations (the stage sums by
``np.dot``, the RMS norm, the dense-output matrix ``Q = K.T.dot(P)``)
rather than rewriting them as float loops: the error estimate is a
cancellation, so a reordered sum moves the step size and, from the third
step on, the nodes by up to 3e-9.  Nodes, states, dense samples, event
times, status and the evaluation count equal scipy's bit for bit.

Every event is terminal and fires on a sign change in its ``direction``
attribute (-1 falling, +1 rising, 0 either); its time is the root of
``event(t, sol(t))`` on the step's interpolant, found by a transcription
of scipy's ``brentq.c`` with xtol = rtol = 4 EPS.

References: J. R. Dormand and P. J. Prince, J. Comput. Appl. Math. 6
(1980) 19-26 (the pair); L. F. Shampine, Math. Comp. 46 (1986) 135-150
(dense output); E. Hairer, S. P. Norsett and G. Wanner, Solving Ordinary
Differential Equations I, sections II.4-II.6 (initial step, step-size
control, dense output); R. P. Brent, Algorithms for Minimization without
Derivatives (1973), ch. 4 (the root).
"""

from __future__ import annotations

import math
from itertools import groupby
from typing import NamedTuple

import numpy as np

_EPS = np.finfo(float).eps
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."

# Step-size controller: the error estimate is of order 4.
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10
_ERROR_EXPONENT = -1 / 5

_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]
])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525,
               1/40])
# Dense output of Shampine's optimum c_6.
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
# Stage rows 1..5: (the row's coefficients below the diagonal, c)
_STAGES = tuple((_A[s][:s], _C[s]) for s in range(1, 6))


def _norm(x):
    """RMS norm, by the operations of ``np.linalg.norm`` on a vector."""
    return np.sqrt(x.dot(x)) / x.size ** 0.5


def _select_initial_step(fun, t0, y0, t_bound, f0, direction, rtol, atol):
    """First step of Hairer, Norsett and Wanner, section II.4."""
    interval_length = abs(t_bound - t0)
    if interval_length == 0.0:
        return 0.0
    scale = atol + np.abs(y0) * rtol
    d0 = _norm(y0 / scale)
    d1 = _norm(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * direction * f0
    f1 = fun(t0 + h0 * direction, y1)
    d2 = _norm((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval_length)


class _RkDenseOutput:
    """Quartic interpolant over one step: y_old + h Q (x, x^2, x^3, x^4)."""

    def __init__(self, t_old, t, y_old, Q):
        self.t_old = t_old
        self.h = t - t_old
        self.Q = Q
        self.order = Q.shape[1] - 1
        self.y_old = y_old

    def __call__(self, t):
        t = np.asarray(t)
        x = (t - self.t_old) / self.h
        if t.ndim == 0:
            p = np.tile(x, self.order + 1)
            p = np.cumprod(p)
        else:
            p = np.tile(x, (self.order + 1, 1))
            p = np.cumprod(p, axis=0)
        y = self.h * np.dot(self.Q, p)
        if y.ndim == 2:
            y += self.y_old[:, None]
        else:
            y += self.y_old
        return y


class _ConstantDenseOutput:
    """Interpolant of a zero-length span."""

    def __init__(self, value):
        self.value = value

    def __call__(self, t):
        t = np.asarray(t)
        if t.ndim == 0:
            return self.value
        ret = np.empty((self.value.shape[0], t.shape[0]))
        ret[:] = self.value[:, None]
        return ret


class _OdeSolution:
    """The step interpolants joined at the nodes ``ts``; at a node the
    segment with the lower index is used.  Takes a scalar or a 1-D array."""

    def __init__(self, ts, interpolants):
        self.n_segments = len(interpolants)
        self.interpolants = interpolants
        if ts[-1] >= ts[0]:
            self.ascending = True
            self.side = "left"
            self.ts_sorted = ts
        else:
            self.ascending = False
            self.side = "right"
            self.ts_sorted = ts[::-1]

    def __call__(self, t):
        t = np.asarray(t)
        if t.ndim == 0:
            ind = np.searchsorted(self.ts_sorted, t, side=self.side)
            segment = min(max(ind - 1, 0), self.n_segments - 1)
            if not self.ascending:
                segment = self.n_segments - 1 - segment
            return self.interpolants[segment](t)

        order = np.argsort(t)
        reverse = np.empty_like(order)
        reverse[order] = np.arange(order.shape[0])
        t_sorted = t[order]
        segments = np.searchsorted(self.ts_sorted, t_sorted, side=self.side)
        segments -= 1
        segments[segments < 0] = 0
        segments[segments > self.n_segments - 1] = self.n_segments - 1
        if not self.ascending:
            segments = self.n_segments - 1 - segments
        ys = []
        group_start = 0
        for segment, group in groupby(segments):
            group_end = group_start + len(list(group))
            ys.append(self.interpolants[segment](t_sorted[group_start:group_end]))
            group_start = group_end
        return np.hstack(ys)[:, reverse]


def _find_active_events(g, g_new, directions):
    """Indices of the events whose value crossed zero in their direction."""
    active = []
    for i, (old, new, direction) in enumerate(zip(g, g_new, directions)):
        up = old <= 0 and new >= 0
        down = old >= 0 and new <= 0
        if (up and direction > 0 or down and direction < 0
                or (up or down) and direction == 0):
            active.append(i)
    return active


def _brentq(f, xa, xb, xtol, rtol, maxiter):
    """Root of ``f`` bracketed by ``xa`` and ``xb``, transcribed from
    scipy's ``brentq.c`` (Brent's method with inverse quadratic
    extrapolation); ``f`` takes and returns floats."""
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = f(xpre)
    fcur = f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if (fpre != 0 and fcur != 0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        short = False
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                pass  # C's infinite or NaN trial step fails the test below
            else:
                limit = 3 * abs(sbis) - delta
                if abs(spre) < limit:
                    limit = abs(spre)
                short = 2 * abs(stry) < limit
        if short:
            spre, scur = scur, stry
        else:  # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, "
                       f"value is {xcur:f}")


def _event_root(event, sol, t_old, t):
    """Time in [t_old, t] where ``event(t, sol(t))`` vanishes."""
    def f(x):
        fx = event(x, sol(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return float(fx)

    return _brentq(f, t_old, t, 4 * _EPS, 4 * _EPS, 100)


class _Run(NamedTuple):
    """Result of ``_solve``: node times ``t``, states ``y`` (one column per
    node), the dense output ``sol``, right-hand-side evaluations ``nfev``,
    ``status`` (-1 step collapse, 0 end of span, 1 event) and the index of
    the event that ended the run at ``t[-1]``, or None."""

    t: np.ndarray
    y: np.ndarray
    sol: _OdeSolution
    nfev: int
    status: int
    event: int | None


def _solve(fun, t_span, y0, tol, events) -> _Run:
    """Integrate ``y' = fun(t, y)`` over ``t_span`` from ``y0`` with
    rtol = atol = ``tol``, until the end of the span or the first event.
    As in scipy, an rtol under 100 EPS is raised to it (scipy also warns)."""
    t0, t_bound = map(float, t_span)
    y = np.asarray(y0).astype(float, copy=False)
    if not np.isfinite(y).all():
        raise ValueError("All components of the initial state `y0` must "
                         "be finite.")
    rtol = max(tol, 100 * _EPS)
    atol = np.asarray(tol)
    directions = [event.direction for event in events]

    def f_of(t, y):
        return np.asarray(fun(t, y), dtype=float)

    direction = np.sign(t_bound - t0) if t_bound != t0 else 1
    f = f_of(t0, y)
    h_abs = _select_initial_step(f_of, t0, y, t_bound, f, direction,
                                 rtol, atol)
    nfev = 1 if t_bound == t0 else 2
    K = np.empty((7, y.size))
    K_rows = [K[:s].T for s in range(1, 6)]
    K_steps, K_all = K[:-1].T, K.T

    t = t0
    ts, ys, interpolants = [t0], [y0], []
    g = [event(t0, y0) for event in events]
    status = event_index = None
    while status is None:
        t_old = t
        if t == t_bound:  # zero-length span
            status = 0
            sol = _ConstantDenseOutput(y)
        else:
            min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
            if h_abs < min_step:
                h_abs = min_step
            rejected = False
            while True:
                if h_abs < min_step:
                    status = -1
                    break
                h = h_abs * direction
                t_new = t + h
                if direction * (t_new - t_bound) > 0:
                    t_new = t_bound
                h = t_new - t
                h_abs = np.abs(h)

                K[0] = f
                for row, (a, c) in zip(K_rows, _STAGES):
                    dy = np.dot(row, a) * h
                    K[len(a)] = fun(t + c * h, y + dy)
                y_new = y + h * np.dot(K_steps, _B)
                f_new = f_of(t + h, y_new)
                K[-1] = f_new
                nfev += 6

                scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
                error_norm = _norm(np.dot(K_all, _E) * h / scale)
                if error_norm < 1:
                    if error_norm == 0:
                        factor = _MAX_FACTOR
                    else:
                        factor = min(_MAX_FACTOR,
                                     _SAFETY * error_norm ** _ERROR_EXPONENT)
                    if rejected:
                        factor = min(1, factor)
                    h_abs *= factor
                    break
                h_abs *= max(_MIN_FACTOR,
                             _SAFETY * error_norm ** _ERROR_EXPONENT)
                rejected = True
            if status == -1:
                break
            y_old, t, y, f = y, t_new, y_new, f_new
            if direction * (t - t_bound) >= 0:
                status = 0
            sol = _RkDenseOutput(t_old, t, y_old, K_all.dot(_P))
        interpolants.append(sol)

        g_new = [event(t, y) for event in events]
        active = _find_active_events(g, g_new, directions)
        if active:
            roots = [_event_root(events[i], sol, t_old, t) for i in active]
            # the first root in the direction of integration ends the run
            first = (min if t > t_old else max)(
                range(len(roots)), key=roots.__getitem__)
            status, event_index, t = 1, active[first], roots[first]
            y = sol(t)
        g = g_new

        if len(ts) > 1 and ts[-1] == t:
            interpolants.pop()  # the event fell on the previous node
        else:
            ts.append(t)
            ys.append(y)

    ts = np.array(ts)
    return _Run(t=ts, y=np.vstack(ys).T,
                sol=_OdeSolution(ts, interpolants), nfev=nfev,
                status=status, event=event_index)
