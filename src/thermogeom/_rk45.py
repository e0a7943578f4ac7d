"""Dormand-Prince 5(4) with dense output and terminal falling events.

A port of the path that ``scipy.integrate.solve_ivp(method="RK45",
dense_output=True, events=...)`` takes in scipy 1.17 on what geodesics ask:
a nonzero span, a finite start that the caller checks, events that are
terminal with ``direction = -1``.  Nodes, states, dense samples, event
times, status and the evaluation count equal scipy's bit for bit.

The reductions whose rounding depends on the BLAS kernel stay numpy
calls on scipy's shapes and memory layouts: the five stage sums
``K[:s].T.dot(a)``, the new state's ``K[:-1].T.dot(B)``, the error
estimate's ``K.T.dot(E)``, the ``x.dot(x)`` of the RMS norm, the
dense-output matrix ``Q = K.T.dot(P)`` of each step, and ``Q.dot(p)`` on
the powers p of each run of samples that one step serves.  The error
estimate is a cancellation, so a reordered sum would move the step size
and, from the third step on, the nodes by up to 3e-9.  All other work is
one IEEE operation at a time, or the C library's pow that numpy's scalar
power calls too, with the same bits as scipy's: on floats (the step
size, the times, the step factor and their tests), on numpy scalars in
the initial-step rule, and elementwise, in place, on arrays (the stage
states, the error scale, the sample powers); each stage's derivative
enters its row as a copy of its floats' bits.  Overflow and invalid
operations give inf and NaN silently, as float arithmetic does.

An event fires when its value goes from >= 0 at one node to <= 0 at the
next; its time is the root of ``event(t, sol(t))`` on the step's
interpolant by ``critical_locus._brentq``, scipy's ``brentq.c``
transcribed, at xtol = 4 EPS.

References: J. R. Dormand and P. J. Prince, J. Comput. Appl. Math. 6
(1980) 19-26 (the pair); L. F. Shampine, Math. Comp. 46 (1986) 135-150
(dense output); E. Hairer, S. P. Norsett and G. Wanner, Solving Ordinary
Differential Equations I, sections II.4-II.6 (initial step, step-size
control, dense output); R. P. Brent, Algorithms for Minimization without
Derivatives (1973), ch. 4 (the root).
"""

from __future__ import annotations

import math
import struct
from typing import NamedTuple

import numpy as np

from .critical_locus import _ROOT_RTOL, _brentq

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
_STAGES = tuple((_A[s][:s], float(_C[s])) for s in range(1, 6))


def _norm(x):
    """RMS norm, by the operations of ``np.linalg.norm`` on a vector."""
    return np.sqrt(x.dot(x)) / x.size ** 0.5


def _select_initial_step(fun, t0, y0, t_bound, f0, direction, rtol, atol):
    """First step of Hairer, Norsett and Wanner, section II.4."""
    interval_length = abs(t_bound - t0)
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


def _quartic(t, t_old, h, y_old, Q):
    """One step's interpolant y_old + h Q (x, x^2, x^3, x^4), x = (t -
    t_old) / h, at the float time ``t``."""
    x = (t - t_old) / h
    x2 = x * x
    x3 = x2 * x
    y = Q.dot(np.array([x, x2, x3, x3 * x]))
    y *= h
    y += y_old
    return y


class _OdeSolution:
    """Dense output of a run with nodes ``ts`` and states ``ys`` (one
    column per node): over step i, of size ``hs[i]``, the quartic of
    ``Qs[i]`` from node i.  At a node the step with the lower index serves;
    a run of one node and no step is constant.  Takes a scalar or a 1-D
    array."""

    def __init__(self, ts, ys, hs, Qs):
        self.ts, self.ys, self.hs, self.Qs = ts, ys, hs, Qs
        self.ascending = ts[-1] >= ts[0]

    def _step(self, t):
        """Index of the step that serves each time of ``t``."""
        last = len(self.Qs) - 1
        if self.ascending:
            return np.clip(np.searchsorted(self.ts, t) - 1, 0, last)
        ind = np.searchsorted(self.ts[::-1], t, side="right")
        return last - np.clip(ind - 1, 0, last)

    def __call__(self, t):
        t = np.asarray(t)
        if not self.Qs:
            value = self.ys[:, -1]
            return value if t.ndim == 0 else np.repeat(value[:, None],
                                                       t.size, axis=1)
        if t.ndim == 0:
            i = int(self._step(t))
            return _quartic(float(t), float(self.ts[i]), self.hs[i],
                            self.ys[:, i], self.Qs[i])

        # scipy sorts the samples and forms h Q.p + y_old on each run of
        # them that one step serves.  Here the elementwise steps, each one
        # IEEE operation per sample, are done for all runs at once; only
        # the product Q.p is formed per run, on the same shapes.
        order = np.argsort(t)
        t_sorted = t[order]
        steps = self._step(t_sorted)
        h = np.array(self.hs)[steps]
        x = (t_sorted - self.ts[steps]) / h
        p = np.cumprod(np.tile(x, (_P.shape[1], 1)), axis=0)
        y = np.empty((self.ys.shape[0], t.size))
        starts = [0, *(np.flatnonzero(np.diff(steps)) + 1).tolist()]
        for a, b, i in zip(starts, [*starts[1:], t.size],
                           steps[starts].tolist()):
            y[:, a:b] = self.Qs[i].dot(p[:, a:b])
        y *= h
        y += self.ys[:, steps]
        out = np.empty_like(y)
        out[:, order] = y
        return out


def _event_root(event, sol, t_old, t):
    """Time in [t_old, t] where ``event(t, sol(t))`` vanishes."""
    def f(x):
        fx = event(x, sol(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return float(fx)

    return _brentq(f, t_old, t, _ROOT_RTOL)


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


@np.errstate(all="ignore")  # inf and NaN arise silently, as for floats
def _solve(fun, t_span, y0, tol, events) -> _Run:
    """Integrate ``y' = fun(t, y)`` over the nonzero ``t_span`` from the
    finite ``y0`` with rtol = atol = ``tol``, to the span's end or the first
    event.  As in scipy, an rtol under 100 EPS is raised to it."""
    t0, t_bound = map(float, t_span)
    y = np.asarray(y0).astype(float, copy=False)
    rtol = max(tol, 100 * _EPS)
    atol = np.asarray(tol)
    direction = math.copysign(1.0, t_bound - t0)
    K = np.empty((7, y.size))
    K[0] = fun(t0, y)
    h_abs = float(_select_initial_step(fun, t0, y, t_bound, K[0], direction,
                                       rtol, atol))
    nfev = 2  # the start and the initial-step rule's probe
    # stage s: the byte offset of the row of K that one C call fills with
    # its derivative's floats, the sum's K[:s].T, its a and c
    put, row = struct.Struct(f"{y.size}d").pack_into, K.strides[0]
    K_bytes = memoryview(K).cast("B")
    stages = [(s * row, K[:s].T, *ac) for s, ac in enumerate(_STAGES, 1)]
    K_steps, K_all = K[:-1].T, K.T
    # numpy multiplies by a 0-d array in less time than by a float
    h_0d, rtol_0d = np.empty(()), np.asarray(rtol)
    abs_y = np.abs(y)
    root_n = y.size ** 0.5

    t = t0
    ts, ys, hs, Qs = [t0], [y0], [], []
    g = [event(t0, y0) for event in events]
    status = event_index = None
    while status is None:
        t_old = t
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            # a NaN step, from a NaN derivative, fails as a tiny one
            if not h_abs >= min_step:
                status = -1
                break
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            h_0d[()] = h

            for at, K_s, a, c in stages:
                dy = K_s.dot(a)
                dy *= h_0d
                dy += y
                put(K_bytes, at, *fun(t + c * h, dy))
            y_new = K_steps.dot(_B)
            y_new *= h_0d
            y_new += y
            put(K_bytes, 6 * row, *fun(t + h, y_new))
            nfev += 6

            abs_new = np.abs(y_new)
            scale = np.maximum(abs_y, abs_new)
            scale *= rtol_0d
            scale += atol
            error = K_all.dot(_E)
            error *= h_0d
            error /= scale
            error_norm = math.sqrt(error.dot(error)) / root_n
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
        y_old, t, y, abs_y = y, t_new, y_new, abs_new
        if direction * (t - t_bound) >= 0:
            status = 0
        Q = K_all.dot(_P)
        K_bytes[:row] = K_bytes[6 * row:]
        hs.append(h)
        Qs.append(Q)

        g_new = [event(t, y) for event in events]
        # the events that fell from >= 0 to <= 0 over the step
        active = [i for i, (old, new) in enumerate(zip(g, g_new))
                  if old >= 0 and new <= 0]
        if active:
            def sol(x):
                return _quartic(x, t_old, h, y_old, Q)

            roots = [_event_root(events[i], sol, t_old, t) for i in active]
            # the first root in the direction of integration ends the run
            first = (min if t > t_old else max)(
                range(len(roots)), key=roots.__getitem__)
            status, event_index, t = 1, active[first], roots[first]
            y = sol(t)
        g = g_new

        if len(ts) > 1 and ts[-1] == t:  # the event fell on the last node
            hs.pop()
            Qs.pop()
        else:
            ts.append(t)
            ys.append(y)

    ts, ys = np.array(ts), np.vstack(ys).T
    return _Run(t=ts, y=ys, sol=_OdeSolution(ts, ys, hs, Qs), nfev=nfev,
                status=status, event=event_index)
