"""Geodesics of the energy Hessian metric in the entropy-volume chart.

Two Christoffel routes are provided: the generic one straight from the
metric and its third partials, and the explicit coefficient formulas
written in terms of the measured response functions.  Both must agree;
the explicit route doubles as a verification target.

Each geodesic stage and sample speed reads only e11 to c222, the Hessian of
U and its third partials, through ``eos_models.hessian_jet`` (inline in a
stage); ``christoffel_from_stack`` and ``metric_speed`` share its arithmetic.

Integration is the Dormand-Prince 5(4) pair with local extrapolation
(Dormand and Prince, J. Comput. Appl. Math. 6 (1980) 19-26) and quartic
dense output, with rtol = atol = ``tol``.  Step-size control follows
Hairer, Norsett and Wanner, Solving Ordinary Differential Equations I,
sections II.4-II.6: the initial-step rule of II.4, an RMS error norm, and
a new step of h * min(10, 0.9 err^(-1/5)) after an accepted step and
h * max(0.2, 0.9 err^(-1/5)) after a rejected one, with no growth
straight after a rejection; the run fails when the step falls under ten
spacings of the floats at t.  The solver is ``_rk45``, a port of scipy
1.17's RK45 whose results equal scipy's bit for bit, so no scipy is
needed.  Terminal events stop the run on domain exit and on approach to
the degeneracy locus, where the coefficients blow up; each event time is
a Brent root on the step's interpolant (Brent, Algorithms for
Minimization without Derivatives, 1973, ch. 4).
"""

from __future__ import annotations

import enum
import itertools
import math
from typing import Callable, NamedTuple

from . import _rk45
from .eos_models import (
    ConstitutiveModel,
    DerivativeStack,
    StatePoint,
    _SV,
    choose,
    hessian_jet,
    libm_for,
    relative_det,
)
from .errors import STATE_ERRORS, DomainError, StepFailure

# Integration stops when the relative determinant (eos_models.relative_det)
# falls below this margin, well outside eos_models.SINGULAR_BAND.
LOCUS_GUARD_BAND = 1e-6
# A run fails after this many accepted steps: the longest tested run takes 978.
STEP_BUDGET = 100_000


class TerminationReason(enum.Enum):
    COMPLETED = "completed"
    DOMAIN_EXIT = "domain_exit"
    LOCUS_PROXIMITY = "locus_proximity"


class GeodesicState(NamedTuple):
    """Position and velocity along a geodesic; ``t`` is the affine
    parameter (not temperature)."""

    s: float
    v: float
    s_dot: float
    v_dot: float
    t: float = 0.0


class ChristoffelSet(NamedTuple):
    """Connection coefficients g^k_ij, symmetric in the lower pair: the
    six values gkij, floats or arrays over a batch."""

    g111: float
    g112: float
    g122: float
    g211: float
    g212: float
    g222: float


def christoffel_elementary(coeffs: DerivativeStack,
                           partials: DerivativeStack,
                           v: float) -> ChristoffelSet:
    """Connection coefficients from measured response functions: t, cv,
    cp, alpha and k of ``coeffs`` and the coefficient partials of
    ``partials``, which are usually one and the same stack.

    When both heat-capacity partials vanish identically (the
    constant-heat-capacity family reports them as exact zeros) the first
    coefficient collapses to 1/(2 cv) and g211 to zero; those values are
    returned exactly rather than through the cancelling general formula.
    """
    t, cv, cp = coeffs.t, coeffs.cv, coeffs.cp
    alpha, k = coeffs.alpha, coeffs.k
    pow_ = libm_for(alpha).pow

    aux_f = partials.dk_dv - (k / alpha) * partials.dalpha_dv
    aux_j = 1.0 - partials.dcv_ds
    aux_d = alpha / k + partials.dcv_dv
    aux_b = alpha / v + partials.dalpha_dv

    g111 = 0.5 * (cp * aux_j / (cv * cv) - t * v * alpha * aux_d / (cv * cv))
    g112 = -0.5 * (aux_d / cv - t * v * alpha * alpha * aux_f / (k * k * cv))
    g122 = 0.5 * (alpha * aux_d / (k * cv)
                  - t * v * pow_(alpha, 3) * aux_f / (pow_(k, 3) * cv)
                  - aux_b / k)
    g211 = 0.5 * (t * v * alpha * aux_j / (cv * cv)
                  - t * v * k * aux_d / (cv * cv))
    g212 = 0.5 * t * v * alpha * aux_f / (k * cv)
    g222 = -0.5 * (cp * aux_f / (k * cv) + aux_b / alpha)

    constant_cv = (partials.dcv_ds == 0.0) & (partials.dcv_dv == 0.0)
    g111 = choose([constant_cv], [0.5 / cv], g111)
    g211 = choose([constant_cv], [0.0], g211)

    return ChristoffelSet(g111=g111, g112=g112, g122=g122,
                          g211=g211, g212=g212, g222=g222)


def christoffel_from_stack(stack: DerivativeStack) -> ChristoffelSet:
    """Generic connection coefficients of a Hessian metric.

    For a metric that is itself a Hessian the derivative combination in
    the Christoffel symbol collapses to half the third-derivative array
    contracted with the inverse metric.  It divides by the determinant
    that the stack's completion checked.
    """
    return ChristoffelSet(*_christoffel(stack.det, *stack[5:12]))


def _christoffel(det, e11, e12, e22, c111, c112, c122, c222) -> tuple:
    """g111 to g222 from the Hessian, its nonzero det and third partials."""
    i11 = e22 / det
    i12 = -e12 / det
    i22 = e11 / det
    return (0.5 * (i11 * c111 + i12 * c112),
            0.5 * (i11 * c112 + i12 * c122),
            0.5 * (i11 * c122 + i12 * c222),
            0.5 * (i12 * c111 + i22 * c112),
            0.5 * (i12 * c112 + i22 * c122),
            0.5 * (i12 * c122 + i22 * c222))


def metric_speed(stack: DerivativeStack, s_dot: float, v_dot: float) -> float:
    """Squared metric length of a velocity vector."""
    return _speed(stack.e11, stack.e12, stack.e22, s_dot, v_dot)


def _speed(e11, e12, e22, s_dot, v_dot):
    return (e11 * s_dot * s_dot
            + 2.0 * e12 * s_dot * v_dot
            + e22 * v_dot * v_dot)


class GeodesicTrajectory(NamedTuple):
    times: tuple[float, ...]
    states: tuple[GeodesicState, ...]
    speeds: tuple[float, ...]
    termination: TerminationReason
    interpolant: Callable


def integrate_geodesic(model: ConstitutiveModel,
                       init: GeodesicState,
                       t_end: float,
                       tol: float = 1e-10) -> GeodesicTrajectory:
    """Integrate the geodesic equations from ``init`` to affine time
    ``t_end``.

    The integrator is the Dormand-Prince 5(4) pair of the module
    docstring, with atol = ``tol`` and rtol = max(``tol``, 100 machine
    epsilons); terminal events stop the run on domain exit or when the
    metric determinant falls under the locus guard band.
    """
    if not math.isfinite(t_end):
        raise DomainError(f"t_end must be finite, got {t_end}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be finite and positive, got {tol}")
    start = StatePoint.entropy_volume(init.s, init.v)
    start_stack = model.derivative_stack(start)  # validates admissibility
    det_sign = math.copysign(1.0, start_stack.det)

    nan4 = [math.nan] * 4
    floor = model.covolume
    fields = model._fields
    # The Hessian and third partials, (e11, ..., c222), by (S, V) of the
    # points that the events, their roots and the speeds read.  The
    # right-hand side reads no memo and keeps only its latest point: RK45's
    # last stage is the accepted one, where the locus event finds it.  None
    # marks a point that is no state.
    memo = {(float(init.s), float(init.v)): start_stack[5:12]}
    last = [None, None]  # key and entries of the latest evaluation

    def hessian_at(s, v):
        key = s, v = float(s), float(v)
        if key not in memo:
            try:
                memo[key] = (last[1] if last[0] == key
                             else hessian_jet(model, s, v)[5:12])
            except STATE_ERRORS:
                memo[key] = None
        return memo[key]

    def rhs(_t, y):
        s, v, sd, vd = y.tolist()  # floats: numpy scalars cost more per op
        hessian = None  # hessian_jet, inline; trial states may be no state
        if math.isfinite(s) and math.isfinite(v) and v > 0.0:
            try:
                hessian = fields(_SV, s, v)[5:12]
            except STATE_ERRORS:
                pass
        last[0], last[1] = (s, v), hessian
        if hessian is None:
            return nan4
        det = hessian[0] * hessian[2] - hessian[1] * hessian[1]  # stack.det
        if det == 0.0 or not math.isfinite(det):
            return nan4
        g111, g112, g122, g211, g212, g222 = _christoffel(det, *hessian)
        sdd = -(g111 * sd * sd + 2.0 * g112 * sd * vd + g122 * vd * vd)
        vdd = -(g211 * sd * sd + 2.0 * g212 * sd * vd + g222 * vd * vd)
        return [sd, vd, sdd, vdd]

    steps = itertools.count()  # the event runs once per accepted step

    def locus_event(_t, y):
        # Signed relative determinant so the zero crossing cannot hide
        # between step endpoints (|det| is large on both sides of the
        # locus).  Trial states may already be inadmissible, hence the
        # crossed-sentinel fallback.
        if next(steps) > STEP_BUDGET:
            raise StepFailure(f"integration failed: {STEP_BUDGET} steps "
                              f"did not reach t_end = {t_end}")
        hessian = hessian_at(y[0], y[1])
        if hessian is None:
            return -1.0
        return det_sign * relative_det(*hessian[:3]) - LOCUS_GUARD_BAND

    locus_event.direction = -1.0

    # The event fires a hair inside the admissible region so the solver
    # can complete a bracketing step before the right-hand side goes
    # undefined at the boundary itself.  Distances to the floor count in
    # units of the start's, so neither guard depends on the volume unit.
    reach = init.v - floor
    floor_eff = floor + 1e-9 * reach

    def domain_event(_t, y):
        return y[1] - floor_eff

    domain_event.direction = -1.0

    y0 = [init.s, init.v, init.s_dot, init.v_dot]
    near_locus = abs(relative_det(*start_stack[5:8])) <= LOCUS_GUARD_BAND
    if near_locus or t_end == 0.0:
        # The locus event fires only on a sign change, which a start inside
        # the guard band never shows: stop at the start, on its one node,
        # as a zero span ends.
        run = _rk45._solve(rhs, (init.t, init.t), y0, tol, [])
        return _trajectory(run._replace(t=run.t[:1], y=run.y[:, :1]),
                           TerminationReason.LOCUS_PROXIMITY if near_locus
                           else TerminationReason.COMPLETED, hessian_at)
    run = _rk45._solve(rhs, (init.t, init.t + t_end), y0, tol,
                       [locus_event, domain_event])
    return _trajectory(run, _termination(run, floor, reach, hessian_at),
                       hessian_at)


# by the index of the event in the list integrate_geodesic passes
_EVENT_REASONS = (TerminationReason.LOCUS_PROXIMITY,
                  TerminationReason.DOMAIN_EXIT)


def _termination(run, floor, reach, hessian_at) -> TerminationReason:
    """Why a solver run stopped; ``reach`` is the start's distance to the
    volume floor.  A step collapse right at a boundary is a domain or locus
    report, anywhere else an integrator failure."""
    if run.status == 0:
        return TerminationReason.COMPLETED
    if run.status == 1:
        return _EVENT_REASONS[run.event]
    s_last, v_last = float(run.y[0, -1]), float(run.y[1, -1])
    if v_last - floor <= 1e-6 * reach:
        return TerminationReason.DOMAIN_EXIT
    hessian = hessian_at(s_last, v_last)
    if hessian is not None and (abs(relative_det(*hessian[:3]))
                                <= 10.0 * LOCUS_GUARD_BAND):
        return TerminationReason.LOCUS_PROXIMITY
    raise StepFailure(f"integration failed: {_rk45._TOO_SMALL_STEP}")


def _trajectory(run, termination, hessian_at) -> GeodesicTrajectory:
    """Nodes, speeds and dense output of a finished solver run."""
    times = tuple(run.t.tolist())
    states = tuple(GeodesicState(s, v, sd, vd, t)
                   for t, (s, v, sd, vd) in zip(times, run.y.T.tolist()))
    speeds = tuple(math.nan if (hessian := hessian_at(st.s, st.v)) is None
                   else _speed(*hessian[:3], st.s_dot, st.v_dot)
                   for st in states)
    return GeodesicTrajectory(times=times, states=states, speeds=speeds,
                              termination=termination,
                              interpolant=run.sol)
