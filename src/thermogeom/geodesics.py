"""Geodesics of the energy Hessian metric in the entropy-volume chart.

Two Christoffel routes are provided: the generic one straight from the
metric and its third partials, and the explicit coefficient formulas
written in terms of the measured response functions.  Both must agree;
the explicit route doubles as a verification target.  Integration is an
adaptive embedded Runge-Kutta scheme with terminal guards for domain
exit and for approach to the degeneracy locus, where the coefficients
blow up.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np
from scipy.integrate import solve_ivp

from .eos_models import (
    Coefficients,
    CoefficientPartials,
    ConstitutiveModel,
    DerivativeStack,
    StatePoint,
    degeneracy_scale,
)
from .errors import SingularState, StepFailure, ThermogeomError

# Integration stops when |det| falls below this fraction of its scale.
LOCUS_GUARD_BAND = 1e-6


class TerminationReason(enum.Enum):
    COMPLETED = "completed"
    DOMAIN_EXIT = "domain_exit"
    LOCUS_PROXIMITY = "locus_proximity"


@dataclass(frozen=True)
class GeodesicState:
    """Position and velocity along a geodesic; ``t`` is the affine
    parameter (not temperature)."""

    s: float
    v: float
    s_dot: float
    v_dot: float
    t: float = 0.0


@dataclass(frozen=True)
class ChristoffelSet:
    """Connection coefficients g^k_ij, symmetric in the lower pair.

    ``aux`` carries the intermediate response-function combinations the
    explicit formulas are built from:
      F = dk_dV - (k/alpha) dalpha_dV
      J = 1 - dcv_dS
      D = alpha/k + dcv_dV
      B = alpha/V + dalpha_dV
    """

    g111: float
    g112: float
    g122: float
    g211: float
    g212: float
    g222: float
    aux: Mapping[str, float]


def christoffel_elementary(coeffs: Coefficients,
                           partials: CoefficientPartials,
                           v: float) -> ChristoffelSet:
    """Connection coefficients from measured response functions.

    When both heat-capacity partials vanish identically (the
    constant-heat-capacity family reports them as exact zeros) the first
    coefficient collapses to 1/(2 cv) and g211 to zero; those values are
    returned exactly rather than through the cancelling general formula.
    """
    t, cv, cp = coeffs.t, coeffs.cv, coeffs.cp
    alpha, k = coeffs.alpha, coeffs.k
    if k == 0.0 or alpha == 0.0:
        raise SingularState(
            "explicit coefficient formulas need nonzero alpha and k")

    aux_f = partials.dk_dV - (k / alpha) * partials.dalpha_dV
    aux_j = 1.0 - partials.dcv_dS
    aux_d = alpha / k + partials.dcv_dV
    aux_b = alpha / v + partials.dalpha_dV

    g111 = 0.5 * (cp * aux_j / (cv * cv) - t * v * alpha * aux_d / (cv * cv))
    g112 = -0.5 * (aux_d / cv - t * v * alpha * alpha * aux_f / (k * k * cv))
    g122 = 0.5 * (alpha * aux_d / (k * cv)
                  - t * v * alpha ** 3 * aux_f / (k ** 3 * cv)
                  - aux_b / k)
    g211 = 0.5 * (t * v * alpha * aux_j / (cv * cv)
                  - t * v * k * aux_d / (cv * cv))
    g212 = 0.5 * t * v * alpha * aux_f / (k * cv)
    g222 = -0.5 * (cp * aux_f / (k * cv) + aux_b / alpha)

    if partials.dcv_dS == 0.0 and partials.dcv_dV == 0.0:
        g111 = 0.5 / cv
        g211 = 0.0

    return ChristoffelSet(g111=g111, g112=g112, g122=g122,
                          g211=g211, g212=g212, g222=g222,
                          aux={"F": aux_f, "J": aux_j,
                               "D": aux_d, "B": aux_b})


def christoffel_from_stack(stack: DerivativeStack) -> ChristoffelSet:
    """Generic connection coefficients of a Hessian metric.

    For a metric that is itself a Hessian the derivative combination in
    the Christoffel symbol collapses to half the third-derivative array
    contracted with the inverse metric.
    """
    det = stack.det
    if det == 0.0:
        raise SingularState("metric is degenerate", det=det)
    i11 = stack.e22 / det
    i12 = -stack.e12 / det
    i22 = stack.e11 / det
    c111, c112, c122, c222 = stack.c111, stack.c112, stack.c122, stack.c222
    return ChristoffelSet(
        g111=0.5 * (i11 * c111 + i12 * c112),
        g112=0.5 * (i11 * c112 + i12 * c122),
        g122=0.5 * (i11 * c122 + i12 * c222),
        g211=0.5 * (i12 * c111 + i22 * c112),
        g212=0.5 * (i12 * c112 + i22 * c122),
        g222=0.5 * (i12 * c122 + i22 * c222),
        aux={})


def metric_speed(stack: DerivativeStack, s_dot: float, v_dot: float) -> float:
    """Squared metric length of a velocity vector."""
    return (stack.e11 * s_dot * s_dot
            + 2.0 * stack.e12 * s_dot * v_dot
            + stack.e22 * v_dot * v_dot)


@dataclass(frozen=True)
class GeodesicTrajectory:
    times: tuple[float, ...]
    states: tuple[GeodesicState, ...]
    speeds: tuple[float, ...]
    termination: TerminationReason
    interpolant: Callable | None

    @property
    def final_state(self) -> GeodesicState:
        return self.states[-1]

    def at(self, t: float) -> GeodesicState:
        """Dense-output sample at an affine parameter inside the span."""
        if self.interpolant is None:
            raise ValueError("trajectory has no dense output")
        lo, hi = self.times[0], self.times[-1]
        if not lo <= t <= hi:
            raise ValueError(f"t={t} outside integrated span [{lo}, {hi}]")
        s, v, sd, vd = self.interpolant(t)
        return GeodesicState(s=float(s), v=float(v),
                             s_dot=float(sd), v_dot=float(vd), t=t)


def integrate_geodesic(model: ConstitutiveModel,
                       init: GeodesicState,
                       t_end: float,
                       tol: float = 1e-10) -> GeodesicTrajectory:
    """Integrate the geodesic equations from ``init`` to affine time
    ``t_end``.

    The integrator is adaptive embedded Runge-Kutta (order 4/5 pair);
    terminal events stop the run on domain exit or when the metric
    determinant falls under the locus guard band.
    """
    start = StatePoint.entropy_volume(init.s, init.v)
    start_stack = model.derivative_stack(start)  # validates admissibility
    det_sign = math.copysign(1.0, start_stack.det)

    nan4 = [math.nan] * 4
    floor = model.covolume

    def stack_at(s, v):
        # trial states may already be inadmissible; None marks those
        try:
            return model.derivative_stack(
                StatePoint.entropy_volume(s, v), check_singular=False)
        except (ThermogeomError, ValueError, OverflowError):
            return None

    def rhs(_t, y):
        s, v, sd, vd = y
        stack = stack_at(s, v)
        if stack is None:
            return nan4
        det = stack.det
        if det == 0.0 or not math.isfinite(det):
            return nan4
        gam = christoffel_from_stack(stack)
        sdd = -(gam.g111 * sd * sd + 2.0 * gam.g112 * sd * vd
                + gam.g122 * vd * vd)
        vdd = -(gam.g211 * sd * sd + 2.0 * gam.g212 * sd * vd
                + gam.g222 * vd * vd)
        return [sd, vd, sdd, vdd]

    def locus_event(_t, y):
        # Signed relative determinant so the zero crossing cannot hide
        # between step endpoints (|det| is large on both sides of the
        # locus).  Trial states may already be inadmissible, hence the
        # crossed-sentinel fallback.
        stack = stack_at(y[0], y[1])
        if stack is None:
            return -1.0
        scale = degeneracy_scale(stack.e11, stack.e12, stack.e22)
        return det_sign * stack.det / scale - LOCUS_GUARD_BAND

    locus_event.terminal = True
    locus_event.direction = -1.0

    # The event fires a hair inside the admissible region so the solver
    # can complete a bracketing step before the right-hand side goes
    # undefined at the boundary itself.
    floor_eff = floor + 1e-9

    def domain_event(_t, y):
        return y[1] - floor_eff

    domain_event.terminal = True
    domain_event.direction = -1.0

    sol = solve_ivp(rhs, (init.t, init.t + t_end),
                    [init.s, init.v, init.s_dot, init.v_dot],
                    method="RK45", rtol=tol, atol=tol,
                    dense_output=True, events=[locus_event, domain_event])
    if sol.status == -1:
        # Step collapse right at a boundary is a domain/locus report, not
        # an integrator failure.
        s_last, v_last = float(sol.y[0, -1]), float(sol.y[1, -1])
        if v_last - floor <= 1e-6 * max(1.0, abs(v_last)):
            sol.status = 1
            sol.t_events = [np.array([]), np.array([sol.t[-1]])]
        else:
            stack = stack_at(s_last, v_last)
            near_locus = stack is not None and (
                abs(stack.det) / degeneracy_scale(stack.e11, stack.e12, stack.e22)
                <= 10.0 * LOCUS_GUARD_BAND)
            if near_locus:
                sol.status = 1
                sol.t_events = [np.array([sol.t[-1]]), np.array([])]
            else:
                raise StepFailure(f"integration failed: {sol.message}")

    if sol.status == 1:
        if len(sol.t_events[0]) > 0:
            termination = TerminationReason.LOCUS_PROXIMITY
        else:
            termination = TerminationReason.DOMAIN_EXIT
    else:
        termination = TerminationReason.COMPLETED

    times = tuple(float(t) for t in sol.t)
    states = []
    speeds = []
    for t, col in zip(times, np.transpose(sol.y)):
        s, v, sd, vd = map(float, col)
        states.append(GeodesicState(s=s, v=v, s_dot=sd, v_dot=vd, t=t))
        stack = stack_at(s, v)
        speeds.append(math.nan if stack is None
                      else metric_speed(stack, sd, vd))
    return GeodesicTrajectory(times=times, states=tuple(states),
                              speeds=tuple(speeds),
                              termination=termination,
                              interpolant=sol.sol)
