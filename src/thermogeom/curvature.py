"""Scalar curvature of Hessian metrics by independent routes.

Routes implemented:

* ``tensorial``: the Riemann / Ricci index contraction of the 2D metric
  record's arrays, built from second and third potential partials only
  (the fourth-derivative terms cancel for Hessian metrics).  ``_ricci``
  is written for any dimension and tested at n = 2, 3 and 4.
* ``closed2d``: the 2D determinant formula on a metric-plus-partials stack.
* ``elementary``: the coefficient-form expression through H, G, F, J.
* ``model_closed``: the model's own closed form, its
  ``closed_curvature`` (ideal gas, van der Waals, the constant-cv family,
  Berthelot), where it has one.

A :func:`curvature_report` bundles every applicable route with the
pairwise agreement residual, and the conformal bridge between the energy
and entropy metrics lives here as well.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

import numpy as np

from .eos_models import (
    FD_STEP_FIRST,
    Berthelot,
    ConstantCv,
    ConstitutiveModel,
    DerivativeStack,
    StatePoint,
    checked_det,
    choose,
    libm_for,
    stack_at,
)
from .errors import DomainError, UnsupportedModel
from .metric_core import MetricTensor2, ruppeiner_metric, weinhold_metric


class FlatnessClass(enum.Enum):
    EXPONENTIAL_F1 = "exponential_f1"
    AFFINE_F2 = "affine_f2"
    DEGENERATE_F1_ZERO = "degenerate_f1_zero"
    NON_FLAT = "non_flat"


class CurvatureReport(NamedTuple):
    """Every route's curvature at one state, their spread and, for
    Berthelot, the published polynomial form's mismatch."""

    r_tensorial: float
    r_closed2d: float
    r_elementary: float
    r_model_closed: float | None
    max_pairwise_residual: float
    discrepancy: str | None = None


def _ricci(dg: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    # riemann[l, i, j, k] = (1/4) sum over m, s, nn of
    #   (dg[i, j, m] dg[s, nn, k] - dg[s, nn, j] dg[k, i, m]) ginv[m, nn] ginv[l, s];
    # fourth-derivative terms cancel for Hessian metrics.  It is contracted
    # through a[i, j, nn] = dg[i, j, m] ginv[m, nn] and
    # b[l, nn, k] = ginv[l, s] dg[s, nn, k]; ricci[i, k] contracts the upper
    # index against the first lower derivative slot.  A batch's cells ride
    # on the last axes, so numpy's inner loop runs over the cells.
    a = np.einsum("ijm...,mn...->ijn...", dg, ginv)
    b = np.einsum("ls...,snk...->lnk...", ginv, dg)
    riem = 0.25 * (np.einsum("ijn...,lnk...->lijk...", a, b)
                   - np.einsum("kin...,lnj...->lijk...", a, b))
    return np.einsum("lilk...->ik...", riem)


def scalar_curvature_tensorial(metric: MetricTensor2):
    """Scalar curvature by the index contraction of the metric's arrays: a
    float, or an array over a grid's cells.  The batched LAPACK inverse
    and contraction round each cell exactly as a single one.  A degenerate
    metric raises SingularState before the inverse is taken."""
    checked_det(metric.e11, metric.e12, metric.e22, "metric not invertible")
    batch = np.broadcast(*metric).shape
    g = np.empty((2, 2) + batch)
    g[0, 0] = metric.e11
    g[0, 1] = g[1, 0] = metric.e12
    g[1, 1] = metric.e22
    dg = np.empty((2, 2, 2) + batch)
    dg[0, 0, 0] = metric.c111
    dg[0, 0, 1] = dg[0, 1, 0] = dg[1, 0, 0] = metric.c112
    dg[0, 1, 1] = dg[1, 0, 1] = dg[1, 1, 0] = metric.c122
    dg[1, 1, 1] = metric.c222
    # LAPACK takes the cells first: g.T, as each cell's matrix is symmetric
    ginv = np.linalg.inv(g.T).T.swapaxes(0, 1).copy()
    r = np.sum(ginv * _ricci(dg, ginv), axis=(0, 1))
    return float(r) if r.ndim == 0 else r


def scalar_curvature_closed2d(metric: MetricTensor2) -> float:
    """2D scalar curvature -det3 / (2 det^2) from the Hessian jet: the
    metric's three entries and its four third partials."""
    e11, e12, e22, c111, c112, c122, c222 = metric
    det = checked_det(e11, e12, e22,
                      "curvature diverges on the degeneracy locus")
    det3 = (e11 * (c112 * c222 - c122 * c122)
            - e12 * (c111 * c222 - c112 * c122)
            + e22 * (c111 * c122 - c112 * c112))
    return -det3 / (2.0 * det * det)


def scalar_curvature_elementary(st: DerivativeStack) -> float:
    """Coefficient-form curvature through H, G, F and J.

    Reads the stack's response coefficients, their partials and the
    volume; the determinant is taken in its coefficient form T/(k V cv), so
    this route never touches the Hessian entries directly.  Where alpha,
    k or cv vanishes it divides by zero, as floats do.
    """
    t, v, cv, cp, alpha, k = st.t, st.v, st.cv, st.cp, st.alpha, st.k
    det = t / (k * v * cv)

    h = (alpha / k - cv / v
         + ((cp - cv) / alpha) * st.dalpha_dv
         - (cp / k) * st.dk_dv
         + st.dcv_dv)
    g = st.dcv_dv + (alpha / k) * st.dcv_ds
    f = st.dk_dv - (k / alpha) * st.dalpha_dv
    j = 1.0 - st.dcv_ds

    bracket = h * g + (cv * alpha / (k * k)) * f * (t * v * alpha * f / k - j)
    return t / (2.0 * libm_for(cv).pow(cv, 3) * det) * bracket


def negativity_test(model: ConstitutiveModel, state: StatePoint) -> bool:
    """True iff the constant-cv curvature is negative.

    Negative exactly when the entropy rate of ln k lies strictly between
    -1/cv and 0.
    """
    if not isinstance(model, ConstantCv):
        raise UnsupportedModel("negativity test needs a ConstantCv model")
    st = model.derivative_stack(state)
    u = st.cv * st.dk_ds / st.k
    # The window is open.  Models that sit exactly on an edge (the
    # attraction-free gas has u = -1 identically) land a few ulps to
    # either side of it after rounding, so values within rounding slack
    # of an edge count as on it and the predicate is false there.
    slack = 64.0 * math.ulp(1.0) * max(1.0, abs(u))
    if abs(u) <= slack or abs(u + 1.0) <= slack:
        return False
    return -1.0 < u < 0.0


# ---------------------------------------------------------------------------
# Conformal bridge between the energy and entropy metrics


def laplace_beltrami_log_t(model: ConstitutiveModel,
                           state: StatePoint | DerivativeStack,
                           scheme: str = "analytic") -> float:
    """Laplace-Beltrami of ln T under the energy metric, in (S, V).

    The analytic scheme collapses the divergence form exactly; the ``fd``
    scheme differentiates the flux components centrally, using analytic
    inner gradients.
    """
    st = stack_at(model, state)
    if scheme == "analytic":
        det = st.det
        return st.det_s / (2.0 * det * st.t) - st.e11 / (st.t * st.t)
    if scheme != "fd":
        raise ValueError(f"unknown scheme {scheme!r}")

    def flux(s, v):
        stack = model.derivative_stack(StatePoint.entropy_volume(s, v))
        root = math.sqrt(abs(stack.det))
        grad_s = stack.e11 / stack.t
        grad_v = stack.e12 / stack.t
        # inverse metric entries in coefficient form
        g11 = stack.cp / stack.t
        g12 = stack.v * stack.alpha
        g22 = stack.k * stack.v
        return (root * (g11 * grad_s + g12 * grad_v),
                root * (g12 * grad_s + g22 * grad_v))

    s, v = st.s, st.v
    hs = max(abs(s), 1.0) * FD_STEP_FIRST
    hv = max(abs(v), 1.0) * FD_STEP_FIRST
    div = ((flux(s + hs, v)[0] - flux(s - hs, v)[0]) / (2.0 * hs)
           + (flux(s, v + hv)[1] - flux(s, v - hv)[1]) / (2.0 * hv))
    return div / math.sqrt(abs(st.det))


def ruppeiner_direct_curvature(model: ConstitutiveModel,
                               state: StatePoint | DerivativeStack) -> float:
    """Curvature of the entropy metric computed directly in the (U, V) chart.

    The stability-oriented metric is the negated Hessian of S, and negating
    a metric negates its 2D scalar curvature.
    """
    return -scalar_curvature_closed2d(ruppeiner_metric(stack_at(model, state)))


def ruppeiner_from_weinhold(model: ConstitutiveModel,
                            state: StatePoint | DerivativeStack,
                            scheme: str = "analytic") -> float:
    """Entropy-metric curvature via the conformal relation.

    R(entropy metric) = T R(energy metric) + T Lap(ln T).
    """
    st = stack_at(model, state)
    r_energy = scalar_curvature_closed2d(weinhold_metric(model, st))
    lap = laplace_beltrami_log_t(model, st, scheme=scheme)
    return st.t * (r_energy + lap)


# ---------------------------------------------------------------------------
# Zero-curvature classification


_FLAT_VOLUMES = [1.0 + 3.0 * i / 16 for i in range(17)]  # V = 1..4
_FLAT_TOL = 1e-10


def zero_curvature_classify(model: ConstitutiveModel) -> FlatnessClass:
    """Grid-level flatness test of a constant-cv model.

    Checks at 17 volumes from 1 to 4, in order: f1 identically zero;
    f1 f1'' - (f1')^2 identically zero (exponential f1); f2'' identically
    zero (affine f2, the ideal-gas case).  Each quantity counts as zero
    when it is below ``_FLAT_TOL`` times the size of the terms it is built
    from or compared with, so rescaling f1, f2 or V does not change the
    class.
    """
    if not isinstance(model, ConstantCv):
        raise UnsupportedModel("flatness classification needs a ConstantCv model")
    f1_zero = f1_exponential = f2_affine = True
    for v in _FLAT_VOLUMES:
        f1, f1p, f1pp, _ = model.f1.eval_derivs(v)
        f2, f2p, f2pp, _ = model.f2.eval_derivs(v)
        f1_zero &= abs(f1) <= _FLAT_TOL * (abs(f1p * v) + abs(f1pp * v * v))
        f1_exponential &= (abs(f1 * f1pp - f1p * f1p)
                           <= _FLAT_TOL * max(abs(f1 * f1pp), f1p * f1p))
        f2_affine &= abs(f2pp * v * v) <= _FLAT_TOL * (abs(f2) + abs(f2p * v))

    if f1_zero:
        return FlatnessClass.DEGENERATE_F1_ZERO
    if f1_exponential:
        return FlatnessClass.EXPONENTIAL_F1
    if f2_affine:
        return FlatnessClass.AFFINE_F2
    return FlatnessClass.NON_FLAT


# ---------------------------------------------------------------------------
# Model closed forms and the aggregate report


def berthelot_printed_closed_form(model: Berthelot, t: float, v: float) -> float:
    """The long published polynomial form, kept verbatim for cross-checking.

    Known to disagree with every other route away from special parameter
    values; :func:`curvature_report` flags the mismatch instead of using it.
    """
    q = model.params
    a, b, r = q.a, q.b, q.r_gas
    cv = q.cv0 + 2.0 * a / (v * t * t)
    p_poly = (2.0 * cv - r) * v * v - 3.0 * cv * b * v + cv * b * b
    q_poly = (-r * v ** 5 + 3.0 * r * b * v ** 4 - 3.0 * r * b * b * v ** 3
              + (r * b ** 3 + cv + r) * v * v - b * (b - 2.0 * v) * (r + cv))
    w_poly = (-r * v ** 7 + 4.0 * r * b * v ** 6 - 6.0 * r * b * b * v ** 5
              + (2.0 * cv + r + 4.0 * r * b ** 3) * v ** 4
              - (8.0 * cv + 3.0 * r + r * b ** 3) * b * v ** 3
              + (12.0 * cv + 3.0 * r) * b * b * v * v
              - (8.0 * cv + r) * b ** 3 * v + 2.0 * cv * b ** 4)
    num = 2.0 * a * (t ** 4 * v ** 4 * r * cv * p_poly
                     + t * t * v ** 3 * r * a * q_poly + a * a * w_poly)
    den = cv ** 3 * t ** 3 * v * (r * t * t * v ** 3 - 2.0 * a * (v - b) ** 2) ** 2
    return num / den


def model_closed_form(model: ConstitutiveModel,
                      at: StatePoint | DerivativeStack) -> float | None:
    """The model's closed-form curvature, its ``closed_curvature``, at a
    state or from the stack already evaluated there, or None when the
    model has none."""
    st = stack_at(model, at)
    return None if model.closed_curvature is None else model.closed_curvature(st)


def curvature_routes(model: ConstitutiveModel, st: DerivativeStack):
    """The Weinhold metric of a stack and its curvature by every route:
    (metric, r_tensorial, r_closed2d, r_elementary, r_model_closed).  Over
    a grid's arrays, each is an array over its cells.

    The routes share one derivative stack: a Hessian metric's curvature
    needs only second and third potential derivatives.
    """
    metric = weinhold_metric(model, st)
    r_closed2d = scalar_curvature_closed2d(metric)
    r_tensorial = scalar_curvature_tensorial(metric)
    r_elementary = scalar_curvature_elementary(st)
    return (metric, r_tensorial, r_closed2d, r_elementary,
            model_closed_form(model, st))


def curvature_report(model: ConstitutiveModel,
                     state: StatePoint | DerivativeStack) -> CurvatureReport:
    """Evaluate every applicable curvature route and their agreement."""
    st = stack_at(model, state)
    if any(map(math.isnan, st[12:])):
        raise DomainError("an unchecked stack has no response coefficients")
    _, r_tensorial, r_closed2d, r_elementary, r_model = (
        curvature_routes(model, st))

    discrepancy = None
    if isinstance(model, Berthelot):
        printed = berthelot_printed_closed_form(model, st.t, st.v)
        scale = max(abs(r_elementary), abs(printed))
        if abs(printed - r_elementary) > 1e-6 * scale:
            discrepancy = (
                f"published polynomial form gives {printed!r}, "
                f"other routes give {r_elementary!r}")

    return CurvatureReport(
        r_tensorial=r_tensorial, r_closed2d=r_closed2d,
        r_elementary=r_elementary, r_model_closed=r_model,
        max_pairwise_residual=pairwise_residual(
            r_tensorial, r_closed2d, r_elementary, r_model),
        discrepancy=discrepancy)


def pairwise_residual(*routes) -> float:
    """The spread of the routes' curvatures against max(1, max |R|), None
    routes skipped; elementwise over arrays, with max and min as Python
    takes them (a NaN first wins, a later one is passed over)."""
    routes = [r for r in routes if r is not None]
    hi = lo = routes[0]
    top = abs(hi)
    for r in routes[1:]:
        hi = choose([r > hi], [r], hi)
        lo = choose([r < lo], [r], lo)
        top = choose([abs(r) > top], [abs(r)], top)
    return (hi - lo) / choose([top > 1.0], [top], 1.0)
