"""Scalar curvature of Hessian metrics by independent routes.

Routes implemented:

* ``tensorial``: generic-n Christoffel / Riemann / Ricci contraction built
  from second and third potential partials only (the fourth-derivative
  terms cancel for Hessian metrics).
* ``closed2d``: the 2D determinant formula on a metric-plus-partials stack.
* ``elementary``: the coefficient-form expression through H, G, F, J.
* ``model_closed``: per-model closed forms (ideal, van der Waals,
  Berthelot), where one exists.

A :func:`curvature_report` bundles every applicable route with the
pairwise agreement residual, and the conformal bridge between the energy
and entropy metrics lives here as well.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .eos_models import (
    FD_STEP_FIRST,
    Berthelot,
    Coefficients,
    CoefficientPartials,
    ConstantCv,
    ConstitutiveModel,
    IdealGas,
    StatePoint,
    VanDerWaals,
)
from .errors import SingularState, UnsupportedModel
from .metric_core import (
    MetricTensor2,
    is_degenerate,
    ruppeiner_metric,
    weinhold_metric,
)


class FlatnessClass(enum.Enum):
    EXPONENTIAL_F1 = "exponential_f1"
    AFFINE_F2 = "affine_f2"
    DEGENERATE_F1_ZERO = "degenerate_f1_zero"
    NON_FLAT = "non_flat"


@dataclass(frozen=True)
class HessianMetricField:
    """Metric g = Hess(potential) and its first partials at one point.

    ``second[i, j]`` is the metric entry, ``third[i, j, k]`` its partial
    along coordinate k; both are fully symmetric because they are bare
    potential derivatives.
    """

    n: int
    second: np.ndarray
    third: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.second, dtype=float)
        dg = np.asarray(self.third, dtype=float)
        if g.shape != (self.n, self.n) or dg.shape != (self.n, self.n, self.n):
            raise ValueError(f"shape mismatch for n={self.n}: {g.shape}, {dg.shape}")
        scale = max(1.0, float(np.max(np.abs(dg))))
        for perm in ((0, 2, 1), (1, 0, 2)):
            if np.max(np.abs(dg - np.transpose(dg, perm))) > 1e-8 * scale:
                raise ValueError("third partials are not fully symmetric")
        if np.max(np.abs(g - g.T)) > 1e-12 * max(1.0, float(np.max(np.abs(g)))):
            raise ValueError("metric entries are not symmetric")
        object.__setattr__(self, "second", g)
        object.__setattr__(self, "third", dg)

    @classmethod
    def from_metric(cls, metric: MetricTensor2) -> "HessianMetricField":
        d111, d112, _, d122, _, d222 = metric.d
        g = np.array([[metric.e11, metric.e12], [metric.e12, metric.e22]])
        dg = np.empty((2, 2, 2))
        dg[0, 0, 0] = d111
        dg[0, 0, 1] = dg[0, 1, 0] = dg[1, 0, 0] = d112
        dg[0, 1, 1] = dg[1, 0, 1] = dg[1, 1, 0] = d122
        dg[1, 1, 1] = d222
        return cls(n=2, second=g, third=dg)


@dataclass(frozen=True)
class RiemannRicci:
    riemann: np.ndarray  # indexed [l, i, j, k]
    ricci: np.ndarray    # indexed [i, k]


@dataclass(frozen=True)
class ConstantCvCurvature:
    """Both constant-cv closed forms and their disagreement."""

    r_structural: float
    r_log_compressibility: float
    residual: float


@dataclass(frozen=True)
class CurvatureReport:
    r_tensorial: float
    r_closed2d: float
    r_elementary: float
    r_model_closed: float | None
    breakdown: dict
    max_pairwise_residual: float
    discrepancy: str | None = None


def _inverse(field: HessianMetricField) -> np.ndarray:
    g = field.second
    det = float(np.linalg.det(g))
    scale = max(1.0, float(np.prod([np.linalg.norm(g[i]) for i in range(field.n)])))
    if abs(det) < 1e-12 * scale:
        raise SingularState("metric not invertible", det=det)
    return np.linalg.inv(g)


def christoffel(field: HessianMetricField) -> np.ndarray:
    """Connection coefficients gamma[k, i, j] = (1/2) dg[i, j, m] ginv[k, m]."""
    n = field.n
    dg = field.third
    ginv = _inverse(field)
    gamma = np.zeros((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                acc = 0.0
                for m in range(n):
                    acc += dg[i, j, m] * ginv[k, m]
                gamma[k, i, j] = 0.5 * acc
    return gamma


def riemann_ricci(field: HessianMetricField) -> RiemannRicci:
    """Curvature tensors; fourth-derivative terms cancel for Hessian metrics.

    riemann[l, i, j, k] is antisymmetric in (j, k); ricci[i, k] contracts
    the upper index against the first lower derivative slot.
    """
    n = field.n
    dg = field.third
    ginv = _inverse(field)
    riem = np.zeros((n, n, n, n))
    for l in range(n):
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    acc = 0.0
                    for m in range(n):
                        for s in range(n):
                            for nn in range(n):
                                acc += (dg[i, j, m] * dg[s, nn, k]
                                        - dg[s, nn, j] * dg[k, i, m]) \
                                    * ginv[m, nn] * ginv[l, s]
                    riem[l, i, j, k] = 0.25 * acc
    ricci = np.zeros((n, n))
    for i in range(n):
        for k in range(n):
            acc = 0.0
            for l in range(n):
                acc += riem[l, i, l, k]
            ricci[i, k] = acc
    return RiemannRicci(riemann=riem, ricci=ricci)


def scalar_curvature_tensorial(field: HessianMetricField) -> float:
    ginv = _inverse(field)
    ricci = riemann_ricci(field).ricci
    return float(np.sum(ginv * ricci))


def scalar_curvature_closed2d(metric: MetricTensor2) -> float:
    """2D scalar curvature from the metric and its six partials."""
    if is_degenerate(metric.e11, metric.e12, metric.e22):
        raise SingularState("curvature diverges on the degeneracy locus",
                            det=metric.det)
    d111, d112, _, d122, _, d222 = metric.d
    det3 = (metric.e11 * (d112 * d222 - d122 * d122)
            - metric.e12 * (d111 * d222 - d112 * d122)
            + metric.e22 * (d111 * d122 - d112 * d112))
    det = metric.det
    return -det3 / (2.0 * det * det)


def scalar_curvature_elementary(coeffs: Coefficients,
                                partials: CoefficientPartials,
                                v: float) -> tuple[float, dict]:
    """Coefficient-form curvature with the H, G, F, J, D, B breakdown.

    Needs the volume explicitly; the determinant is taken in its
    coefficient form T/(k V cv), so this route never touches the Hessian
    entries directly.
    """
    t, cv, cp, alpha, k = coeffs.t, coeffs.cv, coeffs.cp, coeffs.alpha, coeffs.k
    if cv == 0.0 or alpha == 0.0 or k == 0.0:
        raise SingularState("elementary curvature needs cv, alpha, k nonzero")
    det = t / (k * v * cv)
    if det == 0.0:
        raise SingularState("degenerate metric", det=det)

    h = (alpha / k - cv / v
         + ((cp - cv) / alpha) * partials.dalpha_dV
         - (cp / k) * partials.dk_dV
         + partials.dcv_dV)
    g = partials.dcv_dV + (alpha / k) * partials.dcv_dS
    f = partials.dk_dV - (k / alpha) * partials.dalpha_dV
    j = 1.0 - partials.dcv_dS
    d = alpha / k + partials.dcv_dV
    b = alpha / v + partials.dalpha_dV

    bracket = h * g + (cv * alpha / (k * k)) * f * (t * v * alpha * f / k - j)
    r = t / (2.0 * cv ** 3 * det) * bracket
    return r, {"H": h, "G": g, "F": f, "J": j, "D": d, "B": b}


def scalar_curvature_constant_cv(model: ConstitutiveModel,
                                 state: StatePoint) -> ConstantCvCurvature:
    """Both constant-cv closed forms.

    The structural form is written in f1, f2 and T; the other uses only the
    compressibility and its entropy rate.  Their difference is the
    cross-check residual.
    """
    if not isinstance(model, ConstantCv):
        raise UnsupportedModel("constant-cv curvature forms need a ConstantCv model")
    st = model.derivative_stack(state)
    cv, t = st.cv, st.t

    f1, f1p, f1pp, _ = model.f1.eval_derivs(st.v)
    _, _, f2pp, _ = model.f2.eval_derivs(st.v)
    x_struct = f1 * f1pp - f1p * f1p
    denom = t * x_struct - f1 * f1 * f2pp
    if denom == 0.0:
        raise SingularState("degenerate metric", det=0.0, state=state)
    r_structural = f1 * f1 * f2pp * x_struct / (2.0 * cv * denom * denom)

    x = st.dk_ds / st.k
    r_log_k = (cv / (2.0 * t)) * x * (x + 1.0 / cv)

    return ConstantCvCurvature(r_structural=r_structural,
                               r_log_compressibility=r_log_k,
                               residual=r_structural - r_log_k)


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


def laplace_beltrami_log_t(model: ConstitutiveModel, state: StatePoint,
                           scheme: str = "analytic") -> float:
    """Laplace-Beltrami of ln T under the energy metric, in (S, V).

    The analytic scheme collapses the divergence form exactly; the ``fd``
    scheme differentiates the flux components centrally, using analytic
    inner gradients.
    """
    st = model.derivative_stack(state)
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


def ruppeiner_direct_curvature(model: ConstitutiveModel, state: StatePoint) -> float:
    """Curvature of the entropy metric computed directly in the (U, V) chart.

    The stability-oriented metric is the negated Hessian of S, and negating
    a metric negates its 2D scalar curvature.
    """
    return -scalar_curvature_closed2d(ruppeiner_metric(model, state))


def ruppeiner_from_weinhold(model: ConstitutiveModel, state: StatePoint,
                            scheme: str = "analytic") -> float:
    """Entropy-metric curvature via the conformal relation.

    R(entropy metric) = T R(energy metric) + T Lap(ln T).
    """
    st = model.derivative_stack(state)
    r_energy = scalar_curvature_closed2d(weinhold_metric(model, state))
    lap = laplace_beltrami_log_t(model, state, scheme=scheme)
    return st.t * (r_energy + lap)


# ---------------------------------------------------------------------------
# Zero-curvature classification


def zero_curvature_classify(model: ConstitutiveModel,
                            v_window: tuple[float, float] = (1.0, 4.0),
                            samples: int = 17,
                            tol: float = 1e-10) -> FlatnessClass:
    """Grid-level flatness test of a constant-cv model.

    The window must lie in the admissible volume range.  Checks, in order:
    f1 identically zero; f1 f1'' - (f1')^2 identically zero (exponential
    f1); f2'' identically zero (affine f2, the ideal-gas case).
    """
    if not isinstance(model, ConstantCv):
        raise UnsupportedModel("flatness classification needs a ConstantCv model")
    lo, hi = v_window
    if not (0.0 < lo < hi) or samples < 2:
        raise ValueError(f"bad sampling window {v_window} x {samples}")
    grid = [lo + (hi - lo) * i / (samples - 1) for i in range(samples)]

    f1_vals, x_vals, x_scales, f2_flat = [], [], [], True
    for v in grid:
        f1, f1p, f1pp, _ = model.f1.eval_derivs(v)
        f2, _, f2pp, _ = model.f2.eval_derivs(v)
        f1_vals.append(abs(f1))
        x_vals.append(abs(f1 * f1pp - f1p * f1p))
        x_scales.append(max(abs(f1 * f1pp), f1p * f1p, 1.0))
        if abs(f2pp) * v * v > tol * max(1.0, abs(f2)):
            f2_flat = False

    if max(f1_vals) < 1e-12:
        return FlatnessClass.DEGENERATE_F1_ZERO
    if all(x <= tol * s for x, s in zip(x_vals, x_scales)):
        return FlatnessClass.EXPONENTIAL_F1
    if f2_flat:
        return FlatnessClass.AFFINE_F2
    return FlatnessClass.NON_FLAT


# ---------------------------------------------------------------------------
# Model closed forms and the aggregate report


def _berthelot_closed(model: Berthelot, t: float, v: float) -> float:
    q = model.params
    a, b, r = q.a, q.b, q.r_gas
    cv = q.cv0 + 2.0 * a / (v * t * t)
    w = v - b
    p_poly = (2.0 * cv - r) * v * v - 3.0 * cv * b * v + cv * b * b
    num = 2.0 * a * (t ** 4 * v ** 4 * r * cv * p_poly
                     + t * t * a * cv * v * w * w * (r * v * v - cv * w * w)
                     + a * a * 2.0 * cv * w ** 4)
    den = cv ** 3 * t ** 3 * v * (r * t * t * v ** 3 - 2.0 * a * w * w) ** 2
    return num / den


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


def model_closed_form(model: ConstitutiveModel, state: StatePoint) -> float | None:
    """Per-model closed-form curvature, or None when no closed form exists."""
    if isinstance(model, IdealGas):
        return 0.0
    if isinstance(model, VanDerWaals):
        st = model.derivative_stack(state)
        q = model.params
        a, b, r = q.a, q.b, q.r_gas
        den = st.p * st.v ** 3 - a * st.v + 2.0 * a * b
        return a * r * st.v ** 3 / (st.cv * den * den)
    if isinstance(model, Berthelot):
        st = model.derivative_stack(state)
        return _berthelot_closed(model, st.t, st.v)
    if isinstance(model, ConstantCv):
        return scalar_curvature_constant_cv(model, state).r_structural
    return None


def curvature_report(model: ConstitutiveModel, state: StatePoint) -> CurvatureReport:
    """Evaluate every applicable curvature route and their agreement."""
    st = model.derivative_stack(state)
    metric = weinhold_metric(model, state)
    r_closed2d = scalar_curvature_closed2d(metric)
    r_tensorial = scalar_curvature_tensorial(HessianMetricField.from_metric(metric))
    r_elementary, breakdown = scalar_curvature_elementary(
        st.coefficients, st.coefficient_partials, st.v)
    r_model = model_closed_form(model, state)

    discrepancy = None
    if isinstance(model, Berthelot):
        printed = berthelot_printed_closed_form(model, st.t, st.v)
        scale = max(abs(r_elementary), abs(printed), 1e-12)
        if abs(printed - r_elementary) > 1e-6 * scale:
            discrepancy = (
                f"published polynomial form gives {printed!r}, "
                f"other routes give {r_elementary!r}")

    routes = [r for r in (r_tensorial, r_closed2d, r_elementary, r_model)
              if r is not None]
    scale = max(1.0, max(abs(r) for r in routes))
    spread = max(routes) - min(routes)
    return CurvatureReport(
        r_tensorial=r_tensorial, r_closed2d=r_closed2d,
        r_elementary=r_elementary, r_model_closed=r_model,
        breakdown=breakdown,
        max_pairwise_residual=spread / scale,
        discrepancy=discrepancy)
