"""Metric assembly, determinants, signature, and algebraic identity checks.

The Weinhold metric is the Hessian of U(S, V); the Ruppeiner metric is the
Hessian of S(U, V).  Both are returned as :class:`MetricTensor2`, the
Hessian jet: the three entries and the four third partials of the
potential, which is everything 2D curvature formulas ever need.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

from .eos_models import (
    ConstantCv,
    ConstitutiveModel,
    DerivativeStack,
    StatePoint,
    anywhere,
    choose,
    is_array,
    is_degenerate,
    jet_det,
    stack_at,
)
from .errors import DomainError


class MetricTensor2(NamedTuple):
    """The Hessian jet of a potential: the symmetric 2x2 metric e11, e12,
    e22 and its partials c111, c112, c122, c222, cijk that of entry (i, j)
    along coordinate k, which a Hessian keeps symmetric in i, j, k (floats,
    or arrays over the cells of a grid).  It carries no chart: every
    curvature route reads the Weinhold metric in (S, V) and the Ruppeiner
    metric in (U, V) alike.
    """

    e11: float
    e12: float
    e22: float
    c111: float
    c112: float
    c122: float
    c222: float

    det = property(lambda self: jet_det(*self[:3]))

    @property
    def trace(self) -> float:
        return self.e11 + self.e22

    @property
    def d(self) -> tuple[float, float, float, float, float, float]:
        """(d111, d112, d121, d122, d221, d222): each symmetric pair twice."""
        return (self.c111, self.c112, self.c112,
                self.c122, self.c122, self.c222)


class SignatureKind(enum.Enum):
    POSITIVE_DEFINITE = "positive_definite"
    NEGATIVE_DEFINITE = "negative_definite"
    INDEFINITE = "indefinite"
    DEGENERATE = "degenerate"


class SignatureClass(NamedTuple):
    kind: SignatureKind
    lambda_plus: float
    lambda_minus: float


class DeterminantReport(NamedTuple):
    det: float
    residual_kvc: float
    residual_dpdv: float
    det_ideal_part: float | None
    det_correction: float | None


class IdentityResiduals(NamedTuple):
    id1: float
    id2: float
    id3: float | None
    cp_cv: float


# ---------------------------------------------------------------------------
# Weinhold


def weinhold_metric(model: ConstitutiveModel,
                    at: StatePoint | DerivativeStack) -> MetricTensor2:
    """Hessian of U(S, V) with its derivative stack, at a state or from
    the stack already evaluated there."""
    return MetricTensor2(*stack_at(model, at)[5:12])


# ---------------------------------------------------------------------------
# Ruppeiner
#
# Entries are second partials of S(U, V).  They are evaluated from the
# U(S, V) stack through the chain rule: at fixed V, d/dU = (1/T) d/dS, and
# at fixed U, d/dV = d/dV|_S + (p/T) d/dS.  A first-order dual number over
# (d/dS, d/dV) pushes the same operators through to the third partials.


class _Dual:
    """Value with (d/dS, d/dV) gradient, enough for one derivative layer."""

    __slots__ = ("val", "ds", "dv")

    def __init__(self, val, ds=0.0, dv=0.0):
        self.val, self.ds, self.dv = val, ds, dv

    def __add__(self, other):
        other = _as_dual(other)
        return _Dual(self.val + other.val, self.ds + other.ds, self.dv + other.dv)

    def __sub__(self, other):
        other = _as_dual(other)
        return _Dual(self.val - other.val, self.ds - other.ds, self.dv - other.dv)

    def __mul__(self, other):
        other = _as_dual(other)
        return _Dual(self.val * other.val,
                     self.ds * other.val + self.val * other.ds,
                     self.dv * other.val + self.val * other.dv)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_dual(other)
        inv = 1.0 / other.val
        val = self.val * inv
        return _Dual(val,
                     (self.ds - val * other.ds) * inv,
                     (self.dv - val * other.dv) * inv)

    def __neg__(self):
        return _Dual(-self.val, -self.ds, -self.dv)


def _as_dual(x):
    return x if isinstance(x, _Dual) else _Dual(float(x))


def _ruppeiner_stack(st: DerivativeStack):
    t = _Dual(st.t, st.e11, st.e12)
    p = _Dual(st.p, -st.e12, -st.e22)
    e11 = _Dual(st.e11, st.c111, st.c112)
    e12 = _Dual(st.e12, st.c112, st.c122)
    e22 = _Dual(st.e22, st.c122, st.c222)

    s11 = -e11 / (t * t * t)
    s12 = -(e12 + (p / t) * e11) / (t * t)
    s22 = (-(t * e22) - 2.0 * p * e12 - (p * p / t) * e11) / (t * t)

    def d_u(f):
        return f.ds / st.t

    def d_v(f):
        return f.dv + (st.p / st.t) * f.ds

    entries = (s11.val, s12.val, s22.val)
    thirds = (d_u(s11), d_v(s11), d_u(s12), d_v(s12), d_u(s22), d_v(s22))
    return entries, thirds


def ruppeiner_metric(st: DerivativeStack) -> MetricTensor2:
    """Hessian of S(U, V) with its derivative stack, in the (U, V) chart.

    The chain rule gives (d111, d112, d121, d122, d221, d222), dijk the
    derivative of entry (i, j) along coordinate k, computing the two
    members of each pair independently; a stack whose pairs differ beyond
    finite-difference noise breaks Hessian closure and raises ValueError.
    """
    if anywhere(st.t <= 0.0):
        raise DomainError(f"temperature must be positive, got {st.t}")
    entries, d = _ruppeiner_stack(st)
    d111, d112, d121, d122, d221, d222 = d
    # against the largest partial, with no floor, so the check is
    # unit-free; over a grid's arrays, per cell
    if type(d111) is not float and is_array(d111):
        import numpy as np
        scale = np.max(np.abs(d), axis=0)
    else:
        scale = max(abs(x) for x in d)
    if anywhere((abs(d112 - d121) > 1e-8 * scale)
                | (abs(d122 - d221) > 1e-8 * scale)):
        raise ValueError(
            "third partials violate Hessian closure: "
            f"{d112} vs {d121}, {d122} vs {d221}")
    return MetricTensor2(*entries, d111, d112, d122, d222)


# ---------------------------------------------------------------------------
# Determinant, signature, identities


def determinant_report(model: ConstitutiveModel,
                       state: StatePoint | DerivativeStack) -> DeterminantReport:
    st = stack_at(model, state)
    det = st.det
    residual_kvc = det - st.t / (st.k * st.v * st.cv)
    # (dp/dV)_T from the entropy-volume stack
    dpdv_t = -det / st.e11
    residual_dpdv = det + (st.t / st.cv) * dpdv_t

    det_ideal_part = det_correction = None
    if model.det_split is not None:
        det_ideal_part, det_correction = model.det_split(st)
    return DeterminantReport(det=det, residual_kvc=residual_kvc,
                             residual_dpdv=residual_dpdv,
                             det_ideal_part=det_ideal_part,
                             det_correction=det_correction)


def signature_kind(metric: MetricTensor2):
    """The :class:`SignatureKind` of the metric; over a grid's arrays, an
    object array of kinds.

    A metric that ``is_degenerate`` is degenerate, one with a negative
    determinant indefinite; a definite metric is positive where its trace
    is positive.
    """
    degenerate = is_degenerate(metric.e11, metric.e12, metric.e22)
    return choose([degenerate, metric.det < 0.0, metric.trace > 0.0],
                  [SignatureKind.DEGENERATE, SignatureKind.INDEFINITE,
                   SignatureKind.POSITIVE_DEFINITE],
                  SignatureKind.NEGATIVE_DEFINITE)


def eigen_signature(metric: MetricTensor2) -> SignatureClass:
    """Classify the metric against the Euclidean background
    (:func:`signature_kind`) and report its eigenvalues."""
    disc = (metric.e11 - metric.e22) ** 2 + 4.0 * metric.e12 * metric.e12
    root = math.sqrt(disc)
    return SignatureClass(
        kind=signature_kind(metric),
        lambda_plus=0.5 * (metric.trace + root),
        lambda_minus=0.5 * (metric.trace - root))


def identity_residuals(model: ConstitutiveModel,
                       st: DerivativeStack) -> IdentityResiduals:
    """Residuals of the closure identities among coefficient partials.

    id1: (dcv/dV)_S + (a/k)(dcv/dS)_V - (cv/k)(da/dS)_V + (cv a/k^2)(dk/dS)_V
    id2: (dk/dV)_S - (k/a)(da/dV)_S - (da/dS)_V + (a/k + cv/(TVa))(dk/dS)_V
    id3 (constant cv only): (da/dk)_V - a/k
    cp_cv: cp - cv - VT a^2/k
    """
    t, v, cv, cp, alpha, k = st.t, st.v, st.cv, st.cp, st.alpha, st.k

    id1 = (st.dcv_dv + (alpha / k) * st.dcv_ds
           - (cv / k) * st.dalpha_ds + (cv * alpha / (k * k)) * st.dk_ds)
    id2 = (st.dk_dv - (k / alpha) * st.dalpha_dv
           - st.dalpha_ds + (alpha / k + cv / (t * v * alpha)) * st.dk_ds)

    id3 = None
    if isinstance(model, ConstantCv):
        moves = st.dk_ds != 0.0
        id3 = choose([moves], [st.dalpha_ds / choose([moves], [st.dk_ds], 1.0)
                               - alpha / k], st.dalpha_ds)

    cp_cv = cp - cv - v * t * alpha * alpha / k
    return IdentityResiduals(id1=id1, id2=id2, id3=id3, cp_cv=cp_cv)
