"""Metric assembly, determinants, signature, and algebraic identity checks.

The Weinhold metric is the Hessian of U(S, V); the Ruppeiner metric is the
Hessian of S(U, V).  Both are returned as :class:`MetricTensor2` carrying
the full stack of first partials of the metric entries, which is everything
2D curvature formulas ever need.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .eos_models import (
    Coefficients,
    ConstitutiveModel,
    DerivativeStack,
    StatePoint,
    degeneracy_scale,
)
from .errors import DomainError, SingularState, UnsupportedModel

# a state counts as degenerate when |det| drops below this times the entry scale
DEGENERACY_FACTOR = 1e-9


def is_degenerate(e11: float, e12: float, e22: float) -> bool:
    det = e11 * e22 - e12 * e12
    return abs(det) < DEGENERACY_FACTOR * degeneracy_scale(e11, e12, e22)


class MetricChart(enum.Enum):
    """Which coordinates the metric entries differentiate against."""

    ENTROPY_VOLUME = "entropy_volume"
    ENERGY_VOLUME = "energy_volume"


@dataclass(frozen=True)
class MetricTensor2:
    """Symmetric 2x2 metric with its six first partials.

    ``d`` holds (d111, d112, d121, d122, d221, d222) where dijk is the
    derivative of entry (i, j) along coordinate k.  Hessian closure demands
    d112 = d121 and d122 = d221; construction rejects stacks that break
    this beyond finite-difference noise.  The Weinhold metric passes each
    pair from one stack entry, while the Ruppeiner chain rule computes the
    two members of a pair independently, so there the check is a real one.
    """

    e11: float
    e12: float
    e22: float
    d: tuple[float, float, float, float, float, float]
    chart: MetricChart

    def __post_init__(self):
        if len(self.d) != 6:
            raise ValueError(f"expected six partials, got {len(self.d)}")
        d111, d112, d121, d122, d221, d222 = self.d
        scale = max(*(abs(x) for x in self.d), 1.0)
        if abs(d112 - d121) > 1e-8 * scale or abs(d122 - d221) > 1e-8 * scale:
            raise ValueError(
                "third partials violate Hessian closure: "
                f"{d112} vs {d121}, {d122} vs {d221}")

    @property
    def det(self) -> float:
        return self.e11 * self.e22 - self.e12 * self.e12

    @property
    def trace(self) -> float:
        return self.e11 + self.e22

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.e11, self.e12], [self.e12, self.e22]])


class SignatureKind(enum.Enum):
    POSITIVE_DEFINITE = "positive_definite"
    NEGATIVE_DEFINITE = "negative_definite"
    INDEFINITE = "indefinite"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class SignatureClass:
    kind: SignatureKind
    lambda_plus: float
    lambda_minus: float
    discriminant: float


@dataclass(frozen=True)
class DeterminantReport:
    det: float
    residual_kvc: float
    residual_dpdv: float
    det_ideal_part: float | None
    det_correction: float | None


@dataclass(frozen=True)
class IdentityResiduals:
    id1: float
    id2: float
    id3: float | None
    cp_cv: float


@dataclass(frozen=True)
class SoundSpeeds:
    adiabatic: float
    isothermal: float


# ---------------------------------------------------------------------------
# Weinhold


def weinhold_from_coefficients(coeffs: Coefficients, v: float) -> tuple[float, float, float]:
    """Metric entries in coefficient form, (1/cv)[[T, -Ta/k], [-Ta/k, cp/(Vk)]]."""
    t, cv, cp, alpha, k = coeffs.t, coeffs.cv, coeffs.cp, coeffs.alpha, coeffs.k
    return t / cv, -t * alpha / (k * cv), cp / (v * k * cv)


def weinhold_metric(model: ConstitutiveModel, state: StatePoint) -> MetricTensor2:
    """Hessian of U(S, V) with its derivative stack."""
    st = model.derivative_stack(state)
    return MetricTensor2(
        e11=st.e11, e12=st.e12, e22=st.e22,
        d=(st.c111, st.c112, st.c112, st.c122, st.c122, st.c222),
        chart=MetricChart.ENTROPY_VOLUME)


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

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_dual(other)
        return _Dual(self.val - other.val, self.ds - other.ds, self.dv - other.dv)

    def __rsub__(self, other):
        return _as_dual(other) - self

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

    def __rtruediv__(self, other):
        return _as_dual(other) / self

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


def ruppeiner_metric(model: ConstitutiveModel, state: StatePoint) -> MetricTensor2:
    """Hessian of S(U, V) with its derivative stack, in the (U, V) chart."""
    st = model.derivative_stack(state)
    if st.t <= 0.0:
        raise DomainError(f"temperature must be positive, got {st.t}")
    entries, thirds = _ruppeiner_stack(st)
    return MetricTensor2(
        e11=entries[0], e12=entries[1], e22=entries[2],
        d=thirds, chart=MetricChart.ENERGY_VOLUME)


# ---------------------------------------------------------------------------
# Determinant, inverse, signature, identities


def determinant_report(model: ConstitutiveModel, state: StatePoint) -> DeterminantReport:
    st = model.derivative_stack(state)
    det = st.det
    residual_kvc = det - st.t / (st.k * st.v * st.cv)
    # (dp/dV)_T from the entropy-volume stack
    dpdv_t = -det / st.e11
    residual_dpdv = det + (st.t / st.cv) * dpdv_t

    det_ideal_part = det_correction = None
    if model.is_constant_cv:
        cv = st.cv
        e = math.exp(st.s / cv)
        f1, f1p, f1pp, _ = model.f1.eval_derivs(st.v)
        _, _, f2pp, _ = model.f2.eval_derivs(st.v)
        x = f1 * f1pp - f1p * f1p
        det_ideal_part = e * e * x / (cv * cv)
        det_correction = -e * f1 * f2pp / cv
    return DeterminantReport(det=det, residual_kvc=residual_kvc,
                             residual_dpdv=residual_dpdv,
                             det_ideal_part=det_ideal_part,
                             det_correction=det_correction)


def inverse_metric(model: ConstitutiveModel, state: StatePoint) -> np.ndarray:
    """Inverse Weinhold metric [[cp/T, V alpha], [V alpha, k V]]."""
    st = model.derivative_stack(state)
    if is_degenerate(st.e11, st.e12, st.e22):
        raise SingularState("metric is degenerate", det=st.det, state=state)
    return np.array([[st.cp / st.t, st.v * st.alpha],
                     [st.v * st.alpha, st.k * st.v]])


def eigen_signature(metric: MetricTensor2, coeffs: Coefficients | None = None) -> SignatureClass:
    """Classify the metric against the Euclidean background.

    With coefficients supplied, the definite cases follow the sign of cv
    (positive determinant splits on cv > 0 versus cv < 0); without them the
    trace decides.
    """
    e11, e12, e22 = metric.e11, metric.e12, metric.e22
    det = metric.det
    disc = (e11 - e22) ** 2 + 4.0 * e12 * e12
    root = math.sqrt(disc)
    lam_plus = 0.5 * (metric.trace + root)
    lam_minus = 0.5 * (metric.trace - root)

    if is_degenerate(e11, e12, e22):
        kind = SignatureKind.DEGENERATE
    elif det < 0.0:
        kind = SignatureKind.INDEFINITE
    else:
        positive = coeffs.cv > 0.0 if coeffs is not None else metric.trace > 0.0
        kind = (SignatureKind.POSITIVE_DEFINITE if positive
                else SignatureKind.NEGATIVE_DEFINITE)
    return SignatureClass(kind=kind, lambda_plus=lam_plus,
                          lambda_minus=lam_minus, discriminant=disc)


def identity_residuals(model: ConstitutiveModel, state: StatePoint) -> IdentityResiduals:
    """Residuals of the closure identities among coefficient partials.

    id1: (dcv/dV)_S + (a/k)(dcv/dS)_V - (cv/k)(da/dS)_V + (cv a/k^2)(dk/dS)_V
    id2: (dk/dV)_S - (k/a)(da/dV)_S - (da/dS)_V + (a/k + cv/(TVa))(dk/dS)_V
    id3 (constant cv only): (da/dk)_V - a/k
    cp_cv: cp - cv - VT a^2/k
    """
    st = model.derivative_stack(state)
    t, v, cv, cp, alpha, k = st.t, st.v, st.cv, st.cp, st.alpha, st.k

    id1 = (st.dcv_dv + (alpha / k) * st.dcv_ds
           - (cv / k) * st.dalpha_ds + (cv * alpha / (k * k)) * st.dk_ds)
    id2 = (st.dk_dv - (k / alpha) * st.dalpha_dv
           - st.dalpha_ds + (alpha / k + cv / (t * v * alpha)) * st.dk_ds)

    id3 = None
    if model.is_constant_cv:
        if st.dk_ds != 0.0:
            id3 = st.dalpha_ds / st.dk_ds - alpha / k
        else:
            id3 = st.dalpha_ds

    cp_cv = cp - cv - v * t * alpha * alpha / k
    return IdentityResiduals(id1=id1, id2=id2, id3=id3, cp_cv=cp_cv)


def speed_of_sound(model: ConstitutiveModel, state: StatePoint, rho: float) -> SoundSpeeds:
    """Isothermal and adiabatic sound speeds for mass density rho."""
    if rho <= 0.0:
        raise DomainError(f"density must be positive, got {rho}")
    st = model.derivative_stack(state)
    det = st.det
    if det <= 0.0:
        raise DomainError(f"metric determinant must be positive, got {det}")
    isothermal = math.sqrt(st.v * st.cv * det / (st.t * rho))
    adiabatic = math.sqrt(st.v * st.cp * det / (st.t * rho))
    return SoundSpeeds(adiabatic=adiabatic, isothermal=isothermal)


def delta_measure(model: ConstitutiveModel, state: StatePoint) -> float:
    """Deviation of the volume-volume entry from pure exponential growth in S.

    (d eta22/dS)_V - eta22/cv; vanishes exactly when the volume part of the
    energy is absent (ideal gas) and measures the interaction term otherwise.
    """
    if not model.is_constant_cv:
        raise UnsupportedModel("delta measure is defined for constant-cv models")
    st = model.derivative_stack(state)
    return st.c122 - st.e22 / st.cv
