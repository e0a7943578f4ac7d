"""Constitutive gas models and their derivative stacks.

Every model reports, at an admissible state, the energy, the first
derivatives (T, -p), the Hessian of U(S, V), the four third partials, the
six thermodynamic coefficients, and the coefficient partials.  These are
bundled in a single immutable :class:`DerivativeStack` so downstream metric
and curvature code never recomputes or re-differentiates anything.

Models in the entropy-volume family (ideal, van der Waals, generic
constant-cv) share one closed-form engine.  The Berthelot gas lives natively
in the temperature-volume chart and builds the same stack through the chain
rule.  ``NumericEnergy`` wraps an arbitrary U(S, V) callback with central
finite differences or a user-supplied analytic derivative callback.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

from .errors import DomainError, SingularState, UnsupportedModel
from .expressions import ShiftedPower, SmoothFunction, ZeroFunction, as_smooth

_EPS = math.ulp(1.0)

# central difference steps, balanced for orders 1..3
FD_STEP_FIRST = _EPS ** (1.0 / 3.0)
FD_STEP_SECOND = _EPS ** (1.0 / 4.0)
FD_STEP_THIRD = _EPS ** (1.0 / 5.0)


class Chart(enum.Enum):
    """Coordinate chart tag for a state point."""

    ENTROPY_VOLUME = "entropy_volume"
    TEMPERATURE_VOLUME = "temperature_volume"


@dataclass(frozen=True)
class StatePoint:
    """A point on the constitutive surface in one of the two charts."""

    chart: Chart
    x1: float
    x2: float

    def __post_init__(self):
        if not math.isfinite(self.x1) or not math.isfinite(self.x2):
            raise DomainError(f"non-finite state ({self.x1}, {self.x2})")
        if self.x2 <= 0.0:
            raise DomainError(f"volume must be positive, got {self.x2}")
        if self.chart is Chart.TEMPERATURE_VOLUME and self.x1 <= 0.0:
            raise DomainError(f"temperature must be positive, got {self.x1}")

    @classmethod
    def entropy_volume(cls, s: float, v: float) -> "StatePoint":
        return cls(Chart.ENTROPY_VOLUME, float(s), float(v))

    @classmethod
    def temperature_volume(cls, t: float, v: float) -> "StatePoint":
        return cls(Chart.TEMPERATURE_VOLUME, float(t), float(v))

    @property
    def volume(self) -> float:
        return self.x2


@dataclass(frozen=True)
class GasParameters:
    """Model constants shared by the named gas models."""

    a: float = 0.0
    b: float = 0.0
    r_gas: float = 8.314
    cv0: float = 1.5 * 8.314
    u0: float = 0.0
    s0: float = 0.0

    def __post_init__(self):
        if self.a < 0.0 or self.b < 0.0:
            raise DomainError("a and b must be nonnegative")
        if self.r_gas <= 0.0:
            raise DomainError("r_gas must be positive")
        if self.cv0 <= 0.0:
            raise DomainError("cv0 must be positive")


@dataclass(frozen=True)
class Coefficients:
    """Temperature, pressure, and the four response coefficients."""

    t: float
    p: float
    cv: float
    cp: float
    alpha: float
    k: float


@dataclass(frozen=True)
class CoefficientPartials:
    """Partials of cv, alpha, k along S (at fixed V) and V (at fixed S)."""

    dcv_dS: float
    dcv_dV: float
    dalpha_dS: float
    dalpha_dV: float
    dk_dS: float
    dk_dV: float


@dataclass(frozen=True)
class DerivativeStack:
    """Everything any geometric routine needs at one state.

    Hessian entries and third partials are those of U as a function of
    (S, V) regardless of which chart the query used; ``s`` and ``v`` give
    the entropy-volume coordinates of the state.
    """

    s: float
    v: float
    u: float
    t: float
    p: float
    e11: float
    e12: float
    e22: float
    c111: float
    c112: float
    c122: float
    c222: float
    cv: float
    cp: float
    alpha: float
    k: float
    dcv_ds: float
    dcv_dv: float
    dalpha_ds: float
    dalpha_dv: float
    dk_ds: float
    dk_dv: float

    @property
    def det(self) -> float:
        return self.e11 * self.e22 - self.e12 * self.e12

    @property
    def det_s(self) -> float:
        """Entropy partial of det, from the third-derivative stack."""
        return (self.c111 * self.e22 + self.e11 * self.c122
                - 2.0 * self.e12 * self.c112)

    @property
    def det_v(self) -> float:
        """Volume partial of det at constant entropy."""
        return (self.c112 * self.e22 + self.e11 * self.c222
                - 2.0 * self.e12 * self.c122)

    @property
    def coefficients(self) -> Coefficients:
        return Coefficients(t=self.t, p=self.p, cv=self.cv, cp=self.cp,
                            alpha=self.alpha, k=self.k)

    @property
    def coefficient_partials(self) -> CoefficientPartials:
        return CoefficientPartials(
            dcv_dS=self.dcv_ds, dcv_dV=self.dcv_dv,
            dalpha_dS=self.dalpha_ds, dalpha_dV=self.dalpha_dv,
            dk_dS=self.dk_ds, dk_dV=self.dk_dv)


def degeneracy_scale(e11: float, e12: float, e22: float) -> float:
    """Size of the Hessian entries that a determinant is compared against."""
    return max(abs(e11 * e22), e12 * e12, 1.0)


def _determinant(state, check_singular, e11, e12, e22) -> float:
    """Hessian determinant; with ``check_singular`` a state on the
    degeneracy locus raises SingularState."""
    det = e11 * e22 - e12 * e12
    if check_singular and abs(det) < 1e-12 * degeneracy_scale(e11, e12, e22):
        raise SingularState("state lies on the degeneracy locus",
                            det=det, state=state)
    return det


def _stack_from_hessian(state, check_singular, s, v, u, t, p,
                        e11, e12, e22, c111, c112, c122, c222,
                        cv=None) -> DerivativeStack:
    """Complete a stack from the energy, its first, second and third partials.

    k, alpha and cp, and the partials of cv, alpha and k, follow by exact
    algebra from cv = T/e11, k = e11/(V det) and alpha = -e12/(V det), so no
    finite differencing is layered on top of an already-noisy stack.  A
    given ``cv`` is a constant heat capacity: its partials are reported as
    exact zeros.  Without one, cv = T/e11.
    """
    det = _determinant(state, check_singular, e11, e12, e22)
    constant_cv = cv is not None
    if not constant_cv:
        if e11 == 0.0:
            raise SingularState("vanishing second entropy derivative",
                                det=det, state=state)
        cv = t / e11
    if det == 0.0:
        k = alpha = cp = math.nan
        dcv_ds = dcv_dv = da_s = da_v = dk_s = dk_v = math.nan
    else:
        k = e11 / (v * det)
        alpha = -e12 / (v * det)
        cp = cv + t * v * alpha * alpha / k
        det_s = c111 * e22 + e11 * c122 - 2.0 * e12 * c112
        det_v = c112 * e22 + e11 * c222 - 2.0 * e12 * c122
        dcv_ds = 1.0 - t * c111 / (e11 * e11)
        dcv_dv = (e11 * e12 - t * c112) / (e11 * e11)
        dk_s = (c111 * det - e11 * det_s) / (v * det * det)
        dk_v = (c112 * v * det - e11 * det - e11 * v * det_v) / (v * v * det * det)
        da_s = -(c112 * det - e12 * det_s) / (v * det * det)
        da_v = (-c122 * v * det + e12 * det + e12 * v * det_v) / (v * v * det * det)
    if constant_cv:
        dcv_ds = dcv_dv = 0.0
    return DerivativeStack(
        s=s, v=v, u=u, t=t, p=p,
        e11=e11, e12=e12, e22=e22,
        c111=c111, c112=c112, c122=c122, c222=c222,
        cv=cv, cp=cp, alpha=alpha, k=k,
        dcv_ds=dcv_ds, dcv_dv=dcv_dv,
        dalpha_ds=da_s, dalpha_dv=da_v, dk_ds=dk_s, dk_dv=dk_v)


class ConstitutiveModel:
    """Abstract interface: a fundamental relation with derivatives to order 3."""

    name = "abstract"
    is_constant_cv = False
    params: GasParameters | None = None

    def derivative_stack(self, state: StatePoint, *,
                         check_singular: bool = True) -> DerivativeStack:
        raise NotImplementedError

    @property
    def covolume(self) -> float:
        """Volume floor of the admissible domain: ``params.b`` for a model
        with gas parameters, 0 otherwise."""
        return self.params.b if self.params is not None else 0.0

    def coefficients(self, state: StatePoint) -> Coefficients:
        return self.derivative_stack(state).coefficients

    def coefficient_partials(self, state: StatePoint) -> CoefficientPartials:
        return self.derivative_stack(state).coefficient_partials


class ConstantCv(ConstitutiveModel):
    """Family U(S, V) = f1(V) e^{S/cv} - cv f2(V) + u0 with constant cv.

    f1 and f2 may be expression strings or any objects with an
    ``eval_derivs`` method returning value and three derivatives.
    """

    name = "constant_cv"
    is_constant_cv = True

    def __init__(self, f1, f2=None, cv: float = 1.0, u0: float = 0.0):
        if cv <= 0.0:
            raise DomainError("cv must be positive")
        self.f1: SmoothFunction = as_smooth(f1)
        self.f2: SmoothFunction = as_smooth(f2) if f2 is not None else ZeroFunction()
        self.cv = float(cv)
        self.u0 = float(u0)

    def _check_volume(self, v):
        if v <= 0.0:
            raise DomainError(f"volume must be positive, got {v}")

    def derivative_stack(self, state: StatePoint, *,
                         check_singular: bool = True) -> DerivativeStack:
        v = state.x2
        self._check_volume(v)
        cv = self.cv
        f1, f1p, f1pp, f1ppp = self.f1.eval_derivs(v)
        if f1 <= 0.0:
            raise DomainError(f"f1(V) must be positive, got {f1} at V={v}")
        if state.chart is Chart.ENTROPY_VOLUME:
            s = state.x1
        else:
            s = cv * math.log(cv * state.x1 / f1)
        f2, f2p, f2pp, f2ppp = self.f2.eval_derivs(v)
        e = math.exp(s / cv)

        u = f1 * e - cv * f2 + self.u0
        t = f1 * e / cv
        p = -f1p * e + cv * f2p

        e11 = f1 * e / (cv * cv)
        e12 = f1p * e / cv
        e22 = f1pp * e - cv * f2pp
        c111 = f1 * e / (cv ** 3)
        c112 = f1p * e / (cv * cv)
        c122 = f1pp * e / cv
        c222 = f1ppp * e - cv * f2ppp

        return _stack_from_hessian(
            state, check_singular, s, v, u, t, p, e11, e12, e22,
            c111, c112, c122, c222, cv=cv)


class IdealGas(ConstantCv):
    """Ideal gas: f1 = V^(-r_gas/cv0) with f2 = 0."""

    name = "ideal"

    def __init__(self, params: GasParameters):
        self.params = params
        coeff = math.exp(-params.s0 / params.cv0)
        f1 = ShiftedPower(coeff, 0.0, -params.r_gas / params.cv0)
        super().__init__(f1, None, cv=params.cv0, u0=params.u0)


class VanDerWaals(ConstantCv):
    """Van der Waals gas: f1 = (V-b)^(-r_gas/cv0), f2 = a/(cv0 V)."""

    name = "vdw"

    def __init__(self, params: GasParameters):
        self.params = params
        coeff = math.exp(-params.s0 / params.cv0)
        f1 = ShiftedPower(coeff, params.b, -params.r_gas / params.cv0)
        f2 = ShiftedPower(params.a / params.cv0, 0.0, -1.0)
        super().__init__(f1, f2, cv=params.cv0, u0=params.u0)

    def _check_volume(self, v):
        if v <= self.params.b:
            raise DomainError(
                f"volume must exceed the covolume b={self.params.b}, got {v}")


class Berthelot(ConstitutiveModel):
    """Berthelot gas, native to the temperature-volume chart.

    p = r T/(V-b) - a/(T V^2) and cv = cv0 + 2a/(V T^2).  Entropy-volume
    queries invert S(T, V) by a guarded Newton iteration; the entropy is
    strictly increasing in T, so the root is unique.
    """

    name = "berthelot"

    def __init__(self, params: GasParameters):
        self.params = params

    def _entropy(self, t, v):
        q = self.params
        return (q.s0 + q.cv0 * math.log(t) + q.r_gas * math.log(v - q.b)
                - q.a / (v * t * t))

    def _temperature_from_entropy(self, s, v):
        q = self.params
        # initial guess from the a = 0 part, then Newton on S(T) - s
        t = math.exp((s - q.s0 - q.r_gas * math.log(v - q.b)) / q.cv0)
        for _ in range(200):
            f = self._entropy(t, v) - s
            cv = q.cv0 + 2.0 * q.a / (v * t * t)
            step = f * t / cv
            t_new = t - step
            if t_new <= 0.0:
                t_new = t * 0.5
            if t_new == t:
                return t
            t = t_new
            if abs(step) <= 4.0 * _EPS * t:
                # one clean-up pass, then stop
                f = self._entropy(t, v) - s
                cv = q.cv0 + 2.0 * q.a / (v * t * t)
                t2 = t - f * t / cv
                return t2 if t2 > 0.0 else t
        raise DomainError(f"entropy inversion failed at S={s}, V={v}")

    def derivative_stack(self, state: StatePoint, *,
                         check_singular: bool = True) -> DerivativeStack:
        q = self.params
        v = state.x2
        if v <= q.b:
            raise DomainError(
                f"volume must exceed the covolume b={q.b}, got {v}")
        # a temperature-volume state carries T > 0 already
        if state.chart is Chart.TEMPERATURE_VOLUME:
            t = state.x1
            s = self._entropy(t, v)
        else:
            s = state.x1
            t = self._temperature_from_entropy(s, v)

        a, b, r = q.a, q.b, q.r_gas
        w = v - b
        u = q.u0 + q.cv0 * t - 2.0 * a / (t * v)
        p = r * t / w - a / (t * v * v)

        p_t = r / w + a / (t * t * v * v)
        p_v = -r * t / (w * w) + 2.0 * a / (t * v ** 3)
        p_tt = -2.0 * a / (t ** 3 * v * v)
        p_tv = -r / (w * w) - 2.0 * a / (t * t * v ** 3)
        p_vv = 2.0 * r * t / (w ** 3) - 6.0 * a / (t * v ** 4)

        cv = q.cv0 + 2.0 * a / (v * t * t)
        cv_t = -4.0 * a / (v * t ** 3)
        cv_v = -2.0 * a / (v * v * t * t)

        # Hessian of U(S, V) through the chart change.  e22 is written in
        # the form that stays finite on the locus (where (dp/dV)_T = 0 and
        # the compressibility diverges).
        e11 = t / cv
        e12 = -t * p_t / cv
        e22 = -p_v + t * p_t * p_t / cv

        e11_t = (cv - t * cv_t) / (cv * cv)
        e11_v = -t * cv_v / (cv * cv)
        e12_t = -(p_t + t * p_tt) / cv + t * p_t * cv_t / (cv * cv)
        e12_v = -t * p_tv / cv + t * p_t * cv_v / (cv * cv)
        e22_t = (-p_tv + (p_t * p_t + 2.0 * t * p_t * p_tt) / cv
                 - t * p_t * p_t * cv_t / (cv * cv))
        e22_v = (-p_vv + 2.0 * t * p_t * p_tv / cv
                 - t * p_t * p_t * cv_v / (cv * cv))

        def d_s(f_t):
            # (d/dS)|_V = (T/cv) (d/dT)|_V
            return t * f_t / cv

        def d_v(f_v, f_t):
            # (d/dV)|_S = (d/dV)|_T + (dT/dV)|_S (d/dT)|_V, slope = e12
            return f_v + e12 * f_t

        c111 = d_s(e11_t)
        c112 = d_v(e11_v, e11_t)
        c122 = d_v(e12_v, e12_t)
        c222 = d_v(e22_v, e22_t)

        det = _determinant(state, check_singular, e11, e12, e22)
        if p_v == 0.0:
            if check_singular:
                raise SingularState("isothermal compressibility diverges",
                                    det=det, state=state)
            k = alpha = cp = math.nan
            da_s = da_v = dk_s = dk_v = math.nan
        else:
            k = -1.0 / (v * p_v)
            k_t = p_tv / (v * p_v * p_v)
            k_v = (p_v + v * p_vv) / (v * v * p_v * p_v)
            alpha = k * p_t
            alpha_t = k_t * p_t + k * p_tt
            alpha_v = k_v * p_t + k * p_tv
            cp = cv + t * v * k * p_t * p_t
            da_s, da_v = d_s(alpha_t), d_v(alpha_v, alpha_t)
            dk_s, dk_v = d_s(k_t), d_v(k_v, k_t)

        return DerivativeStack(
            s=s, v=v, u=u, t=t, p=p,
            e11=e11, e12=e12, e22=e22,
            c111=c111, c112=c112, c122=c122, c222=c222,
            cv=cv, cp=cp, alpha=alpha, k=k,
            dcv_ds=d_s(cv_t), dcv_dv=d_v(cv_v, cv_t),
            dalpha_ds=da_s, dalpha_dv=da_v, dk_ds=dk_s, dk_dv=dk_v)


class NumericEnergy(ConstitutiveModel):
    """Wraps a plain U(S, V) callback.

    ``scheme`` is either the string ``"central"`` (finite differences with
    order-matched steps) or a callable returning the ten partials
    (u, u_S, u_V, u_SS, u_SV, u_VV, u_SSS, u_SSV, u_SVV, u_VVV).
    """

    name = "numeric"

    def __init__(self, u, scheme="central"):
        self.u = u
        if scheme != "central" and not callable(scheme):
            raise UnsupportedModel(f"unknown derivative scheme {scheme!r}")
        self.scheme = scheme

    def _fd_partials(self, s, v):
        u = self.u
        h1s = max(abs(s), 1.0) * FD_STEP_FIRST
        h1v = max(abs(v), 1.0) * FD_STEP_FIRST
        h2s = max(abs(s), 1.0) * FD_STEP_SECOND
        h2v = max(abs(v), 1.0) * FD_STEP_SECOND
        h3s = max(abs(s), 1.0) * FD_STEP_THIRD
        h3v = max(abs(v), 1.0) * FD_STEP_THIRD

        u0 = u(s, v)
        u_s = (u(s + h1s, v) - u(s - h1s, v)) / (2.0 * h1s)
        u_v = (u(s, v + h1v) - u(s, v - h1v)) / (2.0 * h1v)

        u_ss = (u(s + h2s, v) - 2.0 * u0 + u(s - h2s, v)) / (h2s * h2s)
        u_vv = (u(s, v + h2v) - 2.0 * u0 + u(s, v - h2v)) / (h2v * h2v)
        u_sv = (u(s + h2s, v + h2v) - u(s + h2s, v - h2v)
                - u(s - h2s, v + h2v) + u(s - h2s, v - h2v)) / (4.0 * h2s * h2v)

        u_sss = (u(s + 2 * h3s, v) - 2.0 * u(s + h3s, v)
                 + 2.0 * u(s - h3s, v) - u(s - 2 * h3s, v)) / (2.0 * h3s ** 3)
        u_vvv = (u(s, v + 2 * h3v) - 2.0 * u(s, v + h3v)
                 + 2.0 * u(s, v - h3v) - u(s, v - 2 * h3v)) / (2.0 * h3v ** 3)

        def dss_at(vv):
            return (u(s + h3s, vv) - 2.0 * u(s, vv) + u(s - h3s, vv)) / (h3s * h3s)

        def dvv_at(ss):
            return (u(ss, v + h3v) - 2.0 * u(ss, v) + u(ss, v - h3v)) / (h3v * h3v)

        u_ssv = (dss_at(v + h3v) - dss_at(v - h3v)) / (2.0 * h3v)
        u_svv = (dvv_at(s + h3s) - dvv_at(s - h3s)) / (2.0 * h3s)

        return u0, u_s, u_v, u_ss, u_sv, u_vv, u_sss, u_ssv, u_svv, u_vvv

    def derivative_stack(self, state: StatePoint, *,
                         check_singular: bool = True) -> DerivativeStack:
        if state.chart is not Chart.ENTROPY_VOLUME:
            raise UnsupportedModel(
                "NumericEnergy accepts entropy-volume states only")
        s, v = state.x1, state.x2
        if self.scheme == "central":
            parts = self._fd_partials(s, v)
        else:
            parts = self.scheme(s, v)
        u, u_s, u_v, e11, e12, e22, c111, c112, c122, c222 = parts
        return _stack_from_hessian(
            state, check_singular, s, v, u, u_s, -u_v, e11, e12, e22,
            c111, c112, c122, c222)


# ---------------------------------------------------------------------------
# Module-level operations


def vdw_entropy(params: GasParameters, u: float, v: float) -> float:
    """Entropy of the van der Waals gas from (U, V).

    S = r_gas ln[(V-b) ((U-u0) + a/V)^{cv0/r_gas}] + s0, defined where the
    shifted energy and volume arguments are positive.
    """
    if v <= params.b:
        raise DomainError(f"volume must exceed the covolume b={params.b}, got {v}")
    y = (u - params.u0) + params.a / v
    if y <= 0.0:
        raise DomainError(f"energy argument U + a/V - u0 = {y} must be positive")
    return (params.r_gas * math.log(v - params.b)
            + params.cv0 * math.log(y) + params.s0)


# ---------------------------------------------------------------------------
# Config-file loading

_MODEL_NAMES = ("ideal", "vdw", "berthelot")

_PARAM_KEYS = {"a", "b", "r_gas", "cv0", "u0", "s0"}


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment, blank lines ignored."""
    out = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {ln}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "model":
            if value not in _MODEL_NAMES:
                raise ValueError(
                    f"line {ln}: unknown model {value!r}, expected one of {_MODEL_NAMES}")
            out[key] = value
        elif key in _PARAM_KEYS:
            try:
                out[key] = float(value)
            except ValueError:
                raise ValueError(f"line {ln}: bad numeric value {value!r} for {key}")
        else:
            raise ValueError(f"line {ln}: unknown key {key!r}")
    return out


def make_model(name: str, params: GasParameters) -> ConstitutiveModel:
    if name == "ideal":
        return IdealGas(params)
    if name == "vdw":
        return VanDerWaals(params)
    if name == "berthelot":
        return Berthelot(params)
    raise ValueError(f"unknown model {name!r}, expected one of {_MODEL_NAMES}")


def load_model(path, overrides: dict | None = None) -> ConstitutiveModel:
    """Build a model from a config file, with optional key overrides."""
    with open(path, "r", encoding="utf-8") as fh:
        values = parse_config_text(fh.read())
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    name = values.pop("model", None)
    if name is None:
        raise ValueError("config gives no model")
    defaults = GasParameters()
    params = replace(defaults, **{k: values.get(k, getattr(defaults, k))
                                  for k in _PARAM_KEYS})
    return make_model(name, params)
