"""Degeneracy loci, critical points, and the reduced spinodal machinery.

The degeneracy locus is the curve in state space where the metric
determinant vanishes (the spinodal, where the isothermal compressibility
diverges).  Closed forms exist for the constant-heat-capacity family and
the Berthelot gas; any other model is traced by continuation with scan
fallback (natural-parameter continuation in volume, Allgower and Georg,
*Numerical Continuation Methods*, 1990): each sample is predicted along
the locus tangent dS/dV = -det_V/det_S and corrected by Newton on det in
entropy, and an entropy scan finds the first sample and any the corrector
misses.  Every sign-changing bracket, of a scan or of dT/dV along the locus
for the critical point, is refined by one Brent root finder (the one the
geodesic events use, ``_rk45._brentq``) to 4 EPS relative to the bracket,
so no stopping test depends on the units.  Reduced-coordinate curves, the
cubic volume-root branches, the branchwise coexistence-style curve, and the
spinodal slope live here too.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from ._rk45 import _brentq
from .eos_models import (
    Berthelot,
    ConstantCv,
    ConstitutiveModel,
    StatePoint,
    VanDerWaals,
    relative_det,
)
from .errors import DomainError, NoCriticalPoint, NoRoot

# The locus corrector stops on a step below _STEP_TOL times max(1, |S|) or
# when its step stops shrinking, at det's noise floor: rounding for exact
# stacks, up to about 2e-7 in relative determinant (eos_models.relative_det)
# for NumericEnergy's finite differences.  A relative determinant above
# _CORRECTOR_RESIDUAL there is a miss, which the scan redoes.
_STEP_TOL = 1e-13
_CORRECTOR_RESIDUAL = 1e-6
_CORRECTOR_STEPS = 30

# Temperature window upper margin for the reduced cubics.
_REDUCED_MARGIN = 1e-9

# Brent's tolerance on bracketed roots, 4 EPS as for the geodesic events;
# entropy scan samples; polynomial Newton steps.
_ROOT_TOL = 4.0 * math.ulp(1.0)
_SCAN_POINTS = 181
_POLY_NEWTON_STEPS = 8


@dataclass(frozen=True)
class LocusSample:
    """One point on the degeneracy locus."""

    v: float
    s: float
    t: float
    p: float


@dataclass(frozen=True)
class LocusPolyline:
    samples: tuple[LocusSample, ...]
    branch: str
    note: str = "parameterized by volume"


@dataclass(frozen=True)
class CriticalPoint:
    """Top of the degeneracy locus, where dT/dV and dp/dV vanish along it.

    ``negative_branch`` carries the sign-flipped (p, T) pair for models
    whose locus temperature is defined through a square root.
    """

    v_c: float
    p_c: float
    t_c: float
    negative_branch: tuple[float, float] | None = None


@dataclass(frozen=True)
class ReducedCurvePoint:
    p_r: float
    t_r: float


class RootKind(enum.Enum):
    PRESSURE = "pressure"
    TEMPERATURE = "temperature"


@dataclass(frozen=True)
class VolumeRoots:
    """Physical volume roots of a reduced cubic, ascending, with the
    alternative trigonometric branch values and reconciliation notes."""

    values: tuple[float, ...]
    trig_values: tuple[float | None, float | None, float | None]
    notes: tuple[str, ...]


@dataclass(frozen=True)
class CoexistenceSample:
    t_r: float
    volumes: tuple[float, ...]
    pressures: tuple[float, ...]


@dataclass(frozen=True)
class CoexistenceCurve:
    samples: tuple[CoexistenceSample, ...]
    note: str = "branches ordered by volume; the last is the large-volume one"


# ---------------------------------------------------------------------------
# root refinement helpers

def _bracketed_root(f, lo, hi):
    """Root of ``f`` on [lo, hi] by Brent's method, to 4 EPS relative to
    the bracket; raises NoRoot when ``f(lo)`` and ``f(hi)`` show no sign
    change."""
    lo, hi = float(lo), float(hi)
    flo, fhi = f(lo), f(hi)
    if not (flo <= 0.0 <= fhi or fhi <= 0.0 <= flo):
        raise NoRoot(f"no sign change on [{lo}, {hi}]")
    return _brentq(f, lo, hi, _ROOT_TOL * max(abs(lo), abs(hi)), _ROOT_TOL,
                   100, (flo, fhi))


def _polish_polynomial_root(coeffs, x0):
    # Accept Newton steps only while the residual shrinks: near multiple
    # roots both f and f' sit at rounding noise and an unguarded step can
    # kick a perfect root away.
    deriv = np.polyder(coeffs)
    x = x0
    fx = np.polyval(coeffs, x)
    for _ in range(_POLY_NEWTON_STEPS):
        if fx == 0.0:
            break
        dfx = np.polyval(deriv, x)
        if dfx == 0.0:
            break
        nxt = x - fx / dfx
        fnxt = np.polyval(coeffs, nxt)
        if abs(fnxt) >= abs(fx):
            break
        x, fx = nxt, fnxt
    return x


def _real_roots(coeffs):
    roots = np.roots(coeffs)
    out = []
    for z in roots:
        if abs(z.imag) <= 1e-8 * (1.0 + abs(z.real)):
            out.append(_polish_polynomial_root(coeffs, float(z.real)))
    out.sort()
    return out


# ---------------------------------------------------------------------------
# degeneracy locus

def _constant_cv_locus_state(model: ConstantCv, v: float):
    """(s, t, p) of the locus at volume v, or None when the determinant
    cannot vanish there."""
    f1, f1p, f1pp, _, _, f2p, f2pp, _ = model.volume_terms(v)
    x_disc = f1 * f1pp - f1p * f1p
    if x_disc == 0.0:
        return None
    e_star = model.cv * f1 * f2pp / x_disc
    if e_star <= 0.0:
        return None
    s = model.cv * math.log(e_star)
    t = f1 * e_star / model.cv
    p = -f1p * e_star + model.cv * f2p
    return s, t, p


def _berthelot_locus_state(model: Berthelot, v: float):
    q = model.params
    if q.a <= 0.0 or v <= q.b:
        return None
    t = ((v - q.b) / v) * math.sqrt(2.0 * q.a / (q.r_gas * v))
    if t <= 0.0:
        return None
    s = model._entropy(t, v)
    p = q.r_gas * t / (v - q.b) - q.a / (t * v * v)
    return s, t, p


def _closed_form_locus_state(model: ConstitutiveModel, v: float):
    """(s, t, p) of the locus at volume v from the model's closed form, or
    None for a model without one.  Raises NoRoot when the determinant
    cannot vanish at v."""
    if isinstance(model, ConstantCv):
        hit = _constant_cv_locus_state(model, v)
    elif isinstance(model, Berthelot):
        hit = _berthelot_locus_state(model, v)
    else:
        return None
    if hit is None:
        raise NoRoot(f"determinant never vanishes at V={v}")
    return hit


def _scan_window(model) -> tuple[float, float]:
    scale = 1.0
    if isinstance(model, ConstantCv):
        scale = model.cv
    elif model.params is not None:
        scale = model.params.cv0
    return (-50.0 * scale, 50.0 * scale)


def locus_entropy(model: ConstitutiveModel, v: float) -> float:
    """Entropy at which det eta vanishes for the given volume.

    Closed form for the constant-heat-capacity family and Berthelot;
    otherwise a bracketed scan over the model's entropy window.  Raises
    NoRoot when the determinant keeps one sign.
    """
    hit = _closed_form_locus_state(model, v)
    if hit is not None:
        return hit[0]
    return _scan_locus_entropy(model, v, _scan_window(model))


def _scan_locus_entropy(model, v, s_window):
    def det_at(s):
        # window ends can leave the representable domain (e.g. an entropy the
        # temperature inversion cannot reach); report them as gaps
        try:
            stack = model.derivative_stack(
                StatePoint.entropy_volume(s, v), check_singular=False)
        except DomainError:
            return math.nan
        return stack.det

    grid = np.linspace(s_window[0], s_window[1], _SCAN_POINTS)
    values = [det_at(s) for s in grid]
    if all(math.isnan(val) for val in values):
        raise DomainError(f"no admissible state over S in {s_window} at V={v}")
    for i in range(_SCAN_POINTS - 1):
        if math.isnan(values[i]) or math.isnan(values[i + 1]):
            continue
        if values[i] == 0.0:
            return float(grid[i])
        if values[i] * values[i + 1] < 0.0:
            return _bracketed_root(det_at, float(grid[i]),
                                   float(grid[i + 1]))
    raise NoRoot(
        f"determinant keeps one sign over S in {s_window} at V={v}")


def _correct_locus(model, v, s, s_window):
    """Newton on det in S at fixed volume v from the guess s.

    Returns the stack on the locus, or None when the corrector fails: a
    DomainError, det_S zero or not finite, S outside ``s_window``, no
    convergence, or a residual that is not small at the noise floor.
    """
    lo, hi = s_window
    last = math.inf
    done = False
    for _ in range(_CORRECTOR_STEPS):
        try:
            stack = model.derivative_stack(
                StatePoint.entropy_volume(s, v), check_singular=False)
        except DomainError:
            return None
        if done:
            break
        det_s = stack.det_s
        if det_s == 0.0 or not math.isfinite(det_s):
            return None
        step = stack.det / det_s
        if not abs(step) < last:
            break  # noise floor: keep the stack at s
        s -= step
        if not lo <= s <= hi:
            return None
        done = abs(step) <= _STEP_TOL * max(1.0, abs(s))
        last = abs(step)
    else:
        return None
    if not abs(relative_det(stack.e11, stack.e12,
                            stack.e22)) <= _CORRECTOR_RESIDUAL:
        return None
    return stack


def _locus_stack(model, v, s_window, near=None):
    """Stack on the locus at volume v: the corrector started from the
    tangent prediction off the locus stack ``near``, or the scan when there
    is no ``near`` or the corrector fails."""
    if near is not None:
        s = near.s
        if near.det_s != 0.0:
            slope = -near.det_v / near.det_s  # dS/dV along det = 0
            if math.isfinite(slope):
                s += slope * (v - near.v)
        stack = _correct_locus(model, v, s, s_window)
        if stack is not None:
            return stack
    s = _scan_locus_entropy(model, v, s_window)
    return model.derivative_stack(
        StatePoint.entropy_volume(s, v), check_singular=False)


def _trace_locus(model, volumes, s_window, *, skip_inadmissible=False) -> list:
    """Locus stacks at ascending volumes, each predicted from the last;
    with ``skip_inadmissible``, from the first admissible volume on."""
    stacks = []
    for v in volumes:
        try:
            stacks.append(_locus_stack(model, v, s_window,
                                       stacks[-1] if stacks else None))
        except DomainError:
            if stacks or not skip_inadmissible or v == volumes[-1]:
                raise
    return stacks


def _locus_volumes(model, v_range, n_samples) -> list[float]:
    vmin, vmax = v_range
    if not 0.0 < vmin < vmax < math.inf:
        raise DomainError(f"bad volume range {v_range}")
    if n_samples < 2:
        raise DomainError("need at least two samples")
    b = model.covolume
    if vmin <= b:
        raise DomainError(f"volume range must sit above the covolume {b}")
    return [float(v) for v in np.geomspace(vmin, vmax, n_samples)]


def degeneracy_locus(model: ConstitutiveModel,
                     v_range: tuple[float, float],
                     n_samples: int = 64,
                     *,
                     method: str = "auto") -> LocusPolyline:
    """Trace det eta = 0 over a volume range, ordered by volume.

    ``method="auto"`` uses closed forms where the model provides them;
    ``method="scan"`` forces the generic path, continuation with scan
    fallback: each sample is corrected from the tangent prediction off the
    one before, and an entropy scan over the model's entropy window finds
    the first sample and any the corrector misses.  The continuation
    follows the branch the first sample lies on.
    """
    volumes = _locus_volumes(model, v_range, n_samples)
    if method == "auto" and isinstance(model, (ConstantCv, Berthelot)):
        samples = [LocusSample(v, *_closed_form_locus_state(model, v))
                   for v in volumes]
    else:
        samples = [LocusSample(v=st.v, s=st.s, t=st.t, p=st.p)
                   for st in _trace_locus(model, volumes,
                                          _scan_window(model))]
    branch = "principal"
    if method == "auto" and isinstance(model, Berthelot):
        branch = "positive-temperature"
    return LocusPolyline(samples=tuple(samples), branch=branch)


# ---------------------------------------------------------------------------
# critical point

def _constant_cv_locus_dtdv(model: ConstantCv, v: float) -> float:
    f1, f1p, f1pp, f1ppp, _, _, f2pp, f2ppp = model.volume_terms(v)
    x_disc = f1 * f1pp - f1p * f1p
    x_slope = f1 * f1ppp - f1p * f1pp
    num = 2.0 * f1 * f1p * f2pp + f1 * f1 * f2ppp
    return num / x_disc - f1 * f1 * f2pp * x_slope / (x_disc * x_disc)


def _critical_volume_numeric(dtdv, v_window) -> float:
    """Volume where dT/dV along the locus falls through zero; a volume
    where ``dtdv`` fails is a gap, and DomainError follows when every
    volume is inadmissible."""
    inadmissible = None

    def safe(v):
        nonlocal inadmissible
        try:
            return dtdv(v)
        except DomainError as exc:
            inadmissible = inadmissible or exc
        except (ValueError, ZeroDivisionError, OverflowError):
            pass
        return math.nan

    lo, hi = v_window
    grid = np.geomspace(lo, hi, 400)
    values = [safe(float(v)) for v in grid]
    if inadmissible is not None and all(math.isnan(val) for val in values):
        raise inadmissible
    if all(val == 0.0 for val in values):
        raise NoCriticalPoint("degeneracy locus is empty")
    for i in range(len(grid) - 1):
        if values[i] > 0.0 and values[i + 1] < 0.0:
            return _bracketed_root(dtdv, float(grid[i]), float(grid[i + 1]))
    raise NoCriticalPoint("locus temperature is monotone over the window")


def closed_form_critical_point(model: ConstitutiveModel) -> CriticalPoint | None:
    """Exact critical point of the van der Waals and Berthelot gases, or
    None for a model without a closed form.

    Raises NoCriticalPoint when a or b vanishes: the locus is then empty or
    monotone.
    """
    if not isinstance(model, (VanDerWaals, Berthelot)):
        return None
    a, b, r = model.params.a, model.params.b, model.params.r_gas
    if a <= 0.0 or b <= 0.0:
        raise NoCriticalPoint("locus is empty or monotone")
    if isinstance(model, VanDerWaals):
        return CriticalPoint(v_c=3.0 * b, p_c=a / (27.0 * b * b),
                             t_c=8.0 * a / (27.0 * b * r))
    t_c = math.sqrt(8.0 * a / (27.0 * r * b))
    p_c = math.sqrt(a * r / (216.0 * b ** 3))
    return CriticalPoint(v_c=3.0 * b, p_c=p_c, t_c=t_c,
                         negative_branch=(-p_c, -t_c))


def critical_point(model: ConstitutiveModel, *,
                   method: str = "auto",
                   v_window: tuple[float, float] | None = None
                   ) -> CriticalPoint:
    """Maximize temperature along the degeneracy locus.

    ``method="auto"`` returns the exact closed form for the van der Waals
    and Berthelot gases; ``method="numeric"`` forces the derivative-root
    path (used to cross-check the closed forms).  A model without a
    closed-form locus traces it over ``v_window`` by continuation and
    solves dT/dV = e11 dS/dV + e12 = 0 along it from the stack partials.
    """
    if method == "auto":
        closed = closed_form_critical_point(model)
        if closed is not None:
            return closed
    if isinstance(model, Berthelot):
        a, b, r = model.params.a, model.params.b, model.params.r_gas
        if a <= 0.0 or b <= 0.0:
            raise NoCriticalPoint("locus is empty or monotone")

        k = math.sqrt(2.0 * a / r)

        def dtdv(v):
            return k * v ** -2.5 * (3.0 * b - v) / 2.0
        v_c = _critical_volume_numeric(dtdv, v_window or (1.01 * b, 100.0 * b))
        _, t_c, p_c = _berthelot_locus_state(model, v_c)
        return CriticalPoint(v_c=v_c, p_c=p_c, t_c=t_c,
                             negative_branch=(-p_c, -t_c))

    if isinstance(model, ConstantCv):
        if v_window is None:
            b = model.covolume
            v_window = (1.01 * b, 100.0 * b) if b > 0.0 else (1e-2, 1e2)
        v_c = _critical_volume_numeric(
            lambda v: _constant_cv_locus_dtdv(model, v), v_window)
        hit = _constant_cv_locus_state(model, v_c)
        if hit is None:
            raise NoCriticalPoint("locus vanishes at the extremum")
        _, t_c, p_c = hit
        return CriticalPoint(v_c=v_c, p_c=p_c, t_c=t_c)

    # generic model: trace the locus, bracket the hottest sample, and solve
    # dT/dV = e11 dS/dV + e12 = 0 along the locus there
    if v_window is None:
        v_window = (1e-2, 1e2)
    s_window = _scan_window(model)
    try:  # the window may reach below where the energy is defined
        trace = _trace_locus(model, _locus_volumes(model, v_window, 200),
                             s_window, skip_inadmissible=True)
    except NoRoot as exc:
        raise NoCriticalPoint("degeneracy locus is empty") from exc
    i = int(np.argmax([st.t for st in trace]))
    if i in (0, len(trace) - 1):
        raise NoCriticalPoint("locus temperature is monotone over the window")
    near = trace[i - 1:i + 2]

    def locus_stack(v):
        start = min(near, key=lambda st: abs(st.v - v))
        return _locus_stack(model, v, s_window, start)

    def dtdv(v):
        stack = locus_stack(v)
        return stack.e12 - stack.e11 * stack.det_v / stack.det_s

    v_c = _bracketed_root(dtdv, near[0].v, near[2].v)
    stack = locus_stack(v_c)
    return CriticalPoint(v_c=v_c, p_c=stack.p, t_c=stack.t)


# ---------------------------------------------------------------------------
# reduced curves and cubic roots

def reduced_curves(model_kind: str, v_r: float) -> ReducedCurvePoint:
    """Reduced spinodal pressure and temperature as functions of v_r.

    ``model_kind`` is "vdw" or "berthelot"; both use v_r > 1/3.  The
    Berthelot values are the signed square roots, so both equal 1 at
    v_r = 1.
    """
    if v_r <= 1.0 / 3.0:
        raise DomainError(f"reduced volume must exceed 1/3, got {v_r}")
    if model_kind == "vdw":
        p_r = (3.0 * v_r - 2.0) / v_r ** 3
        t_r = (3.0 * v_r - 1.0) ** 2 / (4.0 * v_r ** 3)
    elif model_kind == "berthelot":
        p_r = 2.0 * (3.0 * v_r - 2.0) / (v_r ** 1.5 * (3.0 * v_r - 1.0))
        t_r = (3.0 * v_r - 1.0) / (2.0 * v_r ** 1.5)
    else:
        raise DomainError(f"unknown model kind {model_kind!r}")
    return ReducedCurvePoint(p_r=p_r, t_r=t_r)


def trig_root_forms(kind: RootKind, value: float):
    """Alternative trigonometric branch expressions, evaluated literally.

    Returns three values (None where the expression is not real) plus
    evaluation notes.  These are verification targets only; the cubic
    solver is authoritative.
    """
    notes = []
    if kind is RootKind.PRESSURE:
        p = value
        h = math.asin(math.sqrt(p)) / 3.0
        rt = math.sqrt(p)
        sign = math.copysign(1.0, p)
        v1 = (math.sqrt(3.0) * sign * math.cos(h) - math.sin(h)) / rt
        v2 = -v1
        v3 = 2.0 * h / rt
        return (v1, v2, v3), tuple(notes)

    t = value
    f = 9.0 - 8.0 * t
    num = (8.0 * t * t - 36.0 * t + 27.0) * cmath.exp(
        1.5 * cmath.log(complex(-f, 0.0)))
    den = 8.0 * cmath.exp(1.5 * cmath.log(complex(f, 0.0))) * cmath.sqrt(
        complex(t ** 3 * (t - 1.0), 0.0))
    if den == 0:
        notes.append("branch argument divides by zero at the critical point")
        return (None, None, None), tuple(notes)
    arg = num / den
    if abs(arg.imag) > 1e-9 * (1.0 + abs(arg.real)):
        notes.append("branch argument is not real; forms skipped")
        return (None, None, None), tuple(notes)
    g = math.atan(arg.real)
    sf = math.sqrt(f)
    v1 = (math.sqrt(3.0 * f) * math.cos(g / 3.0) / (4.0 * abs(t))
          + sf * math.sin(g / 3.0) / (4.0 * t) + 3.0 / (4.0 * t))
    v2 = -v1
    v3 = 3.0 / (4.0 * t) - sf * math.sin(g / 3.0) / (2.0 * t)
    return (v1, v2, v3), tuple(notes)


def vdw_volume_roots(kind: RootKind, value: float) -> VolumeRoots:
    """Volume branches of the reduced van der Waals state equations.

    Solves the cubic numerically (authoritative), keeps physical roots
    v_r > 1/3 ascending with multiplicity, evaluates the trigonometric
    branch forms alongside, and records any mismatch.
    """
    if kind is RootKind.PRESSURE:
        if not 0.0 < value <= 1.0:
            raise DomainError(f"reduced pressure must lie in (0, 1], got {value}")
        coeffs = np.array([value, 0.0, -3.0, 2.0])
    else:
        if not 0.0 < value <= 1.0 + _REDUCED_MARGIN:
            raise DomainError(
                f"reduced temperature must lie in (0, 1], got {value}")
        coeffs = np.array([4.0 * value, -9.0, 6.0, -1.0])

    all_roots = _real_roots(coeffs)
    physical = tuple(v for v in all_roots if v > 1.0 / 3.0)

    trig, notes = trig_root_forms(kind, value)
    collected = list(notes)
    for i, tv in enumerate(trig, start=1):
        if tv is None:
            continue
        nearest = min(all_roots, key=lambda r: abs(r - tv))
        if abs(nearest - tv) > 1e-8 * max(1.0, abs(tv)):
            collected.append(
                f"trigonometric branch {i} value {tv:.6g} does not solve "
                f"the cubic (nearest root {nearest:.6g})")
    return VolumeRoots(values=physical, trig_values=trig,
                       notes=tuple(collected))


def coexistence_curve(model_kind: str, t_r_samples) -> CoexistenceCurve:
    """Branchwise reduced pressure against reduced temperature.

    For each temperature the physical volume branches of the reduced
    state equation are pushed through the spinodal pressure curve.  All
    branches meet at (1, 1).
    """
    samples = []
    for t_r in t_r_samples:
        t_r = float(t_r)
        if model_kind == "vdw":
            vols = vdw_volume_roots(RootKind.TEMPERATURE, t_r).values
        elif model_kind == "berthelot":
            if not 0.0 < t_r <= 1.0 + _REDUCED_MARGIN:
                raise DomainError(
                    f"reduced temperature must lie in (0, 1], got {t_r}")
            w_roots = _real_roots(np.array([2.0 * t_r, -3.0, 0.0, 1.0]))
            vols = tuple(w * w for w in w_roots if w > 1.0 / math.sqrt(3.0))
        else:
            raise DomainError(f"unknown model kind {model_kind!r}")
        pressures = tuple(reduced_curves(model_kind, v).p_r for v in vols)
        samples.append(CoexistenceSample(t_r=t_r, volumes=vols,
                                         pressures=pressures))
    return CoexistenceCurve(samples=tuple(samples))


def spinodal_slope(v_r: float) -> float:
    """Slope dp_r/dt_r along the reduced van der Waals spinodal."""
    den = 3.0 * v_r - 1.0
    if den == 0.0:
        raise DomainError("slope is undefined at v_r = 1/3")
    return 8.0 / den
