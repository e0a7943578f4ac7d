"""Degeneracy loci, critical points, and the reduced spinodal machinery.

The degeneracy locus is the curve in state space where the metric
determinant vanishes (the spinodal, where the isothermal compressibility
diverges).  A model with a closed-form locus (``locus_state`` and
``locus_dtdv``, the constant-heat-capacity family and the Berthelot gas) or
critical point (``critical_closed_form``, the van der Waals and Berthelot
gases) carries it; a model without one is traced by continuation with scan
fallback (natural-parameter continuation in volume, Allgower and Georg,
*Numerical Continuation Methods*, 1990): each sample is predicted along the
locus tangent dS/dV = -det_V/det_S and corrected by Newton on det in
entropy, and an entropy scan finds the first sample and any the corrector
misses.  Every root search is one scan that stops at its first sign change
and refines it by Brent's method (``_brentq``, which geodesic events share)
to 4 EPS relative to the bracket, so no stopping test depends on the units:
over entropy, and for dT/dV = 0 over 400 volumes of ``locus_dtdv`` or 200
of the continued locus; without that root the locus is empty if dT/dV is 0
or a gap at every volume, and monotone otherwise.  Every entropy scan, for
every model, probes the Hessian alone (``model._hessian``), and the jet
(``eos_models.hessian_jet``) confirms its bracket and refines it; a
corrector probe reads the jet.  For constant cv, det vanishes at e^(S/cv) =
cv f1 f2''/(f1 f1'' - f1'^2) and R has the sign of f2''(f1 f1'' - f1'^2),
so the locus has a point at V exactly where R > 0.  Reduced curves, cubic
volume roots, the coexistence curve and the spinodal slope live here too.
"""

from __future__ import annotations

import cmath
import enum
import math
from typing import NamedTuple

from .eos_models import (
    ConstitutiveModel,
    float_grid,
    hessian_jet,
    jet_det,
    jet_det_s,
    relative_det,
    unchecked_stack,
)
from .errors import STATE_ERRORS, DomainError, NoCriticalPoint, NoRoot

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

# Entropy scan samples; polynomial Newton steps; Brent's rtol, a float so
# that roots stay floats, and iteration limit.
_SCAN_POINTS = 181
_POLY_NEWTON_STEPS = 8
_ROOT_RTOL = 4 * math.ulp(1.0)
_ROOT_ITERATIONS = 100


class LocusSample(NamedTuple):
    """One point on the degeneracy locus."""

    v: float
    s: float
    t: float
    p: float


class LocusPolyline(NamedTuple):
    samples: tuple[LocusSample, ...]
    branch: str
    note: str = "parameterized by volume"


class CriticalPoint(NamedTuple):
    """Top of the degeneracy locus, where dT/dV and dp/dV vanish along it.

    ``negative_branch`` is the sign-flipped (p, T) pair of a model whose
    locus temperature is a square root (``square_root_locus``).
    """

    v_c: float
    p_c: float
    t_c: float
    negative_branch: tuple[float, float] | None = None


class ReducedCurvePoint(NamedTuple):
    p_r: float
    t_r: float


class RootKind(enum.Enum):
    PRESSURE = "pressure"
    TEMPERATURE = "temperature"


class VolumeRoots(NamedTuple):
    """Physical volume roots of a reduced cubic, ascending, with the
    alternative trigonometric branch values and reconciliation notes."""

    values: tuple[float, ...]
    trig_values: tuple[float | None, float | None, float | None]
    notes: tuple[str, ...]


class CoexistenceSample(NamedTuple):
    t_r: float
    volumes: tuple[float, ...]
    pressures: tuple[float, ...]


class CoexistenceCurve(NamedTuple):
    samples: tuple[CoexistenceSample, ...]
    note: str = "branches ordered by volume; the last is the large-volume one"


# ---------------------------------------------------------------------------
# root refinement helpers

def _first_root(f, xs, *, falling=False, refine=None):
    """First root of ``f`` along ``xs``, evaluated in order up to the first
    neighbours that bracket one (a strict sign change or an exact 0 and a
    value; with ``falling``, + then -), refined by Brent's method from the
    values held.  A state error (errors.STATE_ERRORS) is a NaN gap.  None
    when nothing brackets a root; the first error when every point raised.
    With ``refine``, equal to ``f`` where both evaluate and raising wherever
    ``f`` raises, ``f`` finds the bracket and the outcome is ``refine``'s."""
    first, raised, gaps = None, 0, set()
    x0 = f0 = math.nan
    for x in xs:
        try:
            fx = f(x)
        except STATE_ERRORS as exc:
            first, fx, raised = first or exc, math.nan, raised + 1
            gaps.add(x)
        if ((f0 > 0.0 > fx if falling else
                f0 * fx < 0.0 or f0 == 0.0 and not math.isnan(fx))
                and (refine is None or _evaluates(refine, x0)
                     and _evaluates(refine, x))):
            return _brentq(refine or f, x0, x,
                           _ROOT_RTOL * max(abs(x0), abs(x)), (f0, fx))
        x0, f0 = x, fx
    if refine and xs and not (raised < len(xs) and any(
            _evaluates(refine, x) for x in xs if x not in gaps)):
        refine(xs[0])  # raises: refine fails at every point
    if first and raised == len(xs):
        raise first
    return None


def _brentq(f, xa, xb, xtol, fab=None):
    """Root of ``f`` bracketed by ``xa`` and ``xb``, transcribed from
    scipy's ``brentq.c`` (Brent's method with inverse quadratic
    extrapolation) with rtol = ``_ROOT_RTOL``; ``f`` takes and returns
    floats.  ``fab``, when given, is (f(xa), f(xb)), already evaluated."""
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = (f(xpre), f(xcur)) if fab is None else fab
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_ROOT_ITERATIONS):
        if (fpre != 0 and fcur != 0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _ROOT_RTOL * abs(xcur)) / 2
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
    raise RuntimeError(f"Failed to converge after {_ROOT_ITERATIONS} "
                       f"iterations, value is {xcur:f}")


def _evaluates(f, x) -> bool:
    try:
        f(x)
    except STATE_ERRORS:
        return False
    return True


def _polish_polynomial_root(coeffs, x0):
    # Accept Newton steps only while the residual shrinks: near multiple
    # roots both f and f' sit at rounding noise and an unguarded step can
    # kick a perfect root away.
    import numpy as np
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
    import numpy as np
    out = []
    for z in np.roots(coeffs):
        if abs(z.imag) <= 1e-8 * (1.0 + abs(z.real)):
            out.append(_polish_polynomial_root(coeffs, float(z.real)))
    out.sort()
    return out


# ---------------------------------------------------------------------------
# degeneracy locus

def _scan_window(model) -> tuple[float, float]:
    return (-50.0 * model.entropy_scale, 50.0 * model.entropy_scale)


def locus_entropy(model: ConstitutiveModel, v: float) -> float:
    """Entropy at which det eta vanishes for the given volume.

    The model's closed form where it has one; otherwise a bracketed scan
    over the model's entropy window.  Raises NoRoot when the determinant
    keeps one sign.
    """
    if model.locus_state is not None:
        return model.locus_state(v)[0]
    return _scan_locus_entropy(model, float(v), _scan_window(model))


def _scan_locus_entropy(model, v, s_window):
    s = _first_root(lambda s: jet_det(*model._hessian(s, v)),
                    float_grid(*s_window, _SCAN_POINTS),
                    refine=lambda s: jet_det(*hessian_jet(model, s, v)[5:8]))
    if s is not None:
        return s
    raise NoRoot(f"determinant keeps one sign over S in {s_window} at V={v}")


def _correct_locus(model, v, s, s_window):
    """Newton on det in S at fixed volume v from the guess s.

    Returns the stack on the locus, or None when the corrector fails: a
    state error, det_S zero or not finite, S outside ``s_window``, no
    convergence, or a residual that is not small at the noise floor.
    """
    last, done = math.inf, False
    for _ in range(_CORRECTOR_STEPS):
        try:
            jet = hessian_jet(model, s, v)
        except STATE_ERRORS:
            return None
        if done:
            break
        det_s = jet_det_s(*jet[5:11])
        if det_s == 0.0 or not math.isfinite(det_s):
            return None
        step = jet_det(*jet[5:8]) / det_s
        if not abs(step) < last:
            break  # noise floor: keep the jet at s
        s -= step
        if not s_window[0] <= s <= s_window[1]:
            return None
        done = abs(step) <= _STEP_TOL * max(1.0, abs(s))
        last = abs(step)
    else:
        return None
    return (unchecked_stack(jet)
            if abs(relative_det(*jet[5:8])) <= _CORRECTOR_RESIDUAL else None)


def _locus_stack(model, v, s_window, near):
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
    return unchecked_stack(hessian_jet(model, s, v))


def _locus_points(point_at, volumes):
    """``point_at(v, last)`` at ascending volumes, ``last`` the point before
    or None, and how many volumes lack one: their point raised NoRoot, and
    the first NoRoot is raised if none has one."""
    points, missing = [], []
    for v in volumes:
        try:
            points.append(point_at(v, points[-1] if points else None))
        except NoRoot as exc:
            missing.append(exc)
    if not points:
        raise missing[0]
    return points, len(missing)


def _locus_volumes(v_range, n_samples, b=0.0) -> list[float]:
    """``n_samples`` volumes spaced geometrically over ``v_range``, a finite
    positive window whose lower end lies above the covolume ``b``."""
    vmin, vmax = v_range
    if not 0.0 < vmin < vmax < math.inf:
        raise DomainError(f"bad volume range {v_range}")
    if n_samples < 2:
        raise DomainError("need at least two samples")
    if vmin <= b:
        raise DomainError(f"volume range must sit above the covolume {b}")
    return float_grid(vmin, vmax, n_samples, geometric=True)


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

    A volume without a locus point (NoRoot) is left out, and the note says
    how many are; when no volume has one, the first NoRoot is raised.
    """
    _check_method(method, ("auto", "scan"))
    volumes = _locus_volumes(v_range, n_samples, model.covolume)
    closed = method == "auto" and model.locus_state is not None
    if closed:
        samples, missing = _locus_points(
            lambda v, _: LocusSample(v, *model.locus_state(v)), volumes)
    else:
        s_window = _scan_window(model)
        stacks, missing = _locus_points(
            lambda v, near: _locus_stack(model, v, s_window, near), volumes)
        samples = [LocusSample(st.v, st.s, st.t, st.p) for st in stacks]
    branch = ("positive-temperature" if closed and model.square_root_locus
              else "principal")
    line = LocusPolyline(samples=tuple(samples), branch=branch)
    return line._replace(note=f"{line.note}; no locus point at {missing} of "
                              f"{len(volumes)} volumes") if missing else line


# ---------------------------------------------------------------------------
# critical point

def _critical_volume(dtdv, volumes) -> float:
    """Volume where dT/dV along the locus first falls through zero, or
    NoCriticalPoint: an empty locus or a monotone one."""
    flat = True

    def noted(v):
        nonlocal flat
        value = dtdv(v)
        flat = flat and (value == 0.0 or math.isnan(value))
        return value

    v_c = _first_root(noted, volumes, falling=True)
    if v_c is None:
        raise NoCriticalPoint("degeneracy locus is empty" if flat else
                              "locus temperature is monotone over the window")
    return v_c


def _check_method(method, allowed):
    if method not in allowed:
        raise ValueError(f"unknown method {method!r}, expected one of "
                         f"{', '.join(map(repr, allowed))}")


def _critical(model, v_c, p_c, t_c) -> CriticalPoint:
    return CriticalPoint(v_c=v_c, p_c=p_c, t_c=t_c, negative_branch=(
        (-p_c, -t_c) if model.square_root_locus else None))


def closed_form_critical_point(model: ConstitutiveModel) -> CriticalPoint | None:
    """Exact critical point of a model with a ``critical_closed_form`` (the
    van der Waals and Berthelot gases), or None for a model without one.

    Raises NoCriticalPoint when a or b vanishes: the locus is then empty or
    monotone.
    """
    if model.critical_closed_form is None:
        return None
    return _critical(model, *model.critical_closed_form())


def critical_point(model: ConstitutiveModel, *,
                   method: str = "auto",
                   v_window: tuple[float, float] | None = None
                   ) -> CriticalPoint:
    """Maximize temperature along the degeneracy locus.

    ``method="auto"`` returns the model's exact closed form where it has
    one (the van der Waals and Berthelot gases); ``method="numeric"``
    forces the derivative-root path (used to cross-check the closed forms).
    A model with a closed-form locus solves its ``locus_dtdv`` = 0 over
    ``v_window``, 0 < vmin < vmax < inf; any other continues the locus over
    it and solves dT/dV = e11 dS/dV + e12 = 0 from the stack partials.
    """
    _check_method(method, ("auto", "numeric"))
    if method == "auto":
        closed = closed_form_critical_point(model)
        if closed is not None:
            return closed
    if model.locus_dtdv is not None:
        if v_window is None:
            b = model.covolume
            v_window = (1.01 * b, 100.0 * b) if b > 0.0 else (1e-2, 1e2)
        v_c = _critical_volume(model.locus_dtdv, _locus_volumes(v_window, 400))
        try:
            _, t_c, p_c = model.locus_state(v_c)
        except NoRoot as exc:
            raise NoCriticalPoint("locus vanishes at the extremum") from exc
        return _critical(model, v_c, p_c, t_c)

    # any other model: dT/dV = e11 dS/dV + e12 on locus stacks, each one
    # continued from the last; a volume without a locus point is a gap
    s_window = _scan_window(model)
    last = None

    def dtdv(v):
        nonlocal last
        try:
            last = _locus_stack(model, v, s_window, last)
        except NoRoot:
            return math.nan
        return last.e12 - last.e11 * last.det_v / last.det_s

    v_c = _critical_volume(dtdv, _locus_volumes(v_window or (1e-2, 1e2), 200,
                                                model.covolume))
    stack = _locus_stack(model, v_c, s_window, last)
    return _critical(model, v_c, stack.p, stack.t)


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
        coeffs = [value, 0.0, -3.0, 2.0]
    else:
        if not 0.0 < value <= 1.0 + _REDUCED_MARGIN:
            raise DomainError(
                f"reduced temperature must lie in (0, 1], got {value}")
        coeffs = [4.0 * value, -9.0, 6.0, -1.0]

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
            w_roots = _real_roots([2.0 * t_r, -3.0, 0.0, 1.0])
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
