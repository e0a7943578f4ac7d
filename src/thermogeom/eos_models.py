"""Constitutive gas models and their derivative stacks.

Every model reports, at an admissible state, the energy, the first
derivatives (T, -p), the Hessian of U(S, V), the four third partials, the
six thermodynamic coefficients, and the coefficient partials.  These are
bundled in one immutable NamedTuple, :class:`DerivativeStack`, so metric and
curvature code never recomputes or re-differentiates anything.  Every
result record of the package is a NamedTuple; only :class:`StatePoint` and
:class:`GasParameters`, which check their fields, are frozen dataclasses, so
that ``__post_init__`` runs on every construction, ``dataclasses.replace``
included, where a NamedTuple's ``_make`` and ``_replace`` would skip it.

Models in the entropy-volume family (ideal, van der Waals, generic
constant-cv) share one closed-form engine.  The Berthelot gas lives natively
in the temperature-volume chart and builds the same stack through the chain
rule; an entropy-volume state first inverts S(T, V) = s by Newton in log T.
The float inversion spells out the Newton step that the array inversion
masks, and ``TestBerthelotInversion`` pins the two equal bit for bit.
``NumericEnergy`` wraps an arbitrary U(S, V) callback with central finite
differences or a user-supplied analytic derivative callback.  ``GASES`` is
the one list of the named gases, and each lists in ``reads`` the
GasParameters it reads.

The first 12 of ``_fields`` are the Hessian jet: S, V, U, T, p, the Hessian
and third partials.  A checked ``derivative_stack`` is ``_complete`` of
``_fields``: the determinant check, then the response coefficients.  An
unchecked one is ``unchecked_stack`` of the jet, its response coefficients
NaN.  Scalar probes and geodesic samples read the jet alone through
``hessian_jet``, and entropy scans the Hessian alone through ``_hessian``.

Closed forms
------------
Each closed form the paper works out lives on the gas class that has it,
as one of five hooks.  The base class sets every hook to None, and a model
without a closed form (``NumericEnergy``) takes the generic routes:

* ``closed_curvature(st)``: the scalar curvature at the stack ``st``
  (ideal gas, van der Waals, the constant-cv family, Berthelot);
* ``locus_state(v)``: (S, T, p) on the degeneracy locus at volume v, and
  ``locus_dtdv(v)``: dT/dV along it (the constant-cv family, Berthelot);
* ``critical_closed_form()``: (V_c, p_c, T_c) (van der Waals, Berthelot);
* ``det_split(st)``: the determinant's ideal part and its correction from
  f2 (the constant-cv family).

A hook given a volume raises DomainError where it is not finite or not above
the covolume, and NoRoot where the determinant cannot vanish.  Beside the
hooks sit two locus facts: ``square_root_locus``, True for Berthelot, whose
locus is T^2's positive root and whose critical point has a (-p, -T) twin;
and ``entropy_scale``, a locus scan spanning S in +-50 of it (cv, cv0 for
Berthelot, else 1).

One state or many
-----------------
``derivative_stack`` evaluates one state on plain Python floats, and
imports no numpy.  ``array_stack`` evaluates many states in one pass, a
flat list of them (``verify``'s samples) or two axes broadcast into a grid
(with the volume terms once per volume and the entropy terms once per
entropy): the same formulas run on numpy arrays.  Every route of a state,
curvature to Christoffel symbols, likewise takes floats or such arrays.

The two must print the same digits, and numpy's +, -, *, / and sqrt are
IEEE 754 operations, correctly rounded exactly as the float ones are.  Its
``exp``, ``log`` and ``power`` are not: their SIMD kernels round
differently from the C library's ``exp``, ``log`` and ``pow`` in the last
bit for a few percent of arguments.  So every transcendental and every
``**`` goes through :func:`libm_for`, whose array functions call the scalar
libm function once per element, and a grid cell is bit-identical to the
scalar route at that state.  The volume and entropy grids of the scalar
commands follow the same rule (:func:`float_grid`).

Over many states, a check raises when it fails at any of them, as it
would at that one state.  The command then evaluates them again on the
scalar route, one state at a time, where each failing state is told from
the others (``cli._each_state``).  That costs scalar time; none of the
benchmark's sweep jobs needs it.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import operator
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .errors import (DomainError, NoCriticalPoint, NoRoot, SingularState,
                     UnsupportedModel)
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


# per-state paths read these: under Python 3.11 Chart.X costs 0.16 us
_SV, _TV = Chart.ENTROPY_VOLUME, Chart.TEMPERATURE_VOLUME


@dataclass(frozen=True)
class StatePoint:
    """A point on the constitutive surface in one of the two charts."""

    chart: Chart
    x1: float
    x2: float

    def __post_init__(self):
        _check_state(self.x1, self.x2)
        if self.chart is _TV and self.x1 <= 0.0:
            raise DomainError(f"temperature must be positive, got {self.x1}")

    @classmethod
    def entropy_volume(cls, s: float, v: float) -> "StatePoint":
        return cls(_SV, float(s), float(v))

    @property
    def volume(self) -> float:
        return self.x2


def _check_state(x1, v):  # StatePoint's checks common to both charts
    if not math.isfinite(x1) or not math.isfinite(v):
        raise DomainError(f"non-finite state ({x1}, {v})")
    if v <= 0.0:
        raise DomainError(f"volume must be positive, got {v}")


def hessian_jet(model: ConstitutiveModel, s: float, v: float) -> tuple:
    """The first 12 fields of the unchecked stack at (S, V), after
    StatePoint's checks: a scalar probe builds no StatePoint."""
    _check_state(s, v)
    return model._fields(_SV, s, v)[:12]


@dataclass(frozen=True)
class GasParameters:
    """Model constants of the named gas models; each reads its ``reads``."""

    a: float = 0.0
    b: float = 0.0
    r_gas: float = 8.314
    cv0: float = 1.5 * 8.314
    u0: float = 0.0
    s0: float = 0.0

    def __post_init__(self):
        for key, value in vars(self).items():
            if not math.isfinite(value):
                raise DomainError(f"{key} must be finite, got {value}")
        if self.a < 0.0 or self.b < 0.0:
            raise DomainError("a and b must be nonnegative")
        if self.r_gas <= 0.0:
            raise DomainError("r_gas must be positive")
        if self.cv0 <= 0.0:
            raise DomainError("cv0 must be positive")


class DerivativeStack(NamedTuple):
    """Everything any geometric routine needs at one state.

    Hessian entries and third partials are those of U as a function of
    (S, V) regardless of which chart the query used; ``s`` and ``v`` give
    the entropy-volume coordinates of the state.  ``dcv_ds`` to ``dk_dv``
    are the partials of cv, alpha and k along S (at fixed V) and V (at
    fixed S); ``cv`` to ``dk_dv`` are NaN in an ``unchecked_stack``.  From
    ``array_stack`` the fields are arrays over its states, row-major for a
    grid (a model constant, such as a constant cv, stays a float).
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

    det = property(lambda self: jet_det(*self[5:8]))
    det_s = property(lambda self: jet_det_s(*self[5:11]))
    det_v = property(lambda self: jet_det_v(*self[5:8], *self[9:12]))


def jet_det(e11, e12, e22):
    return e11 * e22 - e12 * e12


def jet_det_s(e11, e12, e22, c111, c112, c122):
    """Entropy partial of det, from the jet's entries."""
    return c111 * e22 + e11 * c122 - 2.0 * e12 * c112


def jet_det_v(e11, e12, e22, c112, c122, c222):
    """Volume partial of det at constant entropy, from the jet's entries."""
    return c112 * e22 + e11 * c222 - 2.0 * e12 * c122


def unchecked_stack(jet) -> DerivativeStack:
    """The stack of a Hessian jet, its response coefficients NaN."""
    return DerivativeStack._make(jet + (math.nan,) * 10)


# A state is degenerate when its relative determinant lies inside this band.
SINGULAR_BAND = 1e-9
_NORMAL_MIN = sys.float_info.min  # products below it lose digits to underflow
_NEWTON_TOL = 4.0 * _EPS  # where Berthelot's Newton in log T stops


def relative_det(e11, e12, e22):
    """det / max(|e11 e22|, e12^2): the Hessian determinant against the
    larger of its two terms.

    Rescaling U, S or V multiplies both terms by the same factor, so the
    measure, and every degeneracy decision read from it, is unit-free.
    Entries whose terms both vanish give 0, a degenerate state.  Terms
    below the smallest normal float lose digits to underflow, so there the
    entries are first scaled exactly, by a power of two, to unit size.
    """
    a, b = abs(e11 * e22), e12 * e12
    if type(a) is not float and is_array(a):
        import numpy as np
        # max(a, b) elementwise, taking NaN as max() does
        scale = np.where(b > a, b, a)
        out = ratio_or_zero(e11 * e22 - e12 * e12, scale)
        tiny = scale < _NORMAL_MIN
        if tiny.any():  # the cells whose products underflow, one at a time
            out[tiny] = [relative_det(*cell) for cell in zip(*(
                x[tiny].tolist() for x in np.broadcast_arrays(e11, e12, e22)))]
        return out
    scale = max(a, b)
    if scale < _NORMAL_MIN:
        k = -math.frexp(max(abs(e11), abs(e12), abs(e22)))[1]
        e11, e12, e22 = (math.ldexp(e, k) for e in (e11, e12, e22))
        scale = max(abs(e11 * e22), e12 * e12)
    return (e11 * e22 - e12 * e12) / scale if scale > 0.0 else 0.0


def ratio_or_zero(num, den):
    """num / den where den > 0, else 0.0; elementwise over arrays."""
    if type(den) is not float and is_array(den):
        import numpy as np
        return np.divide(num, den, out=np.zeros(np.broadcast(num, den).shape),
                         where=den > 0.0)
    return num / den if den > 0.0 else 0.0


def choose(conditions, choices, default):
    """The choice of the first condition that holds, else ``default``;
    elementwise, as an object array, when a condition is an array."""
    if any(type(c) is not bool and is_array(c) for c in conditions):
        import numpy as np
        return np.select(conditions, choices, default)
    for cond, choice in zip(conditions, choices):
        if cond:
            return choice
    return default


class Libm(NamedTuple):
    """exp, log, ``**`` and sqrt as the C library rounds them."""

    exp: Callable
    log: Callable
    pow: Callable
    sqrt: Callable


_FLOAT_LIBM = Libm(math.exp, math.log, operator.pow, math.sqrt)


@functools.cache
def _array_libm() -> Libm:  # built, importing numpy, for the first array
    import numpy as np

    def per_element(fn):
        return lambda x, *args: np.array(list(map(fn, x.ravel().tolist(), *map(
            itertools.repeat, args)))).reshape(x.shape)
    # IEEE 754 rounds sqrt correctly, so numpy's sqrt is the C library's
    return Libm(*map(per_element, (math.exp, math.log, operator.pow)), np.sqrt)


def is_array(x) -> bool:
    """Whether ``x`` is a numpy array, never importing numpy to tell."""
    return isinstance(x, getattr(sys.modules.get("numpy"), "ndarray", ()))


def libm_for(x) -> Libm:
    """The C library's functions for ``x``: themselves for a float, called
    once per element for an array (see the module docstring)."""
    return (_array_libm() if type(x) is not float and is_array(x)
            else _FLOAT_LIBM)


def float_grid(start, stop, n: int, *, geometric=False) -> list[float]:
    """``n`` >= 2 floats from ``start`` to ``stop`` as numpy's linspace rounds
    them, i * step + start with the end pinned, or, ``geometric``, as its
    geomspace of positive ends by the C library's log10 and pow."""
    if geometric:
        inner = float_grid(math.log10(start), math.log10(stop), n)[1:-1]
        return [float(start), *[10.0 ** y for y in inner], float(stop)]
    div, span = n - 1, stop - start
    step = span / div  # if it rounds to 0, numpy scales i / div by the span
    return [(i * step if step else i / div * span) + start
            for i in range(div)] + [float(stop)]


def anywhere(cond) -> bool:
    """Whether ``cond`` holds, for one state or for any cell of a grid."""
    return cond.any() if type(cond) is not bool and is_array(cond) else cond


def raise_where(cond, error, *args, **kwargs):
    """Raise ``error(*args, **kwargs)`` if ``cond`` holds, at one state or
    at any cell of a grid."""
    if anywhere(cond):
        raise error(*args, **kwargs)


def is_degenerate(e11, e12, e22):
    """Whether the Hessian is degenerate: its relative determinant lies
    inside ``SINGULAR_BAND``; elementwise over arrays.  This is the one
    test behind every ``SingularState`` and the degenerate signature."""
    return abs(relative_det(e11, e12, e22)) < SINGULAR_BAND


def checked_det(e11, e12, e22, why="state lies on the degeneracy locus"):
    """The Hessian determinant, for a caller about to divide by it; a
    degenerate Hessian, at one state or at any cell of a grid, raises
    SingularState(why) carrying it."""
    det = e11 * e22 - e12 * e12
    raise_where(is_degenerate(e11, e12, e22), SingularState, why, det=det)
    return det


def _stack_from_hessian(s, v, u, t, p, e11, e12, e22,
                        c111, c112, c122, c222, cv=None) -> DerivativeStack:
    """Complete a stack from the energy, its first, second and third
    partials, after the degeneracy check.

    k, alpha and cp, and the partials of cv, alpha and k, follow by exact
    algebra from cv = T/e11, k = e11/(V det) and alpha = -e12/(V det), so no
    finite differencing is layered on top of an already-noisy stack.  A
    given ``cv`` is a constant heat capacity: its partials are reported as
    exact zeros.  Without one, cv = T/e11.
    """
    det = checked_det(e11, e12, e22)
    if cv is not None:
        dcv_ds = dcv_dv = 0.0
    else:
        cv = t / e11
        dcv_ds = 1.0 - t * c111 / (e11 * e11)
        dcv_dv = (e11 * e12 - t * c112) / (e11 * e11)
    k = e11 / (v * det)
    alpha = -e12 / (v * det)
    cp = cv + t * v * alpha * alpha / k
    det_s = jet_det_s(e11, e12, e22, c111, c112, c122)
    det_v = jet_det_v(e11, e12, e22, c112, c122, c222)
    dk_s = (c111 * det - e11 * det_s) / (v * det * det)
    dk_v = (c112 * v * det - e11 * det - e11 * v * det_v) / (v * v * det * det)
    da_s = -(c112 * det - e12 * det_s) / (v * det * det)
    da_v = (-c122 * v * det + e12 * det + e12 * v * det_v) / (v * v * det * det)
    # positional, in field order: a third of the cost of keywords
    return DerivativeStack(s, v, u, t, p, e11, e12, e22,
                           c111, c112, c122, c222, cv, cp, alpha, k,
                           dcv_ds, dcv_dv, da_s, da_v, dk_s, dk_v)


class ConstitutiveModel:
    """Abstract interface: a fundamental relation with derivatives to order 3."""

    name = "abstract"
    params: GasParameters | None = None
    # the module docstring's closed forms, None where absent, and locus facts
    closed_curvature = locus_state = locus_dtdv = None
    critical_closed_form = det_split = None
    square_root_locus, entropy_scale = False, 1.0

    def derivative_stack(self, state: StatePoint, *,
                         check_singular: bool = True) -> DerivativeStack:
        # each model class binds it by name, where perfbench's tracer wraps it
        fields = self._fields(state.chart, state.x1, state.x2)
        if check_singular:
            return self._complete(*fields)
        return unchecked_stack(fields[:12])

    def array_stack(self, chart: Chart, x1, x2) -> DerivativeStack:
        """The stacks at the states (x1, x2) of two broadcast arrays,
        flattened row-major, each equal to ``derivative_stack`` there.  It
        raises if any state fails a check, degeneracy included, and, under
        numpy's raising division and invalid flags, where the scalar route
        divides by zero."""
        import numpy as np
        # StatePoint's checks, per state
        raise_where(~(np.isfinite(x1) & np.isfinite(x2) & (x2 > 0.0) & (
            (x1 > 0.0) if chart is Chart.TEMPERATURE_VOLUME else True)),
            DomainError, "a state lies outside the domain")
        fields = self._fields(chart, x1, x2)
        shape = np.broadcast(x1, x2).shape
        return self._complete(*(
            np.broadcast_to(f, shape).ravel()
            if isinstance(f, np.ndarray) else f for f in fields))

    def _fields(self, chart: Chart, x1, v) -> tuple:
        """The inputs of ``_complete`` at (x1, v): floats for one state,
        arrays broadcast from the axes for a grid.  The first 12 are the
        stack's first 12 fields, in every model."""
        raise NotImplementedError

    def _complete(self, *fields) -> DerivativeStack:
        raise NotImplementedError

    def _hessian(self, s, v) -> tuple:  # e11, e12, e22 of hessian_jet
        _check_state(s, v)
        return self._fields(_SV, s, v)[5:8]

    @property
    def covolume(self) -> float:
        """Volume floor of the admissible domain: ``params.b`` for a model
        with gas parameters other than the ideal gas, 0 otherwise."""
        return self.params.b if self.params is not None else 0.0

    def _check_volume(self, v: float):
        """Reject a volume that is not finite or not above the covolume."""
        if not math.isfinite(v):
            raise DomainError(f"volume must be finite, got {v}")
        if not v > self.covolume:
            raise DomainError(
                f"volume must exceed the covolume b={self.covolume}, got {v}")

    def coefficients(self, state: StatePoint) -> DerivativeStack:
        """The stack at ``state``, under the name the acceptance suite calls."""
        return self.derivative_stack(state)

    coefficient_partials = coefficients


def stack_at(model: ConstitutiveModel,
             at: StatePoint | DerivativeStack) -> DerivativeStack:
    """``at`` itself when it is a stack already evaluated, else the model's
    stack at the state ``at``."""
    return at if isinstance(at, DerivativeStack) else model.derivative_stack(at)


class ConstantCv(ConstitutiveModel):
    """Family U(S, V) = f1(V) e^{S/cv} - cv f2(V) + u0 with constant cv.

    f1 and f2 may be expression strings or any objects with an
    ``eval_derivs`` method returning value and three derivatives.
    """

    name = "constant_cv"
    derivative_stack = ConstitutiveModel.derivative_stack
    entropy_scale = property(lambda self: self.cv)

    def __init__(self, f1, f2=None, cv: float = 1.0, u0: float = 0.0):
        if not (math.isfinite(cv) and math.isfinite(u0)):
            raise DomainError(f"cv and u0 must be finite, got {cv}, {u0}")
        if cv <= 0.0:
            raise DomainError("cv must be positive")
        self.f1: SmoothFunction = as_smooth(f1)
        self.f2: SmoothFunction = as_smooth(f2) if f2 is not None else ZeroFunction()
        self.cv = float(cv)
        self.u0 = float(u0)

    def volume_terms(self, v):
        """f1 and f2 with their three derivatives at v, eight values; over
        an array, one scalar evaluation per distinct volume, ascending."""
        if type(v) is not float and is_array(v):
            import numpy as np
            values, inverse = np.unique(v, return_inverse=True)
            table = np.array([self.volume_terms(x)
                              for x in values.tolist()]).reshape(-1, 8)
            return tuple(table[inverse.reshape(v.shape)].transpose(
                v.ndim, *range(v.ndim)))
        self._check_volume(v)
        f1 = self.f1.eval_derivs(v)
        if f1[0] <= 0.0:
            raise DomainError(f"f1(V) must be positive, got {f1[0]} at V={v}")
        return (*f1, *self.f2.eval_derivs(v))

    def _fields(self, chart, x1, v):
        cv = self.cv
        m = libm_for(v)
        f1, f1p, f1pp, f1ppp, f2, f2p, f2pp, f2ppp = self.volume_terms(v)
        if chart is _SV:
            s = x1
        else:
            s = cv * m.log(cv * x1 / f1)
        e = m.exp(s / cv)
        # each product once; -(f1p * e) is -f1p * e, as negation is exact
        f1e, f1pe, f1ppe, cv2 = f1 * e, f1p * e, f1pp * e, cv * cv

        u = f1e - cv * f2 + self.u0
        t = f1e / cv
        p = -f1pe + cv * f2p

        e11 = f1e / cv2
        e12 = f1pe / cv
        e22 = f1ppe - cv * f2pp
        c111 = f1e / (cv ** 3)
        c112 = f1pe / cv2
        c122 = f1ppe / cv
        c222 = f1ppp * e - cv * f2ppp
        return s, v, u, t, p, e11, e12, e22, c111, c112, c122, c222

    def _complete(self, *fields):
        return _stack_from_hessian(*fields, cv=self.cv)

    def closed_curvature(self, st):
        """The structural closed form, in f1, f2 and T."""
        f1, f1p, f1pp, _, _, _, f2pp, _ = self.volume_terms(st.v)
        x_struct = f1 * f1pp - f1p * f1p
        denom = st.t * x_struct - f1 * f1 * f2pp
        return f1 * f1 * f2pp * x_struct / (2.0 * st.cv * denom * denom)

    def locus_state(self, v):
        f1, f1p, f1pp, _, _, f2p, f2pp, _ = self.volume_terms(v)
        x_disc = f1 * f1pp - f1p * f1p
        e_star = self.cv * f1 * f2pp / x_disc if x_disc != 0.0 else 0.0
        if e_star <= 0.0:
            raise NoRoot(f"determinant never vanishes at V={v}")
        s = self.cv * math.log(e_star)
        t = f1 * e_star / self.cv
        p = -f1p * e_star + self.cv * f2p
        return s, t, p

    def locus_dtdv(self, v):
        terms = self.volume_terms(v)
        k = -math.frexp(terms[0])[1]  # to unit f1: x_disc^2 has degree 4 in U
        f1, f1p, f1pp, f1ppp, _, _, f2pp, f2ppp = (math.ldexp(x, k)
                                                   for x in terms)
        x_disc = f1 * f1pp - f1p * f1p
        x_slope = f1 * f1ppp - f1p * f1pp
        num = 2.0 * f1 * f1p * f2pp + f1 * f1 * f2ppp
        return math.ldexp(
            num / x_disc - f1 * f1 * f2pp * x_slope / (x_disc * x_disc), -k)

    def det_split(self, st):
        cv = st.cv
        e = libm_for(st.s).exp(st.s / cv)
        f1, f1p, f1pp, _, _, _, f2pp, _ = self.volume_terms(st.v)
        x = f1 * f1pp - f1p * f1p
        return e * e * x / (cv * cv), -e * f1 * f2pp / cv


class IdealGas(ConstantCv):
    """Ideal gas: f1 = V^(-r_gas/cv0) with f2 = 0, and no covolume."""

    name = "ideal"
    covolume = 0.0
    reads = ("r_gas", "cv0", "u0", "s0")

    def __init__(self, params: GasParameters):
        self.params = params
        coeff = math.exp(-params.s0 / params.cv0)
        f1 = ShiftedPower(coeff, 0.0, -params.r_gas / params.cv0)
        super().__init__(f1, None, cv=params.cv0, u0=params.u0)

    def closed_curvature(self, st):
        return 0.0


class VanDerWaals(ConstantCv):
    """Van der Waals gas: f1 = (V-b)^(-r_gas/cv0), f2 = a/(cv0 V)."""

    name = "vdw"
    reads = ("a", "b", "r_gas", "cv0", "u0", "s0")

    def __init__(self, params: GasParameters):
        self.params = params
        coeff = math.exp(-params.s0 / params.cv0)
        f1 = ShiftedPower(coeff, params.b, -params.r_gas / params.cv0)
        f2 = ShiftedPower(params.a / params.cv0, 0.0, -1.0)
        super().__init__(f1, f2, cv=params.cv0, u0=params.u0)

    def closed_curvature(self, st):
        q = self.params
        a, b, r = q.a, q.b, q.r_gas
        v3 = libm_for(st.v).pow(st.v, 3)
        den = st.p * v3 - a * st.v + 2.0 * a * b
        return a * r * v3 / (st.cv * den * den)

    def critical_closed_form(self):
        a, b, r = self.params.a, self.params.b, self.params.r_gas
        if a <= 0.0 or b <= 0.0:
            raise NoCriticalPoint("locus is empty or monotone")
        return 3.0 * b, a / (27.0 * b * b), 8.0 * a / (27.0 * b * r)


class Berthelot(ConstitutiveModel):
    """Berthelot gas, native to the temperature-volume chart.

    p = r T/(V-b) - a/(T V^2) and cv = cv0 + 2a/(V T^2).  Entropy-volume
    queries invert S(T, V) by Newton in u = log T, where S is increasing and
    concave for a >= 0: from a start below the root the iterates rise to it
    without overshoot, and the root is unique.  An array of states runs the
    float start, steps and stop masked, so each T is the float one.
    """

    name = "berthelot"
    derivative_stack = ConstitutiveModel.derivative_stack
    square_root_locus = True
    entropy_scale = property(lambda self: self.params.cv0)
    reads = ("a", "b", "r_gas", "cv0", "u0", "s0")

    def __init__(self, params: GasParameters):
        self.params = params

    def _entropy(self, t, v):
        q = self.params
        log = libm_for(v).log
        return (q.s0 + q.cv0 * log(t) + q.r_gas * log(v - q.b)
                - q.a / (v * t * t))

    def _log_t_start(self, s, v, log):
        # f(u) = S - s = c + cv0 u - a_v e^(-2u): c, a_v, the a = 0 root, cv0
        q = self.params
        c = q.s0 + q.r_gas * log(v - q.b) - s
        return c, q.a / v, -c / q.cv0, q.cv0

    def _temperature_from_entropy(self, s, v):
        if type(s) is not float and is_array(s):
            return self._temperatures_from_entropy(s, v)
        c, a_v, u, cv0 = self._log_t_start(s, v, math.log)
        if 0.0 < a_v < c:  # where the attraction balances c, f <= 0 too
            u = max(u, -0.5 * math.log(c / a_v))
        # no attraction, no exp: at low entropy it would overflow
        exp = math.exp if a_v else (lambda x: 0.0)
        for _ in range(200):  # Newton in u = log T, given e^(-2u)
            g = a_v * exp(-2.0 * u)
            du = (c + cv0 * u - g) / (cv0 + 2.0 * g)
            u, du = u - du, abs(du)
            if du <= _NEWTON_TOL or du <= _NEWTON_TOL * abs(u):
                return math.exp(u)
        raise DomainError(f"entropy inversion failed at S={s}, V={v}")

    def _temperatures_from_entropy(self, s, v):
        # the float path, masked: a state leaves the active set as it stops
        import numpy as np
        with np.errstate(invalid="ignore", over="ignore"):  # as for floats
            v, libm = np.asarray(v), _array_libm()
            shape = np.broadcast(s, v).shape
            *start, cv0 = self._log_t_start(s, v, libm.log)
            c, a_v, u = (np.broadcast_to(x, shape).flatten() for x in start)
            up = (0.0 < a_v) & (a_v < c)
            w = -0.5 * libm.log(c[up] / a_v[up])
            u[up] = np.where(w > u[up], w, u[up])  # max(u, w), NaN included
            t, live = np.empty(u.shape), np.arange(u.size)
            for _ in range(200):
                e, nz = np.zeros(u.shape), a_v != 0.0  # exp where a_v != 0
                e[nz] = libm.exp(-2.0 * u[nz])
                g = a_v * e  # the float step, each state's bits
                du = (c + cv0 * u - g) / (cv0 + 2.0 * g)
                u, du = u - du, abs(du)
                stop = (du <= _NEWTON_TOL) | (du <= _NEWTON_TOL * abs(u))
                t[live[stop]] = u[stop]
                live, c, a_v, u = (x[~stop] for x in (live, c, a_v, u))
                if not live.size:
                    return libm.exp(t).reshape(shape)
        s, v = (np.broadcast_to(x, shape).flat[live[0]] for x in (s, v))
        raise DomainError(f"entropy inversion failed at S={s}, V={v}")

    def _fields(self, chart, x1, v):
        q = self.params
        self._check_volume(
            v.min() if type(v) is not float and is_array(v) else v)
        # a temperature-volume state carries T > 0 already
        tv = chart is _TV
        t = x1 if tv else self._temperature_from_entropy(x1, v)

        a, b, r = q.a, q.b, q.r_gas
        w = v - b
        w2 = w * w
        pow_ = libm_for(v).pow
        v3, t3 = pow_(v, 3), pow_(t, 3)
        if anywhere(t3 < _NORMAL_MIN):
            raise DomainError(
                f"temperature {t} is too small: its cube underflows")
        # after the check: the entropy's T * T underflows below ~1.5e-154
        s = self._entropy(t, v) if tv else x1
        u = q.u0 + q.cv0 * t - 2.0 * a / (t * v)
        p = r * t / w - a / (t * v * v)

        p_t = r / w + a / (t * t * v * v)
        p_v = -r * t / w2 + 2.0 * a / (t * v3)
        p_tt = -2.0 * a / (t3 * v * v)
        p_tv = -r / w2 - 2.0 * a / (t * t * v3)
        p_vv = 2.0 * r * t / pow_(w, 3) - 6.0 * a / (t * pow_(v, 4))

        cv = q.cv0 + 2.0 * a / (v * t * t)
        cv_t = -4.0 * a / (v * t3)
        cv_v = -2.0 * a / (v * v * t * t)
        # each product once; -(t * p_t) is -t * p_t, as negation is exact
        cv2, tp = cv * cv, t * p_t
        tpp = tp * p_t

        # Hessian of U(S, V) through the chart change.  e22 is written in
        # the form that stays finite on the locus (where (dp/dV)_T = 0 and
        # the compressibility diverges).
        e11 = t / cv
        e12 = -tp / cv
        e22 = -p_v + tpp / cv

        e11_t = (cv - t * cv_t) / cv2
        e11_v = -t * cv_v / cv2
        e12_t = -(p_t + t * p_tt) / cv + tp * cv_t / cv2
        e12_v = -t * p_tv / cv + tp * cv_v / cv2
        e22_t = (-p_tv + (p_t * p_t + 2.0 * t * p_t * p_tt) / cv
                 - tpp * cv_t / cv2)
        e22_v = -p_vv + 2.0 * t * p_t * p_tv / cv - tpp * cv_v / cv2

        # (d/dS)|_V = (T/cv) (d/dT)|_V; (d/dV)|_S = (d/dV)|_T + e12 (d/dT)|_V
        c111 = t * e11_t / cv
        c112 = e11_v + e12 * e11_t
        c122 = e12_v + e12 * e12_t
        c222 = e22_v + e12 * e22_t
        return (s, v, u, t, p, e11, e12, e22, c111, c112, c122, c222,
                cv, cv_t, cv_v, p_t, p_v, p_tt, p_tv, p_vv)

    def _complete(self, s, v, u, t, p, e11, e12, e22, c111, c112, c122, c222,
                  cv, cv_t, cv_v, p_t, p_v, p_tt, p_tv, p_vv):
        checked_det(e11, e12, e22)

        def d_s(f_t):
            # (d/dS)|_V = (T/cv) (d/dT)|_V
            return t * f_t / cv

        def d_v(f_v, f_t):
            # (d/dV)|_S = (d/dV)|_T + (dT/dV)|_S (d/dT)|_V, slope = e12
            return f_v + e12 * f_t

        # det = -T p_v / cv
        k = -1.0 / (v * p_v)
        k_t = p_tv / (v * p_v * p_v)
        k_v = (p_v + v * p_vv) / (v * v * p_v * p_v)
        alpha = k * p_t
        alpha_t = k_t * p_t + k * p_tt
        alpha_v = k_v * p_t + k * p_tv
        cp = cv + t * v * k * p_t * p_t
        return DerivativeStack(s, v, u, t, p, e11, e12, e22,
                               c111, c112, c122, c222, cv, cp, alpha, k,
                               d_s(cv_t), d_v(cv_v, cv_t),
                               d_s(alpha_t), d_v(alpha_v, alpha_t),
                               d_s(k_t), d_v(k_v, k_t))

    def closed_curvature(self, st):
        q = self.params
        a, b, r = q.a, q.b, q.r_gas
        t, v, cv = st.t, st.v, st.cv
        pow_ = libm_for(v).pow
        w = v - b
        p_poly = (2.0 * cv - r) * v * v - 3.0 * cv * b * v + cv * b * b
        num = 2.0 * a * (pow_(t, 4) * pow_(v, 4) * r * cv * p_poly
                         + t * t * a * cv * v * w * w * (r * v * v - cv * w * w)
                         + a * a * 2.0 * cv * pow_(w, 4))
        den = (pow_(cv, 3) * pow_(t, 3) * v
               * pow_(r * t * t * pow_(v, 3) - 2.0 * a * w * w, 2))
        return num / den

    def locus_state(self, v):
        """The positive-temperature branch of T = (1 - b/V) sqrt(2a/(rV))."""
        q = self.params
        self._check_volume(v)
        t = ((v - q.b) / v) * math.sqrt(2.0 * q.a / (q.r_gas * v))
        if t <= 0.0:
            raise NoRoot(f"determinant never vanishes at V={v}")
        p = q.r_gas * t / (v - q.b) - q.a / (t * v * v)
        return self._entropy(t, v), t, p

    def locus_dtdv(self, v):
        q = self.params
        self._check_volume(v)
        k = math.sqrt(2.0 * q.a / q.r_gas)
        return k * v ** -2.5 * (3.0 * q.b - v) / 2.0

    def critical_closed_form(self):
        a, b, r = self.params.a, self.params.b, self.params.r_gas
        if a <= 0.0 or b <= 0.0:
            raise NoCriticalPoint("locus is empty or monotone")
        t_c = math.sqrt(8.0 * a / (27.0 * r * b))
        p_c = math.sqrt(a * r / (216.0 * b ** 3))
        return 3.0 * b, p_c, t_c


class NumericEnergy(ConstitutiveModel):
    """Wraps a plain U(S, V) callback.

    ``scheme`` is either ``"central"`` (finite differences, order-matched
    steps, U at 25 points; 9 for the Hessian alone) or a callable returning the
    ten partials (u, u_S, u_V, u_SS, u_SV, u_VV, u_SSS, u_SSV, u_SVV, u_VVV).
    """

    name = "numeric"
    derivative_stack = ConstitutiveModel.derivative_stack

    def __init__(self, u, scheme="central"):
        self.u = u
        if scheme != "central" and not callable(scheme):
            raise UnsupportedModel(f"unknown derivative scheme {scheme!r}")
        self.scheme = scheme

    def _second_partials(self, s, v, u0):  # 8 calls of U around U = u0
        u = self.u
        h2s = max(abs(s), 1.0) * FD_STEP_SECOND
        h2v = max(abs(v), 1.0) * FD_STEP_SECOND
        u_ss = (u(s + h2s, v) - 2.0 * u0 + u(s - h2s, v)) / (h2s * h2s)
        u_vv = (u(s, v + h2v) - 2.0 * u0 + u(s, v - h2v)) / (h2v * h2v)
        u_sv = (u(s + h2s, v + h2v) - u(s + h2s, v - h2v)
                - u(s - h2s, v + h2v) + u(s - h2s, v - h2v)) / (4.0 * h2s * h2v)
        return u_ss, u_sv, u_vv

    def _hessian(self, s, v):
        if self.scheme != "central":
            return super()._hessian(s, v)
        _check_state(s, v)
        return self._second_partials(s, v, self.u(s, v))

    def _fd_partials(self, s, v):
        u = self.u
        h1s = max(abs(s), 1.0) * FD_STEP_FIRST
        h1v = max(abs(v), 1.0) * FD_STEP_FIRST
        h3s = max(abs(s), 1.0) * FD_STEP_THIRD
        h3v = max(abs(v), 1.0) * FD_STEP_THIRD

        u0 = u(s, v)
        u_s = (u(s + h1s, v) - u(s - h1s, v)) / (2.0 * h1s)
        u_v = (u(s, v + h1v) - u(s, v - h1v)) / (2.0 * h1v)
        u_ss, u_sv, u_vv = self._second_partials(s, v, u0)

        # 12 third-order points, once each; call order picks the error reported
        sp, sm, vp, vm = s + h3s, s - h3s, v + h3v, v - h3v
        u_s2p, u_p0, u_m0, u_s2m = (u(s + 2 * h3s, v), u(sp, v), u(sm, v),
                                   u(s - 2 * h3s, v))
        u_v2p, u_0p, u_0m, u_v2m = (u(s, v + 2 * h3v), u(s, vp), u(s, vm),
                                   u(s, v - 2 * h3v))
        u_pp, u_mp, u_pm, u_mm = u(sp, vp), u(sm, vp), u(sp, vm), u(sm, vm)
        u_sss = (u_s2p - 2.0 * u_p0 + 2.0 * u_m0 - u_s2m) / (2.0 * h3s ** 3)
        u_vvv = (u_v2p - 2.0 * u_0p + 2.0 * u_0m - u_v2m) / (2.0 * h3v ** 3)
        u_ssv = ((u_pp - 2.0 * u_0p + u_mp) / (h3s * h3s)
                 - (u_pm - 2.0 * u_0m + u_mm) / (h3s * h3s)) / (2.0 * h3v)
        u_svv = ((u_pp - 2.0 * u_p0 + u_pm) / (h3v * h3v)
                 - (u_mp - 2.0 * u_m0 + u_mm) / (h3v * h3v)) / (2.0 * h3s)

        return u0, u_s, u_v, u_ss, u_sv, u_vv, u_sss, u_ssv, u_svv, u_vvv

    def _fields(self, chart, s, v):
        if chart is not _SV:
            raise UnsupportedModel(
                "NumericEnergy accepts entropy-volume states only")
        partials = self._fd_partials if self.scheme == "central" else self.scheme
        u, u_s, u_v, e11, e12, e22, c111, c112, c122, c222 = partials(s, v)
        return s, v, u, u_s, -u_v, e11, e12, e22, c111, c112, c122, c222

    def _complete(self, *fields):
        return _stack_from_hessian(*fields)


# ---------------------------------------------------------------------------
# The named gases, by name, and config-file loading

GASES = {"ideal": IdealGas, "vdw": VanDerWaals, "berthelot": Berthelot}


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment, blank lines ignored.
    ``model`` names a gas of GASES or ``custom``, whose f1 and f2 stay
    strings; the other keys are GasParameters fields."""
    out = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {ln}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "model":
            if value not in (models := (*GASES, "custom")):
                raise ValueError(f"line {ln}: unknown model {value!r}, "
                                 f"expected one of {models}")
            out[key] = value
        elif key in ("f1", "f2"):  # the custom gas's expressions in V
            out[key] = value
        elif key in GasParameters.__dataclass_fields__:
            try:
                out[key] = float(value)
            except ValueError:
                raise ValueError(f"line {ln}: bad numeric value {value!r} for {key}")
        else:
            raise ValueError(f"line {ln}: unknown key {key!r}")
    return out


def make_model(name: str, params: GasParameters) -> ConstitutiveModel:
    if name not in GASES:
        raise ValueError(f"unknown model {name!r}, expected one of {tuple(GASES)}")
    return GASES[name](params)
