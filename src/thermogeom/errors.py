"""Exception types shared across the package."""


class ThermogeomError(Exception):
    """Base class for all package-specific errors."""


class DomainError(ThermogeomError):
    """State or argument outside the admissible domain (V <= b, T <= 0, log of
    a non-positive number, reduced variable out of range, ...)."""


class SingularState(ThermogeomError):
    """The Hessian is degenerate: its relative determinant lies inside
    ``eos_models.SINGULAR_BAND``, on (or numerically too close to) the
    degeneracy locus.  Only ``eos_models.checked_det`` raises it, with
    ``det`` that determinant; a division by zero at a nondegenerate state,
    such as the elementary route's at alpha = 0, stays a ZeroDivisionError.

    Over a grid's arrays it is raised when any cell is degenerate; a grid
    command then ends each such cell on the scalar route, one state at a
    time.
    """

    def __init__(self, msg, det):
        super().__init__(msg)
        self.det = det


class UnsupportedModel(ThermogeomError):
    """Operation not defined for this model variant (e.g.
    ``negativity_test`` or ``zero_curvature_classify`` on a model without
    constant cv, or a temperature-volume state for ``NumericEnergy``)."""


class FrameSingular(ThermogeomError):
    """The tangent frame of the Hessian map is degenerate (r1 parallel to r2,
    normal below tolerance).  Over a grid, as for :class:`SingularState`."""


class NoRoot(ThermogeomError):
    """Bracketed root search found no sign change (e.g. the degeneracy locus is
    empty at the requested volume)."""


class NoCriticalPoint(ThermogeomError):
    """The degeneracy locus is empty or monotone; no interior extremum."""


class StepFailure(ThermogeomError):
    """The integrator's step collapsed, or a run exceeded its step budget."""


DOMAIN_ERRORS = (DomainError, UnsupportedModel, ValueError, OSError)
"""A bad request or a state outside the domain, such as an expression's ln
of a non-positive value (a ValueError): exit 1, grid cell ``domain``."""

STATE_ERRORS = (*DOMAIN_ERRORS, ArithmeticError)
"""What ends one state: a domain error or a float fault, such as a division
by zero (exit 3, cell ``numeric``).  A scan over many states reads it as a
gap and, when every state is one, raises the first state's error."""
