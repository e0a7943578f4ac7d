"""Exception types shared across the package."""


class ThermogeomError(Exception):
    """Base class for all package-specific errors."""


class DomainError(ThermogeomError):
    """State or argument outside the admissible domain (V <= b, T <= 0, log of
    a non-positive number, reduced variable out of range, ...)."""


class SingularState(ThermogeomError):
    """A coefficient denominator vanishes or the metric determinant is below
    the degeneracy tolerance: the state sits on (or numerically too close to)
    the degeneracy locus.

    Carries the offending determinant when known.  Over a grid's arrays it
    is raised when any cell is singular; a grid command then ends each such
    cell on the scalar route, one state at a time.
    """

    def __init__(self, msg, det=None):
        super().__init__(msg)
        self.det = det


class UnsupportedModel(ThermogeomError):
    """Operation not defined for this model variant (e.g. the non-interaction
    measure for a model whose heat capacity is not constant)."""


class FrameSingular(ThermogeomError):
    """The tangent frame of the Hessian map is degenerate (r1 parallel to r2,
    normal below tolerance).  Over a grid, as for :class:`SingularState`."""


class NoRoot(ThermogeomError):
    """Bracketed root search found no sign change (e.g. the degeneracy locus is
    empty at the requested volume)."""


class NoCriticalPoint(ThermogeomError):
    """The degeneracy locus is empty or monotone; no interior extremum."""


class StepFailure(ThermogeomError):
    """Adaptive integrator could not meet the local error tolerance."""
