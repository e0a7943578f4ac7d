"""The Hessian map into symmetric 2x2 matrices and its surface geometry.

A state maps to its metric entries; with the off-diagonal scaled by sqrt(2)
the matrix trace pairing becomes the Euclidean dot product, so the image is
an honest surface in R^3 with tangent frame and normal.  The sign of the
pairing between a surface point and its normal classifies radial convexity
and tracks the sign of the scalar curvature.

The pairing and the curvature numerator
---------------------------------------
With e_ij the second and c_ijk the third derivatives of U(S, V):

    P  = (e11,  sqrt2 e12,  e22)      the embedded point
    r1 = (c111, sqrt2 c112, c122)     dP/dS
    r2 = (c112, sqrt2 c122, c222)     dP/dV
    n  = r1 x r2,  pairing = P . n

so the pairing is the triple product det[P; r1; r2].  Each row carries its
sqrt(2) in the middle column only, and a determinant is linear in each
column, hence

    pairing = sqrt(2) det3,   det3 = det [[e11,  e12,  e22 ],
                                          [c111, c112, c122],
                                          [c112, c122, c222]]

and det3 / pairing = 2^(-1/2) identically, for every model and state.  The
constant is fixed by the embedding: an embedding (e11, k e12, e22) gives
det3 / pairing = 1/k, and only k = sqrt(2) turns the trace pairing into the
dot product.  Ruppeiner's 2D formula R = -det3 / (2 det^2) (Rev. Mod. Phys.
67, 605, 1995; ``curvature.scalar_curvature_closed2d``), where
det = e11 e22 - e12^2, then gives

    R = -pairing / (2 sqrt(2) det^2),

the same curvature the tensorial Riemann contraction yields.  Since
det^2 > 0 away from the degeneracy locus, the pairing has the sign of -R;
this is where ``ORIENTATION_SIGN`` = -1 comes from.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

from .eos_models import (
    ConstitutiveModel,
    GasParameters,
    StatePoint,
    choose,
    libm_for,
    raise_where,
    ratio_or_zero,
)
from .errors import FrameSingular
from .metric_core import MetricTensor2, weinhold_metric

_SQRT2 = math.sqrt(2.0)

# Radially convex must coincide with positive scalar curvature.  With this
# frame order (r1 = entropy direction) pairing = -2 sqrt(2) det^2 R, so the
# pairing carries the opposite sign of the curvature and the orientation
# constant is -1 (derived in the module docstring).
ORIENTATION_SIGN = -1.0

TANGENT_BAND = 1e-9


class RadialClass(enum.Enum):
    RADIALLY_CONVEX = "radially_convex"
    RADIALLY_CONCAVE = "radially_concave"
    TANGENT = "tangent"


class HessianPoint(NamedTuple):
    """Image of one state under the Hessian map, with frame and normal
    (each coordinate an array over the cells of a grid)."""

    euclid: tuple[float, float, float]          # (e11, sqrt2 e12, e22)
    r1: tuple[float, float, float]              # d(euclid)/dS
    r2: tuple[float, float, float]              # d(euclid)/dV
    normal: tuple[float, float, float]          # r1 x r2


class RadialPairing(NamedTuple):
    pairing: float
    kind: RadialClass


def embed(e11: float, e12: float, e22: float) -> tuple[float, float, float]:
    """Euclidean coordinates in which the trace pairing is the dot product."""
    return (e11, _SQRT2 * e12, e22)


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _norm(u):
    x = _dot(u, u)
    return libm_for(x).sqrt(x)


def hessian_point_from_metric(metric: MetricTensor2) -> HessianPoint:
    """Build the surface point from the Hessian jet."""
    e11, e12, e22, c111, c112, c122, c222 = metric
    r1 = (c111, _SQRT2 * c112, c122)
    r2 = (c112, _SQRT2 * c122, c222)
    normal = _cross(r1, r2)
    # |r1 x r2| / (|r1| |r2|) is the sine of the frame angle
    raise_where(_norm(normal) <= 1e-12 * _norm(r1) * _norm(r2), FrameSingular,
                "tangent frame is degenerate (r1 parallel to r2)")
    return HessianPoint(
        euclid=embed(e11, e12, e22),
        r1=r1, r2=r2, normal=normal)


def hessian_map(model: ConstitutiveModel, state: StatePoint) -> HessianPoint:
    return hessian_point_from_metric(weinhold_metric(model, state))


def radial_pairing(hp: HessianPoint) -> RadialPairing:
    """Pairing of the surface point with its normal, and the radial class.

    The class follows the derived orientation (see the module docstring):
    pairing = -2 sqrt(2) det^2 R, so convex matches positive curvature.  A
    scale-aware band around zero reports Tangent, the conical (flat)
    situation.
    """
    pairing = _dot(hp.euclid, hp.normal)
    band = TANGENT_BAND * _norm(hp.euclid) * _norm(hp.normal)
    kind = choose([abs(pairing) < band, ORIENTATION_SIGN * pairing > 0.0],
                  [RadialClass.TANGENT, RadialClass.RADIALLY_CONVEX],
                  RadialClass.RADIALLY_CONCAVE)
    return RadialPairing(pairing=pairing, kind=kind)


def ideal_conic_residual(metric: MetricTensor2, cp: float, r_gas: float) -> float:
    """Residual of the conic every ideal-gas image point satisfies."""
    return r_gas * metric.e11 * metric.e22 - cp * metric.e12 * metric.e12


def vdw_surface_residual(metric: MetricTensor2,
                         params: GasParameters) -> tuple[float, float]:
    """Residual of the quintic surface equation for the van der Waals image.

    The heat-capacity constant entering the equation is the fixed combination
    cv0 + r_gas, not the state-dependent isobaric capacity; the surface
    equation comes from eliminating the state variables at constant cv.

    Returns (raw, relative); relative divides by the magnitude sum of the
    constituent terms, so it is scale-free.
    """
    e11, e12, e22 = metric.e11, metric.e12, metric.e22
    a, b, r = params.a, params.b, params.r_gas
    cp = params.cv0 + r
    pow_ = libm_for(e12).pow
    term1 = pow_(b * e12 - r * e11, 3) * (r * e22 * e11 - cp * e12 * e12)
    term2 = 2.0 * a * r * e11 * pow_(e12, 3)
    raw = term1 + term2
    return raw, ratio_or_zero(raw, abs(term1) + abs(term2))
