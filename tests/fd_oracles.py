"""Finite-difference oracles used to cross-check analytic routes.

Everything here is deliberately independent of the library internals: only
metric *values* are consumed, and all geometry (Christoffel symbols, the
Riemann tensor, Laplacians) is rebuilt from nested central differences with
the textbook index conventions.  Accuracy is limited by the double-nested
stencils, roughly 1e-7 relative at well-conditioned states.
"""
import math

import numpy as np

from thermogeom import Chart, StatePoint


def metric_arrays(m):
    """A 2D metric record laid out as the index formulas read it: g[i, j]
    and dg[i, j, k], the partial of g[i, j] along coordinate k."""
    d111, d112, d121, d122, d221, d222 = m.d
    g = np.array([[m.e11, m.e12], [m.e12, m.e22]])
    dg = np.array([[[d111, d112], [d121, d122]],
                   [[d112, d122], [d221, d222]]])
    return g, dg


def weinhold_entry_fn(model):
    """Metric entries (g11, g12, g22) as a plain function of (S, V)."""
    def entries(s, v):
        st = model.derivative_stack(StatePoint(Chart.ENTROPY_VOLUME, s, v))
        return st.e11, st.e12, st.e22
    return entries


def fd_christoffels(metric_fn, x1, x2, h=1e-5):
    """Levi-Civita symbols gamma[k][i][j] from first differences of the metric."""
    g11, g12, g22 = metric_fn(x1, x2)
    det = g11 * g22 - g12 * g12
    inv = ((g22 / det, -g12 / det), (-g12 / det, g11 / det))
    d = [None, None]
    for axis in (0, 1):
        dx = (h, 0.0) if axis == 0 else (0.0, h)
        plus = metric_fn(x1 + dx[0], x2 + dx[1])
        minus = metric_fn(x1 - dx[0], x2 - dx[1])
        d[axis] = tuple((plus[i] - minus[i]) / (2.0 * h) for i in range(3))

    def dg(k, i, j):
        # metric entry index: (0,0)->0, (0,1)/(1,0)->1, (1,1)->2
        return d[k][i + j]

    gam = [[[0.0, 0.0], [0.0, 0.0]] for _ in range(2)]
    for k in range(2):
        for i in range(2):
            for j in range(2):
                acc = 0.0
                for l in range(2):
                    acc += inv[k][l] * (dg(i, j, l) + dg(j, i, l) - dg(l, i, j))
                gam[k][i][j] = 0.5 * acc
    return gam


def fd_scalar_curvature(metric_fn, x1, x2, h=1e-4):
    """Scalar curvature via Riemann built from differenced Christoffels.

    Convention check: the round two-sphere of radius r comes out +2/r**2.
    """
    gp1 = fd_christoffels(metric_fn, x1 + h, x2, h)
    gm1 = fd_christoffels(metric_fn, x1 - h, x2, h)
    gp2 = fd_christoffels(metric_fn, x1, x2 + h, h)
    gm2 = fd_christoffels(metric_fn, x1, x2 - h, h)
    g0 = fd_christoffels(metric_fn, x1, x2, h)

    def dgam(axis, k, i, j):
        if axis == 0:
            return (gp1[k][i][j] - gm1[k][i][j]) / (2.0 * h)
        return (gp2[k][i][j] - gm2[k][i][j]) / (2.0 * h)

    def riem(rho, sig, mu, nu):
        val = dgam(mu, rho, nu, sig) - dgam(nu, rho, mu, sig)
        for lam in range(2):
            val += (g0[rho][mu][lam] * g0[lam][nu][sig]
                    - g0[rho][nu][lam] * g0[lam][mu][sig])
        return val

    g11, g12, g22 = metric_fn(x1, x2)
    det = g11 * g22 - g12 * g12
    r1212 = g11 * riem(0, 1, 0, 1) + g12 * riem(1, 1, 0, 1)
    return 2.0 * r1212 / det


def vdw_entropy_hessian_fn(params):
    """Hessian of the van der Waals entropy in (U, V) coordinates.

    S(U, V) = cv*ln(U + a/V) + r*ln(V - b) up to an additive constant, so the
    second partials are closed-form and the returned entries are exact.  The
    raw (negative-definite at stable states) Hessian is returned, matching
    the library's entropy-chart metric convention.
    """
    a, b, r, cv = params.a, params.b, params.r_gas, params.cv0

    def entries(u, v):
        w = u + a / v
        s_uu = -cv / (w * w)
        s_uv = cv * a / (v * v * w * w)
        s_vv = (2.0 * cv * a / (v ** 3 * w)
                - cv * a * a / (v ** 4 * w * w)
                - r / ((v - b) * (v - b)))
        return s_uu, s_uv, s_vv

    return entries


def second_derivative(fn, t, h):
    """Plain central second difference, used on geodesic interpolants."""
    return (fn(t + h) - 2.0 * fn(t) + fn(t - h)) / (h * h)


def sphere_metric(radius):
    def entries(theta, _phi):
        return radius * radius, 0.0, radius * radius * math.sin(theta) ** 2
    return entries
