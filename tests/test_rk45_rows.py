"""``_rk45._solve`` copies each stage derivative into its row of the stage
matrix as the bytes of its doubles.  Every form of return that scipy's
``solve_ivp`` reads through ``np.asarray(..., dtype=float)`` gives the same
run as scipy's, bit for bit: a list or a tuple of floats, an ndarray of
float64 or float32, numpy scalars, and an int where a value is whole.
"""
import math

import numpy as np
import pytest

pytest.importorskip("scipy")
from scipy.integrate import solve_ivp  # noqa: E402

from thermogeom import _rk45  # noqa: E402


def pendulum(_t, y):
    """A clock, a damped pendulum and a forced coordinate, as floats; the
    clock's rate is exactly 1."""
    _, x, p, q = y.tolist()
    return [1.0, p, -math.sin(x) - 0.1 * p, -0.5 * q + 0.2 * x * p]


FORMS = {
    "list": lambda f: f,
    "tuple": tuple,
    "ndarray": np.array,
    "float32-ndarray": lambda f: np.array(f, dtype=np.float32),
    "float64-scalars": lambda f: [np.float64(x) for x in f],
    "mixed-scalars": lambda f: [1, np.float32(f[1]), np.float64(f[2]),
                                f[3]],
}


@pytest.mark.parametrize("form", sorted(FORMS))
@pytest.mark.parametrize("t_end,tol", [(20.0, 1e-9), (-6.0, 1e-6)])
def test_every_return_form_gives_scipys_run(form, t_end, tol):
    def rhs(t, y):
        return FORMS[form](pendulum(t, y))

    y0 = [0.0, 1.2, 0.0, 0.5]
    run = _rk45._solve(rhs, (0.0, t_end), y0, tol, [])
    ref = solve_ivp(rhs, (0.0, t_end), y0, method="RK45", rtol=tol,
                    atol=tol, dense_output=True)
    assert run.status == ref.status == 0
    assert run.nfev == ref.nfev
    assert run.t.tobytes() == ref.t.tobytes()
    assert run.y.tobytes() == ref.y.tobytes()
    samples = np.linspace(0.0, t_end, 101)
    assert run.sol(samples).tobytes() == ref.sol(samples).tobytes()
