"""Timings of one unit of geodesic work, one pytest-benchmark case each.
They sit outside ``testpaths``, so tier-1 does not run them:

    PYTHONPATH=src python -m pytest benchmarks/test_geodesic_layers.py

The cases:

* ``integrate_geodesic`` from the README start, (S, V, S', V') = (2.5, 1.4,
  0.05, 0.1), to t_end = 10 at the default tol, for each of the four
  models (the custom one is the README's f1 = (V-0.2)^-0.8, f2 = 0.6/V);
* Berthelot's S-V inversion at the README start, (S, V) = (-1, 1.4): the
  float Newton that each Berthelot stage runs, whose T equals the masked
  array Newton's;
* the RK45 core on a trivial right-hand side, y'' = -0.01 y from (1, 0)
  to t = 200 at tol 1e-9, where the solver's own work is nearly all the
  time.  ``extra_info`` holds the attempted steps, so a run's time over
  them is the cost of one step.
"""
import numpy as np
import pytest

from thermogeom import (
    Berthelot,
    ConstantCv,
    GasParameters,
    GeodesicState,
    IdealGas,
    TerminationReason,
    VanDerWaals,
    integrate_geodesic,
)
from thermogeom import _rk45

GAS = GasParameters(a=1.5, b=0.2, r_gas=2.0, cv0=2.5)
MODELS = {
    "ideal": IdealGas(GAS),
    "vdw": VanDerWaals(GAS),
    "custom": ConstantCv("(V-0.2)^-0.8", "0.6/V", cv=2.5),
    "berthelot": Berthelot(GAS),
}
README_START = GeodesicState(2.5, 1.4, 0.05, 0.1)


@pytest.mark.parametrize("name", list(MODELS))
def test_geodesic_t_end_10(benchmark, name):
    traj = benchmark(integrate_geodesic, MODELS[name], README_START, 10.0)
    assert traj.termination is TerminationReason.COMPLETED
    benchmark.extra_info["nodes"] = len(traj.times)


def test_berthelot_inversion(benchmark):
    model = MODELS["berthelot"]
    t = benchmark(model._temperature_from_entropy, -1.0, 1.4)
    [t_array] = model._temperature_from_entropy(np.array([-1.0]),
                                                np.array([1.4])).tolist()
    assert t.hex() == t_array.hex()


def oscillator(_t, y):
    x, x_dot = y.tolist()
    return [x_dot, -0.01 * x]


def test_rk45_trivial_rhs(benchmark):
    run = benchmark(_rk45._solve, oscillator, (0.0, 200.0), [1.0, 0.0],
                    1e-9, [])
    assert run.status == 0
    # two evaluations start the run, and each attempted step makes six
    benchmark.extra_info["attempted_steps"] = (run.nfev - 2) // 6
