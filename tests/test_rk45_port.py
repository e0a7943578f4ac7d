"""The in-package RK45 equals scipy's ``solve_ivp`` bit for bit.

``integrate_geodesic`` hands its equations to ``_rk45._solve``.  Each case
captures that call, runs ``solve_ivp(method="RK45", dense_output=True,
events=...)`` on the same right-hand side and events, made terminal and
falling (``direction = -1``), and compares node
times, states, evaluation counts, event times, status and dense samples
(200 array points in order, reversed and shuffled, the nodes as one array,
and scalar points that include every node) by their bytes.
"""
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

pytest.importorskip("scipy")
from scipy.integrate import solve_ivp  # noqa: E402

from thermogeom import (  # noqa: E402
    Berthelot,
    ConstantCv,
    GasParameters,
    GeodesicState,
    IdealGas,
    StepFailure,
    ThermogeomError,
    VanDerWaals,
    integrate_geodesic,
)
from thermogeom import _rk45  # noqa: E402
from thermogeom.expressions import ShiftedPower  # noqa: E402

PARAMS = GasParameters(a=1.5, b=0.2, r_gas=2.0, cv0=2.5)
# each gas with a window of admissible starts (smin, smax, vmin, vmax)
GASES = {
    "ideal": (IdealGas(PARAMS), (0.5, 3.0, 0.4, 3.0)),
    "vdw": (VanDerWaals(PARAMS), (1.5, 3.5, 0.5, 3.0)),
    "custom": (ConstantCv("(V-0.2)^-0.8", "0.6/V", cv=2.5),
               (1.5, 3.5, 0.5, 3.0)),
    "berthelot": (Berthelot(PARAMS), (-3.0, 0.0, 0.6, 2.5)),
}


def solver_runs(model, init, t_end, tol):
    """The port's run inside ``integrate_geodesic`` and scipy's run of the
    same problem, or None when no solver runs: the start is rejected, or
    the run is the start alone (a zero span, a start in the guard band)."""
    calls = []
    solve = _rk45._solve

    def spy(*args):
        calls.append((args, solve(*args)))
        return calls[-1][1]

    with mock.patch.object(_rk45, "_solve", spy):
        try:
            integrate_geodesic(model, init, t_end, tol)
        except ThermogeomError:
            pass
    if not calls:
        return None
    [((fun, t_span, y0, rtol, events), run)] = calls
    for event in events:
        event.terminal, event.direction = True, -1.0
    ref = solve_ivp(fun, t_span, y0, method="RK45", rtol=rtol, atol=rtol,
                    dense_output=True, events=events)
    return run, ref


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_run(run, ref):
    assert same_bits(run.t, ref.t)
    assert same_bits(run.y, ref.y)
    assert run.nfev == ref.nfev
    assert run.status == ref.status
    t_events = [run.t[-1:] if run.event == i else []
                for i in range(len(ref.t_events))]
    assert all(same_bits(mine, theirs)
               for mine, theirs in zip(t_events, ref.t_events))
    samples = np.linspace(ref.t[0], ref.t[-1], 200)
    assert same_bits(run.sol(samples), ref.sol(samples))
    assert same_bits(run.sol(samples[::-1]), ref.sol(samples[::-1]))
    for t in [*ref.t.tolist(), *samples[::9].tolist()]:
        assert same_bits(run.sol(t), ref.sol(t))
    # every node starts a run of samples on one segment
    assert same_bits(run.sol(ref.t), ref.sol(ref.t))
    shuffled = np.random.default_rng(0).permutation(samples)
    assert same_bits(run.sol(shuffled), ref.sol(shuffled))


@given(gas=st.sampled_from(sorted(GASES)),
       x=st.floats(0.0, 1.0), y=st.floats(0.0, 1.0),
       s_dot=st.floats(-0.5, 0.5), v_dot=st.floats(-0.5, 0.5),
       t_end=st.floats(-5.0, 10.0),
       tol=st.sampled_from([1e-6, 1e-9, 1e-11]))
@example(gas="vdw", x=0.5, y=0.36, s_dot=0.05, v_dot=0.1, t_end=-3.0,
         tol=1e-6)
def test_geodesic_runs_equal_scipy(gas, x, y, s_dot, v_dot, t_end, tol):
    model, (s_lo, s_hi, v_lo, v_hi) = GASES[gas]
    init = GeodesicState(s_lo + x * (s_hi - s_lo), v_lo + y * (v_hi - v_lo),
                         s_dot, v_dot)
    runs = solver_runs(model, init, t_end, tol)
    assume(runs is not None)
    assert_same_run(*runs)


CUSTOM_FLOOR = ConstantCv(ShiftedPower(1.0, -0.5, -0.8), None, cv=2.0)
# name: model, start, t_end, tol, expected (status, event)
STOPS = {
    "locus": (VanDerWaals(PARAMS), GeodesicState(2.5, 1.4, -0.3, 0.0),
              10.0, 1e-10, (1, 0)),
    "berthelot-locus": (Berthelot(PARAMS),
                        GeodesicState(-3.0, 1.0, 0.1, -0.1), 3.0, 1e-10,
                        (1, 0)),
    "domain": (CUSTOM_FLOOR, GeodesicState(1.0, 0.5, 0.0, -0.05),
               60.0, 1e-10, (1, 1)),
    "collapse": (ConstantCv("1-V", "0.6/V", cv=2.5),
                 GeodesicState(1.0, 0.8, 0.0, 0.5), 10.0, 1e-10, (-1, None)),
    "collapse-at-floor": (ConstantCv(ShiftedPower(1.0, 0.0, 4.0), None,
                                     cv=2.5),
                          GeodesicState(1.0, 1.0, 0.0, -1.0), 10.0, 1e-10,
                          (-1, None)),
    "backward": (IdealGas(PARAMS), GeodesicState(1.5, 1.4, 0.05, 0.1),
                 -4.0, 1e-11, (0, None)),
}


@pytest.mark.parametrize("name", sorted(STOPS))
def test_every_way_a_run_ends_equals_scipy(name):
    model, init, t_end, tol, (status, event) = STOPS[name]
    run, ref = solver_runs(model, init, t_end, tol)
    assert (run.status, run.event) == (status, event)
    assert_same_run(run, ref)


def test_step_collapse_message_is_scipys():
    model, init, t_end, tol, _ = STOPS["collapse"]
    _, ref = solver_runs(model, init, t_end, tol)
    assert ref.message == _rk45._TOO_SMALL_STEP
    with pytest.raises(StepFailure, match=ref.message):
        integrate_geodesic(model, init, t_end, tol)
