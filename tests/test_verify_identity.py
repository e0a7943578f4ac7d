"""``verify`` prints what the scalar route prints at its sampled states.

The reference is the loop of the scalar route: one (S, V) pair drawn at a
time, one ``derivative_stack`` per pair with a pair whose stack raises
skipped, every check at each admissible state in draw order, and each
residual the largest over the states from a start of 0.0.  The command
draws its pairs in batches and runs every check once over a batch's array
stack; it takes the scalar route itself when anything in the stack or in
a check raises.
So the windows below that make a draw inadmissible or singular, or a check
raise, test that route, and every other window the array pass: each
residual it computes equals the scalar route's at that state, bit for
bit, and stdout, the exit code and the last stderr line equal the
reference's.
"""
import contextlib
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from test_grid_identity import _berthelot, _jitter, _vdw_like
from thermogeom import cli
from thermogeom.curvature import (
    curvature_routes,
    pairwise_residual,
    ruppeiner_direct_curvature,
    ruppeiner_from_weinhold,
)
from thermogeom.eos_models import ConstantCv, IdealGas, StatePoint
from thermogeom.errors import ThermogeomError
from thermogeom.geodesics import christoffel_elementary, christoffel_from_stack
from thermogeom.metric_core import determinant_report, identity_residuals


def _scalar_checks(model, eff, rng, n_states):
    """The scalar route of ``cli._verify_checks``."""
    b = model.covolume
    v_lo, v_hi = eff["vmin"], eff["vmax"]
    if v_lo <= b:
        v_lo = b + 0.05 * (v_hi - b)
    s_lo, s_hi = eff["smin"], eff["smax"]
    stacks = []
    attempts = 0
    first = None  # the error that ended the first draw
    while len(stacks) < n_states and attempts < 100 * n_states:
        attempts += 1
        s = float(rng.uniform(s_lo, s_hi))
        v = float(rng.uniform(v_lo, v_hi))
        try:
            stacks.append(model.derivative_stack(
                StatePoint.entropy_volume(s, v)))
        except (ThermogeomError, ArithmeticError, ValueError) as exc:
            first = first or exc
    if not stacks:
        raise first

    route = ident1 = ident2 = ident3 = cpcv = 0.0
    detres = chris = conf = flat = 0.0
    for stack in stacks:
        _, *routes = curvature_routes(model, stack)
        route = max(route, pairwise_residual(*routes))
        flat = max(flat, abs(routes[1]))
        res = identity_residuals(model, stack)
        ident1 = max(ident1, abs(res.id1))
        ident2 = max(ident2, abs(res.id2))
        if res.id3 is not None:
            ident3 = max(ident3, abs(res.id3))
        cpcv = max(cpcv, abs(res.cp_cv))
        rep = determinant_report(model, stack)
        detres = max(detres, abs(rep.residual_kvc), abs(rep.residual_dpdv))
        ce = christoffel_elementary(stack, stack, stack.v)
        ck = christoffel_from_stack(stack)
        for got, want in zip(ce[:6], ck[:6]):
            chris = max(chris, abs(got - want) / max(1.0, abs(want)))
        direct = ruppeiner_direct_curvature(model, stack)
        conf = max(conf, abs(direct - ruppeiner_from_weinhold(
            model, stack, scheme="analytic")))

    checks = [
        ("curvature-route-agreement", route, 1e-8),
        ("coefficient-identity-1", ident1, 1e-10),
        ("coefficient-identity-2", ident2, 1e-10),
        ("cp-cv-relation", cpcv, 1e-10),
        ("determinant-identities", detres, 1e-10),
        ("christoffel-route-agreement", chris, 1e-9),
        ("entropy-representation-conformal", conf, 1e-8),
    ]
    if isinstance(model, ConstantCv):
        checks.insert(4, ("coefficient-identity-3", ident3, 1e-10))
    if isinstance(model, IdealGas):
        checks.append(("flatness", flat, 1e-10))
    return checks


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["verify", *argv])
    return rc, out.getvalue(), (err.getvalue().splitlines() or [""])[-1]


def assert_same_as_scalar(argv):
    """Run ``verify`` on ``argv`` and on the scalar route and compare them;
    each array pass's residuals are compared with the scalar route's at
    each of its states.  Returns the (exit code, stdout, last stderr
    line) and whether each residual pass that completed was an array
    pass."""
    original = cli._verify_residuals
    passes = []

    def recorded(model, stack):
        residuals = original(model, stack)
        passes.append((model, stack, residuals))
        return residuals

    with mock.patch.object(cli, "_verify_residuals", recorded):
        got = _run(argv)
    with mock.patch.object(cli, "_verify_checks", _scalar_checks):
        assert got == _run(argv)

    for model, stack, residuals in passes:
        if not isinstance(stack.s, np.ndarray):
            continue
        n = stack.s.size
        for i, (s, v) in enumerate(zip(stack.s.tolist(), stack.v.tolist())):
            want = original(model, model.derivative_stack(
                StatePoint.entropy_volume(s, v)))
            assert want.keys() == residuals.keys()
            for name, values in residuals.items():
                assert [float(np.broadcast_to(x, n)[i]) for x in values] \
                    == list(want[name]), (name, s, v)
    return got, [isinstance(stack.s, np.ndarray) for _, stack, _ in passes]


@st.composite
def verify_windows(draw):
    """A gas, an (S, V) window around its critical point, a seed and a
    state count (the ideal gas takes the van der Waals window)."""
    model = draw(st.sampled_from(["ideal", "vdw", "custom", "berthelot"]))
    a, b, r, cv = (draw(_jitter(x)) for x in (1.5, 0.2, 2.0, 2.5))
    if model == "berthelot":
        flags, v_c, t_c, entropy = _berthelot(a, b, r, cv)
    else:
        flags, v_c, t_c, entropy = _vdw_like(model, a, b, r, cv)
    s_lo = entropy(t_c * draw(st.floats(0.5, 0.95)), v_c)
    s_hi = entropy(t_c * draw(st.floats(1.05, 1.6)), v_c)
    v_lo = v_c * draw(st.floats(0.6, 0.95))
    v_hi = v_c * draw(st.floats(1.1, 3.0))
    return [*flags, f"--smin={s_lo!r}", f"--smax={s_hi!r}",
            f"--vmin={v_lo!r}", f"--vmax={v_hi!r}",
            "--seed", str(draw(st.integers(0, 2 ** 32 - 1))),
            "--states", str(draw(st.integers(1, 60)))]


@settings(derandomize=True, max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(verify_windows())
def test_array_pass_equals_the_scalar_route(argv):
    (rc, _, _), kinds = assert_same_as_scalar(argv)
    assert rc in (0, 2)
    # every state of these windows is admissible: one array pass
    assert kinds == [True]


CUSTOM = ["--model", "custom", "--cv", "2.5"]
VDW = ["--model", "vdw", "--a", "1.5", "--b", "0.2", "--r-gas", "2",
       "--cv", "2.5"]


@pytest.mark.parametrize("argv, rc", [
    # f1 <= 0 above V = 2: those draws are skipped
    ([*CUSTOM, "--f1", "2-V", "--vmin", "1", "--vmax", "2.5"], 0),
    # exponential f1: degenerate at large S, where f2 no longer counts
    ([*CUSTOM, "--f1", "exp(V)", "--f2", "0.6/V", "--smin", "1",
      "--smax", "100"], 2),
    # degenerate everywhere: no admissible state
    ([*CUSTOM, "--f1", "exp(V)"], 3),
    # a float division by zero in every stack: no admissible state
    ([*VDW, "--smin=-1700", "--smax=-1600"], 3),
], ids=["inadmissible", "singular", "no-admissible-state", "stack-raises"])
def test_failing_draws_take_the_scalar_route(argv, rc):
    (got_rc, _, _), kinds = assert_same_as_scalar([*argv, "--states", "20"])
    assert got_rc == rc
    # the first batch is evaluated state by state; a later batch, drawn
    # for the states still missing, may take the array pass
    assert kinds[:1] in ([], [False])


@pytest.mark.parametrize("argv, rc", [
    # f1 constant: alpha = 0, and the elementary route raises everywhere
    ([*CUSTOM, "--f1", "2", "--f2", "0.6/V"], 3),
    # near e^(S/cv) = 1e300 the curvature diverges on the locus test
    ([*VDW, "--smin", "1700", "--smax", "1760"], 3),
    # an invalid operation where the float route carries on with NaN or
    # inf and prints a result
    ([*VDW, "--smin=-500", "--smax=-480"], 2),
    # an invalid operation in the array pass, a division by zero on the
    # scalar route
    ([*VDW, "--smin", "500", "--smax", "520"], 3),
], ids=["elementary-raises", "closed2d-raises", "numpy-only",
        "zero-division"])
def test_failing_checks_take_the_scalar_route(argv, rc):
    (got_rc, _, _), kinds = assert_same_as_scalar([*argv, "--states", "5"])
    assert got_rc == rc
    assert True not in kinds


def test_verify_evaluates_only_what_it_prints():
    # near V = 1e45, V**7 in the Berthelot printed polynomial form
    # overflows; verify prints no curvature_report discrepancy note, so it
    # no longer evaluates that form and ends (it used to exit 3)
    (rc, out, _), _ = assert_same_as_scalar([
        "--model", "berthelot", "--a", "1.5", "--b", "0.2", "--r-gas", "2",
        "--cv", "2.5", "--vmin", "1e45", "--vmax", "2e45", "--states", "5"])
    assert rc == 2
    assert out.count("PASS") + out.count("FAIL") == 7
