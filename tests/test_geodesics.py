"""Christoffel symbols and geodesic integration on the energy metric."""
import math

import numpy as np
import pytest

from thermogeom import (
    Berthelot,
    Chart,
    ChristoffelSet,
    ConstantCv,
    DomainError,
    GasParameters,
    GeodesicState,
    IdealGas,
    NumericEnergy,
    SingularState,
    StatePoint,
    StepFailure,
    TerminationReason,
    VanDerWaals,
    integrate_geodesic,
)
from thermogeom import _rk45, geodesics
from thermogeom.eos_models import relative_det
from thermogeom.expressions import ShiftedPower
from thermogeom.geodesics import (
    LOCUS_GUARD_BAND,
    christoffel_elementary,
    christoffel_from_stack,
    metric_speed,
)
from thermogeom.metric_core import weinhold_metric
from thermogeom.critical_locus import locus_entropy

from fd_oracles import (
    fd_christoffels,
    metric_arrays,
    second_derivative,
    weinhold_entry_fn,
)


GAS = GasParameters(a=1.5, b=0.2, r_gas=2.0, cv0=2.5)  # the conftest gas


def sv(s, v):
    return StatePoint(Chart.ENTROPY_VOLUME, s, v)


SYMBOL_FIELDS = ("g111", "g112", "g122", "g211", "g212", "g222")


def from_array(arr):
    return ChristoffelSet(
        g111=arr[0][0][0], g112=arr[0][0][1], g122=arr[0][1][1],
        g211=arr[1][0][0], g212=arr[1][0][1], g222=arr[1][1][1])


def index_form(metric):
    """The generic formula gamma[k, i, j] = (1/2) dg[i, j, m] ginv[k, m]."""
    g, dg = metric_arrays(metric)
    return 0.5 * np.einsum("ijm,km->kij", dg, np.linalg.inv(g))


class TestChristoffelRoutes:
    @pytest.mark.parametrize("fixture,state", [
        ("ideal_model", (1.4, 1.8)),
        ("vdw_model", (2.5, 1.4)),
        ("berthelot_model", (2.4, 2.2)),
    ])
    def test_three_routes_agree(self, request, fixture, state):
        model = request.getfixturevalue(fixture)
        s, v = state
        stack = model.derivative_stack(sv(s, v))
        by_stack = christoffel_from_stack(stack)
        by_coeffs = christoffel_elementary(stack, stack, v)
        by_field = from_array(index_form(weinhold_metric(model, sv(s, v))))
        for name in SYMBOL_FIELDS:
            ref = getattr(by_stack, name)
            assert getattr(by_coeffs, name) == pytest.approx(
                ref, rel=1e-11, abs=1e-13), name
            assert getattr(by_field, name) == pytest.approx(
                ref, rel=1e-11, abs=1e-13), name

    @pytest.mark.parametrize("fixture,state", [
        ("vdw_model", (2.5, 1.4)),
        ("berthelot_model", (2.4, 2.2)),
    ])
    def test_confirmed_by_finite_differences(self, request, fixture, state):
        model = request.getfixturevalue(fixture)
        s, v = state
        stack = model.derivative_stack(sv(s, v))
        analytic = christoffel_from_stack(stack)
        fd = from_array(fd_christoffels(weinhold_entry_fn(model), s, v))
        for name in SYMBOL_FIELDS:
            assert getattr(fd, name) == pytest.approx(
                getattr(analytic, name), rel=1e-5, abs=1e-7), name

    def test_constant_cv_exact_entries(self, vdw_model, params):
        stack = vdw_model.derivative_stack(sv(2.5, 1.4))
        ce = christoffel_elementary(stack, stack, 1.4)
        assert ce.g111 == 1.0 / (2.0 * params.cv0)
        assert ce.g211 == 0.0

    def test_degenerate_coefficients_rejected(self, vdw_model):
        # k = 0 at a nondegenerate Hessian is no degeneracy: the formulas
        # divide by zero as floats do
        bad = vdw_model.derivative_stack(sv(2.5, 1.4))._replace(k=0.0)
        with pytest.raises(ZeroDivisionError):
            christoffel_elementary(bad, bad, 1.4)


class TestIntegration:
    def test_zero_velocity_stays_put(self, vdw_model):
        traj = integrate_geodesic(vdw_model,
                                  GeodesicState(2.5, 1.4, 0.0, 0.0), 5.0)
        assert traj.termination is TerminationReason.COMPLETED
        final = traj.states[-1]
        assert final.s == 2.5 and final.v == 1.4

    @pytest.mark.parametrize("fixture,init", [
        ("ideal_model", GeodesicState(1.5, 2.0, 0.08, -0.05)),
        ("vdw_model", GeodesicState(2.5, 1.4, 0.05, 0.1)),
    ])
    def test_speed_conserved(self, request, fixture, init):
        model = request.getfixturevalue(fixture)
        traj = integrate_geodesic(model, init, 10.0, tol=1e-10)
        assert traj.termination is TerminationReason.COMPLETED
        ref = traj.speeds[0]
        for spd in traj.speeds:
            assert spd == pytest.approx(ref, rel=1e-8)

    def test_initial_speed_is_metric_norm(self, vdw_model):
        init = GeodesicState(2.5, 1.4, 0.05, 0.1)
        traj = integrate_geodesic(vdw_model, init, 1.0)
        stack = vdw_model.derivative_stack(sv(2.5, 1.4))
        assert traj.speeds[0] == pytest.approx(
            metric_speed(stack, 0.05, 0.1), rel=1e-12)

    def test_equation_satisfied_against_fd_symbols(self, vdw_model):
        # differentiate the dense trajectory twice and compare with the
        # geodesic equation built from finite-difference symbols
        init = GeodesicState(2.5, 1.4, 0.05, 0.1)
        traj = integrate_geodesic(vdw_model, init, 2.0, tol=1e-12)
        t_mid = 1.0
        s, v, s_dot, v_dot = traj.interpolant(t_mid)
        gam = fd_christoffels(weinhold_entry_fn(vdw_model), s, v)
        vel = (s_dot, v_dot)
        for comp, coord in enumerate(("s", "v")):
            acc = second_derivative(
                lambda t, c=comp: traj.interpolant(t)[c], t_mid, 1e-3)
            quad = sum(gam[comp][i][j] * vel[i] * vel[j]
                       for i in range(2) for j in range(2))
            assert acc == pytest.approx(-quad, rel=1e-5, abs=1e-7), coord

    def test_affine_reparameterization(self, vdw_model):
        base = integrate_geodesic(
            vdw_model, GeodesicState(2.5, 1.4, 0.05, 0.1), 2.0, tol=1e-12)
        fast = integrate_geodesic(
            vdw_model, GeodesicState(2.5, 1.4, 0.10, 0.2), 1.0, tol=1e-12)
        end_base = base.states[-1]
        end_fast = fast.states[-1]
        assert end_fast.s == pytest.approx(end_base.s, rel=1e-9)
        assert end_fast.v == pytest.approx(end_base.v, rel=1e-9)
        assert end_fast.s_dot == pytest.approx(2.0 * end_base.s_dot, rel=1e-8)
        assert end_fast.v_dot == pytest.approx(2.0 * end_base.v_dot, rel=1e-8)

    def test_interpolant_matches_nodes(self, vdw_model):
        traj = integrate_geodesic(
            vdw_model, GeodesicState(2.5, 1.4, 0.05, 0.1), 2.0)
        for t, node in zip(traj.times, traj.states):
            s, v, _, _ = traj.interpolant(t)
            assert s == pytest.approx(node.s, rel=1e-12)
            assert v == pytest.approx(node.v, rel=1e-12)


class TestStackReuse:
    """The locus event and the speeds reuse the right-hand side's Hessian
    evaluations."""

    # the README example: vdW, t_end = 10
    INIT = GeodesicState(2.5, 1.4, 0.05, 0.1)

    @pytest.fixture
    def hessian_calls(self, monkeypatch):
        # every stage evaluates the model's fields, and the start's stack
        # completes them once
        calls = []

        def counted(model, chart, x1, x2, *, _original=ConstantCv._fields):
            calls.append((x1, x2))
            return _original(model, chart, x1, x2)
        monkeypatch.setattr(ConstantCv, "_fields", counted)
        return calls

    def test_stack_count(self, vdw_model, hessian_calls):
        # one evaluation per right-hand-side point, plus the start's stack:
        # 219 for 36 steps (293 when the event and the speeds evaluated the
        # accepted points again)
        traj = integrate_geodesic(vdw_model, self.INIT, 10.0)
        assert traj.termination is TerminationReason.COMPLETED
        assert len(hessian_calls) <= 230

    @pytest.mark.parametrize("model,init", [
        (IdealGas(GAS), GeodesicState(1.5, 1.4, 0.05, 0.1)),
        (VanDerWaals(GAS), INIT),
        (ConstantCv("(V-0.2)^-0.8", "0.6/V", cv=2.5), INIT),
        (Berthelot(GAS), GeodesicState(-1.0, 1.4, 0.05, 0.1)),
    ], ids=["ideal", "vdw", "custom", "berthelot"])
    def test_each_stage_evaluates_the_model_once(self, monkeypatch, model,
                                                 init):
        # A run that completes finds no event root, so the model is
        # evaluated once for the start's stack and once per right-hand-side
        # call.  One fewer means a stage read a memo's row, one more that a
        # stage or an event evaluated a point again.
        calls, runs = [], []
        fields, solve = type(model)._fields, _rk45._solve

        def counted(*args):
            calls.append(args)
            return fields(*args)

        def spy(*args):
            runs.append(solve(*args))
            return runs[-1]

        monkeypatch.setattr(type(model), "_fields", counted)
        monkeypatch.setattr(_rk45, "_solve", spy)
        traj = integrate_geodesic(model, init, 10.0)
        assert traj.termination is TerminationReason.COMPLETED
        [run] = runs
        assert len(calls) == run.nfev + 1

    @pytest.mark.parametrize("fixture,init,t_end", [
        ("vdw_model", INIT, 10.0),
        ("berthelot_model", GeodesicState(-1.0, 1.4, 0.05, 0.1), 2.0),
        # ends at the locus guard band
        ("vdw_model", GeodesicState(2.5, 1.2, -0.2, 0.0), 40.0),
    ])
    def test_speeds_match_fresh_stacks(self, request, fixture, init, t_end):
        model = request.getfixturevalue(fixture)
        traj = integrate_geodesic(model, init, t_end)
        assert len(traj.speeds) == len(traj.states) == len(traj.times)
        for st, speed in zip(traj.states, traj.speeds):
            stack = model.derivative_stack(sv(st.s, st.v),
                                           check_singular=False)
            assert speed == metric_speed(stack, st.s_dot, st.v_dot)


class TestNumericEnergy:
    """A NumericEnergy around the closed-form van der Waals energy follows
    the VanDerWaals geodesic to its finite-difference error."""

    @staticmethod
    def energy(s, v, a=1.5, b=0.2, r=2.0, cv=2.5):  # the conftest gas
        return (v - b) ** (-r / cv) * math.exp(s / cv) - a / v

    @pytest.mark.parametrize("init,t_end,reason", [
        (TestStackReuse.INIT, 10.0, TerminationReason.COMPLETED),
        (GeodesicState(2.5, 1.2, -0.2, 0.0), 40.0,
         TerminationReason.LOCUS_PROXIMITY),
    ])
    def test_agrees_with_the_closed_form(self, vdw_model, init, t_end,
                                         reason):
        # at tol 1e-10 the differencing noise makes the step control
        # reject thousands of steps; 1e-7 keeps both runs short
        numeric = integrate_geodesic(NumericEnergy(self.energy), init, t_end,
                                     tol=1e-7)
        exact = integrate_geodesic(vdw_model, init, t_end, tol=1e-7)
        assert numeric.termination is exact.termination is reason
        assert numeric.states[-1] == pytest.approx(exact.states[-1],
                                                    rel=1e-4, abs=1e-6)


class TestRecords:
    """ChristoffelSet and GeodesicState are immutable NamedTuples with the
    former dataclass fields, in order."""

    def test_geodesic_state_fields(self):
        st = GeodesicState(2.5, 1.4, 0.05, 0.1)
        assert GeodesicState._fields == ("s", "v", "s_dot", "v_dot", "t")
        assert st == GeodesicState(s=2.5, v=1.4, s_dot=0.05, v_dot=0.1,
                                   t=0.0)
        with pytest.raises(AttributeError):
            st.s = 1.0

    def test_christoffel_set_fields(self, vdw_model):
        gam = christoffel_from_stack(vdw_model.derivative_stack(sv(2.5, 1.4)))
        assert ChristoffelSet._fields == SYMBOL_FIELDS
        with pytest.raises(AttributeError):
            gam.g111 = 0.0


class TestTermination:
    def test_signature_wall_stops_integration(self, vdw_model):
        # drive entropy downward toward the degeneracy locus at fixed heading
        traj = integrate_geodesic(
            vdw_model, GeodesicState(2.5, 1.2, -0.2, 0.0), 40.0)
        assert traj.termination is TerminationReason.LOCUS_PROXIMITY
        final = traj.states[-1]
        assert final.t < 40.0
        stack = vdw_model.derivative_stack(sv(final.s, final.v),
                                           check_singular=False)
        rel_det = abs(relative_det(stack.e11, stack.e12, stack.e22))
        assert rel_det == pytest.approx(LOCUS_GUARD_BAND, rel=1e-3)
        s_star = locus_entropy(vdw_model, final.v)
        assert final.s > s_star

    def test_domain_exit_at_volume_floor(self):
        # no covolume wall and determinant positive everywhere: the only
        # obstruction is the v=0 coordinate boundary
        model = ConstantCv(ShiftedPower(1.0, -0.5, -0.8), None, cv=2.0)
        traj = integrate_geodesic(
            model, GeodesicState(1.0, 0.5, 0.0, -0.05), 60.0)
        assert traj.termination is TerminationReason.DOMAIN_EXIT
        assert traj.states[-1].v == pytest.approx(0.0, abs=1e-6)

    def test_step_collapse_next_to_the_volume_floor_is_a_domain_exit(self):
        # U = V^4 e^(S/cv) - the speed diverges as V -> 0, and the step
        # collapses at V near 3e-7: within 1e-6 of the start's distance to
        # the floor, before the domain event at 1e-9 of it
        model = ConstantCv(ShiftedPower(1.0, 0.0, 4.0), None, cv=2.5)
        traj = integrate_geodesic(
            model, GeodesicState(1.0, 1.0, 0.0, -1.0), 10.0)
        assert traj.termination is TerminationReason.DOMAIN_EXIT
        assert 1e-8 < traj.states[-1].v < 1e-6

    def test_step_budget_counts_accepted_steps(self, vdw_model, monkeypatch):
        # the README start reaches t_end = 10 in 36 accepted steps
        init = TestStackReuse.INIT
        monkeypatch.setattr(geodesics, "STEP_BUDGET", 36)
        assert len(integrate_geodesic(vdw_model, init, 10.0).times) == 37
        monkeypatch.setattr(geodesics, "STEP_BUDGET", 35)
        with pytest.raises(StepFailure, match="^integration failed: 35 steps "
                           "did not reach t_end = 10.0$"):
            integrate_geodesic(vdw_model, init, 10.0)

    def test_singular_start_rejected(self, vdw_model):
        v = 1.2
        s_star = locus_entropy(vdw_model, v)
        with pytest.raises(SingularState):
            integrate_geodesic(vdw_model,
                               GeodesicState(s_star, v, 0.1, 0.0), 1.0)

    def test_start_inside_the_guard_band_stops_at_once(self, vdw_model):
        # relative det 5e-7 at the start: the locus event needs a sign
        # change, which such a start never shows, so it would cross the locus
        v = 1.2
        s = locus_entropy(vdw_model, v) + 1e-6
        stack = vdw_model.derivative_stack(sv(s, v))
        assert 0.0 < relative_det(stack.e11, stack.e12,
                                  stack.e22) < LOCUS_GUARD_BAND
        traj = integrate_geodesic(vdw_model,
                                  GeodesicState(s, v, -0.3, 0.0), 1.0)
        assert traj.termination is TerminationReason.LOCUS_PROXIMITY
        assert traj.times == (0.0,)
        assert traj.states[-1] == GeodesicState(s, v, -0.3, 0.0, 0.0)
        assert tuple(traj.interpolant(0.0)) == (s, v, -0.3, 0.0)

    def test_zero_span_is_one_node(self, vdw_model):
        # solve_ivp would repeat the start as a second node at t = 0
        start = GeodesicState(2.5, 1.4, 0.05, 0.1)
        traj = integrate_geodesic(vdw_model, start, 0.0)
        assert traj.termination is TerminationReason.COMPLETED
        assert traj.times == (0.0,)
        assert traj.states == (start,)
        assert len(traj.speeds) == 1
        assert tuple(traj.interpolant(0.0)) == start[:4]

    def test_out_of_domain_start_rejected(self, vdw_model):
        with pytest.raises(DomainError):
            integrate_geodesic(vdw_model,
                               GeodesicState(2.0, 0.1, 0.0, 0.0), 1.0)

    @pytest.mark.parametrize("start", [
        GeodesicState(2.5, 1.4, 0.05, 0.1, t=math.nan),
        GeodesicState(2.5, 1.4, math.inf, 0.1),
        GeodesicState(2.5, 1.4, 0.05, -math.nan),
    ], ids=["t", "s_dot", "v_dot"])
    @pytest.mark.parametrize("t_end", [0.0, 1.0])
    def test_non_finite_start_rejected(self, vdw_model, start, t_end):
        with pytest.raises(DomainError, match="must be finite"):
            integrate_geodesic(vdw_model, start, t_end)

    def test_domain_exit_does_not_depend_on_the_volume_unit(self):
        # the gas above with V in units of mu: U depends on V/mu only, so
        # the geodesic in (S, V/mu) is the same and must stop at the same
        # V/mu and affine time (at mu = 1e-6 the absolute guards stopped it
        # at V/mu = 1e-3, t = 19.990)
        def stop(mu):
            model = ConstantCv(ShiftedPower(mu ** 0.8, -0.5 * mu, -0.8))
            traj = integrate_geodesic(
                model, GeodesicState(1.0, 0.5 * mu, 0.0, -0.05 * mu), 30.0)
            assert traj.termination is TerminationReason.DOMAIN_EXIT
            return traj.states[-1].v / mu, traj.states[-1].t

        v_ref, t_ref = stop(1.0)
        assert v_ref == pytest.approx(5e-10, rel=1e-6)
        for mu in (1e-3, 1e-6):
            v_mu, t_mu = stop(mu)
            assert v_mu == pytest.approx(v_ref, rel=1e-6)
            assert t_mu == pytest.approx(t_ref, rel=1e-8)

    def test_locus_stop_does_not_depend_on_the_energy_unit(self):
        # the custom van der Waals gas with U in units of 1e-78: the metric
        # scales as a whole, so the geodesic is the same; a completed stack
        # at each stage divided by det^2, which underflows near the locus
        # at that scale (ZeroDivisionError), and the stages no longer
        # complete one
        def stop(unit):
            model = ConstantCv(f"{unit}*(V-0.2)^-0.8", f"{unit}*0.6/V",
                               cv=2.5)
            traj = integrate_geodesic(
                model, GeodesicState(2.5, 1.2, -0.2, 0.0), 40.0)
            assert traj.termination is TerminationReason.LOCUS_PROXIMITY
            return traj.states[-1]

        ref = stop("1")
        assert stop("1e-78") == pytest.approx(ref, rel=1e-12, abs=1e-12)
