"""Constitutive models: state functions, derivative stacks, chart changes."""
import math
import random
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from thermogeom import (
    Berthelot,
    Chart,
    ConstantCv,
    DomainError,
    GasParameters,
    IdealGas,
    NumericEnergy,
    SingularState,
    StatePoint,
    UnsupportedModel,
    VanDerWaals,
)
from thermogeom.critical_locus import locus_entropy
from thermogeom.eos_models import (
    FD_STEP_FIRST,
    FD_STEP_SECOND,
    FD_STEP_THIRD,
    DerivativeStack,
    float_grid,
    hessian_jet,
    make_model,
    parse_config_text,
)
from thermogeom.expressions import ShiftedPower

from conftest import PARAMS


def sv(s, v):
    return StatePoint(Chart.ENTROPY_VOLUME, s, v)


def tv(t, v):
    return StatePoint(Chart.TEMPERATURE_VOLUME, t, v)


# Reference values frozen from high-precision evaluation of the closed-form
# state functions at a=3/2, b=1/5, r=2, cv=5/2, u0=s0=0.
VDW_STATE_TABLE = [
    (2.5, 1.4, 0.9397438157403605466203, 0.8009335704516213191971,
     1.277930967922329937979),
    (3.0, 2.5, 0.6820733809525009944663, 0.353107287784783473449,
     1.105183452381252486166),
    (2.2, 0.9, 1.282805175390030892744, 1.81330579211966498456,
     1.540346271808410565194),
]


class TestVanDerWaals:
    @pytest.mark.parametrize("s,v,t_ref,p_ref,u_ref", VDW_STATE_TABLE)
    def test_frozen_state_functions(self, vdw_model, s, v, t_ref, p_ref, u_ref):
        st_ = vdw_model.derivative_stack(sv(s, v))
        assert st_.t == pytest.approx(t_ref, rel=1e-14)
        assert st_.p == pytest.approx(p_ref, rel=1e-14)
        assert st_.u == pytest.approx(u_ref, rel=1e-14)

    @pytest.mark.parametrize("s,v", [(2.5, 1.4), (3.0, 2.5), (2.2, 0.9)])
    def test_pressure_equation_of_state(self, vdw_model, params, s, v):
        st_ = vdw_model.derivative_stack(sv(s, v))
        expected = (params.r_gas * st_.t / (v - params.b)
                    - params.a / (v * v))
        assert st_.p == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("s,v", [(2.5, 1.4), (3.0, 2.5), (2.2, 0.9)])
    def test_energy_decomposition(self, vdw_model, params, s, v):
        st_ = vdw_model.derivative_stack(sv(s, v))
        assert st_.u == pytest.approx(
            params.cv0 * st_.t - params.a / v, rel=1e-13)

    def test_entropy_inverse(self, vdw_model, params):
        # S = r ln(V - b) + cv ln(U - u0 + a/V) + s0 returns the queried S
        v = 1.8
        st_ = vdw_model.derivative_stack(sv(2.7, v))
        entropy = (params.r_gas * math.log(v - params.b)
                   + params.cv0 * math.log(st_.u - params.u0 + params.a / v)
                   + params.s0)
        assert entropy == pytest.approx(2.7, rel=1e-12)

    def test_covolume_wall(self, vdw_model):
        with pytest.raises(DomainError):
            vdw_model.derivative_stack(sv(1.0, 0.2))

    def test_singular_guard_on_locus(self, vdw_model):
        v = 1.2
        s_star = locus_entropy(vdw_model, v)
        with pytest.raises(SingularState):
            vdw_model.derivative_stack(sv(s_star, v))
        st_ = vdw_model.derivative_stack(sv(s_star, v), check_singular=False)
        # state functions survive; susceptibilities degrade to nan
        assert math.isfinite(st_.t) and math.isfinite(st_.p)
        assert abs(st_.e11 * st_.e22 - st_.e12 ** 2) < 1e-12


class TestIdealGas:
    @pytest.mark.parametrize("s,v", [(1.0, 1.0), (2.0, 3.0), (0.5, 0.7)])
    def test_ideal_equations_of_state(self, ideal_model, params, s, v):
        st_ = ideal_model.derivative_stack(sv(s, v))
        assert st_.p * v == pytest.approx(params.r_gas * st_.t, rel=1e-13)
        assert st_.u == pytest.approx(params.cv0 * st_.t, rel=1e-13)

    def test_heat_capacities_constant(self, ideal_model, params):
        st_ = ideal_model.derivative_stack(sv(1.3, 2.1))
        assert st_.cv == params.cv0
        assert st_.cp == pytest.approx(params.cv0 + params.r_gas, rel=1e-13)

    def test_temperature_volume_chart_round_trip(self, ideal_model):
        st_tv = ideal_model.derivative_stack(tv(1.2, 2.0))
        back = ideal_model.derivative_stack(sv(st_tv.s, 2.0))
        assert back.t == pytest.approx(1.2, rel=1e-12)

    def test_positive_volume_required(self, ideal_model):
        with pytest.raises(DomainError):
            ideal_model.derivative_stack(sv(1.0, 0.0))


class TestBerthelot:
    @pytest.mark.parametrize("t,v", [(8 / 3, 1.4), (2.5, 4.5), (1.1, 0.8)])
    def test_pressure_and_heat_capacity(self, berthelot_model, params, t, v):
        st_ = berthelot_model.derivative_stack(tv(t, v))
        p_expected = (params.r_gas * t / (v - params.b)
                      - params.a / (t * v * v))
        cv_expected = params.cv0 + 2.0 * params.a / (v * t * t)
        assert st_.p == pytest.approx(p_expected, rel=1e-13)
        assert st_.cv == pytest.approx(cv_expected, rel=1e-13)

    def test_entropy_closed_form(self, berthelot_model, params):
        t, v = 2.0, 1.7
        st_ = berthelot_model.derivative_stack(tv(t, v))
        s_expected = (params.s0 + params.cv0 * math.log(t)
                      + params.r_gas * math.log(v - params.b)
                      - params.a / (v * t * t))
        assert st_.s == pytest.approx(s_expected, rel=1e-12)

    def test_chart_round_trip(self, berthelot_model):
        st_tv = berthelot_model.derivative_stack(tv(1.9, 2.3))
        back = berthelot_model.derivative_stack(sv(st_tv.s, 2.3))
        assert back.t == pytest.approx(1.9, rel=1e-10)

    def test_positive_temperature_required(self, berthelot_model):
        with pytest.raises(DomainError):
            berthelot_model.derivative_stack(tv(-1.0, 1.0))


class TestBerthelotInversion:
    """S(T, V) = s inverts to T at every admissible state, as near the root
    as a float can sit; over arrays each state gets the float T bit for
    bit."""

    @staticmethod
    def _float_temperatures(model, s, v):
        return np.array([model._temperature_from_entropy(a, b)
                         for a, b in zip(s.ravel().tolist(),
                                         v.ravel().tolist())]).reshape(s.shape)

    @pytest.mark.parametrize("seed, n, s_lo, s_hi", [
        (20, 3000, -40.0, 8.0),
        (31, 20000, -125.0, 125.0),  # T from e^-50 to e^50
    ], ids=["3000", "20000"])
    def test_random_states(self, berthelot_model, seed, n, s_lo, s_hi):
        # the masked Newton takes each state's float start, steps and stop
        rng = np.random.default_rng(seed)
        s, v = rng.uniform(s_lo, s_hi, n), rng.uniform(0.21, 10.0, n)
        got = berthelot_model._temperature_from_entropy(s, v)
        want = self._float_temperatures(berthelot_model, s, v)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

    def test_broadcast_axes(self, berthelot_model):
        rng = np.random.default_rng(21)
        s = rng.uniform(-6.0, 3.0, 7)[:, None]
        v = rng.uniform(0.25, 3.0, 5)
        got = berthelot_model._temperature_from_entropy(s, v)
        want = self._float_temperatures(berthelot_model,
                                        *np.broadcast_arrays(s, v))
        assert got.shape == (7, 5)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

    @pytest.mark.parametrize("a, s_window, v_window", [
        (0.0, (-2000.0, -1900.0), (0.3, 10.0)),  # no exp: it would overflow
        (1.5, (20.0, 25.0), (5.0, 7.0)),  # high entropy, T ~ 2000
        (1.5, (-300.0, -250.0), (0.3, 10.0)),  # attraction-dominated
    ], ids=["a0-low-entropy", "high-entropy", "low-entropy"])
    def test_grid_windows_bit_for_bit(self, a, s_window, v_window):
        model = Berthelot(GasParameters(a=a, b=0.2, r_gas=2.0, cv0=2.5))
        s = np.linspace(*s_window, 64)[:, None]
        v = np.linspace(*v_window, 64)
        got = model._temperature_from_entropy(s, v)
        want = self._float_temperatures(model, *np.broadcast_arrays(s, v))
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

    @pytest.mark.parametrize("a", [1.5, 0.0])
    @pytest.mark.parametrize("s, v", [(math.nan, 1.4), (2.5, math.nan),
                                      (math.nan, math.nan),
                                      (math.inf, 1.4), (-math.inf, 1.4)])
    def test_nan_state_fails_as_the_float_path_does(self, a, s, v):
        # a NaN never stops Newton, and an infinite S makes one at the
        # first step: both paths end with the same error, and silently
        model = Berthelot(GasParameters(a=a, b=0.2, r_gas=2.0, cv0=2.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as want:
                model._temperature_from_entropy(s, v)
            with pytest.raises(DomainError) as got:
                model._temperature_from_entropy(np.array([2.5, s]),
                                                np.array([1.4, v]))
        assert str(got.value) == str(want.value)

    def test_failure_names_the_first_state_left(self, berthelot_model):
        # row-major over the broadcast grid, (1.0, nan) comes before every
        # state of the nan row, and the float path names it alike
        s = np.array([1.0, math.nan, -2.0])[:, None]
        v = np.array([1.4, 2.5, math.nan])
        message = r"^entropy inversion failed at S=1\.0, V=nan$"
        with pytest.raises(DomainError, match=message):
            berthelot_model._temperature_from_entropy(s, v)
        with pytest.raises(DomainError, match=message):
            berthelot_model._temperature_from_entropy(1.0, math.nan)

    # roots of S(T, V) = s to 20 digits, from mpmath at 50 digits with the
    # float arguments taken as exact
    @pytest.mark.parametrize("s, v, root", [
        (-3.333333333333333, 0.7, 1.0298287350348808373),  # near the locus
        (-250.0, 1.0, 0.078536201906363139677),  # attraction-dominated
        (40.0, 0.21, 353762431.65450593035),  # high entropy, tiny V - b
    ])
    def test_against_a_50_digit_root(self, berthelot_model, s, v, root):
        t = berthelot_model._temperature_from_entropy(s, v)
        assert t == pytest.approx(root, rel=4e-15, abs=0.0)

    def test_high_entropy_state(self, berthelot_model):
        # T ~ 2000: a Newton step in T rounds to more than 4 eps T here, so
        # only a step in log T stops
        s, v = 23.074296274272342, 6.840118956852457
        root = 2242.2040777222534199
        assert berthelot_model._temperature_from_entropy(s, v) == \
            pytest.approx(root, rel=4e-15, abs=0.0)
        got = berthelot_model._temperature_from_entropy(
            np.array([-2.0, s, 1.0]), np.array([1.0, v, 2.0]))
        assert got[1] == pytest.approx(root, rel=4e-15, abs=0.0)

    def test_uniform_sample_inverts(self, berthelot_model):
        rng = np.random.default_rng(0)
        s, v = rng.uniform(-40.0, 40.0, 20000), rng.uniform(0.21, 10.0, 20000)
        t = berthelot_model._temperature_from_entropy(s, v)
        assert np.all(t > 0.0) and np.all(np.isfinite(t))
        residual = berthelot_model._entropy(t, v) - s
        assert np.all(np.abs(residual) <= 1e-13 * np.maximum(1.0, np.abs(s)))

    @pytest.mark.parametrize("v", [0.21, 1.0, 10.0])
    def test_wide_entropy_scan(self, berthelot_model, v):
        s, v = np.linspace(-2000.0, 1000.0, 3001), np.full(3001, v)
        t = berthelot_model._temperature_from_entropy(s, v)
        assert np.all(t > 0.0) and np.all(np.isfinite(t))
        assert np.all(np.diff(t) > 0.0)  # S rises strictly with T
        with np.errstate(over="ignore"):  # V T^2 = inf where T ~ 1e175
            residual = berthelot_model._entropy(t, v) - s
        assert np.all(np.abs(residual) <= 1e-13 * np.maximum(1.0, np.abs(s)))

    @pytest.mark.parametrize("s0", [1e6, -1e6])
    def test_large_entropy_offset(self, s0):
        # the T-free part of S - s is formed once, so its rounding does not
        # enter each step
        model = Berthelot(GasParameters(a=1.5, b=0.2, r_gas=2.0, cv0=2.5,
                                        s0=s0))
        rng = np.random.default_rng(23)
        s = s0 + rng.uniform(-40.0, 40.0, 2000)
        v = rng.uniform(0.21, 10.0, 2000)
        t = model._temperature_from_entropy(s, v)
        assert np.all(t > 0.0) and np.all(np.isfinite(t))
        shifted = Berthelot(PARAMS)._temperature_from_entropy(s - s0, v)
        np.testing.assert_allclose(t, shifted, rtol=1e-8)

    def test_no_attraction_is_the_ideal_gas_law(self):
        # with a = 0, S = s0 + cv0 log T + r log(V - b) inverts in closed form
        q = GasParameters(a=0.0, b=0.2, r_gas=2.0, cv0=2.5, s0=0.7)
        rng = np.random.default_rng(24)
        for s, v in zip(rng.uniform(-40.0, 40.0, 200).tolist(),
                        rng.uniform(0.21, 10.0, 200).tolist()):
            ideal = math.exp((s - q.s0 - q.r_gas * math.log(v - q.b)) / q.cv0)
            assert Berthelot(q)._temperature_from_entropy(s, v) == \
                pytest.approx(ideal, rel=4e-15, abs=0.0)


@pytest.mark.parametrize("model_name", ["ideal", "vdw", "berthelot"])
class TestStackAgainstFiniteDifferences:
    """The metric and its partials must agree with differences of (T, p)."""

    STATES = {"ideal": (1.4, 1.8), "vdw": (2.6, 1.6), "berthelot": (2.4, 2.2)}

    def _model(self, model_name):
        return make_model(model_name, PARAMS)

    def _entries(self, model, s, v):
        st_ = model.derivative_stack(sv(s, v))
        return st_

    def test_first_derivatives_of_t_p(self, model_name):
        model = self._model(model_name)
        s, v = self.STATES[model_name]
        st_ = self._entries(model, s, v)
        h = 1e-6
        dt_ds = (self._entries(model, s + h, v).t
                 - self._entries(model, s - h, v).t) / (2 * h)
        dt_dv = (self._entries(model, s, v + h).t
                 - self._entries(model, s, v - h).t) / (2 * h)
        dp_ds = (self._entries(model, s + h, v).p
                 - self._entries(model, s - h, v).p) / (2 * h)
        dp_dv = (self._entries(model, s, v + h).p
                 - self._entries(model, s, v - h).p) / (2 * h)
        assert st_.e11 == pytest.approx(dt_ds, rel=1e-7)
        assert st_.e12 == pytest.approx(dt_dv, rel=1e-7, abs=1e-9)
        # Maxwell symmetry: mixed energy partials coincide
        assert st_.e12 == pytest.approx(-dp_ds, rel=1e-7, abs=1e-9)
        assert st_.e22 == pytest.approx(-dp_dv, rel=1e-7)

    def test_third_derivatives_from_metric_entries(self, model_name):
        model = self._model(model_name)
        s, v = self.STATES[model_name]
        st_ = self._entries(model, s, v)
        h = 1e-5
        for name, field in (("c111", "e11"), ("c112", "e12"), ("c122", "e22")):
            fd = (getattr(self._entries(model, s + h, v), field)
                  - getattr(self._entries(model, s - h, v), field)) / (2 * h)
            assert getattr(st_, name) == pytest.approx(fd, rel=1e-6, abs=1e-8), name
        fd222 = (self._entries(model, s, v + h).e22
                 - self._entries(model, s, v - h).e22) / (2 * h)
        assert st_.c222 == pytest.approx(fd222, rel=1e-6, abs=1e-8)

    def test_coefficient_partials_against_differences(self, model_name):
        model = self._model(model_name)
        s, v = self.STATES[model_name]
        st_ = self._entries(model, s, v)
        h = 1e-6
        for prefix in ("cv", "alpha", "k"):
            fd_s = (getattr(self._entries(model, s + h, v), prefix)
                    - getattr(self._entries(model, s - h, v), prefix)) / (2 * h)
            fd_v = (getattr(self._entries(model, s, v + h), prefix)
                    - getattr(self._entries(model, s, v - h), prefix)) / (2 * h)
            assert getattr(st_, f"d{prefix}_ds") == pytest.approx(
                fd_s, rel=2e-6, abs=1e-9), prefix
            assert getattr(st_, f"d{prefix}_dv") == pytest.approx(
                fd_v, rel=2e-6, abs=1e-9), prefix


@given(s=st.floats(min_value=1.0, max_value=3.0),
       v=st.floats(min_value=1.0, max_value=4.0))
def test_determinant_consistency(s, v):
    model = VanDerWaals(PARAMS)
    try:
        st_ = model.derivative_stack(sv(s, v))
    except SingularState:
        return
    assert st_.det == pytest.approx(
        st_.e11 * st_.e22 - st_.e12 ** 2, rel=1e-13, abs=1e-15)


class TestConstantCvCustom:
    def test_matches_vdw_when_given_vdw_pieces(self, vdw_model, params):
        f1 = ShiftedPower(1.0, params.b, -params.r_gas / params.cv0)
        f2 = ShiftedPower(params.a / params.cv0, 0.0, -1.0)
        custom = ConstantCv(f1, f2, cv=params.cv0)
        a = custom.derivative_stack(sv(2.5, 1.4))
        b = vdw_model.derivative_stack(sv(2.5, 1.4))
        for field in ("t", "p", "u", "e11", "e12", "e22",
                      "c111", "c112", "c122", "c222"):
            assert getattr(a, field) == pytest.approx(
                getattr(b, field), rel=1e-13), field

    def test_missing_f2_means_zero_interaction(self):
        f1 = ShiftedPower(1.0, 0.2, -0.8)
        custom = ConstantCv(f1, None, cv=2.5)
        st_ = custom.derivative_stack(sv(2.0, 1.5))
        e = math.exp(2.0 / 2.5)
        assert st_.p == pytest.approx(-f1.eval_derivs(1.5)[1] * e, rel=1e-13)

    def test_energy_offset_shifts_u_only(self):
        f1 = ShiftedPower(1.0, 0.0, -0.8)
        plain = ConstantCv(f1, None, cv=2.0)
        lifted = ConstantCv(f1, None, cv=2.0, u0=5.0)
        a = plain.derivative_stack(sv(1.0, 1.0))
        b = lifted.derivative_stack(sv(1.0, 1.0))
        assert b.u - a.u == pytest.approx(5.0, rel=1e-14)
        assert b.t == a.t and b.p == a.p


class TestNumericEnergy:
    def test_tracks_analytic_vdw(self, vdw_model, params):
        a, b, r, cv = params.a, params.b, params.r_gas, params.cv0

        def energy(s, v):
            return math.exp(s / cv) * (v - b) ** (-r / cv) - a / v

        numeric = NumericEnergy(energy)
        for s, v in [(2.5, 1.4), (3.0, 2.5), (2.2, 0.9)]:
            na = numeric.derivative_stack(sv(s, v))
            an = vdw_model.derivative_stack(sv(s, v))
            assert na.t == pytest.approx(an.t, rel=1e-8)
            assert na.p == pytest.approx(an.p, rel=1e-8)
            for field in ("e11", "e12", "e22"):
                assert getattr(na, field) == pytest.approx(
                    getattr(an, field), rel=1e-6), field
            for field in ("c111", "c112", "c122", "c222"):
                assert getattr(na, field) == pytest.approx(
                    getattr(an, field), rel=1e-4), field

    def test_entropy_volume_chart_only(self):
        numeric = NumericEnergy(lambda s, v: math.exp(s) / v)
        with pytest.raises(UnsupportedModel):
            numeric.derivative_stack(tv(1.0, 1.0))


def _stencil_33(u, s, v):
    """The central stencil as it was written with 33 calls of U, the third
    order re-evaluating 8 points: the partials every change must keep."""
    h1s = max(abs(s), 1.0) * FD_STEP_FIRST
    h1v = max(abs(v), 1.0) * FD_STEP_FIRST
    h2s = max(abs(s), 1.0) * FD_STEP_SECOND
    h2v = max(abs(v), 1.0) * FD_STEP_SECOND
    h3s = max(abs(s), 1.0) * FD_STEP_THIRD
    h3v = max(abs(v), 1.0) * FD_STEP_THIRD

    u0 = u(s, v)
    u_s = (u(s + h1s, v) - u(s - h1s, v)) / (2.0 * h1s)
    u_v = (u(s, v + h1v) - u(s, v - h1v)) / (2.0 * h1v)

    u_ss = (u(s + h2s, v) - 2.0 * u0 + u(s - h2s, v)) / (h2s * h2s)
    u_vv = (u(s, v + h2v) - 2.0 * u0 + u(s, v - h2v)) / (h2v * h2v)
    u_sv = (u(s + h2s, v + h2v) - u(s + h2s, v - h2v)
            - u(s - h2s, v + h2v) + u(s - h2s, v - h2v)) / (4.0 * h2s * h2v)

    u_sss = (u(s + 2 * h3s, v) - 2.0 * u(s + h3s, v)
             + 2.0 * u(s - h3s, v) - u(s - 2 * h3s, v)) / (2.0 * h3s ** 3)
    u_vvv = (u(s, v + 2 * h3v) - 2.0 * u(s, v + h3v)
             + 2.0 * u(s, v - h3v) - u(s, v - 2 * h3v)) / (2.0 * h3v ** 3)

    def dss_at(vv):
        return (u(s + h3s, vv) - 2.0 * u(s, vv) + u(s - h3s, vv)) / (h3s * h3s)

    def dvv_at(ss):
        return (u(ss, v + h3v) - 2.0 * u(ss, v) + u(ss, v - h3v)) / (h3v * h3v)

    u_ssv = (dss_at(v + h3v) - dss_at(v - h3v)) / (2.0 * h3v)
    u_svv = (dvv_at(s + h3s) - dvv_at(s - h3s)) / (2.0 * h3s)

    return u0, u_s, u_v, u_ss, u_sv, u_vv, u_sss, u_ssv, u_svv, u_vvv


def _stencil_states(seed, n):
    """(S, V) with |S| up to 20 and V from just past the stencil's reach
    above the covolume 0.2 up to 10."""
    rng = np.random.default_rng(seed)
    s = rng.uniform(-20.0, 20.0, n)
    v = np.where(rng.random(n) < 0.3, rng.uniform(0.2016, 0.21, n),
                 rng.uniform(0.21, 10.0, n))
    return list(zip(s.tolist(), v.tolist()))


class TestNumericEnergyStencil:
    """The central stencil calls U once per point, 25 points, and gives the
    partials and the first error of the 33-call stencil, bit for bit."""

    def test_one_call_of_u_per_point(self):
        calls = []

        def energy(s, v):
            calls.append((s, v))
            return _vdw_energy(s, v)
        model = NumericEnergy(energy)
        for s, v in _stencil_states(30, 20):
            calls.clear()
            model.derivative_stack(sv(s, v))
            assert len(calls) == 25
            assert len(set(calls)) == 25

    def test_partials_equal_the_33_call_stencil(self):
        model = NumericEnergy(_vdw_energy)
        for s, v in _stencil_states(31, 2000):
            got = model._fd_partials(s, v)
            want = _stencil_33(_vdw_energy, s, v)
            assert struct.pack("<10d", *got) == struct.pack("<10d", *want), \
                (s, v)

    # Offsets in units of the third-order steps are 0.008 (first order),
    # 0.16 (second order), 1 and 2 along an axis and (+-1, +-1) at the
    # corners.  A state raises in a half-plane beyond a threshold between
    # them, or where the product of its offsets passes one, which catches
    # two corners and no axis point.
    REGIONS = {
        **{f"half-plane-{a}-{b}-{level}":
           (lambda x, y, a=a, b=b, level=level: a * x + b * y > level)
           for a, b in [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0),
                        (1.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0),
                        (0.3, 1.0), (1.0, -0.4)]
           for level in (-0.5, 0.004, 0.1, 0.5, 1.2, 1.7, 2.5, 3.5)},
        **{f"product-{sign}-{level}":
           (lambda x, y, sign=sign, level=level: sign * x * y > level)
           for sign in (1.0, -1.0) for level in (0.01, 0.5)},
    }

    @pytest.mark.parametrize("region", sorted(REGIONS))
    def test_first_error_is_the_33_call_stencils(self, region):
        s, v = 2.5, 1.4
        h3s = max(abs(s), 1.0) * FD_STEP_THIRD
        h3v = max(abs(v), 1.0) * FD_STEP_THIRD
        raises = self.REGIONS[region]

        def energy(x, y):
            if raises((x - s) / h3s, (y - v) / h3v):
                raise DomainError(f"no energy at ({x!r}, {y!r})")
            return _vdw_energy(x, y)

        def outcome(partials):
            try:
                return struct.pack("<10d", *partials(energy, s, v))
            except DomainError as exc:
                return str(exc)
        assert outcome(lambda u, *state: NumericEnergy(u)._fd_partials(
            *state)) == outcome(_stencil_33)


class TestHessianProbe:
    """``_hessian``, the probe that reads the Hessian alone, makes
    ``hessian_jet``'s checks and gives its entries; a central NumericEnergy
    calls U at 9 of the 25 stencil points, in the stencil's order."""

    def test_central_probe_calls_u_nine_times(self):
        calls = []

        def energy(s, v):
            calls.append((s, v))
            return _vdw_energy(s, v)
        model = NumericEnergy(energy)
        for s, v in _stencil_states(32, 50):
            calls.clear()
            jet = hessian_jet(model, s, v)
            stencil = list(calls)
            calls.clear()
            assert model._hessian(s, v) == jet[5:8]
            assert len(calls) == 9 == len(set(calls))
            assert calls == [c for c in stencil if c in calls]

    MODELS = {
        "ideal": lambda: IdealGas(PARAMS),
        "vdw": lambda: VanDerWaals(PARAMS),
        "berthelot": lambda: Berthelot(PARAMS),
        "custom": lambda: ConstantCv("(V-0.2)^-0.8", "0.6/V", cv=2.5),
        "numeric": lambda: NumericEnergy(_vdw_energy),
    }

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_entries_and_checks_are_the_jets(self, name):
        model = self.MODELS[name]()
        for s, v in _stencil_states(33, 20):
            assert model._hessian(s, v) == hessian_jet(model, s, v)[5:8]
        for s, v in ((math.nan, 1.0), (1.0, math.inf), (1.0, 0.0),
                     (1.0, -1.0)):
            with pytest.raises(DomainError) as want:
                hessian_jet(model, s, v)
            with pytest.raises(DomainError) as got:
                model._hessian(s, v)
            assert str(got.value) == str(want.value)


class TestDerivativeStackRecord:
    """The stack is an immutable NamedTuple with the former dataclass's
    fields, in order, and the same derived properties."""

    FIELDS = ("s", "v", "u", "t", "p", "e11", "e12", "e22",
              "c111", "c112", "c122", "c222", "cv", "cp", "alpha", "k",
              "dcv_ds", "dcv_dv", "dalpha_ds", "dalpha_dv", "dk_ds", "dk_dv")

    @pytest.fixture
    def stack(self, berthelot_model):
        # Berthelot: the heat capacity and all its partials vary
        return berthelot_model.derivative_stack(sv(-2.0, 1.4))

    def test_field_order(self, stack):
        assert DerivativeStack._fields == self.FIELDS
        assert tuple(stack) == tuple(getattr(stack, f) for f in self.FIELDS)

    @pytest.mark.parametrize("field", ["s", "e11", "dk_dv"])
    def test_fields_cannot_be_assigned(self, stack, field):
        with pytest.raises(AttributeError):
            setattr(stack, field, 0.0)

    def test_determinant_and_its_partials(self, stack):
        st = stack
        assert st.det == st.e11 * st.e22 - st.e12 * st.e12
        assert st.det_s == (st.c111 * st.e22 + st.e11 * st.c122
                            - 2.0 * st.e12 * st.c112)
        assert st.det_v == (st.c112 * st.e22 + st.e11 * st.c222
                            - 2.0 * st.e12 * st.c122)

    def test_coefficient_records(self, stack):
        assert stack.dcv_ds != 0.0 and stack.dcv_dv != 0.0


class TestConfigHandling:
    def test_parse_round_trip(self):
        text = """
        # gas selection
        model = vdw
        a = 1.5   # attraction
        b = 0.2
        r_gas = 2.0
        cv0 = 2.5
        """
        out = parse_config_text(text)
        assert out == {"model": "vdw", "a": 1.5, "b": 0.2,
                       "r_gas": 2.0, "cv0": 2.5}

    @pytest.mark.parametrize("line", ["universe = 42", "a = xyz", "just words"])
    def test_rejects_bad_lines(self, line):
        with pytest.raises(ValueError):
            parse_config_text(line)

    def test_make_model_unknown_name(self):
        with pytest.raises(ValueError):
            make_model("nope", PARAMS)


@pytest.mark.parametrize("overrides", [
    {"a": -1.0}, {"b": -0.1}, {"r_gas": -2.0}, {"cv0": 0.0},
])
def test_parameter_validation(overrides):
    kwargs = {"a": 1.0, "b": 0.1, "r_gas": 2.0, "cv0": 2.5}
    kwargs.update(overrides)
    with pytest.raises(DomainError):
        GasParameters(**kwargs)


def test_unchecked_zero_determinant_is_nan_and_fails_the_array_pass():
    # f1 = exp(V) with cv = 1 gives e11 = e12 = e22, so det is exactly 0:
    # an unchecked stack reports NaN for k, and the array pass, which
    # always checks, raises
    model = ConstantCv("exp(V)", cv=1.0)
    stack = model.derivative_stack(StatePoint.entropy_volume(1.0, 1.0),
                                   check_singular=False)
    assert stack.det == 0.0 and math.isnan(stack.k)
    with pytest.raises(SingularState, match="degeneracy locus"):
        model.array_stack(Chart.ENTROPY_VOLUME, np.array([1.0, 2.0]),
                          np.array([1.0, 1.5]))


def test_unchecked_stack_is_nan_where_a_denominator_underflows():
    # on the locus of a gas whose energy is scaled by 1e-78, det is a
    # rounding-sized 1e-172 and v det^2 underflows to 0: NaN, not a float
    # division by zero, and the Hessian is that of the unscaled gas times
    # 1e-78
    scaled, unit = (ConstantCv(f"{lam!r}*(V-0.2)^-0.8", f"{lam!r}*0.6/V",
                               cv=2.5) for lam in (1e-78, 1.0))
    state = sv(locus_entropy(scaled, 1.0), 1.0)
    stack = scaled.derivative_stack(state, check_singular=False)
    assert stack.det != 0.0 and stack.v * stack.det * stack.det == 0.0
    assert all(math.isnan(x) for x in (stack.k, stack.alpha, stack.cp,
                                       stack.dalpha_ds, stack.dalpha_dv,
                                       stack.dk_ds, stack.dk_dv))
    want = unit.derivative_stack(state, check_singular=False)
    assert math.isclose(stack.e11, 1e-78 * want.e11, rel_tol=1e-13)
    assert math.isclose(stack.t, 1e-78 * want.t, rel_tol=1e-13)


def _vdw_energy(s, v, a=1.5, b=0.2, r=2.0, cv=2.5):  # the conftest gas
    return (v - b) ** (-r / cv) * math.exp(s / cv) - a / v


@pytest.mark.parametrize("model,state", [
    (IdealGas(PARAMS), sv(1.5, 2.0)),
    (VanDerWaals(PARAMS), sv(2.5, 1.4)),
    (ConstantCv("(V-0.2)^-0.8", "0.6/V", cv=2.5), sv(2.5, 1.4)),
    (Berthelot(PARAMS), sv(2.4, 2.2)),
    (Berthelot(PARAMS), tv(1.1, 0.9)),
    (NumericEnergy(_vdw_energy), sv(2.5, 1.4)),
], ids=["ideal", "vdw", "custom", "berthelot-sv", "berthelot-tv", "numeric"])
def test_unchecked_stack_is_the_hessian_jet(model, state):
    # S, V, U, T, p, the Hessian and the third partials, bit for bit those
    # of the checked stack; no response coefficient
    checked = model.derivative_stack(state)
    unchecked = model.derivative_stack(state, check_singular=False)
    assert struct.pack("<12d", *unchecked[:12]) == struct.pack(
        "<12d", *checked[:12])
    assert all(math.isnan(x) for x in unchecked[12:])
    assert len(unchecked[12:]) == 10
    if state.chart is Chart.ENTROPY_VOLUME:  # the probes' reader
        assert struct.pack("<12d", *hessian_jet(model, state.x1, state.x2)
                           ) == struct.pack("<12d", *unchecked[:12])


@pytest.mark.parametrize("s, v, message", [
    (math.nan, 1.0, r"^non-finite state \(nan, 1.0\)$"),
    (1.0, math.inf, r"^non-finite state \(1.0, inf\)$"),
    (1.0, 0.0, "^volume must be positive, got 0.0$"),
    (1.0, -2.0, "^volume must be positive, got -2.0$"),
])
def test_hessian_jet_makes_the_state_checks(s, v, message):
    # StatePoint's checks and messages, before the model is evaluated
    with pytest.raises(DomainError, match=message):
        StatePoint.entropy_volume(s, v)
    with pytest.raises(DomainError, match=message):
        hessian_jet(IdealGas(PARAMS), s, v)


GRID_SIZES = (2, 3, 16, 40, 64, 181, 200, 400)  # the package's grid sizes


def _windows(seed, positive):
    """300 seeded (start, stop, n): ends of mixed magnitude and sign, or
    positive and ascending, as volume windows are."""
    rng = random.Random(seed)
    for _ in range(300):
        a, b = (rng.uniform(0.1, 10.0) * 10.0 ** rng.randint(-3, 3)
                for _ in range(2))
        if not positive:
            a, b = rng.choice((-1, 1)) * a, rng.choice((-1, 1)) * b
        yield min(a, b), max(a, b), rng.choice(GRID_SIZES)


def _bits(xs):
    return [struct.pack("<d", x) for x in xs]


def _simd_power() -> bool:
    """Whether numpy's float64 power or log10 runs a SIMD loop above its
    baseline: numpy's geomspace then rounds otherwise than the C library's
    pow and log10, which float_grid follows.  numpy before 2.0 cannot tell,
    and is taken to."""
    introspect = getattr(np.lib, "introspect", None)
    return introspect is None or any(
        not loop["current"].startswith("baseline")
        for fn in introspect.opt_func_info(
            func_name="^(power|log10)$", signature="float64.*").values()
        for loop in fn.values())


class TestFloatGrid:
    """The volume and entropy grids are numpy's, computed on floats."""

    @pytest.mark.parametrize("seed", range(5))
    def test_linspace_bit_for_bit(self, seed):
        for start, stop, n in _windows(seed, positive=False):
            assert _bits(float_grid(start, stop, n)) == _bits(
                np.linspace(start, stop, n).tolist())

    @pytest.mark.parametrize("start, stop, n", [
        (0.0, 1.5e-323, 8),  # a step that rounds to zero
        (2.5, 2.5, 5), (-3.0, 7.0, 2), (-50.0, 50.0, 181)])
    def test_linspace_edges(self, start, stop, n):
        assert _bits(float_grid(start, stop, n)) == _bits(
            np.linspace(start, stop, n).tolist())

    @pytest.mark.skipif(_simd_power(), reason="numpy's power and log10 run "
                        "SIMD loops above its baseline here, which round "
                        "otherwise than the C library; run with "
                        "NPY_DISABLE_CPU_FEATURES set to the extensions "
                        "above the baseline")
    @pytest.mark.parametrize("seed", range(5))
    def test_geomspace_bit_for_bit(self, seed):
        for start, stop, n in _windows(seed, positive=True):
            assert _bits(float_grid(start, stop, n, geometric=True)) == (
                _bits(np.geomspace(start, stop, n).tolist()))

    def test_geomspace_pins_its_ends(self):
        grid = float_grid(0.3, 3.0, 16, geometric=True)
        assert (grid[0], grid[-1], len(grid)) == (0.3, 3.0, 16)
        assert grid == sorted(grid)
