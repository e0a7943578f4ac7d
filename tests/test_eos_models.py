"""Constitutive models: state functions, derivative stacks, chart changes."""
import math
from collections import Counter

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
from thermogeom import eos_models
from thermogeom.critical_locus import locus_entropy
from thermogeom.eos_models import (
    DerivativeStack,
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


def _inversion_path(q, s, v):
    """Which branches the float inversion of S(T, V) = s takes: whether it
    halves a step, and whether it stops at t_new == t ("equal"), after its
    clean-up pass ("clean") or not at all ("fail").  Its loop, copied."""
    r_log_w = q.r_gas * math.log(v - q.b)

    def newton_step(t):
        vtt = v * t * t
        f = q.s0 + q.cv0 * math.log(t) + r_log_w - q.a / vtt - s
        return f * t / (q.cv0 + 2.0 * q.a / vtt)
    t, halved = math.exp((s - q.s0 - r_log_w) / q.cv0), False
    for _ in range(200):
        step = newton_step(t)
        t_new = t - step
        if t_new <= 0.0:
            t_new, halved = t * 0.5, True
        if t_new == t:
            return halved, "equal"
        t = t_new
        if abs(step) <= 4.0 * math.ulp(1.0) * t:
            return halved, "clean"
    return halved, "fail"


class TestBerthelotArrayInversion:
    """Over arrays, the entropy inversion runs on every state at once and
    gives each state the float inversion's temperature, bit for bit."""

    @staticmethod
    def _float_temperatures(model, s, v):
        return np.array([model._temperature_from_entropy(a, b)
                         for a, b in zip(s.ravel().tolist(),
                                         v.ravel().tolist())]).reshape(s.shape)

    def test_random_states(self, berthelot_model):
        rng = np.random.default_rng(20)
        s, v = rng.uniform(-40.0, 8.0, 3000), rng.uniform(0.21, 10.0, 3000)
        paths = Counter(_inversion_path(PARAMS, a, b)
                        for a, b in zip(s.tolist(), v.tolist()))
        # both stops occur, and every state is invertible
        assert set(paths) == {(False, "equal"), (False, "clean")}
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

    def test_halving_takes_the_float_path(self, monkeypatch):
        # a negative attraction, outside the admissible parameters, makes
        # S(T) fall at low T: there Newton steps to T <= 0 and halves, and
        # no root exists.  The array iteration evaluates the same
        # temperatures as the float one and fails as it does.
        q = GasParameters(a=1.5, b=0.2, r_gas=2.0, cv0=2.5)
        object.__setattr__(q, "a", -1.5)
        model = Berthelot(q)
        rng = np.random.default_rng(22)
        s, v = rng.uniform(-20.0, 20.0, 400), rng.uniform(0.21, 10.0, 400)
        states = [(a, b) for a, b in zip(s.tolist(), v.tolist())
                  if _inversion_path(q, a, b)[0]][:10]
        assert states

        logs = []

        class Recorded:
            def __getattr__(self, name):
                return getattr(math, name)

            def log(self, x):
                logs.append(x)
                return math.log(x)
        array_log = eos_models._ARRAY_LIBM.log

        def recorded(x):
            logs.extend(x.tolist())
            return array_log(x)
        monkeypatch.setattr(eos_models, "math", Recorded())
        monkeypatch.setattr(eos_models, "_ARRAY_LIBM",
                            eos_models._ARRAY_LIBM._replace(log=recorded))
        for a, b in states:
            runs = []
            for s, v in ((a, b), (np.array([a]), np.array([b]))):
                logs.clear()
                with pytest.raises(DomainError) as err:
                    model._temperature_from_entropy(s, v)
                runs.append((list(logs), str(err.value)))
            assert runs[0] == runs[1]
            assert runs[0][1] == f"entropy inversion failed at S={a}, V={b}"

    def test_a_state_without_a_root_fails_the_array(self, berthelot_model):
        # at high entropy the iteration cycles in its last bits and never
        # stops, for the float and for the array inversion alike
        s, v = 23.074296274272342, 6.840118956852457
        assert _inversion_path(PARAMS, s, v) == (False, "fail")
        message = f"entropy inversion failed at S={s}, V={v}"
        with pytest.raises(DomainError, match=message):
            berthelot_model._temperature_from_entropy(s, v)
        with pytest.raises(DomainError, match=message):
            berthelot_model._temperature_from_entropy(
                np.array([-2.0, s, 1.0]), np.array([1.0, v, 2.0]))


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
    assert (stack.dcv_ds, stack.dcv_dv) == (0.0, 0.0)
