"""Metric assembly, determinant identities, signatures, sound speeds."""
import math

import numpy as np
import pytest

from thermogeom import (
    Chart,
    metric_core,
    MetricTensor2,
    SignatureKind,
    StatePoint,
    determinant_report,
    eigen_signature,
    identity_residuals,
    ruppeiner_metric,
    weinhold_metric,
)
from thermogeom.eos_models import SINGULAR_BAND, relative_det
from thermogeom.metric_core import signature_kind
from thermogeom.curvature import laplace_beltrami_log_t

from conftest import PARAMS
from fd_oracles import vdw_entropy_hessian_fn


def sv(s, v):
    return StatePoint(Chart.ENTROPY_VOLUME, s, v)


GOOD_STATES = [(2.5, 1.4), (3.0, 2.5), (2.2, 0.9)]


class TestWeinholdAssembly:
    @pytest.mark.parametrize("s,v", GOOD_STATES)
    def test_entries_mirror_stack(self, vdw_model, s, v):
        st_ = vdw_model.derivative_stack(sv(s, v))
        m = weinhold_metric(vdw_model, sv(s, v))
        assert (m.e11, m.e12, m.e22) == (st_.e11, st_.e12, st_.e22)
        assert m.det == pytest.approx(st_.det, rel=1e-14)

    @pytest.mark.parametrize("s,v", GOOD_STATES)
    def test_partials_satisfy_hessian_closure(self, vdw_model, s, v):
        m = weinhold_metric(vdw_model, sv(s, v))
        d111, d112, d121, d122, d221, d222 = m.d
        assert d112 == d121
        assert d122 == d221

    @pytest.mark.parametrize("s,v", GOOD_STATES)
    def test_coefficient_form_agrees(self, vdw_model, s, v):
        # (1/cv) [[T, -T alpha/k], [-T alpha/k, cp/(V k)]]
        st_ = vdw_model.derivative_stack(sv(s, v))
        t, cv, cp, alpha, k = st_.t, st_.cv, st_.cp, st_.alpha, st_.k
        e11, e12, e22 = t / cv, -t * alpha / (k * cv), cp / (v * k * cv)
        assert e11 == pytest.approx(st_.e11, rel=1e-12)
        assert e12 == pytest.approx(st_.e12, rel=1e-12)
        assert e22 == pytest.approx(st_.e22, rel=1e-12)


class TestEntropyChartMetric:
    @pytest.mark.parametrize("s,v", GOOD_STATES)
    def test_entries_match_analytic_entropy_hessian(self, vdw_model, s, v):
        st_ = vdw_model.derivative_stack(sv(s, v))
        r = ruppeiner_metric(st_)
        s_uu, s_uv, s_vv = vdw_entropy_hessian_fn(PARAMS)(st_.u, st_.v)
        assert r.e11 == pytest.approx(s_uu, rel=1e-12)
        assert r.e12 == pytest.approx(s_uv, rel=1e-12)
        assert r.e22 == pytest.approx(s_vv, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e-10, 1e10])
    @pytest.mark.parametrize("pair", [1, 3], ids=["d121", "d221"])
    def test_closure_violation_rejected(self, vdw_model, monkeypatch,
                                        scale, pair):
        # the chain rule computes both members of each pair (d112, d121)
        # and (d122, d221); one twice the other is rejected at every scale,
        # as no floor on the comparison hides it at small scales
        d = [scale] * 6
        d[pair + 1] = 2.0 * scale
        monkeypatch.setattr(metric_core, "_ruppeiner_stack",
                            lambda st: ((scale, 0.0, scale), tuple(d)))
        with pytest.raises(ValueError, match="closure"):
            ruppeiner_metric(vdw_model.derivative_stack(sv(2.5, 1.4)))


@pytest.mark.parametrize("model_name", ["ideal", "vdw", "berthelot"])
class TestDeterminantIdentities:
    STATES = {"ideal": (1.4, 1.8), "vdw": (2.6, 1.6), "berthelot": (2.4, 2.2)}

    def test_both_identities_tiny(self, model_name, request):
        model = request.getfixturevalue(
            {"ideal": "ideal_model", "vdw": "vdw_model",
             "berthelot": "berthelot_model"}[model_name])
        s, v = self.STATES[model_name]
        rep = determinant_report(model, sv(s, v))
        assert abs(rep.residual_kvc) < 1e-12 * max(1.0, abs(rep.det))
        assert abs(rep.residual_dpdv) < 1e-12 * max(1.0, abs(rep.det))

    def test_split_reconstructs_det(self, model_name, request):
        model = request.getfixturevalue(
            {"ideal": "ideal_model", "vdw": "vdw_model",
             "berthelot": "berthelot_model"}[model_name])
        s, v = self.STATES[model_name]
        rep = determinant_report(model, sv(s, v))
        if model_name == "berthelot":
            assert rep.det_ideal_part is None and rep.det_correction is None
        else:
            assert rep.det_ideal_part + rep.det_correction == pytest.approx(
                rep.det, rel=1e-12)


class TestCoefficientIdentities:
    @pytest.mark.parametrize("fixture", ["ideal_model", "vdw_model",
                                         "berthelot_model"])
    def test_structural_identities_vanish(self, fixture, request):
        model = request.getfixturevalue(fixture)
        s, v = (2.4, 2.2) if fixture == "berthelot_model" else (2.5, 1.6)
        res = identity_residuals(model, model.derivative_stack(sv(s, v)))
        assert abs(res.id1) < 1e-10
        assert abs(res.id2) < 1e-10
        assert abs(res.cp_cv) < 1e-10

    def test_log_slope_identity_constant_cv(self, vdw_model):
        res = identity_residuals(vdw_model,
                                 vdw_model.derivative_stack(sv(2.5, 1.6)))
        assert res.id3 is not None
        assert abs(res.id3) < 1e-10

    def test_log_slope_identity_absent_otherwise(self, berthelot_model):
        res = identity_residuals(
            berthelot_model, berthelot_model.derivative_stack(sv(2.4, 2.2)))
        assert res.id3 is None


class TestSignature:
    def test_stable_state_positive_definite(self, vdw_model):
        sig = eigen_signature(weinhold_metric(vdw_model, sv(2.5, 1.4)))
        assert sig.kind is SignatureKind.POSITIVE_DEFINITE
        assert sig.lambda_minus > 0.0
        assert sig.lambda_plus >= sig.lambda_minus

    def test_spinodal_interior_indefinite(self, vdw_model):
        # det < 0 between the spinodal branches
        sig = eigen_signature(weinhold_metric(vdw_model, sv(2.0, 2.0)))
        assert sig.kind is SignatureKind.INDEFINITE
        assert sig.lambda_plus > 0.0 > sig.lambda_minus

    def test_eigenvalues_reproduce_invariants(self, vdw_model):
        m = weinhold_metric(vdw_model, sv(2.2, 0.9))
        sig = eigen_signature(m)
        assert sig.lambda_plus * sig.lambda_minus == pytest.approx(
            m.det, rel=1e-12)
        assert sig.lambda_plus + sig.lambda_minus == pytest.approx(
            m.trace, rel=1e-12)

    def test_degenerate_matrix_flagged(self):
        m = MetricTensor2(1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
        assert eigen_signature(m).kind is SignatureKind.DEGENERATE

    @pytest.mark.parametrize("fixture,chart,x1,x2", [
        ("vdw_model", Chart.ENTROPY_VOLUME, (1.8, 3.0), (0.35, 3.0)),
        ("vdw_model", Chart.TEMPERATURE_VOLUME, (0.3, 1.5), (0.35, 3.0)),
        ("berthelot_model", Chart.ENTROPY_VOLUME, (-3.0, 1.0), (0.35, 3.0)),
        ("berthelot_model", Chart.TEMPERATURE_VOLUME, (0.5, 1.5),
         (0.35, 3.0)),
    ], ids=["vdw-sv", "vdw-tv", "berthelot-sv", "berthelot-tv"])
    def test_trace_decides_as_the_heat_capacity(self, request, fixture,
                                                chart, x1, x2):
        # the definite kind from the trace is the one the sign of cv gave,
        # cell by cell, over grids on both sides of the locus
        model = request.getfixturevalue(fixture)
        st_ = model.array_stack(chart, np.linspace(*x1, 23)[:, None],
                                np.linspace(*x2, 29)[None, :])
        kinds = signature_kind(weinhold_metric(model, st_))
        e11, e12, e22, cv = (np.broadcast_to(x, kinds.shape).tolist()
                             for x in (st_.e11, st_.e12, st_.e22, st_.cv))
        want = []
        for cell in zip(e11, e12, e22, cv):
            if abs(relative_det(*cell[:3])) < SINGULAR_BAND:
                want.append(SignatureKind.DEGENERATE)
            elif cell[0] * cell[2] - cell[1] * cell[1] < 0.0:
                want.append(SignatureKind.INDEFINITE)
            elif cell[3] > 0.0:
                want.append(SignatureKind.POSITIVE_DEFINITE)
            else:
                want.append(SignatureKind.NEGATIVE_DEFINITE)
        assert kinds.tolist() == want
        assert {SignatureKind.INDEFINITE,
                SignatureKind.POSITIVE_DEFINITE} <= set(want)


class TestSoundSpeeds:
    def test_ideal_gas_closed_forms(self, ideal_model):
        # squared isothermal and adiabatic speeds times the density,
        # V cv det/T and V cp det/T, are p and gamma p for the ideal gas
        st_ = ideal_model.derivative_stack(sv(1.5, 2.0))
        gamma = st_.cp / st_.cv
        assert st_.v * st_.cv * st_.det / st_.t == pytest.approx(
            st_.p, rel=1e-12)
        assert st_.v * st_.cp * st_.det / st_.t == pytest.approx(
            gamma * st_.p, rel=1e-12)


class TestExponentialDeviation:
    """(d e22/dS)_V - e22/cv: zero without the interaction term."""

    def test_vanishes_for_ideal_gas(self, ideal_model):
        st_ = ideal_model.derivative_stack(sv(1.4, 1.8))
        assert st_.c122 - st_.e22 / st_.cv == 0.0

    def test_vdw_equals_interaction_second_derivative(self, vdw_model, params):
        v = 1.4
        st_ = vdw_model.derivative_stack(sv(2.5, v))
        expected = 2.0 * params.a / (params.cv0 * v ** 3)
        assert st_.c122 - st_.e22 / st_.cv == pytest.approx(
            expected, rel=1e-13)


class TestLogTemperatureLaplacian:
    def test_fd_scheme_confirms_analytic(self, vdw_model):
        state = sv(2.7, 1.8)
        analytic = laplace_beltrami_log_t(vdw_model, state, scheme="analytic")
        fd = laplace_beltrami_log_t(vdw_model, state, scheme="fd")
        assert fd == pytest.approx(analytic, rel=1e-5, abs=1e-8)

    def test_unknown_scheme_rejected(self, vdw_model):
        with pytest.raises(ValueError):
            laplace_beltrami_log_t(vdw_model, sv(2.5, 1.4), scheme="magic")


class TestDegeneracyHelpers:
    def test_relative_det_is_scale_free(self):
        base = relative_det(1.0, 0.5, 2.0)
        # U scaled by 3, then V scaled by 1e-3
        assert relative_det(3.0, 1.5, 6.0) == pytest.approx(base, rel=1e-12)
        assert relative_det(1.0, 0.5e3, 2.0e6) == pytest.approx(base,
                                                               rel=1e-12)
        assert relative_det(1e-8, 0.5e-8, 2e-8) == pytest.approx(base,
                                                                rel=1e-12)

    def test_relative_det_boundary(self):
        assert relative_det(1.0, 1.0, 1.0) == 0.0
        assert relative_det(1.0, 0.0, 1.0) == 1.0
        assert relative_det(1.0, 2.0, 1.0) == -0.75
        # both terms vanish: degenerate
        assert relative_det(0.0, 0.0, 5.0) == 0.0
        assert abs(relative_det(1.0, 1.0, 1.0 + 1e-10)) < SINGULAR_BAND
        assert not abs(relative_det(1.0, 1.0, 1.0 + 1e-8)) < SINGULAR_BAND

    def test_inverse_metric_inverts(self, vdw_model):
        # the coefficient form [[cp/T, V alpha], [V alpha, k V]]
        state = sv(2.5, 1.4)
        m = weinhold_metric(vdw_model, state)
        st_ = vdw_model.derivative_stack(state)
        inv = np.array([[st_.cp / st_.t, st_.v * st_.alpha],
                        [st_.v * st_.alpha, st_.k * st_.v]])
        prod = np.array([[m.e11, m.e12], [m.e12, m.e22]]) @ inv
        assert np.allclose(prod, np.eye(2), atol=1e-12)
