"""The Hessian image surface: frames, normals, pairing classes, residuals."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from thermogeom import (
    Chart,
    ConstantCv,
    FrameSingular,
    RadialClass,
    StatePoint,
    curvature_report,
    hessian_map,
    parse_expression,
    radial_pairing,
    weinhold_metric,
)
from thermogeom.hessian_surface import (
    embed,
    ideal_conic_residual,
    vdw_surface_residual,
)

from conftest import PARAMS


def sv(s, v):
    return StatePoint(Chart.ENTROPY_VOLUME, s, v)


finite = st.floats(min_value=-5.0, max_value=5.0,
                   allow_nan=False, allow_infinity=False)


@given(a=st.tuples(finite, finite, finite), b=st.tuples(finite, finite, finite))
def test_trace_pairing_is_matrix_trace(a, b):
    mat_a = np.array([[a[0], a[1]], [a[1], a[2]]])
    mat_b = np.array([[b[0], b[1]], [b[1], b[2]]])
    expected = np.trace(mat_a @ mat_b)
    pairing = a[0] * b[0] + 2.0 * a[1] * b[1] + a[2] * b[2]
    assert pairing == pytest.approx(expected, rel=1e-12, abs=1e-12)


@given(a=st.tuples(finite, finite, finite), b=st.tuples(finite, finite, finite))
def test_embedding_turns_pairing_euclidean(a, b):
    ea, eb = embed(*a), embed(*b)
    dot = ea[0] * eb[0] + ea[1] * eb[1] + ea[2] * eb[2]
    pairing = a[0] * b[0] + 2.0 * a[1] * b[1] + a[2] * b[2]  # Tr(AB)
    assert dot == pytest.approx(pairing, rel=1e-12, abs=1e-12)


class TestHessianPoint:
    def test_components_trace_back_to_metric(self, vdw_model):
        state = sv(2.5, 1.4)
        m = weinhold_metric(vdw_model, state)
        hp = hessian_map(vdw_model, state)
        assert hp.euclid == embed(m.e11, m.e12, m.e22)

    def test_frame_spans_third_derivatives(self, vdw_model):
        state = sv(2.5, 1.4)
        m = weinhold_metric(vdw_model, state)
        hp = hessian_map(vdw_model, state)
        c111, c112, c122, c222 = m.d[0], m.d[1], m.d[3], m.d[5]
        assert hp.r1 == pytest.approx(embed(c111, c112, c122), rel=1e-14)
        assert hp.r2 == pytest.approx(embed(c112, c122, c222), rel=1e-14)

    def test_normal_orthogonal_to_frame(self, vdw_model):
        hp = hessian_map(vdw_model, sv(2.2, 0.9))
        for row in (hp.r1, hp.r2):
            dot = sum(x * y for x, y in zip(hp.normal, row))
            scale = (math.hypot(*hp.normal)) * math.hypot(*row)
            assert abs(dot) < 1e-14 * scale

    def test_parallel_frame_raises(self):
        # exponential leading function with a quadratic interaction keeps the
        # determinant alive but collapses the tangent frame to a line
        model = ConstantCv("0.7*exp(-0.4*V)", "0.3*V^2", cv=2.0)
        with pytest.raises(FrameSingular):
            hessian_map(model, sv(1.2, 1.5))


class TestRadialClassification:
    def test_positive_curvature_is_convex(self, vdw_model):
        for s, v in [(2.5, 1.4), (2.2, 0.9), (2.0, 2.0)]:
            rp = radial_pairing(hessian_map(vdw_model, sv(s, v)))
            rep = curvature_report(vdw_model, sv(s, v))
            assert rep.r_closed2d > 0.0
            assert rp.kind is RadialClass.RADIALLY_CONVEX

    def test_negative_curvature_is_concave(self):
        model = ConstantCv(parse_expression("(V-0.2)^-0.8"),
                           parse_expression("-0.6/V"), cv=2.5)
        for s, v in [(2.5, 1.4), (2.1, 1.0)]:
            rep = curvature_report(model, sv(s, v))
            rp = radial_pairing(hessian_map(model, sv(s, v)))
            assert rep.r_closed2d < 0.0
            assert rp.kind is RadialClass.RADIALLY_CONCAVE

    def test_flat_gas_is_tangent(self, ideal_model):
        for s, v in [(1.0, 1.0), (2.0, 3.0), (1.5, 0.8)]:
            rp = radial_pairing(hessian_map(ideal_model, sv(s, v)))
            assert rp.kind is RadialClass.TANGENT


class TestPairingIdentity:
    def test_pairing_is_sqrt2_det3_symbolically(self):
        sympy = pytest.importorskip("sympy")
        e11, e12, e22, c111, c112, c122, c222 = sympy.symbols(
            "e11 e12 e22 c111 c112 c122 c222")
        root2 = sympy.sqrt(2)
        point = sympy.Matrix([e11, root2 * e12, e22])
        r1 = sympy.Matrix([c111, root2 * c112, c122])
        r2 = sympy.Matrix([c112, root2 * c122, c222])
        pairing = point.dot(r1.cross(r2))
        det3 = sympy.Matrix([[e11, e12, e22],
                             [c111, c112, c122],
                             [c112, c122, c222]]).det()
        assert sympy.expand(pairing - root2 * det3) == 0

    @pytest.mark.parametrize("s,v", [(2.5, 1.4), (3.0, 2.5), (2.2, 0.9),
                                     (2.0, 2.0)])
    def test_numerator_determinant_proportional_to_pairing(self, vdw_model,
                                                           s, v):
        # pairing = sqrt(2) det3 identically; derived in the
        # thermogeom.hessian_surface module docstring
        m = weinhold_metric(vdw_model, sv(s, v))
        hp = hessian_map(vdw_model, sv(s, v))
        rp = radial_pairing(hp)
        c111, c112, c122, c222 = m.d[0], m.d[1], m.d[3], m.d[5]
        det3 = (m.e11 * (c112 * c222 - c122 * c122)
                - m.e12 * (c111 * c222 - c112 * c122)
                + m.e22 * (c111 * c122 - c112 * c112))
        assert det3 == pytest.approx(rp.pairing / math.sqrt(2.0), rel=1e-12)

    @pytest.mark.parametrize("s,v", [(2.5, 1.4), (2.2, 0.9)])
    def test_pairing_encodes_curvature(self, vdw_model, s, v):
        m = weinhold_metric(vdw_model, sv(s, v))
        rp = radial_pairing(hessian_map(vdw_model, sv(s, v)))
        rep = curvature_report(vdw_model, sv(s, v))
        reconstructed = -rp.pairing / (math.sqrt(2.0) * 2.0 * m.det ** 2)
        assert reconstructed == pytest.approx(rep.r_closed2d, rel=1e-12)


class TestSurfaceResiduals:
    @pytest.mark.parametrize("s,v", [(1.0, 1.0), (2.0, 3.0), (0.7, 2.2)])
    def test_ideal_image_sits_on_conic(self, ideal_model, s, v):
        m = weinhold_metric(ideal_model, sv(s, v))
        st_ = ideal_model.derivative_stack(sv(s, v))
        raw = ideal_conic_residual(m, st_.cp, PARAMS.r_gas)
        scale = (abs(PARAMS.r_gas * m.e11 * m.e22)
                 + abs(st_.cp * m.e12 * m.e12))
        assert abs(raw) < 1e-12 * scale

    def test_vdw_image_misses_conic(self, vdw_model):
        m = weinhold_metric(vdw_model, sv(2.5, 1.4))
        st_ = vdw_model.derivative_stack(sv(2.5, 1.4))
        raw = ideal_conic_residual(m, st_.cp, PARAMS.r_gas)
        scale = abs(PARAMS.r_gas * m.e11 * m.e22)
        assert abs(raw) > 1e-3 * scale

    @pytest.mark.parametrize("s,v", [(2.5, 1.4), (2.0, 2.0), (3.0, 2.5),
                                     (2.2, 3.9)])
    def test_vdw_image_sits_on_quintic(self, vdw_model, s, v):
        m = weinhold_metric(vdw_model, sv(s, v))
        _raw, rel = vdw_surface_residual(m, PARAMS)
        assert abs(rel) < 1e-12
