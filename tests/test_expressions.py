"""Expression grammar and the fixed smooth-function families."""
import math

import pytest
from hypothesis import given, strategies as st

from thermogeom.expressions import (
    Expression,
    ExpressionError,
    ShiftedPower,
    ZeroFunction,
    as_smooth,
    parse_expression,
)


def fd4(fn, v):
    """Central-difference derivative ladder, for checking exact derivatives.

    Step sizes grow with the order: the k-th difference loses eps/h**k to
    rounding, so h is chosen per order to balance truncation against noise.
    """
    f = fn(v)
    h1, h2, h3 = 1e-6, 1e-4, 1e-3
    d1 = (fn(v + h1) - fn(v - h1)) / (2 * h1)
    d2 = (fn(v + h2) - 2 * f + fn(v - h2)) / (h2 * h2)
    d3 = (fn(v + 2 * h3) - 2 * fn(v + h3) + 2 * fn(v - h3)
          - fn(v - 2 * h3)) / (2 * h3 ** 3)
    return f, d1, d2, d3


class TestShiftedPower:
    def test_subtracts_shift(self):
        f = ShiftedPower(2.0, 0.5, 3.0)
        assert f.eval_derivs(1.5) == (2.0, 6.0, 12.0, 12.0)

    @pytest.mark.parametrize("coeff,shift,expo,v", [
        (1.0, 0.2, -0.8, 1.4),
        (-3.0, 0.0, 2.5, 0.7),
        (0.5, -1.0, -3.0, 2.0),
    ])
    def test_derivatives_analytic(self, coeff, shift, expo, v):
        f = ShiftedPower(coeff, shift, expo)
        base = v - shift
        expected = (
            coeff * base ** expo,
            coeff * expo * base ** (expo - 1),
            coeff * expo * (expo - 1) * base ** (expo - 2),
            coeff * expo * (expo - 1) * (expo - 2) * base ** (expo - 3),
        )
        got = f.eval_derivs(v)
        for g, e in zip(got, expected):
            assert g == pytest.approx(e, rel=1e-14)


def test_zero_function():
    assert ZeroFunction().eval_derivs(123.0) == (0.0, 0.0, 0.0, 0.0)


class TestParser:
    @pytest.mark.parametrize("text,v,expected", [
        ("V", 2.5, 2.5),
        ("2*V + 1", 3.0, 7.0),
        ("(V - 0.2)^-0.8", 1.2, 1.0 ** -0.8),
        ("1/(V*V)", 2.0, 0.25),
        ("exp(0.5*V)", 1.0, math.exp(0.5)),
        ("ln(V)", math.e, 1.0),
        ("-V^2", 3.0, -9.0),  # unary minus binds looser than the power
        ("2^3^V", 2.0, 512.0),  # right-associative power tower
    ])
    def test_values(self, text, v, expected):
        assert parse_expression(text)(v) == pytest.approx(expected, rel=1e-14)

    def test_trailing_whitespace_tolerated(self):
        assert parse_expression("V + 1 ")(1.0) == 2.0

    @pytest.mark.parametrize("text", ["V +* 2", "(V", "foo(V)", "", "1..2"])
    def test_rejects_malformed(self, text):
        with pytest.raises(ExpressionError):
            parse_expression(text)

    def test_division_by_zero_at_eval(self):
        f = parse_expression("1/(V - 1)")
        with pytest.raises(ZeroDivisionError):
            f(1.0)

    def test_log_domain_at_eval(self):
        f = parse_expression("ln(V - 2)")
        with pytest.raises(ValueError):
            f(1.0)

    @pytest.mark.parametrize("text,v", [
        ("(V - 0.2)^-0.8", 1.7),
        ("exp(-0.3*V)*V^2", 1.1),
        ("ln(V + 1)/V", 0.9),
        ("(2*V + 1)/(V^2 + 3)", 1.6),
        ("V^V", 1.3),
    ])
    def test_derivatives_match_fd(self, text, v):
        expr = parse_expression(text)
        exact = expr.eval_derivs(v)
        approx = fd4(expr, v)
        assert exact[0] == approx[0]
        for k in (1, 2, 3):
            assert exact[k] == pytest.approx(approx[k], rel=1e-5, abs=1e-7)


@given(
    coeffs=st.lists(st.floats(min_value=-3, max_value=3,
                              allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=5),
    v=st.floats(min_value=0.5, max_value=2.0),
)
def test_polynomial_round_trip(coeffs, v):
    # build "c0 + c1*V + c2*V^2 + ..." and compare against direct evaluation
    text = " + ".join(f"({c})*V^{k}" for k, c in enumerate(coeffs))
    expr = parse_expression(text)
    value = sum(c * v ** k for k, c in enumerate(coeffs))
    d1 = sum(k * c * v ** (k - 1) for k, c in enumerate(coeffs) if k >= 1)
    d2 = sum(k * (k - 1) * c * v ** (k - 2) for k, c in enumerate(coeffs) if k >= 2)
    d3 = sum(k * (k - 1) * (k - 2) * c * v ** (k - 3)
             for k, c in enumerate(coeffs) if k >= 3)
    got = expr.eval_derivs(v)
    assert got[0] == pytest.approx(value, rel=1e-12, abs=1e-12)
    assert got[1] == pytest.approx(d1, rel=1e-12, abs=1e-12)
    assert got[2] == pytest.approx(d2, rel=1e-12, abs=1e-12)
    assert got[3] == pytest.approx(d3, rel=1e-12, abs=1e-12)


class TestAsSmooth:
    def test_passes_through_instances(self):
        f = ShiftedPower(1.0, 0.0, 2.0)
        assert as_smooth(f) is f

    def test_parses_strings(self):
        f = as_smooth("V^2")
        assert f.eval_derivs(3.0)[0] == 9.0

    @pytest.mark.parametrize("bad", [None, 3.14, object()])
    def test_rejects_unusable(self, bad):
        with pytest.raises(TypeError):
            as_smooth(bad)


def test_expression_repr_mentions_source():
    assert "V^2" in repr(Expression("V^2"))
