"""Expression grammar and the fixed smooth-function families."""
import math
import struct

import pytest
from hypothesis import assume, given, settings, strategies as st

from thermogeom import expressions as ex
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
        assert parse_expression(text).eval_derivs(v)[0] == pytest.approx(expected, rel=1e-14)

    def test_trailing_whitespace_tolerated(self):
        assert parse_expression("V + 1 ").eval_derivs(1.0)[0] == 2.0

    @pytest.mark.parametrize("text", ["V +* 2", "(V", "foo(V)", "", "1..2"])
    def test_rejects_malformed(self, text):
        with pytest.raises(ExpressionError):
            parse_expression(text)

    def test_division_by_zero_at_eval(self):
        f = parse_expression("1/(V - 1)")
        with pytest.raises(ZeroDivisionError):
            f.eval_derivs(1.0)

    def test_log_domain_at_eval(self):
        f = parse_expression("ln(V - 2)")
        with pytest.raises(ValueError):
            f.eval_derivs(1.0)

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
        approx = fd4(lambda x: expr.eval_derivs(x)[0], v)
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


# ---------------------------------------------------------------------------
# Compiled code against a recursive walk of the trees


def walk(node, v):
    """The value of ``node`` at v by recursion over its tree, with the
    checks and messages of the grammar."""
    if isinstance(node, ex._Num):
        return node.c
    if isinstance(node, ex._Var):
        return v
    if isinstance(node, ex._Add):
        return walk(node.a, v) + walk(node.b, v)
    if isinstance(node, ex._Sub):
        return walk(node.a, v) - walk(node.b, v)
    if isinstance(node, ex._Mul):
        return walk(node.a, v) * walk(node.b, v)
    if isinstance(node, ex._Div):
        den = walk(node.b, v)
        if den == 0.0:
            raise ZeroDivisionError("expression division by zero")
        return walk(node.a, v) / den
    if isinstance(node, ex._PowConst):
        x = walk(node.a, v)
        if x < 0.0 and not node.c.is_integer():
            raise ValueError(f"non-integer power {node.c} of negative value {x}")
        if x == 0.0 and node.c < 0.0:
            raise ValueError(f"negative power {node.c} of zero")
        return x ** node.c
    if isinstance(node, ex._Exp):
        return math.exp(walk(node.a, v))
    if isinstance(node, ex._Ln):
        x = walk(node.a, v)
        if x <= 0.0:
            raise ValueError(f"ln of non-positive value {x}")
        return math.log(x)
    raise TypeError(node)


def outcome(fn, v):
    """('value', bit patterns with every NaN alike) or ('raise', class,
    message)."""
    try:
        values = fn(v)
    except Exception as exc:
        return "raise", type(exc), str(exc)
    return "value", tuple("nan" if math.isnan(x) else struct.pack("<d", x)
                          for x in values)


def assert_compiled_matches_walk(expr, v):
    want = outcome(lambda x: tuple(walk(n, x) for n in expr._stack), v)
    assert outcome(expr.eval_derivs, v) == want


GRAMMAR_ATOMS = st.one_of(
    st.just("V"),
    st.sampled_from(["0", "1", "2", "0.5", "2.5", "1e3", "1e308", "1e-300"]))

GRAMMAR = st.recursive(
    GRAMMAR_ATOMS,
    lambda c: st.one_of(
        st.tuples(c, st.sampled_from("+-*/^"), c).map(
            lambda t: f"({t[0]}){t[1]}({t[2]})"),
        st.tuples(st.sampled_from(["exp", "ln", "-"]), c).map(
            lambda t: f"{t[0]}({t[1]})")),
    max_leaves=8)

VOLUMES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e-300, 1e300,
                     math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=400)
@given(text=GRAMMAR, v=VOLUMES)
def test_compiled_code_equals_the_tree_walk(text, v):
    # bit for bit where the walk returns, the same class and message where
    # it raises
    try:
        expr = Expression(text)
    except (ValueError, ArithmeticError):  # a constant that folds badly
        assume(False)
    assert_compiled_matches_walk(expr, v)


@pytest.mark.parametrize("text", [
    "1e308*10*V",  # folds to inf, which has no literal
    "(0-1e308*10)*V + (1e308*10 - 1e308*10)*V^2",  # -inf and NaN
    "(-(1))^(2)",  # folds to 1.0 through the power's own rule
    "(-(1))^(3)*V",
])
@pytest.mark.parametrize("v", [2.0, -1.5, 0.0, math.inf])
def test_folded_constants_that_are_no_literals(text, v):
    assert_compiled_matches_walk(Expression(text), v)


def test_folded_constant_values():
    assert Expression("1e308*10*V").eval_derivs(2.0) == (
        math.inf, math.inf, 0.0, 0.0)
    assert Expression("(-(1))^(2)").eval_derivs(5.0) == (1.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("text,error,message", [
    ("(-(1))^(0.5)", ValueError, "non-integer power 0.5 of negative value -1.0"),
    ("(0)^(-1)", ValueError, "negative power -1.0 of zero"),
    ("(0)^(-0.5)", ValueError, "negative power -0.5 of zero"),
])
def test_constant_power_folds_with_the_walks_checks(text, error, message):
    with pytest.raises(error, match=message):
        Expression(text)


@pytest.mark.parametrize("text", [
    "V^V",  # exp(V ln V): its derivatives reuse both factors
    "exp(V)*exp(V) + ln(V)/ln(V)",
    "(V-0.2)^-0.8 / (V-0.2)^-0.8",
    "1/(V-1) + ln(V-2)",  # the denominator's check comes first
])
@pytest.mark.parametrize("v", [0.5, 1.0, 1.5, 2.0, 3.0, -1.0])
def test_shared_subtrees(text, v):
    assert_compiled_matches_walk(Expression(text), v)


@pytest.mark.parametrize("text,v,error", [
    # a zero denominator is found before its numerator is evaluated
    ("ln(V-2)/(V-1)", 1.0, ZeroDivisionError),
    ("V^0.5", -1.0, ValueError),  # or ** would return a complex number
    ("V^0.5", 0.0, ValueError),  # the derivative's 0.0 ** -0.5: a pole
    ("ln(V)", 0.0, ValueError),
    ("exp(V)", 1e3, OverflowError),
    ("V^2", 1e300, OverflowError),
])
def test_checks_in_the_walks_order(text, v, error):
    expr = Expression(text)
    with pytest.raises(error):
        expr.eval_derivs(v)
    assert_compiled_matches_walk(expr, v)


def test_expressions_of_one_shape_share_their_code():
    # the constants are globals of each function, not source text, so the
    # compiled code is shared, and each expression keeps its own values
    # and messages
    a = Expression("(V-0.2)^-0.8 + 0.6/V")
    b = Expression("(V-0.25)^-0.75 + 0.7/V")
    assert a._derivs.__code__ is b._derivs.__code__
    assert a._derivs.__globals__ is not b._derivs.__globals__
    for expr in (a, b):
        assert_compiled_matches_walk(expr, 1.3)
    assert a.eval_derivs(1.3) != b.eval_derivs(1.3)
    for expr, v, message in (
            (a, 0.1, "non-integer power -0.8 of negative value -0.1"),
            (b, 0.1, "non-integer power -0.75 of negative value -0.15"),
            (a, 0.2, "negative power -0.8 of zero"),
            (b, 0.25, "negative power -0.75 of zero")):
        with pytest.raises(ValueError, match=message):
            expr.eval_derivs(v)
        assert_compiled_matches_walk(expr, v)


def test_a_shared_node_is_evaluated_once():
    shared = ex._Exp(ex._Var())
    compiled = ex._compile([ex._Mul(shared, shared), shared])
    calls = []

    def exp(x):
        calls.append(x)
        return math.exp(x)
    compiled.__globals__["exp"] = exp
    assert compiled(0.5) == (math.exp(0.5) * math.exp(0.5), math.exp(0.5))
    assert calls == [0.5]
