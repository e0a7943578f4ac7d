"""Tiny expression grammar for volume-dependent coefficient functions.

Grammar (used by the CLI and by ConstantCv model construction):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?          # right-associative
    atom   := NUMBER | 'V' | '(' expr ')' | ('exp' | 'ln') '(' expr ')'

The only identifier is the molar volume ``V``.  Parsed expressions are
differentiated symbolically, so a parsed function supplies exact derivatives
up to order 3 (the order every model needs).

Parsed functions are compiled once to straight-line code: one assignment
per distinct node, in the order a walk of the trees first evaluates it, with
the walk's checks and messages.
"""

from __future__ import annotations

import functools
import math
import re
from typing import Protocol, runtime_checkable


@runtime_checkable
class SmoothFunction(Protocol):
    """Anything that can report its value and first three derivatives."""

    def eval_derivs(self, v: float) -> tuple[float, float, float, float]:
        ...


class ExpressionError(ValueError):
    """Malformed expression text."""


# ---------------------------------------------------------------------------
# AST nodes.  Constructors fold constants so repeated differentiation does not
# balloon the tree.


class _Node:
    def diff(self):
        raise NotImplementedError


class _Num(_Node):
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = float(c)

    def diff(self):
        return _Num(0.0)


class _Var(_Node):
    __slots__ = ()

    def diff(self):
        return _Num(1.0)


def _is_num(n, value=None):
    return isinstance(n, _Num) and (value is None or n.c == value)


def _add(a, b):
    if _is_num(a) and _is_num(b):
        return _Num(a.c + b.c)
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    return _Add(a, b)


def _sub(a, b):
    if _is_num(a) and _is_num(b):
        return _Num(a.c - b.c)
    if _is_num(b, 0.0):
        return a
    return _Sub(a, b)


def _mul(a, b):
    if _is_num(a) and _is_num(b):
        return _Num(a.c * b.c)
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return _Num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    return _Mul(a, b)


def _div(a, b):
    if _is_num(a, 0.0):
        return _Num(0.0)
    if _is_num(b, 1.0):
        return a
    if _is_num(a) and _is_num(b) and b.c != 0.0:
        return _Num(a.c / b.c)
    return _Div(a, b)


class _Add(_Node):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def diff(self):
        return _add(self.a.diff(), self.b.diff())


class _Sub(_Node):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def diff(self):
        return _sub(self.a.diff(), self.b.diff())


class _Mul(_Node):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def diff(self):
        return _add(_mul(self.a.diff(), self.b), _mul(self.a, self.b.diff()))


class _Div(_Node):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def diff(self):
        num = _sub(_mul(self.a.diff(), self.b), _mul(self.a, self.b.diff()))
        return _div(num, _mul(self.b, self.b))


class _PowConst(_Node):
    """base ^ c with a constant exponent."""

    __slots__ = ("a", "c")

    def __init__(self, a, c):
        self.a, self.c = a, float(c)

    def diff(self):
        # d(a^c) = c * a^(c-1) * a'
        if self.c == 0.0:
            return _Num(0.0)
        if self.c == 1.0:
            return self.a.diff()
        inner = self.a if self.c == 2.0 else _PowConst(self.a, self.c - 1.0)
        return _mul(_mul(_Num(self.c), inner), self.a.diff())


class _Exp(_Node):
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a

    def diff(self):
        return _mul(self.a.diff(), _Exp(self.a))


class _Ln(_Node):
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a

    def diff(self):
        return _div(self.a.diff(), self.a)


def _pow(a, b):
    if _is_num(b):
        if _is_num(a):  # as the node would evaluate it
            return _Num(_compile([_PowConst(a, b.c)])(None)[0])
        if b.c == 1.0:
            return a
        if b.c == 0.0:
            return _Num(1.0)
        return _PowConst(a, b.c)
    # variable exponent: a^b = exp(b * ln a)
    return _Exp(_mul(b, _Ln(a)))


# ---------------------------------------------------------------------------
# Compilation.  Each distinct node (derivatives share subtrees) is evaluated
# once.  Constants are globals of the function, never source text: repr(inf)
# is no literal, and no text of the user reaches the source.

_OPERATORS = {_Add: "+", _Sub: "-", _Mul: "*"}
# expressions of one shape, whatever their constants, share one code object
_code = functools.lru_cache(maxsize=256)(
    functools.partial(compile, filename="<string>", mode="exec"))


def _compile(roots):
    """One function of v returning the values of ``roots`` as a tuple."""
    namespace = {"exp": math.exp, "log": math.log}
    names, lines = {}, []  # names by id(node)

    def emit(node):
        if isinstance(node, _Var):
            return "v"
        if id(node) in names:
            return names[id(node)]
        name = names[id(node)] = f"x{len(names)}"
        if isinstance(node, _Num):
            namespace[name] = node.c
            return name
        if isinstance(node, _Div):  # the walk tests the denominator first
            b = emit(node.b)
            lines.append(f"if {b} == 0.0: raise ZeroDivisionError("
                         "'expression division by zero')")
            value = f"{emit(node.a)} / {b}"
        elif isinstance(node, _PowConst):
            a = emit(node.a)
            namespace[f"{name}c"] = node.c
            if not node.c.is_integer():  # ** would return a complex number
                lines.append(f"if {a} < 0.0: raise ValueError(f'non-integer "
                             f"power {{{name}c}} of negative value {{{a}}}')")
            if node.c < 0.0:  # a pole: outside the domain, as ln(0) is
                lines.append(f"if {a} == 0.0: raise ValueError("
                             f"f'negative power {{{name}c}} of zero')")
            value = f"{a} ** {name}c"
        elif isinstance(node, _Ln):
            a = emit(node.a)
            lines.append(f"if {a} <= 0.0: raise ValueError("
                         f"f'ln of non-positive value {{{a}}}')")
            value = f"log({a})"
        elif isinstance(node, _Exp):
            value = f"exp({emit(node.a)})"
        else:
            value = f"{emit(node.a)} {_OPERATORS[type(node)]} {emit(node.b)}"
        lines.append(f"{name} = {value}")
        return name

    results = ", ".join(emit(root) for root in roots)
    body = "".join(f"    {line}\n" for line in lines)
    exec(_code(f"def compiled(v):\n{body}    return ({results},)\n"),
         namespace)
    return namespace["compiled"]


# ---------------------------------------------------------------------------
# Tokenizer / parser

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ExpressionError(f"bad character at position {pos}: {text[pos:]!r}")
        pos = m.end()
        if m.lastgroup == "num":
            tokens.append(("num", float(m.group("num"))))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
    if text[pos:].strip():
        raise ExpressionError(f"trailing junk: {text[pos:]!r}")
    tokens.append(("end", None))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind=None, value=None):
        tok = self.tokens[self.i]
        if kind is not None and tok[0] != kind:
            raise ExpressionError(f"expected {kind}, got {tok}")
        if value is not None and tok[1] != value:
            raise ExpressionError(f"expected {value!r}, got {tok}")
        self.i += 1
        return tok

    def parse(self):
        node = self.expr()
        if self.peek()[0] != "end":
            raise ExpressionError(f"unexpected token {self.peek()}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            op = self.take()[1]
            rhs = self.term()
            node = _add(node, rhs) if op == "+" else _sub(node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            op = self.take()[1]
            rhs = self.factor()
            node = _mul(node, rhs) if op == "*" else _div(node, rhs)
        return node

    def factor(self):
        if self.peek() == ("op", "-"):
            self.take()
            return _sub(_Num(0.0), self.factor())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            expo = self.factor()
            return _pow(base, expo)
        return base

    def atom(self):
        kind, value = self.peek()
        if kind == "num":
            self.take()
            return _Num(value)
        if kind == "name":
            self.take()
            if value == "V":
                return _Var()
            if value in ("exp", "ln"):
                self.take("op", "(")
                inner = self.expr()
                self.take("op", ")")
                return _Exp(inner) if value == "exp" else _Ln(inner)
            raise ExpressionError(f"unknown identifier {value!r} (only V, exp, ln)")
        if (kind, value) == ("op", "("):
            self.take()
            inner = self.expr()
            self.take("op", ")")
            return inner
        raise ExpressionError(f"unexpected token {(kind, value)}")


class Expression:
    """A parsed function of V with exact derivatives to order 3."""

    def __init__(self, text: str):
        self.text = text
        try:
            ast = _Parser(_tokenize(text)).parse()
            d1 = ast.diff()
            d2 = d1.diff()
            d3 = d2.diff()
            self._derivs = _compile([ast, d1, d2, d3])
        except RecursionError:
            raise ExpressionError("expression is nested too deeply") from None
        self._stack = (ast, d1, d2, d3)

    @functools.cached_property
    def _value(self):  # compiled on first use: no model calls it
        return _compile(self._stack[:1])

    def __call__(self, v: float) -> float:
        return self._value(v)[0]

    def eval_derivs(self, v: float) -> tuple[float, float, float, float]:
        return self._derivs(v)

    def __repr__(self):
        return f"Expression({self.text!r})"


def parse_expression(text: str) -> Expression:
    return Expression(text)


# ---------------------------------------------------------------------------
# Closed-form smooth functions used by the built-in gas models.  These avoid
# parser round-off surprises and keep model evaluation exact.


class ShiftedPower:
    """coeff * (V - shift) ** exponent."""

    def __init__(self, coeff: float, shift: float, exponent: float):
        self.coeff = float(coeff)
        self.shift = float(shift)
        self.exponent = float(exponent)

    def eval_derivs(self, v):
        w = v - self.shift
        p = self.exponent
        f = self.coeff * w ** p
        f1 = self.coeff * p * w ** (p - 1.0)
        f2 = self.coeff * p * (p - 1.0) * w ** (p - 2.0)
        f3 = self.coeff * p * (p - 1.0) * (p - 2.0) * w ** (p - 3.0)
        return f, f1, f2, f3

    def __repr__(self):
        return f"ShiftedPower({self.coeff}, {self.shift}, {self.exponent})"


class ZeroFunction:
    """Identically zero."""

    def eval_derivs(self, v):
        return 0.0, 0.0, 0.0, 0.0


def as_smooth(obj) -> SmoothFunction:
    """Coerce a string (expression text) or SmoothFunction into a SmoothFunction."""
    if isinstance(obj, str):
        return Expression(obj)
    if isinstance(obj, SmoothFunction):
        return obj
    raise TypeError(f"not a smooth function: {obj!r}")
