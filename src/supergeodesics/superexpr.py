"""Symbolic superfunctions on a coordinate chart, and chart morphisms.

Expressions are trees over constants, even/odd coordinates, sums, ordered
products, integer powers / reciprocals / elementary functions of even
subexpressions.  The simplifier is conservative: it flattens sums and
products, folds constants, kills squares of odd coordinates and sorts bare
odd factors with sign tracking.  Equality of general expressions is decided
by evaluation, not by canonical forms.

Conventions fixed here and used everywhere downstream:

* Odd partial derivatives are LEFT derivatives: d/dth (th*f) = f for th-free
  f, extended as an odd derivation d(a*b) = d(a)*b + (-1)^|a| a*d(b) on
  homogeneous a.
* Evaluation at a Grassmann-valued point is structural recursion; an
  elementary function of an even value b+s is the finite Taylor sum
  sum_k f^(k)(b) s^k / k!, exact because the soul s is nilpotent.

Grammar accepted by the parser::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := ('-'|'+')* power
    power  := atom ('^' exponent)?       exponent: optionally signed integer,
    atom   := number | name | name '(' expr ')' | '(' expr ')'

Functions: exp, sin, cos, log (of even arguments).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import (
    DomainError,
    ExpressionSyntaxError,
    MismatchedGeneratorCount,
    NonHomogeneousOperand,
    ParityViolation,
    SignatureMismatch,
    UnknownCoordinate,
    UnknownIdentifier,
    ZeroBody,
)
from .grassmann import (
    GrassmannElement,
    Parity,
    dim,
    invert_dense,
    mul_dense,
    parity_product,
)

# ---------------------------------------------------------------------------
# chart signatures


@dataclass(frozen=True)
class ChartSignature:
    """Ordered even and odd coordinate names of a chart of dimension m|n."""

    even_names: tuple[str, ...]
    odd_names: tuple[str, ...]

    def __init__(self, even_names: Iterable[str], odd_names: Iterable[str] = ()):
        object.__setattr__(self, "even_names", tuple(even_names))
        object.__setattr__(self, "odd_names", tuple(odd_names))
        names = self.even_names + self.odd_names
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate coordinate names in {names}")
        for name in names:
            if not re.fullmatch(r"[A-Za-z_]\w*", name):
                raise ValueError(f"invalid coordinate name {name!r}")
            if name in FUNCTIONS:
                raise ValueError(f"coordinate name {name!r} clashes with a function")

    @property
    def names(self) -> tuple[str, ...]:
        return self.even_names + self.odd_names

    @property
    def n_even(self) -> int:
        return len(self.even_names)

    @property
    def n_odd(self) -> int:
        return len(self.odd_names)

    @property
    def dimension(self) -> int:
        return len(self.even_names) + len(self.odd_names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownCoordinate(f"{name!r} not in chart {self.names}") from None

    def parity_of(self, name: str) -> int:
        if name in self.even_names:
            return 0
        if name in self.odd_names:
            return 1
        raise UnknownCoordinate(f"{name!r} not in chart {self.names}")

    def parity_vector(self) -> np.ndarray:
        return np.array([0] * self.n_even + [1] * self.n_odd)

    def variable(self, name: str) -> "Expr":
        return EvenVar(name) if self.parity_of(name) == 0 else OddVar(name)


# ---------------------------------------------------------------------------
# expression nodes


class Expr:
    """Base class for expression nodes.  Nodes are immutable."""

    def parity(self) -> Parity:
        raise NotImplementedError

    def free_vars(self) -> frozenset[str]:
        raise NotImplementedError

    def diff(self, coord: str, odd: bool) -> "Expr":
        raise NotImplementedError

    def _eval(self, env: Mapping[str, np.ndarray], L: int) -> np.ndarray:
        raise NotImplementedError

    def subst(self, mapping: Mapping[str, "Expr"]) -> "Expr":
        raise NotImplementedError

    def _vars(self, out: list["Var"]) -> None:
        pass

    # operator sugar
    def __add__(self, other):
        return add(self, as_expr(other))

    def __radd__(self, other):
        return add(as_expr(other), self)

    def __sub__(self, other):
        return add(self, mul(Const(-1.0), as_expr(other)))

    def __rsub__(self, other):
        return add(as_expr(other), mul(Const(-1.0), self))

    def __mul__(self, other):
        return mul(self, as_expr(other))

    def __rmul__(self, other):
        return mul(as_expr(other), self)

    def __truediv__(self, other):
        return mul(self, recip(as_expr(other)))

    def __neg__(self):
        return mul(Const(-1.0), self)

    def __pow__(self, k):
        return pow_int(self, k)

    def __repr__(self):
        return str(self)


class Const(Expr):
    def __init__(self, value: float):
        self.value = float(value)

    def parity(self):
        return Parity.EVEN

    def free_vars(self):
        return frozenset()

    def diff(self, coord, odd):
        return Const(0.0)

    def _eval(self, env, L):
        out = np.zeros(dim(L))
        out[0] = self.value
        return out

    def subst(self, mapping):
        return self

    def __eq__(self, other):
        return isinstance(other, Const) and self.value == other.value

    def __hash__(self):
        return hash(("const", self.value))

    def __str__(self):
        return f"{self.value:g}"


class Var(Expr):
    def __init__(self, name: str):
        self.name = name

    def free_vars(self):
        return frozenset((self.name,))

    def _eval(self, env, L):
        try:
            return env[self.name]
        except KeyError:
            raise UnknownCoordinate(f"no value supplied for {self.name!r}") from None

    def subst(self, mapping):
        return mapping.get(self.name, self)

    def _vars(self, out):
        out.append(self)

    def __eq__(self, other):
        return type(other) is type(self) and other.name == self.name

    def __hash__(self):
        return hash((type(self).__name__, self.name))

    def __str__(self):
        return self.name


class EvenVar(Var):
    def parity(self):
        return Parity.EVEN

    def diff(self, coord, odd):
        return Const(1.0 if coord == self.name else 0.0)


class OddVar(Var):
    def parity(self):
        return Parity.ODD

    def diff(self, coord, odd):
        return Const(1.0 if coord == self.name else 0.0)


class Sum(Expr):
    def __init__(self, terms: tuple[Expr, ...]):
        self.terms = terms

    def parity(self):
        parities = {t.parity() for t in self.terms}
        if len(parities) == 1:
            return parities.pop()
        return Parity.NONHOMOGENEOUS

    def free_vars(self):
        return frozenset().union(*(t.free_vars() for t in self.terms))

    def diff(self, coord, odd):
        return add(*(t.diff(coord, odd) for t in self.terms))

    def _eval(self, env, L):
        # not in place: a later term may carry batch rows the first lacks
        out = self.terms[0]._eval(env, L)
        for t in self.terms[1:]:
            out = out + t._eval(env, L)
        return out

    def subst(self, mapping):
        return add(*(t.subst(mapping) for t in self.terms))

    def _vars(self, out):
        for t in self.terms:
            t._vars(out)

    def __eq__(self, other):
        return isinstance(other, Sum) and other.terms == self.terms

    def __hash__(self):
        return hash(("sum", self.terms))

    def __str__(self):
        return " + ".join(str(t) for t in self.terms)


class Product(Expr):
    def __init__(self, factors: tuple[Expr, ...]):
        self.factors = factors

    def parity(self):
        p = Parity.EVEN
        for f in self.factors:
            p = parity_product(p, f.parity())
        return p

    def free_vars(self):
        return frozenset().union(*(f.free_vars() for f in self.factors))

    def diff(self, coord, odd):
        terms = []
        prefix_parity: int | None = 0
        for i, f in enumerate(self.factors):
            df = f.diff(coord, odd)
            if not _is_zero(df):
                sign = 1.0
                if odd:
                    if prefix_parity is None:
                        raise NonHomogeneousOperand(
                            "odd derivative across a mixed-parity factor")
                    sign = -1.0 if prefix_parity else 1.0
                terms.append(mul(Const(sign), *self.factors[:i], df,
                                 *self.factors[i + 1:]))
            if odd:
                p = f.parity()
                if p is Parity.NONHOMOGENEOUS:
                    prefix_parity = None
                elif prefix_parity is not None:
                    prefix_parity = (prefix_parity + p.value) % 2
        return add(*terms)

    def _eval(self, env, L):
        out = self.factors[0]._eval(env, L)
        for f in self.factors[1:]:
            out = mul_dense(out, f._eval(env, L), L)
        return out

    def subst(self, mapping):
        return mul(*(f.subst(mapping) for f in self.factors))

    def _vars(self, out):
        for f in self.factors:
            f._vars(out)

    def __eq__(self, other):
        return isinstance(other, Product) and other.factors == self.factors

    def __hash__(self):
        return hash(("product", self.factors))

    def __str__(self):
        return "*".join(_paren(f) for f in self.factors)


class IntPow(Expr):
    """Integer power (>= 2) of an even subexpression."""

    def __init__(self, base: Expr, exponent: int):
        self.base = base
        self.exponent = exponent

    def parity(self):
        return Parity.EVEN

    def free_vars(self):
        return self.base.free_vars()

    def diff(self, coord, odd):
        return mul(Const(float(self.exponent)),
                   pow_int(self.base, self.exponent - 1),
                   self.base.diff(coord, odd))

    def _eval(self, env, L):
        v = self.base._eval(env, L)
        out = v
        for _ in range(self.exponent - 1):
            out = mul_dense(out, v, L)
        return out

    def subst(self, mapping):
        return pow_int(self.base.subst(mapping), self.exponent)

    def _vars(self, out):
        self.base._vars(out)

    def __eq__(self, other):
        return (isinstance(other, IntPow) and other.base == self.base
                and other.exponent == self.exponent)

    def __hash__(self):
        return hash(("pow", self.base, self.exponent))

    def __str__(self):
        return f"{_paren(self.base)}^{self.exponent}"


class Recip(Expr):
    """Reciprocal of an even subexpression."""

    def __init__(self, base: Expr):
        self.base = base

    def parity(self):
        return Parity.EVEN

    def free_vars(self):
        return self.base.free_vars()

    def diff(self, coord, odd):
        return mul(Const(-1.0), self.base.diff(coord, odd),
                   recip(pow_int(self.base, 2)))

    def _eval(self, env, L):
        v = self.base._eval(env, L)
        try:
            return invert_dense(v, L, check_even=False)
        except ZeroBody as exc:
            raise DomainError(f"reciprocal undefined: {exc}") from exc

    def subst(self, mapping):
        return recip(self.base.subst(mapping))

    def _vars(self, out):
        self.base._vars(out)

    def __eq__(self, other):
        return isinstance(other, Recip) and other.base == self.base

    def __hash__(self):
        return hash(("recip", self.base))

    def __str__(self):
        return f"1/{_paren(self.base)}"


class Fun(Expr):
    """Elementary function (exp, sin, cos, log) of an even subexpression."""

    def __init__(self, name: str, arg: Expr):
        self.name = name
        self.arg = arg

    def parity(self):
        return Parity.EVEN

    def free_vars(self):
        return self.arg.free_vars()

    def diff(self, coord, odd):
        return mul(FUNCTIONS[self.name].diff(self.arg), self.arg.diff(coord, odd))

    def _eval(self, env, L):
        # Each row's body goes through the scalar math.* call, so a batch row
        # has the bits of the same value evaluated alone.
        v = self.arg._eval(env, L)
        spec = FUNCTIONS[self.name]
        rows = v.shape[:-1]
        bodies = [float(b) for b in v[..., 0].flat]
        for body in bodies:
            if not spec.domain(body):
                raise DomainError(f"{self.name} undefined at body {body}")
        out = np.zeros(v.shape)
        out[..., 0] = np.reshape([spec.derivative_at(0, b) for b in bodies], rows)
        soul = v.copy()
        soul[..., 0] = 0.0
        power = np.zeros(v.shape)
        power[..., 0] = 1.0
        fact = 1.0
        for k in range(1, L + 1):
            power = mul_dense(power, soul, L)
            live = np.ravel(power.any(axis=-1)).tolist()
            if not any(live):
                break
            fact *= k
            coef = [spec.derivative_at(k, b) / fact if on else 0.0
                    for b, on in zip(bodies, live)]
            out += np.reshape(coef, rows + (1,)) * power
        return out

    def subst(self, mapping):
        return fun(self.name, self.arg.subst(mapping))

    def _vars(self, out):
        self.arg._vars(out)

    def __eq__(self, other):
        return isinstance(other, Fun) and other.name == self.name and other.arg == self.arg

    def __hash__(self):
        return hash(("fun", self.name, self.arg))

    def __str__(self):
        return f"{self.name}({self.arg})"


def _paren(e: Expr, _unused=None) -> str:
    if isinstance(e, (Sum,)) or (isinstance(e, Const) and e.value < 0):
        return f"({e})"
    return str(e)


# ---------------------------------------------------------------------------
# elementary function table


@dataclass(frozen=True)
class _Function:
    name: str
    derivative_at: Callable[[int, float], float]
    diff: Callable[[Expr], Expr]
    domain: Callable[[float], bool]


def _log_derivative(k: int, b: float) -> float:
    if k == 0:
        return math.log(b)
    sign = 1.0 if (k - 1) % 2 == 0 else -1.0
    return sign * math.factorial(k - 1) / b**k


FUNCTIONS: dict[str, _Function] = {
    "exp": _Function("exp", lambda k, b: math.exp(b),
                     lambda u: Fun("exp", u), lambda b: True),
    "sin": _Function("sin",
                     lambda k, b: (math.sin, math.cos,
                                   lambda x: -math.sin(x),
                                   lambda x: -math.cos(x))[k % 4](b),
                     lambda u: Fun("cos", u), lambda b: True),
    "cos": _Function("cos",
                     lambda k, b: (math.cos, lambda x: -math.sin(x),
                                   lambda x: -math.cos(x), math.sin)[k % 4](b),
                     lambda u: mul(Const(-1.0), Fun("sin", u)), lambda b: True),
    "log": _Function("log", _log_derivative,
                     lambda u: recip(u), lambda b: b > 0.0),
}


# ---------------------------------------------------------------------------
# smart constructors


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float)):
        return Const(float(x))
    raise TypeError(f"cannot treat {x!r} as an expression")


def _is_zero(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 0.0


def add(*terms: Expr) -> Expr:
    flat: list[Expr] = []
    const = 0.0
    for t in terms:
        if isinstance(t, Sum):
            flat.extend(t.terms)
        else:
            flat.append(t)
    out: list[Expr] = []
    for t in flat:
        if isinstance(t, Const):
            const += t.value
        else:
            out.append(t)
    if const != 0.0:
        out.append(Const(const))
    if not out:
        return Const(0.0)
    if len(out) == 1:
        return out[0]
    return Sum(tuple(out))


def _sort_odd_vars(factors: list[OddVar]) -> tuple[float, list[OddVar]]:
    """Insertion sort by name, tracking the anticommutation sign.

    Returns sign 0.0 when a name repeats (the square of an odd coordinate).
    """
    items = list(factors)
    sign = 1.0
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1].name > items[j].name:
            items[j - 1], items[j] = items[j], items[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(items, items[1:]):
        if a.name == b.name:
            return 0.0, []
    return sign, items


def mul(*factors: Expr) -> Expr:
    flat: list[Expr] = []
    for f in factors:
        if isinstance(f, Product):
            flat.extend(f.factors)
        else:
            flat.append(f)
    const = 1.0
    evens: list[Expr] = []
    rest: list[Expr] = []
    for f in flat:
        if isinstance(f, Const):
            const *= f.value
        elif f.parity() is Parity.EVEN:
            evens.append(f)  # even factors are central: safe to move left
        else:
            rest.append(f)
    if const == 0.0:
        return Const(0.0)
    if rest and all(isinstance(f, OddVar) for f in rest):
        sign, rest = _sort_odd_vars(rest)  # type: ignore[arg-type]
        if sign == 0.0:
            return Const(0.0)
        const *= sign
    out = evens + rest
    if const != 1.0 or not out:
        out = [Const(const)] + out
    if len(out) == 1:
        return out[0]
    return Product(tuple(out))


def pow_int(base: Expr, k: int) -> Expr:
    if not isinstance(k, int):
        raise TypeError("exponent must be an integer")
    if k < 0:
        return recip(pow_int(base, -k))
    if k == 0:
        return Const(1.0)
    if k == 1:
        return base
    if isinstance(base, Const):
        return Const(base.value**k)
    p = base.parity()
    if p is Parity.ODD:
        return Const(0.0)  # odd squares vanish
    if p is Parity.NONHOMOGENEOUS:
        return mul(*([base] * k))
    return IntPow(base, k)


def recip(base: Expr) -> Expr:
    if isinstance(base, Const):
        if base.value == 0.0:
            raise DomainError("reciprocal of zero")
        return Const(1.0 / base.value)
    if base.parity() is not Parity.EVEN:
        raise ParityViolation("reciprocal requires an even expression")
    return Recip(base)


def fun(name: str, arg: Expr) -> Expr:
    if name not in FUNCTIONS:
        raise UnknownIdentifier(f"unknown function {name!r}")
    if arg.parity() is not Parity.EVEN:
        raise ParityViolation(f"{name} requires an even argument")
    if isinstance(arg, Const):
        spec = FUNCTIONS[name]
        if not spec.domain(arg.value):
            raise DomainError(f"{name} undefined at {arg.value}")
        return Const(spec.derivative_at(0, arg.value))
    return Fun(name, arg)


# ---------------------------------------------------------------------------
# differentiation / evaluation entry points


def partial_derivative(expr: Expr, coord: str, sig: ChartSignature) -> Expr:
    """Graded partial derivative; odd coordinates use the left convention."""
    odd = sig.parity_of(coord) == 1  # raises UnknownCoordinate
    return expr.diff(coord, odd)


def evaluate(expr: Expr, values, L: int | None = None) -> GrassmannElement:
    """Evaluate at a Grassmann-valued point.

    `values` is a mapping from coordinate names to GrassmannElement, or any
    object with a `.values` mapping attribute (e.g. SuperPoint).  Parity of
    every supplied value is checked against the variable nodes that use it.
    """
    if isinstance(values, Mapping):
        mapping = values
    else:
        mapping = values.values
    if L is None:
        for v in mapping.values():
            L = v.L
            break
        if L is None:
            raise ValueError("cannot infer L from an empty point")
    env: dict[str, np.ndarray] = {}
    for name, v in mapping.items():
        if v.L != L:
            raise MismatchedGeneratorCount(f"{name}: L={v.L}, expected {L}")
        env[name] = v.coeffs
    nodes: list[Var] = []
    expr._vars(nodes)
    for node in nodes:
        v = mapping.get(node.name)
        if v is None:
            raise UnknownCoordinate(f"no value supplied for {node.name!r}")
        want = Parity.EVEN if isinstance(node, EvenVar) else Parity.ODD
        if not v.has_parity(want):
            raise ParityViolation(
                f"{node.name} is {'even' if want is Parity.EVEN else 'odd'} "
                f"but its value has parity {v.parity.name}")
    return GrassmannElement(L, expr._eval(env, L))


def eval_dense(expr: Expr, env: Mapping[str, np.ndarray], L: int) -> np.ndarray:
    """Raw-array evaluation without parity checks (integrator hot path).

    Env arrays have shape (..., 2^L); leading axes are independent rows that
    broadcast, and every row has the bits it would have evaluated alone.
    """
    return expr._eval(env, L)


def substitute(expr: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace variables by expressions, renormalizing on the way up."""
    return expr.subst(mapping)


# ---------------------------------------------------------------------------
# parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_]\w*)"
    r"|(?P<op>[-+*/^()]))")


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ExpressionSyntaxError(f"bad character at {pos}: {text[pos:]!r}")
        pos = m.end()
        if m.lastgroup == "number":
            tokens.append(("number", m.group("number")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
    tokens.append(("end", ""))
    return tokens


class _Parser:
    def __init__(self, text: str, sig: ChartSignature):
        self.text = text
        self.sig = sig
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value = self.next()
        if kind != "op" or value != op:
            raise ExpressionSyntaxError(
                f"expected {op!r} in {self.text!r}, got {value!r}")

    def parse(self) -> Expr:
        e = self.parse_sum()
        kind, value = self.peek()
        if kind != "end":
            raise ExpressionSyntaxError(f"trailing input {value!r} in {self.text!r}")
        return e

    def parse_sum(self) -> Expr:
        terms = [self.parse_term()]
        while True:
            kind, value = self.peek()
            if kind == "op" and value in "+-":
                self.next()
                t = self.parse_term()
                terms.append(t if value == "+" else mul(Const(-1.0), t))
            else:
                return add(*terms)

    def parse_term(self) -> Expr:
        out = self.parse_factor()
        while True:
            kind, value = self.peek()
            if kind == "op" and value in "*/":
                self.next()
                rhs = self.parse_factor()
                out = mul(out, recip(rhs)) if value == "/" else mul(out, rhs)
            else:
                return out

    def parse_factor(self) -> Expr:
        sign = 1.0
        while True:
            kind, value = self.peek()
            if kind == "op" and value in "+-":
                self.next()
                if value == "-":
                    sign = -sign
            else:
                break
        e = self.parse_power()
        return e if sign > 0 else mul(Const(-1.0), e)

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        kind, value = self.peek()
        if kind == "op" and value == "^":
            self.next()
            return pow_int(base, self.parse_exponent())
        return base

    def parse_exponent(self) -> int:
        neg = False
        kind, value = self.peek()
        parens = kind == "op" and value == "("
        if parens:
            self.next()
            kind, value = self.peek()
        if kind == "op" and value == "-":
            self.next()
            neg = True
            kind, value = self.peek()
        if kind != "number":
            raise ExpressionSyntaxError(f"expected integer exponent, got {value!r}")
        self.next()
        try:
            k = int(value)
        except ValueError:
            raise ExpressionSyntaxError(
                f"exponent must be an integer, got {value!r}") from None
        if parens:
            self.expect_op(")")
        return -k if neg else k

    def parse_atom(self) -> Expr:
        kind, value = self.next()
        if kind == "number":
            return Const(float(value))
        if kind == "name":
            pk, pv = self.peek()
            if pk == "op" and pv == "(":
                if value not in FUNCTIONS:
                    raise UnknownIdentifier(f"unknown function {value!r}")
                self.next()
                arg = self.parse_sum()
                self.expect_op(")")
                return fun(value, arg)
            if value in FUNCTIONS:
                raise ExpressionSyntaxError(f"function {value!r} needs an argument")
            try:
                return self.sig.variable(value)
            except UnknownCoordinate:
                raise UnknownIdentifier(
                    f"{value!r} is not a coordinate of {self.sig.names}") from None
        if kind == "op" and value == "(":
            e = self.parse_sum()
            self.expect_op(")")
            return e
        raise ExpressionSyntaxError(f"unexpected {value!r} in {self.text!r}")


def parse_expression(text: str, sig: ChartSignature) -> Expr:
    """Parse expression text over the chart's coordinates."""
    return _Parser(text, sig).parse()


# ---------------------------------------------------------------------------
# morphisms


class SuperMorphism:
    """A chart morphism given by the pullbacks of the target coordinates.

    `pullbacks[q]` is an expression in source coordinates for each target
    coordinate q; pullbacks of even (odd) coordinates must be even (odd).
    """

    def __init__(self, source: ChartSignature, target: ChartSignature,
                 pullbacks: Mapping[str, Expr | str | float]):
        self.source = source
        self.target = target
        pb: dict[str, Expr] = {}
        for name in target.names:
            if name not in pullbacks:
                raise SignatureMismatch(f"missing pullback for {name!r}")
            raw = pullbacks[name]
            if isinstance(raw, str):
                raw = parse_expression(raw, source)
            pb[name] = as_expr(raw)
        extra = set(pullbacks) - set(target.names)
        if extra:
            raise SignatureMismatch(f"pullbacks for unknown coordinates {sorted(extra)}")
        for name, e in pb.items():
            missing = e.free_vars() - set(source.names)
            if missing:
                raise UnknownCoordinate(
                    f"pullback of {name!r} uses {sorted(missing)} not in source chart")
            want = Parity.EVEN if target.parity_of(name) == 0 else Parity.ODD
            p = e.parity()
            if p is not want and not _is_zero(e):
                raise ParityViolation(
                    f"pullback of {name!r} must be {want.name.lower()}, got {p.name}")
        self.pullbacks = pb

    @classmethod
    def identity(cls, sig: ChartSignature) -> "SuperMorphism":
        return cls(sig, sig, {name: sig.variable(name) for name in sig.names})

    def apply_values(self, values: Mapping[str, GrassmannElement],
                     L: int | None = None) -> dict[str, GrassmannElement]:
        """Coordinates of the image of a Grassmann-valued source point."""
        return {name: evaluate(e, values, L) for name, e in self.pullbacks.items()}

    def __eq__(self, other):
        return (isinstance(other, SuperMorphism) and other.source == self.source
                and other.target == self.target and other.pullbacks == self.pullbacks)

    def __repr__(self):
        rules = ", ".join(f"{k} -> {v}" for k, v in self.pullbacks.items())
        return f"SuperMorphism({rules})"


def compose(f: SuperMorphism, g: SuperMorphism) -> SuperMorphism:
    """The composite f o g; pullbacks substitute g's rules into f's."""
    if g.target != f.source:
        raise SignatureMismatch(
            f"cannot compose: g targets {g.target.names}, f starts at {f.source.names}")
    pb = {name: substitute(e, g.pullbacks) for name, e in f.pullbacks.items()}
    return SuperMorphism(g.source, f.target, pb)
