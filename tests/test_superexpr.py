"""Expression parsing, graded differentiation, evaluation, morphisms."""

import numpy as np
import pytest

from supergeodesics.errors import (
    DomainError,
    ExpressionSyntaxError,
    NonHomogeneousOperand,
    ParityViolation,
    SignatureMismatch,
    UnknownCoordinate,
    UnknownIdentifier,
)
from supergeodesics import superexpr
from supergeodesics.grassmann import GrassmannElement as G, Parity, dim, mask_parity, \
    mul_dense
from supergeodesics.superexpr import (
    ChartSignature,
    Const,
    EvenVar,
    OddVar,
    Program,
    SuperMorphism,
    add,
    compose,
    eval_dense,
    evaluate,
    fun,
    mul,
    parse_expression,
    partial_derivative,
    pow_int,
    substitute,
)


@pytest.fixture(scope="module")
def sig():
    return ChartSignature(("x", "y"), ("th1", "th2"))


def random_point(rng, sig, L):
    values = {}
    mpar = mask_parity(L)
    for name in sig.even_names:
        arr = np.zeros(dim(L))
        arr[mpar == 0] = rng.uniform(-1.0, 1.0, int((mpar == 0).sum()))
        arr[0] = rng.uniform(0.5, 2.0)  # keep bodies in function domains
        values[name] = G(L, arr)
    for name in sig.odd_names:
        arr = np.zeros(dim(L))
        arr[mpar == 1] = rng.uniform(-1.0, 1.0, int((mpar == 1).sum()))
        values[name] = G(L, arr)
    return values


def random_expr(rng, sig, depth=3, even_only=False):
    """Small random expression tree; function arguments stay even."""
    if depth == 0 or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.3:
            return Const(float(rng.uniform(-2.0, 2.0)))
        pool = list(sig.even_names) if even_only else list(sig.names)
        name = pool[rng.integers(len(pool))]
        return sig.variable(name)
    roll = rng.random()
    if roll < 0.35:
        return add(*(random_expr(rng, sig, depth - 1, even_only)
                     for _ in range(2)))
    if roll < 0.7:
        return mul(*(random_expr(rng, sig, depth - 1, even_only)
                     for _ in range(2)))
    if roll < 0.85:
        return pow_int(random_expr(rng, sig, depth - 1, True), 2)
    name = ("exp", "sin", "cos")[rng.integers(3)]
    return fun(name, random_expr(rng, sig, depth - 1, True))


class TestParser:
    def test_polynomial(self, sig):
        e = parse_expression("x^2 + 1", sig)
        assert e.parity() is Parity.EVEN
        v = evaluate(e, {"x": G.from_scalar(3.0, 0)})
        assert v.body == 10.0

    def test_odd_monomial_parity(self, sig):
        e = parse_expression("th1*th2", sig)
        assert e.parity() is Parity.EVEN
        assert parse_expression("th1", sig).parity() is Parity.ODD

    def test_odd_square_vanishes(self, sig):
        assert parse_expression("th1^2", sig) == Const(0.0)
        assert parse_expression("th1*th1", sig) == Const(0.0)

    def test_constant_folding(self, sig):
        assert parse_expression("2*3 + 1", sig) == Const(7.0)
        assert parse_expression("cos(0)", sig) == Const(1.0)

    def test_division_and_negation(self, sig):
        e = parse_expression("-x/2", sig)
        assert evaluate(e, {"x": G.from_scalar(4.0, 0)}).body == -2.0

    def test_syntax_errors(self, sig):
        for text in ("x +", "((x)", "x^y", "2..5", "x@y", "sin"):
            with pytest.raises(ExpressionSyntaxError):
                parse_expression(text, sig)

    def test_non_finite_number_rejected(self, sig):
        for text in ("1e400", "1e400*x", "x + 2e308"):
            with pytest.raises(ExpressionSyntaxError, match="not finite"):
                parse_expression(text, sig)

    @pytest.mark.parametrize("shape", ["({})", "sin({})", "x*(1 + {})"])
    def test_nesting_bound(self, sig, shape):
        def nested(depth):
            text = "x"
            for _ in range(depth):
                text = shape.format(text)
            return text

        parse_expression(nested(superexpr._MAX_NESTING), sig)
        with pytest.raises(ExpressionSyntaxError, match="nest deeper"):
            parse_expression(nested(superexpr._MAX_NESTING + 1), sig)

    @pytest.mark.parametrize("base, sign", [
        ("(1 + x)", ""), ("(1 + x)", "-"), ("(1 + x)", "(-"),
        # nonhomogeneous: its power is a product of |exponent| factors
        ("(x + th1)", "")])
    def test_exponent_bound(self, sig, base, sign):
        close = ")" if "(" in sign else ""
        bound = superexpr._MAX_EXPONENT
        parse_expression(f"{base}^{sign}{bound}{close}", sig)
        with pytest.raises(ExpressionSyntaxError,
                           match=f"exponent {bound + 1} exceeds {bound}"):
            parse_expression(f"{base}^{sign}{bound + 1}{close}", sig)

    @pytest.mark.parametrize("text", ["exp(1000)", "1 + 0*exp(1000)",
                                      "10^400", "1e300*1e300", "1/1e-320",
                                      "1e308 + 1e308"])
    def test_overflowing_constant_fold(self, sig, text):
        with pytest.raises(DomainError, match="overflows"):
            parse_expression(text, sig)

    def test_unknown_identifier(self, sig):
        with pytest.raises(UnknownIdentifier):
            parse_expression("z + 1", sig)
        with pytest.raises(UnknownIdentifier):
            parse_expression("tanh(x)", sig)

    def test_odd_reciprocal_rejected(self, sig):
        with pytest.raises(ParityViolation):
            parse_expression("1/th1", sig)
        with pytest.raises(ParityViolation):
            parse_expression("exp(th1)", sig)


class TestPartial:
    def test_left_derivative(self, sig):
        e = parse_expression("th1*th2", sig)
        assert partial_derivative(e, "th1", sig) == OddVar("th2")
        d2 = partial_derivative(e, "th2", sig)
        assert d2 == mul(Const(-1.0), OddVar("th1"))

    def test_even_partial(self, sig):
        e = parse_expression("x^2*th1", sig)
        d = partial_derivative(e, "x", sig)
        p = {"x": G.from_scalar(3.0, 1), "y": G.from_scalar(0.0, 1),
             "th1": G.generator(0, 1), "th2": G.zero(1)}
        assert evaluate(d, p).equals(6.0 * G.generator(0, 1), 1e-14)

    def test_theta_free_derivative_vanishes(self, sig):
        e = parse_expression("exp(x) + y^3", sig)
        assert partial_derivative(e, "th1", sig) == Const(0.0)

    def test_unknown_coordinate(self, sig):
        with pytest.raises(UnknownCoordinate):
            partial_derivative(Const(1.0), "z", sig)

    def test_nonhomogeneous_operand(self, sig):
        e = mul(add(Const(1.0), OddVar("th1")), OddVar("th2"))
        with pytest.raises(NonHomogeneousOperand):
            partial_derivative(e, "th2", sig)

    def test_mixed_partials_anticommute(self, sig, rng):
        # d_a d_b = (-1)^{|a||b|} d_b d_a, checked by evaluation.  Random
        # trees where an odd derivative crosses a mixed-parity factor raise
        # (by contract) and are skipped; require decent coverage anyway.
        pairs = [("x", "y", 1.0), ("x", "th1", 1.0), ("th1", "th2", -1.0),
                 ("th1", "th1", -1.0)]
        checked = 0
        for _ in range(60):
            e = random_expr(rng, sig)
            p = random_point(rng, sig, 2)
            for a, b, sign in pairs:
                try:
                    lhs = partial_derivative(partial_derivative(e, b, sig),
                                             a, sig)
                    rhs = partial_derivative(partial_derivative(e, a, sig),
                                             b, sig)
                except NonHomogeneousOperand:
                    continue
                va = evaluate(lhs, p, 2)
                vb = evaluate(rhs, p, 2)
                assert va.equals(sign * vb, 1e-10)
                checked += 1
        assert checked >= 120

    def test_finite_difference_agreement(self, sig, rng):
        h = 1e-5
        exprs = ["exp(x)*sin(y)", "x^3 + x*y^2", "log(x + 2)", "cos(x*y)",
                 "(x + th1*th2)^2"]
        for text in exprs:
            e = parse_expression(text, sig)
            d = partial_derivative(e, "x", sig)
            for _ in range(5):
                x0 = float(rng.uniform(0.5, 1.5))
                y0 = float(rng.uniform(0.5, 1.5))

                def at(x):
                    return evaluate(e, {
                        "x": G.from_scalar(x, 2), "y": G.from_scalar(y0, 2),
                        "th1": G.generator(0, 2), "th2": G.generator(1, 2)})

                fd = (at(x0 + h).coeffs - at(x0 - h).coeffs) / (2 * h)
                exact = evaluate(d, {
                    "x": G.from_scalar(x0, 2), "y": G.from_scalar(y0, 2),
                    "th1": G.generator(0, 2), "th2": G.generator(1, 2)}).coeffs
                scale = max(1.0, np.max(np.abs(exact)))
                assert np.max(np.abs(fd - exact)) / scale <= 1e-6


class TestEvaluation:
    def test_taylor_square(self):
        sig1 = ChartSignature(("x",), ())
        e = parse_expression("x^2", sig1)
        v = evaluate(e, {"x": 2 + G.basis(0b11, 2)})
        assert v == 4 + 4.0 * G.basis(0b11, 2)

    def test_taylor_exp(self):
        sig1 = ChartSignature(("x",), ())
        e = parse_expression("exp(x)", sig1)
        v = evaluate(e, {"x": G.basis(0b11, 2)})
        assert v.equals(1 + G.basis(0b11, 2), 1e-15)

    def test_parity_violation(self, sig):
        e = parse_expression("1/x", sig)
        bad = {"x": G.generator(0, 1), "y": G.zero(1),
               "th1": G.zero(1), "th2": G.zero(1)}
        with pytest.raises(ParityViolation):
            evaluate(e, bad)

    def test_domain_errors(self, sig):
        point = {"x": G.from_scalar(-1.0, 0), "y": G.from_scalar(0.0, 0),
                 "th1": G.zero(0), "th2": G.zero(0)}
        with pytest.raises(DomainError):
            evaluate(parse_expression("log(x)", sig), point)
        with pytest.raises(DomainError):
            evaluate(parse_expression("1/(x + 1)", sig), point)

    def test_algebra_morphism(self, sig, rng):
        for _ in range(60):
            a = random_expr(rng, sig)
            b = random_expr(rng, sig)
            p = random_point(rng, sig, 2)
            lhs = evaluate(mul(a, b), p, 2)
            rhs = evaluate(a, p, 2) * evaluate(b, p, 2)
            assert lhs.equals(rhs, 1e-10)

    def test_log_taylor_against_series(self):
        sig1 = ChartSignature(("x",), ())
        e = parse_expression("log(x)", sig1)
        s = G.basis(0b11, 2, 0.5)
        v = evaluate(e, {"x": 2 + s})
        # log(2 + s) = log 2 + s/2 (higher soul powers vanish)
        expect = np.log(2.0) + 0.25 * G.basis(0b11, 2)
        assert v.equals(expect, 1e-15)

    def test_constant_value_cached_read_only(self):
        # one read-only array per (constant, L); -0.0 keeps its sign bit
        for value in (2.5, -0.0):
            c = Const(value)
            for L in (0, 2):
                out = eval_dense(c, {}, L)
                assert eval_dense(c, {}, L) is out
                assert not out.flags.writeable
                assert out.tobytes() == np.r_[value, np.zeros(dim(L) - 1)].tobytes()


class TestProgram:
    def test_shared_subtree_evaluated_once(self, sig, monkeypatch):
        # x + 1 inside -(x + 1) is one instruction, which the product by -1
        # reads; that product is a real one and issues no Grassmann product
        prog = Program([parse_expression(t, sig) for t in ("1 + x", "-(1 + x)")])
        (add_slot,) = [s for s, op, _, _ in prog.code if op == superexpr._ADD]
        assert len(prog.code) == 3
        assert prog.code[-1][1:3] == (superexpr._SCALE, add_slot)
        calls = []
        monkeypatch.setattr(superexpr, "mul_dense", lambda *a: calls.append(a))
        x = np.array([[0.5, 0.1, 0.0, 0.2]])
        plus, minus = prog.run({"x": x}, 2)
        assert not calls
        assert np.array_equal(minus, -plus)

    @pytest.mark.parametrize("L", [0, 2, 4, 6])
    def test_constant_factor_is_a_real_product(self, sig, monkeypatch, L):
        # c * x keeps every nonzero coefficient of the Grassmann product of
        # c's element with x, and issues no Grassmann product
        rng = np.random.default_rng(L)
        env = {}
        for name in ("x", "y"):
            v = rng.uniform(-1.0, 1.0, (5, dim(L)))
            v[rng.random(v.shape) < 0.4] = 0.0
            v[rng.random(v.shape) < 0.2] = -0.0
            env[name] = v
        cases = [(2.5, "2.5*x"), (-1.0, "-(x + y)"), (-0.75, "-0.75*y")]
        prog = Program([parse_expression(t, sig) for _, t in cases])
        operands = [env["x"], env["x"] + env["y"], env["y"]]
        calls = []
        monkeypatch.setattr(superexpr, "mul_dense", lambda *a: calls.append(a))
        got = prog.run(env, L)
        monkeypatch.undo()
        assert not calls
        for (c, _), x, out in zip(cases, operands, got):
            want = mul_dense(np.r_[c, np.zeros(dim(L) - 1)], x, L)
            nz = want != 0.0
            assert np.array_equal(out, want)
            assert out[nz].tobytes() == want[nz].tobytes()

    def test_first_error_in_evaluation_order(self, sig):
        # both terms leave their domain; the left one is reported
        point = {"x": G.from_scalar(-1.0, 0), "y": G.from_scalar(-2.0, 0),
                 "th1": G.zero(0), "th2": G.zero(0)}
        with pytest.raises(DomainError, match="log undefined at body -1.0"):
            evaluate(parse_expression("log(x) + 1/(y + 2)", sig), point)
        with pytest.raises(DomainError, match="reciprocal"):
            evaluate(parse_expression("1/(y + 2) + log(x)", sig), point)

    def test_constants_keyed_by_bits(self):
        # 0.0 == -0.0, but each keeps its own slot and sign bit
        prog = Program([Const(0.0), Const(-0.0)])
        plus, minus = prog.run({}, 0)
        assert plus.tobytes() != minus.tobytes()


class TestMorphisms:
    def test_identity_compose(self, sig):
        phi = SuperMorphism(sig, sig, {"x": "x + y^2", "y": "y",
                                       "th1": "th1", "th2": "x*th2"})
        ident = SuperMorphism.identity(sig)
        assert compose(ident, phi).pullbacks == phi.pullbacks
        assert compose(phi, ident).pullbacks == phi.pullbacks

    def test_linear_composition(self):
        sig2 = ChartSignature(("x", "y"), ())
        a = SuperMorphism(sig2, sig2, {"x": "x + y", "y": "y"})
        b = SuperMorphism(sig2, sig2, {"x": "2*x", "y": "3*y"})
        ba = compose(b, a)  # first a, then b
        p = {"x": G.from_scalar(1.0, 0), "y": G.from_scalar(1.0, 0)}
        out = ba.apply_values(p)
        assert out["x"].body == 4.0   # 2*(x + y)
        assert out["y"].body == 3.0

    def test_odd_shift_composition(self):
        # th -> th + x*th composed with x -> 2x gives th -> th + 2x*th
        sig1 = ChartSignature(("x",), ("th",))
        f = SuperMorphism(sig1, sig1, {"x": "x", "th": "th + x*th"})
        g = SuperMorphism(sig1, sig1, {"x": "2*x", "th": "th"})
        fg = compose(f, g)
        p = {"x": G.from_scalar(1.5, 1), "th": G.generator(0, 1)}
        out = fg.apply_values(p)
        assert out["th"].equals((1 + 3.0) * G.generator(0, 1), 1e-14)

    def test_signature_mismatch(self, sig):
        other = ChartSignature(("u",), ())
        f = SuperMorphism(other, other, {"u": "u"})
        g = SuperMorphism(sig, sig, {n: n for n in sig.names})
        with pytest.raises(SignatureMismatch):
            compose(f, g)

    def test_parity_enforced(self, sig):
        with pytest.raises(ParityViolation):
            SuperMorphism(sig, sig, {"x": "th1", "y": "y",
                                     "th1": "th1", "th2": "th2"})
        with pytest.raises(SignatureMismatch):
            SuperMorphism(sig, sig, {"x": "x"})

    def test_substitute_normalizes(self, sig):
        e = parse_expression("th1*th2", sig)
        swapped = substitute(e, {"th1": OddVar("th2"), "th2": OddVar("th1")})
        # th2*th1 = -th1*th2
        p = {"x": G.zero(2), "y": G.zero(2),
             "th1": G.generator(0, 2), "th2": G.generator(1, 2)}
        assert evaluate(swapped, p).equals(-1.0 * evaluate(e, p), 1e-15)

    def test_apply_is_evaluation(self, sig, rng):
        phi = SuperMorphism(sig, sig, {"x": "x + y^2", "y": "x*y",
                                       "th1": "y*th1", "th2": "th2 + x*th1"})
        p = random_point(rng, sig, 2)
        out = phi.apply_values(p)
        for name, e in phi.pullbacks.items():
            assert out[name].equals(evaluate(e, p, 2), 1e-14)
