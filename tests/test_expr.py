"""Expression grammar, error reporting, and carrier-generic evaluation."""

import math

import numpy as np
import pytest

from fbsig import (ArityError, DivisionBySingular, DomainError,
                   ExpressionSyntaxError, UnknownIdentifier, lift_variables,
                   parse)
from fbsig.expr import MAX_DEPTH, Bin, Num, Var, to_string
from helpers import fd_partial

VARS = {"x", "u", "u1"}


def test_parse_precedence_example():
    e = parse("u1^2 + x*u1", VARS)
    assert e.ast == Bin("+", Bin("^", Var("u1"), Num(2.0)),
                        Bin("*", Var("x"), Var("u1")))


def test_parse_power_right_assoc_and_unary():
    # nested exponent is a subexpression, so it takes the exp/log route
    tree = parse("2^3^2", VARS).ast
    assert tree == Bin("^", Num(2.0), Bin("^", Num(3.0), Num(2.0)))
    assert parse("2^3^2", VARS)({}) == pytest.approx(512.0)
    # integer-literal exponents evaluate by repeated multiplication (exact)
    assert parse("-2^2", VARS)({}) == -4.0
    assert parse("2^-1", VARS)({}) == 0.5
    assert parse("(-2)^3", VARS)({}) == -8.0


def test_syntax_error_offset():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse("(u1", VARS)
    assert err.value.offset == 3


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifier) as err:
        parse("exp(v)", VARS)
    assert err.value.name == "v"
    with pytest.raises(UnknownIdentifier):
        parse("u_1 + 1", VARS)


def test_arity_error():
    with pytest.raises(ArityError):
        parse("atan(x, u)", VARS)


def test_no_implicit_multiplication():
    with pytest.raises(ExpressionSyntaxError):
        parse("2x", VARS)


def test_empty_expression():
    with pytest.raises(ExpressionSyntaxError):
        parse("   ", VARS)


def test_constants_pi_e():
    assert parse("pi", VARS)({}) == pytest.approx(math.pi)
    assert parse("e^2", VARS)({}) == pytest.approx(math.e ** 2)


def test_eval_real_examples():
    assert parse("u1^2", VARS)({"u1": 3.0}) == 9.0
    with pytest.raises(DivisionBySingular):
        parse("1/x", VARS)({"x": 0.0})
    with pytest.raises(DomainError):
        parse("log(x)", VARS)({"x": -2.0})


def test_eval_taylor_square_about_one():
    # (u1)^2 about u1=1: 1 + 2(u1-1) + (u1-1)^2
    _, _, wv = lift_variables((0.0, 0.0, 1.0), 2)
    out = parse("u1^2", VARS)({"u1": wv})
    assert out.const == pytest.approx(1.0)
    assert out.partial((0, 0, 1)) == pytest.approx(2.0)
    assert out.partial((0, 0, 2)) == pytest.approx(2.0)


# -- a reproducible random expression corpus ---------------------------------


def random_expression(rng, depth=3):
    """Safe random expression text: all denominators and function arguments
    stay in-domain on the sample box."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return rng.choice(["x", "u", "u1"])
        return "%.3f" % rng.uniform(-2.0, 2.0)
    kind = rng.integers(0, 7)
    a = random_expression(rng, depth - 1)
    b = random_expression(rng, depth - 1)
    if kind == 0:
        return "(%s + %s)" % (a, b)
    if kind == 1:
        return "(%s - %s)" % (a, b)
    if kind == 2:
        return "(%s * %s)" % (a, b)
    if kind == 3:
        return "sin(%s)" % a
    if kind == 4:
        return "cos(%s)" % a
    if kind == 5:
        return "exp(0.2 * %s)" % a
    return "(%s / (2 + (%s)^2))" % (a, b)


def corpus(n=100, seed=0):
    rng = np.random.default_rng(seed)
    return [random_expression(rng) for _ in range(n)]


def test_real_eval_matches_taylor_constant_term():
    rng = np.random.default_rng(1)
    for text in corpus(100):
        e = parse(text, VARS)
        p = tuple(rng.uniform(-1.0, 1.0, size=3))
        real = e({"x": p[0], "u": p[1], "u1": p[2]})
        xv, uv, wv = lift_variables(p, 2)
        tay = e({"x": xv, "u": uv, "u1": wv})
        const = tay.const if hasattr(tay, "const") else float(tay)
        assert abs(const - real) <= 1e-12 * (1.0 + abs(real))


def test_taylor_partials_match_finite_differences():
    rng = np.random.default_rng(2)
    sigmas = [(1, 0, 0), (0, 1, 0), (0, 0, 1),
              (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1)]
    for text in corpus(40, seed=3):
        e = parse(text, VARS)
        p = tuple(rng.uniform(-1.0, 1.0, size=3))
        xv, uv, wv = lift_variables(p, 2)
        tay = e({"x": xv, "u": uv, "u1": wv})
        if not hasattr(tay, "partial"):
            continue

        def scalar(q):
            return e({"x": q[0], "u": q[1], "u1": q[2]})

        for sigma in sigmas:
            exact = tay.partial(sigma)
            approx = fd_partial(scalar, p, sigma)
            assert abs(exact - approx) <= 1e-5 * (1.0 + abs(exact))


def test_parse_print_parse_idempotent():
    for text in corpus(100, seed=4) + ["u1^2 + x*u1", "-x^2", "x^-2",
                                       "1/(x - u)", "-(x * u)", "2^3^2",
                                       "exp(x)^2", "(x + u)/(2 + u1^2)"]:
        e = parse(text, VARS)
        printed = to_string(e.ast)
        again = parse(printed, VARS)
        assert again.ast == e.ast, (text, printed)
        assert to_string(again.ast) == printed


def test_variables_listing():
    assert parse("x*u1 + exp(u)", VARS).variables() == {"x", "u", "u1"}
    assert parse("2 + 2", VARS).variables() == set()


@pytest.mark.parametrize("shape", [
    lambda n: "(" * n + "u1" + ")" * n,
    lambda n: "-" * (n - 1) + "u1",
    lambda n: "+".join(["u1"] * n),
    lambda n: "^".join(["u1"] * n),
], ids=["parentheses", "unary-minus", "flat-chain", "power-tower"])
def test_depth_limit(shape):
    # MAX_DEPTH levels parse, evaluate over series and print; one more is
    # a syntax error, raised while parsing
    e = parse(shape(MAX_DEPTH), VARS)
    e.taylor((0.5, 0.5, 1.0), 2)
    assert parse(to_string(e.ast), VARS).ast == e.ast
    with pytest.raises(ExpressionSyntaxError, match="deeper than 200"):
        parse(shape(MAX_DEPTH + 1), VARS)
