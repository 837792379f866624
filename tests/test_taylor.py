"""Taylor kernel: ring axioms, truncation, elementary functions, partials."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbsig import (DivisionBySingular, DomainError, OrderExceeded, TaylorValue,
                   compose_elementary, lift_variables)
from fbsig.taylor import n_terms, simplex

P = (0.0, 0.0, 1.0)


def series(coeff_map, point=P, degree=2):
    c = np.zeros(n_terms(degree))
    pos = {s: i for i, s in enumerate(simplex(degree))}
    for sigma, v in coeff_map.items():
        c[pos[sigma]] = v
    return TaylorValue(point, degree, c)


def test_lift_variables_examples():
    xv, uv, wv = lift_variables((0.0, 0.0, 1.0), 2)
    assert xv.const == 0.0
    assert xv.partial((1, 0, 0)) == 1.0
    assert xv.partial((0, 1, 0)) == 0.0
    assert xv.partial((2, 0, 0)) == 0.0

    xv, uv, wv = lift_variables((2.0, 3.0, 5.0), 0)
    assert (xv.const, uv.const, wv.const) == (2.0, 3.0, 5.0)

    _, _, wv = lift_variables((1.0, 1.0, 1.0), 4)
    assert wv.const == 1.0
    assert wv.partial((0, 0, 1)) == 1.0


def test_mul_difference_of_squares():
    xv = lift_variables((0.0, 0.0, 0.0), 2)[0]
    prod = (1.0 + xv) * (1.0 - xv)
    assert prod.const == pytest.approx(1.0)
    assert prod.partial((1, 0, 0)) == pytest.approx(0.0)
    assert prod.partial((2, 0, 0)) == pytest.approx(-2.0)  # -x^2 term


def test_div_geometric_series():
    # 1/(1-x) = 1 + x + x^2 + ...; verify by multiplying back
    xv = lift_variables((0.0, 0.0, 0.0), 2)[0]
    g = 1.0 / (1.0 - xv)
    for k, expect in ((0, 1.0), (1, 1.0), (2, 2.0)):  # partials: k! * 1
        assert g.partial((k, 0, 0)) == pytest.approx(expect)
    back = g * (1.0 - xv)
    assert np.allclose(back.coeffs, [1.0] + [0.0] * (n_terms(2) - 1),
                       atol=1e-15)


def test_div_by_zero_constant_term():
    xv = lift_variables((0.0, 0.0, 0.0), 2)[0]
    with pytest.raises(DivisionBySingular):
        (1.0 + xv) / xv


def test_exp_series():
    xv = lift_variables((0.0, 0.0, 0.0), 2)[0]
    e = compose_elementary("exp", xv)
    assert e.coeffs[0] == pytest.approx(1.0)
    assert e.partial((1, 0, 0)) == pytest.approx(1.0)
    assert e.partial((2, 0, 0)) == pytest.approx(1.0)


def test_log_domain_error():
    bad = TaylorValue.constant(-1.0, P, 2)
    with pytest.raises(DomainError):
        compose_elementary("log", bad)


def test_sqrt_binomial_series():
    # sqrt(1+x) = 1 + x/2 - x^2/8; square back to 1 + x
    xv = lift_variables((0.0, 0.0, 0.0), 2)[0]
    r = compose_elementary("sqrt", 1.0 + xv)
    assert r.const == pytest.approx(1.0)
    assert r.coeffs[r_index((1, 0, 0))] == pytest.approx(0.5)
    assert r.coeffs[r_index((2, 0, 0))] == pytest.approx(-0.125)
    sq = r * r
    assert sq.const == pytest.approx(1.0)
    assert sq.partial((1, 0, 0)) == pytest.approx(1.0)
    assert abs(sq.partial((2, 0, 0))) < 1e-14


def r_index(sigma, degree=2):
    return {s: i for i, s in enumerate(simplex(degree))}[sigma]


def test_partial_examples():
    xv, _, wv = lift_variables((0.0, 0.0, 1.0), 2)
    e = compose_elementary("exp", xv)
    assert e.partial((2, 0, 0)) == pytest.approx(1.0)
    xu1 = xv * wv
    assert xu1.partial((1, 0, 1)) == pytest.approx(1.0)
    with pytest.raises(OrderExceeded):
        xu1.partial((3, 0, 0))


def test_mixed_degree_and_point_rejected():
    a = TaylorValue.constant(1.0, P, 2)
    b = TaylorValue.constant(1.0, P, 3)
    with pytest.raises(ValueError):
        a + b
    c = TaylorValue.constant(1.0, (1.0, 0.0, 0.0), 2)
    with pytest.raises(ValueError):
        a * c


def test_immutability():
    a = TaylorValue.constant(1.0, P, 2)
    with pytest.raises(AttributeError):
        a.degree = 3
    with pytest.raises(ValueError):
        a.coeffs[0] = 5.0


coeff = st.floats(min_value=-3.0, max_value=3.0,
                  allow_nan=False, allow_infinity=False)


def taylor_values(degree=4):
    return st.lists(coeff, min_size=n_terms(degree), max_size=n_terms(degree)) \
        .map(lambda c: TaylorValue(P, degree, np.array(c)))


@given(taylor_values(), taylor_values(), taylor_values())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    left = (a * b) * c
    right = a * (b * c)
    scale = max(1.0, np.abs(left.coeffs).max(), np.abs(right.coeffs).max())
    assert np.abs(left.coeffs - right.coeffs).max() < 1e-12 * scale
    d1 = (a * (b + c)).coeffs
    d2 = (a * b + a * c).coeffs
    dscale = max(1.0, np.abs(d1).max(), np.abs(d2).max())
    assert np.abs(d1 - d2).max() < 1e-12 * dscale
    comm = (a * b).coeffs - (b * a).coeffs
    cscale = max(1.0, np.abs((a * b).coeffs).max())
    assert np.abs(comm).max() < 1e-13 * cscale


@given(taylor_values(), taylor_values())
@settings(max_examples=60, deadline=None)
def test_div_mul_roundtrip(a, b):
    # pin the divisor's constant term to 2 so the inversion is conditioned
    b = b - b.const + 2.0
    back = (a / b) * b
    scale = max(1.0, np.abs(a.coeffs).max()) * (1.0 + np.abs(b.coeffs).max()) ** 4
    assert np.abs(back.coeffs - a.coeffs).max() < 1e-12 * scale


@given(taylor_values(degree=4))
@settings(max_examples=40, deadline=None)
def test_truncation_consistency(a):
    b = a + 0.5
    hi = (a * b).truncated(2)
    lo = a.truncated(2) * b.truncated(2)
    assert np.allclose(hi.coeffs, lo.coeffs, rtol=0, atol=1e-12)


def test_truncation_consistency_elementary():
    # degree 4 then truncate to 2 == computed directly at degree 2
    xv, uv, wv = lift_variables((0.1, -0.2, 0.7), 4)
    hi = compose_elementary("sin", xv * wv + uv) + compose_elementary(
        "exp", 0.3 * uv)
    xv2, uv2, wv2 = lift_variables((0.1, -0.2, 0.7), 2)
    lo = compose_elementary("sin", xv2 * wv2 + uv2) + compose_elementary(
        "exp", 0.3 * uv2)
    assert np.allclose(hi.truncated(2).coeffs, lo.coeffs, atol=1e-13)


def test_pow_int_matches_repeated_mul():
    _, uv, wv = lift_variables((0.0, 0.5, 1.5), 3)
    a = 1.0 + uv * wv
    assert np.allclose(a.pow_int(3).coeffs, (a * a * a).coeffs, atol=1e-14)
    inv2 = a.pow_int(-2)
    assert np.allclose((inv2 * a * a).coeffs,
                       TaylorValue.constant(1.0, a.point, 3).coeffs,
                       atol=1e-12)


def test_tan_atan_consistency():
    xv = lift_variables((0.2, 0.0, 0.0), 4)[0]
    t = compose_elementary("tan", xv)
    back = compose_elementary("atan", t)
    assert np.allclose(back.coeffs, xv.coeffs, atol=1e-12)
    assert t.const == pytest.approx(math.tan(0.2))


def test_derivative_series():
    xv, uv, wv = lift_variables((0.3, 0.4, 0.5), 3)
    prod = xv * xv * uv
    d = prod.derivative(0)  # 2 x u
    assert d.degree == 2
    assert d.const == pytest.approx(2 * 0.3 * 0.4)
    assert d.partial((1, 0, 0)) == pytest.approx(2 * 0.4)
    assert d.partial((0, 1, 0)) == pytest.approx(2 * 0.3)
