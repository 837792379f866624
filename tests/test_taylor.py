"""Taylor kernel: ring axioms, truncation, elementary functions, partials."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbsig import (DivisionBySingular, DomainError, OrderExceeded, TaylorValue,
                   compose_elementary, lift_variables)
from fbsig.taylor import MAX_DEGREE, n_terms, simplex
from helpers import ref_reciprocal

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


def test_partials_and_from_partials():
    # e^(x + 2u) u1^2 at (0, 0, 1): f_(i,j,l) = 2^j * (1, 2, 2, 0, ...)[l]
    xv, uv, wv = lift_variables(P, 3)
    tv = compose_elementary("exp", xv + 2.0 * uv) * wv * wv
    want = [2.0 ** j * (1.0, 2.0, 2.0, 0.0)[l] for i, j, l in simplex(3)]
    assert np.allclose(tv.partials, want, rtol=1e-14)
    assert list(tv.partials) == [tv.partial(s) for s in simplex(3)]
    back = TaylorValue.from_partials(P, 3, want)
    assert np.allclose(back.coeffs, tv.coeffs, rtol=1e-14)

    # a batch: one column of derivatives per point
    pts = (np.array([0.0, 1.0]), np.array([0.0, 0.5]), np.array([1.0, 2.0]))
    batch = TaylorValue.from_partials(pts, 3, np.column_stack([want, want]))
    assert batch.coeffs.shape == (n_terms(3), 2)
    assert np.array_equal(batch.partials[:, 1], back.partials)

    with pytest.raises(ValueError):
        TaylorValue.from_partials(P, 3, want[:-1])
    with pytest.raises(ValueError):
        TaylorValue.from_partials(P, 7, np.ones(n_terms(7)))


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


# -- batches: one column per base point ----------------------------------------


def _add_at_mul(a, b, degree):
    """The truncated product by np.add.at, the reference for both kernels."""
    from fbsig.taylor import _mul_table
    ia, ib, iout = _mul_table(degree)
    out = np.zeros(a.shape)
    np.add.at(out, iout, a[ia] * b[ib])
    return out


@pytest.mark.parametrize("degree", range(7))
def test_product_kernels_bit_identical_to_add_at(degree):
    rng = np.random.default_rng(degree)
    a = rng.standard_normal((n_terms(degree), 300))
    b = rng.standard_normal((n_terms(degree), 300))
    pts = tuple(rng.standard_normal(300) for _ in range(3))
    batch = TaylorValue(pts, degree, a) * TaylorValue(pts, degree, b)
    assert np.array_equal(batch.coeffs, _add_at_mul(a, b, degree))
    for col in range(0, 300, 37):
        p = tuple(c[col] for c in pts)
        one = TaylorValue(p, degree, a[:, col]) * TaylorValue(p, degree, b[:, col])
        assert np.array_equal(one.coeffs, batch.coeffs[:, col])


def _columns(batch):
    return [TaylorValue(tuple(c[k] for c in batch.point), batch.degree,
                        batch.coeffs[:, k])
            for k in range(batch.coeffs.shape[1])]


def test_batch_operations_match_each_column():
    rng = np.random.default_rng(5)
    pts = (rng.uniform(0.5, 1.5, 8), rng.uniform(-1, 1, 8),
           rng.uniform(1, 2, 8))
    xv, uv, wv = lift_variables(pts, 4)
    exprs = [
        lambda x, u, w: (x * w + 2.0) / (1.0 + u * u),
        lambda x, u, w: compose_elementary("exp", x * u) - 3.0 * w.pow_int(-2),
        lambda x, u, w: compose_elementary("log", x) * compose_elementary(
            "sqrt", w) + compose_elementary("atan", u),
        lambda x, u, w: compose_elementary("tan", 0.3 * u) / w,
        lambda x, u, w: ((1.0 - x * x).derivative(0).truncated(2)
                         * w.truncated(3).derivative(2)),
    ]
    for fn in exprs:
        batch = fn(xv, uv, wv)
        assert batch.coeffs.shape[1] == 8
        for k in range(8):
            one = fn(*lift_variables(tuple(c[k] for c in pts), 4))
            assert np.array_equal(one.coeffs, batch.coeffs[:, k])
            assert one.point == tuple(float(c[k]) for c in batch.point)


def test_batch_poly_compose_matches_each_column():
    from fbsig import poly_compose
    rng = np.random.default_rng(6)
    pts = tuple(rng.uniform(-1, 1, 5) for _ in range(3))
    poly_c = rng.standard_normal((n_terms(3), 5))
    poly_c[4] = 0.0                   # zero in every column: skipped
    poly_c[7, 2] = 0.0                # zero in one column only
    poly = TaylorValue(pts, 3, poly_c)
    args = [TaylorValue(pts, 3, rng.standard_normal((n_terms(3), 5)))
            for _ in range(3)]
    batch = poly_compose(poly, args)
    for k, (p1, *a1) in enumerate(zip(_columns(poly), *map(_columns, args))):
        assert np.array_equal(poly_compose(p1, a1).coeffs, batch.coeffs[:, k])


@pytest.mark.parametrize("degree", range(MAX_DEGREE + 1))
def test_reciprocal_bit_identical_to_series_loop(degree):
    rng = np.random.default_rng(degree)
    pts = tuple(rng.uniform(-1, 1, 6) for _ in range(3))
    c = rng.standard_normal((n_terms(degree), 6))
    c[0] += np.sign(c[0]) * 0.5
    batch = TaylorValue(pts, degree, c)
    values = [batch] + _columns(batch)
    for tv in values:
        got, ref = tv.reciprocal().coeffs, ref_reciprocal(tv).coeffs
        assert got.tobytes() == ref.tobytes()


def test_batch_failures_name_their_columns():
    pts = (np.array([1.0, 2.0, 3.0]), np.zeros(3), np.array([0.0, 1.0, -1.0]))
    xv, uv, wv = lift_variables(pts, 2)
    with pytest.raises(DivisionBySingular) as exc:
        1.0 / wv
    assert list(exc.value.columns) == [0]
    with pytest.raises(DomainError) as exc:
        compose_elementary("log", wv)
    assert list(exc.value.columns) == [0, 2]
    assert "log of non-positive constant term 0" in str(exc.value)
    # one point raises the same errors without columns
    with pytest.raises(DivisionBySingular) as exc:
        1.0 / lift_variables((1.0, 0.0, 0.0), 2)[2]
    assert exc.value.columns is None


def test_batch_validation():
    pts = (np.arange(4.0), np.zeros(4), np.ones(4))
    xv = lift_variables(pts, 1)[0]
    with pytest.raises(ValueError):
        TaylorValue(pts, 1, np.zeros((4, 3)))        # 3 columns, 4 points
    with pytest.raises(ValueError):
        xv + lift_variables((np.arange(4.0) + 1, np.zeros(4), np.ones(4)), 1)[0]
    with pytest.raises(ValueError):
        xv.coeffs.__setitem__(0, 1.0)                 # read-only


def test_overflow_gives_non_finite_columns_only():
    pts = (np.array([1.0, 800.0]), np.zeros(2), np.ones(2))
    xv = lift_variables(pts, 3)[0]
    with np.errstate(all="ignore"):
        e = compose_elementary("exp", xv) * xv
    assert np.isfinite(e.coeffs[:, 0]).all()
    assert not np.isfinite(e.coeffs[:, 1]).all()
    one = compose_elementary("exp", lift_variables((1.0, 0.0, 1.0), 3)[0])
    assert np.array_equal((one * lift_variables((1.0, 0.0, 1.0), 3)[0]).coeffs,
                          e.coeffs[:, 0])
