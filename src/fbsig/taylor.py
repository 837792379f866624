"""Truncated multivariate Taylor arithmetic in the three base variables.

A :class:`TaylorValue` holds the coefficients of a polynomial in the offsets
``(x - x0, u - u0, u1 - u10)`` from a base point, over the simplex of
multi-indices ``(i, j, l)`` with ``i + j + l <= degree``.  All partial
derivatives used elsewhere in the package are extracted from these values;
there is no symbolic differentiation and no finite differencing anywhere in
the evaluation pipeline.

Multi-indices are ordered graded-lexicographically, so the coefficients of a
degree-``D`` value are a prefix of the coefficients of any higher degree.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DivisionBySingular, DomainError, OrderExceeded

#: Largest supported truncation degree.  The 14-component signature needs
#: degree 4 and its exact differential degree 5; a degree-5 pushforward lifts
#: the feedback map one degree higher (``transform._xu_series``), hence 6.
MAX_DEGREE = 6

#: A divisor whose constant term is at most this is treated as singular.
DIV_EPS = 1e-300

_FUNCTIONS = ("exp", "log", "sin", "cos", "tan", "atan", "sqrt")


@lru_cache(maxsize=None)
def simplex(degree: int) -> tuple:
    """Multi-indices (i, j, l) with i+j+l <= degree, graded lexicographic."""
    idx = []
    for tot in range(degree + 1):
        for i in range(tot + 1):
            for j in range(tot - i + 1):
                idx.append((i, j, tot - i - j))
    return tuple(idx)


@lru_cache(maxsize=None)
def n_terms(degree: int) -> int:
    return len(simplex(degree))


@lru_cache(maxsize=None)
def index_map(degree: int) -> dict:
    return {s: pos for pos, s in enumerate(simplex(degree))}


@lru_cache(maxsize=None)
def _mul_table(degree: int):
    """Index triples (ia, ib, iout) of the truncated Cauchy product."""
    idx = simplex(degree)
    pos = index_map(degree)
    ia, ib, iout = [], [], []
    for pa, sa in enumerate(idx):
        ta = sa[0] + sa[1] + sa[2]
        for pb, sb in enumerate(idx):
            if ta + sb[0] + sb[1] + sb[2] > degree:
                continue
            ia.append(pa)
            ib.append(pb)
            iout.append(pos[(sa[0] + sb[0], sa[1] + sb[1], sa[2] + sb[2])])
    return (np.asarray(ia), np.asarray(ib), np.asarray(iout))


@lru_cache(maxsize=None)
def _deriv_table(degree: int, axis: int):
    """(src, dst, factor) arrays mapping degree-D coeffs to the d/d(axis)."""
    pos_lo = index_map(degree - 1)
    src, dst, fac = [], [], []
    for p, s in enumerate(simplex(degree)):
        if s[axis] == 0:
            continue
        t = list(s)
        t[axis] -= 1
        src.append(p)
        dst.append(pos_lo[tuple(t)])
        fac.append(float(s[axis]))
    return (np.asarray(src), np.asarray(dst), np.asarray(fac))


@lru_cache(maxsize=None)
def _factorial_products(degree: int) -> np.ndarray:
    out = np.empty(n_terms(degree))
    for p, (i, j, l) in enumerate(simplex(degree)):
        out[p] = math.factorial(i) * math.factorial(j) * math.factorial(l)
    return out


def _raw_mul(a: np.ndarray, b: np.ndarray, degree: int) -> np.ndarray:
    ia, ib, iout = _mul_table(degree)
    out = np.zeros(a.shape[0])
    np.add.at(out, iout, a[ia] * b[ib])
    return out


class TaylorValue:
    """Immutable truncated power series at a base point in (x, u, u1)."""

    __slots__ = ("point", "degree", "coeffs")

    def __init__(self, point, degree, coeffs):
        if degree < 0 or degree > MAX_DEGREE:
            raise ValueError("degree must be in 0..%d" % MAX_DEGREE)
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (n_terms(degree),):
            raise ValueError("expected %d coefficients for degree %d"
                             % (n_terms(degree), degree))
        coeffs = coeffs.copy()
        coeffs.flags.writeable = False
        object.__setattr__(self, "point", tuple(float(c) for c in point))
        object.__setattr__(self, "degree", int(degree))
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def _trusted(cls, point, degree, coeffs):
        """Wrap a result of arithmetic without validating or copying.

        `point` must already be a tuple of floats, `degree` a valid int and
        `coeffs` a float array of the matching length that no other code
        writes to.
        """
        coeffs.flags.writeable = False
        obj = object.__new__(cls)
        object.__setattr__(obj, "point", point)
        object.__setattr__(obj, "degree", degree)
        object.__setattr__(obj, "coeffs", coeffs)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("TaylorValue is immutable")

    # -- construction ---------------------------------------------------

    @classmethod
    def constant(cls, value, point, degree):
        c = np.zeros(n_terms(degree))
        c[0] = value
        return cls(point, degree, c)

    @classmethod
    def variable(cls, axis, point, degree):
        """The coordinate function of the given axis (0=x, 1=u, 2=u1)."""
        c = np.zeros(n_terms(degree))
        c[0] = point[axis]
        if degree >= 1:
            e = [0, 0, 0]
            e[axis] = 1
            c[index_map(degree)[tuple(e)]] = 1.0
        return cls(point, degree, c)

    # -- basic queries ----------------------------------------------------

    @property
    def const(self) -> float:
        """Value of the series at the base point."""
        return float(self.coeffs[0])

    def partial(self, sigma) -> float:
        """The partial derivative d^|sigma| / dx^i du^j du1^l at the point."""
        sigma = tuple(int(s) for s in sigma)
        if sum(sigma) > self.degree:
            raise OrderExceeded("partial %s exceeds degree %d"
                                % (sigma, self.degree))
        pos = index_map(self.degree)[sigma]
        return float(self.coeffs[pos] * _factorial_products(self.degree)[pos])

    def truncated(self, degree: int) -> "TaylorValue":
        """Drop all coefficients of order above `degree`."""
        if not 0 <= degree <= self.degree:
            raise ValueError("cannot truncate a degree-%d series to degree %d"
                             % (self.degree, degree))
        return TaylorValue._trusted(self.point, degree,
                                    self.coeffs[:n_terms(degree)])

    def derivative(self, axis: int) -> "TaylorValue":
        """Series of the partial derivative along `axis`; degree drops by 1."""
        if self.degree == 0:
            raise OrderExceeded("cannot differentiate a degree-0 series")
        src, dst, fac = _deriv_table(self.degree, axis)
        out = np.zeros(n_terms(self.degree - 1))
        out[dst] = self.coeffs[src] * fac
        return TaylorValue._trusted(self.point, self.degree - 1, out)

    def __repr__(self):
        return ("TaylorValue(point=%r, degree=%d, const=%.6g)"
                % (self.point, self.degree, self.const))

    # -- arithmetic -------------------------------------------------------

    def _compat(self, other):
        if self.point != other.point or self.degree != other.degree:
            raise ValueError(
                "mixed Taylor arithmetic: points %r/%r, degrees %d/%d"
                % (self.point, other.point, self.degree, other.degree))

    def _lift(self, value):
        if isinstance(value, TaylorValue):
            self._compat(value)
            return value
        return _constant(float(value), self.point, self.degree)

    def __add__(self, other):
        other = self._lift(other)
        return TaylorValue._trusted(self.point, self.degree,
                                    self.coeffs + other.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        return TaylorValue._trusted(self.point, self.degree,
                                    self.coeffs - other.coeffs)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __neg__(self):
        return TaylorValue._trusted(self.point, self.degree, -self.coeffs)

    def __mul__(self, other):
        if not isinstance(other, TaylorValue):
            return TaylorValue._trusted(self.point, self.degree,
                                        self.coeffs * float(other))
        self._compat(other)
        return TaylorValue._trusted(
            self.point, self.degree,
            _raw_mul(self.coeffs, other.coeffs, self.degree))

    __rmul__ = __mul__

    def reciprocal(self) -> "TaylorValue":
        c0 = self.const
        if abs(c0) <= DIV_EPS:
            raise DivisionBySingular(
                "division by series with zero constant term")
        # 1/b = (1/c0) * sum (-r)^k  with r = (b - c0)/c0, truncated Horner
        r = (self - c0) * (1.0 / c0)
        s = _constant(1.0, self.point, self.degree)
        for _ in range(self.degree):
            s = 1.0 - r * s
        return s * (1.0 / c0)

    def __truediv__(self, other):
        if not isinstance(other, TaylorValue):
            d = float(other)
            if abs(d) <= DIV_EPS:
                raise DivisionBySingular("division by zero scalar")
            return self * (1.0 / d)
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * float(other)

    def pow_int(self, n: int) -> "TaylorValue":
        """Integer power by repeated multiplication (negative n via 1/b)."""
        if n != int(n):
            raise TypeError("pow_int requires an integer exponent")
        n = int(n)
        if n < 0:
            return self.reciprocal().pow_int(-n)
        out = _constant(1.0, self.point, self.degree)
        base = self
        while n > 0:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __pow__(self, n):
        return self.pow_int(n)


def _constant(value, point, degree):
    """Trusted constant series at an already normalized point."""
    c = np.zeros(n_terms(degree))
    c[0] = value
    return TaylorValue._trusted(point, degree, c)


def lift_variables(point, degree):
    """The coordinate functions x, u, u1 as degree-`degree` series at `point`."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    return tuple(TaylorValue.variable(axis, point, degree) for axis in range(3))


# -- univariate coefficient helpers for elementary functions ---------------


def _urecip(p: np.ndarray, order: int) -> np.ndarray:
    """Coefficients of 1/p(t) to the given order; p[0] must be nonzero."""
    q = np.zeros(order + 1)
    q[0] = 1.0 / p[0]
    for n in range(1, order + 1):
        acc = 0.0
        for m in range(1, min(n, len(p) - 1) + 1):
            acc += p[m] * q[n - m]
        q[n] = -acc / p[0]
    return q


def _ucoeffs(fn: str, c0: float, order: int) -> np.ndarray:
    """Taylor coefficients of fn about c0: fn(c0 + t) = sum d_k t^k."""
    d = np.empty(order + 1)
    if fn == "exp":
        e = math.exp(c0)
        for k in range(order + 1):
            d[k] = e / math.factorial(k)
    elif fn == "log":
        if c0 <= 0.0:
            raise DomainError("log of non-positive constant term %g" % c0)
        d[0] = math.log(c0)
        for k in range(1, order + 1):
            d[k] = (-1.0) ** (k - 1) / (k * c0 ** k)
    elif fn == "sqrt":
        if c0 <= 0.0:
            raise DomainError("sqrt of non-positive constant term %g" % c0)
        r = math.sqrt(c0)
        # binomial series: sqrt(c0) * C(1/2, k) / c0^k
        coeff = 1.0
        for k in range(order + 1):
            d[k] = r * coeff / c0 ** k
            coeff *= (0.5 - k) / (k + 1)
    elif fn == "sin":
        table = (math.sin(c0), math.cos(c0), -math.sin(c0), -math.cos(c0))
        for k in range(order + 1):
            d[k] = table[k % 4] / math.factorial(k)
    elif fn == "cos":
        table = (math.cos(c0), -math.sin(c0), -math.cos(c0), math.sin(c0))
        for k in range(order + 1):
            d[k] = table[k % 4] / math.factorial(k)
    elif fn == "atan":
        # y' = 1/(1 + (c0+t)^2), integrated term by term
        p = np.zeros(order + 1)
        p[0] = 1.0 + c0 * c0
        if order >= 1:
            p[1] = 2.0 * c0
        if order >= 2:
            p[2] = 1.0
        q = _urecip(p, max(order - 1, 0))
        d[0] = math.atan(c0)
        for k in range(1, order + 1):
            d[k] = q[k - 1] / k
    else:
        raise ValueError("unknown function %r" % fn)
    return d


def compose_elementary(fn: str, a: TaylorValue) -> TaylorValue:
    """Apply an elementary function to a series by univariate composition."""
    if fn not in _FUNCTIONS:
        raise ValueError("unknown function %r" % fn)
    if fn == "tan":
        return compose_elementary("sin", a) / compose_elementary("cos", a)
    d = _ucoeffs(fn, a.const, a.degree)
    h = a - a.const
    out = _constant(d[a.degree], a.point, a.degree)
    for k in range(a.degree - 1, -1, -1):
        out = out * h + d[k]
    return out


def poly_compose(poly: TaylorValue, args) -> TaylorValue:
    """Substitute three series for the offsets of a polynomial series.

    `poly` is read as a polynomial in its own offsets; `args` are three
    TaylorValues (sharing a base point and degree) giving those offsets as
    functions of the new variables.  Returns the composition truncated at
    the degree of `args`.
    """
    s1, s2, s3 = args
    s1._compat(s2)
    s1._compat(s3)
    degree = s1.degree
    pows = []
    for s in (s1, s2, s3):
        ps = [_constant(1.0, s1.point, degree)]
        for _ in range(poly.degree):
            ps.append(ps[-1] * s)
        pows.append(ps)
    acc = np.zeros(n_terms(degree))
    for pos, (i, j, l) in enumerate(simplex(poly.degree)):
        c = poly.coeffs[pos]
        if c == 0.0:
            continue
        term = pows[0][i] * pows[1][j] * pows[2][l]
        acc = acc + c * term.coeffs
    return TaylorValue._trusted(s1.point, degree, acc)
