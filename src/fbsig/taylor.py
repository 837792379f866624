"""Truncated multivariate Taylor arithmetic in the three base variables.

A :class:`TaylorValue` holds the coefficients of a polynomial in the offsets
``(x - x0, u - u0, u1 - u10)`` from a base point, over the simplex of
multi-indices ``(i, j, l)`` with ``i + j + l <= degree``.  All partial
derivatives used elsewhere in the package are extracted from these values;
there is no symbolic differentiation and no finite differencing anywhere in
the evaluation pipeline.

Multi-indices are ordered graded-lexicographically, so the coefficients of a
degree-``D`` value are a prefix of the coefficients of any higher degree.

A k-jet of a function at a point is its degree-k series: the coefficient of
sigma = (i, j, l) is f_sigma / (i! j! l!).  :attr:`TaylorValue.partials` and
:meth:`TaylorValue.from_partials` convert between the coefficients and the
derivatives f_sigma; no other module scales by the factorials.

A value is either one series (coefficients of shape ``(n_terms,)`` at a
point of three floats) or a batch of N series stored coefficient-major
(shape ``(n_terms, N)`` at a point of three length-N arrays).  Every
operation acts on the columns of a batch independently and gives each
column the bits the same operation gives one series.  A check that fails
in some columns of a batch raises its usual error with those columns in
``columns`` (see :func:`fbsig.errors.check_columns`).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import sparse

from .errors import (DivisionBySingular, DomainError, OrderExceeded, at,
                     check_columns)

#: Largest supported truncation degree.  The 14-component signature needs
#: degree 4 and its exact differential degree 5; a degree-5 pushforward
#: expands the feedback map one degree higher to differentiate it
#: (``transform._xu_series``, which also expands orbit generators), hence 6.
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


def _per_column(factors, ndim):
    """Per-coefficient `factors` shaped to scale coefficients of `ndim`
    dimensions (one point, or a batch with one column per point)."""
    return factors if ndim == 1 else factors[:, None]


@lru_cache(maxsize=None)
def _scatter(degree: int):
    """Sparse 0/1 matrix summing the product terms of `_mul_table` per output
    coefficient, in the order of the table."""
    _, _, iout = _mul_table(degree)
    return sparse.csr_matrix(
        (np.ones(iout.size), (iout, np.arange(iout.size))),
        shape=(n_terms(degree), iout.size))


def _raw_mul(a: np.ndarray, b: np.ndarray, degree: int) -> np.ndarray:
    ia, ib, iout = _mul_table(degree)
    terms = a[ia] * b[ib]
    if a.ndim == 1:
        return np.bincount(iout, terms, minlength=a.shape[0])
    return _scatter(degree) @ terms


def _as_point(point):
    """Three floats, or for a batch three read-only float arrays of one
    length; an already normalized batch point is returned as it is, so that
    series built on it can be checked for compatibility by identity."""
    if type(point) is tuple and all(type(c) is float for c in point):
        return point
    if all(np.ndim(c) == 0 for c in point):
        return tuple(float(c) for c in point)
    if (type(point) is tuple and len(point) == 3
            and all(isinstance(c, np.ndarray) and c.dtype == float
                    and c.ndim == 1 and not c.flags.writeable for c in point)
            and point[0].shape == point[1].shape == point[2].shape):
        return point
    out = tuple(np.array(c, dtype=float) for c in point)
    if len(out) != 3 or any(c.ndim != 1 or c.shape != out[0].shape
                            for c in out):
        raise ValueError("a batch point is three arrays of one length")
    for c in out:
        c.flags.writeable = False
    return out


def _same_point(p, q):
    if p is q:
        return True
    if type(p[0]) is float or type(q[0]) is float:
        return p == q
    return all(a is b or np.array_equal(a, b) for a, b in zip(p, q))


class TaylorValue:
    """Immutable truncated power series at a base point in (x, u, u1), or a
    batch of them, one column per base point."""

    __slots__ = ("point", "degree", "coeffs")

    #: numpy operands defer to the series operators (array * series is a
    #: per-column scaling, not an object array).
    __array_ufunc__ = None

    def __init__(self, point, degree, coeffs):
        if degree < 0 or degree > MAX_DEGREE:
            raise ValueError("degree must be in 0..%d" % MAX_DEGREE)
        coeffs = np.array(coeffs, dtype=float)
        point = _as_point(point)
        shape = (n_terms(degree),)
        if type(point[0]) is not float:
            shape += point[0].shape
        if coeffs.shape != shape:
            raise ValueError("expected %d coefficients for degree %d%s"
                             % (n_terms(degree), degree,
                                "" if len(shape) == 1 else
                                " in each of %d columns" % shape[1]))
        coeffs.flags.writeable = False
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "degree", int(degree))
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def _trusted(cls, point, degree, coeffs):
        """Wrap a result of arithmetic without validating or copying.

        `point` must already be normalized (as by the constructor), `degree`
        a valid int and `coeffs` a float array of the matching shape that no
        other code writes to.
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
        """A constant series; for a batch point `value` may be per column."""
        point = _as_point(point)
        c = np.zeros((n_terms(degree),) + np.shape(point[0]))
        c[0] = value
        return cls(point, degree, c)

    @classmethod
    def variable(cls, axis, point, degree):
        """The coordinate function of the given axis (0=x, 1=u, 2=u1)."""
        point = _as_point(point)
        c = np.zeros((n_terms(degree),) + np.shape(point[0]))
        c[0] = point[axis]
        if degree >= 1:
            e = [0, 0, 0]
            e[axis] = 1
            c[index_map(degree)[tuple(e)]] = 1.0
        return cls(point, degree, c)

    @classmethod
    def from_partials(cls, point, degree, values):
        """The series whose partial derivatives f_sigma at `point` are
        `values`, over simplex(degree) (one column per point of a batch)."""
        values = np.asarray(values, dtype=float)
        expected = (n_terms(degree),)
        if not 0 <= degree <= MAX_DEGREE or values.shape[:1] != expected:
            raise ValueError("expected %d derivative values for degree %d"
                             % (n_terms(degree), degree))
        return cls(point, degree, values / _per_column(
            _factorial_products(degree), values.ndim))

    def _const(self, value):
        """Trusted constant series at this point; `value` may be per column."""
        c = np.zeros(self.coeffs.shape)
        c[0] = value
        return TaylorValue._trusted(self.point, self.degree, c)

    def _factor(self, value):
        """A scalar operand: a float, or for a batch also one per column."""
        if self.coeffs.ndim == 1:
            return float(value)
        return np.asarray(value, dtype=float)

    # -- basic queries ----------------------------------------------------

    @property
    def const(self):
        """Value of the series at the base point (per column for a batch)."""
        if self.coeffs.ndim == 1:
            return float(self.coeffs[0])
        return self.coeffs[0]

    def partial(self, sigma):
        """The partial derivative d^|sigma| / dx^i du^j du1^l at the point."""
        sigma = tuple(int(s) for s in sigma)
        if sum(sigma) > self.degree:
            raise OrderExceeded("partial %s exceeds degree %d"
                                % (sigma, self.degree))
        pos = index_map(self.degree)[sigma]
        value = self.coeffs[pos] * _factorial_products(self.degree)[pos]
        return float(value) if self.coeffs.ndim == 1 else value

    @property
    def partials(self) -> np.ndarray:
        """All partial derivatives f_sigma over simplex(degree), in the
        order of the coefficients (per column for a batch)."""
        return self.coeffs * _per_column(_factorial_products(self.degree),
                                         self.coeffs.ndim)

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
        out = np.zeros((n_terms(self.degree - 1),) + self.coeffs.shape[1:])
        out[dst] = self.coeffs[src] * _per_column(fac, self.coeffs.ndim)
        return TaylorValue._trusted(self.point, self.degree - 1, out)

    def __repr__(self):
        if self.coeffs.ndim == 2:
            return ("TaylorValue(batch of %d points, degree=%d)"
                    % (self.coeffs.shape[1], self.degree))
        return ("TaylorValue(point=%r, degree=%d, const=%.6g)"
                % (self.point, self.degree, self.const))

    # -- arithmetic -------------------------------------------------------

    def _compat(self, other):
        if self.degree != other.degree or not _same_point(self.point,
                                                          other.point):
            raise ValueError(
                "mixed Taylor arithmetic: points %r/%r, degrees %d/%d"
                % (self.point, other.point, self.degree, other.degree))

    def _lift(self, value):
        if isinstance(value, TaylorValue):
            self._compat(value)
            return value
        return self._const(self._factor(value))

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
                                        self.coeffs * self._factor(other))
        self._compat(other)
        return TaylorValue._trusted(
            self.point, self.degree,
            _raw_mul(self.coeffs, other.coeffs, self.degree))

    __rmul__ = __mul__

    def reciprocal(self) -> "TaylorValue":
        c0 = self.const
        check_columns(abs(c0) <= DIV_EPS, lambda i: DivisionBySingular(
            "division by series with zero constant term"))
        # 1/b = (1/c0) * sum (-r)^k  with r = (b - c0)/c0, truncated Horner
        inv = self._factor(1.0 / c0)
        r = (self.coeffs - self._const(c0).coeffs) * inv
        one = self._const(1.0).coeffs
        s = one
        for _ in range(self.degree):
            s = one - _raw_mul(r, s, self.degree)
        return TaylorValue._trusted(self.point, self.degree, s * inv)

    def __truediv__(self, other):
        if not isinstance(other, TaylorValue):
            d = self._factor(other)
            check_columns(abs(d) <= DIV_EPS, lambda i: DivisionBySingular(
                "division by zero scalar"))
            return self * (1.0 / d)
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def pow_int(self, n: int) -> "TaylorValue":
        """Integer power by repeated multiplication (negative n via 1/b)."""
        if n != int(n):
            raise TypeError("pow_int requires an integer exponent")
        n = int(n)
        if n < 0:
            return self.reciprocal().pow_int(-n)
        out = self._const(1.0)
        base = self
        while n > 0:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __pow__(self, n):
        return self.pow_int(n)


def lift_variables(point, degree):
    """The coordinate functions x, u, u1 as degree-`degree` series at `point`
    (three floats, or three arrays of one length for a batch)."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    point = _as_point(point)
    return tuple(TaylorValue.variable(axis, point, degree) for axis in range(3))


# -- univariate coefficient helpers for elementary functions ---------------


def _libm(fn: str, x, *args):
    """math.`fn` of a float, or of every entry of a batch array.

    numpy's own exp, log, atan and power differ from libm in the last bit
    for a few percent of inputs, so a batch makes the libm calls of the
    scalar path.  A range error gives numpy's value (inf or nan) instead of
    an exception; the finiteness check of the jet then names the point.
    """
    if isinstance(x, np.ndarray):
        return np.array([_libm(fn, v, *args) for v in x.tolist()])
    try:
        return getattr(math, fn)(x, *args)
    except (OverflowError, ValueError):
        with np.errstate(all="ignore"):
            return float(getattr(np, "power" if fn == "pow" else fn)(x, *args))


def _urecip(p: np.ndarray, order: int) -> np.ndarray:
    """Coefficients of 1/p(t) to the given order; p[0] must be nonzero."""
    q = np.zeros((order + 1,) + np.shape(p[0]))
    q[0] = 1.0 / p[0]
    for n in range(1, order + 1):
        acc = 0.0
        for m in range(1, min(n, len(p) - 1) + 1):
            acc += p[m] * q[n - m]
        q[n] = -acc / p[0]
    return q


def _ucoeffs(fn: str, c0, order: int) -> np.ndarray:
    """Taylor coefficients of fn about c0: fn(c0 + t) = sum d_k t^k.

    `c0` is a float, or one value per column of a batch; then row k of the
    result holds the coefficients d_k of every column.
    """
    d = np.empty((order + 1,) + np.shape(c0))
    if fn == "exp":
        e = _libm("exp", c0)
        for k in range(order + 1):
            d[k] = e / math.factorial(k)
    elif fn == "log":
        check_columns(c0 <= 0.0, lambda i: DomainError(
            "log of non-positive constant term %g" % at(c0, i)))
        d[0] = _libm("log", c0)
        for k in range(1, order + 1):
            d[k] = (-1.0) ** (k - 1) / (k * _libm("pow", c0, k))
    elif fn == "sqrt":
        check_columns(c0 <= 0.0, lambda i: DomainError(
            "sqrt of non-positive constant term %g" % at(c0, i)))
        r = _libm("sqrt", c0)
        # binomial series: sqrt(c0) * C(1/2, k) / c0^k
        coeff = 1.0
        for k in range(order + 1):
            d[k] = r * coeff / _libm("pow", c0, k)
            coeff *= (0.5 - k) / (k + 1)
    elif fn in ("sin", "cos"):
        s, c = _libm("sin", c0), _libm("cos", c0)
        table = (s, c, -s, -c) if fn == "sin" else (c, -s, -c, s)
        for k in range(order + 1):
            d[k] = table[k % 4] / math.factorial(k)
    elif fn == "atan":
        # y' = 1/(1 + (c0+t)^2), integrated term by term
        p = np.zeros((order + 1,) + np.shape(c0))
        p[0] = 1.0 + c0 * c0
        if order >= 1:
            p[1] = 2.0 * c0
        if order >= 2:
            p[2] = 1.0
        q = _urecip(p, max(order - 1, 0))
        d[0] = _libm("atan", c0)
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
    out = a._const(d[a.degree])
    for k in range(a.degree - 1, -1, -1):
        out = out * h + d[k]
    return out


@lru_cache(maxsize=None)
def _monomial_parents(top: int) -> tuple:
    """(parent position, axis, kept) of every multi-index of simplex(top)
    after the constant: the multi-index is its parent plus one in `axis`,
    and it is `kept` when its total degree is below `top`, so that it is the
    parent of later ones."""
    pos = index_map(top)
    out = []
    for s in simplex(top)[1:]:
        axis = next(a for a in range(3) if s[a])
        parent = list(s)
        parent[axis] -= 1
        out.append((pos[tuple(parent)], axis, sum(s) < top))
    return tuple(out)


def _monomials(args: np.ndarray, top: int, degree: int):
    """Raw coefficients of args[0]^i args[1]^j args[2]^l for every (i, j, l)
    in simplex(top), in that order, truncated at `degree`.

    `args` stacks three raw degree-`degree` series (shape
    ``(3, n_terms(degree)[, N])``).  Each monomial is its parent times one
    argument.  Only the monomials of the previous total degree are held as
    parents, so that at most two total degrees are in memory at once.
    """
    one = np.zeros(args.shape[1:])
    one[0] = 1.0
    yield one
    parents, current = {0: one}, {}
    for m, (parent, axis, kept) in enumerate(_monomial_parents(top), 1):
        if parent not in parents:
            # the first multi-index of the next total degree
            parents, current = current, {}
        mono = (args[axis] if parent == 0 else
                _raw_mul(parents[parent], args[axis], degree))
        if kept:
            current[m] = mono
        yield mono


def _compose(coeffs: np.ndarray, args: np.ndarray, top: int,
             degree: int) -> np.ndarray:
    """Raw series sum_sigma coeffs[k, sigma] * args^sigma, truncated at
    `degree`, for each polynomial k of a stack (shape
    ``(k, n_terms(top)[, N])``); the terms are added in the order of
    simplex(top).

    A monomial whose coefficient is zero in every polynomial and column is
    skipped, so that an overflowing monomial there gives no 0 * inf.
    """
    used = coeffs != 0.0
    used = used.any(axis=0) if used.ndim == 2 else used.any(axis=(0, 2))
    acc = np.zeros((coeffs.shape[0],) + args.shape[1:])
    for m, mono in enumerate(_monomials(args, top, degree)):
        if used[m]:
            acc += coeffs[:, m, None] * mono
    return acc


def poly_compose(poly: TaylorValue, args) -> TaylorValue:
    """Substitute three series for the offsets of a polynomial series.

    `poly` is read as a polynomial in its own offsets; `args` are three
    TaylorValues (sharing a base point and degree) giving those offsets as
    functions of the new variables.  Returns the composition truncated at
    the degree of `args`.  In a batch, a coefficient of `poly` is skipped
    only when it is zero in every column.
    """
    s1, s2, s3 = args
    s1._compat(s2)
    s1._compat(s3)
    acc = _compose(poly.coeffs[None],
                   np.array([s1.coeffs, s2.coeffs, s3.coeffs]),
                   poly.degree, s1.degree)
    return TaylorValue._trusted(s1.point, s1.degree, acc[0])
