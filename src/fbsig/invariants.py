"""Differential invariants of the feedback action and the signature vector.

Implements the order-2 invariant J, the order-3 invariant K, the three
invariant derivations nabla_1..3, their pairwise commutators (which provide
independent bracket-based values J_br, K_br, L_br), and the 14-component
signature vector

    (j, j1, j2, j3, j11, j12, j13, j22, j23, j33, k, k1, k2, k3).

Every formula is evaluated generically over a "jet getter", so the same code
path serves plain numbers (values at a point) and TaylorValues (pullbacks as
truncated series in the base variables, at one point or at a batch of
points, one column each).  The u1-coefficient of nabla_3
carries the factor f on f_xu1; the variant without that factor fails the
equivariance checks (see tests), so the corrected form is used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (NonRegular, OrderExceeded, RelationViolation, at,
                     check_columns)
from .taylor import TaylorValue, index_map, n_terms, _factorial_products

#: Default scaled magnitude below which a regularity flag fails.
EPS_REG = 1e-8

#: Component names of the signature vector, in storage order.
SIGNATURE_COMPONENTS = ("j", "j1", "j2", "j3", "j11", "j12", "j13",
                        "j22", "j23", "j33", "k", "k1", "k2", "k3")


class Jet:
    """Partial derivatives f_sigma of a system at a point, up to `order`."""

    __slots__ = ("point", "order", "values")

    def __init__(self, point, order, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (n_terms(order),):
            raise ValueError("expected %d jet entries for order %d"
                             % (n_terms(order), order))
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "point", tuple(float(c) for c in point))
        object.__setattr__(self, "order", int(order))
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError("Jet is immutable")

    @classmethod
    def from_taylor(cls, tv: TaylorValue) -> "Jet":
        return cls(tv.point, tv.degree,
                   tv.coeffs * _factorial_products(tv.degree))

    def to_taylor(self, degree=None) -> TaylorValue:
        degree = self.order if degree is None else degree
        if degree > self.order:
            raise OrderExceeded("jet order %d below requested degree %d"
                                % (self.order, degree))
        coeffs = self.values / _factorial_products(self.order)
        return TaylorValue(self.point, degree, coeffs[:n_terms(degree)])

    def partial(self, sigma) -> float:
        sigma = tuple(int(s) for s in sigma)
        if sum(sigma) > self.order:
            raise OrderExceeded("partial %s exceeds jet order %d"
                                % (sigma, self.order))
        return float(self.values[index_map(self.order)[sigma]])

    def __repr__(self):
        return "Jet(point=%r, order=%d)" % (self.point, self.order)


def system_jet(system, p, order) -> Jet:
    """Jet of a system (anything with .taylor(p, degree)) at a point."""
    return Jet.from_taylor(system.taylor(p, order))


def _resolve_jet(source, p, order) -> Jet:
    """Accept either a Jet or a (system, point) pair."""
    if isinstance(source, Jet):
        return source
    if p is None:
        raise TypeError("a base point is required with a system argument")
    return system_jet(source, p, order)


# -- regularity ---------------------------------------------------------------


#: Names of the regularity tests, in the order they are checked.
FLAG_NAMES = ("f", "f_u1", "f_u1u1", "u1*f_u1 - f")

#: Reason given for a jet with an infinite or NaN derivative.
NON_FINITE = "non-finite jet"


@dataclass(frozen=True)
class RegularityFlags:
    """Nonvanishing tests for f, f_u1, f_u1u1 and the denominator u1 f_u1 - f.

    A jet with a non-finite derivative is not tested (`finite` is False and
    the magnitudes are NaN); it fails as a whole.
    """

    f_nonzero: bool
    fu1_nonzero: bool
    fu1u1_nonzero: bool
    denom_nonzero: bool
    magnitudes: tuple
    finite: bool = True

    @property
    def all_ok(self):
        return (self.finite and self.f_nonzero and self.fu1_nonzero
                and self.fu1u1_nonzero and self.denom_nonzero)

    def failing(self):
        if not self.finite:
            return (NON_FINITE,)
        flags = (self.f_nonzero, self.fu1_nonzero,
                 self.fu1u1_nonzero, self.denom_nonzero)
        return tuple(n for n, ok in zip(FLAG_NAMES, flags) if not ok)


def _derivatives(source):
    """All partials f_sigma of a Jet or a series (per column for a batch)."""
    if isinstance(source, Jet):
        return source.order, source.values
    fac = _factorial_products(source.degree)
    return source.degree, source.coeffs * (fac if source.coeffs.ndim == 1
                                           else fac[:, None])


def _finite_and_magnitudes(source):
    """(finite, scaled magnitudes of f, f_u1, f_u1u1, u1 f_u1 - f); the
    magnitudes are only computed where the derivatives are finite."""
    order, values = _derivatives(source)
    finite = np.isfinite(values).all(axis=0)
    if not finite.all():
        return finite, None
    pos = index_map(order)
    f, fz, fzz = (values[pos[s]] for s in ((0, 0, 0), (0, 0, 1), (0, 0, 2)))
    denom = source.point[2] * fz - f
    scale = np.maximum(np.maximum(1.0, abs(f)), abs(fz))
    return finite, tuple(abs(q) / scale for q in (f, fz, fzz, denom))


def regularity(jet, eps=EPS_REG) -> RegularityFlags:
    """Scaled nonvanishing flags of one point (a Jet, or a series).

    The scale is max(1, |f|, |f_u1|).
    """
    finite, mags = _finite_and_magnitudes(jet)
    if not finite:
        return RegularityFlags(False, False, False, False,
                               magnitudes=(np.nan,) * 4, finite=False)
    mags = tuple(float(m) for m in mags)
    return RegularityFlags(*(m > eps for m in mags), magnitudes=mags)


def _require_regular(source, eps=EPS_REG):
    """Raise NonRegular at the first failing test, in the order: a
    non-finite derivative, then FLAG_NAMES.

    `source` is a Jet or a series.  In a batch the error names the columns
    that fail the first test any column fails; the others go on.  Returns
    the flags of one point, None for a batch.
    """
    finite, mags = _finite_and_magnitudes(source)
    check_columns(~finite, lambda i: NonRegular(NON_FINITE))
    for name, m in zip(FLAG_NAMES, mags):
        check_columns(~(m > eps), lambda i: NonRegular(name, at(m, i)))
    if np.ndim(finite) == 0:
        return RegularityFlags(True, True, True, True,
                               magnitudes=tuple(float(m) for m in mags))
    return None


# -- generic formula core -----------------------------------------------------
# Each invariant is written once, over a getter g(i, j, l) -> carrier value of
# f_sigma and a carrier value of the coordinate u1.


def _J_formula(g, u1):
    f = g(0, 0, 0)
    fz = g(0, 0, 1)
    fzz = g(0, 0, 2)
    return (f * f * fzz) / ((u1 * fz - f) * fz * fz)


def _K_formula(g, u1):
    f = g(0, 0, 0)
    fx = g(1, 0, 0)
    fu = g(0, 1, 0)
    fz = g(0, 0, 1)
    fxu = g(1, 1, 0)
    fuu = g(0, 2, 0)
    fuz = g(0, 1, 1)
    fxz = g(1, 0, 1)
    fzz = g(0, 0, 2)
    fzzz = g(0, 0, 3)
    fuzz = g(0, 1, 2)
    fxzz = g(1, 0, 2)
    fuuz = g(0, 2, 1)
    fxuz = g(1, 1, 1)

    c1 = -f * fu * fxz * fzzz - u1 * fu * fuz * fzzz + fu * fu * fzzz
    c2 = (u1 * (fu * fz * fuzz - fu * fu * fzzz - fx * fu * fz * fzzz
                + fx * fz * fz * fuzz)
          + u1 * u1 * fuz * (-fz * fuzz + fu * fzzz))
    c3 = (f * fxz * fuzz + fx * fu * fzzz - fu * fuzz - fx * fz * fuzz
          + u1 * (fu * fxz * fzzz - fz * fxz * fuzz + fuz * fuzz))
    c4 = (-u1 * (2.0 * fz * fx * fuz - fz * fu * fxz + fu * fuz
                 + fz * fuu + fz * fz * fxu)
          + u1 * u1 * (fz * fuuz - fu * fuzz + fuz * fuz))
    c5 = (f * fu * fxzz - f * fxz * fuz + fu * fuz
          + u1 * (fu * fuzz - fuz * fuz))
    c6 = (fuu - fu * fxz + 2.0 * fx * fuz + fz * fxu - f * fxuz
          + u1 * (fz * fxuz - fuuz + fxz * fuz - fu * fxzz))

    return (-u1 * fxu + 2.0 * u1 * fu * fu / (f * fz) - 2.0 * fu * fu / (fz * fz)
            + (fuu * u1 - 2.0 * fu * fx + f * fxu) / fz
            - u1 * (fuu * u1 - 2.0 * fu * fx) / f
            + c1 / (fz * fzz * fzz) + c2 / (f * fzz * fzz) + c3 / (fzz * fzz)
            + c4 / (f * fzz) + c5 / (fz * fzz) + c6 / fzz)


def _nabla_formula(i, g, u1, zero):
    """Coefficients (A, B, C) of nabla_i as carrier values."""
    f = g(0, 0, 0)
    fz = g(0, 0, 1)
    if i == 1:
        fu = g(0, 1, 0)
        B = (u1 * fz - f) / fz
        C = ((f - u1 * fz) / (fz * fz)) * fu
        return (zero, B, C)
    if i == 2:
        return (zero, zero, f / fz)
    if i == 3:
        fx = g(1, 0, 0)
        fu = g(0, 1, 0)
        fuz = g(0, 1, 1)
        fxz = g(1, 0, 1)
        fzz = g(0, 0, 2)
        C = ((fx * fz + fu - u1 * fuz - f * fxz) / fzz
             + ((u1 * fz - f) / (fz * fz)) * fu)
        return (f, f / fz, C)
    raise ValueError("derivation index must be 1, 2 or 3")


def _jet_getter(jet: Jet):
    return lambda i, j, l: jet.partial((i, j, l))


def _series_getter(f_tv: TaylorValue, degree: int):
    """Getter returning degree-`degree` series of the partials of f_tv."""
    cache = {}

    def g(i, j, l):
        key = (i, j, l)
        if key not in cache:
            tv = f_tv
            for axis, count in enumerate(key):
                for _ in range(count):
                    tv = tv.derivative(axis)
            cache[key] = tv.truncated(degree)
        return cache[key]

    return g


# -- point evaluation ----------------------------------------------------------


def eval_J(jet: Jet, eps=EPS_REG) -> float:
    """The basic order-2 invariant f^2 f_u1u1 / ((u1 f_u1 - f) f_u1^2)."""
    _require_regular(jet, eps)
    return float(_J_formula(_jet_getter(jet), jet.point[2]))


def eval_K(jet: Jet, eps=EPS_REG) -> float:
    """The order-3 invariant in closed form (cross-checked by the brackets)."""
    if jet.order < 3:
        raise OrderExceeded("K needs a jet of order >= 3")
    _require_regular(jet, eps)
    return float(_K_formula(_jet_getter(jet), jet.point[2]))


# -- pullbacks and derivations --------------------------------------------------

_FIELD_ORDER = {"J": 2, "K": 3}


def pullback_from_taylor(field: str, f_tv: TaylorValue, degree: int,
                         eps=EPS_REG) -> TaylorValue:
    """Invariant pulled back along a system, as a degree-`degree` series."""
    if field not in _FIELD_ORDER:
        raise ValueError("field must be 'J' or 'K'")
    need = degree + _FIELD_ORDER[field]
    if f_tv.degree < need:
        raise OrderExceeded("pullback of %s at degree %d needs the system "
                            "expanded to degree %d" % (field, degree, need))
    _require_regular(f_tv, eps)
    g = _series_getter(f_tv, degree)
    u1 = TaylorValue.variable(2, f_tv.point, degree)
    formula = _J_formula if field == "J" else _K_formula
    return formula(g, u1)


def pullback(field: str, system, p, degree: int, eps=EPS_REG) -> TaylorValue:
    return pullback_from_taylor(field, system.taylor(p, degree + _FIELD_ORDER[field]),
                                degree, eps)


@dataclass(frozen=True)
class DerivationField:
    """Coefficients (A, B, C) of an invariant derivation, as series."""

    index: int
    components: tuple

    def constants(self):
        return tuple(c.const for c in self.components)


def nabla_from_taylor(i: int, f_tv: TaylorValue, degree: int,
                      eps=EPS_REG) -> DerivationField:
    """nabla_i pulled back along a system, components as degree-D series."""
    return _nabla_fields(f_tv, degree, eps, (i,))[0]


def _nabla_fields(f_tv: TaylorValue, degree: int, eps=EPS_REG,
                  indices=(1, 2, 3)) -> tuple:
    """The fields of nabla_i, i in `indices`, from one getter and one
    regularity check."""
    if f_tv.degree < degree + 2:
        raise OrderExceeded("nabla coefficients at degree %d need the system "
                            "expanded to degree %d" % (degree, degree + 2))
    _require_regular(f_tv, eps)
    g = _series_getter(f_tv, degree)
    u1 = TaylorValue.variable(2, f_tv.point, degree)
    zero = TaylorValue.constant(0.0, f_tv.point, degree)
    return tuple(DerivationField(i, tuple(_nabla_formula(i, g, u1, zero)))
                 for i in indices)


def nabla(i: int, system, p, degree: int, eps=EPS_REG) -> DerivationField:
    return nabla_from_taylor(i, system.taylor(p, degree + 2), degree, eps)


def apply_nabla(i: int, g_tv: TaylorValue, source, p=None,
                eps=EPS_REG) -> float:
    """nabla_i applied to a pulled-back scalar: A g_x + B g_u + C g_u1 at p.

    `source` is a Jet at the series' base point, or a system together with
    the point `p`.
    """
    jet = _resolve_jet(source, p, 2)
    if g_tv.degree < 1:
        raise OrderExceeded("apply_nabla needs a series of degree >= 1")
    if g_tv.point != jet.point:
        raise ValueError("series and jet must share the base point")
    _require_regular(jet, eps)
    coeffs = _nabla_formula(i, _jet_getter(jet), jet.point[2], 0.0)
    grads = (g_tv.partial((1, 0, 0)), g_tv.partial((0, 1, 0)),
             g_tv.partial((0, 0, 1)))
    return float(sum(c * d for c, d in zip(coeffs, grads)))


# -- commutators ---------------------------------------------------------------


def _bracket_fields(jet: Jet, eps=EPS_REG):
    return _nabla_fields(jet.to_taylor(), 1, eps)


def _commutator(va, vb):
    """[va, vb] at the base point, from degree-1 component series."""
    a0 = [c.const for c in va.components]
    b0 = [c.const for c in vb.components]
    out = np.zeros(3)
    for m in range(3):
        acc = 0.0
        for n in range(3):
            e = [0, 0, 0]
            e[n] = 1
            acc += a0[n] * vb.components[m].partial(e)
            acc -= b0[n] * va.components[m].partial(e)
        out[m] = acc
    return out


def bracket(i: int, j: int, source, p=None, eps=EPS_REG) -> np.ndarray:
    """Commutator [nabla_i, nabla_j] of the pulled-back fields at the point."""
    jet = _resolve_jet(source, p, 4)
    if jet.order < 3:
        raise OrderExceeded("brackets need a jet of order >= 3")
    fields = {k: f for k, f in zip((1, 2, 3), _bracket_fields(jet, eps))}
    return _commutator(fields[i], fields[j])


def bracket_scalars(source, p=None, eps=EPS_REG, tol=1e-6):
    """(J_br, K_br, L_br) extracted from the three commutation relations.

    Also asserts the structural zeros of the relations: the x and u1
    components of [n2, n1] (the latter relative to J_br C1) and the x and u
    components of [n3, n1].  A violation signals a formula transcription
    problem rather than a numerical one.
    """
    jet = _resolve_jet(source, p, 4)
    if jet.order < 3:
        raise OrderExceeded("brackets need a jet of order >= 3")
    v1, v2, v3 = _bracket_fields(jet, eps)
    br21 = _commutator(v2, v1)
    br31 = _commutator(v3, v1)
    br32 = _commutator(v3, v2)

    _, B1, C1 = v1.constants()
    C2 = v2.constants()[2]
    C3 = v3.constants()[2]

    J_br = br21[1] / B1
    K_br = br31[2] / C2

    scale = max(1.0,
                max(abs(c) for f in (v1, v2, v3) for c in f.constants()),
                max(abs(c) for br in (br21, br31, br32) for c in br))
    checks = (
        ("[n2,n1] x-component", br21[0]),
        ("[n2,n1] u1-component vs J_br*C1", br21[2] - J_br * C1),
        ("[n3,n1] x-component", br31[0]),
        ("[n3,n1] u-component", br31[1]),
    )
    for label, resid in checks:
        if abs(resid) > tol * scale:
            raise RelationViolation(
                "%s residual %.3e exceeds %.1e x scale %.3e"
                % (label, abs(resid), tol, scale))

    L_br = (br32[2] + C3 - J_br * C1) / C2
    return float(J_br), float(K_br), float(L_br)


# -- the signature vector --------------------------------------------------------


@dataclass(frozen=True)
class SignatureVector:
    """The 14 invariant values at a point, plus its regularity flags."""

    j: float
    j1: float
    j2: float
    j3: float
    j11: float
    j12: float
    j13: float
    j22: float
    j23: float
    j33: float
    k: float
    k1: float
    k2: float
    k3: float
    flags: RegularityFlags

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in SIGNATURE_COMPONENTS])


def signature_series(f_tv: TaylorValue, degree: int, eps=EPS_REG) -> tuple:
    """The 14 components as degree-`degree` series at the point of `f_tv`.

    `f_tv` is the system expanded to degree 4 + `degree`.  J is pulled back
    at degree + 2, K and the fields of nabla_1..3 at degree + 1, and each
    nabla_i acts on a degree + 1 series as a directional derivative whose
    coefficients are truncated to `degree`.  The constants are the signature
    values; at degree 1 the first-order coefficients are its exact
    differential.  j_ij is the outer-then-inner nesting nabla_i(nabla_j(J))
    for i <= j; the order is that of SIGNATURE_COMPONENTS.  A batch `f_tv`
    gives batch components; a point that fails regularity raises NonRegular
    naming its column.
    """
    if f_tv.degree < degree + 4:
        raise OrderExceeded("the signature at degree %d needs the system "
                            "expanded to degree %d" % (degree, degree + 4))
    _require_regular(f_tv, eps)
    point, mid = f_tv.point, degree + 1
    JF = _J_formula(_series_getter(f_tv, mid + 1),
                    TaylorValue.variable(2, point, mid + 1))
    g = _series_getter(f_tv, mid)
    u1 = TaylorValue.variable(2, point, mid)
    zero = TaylorValue.constant(0.0, point, mid)
    fields = [_nabla_formula(i, g, u1, zero) for i in (1, 2, 3)]
    KF = _K_formula(g, u1)

    def gradient(series):
        return [series.derivative(axis) for axis in range(3)]

    def apply(coeffs, grad):
        return coeffs[0] * grad[0] + coeffs[1] * grad[1] + coeffs[2] * grad[2]

    gradJ = gradient(JF)
    Ji = [apply(fld, gradJ) for fld in fields]
    gradJi = [gradient(s) for s in Ji]
    gradK = gradient(KF)
    low = [[c.truncated(degree) for c in fld] for fld in fields]
    jij = [apply(low[i], gradJi[j]) for i in range(3) for j in range(i, 3)]
    ki = [apply(low[i], gradK) for i in range(3)]
    return (JF.truncated(degree), *(s.truncated(degree) for s in Ji), *jij,
            KF.truncated(degree), *ki)


def signature_vector(source, p=None, eps=EPS_REG) -> SignatureVector:
    """All 14 components from an order-4 jet (or a system and a point).

    These are the constants of :func:`signature_series` at degree 0; nothing
    here uses finite differences, so the nested values are exact up to
    rounding.
    """
    jet = _resolve_jet(source, p, 4)
    if jet.order < 4:
        raise OrderExceeded("signature_vector needs a jet of order >= 4")
    flags = _require_regular(jet, eps)
    series = signature_series(jet.to_taylor(), 0, eps)
    return SignatureVector(*(c.const for c in series), flags=flags)
