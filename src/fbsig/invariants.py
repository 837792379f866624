"""Differential invariants of the feedback action and the signature vector.

Implements the order-2 invariant J, the order-3 invariant K, the three
invariant derivations nabla_1..3, their pairwise commutators (which provide
independent bracket-based values J_br, K_br, L_br), and the 14-component
signature vector

    (j, j1, j2, j3, j11, j12, j13, j22, j23, j33, k, k1, k2, k3).

A jet of a system at a point is its truncated series, a TaylorValue (see
:mod:`fbsig.taylor`).  Every formula is evaluated generically over a "jet
getter", so the same code path serves plain numbers (the partials of a jet
at its point) and TaylorValues (pullbacks as truncated series in the base
variables, at one point or at a batch of points, one column each).  The
u1-coefficient of nabla_3 carries the factor f on f_xu1; the variant without
that factor fails the equivariance checks (see tests), so the corrected form
is used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (NonRegular, OrderExceeded, RelationViolation, at,
                     check_columns)
from .taylor import TaylorValue, index_map

#: Default scaled magnitude below which a regularity flag fails.
EPS_REG = 1e-8

#: Component names of the signature vector, in storage order.
SIGNATURE_COMPONENTS = ("j", "j1", "j2", "j3", "j11", "j12", "j13",
                        "j22", "j23", "j33", "k", "k1", "k2", "k3")


def system_jet(system, p, order) -> TaylorValue:
    """Jet of a system (anything with .taylor(p, degree)) at a point: its
    degree-`order` series."""
    return system.taylor(p, order)


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


def _finite_and_magnitudes(jet):
    """(finite, scaled magnitudes of f, f_u1, f_u1u1, u1 f_u1 - f); the
    magnitudes are only computed where the derivatives are finite."""
    values = jet.partials
    finite = np.isfinite(values).all(axis=0)
    if not finite.all():
        return finite, None
    pos = index_map(jet.degree)
    f, fz, fzz = (values[pos[s]] for s in ((0, 0, 0), (0, 0, 1), (0, 0, 2)))
    denom = jet.point[2] * fz - f
    scale = np.maximum(np.maximum(1.0, abs(f)), abs(fz))
    return finite, tuple(abs(q) / scale for q in (f, fz, fzz, denom))


def regularity(jet, eps=EPS_REG) -> RegularityFlags:
    """Scaled nonvanishing flags of a jet at one point.

    The scale is max(1, |f|, |f_u1|).
    """
    finite, mags = _finite_and_magnitudes(jet)
    if not finite:
        return RegularityFlags(False, False, False, False,
                               magnitudes=(np.nan,) * 4, finite=False)
    mags = tuple(float(m) for m in mags)
    return RegularityFlags(*(m > eps for m in mags), magnitudes=mags)


def _require_regular(jet, eps=EPS_REG):
    """Raise NonRegular at the first failing test, in the order: a
    non-finite derivative, then FLAG_NAMES.

    `jet` is a series at one point or a batch.  In a batch the error names
    the columns that fail the first test any column fails; the others go
    on.  Returns the flags of one point, None for a batch.
    """
    finite, mags = _finite_and_magnitudes(jet)
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

    rf, rz, rzz = 1.0 / f, 1.0 / fz, 1.0 / fzz
    a = fuu * u1 - 2.0 * fu * fx
    return (-u1 * fxu + 2.0 * u1 * fu * fu * rf * rz - 2.0 * fu * fu * rz * rz
            + (a + f * fxu) * rz - u1 * a * rf
            + (c1 * rz + c2 * rf + c3) * rzz * rzz
            + (c4 * rf + c5 * rz + c6) * rzz)


def _nabla_formula(g, u1, zero):
    """Coefficients (A, B, C) of nabla_1, nabla_2 and nabla_3 as carrier
    values."""
    f = g(0, 0, 0)
    fx = g(1, 0, 0)
    fu = g(0, 1, 0)
    fz = g(0, 0, 1)
    fuz = g(0, 1, 1)
    fxz = g(1, 0, 1)
    fzz = g(0, 0, 2)
    rz = 1.0 / fz
    B1 = (u1 * fz - f) * rz
    C1 = -(B1 * rz) * fu
    C2 = f * rz
    C3 = (fx * fz + fu - u1 * fuz - f * fxz) / fzz - C1
    return ((zero, B1, C1), (zero, zero, C2), (f, C2, C3))


def _check_index(i):
    if i not in (1, 2, 3):
        raise ValueError("derivation index must be 1, 2 or 3")


def _series_getter(f_tv: TaylorValue, degree: int):
    """Getter returning degree-`degree` series of the partials of f_tv."""
    partials = {(0, 0, 0): f_tv}
    cache = {}

    def g(i, j, l):
        key = (i, j, l)
        if key not in cache:
            cache[key] = _partial(partials, key).truncated(degree)
        return cache[key]

    return g


def _partial(partials, key):
    """The partial `key` of the series partials[(0, 0, 0)], cached in
    `partials`.  Each partial is derived from the one a single derivative
    below it along its last differentiated axis, so the derivatives are
    always taken in the axis order x, u, u1.  (A recursive closure would
    form a reference cycle and hold every block's partials until the cyclic
    garbage collector runs.)"""
    if key not in partials:
        axis = max(a for a in range(3) if key[a])
        below = tuple(c - (a == axis) for a, c in enumerate(key))
        partials[key] = _partial(partials, below).derivative(axis)
    return partials[key]


# -- point evaluation ----------------------------------------------------------


def eval_J(jet: TaylorValue, eps=EPS_REG):
    """The basic order-2 invariant f^2 f_u1u1 / ((u1 f_u1 - f) f_u1^2)."""
    _require_regular(jet, eps)
    return _at_jet(_J_formula, jet)


def eval_K(jet: TaylorValue, eps=EPS_REG):
    """The order-3 invariant in closed form (cross-checked by the brackets)."""
    if jet.degree < 3:
        raise OrderExceeded("K needs a jet of order >= 3")
    _require_regular(jet, eps)
    return _at_jet(_K_formula, jet)


def _at_jet(formula, jet):
    """`formula` on the partials of a jet (of eval_J, eval_K): a float at
    one point, one value per column for a batch."""
    values, pos = jet.partials, index_map(jet.degree)
    if values.ndim == 1:
        values = values.tolist()
    return formula(lambda *s: values[pos[s]], jet.point[2])


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
    _check_index(i)
    return _nabla_fields(f_tv, degree, eps)[i - 1]


def _nabla_fields(f_tv: TaylorValue, degree: int, eps=EPS_REG) -> tuple:
    """The fields of nabla_1..3 from one getter and one regularity check."""
    if f_tv.degree < degree + 2:
        raise OrderExceeded("nabla coefficients at degree %d need the system "
                            "expanded to degree %d" % (degree, degree + 2))
    _require_regular(f_tv, eps)
    g = _series_getter(f_tv, degree)
    u1 = TaylorValue.variable(2, f_tv.point, degree)
    zero = TaylorValue.constant(0.0, f_tv.point, degree)
    return tuple(DerivationField(i, coeffs) for i, coeffs
                 in enumerate(_nabla_formula(g, u1, zero), 1))


def apply_nabla(i: int, g_tv: TaylorValue, jet: TaylorValue,
                eps=EPS_REG) -> float:
    """nabla_i applied to a pulled-back scalar: A g_x + B g_u + C g_u1 at
    the common base point of the series `g_tv` and the jet."""
    if g_tv.degree < 1:
        raise OrderExceeded("apply_nabla needs a series of degree >= 1")
    if g_tv.point != jet.point:
        raise ValueError("series and jet must share the base point")
    _check_index(i)
    _require_regular(jet, eps)
    coeffs = _nabla_formula(lambda *s: jet.partial(s), jet.point[2], 0.0)[i - 1]
    grads = (g_tv.partial((1, 0, 0)), g_tv.partial((0, 1, 0)),
             g_tv.partial((0, 0, 1)))
    return float(sum(c * d for c, d in zip(coeffs, grads)))


# -- commutators ---------------------------------------------------------------


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


def bracket(i: int, j: int, jet: TaylorValue, eps=EPS_REG) -> np.ndarray:
    """Commutator [nabla_i, nabla_j] of the pulled-back fields at the point."""
    if jet.degree < 3:
        raise OrderExceeded("brackets need a jet of order >= 3")
    fields = {k: f for k, f in zip((1, 2, 3), _nabla_fields(jet, 1, eps))}
    return _commutator(fields[i], fields[j])


def bracket_scalars(jet: TaylorValue, eps=EPS_REG):
    """(J_br, K_br, L_br) extracted from the three commutation relations.

    Also asserts the structural zeros of the relations: the x and u1
    components of [n2, n1] (the latter relative to J_br C1) and the x and u
    components of [n3, n1], each to 1e-6 of the largest constant involved
    (at least 1).  A violation signals a formula transcription problem
    rather than a numerical one.
    """
    if jet.degree < 3:
        raise OrderExceeded("brackets need a jet of order >= 3")
    v1, v2, v3 = _nabla_fields(jet, 1, eps)
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
        if abs(resid) > 1e-6 * scale:
            raise RelationViolation(
                "%s residual %.3e exceeds 1.0e-06 x scale %.3e"
                % (label, abs(resid), scale))

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
    fields = _nabla_formula(g, u1, zero)
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


def signature_vector(jet: TaylorValue, eps=EPS_REG) -> SignatureVector:
    """All 14 components from a jet of order >= 4.

    These are the constants of :func:`signature_series` at degree 0; nothing
    here uses finite differences, so the nested values are exact up to
    rounding.
    """
    if jet.degree < 4:
        raise OrderExceeded("signature_vector needs a jet of order >= 4")
    flags = _require_regular(jet, eps)
    series = signature_series(jet, 0, eps)
    return SignatureVector(*(c.const for c in series), flags=flags)
