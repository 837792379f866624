"""Feedback transformations and their action on systems.

A feedback map is a pair Phi = (X(x), U(x, u)) with X' and U_u nonvanishing.
Its prolonged action on base points is

    (x, u, u1)  ->  (X(x), U(x, u), U_x F(x,u,u1) + U_u u1)

and the transformed system G is pinned down by G(Psi(p)) = X'(x) F(p) for the
prolonged map Psi above.  G generally has no closed form, so it is exposed as
a series provider: the degree-`order` series of G at Psi(p) is obtained by
composing the series of X' F with the truncated inverse of the series of Psi
(solved degree by degree against the Jacobian).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SingularTransform, at, check_columns
from .expr import Expression, parse, substitute, to_string
from .systems import Box
from .taylor import (TaylorValue, _compose, index_map, lift_variables,
                     n_terms, poly_compose)


@dataclass(frozen=True)
class FeedbackMap:
    """Phi = (X(x), U(x, u)); `domain` is the (x, u) box it is used on."""

    X: Expression
    U: Expression
    domain: tuple = ((-1.0, 1.0), (-1.0, 1.0))

    @classmethod
    def from_strings(cls, x_text, u_text, domain=((-1.0, 1.0), (-1.0, 1.0))):
        return cls(X=parse(x_text, {"x"}), U=parse(u_text, {"x", "u"}),
                   domain=tuple(tuple(map(float, iv)) for iv in domain))


def _xu_series(mapping: FeedbackMap, point, degree):
    """Series of X, X', U, U_x, U_u at the base point (or batch), at the
    given degree."""
    xl, ul, _ = lift_variables(point, degree + 1)
    X_hi = mapping.X({"x": xl})
    if not isinstance(X_hi, TaylorValue):
        X_hi = TaylorValue.constant(float(X_hi), xl.point, degree + 1)
    U_hi = mapping.U({"x": xl, "u": ul})
    if not isinstance(U_hi, TaylorValue):
        U_hi = TaylorValue.constant(float(U_hi), xl.point, degree + 1)
    return (X_hi.truncated(degree), X_hi.derivative(0),
            U_hi.truncated(degree), U_hi.derivative(0), U_hi.derivative(1))


def pushforward_point(mapping: FeedbackMap, system, p):
    """Image of a base point under the prolonged action."""
    X, Xp, U, Ux, Uu = _xu_series(mapping, (p[0], p[1], p[2]), 0)
    fval = float(system.taylor(p, 0).const)
    return (X.const, U.const, Ux.const * fval + Uu.const * float(p[2]))


#: A prolonged Jacobian with a condition number above this is singular.
COND_MAX = 1e12


def _prolonged(mapping: FeedbackMap, f_tv: TaylorValue):
    """(X', (the three components of Psi)) as series at the point of f_tv."""
    p, degree = f_tv.point, f_tv.degree
    X, Xp, U, Ux, Uu = _xu_series(mapping, p, degree)
    u1 = TaylorValue.variable(2, p, degree)
    return Xp, (X, U, Ux * f_tv + Uu * u1)


def _linear_positions(degree):
    pos = index_map(degree)
    return [pos[(1, 0, 0)], pos[(0, 1, 0)], pos[(0, 0, 1)]]


def _jacobian(psi):
    """d psi_i / d p_m at the base point from series of degree >= 1: one
    3x3 matrix, or for a batch one per column (shape (N, 3, 3))."""
    e = _linear_positions(psi[0].degree)
    return np.moveaxis(np.array([[psi[i].coeffs[e[m]] for m in range(3)]
                                 for i in range(3)]), (0, 1), (-2, -1))


def _invert_series(psi, q0):
    """Series inverse of Psi around its base point, by graded sweeps.

    `psi` are the three component series (degree >= 1) at the source point;
    the result are three series at `q0 = Psi(p)` expressing the source
    offsets in terms of the image offsets, correct to the common truncation
    degree.  In a batch every column has its own Jacobian.

    The linear solve gives the inverse to order 1.  Sweep `top` (2, 3, ...,
    degree) composes the nonlinear parts of Psi with that inverse at degree
    `top`, on the monomials of total degree <= `top`, and solves again: the
    inverse is then correct to order `top`, and its higher orders are left
    to the next sweep.
    """
    degree = psi[0].degree
    e = _linear_positions(degree)
    jac = _jacobian(psi)
    stack = jac.reshape(-1, 3, 3)
    finite = np.isfinite(stack).all(axis=(1, 2))
    cond = np.full(len(stack), np.inf)
    if finite.any():
        cond[finite] = np.linalg.cond(stack[finite])
    cond = cond.reshape(jac.shape[:-2])
    check_columns(~(cond <= COND_MAX), lambda i: SingularTransform(
        "prolonged Jacobian is singular (condition %.3e)" % at(cond, i)))
    jinv = np.linalg.inv(jac)

    # the image offsets as raw series; the constant is NaN where q0 is not
    # finite, as for a coordinate series minus its constant
    q = np.array(q0)
    qdev = np.zeros((3,) + psi[0].coeffs.shape)
    qdev[:, 0] = q - q
    qdev[[0, 1, 2], e] = 1.0

    # nonlinear parts of Psi (constant and linear coefficients removed)
    nonlin = np.array([c.coeffs for c in psi])
    nonlin[:, [0] + e] = 0.0

    def linear_solve(rhs):
        return np.array([jinv[..., m, 0] * rhs[0] + jinv[..., m, 1] * rhs[1]
                         + jinv[..., m, 2] * rhs[2] for m in range(3)])

    xi = linear_solve(qdev)
    for top in range(2, degree + 1):
        n = n_terms(top)
        xi[:, :n] = linear_solve(
            qdev[:, :n] - _compose(nonlin[:, :n], xi[:, :n], top, top))
    return tuple(TaylorValue(q0, degree, c) for c in xi)


def transformed_taylor(mapping: FeedbackMap, f_tv: TaylorValue):
    """(image point, series of the transformed system G at the image point).

    For a batch `f_tv` the image point is three arrays, one entry per column.
    """
    Xp, psi = _prolonged(mapping, f_tv)
    q0 = tuple(c.const for c in psi)
    rhs = Xp * f_tv
    if f_tv.degree == 0:
        return q0, TaylorValue.constant(rhs.const, q0, 0)
    xi = _invert_series(psi, q0)
    return q0, poly_compose(rhs, xi)


def transformed_jet(mapping: FeedbackMap, system, p, order) -> TaylorValue:
    """Jet (degree-`order` series) of the transformed system at the image of
    `p`."""
    return transformed_taylor(mapping, system.taylor(p, order))[1]


class TransformedSystem:
    """The pushforward of a system, exposed as a series provider.

    There is no closed-form expression for the transformed right-hand side,
    so series are produced at source points; grids are sampled on the source
    domain and mapped forward.
    """

    def __init__(self, mapping: FeedbackMap, base, name=None):
        self.mapping = mapping
        self.base = base
        self.name = name or ("pushforward(%s)" % getattr(base, "name", "?"))

    @property
    def source_domain(self) -> Box:
        """Domain of the innermost expression-backed system; transformed
        systems are parametrized by it even when nested."""
        base = self.base
        while isinstance(base, TransformedSystem):
            base = base.base
        return base.domain

    def taylor_at_source(self, p, degree):
        """(image point, series of the transformed system there).

        `p` is a point of the source parametrization, or a batch of them as
        three arrays; for nested transforms it refers to the innermost
        system's domain.
        """
        if isinstance(self.base, TransformedSystem):
            _, f_tv = self.base.taylor_at_source(p, degree)
        else:
            f_tv = self.base.taylor(p, degree)
        return transformed_taylor(self.mapping, f_tv)

    def jacobian_det(self, p):
        """det dPsi/dp of the prolonged map from the source parametrization
        to the image, nested transforms composed, at `p` (a point of the
        source parametrization, or a batch of them as three arrays)."""
        if isinstance(self.base, TransformedSystem):
            det = self.base.jacobian_det(p)
            _, f_tv = self.base.taylor_at_source(p, 1)
        else:
            det, f_tv = 1.0, self.base.taylor(p, 1)
        _, psi = _prolonged(self.mapping, f_tv)
        return det * np.linalg.det(_jacobian(psi))

    def image_box(self, counts=(5, 5, 5)) -> Box:
        """Bounding box of the sampled image of the source domain."""
        grid = np.array(self.source_domain.grid(counts))
        q, _ = self.taylor_at_source(tuple(grid.T), 0)
        return Box(x=(q[0].min(), q[0].max()), u=(q[1].min(), q[1].max()),
                   u1=(q[2].min(), q[2].max()))


@dataclass(frozen=True)
class InvertibilityReport:
    ok: bool
    min_abs_xp: float
    min_abs_uu: float
    violation: tuple = None

    def __str__(self):
        head = "ok" if self.ok else "VIOLATION at (x, u) = %r" % (self.violation,)
        return "%s; min |X'| = %.6g, min |U_u| = %.6g" % (
            head, self.min_abs_xp, self.min_abs_uu)


def invertibility_check(mapping: FeedbackMap, domain=None, n_samples=9,
                        eps=1e-8, seed=0) -> InvertibilityReport:
    """Sample |X'| and |U_u| on a grid plus random points of the (x, u) box."""
    (xlo, xhi), (ulo, uhi) = domain if domain is not None else mapping.domain
    rng = np.random.default_rng(seed)
    xs = list(np.linspace(xlo, xhi, n_samples))
    us = list(np.linspace(ulo, uhi, n_samples))
    pts = [(x, u) for x in xs for u in us]
    pts += [(rng.uniform(xlo, xhi), rng.uniform(ulo, uhi))
            for _ in range(n_samples)]
    xs = np.array([x for x, _ in pts], dtype=float)
    us = np.array([u for _, u in pts], dtype=float)
    _, Xp, _, _, Uu = _xu_series(mapping, (xs, us, np.zeros(xs.size)), 0)
    axp, auu = np.abs(Xp.const), np.abs(Uu.const)
    bad = np.flatnonzero((axp <= eps) | (auu <= eps))
    violation = (float(xs[bad[0]]), float(us[bad[0]])) if bad.size else None
    return InvertibilityReport(ok=violation is None,
                               min_abs_xp=float(axp.min()),
                               min_abs_uu=float(auu.min()), violation=violation)


def compose_maps(outer: FeedbackMap, inner: FeedbackMap) -> FeedbackMap:
    """The map Phi_outer o Phi_inner, built by composing the expressions."""
    x_ast = substitute(outer.X.ast, {"x": inner.X.ast})
    u_ast = substitute(outer.U.ast, {"x": inner.X.ast, "u": inner.U.ast})
    return FeedbackMap(X=parse(to_string(x_ast), {"x"}),
                       U=parse(to_string(u_ast), {"x", "u"}),
                       domain=inner.domain)


def random_feedback(seed, domain=((-1.0, 1.0), (-1.0, 1.0))) -> FeedbackMap:
    """Seeded random map X = a + b x + c x^2, U = d + e u + g x + h x u + m u^2.

    The linear parts b, e are bounded away from zero and the quadratic
    coefficients are shrunk until the invertibility check passes on the
    domain, so the result is always a valid feedback map; deterministic in
    the seed.
    """
    rng = np.random.default_rng(int(seed))
    a, d, gcoef = rng.uniform(-0.3, 0.3, size=3)
    b, e = rng.uniform(0.6, 1.4, size=2)
    c, h, m = rng.uniform(-0.15, 0.15, size=3)
    for _ in range(60):
        x_text = "%r + %r*x + %r*x^2" % (float(a), float(b), float(c))
        u_text = "%r + %r*u + %r*x + %r*x*u + %r*u^2" % (
            float(d), float(e), float(gcoef), float(h), float(m))
        mapping = FeedbackMap.from_strings(x_text, u_text, domain)
        if invertibility_check(mapping, domain).ok:
            return mapping
        c, h, m = 0.5 * c, 0.5 * h, 0.5 * m
    raise ConfigError("could not scale random map to invertibility")
