"""Orbit dimensions of the prolonged feedback action on jet spaces.

The feedback field a(x) d/dx + b(x,u) d/du prolongs to the space of k-jets
of systems; its generating function is

    phi = a_x f - a f_x - b f_u - (u1 b_u + f b_x) f_u1.

At a jet point the prolonged vector has base components (a, b, u1 b_u + f b_x)
and the component D_sigma(phi) + a f_{sigma+x} + b f_{sigma+u}
+ (u1 b_u + f b_x) f_{sigma+u1} on each jet coordinate f_sigma.  Spanning
these vectors over polynomial generators and reading off the numerical rank
verifies the orbit-dimension and invariant-count bookkeeping:

    rank_k = (k^2 + 7k + 6) / 2          for k >= 2 at regular points,
    # pure order-k invariants = k(k+1)/2 - 2,
    # invariants of order <= k = k^3/6 + k^2/2 - 5k/3 + 1.

A competing closed form for the orbit dimension itself,
(k+1)^2/2 + 23k/3 + 5/2, is non-integer for k = 2 and larger than the
ambient jet space; :func:`printed_orbit_dim` exposes it so reports can show
the discrepancy, and the rank experiments confirm the derived count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .taylor import TaylorValue, index_map, lift_variables, n_terms, simplex

#: Largest jet order for rank experiments (matrices stay at most 27 x 38).
MAX_K = 4


def jet_space_dim(k: int) -> int:
    """dim J^k = 3 base coordinates + C(k+3, 3) jet coordinates."""
    return 3 + n_terms(k)


def random_jet_point(order: int, seed, low=0.5, high=2.0) -> TaylorValue:
    """Seeded point of the `order`-jet space: a base point and derivatives
    f_sigma, all in [low, high], as the series with those partials; regular
    for low > 0 since f, f_u1 and f_u1u1 are then bounded away from zero."""
    rng = np.random.default_rng(int(seed))
    base = tuple(rng.uniform(low, high, size=3))
    values = rng.uniform(low, high, size=n_terms(order))
    return TaylorValue.from_partials(base, order, values)


@dataclass(frozen=True)
class Generator:
    """Polynomial feedback generator: a(x) = sum a_i x^i and
    b(x, u) = sum b[i][j] x^i u^j."""

    a_coeffs: tuple
    b_coeffs: tuple  # tuple of rows; row i holds coefficients of x^i u^j

    @classmethod
    def monomial_a(cls, i):
        return cls(a_coeffs=(0.0,) * i + (1.0,), b_coeffs=((0.0,),))

    @classmethod
    def monomial_b(cls, i, j):
        rows = []
        for r in range(i + 1):
            if r == i:
                rows.append((0.0,) * j + (1.0,))
            else:
                rows.append((0.0,))
        return cls(a_coeffs=(0.0,), b_coeffs=tuple(rows))


def _poly1(coeffs, xv):
    """Evaluate sum c_i xv^i with Horner; works for floats and series."""
    out = coeffs[-1]
    if isinstance(xv, TaylorValue) and not isinstance(out, TaylorValue):
        out = TaylorValue.constant(float(out), xv.point, xv.degree)
    for c in reversed(coeffs[:-1]):
        out = out * xv + c
    return out


def _poly1_deriv(coeffs):
    return tuple(i * c for i, c in enumerate(coeffs))[1:] or (0.0,)


def _poly2(rows, xv, uv):
    return _poly1(tuple(_poly1(row, uv) for row in rows), xv)


def _b_dx(rows):
    return tuple(tuple(i * c for c in row)
                 for i, row in enumerate(rows))[1:] or ((0.0,),)


def _b_du(rows):
    return tuple(_poly1_deriv(row) for row in rows)


def generating_function(gen: Generator, jp: TaylorValue,
                        trunc=None) -> TaylorValue:
    """phi of the generator at the jet point, as a degree-`trunc` series."""
    trunc = jp.degree - 1 if trunc is None else trunc
    if trunc + 1 > jp.degree:
        raise ValueError("jet order %d too low for truncation %d"
                         % (jp.degree, trunc))
    xv, uv, wv = lift_variables(jp.point, trunc)
    f_hi = jp.truncated(trunc + 1)
    fv = f_hi.truncated(trunc)
    f_x = f_hi.derivative(0)
    f_u = f_hi.derivative(1)
    f_z = f_hi.derivative(2)

    av = _poly1(gen.a_coeffs, xv)
    ax = _poly1(_poly1_deriv(gen.a_coeffs), xv)
    bv = _poly2(gen.b_coeffs, xv, uv)
    bx = _poly2(_b_dx(gen.b_coeffs), xv, uv)
    bu = _poly2(_b_du(gen.b_coeffs), xv, uv)

    zero = TaylorValue.constant(0.0, jp.point, trunc)
    av, ax, bv, bx, bu = (c if isinstance(c, TaylorValue) else zero + float(c)
                          for c in (av, ax, bv, bx, bu))
    return ax * fv - av * f_x - bv * f_u - (wv * bu + fv * bx) * f_z


def prolonged_vector(gen: Generator, jp: TaylorValue, k: int) -> np.ndarray:
    """Tangent vector of the prolonged generator at jp, on the k-jet space.

    Component order: x, u, u1, then f_sigma by graded lexicographic sigma.
    Requires a jet point of order k + 1; the order-(k+1) coordinates cancel
    out of the result (checked by the well-definedness tests).
    """
    if jp.degree < k + 1:
        raise ValueError("prolonged_vector needs a jet point of order k+1")
    phi = generating_function(gen, jp, trunc=k)

    x0, u0, w0 = jp.point
    a0 = _poly1(gen.a_coeffs, x0)
    b0 = _poly2(gen.b_coeffs, x0, u0)
    bx0 = _poly2(_b_dx(gen.b_coeffs), x0, u0)
    bu0 = _poly2(_b_du(gen.b_coeffs), x0, u0)
    f, idx = jp.partials, index_map(jp.degree)
    w_comp = w0 * bu0 + f[0] * bx0

    out = np.empty(3 + n_terms(k))
    out[0], out[1], out[2] = a0, b0, w_comp
    d_phi = phi.partials
    for pos, (i, j, l) in enumerate(simplex(k)):
        step = (a0 * f[idx[(i + 1, j, l)]] + b0 * f[idx[(i, j + 1, l)]]
                + w_comp * f[idx[(i, j, l + 1)]])
        out[3 + pos] = d_phi[pos] + step
    return out


def standard_generators(k: int):
    """a = x^i (i <= k+1) and b = x^i u^j (i+j <= k+1), enough to realize
    every (k+1)-jet of (a, b) at a point."""
    gens = [Generator.monomial_a(i) for i in range(k + 2)]
    gens += [Generator.monomial_b(i, j)
             for tot in range(k + 2) for i in range(tot + 1)
             for j in [tot - i]]
    return gens


@dataclass(frozen=True)
class RankResult:
    k: int
    rank: int
    expected: int
    singular_values: tuple
    gap: float

    @property
    def ok(self):
        return self.rank == self.expected


def orbit_rank(k: int, seed=0, jet_point=None, cutoff=1e-8,
               generators=None) -> RankResult:
    """Numerical rank of the span of the prolonged generators at a point."""
    if k > MAX_K:
        raise ValueError("k capped at %d" % MAX_K)
    jp = jet_point if jet_point is not None else random_jet_point(k + 1, seed)
    gens = generators if generators is not None else standard_generators(k)
    rows = np.array([prolonged_vector(g, jp, k) for g in gens])
    s = np.linalg.svd(rows, compute_uv=False)
    rank = int(np.sum(s > cutoff * s[0]))
    gap = float(s[rank - 1] / s[rank]) if rank < len(s) and s[rank] > 0 \
        else np.inf
    expected = expected_orbit_dim(k)
    return RankResult(k=k, rank=rank, expected=expected,
                      singular_values=tuple(float(v) for v in s), gap=gap)


# -- invariant counting --------------------------------------------------------


def pure_order_invariants(k: int) -> int:
    """Independent invariants of pure order k (k >= 2)."""
    if k < 2:
        raise ValueError("pure-order count defined for k >= 2")
    return k * (k + 1) // 2 - 2


def cumulative_invariants(k: int) -> int:
    """Number of independent invariants of order <= k (k >= 2)."""
    if k < 2:
        raise ValueError("cumulative count defined for k >= 2")
    val = k ** 3 / 6 + k ** 2 / 2 - 5 * k / 3 + 1
    out = round(val)
    assert abs(val - out) < 1e-9
    return out


def expected_orbit_dim(k: int) -> int:
    """Regular orbit dimension: ambient jet dimension minus invariant count.

    Equals (k^2 + 7k + 6)/2 for k >= 2; for k in {0, 1} there are no
    invariants, so the orbits fill the jet space.
    """
    if k < 2:
        return jet_space_dim(k)
    return jet_space_dim(k) - cumulative_invariants(k)


def printed_orbit_dim(k: int) -> float:
    """The competing orbit-dimension expression (k+1)^2/2 + 23k/3 + 5/2.

    Non-integer for k = 2 and above the ambient dimension; reported next to
    the verified value by the rank experiments, never used for anything."""
    return (k + 1) ** 2 / 2 + 23 * k / 3 + 5 / 2


def invariant_counts(k: int):
    """(pure-order count, cumulative count, expected orbit dimension)."""
    return (pure_order_invariants(k), cumulative_invariants(k),
            expected_orbit_dim(k))
