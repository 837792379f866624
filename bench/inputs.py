"""Seeded inputs of the benchmark, each with hand-written derivatives.

Every system carries F, F_u1 and F_u1u1 written out by hand and every
feedback map carries X, X', U, U_x and U_u.  From these the benchmark
computes, without calling fbsig:

* the closed form J = F^2 F_u1u1 / ((u1 F_u1 - F) F_u1^2);
* the prolonged action Psi(p) = (X, U, U_x F + U_u u1) and its u1-derivative
  D = U_x F_u1 + U_u;
* the regularity margins of a system and of its pushforward.

All inputs come from numpy generators seeded by the workload seed, so the
same seed gives the same inputs.  This module does not import fbsig.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

#: The canonical sampling grid of the benchmark's clouds.
GRID = (11, 11, 11)

#: A seeded map is kept only if |X'|, |U_u| and |D| stay above this on the
#: whole grid.  Without the D test the pushforward of a regular system can
#: have an image jet that passes fbsig's regularity test while its nested
#: invariants are rounding noise.
MAP_MARGIN = 0.25

#: Scaled regularity margins for seeded single points, as in the acceptance
#: suite: 1e-3 at the source point and 3e-2 at its image.
SOURCE_MARGIN = 1e-3
IMAGE_MARGIN = 3e-2


@dataclass(frozen=True)
class Case:
    """An expression-backed system: text, box and hand-written derivatives."""

    name: str
    text: str
    box: tuple  # ((x_lo, x_hi), (u_lo, u_hi), (u1_lo, u1_hi))
    f: Callable
    f_u1: Callable
    f_u1u1: Callable

    def config_entry(self):
        return {"f": self.text,
                "domain": {k: list(iv) for k, iv in zip(("x", "u", "u1"),
                                                          self.box)}}


def _case(name, text, box, f, f_u1, f_u1u1):
    return Case(name, text, tuple(tuple(map(float, iv)) for iv in box),
                f, f_u1, f_u1u1)


#: The five systems of the acceptance suite, on the same boxes.
CANONICAL = (
    _case("sq", "u1^2", ((-1, 1), (-1, 1), (1, 2)),
          lambda x, u, w: w ** 2 + 0 * x,
          lambda x, u, w: 2 * w + 0 * x,
          lambda x, u, w: 2.0 + 0 * w),
    _case("expu1", "exp(u1)", ((-1, 1), (-1, 1), (2, 3)),
          lambda x, u, w: np.exp(w) + 0 * x,
          lambda x, u, w: np.exp(w) + 0 * x,
          lambda x, u, w: np.exp(w) + 0 * x),
    _case("cubic", "u1^3/3 + x*u1 + u^2 + 2",
          ((0.2, 1.0), (0.2, 0.8), (1.8, 2.6)),
          lambda x, u, w: w ** 3 / 3 + x * w + u ** 2 + 2,
          lambda x, u, w: w ** 2 + x,
          lambda x, u, w: 2 * w + 0 * x),
    _case("squ", "u1^2 + u", ((-1, 1), (0.5, 1.5), (1.5, 2.5)),
          lambda x, u, w: w ** 2 + u,
          lambda x, u, w: 2 * w + 0 * x,
          lambda x, u, w: 2.0 + 0 * w),
    _case("mix",
          "exp(u1) + x*u + 0.3*u*u1 + 0.1*x*u1^2 + 0.2*u^2 + 0.1*x*u*u1",
          ((0.3, 0.9), (0.3, 0.9), (1.5, 2.2)),
          lambda x, u, w: (np.exp(w) + x * u + 0.3 * u * w + 0.1 * x * w ** 2
                           + 0.2 * u ** 2 + 0.1 * x * u * w),
          lambda x, u, w: np.exp(w) + 0.3 * u + 0.2 * x * w + 0.1 * x * u,
          lambda x, u, w: np.exp(w) + 0.2 * x),
)
BY_NAME = {c.name: c for c in CANONICAL}

#: Image of `cubic` under X = 2x, U = u, derived by hand: G = 2 F(X/2, U, U1)
#: on x in [0.4, 2].  Equivalent to `cubic` by construction.
CUBIC_IMAGE = _case(
    "cubic_img", "2*u1^3/3 + x*u1 + 2*u^2 + 4",
    ((0.4, 2.0), (0.2, 0.8), (1.8, 2.6)),
    lambda x, u, w: 2 * w ** 3 / 3 + x * w + 2 * u ** 2 + 4,
    lambda x, u, w: 2 * w ** 2 + x,
    lambda x, u, w: 4 * w + 0 * x)

#: u1^2 and exp(u1) on u1 in [3, 4]: j2 is 0 for the first and
#: -1/(u1-1)^2 <= -1/9 for the second, so they are not equivalent.
SQ34 = _case("sq34", "u1^2", ((-1, 1), (-1, 1), (3, 4)),
             BY_NAME["sq"].f, BY_NAME["sq"].f_u1, BY_NAME["sq"].f_u1u1)
EXP34 = _case("exp34", "exp(u1)", ((-1, 1), (-1, 1), (3, 4)),
              BY_NAME["expu1"].f, BY_NAME["expu1"].f_u1,
              BY_NAME["expu1"].f_u1u1)

#: 2 u1^2 has the same constant signature as u1^2: both clouds are
#: 0-dimensional, where the criterion's hypotheses fail (INCONCLUSIVE).
SQ2 = _case("sq2", "2*u1^2", ((-1, 1), (-1, 1), (1, 2)),
            lambda x, u, w: 2 * w ** 2 + 0 * x,
            lambda x, u, w: 4 * w + 0 * x,
            lambda x, u, w: 4.0 + 0 * w)

#: Regular at every grid point, but x starts at 1e-6, so a central
#: difference of step 1e-5 leaves the box and takes the log of a negative.
LOGX = _case("logx", "u1^2 + log(x) + 20", ((1e-6, 1), (-1, 1), (1, 2)),
             lambda x, u, w: w ** 2 + np.log(x) + 20,
             lambda x, u, w: 2 * w + 0 * x,
             lambda x, u, w: 2.0 + 0 * w)


def j_closed(case, x, u, w):
    """J from the hand-written derivatives."""
    f, fz, fzz = case.f(x, u, w), case.f_u1(x, u, w), case.f_u1u1(x, u, w)
    return f ** 2 * fzz / ((w * fz - f) * fz ** 2)


def j2_known(case, x, u, w):
    """nabla_2 J where it is known in closed form: 0 for u1^2, 2 u1^2 and
    -1/(u1-1)^2 for exp(u1); None for other systems."""
    if case.text in ("u1^2", "2*u1^2"):
        return 0.0 * w
    if case.text == "exp(u1)":
        return -1.0 / (w - 1.0) ** 2
    return None


def scaled_margin(f, fz, fzz, w):
    """Smallest scaled regularity magnitude, as fbsig defines it:
    |q| / max(1, |f|, |f_u1|) over q in (f, f_u1, f_u1u1, u1 f_u1 - f)."""
    scale = np.maximum(1.0, np.maximum(np.abs(f), np.abs(fz)))
    qs = np.abs(np.stack([f, fz, fzz, w * fz - f]))
    return (qs / scale).min(axis=0)


def grid_points(box, counts=GRID):
    """(n, 3) grid in fbsig's order: x slowest, u1 fastest."""
    axes = [np.linspace(lo, hi, int(n)) for (lo, hi), n in zip(box, counts)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


# -- feedback maps ------------------------------------------------------------


@dataclass(frozen=True)
class QuadMap:
    """X = a + b x + c x^2,  U = d + e u + g x + h x u + m u^2."""

    a: float
    b: float
    c: float
    d: float
    e: float
    g: float
    h: float
    m: float

    def texts(self):
        return ("%r + %r*x + %r*x^2" % (self.a, self.b, self.c),
                "%r + %r*u + %r*x + %r*x*u + %r*u^2"
                % (self.d, self.e, self.g, self.h, self.m))

    def X(self, x):
        return self.a + self.b * x + self.c * x ** 2

    def Xp(self, x):
        return self.b + 2 * self.c * x

    def U(self, x, u):
        return (self.d + self.e * u + self.g * x + self.h * x * u
                + self.m * u ** 2)

    def Ux(self, x, u):
        return self.g + self.h * u

    def Uu(self, x, u):
        return self.e + self.h * x + 2 * self.m * u

    def psi(self, case, x, u, w):
        """Prolonged action on base points."""
        return (self.X(x), self.U(x, u),
                self.Ux(x, u) * case.f(x, u, w) + self.Uu(x, u) * w)

    def d_u1(self, case, x, u, w):
        """dU1/du1 = U_x F_u1 + U_u, the u1-entry of the prolonged Jacobian."""
        return self.Ux(x, u) * case.f_u1(x, u, w) + self.Uu(x, u)

    def image_margin(self, case, x, u, w):
        """Scaled regularity margin of the pushforward G at Psi(p).

        G(Psi) = X' F, so G_U1 = X' F_u1 / D and G_U1U1 = X' U_u F_u1u1 / D^3.
        """
        xp, uu = self.Xp(x), self.Uu(x, u)
        dd = self.d_u1(case, x, u, w)
        g = xp * case.f(x, u, w)
        gz = xp * case.f_u1(x, u, w) / dd
        gzz = xp * uu * case.f_u1u1(x, u, w) / dd ** 3
        return scaled_margin(g, gz, gzz, self.psi(case, x, u, w)[2])


def draw_map(rng, case, margin=MAP_MARGIN, tries=10000):
    """A seeded map whose X', U_u and D stay above `margin` on the grid."""
    x, u, w = grid_points(case.box).T
    for _ in range(tries):
        a, d, g = rng.uniform(-0.3, 0.3, size=3)
        b, e = rng.uniform(0.6, 1.4, size=2)
        c, h, m = rng.uniform(-0.15, 0.15, size=3)
        mp = QuadMap(*(float(v) for v in (a, b, c, d, e, g, h, m)))
        if (np.abs(mp.Xp(x)).min() > margin
                and np.abs(mp.Uu(x, u)).min() > margin
                and np.abs(mp.d_u1(case, x, u, w)).min() > margin):
            return mp
    raise RuntimeError("no admissible feedback map for %s" % case.name)


def draw_points(rng, case, n, quad=None, tries=100000):
    """Seeded points of the box, regular at the source with SOURCE_MARGIN
    and, when a map `quad` is given, at the image with IMAGE_MARGIN."""
    out = []
    for _ in range(tries):
        if len(out) == n:
            return out
        p = tuple(float(rng.uniform(lo, hi)) for lo, hi in case.box)
        if (scaled_margin(case.f(*p), case.f_u1(*p), case.f_u1u1(*p), p[2])
                > SOURCE_MARGIN
                and (quad is None
                     or quad.image_margin(case, *p) > IMAGE_MARGIN)):
            out.append(p)
    raise RuntimeError("could not draw %d regular points for %s"
                       % (n, case.name))


def cubic_affine_image(rng):
    """Image of `cubic` under a seeded map X = a x + b, U = c u + d.

    The image is G(x, u, u1) = a F((x - b)/a, (u - d)/c, u1/c), written out
    as an expression, so it is a closed-form system equivalent to `cubic`.
    Its grid is the image of the source grid.
    """
    case = BY_NAME["cubic"]
    a, c = rng.uniform(0.5, 2.0, size=2)
    b, d = rng.uniform(-1.0, 1.0, size=2)
    a, b, c, d = (float(v) for v in (a, b, c, d))
    text = ("%r*((u1/%r)^3/3 + ((x - (%r))/%r)*(u1/%r)"
            " + ((u - (%r))/%r)^2 + 2)" % (a, c, b, a, c, d, c))

    def back(x, u, w):
        return (x - b) / a, (u - d) / c, w / c

    (xlo, xhi), (ulo, uhi), (wlo, whi) = case.box
    return _case(
        "cubic_affine", text,
        ((a * xlo + b, a * xhi + b), (c * ulo + d, c * uhi + d),
         (c * wlo, c * whi)),
        lambda x, u, w: a * case.f(*back(x, u, w)),
        lambda x, u, w: a / c * case.f_u1(*back(x, u, w)),
        lambda x, u, w: a / c ** 2 * case.f_u1u1(*back(x, u, w)))
