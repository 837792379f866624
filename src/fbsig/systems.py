"""Control-system definitions: an expression for F(x, u, u1) plus a box domain."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .expr import Expression, parse
from .taylor import TaylorValue, lift_variables

SYSTEM_VARS = frozenset({"x", "u", "u1"})


@dataclass(frozen=True)
class Box:
    """Axis-aligned closed box in (x, u, u1)."""

    x: tuple
    u: tuple
    u1: tuple

    def __post_init__(self):
        for name in ("x", "u", "u1"):
            lo, hi = getattr(self, name)
            if not (lo <= hi):
                raise ConfigError("empty interval for %s: [%g, %g]"
                                  % (name, lo, hi))

    @classmethod
    def from_dict(cls, d):
        try:
            return cls(x=tuple(map(float, d["x"])),
                       u=tuple(map(float, d["u"])),
                       u1=tuple(map(float, d["u1"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError("bad domain specification: %r" % (d,)) from exc

    @property
    def intervals(self):
        return (self.x, self.u, self.u1)

    def contains(self, p, tol=1e-12):
        return all(lo - tol <= v <= hi + tol
                   for v, (lo, hi) in zip(p, self.intervals))

    def grid(self, counts):
        """Grid points in fixed index order (x slowest, u1 fastest)."""
        axes = [np.linspace(lo, hi, int(n))
                for (lo, hi), n in zip(self.intervals, counts)]
        pts = []
        for xv in axes[0]:
            for uv in axes[1]:
                for wv in axes[2]:
                    pts.append((float(xv), float(uv), float(wv)))
        return pts

    def sample(self, rng):
        return tuple(rng.uniform(lo, hi) for lo, hi in self.intervals)


@dataclass(frozen=True)
class SystemDef:
    """A control system dx/dt = F(x, u, du/dt) restricted to a box."""

    name: str
    expr: Expression
    domain: Box

    @classmethod
    def from_strings(cls, name, f_text, domain):
        if not isinstance(domain, Box):
            domain = Box.from_dict(domain)
        return cls(name=name, expr=parse(f_text, SYSTEM_VARS), domain=domain)

    def value(self, p) -> float:
        """F evaluated over plain reals."""
        return float(self.expr({"x": p[0], "u": p[1], "u1": p[2]}))

    def taylor(self, p, degree) -> TaylorValue:
        """Degree-`degree` expansion of F at `p`: one point, or a batch given
        as three arrays (x, u, u1) of one length."""
        xv, uv, wv = lift_variables(p, degree)
        out = self.expr({"x": xv, "u": uv, "u1": wv})
        if not isinstance(out, TaylorValue):
            out = TaylorValue.constant(float(out), xv.point, degree)
        return out
