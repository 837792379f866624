#!/usr/bin/env python3
"""Orbit-dimension laboratory on jet spaces.

Spans the prolonged feedback generators at random regular jet points and
compares the numerical rank of the distribution with the dimension predicted
by the invariant-count formulas.  Also shows the rank drop on a singular
stratum and the inconsistency of the printed orbit-dimension expression.
"""

from fbsig import (TaylorValue, orbit_rank, random_jet_point,
                   invariant_counts)
from fbsig.orbits import jet_space_dim, printed_orbit_dim
from fbsig.taylor import index_map


def main():
    print("=" * 72)
    print("Rank of the prolonged feedback distribution at regular points")
    print("=" * 72)
    print("%2s %9s %5s %9s %12s" % ("k", "dim J^k", "rank", "expected", "sv gap"))
    for k in (1, 2, 3, 4):
        res = orbit_rank(k, seed=0)
        gap = "exact" if res.gap == float("inf") else "%.2e" % res.gap
        print("%2d %9d %5d %9d %12s" % (k, jet_space_dim(k), res.rank,
                                        res.expected, gap))

    print()
    print("Invariant counts (pure order, cumulative, orbit dimension):")
    for k in (2, 3, 4):
        print("   k=%d: %r" % (k, invariant_counts(k)))

    print()
    print("The competing orbit-dimension expression")
    print("(k+1)^2/2 + 23k/3 + 5/2 evaluates to %.6g at k=2, which is"
          % printed_orbit_dim(2))
    print("non-integer and exceeds dim J^2 = %d; the verified value is %d."
          % (jet_space_dim(2), orbit_rank(2, seed=0).rank))

    print()
    print("=" * 72)
    print("Singular stratum: forcing f_u1 = 0 collapses the k=1 orbit")
    print("=" * 72)
    jp = random_jet_point(2, seed=6)
    values = jp.partials
    values[index_map(2)[(0, 0, 1)]] = 0.0
    jp = TaylorValue.from_partials(jp.point, 2, values)
    res = orbit_rank(1, jet_point=jp)
    print("rank at a point with f_u1 = 0: %d (regular value 7)" % res.rank)


if __name__ == "__main__":
    main()
