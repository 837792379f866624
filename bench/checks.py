"""Checks of fbsig's outputs against the benchmark's own computations.

A failed check raises `Incorrect`; the run then reports `"correct": false`.
Tolerances are relative to 1 + |expected|.
"""

from __future__ import annotations

import math

import numpy as np

from inputs import j2_known, j_closed

#: compare()'s default tolerance, which the benchmark also uses.
TOL_REL = 1e-4
#: J from fbsig's series arithmetic against the closed form at the same point.
J_TOL = 1e-9
#: Signature of a pushed jet against the source signature (acceptance 1-2).
INVARIANCE_TOL = 1e-5
#: J of a pushforward cloud against the closed form at the source point.
J_IMAGE_TOL = 1e-6
#: eval_K against K from the commutators (acceptance 4).
K_TOL = 1e-6
#: Base points computed by fbsig against the benchmark's Psi(p).
POINT_TOL = 1e-12


class Incorrect(Exception):
    """An output of fbsig disagrees with the benchmark's check."""


def close(label, got, want, tol):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    err = np.abs(got - want) / (1.0 + np.abs(want))
    if got.shape != want.shape or not np.all(err <= tol):
        worst = float(np.max(err)) if got.shape == want.shape else math.inf
        raise Incorrect("%s: relative error %.3e exceeds %.1e"
                        % (label, worst, tol))


def expect(label, ok):
    if not ok:
        raise Incorrect(label)


def kept_rows(points, skipped, expected, label):
    """Grid indices of the kept rows, checking rows plus skipped points.

    fbsig visits the grid in order and files each point either as a row or
    as skipped, so walking the expected points must consume both lists in
    order, and their lengths must add up to the grid size.
    """
    n_rows, n_skip = len(points), len(skipped)
    expect("%s: %d rows + %d skipped != %d grid points"
           % (label, n_rows, n_skip, len(expected)),
           n_rows + n_skip == len(expected))
    kept, i_row, i_skip = [], 0, 0
    for r, q in enumerate(expected):
        scale = 1.0 + np.abs(q)
        if i_row < n_rows and np.all(np.abs(points[i_row] - q)
                                     <= POINT_TOL * scale):
            kept.append(r)
            i_row += 1
        elif i_skip < n_skip and np.all(np.abs(np.asarray(skipped[i_skip])
                                               - q) <= POINT_TOL * scale):
            i_skip += 1
        else:
            raise Incorrect("%s: grid point %d %r is neither a row nor "
                            "skipped" % (label, r, tuple(q)))
    return np.asarray(kept, dtype=int)


def check_j_column(label, case, points, j_col, tol=J_TOL):
    """The `j` column equals the closed form at the rows' base points."""
    if len(points):
        close(label + " j column", j_col, j_closed(case, *points.T), tol)


def check_j2_column(label, case, points, j2_col):
    want = j2_known(case, *points.T) if len(points) else None
    if want is not None:
        close(label + " j2 column", j2_col, want, J_TOL)


def check_cloud(label, case, cloud, grid):
    """Bookkeeping and closed-form J of an expression-backed cloud."""
    skipped = [p for p, _ in cloud.skipped]
    kept_rows(cloud.points, skipped, grid, label)
    check_j_column(label, case, cloud.points, cloud.vectors[:, 0])
    check_j2_column(label, case, cloud.points, cloud.vectors[:, 2])
