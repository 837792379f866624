"""Sampled signature manifolds and the local-equivalence decision.

A system's signature map sends a base point (x, u, u1) to the 14 invariant
values (j, j1..j3, j11..j33, k, k1..k3); its image is a subset of R^14 that
depends only on the feedback-equivalence class.  This module samples that
image over a grid, estimates its intrinsic dimension, selects a chart among
(j, j1, j2, j3, k), and decides equivalence of two systems by comparing the
sampled images.

All distances are taken in normalized coordinates (each of the 14 components
divided by its spread over the data) because the invariants live on wildly
different scales.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations

import numpy as np
from scipy.spatial import cKDTree

from .errors import (DependentBasis, DivisionBySingular, DomainError,
                     EmptyCloud, NonRegular, SingularTransform, TooFewSamples)
from .invariants import EPS_REG, SIGNATURE_COMPONENTS, signature_series

#: Indices of the chart candidates (j, j1, j2, j3, k) in the 14-vector.
CHART_CANDIDATES = {"j": 0, "j1": 1, "j2": 2, "j3": 3, "k": 10}

#: The 3-subsets of the chart candidates, in the order of CHART_CANDIDATES
#: (`_shared_chart` breaks ties by it), and their rows in the 14-vector.
_TRIPLES = tuple(combinations(CHART_CANDIDATES, 3))
_TRIPLE_ROWS = np.array([[CHART_CANDIDATES[name] for name in t]
                         for t in _TRIPLES])

#: Local patch size for the comparison estimates.
PATCH_K = 12

#: The lower bound of a sample's patch distance is lowered by this fraction
#: of the lengths it is computed from, |q - c| + r.  On flat patches with
#: queries far out in their plane, where the distance is |q - c| - r, the
#: rounding of the tangent fit put the computed distance up to 10 ulps of
#: |q - c| + r below it; a sample is passed over only when the fit cannot
#: bring it level with the closest distance found.
PRUNE_MARGIN = 1e-9

#: About this many grid points per cloud carry an exact differential.
DIFFERENTIAL_PATCHES = 100

#: Grid points are evaluated in blocks of at most this many, one column per
#: point.  A block bounds the memory of the batched series; at degree 4 a
#: block of 256 columns also costs less per column than the whole 11^3 grid.
BLOCK_COLUMNS = 256

#: Skip reasons of per-point evaluation failures other than NonRegular
#: (which records the name of the failing regularity flag).
SKIP_REASONS = {DomainError: "domain error",
                DivisionBySingular: "singular division",
                SingularTransform: "singular transform"}

_SKIPPED = (NonRegular, *SKIP_REASONS)

_AXES = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

#: Singular values below this ratio of the largest do not count as a dimension.
SV_RATIO = 1e-3

#: A differential with no singular value above this (normalized units) is
#: treated as zero; genuine tangents are O(1) after spread normalization,
#: while a constant signature has a zero differential up to rounding.
SV_ZERO = 1e-5

#: Chart triples with a worst-case tangent projection below this are rejected.
CHART_MARGIN = 1e-6

EQUIVALENT = "EQUIVALENT"
NOT_EQUIVALENT = "NOT_EQUIVALENT"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass
class SignatureCloud:
    """Sampled image of the signature map, with per-point bookkeeping."""

    system_id: str
    points: np.ndarray           # (n, 3) base points that passed regularity
    vectors: np.ndarray          # (n, 14) signature values at those points
    skipped: list                # [(base point, reason), ...]
    intrinsic_dim: int = None    # 0..3, or None when not estimable
    chart: tuple = None          # names of the selected coordinate triple
    chart_margins: dict = field(default_factory=dict)
    jacobians: np.ndarray = None  # (m, 14, 3) exact differentials, columns
                                  # scaled by the spread of `points`

    def __len__(self):
        return self.points.shape[0]


def build_cloud(system, grid, eps=EPS_REG) -> SignatureCloud:
    """Evaluate the signature over a grid; failing points are recorded.

    `system` needs a `.domain` box, whose grid it is sampled on, and
    `.taylor(p, degree)`, whose series at a batch of grid points `p` carry
    the cloud's base points as their `.point`: the grid points themselves
    for a `SystemDef`, their images for a pushforward.  Every
    `len(grid points) // DIFFERENTIAL_PATCHES`-th grid point is evaluated
    from an order-5 jet, whose degree-1 signature series gives the value
    and the exact 14x3 differential there (with respect to the cloud's base
    coordinates); the others from an order-4 jet.  Each of the
    two sets is evaluated in blocks of at most BLOCK_COLUMNS grid points,
    one column per point.  A point whose evaluation fails is recorded in
    `skipped` with the reason of its first failure: the failing regularity
    flag, `non-finite jet`, or one of SKIP_REASONS.  A pushforward point that
    fails before its image is known is recorded at its source grid point.
    Rows and skipped points are in grid-index order, so the cloud is
    deterministic.  A pushforward (a system with `jacobian_det`) whose
    prolonged map folds the source box (det dPsi/dp changes sign over the
    evaluated points) raises SingularTransform: points on both sides of the
    fold share image jets, so the cloud would not sample one system.
    """
    if any(int(n) < 2 for n in grid):
        raise ValueError("grid counts must be >= 2")
    params = system.domain.grid(grid)
    n = len(params)
    index = np.arange(n)
    with_diff = index % max(1, n // DIFFERENTIAL_PATCHES) == 0

    points = params.copy()       # series points, once they are known
    vectors = np.zeros((n, len(SIGNATURE_COMPONENTS)))
    diffs = np.zeros((n, len(SIGNATURE_COMPONENTS), 3))
    reasons = [None] * n
    with np.errstate(all="ignore"):
        for degree, chosen in ((1, index[with_diff]), (0, index[~with_diff])):
            evaluate_grid(chosen, partial(
                _signature_block, system, params, degree, eps,
                points, vectors, diffs), reasons)
        kept = np.array([r is None for r in reasons])
        if hasattr(system, "jacobian_det") and kept.any():
            _check_fold(system, params[kept])

    skipped = skipped_points(points, reasons)
    if not kept.any():
        raise EmptyCloud("no regular grid point in the sampled domain "
                         "(%d skipped)" % len(skipped))
    cloud_points = points[kept]
    cloud = SignatureCloud(
        system_id=getattr(system, "name", "system"),
        points=cloud_points, vectors=vectors[kept], skipped=skipped,
        jacobians=(diffs[kept & with_diff] * _spread(cloud_points)
                   if (kept & with_diff).any() else None))
    try:
        cloud.intrinsic_dim = intrinsic_dimension(cloud)
    except TooFewSamples:
        cloud.intrinsic_dim = None
    if cloud.intrinsic_dim == 3:
        cloud.chart_margins = chart_margins(cloud)
        cloud.chart = select_chart(cloud)
    return cloud


def evaluate_grid(indices, stage, reasons):
    """Run `stage(idx)` over the grid indices `indices` in blocks of at most
    BLOCK_COLUMNS, one column per grid point.

    A failure of a block is recorded for the columns it names, with
    `reasons[i]`, and the stage runs again on the rest of the block.  The
    stage runs its checks on the columns in the program order of one point,
    so every point keeps the reason a per-point evaluation gives it.
    """
    for start in range(0, indices.size, BLOCK_COLUMNS):
        idx = indices[start:start + BLOCK_COLUMNS]
        while idx.size:
            try:
                stage(idx)
                break
            except _SKIPPED as exc:
                idx = idx[_record_failure(exc, idx, reasons)]


def _signature_block(system, params, degree, eps, points, vectors, diffs,
                     idx):
    """Signature values (and at degree 1 differentials) of the grid points
    `idx`, written into the rows `idx` of the output arrays; the base points
    of the series are written as soon as they are known."""
    f_tv = system.taylor(tuple(params[idx].T), 4 + degree)
    points[idx] = np.column_stack(f_tv.point)
    series = signature_series(f_tv, degree, eps)
    vectors[idx] = np.column_stack([c.const for c in series])
    if degree:
        diffs[idx] = np.moveaxis(
            np.array([[c.partial(e) for e in _AXES] for c in series]), -1, 0)


def _check_fold(system, params):
    """Raise SingularTransform when det dPsi/dp of a pushforward takes both
    signs over the source points `params`, naming a witness of each sign."""
    det = system.jacobian_det(tuple(params.T))
    pos, neg = np.flatnonzero(det > 0), np.flatnonzero(det < 0)
    if pos.size and neg.size:
        raise SingularTransform(
            "the prolonged map folds the source box: det dPsi/dp is %.6g at "
            "source point (%.6g, %.6g, %.6g) and %.6g at (%.6g, %.6g, %.6g)"
            % (det[pos[0]], *params[pos[0]], det[neg[0]], *params[neg[0]]))


def _record_failure(exc, idx, reasons):
    """Record the reason of a batch failure for the columns it names (all of
    them when it names none); return the mask of the other columns."""
    reason = (exc.flag if isinstance(exc, NonRegular)
              else SKIP_REASONS[type(exc)])
    rest = np.ones(idx.size, dtype=bool)
    rest[slice(None) if exc.columns is None else exc.columns] = False
    for i in idx[~rest]:
        reasons[i] = reason
    return rest


def skipped_points(points, reasons):
    """[(point, reason), ...] of the rows of `points` with a recorded
    failure, in grid-index order."""
    return [(tuple(map(float, points[i])), reason)
            for i, reason in enumerate(reasons) if reason is not None]


def _spread(values):
    s = values.max(axis=0) - values.min(axis=0)
    return np.where(s < 1e-12, 1.0, s)


def _tangent_matrices(cloud):
    """The cloud's differentials, (m, 14, 3), with rows normalized by the
    value spread."""
    if cloud.jacobians is None or not len(cloud.jacobians):
        raise TooFewSamples("cloud %r carries no signature differentials"
                            % cloud.system_id)
    return cloud.jacobians / _spread(cloud.vectors)[:, None]


def intrinsic_dimension(cloud) -> int:
    """Median local rank of the signature differential (0..3)."""
    if len(cloud) < 30:
        raise TooFewSamples("need >= 30 samples, have %d" % len(cloud))
    s = np.linalg.svd(_tangent_matrices(cloud), compute_uv=False)
    dims = np.where(s[:, 0] < SV_ZERO, 0, (s > SV_RATIO * s[:, :1]).sum(1))
    return int(np.sort(dims)[(len(dims) - 1) // 2])


def chart_margins(cloud) -> dict:
    """Worst-case tangent-projection margin for each candidate triple.

    For every local tangent basis and every 3-subset of (j, j1, j2, j3, k),
    the smallest singular value of the projection of the basis onto the
    triple's coordinates; a triple is a usable chart when the minimum over
    the cloud stays positive.  A NaN singular value does not count.
    """
    U, s, _ = np.linalg.svd(_tangent_matrices(cloud), full_matrices=False)
    usable = (s[:, 0] >= SV_ZERO) & ((s > SV_RATIO * s[:, :1]).sum(1) >= 3)
    if not usable.any():
        return {t: 0.0 for t in _TRIPLES}
    sv = np.linalg.svd(U[usable][:, _TRIPLE_ROWS], compute_uv=False)
    worst = np.fmin.reduce(sv[:, :, -1], axis=0, initial=np.inf)
    return dict(zip(_TRIPLES, map(float, worst)))


def select_chart(cloud):
    """Best candidate triple by worst-case margin, or None below the margin."""
    if cloud.intrinsic_dim != 3:
        return None
    margins = cloud.chart_margins or chart_margins(cloud)
    best = max(margins, key=lambda t: (margins[t], t))
    return best if margins[best] >= CHART_MARGIN else None


def tresse(v_tv, basis) -> np.ndarray:
    """Tresse coefficients: solve grad(V) = sum_i lambda_i grad(J_i).

    `basis` are three pulled-back invariants as degree >= 1 series at the
    same point as `v_tv`; raises DependentBasis when their gradients are
    numerically dependent (condition number above 1e10).
    """
    M = np.array([[b.partial(ax) for b in basis] for ax in _AXES])
    cond = np.linalg.cond(M)
    if not np.isfinite(cond) or cond > 1e10:
        raise DependentBasis("basis gradient condition %.3e" % cond)
    rhs = np.array([v_tv.partial(ax) for ax in _AXES])
    return np.linalg.solve(M, rhs)


# -- cloud comparison ---------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    status: str
    overlap_fraction: float
    max_residual: float
    notes: tuple

    def as_dict(self):
        return {"status": self.status,
                "overlap_fraction": self.overlap_fraction,
                "max_residual": self.max_residual,
                "notes": list(self.notes)}


@dataclass(frozen=True)
class _Approach:
    """How close each sample of one normalized cloud can come to another.

    `idx[i]` holds the indices of sample i's patch in the target `pts`,
    `tree` is the target's kd-tree, and `lower[i]` a lower bound on sample
    i's patch distance, which `gaps` computes.
    """

    queries: np.ndarray          # (n, 14)
    pts: np.ndarray              # (m, 14)
    idx: np.ndarray              # (n, k_eff)
    tree: cKDTree
    lower: np.ndarray            # (n,)

    def gaps(self, rows):
        """Full-space patch distances of the samples `rows`, fitted in
        stacks of at most BLOCK_COLUMNS; a sample's distance does not depend
        on the samples fitted with it."""
        gap = np.empty(len(rows))
        for start in range(0, gap.size, BLOCK_COLUMNS):
            r = rows[start:start + BLOCK_COLUMNS]
            gap[start:start + r.size] = _tangent_gaps(self.queries[r],
                                                      self.pts, self.idx[r])
        return gap


def _approach(queries, pts) -> _Approach:
    """The patches of all queries from one kd-tree query of their PATCH_K
    nearest points in `pts`, and the lower bounds of their patch distances.

    With c and r the centroid and radius of a query's patch, the clipped
    tangent distance of `_tangent_gaps` is at least |q - c| - r: for the
    in-plane part t <= |q - c| of q - c, gap^2 = |q - c|^2 - t^2 +
    max(0, t - r)^2 >= (|q - c| - r)^2.  The bound is lowered by
    PRUNE_MARGIN of |q - c| + r for the rounding of the fit, and a NaN bound
    becomes 0, so no bound exceeds the distance `gaps` computes.
    """
    tree = cKDTree(pts)
    idx = _knn(tree, queries, min(PATCH_K, pts.shape[0]))[1]
    lower = np.empty(queries.shape[0])
    for start in range(0, lower.size, BLOCK_COLUMNS):
        rows = slice(start, start + BLOCK_COLUMNS)
        _, w, radius = _centred_patches(queries[rows], pts, idx[rows])
        dist = _norms(w)
        lower[rows] = dist - radius - PRUNE_MARGIN * (dist + radius)
    return _Approach(queries, pts, idx, tree, np.fmax(lower, 0.0))


def _knn(tree, queries, k):
    """Distances and indices (n, k) of the k nearest neighbours."""
    d, idx = tree.query(queries, k)
    return d.reshape(-1, k), idx.reshape(-1, k)


def _centred_patches(queries, pts, idx):
    """The patches pts[idx] less their centroids c, the offsets q - c of the
    queries and the patch radii."""
    Y = pts[idx]
    c = Y.mean(axis=1)
    Y -= c[:, None, :]
    return Y, queries - c, np.sqrt((Y ** 2).sum(axis=2).max(axis=1))


def _tangent_gaps(queries, pts, idx):
    """Distance from each query to the tangent plane of its patch pts[idx].

    The plane is spanned by the singular vectors above SV_RATIO of the
    largest.  The in-plane displacement is clipped at the patch radius so
    the fitted tangent plane is never extrapolated far beyond the data;
    this keeps the estimate a sound lower bound up to curvature terms.
    """
    Y, w, radius = _centred_patches(queries, pts, idx)
    _, s, Vt = np.linalg.svd(Y, full_matrices=False)
    rank = np.where(s[:, 0] > 1e-15, (s > SV_RATIO * s[:, :1]).sum(1), 0)
    inplane = np.zeros_like(w)
    for r in np.unique(rank[rank > 0]):
        # the leading r rows of Vt, stacked per rank as one patch's tangent
        # basis V, so each sample is summed as V.T @ (V @ w)
        of_rank = rank == r
        V = Vt[of_rank, :r]
        inplane[of_rank] = (np.swapaxes(V, 1, 2)
                            @ (V @ w[of_rank, :, None]))[:, :, 0]
    excess = np.maximum(0.0, _norms(inplane) - radius)
    return np.hypot(_norms(w - inplane), excess)


def _norms(rows):
    """Euclidean norm of each row, summed as np.linalg.norm sums a vector."""
    return np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])


def _separation(va, vb, enough=-np.inf):
    """Min patch distance between the normalized clouds, both directions.

    Returns ((distance, side, sample index), approach of F to G, approach
    of G to F).  The witness of a separation is the sample that gets least
    close: the lowest index of the closest side, F before G on a tie.

    The samples of both sides are fitted in ascending order of their lower
    bounds, in chunks of BLOCK_COLUMNS, until every bound left exceeds the
    closest distance found, which is then the minimum over all samples.
    With `enough`, the search also stops once a distance is at most
    `enough`, and the result is only the closest sample fitted so far.
    """
    near_f, near_g = _approach(va, vb), _approach(vb, va)
    n_f = va.shape[0]
    lower = np.concatenate([near_f.lower, near_g.lower])
    order = np.argsort(lower, kind="stable")
    lower = lower[order]
    # samples never fitted keep an infinite distance; their bounds exceed
    # the closest distance, so they cannot be the witness
    gap = np.full(order.size, np.inf)
    start, stop = 0, order.size
    while start < stop:
        rows = order[start:min(start + BLOCK_COLUMNS, stop)]
        start += rows.size
        of_f, of_g = rows[rows < n_f], rows[rows >= n_f]
        gap[of_f] = near_f.gaps(of_f)
        gap[of_g] = near_g.gaps(of_g - n_f)
        best = _closest(gap[:n_f], gap[n_f:])
        if best[0] <= enough:
            break
        stop = int(np.searchsorted(lower, best[0], side="right"))
    return best, near_f, near_g


def _closest(gap_f, gap_g):
    """(distance, side, index) of the closest sample: the lowest index of
    the closer side, F before G on a tie."""
    i, j = int(np.argmin(gap_f)), int(np.argmin(gap_g))
    return ((float(gap_f[i]), "F", i) if gap_f[i] <= gap_g[j]
            else (float(gap_g[j]), "G", j))


def _graph_residuals(src_chart, src_resp, dst_chart, dst_resp, tol, near):
    """Residuals of src samples against dst's local graph over the chart.

    Each src sample whose PATCH_K nearest dst samples in the chart lie within
    twice the dst spacing `r_self` gets an affine fit of their responses
    (`_graph_fits`); a fit of full rank covers its sample.  `near` is the
    approach of src to dst in the full space (from `_separation`).

    A residual certifies NOT_EQUIVALENT only when the mismatch is resolved
    by the data, i.e. all of: the residual exceeds 10x the tolerance in a
    densely sampled chart region; it dwarfs the patch's internal misfit;
    and the query's full 14-dimensional distance to the target's local
    tangent patch exceeds both 10x the tolerance and a multiple of the
    target's local sample spacing there.  The last condition is what keeps
    the certificate sound against curvature between samples, sparse
    regions, and chart projections that are only locally injective (two
    sheets over one chart region): in all those cases the full-space gap
    stays at the local sampling scale, whereas a genuine difference between
    manifolds survives it wherever the target is densely sampled.  The
    certified sample is the lowest src index that passes every test.
    """
    n, m = src_chart.shape[0], dst_chart.shape[0]
    k_eff = min(PATCH_K, m)
    tree = cKDTree(dst_chart)
    # the median distance of a dst sample to its k-th neighbour
    r_self = float(np.median(
        _knn(tree, dst_chart, min(k_eff + 1, m))[0][:, -1]))
    d, idx = _knn(tree, src_chart, k_eff)
    dk = d[:, -1]
    tried = np.flatnonzero(dk <= 2.0 * r_self) if r_self > 0 else np.arange(n)

    covered = np.zeros(n, dtype=bool)
    resid, misfit = np.zeros(n), np.zeros(n)
    for start in range(0, tried.size, BLOCK_COLUMNS):
        rows = tried[start:start + BLOCK_COLUMNS]
        full, pred, misfit_full = _graph_fits(src_chart[rows], dst_chart,
                                              dst_resp, idx[rows])
        rows = rows[full]
        covered[rows] = True
        misfit[rows] = misfit_full
        resid[rows] = np.abs(pred - src_resp[rows]).max(axis=1)

    max_resid = float(resid[covered].max()) if covered.any() else 0.0
    cand = np.flatnonzero(covered & (dk <= 1.5 * r_self) & (resid > 10.0 * tol)
                          & (resid > 5.0 * misfit))
    certified = None
    if cand.size:
        r_loc = _local_spacing(near, cand, k_eff)
        gap = near.gaps(cand)
        hits = cand[(gap > 10.0 * tol) & (gap > 3.0 * r_loc)]
        if hits.size:
            certified = (int(hits[0]), float(resid[hits[0]]))
    return int(covered.sum()), max_resid, certified


def _local_spacing(near, rows, k):
    """Full-space sample spacing of the target around the samples `rows`.

    The median, over each sample's patch, of a patch member's distance to
    its k-th nearest target sample other than itself.  Only the target
    samples in these patches are queried.
    """
    patches = near.idx[rows]
    used, at = np.unique(patches, return_inverse=True)
    spacing = _knn(near.tree, near.pts[used],
                   min(k + 1, near.pts.shape[0]))[0][:, -1]
    return np.median(spacing[at.reshape(patches.shape)], axis=1)


def _graph_fits(queries, dst_chart, dst_resp, idx):
    """Inverse-square weighted affine fits of responses over chart offsets.

    One fit per query, over its patch idx of dst samples.  Returns (mask of
    the fits of full rank, their predictions at the queries, their
    unweighted max misfits over the patch).  The weight floor keeps a dst
    sample coinciding with the query pinning the prediction, so matching
    samplings reproduce each other exactly.
    """
    A = np.ones(idx.shape + (1 + queries.shape[1],))
    A[:, :, 1:] = dst_chart[idx] - queries[:, None, :]
    dist = np.linalg.norm(A[:, :, 1:], axis=2)
    floor = 1e-6 * np.maximum(dist.max(axis=1), 1e-12)
    sw = np.sqrt(1.0 / (dist ** 2 + floor[:, None] ** 2))[:, :, None]
    U, s, Vt = np.linalg.svd(sw * A, full_matrices=False)
    # the rank test of np.linalg.lstsq with its default rcond; the fits
    # that fail it are solved with unit singular values and dropped
    rcond = np.finfo(float).eps * max(A.shape[1:])
    full = (s > rcond * s[:, :1]).sum(axis=1) == A.shape[2]
    s[~full] = 1.0
    resp = dst_resp[idx]
    sol = np.swapaxes(Vt, 1, 2) @ (
        (np.swapaxes(U * sw, 1, 2) @ resp) / s[:, :, None])
    fit = A @ sol
    fit -= resp
    misfit = np.abs(fit, out=fit).max(axis=(1, 2))
    return full, sol[full, 0, :], misfit[full]


def compare(cloud_f, cloud_g, tol_rel=1e-4, min_overlap=0.3) -> Verdict:
    """Decide whether two sampled signature manifolds coincide.

    A certified separation (both clouds far from local approximations of
    each other, with a 10x margin) gives NOT_EQUIVALENT.  When both clouds
    are 3-dimensional and share a usable chart, the remaining 11 coordinates
    are compared as graphs over the chart; agreement within `tol_rel` on
    enough overlap gives EQUIVALENT, a certified 10x violation in a densely
    sampled region gives NOT_EQUIVALENT, everything else is INCONCLUSIVE.
    Matching low-dimensional clouds are INCONCLUSIVE because the equivalence
    criterion presumes a 3-dimensional signature.
    """
    if len(cloud_f) == 0 or len(cloud_g) == 0:
        raise EmptyCloud("compare needs two nonempty clouds")
    notes = []
    spread = _spread(np.vstack([cloud_f.vectors, cloud_g.vectors]))
    va = cloud_f.vectors / spread
    vb = cloud_g.vectors / spread
    dims = (cloud_f.intrinsic_dim, cloud_g.intrinsic_dim)
    shared = _shared_chart(cloud_f, cloud_g)
    graphs = dims == (3, 3) and shared is not None

    # the graph test needs only to know that the clouds are not separated
    (sep, side, widx), near_f, near_g = _separation(
        va, vb, 10.0 * tol_rel if graphs else -np.inf)
    if sep > 10.0 * tol_rel:
        witness = (cloud_f if side == "F" else cloud_g).points[widx]
        notes.append("separated: min normalized patch distance %.6g exceeds "
                     "10*tol_rel = %.6g; witness %s-sample %d at base point "
                     "(%.6g, %.6g, %.6g)"
                     % (sep, 10.0 * tol_rel, side, widx, *witness))
        return Verdict(NOT_EQUIVALENT, 0.0, sep, tuple(notes))

    if graphs:
        notes.append("chart %r shared by both clouds" % (shared,))
        cols = [CHART_CANDIDATES[name] for name in shared]
        rest = [i for i in range(va.shape[1]) if i not in cols]
        cov_f, res_f, cert_f = _graph_residuals(
            va[:, cols], va[:, rest], vb[:, cols], vb[:, rest], tol_rel,
            near_f)
        cov_g, res_g, cert_g = _graph_residuals(
            vb[:, cols], vb[:, rest], va[:, cols], va[:, rest], tol_rel,
            near_g)
        overlap = (cov_f + cov_g) / (len(cloud_f) + len(cloud_g))
        max_resid = max(res_f, res_g)
        if cert_f or cert_g:
            which, (i, r) = (("F", cert_f) if cert_f else ("G", cert_g))
            notes.append("graph mismatch: %s-sample %d residual %.6g > "
                         "10*tol_rel in a densely covered region" % (which, i, r))
            return Verdict(NOT_EQUIVALENT, overlap, max_resid, tuple(notes))
        if overlap >= min_overlap and max_resid <= tol_rel:
            return Verdict(EQUIVALENT, overlap, max_resid, tuple(notes))
        if overlap < min_overlap:
            notes.append("overlap %.3f below min_overlap %.3f"
                         % (overlap, min_overlap))
        if max_resid > tol_rel:
            notes.append("max residual %.6g in the gray zone (tol_rel %.6g, "
                         "certification needs 10x)" % (max_resid, tol_rel))
        return Verdict(INCONCLUSIVE, overlap, max_resid, tuple(notes))

    notes.append("signature clouds are not separated, but the regularity "
                 "hypotheses of the equivalence criterion fail "
                 "(intrinsic dims %r, shared chart %r)" % (dims, shared))
    return Verdict(INCONCLUSIVE, 0.0, sep, tuple(notes))


def _shared_chart(cloud_f, cloud_g):
    """Chart triple maximizing the smaller of the two clouds' margins."""
    if not cloud_f.chart_margins or not cloud_g.chart_margins:
        return None
    best, best_margin = None, CHART_MARGIN
    for t, mf in cloud_f.chart_margins.items():
        mg = cloud_g.chart_margins.get(t, 0.0)
        m = min(mf, mg)
        if m >= best_margin:
            best, best_margin = t, m
    return best


# -- CSV export ----------------------------------------------------------------


def export_cloud(cloud: SignatureCloud, path):
    """Write the cloud and a sidecar CSV of skipped points.

    Returns (cloud_path, skipped_path); see `write_skipped` for the sidecar.
    Numbers are written with 17 significant digits.
    """
    write_table(path, ("x", "u", "u1", *SIGNATURE_COMPONENTS),
                np.hstack([cloud.points, cloud.vectors]))
    return str(path), write_skipped(cloud.skipped, path)


def write_table(path, columns, table):
    """Write the header `columns` and the rows of `table` as CSV."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(row % tuple(r) for r in table.tolist())


def write_skipped(skipped, path):
    """Write the skipped points [(point, reason), ...] of the CSV `path` to
    its sidecar, whose name appends `_skipped` to the stem of `path`;
    returns the sidecar path."""
    stem, ext = os.path.splitext(str(path))
    skipped_path = stem + "_skipped" + (ext or ".csv")
    with open(skipped_path, "w", newline="") as fh:
        fh.write("x,u,u1,reason\n")
        fh.writelines("%.17g,%.17g,%.17g,%s\n" % (*p, reason)
                      for p, reason in skipped)
    return skipped_path
