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

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import (DependentBasis, DivisionBySingular, DomainError,
                     EmptyCloud, NonRegular, SingularTransform, TooFewSamples)
from .invariants import EPS_REG, SIGNATURE_COMPONENTS, signature_series

#: Indices of the chart candidates (j, j1, j2, j3, k) in the 14-vector.
CHART_CANDIDATES = {"j": 0, "j1": 1, "j2": 2, "j3": 3, "k": 10}

#: Local patch size for the comparison estimates.
PATCH_K = 12

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


def build_cloud(system, grid, eps=EPS_REG, system_id=None) -> SignatureCloud:
    """Evaluate the signature over a grid; failing points are recorded.

    `system` needs either a `taylor_at_source(p, degree)` method
    (transformed systems) or a `.domain` box and `.taylor` (expression-backed
    systems).  Every `len(grid points) // DIFFERENTIAL_PATCHES`-th grid point
    is evaluated from an order-5 jet, whose degree-1 signature series gives
    the value and the exact 14x3 differential there (with respect to the
    cloud's base coordinates); the others from an order-4 jet.  Each of the
    two sets is evaluated in blocks of at most BLOCK_COLUMNS grid points,
    one column per point.  A point whose evaluation fails is recorded in
    `skipped` with the reason of its first failure: the failing regularity
    flag, `non-finite jet`, or one of SKIP_REASONS.  A pushforward point that
    fails before its image is known is recorded at its source grid point.
    Rows and skipped points are in grid-index order, so the cloud is
    deterministic.
    """
    if any(int(n) < 2 for n in grid):
        raise ValueError("grid counts must be >= 2")
    transformed = hasattr(system, "taylor_at_source")
    box = system.source_domain if transformed else system.domain
    params = np.array(box.grid(grid))
    n = len(params)
    index = np.arange(n)
    with_diff = index % max(1, n // DIFFERENTIAL_PATCHES) == 0

    points = params.copy()       # image points, once they are known
    vectors = np.zeros((n, len(SIGNATURE_COMPONENTS)))
    diffs = np.zeros((n, len(SIGNATURE_COMPONENTS), 3))
    reasons = [None] * n
    with np.errstate(all="ignore"):
        for degree, chosen in ((1, index[with_diff]), (0, index[~with_diff])):
            for start in range(0, chosen.size, BLOCK_COLUMNS):
                _evaluate_block(system, transformed, params,
                                chosen[start:start + BLOCK_COLUMNS], degree,
                                eps, points, vectors, diffs, reasons)

    kept = np.array([r is None for r in reasons])
    skipped = [(tuple(map(float, points[i])), reasons[i])
               for i in np.flatnonzero(~kept)]
    if not kept.any():
        raise EmptyCloud("no regular grid point in the sampled domain "
                         "(%d skipped)" % len(skipped))
    cloud_points = points[kept]
    cloud = SignatureCloud(
        system_id=system_id or getattr(system, "name", "system"),
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


def _evaluate_block(system, transformed, params, idx, degree, eps,
                    points, vectors, diffs, reasons):
    """Signature values (and at degree 1 differentials) of the grid points
    `idx`, written into the rows `idx` of the output arrays.

    A failure is recorded for the columns it names, with `reasons[i]`, and
    the rest of the block is evaluated again; each check sees the columns in
    the same program order as one point would, so every point keeps the
    reason a per-point evaluation gives it.
    """
    while idx.size:
        base = tuple(params[idx].T)
        try:
            q, f_tv = (system.taylor_at_source(base, 4 + degree) if transformed
                       else (base, system.taylor(base, 4 + degree)))
        except _SKIPPED as exc:
            idx = idx[_record_failure(exc, idx, reasons)]
            continue
        points[idx] = np.column_stack(q)
        break
    while idx.size:
        try:
            series = signature_series(f_tv, degree, eps)
        except _SKIPPED as exc:
            rest = _record_failure(exc, idx, reasons)
            f_tv, idx = f_tv.select(rest), idx[rest]
            continue
        vectors[idx] = np.column_stack([c.const for c in series])
        if degree:
            diffs[idx] = np.moveaxis(
                np.array([[c.partial(e) for e in _AXES] for c in series]),
                -1, 0)
        return


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


def _spread(values, floor=1e-12):
    s = values.max(axis=0) - values.min(axis=0)
    return np.where(s < floor, 1.0, s)


def _tangent_matrices(cloud):
    """The cloud's differentials with rows normalized by the value spread."""
    if cloud.jacobians is None or not len(cloud.jacobians):
        raise TooFewSamples("cloud %r carries no signature differentials"
                            % cloud.system_id)
    spread = _spread(cloud.vectors)
    for J in cloud.jacobians:
        yield J / spread[:, None]


def intrinsic_dimension(cloud, sv_ratio=SV_RATIO) -> int:
    """Median local rank of the signature differential (0..3)."""
    if len(cloud) < 30:
        raise TooFewSamples("need >= 30 samples, have %d" % len(cloud))
    dims = []
    for M in _tangent_matrices(cloud):
        s = np.linalg.svd(M, compute_uv=False)
        if s[0] < SV_ZERO:
            dims.append(0)
        else:
            dims.append(int(np.sum(s > sv_ratio * s[0])))
    dims.sort()
    return dims[(len(dims) - 1) // 2]


def chart_margins(cloud) -> dict:
    """Worst-case tangent-projection margin for each candidate triple.

    For every local tangent basis and every 3-subset of (j, j1, j2, j3, k),
    the smallest singular value of the projection of the basis onto the
    triple's coordinates; a triple is a usable chart when the minimum over
    the cloud stays positive.
    """
    names = list(CHART_CANDIDATES)
    triples = [(a, b, c)
               for ia, a in enumerate(names)
               for ib, b in enumerate(names[ia + 1:], ia + 1)
               for c in names[ib + 1:]]
    margins = {t: np.inf for t in triples}
    usable_patches = 0
    for M in _tangent_matrices(cloud):
        U, s, _ = np.linalg.svd(M, full_matrices=False)
        if s[0] < SV_ZERO or np.sum(s > SV_RATIO * s[0]) < 3:
            continue
        usable_patches += 1
        Q = U[:, :3]
        for t in triples:
            rows = [CHART_CANDIDATES[name] for name in t]
            sv = np.linalg.svd(Q[rows, :], compute_uv=False)
            margins[t] = min(margins[t], float(sv[-1]))
    if usable_patches == 0:
        return {t: 0.0 for t in triples}
    return margins


def select_chart(cloud, margin=CHART_MARGIN):
    """Best candidate triple by worst-case margin, or None below the margin."""
    if cloud.intrinsic_dim != 3:
        return None
    margins = cloud.chart_margins or chart_margins(cloud)
    best = max(margins, key=lambda t: (margins[t], t))
    return best if margins[best] >= margin else None


def tresse(v_tv, basis, cond_max=1e10) -> np.ndarray:
    """Tresse coefficients: solve grad(V) = sum_i lambda_i grad(J_i).

    `basis` are three pulled-back invariants as degree >= 1 series at the
    same point as `v_tv`; raises DependentBasis when their gradients are
    numerically dependent.
    """
    M = np.array([[b.partial(ax) for b in basis] for ax in _AXES])
    cond = np.linalg.cond(M)
    if not np.isfinite(cond) or cond > cond_max:
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


def _patch_distance(q, pts, tree, k=PATCH_K):
    """Distance from q to a local-tangent approximation of the point set.

    The in-plane displacement is clipped at the patch radius so the fitted
    tangent plane is never extrapolated far beyond the data; this keeps the
    estimate a sound lower bound up to curvature terms.
    """
    k_eff = min(k, pts.shape[0])
    _, idx = tree.query(q, k_eff)
    nb = pts[np.atleast_1d(idx)]
    c = nb.mean(axis=0)
    Y = nb - c
    radius = float(np.sqrt((Y ** 2).sum(axis=1).max()))
    w = q - c
    _, s, Vt = np.linalg.svd(Y, full_matrices=False)
    if s.size and s[0] > 1e-15:
        V = Vt[s > SV_RATIO * s[0]]
        inplane = V.T @ (V @ w)
    else:
        inplane = np.zeros_like(w)
    off = w - inplane
    excess = max(0.0, float(np.linalg.norm(inplane)) - radius)
    return float(np.hypot(np.linalg.norm(off), excess))


def _separation(va, vb, k=PATCH_K):
    """Min patch distance between the normalized clouds, both directions.

    Returns (distance, side, sample index) of the closest approach; the
    witness of a separation is the sample that gets least close.
    """
    ta, tb = cKDTree(va), cKDTree(vb)
    best = (np.inf, "F", -1)
    for side, pts, other, tree in (("F", va, vb, tb), ("G", vb, va, ta)):
        for i, q in enumerate(pts):
            d = _patch_distance(q, other, tree, k)
            if d < best[0]:
                best = (d, side, i)
    return best


def _weighted_graph_fit(patch_chart, patch_resp, cq):
    """Inverse-square weighted affine fit of responses over chart offsets.

    Returns (prediction at cq, unweighted max misfit over the patch, ok).
    The weight floor keeps a dst sample coinciding with the query pinning
    the prediction, so matching samplings reproduce each other exactly.
    """
    d = np.linalg.norm(patch_chart - cq, axis=1)
    dk = float(d.max())
    w = 1.0 / (d ** 2 + (1e-6 * max(dk, 1e-12)) ** 2)
    sw = np.sqrt(w)[:, None]
    A = np.hstack([np.ones((patch_chart.shape[0], 1)), patch_chart - cq])
    sol, _, rank, _ = np.linalg.lstsq(sw * A, sw * patch_resp, rcond=None)
    if rank < A.shape[1]:
        return None, np.inf, False
    misfit = float(np.max(np.abs(A @ sol - patch_resp)))
    return sol[0], misfit, True


def _graph_residuals(src_chart, src_resp, dst_chart, dst_resp, tol,
                     dst_full=None, src_full=None, k=PATCH_K):
    """Residuals of src samples against dst's local graph over the chart.

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
    manifolds survives it wherever the target is densely sampled.
    """
    m = dst_chart.shape[0]
    k_eff = min(k, m)
    tree = cKDTree(dst_chart)
    self_d, _ = tree.query(dst_chart, min(k_eff + 1, m))
    r_self = float(np.median(self_d[:, -1])) if m > 1 else 0.0
    full_tree = None
    if dst_full is not None:
        full_tree = cKDTree(dst_full)
        fself_d, _ = full_tree.query(dst_full, min(k_eff + 1, m))
        fself = fself_d[:, -1]

    covered = 0
    max_resid = 0.0
    certified = None
    for i in range(src_chart.shape[0]):
        cq = src_chart[i]
        d, idx = tree.query(cq, k_eff)
        d = np.atleast_1d(d)
        idx = np.atleast_1d(idx)
        dk = float(d[-1])
        if r_self > 0 and dk > 2.0 * r_self:
            continue
        pred, misfit, ok = _weighted_graph_fit(dst_chart[idx], dst_resp[idx],
                                               cq)
        if not ok:
            continue
        covered += 1
        resid = float(np.max(np.abs(pred - src_resp[i])))
        max_resid = max(max_resid, resid)
        dense = dk <= 1.5 * r_self
        if (certified is None and dense and resid > 10.0 * tol
                and resid > 5.0 * misfit and full_tree is not None):
            gap = _patch_distance(src_full[i], dst_full, full_tree, k)
            _, fidx = full_tree.query(src_full[i], k_eff)
            r_loc = float(np.median(fself[np.atleast_1d(fidx)]))
            if gap > 10.0 * tol and gap > 3.0 * r_loc:
                certified = (i, resid)
    return covered, max_resid, certified


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

    sep, side, widx = _separation(va, vb)
    if sep > 10.0 * tol_rel:
        witness = (cloud_f if side == "F" else cloud_g).points[widx]
        notes.append("separated: min normalized patch distance %.6g exceeds "
                     "10*tol_rel = %.6g; witness %s-sample %d at base point "
                     "(%.6g, %.6g, %.6g)"
                     % (sep, 10.0 * tol_rel, side, widx, *witness))
        return Verdict(NOT_EQUIVALENT, 0.0, sep, tuple(notes))

    dims = (cloud_f.intrinsic_dim, cloud_g.intrinsic_dim)
    shared = _shared_chart(cloud_f, cloud_g)
    if dims == (3, 3) and shared is not None:
        notes.append("chart %r shared by both clouds" % (shared,))
        cols = [CHART_CANDIDATES[name] for name in shared]
        rest = [i for i in range(va.shape[1]) if i not in cols]
        cov_f, res_f, cert_f = _graph_residuals(
            va[:, cols], va[:, rest], vb[:, cols], vb[:, rest], tol_rel,
            dst_full=vb, src_full=va)
        cov_g, res_g, cert_g = _graph_residuals(
            vb[:, cols], vb[:, rest], va[:, cols], va[:, rest], tol_rel,
            dst_full=va, src_full=vb)
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


def _shared_chart(cloud_f, cloud_g, margin=CHART_MARGIN):
    """Chart triple maximizing the smaller of the two clouds' margins."""
    if not cloud_f.chart_margins or not cloud_g.chart_margins:
        return None
    best, best_margin = None, margin
    for t, mf in cloud_f.chart_margins.items():
        mg = cloud_g.chart_margins.get(t, 0.0)
        m = min(mf, mg)
        if m >= best_margin:
            best, best_margin = t, m
    return best


# -- CSV export ----------------------------------------------------------------


def _fmt(v):
    return format(float(v), ".17g")


def export_cloud(cloud: SignatureCloud, path):
    """Write the cloud and a sidecar CSV of skipped points.

    Returns (cloud_path, skipped_path); the sidecar name appends `_skipped`
    to the stem of `path`.
    """
    import os

    header = "x,u,u1," + ",".join(SIGNATURE_COMPONENTS)
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for p, v in zip(cloud.points, cloud.vectors):
            fh.write(",".join(_fmt(c) for c in (*p, *v)) + "\n")
    stem, ext = os.path.splitext(str(path))
    skipped_path = stem + "_skipped" + (ext or ".csv")
    with open(skipped_path, "w", newline="") as fh:
        fh.write("x,u,u1,reason\n")
        for p, reason in cloud.skipped:
            fh.write(",".join(_fmt(c) for c in p) + "," + reason + "\n")
    return str(path), skipped_path
