"""Shared fixtures-in-spirit: canonical systems and sampling utilities."""

import numpy as np
from scipy.spatial import cKDTree

from fbsig import (DivisionBySingular, NonRegular, SingularTransform,
                   SystemDef, TaylorValue, regularity, system_jet,
                   transformed_taylor)
from fbsig.errors import TooFewSamples, at, check_columns
from fbsig.invariants import (EPS_REG, SIGNATURE_COMPONENTS, _J_formula,
                              _require_regular)
from fbsig.signature import (CHART_CANDIDATES, PATCH_K, SKIP_REASONS,
                             SV_RATIO, SV_ZERO, _spread)
from fbsig.taylor import DIV_EPS, simplex
from fbsig.transform import COND_MAX, _jacobian, _linear_positions, _prolonged

#: Five systems, all regular with comfortable margin on their boxes.
CANONICAL = {
    "sq": ("u1^2", {"x": [-1, 1], "u": [-1, 1], "u1": [1, 2]}),
    "expu1": ("exp(u1)", {"x": [-1, 1], "u": [-1, 1], "u1": [2, 3]}),
    "cubic": ("u1^3/3 + x*u1 + u^2 + 2",
              {"x": [0.2, 1.0], "u": [0.2, 0.8], "u1": [1.8, 2.6]}),
    "squ": ("u1^2 + u", {"x": [-1, 1], "u": [0.5, 1.5], "u1": [1.5, 2.5]}),
    "mix": ("exp(u1) + x*u + 0.3*u*u1 + 0.1*x*u1^2 + 0.2*u^2 + 0.1*x*u*u1",
            {"x": [0.3, 0.9], "u": [0.3, 0.9], "u1": [1.5, 2.2]}),
}


def make_system(name) -> SystemDef:
    f_text, domain = CANONICAL[name]
    return SystemDef.from_strings(name, f_text, domain)


def all_systems():
    return [make_system(name) for name in CANONICAL]


def sample_regular_points(system, n, seed=0, margin=1e-3, max_tries=10000):
    """Seeded points of the domain whose scaled regularity magnitudes all
    exceed `margin`."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(max_tries):
        if len(out) == n:
            break
        p = system.domain.sample(rng)
        flags = regularity(system_jet(system, p, 2))
        if min(flags.magnitudes) > margin:
            out.append(p)
    if len(out) < n:
        raise AssertionError("could not sample %d regular points" % n)
    return out


def fd_gradient(fn, p, h=1e-6):
    """Central-difference gradient of a scalar function of a 3-point."""
    g = np.zeros(3)
    for m in range(3):
        pp, pm = list(p), list(p)
        pp[m] += h
        pm[m] -= h
        g[m] = (fn(tuple(pp)) - fn(tuple(pm))) / (2 * h)
    return g


def fd_partial(fn, p, sigma, h=1e-4):
    """Central finite differences of a scalar function, orders <= 2."""
    total = sum(sigma)
    if total == 0:
        return fn(tuple(p))
    axes = [m for m in range(3) for _ in range(sigma[m])]
    if total == 1:
        m = axes[0]
        pp, pm = list(p), list(p)
        pp[m] += h
        pm[m] -= h
        return (fn(tuple(pp)) - fn(tuple(pm))) / (2 * h)
    if total == 2:
        m, n = axes
        if m == n:
            pp, pm = list(p), list(p)
            pp[m] += h
            pm[m] -= h
            return (fn(tuple(pp)) - 2 * fn(tuple(p)) + fn(tuple(pm))) / h ** 2
        out = 0.0
        for sm, sn, w in (((+1, +1), None, 1.0), ((+1, -1), None, -1.0),
                          ((-1, +1), None, -1.0), ((-1, -1), None, 1.0)):
            q = list(p)
            q[m] += sm[0] * h
            q[n] += sm[1] * h
            out += w * fn(tuple(q))
        return out / (4 * h ** 2)
    raise ValueError("finite differences implemented for orders <= 2")


# -- per-sample reference of the cloud comparison -----------------------------
#
# The comparison geometry of fbsig.signature written one sample at a time:
# one kd-tree query, SVD and least-squares fit per sample.  The batched code
# must reproduce its witnesses, coverage counts and certified samples.


def ref_patch_distance(q, pts, tree, k=PATCH_K):
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


def ref_separation(va, vb, k=PATCH_K):
    """Min patch distance between the normalized clouds, both directions.

    Returns (distance, side, sample index) of the closest approach; the
    witness of a separation is the sample that gets least close.
    """
    ta, tb = cKDTree(va), cKDTree(vb)
    best = (np.inf, "F", -1)
    for side, pts, other, tree in (("F", va, vb, tb), ("G", vb, va, ta)):
        for i, q in enumerate(pts):
            d = ref_patch_distance(q, other, tree, k)
            if d < best[0]:
                best = (d, side, i)
    return best


def ref_weighted_graph_fit(patch_chart, patch_resp, cq):
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


def ref_graph_residuals(src_chart, src_resp, dst_chart, dst_resp, tol,
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
        pred, misfit, ok = ref_weighted_graph_fit(dst_chart[idx],
                                                  dst_resp[idx], cq)
        if not ok:
            continue
        covered += 1
        resid = float(np.max(np.abs(pred - src_resp[i])))
        max_resid = max(max_resid, resid)
        dense = dk <= 1.5 * r_self
        if (certified is None and dense and resid > 10.0 * tol
                and resid > 5.0 * misfit and full_tree is not None):
            gap = ref_patch_distance(src_full[i], dst_full, full_tree, k)
            _, fidx = full_tree.query(src_full[i], k_eff)
            r_loc = float(np.median(fself[np.atleast_1d(fidx)]))
            if gap > 10.0 * tol and gap > 3.0 * r_loc:
                certified = (i, resid)
    return covered, max_resid, certified


# -- reference series inversion and composition --------------------------------
#
# The series arithmetic of fbsig.taylor and fbsig.transform as it was before
# compositions shared one monomial basis: each composition multiplies out the
# powers of its arguments term by term, the inverse of Psi is refined by
# full-degree sweeps, and the reciprocal's Horner loop builds a series object
# at every step.  The graded sweeps must agree with these to rounding, and
# the raw reciprocal loop bit for bit.


def ref_reciprocal(self):
    c0 = self.const
    check_columns(abs(c0) <= DIV_EPS, lambda i: DivisionBySingular(
        "division by series with zero constant term"))
    # 1/b = (1/c0) * sum (-r)^k  with r = (b - c0)/c0, truncated Horner
    r = (self - c0) * (1.0 / c0)
    s = self._const(1.0)
    for _ in range(self.degree):
        s = 1.0 - r * s
    return s * (1.0 / c0)


def ref_poly_compose(poly: TaylorValue, args) -> TaylorValue:
    """Substitute three series for the offsets of a polynomial series.

    `poly` is read as a polynomial in its own offsets; `args` are three
    TaylorValues (sharing a base point and degree) giving those offsets as
    functions of the new variables.  Returns the composition truncated at
    the degree of `args`.  In a batch, a coefficient of `poly` is skipped
    only when it is zero in every column.
    """
    s1, s2, s3 = args
    s1._compat(s2)
    s1._compat(s3)
    degree = s1.degree
    pows = []
    for s in (s1, s2, s3):
        ps = [s1._const(1.0)]
        for _ in range(poly.degree):
            ps.append(ps[-1] * s)
        pows.append(ps)
    zero = poly.coeffs == 0.0
    if zero.ndim == 2:
        zero = zero.all(axis=1)
    acc = np.zeros(s1.coeffs.shape)
    for pos, (i, j, l) in enumerate(simplex(poly.degree)):
        if zero[pos]:
            continue
        term = pows[0][i] * pows[1][j] * pows[2][l]
        acc = acc + poly.coeffs[pos] * term.coeffs
    return TaylorValue._trusted(s1.point, degree, acc)


def ref_invert_series(psi, q0):
    """Series inverse of Psi around its base point, degree by degree.

    `psi` are the three component series (degree >= 1) at the source point;
    the result are three series at `q0 = Psi(p)` expressing the source
    offsets in terms of the image offsets, correct to the common truncation
    degree.  In a batch every column has its own Jacobian.
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

    qdev = [TaylorValue.variable(m, q0, degree) - q0[m] for m in range(3)]

    # nonlinear parts of Psi (constant and linear coefficients removed)
    nonlin = []
    for i in range(3):
        c = psi[i].coeffs.copy()
        c[0] = 0.0
        for m in range(3):
            c[e[m]] = 0.0
        nonlin.append(TaylorValue._trusted(psi[i].point, degree, c))

    def linear_solve(rhs):
        return [jinv[..., m, 0] * rhs[0] + jinv[..., m, 1] * rhs[1]
                + jinv[..., m, 2] * rhs[2] for m in range(3)]

    xi = linear_solve(qdev)
    for _ in range(max(degree - 1, 0)):
        corrected = [qdev[i] - ref_poly_compose(nonlin[i], xi)
                     for i in range(3)]
        xi = linear_solve(corrected)
    return xi


def ref_transformed_taylor(mapping, f_tv: TaylorValue):
    """(image point, series of the transformed system G at the image point).

    For a batch `f_tv` the image point is three arrays, one entry per column.
    """
    Xp, psi = _prolonged(mapping, f_tv)
    q0 = tuple(c.const for c in psi)
    rhs = Xp * f_tv
    if f_tv.degree == 0:
        return q0, TaylorValue.constant(rhs.const, q0, 0)
    xi = ref_invert_series(psi, q0)
    return q0, ref_poly_compose(rhs, xi)


# -- per-patch reference of the regularity estimates ----------------------------
#
# intrinsic_dimension and chart_margins of fbsig.signature written one
# differential patch and one chart triple at a time, one SVD each.  The
# stacked versions must reproduce their dimensions and margins bit for bit,
# with the triples in the same order.


def ref_tangent_matrices(cloud):
    """The cloud's differentials with rows normalized by the value spread."""
    if cloud.jacobians is None or not len(cloud.jacobians):
        raise TooFewSamples("cloud %r carries no signature differentials"
                            % cloud.system_id)
    spread = _spread(cloud.vectors)
    for J in cloud.jacobians:
        yield J / spread[:, None]


def ref_intrinsic_dimension(cloud, sv_ratio=SV_RATIO) -> int:
    """Median local rank of the signature differential (0..3)."""
    if len(cloud) < 30:
        raise TooFewSamples("need >= 30 samples, have %d" % len(cloud))
    dims = []
    for M in ref_tangent_matrices(cloud):
        s = np.linalg.svd(M, compute_uv=False)
        if s[0] < SV_ZERO:
            dims.append(0)
        else:
            dims.append(int(np.sum(s > sv_ratio * s[0])))
    dims.sort()
    return dims[(len(dims) - 1) // 2]


def ref_chart_margins(cloud) -> dict:
    """Worst-case tangent-projection margin for each candidate triple."""
    names = list(CHART_CANDIDATES)
    triples = [(a, b, c)
               for ia, a in enumerate(names)
               for ib, b in enumerate(names[ia + 1:], ia + 1)
               for c in names[ib + 1:]]
    margins = {t: np.inf for t in triples}
    usable_patches = 0
    for M in ref_tangent_matrices(cloud):
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


# -- reference CSV writer -------------------------------------------------------


def _fmt(v):
    return format(float(v), ".17g")


def ref_export_cloud(cloud, path, skipped_path):
    """The cloud CSV and its sidecar, one formatted number at a time."""
    header = "x,u,u1," + ",".join(SIGNATURE_COMPONENTS)
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for p, v in zip(cloud.points, cloud.vectors):
            fh.write(",".join(_fmt(c) for c in (*p, *v)) + "\n")
    with open(skipped_path, "w", newline="") as fh:
        fh.write("x,u,u1,reason\n")
        for p, reason in cloud.skipped:
            fh.write(",".join(_fmt(c) for c in p) + "," + reason + "\n")


# -- per-point reference of `fbsig transform` -----------------------------------


TRANSFORM_HEADER = ("x,u,u1,xt,ut,u1t,g,g_u1,g_u,g_x,g_u1u1,g_uu1,g_uu,"
                    "g_xu1,g_xu,g_xx,J_F,J_G")


def ref_eval_J(jet, eps=EPS_REG) -> float:
    """J at one point, from one `partial` call per derivative."""
    _require_regular(jet, eps)
    return float(_J_formula(lambda *s: jet.partial(s), jet.point[2]))


def ref_transform_rows(system, mapping, grid, eps=EPS_REG):
    """The transform table one grid point at a time: (CSV text, sidecar
    text, max relative invariance error).

    A point whose evaluation raises is recorded in the sidecar at its grid
    point with the reason a cloud gives it, instead of ending the loop.
    """
    rows, skipped, max_err = [TRANSFORM_HEADER], ["x,u,u1,reason"], 0.0
    with np.errstate(all="ignore"):
        for p in system.domain.grid(grid):
            try:
                jet_f = system.taylor(p, 2)
                q, jet_g = transformed_taylor(mapping, jet_f)
                jf = ref_eval_J(jet_f, eps)
                jg = ref_eval_J(jet_g, eps)
            except (NonRegular, *SKIP_REASONS) as exc:
                reason = (exc.flag if isinstance(exc, NonRegular)
                          else SKIP_REASONS[type(exc)])
                skipped.append(",".join(_fmt(c) for c in p) + "," + reason)
                continue
            max_err = max(max_err, abs(jg - jf) / (1.0 + abs(jf)))
            rows.append(",".join(_fmt(c) for c in
                                 (*p, *q, *jet_g.partials, jf, jg)))
    return "\n".join(rows) + "\n", "\n".join(skipped) + "\n", max_err
