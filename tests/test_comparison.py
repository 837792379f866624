"""The batched comparison geometry against its per-sample reference."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from fbsig import (SignatureCloud, SystemDef, TransformedSystem, build_cloud,
                   compare, random_feedback)
from fbsig import signature
from fbsig.signature import (BLOCK_COLUMNS, EQUIVALENT, INCONCLUSIVE,
                             NOT_EQUIVALENT, PATCH_K, _approach,
                             _graph_residuals, _knn, _separation, _spread)
from helpers import (CANONICAL, make_system, ref_graph_residuals,
                     ref_patch_distance, ref_separation)

CHART = ("j", "j1", "j2")       # columns 0, 1, 2 of the 14-vector
REST = list(range(3, 14))


def manifold(t, shift=0.0, bend=1.0):
    """A smooth 3-manifold in R^14 over chart coordinates t (n, 3)."""
    rng = np.random.default_rng(7)
    a, b = rng.normal(size=(3, 11)), rng.uniform(0, np.pi, 11)
    return np.column_stack([t, np.sin(bend * t @ a + b) + shift])


def uniform(n, seed):
    return np.random.default_rng(seed).uniform(size=(n, 3))


def normalized(vf, vg):
    spread = _spread(np.vstack([vf, vg]))
    return vf / spread, vg / spread


def duplicated(n, seed):
    t = uniform(n, seed)
    return np.vstack([t, t[::3]])


def repeated(n, seed):
    # PATCH_K + 1 copies of one base point: a patch of them is one point
    t = uniform(n, seed)
    return np.vstack([np.repeat(t[:1], PATCH_K + 1, axis=0), t[1:]])


def with_cluster(v, value, ulps=0):
    # the first PATCH_K + 1 samples become copies of the vector with every
    # component `value`, every other copy moved by `ulps` units in the last
    # place: a patch of them has no spread beyond rounding
    v = v.copy()
    v[:PATCH_K + 1] = value
    v[:PATCH_K + 1:2] += ulps * np.spacing(v[:PATCH_K + 1:2])
    return v


def plane(t, seed=15):
    """Points over t (n, 3) of a random flat 3-plane in R^14."""
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.normal(size=(14, 3)))[0]
    return t @ basis.T + rng.normal(size=14)


CASES = {
    "1-300": (manifold(uniform(1, 1)), manifold(uniform(300, 2), 0.02)),
    "300-1": (manifold(uniform(300, 2)), manifold(uniform(1, 1), 0.02)),
    "2-300": (manifold(uniform(2, 3)), manifold(uniform(300, 2))),
    "300-2": (manifold(uniform(300, 2), 0.02), manifold(uniform(2, 3))),
    "12-12": (manifold(uniform(12, 4)), manifold(uniform(12, 5), bend=1.1)),
    "13-300": (manifold(uniform(13, 6)), manifold(uniform(300, 7))),
    "300-13": (manifold(uniform(300, 7)), manifold(uniform(13, 6), 0.01)),
    "300-300": (manifold(uniform(300, 8)), manifold(uniform(300, 9))),
    "bent": (manifold(uniform(300, 8)), manifold(uniform(300, 9), bend=1.02)),
    "shifted": (manifold(uniform(300, 8)), manifold(uniform(300, 9), 0.05)),
    "duplicates": (manifold(duplicated(200, 10)),
                   manifold(duplicated(200, 11), 0.03)),
    "same-duplicates": (manifold(duplicated(200, 10)),
                        manifold(duplicated(200, 10))),
    "repeated": (manifold(uniform(300, 12), 0.02),
                 manifold(repeated(300, 12))),
    "zero-spread": (with_cluster(manifold(uniform(300, 12), 0.02), 0.02),
                    with_cluster(manifold(uniform(300, 12)), 0.0)),
    "rounding-spread": (with_cluster(manifold(uniform(300, 12), 0.02), 0.02),
                        with_cluster(manifold(uniform(300, 12)), 0.01, 2)),
    "partial-overlap": (manifold(1.5 * uniform(300, 13)),
                        manifold(uniform(300, 14))),
    # far queries in the plane of small flat patches, where the distance is
    # |q - c| - r up to rounding
    "in-plane": (plane(100 * uniform(300, 16)), plane(uniform(300, 17))),
}


def assert_close(new, ref):
    """1e-9 relative, or 1e-15 absolute for distances that are rounding."""
    new, ref = np.asarray(new), np.asarray(ref)
    assert np.all(np.abs(new - ref) <= np.maximum(1e-9 * np.abs(ref), 1e-15))


@pytest.mark.parametrize("case", CASES)
def test_separation_matches_reference(case):
    va, vb = normalized(*CASES[case])
    best, near_f, near_g = _separation(va, vb)
    ref = ref_separation(va, vb)
    assert best[1:] == ref[1:]
    assert_close(best[0], ref[0])
    for queries, pts, near in ((va, vb, near_f), (vb, va, near_g)):
        tree = cKDTree(pts)
        assert_close(near.gaps(np.arange(len(queries))),
                     [ref_patch_distance(q, pts, tree) for q in queries])
        k_eff = min(PATCH_K, len(pts))
        assert near.idx.shape == (len(queries), k_eff)
        assert np.array_equal(near.idx,
                              tree.query(queries, k_eff)[1].reshape(-1, k_eff))


def full_separation(va, vb):
    """The patch distances of every sample of both clouds, and the
    lexicographic minimum of (distance, side, index) over them."""
    gap_f = _approach(va, vb).gaps(np.arange(len(va)))
    gap_g = _approach(vb, va).gaps(np.arange(len(vb)))
    best = min([(float(d), "F", i) for i, d in enumerate(gap_f)]
               + [(float(d), "G", j) for j, d in enumerate(gap_g)])
    return best, gap_f, gap_g


def assert_pruned_matches_full(va, vb):
    full, gap_f, gap_g = full_separation(va, vb)
    for enough in (-np.inf, 1e-3):
        best, near_f, near_g = _separation(va, vb, enough)
        # every bound lies below the distance it bounds
        assert np.all(near_f.lower <= gap_f)
        assert np.all(near_g.lower <= gap_g)
        if full[0] <= enough:
            # stopped at a fitted sample close enough, not the closest one
            assert best[0] <= enough
            assert best[0] == (gap_f if best[1] == "F" else gap_g)[best[2]]
        else:
            assert best == full


@pytest.mark.parametrize("case", CASES)
def test_pruned_separation_matches_full_evaluation(case):
    assert_pruned_matches_full(*normalized(*CASES[case]))


@given(st.integers(1, 300), st.integers(1, 300), st.integers(0, 2 ** 16),
       st.integers(0, 100), st.sampled_from(["other", "copy"]),
       st.sampled_from([0.0, 1e-9, 1e-4, 0.05]))
@settings(max_examples=40, deadline=None)
def test_pruned_separation_on_random_clouds(n_f, n_g, seed, n_dup, g_kind,
                                            shift):
    # F has its first n_dup base points twice; G samples the same manifold
    # at other base points or at F's own, shifted off it by `shift`
    t_f = uniform(n_f, seed)
    t_f = np.vstack([t_f, t_f[:n_dup]])
    t_g = uniform(n_g, seed + 1) if g_kind == "other" else t_f
    assert_pruned_matches_full(*normalized(manifold(t_f),
                                           manifold(t_g, shift)))


@pytest.mark.parametrize("case", CASES)
def test_patch_distances_of_any_subset(case):
    # a sample's distance does not depend on the samples fitted with it
    rng = np.random.default_rng(0)
    va, vb = normalized(*CASES[case])
    for queries, pts in ((va, vb), (vb, va)):
        near = _approach(queries, pts)
        n = len(queries)
        full = near.gaps(np.arange(n))
        assert full.shape == (n,)
        for rows in (rng.permutation(n), np.arange(n)[::-3],
                     rng.choice(n, (n + 1) // 2, replace=False),
                     np.array([n - 1]), np.zeros(0, dtype=int)):
            assert np.array_equal(near.gaps(rows), full[rows])
        for i in rng.choice(n, min(n, 20), replace=False):
            assert np.array_equal(near.gaps(np.array([i])), full[[i]])


def test_coinciding_clouds_fit_one_chunk(monkeypatch):
    # cubic and its pushforward sample one 3-D manifold: the first chunk of
    # samples already comes within 10*tol_rel, which is all the graph test
    # needs to know of the separation
    system = make_system("cubic")
    phi = random_feedback(7, (system.domain.x, system.domain.u))
    cloud_f = build_cloud(system, (9, 9, 9))
    cloud_g = build_cloud(TransformedSystem(phi, system), (9, 9, 9))
    assert len(cloud_f) + len(cloud_g) > 5 * BLOCK_COLUMNS
    fitted = []
    fit = signature._tangent_gaps

    def counted(queries, pts, idx):
        fitted.append(len(queries))
        return fit(queries, pts, idx)

    monkeypatch.setattr(signature, "_tangent_gaps", counted)
    verdict = compare(cloud_f, cloud_g)
    assert verdict.status == EQUIVALENT
    assert 0 < sum(fitted) <= BLOCK_COLUMNS


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("tol", [1e-4, 1e-2])
def test_graph_residuals_match_reference(case, tol):
    va, vb = normalized(*CASES[case])
    _, near_f, near_g = _separation(va, vb)
    for src, dst, near in ((va, vb, near_f), (vb, va, near_g)):
        cov, resid, cert = _graph_residuals(src[:, :3], src[:, REST],
                                            dst[:, :3], dst[:, REST], tol,
                                            near)
        # the reference's certificate indexes its spacing array as 2-D,
        # which a one-sample target cannot be; with one sample no fit has
        # full rank, so nothing is covered or certified either way
        full = {} if len(dst) == 1 else {"dst_full": dst, "src_full": src}
        ref_cov, ref_resid, ref_cert = ref_graph_residuals(
            src[:, :3], src[:, REST], dst[:, :3], dst[:, REST], tol, **full)
        assert cov == ref_cov
        assert_close(resid, ref_resid)
        assert (cert is None) == (ref_cert is None)
        if cert is not None:
            assert cert[0] == ref_cert[0]
            assert_close(cert[1], ref_cert[1])


def grid_cloud(name, vectors, t):
    return SignatureCloud(system_id=name, points=t, vectors=vectors,
                          skipped=[], intrinsic_dim=3, chart=CHART,
                          chart_margins={CHART: 1.0})


def step_clouds():
    # two 3-D clouds on one 9^3 grid of the chart (j, j1, j2): they coincide
    # where j <= 0.5 and differ by an O(1) step elsewhere
    axis = np.linspace(0.0, 1.0, 9)
    t = np.array(np.meshgrid(axis, axis, axis, indexing="ij")).reshape(3, -1).T
    vf = manifold(t)
    vg = vf.copy()
    vg[t[:, 0] > 0.5, 3:] += 1.0
    return grid_cloud("F", vf, t), grid_cloud("G", vg, t)


def gray_zone_clouds():
    # cubic against cubic + 0.005*u*u1 at 11^3: not separated, and hundreds
    # of samples pass every gate of the certificate but its last
    f_text, domain = CANONICAL["cubic"]
    perturbed = SystemDef.from_strings("cubic+", f_text + " + 0.005*u*u1",
                                       domain)
    return (build_cloud(make_system("cubic"), (11, 11, 11)),
            build_cloud(perturbed, (11, 11, 11)))


@pytest.mark.parametrize("clouds, status, candidates", [
    (step_clouds, NOT_EQUIVALENT, [239, 320]),
    (gray_zone_clouds, INCONCLUSIVE, [270, 251])])
def test_certificate_spacing_matches_full_self_query(clouds, status,
                                                     candidates, monkeypatch):
    # the spacing of the candidates' patches equals the one read off a
    # self-query of every target sample, bit for bit
    seen = []
    spacing_of = signature._local_spacing

    def checked(near, rows, k):
        r_loc = spacing_of(near, rows, k)
        spacing = _knn(near.tree, near.pts, min(k + 1, len(near.pts)))[0]
        assert np.array_equal(
            r_loc, np.median(spacing[:, -1][near.idx[rows]], axis=1))
        seen.append(len(rows))
        return r_loc

    monkeypatch.setattr(signature, "_local_spacing", checked)
    assert compare(*clouds()).status == status
    assert seen == candidates


def test_graph_mismatch_is_certified():
    # not separated, but the residuals certify the difference
    cloud_f, cloud_g = step_clouds()
    vf, vg = cloud_f.vectors, cloud_g.vectors
    verdict = compare(cloud_f, cloud_g)
    assert verdict.status == NOT_EQUIVALENT

    va, vb = normalized(vf, vg)
    assert ref_separation(va, vb)[0] <= 1e-3
    cert_f = ref_graph_residuals(va[:, :3], va[:, REST], vb[:, :3],
                                 vb[:, REST], 1e-4, dst_full=vb,
                                 src_full=va)[2]
    cert_g = ref_graph_residuals(vb[:, :3], vb[:, REST], va[:, :3],
                                 va[:, REST], 1e-4, dst_full=va,
                                 src_full=vb)[2]
    which, (i, resid) = ("F", cert_f) if cert_f else ("G", cert_g)
    assert verdict.notes[-1] == (
        "graph mismatch: %s-sample %d residual %.6g > 10*tol_rel in a "
        "densely covered region" % (which, i, resid))
