"""The batched comparison geometry against its per-sample reference."""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from fbsig import SignatureCloud, compare
from fbsig.signature import (NOT_EQUIVALENT, PATCH_K, _graph_residuals,
                             _separation, _spread)
from helpers import ref_graph_residuals, ref_patch_distance, ref_separation

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
        assert_close(near.gap, [ref_patch_distance(q, pts, tree)
                                for q in queries])
        k_eff = min(PATCH_K, len(pts))
        assert near.idx.shape == (len(queries), k_eff)
        assert np.array_equal(near.idx,
                              tree.query(queries, k_eff)[1].reshape(-1, k_eff))


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


def test_graph_mismatch_is_certified():
    # two 3-D clouds on one 9^3 grid of the chart (j, j1, j2): they coincide
    # where j <= 0.5 and differ by an O(1) step elsewhere, so they are not
    # separated, but the residuals certify the difference
    axis = np.linspace(0.0, 1.0, 9)
    t = np.array(np.meshgrid(axis, axis, axis, indexing="ij")).reshape(3, -1).T
    vf = manifold(t)
    vg = vf.copy()
    vg[t[:, 0] > 0.5, 3:] += 1.0
    verdict = compare(grid_cloud("F", vf, t), grid_cloud("G", vg, t))
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
