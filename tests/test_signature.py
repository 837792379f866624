"""Signature clouds, dimension/chart estimation, Tresse solve, comparison."""

import numpy as np
import pytest

from fbsig import (DependentBasis, EmptyCloud, FeedbackMap, SignatureCloud,
                   SingularTransform, SystemDef, TooFewSamples,
                   TransformedSystem, apply_nabla, build_cloud, compare,
                   export_cloud, intrinsic_dimension, nabla_from_taylor,
                   pullback_from_taylor, pushforward_point, random_feedback,
                   select_chart, signature_series, signature_vector,
                   system_jet, tresse)
from fbsig.errors import DomainError, NonRegular, check_columns
from fbsig.signature import (BLOCK_COLUMNS, CHART_CANDIDATES, EQUIVALENT,
                             INCONCLUSIVE, NOT_EQUIVALENT, chart_margins,
                             evaluate_grid)
from helpers import (CANONICAL, fd_gradient, make_system, ref_chart_margins,
                     ref_export_cloud, ref_intrinsic_dimension,
                     sample_regular_points)

SQ = SystemDef.from_strings("sq", "u1^2",
                            {"x": [-1, 1], "u": [-1, 1], "u1": [1, 2]})


@pytest.fixture(scope="module")
def cubic_cloud():
    return build_cloud(make_system("cubic"), (9, 9, 9))


@pytest.fixture(scope="module")
def sq_cloud():
    return build_cloud(SQ, (5, 5, 5))


def test_constant_cloud(sq_cloud):
    assert len(sq_cloud) == 125
    assert sq_cloud.intrinsic_dim == 0
    assert sq_cloud.chart is None
    expected = np.zeros(14)
    expected[0] = 0.5
    assert np.allclose(sq_cloud.vectors, expected[None, :], atol=1e-12)


def test_empty_cloud():
    lin = SystemDef.from_strings("lin", "u1",
                                 {"x": [-1, 1], "u": [-1, 1], "u1": [1, 2]})
    with pytest.raises(EmptyCloud):
        build_cloud(lin, (3, 3, 3))


def test_skipped_points_recorded():
    # f = u1^2 vanishes at u1 = 0: those grid points are skipped, not dropped
    s = SystemDef.from_strings("sq0", "u1^2",
                               {"x": [-1, 1], "u": [-1, 1], "u1": [0, 2]})
    cloud = build_cloud(s, (3, 3, 3))
    assert len(cloud.skipped) == 9  # the u1 = 0 grid plane
    assert all(reason == "f" for _, reason in cloud.skipped)
    assert len(cloud) == 18


def test_curve_cloud_dimension():
    e = SystemDef.from_strings("expu1", "exp(u1)",
                               {"x": [-1, 1], "u": [-1, 1], "u1": [2, 3]})
    cloud = build_cloud(e, (5, 5, 5))
    assert cloud.intrinsic_dim == 1
    js = cloud.vectors[:, 0]
    assert js.min() == pytest.approx(0.5)
    assert js.max() == pytest.approx(1.0)


def test_generic_cloud_dimension_and_chart(cubic_cloud):
    assert cubic_cloud.intrinsic_dim == 3
    assert cubic_cloud.chart is not None
    assert set(cubic_cloud.chart) <= set(CHART_CANDIDATES)
    assert cubic_cloud.chart_margins[cubic_cloud.chart] >= 1e-6


def test_intrinsic_dimension_too_few_samples():
    cloud = SignatureCloud("tiny", np.zeros((5, 3)), np.zeros((5, 14)), [])
    with pytest.raises(TooFewSamples):
        intrinsic_dimension(cloud)


def test_dimension_from_analytic_differentials():
    # synthetic cloud, linear in its base points: the differential is constant
    rng = np.random.default_rng(0)
    t = rng.uniform(0.0, 1.0, size=(200, 3))
    D = np.zeros((14, 3))
    D[0, 0] = D[2, 1] = D[10, 2] = 1.0
    D[5] = (0.3, 0.0, -0.2)
    cloud = SignatureCloud("synthetic", t, t @ D.T, [])
    with pytest.raises(TooFewSamples):
        intrinsic_dimension(cloud)      # no differentials: an error
    cloud.jacobians = np.repeat(D[None], 20, axis=0)
    assert intrinsic_dimension(cloud) == 3


def _assert_estimates_match_reference(cloud):
    assert intrinsic_dimension(cloud) == ref_intrinsic_dimension(cloud)
    margins, ref = chart_margins(cloud), ref_chart_margins(cloud)
    assert list(margins) == list(ref)
    for t in ref:
        assert type(margins[t]) is float
        assert np.array_equal(margins[t], ref[t]), t


@pytest.mark.parametrize("n", [4, 11])
@pytest.mark.parametrize("name", sorted(CANONICAL))
def test_regularity_estimates_match_per_patch_reference(name, n):
    # one stacked SVD per cloud against one SVD per patch and per triple
    _assert_estimates_match_reference(build_cloud(make_system(name),
                                                  (n, n, n)))


def test_regularity_estimates_match_reference_on_pushforward():
    system = make_system("cubic")
    phi = random_feedback(7, (system.domain.x, system.domain.u))
    _assert_estimates_match_reference(
        build_cloud(TransformedSystem(phi, system), (7, 7, 7)))


def test_regularity_estimates_match_reference_on_mixed_ranks():
    # differentials of ranks 0, 1, 3, 3, 3, 2: the median rule takes the
    # lower of the two middle ranks, and only rank-3 patches give margins
    rng = np.random.default_rng(4)
    t = rng.uniform(size=(40, 3))
    cloud = SignatureCloud("mixed", t, rng.normal(size=(40, 14)), [])
    diffs = rng.normal(size=(6, 14, 3))
    diffs[0] = 0.0
    diffs[1, :, 1:] = 0.0
    diffs[5, :, 2] = diffs[5, :, 0] - diffs[5, :, 1]
    cloud.jacobians = diffs
    assert intrinsic_dimension(cloud) == 2
    _assert_estimates_match_reference(cloud)


def test_chart_margins_without_usable_patch(sq_cloud):
    # a constant signature: every differential is zero, no patch is usable
    _assert_estimates_match_reference(sq_cloud)
    assert set(chart_margins(sq_cloud).values()) == {0.0}


def test_select_chart_excludes_degenerate_coordinate():
    # j constant, (j1, j2, k) parametrize; chart must exclude j
    n = 11
    axes = np.linspace(0.1, 1.0, n)
    pts, vecs, diffs = [], [], []
    for a in axes:
        for b in axes:
            for c in axes:
                pts.append((a, b, c))
                v = np.zeros(14)
                d = np.zeros((14, 3))
                v[0] = 2.0                      # j constant
                v[1], v[2], v[10] = a, b, c     # j1, j2, k
                d[1, 0] = d[2, 1] = d[10, 2] = 1.0
                v[3] = 0.2 * a + 0.1 * b * c    # j3 dependent
                d[3] = (0.2, 0.1 * c, 0.1 * b)
                v[7] = a * a - c                # j22 rides along
                d[7] = (2.0 * a, 0.0, -1.0)
                vecs.append(v)
                diffs.append(d)
    cloud = SignatureCloud("graph", np.array(pts), np.array(vecs), [],
                           jacobians=np.array(diffs[::13]))
    cloud.intrinsic_dim = intrinsic_dimension(cloud)
    assert cloud.intrinsic_dim == 3
    cloud.chart_margins = chart_margins(cloud)
    chart = select_chart(cloud)
    assert chart is not None
    assert "j" not in chart


def test_exact_differential_matches_finite_differences():
    # the degree-1 signature series against central differences of the
    # degree-0 values, at cubic points and at one pushforward point
    system = make_system("cubic")
    for p in sample_regular_points(system, 3, seed=5):
        series = signature_series(system.taylor(p, 5), 1)
        exact = np.array([[c.partial(e) for e in AXES] for c in series])
        sig = signature_vector(system.taylor(p, 4)).as_array()
        assert np.array_equal([c.const for c in series], sig)
        ref = _fd_jacobian(
            lambda q: signature_vector(system.taylor(q, 4)).as_array(), p)
        _assert_close_rows(exact, ref)

    # pushforward: sigma_G(Psi(p)) = sigma_F(p), differentiated in p, equals
    # the exact image-coordinate differential times dPsi/dp
    phi = random_feedback(7, (system.domain.x, system.domain.u))
    pushed = TransformedSystem(phi, system)
    p = sample_regular_points(system, 1, seed=6)[0]
    f_tv = pushed.taylor(p, 5)
    series = signature_series(f_tv, 1)
    exact = np.array([[c.partial(e) for e in AXES] for c in series])
    dpsi = _fd_jacobian(lambda q: np.array(pushforward_point(phi, system, q)),
                        p)
    ref = _fd_jacobian(
        lambda q: signature_vector(pushed.taylor(q, 4))
        .as_array(), p)
    _assert_close_rows(exact @ dpsi, ref)


AXES = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _fd_jacobian(vector_fn, p):
    """Rows of helpers.fd_gradient, one per component of a vector function."""
    cache = {}

    def value(q):
        if q not in cache:
            cache[q] = vector_fn(q)
        return cache[q]

    n = len(value(tuple(p)))
    return np.array([fd_gradient(lambda q, c=c: value(q)[c], p)
                     for c in range(n)])


def _assert_close_rows(exact, ref, rel=1e-5):
    scale = np.maximum(1.0, np.abs(ref).max(axis=1, keepdims=True))
    err = np.abs(exact - ref) / scale
    assert err.max() <= rel, err


# -- tresse ---------------------------------------------------------------------


def tresse_setup(point=(0.5, 0.5, 2.0)):
    system = make_system("cubic")
    f_tv = system.taylor(point, 4)
    JF = pullback_from_taylor("J", f_tv, 2)
    grads = tuple(JF.derivative(ax) for ax in range(3))
    basis = []
    for i in (1, 2, 3):
        fld = nabla_from_taylor(i, f_tv, 1)
        acc = fld.components[0] * grads[0]
        acc = acc + fld.components[1] * grads[1]
        acc = acc + fld.components[2] * grads[2]
        basis.append(acc)
    return system, f_tv, tuple(basis)


def test_tresse_identity_and_linearity():
    _, _, basis = tresse_setup()
    lam = tresse(basis[0], basis)
    assert lam == pytest.approx((1.0, 0.0, 0.0), abs=1e-9)

    const = basis[0] * 0.0
    assert tresse(const, basis) == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)

    combo = 2.0 * basis[0] + 3.0 * basis[1]
    assert tresse(combo, basis) == pytest.approx((2.0, 3.0, 0.0), abs=1e-9)


def test_tresse_dependent_basis():
    _, _, basis = tresse_setup()
    degenerate = (basis[0], basis[0], basis[2])
    with pytest.raises(DependentBasis):
        tresse(basis[0], degenerate)


def test_invariant_derivation_decomposition():
    # nabla_i = sum_j nabla_i(J_j) D/DJ_j, checked on the pullback of K
    system, _, _ = tresse_setup()
    for p in sample_regular_points(system, 25, seed=23):
        f_tv = system.taylor(p, 5)
        jet = system_jet(system, p, 4)
        _, _, basis = tresse_setup(point=p)
        KF = pullback_from_taylor("K", f_tv, 1)
        lam = tresse(KF, basis)
        for i in (1, 2, 3):
            left = apply_nabla(i, KF, jet)
            rij = [apply_nabla(i, basis[j], jet) for j in range(3)]
            right = float(np.dot(rij, lam))
            assert abs(left - right) <= 1e-5 * (1.0 + abs(left))


# -- compare ---------------------------------------------------------------------


def test_compare_identical_clouds(cubic_cloud):
    v = compare(cubic_cloud, cubic_cloud)
    assert v.status == EQUIVALENT
    assert v.max_residual <= 1e-10
    assert v.overlap_fraction > 0.9


def test_compare_pushforward_equivalent(cubic_cloud):
    system = make_system("cubic")
    phi = random_feedback(7, (system.domain.x, system.domain.u))
    g_cloud = build_cloud(TransformedSystem(phi, system), (9, 9, 9))
    v = compare(cubic_cloud, g_cloud)
    assert v.status == EQUIVALENT
    assert v.max_residual < 1e-4


def test_folded_pushforward_cloud_raises():
    # random_feedback(0) passes the X' and U_u checks on the cubic box, but
    # dU1/du1 = U_x F_u1 + U_u changes sign there, and with it det dPsi/dp:
    # points on both sides of the fold share image jets
    system = make_system("cubic")
    box = (system.domain.x, system.domain.u)
    folded = TransformedSystem(random_feedback(0, box), system)
    scaled = FeedbackMap.from_strings("2*x", "u + 1")
    for pushed in (folded, TransformedSystem(scaled, folded)):
        with pytest.raises(SingularTransform, match="folds the source box"):
            build_cloud(pushed, (11, 11, 11))
    # an unfolded nested pushforward builds
    inner = TransformedSystem(random_feedback(7, box), system)
    assert len(build_cloud(TransformedSystem(scaled, inner), (4, 4, 4))) == 64


def test_compare_decorrelated_sampling_never_certifies_difference(cubic_cloud):
    # two samplings of one manifold on unrelated grids: interpolation error,
    # sparse regions and locally non-injective chart projections must all
    # land in the gray zone, never in a certified NOT_EQUIVALENT
    system = make_system("cubic")
    phi = random_feedback(7, (system.domain.x, system.domain.u))
    g_cloud = build_cloud(TransformedSystem(phi, system), (10, 10, 10))
    for tol in (1e-4, 1e-3, 1e-2):
        v = compare(cubic_cloud, g_cloud, tol_rel=tol)
        assert v.status != NOT_EQUIVALENT, (tol, v.notes)


def test_compare_perturbed_system_distinguished(cubic_cloud):
    pert = SystemDef.from_strings(
        "pert", "u1^3/3 + x*u1 + u^2 + 2 + 0.05*u*u1",
        {"x": [0.2, 1.0], "u": [0.2, 0.8], "u1": [1.8, 2.6]})
    v = compare(cubic_cloud, build_cloud(pert, (9, 9, 9)))
    assert v.status == NOT_EQUIVALENT


def test_compare_separated():
    e = SystemDef.from_strings("exp34", "exp(u1)",
                               {"x": [-1, 1], "u": [-1, 1], "u1": [3, 4]})
    v = compare(build_cloud(SQ, (5, 5, 5)), build_cloud(e, (5, 5, 5)))
    assert v.status == NOT_EQUIVALENT
    assert "separated" in v.notes[0]


def test_compare_matching_constant_clouds_inconclusive(sq_cloud):
    s2 = SystemDef.from_strings("sq2", "2*u1^2",
                                {"x": [-1, 1], "u": [-1, 1], "u1": [1, 2]})
    v = compare(sq_cloud, build_cloud(s2, (5, 5, 5)))
    assert v.status == INCONCLUSIVE


def test_compare_symmetry(cubic_cloud, sq_cloud):
    system = make_system("cubic")
    phi = random_feedback(7, (system.domain.x, system.domain.u))
    g_cloud = build_cloud(TransformedSystem(phi, system), (9, 9, 9))
    pairs = [(cubic_cloud, g_cloud), (sq_cloud, cubic_cloud)]
    for a, b in pairs:
        assert compare(a, b).status == compare(b, a).status


def test_verdict_monotone_in_tolerance(cubic_cloud, sq_cloud):
    e = SystemDef.from_strings("exp34", "exp(u1)",
                               {"x": [-1, 1], "u": [-1, 1], "u1": [3, 4]})
    clouds = [(build_cloud(SQ, (5, 5, 5)), build_cloud(e, (5, 5, 5))),
              (cubic_cloud, cubic_cloud)]
    rank = {NOT_EQUIVALENT: 0, INCONCLUSIVE: 1, EQUIVALENT: 2}
    for a, b in clouds:
        prev = None
        for tol in (1e-3, 1e-4, 1e-5, 1e-6):
            status = compare(a, b, tol_rel=tol).status
            if prev is not None:
                assert rank[status] <= rank[prev]
            prev = status


def test_cloud_invariance_pointwise():
    # sigma_G(Psi(p)) lands on Sigma_F at the corresponding source point
    system = make_system("cubic")
    phi = random_feedback(2, (system.domain.x, system.domain.u))
    t = TransformedSystem(phi, system)
    f_cloud = build_cloud(system, (4, 4, 4))
    g_cloud = build_cloud(t, (4, 4, 4))
    spread = np.maximum(f_cloud.vectors.max(0) - f_cloud.vectors.min(0), 1e-12)
    diff = np.abs(g_cloud.vectors - f_cloud.vectors) / spread
    assert diff.max() <= 1e-6


def test_export_cloud_format(tmp_path, sq_cloud):
    path = tmp_path / "cloud.csv"
    cloud_path, skipped_path = export_cloud(sq_cloud, path)
    lines = open(cloud_path).read().splitlines()
    assert lines[0] == ("x,u,u1,j,j1,j2,j3,j11,j12,j13,j22,j23,j33,k,k1,k2,k3")
    assert len(lines) == 126
    first = lines[1].split(",")
    assert len(first) == 17
    assert first[3] == "0.5"
    skipped_lines = open(skipped_path).read().splitlines()
    assert skipped_lines[0] == "x,u,u1,reason"


def test_export_cloud_bytes_match_reference_writer(tmp_path):
    # one template per row writes the bytes of one format() call per number
    rng = np.random.default_rng(3)
    points = rng.uniform(-2.0, 2.0, size=(6, 3))
    vectors = rng.normal(size=(6, 14)) * 10.0 ** rng.integers(-300, 300,
                                                               size=(6, 14))
    vectors[0, :5] = (np.inf, -np.inf, np.nan, -0.0, 0.0)
    vectors[1, :4] = (5e-324, -5e-324, 1e308, -1e308)
    points[2] = (-0.0, 5e-324, 1e308)
    skipped = [((-0.0, np.inf, 5e-324), "f"),
               ((1e308, np.nan, 0.1), "non-finite jet")]
    cloud = SignatureCloud("special", points, vectors, skipped)
    cloud_path, skipped_path = export_cloud(cloud, tmp_path / "new.csv")
    ref_export_cloud(cloud, tmp_path / "ref.csv", tmp_path / "ref_skipped.csv")
    for new, ref in ((cloud_path, "ref.csv"), (skipped_path, "ref_skipped.csv")):
        with open(new, "rb") as a, open(tmp_path / ref, "rb") as b:
            assert a.read() == b.read()


def test_evaluate_grid_records_and_retries():
    # multiples of 3 fail a first check, the other multiples of 5 a second
    n = 2 * BLOCK_COLUMNS + 88
    done, blocks = np.zeros(n, dtype=bool), []

    def stage(idx):
        blocks.append(idx)
        check_columns(idx % 3 == 0, lambda i: DomainError("three"))
        check_columns(idx % 5 == 0, lambda i: NonRegular("f", 0.0))
        done[idx] = True

    reasons = [None] * n
    evaluate_grid(np.arange(n), stage, reasons)
    assert reasons == ["domain error" if i % 3 == 0 else "f" if i % 5 == 0
                       else None for i in range(n)]
    assert done.tolist() == [r is None for r in reasons]
    # three blocks, each run on all its columns, on the columns left after
    # the first check and on those left after the second
    assert len(blocks) == 9
    assert max(len(b) for b in blocks) == BLOCK_COLUMNS
    assert blocks[2].tolist() == [i for i in range(BLOCK_COLUMNS)
                                  if i % 3 and i % 5]
