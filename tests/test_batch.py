"""Batched grid evaluation equals the scalar API, point by point.

`build_cloud` evaluates a grid in blocks of columns; every row and every
differential must equal the scalar evaluation at its point bit for bit (both
run the same series code), and every skipped point must carry the reason a
per-point evaluation gives it, in grid-index order.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbsig import (EmptyCloud, NonRegular, SystemDef, TransformedSystem, build_cloud,
                   random_feedback, signature_series, signature_vector)
from fbsig.signature import _AXES, DIFFERENTIAL_PATCHES, SKIP_REASONS
from helpers import CANONICAL, make_system

_CUBIC = make_system("cubic")
SYSTEMS = [make_system(name) for name in CANONICAL] + [
    TransformedSystem(random_feedback(7, (_CUBIC.domain.x, _CUBIC.domain.u)),
                      _CUBIC),
    SystemDef.from_strings("logu1", "log(u1) + x",
                           {"x": [1, 2], "u": [-1, 1], "u1": [-1, 2]}),
    SystemDef.from_strings("logx", "u1^2 + log(x) + 20",
                           {"x": [1e-6, 1], "u": [-1, 1], "u1": [1, 2]}),
    SystemDef.from_strings("sq0", "u1^2",
                           {"x": [-1, 1], "u": [-1, 1], "u1": [0, 2]}),
    SystemDef.from_strings("overflow", "u1^2 + 1e-300*exp(1000*x)",
                           {"x": [0, 1], "u": [-1, 1], "u1": [1, 2]}),
]


def per_point(system, grid):
    """Rows (point, values, differential) and skipped points, one point at a
    time through the scalar API (one series per point), in grid-index
    order."""
    transformed = isinstance(system, TransformedSystem)
    box = system.source_domain if transformed else system.domain
    params = box.grid(grid)
    step = max(1, len(params) // DIFFERENTIAL_PATCHES)
    rows, skipped = [], []
    for idx, p in enumerate(params):
        degree = 1 if idx % step == 0 else 0
        point = p
        try:
            if transformed:
                point, f_tv = system.taylor_at_source(p, 4 + degree)
            else:
                f_tv = system.taylor(p, 4 + degree)
            if degree:
                series = signature_series(f_tv, degree)
                values = np.array([c.const for c in series])
                diff = np.array([[c.partial(e) for e in _AXES]
                                 for c in series])
            else:
                values, diff = signature_vector(f_tv).as_array(), None
        except NonRegular as exc:
            skipped.append((tuple(point), exc.flag))
            continue
        except tuple(SKIP_REASONS) as exc:
            skipped.append((tuple(point), SKIP_REASONS[type(exc)]))
            continue
        rows.append((point, values, diff))
    return rows, skipped


@given(st.sampled_from(range(len(SYSTEMS))),
       st.tuples(*[st.integers(2, 5)] * 3))
@settings(max_examples=30, deadline=None)
def test_build_cloud_matches_the_scalar_api(which, grid):
    system = SYSTEMS[which]
    with np.errstate(all="ignore"):     # the overflow system warns per point
        rows, skipped = per_point(system, grid)
    if not rows:
        with pytest.raises(EmptyCloud):
            build_cloud(system, grid)
        return
    cloud = build_cloud(system, grid)
    assert cloud.skipped == skipped
    assert len(cloud) == len(rows)
    diffs = [diff for _, _, diff in rows if diff is not None]
    for k, (point, values, _) in enumerate(rows):
        assert tuple(cloud.points[k]) == tuple(point)
        assert np.array_equal(cloud.vectors[k], values), (system.name, point)
    if diffs:
        spread = cloud.points.max(axis=0) - cloud.points.min(axis=0)
        spread = np.where(spread < 1e-12, 1.0, spread)
        assert np.array_equal(cloud.jacobians, np.asarray(diffs) * spread), \
            system.name


@pytest.mark.parametrize("name", ["overflow", "sq0", "logu1"])
def test_skip_reasons_of_a_cloud(name):
    system = next(s for s in SYSTEMS if s.name == name)
    cloud = build_cloud(system, (5, 5, 5))
    reasons = {r for _, r in cloud.skipped}
    assert reasons == {"overflow": {"non-finite jet"}, "sq0": {"f"},
                       "logu1": {"domain error"}}[name]
    assert np.isfinite(cloud.vectors).all()
