"""Feedback maps: prolonged action, transformed jets, the group structure."""

import numpy as np
import pytest

from fbsig import (FeedbackMap, SingularTransform, SystemDef,
                   TransformedSystem, compose_maps, eval_J,
                   invertibility_check, lift_variables, poly_compose,
                   pushforward_point, random_feedback, signature_vector,
                   system_jet, transformed_jet, transformed_taylor)
from helpers import all_systems, make_system, sample_regular_points

SQ = SystemDef.from_strings("sq", "u1^2",
                            {"x": [-1, 1], "u": [-1, 1], "u1": [1, 2]})


def test_pushforward_point_examples():
    phi = FeedbackMap.from_strings("2*x", "u")
    assert pushforward_point(phi, SQ, (1.0, 0.0, 1.0)) == pytest.approx((2.0, 0.0, 1.0))

    phi2 = FeedbackMap.from_strings("x", "2*u")
    assert pushforward_point(phi2, SQ, (0.0, 0.0, 1.0)) == pytest.approx((0.0, 0.0, 2.0))

    ident = FeedbackMap.from_strings("x", "u")
    p = (0.3, -0.2, 1.4)
    assert pushforward_point(ident, SQ, p) == pytest.approx(p)


def test_transformed_jet_closed_forms():
    # X = 2x: G(xt, ut, u1t) = 2 u1t^2
    phi = FeedbackMap.from_strings("2*x", "u")
    jet = transformed_jet(phi, SQ, (1.0, 0.0, 1.0), 2)
    assert jet.point == pytest.approx((2.0, 0.0, 1.0))
    assert jet.partial((0, 0, 0)) == pytest.approx(2.0)
    assert jet.partial((0, 0, 1)) == pytest.approx(4.0)
    assert jet.partial((0, 0, 2)) == pytest.approx(4.0)
    assert abs(jet.partial((1, 0, 0))) < 1e-12

    # U = 2u: G = (u1t/2)^2
    phi2 = FeedbackMap.from_strings("x", "2*u")
    jet2 = transformed_jet(phi2, SQ, (0.0, 0.0, 1.0), 2)
    assert jet2.point == pytest.approx((0.0, 0.0, 2.0))
    assert jet2.partial((0, 0, 0)) == pytest.approx(1.0)
    assert jet2.partial((0, 0, 1)) == pytest.approx(1.0)
    assert jet2.partial((0, 0, 2)) == pytest.approx(0.5)


def test_transformed_jet_identity():
    ident = FeedbackMap.from_strings("x", "u")
    p = (0.5, 0.25, 1.5)
    direct = system_jet(SQ, p, 4)
    mapped = transformed_jet(ident, SQ, p, 4)
    assert mapped.point == pytest.approx(p)
    assert np.allclose(mapped.values, direct.values, atol=1e-12)


def test_transformed_constant_term_is_xprime_times_f():
    for system in all_systems():
        phi = random_feedback(3, (system.domain.x, system.domain.u))
        for p in sample_regular_points(system, 5, seed=2):
            q, g_tv = transformed_taylor(phi, system.taylor(p, 3))
            xp = phi.X({"x": lift_variables(p, 1)[0]}).partial((1, 0, 0))
            expect = xp * system.value(p)
            assert g_tv.const == pytest.approx(expect, rel=1e-9)


def test_defining_relation_series():
    # all coefficients of G(Psi(.)) - X' F vanish through order 3
    system = make_system("cubic")
    phi = random_feedback(1, (system.domain.x, system.domain.u))
    for p in sample_regular_points(system, 4, seed=9):
        f_tv = system.taylor(p, 3)
        q, g_tv = transformed_taylor(phi, f_tv)
        xl, ul, wl = lift_variables(p, 3)
        X = phi.X({"x": xl})
        U = phi.U({"x": xl, "u": ul})
        f4 = system.taylor(p, 4)
        Ux = phi.U({"x": lift_variables(p, 4)[0],
                    "u": lift_variables(p, 4)[1]}).derivative(0)
        Uu = phi.U({"x": lift_variables(p, 4)[0],
                    "u": lift_variables(p, 4)[1]}).derivative(1)
        psi_dev = (X - q[0], U - q[1],
                   Ux.truncated(3) * f_tv + Uu.truncated(3) * wl - q[2])
        lhs = poly_compose(g_tv, psi_dev)
        Xp = phi.X({"x": lift_variables(p, 4)[0]}).derivative(0)
        rhs = Xp.truncated(3) * f_tv
        scale = max(1.0, np.abs(rhs.coeffs).max())
        assert np.abs(lhs.coeffs - rhs.coeffs).max() <= 1e-9 * scale


def test_group_action_composition():
    phi1 = random_feedback(4)
    phi2 = random_feedback(5)
    comp = compose_maps(phi2, phi1)
    for p in sample_regular_points(SQ, 5, seed=3):
        one = pushforward_point(comp, SQ, p)
        q1 = pushforward_point(phi1, SQ, p)
        # intermediate system: G1 jets provide F-values for the second leg
        t1 = TransformedSystem(phi1, SQ)

        class _Mid:
            def taylor(self, pt, degree):
                assert pt == q1
                return t1.jet_at_source(p, degree)[1].to_taylor()

        two = pushforward_point(phi2, _Mid(), q1)
        assert one == pytest.approx(two, rel=1e-9)


def test_two_sided_composition_returns_original():
    # affine maps have in-family inverses
    phi = FeedbackMap.from_strings("0.2 + 1.5*x", "0.1 + 2*u + 0.3*x")
    inv = FeedbackMap.from_strings("(x - 0.2)/1.5",
                                   "(u - 0.1 - 0.3*((x - 0.2)/1.5))/2")
    system = make_system("cubic")
    t = TransformedSystem(phi, system)
    back = TransformedSystem(inv, t)
    for p in sample_regular_points(system, 5, seed=7):
        q, jet_round = back.jet_at_source(p, 4)
        direct = system_jet(system, p, 4)
        assert q == pytest.approx(p, rel=1e-9)
        scale = np.abs(direct.values).max() + 1.0
        assert np.abs(jet_round.values - direct.values).max() <= 1e-6 * scale


def test_invertibility_check_examples():
    ok = invertibility_check(FeedbackMap.from_strings("2*x", "u"),
                             ((-1, 1), (-1, 1)))
    assert ok.ok
    assert ok.min_abs_xp == pytest.approx(2.0)
    assert ok.min_abs_uu == pytest.approx(1.0)

    bad = invertibility_check(FeedbackMap.from_strings("x^2", "u"),
                              ((-1, 1), (-1, 1)))
    assert not bad.ok

    bad2 = invertibility_check(FeedbackMap.from_strings("x", "u^3"),
                               ((-1, 1), (-1, 1)))
    assert not bad2.ok


def test_singular_transform_rejected():
    # U_u + U_x F_u1 = 0 at the sample point makes the prolonged map singular
    system = SystemDef.from_strings(
        "lin", "u1 + u1^2", {"x": [-1, 1], "u": [-1, 1], "u1": [0.5, 1.5]})
    # choose U so that U_u + U_x * F_u1 = 1 + (-1/3)*3 = 0 at u1 = 1
    phi = FeedbackMap.from_strings("x", "u - x/3")
    with pytest.raises(SingularTransform):
        transformed_taylor(phi, system.taylor((0.0, 0.0, 1.0), 2))


def test_singular_transform_names_its_columns():
    system = SystemDef.from_strings(
        "lin", "u1 + u1^2", {"x": [-1, 1], "u": [-1, 1], "u1": [0.5, 1.5]})
    phi = FeedbackMap.from_strings("x", "u - x/3")
    block = (np.zeros(3), np.zeros(3), np.array([0.5, 1.0, 1.5]))
    with pytest.raises(SingularTransform) as exc:
        transformed_taylor(phi, system.taylor(block, 2))
    assert list(exc.value.columns) == [1]


def test_taylor_at_source_batch_matches_points():
    system = make_system("cubic")
    box = (system.domain.x, system.domain.u)
    inner = TransformedSystem(
        FeedbackMap.from_strings("0.2 + 1.5*x", "0.1 + 2*u + 0.3*x"), system)
    nested = TransformedSystem(random_feedback(4, box), inner)
    pts = sample_regular_points(system, 6, seed=1)
    q, g_tv = nested.taylor_at_source(tuple(np.array(pts).T), 4)
    for k, p in enumerate(pts):
        q_k, g_k = nested.taylor_at_source(p, 4)
        assert q_k == tuple(float(c[k]) for c in q)
        assert np.array_equal(g_k.coeffs, g_tv.coeffs[:, k])


def test_random_feedback_determinism_and_variation():
    a = random_feedback(0)
    b = random_feedback(0)
    assert a.X.source_text == b.X.source_text
    assert a.U.source_text == b.U.source_text
    c = random_feedback(1)
    assert (a.X.source_text, a.U.source_text) != (c.X.source_text,
                                                  c.U.source_text)
    assert invertibility_check(a, a.domain).ok


def test_J_invariance_under_pushforward():
    for system in all_systems():
        phi = random_feedback(11, (system.domain.x, system.domain.u))
        for p in sample_regular_points(system, 5, seed=13):
            jf = eval_J(system_jet(system, p, 2))
            jet_g = transformed_jet(phi, system, p, 2)
            jg = eval_J(jet_g)
            assert abs(jg - jf) <= 1e-9 * (1.0 + abs(jf))


def test_signature_invariance_under_pushforward():
    system = make_system("mix")
    phi = random_feedback(21, (system.domain.x, system.domain.u))
    t = TransformedSystem(phi, system)
    for p in sample_regular_points(system, 5, seed=17):
        sf = signature_vector(system_jet(system, p, 4)).as_array()
        _, jet_g = t.jet_at_source(p, 4)
        sg = signature_vector(jet_g).as_array()
        assert np.abs(sg - sf).max() <= 1e-6 * (1.0 + np.abs(sf).max())


def test_derivation_equivariance():
    # D(Psi) applied to the coefficient field of nabla_i for F equals the
    # coefficient field of nabla_i for the transformed system at the image
    from fbsig import nabla_from_taylor

    for sys_name, map_seed in (("cubic", 31), ("mix", 32), ("squ", 33)):
        system = make_system(sys_name)
        phi = random_feedback(map_seed, (system.domain.x, system.domain.u))
        for p in sample_regular_points(system, 5, seed=19):
            f_tv = system.taylor(p, 4)
            q, g_tv = transformed_taylor(phi, f_tv)

            h = 1e-6
            jac = np.zeros((3, 3))
            for m in range(3):
                pp, pm = list(p), list(p)
                pp[m] += h
                pm[m] -= h
                qp = pushforward_point(phi, system, tuple(pp))
                qm = pushforward_point(phi, system, tuple(pm))
                jac[:, m] = (np.array(qp) - np.array(qm)) / (2 * h)

            for i in (1, 2, 3):
                v_f = np.array(nabla_from_taylor(i, f_tv, 0).constants())
                v_g = np.array(nabla_from_taylor(i, g_tv, 0).constants())
                pushed = jac @ v_f
                scale = 1.0 + np.abs(v_g).max()
                assert np.abs(pushed - v_g).max() <= 1e-6 * scale, (sys_name, i)


def test_image_box_bookkeeping():
    phi = FeedbackMap.from_strings("2*x", "u + 1")
    t = TransformedSystem(phi, SQ)
    box = t.image_box((3, 3, 3))
    assert box.x == pytest.approx((-2.0, 2.0))
    assert box.u == pytest.approx((0.0, 2.0))
    assert box.u1 == pytest.approx((1.0, 2.0))
