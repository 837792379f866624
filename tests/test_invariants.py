"""Invariants J and K, derivations, brackets, and the signature vector.

Reference values marked "commutator identity" were computed independently
with exact symbolic algebra from the bracket characterizations
[n2,n1] = J n1, [n3,n1] = K n2, [n3,n2] = -n3 + J n1 + L n2 and frozen here;
the in-package bracket oracle must land on the same numbers.
"""

import numpy as np
import pytest

from fbsig import (Jet, NonRegular, OrderExceeded, apply_nabla, bracket,
                   bracket_scalars, eval_J, eval_K, nabla, nabla_from_taylor,
                   pullback, pullback_from_taylor, regularity,
                   signature_vector, system_jet)
from fbsig import SystemDef
from helpers import (all_systems, fd_gradient, make_system,
                     sample_regular_points)


def S(f_text, name="s", domain=None):
    domain = domain or {"x": [-2, 2], "u": [-2, 2], "u1": [-3, 3]}
    return SystemDef.from_strings(name, f_text, domain)


# -- jets ---------------------------------------------------------------------


def test_system_jet_monomial():
    jet = system_jet(S("u1^2"), (0.0, 0.0, 1.0), 2)
    assert jet.partial((0, 0, 0)) == pytest.approx(1.0)
    assert jet.partial((0, 0, 1)) == pytest.approx(2.0)
    assert jet.partial((0, 0, 2)) == pytest.approx(2.0)
    for sigma in ((1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 0, 0)):
        assert jet.partial(sigma) == pytest.approx(0.0)


def test_system_jet_exp():
    jet = system_jet(S("exp(u1)"), (0.0, 0.0, 0.0), 3)
    for sigma in ((0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 0, 3)):
        assert jet.partial(sigma) == pytest.approx(1.0)
    assert jet.partial((1, 0, 0)) == 0.0


def test_system_jet_bilinear():
    jet = system_jet(S("x*u"), (1.0, 2.0, 0.0), 1)
    assert jet.partial((0, 0, 0)) == pytest.approx(2.0)
    assert jet.partial((1, 0, 0)) == pytest.approx(2.0)
    assert jet.partial((0, 1, 0)) == pytest.approx(1.0)
    assert jet.partial((0, 0, 1)) == pytest.approx(0.0)


def test_jet_taylor_roundtrip():
    jet = system_jet(make_system("mix"), (0.5, 0.5, 1.8), 4)
    again = Jet.from_taylor(jet.to_taylor())
    assert np.allclose(jet.values, again.values, rtol=1e-15)


# -- regularity ---------------------------------------------------------------


def test_regularity_examples():
    flags = regularity(system_jet(S("u1^2"), (0.0, 0.0, 1.0), 2))
    assert flags.all_ok

    flags = regularity(system_jet(S("u1"), (0.5, 0.5, 1.0), 2))
    assert not flags.fu1u1_nonzero

    flags = regularity(system_jet(S("u*u1"), (0.0, 1.0, 1.0), 2))
    assert not flags.denom_nonzero and not flags.fu1u1_nonzero


def test_non_finite_jet_fails_as_a_whole():
    with np.errstate(all="ignore"):
        jet = system_jet(S("exp(u1)"), (0.0, 0.0, 800.0), 4)
    flags = regularity(jet)
    assert not flags.finite and not flags.all_ok
    assert flags.failing() == ("non-finite jet",)
    with pytest.raises(NonRegular) as exc:
        eval_J(jet)
    assert exc.value.flag == "non-finite jet"


# -- J ------------------------------------------------------------------------


def test_eval_J_hand_values():
    assert eval_J(system_jet(S("u1^2"), (0.0, 0.0, 1.0), 2)) == pytest.approx(0.5)
    assert eval_J(system_jet(S("exp(u1)"), (0.0, 0.0, 0.0), 2)) == pytest.approx(-1.0)
    # scaling-equivalent system gives the same value
    assert eval_J(system_jet(S("2*u1^2"), (0.0, 0.0, 1.0), 2)) == pytest.approx(0.5)


def test_eval_J_nonregular():
    with pytest.raises(NonRegular):
        eval_J(system_jet(S("u1^2"), (0.0, 0.0, 0.0), 2))
    with pytest.raises(NonRegular):
        eval_J(system_jet(S("u1"), (0.0, 0.0, 1.0), 2))


# -- K ------------------------------------------------------------------------


def test_eval_K_vanishes_for_u1_only_systems():
    # every K term carries f_x, f_u or a mixed partial
    assert eval_K(system_jet(S("u1^2"), (0.0, 0.0, 1.0), 3)) == pytest.approx(0.0)
    assert eval_K(system_jet(S("exp(u1)"), (0.0, 0.0, 0.0), 3)) == pytest.approx(0.0)


def test_eval_K_frozen_value():
    # commutator identity gives K = 1/2 for F = u1^2 + u at (0, 0, 1)
    jet = system_jet(S("u1^2 + u"), (0.0, 0.0, 1.0), 3)
    assert eval_K(jet) == pytest.approx(0.5, rel=1e-12)


def test_K_cross_check_against_bracket_oracle():
    jet = system_jet(S("u1^2 + u"), (0.0, 0.0, 1.0), 4)
    _, k_br, _ = bracket_scalars(jet)
    assert eval_K(jet) == pytest.approx(k_br, rel=1e-9)


def test_K_cross_check_all_third_order_monomials():
    # f_uuu1, f_xuu1 and f_xu1u1 all nonzero here, so this probes the K
    # terms the canonical systems leave silent; f_u1u1u1 is covered by the
    # cubic and exponential systems
    rich = S("u1^2 + u + 0.3*u^2*u1 + 0.2*x*u*u1 + 0.1*x*u1^2", "rich",
             {"x": [0.2, 0.8], "u": [0.5, 1.2], "u1": [1.5, 2.2]})
    rng = np.random.default_rng(41)
    for _ in range(30):
        jet = system_jet(rich, rich.domain.sample(rng), 4)
        _, k_br, _ = bracket_scalars(jet)
        assert eval_K(jet) == pytest.approx(k_br, rel=1e-9)


# -- nabla --------------------------------------------------------------------


def test_nabla_components_at_point():
    sq = S("u1^2")
    p = (0.0, 0.0, 1.0)
    assert nabla(1, sq, p, 0).constants() == pytest.approx((0.0, 0.5, 0.0))
    assert nabla(2, sq, p, 0).constants() == pytest.approx((0.0, 0.0, 0.5))
    assert nabla(3, sq, p, 0).constants() == pytest.approx((1.0, 0.5, 0.0))


def test_apply_nabla_examples():
    sq = S("u1^2")
    p = (0.0, 0.0, 1.0)
    jet = system_jet(sq, p, 4)
    g = pullback("J", sq, p, 1)
    for i in (1, 2, 3):
        assert apply_nabla(i, g, jet) == pytest.approx(0.0, abs=1e-12)

    ex = S("exp(u1)")
    p0 = (0.0, 0.0, 0.0)
    jet0 = system_jet(ex, p0, 4)
    g0 = pullback("J", ex, p0, 1)
    assert apply_nabla(1, g0, jet0) == pytest.approx(0.0, abs=1e-12)
    assert apply_nabla(3, g0, jet0) == pytest.approx(0.0, abs=1e-12)
    # nabla_2(J) = (f/f_u1) dJ/du1 = -1/(u1-1)^2 = -1 at u1 = 0
    assert apply_nabla(2, g0, jet0) == pytest.approx(-1.0)


# -- pullbacks ----------------------------------------------------------------


def test_pullback_J_constant_for_sq():
    tv = pullback("J", S("u1^2"), (0.0, 0.0, 1.0), 2)
    assert tv.const == pytest.approx(0.5)
    assert np.abs(tv.coeffs[1:]).max() < 1e-12


def test_pullback_J_exp_series():
    tv = pullback("J", S("exp(u1)"), (0.0, 0.0, 0.0), 1)
    assert tv.const == pytest.approx(-1.0)
    assert tv.partial((0, 0, 1)) == pytest.approx(-1.0)  # d/du1 1/(u1-1)
    assert abs(tv.partial((1, 0, 0))) < 1e-12


def test_pullback_K_zero_series():
    tv = pullback("K", S("u1^2"), (0.0, 0.0, 1.0), 1)
    assert np.abs(tv.coeffs).max() < 1e-12


def test_pullback_degree_requirements():
    f_tv = S("u1^2 + u").taylor((0.0, 0.0, 1.0), 3)
    with pytest.raises(OrderExceeded):
        pullback_from_taylor("J", f_tv, 2)  # needs degree 4
    with pytest.raises(OrderExceeded):
        pullback_from_taylor("K", f_tv, 1)  # needs degree 4


def test_pullback_gradient_matches_finite_differences():
    for system in all_systems():
        for p in sample_regular_points(system, 3, seed=11):
            tv = pullback("J", system, p, 1)

            def j_of(q):
                return eval_J(system_jet(system, q, 2))

            grad = np.array([tv.partial((1, 0, 0)), tv.partial((0, 1, 0)),
                             tv.partial((0, 0, 1))])
            fd = fd_gradient(j_of, p)
            assert np.abs(grad - fd).max() <= 1e-5 * (1.0 + np.abs(grad).max())


# -- brackets -------------------------------------------------------------------


def test_bracket_hand_values_sq():
    jet = system_jet(S("u1^2"), (0.0, 0.0, 1.0), 4)
    assert bracket(2, 1, jet) == pytest.approx((0.0, 0.25, 0.0))
    assert bracket(3, 1, jet) == pytest.approx((0.0, 0.0, 0.0), abs=1e-14)
    assert bracket(3, 2, jet) == pytest.approx((-1.0, -0.25, 0.0))


def test_bracket_scalars_values():
    jet = system_jet(S("u1^2"), (0.0, 0.0, 1.0), 4)
    assert bracket_scalars(jet) == pytest.approx((0.5, 0.0, 0.0), abs=1e-12)

    jet2 = system_jet(S("2*u1^2"), (0.0, 0.0, 1.0), 4)
    assert bracket_scalars(jet2)[0] == pytest.approx(0.5)

    with pytest.raises(NonRegular):
        bracket_scalars(system_jet(S("u1"), (0.0, 0.0, 1.0), 4))


def test_bracket_scalars_frozen_L():
    # commutator identity gives (J, K, L) = (1/2, 1/2, 3) for u1^2 + u at (0,0,1)
    jet = system_jet(S("u1^2 + u"), (0.0, 0.0, 1.0), 4)
    assert bracket_scalars(jet) == pytest.approx((0.5, 0.5, 3.0), rel=1e-10)


def test_commutation_relations_random_points():
    for system in all_systems():
        jets = [system_jet(system, p, 4)
                for p in sample_regular_points(system, 6, seed=5)]
        for jet in jets:
            v = {i: nabla_from_taylor(i, jet.to_taylor(), 0).constants()
                 for i in (1, 2, 3)}
            J = eval_J(jet)
            J_br, K_br, L_br = bracket_scalars(jet)
            scale = max(1.0, max(abs(c) for vec in v.values() for c in vec))

            r21 = bracket(2, 1, jet) - J * np.array(v[1])
            assert np.abs(r21).max() <= 1e-6 * scale
            r31 = bracket(3, 1, jet) - K_br * np.array(v[2])
            assert np.abs(r31).max() <= 1e-6 * scale
            r32 = bracket(3, 2, jet) - (
                -np.array(v[3]) + J * np.array(v[1]) + L_br * np.array(v[2]))
            assert np.abs(r32).max() <= 1e-6 * scale


# -- signature vector -----------------------------------------------------------


def test_signature_sq_constant():
    sig = signature_vector(system_jet(S("u1^2"), (0.0, 0.0, 1.0), 4))
    expected = np.zeros(14)
    expected[0] = 0.5
    assert np.allclose(sig.as_array(), expected, atol=1e-12)


def test_signature_scaled_sq_identical():
    a = signature_vector(system_jet(S("u1^2"), (0.0, 0.0, 1.0), 4)).as_array()
    b = signature_vector(system_jet(S("2*u1^2"), (0.0, 0.0, 1.0), 4)).as_array()
    assert np.allclose(a, b, atol=1e-12)


def test_signature_exp_hand_values():
    sig = signature_vector(system_jet(S("exp(u1)"), (0.0, 0.0, 2.0), 4))
    # J pulls back to 1/(u1 - 1); only the u1-direction derivatives survive
    expected = {"j": 1.0, "j2": -1.0, "j22": 2.0}
    for name in ("j", "j1", "j2", "j3", "j11", "j12", "j13", "j22", "j23",
                 "j33", "k", "k1", "k2", "k3"):
        assert getattr(sig, name) == pytest.approx(expected.get(name, 0.0),
                                                   abs=1e-12), name


FROZEN_SQU = {  # u1^2 + u at (0, 0, 1), from the commutator identities
    "j": 0.5, "j1": 0.75, "j2": 0.0, "j3": 0.75,
    "j11": 1.1875, "j12": -0.75, "j13": 0.4375,
    "j22": 0.0, "j23": -0.375, "j33": -0.3125,
    "k": 0.5, "k1": -0.25, "k2": -0.5, "k3": -1.25,
}

FROZEN_CUBIC = {  # u1^3/3 + x*u1 + u^2 + 2 at (1/2, 1/2, 2)
    "j": 2.2426871315760204, "j1": 1.8207091916384199,
    "j2": -6.9331608824311406, "j3": -1.1594630689725443,
    "j11": 4.0172720664095145, "j12": -10.929988149507645,
    "j13": -3.31329885387879, "j22": 41.111766590644287,
    "j23": 11.21183192222459, "j33": 5.3707706926743004,
    "k": -0.13792166579725265, "k1": 0.95324935835496527,
    "k2": -0.37270774791000744, "k3": 1.6320649393608977,
}


@pytest.mark.parametrize("f_text,point,frozen", [
    ("u1^2 + u", (0.0, 0.0, 1.0), FROZEN_SQU),
    ("u1^3/3 + x*u1 + u^2 + 2", (0.5, 0.5, 2.0), FROZEN_CUBIC),
])
def test_signature_frozen_vectors(f_text, point, frozen):
    sig = signature_vector(system_jet(S(f_text), point, 4))
    for name, val in frozen.items():
        assert getattr(sig, name) == pytest.approx(val, rel=1e-10), name


def test_signature_requires_order_4():
    with pytest.raises(OrderExceeded):
        signature_vector(system_jet(S("u1^2"), (0.0, 0.0, 1.0), 3))


def test_signature_nonregular_flag():
    with pytest.raises(NonRegular) as err:
        signature_vector(system_jet(S("u1^2"), (0.0, 0.0, 0.0), 4))
    assert err.value.flag == "f"


def test_system_point_call_forms():
    # the operations also accept (system, point) directly
    sq = S("u1^2")
    p = (0.0, 0.0, 1.0)
    assert bracket_scalars(sq, p) == pytest.approx((0.5, 0.0, 0.0), abs=1e-12)
    assert bracket(2, 1, sq, p) == pytest.approx((0.0, 0.25, 0.0))
    sig = signature_vector(sq, p)
    assert sig.j == pytest.approx(0.5)
    g = pullback("J", sq, p, 1)
    assert apply_nabla(2, g, sq, p) == pytest.approx(0.0, abs=1e-12)
