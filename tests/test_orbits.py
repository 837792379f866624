"""Prolonged feedback fields and orbit-rank verification on jet spaces."""

import numpy as np
import pytest

from fbsig import (Generator, TaylorValue, eval_J, generating_function,
                   orbit_rank, prolonged_vector, random_jet_point,
                   invariant_counts)
from fbsig.orbits import (cumulative_invariants, expected_orbit_dim,
                          jet_space_dim, printed_orbit_dim,
                          pure_order_invariants, standard_generators)
from fbsig.taylor import index_map, n_terms, simplex
from helpers import ref_prolonged_vector, ref_standard_generators


def pinned(jp, coords=None, point=None):
    """The jet point with the derivatives f_sigma in `coords` (a dict from
    sigma to value) set and, if given, another base point."""
    values = jp.partials
    for sigma, value in (coords or {}).items():
        values[index_map(jp.degree)[sigma]] = value
    return TaylorValue.from_partials(point or jp.point, jp.degree, values)


def test_jet_space_dims():
    assert [jet_space_dim(k) for k in range(5)] == [4, 7, 13, 23, 38]


def test_generating_function_translation():
    # a = 1, b = 0: phi = -f_x
    jp = pinned(random_jet_point(2, seed=1), {(1, 0, 0): 3.0})
    phi = generating_function(Generator.monomial_a(0), jp, trunc=1)
    assert phi.const == pytest.approx(-3.0)


def test_generating_function_scaling():
    # a = x at base x = 0: phi = f - x f_x has constant term f
    jp = random_jet_point(2, seed=2)
    jp = pinned(jp, point=(0.0, jp.point[1], jp.point[2]))
    phi = generating_function(Generator.monomial_a(1), jp, trunc=1)
    assert phi.const == pytest.approx(jp.partial((0, 0, 0)))


def test_generating_function_b_field():
    # a = 0, b = u: phi = -u f_u - u1 f_u1; at (0,1,2), f_u = 1, f_u1 = 1
    jp = pinned(random_jet_point(2, seed=3),
                {(0, 1, 0): 1.0, (0, 0, 1): 1.0}, point=(0.0, 1.0, 2.0))
    phi = generating_function(Generator.monomial_b(0, 1), jp, trunc=1)
    assert phi.const == pytest.approx(-3.0)


def test_prolonged_vector_order0_examples():
    jp = random_jet_point(1, seed=4)
    # x-translation: the f-component D_0(phi) + a f_x cancels exactly
    v = prolonged_vector(Generator.monomial_a(0), jp, 0)
    assert v == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-14)

    # a = x at base x = 0: f-component = phi + a f_x = f
    jp0 = pinned(jp, point=(0.0, jp.point[1], jp.point[2]))
    v = prolonged_vector(Generator.monomial_a(1), jp0, 0)
    assert v[3] == pytest.approx(jp0.partial((0, 0, 0)))

    # a = 0, b = u at (0, 1, 2): base components (0, 1, u1 b_u) = (0, 1, 2);
    # the f-component a_x f of the representation vanishes for pure-b
    # generators: phi + b f_u + u1 b_u f_u1 cancels to zero exactly
    jp1 = pinned(jp, point=(0.0, 1.0, 2.0))
    v = prolonged_vector(Generator.monomial_b(0, 1), jp1, 0)
    assert v[:3] == pytest.approx([0.0, 1.0, 2.0])
    assert v[3] == pytest.approx(0.0, abs=1e-14)


def test_prolonged_vector_well_defined():
    # independent of the freely chosen order-(k+1) coordinates
    for k in (1, 2, 3):
        jp = random_jet_point(k + 1, seed=5 + k)
        rng = np.random.default_rng(99 + k)
        coords = jp.partials
        for pos, sigma in enumerate(simplex(k + 1)):
            if sum(sigma) == k + 1:
                coords[pos] = rng.uniform(0.5, 2.0)
        jp2 = TaylorValue.from_partials(jp.point, jp.degree, coords)
        for gen in standard_generators(k):
            v1 = prolonged_vector(gen, jp, k)
            v2 = prolonged_vector(gen, jp2, k)
            scale = 1.0 + np.abs(v1).max()
            assert np.abs(v1 - v2).max() <= 1e-9 * scale


def test_orbit_ranks_over_seeds():
    for k, expected in ((1, 7), (2, 12), (3, 18), (4, 25)):
        for seed in range(10):
            res = orbit_rank(k, seed=seed)
            assert res.rank == expected, (k, seed)
            assert res.gap >= 1e6


def test_rank_stable_under_more_generators():
    # doubling the generator set with higher monomials adds nothing
    for k in (1, 2):
        jp = random_jet_point(k + 1, seed=31)
        extra = standard_generators(k)
        extra += [Generator.monomial_a(i) for i in range(k + 2, 2 * k + 4)]
        extra += [Generator.monomial_b(i, j)
                  for tot in range(k + 2, k + 4)
                  for i in range(tot + 1) for j in [tot - i]]
        base = orbit_rank(k, jet_point=jp)
        more = orbit_rank(k, jet_point=jp, generators=extra)
        assert base.rank == more.rank


def test_singular_stratum_rank_drop():
    jp = pinned(random_jet_point(2, seed=6), {(0, 0, 1): 0.0})
    res = orbit_rank(1, jet_point=jp)
    assert res.rank < 7


def test_invariant_gradient_annihilated():
    # J is constant on orbits: its gradient kills every prolonged generator
    jp = random_jet_point(3, seed=8)
    if abs(jp.point[2] * jp.partial((0, 0, 1)) - jp.partial((0, 0, 0))) < 0.1:
        jp = random_jet_point(3, seed=9)
    coords = jp.partials

    def J_of(base_u1, coords):
        jet = TaylorValue.from_partials((jp.point[0], jp.point[1], base_u1),
                                        2, coords[:n_terms(2)])
        return eval_J(jet)

    h = 1e-6
    grad = np.zeros(3 + n_terms(2))
    grad[2] = (J_of(jp.point[2] + h, coords)
               - J_of(jp.point[2] - h, coords)) / (2 * h)
    for pos in range(n_terms(2)):
        up = coords.copy()
        dn = coords.copy()
        up[pos] += h
        dn[pos] -= h
        grad[3 + pos] = (J_of(jp.point[2], up)
                         - J_of(jp.point[2], dn)) / (2 * h)

    for gen in standard_generators(2):
        v = prolonged_vector(gen, jp, 2)
        pairing = float(np.dot(grad, v))
        scale = (1.0 + np.linalg.norm(grad)) * (1.0 + np.linalg.norm(v))
        assert abs(pairing) <= 1e-8 * scale


def test_invariant_counts():
    assert invariant_counts(2) == (1, 1, 12)
    assert invariant_counts(3) == (4, 5, 18)
    assert invariant_counts(4) == (8, 13, 25)
    assert pure_order_invariants(5) == 13
    assert cumulative_invariants(5) == 26


def test_orbit_dim_closed_form():
    for k in (2, 3, 4):
        assert expected_orbit_dim(k) == (k * k + 7 * k + 6) // 2


def test_printed_orbit_dim_is_inconsistent():
    # the as-printed expression is non-integer at k = 2 and exceeds dim J^2
    val = printed_orbit_dim(2)
    assert val != int(val)
    assert val > jet_space_dim(2)


def test_rank_deficits_give_pure_order_counts():
    deficits = {}
    for k in (1, 2, 3, 4):
        res = orbit_rank(k, seed=0)
        deficits[k] = jet_space_dim(k) - res.rank
    assert deficits[1] == 0
    assert [deficits[k] - deficits[k - 1] for k in (2, 3, 4)] == [1, 4, 8]


def test_k_cap():
    with pytest.raises(ValueError):
        orbit_rank(5)


def test_prolonged_vectors_match_the_coefficient_row_generators():
    # generators as expression pairs give the vectors of the former
    # polynomial coefficient rows, Horner evaluation and all
    for k in range(5):
        refs = ref_standard_generators(k)
        for seed in range(10):
            jp = random_jet_point(k + 1, seed=seed)
            for gen, ref in zip(standard_generators(k), refs, strict=True):
                v, want = prolonged_vector(gen, jp, k), ref_prolonged_vector(
                    ref, jp, k)
                assert np.abs(v - want).max() <= 1e-14 * np.abs(want).max()
