"""Acceptance suite: one test per criterion, one PASS/FAIL line printed each.

Run with `pytest -s tests/test_acceptance.py` to see the lines.  Every
tolerance is pinned here; nothing is deferred to later calibration.
"""

import io
import json
import os
import time

import numpy as np
import pytest

from fbsig import (SystemDef, TransformedSystem, apply_nabla, bracket,
                   bracket_scalars, build_cloud, compare, eval_J, eval_K,
                   lift_variables, nabla_from_taylor, parse,
                   pullback_from_taylor, random_feedback, regularity,
                   signature_vector, system_jet, transformed_jet, tresse)
from fbsig.cli import main as cli_main
from fbsig.orbits import (expected_orbit_dim, jet_space_dim, orbit_rank,
                          printed_orbit_dim, pure_order_invariants)
from fbsig.signature import EQUIVALENT, INCONCLUSIVE, NOT_EQUIVALENT
from helpers import CANONICAL, all_systems, make_system, sample_regular_points
from test_expr import corpus, fd_partial

N_MAPS = 10
N_POINTS = 50


def report(num, ok, text):
    line = "ACCEPTANCE %d %s - %s" % (num, "PASS" if ok else "FAIL", text)
    print("\n" + line)
    assert ok, line


def invariance_pairs(system, phi, n, seed):
    """(source jet, image jet) pairs, both regular with margin.

    The image margin is kept at 3e-2 (scaled units): when the prolonged map
    compresses the u1 fiber, the image point approaches a singular stratum
    and the nested third-order invariants amplify rounding error like
    1/margin^4, which would swamp the comparison without measuring any
    actual failure of invariance.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(50 * n):
        if len(out) == n:
            break
        p = system.domain.sample(rng)
        jet_f = system_jet(system, p, 4)
        if min(regularity(jet_f).magnitudes) <= 1e-3:
            continue
        jet_g = transformed_jet(phi, system, p, 4)
        if min(regularity(jet_g).magnitudes) <= 3e-2:
            continue
        out.append((jet_f, jet_g))
    assert len(out) == n, "could not sample enough regular pairs"
    return out


def test_criterion_1_j_invariance():
    t0 = time.monotonic()
    worst = 0.0
    count = 0
    for system in all_systems():
        for ms in range(N_MAPS):
            phi = random_feedback(ms, (system.domain.x, system.domain.u))
            for jet_f, jet_g in invariance_pairs(system, phi, N_POINTS,
                                                 seed=1000 + ms):
                jf, jg = eval_J(jet_f), eval_J(jet_g)
                worst = max(worst, abs(jg - jf) / (1.0 + abs(jf)))
                count += 1
    dt = time.monotonic() - t0
    ok = worst < 1e-6 and dt < 10.0
    report(1, ok, "J invariance: max rel err %.3e over %d points "
                  "(5 systems x %d maps x %d pts), %.1f s (budget 10 s)"
           % (worst, count, N_MAPS, N_POINTS, dt))


def test_criterion_2_signature_invariance():
    t0 = time.monotonic()
    worst = 0.0
    count = 0
    for system in all_systems():
        for ms in range(N_MAPS):
            phi = random_feedback(ms, (system.domain.x, system.domain.u))
            for jet_f, jet_g in invariance_pairs(system, phi, N_POINTS,
                                                 seed=2000 + ms):
                sf = signature_vector(jet_f).as_array()
                sg = signature_vector(jet_g).as_array()
                worst = max(worst,
                            (np.abs(sg - sf) / (1.0 + np.abs(sf))).max())
                count += 1
    dt = time.monotonic() - t0
    ok = worst < 1e-5 and dt < 60.0
    report(2, ok, "signature invariance (14 components): max rel err %.3e "
                  "over %d points, %.1f s (budget 60 s)" % (worst, count, dt))


def test_criterion_3_commutation_relations():
    t0 = time.monotonic()
    worst = 0.0
    count = 0
    for system in all_systems():
        for p in sample_regular_points(system, 20, seed=3):
            jet = system_jet(system, p, 4)
            v = {i: np.array(nabla_from_taylor(i, jet, 0)
                             .constants()) for i in (1, 2, 3)}
            J = eval_J(jet)
            J_br, K_br, L_br = bracket_scalars(jet)
            scale = max(1.0, max(np.abs(vec).max() for vec in v.values()))
            br31 = bracket(3, 1, jet)
            resid = [
                np.abs(bracket(2, 1, jet) - J * v[1]).max(),
                np.abs(br31 - K_br * v[2]).max(),
                np.abs(bracket(3, 2, jet)
                       - (-v[3] + J * v[1] + L_br * v[2])).max(),
                abs(br31[0]), abs(br31[1]),  # structural zeros
            ]
            worst = max(worst, max(resid) / scale)
            count += 1
    dt = time.monotonic() - t0
    ok = worst < 1e-6 and dt < 10.0
    report(3, ok, "commutation relations: max scaled residual %.3e at "
                  "%d regular points, %.1f s (budget 10 s)"
           % (worst, count, dt))


def test_criterion_4_K_cross_validation():
    worst = 0.0
    count = 0
    for system in all_systems():
        for p in sample_regular_points(system, 20, seed=4):
            jet = system_jet(system, p, 4)
            k_closed = eval_K(jet)
            _, k_br, _ = bracket_scalars(jet)
            worst = max(worst, abs(k_closed - k_br) / (1.0 + abs(k_br)))
            count += 1
    agree = worst < 1e-6
    # documented outcome: the closed-form K agrees with the bracket oracle,
    # so the K-authority fallback (use K_br on disagreement) stays dormant
    report(4, agree, "K cross-validation: closed form vs bracket oracle, "
                     "max rel deviation %.3e at %d points "
                     "(outcome: formulas agree; authority rule not invoked)"
           % (worst, count))


def test_criterion_5_orbit_ranks():
    t0 = time.monotonic()
    expected = {1: 7, 2: 12, 3: 18, 4: 25}
    ok = True
    min_gap = np.inf
    for k, want in expected.items():
        for seed in range(10):
            res = orbit_rank(k, seed=seed)
            ok = ok and res.rank == want and res.gap >= 1e6
            min_gap = min(min_gap, res.gap)
    dt = time.monotonic() - t0
    ok = ok and dt < 5.0
    report(5, ok, "orbit ranks (7, 12, 18, 25) over 10 seeds, min sv gap "
                  "%.1e (>= 1e6); k=2 rank 12 as claimed; competing dimension "
                  "expression gives %.6g for k=2 vs verified %d "
                  "(discrepancy reported, derived formula used); %.1f s"
           % (min_gap, printed_orbit_dim(2), expected_orbit_dim(2), dt))


def test_criterion_6_invariant_counts():
    t0 = time.monotonic()
    deficits = {}
    for k in (1, 2, 3, 4):
        deficits[k] = jet_space_dim(k) - orbit_rank(k, seed=0).rank
    pure = [deficits[k] - deficits[k - 1] for k in (2, 3, 4)]
    want = [pure_order_invariants(k) for k in (2, 3, 4)]
    dt = time.monotonic() - t0
    ok = pure == [1, 4, 8] and want == [1, 4, 8] and dt < 5.0
    report(6, ok, "pure-order invariant counts from rank deficits: %r "
                  "(expected [1, 4, 8]), %.1f s" % (pure, dt))


def test_criterion_7_equivalence_end_to_end():
    t0 = time.monotonic()
    grid = (11, 11, 11)
    cubic = make_system("cubic")
    cloud_f = build_cloud(cubic, grid)
    phi = random_feedback(7, (cubic.domain.x, cubic.domain.u))
    cloud_g = build_cloud(TransformedSystem(phi, cubic), grid)
    va = compare(cloud_f, cloud_g)

    sq = SystemDef.from_strings("sq", *CANONICAL["sq"])
    e34 = SystemDef.from_strings(
        "exp34", "exp(u1)", {"x": [-1, 1], "u": [-1, 1], "u1": [3, 4]})
    vb = compare(build_cloud(sq, grid), build_cloud(e34, grid))

    sq2 = SystemDef.from_strings(
        "sq2", "2*u1^2", {"x": [-1, 1], "u": [-1, 1], "u1": [1, 2]})
    vc = compare(build_cloud(sq, grid), build_cloud(sq2, grid))

    dt = time.monotonic() - t0
    ok = (va.status == EQUIVALENT and va.max_residual < 1e-4
          and vb.status == NOT_EQUIVALENT
          and vc.status == INCONCLUSIVE
          and dt < 60.0)
    report(7, ok, "equivalence end-to-end: cubic vs pushforward %s "
                  "(max residual %.2e < 1e-4), sq vs exp[3,4] %s, "
                  "sq vs 2*sq %s; %.1f s (budget 60 s)"
           % (va.status, va.max_residual, vb.status, vc.status, dt))


def test_criterion_8_tresse_decomposition():
    system = make_system("cubic")
    worst = 0.0
    for p in sample_regular_points(system, 25, seed=8):
        f_tv = system.taylor(p, 4)
        JF = pullback_from_taylor("J", f_tv, 2)
        grads = tuple(JF.derivative(ax) for ax in range(3))
        basis = []
        for i in (1, 2, 3):
            fld = nabla_from_taylor(i, f_tv, 1)
            acc = fld.components[0] * grads[0]
            acc = acc + fld.components[1] * grads[1]
            acc = acc + fld.components[2] * grads[2]
            basis.append(acc)
        KF = pullback_from_taylor("K", f_tv, 1)
        lam = tresse(KF, tuple(basis))
        for i in (1, 2, 3):
            left = apply_nabla(i, KF, f_tv)
            right = float(np.dot([apply_nabla(i, basis[j], f_tv)
                                  for j in range(3)], lam))
            worst = max(worst, abs(left - right) / (1.0 + abs(left)))
    ok = worst < 1e-5
    report(8, ok, "derivation decomposition through Tresse coefficients on "
                  "the K pullback: max rel deviation %.3e at 25 points"
           % worst)


def test_criterion_9_numerics_and_determinism(tmp_path):
    # Taylor partials vs central finite differences on the expression corpus
    rng = np.random.default_rng(9)
    sigmas = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (0, 0, 2),
              (1, 1, 0), (1, 0, 1), (0, 1, 1)]
    worst_fd = 0.0
    for text in corpus(100, seed=90):
        e = parse(text, {"x", "u", "u1"})
        p = tuple(rng.uniform(-1.0, 1.0, size=3))
        xv, uv, wv = lift_variables(p, 2)
        tay = e({"x": xv, "u": uv, "u1": wv})
        if not hasattr(tay, "partial"):
            continue

        def scalar(q):
            return e({"x": q[0], "u": q[1], "u1": q[2]})

        for sigma in sigmas:
            exact = tay.partial(sigma)
            approx = fd_partial(scalar, p, sigma)
            worst_fd = max(worst_fd,
                           abs(exact - approx) / (1.0 + abs(exact)))

    # div/mul round-trips on corpus values
    worst_rt = 0.0
    for text in corpus(50, seed=91):
        e = parse(text, {"x", "u", "u1"})
        p = tuple(rng.uniform(-1.0, 1.0, size=3))
        xv, uv, wv = lift_variables(p, 4)
        a = e({"x": xv, "u": uv, "u1": wv})
        if not hasattr(a, "coeffs"):
            continue
        b = a - a.const + 2.0
        back = (a / b) * b
        scale = max(1.0, np.abs(a.coeffs).max())
        worst_rt = max(worst_rt, np.abs(back.coeffs - a.coeffs).max() / scale)

    # byte-identical CLI outputs across two runs with the same seed
    config = {
        "systems": {
            "sq": {"f": "u1^2",
                   "domain": {"x": [-1, 1], "u": [-1, 1], "u1": [1, 2]}},
            "exp34": {"f": "exp(u1)",
                      "domain": {"x": [-1, 1], "u": [-1, 1], "u1": [3, 4]}},
            "cubic": {"f": "u1^3/3 + x*u1 + u^2 + 2",
                      "domain": {"x": [0.2, 1.0], "u": [0.2, 0.8],
                                 "u1": [1.8, 2.6]}},
        },
        "maps": {"double": {"X": "2*x", "U": "u"}},
        "grid": [5, 5, 5],
        "seed": 0,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))

    def cli_pass():
        blobs = []
        for argv, outfile in [
            (["invariants", "--config", str(cfg_path), "--system", "cubic",
              "--point", "0.5,0.5,2"], None),
            (["signature", "--config", str(cfg_path), "--system", "cubic",
              "--out", str(tmp_path / "c.csv")], str(tmp_path / "c.csv")),
            (["equiv", "--config", str(cfg_path), "sq", "exp34"], None),
            (["transform", "--config", str(cfg_path), "--system", "sq",
              "--map", "double", "--out", str(tmp_path / "t.csv")],
             str(tmp_path / "t.csv")),
            (["orbit-dim", "--config", str(cfg_path), "--k", "1,2,3,4"],
             None),
        ]:
            out = io.StringIO()
            code = cli_main(argv, out=out)
            blobs.append("exit=%d%s" % (code, out.getvalue()))
            if outfile and os.path.exists(outfile):
                blobs.append(open(outfile, "rb").read().decode())
        return "\x00".join(blobs)

    deterministic = cli_pass() == cli_pass()
    ok = worst_fd < 1e-5 and worst_rt < 1e-12 and deterministic
    report(9, ok, "numerics: Taylor vs finite differences max rel err %.3e "
                  "(< 1e-5, 100-expression corpus), div/mul round-trip max "
                  "%.3e (< 1e-12), CLI outputs byte-identical: %s"
           % (worst_fd, worst_rt, deterministic))
