"""Batch command-line front end.

Systems and feedback maps are declared in a JSON config file:

    {
      "systems": {"name": {"f": "u1^2 + u",
                           "domain": {"x": [-1, 1], "u": [-1, 1],
                                      "u1": [1, 2]}}},
      "maps":    {"name": {"X": "2*x", "U": "u"}},
      "grid":    [11, 11, 11],
      "tol_rel": 1e-4,
      "min_overlap": 0.3,
      "eps_reg": 1e-8,
      "seed":    0
    }

Subcommands: invariants, signature, equiv, transform, orbit-dim.
Exit codes: 0 success (equiv: EQUIVALENT), 1 NOT_EQUIVALENT,
2 INCONCLUSIVE, 3 configuration/usage errors (including malformed configs
and points), 4 evaluation errors.
All numeric output uses 17 significant digits and is deterministic for a
fixed config and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import orbits
from .errors import (ConfigError, EmptyCloud, ExpressionSyntaxError,
                     FbsigError, NonRegular)
from .invariants import (Jet, bracket_scalars, eval_J, regularity,
                         signature_vector, system_jet)
from .signature import (EQUIVALENT, INCONCLUSIVE, NOT_EQUIVALENT,
                        build_cloud, compare, export_cloud)
from .systems import SystemDef
from .taylor import simplex
from .transform import FeedbackMap, invertibility_check, transformed_taylor

EXIT_OK = 0
EXIT_NOT_EQUIVALENT = 1
EXIT_INCONCLUSIVE = 2
EXIT_CONFIG = 3
EXIT_EVAL = 4


def _fmt(v):
    return format(float(v), ".17g")


@dataclass
class RunConfig:
    systems: dict = field(default_factory=dict)
    maps: dict = field(default_factory=dict)
    grid: tuple = (11, 11, 11)
    tol_rel: float = 1e-4
    min_overlap: float = 0.3
    eps_reg: float = 1e-8
    seed: int = 0


def _integral(value, what) -> int:
    """An integral JSON number (11 or 11.0), never a bool or a fraction."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError("%s must be an integer, got %r" % (what, value))
    return value


def _positive(value, what) -> float:
    """A finite positive number; NaN and infinities are rejected."""
    number = math.nan
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:       # an integer beyond the float range
            pass
    if not math.isfinite(number) or number <= 0:
        raise ConfigError("%s must be a positive finite number, got %r"
                          % (what, value))
    return number


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise ConfigError("config %s is not valid JSON: %s" % (path, exc))
    if not isinstance(raw, dict):
        raise ConfigError("config %s is not a JSON object" % path)

    cfg = RunConfig()
    try:
        for name, entry in raw.get("systems", {}).items():
            cfg.systems[name] = SystemDef.from_strings(
                name, entry["f"], entry["domain"])
        for name, entry in raw.get("maps", {}).items():
            cfg.maps[name] = FeedbackMap.from_strings(entry["X"], entry["U"])
    except (KeyError, TypeError, AttributeError) as exc:
        raise ConfigError("bad system/map entry: %r" % (exc,))
    except ExpressionSyntaxError as exc:
        raise ConfigError("bad expression in config: %s" % exc)

    if "grid" in raw:
        if not isinstance(raw["grid"], list) or len(raw["grid"]) != 3:
            raise ConfigError("grid must be three counts >= 2")
        grid = tuple(_integral(n, "grid count") for n in raw["grid"])
        if any(n < 2 for n in grid):
            raise ConfigError("grid must be three counts >= 2")
        cfg.grid = grid
    for key in ("tol_rel", "min_overlap", "eps_reg"):
        if key in raw:
            setattr(cfg, key, _positive(raw[key], key))
    if cfg.min_overlap > 1:
        raise ConfigError("min_overlap is a fraction of samples, at most 1")
    if "seed" in raw:
        cfg.seed = _integral(raw["seed"], "seed")
    return cfg


def _get_system(cfg, name) -> SystemDef:
    if name not in cfg.systems:
        raise ConfigError("unknown system %r (have: %s)"
                          % (name, ", ".join(sorted(cfg.systems)) or "none"))
    return cfg.systems[name]


def _get_map(cfg, name) -> FeedbackMap:
    if name not in cfg.maps:
        raise ConfigError("unknown map %r (have: %s)"
                          % (name, ", ".join(sorted(cfg.maps)) or "none"))
    return cfg.maps[name]


def _parse_point(text):
    parts = text.replace(",", " ").split()
    if len(parts) != 3:
        raise ConfigError("point %r is not a triple" % text)
    try:
        point = tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigError("point %r is not numeric" % text)
    if not all(math.isfinite(c) for c in point):
        raise ConfigError("point %r is not finite" % text)
    return point


# -- subcommands ---------------------------------------------------------------


def cmd_invariants(cfg, args, out):
    system = _get_system(cfg, args.system)
    points = [_parse_point(t) for t in args.point]
    if not points:
        raise ConfigError("no points given (use --point 'x,u,u1')")
    cols = ("x", "u", "u1", "regular", "J", "K", "J_br", "K_br", "L_br",
            "nabla1_J", "nabla2_J", "nabla3_J")
    out.write("\t".join(cols) + "\n")
    for p in points:
        # an overflowing point gives a non-finite jet, named in its row
        with np.errstate(all="ignore"):
            jet = system_jet(system, p, 4)
            flags = regularity(jet, cfg.eps_reg)
            if not flags.all_ok:
                row = [_fmt(c) for c in p]
                row.append("no(%s)" % ",".join(flags.failing()))
                row.extend(["-"] * (len(cols) - 4))
                out.write("\t".join(row) + "\n")
                continue
            sig = signature_vector(jet, cfg.eps_reg)
            jbr, kbr, lbr = bracket_scalars(jet, cfg.eps_reg)
        row = [_fmt(c) for c in p] + ["yes"]
        row += [_fmt(v) for v in (sig.j, sig.k, jbr, kbr, lbr,
                                  sig.j1, sig.j2, sig.j3)]
        out.write("\t".join(row) + "\n")
    return EXIT_OK


def cmd_signature(cfg, args, out):
    system = _get_system(cfg, args.system)
    cloud = build_cloud(system, cfg.grid, cfg.eps_reg)
    path = args.out or (args.system + "_signature.csv")
    cloud_path, skipped_path = export_cloud(cloud, path)
    out.write("samples: %d (skipped %d)\n" % (len(cloud), len(cloud.skipped)))
    out.write("intrinsic_dim: %s\n"
              % ("unknown" if cloud.intrinsic_dim is None
                 else cloud.intrinsic_dim))
    out.write("chart: %s\n"
              % ("none" if cloud.chart is None else ",".join(cloud.chart)))
    out.write("wrote %s and %s\n" % (cloud_path, skipped_path))
    return EXIT_OK


def cmd_equiv(cfg, args, out):
    sys_a = _get_system(cfg, args.system_a)
    sys_b = _get_system(cfg, args.system_b)
    cloud_a = build_cloud(sys_a, cfg.grid, cfg.eps_reg)
    cloud_b = build_cloud(sys_b, cfg.grid, cfg.eps_reg)
    verdict = compare(cloud_a, cloud_b, cfg.tol_rel, cfg.min_overlap)
    payload = verdict.as_dict()
    out.write('{"status": "%s", "overlap_fraction": %s, "max_residual": %s, '
              '"notes": %s}\n'
              % (payload["status"], _fmt(payload["overlap_fraction"]),
                 _fmt(payload["max_residual"]), json.dumps(payload["notes"])))
    return {EQUIVALENT: EXIT_OK, NOT_EQUIVALENT: EXIT_NOT_EQUIVALENT,
            INCONCLUSIVE: EXIT_INCONCLUSIVE}[verdict.status]


def cmd_transform(cfg, args, out):
    system = _get_system(cfg, args.system)
    mapping = _get_map(cfg, args.map)
    box = (system.domain.x, system.domain.u)
    report = invertibility_check(mapping, box)
    if not report.ok:
        raise NonRegular("map fails invertibility: %s" % report)
    path = args.out or (args.system + "_" + args.map + "_transform.csv")
    header = ("x,u,u1,xt,ut,u1t," + ",".join(_jet_col_names()) + ",J_F,J_G")
    max_err = 0.0
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for p in system.domain.grid(cfg.grid):
            jet_f = system_jet(system, p, 4)
            q, g_tv = transformed_taylor(mapping, system.taylor(p, 2))
            jet_g_vals = [g_tv.partial(s) for s in simplex(2)]
            jf = eval_J(jet_f, cfg.eps_reg)
            jg = eval_J(Jet.from_taylor(g_tv), cfg.eps_reg)
            max_err = max(max_err, abs(jg - jf) / (1.0 + abs(jf)))
            row = [_fmt(c) for c in (*p, *q, *jet_g_vals, jf, jg)]
            fh.write(",".join(row) + "\n")
    out.write("wrote %s\n" % path)
    out.write("max relative invariance error |J_G - J_F|/(1+|J_F|): %s\n"
              % _fmt(max_err))
    return EXIT_OK


def _jet_col_names():
    names = []
    for (i, j, l) in simplex(2):
        if i == j == l == 0:
            names.append("g")
        else:
            names.append("g_" + "x" * i + "u" * j + "u1" * l)
    return names


def cmd_orbit_dim(cfg, args, out):
    parts = args.k if args.k else ["1,2,3,4"]
    try:
        k_list = sorted({int(k) for part in parts for k in part.split(",")})
    except ValueError:
        raise ConfigError("--k takes comma-separated integers")
    if any(k < 1 for k in k_list):
        raise ConfigError("k must be >= 1")
    if any(k > orbits.MAX_K for k in k_list):
        raise ConfigError("k capped at %d" % orbits.MAX_K)
    out.write("k\trank\texpected\tsv_gap\tstatus\n")
    results = []
    for k in k_list:
        res = orbits.orbit_rank(k, seed=cfg.seed)
        gap = "inf" if res.gap == float("inf") else _fmt(res.gap)
        out.write("%d\t%d\t%d\t%s\t%s\n"
                  % (k, res.rank, res.expected, gap,
                     "PASS" if res.ok else "FAIL"))
        results.append(res)
    for k in k_list:
        if k >= 2:
            out.write("note: the competing dimension expression "
                      "(k+1)^2/2 + 23k/3 + 5/2 gives %s for k=%d; "
                      "verified value is %d\n"
                      % (_fmt(orbits.printed_orbit_dim(k)), k,
                         orbits.expected_orbit_dim(k)))
            break
    if args.out:
        payload = [{"k": r.k, "rank": r.rank, "expected": r.expected,
                    "gap": None if r.gap == float("inf") else r.gap,
                    "singular_values": list(r.singular_values)}
                   for r in results]
        with open(args.out, "w", newline="") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
        out.write("wrote %s\n" % args.out)
    return EXIT_OK if all(r.ok for r in results) else EXIT_EVAL


# -- entry point ---------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fbsig",
        description="Feedback invariants and signature manifolds of "
                    "first-order scalar control systems")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="JSON config path")
    common.add_argument("--out", default=None, help="output file path")
    common.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    common.add_argument("--tol", type=float, default=None,
                        help="override tol_rel")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", parents=[common],
                       help="evaluate J, K and the bracket values at points")
    p.add_argument("--system", required=True)
    p.add_argument("--point", action="append", default=[],
                   help="base point 'x,u,u1' (repeatable)")

    p = sub.add_parser("signature", parents=[common],
                       help="sample the signature cloud to CSV")
    p.add_argument("--system", required=True)

    p = sub.add_parser("equiv", parents=[common],
                       help="decide local feedback equivalence")
    p.add_argument("system_a")
    p.add_argument("system_b")

    p = sub.add_parser("transform", parents=[common],
                       help="push a system forward along a feedback map")
    p.add_argument("--system", required=True)
    p.add_argument("--map", required=True)

    p = sub.add_parser("orbit-dim", parents=[common],
                       help="orbit-rank experiments on jet spaces")
    p.add_argument("--k", action="append", default=None,
                   help="comma-separated jet orders (default 1,2,3,4)")

    return parser


_COMMANDS = {
    "invariants": cmd_invariants,
    "signature": cmd_signature,
    "equiv": cmd_equiv,
    "transform": cmd_transform,
    "orbit-dim": cmd_orbit_dim,
}


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.tol is not None:
            cfg.tol_rel = _positive(args.tol, "--tol")
        return _COMMANDS[args.command](cfg, args, out)
    except ConfigError as exc:
        out.write("config error: %s\n" % exc)
        return EXIT_CONFIG
    except (EmptyCloud, NonRegular) as exc:
        out.write("evaluation error: %s\n" % exc)
        return EXIT_EVAL
    except FbsigError as exc:
        out.write("evaluation error: %s\n" % exc)
        return EXIT_EVAL


if __name__ == "__main__":
    raise SystemExit(main())
