"""The four workloads.  Each is built from the seed (set-up, including a
warm-up), then yields rounds: fixed lists of operations.  An operation is a
call into fbsig (`run`) and a check of its result (`check`), which returns
True on success, False for an operation that failed as documented, and
raises `checks.Incorrect` on a wrong output.  Only `run` is timed.
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from fbsig import cli, invariants, signature, transform
from fbsig.systems import SystemDef

import inputs
from checks import (INVARIANCE_TOL, J_IMAGE_TOL, J_TOL, K_TOL, POINT_TOL,
                    TOL_REL, Incorrect, check_cloud, check_j2_column,
                    check_j_column, close, expect, kept_rows)
from inputs import GRID, grid_points, j2_known, j_closed


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def _system(case):
    return SystemDef.from_strings(case.name, case.text,
                                  case.config_entry()["domain"])


def _mapping(quad, case):
    return transform.FeedbackMap.from_strings(*quad.texts(), case.box[:2])


class PushforwardEquiv:
    """One verdict: cloud of cubic, cloud of its pushforward along a seeded
    map, compare.  The map is drawn by the benchmark, with D checked."""

    def __init__(self, seed, workdir):
        case = inputs.BY_NAME["cubic"]
        quad = inputs.draw_map(np.random.default_rng((seed, 1)), case)
        self.case = case
        self.system = _system(case)
        self.pushed = transform.TransformedSystem(_mapping(quad, case),
                                                  self.system)
        self.grid = grid_points(case.box)
        x, u, w = self.grid.T
        self.images = np.column_stack(quad.psi(case, x, u, w))
        self.j_source = j_closed(case, x, u, w)
        self._verdict((2, 2, 2))

    def _verdict(self, counts):
        cloud_f = signature.build_cloud(self.system, counts)
        cloud_g = signature.build_cloud(self.pushed, counts)
        return cloud_f, cloud_g, signature.compare(cloud_f, cloud_g)

    def _check(self, result):
        cloud_f, cloud_g, verdict = result
        check_cloud("source cloud", self.case, cloud_f, self.grid)
        kept = kept_rows(cloud_g.points, [p for p, _ in cloud_g.skipped],
                         self.images, "pushforward cloud")
        close("pushforward cloud j column against J at the source point",
              cloud_g.vectors[:, 0], self.j_source[kept], J_IMAGE_TOL)
        expect("verdict %s with max residual %.3g, expected EQUIVALENT "
               "within %g" % (verdict.status, verdict.max_residual, TOL_REL),
               verdict.status == signature.EQUIVALENT
               and verdict.max_residual <= TOL_REL)
        return True

    def round(self):
        return [Op("verdict", lambda: self._verdict(GRID), self._check)]


class PointInvariance:
    """(system, map, point) triples over the five canonical systems: two
    seeded maps per system and ten seeded points per map."""

    MAPS = 2
    POINTS = 10

    def __init__(self, seed, workdir):
        self.items = []
        for ci, case in enumerate(inputs.CANONICAL):
            rng = np.random.default_rng((seed, 3, ci))
            system = _system(case)
            for _ in range(self.MAPS):
                quad = inputs.draw_map(rng, case)
                mapping = _mapping(quad, case)
                for p in inputs.draw_points(rng, case, self.POINTS, quad):
                    self.items.append((case, system, quad, mapping, p))
        op = self.round()[0]
        op.check(op.run())

    @staticmethod
    def _run(system, mapping, p):
        jet_f = invariants.system_jet(system, p, 4)
        jet_g = transform.transformed_jet(mapping, system, p, 4)
        sig_f = invariants.signature_vector(jet_f).as_array()
        sig_g = invariants.signature_vector(jet_g).as_array()
        k = invariants.eval_K(jet_f)
        brackets = invariants.bracket_scalars(jet_f)
        return jet_f.point, jet_g.point, sig_f, sig_g, k, brackets

    @staticmethod
    def _check(case, quad, p, result):
        src, img, sig_f, sig_g, k, (j_br, k_br, _) = result
        label = "%s at %r" % (case.name, p)
        close(label + " source point", src, p, POINT_TOL)
        close(label + " image point", img, quad.psi(case, *p), POINT_TOL)
        close(label + " J", sig_f[0], j_closed(case, *p), J_TOL)
        j2 = j2_known(case, *p)
        if j2 is not None:
            close(label + " j2", sig_f[2], j2, J_TOL)
        close(label + " signature of the pushed jet", sig_g, sig_f,
              INVARIANCE_TOL)
        close(label + " eval_K against the bracket K", k, k_br, K_TOL)
        close(label + " J from the brackets", j_br, sig_f[0], K_TOL)
        return True

    def round(self):
        return [Op(case.name,
                   lambda s=system, m=mapping, p=p: self._run(s, m, p),
                   lambda r, c=case, q=quad, p=p: self._check(c, q, p, r))
                for case, system, quad, mapping, p in self.items]


class CatalogueCompare:
    """compare() on every ordered pair of a catalogue of four 11^3 clouds:
    cubic, its image under a seeded affine map, mix and squ."""

    def __init__(self, seed, workdir):
        image = inputs.cubic_affine_image(np.random.default_rng((seed, 4)))
        self.cases = [inputs.BY_NAME["cubic"], image,
                      inputs.BY_NAME["mix"], inputs.BY_NAME["squ"]]
        self.clouds = []
        for case in self.cases:
            cloud = signature.build_cloud(_system(case), GRID)
            check_cloud(case.name + " cloud", case, cloud,
                        grid_points(case.box))
            self.clouds.append(cloud)
        signature.compare(self.clouds[0], self.clouds[0])

    def _check(self, i, j, verdict, seen):
        a, b = self.clouds[i], self.clouds[j]
        label = "compare(%s, %s)" % (self.cases[i].name, self.cases[j].name)
        both_3d = a.intrinsic_dim == 3 and b.intrinsic_dim == 3
        if verdict.status == signature.EQUIVALENT:
            expect(label + ": EQUIVALENT needs two 3-dimensional clouds",
                   both_3d)
            expect(label + ": EQUIVALENT with max residual %.3g > %g"
                   % (verdict.max_residual, TOL_REL),
                   verdict.max_residual <= TOL_REL)
        if i == j and both_3d or {i, j} == {0, 1}:
            expect(label + ": %s, expected EQUIVALENT" % verdict.status,
                   verdict.status == signature.EQUIVALENT)
        if (j, i) in seen:
            expect(label + ": %s, but the swapped pair gave %s"
                   % (verdict.status, seen[(j, i)]),
                   verdict.status == seen[(j, i)])
        seen[(i, j)] = verdict.status
        return True

    def round(self):
        seen = {}
        n = len(self.clouds)
        return [Op("compare",
                   lambda i=i, j=j: signature.compare(self.clouds[i],
                                                      self.clouds[j]),
                   lambda v, i=i, j=j: self._check(i, j, v, seen))
                for i in range(n) for j in range(n)]


class CliSession:
    """fbsig commands run in-process through fbsig.cli.main: three equiv
    pairs with known verdicts, three signature exports, the signature of
    `logx` (fails today, counted as failed), invariants at seeded points of
    three systems, and orbit-dim --k 1,2,3,4.

    The median of the ten successful latencies is the mean of the two
    cheaper exports, which run at different times of the round.
    """

    SESSION_GRID = (4, 4, 4)
    INVARIANTS = ("cubic", "sq", "expu1")

    def __init__(self, seed, workdir):
        self.workdir = workdir
        self.seed = seed
        session = [inputs.BY_NAME[name] for name in self.INVARIANTS]
        session += [inputs.CUBIC_IMAGE, inputs.SQ34, inputs.EXP34, inputs.SQ2]
        self.cases = {c.name: c for c in session + [inputs.LOGX]}
        self.session_cfg = self._write_config("session.json", session,
                                              self.SESSION_GRID)
        self.logx_cfg = self._write_config("logx.json", [inputs.LOGX], GRID)
        rng = np.random.default_rng((seed, 2))
        self.points = {name: inputs.draw_points(rng, self.cases[name], 3)
                       for name in self.INVARIANTS}
        op = self._invariants("cubic")
        op.check(op.run())

    def _write_config(self, name, cases, grid):
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            json.dump({"systems": {c.name: c.config_entry() for c in cases},
                       "grid": list(grid), "tol_rel": TOL_REL,
                       "min_overlap": 0.3, "seed": self.seed}, fh)
        return path

    @staticmethod
    def _main(argv):
        out = io.StringIO()
        code = cli.main(argv, out=out)
        return code, out.getvalue()

    def _op(self, name, argv, check):
        """A command; exit code 4 (an evaluation error) is a failed one."""
        return Op(name, lambda: self._main(argv),
                  lambda result: result[0] != cli.EXIT_EVAL and check(result))

    # -- one operation per command -----------------------------------------

    def _equiv(self, a, b, status, code):
        def check(result):
            got_code, text = result
            label = "equiv %s %s" % (a, b)
            expect("%s: exit %d, expected %d: %s" % (label, got_code, code,
                                                     text.strip()),
                   got_code == code)
            verdict = json.loads(text)
            expect("%s: %s, expected %s" % (label, verdict["status"], status),
                   verdict["status"] == status)
            if status == signature.EQUIVALENT:
                expect("%s: max residual %.3g > %g"
                       % (label, verdict["max_residual"], TOL_REL),
                       verdict["max_residual"] <= TOL_REL)
            return True

        return self._op("equiv", ["equiv", "--config", self.session_cfg,
                                  a, b], check)

    def _signature(self, name, config, grid):
        case = self.cases[name]
        path = os.path.join(self.workdir, name + ".csv")

        def check(result):
            code, text = result
            expect("signature %s: exit %d: %s" % (name, code, text.strip()),
                   code == cli.EXIT_OK)
            self._check_csv(case, path, grid)
            return True

        return self._op("signature", ["signature", "--config", config,
                                      "--system", name, "--out", path], check)

    @staticmethod
    def _check_csv(case, path, grid):
        stem, ext = os.path.splitext(path)
        try:
            with open(path) as fh:
                header = fh.readline().strip().split(",")
                rows = np.array([[float(v) for v in line.split(",")]
                                 for line in fh], dtype=float).reshape(-1, 17)
            with open(stem + "_skipped" + ext) as fh:
                fh.readline()
                skipped = [tuple(float(v) for v in line.split(",")[:3])
                           for line in fh]
            os.remove(path)
            os.remove(stem + "_skipped" + ext)
        except OSError as exc:
            raise Incorrect("%s: %s" % (path, exc)) from exc
        columns = ["x", "u", "u1"] + list(invariants.SIGNATURE_COMPONENTS)
        expect("%s: header %r" % (path, header), header == columns)
        points = rows[:, :3]
        kept_rows(points, skipped, grid_points(case.box, grid), path)
        check_j_column(path, case, points, rows[:, 3])
        check_j2_column(path, case, points, rows[:, 5])

    def _invariants(self, name):
        case = self.cases[name]
        points = self.points[name]
        argv = ["invariants", "--config", self.session_cfg, "--system", name]
        for p in points:
            argv.append("--point=%r,%r,%r" % p)

        def check(result):
            code, text = result
            expect("invariants %s: exit %d: %s" % (name, code, text.strip()),
                   code == cli.EXIT_OK)
            lines = text.strip().split("\n")
            expect("invariants %s: %d rows" % (name, len(lines) - 1),
                   len(lines) == 1 + len(points))
            for line, p in zip(lines[1:], points):
                cols = line.split("\t")
                label = "invariants %s at %r" % (name, p)
                expect(label + ": not regular", cols[3] == "yes")
                x, u, w, J, K, J_br, K_br, _, _, j2, _ = (
                    float(v) for v in cols[:3] + cols[4:])
                close(label + " point", (x, u, w), p, 0.0)
                close(label + " J", J, j_closed(case, *p), J_TOL)
                close(label + " J from the brackets", J_br, J, K_TOL)
                close(label + " K from the brackets", K_br, K, K_TOL)
                known = j2_known(case, *p)
                if known is not None:
                    close(label + " nabla2_J", j2, known, J_TOL)
            return True

        return self._op("invariants", argv, check)

    def _orbit_dim(self):
        def check(result):
            code, text = result
            expect("orbit-dim: exit %d: %s" % (code, text.strip()),
                   code == cli.EXIT_OK)
            rows = [line.split("\t") for line in text.split("\n")[1:5]]
            ranks = [(int(r[0]), int(r[1]), r[4]) for r in rows]
            want = [(k, 7 if k == 1 else (k * k + 7 * k + 6) // 2, "PASS")
                    for k in (1, 2, 3, 4)]
            expect("orbit-dim: ranks %r, expected %r" % (ranks, want),
                   ranks == want)
            return True

        return self._op("orbit-dim", ["orbit-dim", "--config",
                                      self.session_cfg, "--k", "1,2,3,4"],
                        check)

    def round(self):
        eq, neq, inc = (signature.EQUIVALENT, signature.NOT_EQUIVALENT,
                        signature.INCONCLUSIVE)
        sig = self._signature
        return [
            self._equiv("cubic", "cubic_img", eq, cli.EXIT_OK),
            sig("cubic", self.session_cfg, self.SESSION_GRID),
            self._equiv("sq34", "exp34", neq, cli.EXIT_NOT_EQUIVALENT),
            sig("exp34", self.session_cfg, self.SESSION_GRID),
            self._equiv("sq", "sq2", inc, cli.EXIT_INCONCLUSIVE),
            sig("sq34", self.session_cfg, self.SESSION_GRID),
            sig("logx", self.logx_cfg, GRID),
        ] + [self._invariants(name) for name in self.INVARIANTS] + [
            self._orbit_dim(),
        ]


WORKLOADS = {
    "pushforward_equiv": PushforwardEquiv,
    "cli_session": CliSession,
    "point_invariance": PointInvariance,
    "catalogue_compare": CatalogueCompare,
}
