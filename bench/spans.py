"""Spans around calls into fbsig's public functions, for the traced run.

`Tracer.install` replaces each function in TRACED by a wrapper that records
a span (name, parent span, start, end) and puts the wrapper into every
loaded module that holds the original under any name, so calls made inside
fbsig are traced as well as the benchmark's own.  Methods are patched on
their class.  Spans are kept in memory; `layer_metrics` reduces them and
`dump` writes them out when the run ends.  Construction of series values is
only counted, since it happens about a thousand times per point.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import Counter

#: (module, attribute, span name).  A dotted attribute is a method.  Several
#: functions may share a span name; a span nested in one of the same name
#: does not add to that name's inclusive time.
TRACED = (
    ("fbsig.taylor", "poly_compose", "taylor.poly_compose"),
    ("fbsig.transform", "transformed_taylor", "transform.transformed_taylor"),
    ("fbsig.invariants", "signature_vector", "invariants.signature_vector"),
    ("fbsig.invariants", "bracket_scalars", "invariants.bracket_scalars"),
    ("fbsig.invariants", "system_jet", "invariants.system_jet"),
    ("fbsig.signature", "build_cloud", "signature.build_cloud"),
    ("fbsig.signature", "intrinsic_dimension", "signature.dimension_chart"),
    ("fbsig.signature", "chart_margins", "signature.dimension_chart"),
    ("fbsig.signature", "select_chart", "signature.dimension_chart"),
    ("fbsig.signature", "compare", "signature.compare"),
    ("fbsig.signature", "export_cloud", "signature.export_cloud"),
    ("fbsig.systems", "SystemDef.taylor", "systems.taylor"),
    ("fbsig.expr", "Expression.__call__", "expr.eval"),
    ("fbsig.orbits", "orbit_rank", "orbits.orbit_rank"),
    ("fbsig.cli", "load_config", "cli.load_config"),
    ("fbsig.cli", "main", "cli.main"),
)


def _grid_points(counts, args, kwargs, result):
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    counts["signature.grid_points"] += math.prod(int(n) for n in grid)
    if result is not None:
        counts["signature.points_skipped"] += len(result.skipped)


def _export_rows(counts, args, kwargs, result):
    cloud = args[0] if args else kwargs["cloud"]
    counts["signature.export_rows"] += len(cloud) + len(cloud.skipped)


#: Counters read from the arguments and result of a traced call.
OBSERVERS = {"build_cloud": _grid_points, "export_cloud": _export_rows}


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        self.spans = []    # [name, parent index or -1, start, end, outermost]
        self.stack = []
        self.depth = Counter()
        self.counts = Counter()
        self.values_constructed = 0

    def _wrap(self, name, fn, observe):
        spans, stack, depth, counts = (self.spans, self.stack, self.depth,
                                       self.counts)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0,
                    depth[name] == 0]
            stack.append(len(spans))
            spans.append(span)
            depth[name] += 1
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[3] = clock()
                depth[name] -= 1
                stack.pop()
                if observe is not None:
                    observe(counts, args, kwargs, result)

        return traced

    def install(self):
        """Patch every traced function, and count series constructions."""
        for module_name, attr, name in TRACED:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth,
                        self._wrap(name, getattr(cls, meth), None))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, OBSERVERS.get(attr))
            for mod in list(sys.modules.values()):
                namespace = getattr(mod, "__dict__", {})
                for key, value in list(namespace.items()):
                    if value is original:
                        setattr(mod, key, wrapper)

        taylor_value = sys.modules["fbsig.taylor"].TaylorValue
        init = taylor_value.__init__

        def counted_init(obj, *args, **kwargs):
            self.values_constructed += 1
            init(obj, *args, **kwargs)

        taylor_value.__init__ = counted_init

    def layer_metrics(self, n_ops, scale):
        """Per-operation counts and seconds of every layer metric, with
        span durations multiplied by `scale`."""
        calls, inclusive, self_time = Counter(), Counter(), Counter()
        took = [(end - start) * scale for _, _, start, end, _ in self.spans]
        child = [0.0] * len(self.spans)
        under_cloud = [False] * len(self.spans)
        evals_in_cloud = 0
        for i, (name, parent, _, _, outermost) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += took[i]
                under_cloud[i] = under_cloud[parent]
            if name == "signature.build_cloud":
                under_cloud[i] = True
            elif name == "invariants.signature_vector" and under_cloud[i]:
                evals_in_cloud += 1
            calls[name] += 1
            if outermost:
                inclusive[name] += took[i]
        for i, span in enumerate(self.spans):
            self_time[span[0]] += took[i] - child[i]

        per_op = {
            "taylor.values_constructed": self.values_constructed,
            "taylor.poly_compose_calls": calls["taylor.poly_compose"],
            "taylor.poly_compose_s": inclusive["taylor.poly_compose"],
            "transform.transformed_taylor_calls":
                calls["transform.transformed_taylor"],
            "transform.transformed_taylor_self_s":
                self_time["transform.transformed_taylor"],
            "invariants.signature_vector_calls":
                calls["invariants.signature_vector"],
            "invariants.signature_vector_self_s":
                self_time["invariants.signature_vector"],
            "invariants.bracket_scalars_s":
                inclusive["invariants.bracket_scalars"],
            "invariants.system_jet_s": inclusive["invariants.system_jet"],
            "signature.build_cloud_self_s":
                self_time["signature.build_cloud"],
            "signature.grid_points": self.counts["signature.grid_points"],
            "signature.points_skipped":
                self.counts["signature.points_skipped"],
            "signature.dimension_chart_s":
                inclusive["signature.dimension_chart"],
            "signature.compare_calls": calls["signature.compare"],
            "signature.compare_s": inclusive["signature.compare"],
            "systems.taylor_calls": calls["systems.taylor"],
            "systems.taylor_s": inclusive["systems.taylor"],
            "expr.eval_calls": calls["expr.eval"],
            "expr.eval_s": inclusive["expr.eval"],
            "orbits.orbit_rank_calls": calls["orbits.orbit_rank"],
            "orbits.orbit_rank_s": inclusive["orbits.orbit_rank"],
            "cli.load_config_s": inclusive["cli.load_config"],
            "cli.main_self_s": self_time["cli.main"],
            "signature.export_cloud_s": inclusive["signature.export_cloud"],
            "signature.export_rows": self.counts["signature.export_rows"],
        }
        out = {key: value / n_ops for key, value in per_op.items()}
        # 0 when the workload builds no cloud
        out["signature.useful_eval_ratio"] = (
            self.counts["signature.grid_points"] / evals_in_cloud
            if evals_in_cloud else 0.0)
        return out

    def dump(self, path, header):
        """Write the spans, with times relative to the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        payload = dict(header)
        payload["counts"] = dict(self.counts,
                                 values_constructed=self.values_constructed)
        payload["spans"] = [[name, parent, round(start - t0, 9),
                             round(end - t0, 9)]
                            for name, parent, start, end, _ in self.spans]
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
            fh.write("\n")
