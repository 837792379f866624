"""fbsig benchmark: run one workload and print one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; fbsig is imported from its `src`.  The
process is single-threaded with its BLAS pinned to one thread.  After the
set-up (imports, seeded inputs, warm-up) the workload repeats whole rounds
of its operations until `--seconds` have passed, checking every output.

With --trace 0 the result holds the end-to-end metrics:
  setup_s       process start to the first timed operation
  wall_s        median over the rounds of one round's time, the sum of its
                operations' latencies (the checks are not timed)
  op_median_ms  median latency of the operations that succeeded
  peak_rss_mb   peak resident memory of the process
Times are scaled to the machine's nominal speed with a speed probe sampled
during the run (see probe.py).
With --trace 1 it holds the per-layer metrics instead, per operation, from
spans around calls into fbsig (see spans.py); the spans are written to
bench/results/.  The traced run times one untraced round first and reports
the slowdown of the traced rounds as trace.overhead_ratio.

The exit code is 0 when the workload ran to its end, whatever the checks
found (they set "correct"), and 2 when fbsig cannot be imported from src.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time


def _since_process_start():
    """Seconds since this process started, from /proc/self/stat."""
    with open("/proc/self/stat") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    return (time.clock_gettime(time.CLOCK_BOOTTIME)
            - start_ticks / os.sysconf("SC_CLK_TCK"))


_T0 = time.perf_counter()
_STARTUP = _since_process_start()

import argparse
import json
import resource
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from probe import SpeedProbe


def _import_fbsig():
    src = os.path.join(ROOT, "src", "fbsig")
    try:
        import fbsig
    except ImportError as exc:
        print("bench: cannot import fbsig from %s: %s" % (src, exc),
              file=sys.stderr)
        sys.exit(2)
    if os.path.dirname(os.path.abspath(fbsig.__file__)) != src:
        print("bench: fbsig was imported from %s, not from %s"
              % (fbsig.__file__, src), file=sys.stderr)
        sys.exit(2)


def _rounds(workload, seconds, on_failure):
    """Whole rounds until `seconds` have passed: per round, the (start, end,
    succeeded) of each operation."""
    from fbsig.errors import FbsigError

    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        spans = []
        for op in workload.round():
            t0 = time.perf_counter()
            try:
                result = op.run()
            except FbsigError as exc:
                result = exc
            t1 = time.perf_counter()
            ok = not isinstance(result, FbsigError) and op.check(result)
            if not ok:
                on_failure(op, result)
            spans.append((t0, t1, ok))
        rounds.append(spans)
    return rounds


def main(probe, argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    from checks import Incorrect

    failures = []

    def on_failure(op, result):
        if not failures:
            print("bench: operation %s failed: %s" % (op.name, result),
                  file=sys.stderr)
        failures.append(op.name)

    os.makedirs(RESULTS, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as workdir:
        try:
            workload = WORKLOADS[args.workload](args.seed, workdir)
            t_setup = time.perf_counter()
            setup_s = _STARTUP + (t_setup - _T0) / probe.slowdown(_T0,
                                                                  t_setup)
            if args.trace:
                from spans import Tracer

                reference = _rounds(workload, 0.0, on_failure)
                tracer = Tracer()
                tracer.install()
            t_rounds = time.perf_counter()
            rounds = _rounds(workload, args.seconds, on_failure)
            slowdown = probe.slowdown(t_rounds, time.perf_counter())
            probe.stop()
            correct = True
            attempted = sum(len(r) for r in rounds)
            failed = sum(not ok for r in rounds for _, _, ok in r)
        except Incorrect as exc:
            print("bench: incorrect output: %s" % exc, file=sys.stderr)
            correct, rounds, attempted, failed = False, [], 1, 0

    if args.trace and correct:
        layer = tracer.layer_metrics(attempted, 1.0 / slowdown)
        layer["trace.overhead_ratio"] = (
            statistics.median(_round_time(r, probe) for r in rounds)
            / _round_time(reference[0], probe))
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]}
                   for m in _declared("per_layer")}
        tracer.dump(os.path.join(RESULTS, "trace-%s-seed%d.json"
                                 % (args.workload, args.seed)),
                    {"workload": args.workload, "seed": args.seed,
                     "operations": attempted, "metrics": layer})
    elif correct:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(_round_time(r, probe)
                                        for r in rounds),
            "op_median_ms": 1e3 * statistics.median(
                _latency(t0, t1, probe) for r in rounds
                for t0, t1, ok in r if ok),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in _declared("end_to_end")}
    else:
        metrics = {}
    for name, metric in metrics.items():
        print("%-40s %.6g %s" % (name, metric["value"], metric["unit"]))
    print("rounds %d, operations attempted %d, failed %d"
          % (len(rounds), attempted, failed))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _latency(t0, t1, probe):
    """Duration of [t0, t1], scaled to the nominal speed."""
    return (t1 - t0) / probe.slowdown(t0, t1)


def _round_time(spans, probe):
    return sum(_latency(t0, t1, probe) for t0, t1, _ in spans)


def _declared(kind):
    """The metrics BENCHMARK.json declares under `kind`."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)[kind]


if __name__ == "__main__":
    speed = SpeedProbe()
    speed.start()
    _import_fbsig()
    sys.exit(main(speed))
