"""cqcount benchmark: one workload per process, a closed loop with one caller.

    python3 bench/run.py --workload dss_count --seed 1 --seconds 25 --trace 0
    python3 bench/run.py            # every workload, each in its own process

With --trace 0 the run first reads the peak memory of MEMORY_CYCLES cycles of
the workload's op pool, then times whole cycles until the ops have taken
--seconds in total and at least MIN_SAMPLES ops ran, and reports the
end-to-end metrics, their times on a calibrated clock (see CAL_SHARE).  With
--trace 1 it passes over the first
TRACE_CYCLES cycles for --seconds, running each op untraced and then traced,
and reports the per-layer metrics of the traced runs (counts from the first
pass, times as medians over passes) and the tracing overhead; the first
pass's spans are written under .bench_out/.  --seconds defaults to
run_seconds in BENCHMARK.json.  Every op result is checked against a
reference.  The last line of output is one JSON object; the exit
code is 1 when any op failed and 2 when the benchmark cannot run.  See
bench/README.md.
"""

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from tracing import LAYER_METRICS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
LAYERS = ("parser", "expansion", "quantum", "homs", "decomposition", "model",
          "gadgets")
SETUP_REPS = 7
# the 90th percentile needs at least ten samples beyond it
MIN_SAMPLES = 100
# A pool holds POOL_CYCLES cycles of fresh instances; an untraced run stops at
# the end of a cycle and wraps around to the start if the pool runs out.  A
# traced run repeats the first TRACE_CYCLES cycles, so its counts depend on
# the seed alone.
POOL_CYCLES = 32
TRACE_CYCLES = 3
# cycles run unchecked and untimed before the timed loop, for peak_rss_mb
MEMORY_CYCLES = 3

# The calibrated clock.  On a shared VM the same code runs up to 1.8 times
# slower for minutes at a time, far beyond any bound a regression gate can
# use.  So after every timed op and every set-up repetition, outside the
# timed region, the run spends CAL_SHARE of that time on a fixed calibration
# unit.  Over a cycle, the unit's mean time over CAL_UNIT_S is the machine's
# slowness k, and the cycle's times are divided by k: every reported time is
# what a machine that runs one unit in CAL_UNIT_S would take.
CAL_SHARE = 0.1
CAL_UNIT_S = 1e-4
CAL_N = 7
CAL_EDGES = frozenset((u, v) for u in range(CAL_N) for v in range(CAL_N)
                      if u != v and (u * u + v * v + 3 * u * v) % 7 < 3)

END_TO_END = [
    ("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"), ("setup_s", "s"),
]


class Failure(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_cqcount():
    """Import cqcount's layers afresh from the checkout's src directory."""
    for name in [n for n in sys.modules
                 if n == "cqcount" or n.startswith("cqcount.")]:
        del sys.modules[name]
    m = SimpleNamespace(**{name: importlib.import_module("cqcount." + name)
                           for name in LAYERS})
    if Path(m.model.__file__).resolve().parent != SRC / "cqcount":
        raise Failure("cqcount was imported from %s, not from %s"
                      % (m.model.__file__, SRC))
    return m


def git_commit():
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args):
    return {"python": platform.python_version(), "host": platform.node(),
            "nproc": os.cpu_count(), "loadavg": os.getloadavg(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
            "commit": git_commit()}


def calibration_unit():
    """Count the walks of length 3 in a fixed 7-vertex digraph by
    backtracking: pure-Python work of the kind cqcount's searches do, tuple
    building, set membership tests and dict updates, in no code of
    cqcount's, so a change to cqcount cannot change it."""
    counts = {}

    def extend(path):
        if len(path) == 4:
            key = (path[0], path[-1])
            counts[key] = counts.get(key, 0) + 1
            return
        for w in range(CAL_N):
            if (path[-1], w) in CAL_EDGES:
                extend(path + (w,))

    for v in range(CAL_N):
        extend((v,))
    return counts


class Calibration:
    """Runs calibration units after timed work and gives the slowness k of
    the machine over the work since the last reading."""

    def __init__(self):
        self.units, self.seconds = 0, 0.0

    def after(self, seconds):
        """Run units for CAL_SHARE of `seconds`, and at least one."""
        start = time.perf_counter()
        while True:
            calibration_unit()
            self.units += 1
            spent = time.perf_counter() - start
            if spent >= CAL_SHARE * seconds:
                break
        self.seconds += spent

    def slowness(self):
        k = self.seconds / (self.units * CAL_UNIT_S)
        self.units, self.seconds = 0, 0.0
        return k


class Checker:
    """Checks every op result outside the timed region.  The first result of
    each op is checked against the workload's reference when it arrives; a
    repeat of the op must give the same result.  Only a hash of each result
    is kept, so memory does not grow with the number of ops run."""

    def __init__(self, workload, m, ops):
        self.workload, self.m, self.ops = workload, m, ops
        self.expected = {}
        self.runs = 0
        self.failed = 0
        self.seconds = 0.0

    def _report(self, i, what):
        if self.failed <= 3:
            sys.stderr.write("op %d (%s) %s\n" % (i, self.ops[i]["kind"], what))

    def record(self, i, result, error):
        start = time.perf_counter()
        self.runs += 1
        if error is not None:
            self.failed += 1
            self._report(i, "raised:\n" + "".join(traceback.format_exception(
                type(error), error, error.__traceback__)))
        else:
            key = hash(repr(self.workload.canonical(self.m, result)))
            if i not in self.expected:
                ok = self.workload.check(self.m, self.ops[i], result)
                self.expected[i] = key if ok else None
            if self.expected[i] != key:
                self.failed += 1
                self._report(i, "gave a result that disagrees with its "
                             "reference")
        self.seconds += time.perf_counter() - start


def run_ops(workload, m, ops, indices, checker, tracer=None,
            calibration=None):
    """Run the given ops one after another; returns their latencies."""
    latencies = []
    for i in indices:
        start = time.perf_counter()
        try:
            if tracer is None:
                result = workload.run(m, ops[i])
            else:
                result = tracer.root(i, workload.run, m, ops[i])
            error = None
        except Exception as e:  # counted as a failed op, the loop goes on
            result, error = None, e
        latencies.append(time.perf_counter() - start)
        if calibration is not None:
            calibration.after(latencies[-1])
        checker.record(i, result, error)
    return latencies


def setup(workload, args):
    """Import cqcount and build the pool SETUP_REPS times; the median of the
    calibrated times is setup_s, and the median of the raw times is returned
    too.  The modules and ops of the last repetition are used.  Each
    repetition drops the previous one first, so at most one pool is ever
    held and set-up does not raise the memory peak above one pool."""
    cycles = 2 if args.smoke else POOL_CYCLES
    times, raw = [], []
    calibration = Calibration()
    for _ in range(SETUP_REPS):
        m = ops = None
        gc.collect()
        start = time.perf_counter()
        m = load_cqcount()
        rng = random.Random("%s/%d" % (args.workload, args.seed))
        ops = workload.build(m, rng, cycles, args.smoke)
        raw.append(time.perf_counter() - start)
        calibration.after(raw[-1])
        times.append(raw[-1] / calibration.slowness())
    return (m, ops, len(ops) // cycles, statistics.median(times),
            statistics.median(raw))


def nearest_rank(sorted_values, q):
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def memory_pass(workload, m, ops, cycle, checker):
    """Peak resident memory of the process, in MB, after it ran the first
    MEMORY_CYCLES cycles of ops.  The results are checked only after the
    reading, so the references' memory is not in it."""
    results = []
    for i in range(min(len(ops), MEMORY_CYCLES * cycle)):
        try:
            results.append((i, workload.run(m, ops[i]), None))
        except Exception as e:  # recorded as a failed op below
            results.append((i, None, e))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for i, result, error in results:
        checker.record(i, result, error)
    return peak_rss_mb


def measure(workload, m, ops, cycle, checker, args):
    """The end-to-end metrics on the calibrated clock, and the same metrics
    on the raw clock."""
    peak_rss_mb = memory_pass(workload, m, ops, cycle, checker)
    calibration = Calibration()
    raw, latencies, raw_rates, rates, slowness = [], [], [], [], []
    while not rates or sum(raw) < args.seconds or len(raw) < MIN_SAMPLES:
        first = len(rates) * cycle % len(ops)
        done = run_ops(workload, m, ops, range(first, first + cycle), checker,
                       calibration=calibration)
        k = calibration.slowness()
        slowness.append(k)
        raw += done
        latencies += [t / k for t in done]
        raw_rates.append(len(done) / sum(done))
        rates.append(k * raw_rates[-1])

    def summary(latencies, rates):
        latencies = sorted(latencies)
        p90, beyond = nearest_rank(latencies, 0.9)
        # every cycle holds the whole template mix once, so the median cycle
        # is a complete measurement that a passing slowdown skews less
        return {"ops_per_s": statistics.median(rates),
                "op_p50_ms": 1000 * statistics.median(latencies),
                "op_p90_ms": 1000 * p90,
                "peak_rss_mb": peak_rss_mb}, beyond

    metrics, beyond = summary(latencies, rates)
    raw_metrics, _ = summary(raw, raw_rates)
    notes = ["samples %d, beyond p90 %d, %d cycles of %d ops; peak memory "
             "read after %d untimed cycles"
             % (len(latencies), beyond, len(rates), cycle, MEMORY_CYCLES),
             "machine slowness k over cycles: median %.3f, range %.3f-%.3f"
             % (statistics.median(slowness), min(slowness), max(slowness))]
    return metrics, raw_metrics, notes


def measure_traced(workload, m, ops, cycle, checker, args):
    """Each op of the first TRACE_CYCLES cycles runs untraced and then traced,
    back to back, so drifts in machine speed cancel out of the overhead."""
    traced_ops = range(min(len(ops), TRACE_CYCLES * cycle))
    tracer = Tracer(m)
    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    while not layers or time.perf_counter() - start < args.seconds:
        origin = time.perf_counter()
        for i in traced_ops:
            untraced += run_ops(workload, m, ops, [i], checker)
            tracer.install()
            try:
                traced += run_ops(workload, m, ops, [i], checker, tracer)
            finally:
                tracer.uninstall()
        layers.append(tracer.layer_metrics())
        if len(layers) == 1:
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / ("spans-%s-seed%d.tsv.gz"
                                % (args.workload, args.seed))
            tracer.write(spans_path, origin)
            span_count = len(tracer.spans)
        tracer.reset()
    metrics = {}
    for name, unit, _ in LAYER_METRICS[:-1]:
        if unit == "s":
            metrics[name] = statistics.median(run[name] for run in layers)
        else:
            metrics[name] = layers[0][name]
    metrics["trace_overhead_frac"] = sum(traced) / sum(untraced) - 1
    notes = ["%d traced passes over %d ops; %d spans in the first, written "
             "to %s" % (len(layers), len(traced_ops), span_count,
                        spans_path.relative_to(ROOT))]
    return metrics, notes


def run_one(args):
    workload = WORKLOADS[args.workload]
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    m, ops, cycle, setup_s, raw_setup_s = setup(workload, args)
    checker = Checker(workload, m, ops)
    raw_metrics = None
    if args.trace:
        metrics, notes = measure_traced(workload, m, ops, cycle, checker, args)
        units = [(name, unit) for name, unit, _ in LAYER_METRICS]
    else:
        metrics, raw_metrics, notes = measure(workload, m, ops, cycle, checker,
                                              args)
        metrics["setup_s"] = setup_s
        raw_metrics["setup_s"] = raw_setup_s
        notes.append("raw clock: " + ", ".join(
            "%s %.6g" % (name, raw_metrics[name])
            for name, _ in END_TO_END if name != "peak_rss_mb"))
        units = END_TO_END
    failed, attempted = checker.failed, checker.runs
    notes.append("checks of %d distinct ops took %.1f s, outside the timed "
                 "region" % (len(checker.expected), checker.seconds))
    for note in notes:
        print(note)
    print("%-36s %r frac (%d of %d ops)"
          % ("failed_frac", failed / attempted, failed, attempted))
    for name, unit in units:
        print("%-36s %r %s" % (name, metrics[name], unit))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units}}
    OUT.mkdir(exist_ok=True)
    record = dict(result, env=env, notes=notes, raw_metrics=raw_metrics)
    (OUT / ("result-%s-seed%d-trace%d.json"
            % (args.workload, args.seed, args.trace))).write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args):
    """Each workload in its own process, so each peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("== %s" % name)
        print("\n".join(lines[:-1]))
        status = max(status, proc.returncode)
        if proc.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"]["%s.%s" % (name, metric)] = value
    print(json.dumps(combined))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all"] + list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=json.loads(
        (ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's self-test")
    args = parser.parse_args(argv)
    if not (SRC / "cqcount" / "__init__.py").is_file():
        sys.stderr.write("bench: no cqcount sources under %s\n" % SRC)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        return run_all(args) if args.workload == "all" else run_one(args)
    except Failure as e:
        sys.stderr.write("bench: %s\n" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
