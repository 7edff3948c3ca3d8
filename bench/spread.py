"""Run the benchmark several times, each with another seed, and report for
every end-to-end metric the median and the spread (third minus first
quartile, as a share of the median), against the bounds in BENCHMARK.json.

    python3 bench/spread.py --workload brute_eval --runs 5 --sets 1
    python3 bench/spread.py --runs 10 --write bench/baseline.json
    python3 bench/spread.py --runs 10 --against bench/baseline.json

Each set is --runs seeds; set k uses the seeds from
first_seed + k * runs on.  The runs are sequential, one process at a time,
and interleaved: round i runs seed i of every set on every workload before
round i + 1 starts, so slow and fast phases of the machine fall on all sets
and workloads alike.  A spread is flagged "wide" from a third of the bound
on and "OVER" above the bound.  With two sets, each set-2 median is compared
with set 1's in both directions: "DISAGREE" means they differ by more than
the bound.  With --write, every run's metrics and environment and the
summaries are stored as a baseline.  With --against, the median over all
runs is compared with the baseline's: "worse" means worse by more than the
bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_seed(workload, seed, seconds):
    """The final JSON line of one untraced run, and the environment the run
    recorded in its result file."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    last = json.loads(proc.stdout.splitlines()[-1])
    if proc.returncode != 0 or not last["correct"]:
        raise SystemExit("%s seed %d failed: %s" % (workload, seed, last))
    record = ROOT / ".bench_out" / ("result-%s-seed%d-trace0.json"
                                    % (workload, seed))
    return last, json.loads(record.read_text())["env"]


def summarize(results):
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": results[0]["metrics"][name]["unit"],
                     "median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median, "values": values}
    return out


def change(now, then, better):
    """Relative change of a median and whether it is worse."""
    delta = now / then - 1
    return delta, -delta if better == "higher" else delta


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--write", type=Path,
                        help="store every run and the summaries here")
    parser.add_argument("--against", type=Path,
                        help="compare medians with this stored baseline")
    args = parser.parse_args()
    workloads = args.workload or names
    base = json.loads(args.against.read_text())["workloads"] \
        if args.against else {}
    seeds = [[args.first_seed + k * args.runs + i for i in range(args.runs)]
             for k in range(args.sets)]
    results = {w: [[] for _ in seeds] for w in workloads}
    environments = {w: [[] for _ in seeds] for w in workloads}
    for i in range(args.runs):
        for workload in workloads:
            for k, set_seeds in enumerate(seeds):
                result, env = run_seed(workload, set_seeds[i], args.seconds)
                results[workload][k].append(result)
                environments[workload][k].append(env)
                print("round %d %s seed %d done" % (i + 1, workload,
                                                    set_seeds[i]), flush=True)
    report = {}
    for workload in workloads:
        sets = [summarize(r) for r in results[workload]]
        pooled = summarize(sum(results[workload], []))
        report[workload] = {"sets": sets, "all": pooled}
        for name in pooled:
            bound = bounds[name]
            line = "%-17s %-12s" % (workload, name)
            for s in sets:
                flag = "ok" if s[name]["spread"] < bound / 3 else \
                    "wide" if s[name]["spread"] <= bound else "OVER"
                line += "  median %-11.5g spread %.3f %-4s" % (
                    s[name]["median"], s[name]["spread"], flag)
            if len(sets) == 2:
                delta, _ = change(sets[1][name]["median"],
                                  sets[0][name]["median"], better[name])
                line += "  set 2 %+.3f %s" % (
                    delta, "ok" if abs(delta) <= bound else "DISAGREE")
            then = base.get(workload, {}).get("all", {}).get(name)
            if then:
                delta, worse = change(pooled[name]["median"], then["median"],
                                      better[name])
                line += "  vs baseline %+.3f %s" % (
                    delta, "WORSE" if worse > bound else "ok")
            print(line + "  (bound %.2f)" % bound)
    if args.write:
        args.write.write_text(json.dumps(
            {"seeds": seeds, "run_seconds": args.seconds,
             "workloads": report, "environments": environments},
            indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
