"""Fast self-test of the benchmark (about a minute):

    python3 bench/selftest.py

- runs each workload at smoke size, untraced and traced, and checks that
  every metric listed in BENCHMARK.json is printed with its unit, in the
  human-readable lines and in the final JSON line;
- checks that two traced runs with one seed give identical count metrics;
- checks the references in refs.py against cqcount's brute-force counter on
  small random graphs;
- checks that a copy of bench/ without src/ next to it exits non-zero and
  prints no result.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), "--seconds", "1",
                           "--smoke"] + list(args),
                          cwd=cwd, stdout=subprocess.PIPE, text=True,
                          timeout=600)


def check_run(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--trace", str(trace))
    assert proc.returncode == 0, (workload, trace, proc.returncode)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}, workload
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1]}
    for metric in listed:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric
        assert isinstance(got["value"], (int, float)), metric
        assert printed.get(metric["name"]) == metric["unit"], metric
    return result


def check_references():
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    import refs
    from cqcount import gadgets, homs
    from cqcount.model import Query, graph
    rng = random.Random(11)
    families = [("psi", 2), ("psi", 3), ("gamma", 2), ("gamma", 3),
                ("omega", 2), ("poly", 3), ("poly", 4), ("subdivided", 3)]
    for _ in range(30):
        n = rng.randint(1, 6)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = rng.sample(pairs, rng.randint(0, len(pairs)))
        t = graph(n, edges)
        for kind, k in families:
            want = homs.count_answers(gadgets.family_query(kind, k), t)
            assert refs.family_answers(kind, k, n, edges) == want, (kind, k)
        q = Query(graph(4, [(0, 3), (1, 3), (2, 3)]), (0, 1, 2),
                  inequalities=[(0, 2)], negated_atoms=[("E", (0, 1))])
        assert refs.count_answers(4, [(0, 3), (1, 3), (2, 3)], (0, 1, 2), n,
                                  edges, distinct=[(0, 2)],
                                  non_edges=[(0, 1)]) == homs.count_answers(q, t)
        assert refs.dominating_set_counts(n, edges, 2) == \
            [gadgets._brute_dominating_sets(t, ell) for ell in (1, 2)]


def check_without_program():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench("--workload", "dss_count", cwd=bare,
                 script=bare / "bench" / "run.py")
    assert proc.returncode != 0 and "correct" not in proc.stdout
    shutil.rmtree(bare)


def main():
    for workload in [w["name"] for w in SPEC["workloads"]]:
        check_run(workload, 0)
        first = check_run(workload, 1)["metrics"]
        again = check_run(workload, 1)["metrics"]
        for metric in SPEC["per_layer"]:
            if metric["unit"] != "s" and metric["name"] != "trace_overhead_frac":
                name = metric["name"]
                assert first[name]["value"] == again[name]["value"], name
        print("ok", workload)
    check_references()
    print("ok references")
    check_without_program()
    print("ok without program")


if __name__ == "__main__":
    main()
