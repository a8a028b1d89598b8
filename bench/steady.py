"""Steadiness report: two interleaved sets of runs of each workload.

    python3 bench/steady.py

For each workload of BENCHMARK.json, set A uses seeds 1..5 and set B
seeds 101..105; within each pair the set that goes first alternates.  For every end-to-end metric it prints
each set's median and quartiles, the gap between the set medians, the
spread (quartile distance over median) of all runs, and the metric's
bound from BENCHMARK.json; then every run's attempted and failed
operation counts.  Run from the repository root.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

#: runs per set
RUNS = 5


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    for workload in [w["name"] for w in spec["workloads"]]:
        sets: dict[str, list] = {"A": [], "B": []}
        for i in range(RUNS):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for name in order:
                seed = i + 1 if name == "A" else i + 101
                sets[name].append((seed, one_run(workload, seed,
                                                 spec["run_seconds"])))
        print(f"== {workload}: {RUNS} runs per set")
        print(f"{'metric':16s} {'set':3s} {'q1':>12s} {'median':>12s} "
              f"{'q3':>12s}  gap     spread  bound")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            per_set = {k: [r["metrics"][name]["value"] for _s, r in v]
                       for k, v in sets.items()}
            both = per_set["A"] + per_set["B"]
            q1, med, q3 = quartiles(both)
            spread = (q3 - q1) / med if med else 0.0
            ma, mb = (statistics.median(per_set[k]) for k in ("A", "B"))
            gap = (mb - ma) / ma if ma else 0.0
            for k in ("A", "B"):
                a1, am, a3 = quartiles(per_set[k])
                tail = (f"  {gap:+.3f}  {spread:.3f}   {metric['bound']}"
                        if k == "B" else "")
                print(f"{name:16s} {k:3s} {a1:12.4f} {am:12.4f} "
                      f"{a3:12.4f}{tail}")
        for k, runs in sets.items():
            for seed, result in runs:
                share = result["failed"] / result["attempted"]
                values = " ".join(
                    f"{m['name']}={result['metrics'][m['name']]['value']:.4g}"
                    for m in spec["end_to_end"][:4])
                print(f"set {k} seed {seed:4d}: attempted "
                      f"{result['attempted']:5d} failed {result['failed']:4d}"
                      f" ({share:.4f}) correct {result['correct']}  {values}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    os.environ.pop("PYTHONHASHSEED", None)
    sys.exit(main())
