#!/usr/bin/env python3
"""Measure the benchmark's baseline and write it to bench/baseline.json.

Run from the repository root:

    python3 bench/baseline.py [runs-per-set]

It takes two interleaved sets of runs (default 5 each) of
`bash bench/run.sh --workload all --seed 1`, alternating set A and set B,
then one traced run per set. For every (workload, end-to-end metric) pair it
records each set's median and interquartile range, and for every workload
the traced run's per-layer numbers, with the Go version, CPU count and date.
Nothing in the output is entered by hand.
"""
import datetime
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_all(trace):
    """One `--workload all` run: {workload: (info, result)}."""
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    p = subprocess.run(
        bench["command"] + ["--workload", "all", "--seed", "1", "--seconds", str(bench["run_seconds"]),
                            "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    out, info = {}, None
    for line in p.stdout.splitlines():
        obj = json.loads(line)
        if "workload" in obj:
            info = obj
        else:
            out[info["workload"]] = (info, obj)
    return out


def summarize(runs):
    """Median, quartiles and IQR/median of each (workload, metric) over runs."""
    out = {}
    for w in runs[0]:
        out[w] = {}
        for m, v in runs[0][w][1]["metrics"].items():
            vals = [r[w][1]["metrics"][m]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            out[w][m] = {"unit": v["unit"], "median": med, "q1": q1, "q3": q3,
                         "iqr_share": (q3 - q1) / med if med else 0.0, "values": vals}
        out[w]["correct"] = all(r[w][1]["correct"] for r in runs)
        out[w]["output_digest"] = sorted({r[w][0].get("output_digest", "") for r in runs})
    return out


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    sets = {"A": [], "B": []}
    for i in range(n):
        for name in ("A", "B") if i % 2 == 0 else ("B", "A"):
            sets[name].append(run_all(0))
            print(f"set {name} run {len(sets[name])}/{n} done", file=sys.stderr, flush=True)
    traced = {name: run_all(1) for name in ("A", "B")}
    go = subprocess.run(["go", "version"], capture_output=True, text=True, check=True).stdout.strip()
    baseline = {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "go": go,
        "nproc": os.cpu_count(),
        "command": "bash bench/run.sh --workload all --seed 1",
        "runs_per_set": n,
        "end_to_end": {name: summarize(runs) for name, runs in sets.items()},
        "per_layer": {name: {w: {m: v["value"] for m, v in r[1]["metrics"].items()} for w, r in t.items()}
                      for name, t in traced.items()},
    }
    with open(os.path.join(ROOT, "bench", "baseline.json"), "w") as f:
        json.dump(baseline, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
