"""Run every workload on several seeds and write a BENCH_*.json summary.

    python3 perfbench/baseline.py --out BENCH_<label>.json [--seeds 1,2,...]
                                  [--workloads a,b] [--seconds S]

Each workload runs once per seed untraced (end-to-end metrics) and once
traced on the first seed (per-layer metrics).  For every metric the file
holds the values, their median and their quartile spread (Q3 - Q1 over
the median, from statistics.quantiles(values, n=4)), with the
environment of the first run.  Runs one process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import workloads as wl

RUN = os.path.join(wl.BENCH_DIR, "run.py")


def run_once(workload: str, seed: int, seconds: int, trace: int):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=wl.REPO_ROOT)
    lines = out.stdout.strip().splitlines()
    env = json.loads(next(x for x in lines if x.startswith("env "))[4:])
    return json.loads(lines[-1]), env


def summarize(results) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        row = {"unit": results[0]["metrics"][name]["unit"], "median": med, "values": values}
        if len(values) >= 2:
            q = statistics.quantiles(values, n=4)
            row["spread"] = (q[2] - q[0]) / med if med else None
        out[name] = row
    return out


def main() -> int:
    with open(os.path.join(wl.REPO_ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    summary = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for name in args.workloads.split(","):
        results, env = [], None
        for seed in seeds:
            res, env = run_once(name, seed, args.seconds, 0)
            results.append(res)
            print(f"{name} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']}", file=sys.stderr, flush=True)
        traced, _ = run_once(name, seeds[0], args.seconds, 1)
        summary["env"] = env
        summary["workloads"][name] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": summarize(results),
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "per_layer_correct": traced["correct"],
        }
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
