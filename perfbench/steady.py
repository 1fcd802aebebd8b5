#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
median and spread (interquartile range over median, as
statistics.quantiles(values, n=4) gives the quartiles).

    python3 perfbench/steady.py --workloads check_dense,wide_run --seeds 1-10

Run it from the root of a source checkout.  Each run is a separate
process.  --json FILE also writes every run's result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(os.path.dirname(here), "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    ap.add_argument("--json")
    args = ap.parse_args()
    kind = "per_layer" if args.trace == "1" else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[kind]}
    runs = []
    for wl in args.workloads.split(","):
        values = {}
        for seed in seeds_of(args.seeds):
            out = subprocess.run(
                [sys.executable, os.path.join(here, "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", args.trace],
                stdout=subprocess.PIPE, text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            runs.append({"workload": wl, "seed": seed, "result": result})
            if not result["correct"] or result["failed"]:
                print("%s seed %d: NOT CORRECT" % (wl, seed))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if spread < bound / 3 else (
                    "within bound" if spread <= bound else "TOO WIDE")
            print("%-12s %-16s median %12.5g  spread %6.2f%%  %s"
                  % (wl, name, med, 100 * spread, flag))
        sys.stdout.flush()
    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f, indent=1)


if __name__ == "__main__":
    main()
