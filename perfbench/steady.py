#!/usr/bin/env python3
"""Steadiness command: run one workload once per seed and print, for every
end-to-end metric, the median and quartiles over the runs and the spread
(q3 - q1) / median, next to the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py --workload keyed_flush --runs 10 [--first-seed 1]

Run it from the repository root. The quartiles are Python's
statistics.quantiles(values, n=4). Each timed metric's spread is also
given on its other clock (wall time for the CPU-timed ones, CPU time for
checkpoint_s), to show what the choice of clock buys. A bound holds a
metric steady when the spread stays below a third of it; setup_s is
reported but is held only by its median. Runs are sequential, one
process at a time.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: run_seconds of BENCHMARK.json)")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    values, others, shares = {}, {}, []
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
        lines = out.strip().splitlines()
        res = json.loads(lines[-1])
        # The table before the result gives each timed metric on both
        # clocks, "  name  cpu  wall"; keep the one the metric is not on.
        for line in lines[:-1]:
            f = line.split()
            if len(f) == 3 and f[0] in res["metrics"]:
                v, a, b = res["metrics"][f[0]]["value"], float(f[1]), float(f[2])
                others.setdefault(f[0], []).append(b if abs(a - v) <= abs(b - v) else a)
        shares.append(res["failed"] / res["attempted"])
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}", file=sys.stderr, flush=True)

    print(f"{args.workload}: {args.runs} runs of {seconds} s, seeds "
          f"{args.first_seed}..{args.first_seed + args.runs - 1}, failed share {sorted(set(shares))}")
    print(f"  {'metric':16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}"
          f" {'other clock spread':>19}")
    for name in sorted(values):
        vs = values[name]
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med
        bound = bounds.get(name, {}).get("bound", float("nan"))
        flag = "" if name == "setup_s" or spread < bound / 3 else "  > bound/3"
        other = ""
        if len(others.get(name, [])) == len(vs):
            w1, wm, w3 = statistics.quantiles(others[name], n=4)
            other = f"{(w3 - w1) / wm:19.2%}"
        print(f"  {name:16} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%} {bound:6.2f} {other}{flag}")
    print(json.dumps({"workload": args.workload, "values": values, "other_clock": others}))


if __name__ == "__main__":
    main()
