#!/usr/bin/env python3
"""Run one workload of the benchmark over several seeds and report, per
end-to-end metric, the median and the quartile spread (IQR / median).

Run from the repository root; the benchmark command comes from
BENCHMARK.json.  Example:

    python3 perfbench/spread.py --workload plan_epol --seeds 1-10 --seconds 20
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--json", help="also write the values and spreads here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or str(bench["run_seconds"])
    lo, hi = (int(x) for x in args.seeds.split("-"))
    values = {}
    for seed in range(lo, hi + 1):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", seconds, "--trace", args.trace]
        run = subprocess.run(cmd, capture_output=True, text=True)
        result = json.loads(run.stdout.strip().splitlines()[-1])
        if run.returncode != 0 or not result["correct"]:
            sys.exit(f"seed {seed}: wrong output or exit code {run.returncode}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    report = {}
    print(f"{args.workload}: {hi - lo + 1} runs of {seconds} s")
    for name, v in values.items():
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4)
        spread = (q[2] - q[0]) / med if med else float("nan")
        report[name] = {"median": med, "iqr_over_median": spread, "values": v}
        print(f"  {name:24s} median {med:14.6g}  spread {spread:7.4f}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seeds": args.seeds,
                       "seconds": seconds, "metrics": report}, f, indent=1)


if __name__ == "__main__":
    main()
