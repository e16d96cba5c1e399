"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--workloads a,b]

Runs the benchmark command of BENCHMARK.json once per (seed, workload),
the workloads alternating and their order rotating from seed to seed, so
that host drift lands on all of them alike.  For every workload and
metric it prints the median, the quartile spread (q3 - q1) / median as
``statistics.quantiles(values, n=4)`` gives the quartiles, and the
metric's bound.  Results go to perfbench/out/spread-<first-seed>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()
    names = args.workloads.split(",")
    values = {n: {} for n in names}
    for i in range(args.runs):
        seed = args.first_seed + i
        for n in names[i % len(names):] + names[:i % len(names)]:
            cmd = bench["command"] + ["--workload", n, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{n} seed {seed} exited {proc.returncode}")
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
            for metric, m in doc["metrics"].items():
                values[n].setdefault(metric, []).append(m["value"])
            print(f"seed {seed} {n}: " + ", ".join(
                f"{k}={m['value']:.5g}" for k, m in doc["metrics"].items()), flush=True)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for n in names:
        print(f"\n{n}")
        for metric, vals in values[n].items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            summary.setdefault(n, {})[metric] = {"values": vals, "median": med, "spread": spread,
                                                  "bound": bounds[metric]}
            flag = "" if spread < bounds[metric] / 3 else "  <-- above a third of the bound"
            print(f"  {metric:14s} median {med:12.6g}  spread {spread:6.3f}  "
                  f"bound {bounds[metric]}{flag}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"spread-{args.first_seed}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)


if __name__ == "__main__":
    main()
