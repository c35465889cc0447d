"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/repeat.py --workloads gen_csv,train_step --seeds 1-10

Runs `perfbench/run.py` once per workload and seed, in order, from the
current directory (a grr source tree). For every metric it prints the
median over the runs, the quartiles as `statistics.quantiles(values, n=4)`
gives them, and the spread (q3 - q1) / median. End-to-end spreads are
compared with a third of the bound in BENCHMARK.json and flagged when wider.
Each run's metric lines, with units and sample counts, are echoed first.
The full table is written as JSON to --out. The exit code is 1 when any run
failed its output checks.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", required=True, help="comma-separated names")
    p.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None, help="write the table as JSON here")
    args = p.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    table, ok = {}, True  # ok: every run passed its output checks
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines() or ["{}"]
            try:
                result = json.loads(lines[-1])
            except ValueError:
                result = {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}"
                      f"{proc.stderr[-2000:]}", file=sys.stderr)
                ok = False
                continue
            for line in lines[:-1]:
                if " = " in line:
                    print(f"{workload} seed {seed} {line[2:]}")
            runs.append({"seed": seed, "attempted": result["attempted"],
                         "failed": result["failed"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
        if len(runs) < 2:
            continue
        rows = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(name)
            steady = bound is None or spread < bound / 3
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bound, "values": values}
            print(f"{workload:13s} {name:42s} median {med:<12.6g} spread {spread:7.4f}"
                  + (f"  bound {bound}" if bound is not None else "")
                  + ("" if steady else "  NOT STEADY"))
        table[workload] = {"seconds": seconds, "runs": runs, "metrics": rows}
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            json.dump(table, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
