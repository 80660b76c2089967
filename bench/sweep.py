"""Run bench/run.py over workloads and seeds and summarise each metric.

    python3 bench/sweep.py                      # every workload, seed 1
    python3 bench/sweep.py --seeds 1-10 --out sweep.json
    python3 bench/sweep.py --workloads search --seeds 1,2 --trace 1

Runs are made one after another, from the current directory, with
BENCHMARK.json's run_seconds unless --seconds is given.  For each workload
and metric it prints the median, the quartiles, and their distance as a
share of the median (the spread); with --trace 0 it also prints the
metric's bound and whether the spread is below a third of it.  The exit
status is 1 when a run fails or reports a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every value and summary here as JSON")
    ns = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report, ok = {}, True
    for workload in ns.workloads.split(","):
        values, units = {}, {}
        for seed in parse_seeds(ns.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(ns.seconds), "--trace", str(ns.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= result["correct"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} wall={wall:.1f}s", flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        summary = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            spread = (q3 - q1) / med if med else 0.0
            summary[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                             "spread": spread, "values": vals}
            line = f"  {workload:10s} {name:28s} {med:12.6g} {units[name]:6s} spread {spread:.4f}"
            if name in bounds and not ns.trace:
                steady = spread < bounds[name] / 3
                line += f"  bound {bounds[name]}  {'steady' if steady else 'NOT STEADY'}"
            print(line, flush=True)
        report[workload] = summary
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            json.dump({"seconds": ns.seconds, "trace": ns.trace, "seeds": parse_seeds(ns.seeds),
                       "workloads": report}, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
