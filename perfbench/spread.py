#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads A,B] [--seeds 1-10] [--out FILE.json]

For every workload and end-to-end metric this prints the median of the
per-run values, their quartiles (``statistics.quantiles(values, n=4)``) and
the spread (Q3 - Q1) / median beside the metric's bound from BENCHMARK.json.
It also pools the per-pass run times of all runs and gives the highest
percentile with at least ten samples beyond it, and it gives the same spread
for ``unscaled_run_s``, the median pass time before the speed scaling of
speed.py (no bound; it shows what the scaling removes). Runs go one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(BENCH["run_seconds"]), "--trace", "0"],
        capture_output=True, text=True, timeout=200, check=True)
    lines = proc.stdout.splitlines()

    def floats(prefix):
        return [float(x) for line in lines if line.startswith(prefix)
                for x in line.split()[2:]]

    return json.loads(lines[-1]), floats("samples run_s "), floats("unscaled run_s ")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--out", default=None, help="also write the table as JSON here")
    args = ap.parse_args()
    table = {}
    print("| workload | metric | median | Q1 | Q3 | spread | bound | runs |")
    print("|---|---|---|---|---|---|---|---|")
    for workload in args.workloads.split(","):
        results, pooled, unscaled = [], [], []
        for seed in seeds(args.seeds):
            result, samples, raw = one_run(workload, seed)
            results.append(result)
            pooled += samples
            unscaled.append(statistics.median(raw))
        rows = table[workload] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "correct": all(r["correct"] for r in results),
            "run_s_pooled": {"n": len(pooled), "median": statistics.median(pooled)},
        }
        n = len(pooled)
        if n >= 11:
            rows["run_s_pooled"][f"p{100 * (n - 10) // n}"] = sorted(pooled)[n - 11]
        series = [(m, [r["metrics"][m["name"]]["value"] for r in results])
                  for m in BENCH["end_to_end"]]
        series.append(({"name": "unscaled_run_s", "unit": "s", "bound": None}, unscaled))
        for m, values in series:
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            rows[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                               "spread": spread, "bound": m["bound"], "values": values}
            print(f"| {workload} | {m['name']} ({m['unit']}) | {med:.4g} | {q1:.4g} | {q3:.4g} "
                  f"| {spread:.3f} | {m['bound'] or '-'} | {len(values)} |")
        print(f"<!-- {workload}: {rows['failed']}/{rows['attempted']} failed; pooled run_s "
              f"{rows['run_s_pooled']} -->", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main()
