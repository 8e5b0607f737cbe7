"""Steadiness report: rerun workloads over several seeds and show each metric's spread.

    python3 perfbench/steadiness.py --workloads long-chain --seeds 1-5
    python3 perfbench/steadiness.py --seeds 1-10

Runs ``run.py --trace 0`` once per (workload, seed), one child at a time,
with the ``run_seconds`` of BENCHMARK.json. For every end-to-end metric it
prints the median, the quartiles (``statistics.quantiles(n=4)``), the
spread (q3 - q1) / median and that spread as a share of the metric's bound.
Bounds are set from this report: every spread but ``setup_s`` must stay
within its bound, and should stay below a third of it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload, seed, seconds) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values) -> dict:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()

    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            doc = run_once(workload, seed, config["run_seconds"])
            runs.append(doc)
            print(f"# {workload} seed {seed}: correct={doc['correct']} "
                  f"failed={doc['failed']}/{doc['attempted']}", file=sys.stderr, flush=True)
        print(f"\n{workload} ({len(runs)} seeds, {config['run_seconds']} s each)")
        print(f"{'metric':44s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'/bound':>7s}")
        for name in runs[0]["metrics"]:
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            share = f"{stats['spread'] / bounds[name]:7.2f}"
            print(f"{name:44s} {stats['median']:12.6g} {stats['q1']:12.6g} {stats['q3']:12.6g} "
                  f"{stats['spread']:8.4f} {share}")
        print(f"{'failed ops':44s} {sum(r['failed'] for r in runs)} of "
              f"{sum(r['attempted'] for r in runs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
