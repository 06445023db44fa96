"""Spread report: run one workload N times and show how steady each metric is.

Run from the repository root::

    python3 servebench/spread.py --workload live-updates --runs 10

Each run gets its own seed (``--first-seed``, then +1, ...). For every
metric the report prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the relative spread
``(q3 - q1) / median``, next to the metric's bound from
``BENCHMARK.json``. Each run's result line is printed as it finishes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "servebench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run failed (seed {seed}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(results: "list[dict]", bounds: dict) -> None:
    failed = [r for r in results if not r["correct"]]
    print(f"runs={len(results)} incorrect={len(failed)}")
    print(f"{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        mid = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (mid, mid, mid)
        spread = (q3 - q1) / mid if mid else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None else (" ok" if spread < bound / 3 else
                                         " within" if spread <= bound else " OVER")
        print(f"{name:34s} {mid:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}{flag}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    results = []
    for i in range(args.runs):
        results.append(run_once(args.workload, args.first_seed + i, seconds))
        print(json.dumps(results[-1]), flush=True)
    report(results, bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
