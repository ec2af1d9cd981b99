"""Run workloads repeatedly and compare each metric's spread to its bound.

Usage (from the repository root)::

    python3 wallbench/repeat.py --runs 10 [--workload NAME ...] [--seconds S] [--first-seed N]

Each run is one ``run.py`` process with its own seed (``first-seed``,
``first-seed + 1``, ...), one after another.  For every end-to-end metric
the report gives the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread: the distance between the quartiles as a share of the
median, next to the metric's bound from ``BENCHMARK.json``.  It also
prints the share of failed operations per run, which must not vary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(workload: str, results: list[dict], spec: dict) -> bool:
    """Print the spread table; True when every spread is within its
    bound, every run is correct and the failed share never varies."""
    ok = True
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"{workload}: {len(results)} runs, all correct: "
          f"{all(r['correct'] for r in results)}, failed share(s): "
          f"{', '.join(f'{s:.6f}' for s in shares)}")
    print(f"  {'metric':26s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, mid, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / mid
        flag = ""
        if spread > metric["bound"]:
            flag, ok = "  OVER BOUND", False
        elif spread > metric["bound"] / 3:
            flag = "  over a third of the bound"
        print(f"  {metric['name']:26s} {mid:12.4f} {q1:12.4f} {q3:12.4f} "
              f"{spread:8.1%} {metric['bound']:6.0%}{flag}")
    return ok and len(shares) == 1 and all(r["correct"] for r in results)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    ok = True
    for workload in args.workload or names:
        results = []
        for k in range(args.runs):
            results.append(run_once(workload, args.first_seed + k, args.seconds))
            print(f"  {workload} seed {args.first_seed + k}: " + ", ".join(
                f"{n}={m['value']:.4g}" for n, m in results[-1]["metrics"].items()),
                flush=True)
        ok = report(workload, results, spec) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
