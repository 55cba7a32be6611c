"""Steadiness check: run each workload k times, each in a fresh process.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --runs 10 [--first-seed 1]

It runs every workload in ``BENCHMARK.json`` for its ``run_seconds``, the
run length the bounds were set for.  Run ``i`` of a workload uses seed
``first_seed + i``.  For every end-to-end metric it prints the median, the
first and third quartiles
(``statistics.quantiles(values, n=4)``), the spread ``(q3 - q1) / median``
and that spread as a share of the metric's bound in ``BENCHMARK.json``,
plus the share of failed operations.  Runs execute one after another, never
in parallel, so they do not compete for the cores they measure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)

    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in (w["name"] for w in bench["workloads"]):
        results = [run_once(workload, args.first_seed + i, seconds) for i in range(args.runs)]
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: {args.runs} runs of {seconds}s, failed share {sorted(shares)}, "
              f"correct {all(r['correct'] for r in results)}")
        print(f"  {'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'/bound':>8}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {name:<16}{med:>12.4g}{q1:>12.4g}{q3:>12.4g}"
                  f"{100 * spread:>8.1f}%{spread / bound:>8.2f}")
        print(f"  values: " + json.dumps(
            {name: [round(r["metrics"][name]["value"], 4) for r in results] for name in bounds}))
    print(f"largest spread / bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
