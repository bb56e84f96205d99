#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread across runs.

    python3 perfbench/spread.py --workload imix_q4 --seeds 0 1 2 3 4
    python3 perfbench/spread.py --workload imix_q4 --seeds 0 0 0 0 0 --save a.json
    python3 perfbench/spread.py --workload imix_q4 --seeds 1 1 1 1 1 --baseline a.json

Runs are sequential, one process at a time. For every end-to-end metric it
prints the median, the quartiles (``statistics.quantiles(values, n=4)``)
and their distance as a share of the median, next to the metric's bound in
BENCHMARK.json. With ``--baseline`` it also prints how far the median moved
from a saved set of runs, in the direction that is worse, against the same
bound. Run from the root of the checkout.
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


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--save", help="write the raw results to this JSON file")
    p.add_argument("--baseline", help="compare medians with results saved by --save")
    args = p.parse_args()

    results = []
    for seed in args.seeds:
        r = run_once(args.workload, seed, args.seconds, 0)
        results.append(r)
        shown = " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items())
        print(f"seed {seed}: correct={r['correct']} failed={r['failed']}/{r['attempted']} {shown}",
              flush=True)
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(results, fh)
    base = None
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as fh:
            base = json.load(fh)

    ok = all(r["correct"] for r in results)
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / med
        line = (f"{name:14s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                f"spread {share:.4f} bound {bound} (third {bound / 3:.4f})")
        if name != "setup_s" and share > bound:
            ok = False
        if base is not None:
            before = statistics.median(r["metrics"][name]["value"] for r in base)
            worse = (before - med) / before if m["better"] == "higher" else (med - before) / before
            line += f" | baseline median {before:.6g}, worse by {worse:+.4f}"
            if worse > bound:
                ok = False
        print(line)
    print("within bounds" if ok else "OUTSIDE BOUNDS")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
