#!/usr/bin/env python3
"""In-process paired timing of two source trees of tinyring.

    python3 tools/pairs.py PARENT CHANGE [--workload W ...] [--pairs N] [--seed S] [--json FILE]

PARENT and CHANGE are source trees that each hold ``src/tinyring``: a
``git archive`` of a commit, or a working tree. Each tree's package is
copied into a temporary directory under its own name (``tr_parent``,
``tr_change``) and imported, which works because the package uses only
relative imports. The parent is copied a second time (``tr_aa``), so every
run also times the parent against itself. Two copies of one tree differ
only in code addresses and import order, so the A/A interval shows how far
those alone move a ratio. Read the A/B ratio only when the A/A interval
holds 1.0.

A round times one pass of the workload on each of the three copies, in an
order shuffled per round. A pass runs ``gc.collect()``, builds its inputs
and pipeline from its own copy (timed as the set-up), runs ``gc.collect()``
again, times the workload's timed part, and then checks its outputs:
against the oracle (``RefPipeline``) for the forwarding shapes, and against
the parent's for the sweep. Both times come from ``time.perf_counter``. Any
mismatch stops the run. The result for each workload is the median over
rounds of the per-round time ratio, change/parent and A/A (second parent
copy/parent), each with a bootstrap 95% confidence interval over rounds,
for the timed part and for the set-up alike. A ratio below 1 means the
change is faster. ``sweep_knee`` builds its trace inside ``run_sweep``, in
its timed part, so its set-up is empty and its set-up ratios are noise.

The shapes are those of ``perfbench/workloads.py``, scaled down so that one
pass takes tens of milliseconds and hundreds of rounds fit in a minute:

- ``burst_64b``: 5000 64-byte frames injected up front, ring 1024, one
  output, identity, ``Agent.run`` with device budget 2;
- ``imix_q4``: 1200 IMIX frames (64/576/1500 bytes at 7:4:1), ring 64,
  four outputs, ``policer(100)``, flow-controlled ``forward_trace`` with
  device budget 5;
- ``sweep_knee``: ``run_sweep("identity", 256, 1, 100)`` over a
  5000-frame trace, the benchmark's own size.

Only the standard library is used. Times are host seconds, which drift
between runs on a shared host; only a ratio taken within one process
means anything, and the end-to-end figures stay those of perfbench.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import json
import os
import random
import shutil
import statistics
import sys
import tempfile
import time

BURST_PACKETS = 5000
IMIX = ((64, 7), (576, 4), (1500, 1))
IMIX_PACKETS = 1200
SWEEP_TRACE = 5000
RESAMPLES = 2000


class Mismatch(Exception):
    """A pass's outputs are not what they must be."""


def burst_64b(tr, seed):
    frames = tr.gen_traffic(BURST_PACKETS, 64, seed)
    _, nic, agent = tr.build_pipeline(1024, 1)
    for f in frames:
        nic.inject_rx(f)
    proc = tr.identity()

    def timed():
        agent.run(proc, max_packets=BURST_PACKETS, device_budget=2)

    def check():
        out = [f.payload for f in nic.drain_tx(0)]
        if out != [f.payload for f in frames]:
            raise Mismatch("burst_64b: output 0 differs from the injected frames")
        return len(out)

    return timed, check


def imix_q4(tr, seed):
    period = sum(w for _, w in IMIX)
    sizes = [s for s, w in IMIX for _ in range(w)] * (IMIX_PACKETS // period)
    random.Random(seed).shuffle(sizes)
    pools = {s: iter(tr.gen_traffic(IMIX_PACKETS // period * w, s, seed * 4096 + s))
             for s, w in IMIX}
    frames = [next(pools[s]) for s in sizes]
    _, nic, agent = tr.build_pipeline(64, 4)
    proc = tr.policer(100)

    def timed():
        tr.forward_trace(agent, frames, proc, device_budget=5)

    def check():
        out = [[f.payload for f in nic.drain_tx(q)] for q in range(4)]
        if out != tr.RefPipeline(4, tr.policer(100)).process_trace(frames):
            raise Mismatch("imix_q4: outputs differ from the oracle's")
        return [len(o) for o in out]

    return timed, check


def sweep_knee(tr, seed):
    rows = []

    def timed():
        rows.extend(tr.run_sweep("identity", 256, 1, 100, trace_length=SWEEP_TRACE, seed=seed))

    def check():
        return [dataclasses.astuple(r) for r in rows]

    return timed, check


SHAPES = {f.__name__: f for f in (burst_64b, imix_q4, sweep_knee)}


def load_copies(trees: dict[str, str], tmp: str) -> dict:
    """Import each tree's src/tinyring from tmp under the name tr_<arm>."""
    sys.path.insert(0, tmp)
    mods = {}
    for arm, tree in trees.items():
        pkg = os.path.join(tree, "src", "tinyring")
        if not os.path.isfile(os.path.join(pkg, "__init__.py")):
            raise SystemExit(f"pairs: no src/tinyring package in {tree}")
        shutil.copytree(pkg, os.path.join(tmp, f"tr_{arm}"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        mods[arm] = importlib.import_module(f"tr_{arm}")
    return mods


def run_pass(tr, shape, seed):
    """Collect, time the build, collect, time the timed part, check;
    returns (set-up seconds, timed seconds, outcome)."""
    gc.collect()
    t0 = time.perf_counter()
    timed, check = shape(tr, seed)
    setup = time.perf_counter() - t0
    gc.collect()
    t0 = time.perf_counter()
    timed()
    elapsed = time.perf_counter() - t0
    return setup, elapsed, check()


def median_ci(ratios: list[float], rng: random.Random) -> tuple[float, float, float]:
    """The median ratio and a bootstrap 95% interval of it."""
    boots = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                   for _ in range(RESAMPLES))
    return (statistics.median(ratios), boots[int(0.025 * RESAMPLES)],
            boots[int(0.975 * RESAMPLES) - 1])


def measure(mods: dict, name: str, pairs: int, seed: int, rng: random.Random) -> dict:
    shape = SHAPES[name]
    for tr in mods.values():  # one untimed pass each: imports, caches, lazy set-up
        run_pass(tr, shape, seed)
    setups: dict[str, list[float]] = {arm: [] for arm in mods}
    times: dict[str, list[float]] = {arm: [] for arm in mods}
    for i in range(pairs):
        order = list(mods)
        rng.shuffle(order)
        outcomes = {}
        for arm in order:
            setup, elapsed, outcomes[arm] = run_pass(mods[arm], shape, seed)
            setups[arm].append(setup)
            times[arm].append(elapsed)
        if any(outcomes[arm] != outcomes["parent"] for arm in mods):
            raise Mismatch(f"{name} round {i}: outputs differ between trees")
    result = {"workload": name, "pairs": pairs, "seed": seed,
              "parent_median_s": statistics.median(times["parent"]),
              "parent_setup_median_s": statistics.median(setups["parent"])}
    for prefix, samples in (("", times), ("setup_", setups)):
        base = samples["parent"]
        for arm, key in (("change", "change_over_parent"), ("aa", "aa_over_parent")):
            med, lo, hi = median_ci([t / b for t, b in zip(samples[arm], base)], rng)
            result[prefix + key] = {"median": med, "ci95": [lo, hi]}
    return result


def ratios(r: dict, prefix: str) -> str:
    """One result's change/parent and A/A ratios, with their intervals."""
    ab, aa = r[prefix + "change_over_parent"], r[prefix + "aa_over_parent"]
    return (f"change/parent {ab['median']:.4f} [{ab['ci95'][0]:.4f}, {ab['ci95'][1]:.4f}]  "
            f"A/A {aa['median']:.4f} [{aa['ci95'][0]:.4f}, {aa['ci95'][1]:.4f}]")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="source tree holding src/tinyring (the base)")
    ap.add_argument("change", help="source tree holding src/tinyring (the candidate)")
    ap.add_argument("--workload", action="append", choices=sorted(SHAPES),
                    help="repeatable; default: all three")
    ap.add_argument("--pairs", type=int, default=100, help="rounds per workload")
    ap.add_argument("--seed", type=int, default=0, help="traffic seed")
    ap.add_argument("--json", metavar="FILE", help="also write the results as JSON")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    rng = random.Random(args.seed)
    results = []
    with tempfile.TemporaryDirectory(prefix="tinyring-pairs-") as tmp:
        mods = load_copies({"parent": args.parent, "aa": args.parent,
                            "change": args.change}, tmp)
        for name in args.workload or sorted(SHAPES):
            r = measure(mods, name, args.pairs, args.seed, rng)
            results.append(r)
            print(f"{name:<11} timed  {ratios(r, '')}  {r['pairs']} pairs, "
                  f"parent pass {1e3 * r['parent_median_s']:.1f} ms\n"
                  f"{'':<11} set-up {ratios(r, 'setup_')}  "
                  f"parent set-up {1e3 * r['parent_setup_median_s']:.1f} ms", flush=True)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
