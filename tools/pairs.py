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
holds 1.0; a line whose A/A interval misses it is marked VOID.

The workloads are perfbench's own, from ``perfbench/workloads.py`` in the
checkout that holds this script, loaded once per copy (``workloads_parent``
and so on) against that copy. Two are scaled down so that one pass takes
tens of milliseconds: ``burst_64b`` runs 5000 frames and ``imix_q4`` 1200.
``sweep_knee`` runs at the benchmark's own size, and writes its CSV to the
temporary directory.

A round times one pass of the workload on each of the three copies, in an
order shuffled per round. A pass runs ``gc.collect()``, times the
workload's ``setup``, runs ``gc.collect()`` again, times its ``timed``
part, and then collects its outputs and checks them with the workload's
own ``check``. Both times come from ``time.perf_counter``. The run stops
when a check fails, or when a copy's outputs differ from the parent's in
any field of any emitted frame (payload, inject time, drain time, order)
or in any sweep row; its message names the arm, the output and the index
of the first frame or row that differs, with both values. The result for
each workload is the median over rounds of the per-round time ratio,
change/parent and A/A (second parent copy/parent), each with a bootstrap
95% confidence interval over rounds, for the timed part and for the
set-up alike. A ratio below 1 means the change is faster. Each result
also records the workload's perfbench ``params`` (frames per pass, ring,
outputs and so on), the host (Python version and implementation,
platform, CPU count), each arm's ``src_sha256`` (sha256 over
``src/tinyring/*.py`` in name order, each file's repo-relative path, a
NUL byte and its bytes; first 16 hex digits), each arm's ``commit``
(``git rev-parse HEAD`` in the tree, null unless the tree is the top of a
git checkout) and ``dirty`` (whether ``git status`` shows changes under
``src/`` there, null with the commit), each arm's raw set-up and
timed seconds per round, in round order, and their quartiles
(``statistics.quantiles`` with ``n=4``).

Only the standard library is used. Times are host seconds, which drift
between runs on a shared host; only a ratio taken within one process
means anything, and the end-to-end figures stay those of perfbench.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib.util
import itertools
import json
import hashlib
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

WORKLOADS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench", "workloads.py")
BURST_PACKETS = 5000
IMIX_PACKETS = 1200
RESAMPLES = 2000

# each workload, built from one copy's workloads module
SHAPES = {"burst_64b": lambda wl: wl.Burst64(BURST_PACKETS),
          "imix_q4": lambda wl: wl.ImixQ4(IMIX_PACKETS),
          "sweep_knee": lambda wl: wl.SweepKnee()}


class Mismatch(Exception):
    """A pass's outputs are not what they must be."""


def load(name: str, path: str):
    """Import the file at path as module name (a package if it is an
    __init__.py). The module is registered before it runs, because
    @dataclass looks its module up there."""
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return mod


def src_sha256(pkg: str) -> str:
    """The package's source hash by the method the module docstring gives."""
    h = hashlib.sha256()
    for name in sorted(f for f in os.listdir(pkg) if f.endswith(".py")):
        with open(os.path.join(pkg, name), "rb") as fh:
            h.update(f"src/tinyring/{name}".encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def tree_commit(tree: str) -> tuple[str | None, bool | None]:
    """The commit checked out at tree and whether src/ has uncommitted
    changes there (untracked files included); (None, None) unless tree is
    the top of a git checkout with a commit, so that an archive unpacked
    inside some other checkout does not report that checkout's commit."""
    def git(*args: str) -> list[str]:
        return subprocess.run(["git", "-C", tree, *args], capture_output=True, text=True,
                              check=True).stdout.splitlines()
    try:
        top, head = git("rev-parse", "--show-toplevel", "HEAD")
        if os.path.realpath(top) != os.path.realpath(tree):
            return None, None
        return head, bool(git("status", "--porcelain", "--", "src"))
    except (OSError, subprocess.CalledProcessError):
        return None, None


def load_copies(trees: dict[str, str], tmp: str) -> dict:
    """Copy each tree's src/tinyring into tmp as tr_<arm> and import it, then
    load perfbench's workloads against it as workloads_<arm>; returns the
    workloads modules by arm, each with the tree's src_sha256, commit and
    dirty bound.

    workloads.py binds ``tinyring`` at import, so that name points at the
    arm's copy only while the module runs, and its previous binding (or its
    absence) is restored.
    """
    mods = {}
    for arm, tree in trees.items():
        pkg = os.path.join(tree, "src", "tinyring")
        if not os.path.isfile(os.path.join(pkg, "__init__.py")):
            raise SystemExit(f"pairs: no src/tinyring package in {tree}")
        name = f"tr_{arm}"
        copy = os.path.join(tmp, name)
        shutil.copytree(pkg, copy, ignore=shutil.ignore_patterns("__pycache__"))
        for stale in [m for m in sys.modules if m.startswith(name + ".")]:
            del sys.modules[stale]  # submodules of a copy loaded before, from another tree
        tr = load(name, os.path.join(copy, "__init__.py"))
        bound = sys.modules.get("tinyring")
        sys.modules["tinyring"] = tr
        try:
            wl = load(f"workloads_{arm}", WORKLOADS)
        finally:
            if bound is None:
                sys.modules.pop("tinyring", None)
            else:
                sys.modules["tinyring"] = bound
        wl.OUT_DIR = tmp  # the sweep's CSV and the directory it makes, out of perfbench/
        wl.src_sha256 = src_sha256(pkg)
        wl.commit, wl.dirty = tree_commit(tree)
        mods[arm] = wl
    return mods


def run_pass(workload, seed: int) -> tuple[float, float, list]:
    """Collect, time the set-up, collect, time the timed part, then collect
    the outputs and check them; returns (set-up seconds, timed seconds, a
    fingerprint of the outputs: every field of every emitted frame, or the
    sweep's rows)."""
    gc.collect()
    t0 = time.perf_counter()
    state = workload.setup(seed)
    setup = time.perf_counter() - t0
    gc.collect()
    t0 = time.perf_counter()
    workload.timed(state)
    elapsed = time.perf_counter() - t0
    outputs = workload.collect(state)
    attempted, failed = workload.check(state, outputs)
    if failed:
        raise Mismatch(f"{workload.name}: {failed} of {attempted} operations failed its check")
    return setup, elapsed, [[x if type(x) is tuple else dataclasses.astuple(x) for x in out]
                            for out in outputs]


def first_difference(parent: list, other: list) -> tuple | None:
    """The first (output, index of the frame or sweep row, parent's value,
    other's value) at which two fingerprints part, a value missing from
    one of them read as None; None when they agree."""
    for q, (want, got) in enumerate(itertools.zip_longest(parent, other, fillvalue=[])):
        for j, (x, y) in enumerate(itertools.zip_longest(want, got)):
            if x != y:
                return q, j, x, y
    return None


def median_ci(ratios: list[float], rng: random.Random) -> tuple[float, float, float]:
    """The median ratio and a bootstrap 95% interval of it."""
    boots = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                   for _ in range(RESAMPLES))
    return (statistics.median(ratios), boots[int(0.025 * RESAMPLES)],
            boots[int(0.975 * RESAMPLES) - 1])


def measure(mods: dict, name: str, pairs: int, seed: int, rng: random.Random) -> dict:
    workloads = {arm: SHAPES[name](wl) for arm, wl in mods.items()}
    for workload in workloads.values():  # one untimed pass each: imports, caches, lazy set-up
        run_pass(workload, seed)
    setups: dict[str, list[float]] = {arm: [] for arm in mods}
    times: dict[str, list[float]] = {arm: [] for arm in mods}
    for i in range(pairs):
        order = list(mods)
        rng.shuffle(order)
        outcomes = {}
        for arm in order:
            setup, elapsed, outcomes[arm] = run_pass(workloads[arm], seed)
            setups[arm].append(setup)
            times[arm].append(elapsed)
        for arm in mods:
            diff = first_difference(outcomes["parent"], outcomes[arm])
            if diff:
                q, j, want, got = diff
                raise Mismatch(f"{name} round {i}: outputs differ between trees: {arm} "
                               f"output {q} index {j} is {got!r}, parent's is {want!r}")
    result = {"workload": name, "pairs": pairs, "seed": seed,
              "params": workloads["parent"].params,
              "python": platform.python_version(),
              "implementation": platform.python_implementation(),
              "platform": platform.platform(), "nproc": os.cpu_count(),
              "src_sha256": {arm: wl.src_sha256 for arm, wl in mods.items()},
              "commit": {arm: wl.commit for arm, wl in mods.items()},
              "dirty": {arm: wl.dirty for arm, wl in mods.items()},
              "raw": {arm: {"setup_s": setups[arm], "timed_s": times[arm]} for arm in mods},
              "quartiles": {arm: {"setup_s": statistics.quantiles(setups[arm], n=4),
                                  "timed_s": statistics.quantiles(times[arm], n=4)}
                            for arm in mods},
              "parent_median_s": statistics.median(times["parent"]),
              "parent_setup_median_s": statistics.median(setups["parent"])}
    for prefix, samples in (("", times), ("setup_", setups)):
        base = samples["parent"]
        for arm, key in (("change", "change_over_parent"), ("aa", "aa_over_parent")):
            med, lo, hi = median_ci([t / b for t, b in zip(samples[arm], base)], rng)
            result[prefix + key] = {"median": med, "ci95": [lo, hi]}
        lo, hi = result[prefix + "aa_over_parent"]["ci95"]
        result[prefix + "aa_holds"] = lo <= 1.0 <= hi
    return result


def ratios(r: dict, prefix: str) -> str:
    """One result's change/parent and A/A ratios, with their intervals,
    marked VOID when the A/A interval misses 1.0."""
    ab, aa = r[prefix + "change_over_parent"], r[prefix + "aa_over_parent"]
    return (f"change/parent {ab['median']:.4f} [{ab['ci95'][0]:.4f}, {ab['ci95'][1]:.4f}]  "
            f"A/A {aa['median']:.4f} [{aa['ci95'][0]:.4f}, {aa['ci95'][1]:.4f}]"
            + ("" if r[prefix + "aa_holds"] else "  VOID (A/A misses 1.0)"))


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
