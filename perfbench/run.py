#!/usr/bin/env python3
"""tinyring's host-time benchmark.

    python3 perfbench/run.py --workload burst_64b --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout: tinyring is imported from ``src/``
next to this directory, never from an installed copy, and the run fails
without printing a result if ``src/`` is missing.

With ``--trace 0`` the run repeats whole passes (set-up, timed work, output
check) until ``--seconds`` is spent and reports the medians of the
end-to-end metrics. With ``--trace 1`` it times one untraced pass, then
repeats traced passes and reports per-layer metrics and the tracing
overhead; no end-to-end figure comes from a traced pass.

Between passes it runs the calibration kernel of ``calibrate.py``; each
pass's times are divided by the host's slow-down factor measured on either
side of it, so they are in reference seconds. Host seconds are kept in the
metadata.

Every pass's output is checked against the oracle. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the run
metadata (``# meta``) and a readable summary.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time

import calibrate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MIN_PASSES = 3
CAL_SHARE = 0.25  # calibration time per pass, as a share of the pass


def import_tinyring():
    """Import tinyring from this checkout's sources, or exit without a result."""
    sys.path.insert(0, SRC)
    try:
        import tinyring
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import tinyring from {SRC}: {exc}")
    if not os.path.abspath(tinyring.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: tinyring was imported from {tinyring.__file__}, not {SRC}")
    return tinyring


def source_identity() -> dict:
    """The commit when the checkout is a git tree, and always a digest of src/."""
    commit = "unknown"
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
        commit = head
    except OSError:
        pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "tinyring")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16]}


def spread(samples: list[float]) -> dict:
    """Median, quartiles and extremes of one metric's per-pass samples."""
    q1, med, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {"n": len(samples), "min": min(samples), "q1": q1, "median": med, "q3": q3,
            "max": max(samples), "iqr_over_median": (q3 - q1) / med if med else 0.0}


def one_pass(wl, seed: int, tracer=None) -> dict:
    """Set up (``wl.setup_reps`` times), run and check one pass.

    Only the last set-up feeds the timed part. The check always runs
    untraced.
    """
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        setup_s = []
        for _ in range(wl.setup_reps):
            t0 = time.perf_counter()
            fresh = wl.setup(seed)
            setup_s.append(time.perf_counter() - t0)
            state = fresh  # frees the previous set-up outside the timing
        t1 = time.perf_counter()
        wl.timed(state)
        timed_s = time.perf_counter() - t1
        outputs = wl.collect(state)
    finally:
        if tracer is not None:
            tracer.uninstall()
    attempted, failed = wl.check(state, outputs)
    return {"setup_s": setup_s, "timed_s": timed_s, "attempted": attempted, "failed": failed}


def calibrate_for(budget: float) -> list[float]:
    """Kernel runs totalling at least ``budget`` host seconds (two at least)."""
    gc.collect()
    samples = [calibrate.measure(), calibrate.measure()]
    while sum(samples) < budget:
        samples.append(calibrate.measure())
    return samples


def repeat(wl, seed: int, seconds: float, min_passes: int, tracer=None) -> list[dict]:
    """Whole passes between calibration runs, until the budget is spent.

    Each pass records ``slowdown``: the host's slow-down factor measured by
    the calibration runs on either side of it (see calibrate.py).
    """
    start = time.perf_counter()
    passes: list[dict] = []
    before = calibrate_for(0.0)
    while True:
        t = time.perf_counter()
        one = one_pass(wl, seed, tracer)
        after = calibrate_for((time.perf_counter() - t) * CAL_SHARE)
        one["slowdown"] = statistics.fmean(before + after) / calibrate.REFERENCE_S
        passes.append(one)
        before = after
        last = time.perf_counter() - t
        if len(passes) >= min_passes and time.perf_counter() - start + last > seconds:
            return passes


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    start = time.perf_counter()

    tr = import_tinyring()
    from workloads import OUT_DIR, WORKLOADS  # imports tinyring from SRC
    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]()

    meta = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "params": wl.params,
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "tinyring": tr.__version__, **source_identity()}

    if args.trace:
        from tracer import Tracer
        base = repeat(wl, args.seed, 0.0, 1)[0]
        tracer = Tracer()
        traced = repeat(wl, args.seed, args.seconds - (time.perf_counter() - start), 1, tracer)
        slowdown = statistics.fmean(x["slowdown"] for x in traced)
        metrics = tracer.layer_metrics(len(traced), slowdown)
        traced_s = statistics.median(x["timed_s"] / x["slowdown"] for x in traced)
        untraced_s = base["timed_s"] / base["slowdown"]
        metrics["trace.overhead_x"] = (traced_s / untraced_s, "ratio")
        os.makedirs(OUT_DIR, exist_ok=True)
        span_file = os.path.join(OUT_DIR, f"spans-{wl.name}-seed{args.seed}.tsv")
        tracer.write_spans(span_file)
        passes = [base] + traced
        meta.update(traced_passes=len(traced), slowdown=slowdown,
                    untraced_timed_s=base["timed_s"],
                    traced_timed_s=[x["timed_s"] for x in traced],
                    spans_logged=len(tracer.spans), span_file=os.path.relpath(span_file, ROOT))
    else:
        passes = repeat(wl, args.seed, args.seconds, MIN_PASSES)
        rates = [wl.work() / x["timed_s"] * x["slowdown"] for x in passes]
        setups = [t / x["slowdown"] for x in passes for t in x["setup_s"]]
        metrics = {"pkts_per_s": (statistics.median(rates), "1/s"),
                   "setup_s": (statistics.median(setups), "s"),
                   "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                    "MiB")}
        meta.update(passes=len(passes), work_per_pass=wl.work(),
                    samples={"pkts_per_s": spread(rates), "setup_s": spread(setups),
                             "slowdown": spread([x["slowdown"] for x in passes]),
                             "host_timed_s": spread([x["timed_s"] for x in passes]),
                             "host_setup_s": spread([t for x in passes for t in x["setup_s"]])})

    attempted = sum(x["attempted"] for x in passes)
    failed = sum(x["failed"] for x in passes)
    meta["failed_frac"] = failed / attempted
    print("# meta " + json.dumps(meta, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{wl.name}\t{name}\t{value:.6g}\t{unit}")
    print(f"{wl.name}\tfailed_frac\t{failed / attempted:.6g}\tratio\t({failed}/{attempted})")
    if wl.name == "sweep_knee" and not args.trace:
        sweep_s = statistics.median(x["timed_s"] / x["slowdown"] for x in passes)
        print(f"{wl.name}\tsweep_s\t{sweep_s:.6g}\ts")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
