"""The benchmark's workloads and the checks that decide whether a pass was right.

Every workload drives tinyring through names in ``tinyring.__all__`` only,
and looks each one up on the module at call time, so that the tracer in
``tracer.py`` can swap in wrapped versions without the workloads knowing.

A pass has four parts:

``setup(seed)``
    generate the frames and build the pipeline (timed as ``setup_s``);
``timed(state)``
    the work a user waits for (timed for ``pkts_per_s``);
``collect(state)``
    take the outputs off the simulated wire (not timed);
``check(state, outputs)``
    compare them with the oracle (not timed, never traced); returns
    ``(attempted, failed)`` operations.
"""

from __future__ import annotations

import csv
import json
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

import tinyring as tr

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

# Descriptor rings plus one buffer per slot plus the head write-back words,
# with a page of rounding slack per region. Sized here rather than borrowed
# from tinyring's private builder so that refactoring the builder cannot
# change what the benchmark measures.
PAGE = tr.DEFAULT_PAGE_SIZE


def build_pipeline(ring: int, outputs: int) -> tuple[Any, Any, Any]:
    need = (1 + outputs) * ring * tr.DESC_BYTES + ring * tr.MAX_FRAME + 4 * outputs
    env = tr.MemEnv(arena_size=need + (3 + outputs) * PAGE)
    nic = tr.Nic(env, outputs)
    return env, nic, tr.Agent(env, nic, ring, outputs)


def check_forwarding(frames: list, outputs: list[list], processor: Callable,
                     processed: int, dropped: int) -> tuple[int, int]:
    """Count offered packets that were not forwarded as the oracle forwards them.

    A packet fails when any output misses it, carries it with other bytes,
    carries it out of order, or carries it although the oracle skips it
    there. Packets the agent never processed and frames the device dropped
    fail too; those are counted as a lower bound on distinct failures,
    because a dropped frame the oracle would skip everywhere leaves no
    trace on the outputs.

    The oracle runs one frame at a time so that each expected payload is
    tied to the packet that produced it.
    """
    ref = tr.ref_init(4, len(outputs), processor)
    cursors = [0] * len(outputs)
    failed: set[int] = set()
    for i, frame in enumerate(frames):
        want = ref.process_trace((frame,))
        for q, out in enumerate(outputs):
            c = cursors[q]
            # anything still ahead of packet i is an extra or reordered frame
            while c < len(out) and (out[c].order is None or out[c].order < i):
                failed.add(out[c].order if out[c].order is not None else -1)
                c += 1
            here = c < len(out) and out[c].order == i
            if want[q]:
                if not here or out[c].payload != want[q][0]:
                    failed.add(i)
            elif here:
                failed.add(i)
            cursors[q] = c + 1 if here else c
    for q, out in enumerate(outputs):
        for f in out[cursors[q]:]:
            failed.add(f.order if f.order is not None else -1)
    n = len(frames)
    return n, min(n, max(len(failed), n - processed, dropped))


@dataclass
class Pass:
    """What one pass builds in set-up and what its timed part leaves behind."""

    frames: list
    nic: Any = None
    agent: Any = None
    processor: Any = None
    processed: int = 0
    seed: int = 0


class Burst64:
    """Closed batch of 64-byte frames, all injected up front, through Agent.run.

    The ROADMAP smoke configuration: smallest frames so per-packet cost
    dominates, one output, a ring large enough that recycling never starves
    the device. This is the busy path of the device model and the agent.
    """

    name = "burst_64b"
    setup_reps = 1

    def __init__(self, packets: int = 50_000,
                 processor: Callable[[], Callable] | None = None) -> None:
        self.packets = packets
        # the processor under test; the oracle always uses identity
        self.make_processor = processor or (lambda: tr.identity())
        self.params = {"nf": "identity", "ring": 1024, "outputs": 1,
                       "frame_bytes": 64, "packets_per_pass": packets,
                       "device_budget": 2, "injection": "all up front, Agent.run"}

    def work(self) -> int:
        return self.packets

    def setup(self, seed: int) -> Pass:
        frames = tr.gen_traffic(self.packets, 64, seed)
        _env, nic, agent = build_pipeline(1024, 1)
        for f in frames:
            nic.inject_rx(f)
        return Pass(frames, nic, agent, self.make_processor())

    def timed(self, p: Pass) -> None:
        p.processed = p.agent.run(p.processor, max_packets=self.packets, device_budget=2)

    def collect(self, p: Pass) -> list[list]:
        return [p.nic.drain_tx(0)]

    def check(self, p: Pass, outputs: list[list]) -> tuple[int, int]:
        return check_forwarding(p.frames, outputs, tr.identity(), p.processed,
                                p.nic.link.rx_dropped)


IMIX = ((64, 7), (576, 4), (1500, 1))


def imix_frames(count: int, seed: int) -> list:
    """Frames of 64, 576 and 1500 bytes in exactly 7:4:1, in seeded order.

    Payloads come from gen_traffic, one call per size, so that generation
    cost in set-up is tinyring's own.
    """
    period = sum(w for _, w in IMIX)
    if count % period:
        raise ValueError(f"IMIX packet count must be a multiple of {period}")
    sizes = [s for s, w in IMIX for _ in range(w)] * (count // period)
    random.Random(seed).shuffle(sizes)
    pools = {s: iter(tr.gen_traffic(count // period * w, s, seed * 4096 + s))
             for s, w in IMIX}
    return [next(pools[s]) for s in sizes]


class ImixQ4:
    """Flow-controlled IMIX through forward_trace, policer(100), four outputs.

    Each packet pays for four transmit descriptors and copies that grow with
    its size; the 64-byte share (7/12) is skipped on every output, which
    takes the zero-length path. A gain on single-output emission that costs
    the multi-output or skip path shows here.
    """

    name = "imix_q4"
    setup_reps = 1

    def __init__(self, packets: int = 12_000,
                 processor: Callable[[], Callable] | None = None) -> None:
        self.packets = packets
        # the processor under test; the oracle always uses policer(100)
        self.make_processor = processor or (lambda: tr.policer(100))
        self.params = {"nf": "policer(100)", "ring": 64, "outputs": 4,
                       "frame_bytes": "IMIX 64/576/1500 at 7:4:1",
                       "packets_per_pass": packets, "device_budget": 5,
                       "injection": "flow-controlled, forward_trace"}

    def work(self) -> int:
        return self.packets

    def setup(self, seed: int) -> Pass:
        frames = imix_frames(self.packets, seed)
        _env, nic, agent = build_pipeline(64, 4)
        return Pass(frames, nic, agent, self.make_processor())

    def timed(self, p: Pass) -> None:
        p.processed = tr.forward_trace(p.agent, p.frames, p.processor, device_budget=5)

    def collect(self, p: Pass) -> list[list]:
        return [p.nic.drain_tx(q) for q in range(4)]

    def check(self, p: Pass, outputs: list[list]) -> tuple[int, int]:
        return check_forwarding(p.frames, outputs, tr.policer(100), p.processed,
                                p.nic.link.rx_dropped)


EXPECTED_SWEEP = os.path.join(HERE, "expected_sweep.json")
SWEEP_FIELDS = ("offered_load", "delivered", "lost", "latency_p50", "latency_p99")


class SweepKnee:
    """The ``bench --csv`` default (identity, ring 256, one output, step 100)
    with a 5000-frame trace: run_sweep plus write_csv.

    Open loop in simulated time. The knee search rebuilds the pipeline and
    regenerates the trace for every load point, and most polls find nothing,
    so the bench loop and the agent's idle path dominate; there is no
    emission pressure. Identity on fixed-size frames makes every row
    independent of the seed, so one table of expected values serves all
    seeds.
    """

    name = "sweep_knee"
    setup_reps = 4  # set-up is 1/100 of a pass; more samples steady its median

    def __init__(self, expected: dict | None = None) -> None:
        if expected is None:
            with open(EXPECTED_SWEEP, encoding="utf-8") as fh:
                expected = json.load(fh)
        self.expected = expected
        self.trace_length = expected["trace_length"]
        self.csv_path = os.path.join(OUT_DIR, "sweep_knee.csv")
        self.params = {"nf": "identity", "ring": 256, "outputs": 1, "step": 100,
                       "frame_bytes": 64, "trace_length": self.trace_length,
                       "device_budget": tr.DEVICE_BUDGET,
                       "injection": "open loop on a timed schedule, run_sweep",
                       "reference_load_points": expected["reference_load_points"]}

    def work(self) -> int:
        # A fixed amount of work per sweep, so that pkts_per_s tracks the
        # user's wait even if a later search probes fewer load points.
        return self.expected["reference_load_points"] * self.trace_length

    def setup(self, seed: int) -> Pass:
        # The sweep builds its own pipelines; this is the set-up each of its
        # load points pays, timed on its own.
        frames = tr.gen_traffic(self.trace_length, 64, seed)
        build_pipeline(256, 1)
        os.makedirs(OUT_DIR, exist_ok=True)
        return Pass(frames, seed=seed)

    def timed(self, p: Pass) -> None:
        rows = tr.run_sweep("identity", 256, 1, 100, trace_length=self.trace_length,
                            seed=p.seed)
        tr.write_csv(rows, self.csv_path)

    def collect(self, p: Pass) -> list[list]:
        with open(self.csv_path, encoding="utf-8", newline="") as fh:
            return [[tuple(int(row[k]) for k in SWEEP_FIELDS) for row in csv.DictReader(fh)]]

    def check(self, p: Pass, outputs: list[list]) -> tuple[int, int]:
        """One operation per load point: its values must match this table.

        Values, not CSV text, are compared, so new columns do not count as
        failures. The knee must also lie within one search step of the
        service rate; if not, the last load point fails.
        """
        got = outputs[0]
        want = [tuple(r) for r in self.expected["rows"]]
        attempted = max(len(got), len(want))
        bad = {i for i in range(attempted)
               if i >= len(got) or i >= len(want) or got[i] != want[i]}
        if not got or abs(got[-1][0] - tr.service_rate(tr.DEVICE_BUDGET, 1)) > tr.SEARCH_GRANULARITY:
            bad.add(attempted - 1)
        return attempted, len(bad)


WORKLOADS = {w.name: w for w in (Burst64, ImixQ4, SweepKnee)}
