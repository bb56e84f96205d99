"""Benchmark harness: traffic, pcap ingestion, load points, sweeps, CSV, CLI."""

import dataclasses
import io
import math
import os
import pathlib
import random
import struct
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tinyring import (CSV_HEADER, DRAIN_ALLOWANCE, MAX_FRAME, SEARCH_GRANULARITY,
                      Agent, Frame, LoadPointResult, MemEnv, Nic,
                      NoSustainableLoad, PcapFormatError, build_pipeline,
                      find_max_throughput, forward_trace, gen_traffic, identity,
                      make_processor, parse_pcap, run_load_point, run_sweep,
                      service_rate, write_csv)
from tinyring import bench
from tinyring.bench import (DEFAULT_PACKET_SIZE, DEFAULT_TRACE_LENGTH, LOSS_BOUND,
                            MAX_LOAD_PER_BUDGET)
from tinyring.cli import main

from lockstep import plain_forward

RECORD_HEADER = struct.Struct("<IIII")
DATA = pathlib.Path(__file__).parent / "data"


def pcap_bytes(*payloads, magic=0xA1B2C3D4, order="<"):
    """A capture with every header field packed in the given byte order."""
    blob = struct.pack(order + "IHHiIII", magic, 2, 4, 0, 0, 65535, 1)
    for i, p in enumerate(payloads):
        blob += struct.pack(order + "IIII", 1_700_000_000 + i, 123_456, len(p), len(p)) + p
    return blob


class TestServiceRate:
    def test_known_points(self):
        assert service_rate(1, 1) == 500
        assert service_rate(1, 2) == 333
        assert service_rate(2, 1) == 1000
        assert service_rate(1, 3) == 250

    def test_the_agent_bounds_the_pipeline_below_the_device(self):
        # forward_trace polls once per step, so the pipeline's bound is
        # min(service_rate, 1000): a load under the device's 1500 loses 15%
        assert service_rate(3, 1) == 1500
        row = run_load_point(1200, gen_traffic(2000, 64, 0), "identity", 256, 1,
                             device_budget=3)
        assert (row.lost, row.delivered + row.lost) == (274, 1800)

    @pytest.mark.parametrize("budget, outputs, what", [
        (0, 1, "device budget"), (True, 1, "device budget"), (1.0, 1, "device budget"),
        (1, 0, "output count"), (1, -1, "output count"), (1, 9, "output count"),
        (1, True, "output count"),
    ])
    def test_invalid_arguments_rejected(self, budget, outputs, what):
        with pytest.raises(ValueError, match=what):
            service_rate(budget, outputs)


class TestPercentile:
    # run_load_point ranks the latency list it has sorted, so every case is ascending
    def test_median_of_four_is_second(self):
        assert bench._nearest_rank([1, 2, 3, 4], 50) == 2

    def test_tail(self):
        assert bench._nearest_rank([1, 2, 3, 4], 99) == 4
        assert bench._nearest_rank([1, 2, 3, 4], 100) == 4

    def test_low_rank_clamps_to_first(self):
        assert bench._nearest_rank([5, 7], 1) == 5

    def test_empty_and_singleton(self):
        assert bench._nearest_rank([], 50) == 0
        assert bench._nearest_rank([42], 50) == 42
        assert bench._nearest_rank([42], 99) == 42


class TestGenTraffic:
    def test_sequence_numbers(self):
        frames = gen_traffic(3, 64, 42)
        assert [int.from_bytes(f.payload[:8], "little") for f in frames] == [0, 1, 2]
        assert all(len(f.payload) == 64 for f in frames)

    def test_deterministic(self):
        a = gen_traffic(10, 100, 7)
        b = gen_traffic(10, 100, 7)
        assert [f.payload for f in a] == [f.payload for f in b]

    def test_seed_changes_payloads(self):
        a = gen_traffic(5, 64, 1)
        b = gen_traffic(5, 64, 2)
        assert [f.payload for f in a] != [f.payload for f in b]

    def test_empty(self):
        assert gen_traffic(0, 64, 1) == []

    @pytest.mark.parametrize("seed", [None, True, -7, 1.5, "0"])
    def test_invalid_seed_rejected(self, seed):
        # None would seed from the OS and -7 would act as 7: neither is deterministic
        with pytest.raises(ValueError, match="seed"):
            gen_traffic(3, 64, seed)

    @pytest.mark.parametrize("size", [12, 64, MAX_FRAME])
    def test_frames_are_plain_unstamped_frames(self, size):
        # built slot by slot, each frame must be the Frame(payload) the
        # dataclass call would make: every field set, only the payload not None
        frames = gen_traffic(5, size, 3)
        assert len(frames) == 5
        for f in frames:
            assert type(f) is Frame
            assert dataclasses.astuple(f) == (f.payload, None, None, None)
            assert type(f.payload) is bytes and len(f.payload) == size
        assert frames == [Frame(f.payload) for f in frames]
        assert gen_traffic(0, size, 3) == []

    def test_size_bounds(self):
        with pytest.raises(ValueError):
            gen_traffic(1, 0, 0)
        with pytest.raises(ValueError):
            gen_traffic(1, 11, 0)
        with pytest.raises(ValueError):
            gen_traffic(1, 2049, 0)
        with pytest.raises(ValueError):
            gen_traffic(-1, 64, 0)

    @pytest.mark.parametrize("count", [2.0, True])
    def test_non_integer_count_rejected(self, count):
        with pytest.raises(ValueError, match="frame count"):
            gen_traffic(count, 64, 0)

    @pytest.mark.parametrize("size", [64.0, True])
    def test_non_integer_size_rejected(self, size):
        with pytest.raises(ValueError, match="packet size"):
            gen_traffic(1, size, 0)

    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_payload_is_sequence_number_then_randbytes(self, seed):
        # gen_traffic builds each payload from one integer; it must be the
        # byte concatenation it stands for, at every size
        sizes = range(12, MAX_FRAME + 1)
        got = [f.payload for size in sizes for f in gen_traffic(2, size, seed)]
        want = []
        for size in sizes:
            rng = random.Random(seed)
            want += [seq.to_bytes(8, "little") + rng.randbytes(size - 8) for seq in range(2)]
        assert got == want


class TestParsePcap:
    def test_single_record(self):
        frames = parse_pcap(pcap_bytes(b"\xAB" * 64))
        assert len(frames) == 1
        assert frames[0].payload == b"\xAB" * 64

    def test_record_order(self):
        frames = parse_pcap(pcap_bytes(b"a" * 20, b"b" * 30, b"c" * 40))
        assert [len(f.payload) for f in frames] == [20, 30, 40]

    def test_nanosecond_and_big_endian_variants(self):
        # all four variants read exactly like the classic little-endian file
        payloads = (b"a" * 20, bytes(range(256)) * 3, b"\x01" * 60)
        want = [f.payload for f in parse_pcap(pcap_bytes(*payloads))]
        assert want == list(payloads)
        for magic in (0xA1B2C3D4, 0xA1B23C4D):
            for order in "<>":
                blob = pcap_bytes(*payloads, magic=magic, order=order)
                assert [f.payload for f in parse_pcap(blob)] == want, (hex(magic), order)

    def test_unknown_magic_rejected(self):
        with pytest.raises(PcapFormatError):
            parse_pcap(pcap_bytes(magic=0xDEADBEEF))

    def test_header_only(self):
        assert parse_pcap(pcap_bytes()) == []

    def test_short_global_header(self):
        with pytest.raises(PcapFormatError):
            parse_pcap(pcap_bytes()[:10])

    def test_truncated_record_header(self):
        blob = pcap_bytes(b"x" * 8) + RECORD_HEADER.pack(0, 0, 8, 8)[:6]
        with pytest.raises(PcapFormatError, match="^record 1: "):
            parse_pcap(blob)

    def test_truncated_payload(self):
        blob = pcap_bytes() + RECORD_HEADER.pack(0, 0, 64, 64) + b"y" * 10
        with pytest.raises(PcapFormatError, match="^record 0: "):
            parse_pcap(blob)

    def test_empty_record_rejected(self):
        blob = pcap_bytes() + RECORD_HEADER.pack(0, 0, 0, 0)
        with pytest.raises(PcapFormatError, match="^record 0: "):
            parse_pcap(blob)

    def test_oversized_payload_truncated(self):
        frames = parse_pcap(pcap_bytes(bytes(range(256)) * 12))  # 3072 bytes
        assert len(frames) == 1
        assert len(frames[0].payload) == 2048
        assert frames[0].payload == (bytes(range(256)) * 12)[:2048]


TRACE_400 = gen_traffic(400, 64, 0)


class TestRunLoadPoint:
    def test_validation(self):
        with pytest.raises(ValueError):
            run_load_point(0, TRACE_400, "identity", 256, 1)
        with pytest.raises(ValueError):
            run_load_point(100, [], "identity", 256, 1)

    @pytest.mark.parametrize("load", [250.5, 250.0, "250", None, True])
    def test_non_integer_load_rejected(self, load):
        with pytest.raises(ValueError, match="offered load"):
            run_load_point(load, TRACE_400, "identity", 256, 1)

    @pytest.mark.parametrize("budget", [0, -1, 1.5, True])
    def test_invalid_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="device budget"):
            run_load_point(100, TRACE_400, "identity", 256, 1, device_budget=budget)

    def test_empty_trace_rejected_by_search_and_sweep(self):
        # an empty trace measures nothing, so it cannot pass or fail a load
        with pytest.raises(ValueError):
            find_max_throughput("identity", 256, 1, frames=[])
        with pytest.raises(ValueError):
            run_sweep("identity", 256, 1, 100, frames=[])

    def test_underload_is_lossless(self):
        res = run_load_point(100, TRACE_400, "identity", 256, 1)
        assert res.loss_fraction == 0.0
        assert res.lost == 0
        assert res.delivered == 360  # warm-up tenth excluded

    def test_overload_loses(self):
        res = run_load_point(900, TRACE_400, "identity", 256, 1)
        assert res.lost > 0
        assert 0.0 < res.loss_fraction <= 1.0

    def test_measured_window_conserved(self):
        for load in (100, 900):
            res = run_load_point(load, TRACE_400, "identity", 256, 1)
            assert res.delivered + res.lost == 360

    def test_warmup_exclusion_count(self):
        res = run_load_point(50, gen_traffic(20, 64, 0), "identity", 64, 1)
        assert res.delivered + res.lost == 18

    def test_latency_rises_toward_saturation(self):
        low = run_load_point(100, TRACE_400, "identity", 256, 1)
        near = run_load_point(480, TRACE_400, "identity", 256, 1)
        assert low.latency_p50 <= near.latency_p50
        assert low.latency_p50 <= low.latency_p99

    def test_deterministic(self):
        a = run_load_point(300, gen_traffic(400, 64, 5), "macswap", 256, 1)
        b = run_load_point(300, gen_traffic(400, 64, 5), "macswap", 256, 1)
        assert a == b

    def test_replay_does_not_mutate_source(self):
        # every entry point only reads the caller's frames, so one list
        # serves any number of runs and a search run twice gives equal rows
        frames = gen_traffic(40, 64, 7)
        before = [dataclasses.astuple(f) for f in frames]
        _, nic, agent = build_pipeline(64)
        for f in frames:
            nic.inject_rx(f)
        agent.run(identity(), max_packets=len(frames))
        forward_trace(build_pipeline(64)[2], frames, identity())
        run_load_point(100, frames, "identity", 256, 1)
        best = find_max_throughput("identity", 256, 1, frames=frames)
        rows = run_sweep("identity", 256, 1, 100, frames=frames)
        assert [dataclasses.astuple(f) for f in frames] == before
        assert find_max_throughput("identity", 256, 1, frames=frames) == best
        assert run_sweep("identity", 256, 1, 100, frames=frames) == rows

    def test_device_step_count(self):
        # 400 frames, one every 10 steps. A frame leaves the pipeline
        # quiescent after 3 steps (receive, publish, transmit), or after 2
        # when its packet closes a flush batch of 8, and the clock then jumps
        # to the next frame: 350 * 3 + 50 * 2. Stepping through the gaps, or
        # jumping only after two dead steps (1948 steps), fails this.
        steps = []
        with pytest.MonkeyPatch.context() as mp:
            def step_device(self, max_work=1, _step=Nic.step_device):
                steps.append(max_work)
                return _step(self, max_work)
            mp.setattr(Nic, "step_device", step_device)
            res = run_load_point(100, TRACE_400, "identity", 256, 1)
        assert res.latency_p99 == 3
        assert len(steps) == 1150

    def test_housekeeping_count(self):
        # the run above: _flush is entered only with a batch to publish, once
        # per packet (350 ragged batches from empty polls, 50 on the flush
        # grid). recycle runs once per packet after its transmit (400 moves
        # of the receive tail), before it on the 350 ragged packets' empty
        # polls, and on the 6 recycle-grid packets when they are filed.
        flushes, recycles = [], []
        with pytest.MonkeyPatch.context() as mp:
            def _flush(self, _flush=Agent._flush):
                published = self._published
                _flush(self)
                flushes.append(self._published != published)
            def recycle(self, _recycle=Agent.recycle):
                tail = self._rdt_unwrapped
                _recycle(self)
                recycles.append(self._rdt_unwrapped != tail)
            mp.setattr(Agent, "_flush", _flush)
            mp.setattr(Agent, "recycle", recycle)
            run_load_point(100, TRACE_400, "identity", 256, 1)
        assert flushes == [True] * 400
        assert (len(recycles), sum(recycles)) == (756, 400)


def naive_load_point(load, nf, ring_size, num_outputs, frames, device_budget):
    """The bench's schedule and deadline through plain_forward, which runs
    every step, and the measurement done by hand.

    Returns the result and the frames emitted on output 0, stamps included.
    """
    n = len(frames)
    env = MemEnv()
    nic = Nic(env, num_outputs)
    agent = Agent(env, nic, ring_size, num_outputs)
    deadline = (n - 1) * 1000 // load + 1 + DRAIN_ALLOWANCE
    plain_forward(agent, frames, make_processor(nf), device_budget,
                  [k * 1000 // load for k in range(n)], deadline)
    emitted = nic.drain_tx(0)
    warm = n // 10
    got = [f for f in emitted if f.order >= warm]
    latencies = sorted(f.drain_time - f.inject_time for f in got)
    lost = n - warm - len(got)
    # nearest rank by hand: the 50th percentile of m values is the
    # ceil(m / 2)-th smallest and the 99th the ceil(99 m / 100)-th
    m = len(latencies)
    p50 = latencies[(m + 1) // 2 - 1] if m else 0
    p99 = latencies[(99 * m + 99) // 100 - 1] if m else 0
    result = LoadPointResult(load, m, lost, lost / (n - warm), p50, p99)
    return result, emitted


def stamps(frames):
    return [(f.order, f.inject_time, f.drain_time, f.payload) for f in frames]


# tier-1 runs 60 examples; --hypothesis-profile=deep scales it with the profile
@pytest.mark.deep
@settings(max_examples=settings.default.max_examples * 3 // 5, deadline=None)
@given(data=st.data())
def test_load_point_matches_naive_lockstep_loop(data):
    # run_load_point skips steps in which nothing can happen; every frame it
    # emits must still carry the stamps the step-by-step loop gives it. The
    # stamps are compared, not just the result: injecting an isolated frame
    # one step late moves both of its stamps and leaves its latency alone.
    load = data.draw(st.one_of(st.integers(1, 60), st.integers(1, 1200),
                               st.integers(1, 4000)), label="load")
    ring = data.draw(st.sampled_from([2, 4, 8, 64, 256]), label="ring")
    outputs = data.draw(st.integers(1, 4), label="outputs")
    budget = data.draw(st.integers(1, 4), label="budget")
    nf = data.draw(st.sampled_from(["identity", "macswap", "policer"]), label="nf")
    size = data.draw(st.integers(12, 1500), label="size")
    n = data.draw(st.integers(1, 120), label="trace length")
    frames = data.draw(st.one_of(
        st.none(),
        st.lists(st.binary(min_size=1, max_size=300), min_size=1, max_size=120)
        .map(lambda ps: [Frame(p) for p in ps])), label="frames")
    drained = []
    trace = frames if frames is not None else gen_traffic(n, size, 3)
    with pytest.MonkeyPatch.context() as mp:
        def drain_tx(self, queue, _drain=Nic.drain_tx):
            out = _drain(self, queue)
            drained.append(stamps(out))
            return out
        mp.setattr(Nic, "drain_tx", drain_tx)
        got = run_load_point(load, trace, nf, ring, outputs, device_budget=budget)
    want, emitted = naive_load_point(load, nf, ring, outputs, trace, budget)
    assert got == want
    assert drained == [stamps(emitted)]


frame_lists = st.one_of(
    st.builds(gen_traffic, st.integers(1, 200), st.integers(12, 600), st.integers(0, 9)),
    st.lists(st.binary(min_size=1, max_size=600), min_size=1, max_size=200)
    .map(lambda ps: [Frame(p) for p in ps]))


# tier-1 runs 150 examples; --hypothesis-profile=deep scales it with the profile
@pytest.mark.deep
@settings(max_examples=settings.default.max_examples * 3 // 2, deadline=None)
@given(load=st.integers(1, 3000), ring=st.sampled_from([2, 4, 8, 16, 64, 256]),
       outputs=st.integers(1, 4), budget=st.integers(1, 3),
       nf=st.sampled_from(["identity", "macswap", "policer"]), frames=frame_lists)
# heavy overloads that lose about half the measured frames: rejected at
# step 0 under LOSS_BOUND, and not under a bound just above that loss
@example(load=1479, ring=256, outputs=2, budget=1, nf="identity",
         frames=gen_traffic(65, 578, 7))
@example(load=1145, ring=4, outputs=4, budget=1, nf="identity",
         frames=gen_traffic(36, 467, 2))
# loads rejected at step 0 only because no measured frame enters before
# the first one's due step: 176 and 171 of 180 measured frames can arrive
# from it, against 192 and 182 from step 0
@example(load=620, ring=256, outputs=1, budget=1, nf="identity",
         frames=gen_traffic(200, 64, 0))
@example(load=1700, ring=16, outputs=3, budget=2, nf="macswap",
         frames=gen_traffic(200, 300, 4))
# rejected at step 0 only because the agent files one frame a step: 1784
# of 1800 measured frames arrive in full, against 2700 the device allows
@example(load=1040, ring=256, outputs=1, budget=3, nf="identity",
         frames=gen_traffic(2000, 64, 0))
def test_early_stop_is_sound(load, ring, outputs, budget, nf, frames):
    # The search rejects a load at step 0 only when its full run_load_point
    # row fails the bound. A bound just above the full row's loss is the
    # tightest case a sound rejection must not trip over.
    full = run_load_point(load, frames, nf, ring, outputs, device_budget=budget)
    for bound in LOSS_BOUND, math.nextafter(full.loss_fraction, 2):
        if bench._rejected_at_step_0(load, len(frames), budget, bound):
            assert full.loss_fraction >= bound


def test_lowest_grid_load_is_never_rejected_at_step_0():
    # The search's argument checks rest on this. A search that finds
    # nothing runs the lowest grid load in full, and that run_load_point
    # call checks every argument before it builds anything. Even the
    # smallest positive bound does not reject it: at that load at least
    # measured + 1 frames can arrive.
    tiny = math.ulp(0.0)
    assert not any(bench._rejected_at_step_0(SEARCH_GRANULARITY, n, budget, tiny)
                   for n in range(1, 5001) for budget in range(1, 5))


def test_every_full_probe_goes_through_the_public_name(monkeypatch):
    # the search and the sweep measure by the module-level name, so a
    # wrapper around bench.run_load_point sees every full run
    loads = []

    def recorder(load, *args, _run=bench.run_load_point, **kw):
        loads.append(load)
        return _run(load, *args, **kw)
    monkeypatch.setattr(bench, "run_load_point", recorder)
    rows = run_sweep("identity", 256, 1, 100)
    assert loads == [496, 100, 200, 300, 400]
    assert [r.offered_load for r in rows] == [100, 200, 300, 400, 496]
    loads.clear()
    find_max_throughput("identity", 256, 1)
    assert loads == [496]  # 752, 624, 560, 528 and 512 are rejected at step 0


def test_budget_3_search_runs_only_loads_the_agent_can_file(monkeypatch):
    # at budget 3 with one output the device could emit 1.5 frames a step,
    # but the agent files one, so the step-0 check counts one a step
    loads = []

    def recorder(load, *args, _run=bench.run_load_point, **kw):
        loads.append(load)
        return _run(load, *args, **kw)
    monkeypatch.setattr(bench, "run_load_point", recorder)
    assert find_max_throughput("identity", 256, 1, device_budget=3).offered_load == 1024
    assert loads == [752, 928, 1024]  # 1504, 1120, 1072 and 1040 are rejected at step 0


def reference_search(frames, nf, ring, outputs, budget):
    """The plain binary search over the grid, every probe a full load point."""
    rows = {}
    lo, hi = 0, MAX_LOAD_PER_BUDGET * budget // SEARCH_GRANULARITY
    while lo < hi:
        mid = (lo + hi + 1) // 2
        rows[mid] = run_load_point(mid * SEARCH_GRANULARITY, frames, nf, ring, outputs,
                                   device_budget=budget)
        lo, hi = (mid, hi) if rows[mid].loss_fraction < LOSS_BOUND else (lo, mid - 1)
    if lo == 0:
        raise NoSustainableLoad("no grid load passes")
    return rows[lo]


def reference_sweep(frames, nf, ring, outputs, step, budget):
    best = reference_search(frames, nf, ring, outputs, budget).offered_load
    loads = sorted({*range(step, best + 1, step), best})
    return [run_load_point(load, frames, nf, ring, outputs, device_budget=budget)
            for load in loads]


# tier-1 runs 30 examples; --hypothesis-profile=deep scales it with the profile
@pytest.mark.deep
@settings(max_examples=settings.default.max_examples * 3 // 10, deadline=None)
@given(data=st.data())
def test_search_matches_reference_search(data):
    ring = data.draw(st.sampled_from([2, 4, 8, 16]), label="ring")
    outputs = data.draw(st.integers(1, 4), label="outputs")
    budget = data.draw(st.integers(1, 3), label="budget")
    nf = data.draw(st.sampled_from(["identity", "macswap", "policer"]), label="nf")
    step = data.draw(st.integers(40, 400), label="step")
    frames = data.draw(frame_lists, label="frames")
    kw = dict(frames=frames, device_budget=budget)
    try:
        want = reference_search(frames, nf, ring, outputs, budget)
    except NoSustainableLoad:
        with pytest.raises(NoSustainableLoad):
            find_max_throughput(nf, ring, outputs, **kw)
        with pytest.raises(NoSustainableLoad):
            run_sweep(nf, ring, outputs, step, **kw)
        return
    assert find_max_throughput(nf, ring, outputs, **kw) == want
    assert run_sweep(nf, ring, outputs, step, **kw) == reference_sweep(
        frames, nf, ring, outputs, step, budget)


def test_search_matches_reference_on_docstring_case():
    frames = gen_traffic(DEFAULT_TRACE_LENGTH, DEFAULT_PACKET_SIZE, 0)
    best = find_max_throughput("identity", 8, 2, device_budget=2)
    assert best.offered_load == 592
    assert best == reference_search(frames, "identity", 8, 2, 2)


@pytest.mark.xfail(strict=True, reason="the bisection can pass a load above failing "
                                       "lower grid loads (ROADMAP item 4)")
def test_no_failing_grid_load_below_the_knee():
    # loss is not monotone here: 688 and 736 fail, 704, 720 and 752 lose
    # nothing, and the bisection returns 752, above service_rate(3, 3)
    best = find_max_throughput("identity", 8, 3, device_budget=3)
    frames = gen_traffic(DEFAULT_TRACE_LENGTH, DEFAULT_PACKET_SIZE, 0)
    failing = [run_load_point(load, frames, "identity", 8, 3, device_budget=3)
               for load in (688, 736)]
    assert [(r.lost, r.delivered + r.lost) for r in failing] == [(13, 1800), (257, 1800)]
    assert all(r.offered_load >= best.offered_load for r in failing)


class TestFindMax:
    @pytest.mark.parametrize("budget", [0, -1, 1.5, True])
    def test_invalid_budget_rejected(self, budget):
        # a budget that is not a positive integer is a bad argument, not a
        # finding that no load is sustainable
        frames = gen_traffic(40, 64, 0)
        for search in (lambda: find_max_throughput("identity", 8, 1, frames=frames,
                                                   device_budget=budget),
                       lambda: run_sweep("identity", 8, 1, 100, frames=frames,
                                         device_budget=budget)):
            with pytest.raises(ValueError, match="device budget") as info:
                search()
            assert not isinstance(info.value, NoSustainableLoad)

    def test_no_sustainable_load_raises(self):
        # the policer zeroes every 64-byte frame, so every load loses it all
        with pytest.raises(NoSustainableLoad):
            find_max_throughput("policer", 256, 1, trace_length=200)
        with pytest.raises(ValueError):
            run_sweep("policer", 256, 1, 100, trace_length=200)

    def test_unbounded_loss_reaches_grid_top(self):
        # ten frames lose nothing even at the ceiling, since the drain
        # allowance serves them all, so the search climbs to the grid's top
        for budget, top in (1, 992), (2, 2000):
            lp = find_max_throughput("identity", 256, 1, trace_length=10,
                                     device_budget=budget)
            assert (lp.offered_load, lp.lost) == (top, 0)

    def test_deterministic(self):
        a = find_max_throughput("identity", 256, 1, trace_length=400)
        b = find_max_throughput("identity", 256, 1, trace_length=400)
        assert a == b

    def test_result_is_on_grid(self):
        lp = find_max_throughput("identity", 256, 1, trace_length=400)
        assert lp.offered_load % SEARCH_GRANULARITY == 0
        assert lp.offered_load >= SEARCH_GRANULARITY

    @pytest.mark.parametrize("ring, outputs, budget, passes_higher", [
        (8, 2, 2, 640),     # the docstring's case: loss dips again above the result
        (256, 1, 1, None),  # the bench default
    ])
    def test_result_passes_and_next_grid_load_fails(self, ring, outputs, budget,
                                                    passes_higher):
        lp = find_max_throughput("identity", ring, outputs, device_budget=budget)
        frames = gen_traffic(DEFAULT_TRACE_LENGTH, DEFAULT_PACKET_SIZE, 0)

        def loss(load):
            return run_load_point(load, frames, "identity", ring, outputs,
                                  device_budget=budget).loss_fraction

        assert loss(lp.offered_load) < LOSS_BOUND
        above = lp.offered_load + SEARCH_GRANULARITY
        if above <= MAX_LOAD_PER_BUDGET * budget:
            assert loss(above) >= LOSS_BOUND
        if passes_higher is not None:
            # the guarantee is all there is: a higher grid load can pass again
            assert loss(passes_higher) < LOSS_BOUND


    def test_returns_the_measured_row(self):
        # a replayed trace: the row describes the frames that really ran
        frames = [Frame(bytes([i]) * 128) for i in range(40)]
        best = find_max_throughput("identity", 64, 1, frames=frames)
        assert best == run_load_point(best.offered_load, frames, "identity", 64, 1)


class TestProbeSetUp:
    """A grid load the knee search rejects at step 0 builds no pipeline,
    one that passes the check runs in full, and a bad argument is still
    a ValueError raised before any pipeline is built."""

    def counted_builds(self, mp):
        # a build counts once build_pipeline returns one: a call whose ring
        # geometry it rejects raises before it builds anything
        builds = []

        def counting(*args, _build=bench.build_pipeline):
            built = _build(*args)
            builds.append(args)
            return built
        mp.setattr(bench, "build_pipeline", counting)
        return builds

    def test_default_sweep_builds_five_pipelines(self):
        # the golden sweep: 6 search probes (5 of them fail at step 0) and 4
        # further rows; counting units from step 0 instead of from the first
        # measured frame's due step made 8, and building for every probe 10
        with pytest.MonkeyPatch.context() as mp:
            builds = self.counted_builds(mp)
            rows = run_sweep("identity", 256, 1, 100, trace_length=2000)
        assert len(builds) == 5
        sink = io.StringIO()
        write_csv(rows, sink)
        assert sink.getvalue() == (DATA / "golden_sweep.csv").read_text()

    @pytest.mark.parametrize("load", [512, 528])
    def test_default_sweep_probes_fail_at_step_0(self, load):
        # 1800 measured frames due from step 390 (512) or 378 (528), deadline
        # 3969 or 3850: at most 1789 or 1736 can arrive, against 1984 and
        # 1925 counted from step 0, which let both loads build and run
        with pytest.MonkeyPatch.context() as mp:
            builds = self.counted_builds(mp)
            assert bench._rejected_at_step_0(load, DEFAULT_TRACE_LENGTH, 1, LOSS_BOUND)
        assert builds == []

    def test_first_check_is_inclusive(self):
        # 1111 frames at load 517: 1000 measured due from step 214, deadline
        # 2212, so at most 999 can arrive and the loss bound is met exactly
        builds = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bench, "build_pipeline", lambda *a: builds.append(a))
            assert bench._rejected_at_step_0(517, 1111, 1, LOSS_BOUND)
        assert builds == []

    def test_first_check_counts_from_the_first_measured_due_step(self):
        # 100 frames at load 768: 90 measured due from step 13, deadline 193,
        # so at most 90 can arrive; the load may pass and must not be rejected
        with pytest.MonkeyPatch.context() as mp:
            builds = self.counted_builds(mp)
            assert not bench._rejected_at_step_0(768, 100, 1, LOSS_BOUND)
        assert builds == []

    def test_a_probe_that_passes_the_first_check_runs_in_full(self):
        # 300 frames at load 560: 270 measured due from step 53, deadline
        # 598. The step-0 check passes (at most 272 can arrive), so the
        # search runs the load's whole schedule in one forward_trace call,
        # and that run's loss decides the search: it settles at 544. The
        # other full runs are 496 (deadline 667), 528 (631) and 544 (614)
        frames = gen_traffic(300, 64, 0)
        assert not bench._rejected_at_step_0(560, 300, 1, LOSS_BOUND)
        runs = []
        with pytest.MonkeyPatch.context() as mp:
            def run(*args, _forward=bench.forward_trace, **kw):
                runs.append(kw["deadline"])
                return _forward(*args, **kw)
            mp.setattr(bench, "forward_trace", run)
            best = find_max_throughput("identity", 256, 1, frames=frames)
        assert runs == [667, 598, 631, 614]
        assert best.offered_load == 544
        assert run_load_point(560, frames, "identity", 256, 1).loss_fraction >= LOSS_BOUND

    @pytest.mark.parametrize("load", [700, 900, 1000])
    def test_overloaded_deadline_matches_naive_loop(self, load):
        # the deadline is computed before the schedule; on an overloaded
        # point a step more or less changes what output 0 emits
        got = run_load_point(load, TRACE_400, "identity", 256, 1)
        want, _ = naive_load_point(load, "identity", 256, 1, TRACE_400, 1)
        assert got.lost > 0
        assert got == want

    @pytest.mark.parametrize("ring, outputs, budget, nf, what", [
        (6, 1, 1, "identity", "power of two"),
        (256, 9, 1, "identity", "output count"),
        (256, 1, 1.5, "identity", "device budget"),
        (256, 1, 1, "firewall", "network function"),
    ])
    def test_arguments_checked_before_the_first_check(self, ring, outputs, budget, nf,
                                                      what):
        # the search checks the budget itself; its first full run checks
        # the rest before it builds anything
        frames = gen_traffic(2000, 64, 0)
        with pytest.MonkeyPatch.context() as mp:
            builds = self.counted_builds(mp)
            for search in (lambda: find_max_throughput(nf, ring, outputs, frames=frames,
                                                       device_budget=budget),
                           lambda: run_sweep(nf, ring, outputs, 100, frames=frames,
                                             device_budget=budget)):
                with pytest.raises(ValueError, match=what) as info:
                    search()
                assert not isinstance(info.value, NoSustainableLoad)
        assert builds == []

    @pytest.mark.parametrize("ring, nf, what", [
        (6, "identity", "power of two"),
        (256, "firewall", "network function"),
    ])
    def test_bad_argument_after_a_load_rejected_at_step_0(self, ring, nf, what):
        # 20000 frames on budget 2: the first grid load tried, 1008, is
        # rejected without a look at the other arguments; the next, 496,
        # runs in full and raises
        frames = gen_traffic(20000, 64, 0)
        assert bench._rejected_at_step_0(1008, len(frames), 2, LOSS_BOUND)
        with pytest.raises(ValueError, match=what) as info:
            find_max_throughput(nf, ring, 1, frames=frames, device_budget=2)
        assert not isinstance(info.value, NoSustainableLoad)

    @pytest.mark.parametrize("ring, outputs", [(6, 1), (256, 9)])
    def test_search_and_sweep_reject_bad_geometry(self, ring, outputs):
        for search in (lambda: find_max_throughput("identity", ring, outputs),
                       lambda: run_sweep("identity", ring, outputs, 100)):
            with pytest.raises(ValueError) as info:
                search()
            assert not isinstance(info.value, NoSustainableLoad)


class TestRunSweep:
    @pytest.mark.parametrize("search", [
        lambda frames: run_sweep("identity", 256, 1, 100, trace_length=400,
                                 frames=frames),
        lambda frames: find_max_throughput("identity", 256, 1, trace_length=400,
                                           frames=frames),
    ], ids=["run_sweep", "find_max_throughput"])
    @pytest.mark.parametrize("replayed", [False, True])
    def test_no_frame_beyond_the_generated_trace(self, search, replayed):
        # every probe and row injects the caller's frames as they are; only
        # a search given no frames builds any, the trace it generates, and
        # it builds them slot by slot, never through Frame(...)
        frames = gen_traffic(400, 64, 3) if replayed else None
        inits, generated = [], []

        class CountingFrame(Frame):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                inits.append(args)
                super().__init__(*args, **kwargs)

        def counting_gen_traffic(*args, _gen=bench.gen_traffic):
            out = _gen(*args)
            generated.extend(out)
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bench, "Frame", CountingFrame)
            mp.setattr(bench, "gen_traffic", counting_gen_traffic)
            search(frames)
        assert inits == []
        assert len(generated) == (0 if replayed else 400)
        assert all(type(f) is CountingFrame for f in generated)

    def test_sweep_shape_and_conservation(self):
        results = run_sweep("identity", 256, 1, 100, trace_length=400)
        loads = [r.offered_load for r in results]
        assert loads == sorted(set(loads))  # strictly increasing
        assert loads[0] == 100
        for r in results:
            assert r.delivered + r.lost == 360

    def test_step_validation(self):
        with pytest.raises(ValueError):
            run_sweep("identity", 256, 1, 0, trace_length=400)

    @pytest.mark.parametrize("step", [50.0, True])
    def test_non_integer_step_rejected(self, step):
        # 50.0 failed in range() after the search; True swept every load
        with pytest.raises(ValueError, match="sweep step"):
            run_sweep("identity", 256, 1, step, trace_length=400)

    def test_max_appended_when_off_grid(self):
        results = run_sweep("identity", 256, 1, 300, trace_length=400)
        best = find_max_throughput("identity", 256, 1, trace_length=400)
        assert results[-1].offered_load == best.offered_load

    @pytest.mark.parametrize("nf, ring, outputs, step, size, budget", [
        ("identity", 256, 1, 100, 64, 1),
        ("macswap", 8, 2, 70, 64, 1),
        ("policer", 64, 3, 150, 128, 3),
    ])
    def test_rows_are_single_load_points(self, nf, ring, outputs, step, size, budget):
        # rows reused from the knee search equal a fresh measurement
        kw = dict(packet_size=size, trace_length=300, seed=4, device_budget=budget)
        results = run_sweep(nf, ring, outputs, step, **kw)
        frames = gen_traffic(300, size, 4)
        assert results == [
            run_load_point(r.offered_load, frames, nf, ring, outputs,
                           device_budget=budget)
            for r in results]
        assert results[-1] == find_max_throughput(nf, ring, outputs, **kw)


class TestWriteCsv:
    R1 = LoadPointResult(100, 360, 0, 0.0, 12, 14)
    R2 = LoadPointResult(200, 350, 10, 10 / 360, 15, 30)

    def test_header_only(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv([], path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_two_rows(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv([self.R1, self.R2], str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0] == "offered_load,delivered,lost,loss_fraction,latency_p50,latency_p99"
        assert lines[1] == "100,360,0,0.000000,12,14"
        assert lines[2] == "200,350,10,0.027778,15,30"

    def test_file_like_destination(self):
        sink = io.StringIO()
        write_csv([self.R1], sink)
        assert sink.getvalue().endswith("0.000000,12,14\n")

    def test_directory_destination_raises(self, tmp_path):
        with pytest.raises(OSError):
            write_csv([self.R1], str(tmp_path))


class TestCli:
    def run_ok(self, tmp_path, *extra):
        path = tmp_path / "out.csv"
        code = main(["--csv", str(path), "--packets", "200", "--step", "200",
                     "--ring-size", "64", *extra])
        return code, path

    def test_sweep_exit_zero_and_csv(self, tmp_path, capsys):
        code, path = self.run_ok(tmp_path)
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) >= 2
        assert "load points written" in capsys.readouterr().out

    def test_default_sweep_is_the_golden_file(self, tmp_path):
        # the golden file is regenerated by running the CLI at its defaults
        path = tmp_path / "golden.csv"
        assert main(["--csv", str(path)]) == 0
        assert path.read_bytes() == (DATA / "golden_sweep.csv").read_bytes()

    def test_readme_regeneration_command(self, tmp_path):
        # the README's command in a fresh interpreter, through cli.py's __main__ guard
        path = tmp_path / "golden.csv"
        subprocess.run([sys.executable, "-m", "tinyring.cli", "--csv", str(path)],
                       cwd=DATA.parent.parent, env={**os.environ, "PYTHONPATH": "src"},
                       check=True, capture_output=True)
        assert path.read_bytes() == (DATA / "golden_sweep.csv").read_bytes()

    def test_max_only(self, tmp_path, capsys):
        code, path = self.run_ok(tmp_path, "--max-only")
        assert code == 0
        assert len(path.read_text().splitlines()) == 2
        assert capsys.readouterr().out.startswith("max load")

    def test_named_nfs(self, tmp_path):
        for nf in ("macswap", "policer"):
            code, _ = self.run_ok(tmp_path, "--nf", nf, "--max-only",
                                  "--packet-size", "128")
            assert code == 0

    def test_no_sustainable_load_is_invalid_argument(self, tmp_path, capsys):
        for mode in ((), ("--max-only",)):
            code, _ = self.run_ok(tmp_path, "--nf", "policer", *mode)
            assert code == 1
            assert "keeps loss under" in capsys.readouterr().err

    def test_max_only_row_is_the_sweep_maximum(self, tmp_path):
        code, path = self.run_ok(tmp_path, "--max-only")
        assert code == 0
        sink = io.StringIO()
        write_csv([run_sweep("identity", 64, 1, 200, trace_length=200)[-1]], sink)
        assert path.read_text() == sink.getvalue()

    def test_pcap_replay(self, tmp_path):
        cap = tmp_path / "trace.pcap"
        cap.write_bytes(pcap_bytes(b"a" * 64, b"b" * 64, b"c" * 64))
        code, path = self.run_ok(tmp_path, "--pcap", str(cap), "--max-only")
        assert code == 0
        assert path.exists()

    def test_pcap_ignores_generator_flags(self, tmp_path):
        # a replay never uses the generated-traffic size, so 0 is not an error
        cap = tmp_path / "trace.pcap"
        cap.write_bytes(pcap_bytes(*(bytes([i]) * 96 for i in range(40))))
        code, path = self.run_ok(tmp_path, "--pcap", str(cap))
        assert code == 0
        want = path.read_text()
        code, path = self.run_ok(tmp_path, "--pcap", str(cap), "--packet-size", "0")
        assert code == 0
        assert path.read_text() == want

    def test_empty_pcap_is_invalid_argument(self, tmp_path, capsys):
        cap = tmp_path / "empty.pcap"
        cap.write_bytes(pcap_bytes())
        for mode in ((), ("--max-only",)):
            code, _ = self.run_ok(tmp_path, "--pcap", str(cap), *mode)
            assert code == 1
            assert "empty" in capsys.readouterr().err

    def test_malformed_pcap_is_invalid_argument(self, tmp_path):
        cap = tmp_path / "bad.pcap"
        cap.write_bytes(b"not a capture")
        code, _ = self.run_ok(tmp_path, "--pcap", str(cap))
        assert code == 1

    def test_missing_pcap_is_io_error(self, tmp_path):
        code, _ = self.run_ok(tmp_path, "--pcap", str(tmp_path / "absent.pcap"))
        assert code == 2

    @pytest.mark.parametrize("outputs", ["0", "9"])
    def test_output_count_out_of_range(self, tmp_path, capsys, outputs):
        assert main(["--csv", str(tmp_path / "out.csv"), "--outputs", outputs]) == 1
        assert "output count must be an integer in [1, 8]" in capsys.readouterr().err

    def test_negative_seed_is_invalid_argument(self, tmp_path, capsys):
        path = tmp_path / "out.csv"
        assert main(["--csv", str(path), "--seed", "-1"]) == 1
        assert "seed" in capsys.readouterr().err
        assert not path.exists()

    def test_invalid_policer_threshold(self, tmp_path, capsys):
        path = tmp_path / "out.csv"
        assert main(["--csv", str(path), "--nf", "policer", "--policer-min-len", "-1",
                     "--packets", "200", "--ring-size", "64"]) == 1
        assert "policer minimum length" in capsys.readouterr().err
        assert not path.exists()

    def test_invalid_ring_size(self, tmp_path):
        path = tmp_path / "out.csv"
        assert main(["--csv", str(path), "--ring-size", "3"]) == 1

    def test_unwritable_csv_is_io_error(self, tmp_path):
        assert main(["--csv", str(tmp_path), "--packets", "200",
                     "--ring-size", "64", "--max-only"]) == 2

    def test_unknown_nf_flag(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["--csv", str(tmp_path / "x.csv"), "--nf", "firewall"])
        assert exc.value.code == 1

    def test_csv_flag_required(self):
        with pytest.raises(SystemExit) as exc:
            main(["--max-only"])
        assert exc.value.code == 1
