"""Agent ring protocol: init, alternation, batching, recycling, forwarding."""

import contextlib
import hashlib
import random
import signal
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 precondition, rule)

from tinyring import (DESC_BYTES, MAX_FRAME, META_DD, META_EOP, META_RS, Agent,
                      Frame, MemEnv, Nic, PipelineStalled, ProtocolViolation,
                      TranslationFault, build_pipeline, forward_trace, gen_traffic,
                      identity, macswap, ownership, policer, ref_init, service_rate)

U64 = struct.Struct("<Q")


def make(ring_size=8, num_outputs=1, **kw):
    return build_pipeline(ring_size, num_outputs, **kw)


def feed_one(nic, agent, payload):
    """Inject one frame and step until the agent picks it up."""
    nic.inject_rx(Frame(payload))
    for _ in range(64):
        nic.step_device(1)
        got = agent.receive()
        if got is not None:
            return got
    raise AssertionError("frame never delivered")


class TestInit:
    def test_register_state(self):
        _, nic, _ = make(8, 1)
        assert nic.reg_read("RDT") == 7
        assert nic.reg_read("RDH") == 0
        assert nic.reg_read("TDH", 0) == 0
        assert nic.reg_read("TDT", 0) == 0

    def test_ring_size_must_be_power_of_two(self):
        env = MemEnv()
        nic = Nic(env, 1)
        with pytest.raises(ValueError):
            Agent(env, nic, 3, 1)

    def test_output_count_bounds(self):
        env = MemEnv()
        with pytest.raises(ValueError):
            Agent(env, Nic(env, 1), 8, 0)

    def test_output_count_matches_device(self):
        env = MemEnv()
        with pytest.raises(ValueError):
            Agent(env, Nic(env, 1), 8, 2)

    @pytest.mark.parametrize("ring_size", [8.0, True])
    def test_non_integer_ring_size_rejected(self, ring_size):
        env = MemEnv()
        with pytest.raises(ValueError, match="ring size"):
            Agent(env, Nic(env, 1), ring_size, 1)
        with pytest.raises(ValueError, match="ring size"):
            build_pipeline(ring_size, 1)

    @pytest.mark.parametrize("outputs", [1.0, True])
    def test_non_integer_output_count_rejected(self, outputs):
        env = MemEnv()
        with pytest.raises(ValueError, match="output count"):
            Agent(env, Nic(env, 1), 8, outputs)
        with pytest.raises(ValueError, match="output count"):
            build_pipeline(8, outputs)

    def test_recycle_period_multiple_of_flush(self):
        for recycle_period in (12, 0, -8):
            env = MemEnv()
            with pytest.raises(ValueError):
                Agent(env, Nic(env, 1), 8, 1, flush_period=8, recycle_period=recycle_period)

    @pytest.mark.parametrize("flush, recycle, bad", [(2.0, 64, "flush"), (True, 64, "flush"),
                                                     (1, 8.0, "recycle"), (1, True, "recycle")])
    def test_non_integer_period_rejected(self, flush, recycle, bad):
        env = MemEnv()
        with pytest.raises(ValueError, match=f"{bad} period"):
            Agent(env, Nic(env, 1), 8, 1, flush_period=flush, recycle_period=recycle)

    def test_tx_rings_mirror_buffer_addrs(self):
        env, nic, agent = make(8, 2)
        for i in range(8):
            rx_addr = U64.unpack_from(env.dma, nic.reg_read("RDBA") + i * DESC_BYTES)[0]
            for tb in (nic.reg_read("TDBA", q) for q in range(2)):
                assert U64.unpack_from(env.dma, tb + i * DESC_BYTES)[0] == rx_addr


class TestRingProtocol:
    def test_receive_nothing(self):
        _, nic, agent = make()
        nic.step_device(4)
        assert agent.receive() is None
        assert agent.receive() is None  # empty polls may repeat freely

    def test_receive_returns_buffer_and_length(self):
        _, nic, agent = make()
        buf, length = feed_one(nic, agent, bytes(range(64)))
        assert length == 64
        assert bytes(buf[:64]) == bytes(range(64))

    def test_double_receive_violates_protocol(self):
        _, nic, agent = make()
        feed_one(nic, agent, b"a" * 64)
        with pytest.raises(ProtocolViolation):
            agent.receive()

    def test_transmit_without_packet(self):
        _, _, agent = make()
        with pytest.raises(ProtocolViolation):
            agent.transmit([64])

    def test_transmit_length_count(self):
        _, nic, agent = make(num_outputs=2)
        feed_one(nic, agent, b"a" * 64)
        with pytest.raises(ValueError):
            agent.transmit([64])

    def test_transmit_oversized_length(self):
        _, nic, agent = make()
        feed_one(nic, agent, b"a" * 64)
        with pytest.raises(ValueError):
            agent.transmit([2049])

    @pytest.mark.parametrize("bad", [64.0, "64", None])
    def test_transmit_non_integer_length(self, bad):
        env, nic, agent = make(num_outputs=2, flush_period=1)
        feed_one(nic, agent, b"n" * 64)
        meta0 = nic.reg_read("TDBA", 0) + 8
        before = U64.unpack_from(env.dma, meta0)[0]
        with pytest.raises(ValueError):
            agent.transmit([64, bad])
        assert U64.unpack_from(env.dma, meta0)[0] == before  # nothing half-filed
        with pytest.raises(ValueError):
            agent.transmit([64, True])  # a bool is not a length
        assert U64.unpack_from(env.dma, meta0)[0] == before
        agent.transmit([64, 1])
        nic.step_device(8)
        assert [f.payload for f in nic.drain_tx(0)] == [b"n" * 64]
        assert [len(f.payload) for f in nic.drain_tx(1)] == [1]

    def test_processor_bool_length_rejected(self):
        # a processor that returns [True] used to emit a 1-byte frame
        _, nic, agent = make()
        nic.inject_rx(Frame(b"b" * 64))
        nic.step_device(1)
        with pytest.raises(ValueError, match="length True"):
            agent.poll(lambda buf, n, outputs: [True])
        agent.transmit([64])  # the packet stayed outstanding
        agent.finish()
        assert [len(f.payload) for f in nic.drain_tx(0)] == [64]

    def test_poll_after_receive_violates_protocol(self):
        _, nic, agent = make()
        feed_one(nic, agent, b"a" * 64)
        with pytest.raises(ProtocolViolation):
            agent.poll(identity())

    def test_processor_error_leaves_packet_outstanding(self):
        _, nic, agent = make(flush_period=1)
        nic.inject_rx(Frame(b"e" * 64))
        nic.step_device(1)

        def boom(buf, length, num_outputs):
            raise RuntimeError("processor failed")

        with pytest.raises(RuntimeError):
            agent.poll(boom)
        assert agent.processed == 0
        with pytest.raises(ProtocolViolation):
            agent.poll(identity())
        agent.transmit([64])  # the caller may still file it
        nic.step_device(4)
        assert agent.processed == 1
        assert [f.payload for f in nic.drain_tx(0)] == [b"e" * 64]

    @pytest.mark.parametrize("flush, recycle", [(1, 1), (2, 4), (8, 64)])
    def test_transmit_after_raising_processor_files_what_poll_files(self, flush, recycle):
        # transmit() files by polling the outstanding packet again; it must
        # leave the arena, the registers, the link and the counters exactly
        # as one poll returning the same lengths does, flushes and recycles
        # included
        def boom(buf, length, num_outputs):
            raise RuntimeError("processor failed")

        def run(by_hand):
            env, nic, agent = make(ring_size=16, num_outputs=2, flush_period=flush,
                                   recycle_period=recycle)
            for k in range(12):
                nic.inject_rx(Frame(bytes([k]) * (64 + k)))
                nic.step_device(2)
                lengths = [64 + k, k % 3 * 16]
                if by_hand:
                    with pytest.raises(RuntimeError):
                        agent.poll(boom)
                    agent.transmit(lengths)
                else:
                    assert agent.poll(lambda buf, length, num_outputs: lengths)
                nic.step_device(1)
            link = nic.link
            return (bytes(env.dma),
                    [nic.reg_read(reg, q) for reg in ("TDH", "TDT") for q in range(2)],
                    nic.reg_read("RDH"), nic.reg_read("RDT"),
                    (link.injected, link.rx_delivered, link.rx_dropped),
                    [[(f.payload, f.inject_time, f.drain_time, f.order) for f in nic.drain_tx(q)]
                     for q in range(2)],
                    (agent.processed, agent._published, agent._rdt_unwrapped, agent._inflight))

        got = run(by_hand=True)
        assert got == run(by_hand=False)
        assert got[-1][0] == 12

    def test_transmit_after_cleared_done_bit(self):
        # transmit() relies on the done bit receive() saw; cleared by hand,
        # it is a protocol violation and the packet stays outstanding
        env, nic, agent = make(flush_period=1)
        feed_one(nic, agent, b"c" * 64)
        U64.pack_into(env.dma, nic.reg_read("RDBA") + 8, 0)
        with pytest.raises(ProtocolViolation, match="done bit was cleared"):
            agent.transmit([64])
        assert agent._inflight
        assert agent.processed == 0
        assert U64.unpack_from(env.dma, nic.reg_read("TDBA", 0) + 8)[0] == 0
        with pytest.raises(ProtocolViolation):
            agent.receive()

    def test_poll_checks_processor_lengths(self):
        env, nic, agent = make(num_outputs=2, flush_period=1)
        nic.inject_rx(Frame(b"p" * 64))
        nic.step_device(1)
        with pytest.raises(ValueError):
            agent.poll(lambda buf, length, num_outputs: [length, 64.0])
        assert U64.unpack_from(env.dma, nic.reg_read("TDBA", 0) + 8)[0] == 0
        with pytest.raises(ProtocolViolation):
            agent.poll(identity())
        agent.transmit([64, 64])
        assert agent.processed == 1

    @pytest.mark.parametrize("call", ["poll", "receive"])
    def test_received_length_above_max_frame_blames_the_descriptor(self, call):
        # a corrupt receive metadata word: done, with a length above MAX_FRAME;
        # a processor that skips the packet used to pass it silently
        env, nic, agent = make(num_outputs=2, flush_period=1)
        nic.inject_rx(Frame(b"a" * 64))
        nic.inject_rx(Frame(b"b" * 64))
        nic.step_device(2)
        assert agent.poll(identity())
        U64.pack_into(env.dma, nic.reg_read("RDBA") + DESC_BYTES + 8,
                      (MAX_FRAME + 1) | META_EOP | META_DD)
        seen = []

        def skip(buf, length, num_outputs):
            seen.append(length)
            return [0] * num_outputs

        message = r"^receive slot 1: the device reports length 2049, above MAX_FRAME \(2048\)$"
        with pytest.raises(ValueError, match=message):
            agent.poll(skip) if call == "poll" else agent.receive()
        assert seen == []
        assert agent.processed == 1
        # nothing was left outstanding: the next poll blames the descriptor again
        with pytest.raises(ValueError, match=message):
            agent.poll(skip)

    def test_forward_one(self):
        _, nic, agent = make(flush_period=1)
        feed_one(nic, agent, b"b" * 64)
        agent.transmit([64])
        nic.step_device(4)
        assert [f.payload for f in nic.drain_tx(0)] == [b"b" * 64]

    def test_zero_length_skips_output(self):
        _, nic, agent = make(flush_period=1)
        feed_one(nic, agent, b"c" * 64)
        agent.transmit([0])
        nic.step_device(4)
        assert nic.drain_tx(0) == []
        assert nic.reg_read("TDH", 0) == 1  # descriptor retired anyway

    def test_per_output_send_decision(self):
        _, nic, agent = make(num_outputs=2, flush_period=1)
        feed_one(nic, agent, b"d" * 64)
        agent.transmit([64, 0])
        nic.step_device(8)
        assert len(nic.drain_tx(0)) == 1
        assert nic.drain_tx(1) == []


class TestBatching:
    def test_tails_published_every_flush_period(self):
        _, nic, agent = make(ring_size=16, num_outputs=2, flush_period=8,
                             recycle_period=64)
        for i in range(7):
            feed_one(nic, agent, bytes([i]) * 64)
            agent.transmit([64, 64])
            assert nic.reg_read("TDT", 0) == 0  # batch not yet published
        feed_one(nic, agent, b"h" * 64)
        agent.transmit([64, 64])
        assert nic.reg_read("TDT", 0) == 8
        assert nic.reg_read("TDT", 1) == 8  # tails move together

    def test_rs_set_once_per_batch(self):
        env, nic, agent = make(ring_size=16, flush_period=8, recycle_period=64)
        for i in range(8):
            feed_one(nic, agent, bytes([i]) * 64)
            agent.transmit([64])
        metas = [U64.unpack_from(env.dma, nic.reg_read("TDBA", 0) + i * DESC_BYTES + 8)[0]
                 for i in range(8)]
        assert [bool(m & META_RS) for m in metas] == [False] * 7 + [True]

    def test_idle_poll_publishes_ragged_batch(self):
        _, nic, agent = make(ring_size=16, flush_period=8, recycle_period=64)
        for i in range(3):
            feed_one(nic, agent, bytes([i]) * 64)
            agent.transmit([64])
        assert nic.reg_read("TDT", 0) == 0
        nic.step_device(1)
        agent.poll(identity())  # comes up empty, publishes the batch
        assert nic.reg_read("TDT", 0) == 3


class TestRecycle:
    def drained_agent(self):
        env, nic, agent = make(ring_size=16, flush_period=1, recycle_period=1024)
        for i in range(8):
            feed_one(nic, agent, bytes([i]) * 64)
            agent.transmit([64])
        while nic.reg_read("TDH", 0) != nic.reg_read("TDT", 0):
            nic.step_device(4)
        return env, nic, agent

    def test_fully_drained_bound(self):
        _, nic, agent = self.drained_agent()
        agent.recycle()
        assert nic.reg_read("RDT") == (agent.processed - 1) % 16

    def test_idempotent_without_progress(self):
        _, nic, agent = self.drained_agent()
        agent.recycle()
        before = nic.reg_read("RDT")
        agent.recycle()
        assert nic.reg_read("RDT") == before

    def test_device_owned_slots_look_fresh(self):
        env, nic, agent = self.drained_agent()
        agent.recycle()
        head, tail = nic.reg_read("RDH"), nic.reg_read("RDT")
        for slot in ownership(head, tail, 16):
            meta = U64.unpack_from(env.dma, nic.reg_read("RDBA") + slot * DESC_BYTES + 8)[0]
            assert meta == 0


class TestReceiveSlotRetirement:
    def test_transmit_clears_done_bit(self):
        env, nic, agent = make(flush_period=1)
        feed_one(nic, agent, b"a" * 64)
        assert U64.unpack_from(env.dma, nic.reg_read("RDBA") + 8)[0] & META_DD
        agent.transmit([64])
        assert U64.unpack_from(env.dma, nic.reg_read("RDBA") + 8)[0] == 0

    def test_minimal_ring_never_sees_phantoms(self):
        # With two slots the tail sits on the processed slot every lap; a
        # stale done bit there would be read back as a bogus new packet.
        _, nic, agent = make(ring_size=2, flush_period=1, recycle_period=1)
        frames = gen_traffic(16, 64, 7)
        assert forward_trace(agent, frames, identity()) == 16
        out = nic.drain_tx(0)
        assert [f.payload for f in out] == [f.payload for f in frames]


class TestRun:
    def test_forwards_in_order(self):
        _, nic, agent = make(ring_size=256)
        frames = gen_traffic(5, 64, 1)
        for f in frames:
            nic.inject_rx(f)
        assert agent.run(identity(), max_packets=5) == 5
        out = nic.drain_tx(0)
        assert [f.payload for f in out] == [f.payload for f in frames]
        assert [f.order for f in out] == [0, 1, 2, 3, 4]

    def test_empty_run(self):
        _, _, agent = make()
        assert agent.run(identity(), max_packets=10) == 0

    def test_burst_of_four_rings(self):
        _, nic, agent = make(ring_size=256)
        for f in gen_traffic(1024, 64, 2):
            nic.inject_rx(f)
        assert agent.run(identity(), max_packets=1024) == 1024
        assert nic.link.rx_dropped == 0
        assert [f.order for f in nic.drain_tx(0)] == list(range(1024))

    def test_stops_at_packet_cap(self):
        _, nic, agent = make(ring_size=64)
        for f in gen_traffic(20, 64, 4):
            nic.inject_rx(f)
        assert agent.run(identity(), max_packets=5) == 5
        assert [f.order for f in nic.drain_tx(0)] == [0, 1, 2, 3, 4]
        assert agent.run(identity(), max_packets=15) == 15
        assert [f.order for f in nic.drain_tx(0)] == list(range(5, 20))
        assert nic.link.rx_dropped == 0

    def test_zero_packet_cap_does_nothing(self):
        _, nic, agent = make(ring_size=16)
        frames = gen_traffic(20, 64, 5)
        assert forward_trace(agent, frames, identity(), max_packets=0) == 0
        assert (nic.now, nic.link.injected) == (0, 0)
        for f in frames:
            nic.inject_rx(f)
        assert agent.run(identity(), max_packets=0) == 0
        assert nic.now == 0
        assert len(nic.link.rx_pending) == 20

    def test_negative_packet_cap_rejected(self):
        _, nic, agent = make(ring_size=16)
        frames = gen_traffic(20, 64, 5)
        with pytest.raises(ValueError):
            forward_trace(agent, frames, identity(), max_packets=-1)
        for f in frames:
            nic.inject_rx(f)
        with pytest.raises(ValueError):
            agent.run(identity(), max_packets=-1)
        assert nic.now == 0
        assert len(nic.link.rx_pending) == 20

    @pytest.mark.parametrize("cap", [2.5, True])
    def test_non_integer_packet_cap_rejected(self, cap):
        # 2.5 never equals the count, so it capped nothing; True capped at 1
        _, nic, agent = make(ring_size=16)
        with pytest.raises(ValueError, match="max_packets"):
            forward_trace(agent, gen_traffic(50, 64, 5), identity(), max_packets=cap)
        assert (nic.now, nic.link.injected) == (0, 0)

    @pytest.mark.parametrize("budget", [0, -1, 1.5, True])
    def test_invalid_budget_rejected(self, budget):
        _, nic, agent = make(ring_size=16)
        frames = gen_traffic(20, 64, 5)
        with pytest.raises(ValueError, match="device budget"):
            forward_trace(agent, frames, identity(), budget)
        with pytest.raises(ValueError, match="device budget"):
            forward_trace(agent, frames, identity(), budget,
                          due=list(range(20)), deadline=100)
        assert (nic.now, nic.link.injected) == (0, 0)
        for f in frames:
            nic.inject_rx(f)
        with pytest.raises(ValueError, match="device budget"):
            agent.run(identity(), max_packets=20, device_budget=budget)
        assert nic.now == 0
        assert len(nic.link.rx_pending) == 20

    def test_finish_rejects_invalid_budget(self):
        _, nic, agent = make(ring_size=16)
        feed_one(nic, agent, b"f" * 64)
        agent.transmit([64])
        now, tail = nic.now, nic.reg_read("TDT", 0)
        for budget in (0, -1, 1.5, True):
            with pytest.raises(ValueError, match="device budget"):
                agent.finish(budget)
        assert (nic.now, nic.reg_read("TDT", 0)) == (now, tail)
        agent.finish()
        assert [f.payload for f in nic.drain_tx(0)] == [b"f" * 64]

    @pytest.mark.parametrize("deadline", [15.5, True, -1])
    def test_invalid_deadline_rejected(self, deadline):
        # the clock jump used to make 15.5 the device clock
        _, nic, agent = make(ring_size=16)
        with pytest.raises(ValueError, match="deadline"):
            forward_trace(agent, gen_traffic(4, 64, 5), identity(),
                          due=[0, 10, 20, 30], deadline=deadline)
        assert (nic.now, nic.link.injected) == (0, 0)

    @pytest.mark.parametrize("length", [4, 6])
    def test_due_length_must_match_frames(self, length):
        # checked before injecting: a short due would fail mid-trace and a
        # long one would be cut silently
        _, nic, agent = make(ring_size=16)
        with pytest.raises(ValueError, match="due"):
            forward_trace(agent, gen_traffic(5, 64, 5), identity(),
                          due=list(range(length)))
        assert (nic.now, nic.link.injected) == (0, 0)

    @pytest.mark.parametrize("due,now,stamps", [
        ([0, 10.5, 7], 0, [0, None, None]),
        ([0, True, 2], 0, [0, None, None]),
        ([0, 10, 7], 10, [0, 10, None]),
        ([0.0, 1, 2], 0, [None, None, None]),
    ], ids=["float", "bool", "decreasing", "first"])
    def test_invalid_due_entry_rejected(self, due, now, stamps):
        # 10.5 used to become the device clock and a decreasing entry was
        # injected late; the frames before the bad entry stay injected
        _, nic, agent = make(ring_size=16)
        frames = gen_traffic(3, 64, 5)
        with pytest.raises(ValueError, match=r"due\["):
            forward_trace(agent, frames, identity(), due=due)
        assert nic.now == now
        assert [f.inject_time for f in frames] == stamps
        assert nic.link.injected == len(stamps) - stamps.count(None)

    def test_buffer_set_is_fixed(self):
        _, nic, agent = make(ring_size=64)
        before = [id(b) for b in agent.buffers]
        for f in gen_traffic(200, 64, 3):
            nic.inject_rx(f)
        agent.run(identity(), max_packets=200)
        assert [id(b) for b in agent.buffers] == before


class TestFlowControlledForwarding:
    @pytest.mark.parametrize("ring_size", [2, 8, 64])
    @pytest.mark.parametrize("flush,recycle", [(1, 8), (8, 64)])
    def test_small_rings_never_drop(self, ring_size, flush, recycle):
        _, nic, agent = make(ring_size=ring_size, flush_period=flush,
                             recycle_period=recycle)
        frames = gen_traffic(4 * ring_size, 64, ring_size)
        n = forward_trace(agent, frames, identity())
        assert n == 4 * ring_size
        assert nic.link.rx_dropped == 0
        assert [f.order for f in nic.drain_tx(0)] == list(range(4 * ring_size))

    def test_tails_stay_synchronized(self):
        _, nic, agent = make(ring_size=8, num_outputs=4, flush_period=8)
        forward_trace(agent, gen_traffic(100, 64, 9), identity())
        tails = {nic.reg_read("TDT", q) for q in range(4)}
        assert len(tails) == 1


# the end of what PipelineStalled says when queue 1 alone lags processed,
# stopped or with its head write-back lost
QUEUE_1_LAGS = r": queue 1's head write-back reads slot \d, not slot \d \(processed \d+\), "
QUEUE_1_STOPPED = (QUEUE_1_LAGS
                   + r"and its device head has not reached its tail \(a stopped queue\)$")
QUEUE_1_LOST = (QUEUE_1_LAGS
                + r"and its device head has reached its tail \(a lost head write-back\)$")


class TestStalledPipeline:
    """A stopped transmit queue blocks recycling: the drivers must say so."""

    def stopped(self):
        _, nic, agent = make(ring_size=8, num_outputs=2)
        nic.reg_write("TXEN", 0, 1)
        return nic, agent

    def test_flow_controlled(self):
        _, agent = self.stopped()
        with pytest.raises(PipelineStalled, match=QUEUE_1_STOPPED):
            forward_trace(agent, gen_traffic(32, 64, 1), identity())

    def test_timed(self):
        _, agent = self.stopped()
        with pytest.raises(PipelineStalled, match=QUEUE_1_STOPPED):
            forward_trace(agent, gen_traffic(32, 64, 1), identity(),
                          due=[10 * k for k in range(32)], deadline=400)

    def test_run(self):
        nic, agent = self.stopped()
        for f in gen_traffic(32, 64, 1):
            nic.inject_rx(f)
        with pytest.raises(PipelineStalled, match=QUEUE_1_STOPPED):
            agent.run(identity(), max_packets=32)

    def test_finish(self):
        nic, agent = self.stopped()
        feed_one(nic, agent, b"s" * 64)
        agent.transmit([64, 64])
        with pytest.raises(PipelineStalled, match=QUEUE_1_STOPPED):
            agent.finish()


class StuckHeadNic(Nic):
    """A faulty device whose transmit heads never move: every step retires
    the same descriptor again, and no head write-back ever changes."""

    def step_device(self, max_work=1):
        heads = [ring.head for ring in self._rings[1:]]
        try:
            return super().step_device(max_work)
        finally:
            for ring, head in zip(self._rings[1:], heads):
                ring.head = head


@contextlib.contextmanager
def alarm(seconds):
    """Fail with TimeoutError instead of hanging past seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("on_wire", [0, 1])
def test_finish_bounds_a_device_that_never_drains(on_wire):
    # two packets published, RS on the second; the device re-retires the
    # first forever. Zero lengths keep it from emitting, so without the
    # bound finish() spins in place until the alarm.
    _, nic, agent = make(ring_size=8)
    for payload in (b"a" * 64, b"b" * 64):
        nic.inject_rx(Frame(payload))
    nic.step_device(2)
    for _ in range(2):
        assert agent.poll(lambda buf, length, num_outputs: [0])
    for _ in range(on_wire):
        nic.inject_rx(Frame(b"w" * 64))
    nic.__class__ = StuckHeadNic
    steps = nic.now
    with alarm(10), pytest.raises(PipelineStalled,
                                  match="can never drain: queue 0's head write-back reads "
                                        "slot 0, not slot 2"):
        agent.finish()
    # the bound is the two unretired descriptors and the frames on the wire
    assert nic.now - steps == 3 + on_wire


def assert_frames_accounted(link):
    assert link.injected == link.rx_delivered + link.rx_dropped + len(link.rx_pending)


class TestFaultInjection:
    """A fault injected into a running pipeline ends in a typed error at a
    fixed step, not a hang, and every injected frame stays accounted for."""

    def lost_writeback(self):
        # queue 1's head write-back goes nowhere, so the agent never sees
        # that queue retire anything and cannot recycle
        _, nic, agent = make(ring_size=8, num_outputs=2)
        nic.reg_write("TDWBA", 0, 1)
        return nic, agent

    def test_lost_writeback_flow_controlled(self):
        nic, agent = self.lost_writeback()
        with pytest.raises(PipelineStalled, match=f"step 24: .*{QUEUE_1_LOST}"):
            forward_trace(agent, gen_traffic(32, 64, 1), identity())
        assert agent.processed == 7
        assert_frames_accounted(nic.link)

    def test_lost_writeback_timed(self):
        nic, agent = self.lost_writeback()
        with pytest.raises(PipelineStalled, match=f"step 393: .*{QUEUE_1_LOST}"):
            forward_trace(agent, gen_traffic(40, 64, 1), identity(),
                          due=[10 * k for k in range(40)], deadline=400)
        assert agent.processed == 7
        assert_frames_accounted(nic.link)

    def test_lost_writeback_run(self):
        nic, agent = self.lost_writeback()
        for f in gen_traffic(3, 64, 1):
            nic.inject_rx(f)
        with pytest.raises(PipelineStalled, match=f"step 10: .*{QUEUE_1_LOST}"):
            agent.run(identity(), max_packets=3)
        assert agent.processed == 3
        assert_frames_accounted(nic.link)

    @pytest.mark.parametrize("timed", [False, True], ids=["flow", "timed"])
    def test_receive_buffer_past_arena(self, timed):
        env, nic, agent = make(ring_size=8)
        slot3 = nic.reg_read("RDBA") + 3 * DESC_BYTES
        U64.pack_into(env.dma, slot3, env.arena_size + 100)
        frames = gen_traffic(8, 64, 2)
        due = list(range(8)) if timed else None
        with pytest.raises(TranslationFault, match="receive slot 3"):
            forward_trace(agent, frames, identity(), due=due, deadline=100 if timed else None)
        link = nic.link
        assert link.rx_delivered == 3
        assert link.rx_pending[0] is frames[3]
        assert_frames_accounted(link)


# Distinct payload objects emitted when flow-controlled identity forwards
# 200 frames each of 64, 576 and 1500 bytes, per (ring, outputs, budget).
# Mirrored completions of one buffer within one device step share a payload,
# which the spec device cannot see. A change to the service loop may lower a
# count but not raise it: a rise means mirrored outputs stopped sharing.
SHARED_PAYLOADS = {(64, 4, 5): 605, (64, 4, 3): 1200, (8, 2, 3): 750,
                   (256, 3, 4): 604, (16, 4, 1): 2400}


@pytest.mark.parametrize("ring,outputs,budget", sorted(SHARED_PAYLOADS))
def test_mirrored_payloads_shared(ring, outputs, budget):
    _, nic, agent = make(ring, outputs)
    frames = [f for size in (64, 576, 1500) for f in gen_traffic(200, size, size)]
    forward_trace(agent, frames, identity(), budget)
    sent = [f.payload for f in frames]
    payloads = []
    for q in range(outputs):
        out = [f.payload for f in nic.drain_tx(q)]
        assert out == sent
        payloads += out
    assert len({id(p) for p in payloads}) <= SHARED_PAYLOADS[ring, outputs, budget]


# sha256 of emission_digest's record for each injection mode. Any change to
# the round-robin order, RS timing, drops or stamps moves them; only a
# deliberate change of device or agent behaviour may re-record them.
EMISSION_DIGESTS = {
    "flow": "bd8ff5de59f8352cc013a4a6d8d7f839972ea586bb22736743b7b64b553ace2f",
    "timed": "e72e6ccc77ee10ad0c041842fce610a01e2373e04ac2e21fbf742390c3d4090e",
    "run": "3c13ec7e82da3ed241d3e9ce756ed051a0be478da3beffd676d24853170b2de3",
}


def emission_digest(mode):
    """Hash everything observable after policer(100) forwards IMIX-sized
    frames over 2-4 outputs with device budgets 1-5: every output's
    (order, inject_time, drain_time, payload), the register file, the link
    counters, the clock and the whole DMA arena."""
    h = hashlib.sha256()
    for outputs in (2, 3, 4):
        for budget in range(1, 6):
            ring = (8, 16, 64)[budget % 3]
            flush, recycle = ((1, 8), (8, 64), (4, 8), (2, 16))[(outputs + budget) % 4]
            env, nic, agent = make(ring, outputs, flush_period=flush, recycle_period=recycle)
            rng = random.Random(100 * outputs + budget)
            frames = [Frame(rng.randbytes(size)) for size in
                      rng.choices((64, 576, 1500), weights=(7, 4, 1), k=240)]
            if mode == "flow":
                forward_trace(agent, frames, policer(100), budget)
            elif mode == "timed":
                load = 2 * service_rate(budget, outputs)  # overload: the ring drops
                due = [k * 1000 // load for k in range(len(frames))]
                forward_trace(agent, frames, policer(100), budget, due=due,
                              deadline=due[-1] + 40)
            else:
                for f in frames:
                    nic.inject_rx(f)
                agent.run(policer(100), max_packets=len(frames), device_budget=budget)
            regs = [nic.reg_read(r) for r in ("RDBA", "RDLEN", "RDH", "RDT", "RXEN")]
            regs += [nic.reg_read(r, q) for q in range(outputs)
                     for r in ("TDBA", "TDLEN", "TDH", "TDT", "TXEN", "TDWBA")]
            link = nic.link
            h.update(repr((outputs, budget, nic.now, regs, link.injected,
                           link.rx_delivered, link.rx_dropped, agent.processed)).encode())
            for q in range(outputs):
                for f in nic.drain_tx(q):
                    h.update(repr((q, f.order, f.inject_time, f.drain_time,
                                   f.payload)).encode())
            h.update(env.dma)
    return h.hexdigest()


@pytest.mark.parametrize("mode", sorted(EMISSION_DIGESTS))
def test_emission_digest(mode):
    assert emission_digest(mode) == EMISSION_DIGESTS[mode]


traces = st.lists(st.binary(min_size=12, max_size=256), min_size=1, max_size=60)


@settings(max_examples=20, deadline=None)
@given(trace=traces, data=st.data())
def test_differential_against_reference(trace, data):
    ring_size = data.draw(st.sampled_from([8, 64]))
    num_outputs = data.draw(st.sampled_from([1, 2]))
    flush, recycle = data.draw(st.sampled_from([(1, 8), (8, 64)]))
    nf = data.draw(st.sampled_from(["identity", "macswap", "policer"]))
    factory = {"identity": identity, "macswap": macswap,
               "policer": lambda: policer(100)}[nf]
    _, nic, agent = make(ring_size=ring_size, num_outputs=num_outputs,
                         flush_period=flush, recycle_period=recycle)
    forward_trace(agent, [Frame(p) for p in trace], factory())
    want = ref_init(4, num_outputs, factory()).process_trace([Frame(p) for p in trace])
    for q in range(num_outputs):
        assert [f.payload for f in nic.drain_tx(q)] == want[q]


def test_long_mixed_trace_differential():
    rng = random.Random(4242)
    trace = [Frame(rng.randbytes(rng.randint(12, 2048))) for _ in range(800)]
    _, nic, agent = make(ring_size=8, num_outputs=2)
    forward_trace(agent, [Frame(f.payload) for f in trace], macswap(), device_budget=3)
    want = ref_init(8, 2, macswap()).process_trace(trace)
    for q in range(2):
        assert [f.payload for f in nic.drain_tx(q)] == want[q]


NF_FACTORIES = {"identity": identity, "macswap": macswap, "policer": lambda: policer(100)}


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_timed_trace_resumes_across_deadline_segments(data):
    # forward_trace over consecutive deadline segments, each resuming with
    # the frames not yet injected, ends exactly where one call ends
    outputs = data.draw(st.integers(1, 4), label="outputs")
    budget = data.draw(st.integers(1, 3), label="budget")
    ring = data.draw(st.sampled_from([2, 8, 64]), label="ring")
    nf = data.draw(st.sampled_from(sorted(NF_FACTORIES)), label="nf")
    sizes = data.draw(st.lists(st.sampled_from([64, 576, 1500]), min_size=1, max_size=80),
                      label="sizes")
    load = data.draw(st.integers(50, 2 * service_rate(budget, outputs)), label="load")
    segment = data.draw(st.integers(1, 300), label="segment")
    n = len(sizes)
    due = [k * 1000 // load for k in range(n)]
    deadline = due[-1] + data.draw(st.integers(1, 100), label="drain")
    rng = random.Random(n)
    payloads = [rng.randbytes(size) for size in sizes]

    def run(segment):
        _, nic, agent = make(ring, outputs)
        frames = [Frame(p) for p in payloads]
        processor = NF_FACTORIES[nf]()
        link = nic.link
        if segment is None:
            forward_trace(agent, frames, processor, budget, due=due, deadline=deadline)
        else:
            # forward_trace's own stop test, checked where each segment ends
            while nic.now < deadline and not (
                    link.injected == n and not link.rx_pending
                    and agent.processed == link.rx_delivered and agent.quiescent()):
                k = link.injected
                forward_trace(agent, frames[k:], processor, budget, due=due[k:],
                              deadline=min(nic.now + segment, deadline))
        return (nic.now, agent.processed, link.injected, link.rx_delivered,
                link.rx_dropped, [[(f.order, f.inject_time, f.drain_time, f.payload)
                                   for f in nic.drain_tx(q)] for q in range(outputs)])

    assert run(segment) == run(None)


def plain_forward(agent, frames, processor, budget, due, deadline):
    """forward_trace's timed mode without its clock jumps: every step is run."""
    nic = agent.nic
    link = nic.link
    n = len(frames)
    k = count = 0
    while deadline is None or nic.now < deadline:
        while k < n and due[k] <= nic.now:
            nic.inject_rx(frames[k])
            k += 1
        nic.step_device(budget)
        count += agent.poll(processor)
        if (k == n and not link.rx_pending and agent.processed == link.rx_delivered
                and agent.quiescent()):
            break
    return count


# the example count is left to the profile, so CI's deep pass runs ten times more
@settings(deadline=None)
@given(data=st.data())
def test_forward_trace_matches_plain_loop(data):
    # bursts separated by long gaps: the jump over a quiescent gap and the
    # jump after two dead steps must both land where stepping one by one does
    outputs = data.draw(st.integers(1, 4), label="outputs")
    budget = data.draw(st.integers(1, 4), label="budget")
    ring = data.draw(st.sampled_from([2, 8, 64]), label="ring")
    flush, recycle = data.draw(st.sampled_from([(1, 8), (8, 64), (2, 4)]), label="periods")
    nf = data.draw(st.sampled_from(sorted(NF_FACTORIES)), label="nf")
    bursts = data.draw(st.lists(st.tuples(st.integers(0, 400), st.integers(1, 12),
                                          st.integers(0, 3)), min_size=1, max_size=6),
                       label="bursts (gap, frames, spacing)")
    due = []
    t = 0
    for gap, count, spacing in bursts:
        t += gap
        for _ in range(count):
            due.append(t)
            t += spacing
    deadline = data.draw(st.none() | st.integers(1, due[-1] + 200), label="deadline")
    rng = random.Random(len(due))
    payloads = [rng.randbytes(rng.choice((64, 576, 1500))) for _ in due]

    def run(loop):
        _, nic, agent = make(ring, outputs, flush_period=flush, recycle_period=recycle)
        count = loop(agent, [Frame(p) for p in payloads], NF_FACTORIES[nf](), budget,
                     due=due, deadline=deadline)
        link = nic.link
        regs = [nic.reg_read(r) for r in ("RDH", "RDT")]
        regs += [nic.reg_read(r, q) for q in range(outputs) for r in ("TDH", "TDT")]
        return (count, nic.now, agent.processed, regs, link.injected, link.rx_delivered,
                link.rx_dropped, [[(f.order, f.inject_time, f.drain_time, f.payload)
                                   for f in nic.drain_tx(q)] for q in range(outputs)])

    assert run(forward_trace) == run(plain_forward)


def test_stalled_timed_trace_runs_every_frame_first():
    # A stopped queue leaves the pipeline short of quiescence, so only the
    # two-dead-steps rule moves the clock: it must still inject each frame
    # at its step and do all the plain loop does, and raise only once no
    # frame is left.
    due = [97 * k for k in range(24)]

    def run(loop):
        _, nic, agent = make(8, 2)
        nic.reg_write("TXEN", 0, 1)
        loop(agent, gen_traffic(24, 64, 1), identity(), 1, due=due, deadline=due[-1] + 100)
        link = nic.link
        return (agent.processed, nic.reg_read("RDT"), nic.reg_read("TDT", 0),
                link.injected, link.rx_delivered, link.rx_dropped,
                [(f.order, f.inject_time, f.drain_time) for f in nic.drain_tx(0)])

    def stalls(*args, **kw):
        with pytest.raises(PipelineStalled):
            forward_trace(*args, **kw)

    got = run(stalls)
    assert got == run(plain_forward)
    assert got[3:6] == (24, 7, 17)  # injected, delivered, dropped


class RingMachine(RuleBasedStateMachine):
    """Random interleavings of injection, device steps, polls, packets
    processed by hand, recycles and finish() on one pipeline, checked
    against the ring invariants and the reference pipeline after every
    rule."""

    @initialize(ring=st.sampled_from([2, 4, 8, 16, 64]), outputs=st.integers(1, 3),
                flush=st.sampled_from([1, 2, 4, 8]), laps=st.integers(1, 4),
                nf=st.sampled_from(sorted(NF_FACTORIES)))
    def build(self, ring, outputs, flush, laps, nf):
        self.env, self.nic, self.agent = build_pipeline(ring, outputs, flush, flush * laps)
        self.factory = NF_FACTORIES[nf]
        self.processor = self.factory()
        self.payloads = []
        self.emitted = [[] for _ in range(outputs)]

    def expected(self):
        """Reference outputs for the packets the agent has processed so far."""
        frames = [Frame(p) for p in self.payloads[:self.agent.processed]]
        return ref_init(4, self.agent.num_outputs, self.factory()).process_trace(frames)

    @precondition(lambda self: not self.nic.link.rx_pending
                  and self.nic.reg_read("RDH") != self.nic.reg_read("RDT"))
    @rule(payload=st.binary(min_size=12, max_size=128))
    def inject(self, payload):
        self.nic.inject_rx(Frame(payload))
        self.payloads.append(payload)

    @rule(budget=st.integers(1, 4))
    def step(self, budget):
        self.nic.step_device(budget)

    @rule()
    def poll(self):
        agent = self.agent
        if not agent.poll(self.processor):
            # forward_trace's end condition reads quiescence off the receive
            # tail once an empty poll has recycled
            at_bound = agent._rdt_unwrapped == agent.processed - 1 + agent.ring_size
            assert agent.quiescent() == at_bound

    @rule()
    def by_hand(self):
        # the split protocol: receive, the processor run by the caller, transmit
        got = self.agent.receive()
        if got is not None:
            buffer, length = got
            self.agent.transmit(self.processor(buffer, length, self.agent.num_outputs))

    @rule()
    def recycle(self):
        self.agent.recycle()

    @rule()
    def finish(self):
        self.agent.finish()
        self.collect()
        assert self.emitted == self.expected()
        for q in range(self.agent.num_outputs):
            (wb,) = struct.unpack_from("<I", self.env.dma, self.nic.reg_read("TDWBA", q))
            assert wb == self.nic.reg_read("TDT", q)

    def collect(self):
        for q, out in enumerate(self.emitted):
            out.extend(f.payload for f in self.nic.drain_tx(q))

    @invariant()
    def device_owned_rx_slots_are_fresh(self):
        agent, nic = self.agent, self.nic
        for slot in ownership(nic.reg_read("RDH"), nic.reg_read("RDT"), agent.ring_size):
            assert U64.unpack_from(self.env.dma, nic.reg_read("RDBA") + slot * DESC_BYTES + 8)[0] == 0

    @invariant()
    def counters_ordered(self):
        a = self.agent
        assert a._published <= a.processed <= a._rdt_unwrapped <= a.processed + a.ring_size - 1
        assert self.nic.link.rx_dropped == 0

    @invariant()
    def quiescent_iff_every_queue_drained_to_processed(self):
        # quiescent() reads only the head write-back; the registers must agree
        agent, nic = self.agent, self.nic
        tail = agent.processed & (agent.ring_size - 1)
        drained = all(nic.reg_read("TDH", q) == nic.reg_read("TDT", q) == tail
                      for q in range(agent.num_outputs))
        assert agent.quiescent() == drained

    @invariant()
    def receive_room_follows_from_counters(self):
        # forward_trace's flow control reads the counters, not RDH and RDT
        agent, nic = self.agent, self.nic
        room = nic.reg_read("RDH") != nic.reg_read("RDT")
        assert room == (nic.link.rx_delivered != agent._rdt_unwrapped)

    @invariant()
    def outputs_are_reference_prefixes(self):
        self.collect()
        for got, want in zip(self.emitted, self.expected()):
            assert got == want[:len(got)]


# three times the profile's example count: 300 in tier-1, 3000 under
# --hypothesis-profile=deep
RingMachine.TestCase.settings = settings(max_examples=3 * settings.default.max_examples,
                                         stateful_step_count=60, deadline=None)
TestRingMachine = RingMachine.TestCase
