"""Agent ring protocol: init, alternation, batching, recycling, forwarding."""

import hashlib
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 precondition, rule)

from tinyring import (DESC_BYTES, META_DD, META_RS, Agent, Frame, MemEnv, Nic,
                      PipelineStalled, ProtocolViolation, build_pipeline,
                      forward_trace, gen_traffic, identity, macswap, ownership,
                      policer, ref_init, service_rate)

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
        agent.transmit([64, True])  # bool is an int
        nic.step_device(8)
        assert [f.payload for f in nic.drain_tx(0)] == [b"n" * 64]
        assert [len(f.payload) for f in nic.drain_tx(1)] == [1]

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

    @pytest.mark.parametrize("length", [4, 6])
    def test_due_length_must_match_frames(self, length):
        # checked before injecting: a short due would fail mid-trace and a
        # long one would be cut silently
        _, nic, agent = make(ring_size=16)
        with pytest.raises(ValueError, match="due"):
            forward_trace(agent, gen_traffic(5, 64, 5), identity(),
                          due=list(range(length)))
        assert (nic.now, nic.link.injected) == (0, 0)

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


class TestStalledPipeline:
    """A stopped transmit queue blocks recycling: the drivers must say so."""

    def stopped(self):
        _, nic, agent = make(ring_size=8, num_outputs=2)
        nic.reg_write("TXEN", 0, 1)
        return nic, agent

    def test_flow_controlled(self):
        _, agent = self.stopped()
        with pytest.raises(PipelineStalled):
            forward_trace(agent, gen_traffic(32, 64, 1), identity())

    def test_timed(self):
        _, agent = self.stopped()
        with pytest.raises(PipelineStalled):
            forward_trace(agent, gen_traffic(32, 64, 1), identity(),
                          due=[10 * k for k in range(32)], deadline=400)

    def test_run(self):
        nic, agent = self.stopped()
        for f in gen_traffic(32, 64, 1):
            nic.inject_rx(f)
        with pytest.raises(PipelineStalled):
            agent.run(identity(), max_packets=32)

    def test_finish(self):
        nic, agent = self.stopped()
        feed_one(nic, agent, b"s" * 64)
        agent.transmit([64, 64])
        with pytest.raises(PipelineStalled):
            agent.finish()


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


class RingMachine(RuleBasedStateMachine):
    """Random interleavings of injection, device steps, polls, recycles and
    finish() on one pipeline, checked against the ring invariants and the
    reference pipeline after every rule."""

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
        self.agent.poll(self.processor)

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


RingMachine.TestCase.settings = settings(max_examples=300, stateful_step_count=60,
                                         deadline=None)
TestRingMachine = RingMachine.TestCase
