"""Device model: ownership law, register file, stepping, conservation.

These tests program rings through raw register writes on purpose, without
the agent, so the device contract is pinned down independently.
"""

import dataclasses
import os
import random
import struct
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tinyring
from tinyring import (DESC_BYTES, MAX_FRAME, META_DD, META_LEN_MASK, META_RS,
                      Frame, InvalidRegisterError, MemEnv, Nic, NotReadyError,
                      RegisterWriteFault, TranslationFault, ownership)

U64 = struct.Struct("<Q")
U32 = struct.Struct("<I")


def test_big_endian_host_refuses_import():
    # descriptor and write-back words go through native-order memoryview casts
    src = os.path.dirname(os.path.dirname(os.path.abspath(tinyring.__file__)))
    code = "import sys; sys.byteorder = 'big'; import tinyring"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.returncode != 0
    assert "ImportError: tinyring needs a little-endian host" in run.stderr


def walk_ownership(head, tail, length):
    """Brute-force oracle: walk from head, incrementing mod length, to tail."""
    owned = set()
    i = head
    while i != tail:
        owned.add(i)
        i = (i + 1) % length
    return owned


class TestOwnership:
    def test_head_one_tail_five(self):
        assert ownership(1, 5, 8) == {1, 2, 3, 4}

    def test_empty_interval(self):
        assert ownership(3, 3, 8) == set()

    def test_wraparound(self):
        assert ownership(6, 2, 8) == walk_ownership(6, 2, 8) == {6, 7, 0, 1}

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ownership(8, 0, 8)
        with pytest.raises(ValueError):
            ownership(0, 8, 8)
        with pytest.raises(ValueError):
            ownership(0, 0, 0)

    @pytest.mark.parametrize("length", [2.0, True])
    def test_non_integer_length_rejected(self, length):
        with pytest.raises(ValueError, match="ring length"):
            ownership(0, 0, length)

    @given(length=st.sampled_from([2, 4, 8, 16, 32, 64, 256]), data=st.data())
    def test_matches_walk(self, length, data):
        head = data.draw(st.integers(min_value=0, max_value=length - 1))
        tail = data.draw(st.integers(min_value=0, max_value=length - 1))
        assert ownership(head, tail, length) == walk_ownership(head, tail, length)


def rx_ring(env, nic, size=8, nbufs=None):
    """Program a receive ring by hand; returns (ring region, buffer region)."""
    ring = env.allocate_dma(size * DESC_BYTES)
    bufs = env.allocate_dma((nbufs or size) * MAX_FRAME)
    for i in range(size):
        U64.pack_into(env.dma, ring.phys_base + i * DESC_BYTES,
                      bufs.phys_base + i * MAX_FRAME)
    nic.reg_write("RDBA", ring.phys_base)
    nic.reg_write("RDLEN", size)
    nic.reg_write("RDT", size - 1)
    nic.reg_write("RXEN", 1)
    return ring, bufs


def tx_ring(env, nic, size=8, queue=0, wba=False):
    ring = env.allocate_dma(size * DESC_BYTES)
    bufs = env.allocate_dma(size * MAX_FRAME)
    nic.reg_write("TDBA", ring.phys_base, queue)
    nic.reg_write("TDLEN", size, queue)
    shadow = None
    if wba:
        shadow = env.allocate_dma(4)
        nic.reg_write("TDWBA", shadow.phys_base, queue)
    nic.reg_write("TXEN", 1, queue)
    return ring, bufs, shadow


class TestRegisters:
    @pytest.mark.parametrize("queues", [0, 9, 1.0, True])
    def test_queue_count_range(self, queues):
        with pytest.raises(ValueError, match="transmit queue count"):
            Nic(MemEnv(), queues)

    def test_tail_echo(self):
        env = MemEnv()
        nic = Nic(env)
        rx_ring(env, nic)
        nic.reg_write("RDT", 5)
        assert nic.reg_read("RDT") == 5

    def test_head_reset_value(self):
        assert Nic(MemEnv()).reg_read("TDH", 0) == 0

    def test_unknown_queue(self):
        with pytest.raises(InvalidRegisterError):
            Nic(MemEnv(), 2).reg_read("TDT", 7)

    def test_unknown_register(self):
        with pytest.raises(InvalidRegisterError):
            Nic(MemEnv()).reg_read("EICR")

    def test_rx_register_is_queue_zero_only(self):
        with pytest.raises(InvalidRegisterError):
            Nic(MemEnv(), 2).reg_read("RDT", 1)

    def test_head_write_faults_after_enable(self):
        env = MemEnv()
        nic = Nic(env)
        nic.reg_write("RDH", 3)  # fine before enable
        rx_ring(env, nic)
        with pytest.raises(RegisterWriteFault):
            nic.reg_write("RDH", 0)

    def test_tx_head_write_faults_after_enable(self):
        env = MemEnv()
        nic = Nic(env)
        tx_ring(env, nic)
        with pytest.raises(RegisterWriteFault):
            nic.reg_write("TDH", 1, 0)

    def test_tail_beyond_ring_rejected(self):
        env = MemEnv()
        nic = Nic(env)
        rx_ring(env, nic, size=8)
        with pytest.raises(ValueError):
            nic.reg_write("RDT", 8)

    @pytest.mark.parametrize("reg, queue", [
        *((reg, 0) for reg in ("RDBA", "RDLEN", "RDH", "RDT", "RXEN")),
        *((reg, q) for reg in ("TDBA", "TDLEN", "TDH", "TDT", "TDWBA", "TXEN")
          for q in (0, 1)),
    ])
    def test_register_echo(self, reg, queue):
        # every register reads back what was written before the enable
        nic = Nic(MemEnv(), 2)
        nic.reg_write(reg[0] + "DLEN", 8, queue)  # so tails and the enable are valid
        value = {"DBA": 0x1000, "DLEN": 16, "DH": 3, "DT": 5, "DWBA": 0x40,
                 "XEN": 1}[reg[1:]]
        nic.reg_write(reg, value, queue)
        assert nic.reg_read(reg, queue) == value

    @pytest.mark.parametrize("reg, queue", [
        ("TDT", -1), ("RDT", -1), ("RDT", 1), ("RXEN", 1), ("TDT", 2),
        ("TDWBA", 2), ("EICR", 0),
    ])
    def test_invalid_register_keys(self, reg, queue):
        nic = Nic(MemEnv(), 2)
        with pytest.raises(InvalidRegisterError):
            nic.reg_read(reg, queue)
        with pytest.raises(InvalidRegisterError):
            nic.reg_write(reg, 0, queue)

    @pytest.mark.parametrize("reg, value", [("DLEN", 6), ("DBA", 16)])
    def test_geometry_write_faults_after_enable(self, reg, value):
        # an enabled ring's geometry was validated at enable time; a later
        # write would let the device DMA through unchecked values
        env = MemEnv()
        nic = Nic(env, 2)
        rx_ring(env, nic)
        tx_ring(env, nic, queue=1)
        with pytest.raises(RegisterWriteFault):
            nic.reg_write("R" + reg, value)
        with pytest.raises(RegisterWriteFault):
            nic.reg_write("T" + reg, value, 1)
        assert nic.reg_read("RDLEN") == nic.reg_read("TDLEN", 1) == 8

    @pytest.mark.parametrize("reg, value", [
        ("RDBA", 1 << 32), ("TDT", -1),      # not a 32-bit value
        ("TDWBA", 0x402), ("TDWBA", 4096),   # misaligned; word past the arena
    ])
    def test_register_value_rejected(self, reg, value):
        nic = Nic(MemEnv(arena_size=4096))
        with pytest.raises(ValueError):
            nic.reg_write(reg, value)
        assert nic.reg_read(reg) == 0

    @pytest.mark.parametrize("writes", [
        [("RDBA", 8)],                                # base not 16-byte aligned
        [("RDBA", 4096 - 4 * DESC_BYTES)],            # ring runs past the arena
        [("RDLEN", 16), ("RDT", 12), ("RDLEN", 8)],   # tail left at or above the length
    ], ids=["misaligned", "past-arena", "tail-beyond-length"])
    def test_enable_validates_ring_placement(self, writes):
        nic = Nic(MemEnv(arena_size=4096))
        nic.reg_write("RDLEN", 8)
        for reg, value in writes:
            nic.reg_write(reg, value)
        with pytest.raises(ValueError):
            nic.reg_write("RXEN", 1)
        assert nic.reg_read("RXEN") == 0

    def test_enable_validates_ring_length(self):
        env = MemEnv()
        nic = Nic(env)
        ring = env.allocate_dma(3 * DESC_BYTES)
        nic.reg_write("RDBA", ring.phys_base)
        nic.reg_write("RDLEN", 3)
        with pytest.raises(ValueError):
            nic.reg_write("RXEN", 1)

    @pytest.mark.parametrize("reg, value", [
        ("RDLEN", 8.0), ("TDLEN", 8.0), ("RDT", 5.0), ("TDT", True), ("TXEN", True),
        ("RDBA", "4096"), ("TDWBA", None),
    ])
    def test_non_integer_value_rejected(self, reg, value):
        # 8.0 used to be stored, and the enable then raised a bare TypeError
        nic = Nic(MemEnv(), 2)
        nic.reg_write(reg[0] + "DLEN", 8)
        before = nic.reg_read(reg)
        with pytest.raises(ValueError, match="integer"):
            nic.reg_write(reg, value)
        assert nic.reg_read(reg) == before
        assert type(nic.reg_read(reg)) is int

    @pytest.mark.parametrize("queue", [True, 1.0, "1", None])
    def test_non_integer_queue_rejected(self, queue):
        # (reg, True) and (reg, 1.0) are the same dict key as (reg, 1)
        nic = Nic(MemEnv(), 2)
        nic.reg_write("TDLEN", 8, 1)
        with pytest.raises(InvalidRegisterError):
            nic.reg_read("TDLEN", queue)
        with pytest.raises(InvalidRegisterError):
            nic.reg_write("TDLEN", 16, queue)
        with pytest.raises(InvalidRegisterError):
            nic.doorbell("TDT", queue)
        assert nic.reg_read("TDLEN", 1) == 8


REGISTERS = [*((reg, 0) for reg in ("RDBA", "RDLEN", "RDH", "RDT", "RXEN")),
             *((reg, q) for reg in ("TDBA", "TDLEN", "TDH", "TDT", "TXEN", "TDWBA")
               for q in (0, 1))]


def register_file(nic):
    return [nic.reg_read(reg, q) for reg, q in REGISTERS]


class TestDoorbell:
    @settings(deadline=None)
    @given(tail=st.sampled_from([("RDT", 0), ("TDT", 0), ("TDT", 1)]),
           length=st.sampled_from([0, 2, 8, 1 << 31]),
           value=st.one_of(st.integers(-2, 10), st.integers(), st.floats(),
                           st.booleans(), st.sampled_from([1 << 31, 1 << 32])))
    def test_matches_reg_write(self, tail, length, value):
        # the same register state and the same exception type for any value
        reg, queue = tail

        def outcome(write):
            nic = Nic(MemEnv(arena_size=4096), 2)
            nic.reg_write(reg[0] + "DLEN", length, queue)
            if length:
                nic.reg_write(reg, length // 2, queue)
            try:
                write(nic)
            except Exception as exc:  # the type is what is compared
                return type(exc), register_file(nic)
            return None, register_file(nic)

        rung = outcome(lambda nic: nic.doorbell(reg, queue)(value))
        written = outcome(lambda nic: nic.reg_write(reg, value, queue))
        assert rung == written
        assert rung[0] in (None, ValueError)

    def test_reads_the_length_at_write_time(self):
        env = MemEnv()
        nic = Nic(env)
        rdt = nic.doorbell("RDT")
        with pytest.raises(ValueError):
            rdt(0)  # no ring length yet
        nic.reg_write("RDLEN", 16)
        rdt(12)
        assert nic.reg_read("RDT") == 12
        nic.reg_write("RDT", 0)
        nic.reg_write("RDLEN", 8)
        with pytest.raises(ValueError):
            rdt(12)
        assert nic.reg_read("RDT") == 0

    @pytest.mark.parametrize("reg, queue", [
        ("RDLEN", 0), ("TDH", 0), ("TXEN", 1), ("RDT", 1), ("TDT", 2), ("EICR", 0),
    ])
    def test_only_tail_registers(self, reg, queue):
        with pytest.raises(InvalidRegisterError):
            Nic(MemEnv(), 2).doorbell(reg, queue)

    def test_agent_rings_its_tails(self):
        # the agent's batched TDT writes and its RDT recycle go through
        # doorbells, not through reg_write
        env = MemEnv()
        nic = Nic(env, 2)
        agent = tinyring.Agent(env, nic, 8, 2, flush_period=1, recycle_period=1)
        calls = []
        original = Nic.reg_write
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Nic, "reg_write", lambda self, *a: calls.append(a) or original(self, *a))
            nic.inject_rx(Frame(b"d" * 64))
            agent.run(tinyring.identity(), max_packets=1)
        assert calls == []
        assert [nic.reg_read("TDT", q) for q in (0, 1)] == [1, 1]
        assert nic.reg_read("RDT") == 0


class TestLink:
    def test_inject_fifo(self):
        env = MemEnv()
        nic = Nic(env)
        rx_ring(env, nic)
        a, b = Frame(b"a" * 64), Frame(b"b" * 64)
        nic.inject_rx(a)
        nic.inject_rx(b)
        assert list(nic.link.rx_pending) == [a, b]
        assert (a.order, b.order) == (0, 1)

    def test_inject_oversized(self):
        with pytest.raises(ValueError):
            Nic(MemEnv()).inject_rx(Frame(b"x" * 2049))

    def test_inject_empty(self):
        with pytest.raises(ValueError):
            Nic(MemEnv()).inject_rx(Frame(b""))

    def test_drain_unknown_queue(self):
        with pytest.raises(ValueError):
            Nic(MemEnv()).drain_tx(1)

    @pytest.mark.parametrize("queue", [0.0, True])
    def test_drain_non_integer_queue(self, queue):
        with pytest.raises(ValueError, match="transmit queue"):
            Nic(MemEnv(), 2).drain_tx(queue)


class TestStepping:
    def test_not_enabled(self):
        with pytest.raises(NotReadyError):
            Nic(MemEnv()).step_device()

    def test_rx_completion(self):
        env = MemEnv()
        nic = Nic(env)
        ring, bufs = rx_ring(env, nic)
        nic.inject_rx(Frame(bytes(range(64))))
        assert nic.step_device(4) == 1
        meta = U64.unpack_from(env.dma, ring.phys_base + 8)[0]
        assert meta & META_DD
        assert meta & META_LEN_MASK == 64
        assert nic.reg_read("RDH") == 1
        assert bytes(env.dma[bufs.phys_base:bufs.phys_base + 64]) == bytes(range(64))

    def test_rx_drop_when_ring_starved(self):
        env = MemEnv()
        nic = Nic(env)
        ring, _ = rx_ring(env, nic)
        nic.reg_write("RDT", 0)  # head == tail: device owns nothing
        nic.inject_rx(Frame(b"x" * 64))
        nic.step_device(4)
        assert nic.link.rx_dropped == 1
        assert not nic.link.rx_pending
        assert U64.unpack_from(env.dma, ring.phys_base + 8)[0] & META_DD == 0

    def test_tx_emission(self):
        env = MemEnv()
        nic = Nic(env)
        ring, bufs, _ = tx_ring(env, nic)
        env.dma[bufs.phys_base:bufs.phys_base + 4] = b"ping"
        U64.pack_into(env.dma, ring.phys_base, bufs.phys_base)
        U64.pack_into(env.dma, ring.phys_base + 8, 4)
        nic.reg_write("TDT", 1, 0)
        nic.step_device(4)
        out = nic.drain_tx(0)
        assert [f.payload for f in out] == [b"ping"]
        assert out[0].drain_time == 1
        assert nic.reg_read("TDH", 0) == 1
        assert U64.unpack_from(env.dma, ring.phys_base + 8)[0] & META_DD
        assert nic.drain_tx(0) == []  # drained

    def test_emitted_frame_sets_every_field(self):
        # step_device builds emitted frames field by field, not through
        # Frame(...); a field it left unset would show here
        env = MemEnv()
        nic = Nic(env)
        rx_ring(env, nic)
        ring, _, _ = tx_ring(env, nic)
        nic.step_device(1)
        nic.inject_rx(Frame(b"s" * 64))
        nic.step_device(1)
        rx_buffer = U64.unpack_from(env.dma, nic.reg_read("RDBA"))[0]
        U64.pack_into(env.dma, ring.phys_base, rx_buffer)
        U64.pack_into(env.dma, ring.phys_base + 8, 64)
        nic.reg_write("TDT", 1, 0)
        nic.step_device(1)
        (out,) = nic.drain_tx(0)
        values = {f.name: getattr(out, f.name) for f in dataclasses.fields(Frame)}
        assert values == {"payload": b"s" * 64, "inject_time": 1, "drain_time": 3,
                          "order": 0}
        assert out == Frame(**values)

    def test_tx_zero_length_skip(self):
        env = MemEnv()
        nic = Nic(env)
        ring, bufs, _ = tx_ring(env, nic)
        U64.pack_into(env.dma, ring.phys_base, bufs.phys_base)
        U64.pack_into(env.dma, ring.phys_base + 8, 0)
        nic.reg_write("TDT", 1, 0)
        nic.step_device(4)
        assert nic.drain_tx(0) == []
        assert nic.reg_read("TDH", 0) == 1
        assert U64.unpack_from(env.dma, ring.phys_base + 8)[0] & META_DD

    def test_tx_zero_length_skip_ignores_the_address_word(self):
        # nothing is emitted, so the buffer address is never used: one far
        # outside the arena retires without a fault
        env = MemEnv()
        nic = Nic(env)
        ring, _, shadow = tx_ring(env, nic, wba=True)
        U64.pack_into(env.dma, ring.phys_base, 2**64 - 16)
        U64.pack_into(env.dma, ring.phys_base + 8, META_RS)
        nic.reg_write("TDT", 1, 0)
        assert nic.step_device(4) == 1
        assert nic.drain_tx(0) == []
        assert nic.reg_read("TDH", 0) == 1
        assert U64.unpack_from(env.dma, ring.phys_base + 8)[0] == META_RS | META_DD
        assert U32.unpack_from(env.dma, shadow.phys_base)[0] == 1

    def test_reenabled_ring_is_served_at_its_new_base_and_length(self):
        # the device caches a ring's slot-0 word index and slot mask when the
        # ring is enabled; a queue disabled, moved and enabled again must be
        # served from where it now lies, wrapping at its new length
        env = MemEnv()
        nic = Nic(env)
        old, bufs, _ = tx_ring(env, nic, size=8)
        env.dma[bufs.phys_base:bufs.phys_base + 16] = b"o" * 16
        for i in range(8):
            U64.pack_into(env.dma, old.phys_base + i * DESC_BYTES, bufs.phys_base)
            U64.pack_into(env.dma, old.phys_base + i * DESC_BYTES + 8, 16)
        nic.reg_write("TDT", 1, 0)
        nic.step_device(4)
        assert [f.payload for f in nic.drain_tx(0)] == [b"o" * 16]
        new = env.allocate_dma(4 * DESC_BYTES)
        for i in range(4):
            addr = bufs.phys_base + (1 + i) * MAX_FRAME
            env.dma[addr:addr + 8] = bytes([i]) * 8
            U64.pack_into(env.dma, new.phys_base + i * DESC_BYTES, addr)
            U64.pack_into(env.dma, new.phys_base + i * DESC_BYTES + 8, 8)
        nic.reg_write("TXEN", 0, 0)
        nic.reg_write("TDBA", new.phys_base, 0)
        nic.reg_write("TDLEN", 4, 0)
        nic.reg_write("TDH", 2, 0)
        nic.reg_write("TDT", 1, 0)
        nic.reg_write("TXEN", 1, 0)
        assert nic.step_device(8) == 3
        assert [f.payload for f in nic.drain_tx(0)] == [bytes([i]) * 8 for i in (2, 3, 0)]
        assert nic.reg_read("TDH", 0) == 1
        done = [U64.unpack_from(env.dma, new.phys_base + i * DESC_BYTES + 8)[0] & META_DD
                for i in range(4)]
        assert done == [META_DD, 0, META_DD, META_DD]
        assert U64.unpack_from(env.dma, old.phys_base + DESC_BYTES + 8)[0] == 16

    def test_tx_head_writeback_on_rs(self):
        env = MemEnv()
        nic = Nic(env)
        ring, bufs, shadow = tx_ring(env, nic, wba=True)
        U64.pack_into(env.dma, ring.phys_base, bufs.phys_base)
        U64.pack_into(env.dma, ring.phys_base + 8, 4 | META_RS)
        U64.pack_into(env.dma, ring.phys_base + DESC_BYTES, bufs.phys_base)
        U64.pack_into(env.dma, ring.phys_base + DESC_BYTES + 8, 4)  # no RS
        nic.reg_write("TDT", 2, 0)
        nic.step_device(1)
        assert U32.unpack_from(env.dma, shadow.phys_base)[0] == 1
        nic.step_device(1)
        # second descriptor has no report-status: cell keeps the old value
        assert U32.unpack_from(env.dma, shadow.phys_base)[0] == 1

    def test_queue_isolation(self):
        env = MemEnv()
        nic = Nic(env, 2)
        ring, bufs, _ = tx_ring(env, nic, queue=0)
        tx_ring(env, nic, queue=1)
        U64.pack_into(env.dma, ring.phys_base, bufs.phys_base)
        U64.pack_into(env.dma, ring.phys_base + 8, 4)
        nic.reg_write("TDT", 1, 0)
        nic.step_device(8)
        assert len(nic.drain_tx(0)) == 1
        assert nic.drain_tx(1) == []

    def test_round_robin_interleave(self):
        env = MemEnv()
        nic = Nic(env)
        rx_ring(env, nic)
        ring, bufs, _ = tx_ring(env, nic)
        U64.pack_into(env.dma, ring.phys_base, bufs.phys_base)
        U64.pack_into(env.dma, ring.phys_base + 8, 4)
        nic.reg_write("TDT", 1, 0)
        nic.inject_rx(Frame(b"y" * 64))
        nic.inject_rx(Frame(b"z" * 64))
        # budget 1: first step serves RX, the cursor then gives TX its turn
        assert nic.step_device(1) == 1
        assert nic.reg_read("RDH") == 1
        assert nic.reg_read("TDH", 0) == 0
        assert nic.step_device(1) == 1
        assert nic.reg_read("TDH", 0) == 1
        assert nic.reg_read("RDH") == 1

    def test_disabled_receive_ring_leaves_the_wire(self):
        # a stopped receive ring neither delivers nor drops; the frame waits
        env = MemEnv()
        nic = Nic(env)
        rx_ring(env, nic)
        tx_ring(env, nic)
        nic.reg_write("RXEN", 0)
        frame = Frame(b"w" * 64)
        nic.inject_rx(frame)
        assert nic.step_device(4) == 0
        assert list(nic.link.rx_pending) == [frame]
        assert (nic.link.rx_delivered, nic.link.rx_dropped) == (0, 0)
        assert nic.reg_read("RDH") == 0

    def test_step_stops_when_idle(self):
        env = MemEnv()
        nic = Nic(env)
        rx_ring(env, nic)
        assert nic.step_device(16) == 0

    def test_head_advances_at_most_work_per_step(self):
        env = MemEnv()
        nic = Nic(env)
        rx_ring(env, nic, size=16)
        for i in range(10):
            nic.inject_rx(Frame(bytes([i]) * 64))
        prev = 0
        while nic.link.rx_pending:
            work = nic.step_device(1)
            head = nic.reg_read("RDH")
            assert (head - prev) % 16 <= work
            prev = head


class TestArenaBounds:
    """A buffer that runs past the DMA arena faults before the device
    writes or emits anything for its descriptor."""

    def test_rx_buffer_past_arena(self):
        env = MemEnv()
        nic = Nic(env)
        ring, bufs = rx_ring(env, nic)
        U64.pack_into(env.dma, ring.phys_base, env.arena_size + 100)
        first, second = Frame(b"a" * 64), Frame(b"b" * 64)
        nic.inject_rx(first)
        nic.inject_rx(second)
        with pytest.raises(TranslationFault):
            nic.step_device(4)
        link = nic.link
        assert list(link.rx_pending) == [first, second]
        assert (link.injected, link.rx_delivered, link.rx_dropped) == (2, 0, 0)
        assert nic.reg_read("RDH") == 0
        assert U64.unpack_from(env.dma, ring.phys_base + 8)[0] & META_DD == 0
        # the frame was not lost: a repaired descriptor delivers it
        U64.pack_into(env.dma, ring.phys_base, bufs.phys_base)
        assert nic.step_device(4) == 2
        assert bytes(env.dma[bufs.phys_base:bufs.phys_base + 64]) == b"a" * 64
        assert link.injected == link.rx_delivered == 2

    def test_rx_buffer_straddling_arena_end(self):
        env = MemEnv()
        nic = Nic(env)
        ring, _ = rx_ring(env, nic)
        U64.pack_into(env.dma, ring.phys_base, env.arena_size - 10)
        frame = Frame(b"x" * 64)
        nic.inject_rx(frame)
        with pytest.raises(TranslationFault):
            nic.step_device(1)
        assert list(nic.link.rx_pending) == [frame]
        assert nic.link.rx_delivered == 0
        assert nic.reg_read("RDH") == 0
        assert bytes(env.dma[env.arena_size - 10:]) == bytes(10)
        assert U64.unpack_from(env.dma, ring.phys_base + 8)[0] & META_DD == 0

    @pytest.mark.parametrize("offset", [-10, 100], ids=["straddling", "past"])
    def test_tx_buffer_outside_arena(self, offset):
        # a length-64 buffer at arena_size - 10 would emit 10 bytes, and one
        # wholly past the arena an empty frame, if the slice clamped silently
        env = MemEnv()
        nic = Nic(env)
        ring, bufs, _ = tx_ring(env, nic)
        U64.pack_into(env.dma, ring.phys_base, env.arena_size + offset)
        U64.pack_into(env.dma, ring.phys_base + 8, 64)
        nic.reg_write("TDT", 1, 0)
        with pytest.raises(TranslationFault):
            nic.step_device(4)
        assert nic.drain_tx(0) == []
        assert nic.reg_read("TDH", 0) == 0
        assert U64.unpack_from(env.dma, ring.phys_base + 8)[0] & META_DD == 0
        U64.pack_into(env.dma, ring.phys_base, bufs.phys_base)
        nic.step_device(4)
        assert [len(f.payload) for f in nic.drain_tx(0)] == [64]

    def test_transmit_fault_leaves_cursor_on_the_queue(self):
        # the step serves the receive ring, then faults on transmit queue 0;
        # once repaired, that queue is served before the receive ring again
        env = MemEnv()
        nic = Nic(env)
        rx_ring(env, nic)
        ring, bufs, _ = tx_ring(env, nic)
        U64.pack_into(env.dma, ring.phys_base, env.arena_size + 100)
        U64.pack_into(env.dma, ring.phys_base + 8, 64)
        nic.reg_write("TDT", 1, 0)
        nic.inject_rx(Frame(b"a" * 64))
        nic.inject_rx(Frame(b"b" * 64))
        with pytest.raises(TranslationFault):
            nic.step_device(2)
        assert nic.link.rx_delivered == 1
        U64.pack_into(env.dma, ring.phys_base, bufs.phys_base)
        assert nic.step_device(1) == 1
        assert [len(f.payload) for f in nic.drain_tx(0)] == [64]
        assert nic.link.rx_delivered == 1

    def test_receive_fault_leaves_cursor_on_receive(self):
        # the step serves transmit queue 0, then faults on the receive ring;
        # once repaired, the receive ring is served before the queue again
        env = MemEnv()
        nic = Nic(env)
        ring, bufs = rx_ring(env, nic)
        tx_ring(env, nic)  # zero-length descriptors: each retires without emitting
        nic.inject_rx(Frame(b"a" * 64))
        assert nic.step_device(1) == 1  # receive served; the cursor moves to queue 0
        U64.pack_into(env.dma, ring.phys_base + DESC_BYTES, env.arena_size + 100)
        nic.reg_write("TDT", 2, 0)
        nic.inject_rx(Frame(b"b" * 64))
        with pytest.raises(TranslationFault):
            nic.step_device(2)
        assert nic.reg_read("TDH", 0) == 1
        U64.pack_into(env.dma, ring.phys_base + DESC_BYTES, bufs.phys_base + MAX_FRAME)
        assert nic.step_device(1) == 1
        assert nic.link.rx_delivered == 2
        assert nic.reg_read("TDH", 0) == 1


def two_queues_on_one_buffer(lengths=(64, 64), rx=False):
    """Two transmit queues whose next descriptors both point at one buffer.

    Returns (env, nic, [ring 0, ring 1], buffer address). Nothing is
    published yet; the caller writes TDT when the stage is set.
    """
    env = MemEnv()
    nic = Nic(env, 2)
    if rx:
        rx_ring(env, nic)
    rings = [tx_ring(env, nic, queue=q)[0] for q in (0, 1)]
    buf = env.allocate_dma(MAX_FRAME).phys_base
    env.dma[buf:buf + MAX_FRAME] = bytes(i & 0xFF for i in range(MAX_FRAME))
    for ring, n in zip(rings, lengths):
        U64.pack_into(env.dma, ring.phys_base, buf)
        U64.pack_into(env.dma, ring.phys_base + 8, n)
    return env, nic, [r.phys_base for r in rings], buf


class TestSharedPayload:
    """Completions of the same bytes in one step share one payload object,
    and every payload still holds the bytes in memory at its completion."""

    def publish_and_step(self, nic, budget=2):
        nic.reg_write("TDT", 1, 0)
        nic.reg_write("TDT", 1, 1)
        assert nic.step_device(budget) == budget
        return nic.drain_tx(0), nic.drain_tx(1)

    def test_one_copy_for_both_outputs(self):
        env, nic, _, buf = two_queues_on_one_buffer()
        out0, out1 = self.publish_and_step(nic)
        assert out0[0].payload == out1[0].payload == bytes(range(64))
        assert out0[0].payload is out1[0].payload

    def test_not_shared_across_steps(self):
        env, nic, _, buf = two_queues_on_one_buffer()
        nic.reg_write("TDT", 1, 0)
        nic.reg_write("TDT", 1, 1)
        nic.step_device(1)
        env.dma[buf:buf + 64] = b"\xee" * 64  # software writes between steps
        nic.step_device(1)
        assert nic.drain_tx(0)[0].payload == bytes(range(64))
        assert nic.drain_tx(1)[0].payload == b"\xee" * 64

    def test_distinct_buffers_are_not_shared(self):
        env, nic, rings, buf = two_queues_on_one_buffer()
        U64.pack_into(env.dma, rings[1], buf + 64)
        out0, out1 = self.publish_and_step(nic)
        assert out0[0].payload == bytes(range(64))
        assert out1[0].payload == bytes(range(64, 128))

    def test_lengths_differ(self):
        env, nic, _, buf = two_queues_on_one_buffer(lengths=(576, 100))
        out0, out1 = self.publish_and_step(nic)
        assert out0[0].payload == bytes(env.dma[buf:buf + 576])
        assert out1[0].payload == bytes(env.dma[buf:buf + 100])

    def test_receive_delivery_between_completions(self):
        env, nic, rings, buf = two_queues_on_one_buffer(rx=True)
        # a zero-length descriptor ahead on queue 0 puts the cursor on queue 1
        # after one step, so the next step runs TX 1, RX, TX 0 in that order
        U64.pack_into(env.dma, rings[0] + DESC_BYTES, buf)
        U64.pack_into(env.dma, rings[0] + DESC_BYTES + 8, 64)
        U64.pack_into(env.dma, rings[0] + 8, 0)
        nic.reg_write("TDT", 1, 0)
        assert nic.step_device(1) == 1
        rx_desc = nic.reg_read("RDBA")
        U64.pack_into(env.dma, rx_desc, buf)  # receive into the same buffer
        nic.inject_rx(Frame(b"\xaa" * 64))
        nic.reg_write("TDT", 2, 0)
        nic.reg_write("TDT", 1, 1)
        assert nic.step_device(3) == 3
        assert nic.link.rx_delivered == 1
        assert nic.drain_tx(1)[0].payload == bytes(range(64))
        assert nic.drain_tx(0)[0].payload == b"\xaa" * 64

    def test_receive_metadata_inside_buffer(self):
        env, nic, rings, _ = two_queues_on_one_buffer(lengths=(16, 16), rx=True)
        # both queues send the receive ring's first descriptor, whose
        # metadata word the delivery between them rewrites
        rx_desc = nic.reg_read("RDBA")
        U64.pack_into(env.dma, rings[0] + DESC_BYTES, rx_desc)
        U64.pack_into(env.dma, rings[0] + DESC_BYTES + 8, 16)
        U64.pack_into(env.dma, rings[1], rx_desc)
        U64.pack_into(env.dma, rings[0] + 8, 0)
        nic.reg_write("TDT", 1, 0)
        nic.step_device(1)
        before = bytes(env.dma[rx_desc:rx_desc + 16])
        nic.inject_rx(Frame(b"\xaa" * 64))
        nic.reg_write("TDT", 2, 0)
        nic.reg_write("TDT", 1, 1)
        assert nic.step_device(3) == 3
        assert nic.drain_tx(1)[0].payload == before
        after = nic.drain_tx(0)[0].payload
        assert after == bytes(env.dma[rx_desc:rx_desc + 16]) != before
        assert U64.unpack_from(after, 8)[0] & META_DD

    def test_done_bit_inside_buffer(self):
        env, nic, rings, _ = two_queues_on_one_buffer(lengths=(16, 16))
        # both queues send queue 0's own descriptor; its done bit lands in
        # between the two completions
        for ring in rings:
            U64.pack_into(env.dma, ring, rings[0])
        before = bytes(env.dma[rings[0]:rings[0] + 16])
        out0, out1 = self.publish_and_step(nic)
        assert out0[0].payload == before
        assert out1[0].payload == bytes(env.dma[rings[0]:rings[0] + 16]) != before
        assert U64.unpack_from(out1[0].payload, 8)[0] & META_DD

    def test_head_writeback_inside_buffer(self):
        env, nic, rings, buf = two_queues_on_one_buffer()
        U64.pack_into(env.dma, rings[0] + 8, 64 | META_RS)
        nic.reg_write("TDWBA", buf + 8, 0)
        out0, out1 = self.publish_and_step(nic)
        assert out0[0].payload == bytes(range(64))
        assert out1[0].payload == bytes(env.dma[buf:buf + 64]) != bytes(range(64))
        assert U32.unpack_from(out1[0].payload, 8)[0] == 1


def run_script(seed):
    """Drive a fixed pseudo-random schedule; returns observable state."""
    rng = random.Random(seed)
    env = MemEnv()
    nic = Nic(env, 2)
    rx_ring(env, nic, size=16)
    tx_ring(env, nic, queue=0)
    tx_ring(env, nic, queue=1)
    for _ in range(200):
        if rng.random() < 0.5:
            nic.inject_rx(Frame(rng.randbytes(rng.randint(1, 128))))
        nic.step_device(rng.randint(1, 3))
    return (nic.reg_read("RDH"), nic.link.rx_delivered, nic.link.rx_dropped,
            bytes(env.dma))


def test_determinism():
    assert run_script(99) == run_script(99)


def test_conservation():
    env = MemEnv()
    nic = Nic(env)
    rx_ring(env, nic, size=4)
    rng = random.Random(5)
    for _ in range(300):
        if rng.random() < 0.7:
            nic.inject_rx(Frame(rng.randbytes(64)))
        nic.step_device(rng.randint(0, 2))
    while nic.link.rx_pending:
        nic.step_device(4)
    link = nic.link
    assert link.injected == link.rx_delivered + link.rx_dropped


@settings(max_examples=25, deadline=None)
@given(st.lists(st.binary(min_size=1, max_size=200), min_size=1, max_size=40))
def test_rx_delivers_in_order(payloads):
    env = MemEnv()
    nic = Nic(env)
    ring, bufs = rx_ring(env, nic, size=64)
    for p in payloads:
        nic.inject_rx(Frame(p))
    while nic.link.rx_pending:
        nic.step_device(8)
    assert nic.link.rx_dropped == 0
    got = []
    for i in range(nic.link.rx_delivered):
        meta = U64.unpack_from(env.dma, ring.phys_base + i * DESC_BYTES + 8)[0]
        assert meta & META_DD
        n = meta & META_LEN_MASK
        base = bufs.phys_base + i * MAX_FRAME
        got.append(bytes(env.dma[base:base + n]))
    assert got == payloads
