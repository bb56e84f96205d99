"""Step-level oracle: Nic.step_device against an executable spec device.

SpecDevice restates what step_device's docstring promises, written for
reading rather than speed: descriptors are decoded with decode_descriptor,
the next class with work is found by a plain round-robin scan, every
completion copies its payload afresh, arena bounds are checked explicitly
and RS writes the new head back. One random program of register writes,
hand-written descriptors, raw memory writes, injections and device steps
drives both, and everything observable is compared after every step; the
injections now and then inject a Frame object again, so injection must
leave the caller's frame alone and count each injection as its own. The
register writes also move disabled rings to a new base and length, so the
geometry the device caches when a ring is enabled is checked against a
spec that reads the registers afresh at every completion.

Hypothesis draws only the program's seed. Drawing the operations through
strategies gave runs of near-identical programs, which reached the
payload-sharing cases too rarely; a seeded generator makes every example a
new program, and a failure still reports the seed that reproduces it. The
example count comes from the active hypothesis profile; the ``deep``
profile in conftest.py runs ten times the default.
"""

import dataclasses
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinyring import (DESC_BYTES, META_DD, META_EOP, Descriptor, Frame,
                      MemEnv, Nic, NotReadyError, RegisterWriteFault,
                      TranslationFault, decode_descriptor, encode_descriptor)

ARENA = 4096
RX_REGS = ("RDBA", "RDLEN", "RDH", "RDT", "RXEN")
TX_REGS = ("TDBA", "TDLEN", "TDH", "TDT", "TXEN", "TDWBA")

pytestmark = pytest.mark.deep


class SpecDevice:
    """What one device step does, per Nic.step_device's docstring."""

    def __init__(self, arena: bytearray, regs: dict, num_tx_queues: int) -> None:
        self.arena = arena
        self.regs = regs  # (name, queue) -> value, as reg_read reports it
        self.classes = 1 + num_tx_queues  # class 0 is receive, 1 + q is transmit q
        self.cursor = 0
        self.now = 0
        self.wire = deque()  # payloads; the frame at the front has order delivered + dropped
        self.inject_times = []  # the step each frame entered the wire, by order
        self.emitted = [[] for _ in range(num_tx_queues)]
        self.stamps = {}  # buffer address -> order of the frame last received there
        self.injected = self.delivered = self.dropped = 0

    def reg_write(self, name, value, queue):
        self.regs[name, queue] = int(bool(value)) if name in ("RXEN", "TXEN") else value

    def inject(self, payload):
        self.wire.append(payload)
        self.inject_times.append(self.now)
        self.injected += 1

    def has_work(self, c):
        if c == 0:
            return self.regs["RXEN", 0] == 1 and len(self.wire) > 0
        return self.regs["TXEN", c - 1] == 1 and self.regs["TDH", c - 1] != self.regs["TDT", c - 1]

    def step(self, budget):
        if self.regs["RXEN", 0] == 0 and all(self.regs["TXEN", q] == 0
                                              for q in range(self.classes - 1)):
            raise NotReadyError("device is not enabled")
        self.now += 1
        done = 0
        while done < budget:
            ready = [c % self.classes for c in range(self.cursor, self.cursor + self.classes)
                     if self.has_work(c % self.classes)]
            if not ready:
                break
            self.cursor = ready[0]  # a fault while serving it leaves the cursor here
            if ready[0] == 0:
                self.serve_rx()
            else:
                self.serve_tx(ready[0] - 1)
            self.cursor = (ready[0] + 1) % self.classes
            done += 1
        return done

    def word(self, addr, size):
        return int.from_bytes(self.arena[addr:addr + size], "little")

    def set_word(self, addr, size, value):
        self.arena[addr:addr + size] = value.to_bytes(size, "little")

    def serve_rx(self):
        order = self.delivered + self.dropped
        payload = self.wire.popleft()
        head = self.regs["RDH", 0]
        if head == self.regs["RDT", 0]:
            self.dropped += 1
            return
        daddr = self.regs["RDBA", 0] + head * DESC_BYTES
        addr = decode_descriptor(bytes(self.arena[daddr:daddr + DESC_BYTES])).buffer_addr
        n = len(payload)
        if addr + n > len(self.arena):
            self.wire.appendleft(payload)
            raise TranslationFault("receive buffer outside the arena")
        self.arena[addr:addr + n] = payload
        self.set_word(daddr + 8, 8, n | META_EOP | META_DD)
        self.regs["RDH", 0] = (head + 1) % self.regs["RDLEN", 0]
        self.delivered += 1
        self.stamps[addr] = order

    def serve_tx(self, q):
        daddr = self.regs["TDBA", q] + self.regs["TDH", q] * DESC_BYTES
        desc = decode_descriptor(bytes(self.arena[daddr:daddr + DESC_BYTES]))
        if desc.length:
            end = desc.buffer_addr + desc.length
            if end > len(self.arena):
                raise TranslationFault("transmit buffer outside the arena")
            order = self.stamps.get(desc.buffer_addr)
            inject_time = None if order is None else self.inject_times[order]
            payload = bytes(self.arena[desc.buffer_addr:end])
            self.emitted[q].append(Frame(payload, inject_time, self.now, order))
        self.set_word(daddr + 8, 8, self.word(daddr + 8, 8) | META_DD)
        head = (self.regs["TDH", q] + 1) % self.regs["TDLEN", q]
        self.regs["TDH", q] = head
        if desc.rs and self.regs["TDWBA", q]:
            self.set_word(self.regs["TDWBA", q], 4, head)


# Receive ring at 0 and transmit ring q at 128 * (q + 1), each at most 8
# descriptors long; the rest of the page is buffer space. Buffer addresses
# and write-back words come from places that collide: one buffer on several
# slots and queues, buffers over the descriptor rings, write-back words
# inside buffers and descriptors, and addresses at or past the arena's end.
COLLIDING = [0, 128, 136, 512, 520, 768, 1024]
OUTSIDE = [ARENA - 64, ARENA - 8, ARENA + 8, 2**64 - 16]
WB_WORDS = [0, 136, 140, 264, 512, 516, 524, 1024, 522, ARENA - 4, ARENA]
# Where a disabled ring may be moved: onto its own or another ring's
# descriptors, into buffer space, and now and then somewhere the enable must
# reject (misaligned, or too close to the arena's end for the ring).
RING_BASES = [0, 128, 256, 384, 640, 896]
BAD_BASES = [8, ARENA - 16, ARENA + 16]
BAD_LENGTHS = [0, 1, 3, 6, 2**17]


def ring_base(rng):
    return rng.choice(BAD_BASES) if rng.random() < 0.1 else rng.choice(RING_BASES)


def ring_length(rng):
    return rng.choice(BAD_LENGTHS) if rng.random() < 0.1 else rng.choice([2, 4, 8])


def address(rng):
    roll = rng.random()
    if roll < 0.1:
        return rng.choice(OUTSIDE)
    return rng.choice(COLLIDING) if roll < 0.55 else rng.randrange(ARENA - 300)


def build(rng):
    """A device and a spec in the same state, with every ring enabled.

    Slot i of every ring holds the same descriptor, as the agent sets it up,
    and in half the setups every slot holds the same one, so that one step
    copies, overwrites and copies the same bytes again. Receive buffers stay
    off the rings: received bytes there would leave garbage descriptors.
    """
    queues = rng.choice([1, 2, 3])
    lengths = [rng.choice([2, 4, 8]) for _ in range(1 + queues)]
    slots = [(rng.choice([512, 520, 128, 0]), rng.choice([64, 16, 100, 0]),
              rng.random() < 0.5) for _ in range(8)]
    if rng.random() < 0.5:
        slots = slots[:1] * 8
    env = MemEnv(arena_size=ARENA)
    env.dma[:] = rng.randbytes(ARENA)
    nic = Nic(env, queues)
    for ring, length in enumerate(lengths):
        for i, (addr, n, rs) in enumerate(slots[:length]):
            at = 128 * ring + i * DESC_BYTES
            env.dma[at:at + DESC_BYTES] = encode_descriptor(
                Descriptor(max(addr, 512) if ring == 0 else addr, n, eop=True, rs=rs))
    nic.reg_write("RDBA", 0)
    nic.reg_write("RDLEN", lengths[0])
    nic.reg_write("RDT", rng.randrange(lengths[0]))
    nic.reg_write("RXEN", 1)
    for q in range(queues):
        nic.reg_write("TDBA", 128 * (q + 1), q)
        nic.reg_write("TDLEN", lengths[q + 1], q)
        nic.reg_write("TDT", rng.randrange(lengths[q + 1]), q)
        nic.reg_write("TDWBA", rng.choice([0, 512, 516, 524, 136, 1024]), q)
        nic.reg_write("TXEN", 1, q)
    regs = {(name, 0): nic.reg_read(name) for name in RX_REGS}
    regs.update({(name, q): nic.reg_read(name, q) for name in TX_REGS for q in range(queues)})
    return env, nic, SpecDevice(bytearray(env.dma), regs, queues)


def outcome(call, *args):
    """The return value, or the type of the exception raised."""
    try:
        return call(*args)
    except Exception as exc:
        return type(exc)


def frames(fs):
    return [(f.payload, f.inject_time, f.drain_time, f.order) for f in fs]


def assert_same(env, nic, spec, injected):
    """Everything observable matches, and every Frame object the program
    injected still holds only its payload."""
    assert bytes(env.dma) == bytes(spec.arena)
    assert {key: nic.reg_read(*key) for key in spec.regs} == spec.regs
    link = nic.link
    assert ((link.injected, link.rx_delivered, link.rx_dropped, nic.now)
            == (spec.injected, spec.delivered, spec.dropped, spec.now))
    assert [f.payload for f in link.rx_pending] == list(spec.wire)
    # the spec keeps every inject time; the link keeps those of the wire
    assert list(link.rx_times) == spec.inject_times[spec.delivered + spec.dropped:]
    assert all(dataclasses.astuple(f)[1:] == (None, None, None) for f in injected)
    for q, want in enumerate(spec.emitted):
        assert frames(nic.drain_tx(q)) == frames(want)
        want.clear()


def write(env, spec, addr, data):
    """Software writes memory between steps, as the agent and a processor do."""
    env.dma[addr:addr + len(data)] = data
    spec.arena[addr:addr + len(data)] = data


def register(nic, spec, name, value, queue):
    try:
        nic.reg_write(name, value, queue)
    except (ValueError, RegisterWriteFault):
        return  # the register file's own rules are pinned in test_nic.py
    spec.reg_write(name, value, queue)


OPS = ("step", "publish", "tail", "register", "descriptor", "inject", "poke")


@settings(deadline=None)
@given(seed=st.integers(0, 2**64 - 1))
def test_step_device_matches_spec(seed):
    """One random program of 40-100 operations; a failure reports its seed."""
    rng = random.Random(seed)
    env, nic, spec = build(rng)
    rings = 1 + nic.num_tx_queues
    injected = []  # every Frame object injected, each once
    for op in rng.choices(OPS, weights=(4, 3, 1, 1, 1, 2, 1), k=rng.randint(40, 100)):
        ring = rng.randrange(rings)
        prefix, queue = ("R", 0) if ring == 0 else ("T", ring - 1)
        length = spec.regs[prefix + "DLEN", queue]
        if op == "step":
            budget = rng.randint(1, 5)
            assert outcome(nic.step_device, budget) == outcome(spec.step, budget)
            assert_same(env, nic, spec, injected)
        elif op == "publish":  # hand the device up to 7 more descriptors
            # a disabled ring may hold length 0; the device then rejects any tail
            tail = (spec.regs[prefix + "DT", queue] + rng.randint(1, 7)) % max(length, 1)
            register(nic, spec, prefix + "DT", tail, queue)
        elif op == "tail":
            register(nic, spec, prefix + "DT", rng.randrange(8), queue)
        elif op == "register":
            name = rng.choice(["DH", "XEN", "DBA", "DLEN"] + (["DWBA"] if ring else []))
            if name in ("DBA", "DLEN") and rng.random() < 0.5:
                # move the ring: disable it, rewrite its geometry, enable it again
                register(nic, spec, prefix + "XEN", 0, queue)
                register(nic, spec, prefix + "DBA", ring_base(rng), queue)
                register(nic, spec, prefix + "DLEN", ring_length(rng), queue)
                register(nic, spec, prefix + "XEN", 1, queue)
            else:  # one write; DBA, DLEN and DH fault while the ring is enabled
                if name == "DBA":
                    value = ring_base(rng)
                elif name == "DLEN":
                    value = ring_length(rng)
                elif name == "DWBA":
                    value = rng.choice(WB_WORDS)
                else:
                    value = rng.randrange(9)
                register(nic, spec, prefix + name, value, queue)
        elif op == "descriptor":  # written where the ring lies now
            n = rng.choice([0, 8, 64, rng.randrange(301)])
            raw = encode_descriptor(Descriptor(address(rng), n, eop=True,
                                               rs=rng.random() < 0.5, dd=rng.random() < 0.5))
            at = spec.regs[prefix + "DBA", queue] + rng.randrange(max(length, 1)) * DESC_BYTES
            if at + DESC_BYTES <= ARENA:
                write(env, spec, at, raw)
        elif op == "inject":  # now and then a Frame object injected before, maybe still on the wire
            for _ in range(rng.randint(1, 4)):
                if injected and rng.random() < 0.3:
                    frame = rng.choice(injected)
                else:
                    frame = Frame(rng.randbytes(rng.randint(1, 300)))
                    injected.append(frame)
                nic.inject_rx(frame)
                spec.inject(frame.payload)
        else:
            addr = rng.choice([512, 520, 600, 1024, rng.randrange(512, ARENA)])
            write(env, spec, addr, rng.randbytes(min(rng.randint(1, 16), ARENA - addr)))
