"""Steppable model of an 82599-style NIC: register file, descriptor rings,
DMA into simulated memory, and a simulated link.

The device does nothing between explicit step_device calls (lockstep), so
identical register writes, injections and step counts produce bit-identical
memory contents and emissions.

Register file (all values unsigned 32-bit, ring lengths in descriptors):

    receive ring             transmit ring q (one set per queue)
    ------------             -----------------------------------
    RDBA   ring base         TDBA   ring base
    RDLEN  ring length       TDLEN  ring length
    RDH    head (device)     TDH    head (device)
    RDT    tail              TDT    tail
    RXEN   enable            TXEN   enable
                             TDWBA  head write-back address (0 = off)

Registers take an int value and an int queue index; a bool, a float or
any other type is rejected (ValueError for a value, InvalidRegisterError
for a queue), so a True queue cannot alias queue 1. A tail write must lie
below the ring length read at the time of the write. doorbell(reg, queue)
returns a one-argument writer for a tail register, found once: the
driver rings TDT and RDT through it on every batch, the way a driver
stores to a precomputed register address, and it applies the same tail
rule as reg_write, from the same code.

Ring lengths are powers of two in [2, 65536]; bases are physical, 16-byte
aligned. Head, base and length are device-owned while the ring is
enabled: software writes then fault, so the geometry the enable checked
is the geometry the device uses. The device owns the descriptors in the
modular interval [head, tail), so head == tail means it owns nothing.

Descriptor wire format, 16 bytes little-endian: a u64 buffer physical
address, then a u64 metadata word with the byte length in bits [15:0],
end-of-packet at bit 24, report-status at bit 27 and done at bit 32.
The device writes buffer bytes first and the whole metadata word second,
in one 8-byte store; a reader that observes the done bit may trust the
payload. Bits outside the defined fields are ignored on decode.

The device and the agent read and write descriptor words and head
write-back words through native-order word views of the arena, cast("Q")
and cast("I") of the DMA memoryview, at index address >> 3 and address
>> 2. Those indexes are exact because the register file checks that ring
bases are 16-byte aligned and write-back addresses 4-byte aligned, and
native order is the wire's little-endian order because this module refuses
to import on a big-endian host. Buffer payloads stay byte slices, and
encode_descriptor/decode_descriptor keep their explicit little-endian
layout.

Each ring's geometry is cached when the ring is enabled: the word index of
slot 0's metadata word, (base >> 3) + 1, and the slot mask, length - 1.
The device serves slot i from metadata word meta0 + 2 * i, and reads the
address word below it only for a transmit that emits (a non-zero length)
and for a receive. The cache cannot go stale: base and length are
device-owned while the ring is enabled, so the only way to change them is
to disable the ring, and enabling it again recomputes both.
"""

from __future__ import annotations

import struct
import sys
from collections import deque
from dataclasses import dataclass
from typing import Callable

from .mem import MemEnv, TranslationFault, _check_int

if sys.byteorder != "little":
    raise ImportError("tinyring needs a little-endian host: descriptor and write-back "
                      "words are accessed through native-order memoryview casts")

DESC_BYTES = 16
META_LEN_MASK = 0xFFFF
META_EOP = 1 << 24
META_RS = 1 << 27
META_DD = 1 << 32

MAX_FRAME = 2048
MAX_QUEUES = 8
MIN_RING = 2
MAX_RING = 65536

_DESC = struct.Struct("<QQ")


class InvalidRegisterError(Exception):
    """No such register name or queue index on this device."""


class RegisterWriteFault(Exception):
    """Software wrote a register the device currently owns."""


class NotReadyError(Exception):
    """Operation needs an enabled device."""


@dataclass(slots=True)
class Descriptor:
    buffer_addr: int
    length: int
    eop: bool = False
    rs: bool = False
    dd: bool = False


def encode_descriptor(d: Descriptor) -> bytes:
    if not 0 <= d.buffer_addr < 1 << 64:
        raise ValueError(f"buffer address out of range: {d.buffer_addr:#x}")
    if not 0 <= d.length <= META_LEN_MASK:
        raise ValueError(f"length does not fit the 16-bit field: {d.length}")
    meta = d.length
    if d.eop:
        meta |= META_EOP
    if d.rs:
        meta |= META_RS
    if d.dd:
        meta |= META_DD
    return _DESC.pack(d.buffer_addr, meta)


def decode_descriptor(raw: bytes) -> Descriptor:
    if len(raw) != DESC_BYTES:
        raise ValueError(f"descriptor is {DESC_BYTES} bytes, got {len(raw)}")
    addr, meta = _DESC.unpack(raw)
    return Descriptor(addr, meta & META_LEN_MASK,
                      eop=bool(meta & META_EOP),
                      rs=bool(meta & META_RS),
                      dd=bool(meta & META_DD))


def ownership(head: int, tail: int, length: int) -> set[int]:
    """Descriptor indexes the device owns: the modular interval [head, tail).

    head == tail means the device owns nothing. A completely full ring is
    therefore unrepresentable, which is why drivers keep one slot unused.
    """
    _check_int(length, "ring length", 1)
    if not (0 <= head < length and 0 <= tail < length):
        raise ValueError(f"head {head} and tail {tail} must lie in [0, {length})")
    if head <= tail:
        return set(range(head, tail))
    return set(range(head, length)) | set(range(0, tail))


@dataclass(slots=True)
class Frame:
    """One packet on the simulated wire.

    Injection reads only payload. inject_time, order and drain_time are set
    on emitted frames only: inject_time and drain_time are simulated step
    counts, whose difference is the frame's in-simulation latency, and order
    is the global injection ordinal, carried through to emission so tests
    can check sequencing without trusting payload contents.
    """

    payload: bytes
    inject_time: int | None = None
    drain_time: int | None = None
    order: int | None = None


def _check_payload(payload: bytes) -> None:
    """The rule for a frame payload, shared by the device and the oracle:
    bytes, 1..MAX_FRAME long; anything else raises ValueError.

    RefPipeline calls it for every frame. Nic.inject_rx tests the same rule
    inline and calls it only to raise, so the messages live here alone.
    """
    if type(payload) is not bytes:
        raise ValueError(f"frame payload must be bytes, got {type(payload).__name__}")
    n = len(payload)
    if not 1 <= n <= MAX_FRAME:
        raise ValueError(f"frame payload must be 1..{MAX_FRAME} bytes, got {n}")


class Link:
    """Frame queues on both sides of the device, plus loss accounting.

    rx_times holds the step each frame on the wire entered it, in wire
    order: inject_rx appends to both queues, a receive or a drop pops
    both, and a faulted receive puts both back. The link keeps nothing per
    frame once it has left the wire.
    """

    def __init__(self, num_tx_queues: int) -> None:
        self.rx_pending: deque[Frame] = deque()
        self.rx_times: deque[int] = deque()
        self.tx_emitted: list[list[Frame]] = [[] for _ in range(num_tx_queues)]
        self.rx_delivered = 0
        self.rx_dropped = 0

    @property
    def injected(self) -> int:
        """Frames ever injected: each was delivered, dropped or is on the wire."""
        return self.rx_delivered + self.rx_dropped + len(self.rx_pending)


class _Ring:
    """Register state of one descriptor ring; enabled is 0 or 1.

    meta0 (the word index of slot 0's metadata word; slot i's is 2 * i
    further) and mask (length - 1) are the geometry the device serves the
    ring by. reg_write sets both when it enables the ring, and base and
    length cannot change while it is enabled.
    """

    __slots__ = ("base", "length", "head", "tail", "enabled", "wb", "name", "meta0", "mask")

    def __init__(self, name: str) -> None:
        self.base = self.length = self.head = self.tail = self.enabled = self.wb = 0
        self.meta0 = self.mask = 0
        self.name = name  # for error messages: "receive ring", "transmit ring 1"

    def write_tail(self, value: int) -> None:
        """The tail rule: an int, not a bool, below the ring length read now."""
        if type(value) is not int or not 0 <= value < self.length:
            raise ValueError(f"{self.name}: tail {value!r} is not an integer "
                             f"in [0, {self.length})")
        self.tail = value


class Nic:
    """The device model. One receive ring, num_tx_queues transmit rings."""

    def __init__(self, env: MemEnv, num_tx_queues: int = 1) -> None:
        _check_int(num_tx_queues, "transmit queue count", 1, MAX_QUEUES)
        self._mem = env.dma
        self._arena = env.dma.obj  # the bytearray itself, for in-place startswith
        # buffer phys addr -> (payload, order, inject time): the payload last
        # received into that buffer or copied out of it, which a completion
        # emits when memory still holds it, and the order and inject time of
        # the frame last received there (None for a buffer never received into)
        self._held: dict[int, tuple[bytes, int | None, int | None]] = {}
        self._u64 = env.dma.cast("Q")  # descriptor words, index = address >> 3
        self._u32 = env.dma.cast("I")  # head write-back words, index = address >> 2
        self.num_tx_queues = num_tx_queues
        self.now = 0
        self.link = Link(num_tx_queues)
        # one ring per service class: class 0 is the receive ring, 1 + q transmit ring q
        self._rings = (_Ring("receive ring"),
                       *(_Ring(f"transmit ring {q}") for q in range(num_tx_queues)))
        # (register name, queue) -> (ring, field): the whole register file
        self._regs: dict[tuple[str, int], tuple[_Ring, str]] = {
            (reg, 0): (self._rings[0], field) for reg, field in (
                ("RDBA", "base"), ("RDLEN", "length"), ("RDH", "head"),
                ("RDT", "tail"), ("RXEN", "enabled"))}
        for q, ring in enumerate(self._rings[1:]):
            for reg, field in (("TDBA", "base"), ("TDLEN", "length"), ("TDH", "head"),
                               ("TDT", "tail"), ("TXEN", "enabled"), ("TDWBA", "wb")):
                self._regs[reg, q] = (ring, field)
        # round-robin cursor over the service classes (0 is RX, 1 + q is TX q)
        # and each class's successor, c + 1 with the last wrapping to 0
        self._classes = 1 + num_tx_queues
        self._succ = (*range(1, self._classes), 0)
        self._rr = 0

    # -- register file ----------------------------------------------------

    def _register(self, reg: str, queue: int) -> tuple[_Ring, str]:
        """The (ring, field) behind a register; an int queue, not a bool, is required."""
        if type(queue) is int:
            try:
                return self._regs[reg, queue]
            except KeyError:
                pass
        raise InvalidRegisterError(f"no register {reg}({queue!r}) on a device with "
                                   f"{self.num_tx_queues} transmit queues")

    def reg_read(self, reg: str, queue: int = 0) -> int:
        ring, field = self._register(reg, queue)
        return getattr(ring, field)

    def reg_write(self, reg: str, value: int, queue: int = 0) -> None:
        ring, field = self._register(reg, queue)
        if type(value) is not int or not 0 <= value < 1 << 32:
            raise ValueError(f"{reg}({queue}) value must be an integer fitting 32 bits, "
                             f"got {value!r}")
        if field == "tail":
            ring.write_tail(value)
            return
        if field == "enabled":
            if value:
                self._validate_ring(ring)
                ring.meta0 = (ring.base >> 3) + 1
                ring.mask = ring.length - 1
                value = 1
        elif field == "wb":
            if value and (value % 4 or value + 4 > len(self._mem)):
                raise ValueError(f"{reg}({queue}) {value:#x} must be a 4-byte aligned arena address")
        elif ring.enabled:  # head, base and length
            raise RegisterWriteFault(f"{reg}({queue}) is device-owned while the ring is enabled")
        setattr(ring, field, value)

    def doorbell(self, reg: str, queue: int = 0) -> Callable[[int], None]:
        """A one-argument writer for tail register reg ("TDT" or "RDT") of queue.

        doorbell(reg, q)(v) is reg_write(reg, v, q) with the register found
        once, at this call, instead of at every write: the writer applies
        the same tail rule, against the ring length at the time of the write.
        """
        ring, field = self._register(reg, queue)
        if field != "tail":
            raise InvalidRegisterError(f"{reg} is not a tail register; doorbells ring "
                                       f"TDT and RDT only")
        return ring.write_tail

    def _validate_ring(self, ring: _Ring) -> None:
        what, base, length = ring.name, ring.base, ring.length
        if length < MIN_RING or length > MAX_RING or length & (length - 1):
            raise ValueError(f"{what}: length must be a power of two in "
                             f"[{MIN_RING}, {MAX_RING}], got {length}")
        if base % DESC_BYTES:
            raise ValueError(f"{what}: base {base:#x} is not 16-byte aligned")
        if base + length * DESC_BYTES > len(self._mem):
            raise ValueError(f"{what}: does not fit the DMA arena")
        if ring.head >= length or ring.tail >= length:
            raise ValueError(f"{what}: head {ring.head} and tail {ring.tail} "
                             f"must be below length {length}")

    # -- link --------------------------------------------------------------

    def inject_rx(self, frame: Frame) -> None:
        """Queue frame on the wire. Only its payload is read: the link
        records the current step as its inject time, in rx_times.

        A payload that breaks _check_payload's rule raises its ValueError
        before anything is recorded. The rule is tested inline, saving a
        function entry per frame, and _check_payload runs only to raise.
        """
        p = frame.payload
        if type(p) is not bytes or not 0 < len(p) <= MAX_FRAME:
            _check_payload(p)
        link = self.link
        link.rx_times.append(self.now)
        link.rx_pending.append(frame)

    def drain_tx(self, queue: int) -> list[Frame]:
        """Return and clear everything emitted on one output, in order."""
        _check_int(queue, "transmit queue", 0, self.num_tx_queues - 1)
        out = self.link.tx_emitted[queue]
        self.link.tx_emitted[queue] = []
        return out

    # -- stepping ----------------------------------------------------------

    def step_device(self, max_work: int = 1) -> int:
        """Advance the clock one step and retire up to max_work descriptors.

        Service rotates fairly over the classes, the receive ring (class 0)
        and transmit queue q (class 1 + q), with a persistent round-robin
        cursor and one rule for every class. A class is busy when its ring
        is enabled and has work: frames on the wire for class 0, head !=
        tail for a transmit class. A busy class is served one work unit and
        resets the idle count. An idle class ends the step once that count
        has covered every class, and otherwise adds to it. Unless the step
        ends there, the cursor then moves to the class's successor. Returns
        the number of work units spent; dropping an undeliverable frame
        costs one unit like a completion does.

        An idle step is a lap over idle classes: it serves nothing and
        returns 0, with the clock advanced, the cursor where it began and no
        memory touched. A disabled ring with work (a transmit ring with
        head != tail, or a receive ring with frames on the wire) is idle.

        A transmit completion emits a Frame carrying the order and inject
        time from its buffer's record, which the last receive into that
        buffer wrote, and the current step as drain_time; a buffer never
        received into emits order and inject_time None, and length 0 emits
        nothing. The device derives the order itself: the wire is FIFO and
        a faulted receive puts its frame and inject time back uncounted, so
        the frame a receive pops has order rx_delivered + rx_dropped, and
        its inject time is the one popped off rx_times with it. Injected
        frames are never written. The emitted Frame is built with
        object.__new__ and one store per field, not Frame(...), because
        CPython enters a dataclass __init__ through a C call that it cannot
        inline. Retiring an RS descriptor writes the new head to the
        write-back address, if one is set.

        A descriptor whose buffer runs past the DMA arena raises
        TranslationFault before the device writes or emits anything for
        it: a receive frame goes back to the head of the wire, and the
        ring's head and the link counters stay as they were. Completions
        served earlier in the step stay applied, and the cursor stays on
        the faulted class, so the next step serves it first.

        Emission copies a buffer only when its bytes changed. The device
        keeps one record per buffer address, (payload, order, inject time),
        whose payload is the object last received into that buffer or
        copied out of it. A completion emits that object when its length is
        the descriptor's and the arena still holds it at the buffer address,
        checked in place (bytearray.startswith, a memcmp with no
        allocation); otherwise it copies the buffer and records the copy
        with the same order and inject time. Each payload therefore holds
        exactly the bytes in memory at its own completion, whatever wrote
        them, and a packet forwarded unchanged is emitted as the bytes
        object that was injected. The device holds one record per buffer
        address it has received into or emitted from, and the link one
        inject time per frame on the wire: nothing grows with the frames
        ever injected. Payloads are immutable bytes, so callers cannot tell
        a shared one from a fresh copy.
        """
        rings = self._rings
        rx = rings[0]
        if not rx.enabled and not any(ring.enabled for ring in rings[1:]):
            raise NotReadyError("device is not enabled")
        now = self.now = self.now + 1
        link = self.link
        wire = link.rx_pending
        times, emitted = link.rx_times, link.tx_emitted
        mem, u64 = self._mem, self._u64
        arena, held = self._arena, self._held
        classes, succ = self._classes, self._succ
        c = self._rr
        # passed counts the idle classes visited since the last served one. At
        # classes, a full idle lap has brought the cursor back to the class the
        # lap began on, idle then and unchanged since, so the step ends on it.
        done = passed = 0
        try:
            while done < max_work:
                ring = rings[c]
                if (ring.head != ring.tail if c else wire) and ring.enabled:
                    if c:
                        slot = ring.head
                        mi = ring.meta0 + 2 * slot  # metadata word; mi - 1 is the address
                        meta = u64[mi]
                        length = meta & META_LEN_MASK
                        if length:
                            baddr = u64[mi - 1]
                            payload, order, t = held.get(baddr, (b"", None, None))
                            if len(payload) != length or not arena.startswith(payload, baddr):
                                payload = mem[baddr:baddr + length].tobytes()
                                if len(payload) != length:  # the slice stopped at the arena's end
                                    raise TranslationFault(f"transmit queue {c - 1} slot {slot}: "
                                                           f"buffer {baddr:#x}+{length} lies "
                                                           f"outside the DMA arena")
                                held[baddr] = (payload, order, t)
                            # slot by slot: Frame(...) would enter a dataclass __init__ through a C call
                            frame = object.__new__(Frame)
                            frame.payload = payload
                            frame.inject_time = t
                            frame.drain_time = now
                            frame.order = order
                            emitted[c - 1].append(frame)
                        u64[mi] = meta | META_DD
                        slot = (slot + 1) & ring.mask
                        ring.head = slot
                        if meta & META_RS and ring.wb:
                            self._u32[ring.wb >> 2] = slot
                    else:
                        frame = wire.popleft()
                        t = times.popleft()
                        slot = rx.head
                        if slot == rx.tail:
                            # no device-owned descriptor: the wire does not wait
                            link.rx_dropped += 1
                        else:
                            mi = rx.meta0 + 2 * slot
                            baddr = u64[mi - 1]
                            payload = frame.payload
                            n = len(payload)
                            try:
                                mem[baddr:baddr + n] = payload
                            except ValueError:  # the slice stopped at the arena's end
                                wire.appendleft(frame)
                                times.appendleft(t)
                                raise TranslationFault(f"receive slot {slot}: buffer "
                                                       f"{baddr:#x}+{n} lies outside the "
                                                       f"DMA arena") from None
                            # payload first, then the whole metadata word: the publish order
                            u64[mi] = n | META_EOP | META_DD
                            held[baddr] = (payload, link.rx_delivered + link.rx_dropped, t)
                            rx.head = (slot + 1) & rx.mask
                            link.rx_delivered += 1
                    done += 1
                    passed = 0
                elif passed == classes:
                    break
                else:
                    passed += 1
                c = succ[c]
        finally:
            self._rr = c
        return done
