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
"""

from __future__ import annotations

import struct
import sys
from collections import deque
from dataclasses import dataclass

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
_NO_ADDR = 1 << 64  # above every address a descriptor can hold


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

    inject_time and drain_time are simulated step counts; their difference
    is the frame's in-simulation latency. order is the global injection
    ordinal, carried through to emission so tests can check sequencing
    without trusting payload contents.
    """

    payload: bytes
    inject_time: int | None = None
    drain_time: int | None = None
    order: int | None = None


class Link:
    """Frame queues on both sides of the device, plus loss accounting."""

    def __init__(self, num_tx_queues: int) -> None:
        self.rx_pending: deque[Frame] = deque()
        self.tx_emitted: list[list[Frame]] = [[] for _ in range(num_tx_queues)]
        self.injected = 0
        self.rx_delivered = 0
        self.rx_dropped = 0
        # buffer phys addr -> (inject_time, order) of the frame last written
        # there; lets emission carry timing through the zero-copy path.
        self.buffer_meta: dict[int, tuple[int | None, int | None]] = {}


class _Ring:
    """Register state of one descriptor ring; enabled is 0 or 1."""

    __slots__ = ("base", "length", "head", "tail", "enabled", "wb")

    def __init__(self) -> None:
        self.base = self.length = self.head = self.tail = self.enabled = self.wb = 0


class Nic:
    """The device model. One receive ring, num_tx_queues transmit rings."""

    def __init__(self, env: MemEnv, num_tx_queues: int = 1) -> None:
        _check_int(num_tx_queues, "transmit queue count", 1, MAX_QUEUES)
        self._mem = env.dma
        self._u64 = env.dma.cast("Q")  # descriptor words, index = address >> 3
        self._u32 = env.dma.cast("I")  # head write-back words, index = address >> 2
        self.num_tx_queues = num_tx_queues
        self.now = 0
        self.link = Link(num_tx_queues)
        self._rx = _Ring()
        self._tx = [_Ring() for _ in range(num_tx_queues)]
        # (register name, queue) -> (ring, field): the whole register file
        self._regs: dict[tuple[str, int], tuple[_Ring, str]] = {
            (reg, 0): (self._rx, field) for reg, field in (
                ("RDBA", "base"), ("RDLEN", "length"), ("RDH", "head"),
                ("RDT", "tail"), ("RXEN", "enabled"))}
        for q, ring in enumerate(self._tx):
            for reg, field in (("TDBA", "base"), ("TDLEN", "length"), ("TDH", "head"),
                               ("TDT", "tail"), ("TXEN", "enabled"), ("TDWBA", "wb")):
                self._regs[reg, q] = (ring, field)
        # round-robin cursor over service classes: 0 is RX, 1 + q is TX q
        self._rr = 0

    # -- register file ----------------------------------------------------

    def _no_register(self, reg: str, queue: int) -> InvalidRegisterError:
        return InvalidRegisterError(f"no register {reg}({queue}) on a device with "
                                    f"{self.num_tx_queues} transmit queues")

    def reg_read(self, reg: str, queue: int = 0) -> int:
        try:
            ring, field = self._regs[reg, queue]
        except KeyError:
            raise self._no_register(reg, queue) from None
        return getattr(ring, field)

    def reg_write(self, reg: str, value: int, queue: int = 0) -> None:
        try:
            ring, field = self._regs[reg, queue]
        except KeyError:
            raise self._no_register(reg, queue) from None
        if not 0 <= value < 1 << 32:
            raise ValueError(f"register value must fit 32 bits, got {value:#x}")
        if field == "tail":
            if value >= ring.length:
                raise ValueError(f"{reg}({queue}) {value} outside ring of length {ring.length}")
        elif field == "enabled":
            if value:
                self._validate_ring(ring, "receive ring" if ring is self._rx
                                    else f"transmit ring {queue}")
                value = 1
        elif field == "wb":
            if value and (value % 4 or value + 4 > len(self._mem)):
                raise ValueError(f"{reg}({queue}) {value:#x} must be a 4-byte aligned arena address")
        elif ring.enabled:  # head, base and length
            raise RegisterWriteFault(f"{reg}({queue}) is device-owned while the ring is enabled")
        setattr(ring, field, value)

    def _validate_ring(self, ring: _Ring, what: str) -> None:
        base, length = ring.base, ring.length
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
        n = len(frame.payload)
        if not 1 <= n <= MAX_FRAME:
            raise ValueError(f"frame payload must be 1..{MAX_FRAME} bytes, got {n}")
        frame.inject_time = self.now
        frame.order = self.link.injected
        self.link.injected += 1
        self.link.rx_pending.append(frame)

    def drain_tx(self, queue: int) -> list[Frame]:
        """Return and clear everything emitted on one output, in order."""
        _check_int(queue, "transmit queue", 0, self.num_tx_queues - 1)
        out = self.link.tx_emitted[queue]
        self.link.tx_emitted[queue] = []
        return out

    # -- stepping ----------------------------------------------------------

    def step_device(self, max_work: int = 1) -> int:
        """Advance the clock one step and retire up to max_work descriptors.

        Service rotates fairly over the receive ring and every enabled
        transmit queue (persistent round-robin cursor, skipping classes with
        nothing to do). Returns the number of work units spent; dropping an
        undeliverable frame costs one unit like a completion does.

        A transmit completion emits a Frame carrying the (inject_time,
        order) recorded when its buffer was received and the current step
        as drain_time; length 0 emits nothing. Retiring an RS descriptor
        writes the new head to the write-back address, if one is set.

        A descriptor whose buffer runs past the DMA arena raises
        TranslationFault before the device writes or emits anything for
        it: a receive frame goes back to the head of the wire, and the
        ring's head and the link counters stay as they were. Completions
        served earlier in the step stay applied, and the cursor stays on
        the faulted class, so the next step serves it first.

        Completions of the same bytes within one step share one payload
        object: a completion that reads the buffer address and length the
        last copy read reuses that bytes object, unless a device write of
        this step (receive payload, receive metadata, done bit, head
        write-back) has overlapped the copied range since. Nothing else
        writes memory during a step, so each payload still holds exactly
        the bytes in memory at its own completion. Payloads are immutable
        bytes, so callers cannot tell a shared one from a fresh copy.
        """
        rx, txs = self._rx, self._tx
        if not rx.enabled and not any(t.enabled for t in txs):
            raise NotReadyError("device is not enabled")
        now = self.now = self.now + 1
        link = self.link
        wire = link.rx_pending
        stamps = link.buffer_meta
        emitted = link.tx_emitted
        mem, u64 = self._mem, self._u64
        classes = 1 + self.num_tx_queues
        c = self._rr  # class 0 is RX, 1 + q is TX q
        # shared is the last payload copied this step and [lo, hi) the range
        # it was copied from. With no copy the range is [_NO_ADDR, -1), which
        # every overlap test below rejects at its first compare.
        lo, hi = _NO_ADDR, -1
        done = 0
        while done < max_work:
            if c:
                ring = txs[c - 1]
                idle = ring.head == ring.tail or not ring.enabled
            else:
                idle = not wire or not rx.enabled
            if idle:
                # move the cursor on to the next class with work; after a full
                # lap it is back on the class it started from
                for _ in range(classes):
                    c += 1
                    if c == classes:
                        c = 0
                    if c:
                        ring = txs[c - 1]
                        if ring.enabled and ring.head != ring.tail:
                            break
                    elif rx.enabled and wire:
                        break
                else:
                    break
            if c:
                slot = ring.head
                daddr = ring.base + slot * DESC_BYTES
                di = daddr >> 3
                baddr = u64[di]
                meta = u64[di + 1]
                length = meta & META_LEN_MASK
                if length:
                    end = baddr + length
                    if baddr != lo or end != hi:
                        shared = bytes(mem[baddr:end])
                        if len(shared) != length:  # the slice stopped at the arena's end
                            self._rr = c
                            raise TranslationFault(f"transmit queue {c - 1} slot {slot}: "
                                                   f"buffer {baddr:#x}+{length} lies "
                                                   f"outside the DMA arena")
                        lo, hi = baddr, end
                    inject_time, order = stamps.get(baddr, (None, None))
                    emitted[c - 1].append(Frame(shared, inject_time, now, order))
                u64[di + 1] = meta | META_DD
                if lo < daddr + 16 and daddr + 8 < hi:
                    lo, hi = _NO_ADDR, -1
                slot = (slot + 1) & (ring.length - 1)
                ring.head = slot
                if meta & META_RS and ring.wb:
                    wb = ring.wb
                    self._u32[wb >> 2] = slot
                    if wb < hi and lo < wb + 4:
                        lo, hi = _NO_ADDR, -1
            else:
                frame = wire.popleft()
                slot = rx.head
                if slot == rx.tail:
                    # no device-owned descriptor: the wire does not wait
                    link.rx_dropped += 1
                else:
                    daddr = rx.base + slot * DESC_BYTES
                    di = daddr >> 3
                    baddr = u64[di]
                    payload = frame.payload
                    n = len(payload)
                    try:
                        mem[baddr:baddr + n] = payload
                    except ValueError:  # the slice stopped at the arena's end
                        wire.appendleft(frame)
                        self._rr = c
                        raise TranslationFault(f"receive slot {slot}: buffer {baddr:#x}+{n} "
                                               f"lies outside the DMA arena") from None
                    # payload first, then the whole metadata word: the publish order
                    u64[di + 1] = n | META_EOP | META_DD
                    if (baddr < hi and lo < baddr + n) or (lo < daddr + 16 and daddr + 8 < hi):
                        lo, hi = _NO_ADDR, -1
                    rx.head = (slot + 1) & (rx.length - 1)
                    link.rx_delivered += 1
                    stamps[baddr] = (frame.inject_time, frame.order)
            c += 1
            if c == classes:
                c = 0
            done += 1
        self._rr = c
        return done
