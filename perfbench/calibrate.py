"""A fixed piece of pure-Python work that measures how fast the host runs right now.

The host this benchmark was written on changes speed by up to a third from
one second to the next and from one minute to the next (other tenants on
the same cores), and the change reaches every process alike. Timing
tinyring alone therefore measures the neighbours as much as the code. The
benchmark runs this kernel before its first pass and after each pass; the
mean kernel time on either side of a pass, against ``REFERENCE_S``, is the
host's slow-down factor for that pass, and the pass's times are divided by
it.

The kernel does the kind of work the simulator does, in the same
proportions roughly: struct packing into a shared bytearray, byte copies of
64 to 1500 bytes, small slotted objects, list and dict traffic, and method
calls. (A bare integer loop was tried instead and left wider run-to-run
spreads.) It does not touch tinyring, so no change to tinyring can move it.
"""

from __future__ import annotations

import struct
import time

# A round figure near the kernel's median time on the host the benchmark was
# tuned on. Changing it rescales every reported time, so it is fixed for the
# life of the benchmark.
REFERENCE_S = 0.050

_DESC = struct.Struct("<QQ")
_SIZES = (64, 576, 64, 1500, 64, 576, 64)


class _Item:
    __slots__ = ("payload", "slot", "stamp")

    def __init__(self, payload: bytes, slot: int, stamp: int) -> None:
        self.payload = payload
        self.slot = slot
        self.stamp = stamp


class _Ring:
    def __init__(self, size: int) -> None:
        self.mem = bytearray(size * (16 + 2048))
        self.view = memoryview(self.mem)
        self.mask = size - 1
        self.meta: dict[int, int] = {}

    def put(self, i: int, n: int) -> None:
        slot = i & self.mask
        _DESC.pack_into(self.view, slot * 16, 4096 + slot * 2048, n | 1 << 32)
        self.meta[slot] = i

    def take(self, i: int) -> _Item | None:
        slot = i & self.mask
        addr, meta = _DESC.unpack_from(self.view, slot * 16)
        if not meta >> 32:
            return None
        n = meta & 0xFFFF
        _DESC.pack_into(self.view, slot * 16, addr, n)
        return _Item(bytes(self.view[addr:addr + n]), slot, self.meta.get(slot, -1))


def kernel(rounds: int = 30_000) -> int:
    ring = _Ring(256)
    out: list[_Item] = []
    total = 0
    for i in range(rounds):
        ring.put(i, _SIZES[i % len(_SIZES)])
        item = ring.take(i)
        if item is not None:
            out.append(item)
            total += len(item.payload)
        if len(out) >= 1024:
            out = []
    return total


def measure() -> float:
    """Host seconds for one kernel run."""
    t = time.perf_counter()
    kernel()
    return time.perf_counter() - t
