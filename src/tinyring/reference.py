"""Pool-based forwarding pipeline used as a differential oracle.

Deliberately structured nothing like the ring agent: each frame is copied
into a buffer taken from a pool, processed, copied out once per output, and
the buffer is returned. No descriptors, no devices, no shared state.
Obvious beats fast here; for in-order processors the observable forwarding
behavior must match the agent byte for byte.
"""

from __future__ import annotations

from typing import Iterable

from .agent import Processor
from .mem import _check_int
from .nic import MAX_FRAME, Frame


class BufferPool:
    """Fixed set of packet buffers allocated once up front."""

    def __init__(self, capacity: int) -> None:
        _check_int(capacity, "pool capacity", 1)
        self.capacity = capacity
        self._free = [bytearray(MAX_FRAME) for _ in range(capacity)]

    @property
    def free_count(self) -> int:
        return len(self._free)

    def acquire(self) -> bytearray:
        return self._free.pop()

    def release(self, buf: bytearray) -> None:
        self._free.append(buf)


class RefPipeline:
    """One receive queue feeding num_outputs output queues through a processor."""

    def __init__(self, pool: BufferPool, num_outputs: int, processor: Processor) -> None:
        _check_int(num_outputs, "output count", 1)
        self.pool = pool
        self.num_outputs = num_outputs
        self.processor = processor

    def process_trace(self, frames: Iterable[Frame]) -> list[list[bytes]]:
        """Run every frame through the pipeline; returns payloads per output.

        Strictly sequential: one buffer is in flight at a time, so the pool
        can never run dry and order is preserved end to end.
        """
        outs: list[list[bytes]] = [[] for _ in range(self.num_outputs)]
        for frame in frames:
            payload = frame.payload
            n = len(payload)
            buf = self.pool.acquire()
            buf[:n] = payload
            lengths = self.processor(memoryview(buf), n, self.num_outputs)
            for q, ln in enumerate(lengths):
                if ln > 0:
                    outs[q].append(bytes(buf[:ln]))
            self.pool.release(buf)
        return outs


def ref_init(pool_capacity: int, num_outputs: int, processor: Processor) -> RefPipeline:
    """A ready pipeline; kept in the API because perfbench builds its oracle with it."""
    return RefPipeline(BufferPool(pool_capacity), num_outputs, processor)
