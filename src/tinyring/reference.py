"""One-buffer forwarding pipeline used as a differential oracle.

Deliberately structured nothing like the ring agent: the pipeline owns one
packet buffer, and each frame is copied into it, processed, and copied out
once per output. No descriptors, no devices, no shared state. Obvious beats
fast here; for in-order processors the observable forwarding behavior must
match the agent byte for byte.
"""

from __future__ import annotations

from typing import Iterable

from .agent import Processor, _reject_output_lengths
from .mem import _check_int
from .nic import MAX_FRAME, MAX_QUEUES, Frame, _check_payload


class RefPipeline:
    """One receive queue feeding num_outputs output queues through a processor.

    It takes its rules from the code it is checked against, so the two can
    only agree on what they accept: num_outputs must be an integer in
    [1, MAX_QUEUES], the bound build_pipeline applies; a payload passes
    the device's injection rule (_check_payload), and a processor result
    the agent's output-length rule (_reject_output_lengths). What it does
    with an accepted frame shares no code with the agent.
    """

    def __init__(self, num_outputs: int, processor: Processor) -> None:
        _check_int(num_outputs, "output count", 1, MAX_QUEUES)
        self.num_outputs = num_outputs
        self.processor = processor
        self._buf = bytearray(MAX_FRAME)

    def process_trace(self, frames: Iterable[Frame]) -> list[list[bytes]]:
        """Run every frame through the pipeline; returns payloads per output.

        Strictly sequential: a frame is copied out on every output before
        the next one is copied in, so one buffer serves every frame and
        order is preserved end to end. A payload the device would reject
        at injection (not bytes, or not 1..MAX_FRAME bytes long) raises the
        same ValueError before it is copied in. Processor results that
        Agent.poll rejects (a length count other than num_outputs, or a
        length that is not an integer in [0, MAX_FRAME]) raise the same
        ValueError, from the same _reject_output_lengths, before anything
        is appended for the frame.
        """
        buf = self._buf
        outs: list[list[bytes]] = [[] for _ in range(self.num_outputs)]
        for frame in frames:
            payload = frame.payload
            _check_payload(payload)
            n = len(payload)
            buf[:n] = payload
            lengths = self.processor(memoryview(buf), n, self.num_outputs)
            _reject_output_lengths(lengths, self.num_outputs)
            for q, ln in enumerate(lengths):
                if ln > 0:
                    outs[q].append(bytes(buf[:ln]))
        return outs


def ref_init(pool_capacity: int, num_outputs: int, processor: Processor) -> RefPipeline:
    """RefPipeline(num_outputs, processor), once pool_capacity is checked.

    pool_capacity must be an integer of at least 1 and is otherwise unused:
    the oracle holds one buffer. The signature stays because
    perfbench/workloads.py builds its oracle with ref_init(4, ...); tests
    build RefPipeline directly.
    """
    _check_int(pool_capacity, "pool capacity", 1)
    return RefPipeline(num_outputs, processor)
