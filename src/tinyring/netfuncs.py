"""Built-in packet processors.

A processor is a callable (buffer, length, num_outputs) -> lengths, where
buffer is the packet's full-capacity mutable view, length is the received
byte count, and the result gives the byte count to send on each output
(0 skips that output). Processors mutate in place and must not keep a
reference to the buffer across calls. All built-ins are stateless, so one
instance can serve any number of pipelines.
"""

from __future__ import annotations

from .agent import Processor
from .mem import _check_int


def identity() -> Processor:
    """Forward every packet unchanged on every output."""

    def proc(buf: memoryview, length: int, num_outputs: int) -> list[int]:
        return [length] * num_outputs

    return proc


def macswap() -> Processor:
    """Swap destination and source MAC (bytes 0..6 and 6..12).

    Packets shorter than 12 bytes pass through unchanged. Applying the
    function twice restores the original packet.
    """

    def proc(buf: memoryview, length: int, num_outputs: int) -> list[int]:
        if length >= 12:
            dst = bytes(buf[0:6])
            buf[0:6] = buf[6:12]
            buf[6:12] = dst
        return [length] * num_outputs

    return proc


def policer(min_len: int) -> Processor:
    """Forward packets of at least min_len bytes, drop the rest.

    The boundary is inclusive: a packet of exactly min_len bytes passes.
    min_len of 0 behaves as identity. Raises ValueError for a min_len that
    is not an integer of at least 0.
    """
    _check_int(min_len, "policer minimum length", 0)

    def proc(buf: memoryview, length: int, num_outputs: int) -> list[int]:
        if length >= min_len:
            return [length] * num_outputs
        return [0] * num_outputs

    return proc


def make_processor(name: str, min_len: int = 100) -> Processor:
    """Build a processor by name; min_len applies to the policer only."""
    if name == "identity":
        return identity()
    if name == "macswap":
        return macswap()
    if name == "policer":
        return policer(min_len)
    raise ValueError(f"unknown network function {name!r}")
