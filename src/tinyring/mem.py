"""Simulated DMA memory: a flat physical arena with page-level translation.

The physical side is one zero-filled byte arena handed out by a bump
allocator, so allocations are deterministic and physically contiguous.
Virtual addresses live in a far-away range with an unmapped guard page
between regions; confusing the two spaces, or touching a stale address,
fails fast with TranslationFault instead of silently aliasing.

Pages are a fixed 4096 bytes (DEFAULT_PAGE_SIZE): allocations round up to
whole pages, translation works page by page, and the guard pages are one
page each.

There is no deallocation. Everything is claimed up front and kept for the
lifetime of the environment, which is exactly the discipline the driver
side needs anyway.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_PAGE_SIZE = 4096
DEFAULT_ARENA_SIZE = 16 * 1024 * 1024

_PAGE_MASK = DEFAULT_PAGE_SIZE - 1  # in-page offset bits of an address

# Base of the simulated virtual address space. Far from any arena offset so
# that a physical address used as a virtual one (or vice versa) faults.
_VIRT_BASE = 0x7F00_0000_0000


def _check_int(value: object, what: str, minimum: int, maximum: int | None = None) -> None:
    """Raise ValueError unless value is an int, not a bool, in [minimum, maximum]."""
    if (isinstance(value, bool) or not isinstance(value, int) or value < minimum
            or (maximum is not None and value > maximum)):
        bound = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
        raise ValueError(f"{what} must be an integer {bound}, got {value!r}")


class TranslationFault(Exception):
    """Address is not covered by any live mapping."""


class OutOfMemory(Exception):
    """The physical arena has no room left for the request."""


@dataclass(frozen=True, eq=False)
class DmaRegion:
    """A physically contiguous, zero-initialized, page-backed allocation."""

    virt_base: int
    phys_base: int
    size: int
    view: memoryview  # writable window over this region's arena bytes


class MemEnv:
    """Execution environment owning the DMA arena and the page map."""

    def __init__(self, arena_size: int = DEFAULT_ARENA_SIZE) -> None:
        _check_int(arena_size, "arena size", 1)
        self._arena = bytearray(-(-arena_size // DEFAULT_PAGE_SIZE) * DEFAULT_PAGE_SIZE)
        # Whole-arena view used for device-side DMA. memoryview assignment
        # cannot resize, so an out-of-range device access raises instead of
        # growing the arena the way bytearray slice assignment would.
        self.dma = memoryview(self._arena)
        self._next_phys = 0
        self._next_virt = _VIRT_BASE
        self._v2p: dict[int, int] = {}
        self._p2v: dict[int, int] = {}

    @property
    def arena_size(self) -> int:
        return len(self._arena)

    def allocate_dma(self, size: int) -> DmaRegion:
        """Hand out a zeroed, page-aligned, physically contiguous region."""
        _check_int(size, "allocation size", 1)
        span = -(-size // DEFAULT_PAGE_SIZE) * DEFAULT_PAGE_SIZE
        if self._next_phys + span > len(self._arena):
            raise OutOfMemory(f"{size} bytes requested, "
                              f"{len(self._arena) - self._next_phys} left in arena")
        phys = self._next_phys
        virt = self._next_virt
        self._next_phys += span
        self._next_virt += span + DEFAULT_PAGE_SIZE  # guard page keeps regions apart virtually
        for off in range(0, span, DEFAULT_PAGE_SIZE):
            self._v2p[virt + off] = phys + off
            self._p2v[phys + off] = virt + off
        return DmaRegion(virt, phys, size, self.dma[phys:phys + size])

    def virt_to_phys(self, addr: int) -> int:
        try:
            return self._v2p[addr & ~_PAGE_MASK] + (addr & _PAGE_MASK)
        except KeyError:
            raise TranslationFault(f"virtual address 0x{addr:x} is not mapped") from None

    def phys_to_virt(self, addr: int) -> int:
        try:
            return self._p2v[addr & ~_PAGE_MASK] + (addr & _PAGE_MASK)
        except KeyError:
            raise TranslationFault(f"physical address 0x{addr:x} is not mapped") from None
