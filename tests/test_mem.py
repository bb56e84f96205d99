"""Allocation and translation contracts of the simulated DMA environment."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinyring import DEFAULT_PAGE_SIZE, MemEnv, OutOfMemory, TranslationFault


def test_page_size_default():
    # the page is fixed at 4096 bytes: one-byte allocations take a page each
    assert DEFAULT_PAGE_SIZE == 4096
    env = MemEnv()
    assert [env.allocate_dma(1).phys_base for _ in range(3)] == [0, 4096, 8192]
    assert MemEnv(arena_size=1).arena_size == 4096


def test_allocation_is_zeroed():
    region = MemEnv().allocate_dma(4096)
    assert region.size == 4096
    assert bytes(region.view) == bytes(4096)


def test_allocation_is_page_aligned():
    env = MemEnv()
    env.allocate_dma(100)  # make the next one land mid-arena
    region = env.allocate_dma(100)
    assert region.phys_base % DEFAULT_PAGE_SIZE == 0
    assert region.virt_base % DEFAULT_PAGE_SIZE == 0


def test_allocations_are_disjoint():
    env = MemEnv()
    a = env.allocate_dma(5000)
    b = env.allocate_dma(3000)
    assert a.phys_base + a.size <= b.phys_base or b.phys_base + b.size <= a.phys_base


def test_zero_size_rejected():
    with pytest.raises(ValueError):
        MemEnv().allocate_dma(0)
    with pytest.raises(ValueError):
        MemEnv(arena_size=0)


def test_arena_exhaustion():
    env = MemEnv(arena_size=2 * 4096)
    env.allocate_dma(4097)  # rounds up to both pages
    with pytest.raises(OutOfMemory):
        env.allocate_dma(1)


def test_affine_translation():
    env = MemEnv()
    region = env.allocate_dma(4096)
    assert env.virt_to_phys(region.virt_base) == region.phys_base
    assert env.virt_to_phys(region.virt_base + 8) == region.phys_base + 8
    assert env.phys_to_virt(region.phys_base) == region.virt_base
    assert env.phys_to_virt(region.phys_base + 8) == region.virt_base + 8


def test_unmapped_virtual_faults():
    with pytest.raises(TranslationFault):
        MemEnv().virt_to_phys(0xDEAD0000)


def test_unmapped_physical_faults():
    env = MemEnv(arena_size=4096)
    env.allocate_dma(4096)
    with pytest.raises(TranslationFault):
        env.phys_to_virt(4096)  # one past the arena


def test_guard_page_between_regions():
    env = MemEnv()
    a = env.allocate_dma(4096)
    env.allocate_dma(4096)
    with pytest.raises(TranslationFault):
        env.virt_to_phys(a.virt_base + 4096)


def test_view_aliases_physical_bytes():
    env = MemEnv()
    region = env.allocate_dma(64)
    region.view[0:4] = b"abcd"
    assert bytes(env.dma[region.phys_base:region.phys_base + 4]) == b"abcd"


@given(sizes=st.lists(st.integers(min_value=1, max_value=3 * 4096), min_size=1, max_size=12))
def test_allocation_sequences(sizes):
    env = MemEnv(arena_size=1 << 20)
    regions = [env.allocate_dma(s) for s in sizes]
    extents = sorted((r.phys_base, r.phys_base + r.size) for r in regions)
    for (_, end), (start, _) in zip(extents, extents[1:]):
        assert end <= start  # disjoint physical extents
    for r in regions:
        assert bytes(r.view) == bytes(r.size)  # zero-init


@settings(max_examples=200)
@given(size=st.integers(min_value=1, max_value=4 * 4096),
       data=st.data())
def test_roundtrip_and_contiguity(size, data):
    env = MemEnv()
    region = env.allocate_dma(size)
    a = data.draw(st.integers(min_value=0, max_value=size - 1))
    b = data.draw(st.integers(min_value=a, max_value=size - 1))
    va, vb = region.virt_base + a, region.virt_base + b
    assert env.phys_to_virt(env.virt_to_phys(va)) == va
    assert env.virt_to_phys(vb) - env.virt_to_phys(va) == b - a
