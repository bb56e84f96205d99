"""Pool-based reference pipeline: allocation-free forwarding oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinyring import BufferPool, Frame, RefPipeline, identity, macswap, ref_init


class TestBufferPool:
    def test_starts_full(self):
        assert BufferPool(16).free_count == 16

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            BufferPool(0)

    def test_acquire_release_roundtrip(self):
        pool = BufferPool(4)
        bufs = [pool.acquire() for _ in range(4)]
        assert pool.free_count == 0
        for b in bufs:
            pool.release(b)
        assert pool.free_count == 4

    def test_buffers_are_fixed_capacity(self):
        buf = BufferPool(1).acquire()
        assert len(buf) == 2048


class TestInit:
    def test_free_buffer_count(self):
        pipe = ref_init(16, 1, identity())
        assert pipe.pool.free_count == 16

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            ref_init(0, 1, identity())

    def test_zero_outputs_rejected(self):
        with pytest.raises(ValueError):
            RefPipeline(BufferPool(1), 0, identity())

    def test_output_queue_count(self):
        pipe = ref_init(16, 3, identity())
        assert pipe.process_trace([]) == [[], [], []]


class TestProcessTrace:
    def test_identity_forwards_in_order(self):
        frames = [Frame(p) for p in (b"a" * 64, b"b" * 64, b"c" * 64)]
        out = ref_init(16, 1, identity()).process_trace(frames)
        assert out == [[b"a" * 64, b"b" * 64, b"c" * 64]]

    def test_drop_all(self):
        drop = lambda buf, length, n: [0] * n
        frames = [Frame(b"x" * 64)]
        assert ref_init(16, 1, drop).process_trace(frames) == [[]]

    def test_truncating_processor(self):
        halve = lambda buf, length, n: [length // 2] * n
        out = ref_init(16, 1, halve).process_trace([Frame(bytes(range(100)))])
        assert out == [[bytes(range(50))]]

    def test_pool_conserved_after_trace(self):
        pipe = ref_init(4, 2, macswap())
        pipe.process_trace([Frame(bytes(20))] * 50)
        assert pipe.pool.free_count == 4

    def test_source_frames_untouched(self):
        payload = bytes(range(12)) * 2
        frame = Frame(payload)
        ref_init(4, 1, macswap()).process_trace([frame])
        assert frame.payload == payload


@settings(max_examples=50, deadline=None)
@given(trace=st.lists(st.binary(min_size=1, max_size=128), max_size=30),
       n=st.integers(min_value=1, max_value=4))
def test_identity_is_fanout_copy(trace, n):
    out = ref_init(8, n, identity()).process_trace([Frame(p) for p in trace])
    assert out == [list(trace)] * n
