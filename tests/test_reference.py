"""One-buffer reference pipeline: the differential-testing oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinyring import (MAX_FRAME, Frame, MemEnv, Nic, RefPipeline, build_pipeline, identity,
                      macswap, policer, ref_init)


class TestInit:
    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            ref_init(0, 1, identity())

    @pytest.mark.parametrize("capacity", [2.0, True])
    def test_non_integer_capacity_rejected(self, capacity):
        with pytest.raises(ValueError, match="pool capacity"):
            ref_init(capacity, 1, identity())

    def test_zero_outputs_rejected(self):
        with pytest.raises(ValueError):
            RefPipeline(0, identity())

    @pytest.mark.parametrize("outputs", [1.5, True])
    def test_non_integer_output_count_rejected(self, outputs):
        with pytest.raises(ValueError, match="output count"):
            RefPipeline(outputs, identity())

    def test_output_count_bound_is_the_pipelines(self):
        # the oracle takes the pipeline's bound, so it never forwards on an
        # output the device cannot have
        with pytest.raises(ValueError) as pipeline:
            build_pipeline(8, 9)
        with pytest.raises(ValueError) as oracle:
            RefPipeline(9, identity())
        assert str(oracle.value) == str(pipeline.value)
        assert str(oracle.value) == "output count must be an integer in [1, 8], got 9"
        assert RefPipeline(8, identity()).process_trace([]) == [[]] * 8

    def test_output_queue_count(self):
        pipe = RefPipeline(3, identity())
        assert pipe.process_trace([]) == [[], [], []]


class TestProcessTrace:
    def test_identity_forwards_in_order(self):
        frames = [Frame(p) for p in (b"a" * 64, b"b" * 64, b"c" * 64)]
        out = RefPipeline(1, identity()).process_trace(frames)
        assert out == [[b"a" * 64, b"b" * 64, b"c" * 64]]

    def test_drop_all(self):
        drop = lambda buf, length, n: [0] * n
        frames = [Frame(b"x" * 64)]
        assert RefPipeline(1, drop).process_trace(frames) == [[]]

    def test_truncating_processor(self):
        halve = lambda buf, length, n: [length // 2] * n
        out = RefPipeline(1, halve).process_trace([Frame(bytes(range(100)))])
        assert out == [[bytes(range(50))]]

    @pytest.mark.parametrize("payload", [b"", bytes(MAX_FRAME + 1), bytes(3000),
                                         bytearray(b"x" * 64)],
                             ids=["empty", "2049", "3000", "bytearray"])
    def test_rejects_what_the_device_rejects(self, payload):
        # the oracle and the device share one payload rule, so the oracle
        # never forwards a frame the device cannot take, nor grows its buffer
        with pytest.raises(ValueError) as device:
            Nic(MemEnv()).inject_rx(Frame(payload))
        pipe = RefPipeline(1, identity())
        with pytest.raises(ValueError) as oracle:
            pipe.process_trace([Frame(b"v" * 64), Frame(payload)])
        assert str(oracle.value) == str(device.value)
        assert len(pipe._buf) == MAX_FRAME

    def test_source_frames_untouched(self):
        payload = bytes(range(12)) * 2
        frame = Frame(payload)
        RefPipeline(1, macswap()).process_trace([frame])
        assert frame.payload == payload


@settings(max_examples=50, deadline=None)
@given(trace=st.lists(st.binary(min_size=1, max_size=128), max_size=30),
       n=st.integers(min_value=1, max_value=4))
def test_identity_is_fanout_copy(trace, n):
    out = RefPipeline(n, identity()).process_trace([Frame(p) for p in trace])
    assert out == [list(trace)] * n


NFS = {"identity": identity, "macswap": macswap, "policer": lambda: policer(100)}


def written_out(nf, payload):
    """What every output carries for payload under nf; None when nf skips it."""
    if nf == "policer":
        return payload if len(payload) >= 100 else None
    if nf == "macswap" and len(payload) >= 12:
        return payload[6:12] + payload[0:6] + payload[12:]
    return payload


# example count from the profile: CI's deep step runs it ten times longer
@pytest.mark.deep
@settings(deadline=None)
@given(nf=st.sampled_from(sorted(NFS)), n=st.integers(min_value=1, max_value=4),
       trace=st.lists(st.binary(min_size=1, max_size=300), max_size=30))
def test_matches_written_out_nfs(nf, n, trace):
    want = [w for w in (written_out(nf, p) for p in trace) if w is not None]
    frames = [Frame(p) for p in trace]
    pipe = RefPipeline(n, NFS[nf]())
    assert pipe.process_trace(frames) == [want] * n
    # one frame per call on the same pipeline, as perfbench's check_forwarding does
    one_by_one = [[] for _ in range(n)]
    for frame in frames:
        for q, out in enumerate(pipe.process_trace((frame,))):
            one_by_one[q] += out
    assert one_by_one == [want] * n
