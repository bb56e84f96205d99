"""Built-in packet processors: identity, MAC swap, length policer."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tinyring import identity, macswap, make_processor, policer


def apply(nf, payload, n=1):
    buf = bytearray(2048)
    buf[: len(payload)] = payload
    lengths = nf(memoryview(buf), len(payload), n)
    return lengths, bytes(buf[: len(payload)])


class TestIdentity:
    def test_single_output(self):
        lengths, out = apply(identity(), b"\x55" * 64)
        assert lengths == [64]
        assert out == b"\x55" * 64

    def test_fanout(self):
        lengths, out = apply(identity(), bytes(128), n=2)
        assert lengths == [128, 128]
        assert out == bytes(128)

    @given(payload=st.binary(min_size=1, max_size=2048))
    def test_payload_untouched(self, payload):
        _, out = apply(identity(), payload)
        assert out == payload


class TestMacSwap:
    def test_swaps_first_two_address_fields(self):
        src = bytes.fromhex("001122334455") + bytes.fromhex("AABBCCDDEEFF") + bytes(50)
        want = bytes.fromhex("AABBCCDDEEFF") + bytes.fromhex("001122334455") + bytes(50)
        lengths, out = apply(macswap(), src)
        assert lengths == [62]
        assert out == want

    def test_short_packet_unchanged(self):
        lengths, out = apply(macswap(), b"\x01" * 8)
        assert lengths == [8]
        assert out == b"\x01" * 8

    @given(payload=st.binary(min_size=12, max_size=2048))
    def test_involution(self, payload):
        buf = bytearray(2048)
        buf[: len(payload)] = payload
        nf = macswap()
        nf(memoryview(buf), len(payload), 1)
        nf(memoryview(buf), len(payload), 1)
        assert bytes(buf[: len(payload)]) == payload

    @given(payload=st.binary(min_size=12, max_size=256))
    def test_payload_past_addresses_untouched(self, payload):
        _, out = apply(macswap(), payload)
        assert out[12:] == payload[12:]


class TestPolicer:
    def test_below_threshold_dropped(self):
        lengths, _ = apply(policer(100), b"x" * 64)
        assert lengths == [0]

    def test_boundary_inclusive(self):
        lengths, _ = apply(policer(100), b"x" * 100)
        assert lengths == [100]

    def test_zero_threshold_is_identity(self):
        for size in (1, 64, 2048):
            lengths, out = apply(policer(0), b"y" * size, n=3)
            assert lengths == [size] * 3
            assert out == b"y" * size

    def test_never_modifies_bytes(self):
        _, out = apply(policer(100), bytes(range(64)))
        assert out == bytes(range(64))

    @pytest.mark.parametrize("min_len", [-3, -1, "x", 1.5, None, True])
    def test_invalid_threshold_rejected(self, min_len):
        # -3 acted as identity and "x" raised a bare TypeError on the first packet
        with pytest.raises(ValueError, match="policer minimum length"):
            policer(min_len)
        with pytest.raises(ValueError, match="policer minimum length"):
            make_processor("policer", min_len=min_len)


class TestFactory:
    def test_known_names(self):
        for name in ("identity", "macswap", "policer"):
            assert callable(make_processor(name))

    def test_policer_threshold_forwarded(self):
        nf = make_processor("policer", min_len=10)
        lengths, _ = apply(nf, b"z" * 10)
        assert lengths == [10]

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_processor("firewall")
