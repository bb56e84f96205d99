"""Descriptor wire-format codec."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tinyring import Descriptor, decode_descriptor, encode_descriptor

# Assembled by hand from the layout: u64 LE buffer address, then a u64 LE
# metadata word with length in bits [15:0] and done at bit 32.
#   addr 0x1000          -> 00 10 00 00 00 00 00 00
#   64 | 1 << 32         -> 40 00 00 00 01 00 00 00
HAND_VECTOR = bytes.fromhex("00100000000000004000000001000000")


def test_hand_vector_encode():
    assert encode_descriptor(Descriptor(0x1000, 64, dd=True)) == HAND_VECTOR


def test_hand_vector_decode():
    d = decode_descriptor(HAND_VECTOR)
    assert d == Descriptor(0x1000, 64, eop=False, rs=False, dd=True)


def test_all_zero():
    assert encode_descriptor(Descriptor(0, 0)) == bytes(16)


def test_flag_bit_positions():
    # end-of-packet is bit 24 of the metadata word: byte 11 of the wire form
    assert encode_descriptor(Descriptor(0, 0, eop=True))[11] == 0x01
    # report-status is bit 27: same byte, three bits up
    assert encode_descriptor(Descriptor(0, 0, rs=True))[11] == 0x08
    # done is bit 32: byte 12
    assert encode_descriptor(Descriptor(0, 0, dd=True))[12] == 0x01


def test_length_field_too_wide():
    with pytest.raises(ValueError):
        encode_descriptor(Descriptor(0, 65536))


@pytest.mark.parametrize("addr", [1 << 64, -1])
def test_address_field_out_of_range(addr):
    with pytest.raises(ValueError):
        encode_descriptor(Descriptor(addr, 64))


def test_decode_wrong_size():
    with pytest.raises(ValueError):
        decode_descriptor(b"\x00" * 15)


descriptors = st.builds(
    Descriptor,
    buffer_addr=st.integers(min_value=0, max_value=(1 << 64) - 1),
    length=st.integers(min_value=0, max_value=65535),
    eop=st.booleans(),
    rs=st.booleans(),
    dd=st.booleans(),
)


@given(descriptors)
def test_roundtrip(d):
    assert decode_descriptor(encode_descriptor(d)) == d
