import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccmatrix.bitstream import U64_MAX, BitBuffer, bit_length
from ccmatrix.errors import FieldOverflow, OutOfBounds


class BitOracle:
    """Reference buffer that stores one Python int per bit."""

    def __init__(self):
        self.bits = []

    def write(self, pos, width, value):
        end = pos + width
        if end > len(self.bits):
            self.bits.extend([0] * (end - len(self.bits)))
        for t in range(width):
            self.bits[pos + t] = (value >> t) & 1

    def read(self, pos, width):
        return sum(self.bits[pos + t] << t for t in range(width))

    def words(self):
        out = [0] * ((len(self.bits) + 63) // 64)
        for p, bit in enumerate(self.bits):
            if bit:
                out[p // 64] |= 1 << (p % 64)
        return out


def test_write_900_at_origin():
    buf = BitBuffer()
    buf.write_field(0, 10, 900)
    assert buf.words[0] == 0b1110000100
    assert buf.bit_len == 10


def test_zero_write_full_width_only_grows():
    buf = BitBuffer()
    buf.write_field(0, 64, 0)
    assert buf.words[:-1].tolist() == [0]
    assert buf.bit_len == 64


def test_straddling_write_splits_low_segment_first():
    buf = BitBuffer()
    buf.write_field(60, 10, 700)
    # 700 = 1010111100b: low four bits land at the top of word 0
    assert buf.words[0] >> 60 == 0b1100
    assert buf.words[1] == 0b101011
    assert buf.bit_len == 70


def test_read_back_worked_values():
    buf = BitBuffer()
    buf.write_field(0, 10, 900)
    buf.write_field(60, 10, 700)
    assert buf.read_field(0, 10) == 900
    assert buf.read_field(60, 10) == 700


def test_read_zero_buffer_any_width():
    buf = BitBuffer(256)
    for width in (1, 7, 63, 64):
        assert buf.read_field(10, width) == 0


def test_field_overflow():
    buf = BitBuffer()
    with pytest.raises(FieldOverflow):
        buf.write_field(0, 10, 1024)
    with pytest.raises(FieldOverflow):
        buf.write_field(0, 1, 2)
    with pytest.raises(FieldOverflow):
        buf.write_field(0, 64, U64_MAX + 1)
    buf.write_field(0, 64, U64_MAX)  # full-width values are always legal
    assert buf.read_field(0, 64) == U64_MAX


def test_out_of_bounds_read():
    buf = BitBuffer()
    buf.write_field(0, 8, 255)
    with pytest.raises(OutOfBounds):
        buf.read_field(1, 8)
    with pytest.raises(OutOfBounds):
        buf.read_field(-1, 4)


def test_width_validation():
    buf = BitBuffer()
    with pytest.raises(ValueError):
        buf.write_field(0, 0, 0)
    with pytest.raises(ValueError):
        buf.write_field(0, 65, 0)


def test_negative_position_rejected():
    buf = BitBuffer()
    buf.write_field(0, 64, 123)
    with pytest.raises(ValueError):
        buf.write_field(-1, 4, 7)  # would otherwise alias the last word
    assert buf.words[:-1].tolist() == [123]


@pytest.mark.parametrize(
    "n,expected",
    [(0, 1), (1, 1), (2, 2), (255, 8), (256, 9), (900, 10), (1023, 10), (2**63, 64), (U64_MAX, 64)],
)
def test_bit_length_known_values(n, expected):
    assert bit_length(n) == expected


def test_bit_length_matches_binary_expansion():
    for n in range(2**16):
        assert bit_length(n) == max(1, len(bin(n)[2:]))
    rnd = random.Random(7)
    for _ in range(10_000):
        n = rnd.getrandbits(64)
        assert bit_length(n) == max(1, len(format(n, "b")))


def test_bit_length_rejects_out_of_range():
    with pytest.raises(ValueError):
        bit_length(-1)
    with pytest.raises(ValueError):
        bit_length(U64_MAX + 1)


@st.composite
def disjoint_fields(draw):
    """Non-overlapping (pos, width, value) triples in random order."""
    count = draw(st.integers(1, 30))
    fields = []
    pos = 0
    for _ in range(count):
        pos += draw(st.integers(0, 70))  # gap
        width = draw(st.integers(1, 64))
        value = draw(st.integers(0, 2**width - 1))
        fields.append((pos, width, value))
        pos += width
    draw(st.randoms()).shuffle(fields)
    return fields


@given(disjoint_fields())
@settings(max_examples=200)
def test_roundtrip_random_disjoint_writes(fields):
    buf = BitBuffer()
    for pos, width, value in fields:
        buf.write_field(pos, width, value)
    for pos, width, value in fields:
        assert buf.read_field(pos, width) == value


@given(disjoint_fields())
@settings(max_examples=100)
def test_disjoint_writes_commute(fields):
    a = BitBuffer()
    b = BitBuffer()
    for pos, width, value in fields:
        a.write_field(pos, width, value)
    for pos, width, value in reversed(fields):
        b.write_field(pos, width, value)
    # equal bits; bit_len may differ only if the last-extending write differs
    assert a.words.tolist() == b.words.tolist()
    assert a.bit_len == b.bit_len


def test_matches_bit_by_bit_oracle():
    """10^4 random writes (overwrites included) against the bit-level oracle."""
    rnd = random.Random(12345)
    for _ in range(100):
        buf = BitBuffer()
        oracle = BitOracle()
        for _ in range(100):
            width = rnd.randint(1, 64)
            pos = rnd.randint(0, 500)
            value = rnd.getrandbits(width)
            buf.write_field(pos, width, value)
            oracle.write(pos, width, value)
        assert buf.words[:-1].tolist() == oracle.words()
        assert buf.bit_len == len(oracle.bits)
        for _ in range(20):
            width = rnd.randint(1, 64)
            pos = rnd.randint(0, max(0, buf.bit_len - width))
            if pos + width <= buf.bit_len:
                assert buf.read_field(pos, width) == oracle.read(pos, width)


def test_overwrite_replaces_field_exactly():
    buf = BitBuffer()
    buf.write_field(0, 12, 0xFFF)
    buf.write_field(3, 4, 0)
    assert buf.read_field(3, 4) == 0
    assert buf.read_field(0, 3) == 0b111
    assert buf.read_field(7, 5) == 0b11111


def test_bytes_roundtrip():
    buf = BitBuffer()
    buf.write_field(0, 10, 900)
    buf.write_field(60, 10, 700)
    again = BitBuffer.from_bytes(buf.to_bytes(), buf.bit_len)
    assert again == buf
