"""Differential tests of the bulk kernels and the lane-parallel VLB decoder.

The reference throughout is the single-field path,
``BitBuffer.write_field``/``read_field``, one field at a time.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccmatrix.bitstream import (
    U64_MAX,
    BitBuffer,
    bit_length,
    bit_lengths,
    pack_fields,
    unpack_fields,
)
from ccmatrix.errors import CorruptStream, FieldOverflow
from ccmatrix.sm import SmMatrix
from ccmatrix.vlb import VlbMatrix

from conftest import encode_reference

# (gap before the field, width, value): gaps up to 63 put fields at every offset
field = st.tuples(st.integers(0, 63), st.integers(1, 64)).flatmap(
    lambda gw: st.tuples(st.just(gw[0]), st.just(gw[1]), st.integers(0, (1 << gw[1]) - 1))
)


@given(st.lists(field, min_size=1, max_size=40))
@example([(0, 64, U64_MAX)])  # width 64 at offset 0
@example([(63, 64, U64_MAX)])  # width 64 at offset 63
@example([(60, 10, 700), (0, 64, 1), (3, 7, 127)])  # off + width > 64 straddles
@settings(max_examples=200)
def test_pack_and_unpack_match_single_field_path(spec):
    ref = BitBuffer()
    pos, widths, values = [], [], []
    p = 0
    for gap, w, v in spec:
        p += gap
        ref.write_field(p, w, v)
        pos.append(p)
        widths.append(w)
        values.append(v)
        p += w
    pos, widths = np.array(pos), np.array(widths)
    words = np.zeros(ref.word_count + 1, dtype=np.uint64)
    pack_fields(words, pos, widths, np.array(values, dtype=np.uint64))
    assert words.tolist() == ref.words.tolist()
    got = unpack_fields(ref.words, pos, widths)
    assert got.tolist() == [ref.read_field(q, w) for q, w in zip(pos.tolist(), widths.tolist())]


def test_pack_rejects_value_wider_than_field():
    words = np.zeros(2, dtype=np.uint64)
    with pytest.raises(FieldOverflow):
        pack_fields(words, np.array([0, 10]), 10, np.array([5, 1024], dtype=np.uint64))


@given(st.lists(st.integers(0, U64_MAX), min_size=1, max_size=50))
@example([0, 1, 2, 3, 2**32 - 1, 2**32, 2**63 - 1, 2**63, U64_MAX])
def test_bit_lengths_match_scalar(values):
    assert bit_lengths(np.array(values, dtype=np.uint64)).tolist() == [
        bit_length(v) for v in values
    ]


@given(st.integers(1, 64), st.integers(1, 5), st.integers(1, 5), st.randoms())
@example(64, 1, 1, None)
@example(1, 1, 1, None)
@settings(max_examples=150)
def test_sm_pack_unpack_match_single_field_path(width, r, c, rnd):
    n = r * c
    top = (1 << width) - 1
    values = [top] * n if rnd is None else [rnd.randint(0, top) for _ in range(n)]
    ref = BitBuffer(n * width)
    for i, v in enumerate(values):
        ref.write_field(i * width, width, v)
    m = SmMatrix.from_values(r, c, width, values)
    assert m.data == ref
    assert m.values().tolist() == [ref.read_field(i * width, width) for i in range(n)]
    assert m.widen(64).decompress().ravel().tolist() == values


def test_sm_from_values_rejects_bad_values():
    with pytest.raises(FieldOverflow):
        SmMatrix.from_values(1, 2, 3, [1, 8])
    with pytest.raises(FieldOverflow):
        SmMatrix.from_values(1, 2, 3, [1, -1])
    with pytest.raises(FieldOverflow):
        SmMatrix.from_values(1, 1, 64, [U64_MAX + 1])
    with pytest.raises(ValueError):
        SmMatrix.from_values(1, 3, 3, [1, 2])
    with pytest.raises(ValueError, match="width must be in 1..64"):
        SmMatrix.from_values(1, 1, 65, [0])
    with pytest.raises(ValueError, match="width must be in 1..64"):
        SmMatrix.compress([[1, 2]]).widen(65)


def element_starts(values, k):
    """Bit position of every element, by summing prefix and payload sizes."""
    starts, pos = [], 0
    for v in values:
        starts.append(pos)
        pos += k + bit_length(v)
    return starts


@pytest.mark.parametrize("stride", [1, 3, 64])
@pytest.mark.parametrize("offset", [-1, 0, 1, "below"])
@given(rnd=st.randoms(), top=st.integers(0, U64_MAX))
@settings(max_examples=25)
def test_vlb_lanes_match_single_field_path(stride, offset, rnd, top):
    n = 1 if offset == "below" else max(1, stride + offset)
    values = [rnd.randint(0, top) for _ in range(n)]
    m = VlbMatrix.compress([values], checkpoint_stride=stride)
    k = bit_length(bit_length(max(values)))
    assert m.data == encode_reference(values, k)
    starts = element_starts(values, k)
    assert m.checkpoints == [(i, starts[i]) for i in range(0, n, stride)]
    assert m.values().tolist() == values
    raw = BitBuffer.from_bytes(m.data.to_bytes(), 64 * m.data.word_count)
    again = VlbMatrix.from_buffer(1, n, k, "row", raw, checkpoint_stride=stride)
    assert again == m and again.checkpoints == m.checkpoints


STRIDE = 4


def three_lanes(big=False):
    values = [900, 1023, 721, 256, 1, 10, 700, 20, 5, 3, 2, 77]
    if big:
        values[-1] = 2**63  # prefix width 7, so prefixes up to 127 can be stored
    m = VlbMatrix.compress([values], checkpoint_stride=STRIDE)
    return m, element_starts(values, m.k)


def test_lane_decoder_rejects_zero_prefix_in_middle_lane():
    m, starts = three_lanes()
    m.data.write_field(starts[STRIDE + 1], m.k, 0)
    with pytest.raises(CorruptStream, match="zero length prefix"):
        m.values()


def test_lane_decoder_rejects_prefix_above_64():
    m, starts = three_lanes(big=True)
    m.data.write_field(starts[STRIDE + 2], m.k, 100)
    with pytest.raises(CorruptStream, match="exceeds 64 bits"):
        m.values()


def test_lane_decoder_rejects_truncated_last_lane():
    m, starts = three_lanes()
    m.data.bit_len = starts[-1] + m.k  # last prefix intact, its payload cut off
    with pytest.raises(CorruptStream, match="payload runs past end"):
        m.values()
    m.data.bit_len = starts[-1] + m.k - 1  # last prefix cut as well
    with pytest.raises(CorruptStream, match="prefix runs past end"):
        m.values()


@pytest.mark.parametrize(
    "k, word, bit_len, match",
    [
        (3, 5 | (3 << 3), 8, "not the bit-length of its payload"),  # prefix 5, payload 00011
        (3, 2 | (3 << 3), 5, "prefix width 3"),  # canonical payload 11, k should be 2
    ],
    ids=["prefix-above-payload-length", "k-above-minimum"],
)
def test_lane_decoder_rejects_non_canonical_stream(k, word, bit_len, match):
    buf = BitBuffer.from_bytes(word.to_bytes(8, "little"), bit_len)
    m = VlbMatrix(1, 1, k, "row", STRIDE, buf, [(0, 0)])
    with pytest.raises(CorruptStream, match=match):
        m.values()


def test_lane_decoder_rejects_checkpoint_seam_mismatch():
    m, starts = three_lanes()
    # Lane 1 now starts one element late: every element it reads is well
    # formed, but lane 0 no longer ends where lane 1 starts.
    m.checkpoints[1] = (STRIDE, starts[STRIDE + 1])
    with pytest.raises(CorruptStream, match="checkpoint lane"):
        m.values()
