"""Differential tests of the bulk kernels and the lane-parallel VLB decoder.

The reference throughout is the single-field path,
``BitBuffer.write_field``/``read_field``, one field at a time.
"""

import re
import tracemalloc
from random import Random
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccmatrix import bitstream
from ccmatrix.bitstream import (
    U64_MAX,
    WORD_BITS,
    BitBuffer,
    bit_length,
    bit_lengths,
    pack_fields,
    unpack_fields,
)
from ccmatrix import vlb
from ccmatrix.container import dump_bytes, load_bytes
from ccmatrix.errors import CorruptStream, FieldOverflow
from ccmatrix.genmat import Uniform, sample_matrix
from ccmatrix.sm import SmMatrix
from ccmatrix.vlb import _BLOCK, VlbMatrix, _directory, _hop_table, _walk

from conftest import (
    SIZES,
    count_calls,
    element_starts,
    encode_reference,
    reference_get,
    reference_hop_table,
    reference_validate,
    reference_walk,
    scalar_decode,
    shape_of,
)

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


RUN_BLOCK = bitstream._BLOCK  # fields per block of a run


def run_of(start, width, count):
    """Positions of ``count`` back-to-back fields from bit ``start``: a run and an array."""
    return range(start, start + count * width, width), start + np.arange(count, dtype=np.int64) * width


@given(
    width=st.integers(1, 64),
    start=st.one_of(st.integers(0, 200), st.integers(0, 3).map(lambda q: 64 * q)),
    blocks=st.integers(0, 2),
    periods=st.integers(0, 3),
    tail=st.integers(0, 63),
    seed=st.integers(0, 2**32 - 1),
)
@example(width=7, start=0, blocks=1, periods=0, tail=0, seed=1)  # exactly one block
@example(width=61, start=3, blocks=1, periods=0, tail=1, seed=2)  # one field past a block
@example(width=40, start=5, blocks=0, periods=0, tail=0, seed=3)  # no fields
@example(width=64, start=64, blocks=0, periods=0, tail=5, seed=4)  # a view
@example(width=8, start=4, blocks=0, periods=3, tail=1, seed=5)  # not a view: start not byte-aligned
@example(width=7, start=63, blocks=1, periods=1, tail=3, seed=6)  # first field at a word's last bit
@settings(max_examples=300, deadline=None)
def test_run_matches_positions(width, start, blocks, periods, tail, seed):
    per = WORD_BITS // np.gcd(width, WORD_BITS)
    count = blocks * RUN_BLOCK + periods * per + tail % per
    values = np.random.default_rng(seed).integers(0, 2**64, count, dtype=np.uint64)
    values >>= np.uint64(WORD_BITS - width)
    run, pos = run_of(start, width, count)
    size = -(-(start + count * width) // WORD_BITS) + 1
    by_run, by_pos = np.zeros(size, np.uint64), np.zeros(size, np.uint64)
    pack_fields(by_run, run, width, values)
    pack_fields(by_pos, pos, width, values)
    assert np.array_equal(by_run, by_pos)
    assert np.array_equal(unpack_fields(by_pos, run, width), values)
    assert np.array_equal(unpack_fields(by_pos, pos, width), values)


@pytest.mark.parametrize("width", [1, 7, 8, 16, 40, 63])
@pytest.mark.parametrize("at", ["first", "last-whole-block", "tail"])
@pytest.mark.parametrize("case", ["run", "positions", "widths"])
def test_pack_overflow_writes_nothing(width, at, case):
    count = 2 * RUN_BLOCK + 5  # two whole blocks and a tail
    values = np.full(count, (1 << width) - 1, dtype=np.uint64)
    values[{"first": 0, "last-whole-block": 2 * RUN_BLOCK - 1, "tail": count - 1}[at]] = 1 << width
    run, pos = run_of(0, width, count)
    pos, width = {"run": (run, width), "positions": (pos, width), "widths": (pos, np.full(count, width))}[case]
    words = np.zeros(count + 1, dtype=np.uint64)  # room for every width
    with pytest.raises(FieldOverflow):
        pack_fields(words, pos, width, values)
    assert not words.any()


@pytest.mark.parametrize("width", [7, 8, 64])  # 8 and 64 are views when the start is aligned
@pytest.mark.parametrize("past", [0, 1, 64])  # the first pad bit, the next, a word beyond
@pytest.mark.parametrize("case", ["run", "positions", "widths"])
@pytest.mark.parametrize("kernel", ["pack", "unpack"])
def test_a_field_past_the_stream_raises(width, past, case, kernel):
    words = np.zeros(4, dtype=np.uint64)  # three stream words and the pad word
    pad = WORD_BITS * (words.size - 1)
    start = pad + past - 2 * width  # the last of three fields starts at or past the first pad bit
    run, pos = run_of(start, width, 3)
    pos, width = {"run": (run, width), "positions": (pos, width), "widths": (pos, np.full(3, width))}[case]
    with pytest.raises(IndexError):
        if kernel == "pack":
            pack_fields(words, pos, width, np.ones(3, dtype=np.uint64))
        else:
            unpack_fields(words, pos, width)


@pytest.mark.parametrize("seed", range(4))
def test_blocked_positions_match_single_field_path(seed):
    rnd = Random(seed)
    count = rnd.randint(2, 3) * RUN_BLOCK + rnd.randint(1, RUN_BLOCK - 1)  # whole blocks and a tail
    ref = BitBuffer()
    pos, widths, values = [], [], []
    p = 0
    for _ in range(count):
        p += rnd.choice((0, 0, rnd.randint(1, 70)))  # gaps, some longer than a word
        w = rnd.randint(1, WORD_BITS)
        v = rnd.randrange(1 << w)
        ref.write_field(p, w, v)
        pos.append(p)
        widths.append(w)
        values.append(v)
        p += w
    pos, widths = np.array(pos), np.array(widths)
    assert ((pos & 63) + widths > WORD_BITS).sum() > count // 4  # many fields straddle words
    words = np.zeros(ref.word_count + 1, dtype=np.uint64)
    pack_fields(words, pos, widths, np.array(values, dtype=np.uint64))
    assert np.array_equal(words, ref.words)
    got = unpack_fields(ref.words, pos, widths).tolist()
    assert got == [ref.read_field(q, w) for q, w in zip(pos.tolist(), widths.tolist())]


def test_position_kernels_need_no_stream_length_temporaries():
    # a million VLB-like fields: prefix of 5 bits and payload, packed back to back
    flat = np.random.default_rng(5).integers(0, 2**24, 1_000_000, dtype=np.uint64)
    lengths = bit_lengths(flat)
    sizes = lengths + 5
    starts = np.cumsum(sizes) - sizes
    fields = (flat << np.uint64(5)) | lengths.view(np.uint64)
    words = np.zeros(-(-int(sizes.sum()) // WORD_BITS) + 1, dtype=np.uint64)
    tracemalloc.start()
    try:
        pack_fields(words, starts, sizes, fields)
        packed = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        out = unpack_fields(words, starts, sizes)
        unpacked = tracemalloc.get_traced_memory()[1] - out.nbytes
    finally:
        tracemalloc.stop()
    assert np.array_equal(out, fields)
    assert packed <= 2**20 and unpacked <= 2**20


@given(st.lists(st.integers(0, U64_MAX), min_size=1, max_size=50))
@example([0, 1, 2, 3, 2**32 - 1, 2**32, 2**63 - 1, 2**63, U64_MAX])
@example([0] + [min(2**k + d, U64_MAX) for k in range(1, 65) for d in (-1, 0, 1)])
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


# the largest element: its bit-length from 1..64, so k from 1 to 7, then any value of that length
largest = st.integers(1, 64).flatmap(lambda b: st.integers((1 << b) >> 1, (1 << b) - 1))


@pytest.mark.parametrize("size", [1, 3, 8, 64, 128, 200])
@pytest.mark.parametrize("offset", [-1, 0, 1, "below"])  # below: one sub-lane fewer
@given(rnd=st.randoms(), top=largest, wide=st.booleans())
@example(rnd=Random(1), top=0, wide=False)
@example(rnd=Random(2), top=2**57 - 1, wide=False)  # bit-length 57, k 6: one field
@example(rnd=Random(3), top=2**57, wide=True)  # bit-length 58, k 6: one field of 64 bits
@example(rnd=Random(4), top=2**58, wide=True)  # bit-length 59, k 6: two calls
@example(rnd=Random(5), top=U64_MAX, wide=True)  # bit-length 64, k 7: two calls
@settings(max_examples=25)
def test_vlb_lanes_match_single_field_path(size, offset, rnd, top, wide):
    n = max(1, size - 8 if offset == "below" else size + offset)
    lo = 2**57 if wide and top >= 2**57 else 0  # wide: every element is 2**57 or more
    values = [rnd.randint(lo, top) for _ in range(n)]
    values[rnd.randrange(n)] = top
    with patch.object(vlb, "pack_fields", wraps=vlb.pack_fields) as packs:
        m = VlbMatrix.compress([values])
    k = bit_length(bit_length(top))
    # one field per element when the widest fits a word with its prefix
    assert packs.call_count == (1 if bit_length(top) + k <= WORD_BITS else 2)
    assert m.k == k and m.data == encode_reference(values, k)
    starts = element_starts(values, k)
    assert m.checkpoints.tolist() == starts[::64]
    assert m.offsets.tolist() == [starts[e] - starts[e - e % 64] for e in range(0, n, 8)]
    assert m.values().tolist() == values
    raw = BitBuffer.from_bytes(m.data.to_bytes(), 64 * m.data.word_count)
    again = VlbMatrix.from_buffer(1, n, k, "row", raw)
    assert again == m and np.array_equal(again.checkpoints, m.checkpoints)
    assert np.array_equal(again.offsets, m.offsets)
    for cps in (m.checkpoints, again.checkpoints):  # one int64 start bit per lane, no views
        assert cps.dtype == np.int64 and cps.base is None
        assert len(cps) == -(-n // 64)


LANE = 64


def three_lanes(big=False):
    values = [900, 1023, 721, 256, 1, 10, 700, 20, 5, 3, 2, 77] * 16  # 3 lanes of 64
    if big:
        values[-1] = 2**63  # prefix width 7, so prefixes up to 127 can be stored
    m = VlbMatrix.compress([values])
    return m, element_starts(values, m.k)


def test_lane_decoder_rejects_zero_prefix_in_middle_lane():
    m, starts = three_lanes()
    m.data.write_field(starts[LANE + 1], m.k, 0)
    with pytest.raises(CorruptStream, match="zero length prefix"):
        m.values()


def test_lane_decoder_rejects_prefix_above_64():
    m, starts = three_lanes(big=True)
    m.data.write_field(starts[LANE + 2], m.k, 100)
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
    m = VlbMatrix(1, 1, k, "row", buf, np.zeros(1, np.int64), np.zeros(1, np.uint16))
    with pytest.raises(CorruptStream, match=match):
        m.values()


def test_lane_decoder_rejects_lane_hopping_past_the_last_word():
    m = VlbMatrix.compress([[3] * 3 * LANE])  # 192 x 4 bits: 12 full words
    m.checkpoints[-1] += 4  # the last lane starts one element late
    with pytest.raises(CorruptStream, match="prefix runs past end"):
        m.values()


def test_lane_decoder_rejects_checkpoint_seam_mismatch():
    m, starts = three_lanes()
    # Lane 1 and each of its sub-lanes now start one element late: every
    # element they read is well formed, but lane 0 no longer ends where
    # lane 1 starts.
    m.checkpoints[1] = starts[LANE + 1]
    m.offsets[8:16] = [starts[LANE + 1 + f] - starts[LANE + 1] for f in range(0, LANE, 8)]
    with pytest.raises(CorruptStream, match="checkpoint lane"):
        m.values()


def test_lane_decoder_rejects_stream_ending_before_bit_len():
    m, starts = three_lanes()
    m.data.write_field(starts[-1], m.k, 3)  # 77 = 0b1001101 reads as a canonical 0b101
    with pytest.raises(CorruptStream, match="checkpoint lane"):
        m.values()
    with pytest.raises(CorruptStream, match="does not end at bit_len"):
        scalar_decode(m)


def test_lane_decoder_rejects_nonzero_offset_at_a_lane_start():
    m, _ = three_lanes()
    m.checkpoints[1] -= 1
    m.offsets[8:16] += 1  # the sub-lanes of lane 1 still start where they did
    with pytest.raises(CorruptStream, match="nonzero offset"):
        m.values()
    with pytest.raises(CorruptStream, match="checkpoint 1 is not where"):
        scalar_decode(m)


# a decode reads 8 prefix steps and extracts once; the load reads the 8 prefix
# steps, then one bit per payload, and keeps nothing, so values() decodes again
@pytest.mark.parametrize("loaded, reads", [(False, 9), (True, 8 + 9)], ids=["compressed", "loaded"])
def test_decoding_a_small_matrix_reads_fields_nine_times(monkeypatch, loaded, reads):
    dense = sample_matrix(Uniform(1, 64), 20, 20, 5)
    m = VlbMatrix.compress(dense)  # 50 sub-lanes of 8 elements, one block
    raw = BitBuffer.from_bytes(m.data.to_bytes(), 64 * m.data.word_count)
    calls = count_calls(monkeypatch, vlb, "unpack_fields")
    if loaded:
        m = VlbMatrix.from_buffer(20, 20, m.k, "row", raw)
    assert m.values().tolist() == dense.ravel().tolist()
    assert len(calls) == reads


def decoded_or_rejected(decode):
    try:
        return decode()
    except CorruptStream:
        return CorruptStream


def random_vlb(data, size, order):
    """A VLB matrix of ``size`` random or periodic elements, and its elements in stream order."""
    r = data.draw(st.sampled_from([d for d in range(1, size + 1) if size % d == 0]))
    c = size // r
    rnd = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    shifts = rnd.integers(0, data.draw(st.integers(1, 64)), size=r * c, dtype=np.uint64)
    if data.draw(st.booleans()):  # periodic: a short pattern repeated across lanes
        shifts = np.resize(shifts[: data.draw(st.integers(1, 5))], r * c)
    values = rnd.integers(0, 2**64, size=r * c, dtype=np.uint64) >> (63 - shifts)
    m = VlbMatrix.compress(values.reshape(r, c), order)
    clean = scalar_decode(m)
    assert m.data == encode_reference(clean, m.k) and m.values().tolist() == clean
    return m, clean


corruption = st.tuples(
    st.sampled_from(["flip", "set", "cut", "shift"]), st.integers(0, 2**16), st.integers(0, 2**16)
)


@pytest.mark.parametrize("order", ["row", "col"])
@pytest.mark.parametrize("size", SIZES)
@given(data=st.data(), edits=st.lists(corruption, max_size=3))
@settings(max_examples=60)
def test_decoder_matches_scalar_reference(size, order, data, edits):
    m, clean = random_vlb(data, size, order)
    starts = element_starts(clean, m.k)
    for kind, at, value in edits:
        bits = m.data.bit_len
        if kind == "flip":
            i = at % (WORD_BITS * m.data.word_count)
            m.data.words[i >> 6] ^= np.uint64(1 << (i & 63))
        elif kind == "shift":  # move a checkpoint or a sub-lane offset a few bits or onto an element
            cps, offs = m.checkpoints, m.offsets
            if value & 128:
                s = at % len(offs)
                lane_start = int(cps[s // 8])
                pos = lane_start + int(offs[s])
            else:
                lane = at % len(cps)
                pos = int(cps[lane])
            pos = starts[at % len(starts)] if value & 1 else max(0, pos + value % 128 - 64)
            if value & 128:
                offs[s] = min(max(0, pos - lane_start), np.iinfo(offs.dtype).max)
            else:
                cps[lane] = pos
        elif bits == 0:
            continue  # nothing left to set or cut
        elif kind == "set":  # a prefix, or an arbitrary field inside the stream
            pos, width = starts[at % len(starts)], m.k
            if value & 1 or pos + width > bits:
                width = 1 + value % min(8, bits)
                pos = at % (bits - width + 1)
            m.data.write_field(pos, width, (value >> 1) % (1 << width))
        else:
            m.data.bit_len = bits - 1 - at % bits
    want = decoded_or_rejected(lambda: scalar_decode(m))
    got = decoded_or_rejected(lambda: m.values().tolist())
    assert got == want


@pytest.mark.parametrize("side", [100, 250, 500])
def test_decode_memory_beyond_its_output_is_bounded(side):
    dense = sample_matrix(Uniform(1, 64), side, side, 7)
    m = VlbMatrix.compress(dense)
    tracemalloc.start()
    try:
        out = m.values()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.tolist() == dense.ravel().tolist()
    assert peak - out.nbytes <= 384 * 1024


@pytest.mark.parametrize("side", [100, 250, 500])
def test_from_buffer_memory_beyond_its_output_is_bounded(side):
    dense = sample_matrix(Uniform(1, 64), side, side, 7)
    m = VlbMatrix.compress(dense)
    raw = BitBuffer.from_bytes(m.data.to_bytes(), 64 * m.data.word_count)
    tracemalloc.start()
    try:
        again = VlbMatrix.from_buffer(side, side, m.k, "row", raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = again.values()
    assert again == m and out.tolist() == dense.ravel().tolist()
    assert peak - out.nbytes - again.checkpoints.nbytes <= 384 * 1024


def test_sm_memory_beyond_words_and_output_is_bounded():
    dense = sample_matrix(Uniform(1, 24), 1000, 1000, 7)
    tracemalloc.start()
    try:
        m = SmMatrix.compress(dense, "row")
        packed = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        out = m.values()
        decoded = tracemalloc.get_traced_memory()[1] - m.data.words.nbytes
    finally:
        tracemalloc.stop()
    assert np.array_equal(out, dense.ravel())
    assert packed - m.data.words.nbytes <= 2**19  # no array of a million positions
    assert decoded - out.nbytes <= 2**19


@pytest.mark.parametrize(
    "dist, bound",
    [
        (Uniform(1, 24), 36),  # one field per element
        (Uniform(58, 64), 43),  # every element wide: prefixes, then payloads
    ],
)
def test_compress_memory_does_not_grow_at_scale(dist, bound):
    dense = sample_matrix(dist, 1000, 1000, 7)
    tracemalloc.start()
    try:
        m = VlbMatrix.compress(dense)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(m.values(), dense.ravel())
    assert peak <= bound * 2**20  # the peak of packing prefixes and payloads by two calls


def walked_or_rejected(walk, buf, n, k):
    try:
        starts, end = walk(buf, n, k)
    except CorruptStream as exc:
        return str(exc)
    return list(starts), end


# each stream holds a given number of elements; three-blocks puts 128 whole lanes before them
WALK_STREAMS = {
    "uniform-1-64": lambda n: sample_matrix(Uniform(1, 64), *shape_of(n), 1),
    "uniform-1-8": lambda n: sample_matrix(Uniform(1, 8), *shape_of(n), 2),
    "equal-lengths": lambda n: sample_matrix(Uniform(40, 40), *shape_of(n), 3),
    "all-ones": lambda n: np.ones(shape_of(n), dtype=np.uint64),
    "three-blocks": lambda n: sample_matrix(Uniform(1, 64), 1, 128 * 64 + n, 4),  # 2 rebuilds
}


def walk_input(m, starts, kind, e):
    """The stream of ``m`` as ``from_buffer`` receives it, corrupted at element ``e``."""
    k, blob = m.k, m.data.to_bytes()
    if kind == "trailing-word":
        blob += bytes(8)
    buf = BitBuffer.from_bytes(blob, 8 * len(blob))
    at = starts[e]
    size = (starts + [m.bits_used])[e + 1] - at  # prefix and payload bits
    if kind == "zero-prefix":
        buf.write_field(at, k, 0)
    elif kind == "max-prefixes":  # 2**k - 1 where element e and the next 7 started
        for p in starts[e : e + 8]:
            buf.write_field(p, k, (1 << k) - 1)
    elif kind == "cut-mid-prefix":
        buf.bit_len = at + k // 2
    elif kind == "cut-mid-payload":
        buf.bit_len = at + k + (size - k - 1) // 2
    return buf


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("stream", sorted(WALK_STREAMS))
@pytest.mark.parametrize(
    "kind",
    ["none", "zero-prefix", "max-prefixes", "cut-mid-prefix", "cut-mid-payload", "trailing-word"],
)
def test_walk_matches_reference_walk(size, stream, kind):
    dense = WALK_STREAMS[stream](size)
    rows, cols = dense.shape
    n = dense.size
    m = VlbMatrix.compress(dense)
    if stream == "three-blocks":
        assert m.bits_used > 2 * _BLOCK
    starts = element_starts(dense.ravel().tolist(), m.k)
    heads = [int(m.checkpoints[s // 8] + m.offsets[s]) for s in range(m.offsets.size)]
    for e in (0, n // 2, n - 1):
        want = walked_or_rejected(reference_walk, walk_input(m, starts, kind, e), n, m.k)
        got = walked_or_rejected(_walk, walk_input(m, starts, kind, e), n, m.k)
        assert got == want, e
        if kind in ("none", "trailing-word"):
            assert want == (heads, m.bits_used) and heads == starts[::8]
        if isinstance(want, str):  # from_buffer raises the walk's error, as it did
            buf = walk_input(m, starts, kind, e)
            with pytest.raises(CorruptStream, match=re.escape(want)):
                VlbMatrix.from_buffer(rows, cols, m.k, "row", buf)


@pytest.mark.parametrize("size", SIZES)
@given(data=st.data(), flips=st.lists(st.integers(0, 2**16), max_size=4), cut=st.integers(0, 2**16))
@settings(max_examples=40)
def test_walk_matches_reference_walk_on_random_edits(size, data, flips, cut):
    m, _ = random_vlb(data, size, "row")
    n = m.rows * m.cols
    buf = BitBuffer.from_bytes(m.data.to_bytes(), 64 * m.data.word_count)
    for i in flips:
        i %= buf.bit_len
        buf.words[i >> 6] ^= np.uint64(1 << (i & 63))
    if cut & 1:
        buf.bit_len -= (cut >> 1) % (buf.bit_len + 1)
    want = walked_or_rejected(reference_walk, buf, n, m.k)
    assert walked_or_rejected(_walk, buf, n, m.k) == want


# whole lanes only, a short last lane of whole sub-lanes, and one that ends mid-sub-lane
@pytest.mark.parametrize("n", [5 * 64, 5 * 64 + 3 * 8, 5 * 64 + 3 * 8 + 5])
# where bit_len cuts the stream: nowhere, inside lane 2 (whole, hopped straight-line),
# and inside the last element
@pytest.mark.parametrize("cut", ["none", "whole-lane", "last-element"])
def test_unrolled_walk_matches_reference_walk_where_the_stream_ends(monkeypatch, n, cut):
    values = sample_matrix(Uniform(1, 20), 1, n, 13).ravel().tolist()
    m = VlbMatrix.compress([values])
    starts = element_starts(values, m.k)
    buf = BitBuffer.from_bytes(m.data.to_bytes(), m.bits_used)
    if cut == "whole-lane":
        buf.bit_len = starts[2 * 64 + 5 * 8 + 4] + 1  # past the lane's sub-lane 5
    elif cut == "last-element":
        buf.bit_len -= 1
    fallback = count_calls(monkeypatch, vlb, "_hop")
    got = walked_or_rejected(_walk, buf, n, m.k)
    assert got == walked_or_rejected(reference_walk, buf, n, m.k)
    if cut == "none":
        assert got == (starts[::8], m.bits_used) and not fallback
    else:  # a lane that ran past the stream is walked again, one sub-lane at a time
        assert isinstance(got, str) and fallback


def loaded_or_rejected(load, rows, cols, k, order, buf):
    try:
        m = load(rows, cols, k, order, buf.copy())
    except CorruptStream as exc:
        return str(exc)
    return m.data, m.checkpoints.tolist(), m.offsets.tolist()


def flip(buf, i):
    buf.words[i >> 6] ^= np.uint64(1 << (i & 63))


@pytest.mark.parametrize("order", ["row", "col"])
@pytest.mark.parametrize("size", SIZES)
@given(
    data=st.data(),
    kind=st.sampled_from(["random", "zeros-and-ones", "uniform-58-64"]),
    seed=st.integers(0, 2**32 - 1),
    wider_k=st.booleans(),
    edit=st.sampled_from(["none", "prefix", "top-bit", "any-bit", "drop-words", "cut"]),
)
@settings(max_examples=30)
def test_load_check_matches_reference_validate(size, order, data, kind, seed, wider_k, edit):
    rows, cols = shape_of(size)
    rnd = np.random.default_rng(seed)
    if kind == "uniform-58-64":
        dense = sample_matrix(Uniform(58, 64), rows, cols, seed)
    elif kind == "zeros-and-ones":  # payloads of one bit, with a few wider ones
        dense = rnd.integers(0, 2, (rows, cols), dtype=np.uint64) << rnd.choice(
            np.array([0, 0, 0, 5], np.uint64), (rows, cols)
        )
    else:
        dense = rnd.integers(0, 2**64, (rows, cols), dtype=np.uint64) >> rnd.integers(
            0, 64, (rows, cols), dtype=np.uint64
        )
    m = VlbMatrix.compress(dense, order)
    clean, k = m.values().tolist(), m.k
    stream = m.data
    if wider_k and k < 7:  # a canonical stream under a k one wider than minimal
        k += 1
        stream = encode_reference(clean, k)
    blob = stream.to_bytes()
    buf = BitBuffer.from_bytes(blob, 8 * len(blob))
    starts = element_starts(clean, k)
    e = data.draw(st.integers(0, size - 1))
    if edit == "prefix":
        flip(buf, starts[e] + data.draw(st.integers(0, k - 1)))
    elif edit == "top-bit":  # a payload of more than one bit then reads as not canonical
        flip(buf, starts[e] + k + bit_length(clean[e]) - 1)
    elif edit == "any-bit":
        flip(buf, data.draw(st.integers(0, buf.bit_len - 1)))
    elif edit == "drop-words":
        drop = 8 * data.draw(st.integers(1, len(blob) // 8))
        buf = BitBuffer.from_bytes(blob[:-drop], 8 * (len(blob) - drop))
    elif edit == "cut":
        buf.bit_len = data.draw(st.integers(0, buf.bit_len - 1))
    want = loaded_or_rejected(reference_validate, rows, cols, k, order, buf)
    assert loaded_or_rejected(VlbMatrix.from_buffer, rows, cols, k, order, buf) == want
    if edit == "none" and stream is m.data:
        assert want == (stream, m.checkpoints.tolist(), m.offsets.tolist())
    elif edit == "none":  # canonical payloads under a k one wider than minimal
        assert want.startswith(f"prefix width {k} is not the bit-length")


def test_load_reads_the_top_bit_of_every_payload_wider_than_one_bit():
    values = [0, 1, 5, 0, 2**40, 3, 1, 0, 9] * 10
    m = VlbMatrix.compress([values])
    k, starts = m.k, element_starts(values, m.k)
    assert VlbMatrix.from_buffer(1, 90, k, "row", m.data.copy()) == m
    for e, v in enumerate(values):
        b = bit_length(v)
        buf = m.data.copy()
        flip(buf, starts[e] + k + b - 1)
        if b == 1:  # 0 and 1 both have bit-length 1
            again = VlbMatrix.from_buffer(1, 90, k, "row", buf)
            assert again.get(0, e) == 1 - v
        else:
            with pytest.raises(CorruptStream) as info:
                VlbMatrix.from_buffer(1, 90, k, "row", buf)
            assert str(info.value) == (
                f"prefix {b} at bit {starts[e]} is not the bit-length of its payload"
            )


def got_or_rejected(f, *args):
    try:
        return f(*args)
    except CorruptStream as exc:
        return str(exc)


def test_get_and_load_of_a_cut_stream_match_a_per_hop_walk():
    # ``_hop`` checks only the last start it hopped from.  Cut the stream at
    # every bit, under its own directory (only the last sub-lane is cut) and
    # under one whose sub-lanes all end at the cut: every ``get`` must give
    # what a check per hop gives, and a container of the cut words must load
    # or fail as ``reference_validate`` does, through ``_walk``'s fallback.
    m = VlbMatrix.compress(sample_matrix(Uniform(1, 40), 3, 7, 11))
    k, n = m.k, 21
    heads = np.array([m.checkpoints[s // 8] + m.offsets[s] for s in range(m.offsets.size)])
    for cut in range(m.bits_used + 1):
        data = m.data.copy()
        data.bit_len = cut
        for directory in ((m.checkpoints, m.offsets), _directory(np.minimum(heads, cut))):
            forged = VlbMatrix(3, 7, k, "row", data, *directory)
            for e in range(n):
                want = got_or_rejected(reference_get, forged, e)
                assert got_or_rejected(forged.get, e // 7, e % 7) == want, (cut, e)
        stream = BitBuffer(cut)
        stream.words[:-1] = m.data.words[: stream.word_count]
        stream.words[cut >> 6] &= np.uint64((1 << (cut & 63)) - 1)  # no bit at or past the cut
        blob = dump_bytes(VlbMatrix(3, 7, k, "row", stream, m.checkpoints, m.offsets))
        raw = BitBuffer.from_bytes(stream.to_bytes(), WORD_BITS * stream.word_count)  # as loaded
        want = loaded_or_rejected(reference_validate, 3, 7, k, "row", raw)
        got = loaded_or_rejected(lambda *_: load_bytes(blob).inner, 3, 7, k, "row", raw)
        assert got == want, cut
    assert want == (m.data, m.checkpoints.tolist(), m.offsets.tolist())


@pytest.mark.parametrize("k", range(1, 8))
def test_hop_table_by_lookup_matches_the_shift_construction(k):
    words = np.append(np.random.default_rng(k).integers(0, 2**64, 40, dtype=np.uint64), np.uint64(0))
    words[7] = 2**64 - 1  # a run of set bits: every field reads 2**k - 1
    # bases inside words, off the 64-bit grid, in the pad word and past it
    for base in (0, 8, 56, 72, 64 * 7 + 40, 64 * 39 + 16, 64 * 40 + 8, 64 * 45):
        # sizes whose windows stop inside a byte, a word, or run past the last word
        for size in (1, 7, 8, 9, 65, 300, 64 * 46 - base):
            got = _hop_table(words, base, size, k)
            assert got == reference_hop_table(words, base, size, k), (base, size)


@pytest.mark.parametrize("stride, offset_dtype", [(64, np.uint16)])
def test_walked_offsets_that_wrap_are_rejected(stride, offset_dtype):
    # 600 elements whose 7-bit prefixes all read 127: each walked element
    # hops the most bits it can, so the last sub-lane of each lane starts
    # 56 * (7 + 127) = 7,504 bits past its checkpoint.  At the one fixed
    # geometry that fits the offset dtype, so no offset wraps, and the
    # stream is still rejected.
    assert (vlb._STRIDE, vlb._SUBLANE) == (stride, 8)
    bits = 600 * (7 + 127)
    blob = ((1 << bits) - 1).to_bytes(-(-bits // 64) * 8, "little")
    heads, _ = _walk(BitBuffer.from_bytes(blob, bits), 600, 7)
    per = stride // 8
    walked = [h - heads[s - s % per] for s, h in enumerate(heads)]
    assert max(walked) == 56 * (7 + 127) <= np.iinfo(offset_dtype).max
    offsets = _directory(np.frombuffer(heads, dtype=np.int64))[1]
    assert offsets.dtype == offset_dtype and offsets.tolist() == walked
    with pytest.raises(CorruptStream, match="length prefix 127 exceeds 64 bits"):
        VlbMatrix.from_buffer(1, 600, 7, "row", BitBuffer.from_bytes(blob, bits))


# Past one default block: SM's 8,192 elements, VLB's 4,096 sub-lanes of 8.
BLOCK_SIZES = SIZES + (2 * 8192 + 5, 2 * 4096 * 8 + 9)
CODECS = [pytest.param(("sm", w), id=f"sm-{w}") for w in (1, 7, 8, 16, 32, 40, 64)] + [
    pytest.param(("vlb", Uniform(a, b)), id=f"vlb-uniform-{a}-{b}") for a, b in ((1, 40), (58, 64))
]


def codec_matrix(codec, size, order):
    """A matrix of ``size`` elements: SM at exactly width ``w``, or VLB of a distribution."""
    rows, cols = shape_of(size)
    kind, param = codec
    if kind == "vlb":
        return VlbMatrix.compress(sample_matrix(param, rows, cols, seed=size), order)
    rng = np.random.default_rng(size)
    values = rng.integers(0, U64_MAX, size, dtype=np.uint64, endpoint=True) >> np.uint64(64 - param)
    values[size // 2] = U64_MAX >> (64 - param)
    return SmMatrix.from_values(rows, cols, param, values, order)


@pytest.mark.parametrize("codec", CODECS)
@pytest.mark.parametrize("order", ["row", "col"])
@pytest.mark.parametrize("size", BLOCK_SIZES)
def test_blocks_are_views_of_out_that_concatenate_to_values(codec, order, size):
    m = codec_matrix(codec, size, order)
    if codec[0] == "sm":
        assert m.width == codec[1]
    values = m.values()
    assert np.array_equal(values, m.decompress().ravel(order="C" if order == "row" else "F"))
    for out in (None, np.empty(size, np.uint64)):
        e0s, parts, held = [], [], []
        for e0, block in m.blocks(out):
            assert block.dtype == np.uint64 and block.size
            e0s.append(e0)
            parts.append(block.copy())  # a reused buffer is overwritten by the next block
            held.append(block)
        assert e0s == np.cumsum([0] + [p.size for p in parts[:-1]]).tolist()
        assert np.array_equal(np.concatenate(parts), values)
        base = held[0] if out is None else out
        assert all(np.shares_memory(block, base) for block in held)
        if out is None:  # one block of the codec's own size, reused
            own = 8192 if codec[0] == "sm" else 4096 * 8
            assert held[0].size == min(size, own) and len(e0s) == -(-size // own)
        else:
            assert np.array_equal(out, values)  # each block filled its own slice


@pytest.mark.parametrize("width", [7, 8, 40])
def test_sm_blocks_build_the_run_table_once(monkeypatch, width):
    m = codec_matrix(("sm", width), 3 * 8192 + 5, "row")
    runs = count_calls(monkeypatch, bitstream, "_run")
    counts = m.bit_length_counts()
    assert len(runs) == 1  # one table (or view) for all four blocks
    assert counts.tolist() == np.bincount(bit_lengths(m.values()), minlength=65).tolist()


@pytest.mark.parametrize("codec", CODECS)
@pytest.mark.parametrize("size", [199, 201, 8192])
def test_blocks_reject_an_out_of_any_other_size(codec, size):
    m = codec_matrix(codec, 200, "row")
    with pytest.raises(ValueError):
        next(m.blocks(np.empty(size, np.uint64)))
