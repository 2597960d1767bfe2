import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccmatrix._dense import unravel_index
from ccmatrix.bitstream import U64_MAX, BitBuffer, bit_length
from ccmatrix.errors import CorruptStream, OutOfBounds
from ccmatrix.sm import SmMatrix
from ccmatrix.vlb import VlbMatrix

from conftest import (
    SIZES,
    WORKED_ROW,
    WORKED_ROW_BITLENS,
    element_starts,
    encode_reference,
    scan_get,
    shape_of,
)


def test_worked_row_prefix_and_bit_count(worked_row):
    m = VlbMatrix.compress(worked_row)
    assert m.k == 4
    # independent per-element count: sum of (prefix + bit-length)
    assert m.bits_used == sum(4 + b for b in WORKED_ROW_BITLENS) == 91
    # first element: prefix 10 in bits 0..3, payload 900 in bits 4..13
    assert m.data.read_field(0, 4) == 10
    assert m.data.read_field(4, 10) == 900


def test_worked_row_full_layout(worked_row):
    m = VlbMatrix.compress(worked_row)
    assert m.data == encode_reference(WORKED_ROW, 4)


def test_sm_uses_80_bits_on_same_row(worked_row):
    assert SmMatrix.compress(worked_row).bits_used == 80


def test_all_ones_costs_two_bits_each():
    dense = np.ones((6, 9), dtype=np.uint64)
    m = VlbMatrix.compress(dense)
    assert m.k == 1
    assert m.bits_used == 2 * 54


def test_get_fifth_element_is_one(worked_row):
    m = VlbMatrix.compress(worked_row)
    assert m.get(0, 4) == 1


def test_get_single_element():
    m = VlbMatrix.compress([[42]])
    assert m.get(0, 0) == 42


def test_get_out_of_bounds(worked_row):
    m = VlbMatrix.compress(worked_row)
    with pytest.raises(OutOfBounds):
        m.get(0, 8)


def test_get_matches_dense_and_scan_oracle(rng):
    # a single lane ends at bit_len; values up to U64_MAX give k = 7 and
    # 64-bit payloads straddling words
    for order in ("row", "col"):
        for n in SIZES:
            r, c = shape_of(n)
            for top in (2**40, U64_MAX):
                dense = rng.integers(0, top, size=(r, c), dtype=np.uint64, endpoint=True)
                dense[0, 0] = top
                m = VlbMatrix.compress(dense, order)
                assert m.k == (7 if top == U64_MAX else 6)
                for i, j in np.ndindex(r, c):
                    assert m.get(i, j) == dense[i, j]
                    assert m.get(i, j) == scan_get(m, unravel_index(i, j, r, c, order))


@pytest.mark.parametrize("order", ["row", "col"])
@pytest.mark.parametrize("size", SIZES)
def test_get_and_directory_agree_with_values(size, order):
    rng = np.random.default_rng(size)
    r, c = shape_of(size)
    dense = rng.integers(0, 2**64, size=(r, c), dtype=np.uint64)
    dense >>= rng.integers(0, 64, size=dense.shape, dtype=np.uint64)
    m = VlbMatrix.compress(dense, order)
    raw = BitBuffer.from_bytes(m.data.to_bytes(), 64 * m.data.word_count)
    loaded = VlbMatrix.from_buffer(r, c, m.k, order, raw)
    flat = m.values().tolist()
    starts = element_starts(flat, m.k)
    want = [starts[e] - starts[e - e % 64] for e in range(0, size, 8)]
    words_only = VlbMatrix(r, c, m.k, order, m.data.copy(), m.checkpoints, m.offsets)
    words_only.data.octets = None  # the big-endian path: ``get`` reads the words by ``_bits``
    for g in (m, loaded, words_only):
        assert g.checkpoints.tolist() == starts[::64]
        assert g.offsets.tolist() == want and g.offsets.dtype == np.uint16
        for i, j in np.ndindex(r, c):
            assert g.get(i, j) == flat[unravel_index(i, j, r, c, order)]
    assert loaded.values().tolist() == flat


@pytest.mark.parametrize("order", ["row", "col"])
@pytest.mark.parametrize("k", range(1, 8))
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_get_equals_values_at_every_prefix_width(k, order, data):
    # The widest element has a bit-length whose bit-length is k; all-wide
    # matrices hold only elements of 58 bits or more.  SIZES has short last
    # sub-lanes and short last lanes.
    top = data.draw(st.integers(2 ** (k - 1), min(2**k - 1, 64)))
    low = data.draw(st.sampled_from([1, 58] if top >= 58 else [1]))
    r, c = shape_of(data.draw(st.sampled_from(SIZES)))
    rnd = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    lengths = rnd.integers(low, top, size=r * c, endpoint=True).tolist()
    lengths[rnd.integers(r * c)] = top
    bits = rnd.integers(0, 2**64, size=r * c, dtype=np.uint64).tolist()
    values = [x >> 64 - n | (n > 1) << n - 1 for n, x in zip(lengths, bits)]  # bit-length n
    m = VlbMatrix.compress(np.array(values, dtype=np.uint64).reshape(r, c), order)
    assert m.k == k
    flat = m.values()
    for i, j in np.ndindex(r, c):
        assert m.get(i, j) == flat[unravel_index(i, j, r, c, order)]


def test_get_raises_where_a_prefix_runs_past_its_sub_lane():
    values = WORKED_ROW * 2  # two sub-lanes
    m = VlbMatrix.compress([values])
    starts = element_starts(values, m.k)
    offsets = m.offsets.copy()
    offsets[1] = starts[3] + m.k - 1  # sub-lane 0 now ends inside the prefix of element 3
    cut = m.data.copy()
    cut.bit_len = starts[12] + m.k - 1  # the last sub-lane ends inside that of element 12
    short = m.data.copy()
    short.bit_len -= 1  # the last sub-lane ends inside the payload of element 15
    for data, offs, bad, what in (
        (m.data, offsets, (3, 4), "prefix"),
        (cut, m.offsets, (12, 13), "prefix"),
        (short, m.offsets, (15,), "payload"),
    ):
        words_only = data.copy()
        words_only.octets = None  # the big-endian path: ``get`` reads the words by ``_bits``
        for buf in (data, words_only):
            forged = VlbMatrix(1, 16, m.k, "row", buf, m.checkpoints, offs)
            e = bad[0] - 1
            assert forged.get(0, e) == values[e]  # wholly inside its sub-lane
            for e in bad:  # the element's own prefix or payload, or a hopped prefix, runs past
                with pytest.raises(CorruptStream, match=f"^{what} runs past end of stream$"):
                    forged.get(0, e)


def test_get_reads_the_directory_through_views_of_its_own_arrays():
    # ``get`` reads ``checkpoints`` and ``offsets`` through views built with
    # the matrix, so it sees an in-place edit of either array.  A deep copy
    # and an unpickled twin view arrays of their own; a shallow copy shares them.
    values = list(range(1, 201))  # three lanes of 64, a short fourth one
    m = VlbMatrix.compress([values])
    starts = element_starts(values, m.k)
    for twin in (copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert twin == m and twin.offsets is not m.offsets
        twin.offsets[1] = starts[9]  # sub-lane 1 now starts one element late
        assert twin.get(0, 8) == values[9]
        assert [m.get(0, e) for e in range(200)] == values
    shallow = copy.copy(m)
    assert shallow.checkpoints is m.checkpoints and shallow.offsets is m.offsets
    m.offsets[1] = starts[9]
    m.checkpoints[1] = starts[65]  # so does lane 1, whose first offset is 0
    for forged in (m, shallow):
        assert forged.get(0, 8) == values[9] and forged.get(0, 64) == values[65]
        assert forged.get(0, 7) == values[7] and forged.get(0, 128) == values[128]


def test_checkpoints_start_at_origin_and_increase(rng):
    for n in SIZES:
        dense = rng.integers(0, 2**30, size=shape_of(n), dtype=np.uint64)
        m = VlbMatrix.compress(dense)
        assert m.checkpoints[0] == 0
        offsets = m.checkpoints.tolist()
        assert offsets == sorted(offsets)
        assert len(set(offsets)) == len(offsets)
        assert len(offsets) == len(range(0, n, 64))


def test_roundtrip_worked_row(worked_row):
    m = VlbMatrix.compress(worked_row)
    assert (m.decompress() == np.array(worked_row, dtype=np.uint64)).all()
    assert VlbMatrix.compress(m.decompress()) == m


def test_roundtrip_single_zero():
    m = VlbMatrix.compress([[0]])
    assert m.k == 1
    assert m.bits_used == 2  # prefix 1, payload bit 0
    assert m.decompress().tolist() == [[0]]


def test_iter_equals_decompress(worked_row):
    m = VlbMatrix.compress(worked_row)
    assert m.values().tolist() == WORKED_ROW
    assert m.values()[0] == 900


def test_iter_sum_matches_dense(rng):
    dense = rng.integers(0, 2**20, size=(14, 6), dtype=np.uint64)
    m = VlbMatrix.compress(dense)
    assert sum(m.values().tolist()) == int(dense.sum())


def test_bit_count_identity_and_bounds(rng):
    for _ in range(30):
        r = int(rng.integers(1, 16))
        c = int(rng.integers(1, 16))
        width = int(rng.integers(1, 65))
        dense = rng.integers(0, (1 << width) - 1, size=(r, c), dtype=np.uint64, endpoint=True)
        m = VlbMatrix.compress(dense)
        sm = SmMatrix.compress(dense)
        n = r * c
        expected = sum(m.k + bit_length(int(v)) for v in dense.ravel())
        assert m.bits_used == expected
        assert m.bits_used <= sm.bits_used + n * m.k
        assert m.bits_used >= n * (1 + m.k)


def test_prefixes_never_zero(rng):
    dense = rng.integers(0, 2**10, size=(8, 8), dtype=np.uint64)
    m = VlbMatrix.compress(dense)
    pos = 0
    for _ in range(64):
        b = m.data.read_field(pos, m.k)
        assert b >= 1
        pos += m.k + b
    assert pos == m.bits_used


def test_corrupt_zero_prefix_detected(worked_row):
    m = VlbMatrix.compress(worked_row)
    m.data.write_field(0, m.k, 0)
    with pytest.raises(CorruptStream):
        m.decompress()


def test_truncated_stream_detected(worked_row):
    m = VlbMatrix.compress(worked_row)
    m.data.bit_len -= 3
    with pytest.raises(CorruptStream):
        m.values()


def test_from_buffer_rebuilds_checkpoints(rng):
    for n in SIZES:
        r, c = shape_of(n)
        m = VlbMatrix.compress(rng.integers(0, 2**20, size=(r, c), dtype=np.uint64))
        raw = BitBuffer.from_bytes(m.data.to_bytes(), 64 * m.data.word_count)
        again = VlbMatrix.from_buffer(r, c, m.k, "row", raw)
        assert again.data.bit_len == m.bits_used
        assert np.array_equal(again.checkpoints, m.checkpoints)
        assert np.array_equal(again.offsets, m.offsets)
        assert again == m


def test_from_buffer_rejects_words_or_bits_past_the_stream(worked_row):
    m = VlbMatrix.compress(worked_row)  # 91 bits in 2 words
    longer = m.data.to_bytes() + bytes(16)
    padded = bytearray(m.data.to_bytes())
    padded[-1] |= 0x80  # bit 127, past bit_len 91
    for blob, match in ((longer, "longer than the encoded stream"), (padded, "nonzero bits")):
        raw = BitBuffer.from_bytes(bytes(blob), 8 * len(blob))
        with pytest.raises(CorruptStream, match=match):
            VlbMatrix.from_buffer(1, 8, m.k, "row", raw)


@given(
    st.integers(1, 20),
    st.integers(1, 20),
    st.integers(0, 2**64 - 1),
    st.randoms(),
)
@settings(max_examples=100)
def test_roundtrip_property(r, c, top, rnd):
    # up to 400 elements: one or more lanes, the last one whole or short
    dense = [[rnd.randint(0, top) for _ in range(c)] for _ in range(r)]
    m = VlbMatrix.compress(dense)
    assert m.decompress().tolist() == dense
    assert m.k == bit_length(bit_length(max(max(row) for row in dense)))
