import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccmatrix._dense import unravel_index
from ccmatrix.bitstream import U64_MAX, BitBuffer, bit_length
from ccmatrix.errors import CorruptStream, OutOfBounds
from ccmatrix.sm import SmMatrix
from ccmatrix.vlb import VlbMatrix

from conftest import WORKED_ROW, WORKED_ROW_BITLENS, encode_reference


def scan_get(m, idx):
    """Oracle random access: walk every prefix from bit 0."""
    pos = 0
    for _ in range(idx):
        pos += m.k + m.data.read_field(pos, m.k)
    b = m.data.read_field(pos, m.k)
    return m.data.read_field(pos + m.k, b)


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
    # stride 200 > n leaves one lane, whose window ends at bit_len; values
    # up to U64_MAX give k = 7 and 64-bit payloads straddling words
    for order in ("row", "col"):
        for stride in (1, 3, 64, 200):
            for top in (2**40, U64_MAX):
                dense = rng.integers(0, top, size=(9, 13), dtype=np.uint64, endpoint=True)
                m = VlbMatrix.compress(dense, order, checkpoint_stride=stride)
                assert m.k == (7 if top == U64_MAX else 6)
                for i in range(9):
                    for j in range(13):
                        assert m.get(i, j) == dense[i, j]
                        idx = unravel_index(i, j, 9, 13, order)
                        assert m.get(i, j) == scan_get(m, idx)


def test_checkpoints_start_at_origin_and_increase(rng):
    dense = rng.integers(0, 2**30, size=(20, 20), dtype=np.uint64)
    m = VlbMatrix.compress(dense, checkpoint_stride=16)
    assert m.checkpoints[0] == (0, 0)
    offsets = [off for _, off in m.checkpoints]
    assert offsets == sorted(offsets)
    assert len(set(offsets)) == len(offsets)
    assert [idx for idx, _ in m.checkpoints] == list(range(0, 400, 16))


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


def test_from_buffer_rebuilds_checkpoints(worked_row):
    m = VlbMatrix.compress(worked_row, checkpoint_stride=2)
    raw = BitBuffer.from_bytes(m.data.to_bytes(), 64 * m.data.word_count)
    again = VlbMatrix.from_buffer(1, 8, m.k, "row", raw, checkpoint_stride=2)
    assert again.data.bit_len == m.bits_used
    assert again.checkpoints == m.checkpoints
    assert again == m


@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(0, 2**64 - 1),
    st.randoms(),
)
@settings(max_examples=100)
def test_roundtrip_property(r, c, top, rnd):
    dense = [[rnd.randint(0, top) for _ in range(c)] for _ in range(r)]
    m = VlbMatrix.compress(dense, checkpoint_stride=rnd.choice([1, 4, 64]))
    assert m.decompress().tolist() == dense
    assert m.k == bit_length(bit_length(max(max(row) for row in dense)))
