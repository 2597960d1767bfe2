import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccmatrix.bitstream import bit_length
from ccmatrix.errors import NarrowingRequested, OutOfBounds, WidthOverflow
from ccmatrix.sm import SmMatrix

from conftest import WORKED_ROW


def test_worked_row_layout(worked_row):
    m = SmMatrix.compress(worked_row)
    assert m.width == 10
    assert m.bits_used == 80
    assert m.data.word_count == 2
    word0 = sum(v << (10 * i) for i, v in enumerate(WORKED_ROW[:6]))
    word0 |= (700 % 16) << 60
    word1 = (700 // 16) | (20 << 6)
    assert m.data.words[:-1].tolist() == [word0, word1]


def test_eight_by_eight_of_bits_fits_one_word():
    dense = [[(i + j) % 2 for j in range(8)] for i in range(8)]
    m = SmMatrix.compress(dense)
    assert m.width == 1
    assert m.data.word_count == 1
    assert m.bits_used == 64


def test_single_zero_matrix():
    m = SmMatrix.compress([[0]])
    assert m.width == 1
    assert m.data.word_count == 1
    assert m.get(0, 0) == 0


def test_get_across_word_boundary(worked_row):
    m = SmMatrix.compress(worked_row)
    assert m.get(0, 6) == 700


def test_get_matches_dense_everywhere(rng):
    dense = rng.integers(0, 1024, size=(37, 53), dtype=np.uint64)
    for order in ("row", "col"):
        m = SmMatrix.compress(dense, order)
        for i in range(37):
            for j in range(53):
                assert m.get(i, j) == dense[i, j]


def test_get_out_of_bounds(worked_row):
    m = SmMatrix.compress(worked_row)
    with pytest.raises(OutOfBounds):
        m.get(0, 8)
    with pytest.raises(OutOfBounds):
        m.get(1, 0)


def test_set_within_width(worked_row):
    m = SmMatrix.compress(worked_row)
    m.set(0, 0, 1023)
    assert m.get(0, 0) == 1023
    assert m.get(0, 1) == 1023  # neighbours untouched


def test_set_rejects_wider_value(worked_row):
    m = SmMatrix.compress(worked_row)
    with pytest.raises(WidthOverflow):
        m.set(0, 0, 1024)  # needs 11 bits


def test_set_then_set_back_is_bit_exact(worked_row):
    m = SmMatrix.compress(worked_row)
    before = m.data.copy()
    m.set(0, 3, 999)
    m.set(0, 3, 256)
    assert m.data == before


def test_widen_preserves_elements(worked_row):
    m = SmMatrix.compress(worked_row)
    wide = m.widen(11)
    assert wide.width == 11
    assert wide.values().tolist() == WORKED_ROW
    assert wide.bits_used == 8 * 11


def test_widen_same_width_is_identity(worked_row):
    m = SmMatrix.compress(worked_row)
    assert m.widen(10) == m


def test_widen_bit_matrix_to_dense_layout():
    dense = [[1, 0], [0, 1]]
    wide = SmMatrix.compress(dense).widen(64)
    assert wide.width == 64
    assert (wide.decompress() == np.array(dense, dtype=np.uint64)).all()
    assert wide.data.words[:-1].tolist() == [1, 0, 0, 1]


def test_widen_rejects_narrowing(worked_row):
    with pytest.raises(NarrowingRequested):
        SmMatrix.compress(worked_row).widen(9)


def test_roundtrip_worked_row(worked_row):
    m = SmMatrix.compress(worked_row)
    assert (m.decompress() == np.array(worked_row, dtype=np.uint64)).all()
    assert SmMatrix.compress(m.decompress()) == m


def test_roundtrip_all_zero():
    dense = np.zeros((5, 9), dtype=np.uint64)
    m = SmMatrix.compress(dense)
    assert (m.decompress() == dense).all()


def test_roundtrip_every_width(rng):
    """One random matrix per max-element bit-length 1..64, both orders."""
    for width in range(1, 65):
        hi = (1 << width) - 1
        dense = rng.integers(0, hi, size=(5, 7), dtype=np.uint64, endpoint=True)
        dense[2, 3] = hi  # pin the max so the chosen width is exact
        for order in ("row", "col"):
            m = SmMatrix.compress(dense, order)
            assert m.width == width
            assert (m.decompress() == dense).all()


def test_storage_word_count_bound(rng):
    for _ in range(50):
        r = int(rng.integers(1, 20))
        c = int(rng.integers(1, 20))
        dense = rng.integers(0, 2**17, size=(r, c), dtype=np.uint64)
        m = SmMatrix.compress(dense)
        bits = r * c * m.width
        assert m.data.word_count == -(-bits // 64)
        assert m.data.word_count <= bits // 64 + 1


def test_bits_used_equals_size_times_width(rng):
    dense = rng.integers(0, 2**13, size=(11, 4), dtype=np.uint64)
    m = SmMatrix.compress(dense)
    assert m.bits_used == 11 * 4 * bit_length(int(dense.max()))


def test_compress_rejects_bad_inputs(rng):
    with pytest.raises(TypeError):
        SmMatrix.compress(rng.random((3, 3)))  # floats
    with pytest.raises(TypeError):
        SmMatrix.compress([[1.5, 2.0]])
    with pytest.raises(ValueError):
        SmMatrix.compress([1, 2, 3])  # not 2-D
    with pytest.raises(ValueError):
        SmMatrix.compress(np.array([[-1, 2]]))
    with pytest.raises(ValueError):
        SmMatrix.compress([[2**64]])
    with pytest.raises(ValueError):
        SmMatrix.compress(np.zeros((0, 4), dtype=np.uint64))
    with pytest.raises(ValueError):
        SmMatrix.compress([[1, 2]], order="diagonal")


@given(
    st.integers(1, 8),
    st.integers(1, 8),
    st.integers(0, 2**64 - 1),
    st.randoms(),
)
@settings(max_examples=100)
def test_roundtrip_property(r, c, top, rnd):
    dense = [[rnd.randint(0, top) for _ in range(c)] for _ in range(r)]
    m = SmMatrix.compress(dense)
    assert m.decompress().tolist() == dense
    assert m.width == bit_length(max(max(row) for row in dense))
