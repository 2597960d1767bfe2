import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccmatrix import CompressedMatrix
from ccmatrix._dense import unravel_index
from ccmatrix.bitstream import bit_length, pack_fields
from ccmatrix.errors import FieldOverflow, NarrowingRequested, OutOfBounds, WidthOverflow
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
    # and every other bad value: each raises the error and message it always
    # raised, and no bit changes
    m = SmMatrix.compress(worked_row)
    before = m.data.copy()
    for bad, error, match in (
        (1024, WidthOverflow, "1024 needs 11 bits, chunk width is 10"),
        (-1, ValueError, "value out of unsigned 64-bit range: -1"),
        (2**64, ValueError, "value out of unsigned 64-bit range"),
        (1.0, TypeError, "integer"),
    ):
        with pytest.raises(error, match=match) as exc:
            m.set(0, 6, bad)  # the chunk that straddles the two words
        assert exc.type is error
        assert m.data == before


@pytest.mark.parametrize("width", range(1, 65))
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_set_writes_the_bits_of_write_field_and_reads_back(width, data):
    # Every chunk is set once, so chunks at and across word boundaries are
    # all written; a full start sets bit 63 of every full word.
    rows, cols = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9))
    order = data.draw(st.sampled_from(["row", "col"]))
    top = (1 << width) - 1
    fill = data.draw(st.sampled_from([0, top]))
    m = SmMatrix.from_values(rows, cols, np.int64(width), [fill] * (rows * cols), order)
    cells = data.draw(st.permutations([(i, j) for i in range(rows) for j in range(cols)]))
    for i, j in cells:
        value = data.draw(st.integers(0, top))
        ref = m.data.copy()
        ref.write_field(unravel_index(i, j, rows, cols, order) * width, width, value)
        m.set(i, j, value)
        assert m.data == ref
        assert m.get(i, j) == value


@pytest.mark.parametrize("width", [40, 64])  # fields straddling words; one field per word
@pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8, np.uint64, bool])
def test_get_and_set_take_numpy_integers(width, kind):
    top = (1 << width) - 1  # every word has bit 63 set
    dense = np.full((3, 4), top, dtype=np.uint64)
    m = CompressedMatrix.compress(dense, "sm")
    i = j = kind(1)
    value = kind(1) if kind is bool else kind(min(int(np.iinfo(kind).max), top - 1))
    assert m.get(i, j) == top
    m.inner.set(i, j, value)
    dense[1, 1] = int(value)
    assert m.get(i, j) == m.get(1, 1) == int(value)
    assert np.array_equal(m.decompress(), dense)
    for bad in (1.0, np.float64(1)):
        with pytest.raises(TypeError):
            m.inner.set(i, j, bad)
    assert np.array_equal(m.decompress(), dense)


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


def full_reads_of_max(call, n):
    """How many times ``call()`` takes ``max`` of an ndarray of ``n`` or more elements.

    ``ndarray.max`` is a C method, so a profile hook sees each call as a
    ``c_call`` event with the bound method and its array."""
    reads = []

    def hook(frame, event, arg):
        owner = getattr(arg, "__self__", None)
        if event == "c_call" and arg.__name__ == "max" and isinstance(owner, np.ndarray):
            reads.append(owner.size >= n)

    sys.setprofile(hook)
    try:
        call()
    finally:
        sys.setprofile(None)
    return sum(reads)


def test_compress_reads_its_maximum_once():
    dense = np.random.default_rng(11).integers(0, 2**40, (300, 200), dtype=np.uint64)
    assert full_reads_of_max(lambda: SmMatrix.compress(dense), dense.size) == 1
    flat = dense.ravel()
    # from_values and widen take no maximum of their own, so pack_fields reads it to check
    assert full_reads_of_max(lambda: SmMatrix.from_values(300, 200, 40, flat), dense.size) == 1
    m = SmMatrix.compress(dense)
    assert full_reads_of_max(lambda: m.widen(41), dense.size) == 1


def test_from_values_widen_and_pack_fields_still_check_overflow():
    flat = np.array([1, 2, 2**40], dtype=np.uint64)
    with pytest.raises(FieldOverflow):
        SmMatrix.from_values(1, 3, 40, flat)
    with pytest.raises(FieldOverflow):
        pack_fields(np.zeros(3, np.uint64), range(0, 120, 40), 40, flat)
    m = SmMatrix.from_values(1, 3, 41, flat)
    assert m.widen(64).values().tolist() == flat.tolist()
    # a maximum passed in is the one tested
    with pytest.raises(FieldOverflow):
        pack_fields(np.zeros(3, np.uint64), range(0, 120, 40), 40, flat[:2], top=2**40)
