import copy
import pickle

import numpy as np
import pytest

from ccmatrix.bitstream import U64_MAX, bit_length
from ccmatrix.cmatrix import CompressedMatrix
from ccmatrix.errors import ArithmeticOverflow, ShapeMismatch
from ccmatrix.sm import SmMatrix
from ccmatrix.vlb import VlbMatrix

from conftest import WORKED_ROW, count_calls


# dense oracle on Python ints, no compression involved
def dense_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def dense_scalar(a, s):
    return [[x * s for x in row] for row in a]


def dense_matmul(a, b):
    return [
        [sum(a[i][l] * b[l][j] for l in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def dense_transpose(a):
    return [[a[i][j] for i in range(len(a))] for j in range(len(a[0]))]


def random_dense(rng, r, c, hi=2**30):
    return [[int(v) for v in row] for row in rng.integers(0, hi, size=(r, c))]


def compress_random(rng, dense):
    method = rng.choice(["sm", "vlb"])
    order = rng.choice(["row", "col"])
    return CompressedMatrix.compress(dense, method=method, order=order)


def test_add_small_known():
    ones = CompressedMatrix.compress([[1, 1], [1, 1]])
    out = ones.add(ones)
    assert out.decompress().tolist() == [[2, 2], [2, 2]]
    assert out.inner.width == 2


def test_add_zero_identity(worked_row):
    m = CompressedMatrix.compress(worked_row)
    zero = CompressedMatrix.compress([[0] * 8])
    out = m + zero
    assert out.decompress().tolist() == [WORKED_ROW]
    assert out.inner == m.inner  # re-encode reproduces the same packing


def test_add_random_vs_oracle(rng):
    for _ in range(25):
        r, c = int(rng.integers(1, 10)), int(rng.integers(1, 10))
        a, b = random_dense(rng, r, c), random_dense(rng, r, c)
        out = compress_random(rng, a).add(compress_random(rng, b))
        assert out.decompress().tolist() == dense_add(a, b)


def test_add_shape_mismatch():
    a = CompressedMatrix.compress([[1, 2]])
    b = CompressedMatrix.compress([[1], [2]])
    with pytest.raises(ShapeMismatch):
        a.add(b)


def test_add_overflow_checked():
    one = CompressedMatrix.compress([[1]])
    edge = CompressedMatrix.compress([[U64_MAX - 1]])
    assert edge.add(one).decompress().tolist() == [[U64_MAX]]
    top = CompressedMatrix.compress([[U64_MAX]])
    with pytest.raises(ArithmeticOverflow):
        top.add(one)


def test_scalar_identity_and_zero(worked_row):
    m = CompressedMatrix.compress(worked_row, method="vlb")
    assert m.scalar_mul(1).equals(m)
    zero = m.scalar_mul(0)
    assert zero.inner.width == 1
    assert zero.decompress().tolist() == [[0] * 8]
    zero = CompressedMatrix.compress([[2**63, 1]]).scalar_mul(0)
    assert zero.inner.width == 1
    assert zero.decompress().tolist() == [[0, 0]]


def test_scalar_random_vs_oracle(rng):
    for _ in range(25):
        r, c = int(rng.integers(1, 10)), int(rng.integers(1, 10))
        a = random_dense(rng, r, c)
        s = int(rng.integers(0, 2**20))
        out = compress_random(rng, a).scalar_mul(s)
        assert out.decompress().tolist() == dense_scalar(a, s)


def test_scalar_overflow_checked():
    m = CompressedMatrix.compress([[2**63]])
    with pytest.raises(ArithmeticOverflow):
        m.scalar_mul(2)
    edge = CompressedMatrix.compress([[U64_MAX // 3]])
    assert edge.scalar_mul(3).decompress().tolist() == [[U64_MAX // 3 * 3]]
    with pytest.raises(ArithmeticOverflow):
        CompressedMatrix.compress([[U64_MAX // 3 + 1]]).scalar_mul(3)


def test_matmul_identity(rng):
    a = random_dense(rng, 5, 5)
    eye = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
    m = CompressedMatrix.compress(a, method="vlb")
    out = m.matmul(CompressedMatrix.compress(eye))
    assert out.decompress().tolist() == a


def test_matmul_two_by_two():
    a = CompressedMatrix.compress([[1, 2], [3, 4]])
    b = CompressedMatrix.compress([[5, 6], [7, 8]], method="vlb")
    assert (a @ b).decompress().tolist() == [[19, 22], [43, 50]]


def test_matmul_rectangular_vs_oracle(rng):
    a = random_dense(rng, 20, 30, hi=2**12)
    b = random_dense(rng, 30, 10, hi=2**12)
    out = CompressedMatrix.compress(a).matmul(CompressedMatrix.compress(b, order="col"))
    assert out.decompress().tolist() == dense_matmul(a, b)


def test_matmul_shape_mismatch():
    a = CompressedMatrix.compress([[1, 2]])
    with pytest.raises(ShapeMismatch):
        a.matmul(a)


def test_matmul_overflow_checked():
    big = CompressedMatrix.compress([[2**32]])
    with pytest.raises(ArithmeticOverflow):
        big.matmul(big)  # 2^64 exceeds the unsigned range by one


def test_transpose_fixed_point():
    m = CompressedMatrix.compress([[9]])
    assert m.transpose().equals(m)


def test_transpose_worked_row(worked_row):
    t = CompressedMatrix.compress(worked_row).transpose()
    assert t.shape == (8, 1)
    assert t.decompress().ravel().tolist() == WORKED_ROW


def test_transpose_involution_vs_oracle(rng):
    a = random_dense(rng, 7, 11)
    m = compress_random(rng, a)
    t = m.transpose()
    assert t.decompress().tolist() == dense_transpose(a)
    assert t.transpose().equals(m)


def test_equals_across_representations(worked_row):
    sm = CompressedMatrix.compress(worked_row, method="sm")
    vlb = CompressedMatrix.compress(worked_row, method="vlb", order="col")
    assert sm.equals(vlb)
    assert sm == vlb
    bumped = vlb.add(CompressedMatrix.compress([[1] * 8]))
    assert not sm.equals(bumped)
    assert sm != bumped


def test_equals_random_fuzz(rng):
    for _ in range(20):
        a = random_dense(rng, 4, 6)
        m1, m2 = compress_random(rng, a), compress_random(rng, a)
        assert m1.equals(m2) == (m1.decompress().tolist() == m2.decompress().tolist())


def test_result_width_is_minimal(rng):
    for _ in range(10):
        a = random_dense(rng, 3, 3, hi=2**25)
        b = random_dense(rng, 3, 3, hi=2**25)
        out = CompressedMatrix.compress(a).add(CompressedMatrix.compress(b))
        expected = bit_length(max(max(row) for row in dense_add(a, b)))
        assert out.inner.width == expected


def test_homomorphism_sample(rng):
    """decompress(op(compressed)) == op(dense) across representations."""
    for _ in range(25):
        r, c = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        a = random_dense(rng, r, c, hi=2**16)
        b = random_dense(rng, r, c, hi=2**16)
        ca, cb = compress_random(rng, a), compress_random(rng, b)
        assert ca.add(cb).decompress().tolist() == dense_add(a, b)
        assert ca.scalar_mul(3).decompress().tolist() == dense_scalar(a, 3)
        assert ca.transpose().decompress().tolist() == dense_transpose(a)
        inner = random_dense(rng, c, 4, hi=2**16)
        assert (
            ca.matmul(compress_random(rng, inner)).decompress().tolist()
            == dense_matmul(a, inner)
        )


def test_operations_evaluate_operands_once(monkeypatch, rng):
    r, c = 3, 5
    m = CompressedMatrix.compress(random_dense(rng, r, c), method="vlb", order="col")
    t = CompressedMatrix.compress(random_dense(rng, c, r), method="vlb")
    gets = count_calls(monkeypatch, VlbMatrix, "get")
    for op, operands in [
        (lambda: m.add(m), 2),
        (lambda: m.scalar_mul(3), 1),
        (lambda: m.equals(m), 2),
        (m.transpose, 1),
        (lambda: m.matmul(t), 2),
    ]:
        decodes = count_calls(monkeypatch, VlbMatrix, "values")
        op()
        assert len(decodes) <= operands  # once per VLB operand
    assert gets == []  # no operation reads element by element


def reference_matmul_overflow(a, b):
    """The exception a per-element checked product raises, or None."""
    for i in range(len(a)):
        for j in range(len(b[0])):
            acc = 0
            for l in range(len(b)):
                p = a[i][l] * b[l][j]
                if p > U64_MAX:
                    return ArithmeticOverflow, f"product at ({i}, {j}) exceeds 64-bit range"
                acc += p
                if acc > U64_MAX:
                    return ArithmeticOverflow, f"sum at ({i}, {j}) exceeds 64-bit range"
    return None


def test_matmul_overflow_matches_scalar_reference(rng):
    picks = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63 - 1, 2**63]
    seen = set()
    for _ in range(300):
        r, n, c = (int(x) for x in rng.integers(1, 4, size=3))
        a, b = ([[picks[x] for x in row] for row in rng.integers(0, len(picks), size=shape)]
                for shape in ((r, n), (n, c)))
        expected = reference_matmul_overflow(a, b)
        ca, cb = compress_random(rng, a), compress_random(rng, b)
        if expected is None:
            assert ca.matmul(cb).decompress().tolist() == dense_matmul(a, b)
            seen.add(None)
            continue
        with pytest.raises(ArithmeticOverflow) as err:
            ca.matmul(cb)
        assert (type(err.value), str(err.value)) == expected
        seen.add(expected[1].split()[0])
    assert seen == {None, "product", "sum"}  # both messages and clean products occur


# U64_MAX = 3 * 14002645 * 439125228929, so a 1x3 @ 3x1 product of these
# values reaches the unsigned range exactly.
BOUND_X, BOUND_Y = 14002645, 439125228929


@pytest.mark.parametrize("a, b", [
    ([[BOUND_X] * 3], [[BOUND_Y]] * 3),  # max * max * inner == U64_MAX: uint64 path
    ([[BOUND_X] * 3] * 2, [[BOUND_Y, 1]] * 3),
    ([[BOUND_X + 1, 0, 0]], [[BOUND_Y]] * 3),  # one past the bound, but the cell fits
    ([[BOUND_X + 1, BOUND_X, BOUND_X]], [[BOUND_Y]] * 3),  # one past: the sum overflows
    ([[BOUND_X + 1] * 3], [[BOUND_Y]] * 3),
    ([[2**32, 0, 0]], [[2**32], [0], [0]]),  # the product overflows
])
def test_matmul_at_the_uint64_bound_matches_the_reference(a, b):
    assert BOUND_X * BOUND_Y * 3 == U64_MAX
    expected = reference_matmul_overflow(a, b)
    for method in ("sm", "vlb"):
        ca = CompressedMatrix.compress(a, method=method)
        cb = CompressedMatrix.compress(b, method=method, order="col")
        if expected is None:
            assert ca.matmul(cb).decompress().tolist() == dense_matmul(a, b)
            continue
        with pytest.raises(ArithmeticOverflow) as err:
            ca.matmul(cb)
        assert (type(err.value), str(err.value)) == expected


def test_works_on_numpy_uint64_inputs(rng):
    dense = rng.integers(0, 2**60, size=(5, 5), dtype=np.uint64)
    m = CompressedMatrix.compress(dense, method="vlb")
    assert (m.decompress() == dense).all()


@pytest.mark.parametrize("method", ["sm", "vlb"])
@pytest.mark.parametrize("order", ["row", "col"])
def test_get_with_uint8_indices_reads_the_right_element(method, order):
    dense = np.arange(250 * 250, dtype=np.uint64).reshape(250, 250)
    m = CompressedMatrix.compress(dense, method, order)
    i, j = np.uint8(200), np.uint8(3)  # 200 * 250 wraps in uint8
    assert m.get(i, j) == 200 * 250 + 3 and m.get(j, i) == 3 * 250 + 200


@pytest.mark.parametrize("method", ["sm", "vlb"])
def test_copies_and_pickles_read_alike_and_share_no_words(method):
    # Point access keeps no state on a matrix, so a copy reads alone.
    dense = np.arange(12 * 13, dtype=np.uint64).reshape(12, 13) << np.uint64(50)
    m = CompressedMatrix.compress(dense, method).inner
    twins = [copy.deepcopy(m), pickle.loads(pickle.dumps(m))]
    if method == "sm":
        twins.append(SmMatrix(12, 13, m.width, "row", m.data.copy()))
    for twin in twins:
        assert twin == m and twin.data.words is not m.data.words
        assert [twin.get(i, j) for i, j in np.ndindex(12, 13)] == dense.ravel().tolist()
        if method == "sm":  # a write through the twin's word view leaves the source alone
            twin.set(3, 4, 1)
            assert twin.get(3, 4) == 1 and m.get(3, 4) == dense[3, 4]
