"""Conversion between dense integer matrices and flat element lists, and
what the two packed matrix classes share: every bulk read goes through
the codec's ``blocks``."""

from __future__ import annotations

import operator

import numpy as np

from .bitstream import U64_MAX
from .errors import OutOfBounds

ROW_MAJOR = "row"
COL_MAJOR = "col"
_ORDERS = (ROW_MAJOR, COL_MAJOR)


def check_order(order: str) -> str:
    if order not in _ORDERS:
        raise ValueError(f"order must be 'row' or 'col', got {order!r}")
    return order


def unravel_index(i: int, j: int, rows: int, cols: int, order: str) -> int:
    """Position of element (i, j) in the flat unraveling.

    Raises OutOfBounds if (i, j) lies outside the rows x cols matrix.
    Numpy integer indices are taken as Python ints, so the position
    cannot wrap in a small dtype such as uint8.
    """
    i, j = operator.index(i), operator.index(j)
    if not (0 <= i < rows and 0 <= j < cols):
        raise OutOfBounds(f"({i}, {j}) outside {rows}x{cols} matrix")
    return i * cols + j if order == ROW_MAJOR else j * rows + i


def dense_to_flat(dense, order: str) -> tuple[int, int, np.ndarray]:
    """Validate a 2-D non-negative integer matrix and flatten it.

    Returns (rows, cols, values) with values as a uint64 array in unravel
    order.  Accepts nested sequences or numpy integer arrays; numpy
    integer arrays are checked without leaving numpy, while nested
    sequences and object arrays must hold Python ints.
    """
    check_order(order)
    if isinstance(dense, np.ndarray):
        arr = dense
        if arr.dtype.kind not in ("i", "u", "O"):
            raise TypeError(f"matrix elements must be integers, got dtype {arr.dtype}")
    else:
        # object dtype keeps Python ints exact (asarray would promote
        # values past int64 to float64)
        arr = np.asarray(dense, dtype=object)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    rows, cols = arr.shape
    if rows < 1 or cols < 1:
        raise ValueError("matrix must have at least one row and one column")
    flat = arr.ravel(order="C" if order == ROW_MAJOR else "F")
    if arr.dtype.kind == "O":
        values = flat.tolist()
        for kind in set(map(type, values)):
            if not issubclass(kind, int):
                raise TypeError(f"matrix elements must be integers, got {kind.__name__}")
        try:
            return rows, cols, np.fromiter(values, dtype=np.uint64, count=len(values))
        except OverflowError:
            bad = next(v for v in values if not 0 <= v <= U64_MAX)
            raise ValueError(f"element {bad} outside unsigned 64-bit range") from None
    if arr.dtype.kind == "i" and flat.min() < 0:
        raise ValueError(f"element {flat.min()} outside unsigned 64-bit range")
    return rows, cols, flat.astype(np.uint64, copy=False)


def flat_to_dense(flat: np.ndarray, rows: int, cols: int, order: str) -> np.ndarray:
    """Inverse of dense_to_flat: shape a uint64 array in unravel order."""
    return flat.reshape((rows, cols), order="C" if order == ROW_MAJOR else "F")


class PackedMatrix:
    """Base of SM and VLB: ``rows`` x ``cols`` in ``order``, packed in the BitBuffer ``data``
    in a format of one parameter, the attribute that ``PARAM`` names.

    A codec class names itself: ``METHOD`` is its method name, the key of
    ``cmatrix.CODECS``, and ``PARAM`` the name of its parameter, so the
    container, the report and ``measure`` read both without testing types.
    ``inner`` is the matrix itself, so a bare codec matrix reads as a
    ``CompressedMatrix`` does.  Each codec loads a container's payload
    through ``from_buffer(rows, cols, param, order, buf)``.

    Each codec reads in bulk through one generator, ``blocks(out=None)``,
    which yields ``(e0, block)``: the elements from ``e0`` on, in unravel
    order, as a uint64 view of ``out``.  ``out`` is None, for one reused
    buffer of the codec's own block size, or an array of all ``n``
    elements, which the blocks fill in place; any other size raises
    ValueError.
    """

    __slots__ = ()

    @property
    def inner(self) -> "PackedMatrix":
        return self

    @property
    def bits_used(self) -> int:
        return self.data.bit_len

    def __eq__(self, other: object) -> bool:
        """Same class, shape, order, parameter and stream; a VLB directory follows from its stream."""
        if not isinstance(other, type(self)):
            return NotImplemented
        keys = ("rows", "cols", self.PARAM, "order", "data")
        return all(getattr(self, f) == getattr(other, f) for f in keys)

    __hash__ = None

    def values(self) -> np.ndarray:
        """All elements in unravel order, as a new uint64 array that the blocks fill."""
        out = np.empty(self.rows * self.cols, dtype=np.uint64)
        for _ in self.blocks(out):
            pass
        return out

    def __repr__(self) -> str:
        p = self.PARAM
        shape = f"{self.rows}x{self.cols}"
        return f"{type(self).__name__}({shape}, {p}={getattr(self, p)}, order={self.order!r})"
