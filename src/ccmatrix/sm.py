"""Fixed-width matrix codec.

Every element is stored in a chunk of ``width`` bits, where ``width`` is
the bit-length of the largest element at compression time.  Chunks are
laid out back to back in unravel order, so element access is a single
O(1) field read (at most two words when the chunk straddles a word
boundary), and bulk pack/unpack is one vectorised kernel call over the
chunk positions ``idx * width``.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from ._dense import ROW_MAJOR, check_order, dense_to_flat, flat_to_dense, unravel_index
from .bitstream import WORD_BITS, BitBuffer, bit_length, pack_fields, unpack_fields
from .errors import FieldOverflow, NarrowingRequested, WidthOverflow


class SmMatrix:
    """Matrix packed into fixed ``width``-bit chunks."""

    __slots__ = ("rows", "cols", "width", "order", "data")

    def __init__(self, rows: int, cols: int, width: int, order: str, data: BitBuffer):
        self.rows = rows
        self.cols = cols
        self.width = width
        self.order = check_order(order)
        self.data = data

    @classmethod
    def compress(cls, dense, order: str = ROW_MAJOR) -> "SmMatrix":
        """Pack a dense non-negative integer matrix at the minimal width."""
        rows, cols, flat = dense_to_flat(dense, order)
        width = bit_length(int(flat.max()))
        return cls._fill(rows, cols, width, order, flat)

    @classmethod
    def from_values(
        cls, rows: int, cols: int, width: int, values: Iterable[int], order: str = ROW_MAJOR
    ) -> "SmMatrix":
        """Pack pre-validated values (in unravel order) at a given width."""
        try:
            flat = np.fromiter(values, dtype=np.uint64)
        except OverflowError as exc:
            raise FieldOverflow(f"value out of unsigned 64-bit range: {exc}") from None
        return cls._fill(rows, cols, width, order, flat)

    @classmethod
    def _fill(cls, rows, cols, width, order, flat: np.ndarray) -> "SmMatrix":
        if not 1 <= width <= WORD_BITS:
            raise ValueError(f"width must be in 1..64, got {width}")
        n = rows * cols
        if flat.size != n:
            raise ValueError(f"expected {n} values, got {flat.size}")
        data = BitBuffer(n * width)
        pack_fields(data.words, np.arange(n, dtype=np.int64) * width, width, flat)
        return cls(rows, cols, width, order, data)

    def get(self, i: int, j: int) -> int:
        idx = unravel_index(i, j, self.rows, self.cols, self.order)
        return self.data.read_field(idx * self.width, self.width)

    def set(self, i: int, j: int, value: int) -> None:
        """Overwrite one element in place.

        The value must fit the existing chunk width; use :meth:`widen`
        first if it does not.
        """
        if bit_length(value) > self.width:
            raise WidthOverflow(
                f"{value} needs {bit_length(value)} bits, chunk width is {self.width}"
            )
        idx = unravel_index(i, j, self.rows, self.cols, self.order)
        self.data.write_field(idx * self.width, self.width, value)

    def widen(self, new_width: int) -> "SmMatrix":
        """Re-encode at a larger chunk width, preserving all elements."""
        if new_width < self.width:
            raise NarrowingRequested(
                f"cannot narrow width {self.width} to {new_width}"
            )
        return SmMatrix._fill(self.rows, self.cols, new_width, self.order, self.values())

    def values(self) -> np.ndarray:
        """All elements in unravel order, as a uint64 array."""
        pos = np.arange(self.rows * self.cols, dtype=np.int64) * self.width
        return unpack_fields(self.data.words, pos, self.width)

    def decompress(self) -> np.ndarray:
        return flat_to_dense(self.values(), self.rows, self.cols, self.order)

    @property
    def bits_used(self) -> int:
        return self.data.bit_len

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SmMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.width == other.width
            and self.order == other.order
            and self.data == other.data
        )

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"SmMatrix({self.rows}x{self.cols}, width={self.width}, "
            f"order={self.order!r})"
        )
