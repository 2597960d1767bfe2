"""Fixed-width matrix codec.

Every element is stored in a chunk of ``width`` bits, where ``width`` is
the bit-length of the largest element at compression time.  Chunks are
laid out back to back in unravel order, so element access is a single
O(1) field read (at most two words when the chunk straddles a word
boundary).  Bulk pack is one kernel call over the run
``range(0, n * width, width)`` of chunk positions, and bulk unpack
(``blocks``) one :func:`unpack_blocks` generator over the same run; the
kernels work through a run by blocks of whole periods, all from one
table of positions, so no array of ``n`` positions is built.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable

import numpy as np

from ._dense import (
    ROW_MAJOR, PackedMatrix, check_order, dense_to_flat, flat_to_dense, unravel_index
)
from .bitstream import (
    _BLOCK,
    WORD_BITS,
    BitBuffer,
    bit_length,
    bit_lengths,
    pack_fields,
    read_bits,
    unpack_blocks,
    write_bits,
)
from .errors import FieldOverflow, NarrowingRequested, TruncatedPayload, WidthOverflow


class SmMatrix(PackedMatrix):
    """Matrix packed into fixed ``width``-bit chunks."""

    __slots__ = ("rows", "cols", "width", "order", "data")
    METHOD = "sm"
    PARAM = "width"

    def __init__(self, rows: int, cols: int, width: int, order: str, data: BitBuffer):
        self.rows = rows
        self.cols = cols
        self.width = operator.index(width)  # a numpy width would overflow the shifts of get and set
        self.order = check_order(order)
        self.data = data

    @classmethod
    def compress(cls, dense, order: str = ROW_MAJOR) -> "SmMatrix":
        """Pack a dense non-negative integer matrix at the minimal width, reading its maximum once."""
        rows, cols, flat = dense_to_flat(dense, order)
        top = int(flat.max())
        return cls._fill(rows, cols, bit_length(top), order, flat, top)

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
    def from_buffer(cls, rows: int, cols: int, width: int, order: str, buf: BitBuffer) -> "SmMatrix":
        """Adopt the packed words of a container as a matrix of ``width``-bit chunks.

        ``buf`` must hold exactly the words that ``rows * cols`` chunks
        need, else TruncatedPayload; its ``bit_len`` is then set to the
        chunks' end, and a bit set past it raises CorruptStream.  Any
        width from the bit-length of the largest chunk up to 64 loads, as
        :meth:`widen` makes such matrices.
        """
        bit_len = rows * cols * width
        if buf.word_count != -(-bit_len // WORD_BITS):
            raise TruncatedPayload(f"{buf.word_count} words cannot hold {bit_len} bits exactly")
        buf.bit_len = bit_len
        buf.check_padding()
        return cls(rows, cols, width, order, buf)

    @classmethod
    def _fill(cls, rows, cols, width, order, flat: np.ndarray, top=None) -> "SmMatrix":
        if not 1 <= width <= WORD_BITS:
            raise ValueError(f"width must be in 1..64, got {width}")
        n = rows * cols
        if flat.size != n:
            raise ValueError(f"expected {n} values, got {flat.size}")
        data = BitBuffer(n * width)
        pack_fields(data.words, range(0, n * width, width), width, flat, top)
        return cls(rows, cols, width, order, data)

    def get(self, i: int, j: int) -> int:
        """Read one element's chunk from one or two words of ``data.view`` (:func:`read_bits`)."""
        idx = unravel_index(i, j, self.rows, self.cols, self.order)
        return read_bits(self.data.view, idx * self.width, self.width)

    def set(self, i: int, j: int, value: int) -> None:
        """Overwrite one element in place.

        The value must fit the existing chunk width; use :meth:`widen`
        first if it does not.  It is checked once, here; the index is
        checked by ``unravel_index``, so :func:`write_bits` writes the
        chunk unchecked, through ``data.view``.
        """
        value = operator.index(value)
        width = self.width
        if value >> width:  # also for a negative value; bit_length raises ValueError for it
            raise WidthOverflow(f"{value} needs {bit_length(value)} bits, chunk width is {width}")
        idx = unravel_index(i, j, self.rows, self.cols, self.order)
        write_bits(self.data.view, idx * width, width, value)

    def widen(self, new_width: int) -> "SmMatrix":
        """Re-encode at a larger chunk width, preserving all elements."""
        if new_width < self.width:
            raise NarrowingRequested(
                f"cannot narrow width {self.width} to {new_width}"
            )
        return SmMatrix._fill(self.rows, self.cols, new_width, self.order, self.values())

    def blocks(self, out: np.ndarray | None = None):
        """Yield ``(e0, block)``: the elements from ``e0`` on, ``_BLOCK`` at a time.

        The blocks are those of one :func:`unpack_blocks` call over the
        run of all chunk positions, so the run's table is built once, into
        one reused buffer of ``_BLOCK`` elements or, given an ``out`` of
        all ``n`` elements, into its slices."""
        n, w = self.rows * self.cols, self.width
        out = np.empty(min(n, _BLOCK), np.uint64) if out is None else out.reshape(n)
        yield from unpack_blocks(self.data.words, range(0, n * w, w), w, out)

    def bit_length_counts(self) -> np.ndarray:
        """How many elements have each bit-length 0..64, counted a block at a time,
        so no array of ``n`` elements is built."""
        return sum(np.bincount(bit_lengths(b), minlength=WORD_BITS + 1) for _, b in self.blocks())

    def decompress(self) -> np.ndarray:
        return flat_to_dense(self.values(), self.rows, self.cols, self.order)
