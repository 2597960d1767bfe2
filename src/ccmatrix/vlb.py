"""Length-prefixed matrix codec.

Each element is stored as a ``k``-bit prefix holding its exact bit-length
followed by a payload of that many bits.  ``k`` is the bit-length of the
bit-length of the largest element, so it never exceeds 7 for 64-bit data.

Prefixes interleaved with payloads make one stream serial: where an
element starts depends on every prefix before it.  Checkpoints recorded
every ``stride`` elements therefore serve twice.  Random access hops
prefixes from the nearest checkpoint, and bulk decoding runs one lane
per checkpoint: all lanes advance one element per vectorised step, so a
full decode takes ``stride`` steps whatever the matrix size, and each
lane must end exactly where the next one starts (the lane parallelism
of Stream VByte, Lemire, Kurz & Rupp, taken across checkpoints).
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from ._dense import ROW_MAJOR, check_order, dense_to_flat, flat_to_dense, unravel_index
from .bitstream import (
    WORD_BITS,
    BitBuffer,
    bit_length,
    bit_lengths,
    pack_fields,
    unpack_fields,
)
from .errors import CorruptStream, OutOfBounds

DEFAULT_CHECKPOINT_STRIDE = 64


class VlbMatrix:
    """Matrix packed as (bit-length prefix, payload) pairs."""

    __slots__ = ("rows", "cols", "k", "order", "stride", "data", "checkpoints")

    def __init__(
        self,
        rows: int,
        cols: int,
        k: int,
        order: str,
        stride: int,
        data: BitBuffer,
        checkpoints: list[tuple[int, int]],
    ):
        self.rows = rows
        self.cols = cols
        self.k = k
        self.order = check_order(order)
        self.stride = stride
        self.data = data
        self.checkpoints = checkpoints

    @classmethod
    def compress(
        cls,
        dense,
        order: str = ROW_MAJOR,
        checkpoint_stride: int = DEFAULT_CHECKPOINT_STRIDE,
    ) -> "VlbMatrix":
        if checkpoint_stride < 1:
            raise ValueError("checkpoint_stride must be >= 1")
        rows, cols, flat = dense_to_flat(dense, order)
        lengths = bit_lengths(flat)
        k = bit_length(int(lengths.max()))
        sizes = lengths + k
        starts = np.cumsum(sizes) - sizes
        bit_len = int(starts[-1] + sizes[-1])
        words = np.zeros((bit_len + WORD_BITS - 1) // WORD_BITS + 1, dtype=np.uint64)
        pack_fields(words, starts, k, lengths)
        pack_fields(words, starts + k, lengths, flat)
        checkpoints = list(
            zip(range(0, flat.size, checkpoint_stride), starts[::checkpoint_stride].tolist())
        )
        buf = BitBuffer.from_array(words, bit_len)
        return cls(rows, cols, k, order, checkpoint_stride, buf, checkpoints)

    @classmethod
    def from_buffer(
        cls,
        rows: int,
        cols: int,
        k: int,
        order: str,
        buf: BitBuffer,
        checkpoint_stride: int = DEFAULT_CHECKPOINT_STRIDE,
    ) -> "VlbMatrix":
        """Adopt a raw packed buffer, walking it to rebuild checkpoints.

        ``buf.bit_len`` is adjusted to the exact end of the stream.  The
        walk raises CorruptStream if the stream is not decodable or not
        canonical: every prefix must be the bit-length of its payload,
        and ``k`` the bit-length of the largest prefix, so a loaded
        matrix is bit-identical to compressing its own elements.
        """
        if checkpoint_stride < 1:
            raise ValueError("checkpoint_stride must be >= 1")
        limit = buf.bit_len
        last = limit - k  # the last bit a prefix may start at
        words = buf.words + [0]  # pad word for prefixes straddling the last word
        kmask = (1 << k) - 1
        split = WORD_BITS - k  # prefixes starting past this offset straddle
        n = rows * cols
        checkpoints = []
        pos = 0
        top = 0
        for base in range(0, n, checkpoint_stride):
            checkpoints.append((base, pos))
            for _ in range(min(checkpoint_stride, n - base)):
                if pos > last:
                    raise CorruptStream("prefix runs past end of stream")
                off = pos & 63
                b = words[pos >> 6] >> off
                if off > split:
                    b |= words[(pos >> 6) + 1] << (WORD_BITS - off)
                b &= kmask
                if not 0 < b <= WORD_BITS:
                    raise CorruptStream(
                        f"length prefix {b} exceeds 64 bits"
                        if b
                        else f"zero length prefix at bit {pos}"
                    )
                pos += k + b
                if pos > limit:
                    raise CorruptStream("payload runs past end of stream")
                high = pos - 1  # the payload's top bit, set unless the payload is 1 bit
                if b > 1 and not words[high >> 6] >> (high & 63) & 1:
                    raise CorruptStream(
                        f"prefix {b} at bit {pos - k - b} is not the bit-length of its payload"
                    )
                if b > top:
                    top = b
        if k != bit_length(top):
            raise CorruptStream(
                f"prefix width {k} is not the bit-length of the largest prefix {top}"
            )
        buf.bit_len = pos
        return cls(rows, cols, k, order, checkpoint_stride, buf, checkpoints)

    def _index(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise OutOfBounds(f"({i}, {j}) outside {self.rows}x{self.cols} matrix")
        return unravel_index(i, j, self.rows, self.cols, self.order)

    def get(self, i: int, j: int) -> int:
        """Decode one element, hopping prefixes from the nearest checkpoint."""
        idx = self._index(i, j)
        base, pos = self.checkpoints[idx // self.stride]
        read = self.data.read_field
        k = self.k
        for _ in range(idx - base):
            pos += k + read(pos, k)
        b = read(pos, k)
        return read(pos + k, b)

    def values(self) -> np.ndarray:
        """All elements in unravel order, as a uint64 array.

        Decodes one lane per checkpoint.  Step ``t`` reads element
        ``t`` of every lane that has one, checking the same conditions
        as a serial walk: a prefix or payload running past the end of
        the stream, a zero prefix, and a prefix above 64.  Afterwards
        each lane must end at the next checkpoint, and the last lane at
        the end of the stream.
        """
        n = self.rows * self.cols
        k = self.k
        stride = self.stride
        limit = self.data.bit_len
        words = self.data.array()
        starts = np.array([p for _, p in self.checkpoints], dtype=np.int64)
        lane_pos = starts.copy()
        lanes = starts.size
        last_len = n - (lanes - 1) * stride  # elements in the last lane
        out = np.empty(n, dtype=np.uint64)
        for t in range(min(stride, n)):
            active = lanes if t < last_len else lanes - 1
            pos = lane_pos[:active]
            if (pos > limit - k).any():
                raise CorruptStream("prefix runs past end of stream")
            b = unpack_fields(words, pos, k).astype(np.int64)
            if not b.all():
                raise CorruptStream(f"zero length prefix at bit {pos[b == 0][0]}")
            if (b > WORD_BITS).any():
                raise CorruptStream(f"length prefix {b.max()} exceeds 64 bits")
            pos = pos + k
            end = pos + b
            if (end > limit).any():
                raise CorruptStream("payload runs past end of stream")
            out[t::stride] = unpack_fields(words, pos, b)
            lane_pos[:active] = end
        if (lane_pos != np.append(starts[1:], limit)).any():
            raise CorruptStream("a checkpoint lane does not end where the next one starts")
        return out

    def iter_values(self) -> Iterator[int]:
        """Yield elements in unravel order."""
        return iter(self.values().tolist())

    def iter_rowmajor(self) -> Iterator[int]:
        """Yield elements row by row regardless of stored order."""
        return iter(self.decompress().ravel().tolist())

    def decompress(self) -> np.ndarray:
        return flat_to_dense(self.values(), self.rows, self.cols, self.order)

    @property
    def bits_used(self) -> int:
        return self.data.bit_len

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VlbMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.k == other.k
            and self.order == other.order
            and self.data == other.data
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"VlbMatrix({self.rows}x{self.cols}, k={self.k}, order={self.order!r})"
