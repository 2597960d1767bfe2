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
of Stream VByte, Lemire, Kurz & Rupp, taken across checkpoints).  One
prefix walker, ``_hop``, serves both ``get`` and the checkpoint rebuild
in ``from_buffer``.

The lane decoder is also the one stream validator.  Loading a raw
buffer (``from_buffer``) only hops prefixes to rebuild the checkpoints
and then decodes once, and the decoder rejects every stream that is not
decodable or not the canonical encoding of its elements.
"""

from __future__ import annotations

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
from .errors import CorruptStream

DEFAULT_CHECKPOINT_STRIDE = 64


def _hop(words: list[int], pos: int, count: int, k: int, limit: int) -> int:
    """Skip ``count`` elements from bit ``pos``, reading only their prefixes.

    Returns the bit where the next element starts.  Raises CorruptStream
    if a prefix would run past bit ``limit``; ``words`` must hold at
    least ``limit`` bits, so a prefix that straddles two words always
    has its second word.
    """
    kmask = (1 << k) - 1
    split = WORD_BITS - k  # prefixes starting past this offset straddle
    last = limit - k  # the last bit a prefix may start at
    for _ in range(count):
        if pos > last:
            raise CorruptStream("prefix runs past end of stream")
        off = pos & 63
        b = words[pos >> 6] >> off
        if off > split:
            b |= words[(pos >> 6) + 1] << (WORD_BITS - off)
        pos += k + (b & kmask)
    return pos


class VlbMatrix:
    """Matrix packed as (bit-length prefix, payload) pairs."""

    __slots__ = ("rows", "cols", "k", "order", "stride", "data", "checkpoints", "_loaded")

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
        self._loaded = None  # elements decoded by from_buffer, until values() takes them

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

        The walk only hops prefixes, recording a checkpoint every
        ``checkpoint_stride`` elements, and stops with CorruptStream if a
        prefix or the last payload would lie past the end of ``buf``.
        ``buf.bit_len`` is then set to the exact end of the stream, and
        the lane decoder, the one validator, decodes it once: it raises
        CorruptStream if the stream is not decodable or not canonical,
        so a loaded matrix is bit-identical to compressing its own
        elements.  The decoded elements stay on the matrix until the
        first :meth:`values` call takes them, so loading and then
        decoding a stream decodes it once.
        """
        if checkpoint_stride < 1:
            raise ValueError("checkpoint_stride must be >= 1")
        limit = buf.bit_len
        n = rows * cols
        checkpoints = []
        pos = 0
        for base in range(0, n, checkpoint_stride):
            checkpoints.append((base, pos))
            pos = _hop(buf.words, pos, min(checkpoint_stride, n - base), k, limit)
        if pos > limit:
            raise CorruptStream("payload runs past end of stream")
        buf.bit_len = pos
        m = cls(rows, cols, k, order, checkpoint_stride, buf, checkpoints)
        m._loaded = m._decode()
        return m

    def get(self, i: int, j: int) -> int:
        """Decode one element, hopping prefixes from the nearest checkpoint."""
        idx = unravel_index(i, j, self.rows, self.cols, self.order)
        base, pos = self.checkpoints[idx // self.stride]
        k = self.k
        pos = _hop(self.data.words, pos, idx - base, k, self.data.bit_len)
        read = self.data.read_field
        return read(pos + k, read(pos, k))

    def values(self) -> np.ndarray:
        """All elements in unravel order, as a new uint64 array."""
        out, self._loaded = self._loaded, None
        return self._decode() if out is None else out

    def _decode(self) -> np.ndarray:
        """Decode and validate the whole stream, one lane per checkpoint.

        Step ``t`` reads element ``t`` of every lane that has one and
        raises CorruptStream on a prefix or payload running past the end
        of the stream, a zero prefix, a prefix above 64, or a prefix that
        is not the bit-length of its payload (the payload's top bit must
        be set when the prefix is above 1).  Afterwards each lane must end at
        the next checkpoint, the last lane at the end of the stream, and
        ``k`` must be the bit-length of the largest prefix.  This is the
        one place where a stream is validated.
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
            v = unpack_fields(words, pos, b)
            short = (b > 1) & (v >> (b - 1).astype(np.uint64) == 0)
            if short.any():
                raise CorruptStream(
                    f"prefix {b[short][0]} at bit {pos[short][0] - k} "
                    "is not the bit-length of its payload"
                )
            out[t::stride] = v
            lane_pos[:active] = end
        if (lane_pos != np.append(starts[1:], limit)).any():
            raise CorruptStream("a checkpoint lane does not end where the next one starts")
        top = bit_length(int(out.max()))  # the largest prefix, as payloads are canonical
        if k != bit_length(top):
            raise CorruptStream(
                f"prefix width {k} is not the bit-length of the largest prefix {top}"
            )
        return out

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
