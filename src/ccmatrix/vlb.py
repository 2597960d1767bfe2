"""Length-prefixed matrix codec.

Each element is stored as a ``k``-bit prefix holding its exact bit-length
followed by a payload of that many bits.  ``k`` is the bit-length of the
bit-length of the largest element, so it never exceeds 7 for 64-bit data.

Prefixes interleaved with payloads make one stream serial: where an
element starts depends on every prefix before it.  Checkpoints recorded
every ``stride`` elements therefore serve twice.  Random access hops
prefixes from the start of the element's lane, and bulk decoding runs
one lane per checkpoint, lengths before payloads as in Stream VByte
(Lemire, Kurz & Rupp): all lanes hop one element per vectorised step, reading
prefixes only (``stride`` steps whatever the matrix size), and then one
pass over groups of whole lanes extracts and checks every payload.  Each
lane must end exactly where the next one starts.

Two prefix walkers hop the stream.  ``get`` hops one lane with ``_hop``,
which shifts and masks the words of that lane.  ``from_buffer`` rebuilds
the checkpoints with ``_walk``, which hops the whole stream through a
table indexed by bit position, as table-driven decoders of prefix codes
do (Moffat & Turpin, "On the Implementation of Minimum Redundancy Prefix
Codes", 1997): the table is built a block at a time, so each hop is one
byte lookup.  A table costs more to build than the hops of one ``get``
save, so ``get`` keeps ``_hop``; ``_walk`` also falls back on ``_hop``
for a lane that runs past the stream, to raise its error.

The lane decoder is also the one stream validator.  ``from_buffer``
walks prefixes to rebuild the checkpoints, rejects words or set bits
past the stream's end and decodes once; the decoder rejects every
stream that is not the canonical encoding of its elements.
"""

from __future__ import annotations

from array import array
from itertools import repeat

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
_GROUP = 4096  # elements per extract pass: its temporaries stay under malloc's mmap threshold
_BLOCK = 1 << 17  # lane-start bits per hop table: a table is about 137 KiB at stride 64


def _hop(words: list[int], pos: int, count: int, k: int, limit: int) -> int:
    """Skip ``count`` elements from bit ``pos``, reading only their prefixes.

    ``words`` is a list of Python ints (indexing the uint64 array per hop
    is 2-3x slower) and ``pos`` counts from ``words[0]``.  Returns the
    bit where the next element starts.  Raises CorruptStream if a prefix
    would run past bit ``limit``; ``words`` must hold at least ``limit``
    bits, so a prefix that straddles two words always has its second word.
    ``get`` hops one lane with it, and ``_walk`` hops the lanes that its
    table cannot.
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


def _hop_table(words: np.ndarray, base: int, size: int, k: int) -> bytearray:
    """``P[q]`` = ``k`` + the ``k``-bit field at bit ``base + q``, for ``q < size``.

    That is the number of bits from an element starting at ``base + q`` to
    the next.  ``base`` is a multiple of 8.  Eight shift passes, one per bit
    offset, cut the fields out of the 16-bit windows starting at each
    stream byte (``k + 7 <= 14`` bits fit); bits past ``words`` read as 0.
    """
    nb = -(-size // 8)  # table bytes per bit offset
    w0 = base >> 6
    src = words[w0 : w0 + nb // 8 + 3].astype("<u8", copy=False).view(np.uint8)
    src = src[(base >> 3) & 7 :][: nb + 1]
    win = np.zeros(nb + 1, dtype=np.uint16)
    win[: src.size] = src
    win[:-1] |= win[1:] << 8
    table = bytearray(8 * nb)
    p = np.frombuffer(table, dtype=np.uint8).reshape(nb, 8)
    for r in range(8):
        p[:, r] = win[:-1] >> r  # the low byte holds the field
    p &= (1 << k) - 1
    p += k
    return table


def _walk(buf: BitBuffer, n: int, k: int, stride: int) -> tuple[array, int]:
    """Hop the prefixes of ``n`` elements from bit 0 of ``buf``.

    Returns the start bit of each lane of ``stride`` elements, as a
    compact ``array('q')`` (a forged header may declare any size), and the
    bit where the stream ends.  Each lane runs ``q += P[q]`` per element
    through a :func:`_hop_table` ``P`` that covers ``_BLOCK`` bits of lane
    starts plus the most bits one lane can hop.  It is rebuilt at the first
    lane that starts past that span, so no hop indexes past it or needs a
    test.  A lane that ends past ``buf.bit_len`` may have read past the
    stream, so ``_hop`` walks it and every later lane again, and raises
    CorruptStream where a prefix runs past the end; ``_hop`` also walks
    every lane when one lane can hop more bits than a block holds.
    CorruptStream is raised, too, if the last payload runs past the end.
    """
    limit = buf.bit_len
    reach = min(stride, n) * (k + (1 << k) - 1)  # the most bits one lane can hop
    starts = array("q")
    pos = base = span = first = 0
    table = b""
    while reach <= _BLOCK and first < n:
        q = pos - base
        if q >= span:
            base, q = pos & ~7, pos & 7
            span = min(_BLOCK, limit + 1 - base)  # no valid lane starts past bit ``limit``
            table = _hop_table(buf.words, base, span + reach, k)
        for _ in repeat(None, min(stride, n - first)):
            q += table[q]
        if base + q > limit:
            break  # the lane read past the stream: ``_hop`` walks it again below
        starts.append(pos)
        pos = base + q
        first += stride
    if first < n:
        words = buf.words.tolist()
        for first in range(first, n, stride):
            starts.append(pos)
            pos = _hop(words, pos, min(stride, n - first), k, limit)
    if pos > limit:
        raise CorruptStream("payload runs past end of stream")
    return starts, pos


def _read(words: list[int], pos: int, width: int) -> int:
    """The ``width``-bit field at bit ``pos``; ``words`` holds the word after its first."""
    w = pos >> 6
    return ((words[w] | words[w + 1] << WORD_BITS) >> (pos & 63)) & ((1 << width) - 1)


def _corrupt(pos: np.ndarray, b: np.ndarray, k: int, limit: int, v=None) -> CorruptStream:
    """CorruptStream for the first bad element; ``v`` holds the payloads, once read."""
    top = (b - 1).view(np.uint64)
    bad = (pos + k + b > limit) | (top >= WORD_BITS) if v is None else (v | 1) >> top == 0
    i = int(bad.argmax())
    p, bi = int(pos[i]), int(b[i])
    if p > limit - k:
        return CorruptStream("prefix runs past end of stream")
    if bi == 0:
        return CorruptStream(f"zero length prefix at bit {p}")
    if bi > WORD_BITS:
        return CorruptStream(f"length prefix {bi} exceeds 64 bits")
    if p + k + bi > limit:
        return CorruptStream("payload runs past end of stream")
    return CorruptStream(f"prefix {bi} at bit {p} is not the bit-length of its payload")


class VlbMatrix:
    """Matrix packed as (bit-length prefix, payload) pairs.

    ``checkpoints`` is an int64 array with one entry per lane.  Lane
    ``i`` holds the ``stride`` elements from element ``i * stride`` on,
    in unravel order (the last lane may hold fewer), and
    ``checkpoints[i]`` is the bit where its first element starts.  The
    element index follows from the lane, so it is not stored.
    """

    __slots__ = ("rows", "cols", "k", "order", "stride", "data", "checkpoints", "_loaded")

    def __init__(
        self,
        rows: int,
        cols: int,
        k: int,
        order: str,
        stride: int,
        data: BitBuffer,
        checkpoints: np.ndarray,
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
        data = BitBuffer(int(starts[-1] + sizes[-1]))
        pack_fields(data.words, starts, k, lengths)
        pack_fields(data.words, starts + k, lengths, flat)
        checkpoints = starts[::checkpoint_stride].copy()  # a view would keep ``starts`` alive
        return cls(rows, cols, k, order, checkpoint_stride, data, checkpoints)

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

        The walk (:func:`_walk`) only hops prefixes, through a table read
        one byte per hop, recording the start bit of each lane of
        ``checkpoint_stride`` elements, and stops with CorruptStream if a
        prefix or the last payload would lie past the end of ``buf``.  So
        does a whole word or a set bit in ``buf`` past the stream's end.
        ``buf.bit_len`` is then set to the exact end of the stream, and
        the lane decoder, the one validator, decodes it once: it raises
        CorruptStream if the stream is not decodable or not canonical,
        so a loaded matrix is bit-identical to compressing its own
        elements.  The walk's table and lane starts are released before
        the decode.  The decoded elements stay on the matrix until the
        first :meth:`values` call takes them, so loading and then
        decoding a stream decodes it once.
        """
        if checkpoint_stride < 1:
            raise ValueError("checkpoint_stride must be >= 1")
        starts, pos = _walk(buf, rows * cols, k, checkpoint_stride)
        if buf.words.size != -(-pos // WORD_BITS) + 1:
            raise CorruptStream("payload longer than the encoded stream")
        buf.bit_len = pos
        buf.check_padding()
        checkpoints = np.array(starts, dtype=np.int64)
        del starts
        m = cls(rows, cols, k, order, checkpoint_stride, buf, checkpoints)
        m._loaded = m._decode()
        return m

    def get(self, i: int, j: int) -> int:
        """Decode one element, hopping prefixes from the start of its lane.

        The lane ends where the next lane starts, or at the end of the
        stream for the last lane.  Hops, prefix and payload all read one
        list of Python ints: the words of that lane, plus one.
        """
        idx = unravel_index(i, j, self.rows, self.cols, self.order)
        cps = self.checkpoints
        lane = idx // self.stride
        pos = cps.item(lane)
        end = cps.item(lane + 1) if lane + 1 < cps.size else self.data.bit_len
        w0 = pos >> 6
        words = self.data.words[w0 : (end >> 6) + 2].tolist()
        k = self.k
        pos = _hop(words, pos & 63, idx - lane * self.stride, k, end - (w0 << 6))
        return _read(words, pos + k, _read(words, pos, k))

    def values(self) -> np.ndarray:
        """All elements in unravel order, as a new uint64 array."""
        out, self._loaded = self._loaded, None
        return self._decode() if out is None else out

    def _decode(self) -> np.ndarray:
        """Decode and validate the whole stream, one lane per checkpoint.

        All lanes hop one element per vectorised step, reading prefixes
        and storing element starts.  A pass over groups of whole lanes
        then takes each prefix as the gap to the next start in its lane,
        raises CorruptStream on a prefix or payload past the end of the
        stream or a prefix that is 0, above 64 or not the bit-length of
        its payload, and overwrites the starts with the payloads.  Each
        lane must end where the next starts, the last at the end of the
        stream, and ``k`` must be the bit-length of the largest prefix.
        """
        n = self.rows * self.cols
        k = self.k
        stride = self.stride
        limit = self.data.bit_len
        words = self.data.words
        starts = self.checkpoints
        lane_pos = starts.copy()
        lanes = starts.size
        last_len = n - (lanes - 1) * stride  # elements in the last lane
        out = np.empty(n, dtype=np.uint64)
        cap = max(limit - k, 0)  # where a corrupt lane hops past the end, the checks below fail
        for t in range(min(stride, n)):
            pos = lane_pos[: lanes if t < last_len else lanes - 1]
            out[t::stride] = pos
            b = unpack_fields(words, np.minimum(pos, cap), k)
            pos += k
            pos += b.view(np.int64)
        group = max(1, _GROUP // stride) * stride
        for a in range(0, n, group):
            pos = out[a : a + group].view(np.int64)
            ends = lane_pos[a // stride : (a + group) // stride]
            b = np.append(pos[1:], ends[-1])  # where the next element of the lane starts
            b[stride - 1 :: stride] = ends[: b.size // stride]
            b -= pos
            b -= k
            if ends.max() > limit or b.min() < 1 or b.max() > WORD_BITS:
                raise _corrupt(pos, b, k, limit)
            v = unpack_fields(words, pos + k, b)
            # (v | 1) >> (b - 1) is 0 where a payload wider than 1 bit lacks its top bit
            if ((v | 1) >> (b - 1).view(np.uint64)).min() == 0:
                raise _corrupt(pos, b, k, limit, v)
            out[a : a + group] = v
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
