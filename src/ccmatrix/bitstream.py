"""Bitstring buffer built from 64-bit words.

Bit position ``p`` lives in word ``p // 64`` at bit index ``p % 64``, where
bit index 0 is the word's least significant bit.  Fields are therefore
filled from the low end of each word upward, and a field that does not fit
in the remaining bits of a word straddles into the low bits of the next
one (low-order segment first).

Bulk paths go through two word-level numpy kernels, :func:`pack_fields`
and the block generator :func:`unpack_blocks` (drained whole by
:func:`unpack_fields`).  They place or extract many fields at once and
take ``BitBuffer.words`` as it is: the stream words plus one zero pad
word.  Fields are given either as arrays of bit positions and widths
(the positions case, which VLB uses) or as a run: back-to-back fields of
one width, given as a ``range`` of bit positions (the case SM uses).
Each kernel is one loop over blocks of ``_BLOCK`` fields, so no
temporary grows with the stream (blocked bulk packing after Lemire &
Boytsov, "Decoding billions of integers per second through
vectorization").  A position block is split from its slice of the
positions.  A run's word layout repeats every ``64 / gcd(width, 64)``
fields, and a block is a whole number of such periods, so every block
of a run takes its word indexes and offsets from one table; at widths
8, 16, 32 and 64 a run is a view of the words.  Packing scatters with
``np.add.at``: the target fields are zero and the fields disjoint, so
the sum equals the OR and nothing carries.

Single fields are read and written by :func:`read_bits` and
:func:`write_bits`, on one or two words and unchecked.  They index
``BitBuffer.view``, a ``memoryview`` of the words whose items are Python
ints, which costs less per word than a numpy scalar.
``BitBuffer.read_field``/``write_field`` call them after checking their
arguments; ``SmMatrix.get``/``set``, whose index and width already bound
the field, call them directly.
"""

from __future__ import annotations

import operator
import sys

import numpy as np

from .errors import CorruptStream, FieldOverflow, OutOfBounds

WORD_BITS = 64
U64_MAX = (1 << 64) - 1
_MASKS = np.array([(1 << w) - 1 for w in range(WORD_BITS + 1)], dtype=np.uint64)  # by width
_1, _63 = np.uint64(1), np.uint64(63)  # a Python int costs numpy a conversion per call
_LITTLE = sys.byteorder == "little"
_VIEWS = {w: np.dtype(f"u{w // 8}") for w in (8, 16, 32, 64)}  # runs that are plain arrays
# Fields per block of both kernels: a multiple of every run's period
# 64 / gcd(width, 64), and small enough that a block's table and temporaries
# stay in cache.
_BLOCK = 8192


def bit_length(n: int) -> int:
    """Minimal number of binary digits for ``n``, counting 0 and 1 as one digit.

    Smallest ``w >= 1`` with ``n < 2**w``.
    """
    if not 0 <= n <= U64_MAX:
        raise ValueError(f"value out of unsigned 64-bit range: {n}")
    return max(1, int(n).bit_length())


def bit_lengths(values: np.ndarray) -> np.ndarray:
    """Vectorised :func:`bit_length` of a uint64 array, as int64.

    The exponent of ``np.frexp`` on the value as a float64, corrected
    where the conversion rounded up: ``2**k - 1`` for k > 53 converts to
    ``2**k``, one bit too many, which the shift test takes back.  So
    every value up to ``2**64 - 1`` is classified exactly; 0 maps to 1,
    as ``v | 1`` has the bit length of ``v`` for every v but 0.
    """
    v = np.asarray(values, dtype=np.uint64) | np.uint64(1)
    e = np.frexp(v.astype(np.float64))[1].astype(np.int64)
    e -= (v >> (e - 1).view(np.uint64)) == 0
    return e


def _split(pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Word index and in-word offset (as uint64 shift counts) of bit positions."""
    pos = np.asarray(pos, dtype=np.int64)
    return pos >> 6, (pos & 63).view(np.uint64)


def _run(words: np.ndarray, pos, width) -> tuple[np.ndarray | None, tuple | None]:
    """A run's fields as a view of ``words``, else the run's table; ``(None, None)`` for positions.

    A run is a ``range`` of step ``width``, a scalar.  Its fields are a
    view where they form a little-endian array of ``words``.  Otherwise
    the table holds the word index (relative to the block's first word),
    offset and ``63 - offset`` of each field of the run's first block,
    which serve every block, as each starts at the same in-word offset.
    Raises IndexError first if a field lies past the last stream word,
    as neither the view nor a clipped ``take`` would.
    """
    if not (isinstance(pos, range) and np.ndim(width) == 0 and pos.step == width):
        return None, None
    if pos.start + len(pos) * width > WORD_BITS * (words.size - 1):
        raise IndexError("a field lies past the last stream word")
    if _LITTLE and width in _VIEWS and pos.start % width == 0:
        first = pos.start // width
        return words.view(_VIEWS[width])[first : first + len(pos)], None
    lead = pos.start & 63
    w, off = _split(np.arange(lead, lead + min(len(pos), _BLOCK) * width, width))
    return None, (w, off, off ^ _63)


def _block(pos, width, table, e0: int, k: int):
    """First word, then word index (relative to it), offset and ``63 - offset`` of fields ``e0`` on.

    The block is ``k`` fields long.  A run's block is a prefix
    of its table.  A position block is split from its slice of ``pos``;
    its ``63 - offset`` is None, for the kernel to make from the offsets
    in place once it has used them.
    """
    if table is None:
        return (0, *_split(pos[e0 : e0 + k]), None)
    w, off, back = table
    return (pos.start + e0 * width) >> 6, w[:k], off[:k], back[:k]


def pack_fields(words: np.ndarray, pos, width, values: np.ndarray, top: int | None = None) -> None:
    """Place fields ``values`` of ``width`` bits into ``words`` at bit positions ``pos``.

    ``words`` is a uint64 array whose target fields are zero, with one
    spare word past the last field.  ``width`` is a scalar or an array
    matching ``values``; fields must not overlap.  Raises FieldOverflow,
    before any word is written, if a value does not fit its width, and
    IndexError if a field starts past the last stream word (or, for a
    run, ends past it).  A caller that has read the largest value passes
    it as ``top``, so the scalar-width test does not read ``values`` again.

    Each block (:func:`_block`) is scattered with ``np.add.at``, which
    equals an OR here only because the targets are zero and the fields
    disjoint, so no sum carries.  The straddling high part of a field is
    ``(value >> 1) >> (off ^ 63)``, 0 where ``off`` is 0, so no shift is
    by 64, whose result numpy leaves to the platform.
    """
    values = np.asarray(values, dtype=np.uint64)
    if np.ndim(width):  # by blocks, so no mask array grows with the stream
        blocks = range(0, values.size, _BLOCK)
        bad = any((values[e : e + _BLOCK] > _MASKS[width[e : e + _BLOCK]]).any() for e in blocks)
    else:
        bad = values.size and (values.max() if top is None else top) > _MASKS[width]
    if bad:
        raise FieldOverflow("a value does not fit its field width")
    view, table = _run(words, pos, width)
    if view is not None:
        view[...] = values
        return
    tmp = np.empty(min(values.size, _BLOCK), dtype=np.uint64)
    for e0 in range(0, values.size, _BLOCK):
        v = values[e0 : e0 + _BLOCK]
        first, w, off, back = _block(pos, width, table, e0, v.size)
        t = tmp[: v.size]
        np.left_shift(v, off, out=t)
        np.add.at(words[first:], w, t)
        if back is None:
            back = np.bitwise_xor(off, _63, out=off)
        np.right_shift(v, _1, out=t)
        t >>= back
        np.add.at(words[first + 1 :], w, t)


def unpack_fields(words: np.ndarray, pos, width) -> np.ndarray:
    """Read the fields of ``width`` bits at bit positions ``pos`` as a new uint64 array.

    It drains :func:`unpack_blocks` into an array of one element per field.
    """
    out = np.empty(len(pos), dtype=np.uint64)
    for _ in unpack_blocks(words, pos, width, out):
        pass
    return out


def unpack_blocks(words: np.ndarray, pos, width, out: np.ndarray):
    """Yield ``(e0, block)`` once ``block`` holds the fields from ``e0`` on, one block at a time.

    ``block`` is ``out[e0 % out.size:]``, cut to the block, so ``out``
    holds one element per field, or one block that each block reuses:
    ``min(len(pos), _BLOCK)`` elements.  A run takes the word indexes and
    offsets of all its blocks from the one table :func:`_run` builds; a
    run that is a view of the words is copied ``out.size`` fields at a
    time.  ``words`` is a uint64 array with one zero pad word after the
    stream, so a field in the last word can read its (empty) successor.
    Callers check that every field lies inside the stream; one that
    starts past it raises IndexError, as in :func:`pack_fields`.  Each
    block (:func:`_block`) takes its low words into ``block`` with a
    clipped ``take``, its high words with an unclipped one, which raises
    past the pad word, and ORs them in shifted in place.
    """
    view, table = _run(words, pos, width)
    n = len(pos)
    step = _BLOCK if view is None else max(out.size, 1)  # no fields, no block
    for e0 in range(0, n, step):
        o = out[e0 % out.size :][: min(step, n - e0)]
        if view is not None:
            o[...] = view[e0 : e0 + o.size]
            yield e0, o
            continue
        first, w, off, back = _block(pos, width, table, e0, o.size)
        words[first:].take(w, out=o, mode="clip")
        o >>= off
        h = words[first + 1 :].take(w)  # unclipped: raises past the pad word
        if back is None:
            back = np.bitwise_xor(off, _63, out=off)
        h <<= back
        h <<= _1  # never a shift by 64; off 0 adds nothing
        o |= h
        del w, off, back, h  # freed before the masks are built
        o &= _MASKS[width[e0 : e0 + o.size] if isinstance(width, np.ndarray) else width]
        yield e0, o


def read_bits(words, pos: int, width: int) -> int:
    """The ``width``-bit field at bit ``pos`` of ``words``, unchecked.

    ``words`` is a sequence of 64-bit words as Python ints, such as
    ``BitBuffer.view``; ``pos`` and ``width`` are Python ints, and the
    field lies inside ``words``.  One or two words are read.
    """
    w, off = pos >> 6, pos & 63
    out = words[w] >> off
    if off + width > WORD_BITS:
        out |= words[w + 1] << (WORD_BITS - off)
    return out & ((1 << width) - 1)


def write_bits(words, pos: int, width: int, value: int) -> None:
    """Replace the ``width``-bit field at bit ``pos`` of ``words`` by ``value``, unchecked.

    As :func:`read_bits`, with ``0 <= value < 2**width``; no other bit
    changes.  Each word XORs in the difference between its bits and the
    value's, cut to 64 bits.
    """
    w, off = pos >> 6, pos & 63
    mask = (1 << width) - 1
    x = words[w]
    words[w] = x ^ (((x >> off ^ value) & mask) << off & U64_MAX)
    if off + width > WORD_BITS:
        low = WORD_BITS - off  # bits of the field in word ``w``
        x = words[w + 1]
        words[w + 1] = x ^ ((x ^ value >> low) & mask >> low)


class BitBuffer:
    """Growable bitstring addressed by absolute bit position.

    ``words`` is a uint64 array of ``ceil(bit_len / 64)`` stream words and
    one zero pad word, the layout the kernels read and write.  Every bit
    at a position ``>= bit_len`` is zero, so equal contents compare equal.
    ``view`` is a ``memoryview`` of ``words`` whose items are Python ints,
    for point reads and writes; ``octets`` is its byte cast, the stream's
    bytes in order, on a little-endian host, and None on a big-endian one.
    Both are rebuilt wherever ``words`` is assigned, so they always belong
    to the buffer's own words.
    """

    __slots__ = ("words", "bit_len", "view", "octets")

    def __init__(self, bit_len: int = 0, words: np.ndarray | None = None):
        if words is None:
            words = np.zeros((bit_len + WORD_BITS - 1) // WORD_BITS + 1, dtype=np.uint64)
        self._adopt(words)
        self.bit_len = bit_len

    def _adopt(self, words: np.ndarray) -> None:
        self.words = words
        self.view = memoryview(words)
        self.octets = self.view.cast("B") if _LITTLE else None

    def __reduce__(self):  # the views are rebuilt from the words, never pickled or shared
        return BitBuffer, (self.bit_len, self.words)

    def copy(self) -> "BitBuffer":
        return BitBuffer(self.bit_len, self.words.copy())

    @property
    def word_count(self) -> int:
        return self.words.size - 1

    def write_field(self, pos: int, width: int, value: int) -> None:
        """Write ``value`` into bits ``[pos, pos + width)``.

        Grows the buffer if the field ends past ``bit_len``.  Any previous
        contents of the field are replaced; no other bit changes.  Numpy
        integer arguments are taken as Python ints, then checked, before
        :func:`write_bits` writes the field.
        """
        pos, width, value = operator.index(pos), operator.index(width), operator.index(value)
        if not 1 <= width <= WORD_BITS:
            raise ValueError(f"width must be in 1..64, got {width}")
        if pos < 0:
            raise ValueError(f"bit position must be non-negative, got {pos}")
        if not 0 <= value <= U64_MAX:
            raise FieldOverflow(f"value out of unsigned 64-bit range: {value}")
        if width < WORD_BITS and value >> width:
            raise FieldOverflow(f"{value} does not fit in {width} bits")
        end = pos + width
        if end > self.bit_len:
            grow = (end + WORD_BITS - 1) // WORD_BITS + 1 - self.words.size
            if grow > 0:
                self._adopt(np.concatenate((self.words, np.zeros(grow, dtype=np.uint64))))
            self.bit_len = end
        write_bits(self.view, pos, width, value)

    def read_field(self, pos: int, width: int) -> int:
        """Read the unsigned value stored in bits ``[pos, pos + width)``.

        Numpy integer arguments are taken as Python ints, then checked,
        before :func:`read_bits` reads the field.
        """
        pos, width = operator.index(pos), operator.index(width)
        if not 1 <= width <= WORD_BITS:
            raise ValueError(f"width must be in 1..64, got {width}")
        if pos < 0 or pos + width > self.bit_len:
            raise OutOfBounds(
                f"field [{pos}, {pos + width}) outside buffer of {self.bit_len} bits"
            )
        return read_bits(self.view, pos, width)

    def check_padding(self) -> None:
        """Raise CorruptStream if a bit at or past ``bit_len`` is set."""
        full, off = divmod(self.bit_len, WORD_BITS)
        if self.words.item(full) >> off or self.words[full + 1 :].any():
            raise CorruptStream("nonzero bits beyond end of stream")

    def to_bytes(self) -> bytes:
        """Serialize the stream words (not the pad word) as little-endian u64."""
        return self.words[:-1].astype("<u8", copy=False).tobytes()

    @classmethod
    def from_bytes(cls, data: bytes, bit_len: int) -> "BitBuffer":
        """Copy little-endian u64 words into a fresh, writable padded buffer."""
        if len(data) % 8:
            raise ValueError("word payload must be a multiple of 8 bytes")
        if bit_len > 8 * len(data):
            raise ValueError("bit_len exceeds word storage")
        words = np.zeros(len(data) // 8 + 1, dtype=np.uint64)
        words[:-1] = np.frombuffer(data, "<u8")
        return cls(bit_len, words)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitBuffer):
            return NotImplemented
        return self.bit_len == other.bit_len and np.array_equal(self.words, other.words)

    def __hash__(self):  # mutable; identity hashing would be a trap
        raise TypeError("BitBuffer is unhashable")

    def __repr__(self) -> str:
        return f"BitBuffer(bit_len={self.bit_len}, words={self.word_count})"
