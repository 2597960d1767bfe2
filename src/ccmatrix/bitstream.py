"""Bitstring buffer built from 64-bit words.

Bit position ``p`` lives in word ``p // 64`` at bit index ``p % 64``, where
bit index 0 is the word's least significant bit.  Fields are therefore
filled from the low end of each word upward, and a field that does not fit
in the remaining bits of a word straddles into the low bits of the next
one (low-order segment first).

Bulk paths go through two word-level numpy kernels, :func:`pack_fields`
and :func:`unpack_fields`, which place or extract many fields at once
and take ``BitBuffer.words`` as it is: the stream words plus one zero pad
word.  Fields are given either as arrays of bit positions and widths
(the positions case, which VLB uses) or as a run: back-to-back fields of
one width, given as a ``range`` of bit positions (the case SM uses).  A
run's word layout repeats every ``lcm(width, 64)`` bits, that is every
``64 / gcd(width, 64)`` fields, so it is worked in blocks of whole
periods through one table of in-block positions, and at widths 8, 16, 32
and 64 through a view of the words (word-aligned bulk packing after
Lemire & Boytsov, "Decoding billions of integers per second through
vectorization").  Packing scatters with ``np.add.at``: the target fields
are zero and the fields disjoint, so the sum equals the OR and nothing
carries.  ``BitBuffer.read_field``/``write_field`` serve single fields.
"""

from __future__ import annotations

import operator
import sys

import numpy as np

from .errors import CorruptStream, FieldOverflow, OutOfBounds

WORD_BITS = 64
U64_MAX = (1 << 64) - 1
_ONES = np.uint64(U64_MAX)
_LITTLE = sys.byteorder == "little"
_VIEWS = {w: np.dtype(f"u{w // 8}") for w in (8, 16, 32, 64)}  # runs that are plain arrays
# Fields per block of a run: a multiple of every period 64 / gcd(width, 64),
# and small enough that a block's table and temporaries stay in cache.
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


def _masks(width) -> np.ndarray:
    """Field masks ``~0 >> (64 - width)`` for widths in 1..64."""
    return _ONES >> np.uint64(WORD_BITS - width)


def _is_run(pos, width) -> bool:
    """Whether ``pos`` is a run: a ``range`` of step ``width``, a scalar."""
    return isinstance(pos, range) and np.ndim(width) == 0 and pos.step == width


def _view(words: np.ndarray, pos: range, width: int) -> np.ndarray | None:
    """The fields of a run as a view of ``words``, where they form a little-endian array."""
    if _LITTLE and width in _VIEWS and pos.start % width == 0:
        first = pos.start // width
        return words.view(_VIEWS[width])[first : first + len(pos)]
    return None


def _table(pos: range, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Word index, offset and ``63 - offset`` of each field of a run's first block.

    The word index is relative to the block's first word.  A block of
    ``_BLOCK`` fields is a whole number of periods, so every block starts
    at the same in-word offset and the table serves each one.
    """
    lead = pos.start & 63
    w, off = _split(np.arange(lead, lead + min(len(pos), _BLOCK) * width, width))
    return w, off, off ^ np.uint64(63)


def pack_fields(words: np.ndarray, pos, width, values: np.ndarray) -> None:
    """Place fields ``values`` of ``width`` bits into ``words`` at bit positions ``pos``.

    ``words`` is a uint64 array whose target fields are zero, with one
    spare word past the last field.  ``width`` is a scalar or an array
    matching ``values``; fields must not overlap.  Raises FieldOverflow,
    before any word is written, if a value does not fit its width.

    Fields are scattered with ``np.add.at``, which equals an OR here
    only because the targets are zero and the fields disjoint, so no sum
    carries.  The straddling high part of a field is
    ``(value >> 1) >> (off ^ 63)``, 0 where ``off`` is 0, so no shift is
    by 64, whose result numpy leaves to the platform.  A run (``pos`` a
    ``range`` of step ``width``) is packed by blocks through one table
    (:func:`_table`), with no position array of its length; at widths 8,
    16, 32 and 64 it is a cast into a view of ``words``.
    """
    values = np.asarray(values, dtype=np.uint64)
    if np.ndim(width):
        bad = (values > _masks(width)).any()
    else:
        bad = values.size and values.max() > _masks(width)
    if bad:
        raise FieldOverflow("a value does not fit its field width")
    if _is_run(pos, width):
        _pack_run(words, pos, int(width), values)
        return
    w, off = _split(pos)
    np.add.at(words, w, values << off)
    hi = values >> np.uint64(1)
    off ^= np.uint64(63)
    hi >>= off
    w += 1
    np.add.at(words, w, hi)


def _pack_run(words: np.ndarray, pos: range, width: int, values: np.ndarray) -> None:
    view = _view(words, pos, width)
    if view is not None:
        view[...] = values
        return
    w, off, back = _table(pos, width)
    tmp = np.empty(w.size, dtype=np.uint64)
    for e0 in range(0, values.size, _BLOCK):
        first = (pos.start + e0 * width) >> 6
        v = values[e0 : e0 + _BLOCK]
        k = v.size
        t = tmp[:k]
        np.left_shift(v, off[:k], out=t)
        np.add.at(words[first:], w[:k], t)
        np.right_shift(v, np.uint64(1), out=t)
        t >>= back[:k]
        np.add.at(words[first + 1 :], w[:k], t)


def unpack_fields(words: np.ndarray, pos, width) -> np.ndarray:
    """Read the fields of ``width`` bits at bit positions ``pos`` as uint64.

    ``words`` is a uint64 array with one zero pad word after the stream,
    so a field in the last word can read its (empty) successor.  Callers
    check that every field lies inside the stream.  Temporaries are
    shifted in place, so at most four arrays the size of ``pos`` are
    alive.  A run (see :func:`pack_fields`) is read by blocks through one
    table into the output, or cast from a view of ``words``.
    """
    if _is_run(pos, width):
        return _unpack_run(words, pos, int(width))
    w, off = _split(pos)
    out = words[w]
    out >>= off
    w += 1
    hi = words[w]
    off ^= 63  # 63 - off
    hi <<= off
    hi <<= 1  # never a shift by 64; off 0 adds nothing
    out |= hi
    del w, off, hi  # freed before the masks are built
    out &= _masks(width)
    return out


def _unpack_run(words: np.ndarray, pos: range, width: int) -> np.ndarray:
    if pos.start + len(pos) * width > WORD_BITS * (words.size - 1):
        raise IndexError("a field lies past the last stream word")  # take(mode="clip") would not
    view = _view(words, pos, width)
    if view is not None:
        return view.astype(np.uint64)
    out = np.empty(len(pos), dtype=np.uint64)
    w, off, back = _table(pos, width)
    hi = np.empty(w.size, dtype=np.uint64)
    mask = _masks(width)
    for e0 in range(0, out.size, _BLOCK):
        first = (pos.start + e0 * width) >> 6
        o = out[e0 : e0 + _BLOCK]
        k = o.size
        h = hi[:k]
        words[first:].take(w[:k], out=o, mode="clip")
        o >>= off[:k]
        words[first + 1 :].take(w[:k], out=h, mode="clip")
        h <<= back[:k]
        h <<= np.uint64(1)
        o |= h
        o &= mask
    return out


class BitBuffer:
    """Growable bitstring addressed by absolute bit position.

    ``words`` is a uint64 array of ``ceil(bit_len / 64)`` stream words and
    one zero pad word, the layout the kernels read and write.  Every bit
    at a position ``>= bit_len`` is zero, so equal contents compare equal.
    """

    __slots__ = ("words", "bit_len")

    def __init__(self, bit_len: int = 0, words: np.ndarray | None = None):
        if words is None:
            words = np.zeros((bit_len + WORD_BITS - 1) // WORD_BITS + 1, dtype=np.uint64)
        self.words = words
        self.bit_len = bit_len

    def copy(self) -> "BitBuffer":
        return BitBuffer(self.bit_len, self.words.copy())

    @property
    def word_count(self) -> int:
        return self.words.size - 1

    def write_field(self, pos: int, width: int, value: int) -> None:
        """Write ``value`` into bits ``[pos, pos + width)``.

        Grows the buffer if the field ends past ``bit_len``.  Any previous
        contents of the field are replaced; no other bit changes.  Words
        are combined as Python ints: ``~mask`` on a numpy uint64 overflows,
        so numpy integer arguments are taken as Python ints first.
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
                self.words = np.concatenate((self.words, np.zeros(grow, dtype=np.uint64)))
            self.bit_len = end
        words = self.words
        w, off = divmod(pos, WORD_BITS)
        mask = (1 << width) - 1
        low_room = WORD_BITS - off
        words[w] = (words.item(w) & ~((mask << off) & U64_MAX)) | ((value << off) & U64_MAX)
        if width > low_room:
            hi_mask = mask >> low_room
            words[w + 1] = (words.item(w + 1) & ~hi_mask) | (value >> low_room)

    def read_field(self, pos: int, width: int) -> int:
        """Read the unsigned value stored in bits ``[pos, pos + width)``.

        Numpy integer arguments are taken as Python ints: a word of 2**63
        or more shifted by an ``np.int64`` overflows.
        """
        pos, width = operator.index(pos), operator.index(width)
        if not 1 <= width <= WORD_BITS:
            raise ValueError(f"width must be in 1..64, got {width}")
        if pos < 0 or pos + width > self.bit_len:
            raise OutOfBounds(
                f"field [{pos}, {pos + width}) outside buffer of {self.bit_len} bits"
            )
        w, off = divmod(pos, WORD_BITS)
        mask = (1 << width) - 1
        out = (self.words.item(w) >> off) & mask
        low_room = WORD_BITS - off
        if width > low_room:
            out |= (self.words.item(w + 1) & (mask >> low_room)) << low_room
        return out

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
