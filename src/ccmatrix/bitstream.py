"""Bitstring buffer built from 64-bit words.

Bit position ``p`` lives in word ``p // 64`` at bit index ``p % 64``, where
bit index 0 is the word's least significant bit.  Fields are therefore
filled from the low end of each word upward, and a field that does not fit
in the remaining bits of a word straddles into the low bits of the next
one (low-order segment first).

Bulk paths go through two word-level numpy kernels, :func:`pack_fields`
and :func:`unpack_fields`, which place or extract many fields at once
from arrays of bit positions and widths (word-aligned bulk packing after
Lemire & Boytsov, "Decoding billions of integers per second through
vectorization"), and take ``BitBuffer.words`` as it is: the stream words
plus one zero pad word.  ``BitBuffer.read_field``/``write_field`` serve
single fields.
"""

from __future__ import annotations

import numpy as np

from .errors import FieldOverflow, OutOfBounds

WORD_BITS = 64
U64_MAX = (1 << 64) - 1
_ONES = np.uint64(U64_MAX)


def bit_length(n: int) -> int:
    """Minimal number of binary digits for ``n``, counting 0 and 1 as one digit.

    Smallest ``w >= 1`` with ``n < 2**w``.
    """
    if not 0 <= n <= U64_MAX:
        raise ValueError(f"value out of unsigned 64-bit range: {n}")
    return max(1, int(n).bit_length())


def bit_lengths(values: np.ndarray) -> np.ndarray:
    """Vectorised :func:`bit_length` of a uint64 array, as int64.

    Exact binary search on shifts (no floating point), so every value
    up to ``2**64 - 1`` is classified correctly; 0 maps to 1.
    """
    v = np.array(values, dtype=np.uint64)
    out = np.ones(v.shape, dtype=np.uint64)
    for s in (32, 16, 8, 4, 2, 1):
        shift = (v >= np.uint64(1 << s)) * np.uint64(s)
        v >>= shift
        out += shift
    return out.astype(np.int64)


def _split(pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Word index and in-word offset (as uint64 shift counts) of bit positions."""
    pos = np.asarray(pos, dtype=np.int64)
    return pos >> 6, (pos & 63).astype(np.uint64)


def _masks(width) -> np.ndarray:
    """Field masks ``~0 >> (64 - width)`` for widths in 1..64."""
    return _ONES >> (WORD_BITS - np.asarray(width, dtype=np.int64)).astype(np.uint64)


def pack_fields(words: np.ndarray, pos, width, values: np.ndarray) -> None:
    """OR fields ``values`` of ``width`` bits into ``words`` at bit positions ``pos``.

    ``words`` is a uint64 array whose target fields are zero, with one
    spare word past the last field.  ``width`` is a scalar or an array
    matching ``values``; fields must not overlap.  Raises FieldOverflow
    if a value does not fit its width.  The straddling high part of a
    field is ``value >> ((64 - off) & 63)`` taken only where ``off > 0``,
    so no shift is by 64, whose result numpy leaves to the platform.
    """
    values = np.asarray(values, dtype=np.uint64)
    if (values > _masks(width)).any():
        raise FieldOverflow("a value does not fit its field width")
    w, off = _split(pos)
    np.bitwise_or.at(words, w, values << off)
    np.bitwise_or.at(words, w + 1, np.where(off > 0, values >> ((64 - off) & 63), 0))


def unpack_fields(words: np.ndarray, pos, width) -> np.ndarray:
    """Read the fields of ``width`` bits at bit positions ``pos`` as uint64.

    ``words`` is a uint64 array with one zero pad word after the stream,
    so a field in the last word can read its (empty) successor.  Callers
    check that every field lies inside the stream.
    """
    w, off = _split(pos)
    lo = words[w] >> off
    hi = np.where(off > 0, words[w + 1] << ((64 - off) & 63), 0)
    return (lo | hi) & _masks(width)


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
        are combined as Python ints: ``~mask`` on a numpy uint64 overflows.
        """
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
        """Read the unsigned value stored in bits ``[pos, pos + width)``."""
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
