"""On-disk container for compressed matrices.

Layout (all integers little-endian):

    magic      4 bytes  b"CCM1"
    version    u8       1
    method     u8       1 = fixed-width, 2 = length-prefixed
    order      u8       0 = row-major, 1 = column-major
    rows       u64
    cols       u64
    param      u8       chunk width (method 1) or prefix width k (method 2)
    word_count u64
    payload    word_count x u64 packed words

The loader checks the header and the parameter's range, then hands the
words to the ``from_buffer`` of the codec that ``cmatrix.CODECS`` names
for the method, which accepts the payload or raises.  A fixed-width
payload must be exactly the words its chunks need, with no bit set past
them, and may use any chunk width from the bit-length of its largest
element up to 64: the fixed-width ``widen`` produces such matrices, so the
loader accepts them.  A length-prefixed payload must be canonical: every
prefix is the bit-length of its payload and ``k`` is the bit-length of
the largest prefix.  Anything else raises CorruptStream or
TruncatedPayload, so a loaded matrix re-compresses to the same bits.
Writing reads the method and parameter from the codec class (``METHOD``,
``PARAM``), so neither direction tests the codec's type.
"""

from __future__ import annotations

import struct
from pathlib import Path

from ._dense import PackedMatrix
from .bitstream import WORD_BITS, BitBuffer
from .cmatrix import CODECS, CompressedMatrix
from .errors import BadMagic, CorruptStream, TruncatedPayload

MAGIC = b"CCM1"
VERSION = 1
_HEADER = struct.Struct("<4sBBBQQBQ")

_METHOD_CODES = {"sm": 1, "vlb": 2}
_ORDER_CODES = {"row": 0, "col": 1}
_METHOD_NAMES = {v: k for k, v in _METHOD_CODES.items()}
_ORDER_NAMES = {v: k for k, v in _ORDER_CODES.items()}
# what the header's param field holds for each method, and its largest value
_PARAM_RANGES = {"sm": ("chunk width", WORD_BITS), "vlb": ("prefix width", 7)}


def dump_bytes(m: CompressedMatrix | PackedMatrix) -> bytes:
    inner = m.inner
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        _METHOD_CODES[inner.METHOD],
        _ORDER_CODES[inner.order],
        inner.rows,
        inner.cols,
        getattr(inner, inner.PARAM),
        inner.data.word_count,
    )
    return header + inner.data.to_bytes()


def load_bytes(blob: bytes) -> CompressedMatrix:
    if len(blob) < _HEADER.size:
        raise BadMagic("container shorter than header")
    magic, version, method, order, rows, cols, param, word_count = _HEADER.unpack_from(
        blob
    )
    if magic != MAGIC:
        raise BadMagic(f"bad magic {magic!r}")
    if version != VERSION:
        raise BadMagic(f"unsupported version {version}")
    if method not in _METHOD_NAMES or order not in _ORDER_NAMES:
        raise BadMagic(f"invalid method/order codes ({method}, {order})")
    if rows < 1 or cols < 1:
        raise BadMagic("rows and cols must be >= 1")
    payload = memoryview(blob)[_HEADER.size :]  # no copy: BitBuffer.from_bytes copies the words
    if len(payload) < 8 * word_count:
        raise TruncatedPayload(
            f"payload holds {len(payload)} bytes, header declares {8 * word_count}"
        )
    if len(payload) > 8 * word_count:
        raise CorruptStream("trailing bytes after declared payload")
    method_name = _METHOD_NAMES[method]
    what, top = _PARAM_RANGES[method_name]
    if not 1 <= param <= top:
        raise BadMagic(f"{what} {param} outside 1..{top}")
    buf = BitBuffer.from_bytes(payload, WORD_BITS * word_count)
    inner = CODECS[method_name].from_buffer(rows, cols, param, _ORDER_NAMES[order], buf)
    return CompressedMatrix(inner)


def save_matrix(m: CompressedMatrix | PackedMatrix, path) -> None:
    Path(path).write_bytes(dump_bytes(m))


def load_matrix(path) -> CompressedMatrix:
    return load_bytes(Path(path).read_bytes())
