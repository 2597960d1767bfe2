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

A fixed-width payload may use any chunk width from the bit-length of its
largest element up to 64: ``SmMatrix.widen`` produces such matrices, so
the loader accepts them.  A length-prefixed payload must be canonical:
every prefix is the bit-length of its payload and ``k`` is the
bit-length of the largest prefix.  Anything else raises CorruptStream,
so a loaded matrix re-compresses to the same bits.
"""

from __future__ import annotations

import struct
from pathlib import Path

from .bitstream import WORD_BITS, BitBuffer
from .cmatrix import CompressedMatrix
from .errors import BadMagic, CorruptStream, TruncatedPayload
from .sm import SmMatrix
from .vlb import DEFAULT_CHECKPOINT_STRIDE, VlbMatrix

MAGIC = b"CCM1"
VERSION = 1
_HEADER = struct.Struct("<4sBBBQQBQ")

_METHOD_CODES = {"sm": 1, "vlb": 2}
_ORDER_CODES = {"row": 0, "col": 1}
_METHOD_NAMES = {v: k for k, v in _METHOD_CODES.items()}
_ORDER_NAMES = {v: k for k, v in _ORDER_CODES.items()}


def dump_bytes(m: CompressedMatrix | SmMatrix | VlbMatrix) -> bytes:
    inner = m.inner if isinstance(m, CompressedMatrix) else m
    if isinstance(inner, SmMatrix):
        method, param = _METHOD_CODES["sm"], inner.width
    else:
        method, param = _METHOD_CODES["vlb"], inner.k
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        method,
        _ORDER_CODES[inner.order],
        inner.rows,
        inner.cols,
        param,
        inner.data.word_count,
    )
    return header + inner.data.to_bytes()


def load_bytes(
    blob: bytes, checkpoint_stride: int = DEFAULT_CHECKPOINT_STRIDE
) -> CompressedMatrix:
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
    payload = blob[_HEADER.size :]
    if len(payload) < 8 * word_count:
        raise TruncatedPayload(
            f"payload holds {len(payload)} bytes, header declares {8 * word_count}"
        )
    if len(payload) > 8 * word_count:
        raise CorruptStream("trailing bytes after declared payload")

    method_name = _METHOD_NAMES[method]
    order_name = _ORDER_NAMES[order]
    if method_name == "sm":
        if not 1 <= param <= 64:
            raise BadMagic(f"chunk width {param} outside 1..64")
        bit_len = rows * cols * param
        if word_count != (bit_len + WORD_BITS - 1) // WORD_BITS:
            raise TruncatedPayload(
                f"{word_count} words cannot hold {bit_len} bits exactly"
            )
        buf = BitBuffer.from_bytes(payload, bit_len)
        _check_padding(buf)
        return CompressedMatrix(SmMatrix(rows, cols, param, order_name, buf))

    if not 1 <= param <= 7:
        raise BadMagic(f"prefix width {param} outside 1..7")
    buf = BitBuffer.from_bytes(payload, WORD_BITS * word_count)
    inner = VlbMatrix.from_buffer(rows, cols, param, order_name, buf, checkpoint_stride)
    if word_count != (buf.bit_len + WORD_BITS - 1) // WORD_BITS:
        raise CorruptStream("payload longer than the encoded stream")
    _check_padding(buf)
    return CompressedMatrix(inner)


def _check_padding(buf: BitBuffer) -> None:
    full, off = divmod(buf.bit_len, WORD_BITS)
    if buf.words.item(full) >> off or buf.words[full + 1 :].any():
        raise CorruptStream("nonzero bits beyond end of stream")


def save_matrix(m: CompressedMatrix | SmMatrix | VlbMatrix, path) -> None:
    Path(path).write_bytes(dump_bytes(m))


def load_matrix(path, checkpoint_stride: int = DEFAULT_CHECKPOINT_STRIDE) -> CompressedMatrix:
    return load_bytes(Path(path).read_bytes(), checkpoint_stride)
