import numpy as np
import pytest

from ccmatrix.bitstream import U64_MAX, WORD_BITS, BitBuffer, bit_length
from ccmatrix.errors import CorruptStream, ParseError

# First row of the worked example used throughout the docs and tests.
WORKED_ROW = [900, 1023, 721, 256, 1, 10, 700, 20]
WORKED_ROW_BITLENS = [10, 10, 10, 9, 1, 4, 10, 5]


@pytest.fixture
def worked_row():
    return [list(WORKED_ROW)]


@pytest.fixture
def rng():
    return np.random.default_rng(20240831)


def encode_reference(values, k):
    """Independent VLB encoder: write (prefix, payload) pairs into a fresh buffer."""
    buf = BitBuffer()
    pos = 0
    for v in values:
        b = bit_length(v)
        buf.write_field(pos, k, b)
        buf.write_field(pos + k, b, v)
        pos += k + b
    return buf


def element_starts(values, k):
    """Bit position of every element, by summing prefix and payload sizes."""
    starts, pos = [], 0
    for v in values:
        starts.append(pos)
        pos += k + bit_length(v)
    return starts


def scan_get(m, idx):
    """Oracle random access: walk every prefix from bit 0."""
    pos = 0
    for _ in range(idx):
        pos += m.k + m.data.read_field(pos, m.k)
    b = m.data.read_field(pos, m.k)
    return m.data.read_field(pos + m.k, b)


def scalar_decode(m):
    """Reference VLB decoder: one element at a time with ``read_field``.

    Walks the stream from the first checkpoint and raises CorruptStream
    where the stream is not the canonical encoding of its elements: a
    prefix or payload past ``bit_len``, a prefix outside 1..64 or not the
    bit-length of its payload, a checkpoint that is not where its element
    starts, a stream that does not end at ``bit_len``, or a ``k`` that is
    not the bit-length of the largest prefix.
    """
    data, k, stride = m.data, m.k, m.stride
    pos = int(m.checkpoints[0])
    values = []
    for i in range(m.rows * m.cols):
        if i % stride == 0 and pos != m.checkpoints[i // stride]:
            raise CorruptStream(f"checkpoint {i // stride} is not where element {i} starts")
        if pos + k > data.bit_len:
            raise CorruptStream(f"prefix of element {i} runs past end of stream")
        b = data.read_field(pos, k)
        if not 1 <= b <= WORD_BITS or pos + k + b > data.bit_len:
            raise CorruptStream(f"prefix {b} of element {i} is out of range")
        v = data.read_field(pos + k, b)
        if bit_length(v) != b:
            raise CorruptStream(f"prefix {b} of element {i} is not its bit-length")
        values.append(v)
        pos += k + b
    if pos != data.bit_len:
        raise CorruptStream("stream does not end at bit_len")
    if k != bit_length(max(bit_length(v) for v in values)):
        raise CorruptStream(f"prefix width {k} is not minimal")
    return values


def reference_parse_text_matrix(text):
    """Reference text parser: one ``int()`` and range check per field into lists."""
    rows = []
    for ln, line in enumerate(text.splitlines(), 1):
        fields = line.replace(",", " ").split()
        if not fields:
            continue
        row = []
        for tok in fields:
            try:
                v = int(tok)
            except ValueError:
                raise ParseError(f"line {ln}: {tok!r} is not an integer") from None
            if v < 0 or v > U64_MAX:
                raise ParseError(f"line {ln}: {v} outside unsigned 64-bit range")
            row.append(v)
        rows.append(row)
    if not rows:
        raise ParseError("input contains no matrix rows")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ParseError(f"row {i + 1} has {len(row)} fields, expected {width}")
    return rows


def count_calls(monkeypatch, cls, name):
    """Wrap cls.name so each call appends to the returned list."""
    calls = []
    real = getattr(cls, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls
