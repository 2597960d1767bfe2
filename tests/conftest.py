import numpy as np
import pytest

from ccmatrix.bitstream import U64_MAX, WORD_BITS, BitBuffer, bit_length
from ccmatrix.errors import CorruptStream, ParseError
from ccmatrix.vlb import VlbMatrix, _directory

# Element counts around the VLB directory's lanes of 64 and sub-lanes of 8:
# one short sub-lane (1, 3, 7), one whole sub-lane (8), a short last
# sub-lane (9, 63, 65, 127, 129), whole lanes (64, 128) and a short last
# lane of whole sub-lanes (200, 1000).
SIZES = (1, 3, 7, 8, 9, 63, 64, 65, 127, 128, 129, 200, 1000)


def shape_of(n):
    """The squarest (rows, cols) of ``n`` elements, so row and column order differ."""
    rows = max(d for d in range(1, int(n**0.5) + 1) if n % d == 0)
    return rows, n // rows


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
    bit-length of its payload, a checkpoint (one per 64 elements) that is
    not where its element starts, a sub-lane offset (one per 8 elements)
    that does not lead from its lane's checkpoint to where its element
    starts, a stream that does not end at ``bit_len``, or a ``k`` that is
    not the bit-length of the largest prefix.
    """
    data, k = m.data, m.k
    pos = int(m.checkpoints[0])
    values = []
    for i in range(m.rows * m.cols):
        if i % 64 == 0 and pos != m.checkpoints[i // 64]:
            raise CorruptStream(f"checkpoint {i // 64} is not where element {i} starts")
        if i % 8 == 0 and pos != int(m.checkpoints[i // 64]) + int(m.offsets[i // 8]):
            raise CorruptStream(f"sub-lane offset {i // 8} is not where element {i} starts")
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


def word_field(words, p, width):
    """The ``width``-bit field at bit ``p`` of a list of words, read from its two words."""
    w = p >> 6
    return (words[w] | words[w + 1] << WORD_BITS) >> (p & 63) & ((1 << width) - 1)


def reference_walk(buf, n, k):
    """Reference sub-lane walk: one shift and mask per prefix over a list of words.

    Returns the start bit of every 8th element and the
    bit where ``n`` elements end, or raises CorruptStream where a prefix,
    or the last payload, runs past ``buf.bit_len``.
    """
    limit = buf.bit_len
    words = buf.words.tolist()
    starts, pos = [], 0
    for i in range(n):
        if i % 8 == 0:
            starts.append(pos)
        if pos > limit - k:
            raise CorruptStream("prefix runs past end of stream")
        pos += k + word_field(words, pos, k)
    if pos > limit:
        raise CorruptStream("payload runs past end of stream")
    return starts, pos


def reference_get(m, idx):
    """Reference VLB random access: hop from the start of element ``idx``'s sub-lane,
    over a list of words, checking every hopped prefix against the sub-lane's end.

    The sub-lane ends where the next one starts, or at ``bit_len`` for the
    last.  Returns the element, or raises CorruptStream with the message of
    ``VlbMatrix.get``.
    """
    k, words = m.k, m.data.words.tolist()
    s = idx // 8
    pos = int(m.checkpoints[s // 8]) + int(m.offsets[s])
    end = m.data.bit_len
    if s + 1 < m.offsets.size:
        end = int(m.checkpoints[(s + 1) // 8]) + int(m.offsets[s + 1])

    for _ in range(idx % 8):
        if pos > end - k:
            raise CorruptStream("prefix runs past end of stream")
        pos += k + word_field(words, pos, k)
    if pos > end - k:
        raise CorruptStream("prefix runs past end of stream")
    b = word_field(words, pos, k)
    if pos + k + b > end:
        raise CorruptStream("payload runs past end of stream")
    return word_field(words, pos + k, b)


def reference_validate(rows, cols, k, order, buf):
    """Reference VLB load, with no hop of ``VlbMatrix``'s own: :func:`reference_walk`
    finds the sub-lane heads, and each sub-lane is hopped again one element at
    a time over a list of words, as in :func:`reference_get`.

    The elements are checked in consecutive groups of 4,096, as the loader
    checks them: within a group, every prefix against 1..64 and every payload
    against the stream's end first, then the top bit of every payload wider
    than one bit.  Last, ``k`` is checked against the bit-length of the
    largest prefix.  Returns the loaded matrix, or raises CorruptStream with
    the loader's message.
    """
    n = rows * cols
    heads, end = reference_walk(buf, n, k)
    if buf.words.size != -(-end // WORD_BITS) + 1:
        raise CorruptStream("payload longer than the encoded stream")
    buf.bit_len = end
    buf.check_padding()
    words = buf.words.tolist()
    elements = []  # (start, prefix) of every element
    for s, pos in enumerate(heads):
        for _ in range(min(8, n - 8 * s)):
            b = word_field(words, pos, k)
            elements.append((pos, b))
            pos += k + b
    for a in range(0, n, 4096):
        group = elements[a : a + 4096]
        for pos, b in group:
            if b == 0:
                raise CorruptStream(f"zero length prefix at bit {pos}")
            if b > WORD_BITS:
                raise CorruptStream(f"length prefix {b} exceeds 64 bits")
            if pos + k + b > end:
                raise CorruptStream("payload runs past end of stream")
        for pos, b in group:
            if b > 1 and not word_field(words, pos + k + b - 1, 1):
                raise CorruptStream(f"prefix {b} at bit {pos} is not the bit-length of its payload")
    top = max(b for _, b in elements)
    if k != bit_length(top):
        raise CorruptStream(f"prefix width {k} is not the bit-length of the largest prefix {top}")
    return VlbMatrix(rows, cols, k, order, buf, *_directory(np.array(heads, dtype=np.int64)))


def reference_hop_table(words, base, size, k):
    """Reference hop table: for each bit offset ``r`` of each stream byte from ``base``
    on, ``k`` + the ``k``-bit field at that bit, cut by 8 shift passes over the 16-bit
    windows starting at each byte; bits past ``words`` read as 0."""
    nb = -(-size // 8)
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


def reference_format_text_matrix(dense):
    """Reference text writer: each row through one ``%d`` template."""
    rows = dense if isinstance(dense, np.ndarray) else np.asarray(dense, dtype=object)
    line = " ".join(["%d"] * rows.shape[1]) + "\n"
    return "".join([line % tuple(row.tolist()) for row in rows])


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
