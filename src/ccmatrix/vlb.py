"""Length-prefixed matrix codec.

Each element is stored as a ``k``-bit prefix holding its exact bit-length
followed by a payload of that many bits.  ``k`` is the bit-length of the
bit-length of the largest element, so it never exceeds 7 for 64-bit data.
The prefix sits below its payload, so when the widest element fits one
word with its prefix (``b + k <= 64``: every element is below 2**58),
``compress`` writes each element as one field ``prefix | payload << k``;
otherwise it writes the prefixes, then the payloads.

Prefixes interleaved with payloads make one stream serial: where an
element starts depends on every prefix before it.  So a two-level
directory, as in rank/select indexes (Vigna, "Broadword Implementation
of Rank/Select Queries", 2008), records where elements start, with one
fixed geometry as in rank9: an int64 checkpoint per lane of 64 elements,
and a uint16 offset from that checkpoint per sub-lane of 8 elements.
Neither level is stored in a container, so a loaded matrix has the same
directory as a compressed one.  The directory serves twice.  Random
access hops fewer than 8 prefixes from the start of the element's
sub-lane, and bulk decoding runs one sub-lane per directory entry,
lengths before payloads as in Stream VByte (Lemire, Kurz & Rupp): the
sub-lanes of a block hop one element per vectorised step, reading
prefixes only (8 steps per block whatever the matrix size), and then one
pass over groups of whole sub-lanes extracts and checks every payload.
Each sub-lane must end exactly where the next one starts.

Two prefix walkers hop the stream.  ``get`` reads the bytes of one
sub-lane, through the buffer's byte view ``octets``, as one Python int,
shifted so the sub-lane starts at bit 0, and ``_hop`` hops it with one
shift and mask per prefix: broadword rank/select works a whole word per
operation, and here the word is the whole sub-lane.  ``get`` reads the
sub-lane's ends from the directory through ``memoryview``s of its two
arrays, built with the matrix in ``__init__``, whose items are Python
ints, as ``BitBuffer.view`` is for the words; so a call makes no numpy
scalar.  ``__reduce__`` rebuilds a copied or unpickled matrix from its
arrays, so its views are its own.  ``from_buffer`` finds every sub-lane
start with ``_walk``, which hops the whole stream through a table indexed
by bit position, as table-driven decoders of prefix codes do (Moffat &
Turpin, "On the Implementation of Minimum Redundancy Prefix Codes",
1997): the table is built a block at a time by one gather from
``_hop_bytes(k)``, so each hop is one byte lookup, eight of them
straight-line per sub-lane.  A table costs more to build than the hops
of one ``get`` save, so ``get`` keeps ``_hop``; ``_walk`` also falls
back on ``_hop``, one sub-lane int at a time, for a lane that runs past
the stream, to raise its error.

The block prefix hops of ``_starts`` serve the load, ``blocks`` and
``bit_length_counts`` alike.  ``from_buffer`` walks prefixes to find the
sub-lane starts, rejects words or set bits past the stream's end, builds
the directory from those starts as ``compress`` builds it from the
element starts, then hops the blocks and reads one bit per payload: a
payload of ``b`` bits is canonical exactly when ``b == 1`` or its top
bit is set.  With ``k`` checked against the largest prefix, the load
rejects every stream that is not the canonical encoding of its elements,
or whose sub-lanes do not meet where the directory says.  ``blocks``,
the bulk read that ``values`` drains, extracts every payload and checks it
again; ``bit_length_counts`` runs the prefix hops alone: each prefix is
its element's bit-length.
"""

from __future__ import annotations

from array import array
from functools import cache

import numpy as np

from ._dense import (
    ROW_MAJOR, PackedMatrix, check_order, dense_to_flat, flat_to_dense, unravel_index
)
from .bitstream import (
    _LITTLE,
    WORD_BITS,
    BitBuffer,
    bit_length,
    bit_lengths,
    pack_fields,
    unpack_fields,
)
from .errors import CorruptStream

_STRIDE = 64  # elements per lane, with one int64 checkpoint each
_SUBLANE = 8  # elements per sub-lane, with one uint16 offset each: ``get`` hops fewer than this
_PER = _STRIDE // _SUBLANE  # sub-lanes per lane
_GROUP = 4096  # elements per extract pass, and sub-lanes per decode block, keep temporaries small
_BLOCK = 1 << 17  # lane-start bits per hop table: a table is about 137 KiB
_SPAN = _SUBLANE * (7 + 127) // WORD_BITS + 2  # words that hold any sub-lane of 8 walked elements
_from_bytes = int.from_bytes  # bound once: the classmethod lookup costs ``get`` about 80 ns


def _bits(words: np.ndarray, pos: int, stop: int) -> int:
    """``words[pos >> 6 : stop]`` as one Python int, shifted so bit ``pos`` is bit 0."""
    seg = words[pos >> 6 : stop]
    return int.from_bytes((seg if _LITTLE else seg.byteswap()).tobytes(), "little") >> (pos & 63)


def _hop(x: int, count: int, k: int, limit: int) -> int:
    """Skip ``count`` elements from bit 0 of the int ``x``, reading only their prefixes.

    Returns the bit where the next element starts.  Raises CorruptStream
    if a prefix would run past bit ``limit``.  ``get`` hops one sub-lane
    with it, and ``_walk`` re-walks a lane that runs past the stream.
    Only the last start hopped from is checked: each hop adds at least
    ``k >= 1`` bits, so starts only grow, and the last one lies past bit
    ``limit - k`` exactly when some earlier one does.  So this one check
    raises where a check per hop would, with the same message; the hops
    after the first bad start read bits past ``limit`` that no result uses.
    """
    kmask = (1 << k) - 1
    p = q = 0
    for _ in range(count):
        q = p
        p += k + (x >> p & kmask)
    if count and q > limit - k:
        raise CorruptStream("prefix runs past end of stream")
    return p


@cache
def _hop_bytes(k: int) -> np.ndarray:
    """Byte ``r`` of entry ``x``: ``k`` + the ``k``-bit field at bit ``r`` of ``x``, for ``r < 8``.

    One entry per ``k+7``-bit window, 254 KiB for all ``k``; built on first
    use, so a process that walks no stream builds none."""
    x = np.arange(1 << (k + 7), dtype=np.uint16)
    hops = np.empty((x.size, 8), np.uint8)
    for r in range(8):
        hops[:, r] = x >> r & (1 << k) - 1
    hops += k
    return hops.view("<u8").ravel()


def _hop_table(words: np.ndarray, base: int, size: int, k: int) -> bytearray:
    """``P[q]`` = ``k`` + the ``k``-bit field at bit ``base + q``, for ``q < size``.

    That is the number of bits from an element starting at ``base + q`` to
    the next.  ``base`` is a multiple of 8.  The 8 bytes of ``P`` for the
    bits of one stream byte are one entry of ``_hop_bytes(k)``, looked up by the
    16-bit window starting at that byte, masked to ``k + 7 <= 14`` bits;
    bits past ``words`` read as 0.
    """
    nb = -(-size // 8)  # stream bytes whose bits ``P`` covers
    w0 = base >> 6
    src = words[w0 : w0 + nb // 8 + 3].astype("<u8", copy=False).view(np.uint8)
    src = src[(base >> 3) & 7 :][: nb + 1]
    win = np.zeros(nb + 1, dtype=np.uint16)
    win[: src.size] = src
    win[:-1] |= win[1:] << 8
    win &= (1 << (k + 7)) - 1
    table = bytearray(8 * nb)
    _hop_bytes(k).take(win[:-1], out=np.frombuffer(table, dtype="<u8"), mode="clip")  # unbuffered
    return table


def _walk(buf: BitBuffer, n: int, k: int) -> tuple[array, int]:
    """Hop the prefixes of ``n`` elements from bit 0 of ``buf``.

    Returns the start bit of each sub-lane, as a compact ``array('q')`` (a
    forged header may declare any size), and the bit where the stream
    ends.  Each lane runs ``q += P[q]`` per element through a
    :func:`_hop_table` ``P`` that covers ``_BLOCK`` bits of lane starts
    plus the most bits one lane can hop (64 * (7 + 127) = 8,576 at most),
    one lookup in ``_hop_bytes(k)`` per stream byte.  A whole sub-lane is
    eight straight-line hops, which beats a loop over them; the short last
    lane loops.
    ``P`` is rebuilt at the first lane that starts past that span, so no hop
    indexes past it or needs a test.  A lane that ends past
    ``buf.bit_len`` may have read past the stream, so ``_hop`` walks it and
    every later lane again, one sub-lane at a time, and raises
    CorruptStream where a prefix runs past the end.  CorruptStream is
    raised, too, if the last payload runs past the end.
    """
    limit = buf.bit_len
    reach = min(_STRIDE, n) * (k + (1 << k) - 1)  # the most bits one lane can hop
    hops = (None,) * _SUBLANE  # one prebuilt tuple: a fresh ``repeat`` per sub-lane is slower
    short = [hops[: n % _STRIDE - f] for f in range(0, n % _STRIDE, _SUBLANE)]  # the last lane's
    starts = array("q")
    append = starts.append
    pos = base = span = first = 0
    table = b""
    while first < n:
        q = pos - base
        if q >= span:
            base, q = pos & ~7, pos & 7
            span = min(_BLOCK, limit + 1 - base)  # no valid lane starts past bit ``limit``
            table = _hop_table(buf.words, base, span + reach, k)
        if n - first >= _STRIDE:
            for _ in range(_PER):
                append(base + q)
                q += table[q]
                q += table[q]
                q += table[q]
                q += table[q]
                q += table[q]
                q += table[q]
                q += table[q]
                q += table[q]
        else:
            for sub_hops in short:
                append(base + q)
                for _ in sub_hops:
                    q += table[q]
        if base + q > limit:
            break  # the lane read past the stream: ``_hop`` walks it again below, and raises
        pos = base + q
        first += _STRIDE
    for first in range(first, n, _SUBLANE):
        starts.append(pos)
        x = _bits(buf.words, pos, (pos >> 6) + _SPAN)
        pos += _hop(x, min(_SUBLANE, n - first), k, limit - pos)
    if pos > limit:
        raise CorruptStream("payload runs past end of stream")
    return starts, pos


def _directory(heads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The checkpoints and offsets of sub-lanes that start at bits ``heads``.

    ``heads`` holds one int64 start per sub-lane.  A sub-lane starts at
    most 56 elements into its lane, and a walked element hops at most
    7 + 127 bits, so every offset, even of a forged stream, is at most
    7,504 and fits uint16.
    """
    checkpoints = heads[::_PER].copy()  # a view would keep ``heads`` alive
    lane_starts = checkpoints[np.arange(heads.size) // _PER]
    offsets = np.subtract(heads, lane_starts, dtype=np.uint16, casting="unsafe")
    return checkpoints, offsets


def _corrupt(pos: np.ndarray, b: np.ndarray, k: int, limit: int, bad=None) -> CorruptStream:
    """CorruptStream for the first element set in ``bad``: the payloads that are not
    canonical, or by default the prefixes or payloads out of range."""
    if bad is None:
        bad = (pos + k + b > limit) | ((b - 1).view(np.uint64) >= WORD_BITS)
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


def _check_k(k: int, top: int) -> None:
    """Raise CorruptStream unless ``k`` is the bit-length of ``top``, the largest prefix."""
    if k != bit_length(top):
        raise CorruptStream(f"prefix width {k} is not the bit-length of the largest prefix {top}")


def _prefixes(block: np.ndarray, ends: np.ndarray, seams: bool, k: int, limit: int):
    """Yield ``(a, pos, b)`` per group of ``_GROUP`` element starts ``pos = block[a:]``.

    ``ends`` holds where each sub-lane ends, and ``b`` each prefix, the gap
    to the next start in its sub-lane less ``k``.  Raises CorruptStream on
    a prefix or payload past bit ``limit`` or a prefix that is 0 or above
    64, and after the last group unless ``seams``.
    """
    for a in range(0, block.size, _GROUP):
        pos = block[a : a + _GROUP].view(np.int64)
        group_ends = ends[a // _SUBLANE : (a + _GROUP) // _SUBLANE]
        b = np.append(pos[1:], group_ends[-1])  # where the next element of the sub-lane starts
        b[_SUBLANE - 1 :: _SUBLANE] = group_ends[: b.size // _SUBLANE]
        b -= pos
        b -= k
        if group_ends.max() > limit or b.min() < 1 or b.max() > WORD_BITS:
            raise _corrupt(pos, b, k, limit)
        yield a, pos, b
    if not seams:
        raise CorruptStream("a checkpoint lane does not end where the next one starts")


class VlbMatrix(PackedMatrix):
    """Matrix packed as (bit-length prefix, payload) pairs.

    ``checkpoints`` is an int64 array with one entry per lane.  Lane
    ``i`` holds the 64 elements from element ``64 * i`` on, in unravel
    order (the last lane may hold fewer), and ``checkpoints[i]`` is the
    bit where its first element starts.  ``offsets`` is a uint16 array
    with one entry per sub-lane of 8 elements: sub-lane ``s`` starts
    ``offsets[s]`` bits after the checkpoint of its lane, so the sub-lane
    at a lane's start holds 0.  Element indexes follow from the lane and
    sub-lane, so they are not stored.

    ``_cps`` and ``_offs`` are ``memoryview``s of ``checkpoints`` and
    ``offsets``, for :meth:`get`: indexing them gives Python ints.  They
    are built in ``__init__``, the only place the arrays are assigned, so
    an in-place edit of an array is seen through its view.  A
    ``memoryview`` cannot be pickled, so ``__reduce__`` rebuilds the
    matrix from its arrays: ``copy.deepcopy`` and ``pickle`` give a twin
    with views of its own arrays, and ``copy.copy`` one that shares them.
    """

    __slots__ = ("rows", "cols", "k", "order", "data", "checkpoints", "offsets", "_cps", "_offs")
    METHOD = "vlb"
    PARAM = "k"

    def __init__(
        self,
        rows: int,
        cols: int,
        k: int,
        order: str,
        data: BitBuffer,
        checkpoints: np.ndarray,
        offsets: np.ndarray,
    ):
        self.rows = rows
        self.cols = cols
        self.k = k
        self.order = check_order(order)
        self.data = data
        self.checkpoints = checkpoints
        self.offsets = offsets
        self._cps = memoryview(checkpoints)
        self._offs = memoryview(offsets)

    def __reduce__(self):  # the views are rebuilt from the arrays, never pickled
        args = (self.rows, self.cols, self.k, self.order, self.data, self.checkpoints, self.offsets)
        return VlbMatrix, args

    @classmethod
    def compress(cls, dense, order: str = ROW_MAJOR) -> "VlbMatrix":
        """Pack a dense non-negative integer matrix in ``order``.

        ``k`` is the bit-length of the largest bit-length ``b``.  When
        ``b + k <= 64``, that is when every element is below 2**58, each
        element is packed as one field ``prefix | payload << k`` of its
        ``k`` + bit-length bits, by one :func:`pack_fields` call over the
        stream.  Otherwise one call packs the prefixes and a second the
        payloads.  The bits are the same either way.  The checkpoints and
        sub-lane offsets are taken from the element starts (:func:`_directory`).
        """
        rows, cols, flat = dense_to_flat(dense, order)
        lengths = bit_lengths(flat)
        top = int(lengths.max())
        k = bit_length(top)
        sizes = lengths + k
        starts = np.cumsum(sizes) - sizes
        data = BitBuffer(int(starts[-1] + sizes[-1]))
        if top + k <= WORD_BITS:
            fields = flat << np.uint64(k)
            fields |= lengths.view(np.uint64)
            del lengths  # the pack needs only the fields
            pack_fields(data.words, starts, sizes, fields)
            del fields
        else:
            pack_fields(data.words, starts, k, lengths)
            pack_fields(data.words, starts + k, lengths, flat)
            del lengths
        del sizes
        return cls(rows, cols, k, order, data, *_directory(starts[::_SUBLANE]))

    @classmethod
    def from_buffer(cls, rows: int, cols: int, k: int, order: str, buf: BitBuffer) -> "VlbMatrix":
        """Adopt a raw packed buffer, walking it to rebuild the directory.

        The walk (:func:`_walk`) only hops prefixes, through a table read
        one byte per hop, recording the start bit of each sub-lane, and
        stops with CorruptStream if a prefix or the last payload would lie
        past the end of ``buf``.  So does a whole word or a set bit in
        ``buf`` past the stream's end.  ``buf.bit_len`` is then set to the
        exact end of the stream, :func:`_directory` turns the sub-lane
        starts into checkpoints and offsets, as ``compress`` does, and the
        block hops of :meth:`_starts` find every element's start and prefix
        ``b`` through the block buffer that ``_starts`` makes, reused, of
        at most 256 KiB, once the walk's table and starts are released.
        Unlike :meth:`blocks`, it extracts no payload: each is
        canonical exactly when ``b == 1`` or its top bit, stream bit
        ``start + k + b - 1``, is set, read from a byte view of the words.
        It raises CorruptStream if the stream is not decodable or not
        canonical, if ``k`` is not the bit-length of the largest prefix, or
        if a sub-lane does not end where the directory says the next one
        starts, with the messages of :meth:`blocks`, so a loaded matrix is
        bit-identical to compressing its own elements.  It keeps no
        element: a loaded matrix holds only its words and directory.
        """
        heads, pos = _walk(buf, rows * cols, k)
        if buf.words.size != -(-pos // WORD_BITS) + 1:
            raise CorruptStream("payload longer than the encoded stream")
        buf.bit_len = pos
        buf.check_padding()
        directory = _directory(np.frombuffer(heads, dtype=np.int64))
        del heads
        m = cls(rows, cols, k, order, buf, *directory)
        stream = buf.words.astype("<u8", copy=False).view(np.uint8)
        top = 0
        for _, _, prefixes in m._starts():
            for _, starts, b in prefixes:
                at = starts + (k - 1)
                at += b  # the top bit of each payload
                canonical = stream[at >> 3] >> (at & 7).astype(np.uint8) & 1 | (b == 1)
                if not canonical.all():
                    raise _corrupt(starts, b, k, pos, canonical == 0)
                top = max(top, int(b.max()))
        _check_k(k, top)
        return m

    def get(self, i: int, j: int) -> int:
        """Decode one element, hopping prefixes from the start of its sub-lane.

        The sub-lane starts ``offsets[s]`` bits after its lane's
        checkpoint, so at most 7 prefixes lie between it and the element.
        It ends where the next sub-lane starts, read from the same
        checkpoint for 7 of every 8 sub-lanes, or at the end of the stream
        for the last one.  The checkpoint and offsets are read through the
        views ``_cps`` and ``_offs`` as Python ints.  The sub-lane's bytes
        are read from ``data.octets`` as one Python int, shifted so the
        sub-lane starts at bit 0 (from the words, through :func:`_bits`,
        on a big-endian host): hops, prefix and payload are all shifts and
        masks of that int.  CorruptStream is raised where a hopped prefix,
        or the element's own prefix or payload, runs past the sub-lane's
        end.  :func:`_hop` checks only the last start it hopped from, which
        raises exactly where a check per hop would, as starts only grow.
        """
        idx = unravel_index(i, j, self.rows, self.cols, self.order)
        offs = self._offs
        cps = self._cps
        data = self.data
        s = idx // _SUBLANE
        lane = cps[s // _PER]
        pos = lane + offs[s]
        end = data.bit_len
        nxt = s + 1
        if nxt < len(offs):
            end = (lane if nxt % _PER else cps[nxt // _PER]) + offs[nxt]
        octets = data.octets
        if octets is None:
            x = _bits(data.words, pos, (end >> 6) + 2)
        else:
            x = _from_bytes(octets[pos >> 3 : (end + 7) >> 3], "little") >> (pos & 7)
        k = self.k
        limit = end - pos
        p = _hop(x, idx - s * _SUBLANE, k, limit)
        if p > limit - k:
            raise CorruptStream("prefix runs past end of stream")
        b = x >> p & ((1 << k) - 1)
        if p + k + b > limit:
            raise CorruptStream("payload runs past end of stream")
        return x >> (p + k) & ((1 << b) - 1)

    def bit_length_counts(self) -> np.ndarray:
        """How many elements have each bit-length 0..64, read from the prefixes alone.

        They are hopped and checked as in :meth:`blocks`, but no payload
        is read or checked to be canonical: ``compress`` and
        ``from_buffer`` establish that."""
        counts = np.zeros(WORD_BITS + 1, np.int64)
        for _, _, prefixes in self._starts():
            for _, _, b in prefixes:
                counts += np.bincount(b, minlength=WORD_BITS + 1)
        return counts

    def _starts(self, out: np.ndarray | None = None):
        """Hop the prefixes of every sub-lane, one block of ``_GROUP`` sub-lanes at a time.

        Only a block's sub-lane starts are held.  Its elements, from ``e0``
        on, go to ``out[e0 % out.size:]``, so ``out`` holds every element or,
        by default, one block of at most 256 KiB reused.  All sub-lanes of
        a block hop one element per vectorised step, reading prefixes only
        (8 steps per block), and store each element's start in the block;
        a prefix past the end of the stream is read at its last bit, and
        fails the checks of the block's :func:`_prefixes`, yielded as
        ``(e0, block, prefixes)``.
        Each sub-lane must end where the directory says the next starts, the
        last at the end of the stream, and start at offset 0 if it starts a
        lane, or CorruptStream is raised.
        """
        n = self.rows * self.cols
        out = np.empty(min(n, _GROUP * _SUBLANE), np.uint64) if out is None else out.reshape(n)
        k = self.k
        limit = self.data.bit_len
        words = self.data.words
        cps = self.checkpoints
        offs = self.offsets
        if offs[::_PER].any():
            raise CorruptStream("a sub-lane at the start of its lane has a nonzero offset")
        lanes = -(-n // _SUBLANE)
        cap = max(limit - k, 0)
        for s0 in range(0, lanes, _GROUP):
            s1 = min(s0 + _GROUP, lanes)
            lane_pos = cps[np.arange(s0, s1) // _PER]
            lane_pos += offs[s0:s1]
            after = cps.item(s1 // _PER) + offs.item(s1) if s1 < lanes else limit
            e0, e1 = s0 * _SUBLANE, min(s1 * _SUBLANE, n)
            block = out[e0 % out.size :][: e1 - e0]
            last_len = e1 - (s1 - 1) * _SUBLANE  # elements in the block's last sub-lane
            for t in range(min(_SUBLANE, e1 - e0)):
                pos = lane_pos[: s1 - s0 if t < last_len else s1 - s0 - 1]
                block[t::_SUBLANE] = pos
                b = unpack_fields(words, np.minimum(pos, cap), k)
                pos += k
                pos += b.view(np.int64)
            # block[8::8] still holds where each sub-lane but the first starts
            nxt = block[_SUBLANE::_SUBLANE].view(np.int64)
            seams = lane_pos.item(-1) == after and (lane_pos[:-1] == nxt).all()
            yield e0, block, _prefixes(block, lane_pos, seams, k, limit)

    def blocks(self, out: np.ndarray | None = None):
        """Decode and validate the stream, one block of ``_GROUP`` sub-lanes at a time.

        ``(e0, block)`` is yielded once the block of :meth:`_starts`, a
        view of ``out``, holds its elements and is checked: each group's
        payloads are extracted and CorruptStream is raised where a prefix
        is not the bit-length of its payload.  ``k`` must be the bit-length
        of the largest prefix, checked on a running maximum after the last
        block, so only a drained generator has checked the whole stream.
        """
        k = self.k
        top = 0
        for e0, block, prefixes in self._starts(out):
            for a, pos, b in prefixes:
                v = unpack_fields(self.data.words, pos + k, b)
                # (v | 1) >> (b - 1) is 0 where a payload wider than 1 bit lacks its top bit
                top_bits = (v | 1) >> (b - 1).view(np.uint64)
                if top_bits.min() == 0:
                    raise _corrupt(pos, b, k, self.data.bit_len, top_bits == 0)
                block[a : a + _GROUP] = v
            top = max(top, int(block.max()))
            yield e0, block
        _check_k(k, bit_length(top))  # the largest prefix, as payloads are canonical

    def decompress(self) -> np.ndarray:
        return flat_to_dense(self.values(), self.rows, self.cols, self.order)
