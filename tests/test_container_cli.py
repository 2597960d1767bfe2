import contextlib
import csv
import io
import os
import re
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ccmatrix import cli, vlb
from ccmatrix.bitstream import U64_MAX
from ccmatrix.cli import format_text_matrix, main, parse_text_matrix
from ccmatrix._dense import dense_to_flat
from ccmatrix.cmatrix import CompressedMatrix
from ccmatrix.container import dump_bytes, load_bytes, load_matrix, save_matrix
from ccmatrix.efficiency import eta2, measure
from ccmatrix.errors import BadMagic, CcmatrixError, CorruptStream, ParseError, TruncatedPayload
from ccmatrix.genmat import Uniform, sample_matrix
from ccmatrix.sm import SmMatrix
from ccmatrix.vlb import VlbMatrix

from conftest import (
    WORKED_ROW,
    count_calls,
    reference_format_text_matrix,
    reference_parse_text_matrix,
)


def random_matrix(seed, rows=6, cols=5, top=32):
    return sample_matrix(Uniform(1, top), rows, cols, seed)


# -- container -----------------------------------------------------------


@pytest.mark.parametrize("method", ["sm", "vlb"])
@pytest.mark.parametrize("order", ["row", "col"])
def test_container_roundtrip_bit_exact(tmp_path, method, order):
    for seed in range(10):
        dense = random_matrix(seed)
        m = CompressedMatrix.compress(dense, method=method, order=order)
        path = tmp_path / f"m{method}{order}{seed}.ccm"
        save_matrix(m, path)
        again = load_matrix(path)
        assert again.inner == m.inner
        assert again.method == method
        assert (again.decompress() == dense).all()
        # saving the load reproduces identical bytes
        assert dump_bytes(again) == path.read_bytes()


def test_container_rejects_bad_magic(worked_row):
    blob = bytearray(dump_bytes(CompressedMatrix.compress(worked_row)))
    blob[0:4] = b"NOPE"
    with pytest.raises(BadMagic):
        load_bytes(bytes(blob))


def test_container_rejects_bad_version(worked_row):
    blob = bytearray(dump_bytes(CompressedMatrix.compress(worked_row)))
    blob[4] = 99
    with pytest.raises(BadMagic):
        load_bytes(bytes(blob))


def test_container_rejects_truncated_payload(worked_row):
    blob = dump_bytes(CompressedMatrix.compress(worked_row))
    with pytest.raises(TruncatedPayload):
        load_bytes(blob[:-8])
    with pytest.raises(BadMagic):
        load_bytes(blob[:10])  # not even a full header


def test_container_rejects_trailing_bytes(worked_row):
    blob = dump_bytes(CompressedMatrix.compress(worked_row))
    with pytest.raises(CorruptStream):
        load_bytes(blob + b"\x00" * 8)


def test_container_rejects_nonzero_padding(worked_row):
    m = CompressedMatrix.compress(worked_row)  # 80 bits in 2 words
    blob = bytearray(dump_bytes(m))
    blob[-1] = 0xFF  # bits beyond bit_len 80
    with pytest.raises(CorruptStream):
        load_bytes(bytes(blob))


def test_container_rejects_zero_prefix_in_vlb(worked_row):
    m = CompressedMatrix.compress(worked_row, method="vlb")
    m.inner.data.write_field(0, 4, 0)
    with pytest.raises(CorruptStream):
        load_bytes(dump_bytes(m))


def vlb_container(k, words, rows=1, cols=1):
    """A hand-made row-major VLB container."""
    header = struct.pack("<4sBBBQQBQ", b"CCM1", 1, 2, 0, rows, cols, k, len(words))
    return header + b"".join(w.to_bytes(8, "little") for w in words)


def test_container_accepts_canonical_vlb():
    m = load_bytes(vlb_container(2, [2 | (3 << 2)]))  # prefix 2, payload 11
    assert m.decompress().tolist() == [[3]]
    assert m.inner == VlbMatrix.compress([[3]])
    rep = measure(m)
    assert rep.eta == eta2(rep.histogram, m.inner.k)


def test_container_rejects_prefix_longer_than_payload():
    # prefix 5 with payload 00011 once loaded as [[3]], measuring eta 0.875
    # while eta2({2: 1}, 3) is 0.921875.
    with pytest.raises(CorruptStream, match="not the bit-length of its payload"):
        load_bytes(vlb_container(3, [5 | (3 << 3)]))


def test_container_rejects_prefix_width_above_minimum():
    with pytest.raises(CorruptStream, match="prefix width 3"):
        load_bytes(vlb_container(3, [2 | (3 << 3)]))  # canonical payload, k should be 2


@pytest.mark.parametrize(
    "method, param, words, error, message",
    [
        (1, 0, [0], BadMagic, "chunk width 0 outside 1..64"),
        (1, 65, [0, 0], BadMagic, "chunk width 65 outside 1..64"),
        (2, 0, [0], BadMagic, "prefix width 0 outside 1..7"),
        (2, 8, [0], BadMagic, "prefix width 8 outside 1..7"),
        (1, 10, [3, 0], TruncatedPayload, "2 words cannot hold 10 bits exactly"),  # one zero word too many
        (1, 10, [], TruncatedPayload, "0 words cannot hold 10 bits exactly"),
    ],
    ids=["width-0", "width-65", "k-0", "k-8", "sm-word-too-many", "sm-no-word"],
)
def test_container_checks_the_parameter_range_and_the_sm_word_count(
    method, param, words, error, message
):
    header = struct.pack("<4sBBBQQBQ", b"CCM1", 1, method, 0, 1, 1, param, len(words))
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        load_bytes(header + b"".join(w.to_bytes(8, "little") for w in words))


def test_vlb_header_declaring_2_to_the_62_elements_fails_in_the_walk():
    # The checkpoint walk stops at the end of the one-word stream; nothing
    # is sized by the declared rows * cols first.
    with pytest.raises(CorruptStream, match="prefix runs past end"):
        load_bytes(vlb_container(2, [2 | (3 << 2)], rows=2**31, cols=2**31))


@pytest.mark.parametrize(
    "rows, cols, match",
    [
        (1, 64, "payload longer than the encoded stream"),
        (1, 2016, "length prefix 127 exceeds 64 bits"),  # 2016 hops of 134 bits end the stream
        (2016, 2016, "prefix runs past end"),
        (2**31, 2**31, "prefix runs past end"),
    ],
)
def test_vlb_container_of_127_prefixes_is_rejected_as_corrupt(rows, cols, match):
    # Every 7-bit field reads 127, so every hop is the longest a table lane
    # allows, across 4,221 words: the checkpoint walk rebuilds its table.
    with pytest.raises(CorruptStream, match=match):
        load_bytes(vlb_container(7, [2**64 - 1] * 4221, rows=rows, cols=cols))


def test_loading_hops_with_the_table_until_a_lane_runs_past_the_stream(monkeypatch):
    dense = random_matrix(6, rows=250, cols=250, top=64)
    m = CompressedMatrix.compress(dense, method="vlb").inner
    hops = count_calls(monkeypatch, vlb, "_hop")
    assert load_bytes(dump_bytes(m)).inner == m
    assert hops == []
    cps = m.checkpoints.tolist()
    j = 100
    words = cps[j] // 64 + 1  # the stream now ends inside lane j
    assert cps[j + 1] > 64 * words
    with pytest.raises(CorruptStream, match="prefix runs past end"):
        load_bytes(vlb_container(m.k, m.data.words[:words].tolist(), rows=250, cols=250))
    left = 64 * words - cps[j]  # stream bits from the start of lane j
    # (x, count, k, limit) of each call: x holds the stream from the hop's start on
    assert hops[0][3] == left and hops[0][0] % 2**left == m.data.read_field(cps[j], left)
    assert all(limit <= left for *_, limit in hops)
    loaded = load_bytes(dump_bytes(m)).inner
    assert np.array_equal(loaded.offsets, m.offsets) and loaded.offsets.dtype == np.uint16
    for g in (m, loaded):
        for i, j in ((3, 4), (0, 0), (100, 63), (249, 249)):
            hops.clear()
            assert g.get(i, j) == dense[i, j]
            assert len(hops) == 1 and hops[0][1] < 8  # fewer than 8 prefixes from a sub-lane start


def test_load_bytes_memory_beyond_its_output_is_bounded():
    dense = sample_matrix(Uniform(1, 64), 500, 500, 7)
    blob = dump_bytes(VlbMatrix.compress(dense))
    m, peak = traced_peak(lambda b: load_bytes(b).inner, blob)
    out = m.values()
    assert out.tolist() == dense.ravel().tolist()
    kept = out.nbytes + m.data.words.nbytes + m.checkpoints.nbytes + m.offsets.nbytes
    assert peak - kept <= 384 * 1024  # the payload is not copied beside its words


def test_a_loaded_vlb_matrix_holds_only_its_words_and_directory():
    dense = sample_matrix(Uniform(1, 24), 1000, 1000, 7)
    blob = dump_bytes(VlbMatrix.compress(dense))
    tracemalloc.start()
    try:
        m = load_bytes(blob).inner
        loaded = tracemalloc.get_traced_memory()[0]
        x = m.get(500, 499)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert x == dense[500, 499]
    packed = m.data.words.nbytes + m.checkpoints.nbytes + m.offsets.nbytes
    assert loaded <= packed + 2**18 and held <= packed + 2**18  # no element kept at 8 B


def test_container_accepts_widened_sm(worked_row):
    wide = SmMatrix.compress(worked_row).widen(64)
    again = load_bytes(dump_bytes(wide))
    assert again.inner == wide
    assert again.decompress().tolist() == worked_row


def test_set_on_loaded_sm_round_trips(worked_row):
    m = load_bytes(dump_bytes(SmMatrix.compress(worked_row))).inner
    m.set(0, 6, 3)  # element 6 straddles words 0 and 1
    again = load_bytes(dump_bytes(m)).inner
    assert again == m
    assert again.values().tolist() == [900, 1023, 721, 256, 1, 10, 3, 20]


def mutate(blob, edits):
    blob = bytearray(blob)
    for kind, at, value in edits:
        if kind == "flip" and blob:
            i = at % (8 * len(blob))
            blob[i // 8] ^= 1 << (i % 8)
        elif kind == "set" and blob:
            blob[at % len(blob)] = value
        elif kind == "truncate":
            del blob[at % (len(blob) + 1) :]
        elif kind == "extend":
            blob += bytes([value]) * (1 + at % 16)
    return bytes(blob)


@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    top=st.integers(1, 64),
    method=st.sampled_from(["sm", "vlb"]),
    order=st.sampled_from(["row", "col"]),
    edits=st.lists(
        st.tuples(
            st.sampled_from(["flip", "set", "truncate", "extend"]),
            st.integers(0, 2**16),
            st.integers(0, 255),
        ),
        min_size=1,
        max_size=4,
    ),
)
@settings(max_examples=400, suppress_health_check=[HealthCheck.too_slow])
def test_loader_fuzz_only_ccmatrix_errors(seed, shape, top, method, order, edits):
    dense = sample_matrix(Uniform(1, top), *shape, seed)
    blob = mutate(dump_bytes(CompressedMatrix.compress(dense, method, order)), edits)
    try:
        m = load_bytes(blob)
    except CcmatrixError:
        return
    # Whatever the loader accepts is the canonical encoding of its matrix.
    assert dump_bytes(m) == blob
    inner, again = m.inner, m.decompress()
    if m.method == "vlb":
        assert inner == VlbMatrix.compress(again, inner.order)
        rep = measure(m)
        assert rep.eta == eta2(rep.histogram, inner.k)
    else:
        assert inner == SmMatrix.compress(again, inner.order).widen(inner.width)


# -- text matrix format --------------------------------------------------


def test_parse_accepts_commas_whitespace_blank_lines():
    text = "1, 2 3\n\n  4,5 ,6\n"
    assert parse_text_matrix(text).tolist() == [[1, 2, 3], [4, 5, 6]]


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse_text_matrix("1 x 3\n")
    with pytest.raises(ParseError):
        parse_text_matrix("1 2\n3\n")
    with pytest.raises(ParseError):
        parse_text_matrix("")
    with pytest.raises(ParseError):
        parse_text_matrix("-4\n")
    with pytest.raises(ParseError):
        parse_text_matrix(f"{2**64}\n")


def test_format_parse_roundtrip(worked_row):
    assert parse_text_matrix(format_text_matrix(worked_row)).tolist() == worked_row


def parsed_or_rejected(parse, text):
    try:
        out = parse(text)
    except ParseError as exc:
        return str(exc)
    return out.tolist() if isinstance(out, np.ndarray) else out


ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")
# separators inside a line, and line boundaries of str.splitlines
FIELD_SEPS = [" ", ",", "\t", " , ", "\u2003", "\x1c", "\x1f", "\u3000"]
LINE_SEPS = ["\n", "\r\n", "\r", "\u2028", "\x85", "\x0b", "\x1c", "\n\n"]
valid_fields = st.one_of(
    st.integers(0, 2**64 - 1).map(str),
    st.integers(0, 999).map(lambda v: f"+{v}"),
    st.integers(1_000, 10**9).map(lambda v: f"{v:_}"),
    st.integers(0, 2**64 - 1).map(lambda v: str(v).translate(ARABIC_INDIC)),
)
any_fields = st.one_of(
    valid_fields,
    st.sampled_from(["-4", "-0", str(2**64), str(2**64 - 1), "0", "00", "x", "1.5", "0x10", "_1", "1__0"]),
    st.integers(2**64, 2**80).map(str),
    st.integers(4_290, 4_310).map(lambda n: "1" * n),
    st.text(alphabet="0123456789+-_ ,x\u0663", max_size=4),
)


@st.composite
def text_matrices(draw):
    if draw(st.booleans()):  # anything at all from a small alphabet
        return draw(st.text(alphabet="0129+-_, \t\n\r\x1c\u2003\u2028\u0661x", max_size=40))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    ragged = draw(st.booleans())
    fields = draw(st.sampled_from([valid_fields, any_fields]))
    lines = []
    for _ in range(rows):
        width = draw(st.integers(0, cols + 1)) if ragged else cols
        toks = draw(st.lists(fields, min_size=width, max_size=width))
        lines.append(draw(st.sampled_from(FIELD_SEPS)).join(toks))
    line_sep = st.sampled_from(LINE_SEPS)
    text = "".join(line + draw(line_sep) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\n")


@given(text_matrices())
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_parse_matches_reference_parser(text):
    want = parsed_or_rejected(reference_parse_text_matrix, text)
    assert parsed_or_rejected(parse_text_matrix, text) == want


@pytest.mark.parametrize("text", [
    "", "\n\n", " , \n", "+3 1_000\n", "\u0663 4\u20035\n", "1\x1c2\n", "1\u20282\n",
    "-4\n", f"{2**64}\n", f"{2**64 - 1}\n", "1 2\n3\n", "1 2\n3 x\n", "x\n-1\n",
    pytest.param("1\n" + "9" * 4301 + "\n", id="4301-digit-field"), "1 2\n\n3 4 5\n", "1 2\n3 -1 4\n",
])
def test_parse_matches_reference_parser_on_edge_cases(text):
    assert parsed_or_rejected(parse_text_matrix, text) == parsed_or_rejected(
        reference_parse_text_matrix, text
    )


# Plain text: ASCII digits, spaces, tabs, commas and \n / \r line ends,
# the input that parse_text_matrix reads with np.fromstring.
plain_fields = st.one_of(
    st.integers(0, 2**64 - 1).map(str),
    st.tuples(st.integers(1, 3), st.integers(0, 10**6)).map(lambda z: "0" * z[0] + str(z[1])),
    st.integers(10**18, 2**64 - 1).map(str),  # 19 and 20 digits
    st.integers(2**64, 10**21).map(str),
    st.sampled_from(["0", "00", str(2**64 - 1), str(2**64), "9" * 20, "0" * 25 + "1", "9" * 4301,
                     "0" * 4300, "0" * 4301, "0" * 4300 + "7"]),  # int() refuses over 4300 digits
)
PLAIN_FIELD_SEPS = [" ", ",", "\t", " , ", ",,", "\t ", ", \t"]
PLAIN_LINE_SEPS = ["\n", "\r\n", "\r", "\n\n", "\n \n", "\r\n\t,\r\n", "\r\r"]


@st.composite
def plain_texts(draw):
    if draw(st.booleans()):  # anything at all from the plain alphabet
        return draw(st.text(alphabet="0129 ,\t\r\n", max_size=40))
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(1, 4))
    ragged = draw(st.booleans())
    lines = []
    for _ in range(rows):
        width = draw(st.integers(0, cols + 1)) if ragged else cols
        toks = draw(st.lists(plain_fields, min_size=width, max_size=width))
        lead, trail = draw(st.sampled_from(["", " ", "\t", ","])), draw(st.sampled_from(["", " ", ","]))
        lines.append(lead + draw(st.sampled_from(PLAIN_FIELD_SEPS)).join(toks) + trail)
    line_sep = st.sampled_from(PLAIN_LINE_SEPS)
    text = draw(st.sampled_from(["", "\n", " \r\n"])) + "".join(line + draw(line_sep) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


@given(plain_texts())
@example("0" * 4301 + "\n")
@example("1, " + "0" * 4300 + "7\r\n2 3")
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_plain_text_parse_matches_reference_parser(text):
    want = parsed_or_rejected(reference_parse_text_matrix, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the parse warns nowhere, also where it finds no rows
        assert parsed_or_rejected(parse_text_matrix, text) == want


@pytest.mark.parametrize("sep, end", [(" ", "\n"), (",", "\r\n"), ("\t", "\r")])
def test_store_shaped_text_never_reaches_the_int_path(monkeypatch, sep, end):
    dense = sample_matrix(Uniform(1, 40), 250, 250, 7)
    text = format_text_matrix(dense).replace(" ", sep).replace("\n", end)
    general = count_calls(monkeypatch, cli, "_parse_fields")
    out = parse_text_matrix(text)
    assert general == []
    assert out.dtype == np.uint64 and out.tolist() == dense.tolist()
    with pytest.raises(ParseError, match="line 251: 18446744073709551616 outside"):
        parse_text_matrix(text + f"{2**64}" + " 1" * 249)  # fromstring clips it, int() words it
    assert len(general) == 1
    parse_text_matrix("+" + text)
    assert len(general) == 2


@pytest.mark.parametrize("sep", [" ", "\t", ","])
def test_plain_parse_across_chunk_boundaries(monkeypatch, sep):
    # a boundary of either pass at every offset: inside a field, between
    # \r and \n, inside a line of separators only, and at each edge of these
    lines = ["7 123456 0", "", " , \t ,", "0012 5 99999 ", "", "\t 8 0 1", "2 33 444", "  "]
    text = "\r\n".join(lines).replace(" ", sep) + "\n\n4 5 6"
    want = reference_parse_text_matrix(text)
    general = count_calls(monkeypatch, cli, "_parse_fields")
    for chunk in range(1, len(text) + 2):
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        assert parse_text_matrix(text).tolist() == want, chunk
    assert general == []


def test_plain_parse_across_chunk_boundaries_at_full_size(monkeypatch):
    chunk = cli._CHUNK

    def upto(text, mark):  # whole rows, then separators, up to offset ``mark``
        n = mark - len(text)
        return text + "1 2 3\n" * (n // 6) + " " * (n % 6)

    text = upto("", chunk - 2) + "12345 6 7\r"  # a field across the first boundary
    text = upto(text, 2 * chunk - 7) + "8 9 10\r\n"  # "\r" before the second, "\n" after
    text = upto(text, 3 * chunk - 5) + " , \t ,\t, \r\n"  # separators only across the third
    text += "4 5 6\n" * 2
    assert text[chunk - 2 : chunk + 3] == "12345" and text[2 * chunk - 1 : 2 * chunk + 1] == "\r\n"
    general = count_calls(monkeypatch, cli, "_parse_fields")
    for sep in (" ", "\t", ","):
        spaced = text.replace(" ", sep)
        assert parse_text_matrix(spaced).tolist() == reference_parse_text_matrix(spaced)
    assert general == []


def test_store_shaped_text_with_the_largest_value_goes_through_int(monkeypatch):
    dense = sample_matrix(Uniform(1, 40), 250, 250, 7)
    dense[99, 17] = U64_MAX  # fromstring reads 2**64 - 1 and 2**64 alike
    text = format_text_matrix(dense)
    general = count_calls(monkeypatch, cli, "_parse_fields")
    assert parse_text_matrix(text).tolist() == dense.tolist()
    assert len(general) == 1
    with pytest.raises(ParseError, match=r"^line 100: 18446744073709551616 outside unsigned 64-bit range$"):
        parse_text_matrix(text.replace(str(U64_MAX), str(2**64)))
    assert len(general) == 2


def test_plain_overflow_is_rejected_with_warnings_ignored(monkeypatch):
    # the ways numpy releases read a field of 2**64 or more: clipped to
    # 2**64 - 1, read as a wrapped value with only a DeprecationWarning, or
    # dropped along with the rest of the text
    def clip(values):
        return [min(v, U64_MAX) for v in values]

    def warn(values):
        warnings.warn("string or file could not be read to its end", DeprecationWarning, stacklevel=3)
        return [v % 2**64 for v in values]

    def short(values):
        return values[: next(i for i, v in enumerate(values + [2**64]) if v > U64_MAX)]

    text = f"1 2\n{2**64} 1\n"
    for behaviour in (clip, warn, short):
        monkeypatch.setattr(np, "fromstring", lambda s, dtype, sep: np.array(
            behaviour([int(tok) for tok in s.split()]), dtype))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ParseError, match="line 2: 18446744073709551616 outside"):
                parse_text_matrix(text)
            assert parse_text_matrix("1 2\n3 4\n").tolist() == [[1, 2], [3, 4]]


def test_comma_text_parse_memory_is_bounded():
    text = format_text_matrix(sample_matrix(Uniform(1, 64), 1000, 1000, 7)).replace(" ", ",")
    out, peak = traced_peak(parse_text_matrix, text)
    assert out.shape == (1000, 1000)
    # the output is 7.63 MiB; a copy of the whole text with its commas replaced makes 18.3 MiB
    assert peak <= 10.8 * 2**20


def test_compress_reads_its_input_as_utf8_under_any_locale(tmp_path):
    src, box = tmp_path / "a.txt", tmp_path / "a.ccm"
    src.write_bytes("\u0663 4\n5 6\n".encode("utf-8"))
    env = dict(module_env(), LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    done = subprocess.run(
        [sys.executable, "-m", "ccmatrix", "compress", str(src), str(box)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert load_matrix(box).decompress().tolist() == [[3, 4], [5, 6]]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="int() has no digit limit")
@pytest.mark.parametrize("limit", [640, 4300, 0])
def test_plain_parse_follows_the_int_digit_limit(limit):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        for zeros in (619, 620, 639, 640, 4299, 4300, 5000):
            for text in ("0" * zeros + "7\n", "1 " + "0" * zeros + "\n"):
                want = parsed_or_rejected(reference_parse_text_matrix, text)
                assert parsed_or_rejected(parse_text_matrix, text) == want
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("text", ["", " \n", "\n\n", ",\t\r\n"])
def test_text_without_rows_raises_without_a_warning(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match="input contains no matrix rows"):
            parse_text_matrix(text)


def test_parse_returns_a_uint64_matrix():
    out = parse_text_matrix(f"0 {2**64 - 1}\n7 8\n")
    assert out.dtype == np.uint64 and out.shape == (2, 2)
    assert out.tolist() == [[0, 2**64 - 1], [7, 8]]


def test_decompress_bytes_at_the_ends_of_the_range(tmp_path, capsys):
    text = f"0 {2**64 - 1} 0\n{2**64 - 1} 0 {2**64 - 1}\n"
    src, back = tmp_path / "e.txt", tmp_path / "e2.txt"
    src.write_text(text)
    for method in ("sm", "vlb"):
        box = tmp_path / f"e.{method}"
        assert main(["compress", str(src), str(box), "--method", method]) == 0
        assert main(["decompress", str(box), str(back)]) == 0
        assert back.read_bytes() == text.encode()
    capsys.readouterr()


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def test_text_io_memory_is_bounded():
    # the shape and distribution of the store benchmark
    dense = sample_matrix(Uniform(1, 40), 250, 250, 7)
    text = format_text_matrix(dense)
    (_, _, flat), peak = traced_peak(lambda t: dense_to_flat(parse_text_matrix(t), "row"), text)
    assert flat.tolist() == dense.ravel().tolist()
    assert peak <= 2 * 2**20
    out, peak = traced_peak(format_text_matrix, dense)
    assert out == text
    assert peak <= 1.5 * 2**20


# digit-count edges: one and two digits, one and two 4-digit groups, 10**k +- 1, the largest
TEXT_EDGES = [0, 9, 10, 9999, 10000, U64_MAX] + [10**k + d for k in range(1, 20) for d in (-1, 1)]
text_values = st.one_of(st.sampled_from(TEXT_EDGES), st.integers(0, U64_MAX))


@given(
    data=st.data(),
    shape=st.sampled_from(["1x1", "1xn", "nx1", "mxn"]),
    kind=st.sampled_from(["array", "fortran", "nested"]),
)
@settings(max_examples=200)
def test_format_text_matrix_matches_the_percent_d_writer(data, shape, kind):
    n = data.draw(st.integers(1, 40))
    rows, cols = {"1x1": (1, 1), "1xn": (1, n), "nx1": (n, 1)}.get(shape) or (
        data.draw(st.integers(2, 20)), n
    )
    values = data.draw(st.lists(text_values, min_size=rows * cols, max_size=rows * cols))
    dense = np.array(values, dtype=np.uint64).reshape(rows, cols)
    if kind == "fortran":
        dense = np.asfortranarray(dense)
    elif kind == "nested":
        dense = dense.tolist()
    assert format_text_matrix(dense) == reference_format_text_matrix(dense)


@pytest.mark.parametrize("shape", [(97, 211), (1, 20000), (20000, 1)])
def test_format_text_matrix_matches_the_percent_d_writer_across_blocks(shape):
    dense = sample_matrix(Uniform(1, 64), *shape, 11)
    flat = dense.ravel()  # a view
    flat[::7] = 0
    flat[3::7] = np.resize(np.array(TEXT_EDGES, dtype=np.uint64), flat[3::7].size)
    assert format_text_matrix(dense) == reference_format_text_matrix(dense)


@pytest.mark.parametrize("shape", [(97, 211), (20000, 3), (3, 20000)])
def test_format_text_matrix_reads_a_column_order_array_across_blocks(shape):
    dense = np.asfortranarray(sample_matrix(Uniform(1, 64), *shape, 12))
    dense[::5] = 0
    assert np.isfortran(dense)
    assert format_text_matrix(dense) == reference_format_text_matrix(dense)


def test_column_order_text_costs_at_most_one_block_more_than_row_order():
    dense = sample_matrix(Uniform(1, 40), 600, 400, 7)
    text, row_peak = traced_peak(format_text_matrix, dense)
    out, col_peak = traced_peak(format_text_matrix, np.asfortranarray(dense))
    assert out == text
    # a full row-order copy would be 1.83 MiB; one block of uint64 values is 64 KiB
    assert col_peak <= row_peak + 8 * cli._TEXT_BLOCK


def test_importing_the_cli_builds_no_lookup_table():
    code = (
        "from ccmatrix import cli, vlb\n"
        "built = lambda: (cli._digit_table.cache_info().currsize, vlb._hop_bytes.cache_info().currsize)\n"
        "print(*built())\n"
        "cli.format_text_matrix([[1]])\n"
        "vlb.VlbMatrix.from_buffer(1, 1, 1, 'row', vlb.VlbMatrix.compress([[1]]).data)\n"
        "print(*built())\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=module_env(), capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[:2] == ["0 0", "1 1"]  # each built on first use, for one k


def test_parse_memory_does_not_grow_at_scale():
    text = format_text_matrix(sample_matrix(Uniform(1, 64), 1000, 1000, 7))  # 11.2 MB
    out, peak = traced_peak(parse_text_matrix, text)
    assert out.shape == (1000, 1000)
    assert peak <= 18.53 * 2**20  # the peak of the int() path over the same text


# -- CLI -----------------------------------------------------------------


def write_row(tmp_path, row=WORKED_ROW):
    p = tmp_path / "m.txt"
    p.write_text(" ".join(str(v) for v in row) + "\n")
    return p


def test_cli_compress_reports_sm_bits(tmp_path, capsys):
    src = write_row(tmp_path)
    out = tmp_path / "m.ccm"
    assert main(["compress", str(src), str(out)]) == 0
    printed = capsys.readouterr().out
    assert "bits_used: 80" in printed
    assert "method: sm" in printed


def test_cli_compress_reports_vlb_bits(tmp_path, capsys):
    src = write_row(tmp_path)
    out = tmp_path / "m.ccm"
    assert main(["compress", str(src), str(out), "--method", "vlb"]) == 0
    assert "bits_used: 91" in capsys.readouterr().out


def test_cli_compress_empty_input_exits_2(tmp_path):
    src = tmp_path / "empty.txt"
    src.write_text("\n")
    assert main(["compress", str(src), str(tmp_path / "o.ccm")]) == 2


def test_cli_builds_its_parser_once(monkeypatch, tmp_path, capsys):
    src = write_row(tmp_path)
    assert main(["info", str(tmp_path / "nope.ccm")]) == 3
    built = count_calls(monkeypatch, cli, "build_parser")
    for method in ("sm", "vlb"):
        assert main(["compress", str(src), str(tmp_path / "m.ccm"), "--method", method]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["compress", "--method", "lz"])
    assert exc.value.code == 2
    assert built == []
    err = capsys.readouterr().err
    assert "usage: ccmatrix compress" in err and "invalid choice: 'lz'" in err
    assert cli.build_parser().format_help() == cli._parser().format_help()


def test_cli_missing_input_exits_3(tmp_path):
    assert main(["compress", str(tmp_path / "nope.txt"), str(tmp_path / "o.ccm")]) == 3


def test_cli_bad_container_exits_2(tmp_path):
    bad = tmp_path / "bad.ccm"
    bad.write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNKJUNKJUNKJUNK")
    assert main(["info", str(bad)]) == 2


def test_cli_decompress_roundtrip_idempotent(tmp_path, capsys):
    src = write_row(tmp_path)
    box = tmp_path / "m.ccm"
    back = tmp_path / "back.txt"
    for method in ("sm", "vlb"):
        assert main(["compress", str(src), str(box), "--method", method]) == 0
        assert main(["decompress", str(box), str(back)]) == 0
        assert back.read_text() == src.read_text()
        # compressing the canonical text again is file-idempotent
        box2 = tmp_path / "m2.ccm"
        assert main(["compress", str(back), str(box2), "--method", method]) == 0
        assert box2.read_bytes() == box.read_bytes()
    capsys.readouterr()


def test_cli_decompress_single_zero(tmp_path, capsys):
    src = tmp_path / "z.txt"
    src.write_text("0\n")
    box = tmp_path / "z.ccm"
    back = tmp_path / "z2.txt"
    assert main(["compress", str(src), str(box), "--method", "vlb"]) == 0
    assert main(["decompress", str(box), str(back)]) == 0
    assert back.read_text() == "0\n"
    capsys.readouterr()


def test_cli_fuzz_roundtrips(tmp_path, capsys):
    for seed in range(8):
        dense = random_matrix(seed, rows=4, cols=7, top=50)
        src = tmp_path / "f.txt"
        src.write_text(format_text_matrix(dense))
        box = tmp_path / "f.ccm"
        back = tmp_path / "f2.txt"
        method = "vlb" if seed % 2 else "sm"
        assert main(["compress", str(src), str(box), "--method", method]) == 0
        assert main(["decompress", str(box), str(back)]) == 0
        assert parse_text_matrix(back.read_text()).tolist() == dense.tolist()
    capsys.readouterr()


HEADER = struct.Struct("<4sBBBQQBQ")  # magic, version, method, order, rows, cols, param, words
HEADER_FIELDS = ["version", "method", "order", "rows", "cols", "param", "words"]


def alter_header(blob, field, value):
    fields = list(HEADER.unpack_from(blob))
    i = 1 + HEADER_FIELDS.index(field)
    fields[i] = value % (2**64 if field in ("rows", "cols", "words") else 256)
    return HEADER.pack(*fields) + blob[HEADER.size :]


@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(1, 9), st.integers(1, 9)),
    top=st.integers(1, 64),
    method=st.sampled_from(["sm", "vlb"]),
    order=st.sampled_from(["row", "col"]),
    command=st.sampled_from(["info", "decompress"]),
    header=st.none() | st.tuples(
        st.sampled_from(HEADER_FIELDS), st.integers(0, 70) | st.integers(0, 2**64 - 1)
    ),
    edits=st.lists(
        st.tuples(
            st.sampled_from(["flip", "flip", "truncate", "set"]),
            st.integers(8 * HEADER.size, 2**16),
            st.integers(0, 255),
        ),
        max_size=3,
    ),
)
@settings(max_examples=150, deadline=None)
def test_cli_on_corrupt_containers_exits_cleanly(
    tmp_path_factory, seed, shape, top, method, order, command, header, edits
):
    dense = sample_matrix(Uniform(1, top), *shape, seed)
    blob = dump_bytes(CompressedMatrix.compress(dense, method, order))
    if header is not None:
        blob = alter_header(blob, *header)
    blob = mutate(blob, edits)
    box = tmp_path_factory.mktemp("fuzz") / "m.ccm"
    box.write_bytes(blob)
    argv = [command, str(box)] + ([str(box.with_suffix(".txt"))] if command == "decompress" else [])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert err.getvalue() == ""
    else:  # one line naming the failure, and nothing else
        (line,) = err.getvalue().splitlines()
        assert line.startswith("error: ")


@given(
    text=plain_texts() | text_matrices(),
    bad_bytes=st.booleans(),
    case=st.sampled_from(["file", "file", "file", "missing input", "directory input", "missing output dir"]),
    options=st.lists(
        st.sampled_from([["--method", "sm"], ["--method", "vlb"], ["--order", "row"], ["--order", "col"]]),
        max_size=2,
    ),
)
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cli_compress_of_any_text_exits_cleanly(tmp_path_factory, text, bad_bytes, case, options):
    tmp = tmp_path_factory.mktemp("compress")
    src, box = tmp / "m.txt", tmp / "m.ccm"
    if case != "missing input":
        src.write_bytes(text.encode("utf-8") + (b"\xff" if bad_bytes else b""))
    if case == "directory input":
        src = tmp
    elif case == "missing output dir":
        box = tmp / "no such dir" / "m.ccm"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["compress", str(src), str(box), *(arg for opt in options for arg in opt)])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert err.getvalue() == ""
        assert load_matrix(box).decompress().tolist() == reference_parse_text_matrix(text)
    else:  # one line naming the failure, and no output file
        (line,) = err.getvalue().splitlines()
        assert line.startswith("error: ")
        assert not box.exists()


# Parameter values of the right type but any value: NaN, infinities, out of range.
# Each goes in as ``--flag=value``, as argparse takes ``-1e+16`` or ``-inf`` for a flag.
cli_floats = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "0.5", "1", "1.5", "32", "1e300"]) | st.floats().map(repr)
cli_ints = st.integers(-3, 70).map(str)


@st.composite
def experiment_argv(draw):
    argv = ["experiment"]
    source = draw(st.sampled_from(["table", "dist", "dist", "neither"]))
    if source == "table":
        argv += ["--table", draw(st.sampled_from(["3", "4", "5"]))]
    elif source == "dist":
        dists = ["uniform", "binomial", "poisson", "beta-mixture", "constant", "two-point"]
        argv += ["--dist", draw(st.sampled_from(dists))]
    for flag in ("--a", "--b", "--n"):
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(cli_ints)}")
    for flag in ("--p", "--lambda", "--alpha1", "--beta1", "--alpha2", "--beta2", "--w"):
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(cli_floats)}")
    argv += ["--size", *draw(st.lists(st.integers(-2, 40).map(str), min_size=1, max_size=2))]
    argv.append(f"--replicates={draw(st.integers(-1, 3))}")
    if draw(st.booleans()):
        argv += ["--k-policy", draw(st.sampled_from(["fixed-7", "derived"]))]
    return argv


@st.composite
def sweep_argv(draw):
    if draw(st.integers(0, 4)) == 0:
        return ["sweep", "--fig", "19"]
    lo, step = draw(st.integers(-2, 12)), draw(st.integers(-2, 20))
    hi = lo + step * draw(st.integers(-1, 3)) + draw(st.integers(-1, 1))  # at most 4 axis values
    argv = ["sweep", f"--lo={lo}", f"--hi={hi}", f"--step={step}"]
    argv += [f"--size={draw(st.integers(-2, 40))}", f"--w={draw(cli_floats)}"]
    if draw(st.booleans()):
        argv += ["--fig", "6"]
    return argv


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert err.getvalue() == ""
    else:  # one line naming the failure, and nothing else
        (line,) = err.getvalue().splitlines()
        assert line.startswith("error: ")
    return code, out.getvalue()


@given(
    argv=experiment_argv() | sweep_argv(),
    seed=st.integers(-3, 3) | st.integers(0, 2**70),
    missing_dir=st.booleans(),
)
@example(["experiment", "--dist", "poisson", "--lambda", "inf", "--size", "5", "--replicates", "1"], 0, False)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cli_experiment_and_sweep_on_any_parameters_exit_cleanly(
    tmp_path_factory, argv, seed, missing_dir
):
    argv = argv + [f"--seed={seed}"]
    code, printed = run_main(argv)
    if code:
        assert printed == ""
        return
    tmp = tmp_path_factory.mktemp("csv")
    path = tmp / "no such dir" / "t.csv" if missing_dir else tmp / "t.csv"
    again, nothing = run_main(argv + ["--csv", str(path)])
    assert nothing == ""
    if missing_dir:
        assert again == 3 and not path.exists()
    else:  # the file holds the printed rows, with the csv module's \r\n line ends
        assert again == 0
        assert path.read_bytes().replace(b"\r\n", b"\n") == printed.encode()


def test_cli_info_width_10(tmp_path, capsys):
    src = write_row(tmp_path)
    box = tmp_path / "m.ccm"
    main(["compress", str(src), str(box)])
    capsys.readouterr()
    assert main(["info", str(box)]) == 0
    printed = capsys.readouterr().out
    assert "eta: 0.84375" in printed
    assert "width: 10" in printed
    assert "10: 4" in printed  # histogram line


def test_cli_info_width_64_no_compression(tmp_path, capsys):
    src = tmp_path / "big.txt"
    src.write_text(f"{2**63} 5\n")
    box = tmp_path / "big.ccm"
    main(["compress", str(src), str(box)])
    capsys.readouterr()
    main(["info", str(box)])
    assert "eta: 0.0" in capsys.readouterr().out


def test_cli_info_vlb_all_ones(tmp_path, capsys):
    src = tmp_path / "ones.txt"
    src.write_text("1 1 1 1\n1 1 1 1\n")
    box = tmp_path / "ones.ccm"
    main(["compress", str(src), str(box), "--method", "vlb"])
    capsys.readouterr()
    main(["info", str(box)])
    printed = capsys.readouterr().out
    assert "eta: 0.96875" in printed  # 1 - 2/64 with derived k = 1
    assert "k: 1" in printed


def test_cli_experiment_table_preset_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["experiment", "--table", "5", "--size", "100", "1000",
            "--replicates", "8", "--seed", "77"]
    assert main(args + ["--csv", str(a)]) == 0
    assert main(args + ["--csv", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) == 2 + 4 * 2  # comment, header, 4 params x 2 sizes


def test_cli_experiment_prints_the_rows_of_its_csv_file(tmp_path, capsys):
    """Without ``--csv``, an experiment and a sweep print the bytes of their CSV
    file, with the file's ``\\r\\n`` row ends turned into ``\\n``."""
    out = tmp_path / "t.csv"
    table = ["experiment", "--table", "3", "--size", "100", "--replicates", "2", "--seed", "5"]
    sweep = ["sweep", "--step", "32", "--size", "200", "--seed", "3"]
    for args in (sweep, table):  # the table last: its rows are read below
        assert main(args + ["--csv", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(args) == 0
        stdout = capsys.readouterr().out
        file_bytes = out.read_bytes()
        assert file_bytes.count(b"\r\n") == len([l for l in stdout.splitlines() if l[:1] != "#"])
        assert stdout.encode() == file_bytes.replace(b"\r\n", b"\n")
    printed = [l for l in stdout.splitlines() if not l.startswith("#")]
    with open(out, newline="") as f:
        written = list(csv.reader(l for l in f if not l.startswith("#")))
    rows = list(csv.reader(printed))
    assert all(len(r) == len(rows[0]) for r in rows)
    assert ["uniform(1,8)", "8"] in [r[:2] for r in rows]  # a label with a comma, quoted
    assert rows == written


def test_cli_experiment_custom_dist(tmp_path):
    out = tmp_path / "c.csv"
    assert main([
        "experiment", "--dist", "binomial", "--n", "8", "--p", "0.5",
        "--size", "1000", "--replicates", "4", "--seed", "1", "--csv", str(out),
    ]) == 0
    assert "binomial(8,0.5)" in out.read_text()


def test_cli_experiment_needs_table_or_dist():
    assert main(["experiment", "--size", "10", "--replicates", "1"]) == 2


def test_cli_sweep_small_grid_header_records_run(tmp_path):
    out = tmp_path / "s.csv"
    assert main([
        "sweep", "--step", "32", "--size", "200", "--seed", "3", "--csv", str(out),
    ]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# grid step=32")
    assert "sample_size=200" in lines[0]
    assert lines[1].startswith("# sm_favored=")
    assert len(lines) == 3 + 16  # two comments, header, 2^4 grid rows


def test_cli_sweep_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["sweep", "--step", "32", "--size", "100", "--seed", "9"]
    assert main(args + ["--csv", str(a)]) == 0
    assert main(args + ["--csv", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_sweep_fig6_single_beta(tmp_path):
    out = tmp_path / "f6.csv"
    assert main([
        "sweep", "--fig", "6", "--step", "16", "--size", "100", "--csv", str(out),
    ]) == 0
    lines = out.read_text().splitlines()
    assert lines[2] == "alpha,beta,mean_bitlen,eta1,eta2,D"
    assert len(lines) == 3 + 16  # 4 axis values squared


def test_cli_sweep_fig19_constant_comparison(tmp_path):
    out = tmp_path / "f19.csv"
    assert main(["sweep", "--fig", "19", "--csv", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 64
    assert all(float(r[3]) > 0 for r in rows)  # fixed-width wins at every length
    assert float(rows[63][1]) == 0.0  # but saves nothing at 64 bits


def test_cli_info_eta_matches_measure_exactly(tmp_path, capsys):
    dense = random_matrix(3, rows=9, cols=4, top=40)
    src = tmp_path / "m.txt"
    src.write_text(format_text_matrix(dense))
    box = tmp_path / "m.ccm"
    main(["compress", str(src), str(box), "--method", "vlb"])
    capsys.readouterr()
    main(["info", str(box)])
    printed = capsys.readouterr().out
    eta_line = next(l for l in printed.splitlines() if l.startswith("eta:"))
    from ccmatrix.efficiency import measure

    assert float(eta_line.split()[1]) == measure(load_matrix(box)).eta


def test_loaded_vlb_decodes_again_after_the_load_decode():
    dense = random_matrix(4, rows=7, cols=9, top=50)
    m = load_bytes(dump_bytes(CompressedMatrix.compress(dense, method="vlb")))
    first = m.inner.values()
    second = m.inner.values()
    assert first is not second
    assert (first == second).all() and (m.decompress() == dense).all()


# (values() calls, blocks() decodes, prefix passes, prefix walks): the load walks
# the prefixes and checks one bit per payload; info then reads only the prefixes,
# decompress decodes
@pytest.mark.parametrize(
    "command, counts",
    [("info", (0, 0, 1, 2)), ("decompress", (1, 1, 0, 2))],
    ids=["info", "decompress"],
)
def test_cli_keeps_no_decoded_array_of_a_loaded_vlb_stream(
    tmp_path, monkeypatch, capsys, command, counts
):
    box = tmp_path / "m.ccm"
    save_matrix(CompressedMatrix.compress(random_matrix(5, rows=20, cols=30), method="vlb"), box)
    loaded = []

    def load(path):
        loaded.append(load_matrix(path))
        return loaded[-1]

    monkeypatch.setattr(cli, "load_matrix", load)
    values = count_calls(monkeypatch, VlbMatrix, "values")
    decodes = count_calls(monkeypatch, VlbMatrix, "blocks")
    passes = count_calls(monkeypatch, VlbMatrix, "bit_length_counts")
    walks = count_calls(monkeypatch, VlbMatrix, "_starts")
    argv = [command, str(box)] + ([str(tmp_path / "m.txt")] if command == "decompress" else [])
    assert main(argv) == 0
    assert (len(values), len(decodes), len(passes), len(walks)) == counts
    inner = loaded[0].inner
    held = [getattr(inner, name) for name in inner.__slots__]
    # no decoded array outlives the command: the directory has one entry per 8 elements
    assert not any(isinstance(a, np.ndarray) and a.size >= 20 * 30 for a in held)


def report_lines(m):
    """The lines ``compress`` prints for ``m``, built from :func:`measure`."""
    rep = measure(m)
    inner = m.inner
    return [
        f"method: {rep.method}",
        f"rows: {m.rows}",
        f"cols: {m.cols}",
        f"order: {inner.order}",
        f"width: {inner.width}" if rep.method == "sm" else f"k: {inner.k}",
        f"bits_allocated: {rep.bits_allocated}",
        f"bits_used: {rep.bits_used}",
        f"eta: {rep.eta!r}",
    ]


@pytest.mark.parametrize("method", ["sm", "vlb"])
def test_cli_compress_reports_without_decoding(tmp_path, monkeypatch, capsys, method):
    src = tmp_path / "m.txt"
    src.write_text(format_text_matrix(random_matrix(6, rows=20, cols=30, top=40)))
    box = tmp_path / "m.ccm"
    calls = [
        count_calls(monkeypatch, VlbMatrix, "blocks"),
        count_calls(monkeypatch, SmMatrix, "blocks"),
        count_calls(monkeypatch, cli, "measure"),
    ]
    assert main(["compress", str(src), str(box), "--method", method]) == 0
    assert calls == [[], [], []]
    printed = capsys.readouterr().out
    monkeypatch.undo()
    assert printed == "".join(line + "\n" for line in report_lines(load_matrix(box)))

    measures = count_calls(monkeypatch, cli, "measure")
    assert main(["info", str(box)]) == 0
    assert len(measures) == 1
    histogram = measure(load_matrix(box)).histogram
    assert capsys.readouterr().out == printed + "histogram:\n" + "".join(
        f"  {b}: {f}\n" for b, f in histogram.items()
    )


def module_env():
    """The environment of a child ``python -m ccmatrix`` on this checkout's sources."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_module(*argv, timeout=120):
    """Run ``python -m ccmatrix`` in a child process on this checkout's sources."""
    return subprocess.run(
        [sys.executable, "-m", "ccmatrix", *argv], env=module_env(), capture_output=True,
        text=True, timeout=timeout,
    )


def test_a_reader_that_closes_stdout_early_ends_the_cli_quietly():
    # 4,096 grid points, about 200 KB of CSV: more than a pipe holds, so the
    # CLI is still writing when its reader has gone
    argv = ["sweep", "--step", "8", "--size", "100"]
    with subprocess.Popen(
        [sys.executable, "-m", "ccmatrix", *argv], env=module_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as child:
        head = [child.stdout.readline() for _ in range(2)]
        child.stdout.close()
        err = child.stderr.read()
        code = child.wait(timeout=120)
    assert head[0].startswith(b"# grid step=8") and head[1].startswith(b"# sm_favored=")
    assert code == 1 and err == b""  # not 3, the exit of an unreadable input file


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["sweep", "--step", "32", "--size", "100", "--seed", "4"]
    assert main(argv) == 0
    done = run_module(*argv)
    assert done.returncode == 0, done.stderr
    assert done.stdout == capsys.readouterr().out
    bad = run_module("info", "/nonexistent/m.ccm")
    assert bad.returncode == 3 and bad.stderr.startswith("error:")


@pytest.mark.parametrize("lam", ["500", "nan", "inf"])
def test_experiment_rejects_a_poisson_mean_it_cannot_sample(lam):
    # a mean far past the 64-bit truncation point once made the tail
    # re-draw loop spin forever
    argv = ["experiment", "--dist", "poisson", "--lambda", lam, "--size", "100", "--replicates", "1"]
    done = run_module(*argv, timeout=30)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: lam must lie in")
