import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ccmatrix import cli
from ccmatrix.cli import format_text_matrix, main, parse_text_matrix
from ccmatrix._dense import dense_to_flat
from ccmatrix.cmatrix import CompressedMatrix
from ccmatrix.container import dump_bytes, load_bytes, load_matrix, save_matrix
from ccmatrix.efficiency import eta2, measure
from ccmatrix.errors import BadMagic, CcmatrixError, CorruptStream, ParseError, TruncatedPayload
from ccmatrix.genmat import Uniform, sample_matrix
from ccmatrix.sm import SmMatrix
from ccmatrix.vlb import VlbMatrix

from conftest import WORKED_ROW, count_calls, reference_parse_text_matrix


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


def test_vlb_header_declaring_2_to_the_62_elements_fails_in_the_walk():
    # The checkpoint walk stops at the end of the one-word stream; nothing
    # is sized by the declared rows * cols first.
    with pytest.raises(CorruptStream, match="prefix runs past end"):
        load_bytes(vlb_container(2, [2 | (3 << 2)], rows=2**31, cols=2**31))


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


@pytest.mark.parametrize("command", ["info", "decompress"])
def test_cli_decodes_a_vlb_stream_once(tmp_path, monkeypatch, capsys, command):
    box = tmp_path / "m.ccm"
    save_matrix(CompressedMatrix.compress(random_matrix(5, rows=20, cols=30), method="vlb"), box)
    loaded = []

    def load(path):
        loaded.append(load_matrix(path))
        return loaded[-1]

    monkeypatch.setattr(cli, "load_matrix", load)
    decodes = count_calls(monkeypatch, VlbMatrix, "values")
    argv = [command, str(box)] + ([str(tmp_path / "m.txt")] if command == "decompress" else [])
    assert main(argv) == 0
    assert len(decodes) == 1
    assert loaded[0].inner._loaded is None  # no decoded array outlives the command


def run_module(*argv, timeout=120):
    """Run ``python -m ccmatrix`` in a child process on this checkout's sources."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "ccmatrix", *argv], env=env, capture_output=True, text=True,
        timeout=timeout,
    )


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
