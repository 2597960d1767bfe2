"""Command-line interface: compress, decompress, info, experiment, sweep.

Exit codes: 0 success, 1 stdout closed by its reader (a broken pipe),
2 parse/validation error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import os
import re
import sys
import warnings
from functools import cache
from itertools import chain

import numpy as np

from . import experiments
from ._dense import COL_MAJOR, ROW_MAJOR, dense_to_flat, flat_to_dense
from .bitstream import U64_MAX
from .cmatrix import CompressedMatrix
from .container import load_matrix, save_matrix
from .efficiency import WORST_CASE_K, bit_accounting, measure
from .errors import CcmatrixError, ParseError
from .genmat import (
    BetaMixture,
    Binomial,
    Constant,
    PoissonTrunc,
    TwoPoint,
    Uniform,
)


_PLAIN = b"0123456789 \t,\n\r"
_CHUNK = 1 << 16  # characters per chunk of the scan and the read pass
_NON_DIGIT = re.compile("[^0-9]")


def _is_plain(text: str) -> bool:
    """Whether ``text`` is ASCII and holds no field that ``int()`` would
    refuse for its digit count; :func:`_plain_shape` checks the alphabet.

    A field below 2**64 has at most 20 significant digits, so it passes
    ``sys.get_int_max_str_digits()`` (0: no limit) unless it starts with
    ``limit - 19`` zeros."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return text.isascii() and not (limit and "0" * (limit - 19) in text)


def _plain_shape(text: str) -> tuple[int, int] | None:
    """The rows and width of ASCII ``text`` if it holds only ``_PLAIN``
    bytes, a row, and the same number of fields on each non-blank line.

    One pass of ``_CHUNK`` bytes at a time: ``bytes.translate`` checks the
    alphabet, a field starts at a digit after a non-digit, and one
    ``np.add.reduceat`` over the start marks counts the fields of each
    ``\\n``- or ``\\r``-ended line.  The fields of the line still open and
    whether the last byte was a digit carry into the next chunk."""
    rows = width = line = 0
    prev = False
    for i in range(0, len(text), _CHUNK):
        raw = text[i : i + _CHUNK].encode("ascii")
        if raw.translate(None, _PLAIN):
            return None
        b = np.frombuffer(raw, np.uint8)
        digit = np.empty(b.size + 2, bool)  # the previous byte, this chunk, and a non-digit
        digit[0], digit[-1] = prev, False
        np.greater_equal(b, ord("0"), out=digit[1:-1])  # only digits sort after "0"
        prev = digit[-2]
        ends = np.flatnonzero(b - np.uint8(10) <= 3)  # "\n" or "\r": tab wraps to 255
        starts = np.concatenate(([0], ends + 1))  # of the lines, the last one open
        fields = np.add.reduceat(digit[1:] > digit[:-1], starts, dtype=np.intp)
        fields[0] += line
        line = fields[-1]
        closed = fields[:-1][fields[:-1] > 0]
        if closed.size:
            width = width or closed[0]
            if (closed != width).any():
                return None
            rows += closed.size
    if line:  # the last line, which no line end closes
        if width and line != width:
            return None
        width, rows = line, rows + 1
    return (rows, int(width)) if rows else None


def _read_plain(text: str, flat: np.ndarray) -> bool:
    """Fill ``flat`` with the fields of plain ``text``: whether they were
    exactly ``flat.size`` values and none could have been clipped.

    ``np.fromstring`` reads ``_CHUNK`` characters at a time, each chunk cut
    at the next non-digit and its commas replaced on their own.  It clips any
    value of 2**64 or more to 2**64 - 1, so that value sends the text to
    :func:`_parse_fields`, which tells the two apart."""
    pos = end = 0
    try:
        with warnings.catch_warnings():
            # numpy releases that fail to read a field may only warn
            warnings.simplefilter("error", DeprecationWarning)
            while pos < len(text):
                cut = _NON_DIGIT.search(text, pos + _CHUNK)
                cut = cut.start() if cut else len(text)
                chunk = text[pos:cut].replace(",", " ")
                pos = cut
                if not chunk.isspace():  # fromstring reads a 0 from separators only
                    vals = np.fromstring(chunk, np.uint64, sep=" ")
                    flat[end : end + vals.size] = vals  # more values than room: ValueError
                    end += vals.size
    except (ValueError, DeprecationWarning):
        return False
    return end == flat.size and flat.max() < U64_MAX


def parse_text_matrix(text: str) -> np.ndarray:
    """Parse text into a 2-D uint64 array, one row per non-blank line.

    Lines split as ``str.splitlines`` does, fields on commas and Unicode
    whitespace.  A field is anything ``int()`` accepts (``+3``, ``1_000``,
    non-ASCII digits) in 0..2**64 - 1; else, or for ragged or no rows,
    ParseError.

    Plain text (see ``_is_plain``) takes two chunked numpy passes: a scan
    that finds each line's width (:func:`_plain_shape`), and a read into
    one preallocated array by ``np.fromstring`` (:func:`_read_plain`).  Any
    other text, and plain text either pass turns down (ragged rows, no rows,
    a value of 2**64 - 1 or more), goes through ``int()`` in
    :func:`_parse_fields`, which words every error.  Both accept the same
    texts with the same values, also under a changed ``int()`` digit
    limit and on numpy releases that only warn where a field fails."""
    shape = _is_plain(text) and _plain_shape(text)
    if shape:
        out = np.empty(shape, np.uint64)
        if _read_plain(text, out.reshape(-1)):
            return out
    return _parse_fields(text)


def _parse_fields(text: str) -> np.ndarray:
    """:func:`parse_text_matrix` by one ``int()`` per field, for any text."""
    lines = text.splitlines()
    widths: list[int] = []

    def rows():
        for line in lines:
            row = line.replace(",", " ").split()
            if row:
                widths.append(len(row))
                yield row

    try:
        flat = np.fromiter(map(int, chain.from_iterable(rows())), np.uint64)
    except (ValueError, OverflowError):
        # rescan in line order only to name the first bad field
        for ln, line in enumerate(lines, 1):
            for tok in line.replace(",", " ").split():
                try:
                    v = int(tok)
                except ValueError:
                    raise ParseError(f"line {ln}: {tok!r} is not an integer") from None
                if not 0 <= v <= U64_MAX:
                    raise ParseError(f"line {ln}: {v} outside unsigned 64-bit range") from None
        raise
    if not widths:
        raise ParseError("input contains no matrix rows")
    for i, n in enumerate(widths):
        if n != widths[0]:
            raise ParseError(f"row {i + 1} has {n} fields, expected {widths[0]}")
    return flat.reshape(len(widths), widths[0])


@cache
def _digit_table() -> np.ndarray:
    """The 4 ASCII bytes of each group 0..9999 as one uint32: zero-padded, then with
    NULs for leading zeros, then NUL NUL NUL ``0`` for the last group of a zero value.
    Built on first use, so a command that writes no text builds none."""
    d = np.arange(10_000, dtype=np.uint16)[:, None]
    scale = np.array([1000, 100, 10, 1], np.uint16)
    padded = (d // scale % 10 + ord("0")).astype(np.uint8)
    zero = np.array([[0, 0, 0, ord("0")]], np.uint8)
    return np.concatenate([padded, padded * (d >= scale), zero]).view(np.uint32).ravel()


_GROUP = np.uint64(10_000)  # one table lookup per 4 decimal digits
_SPACE, _NEWLINE = np.frombuffer(b" \0\0\0\n\0\0\0", np.uint32)
_TEXT_BLOCK = 8192  # values per block of text: its buffers stay small


def format_text_matrix(dense) -> str:
    """Format a 2-D array or nested sequences of non-negative ints as a str:
    per row, decimal values joined by single spaces, ended by a newline.

    The values are written ``_TEXT_BLOCK`` at a time into a reused buffer:
    per value, one uint32 cell per 4-digit group that the widest value
    needs, each one lookup in :func:`_digit_table`, and one for the separator.
    ``bytes.translate`` strips the NULs of leading zeros.  A column-order
    array is read in place, its row-order blocks copied one at a time by
    ``np.nditer``'s buffer."""
    order = COL_MAJOR if isinstance(dense, np.ndarray) and np.isfortran(dense) else ROW_MAJOR
    rows, cols, flat = dense_to_flat(dense, order)  # a view of a column-order array
    groups = -(-len(str(int(flat.max()))) // 4)
    buf = np.empty((groups + 1, min(flat.size, _TEXT_BLOCK)), np.uint32)
    digits = _digit_table()
    blocks = np.nditer(
        flat_to_dense(flat, rows, cols, order), ("buffered", "external_loop"), order="C",
        buffersize=_TEXT_BLOCK,
    )
    parts = []
    e0 = 0
    for v in blocks:
        cells = buf[:, : v.size]
        q = v
        for c in range(groups - 1, -1, -1):  # the last group first
            high = q // _GROUP
            g = q - high * _GROUP  # the remainder: ``%`` is several times slower
            g += (high == 0) * _GROUP  # a leading group: NULs for its leading zeros
            if c == groups - 1:
                g += (v == 0) * _GROUP  # a zero value writes ``0``
            digits.take(g, out=cells[c], mode="clip")
            q = high
        cells[groups] = _SPACE
        cells[groups, (cols - 1 - e0) % cols :: cols] = _NEWLINE
        parts.append(cells.T.tobytes().translate(None, b"\0").decode("ascii"))
        e0 += v.size
    del buf, cells, q, g, high, blocks, v  # freed before the join
    return "".join(parts)


def _print_report(m: CompressedMatrix, show_histogram: bool = False) -> None:
    """Print the storage report of ``m``.

    Every line but the histogram comes from the header fields and the
    packed size (:func:`bit_accounting`), so ``compress`` decodes nothing.
    The histogram, which ``info`` prints, comes from :func:`measure`,
    which reads the bit-lengths block by block and keeps no element."""
    inner = m.inner
    allocated, used, eta = bit_accounting(m)
    print(f"method: {m.method}")
    print(f"rows: {m.rows}")
    print(f"cols: {m.cols}")
    print(f"order: {inner.order}")
    if m.method == "sm":
        print(f"width: {inner.width}")
    else:
        print(f"k: {inner.k}")
    print(f"bits_allocated: {allocated}")
    print(f"bits_used: {used}")
    print(f"eta: {eta!r}")
    if show_histogram:
        print("histogram:")
        for b, f in measure(m).histogram.items():
            print(f"  {b}: {f}")


def cmd_compress(args) -> int:
    with open(args.input, encoding="utf-8") as f:  # under any locale, so non-ASCII digits read alike
        dense = parse_text_matrix(f.read())
    m = CompressedMatrix.compress(dense, method=args.method, order=args.order)
    save_matrix(m, args.output)
    _print_report(m)
    return 0


def cmd_decompress(args) -> int:
    m = load_matrix(args.input)
    with open(args.output, "w") as f:
        f.write(format_text_matrix(m.decompress()))
    return 0


def cmd_info(args) -> int:
    _print_report(load_matrix(args.input), show_histogram=True)
    return 0


def _build_dist(args):
    name = args.dist
    if name == "uniform":
        return f"uniform({args.a},{args.b})", args.b, Uniform(args.a, args.b)
    if name == "binomial":
        return f"binomial({args.n},{args.p})", args.n, Binomial(args.n, args.p)
    if name == "poisson":
        d = PoissonTrunc(args.lam)  # validate before int() meets a NaN or inf
        return f"poisson({d.lam})", int(d.lam), d
    if name == "beta-mixture":
        d = BetaMixture(args.alpha1, args.beta1, args.alpha2, args.beta2, args.w)
        return f"beta-mixture({args.alpha1},{args.beta1},{args.alpha2},{args.beta2},w={args.w})", 0, d
    if name == "constant":
        return f"constant({args.b})", args.b, Constant(args.b)
    if name == "two-point":
        return f"two-point({args.a},{args.b},p1={args.p})", args.b, TwoPoint(args.a, args.b, args.p)
    raise ValueError(f"unknown distribution {name!r}")


def cmd_experiment(args) -> int:
    if args.table is not None:
        dists = experiments.table_preset(args.table)
    elif args.dist is not None:
        dists = [_build_dist(args)]
    else:
        raise ValueError("experiment needs either --table or --dist")
    k = WORST_CASE_K if args.k_policy == "fixed-7" else None
    rows = experiments.run_experiment(
        dists, sizes=args.size, replicates=args.replicates, seed=args.seed, k=k
    )
    comments = (
        f"sizes={','.join(str(s) for s in args.size)} replicates={args.replicates} "
        f"seed={args.seed} k_policy={args.k_policy}",
    )
    _write_rows(args.csv, experiments.EXPERIMENT_FIELDS, rows, comments)
    return 0


def cmd_sweep(args) -> int:
    if args.fig == 19:
        rows = experiments.constant_bitlen_rows()
        fields = experiments.CONSTANT_FIELDS
        comments = ("constant bit-length comparison, b=1..64, k derived",)
    else:
        values = list(range(args.lo, args.hi, args.step))
        if not values:
            raise ValueError("empty parameter grid")
        if args.fig == 6:  # single Beta: two axes, weight 0
            axes, w, fields = 2, 0.0, experiments.SINGLE_BETA_FIELDS
        else:
            axes, w, fields = 4, args.w, experiments.MIXTURE_FIELDS
        rows, sm_count = experiments.run_mixture_grid(
            values, w=w, sample_size=args.size, seed=args.seed, axes=axes
        )
        comments = (
            f"grid step={args.step} lo={args.lo} hi={args.hi} axis_values={len(values)} "
            f"points={len(rows)} sample_size={args.size} w={w} seed={args.seed}",
            f"sm_favored={sm_count} share={100 * sm_count / len(rows):.4f}%",
        )
    _write_rows(args.csv, fields, rows, comments)
    return 0


def _write_rows(path, fields, rows, comments) -> None:
    """Write rows as CSV to ``path``, or to stdout with ``\\n`` line ends, quoted alike."""
    if path:
        experiments.write_csv(path, fields, rows, comments)
        return
    for c in comments:
        print(f"# {c}")
    writer = csv.DictWriter(sys.stdout, fields, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ccmatrix", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compress", help="pack a text matrix into a container file")
    c.add_argument("input", help="text matrix (whitespace/comma separated)")
    c.add_argument("output", help="container file to write")
    c.add_argument("--method", choices=("sm", "vlb"), default="sm")
    c.add_argument("--order", choices=("row", "col"), default="row")
    c.set_defaults(func=cmd_compress)

    d = sub.add_parser("decompress", help="expand a container file back to text")
    d.add_argument("input")
    d.add_argument("output")
    d.set_defaults(func=cmd_decompress)

    i = sub.add_parser("info", help="report storage stats of a container file")
    i.add_argument("input")
    i.set_defaults(func=cmd_info)

    e = sub.add_parser("experiment", help="replicated efficiency experiments (CSV)")
    e.add_argument("--table", type=int, choices=(3, 4, 5),
                   help="preset: 3=uniform, 4=binomial, 5=poisson rows")
    e.add_argument("--dist", choices=("uniform", "binomial", "poisson",
                                      "beta-mixture", "constant", "two-point"))
    e.add_argument("--a", type=int, default=1, help="uniform low / two-point b1")
    e.add_argument("--b", type=int, default=64, help="uniform high / constant / two-point b2")
    e.add_argument("--n", type=int, default=64, help="binomial trials")
    e.add_argument("--p", type=float, default=0.5, help="binomial p / two-point p1")
    e.add_argument("--lambda", dest="lam", type=float, default=32.0, help="poisson mean")
    e.add_argument("--alpha1", type=float, default=1.0)
    e.add_argument("--beta1", type=float, default=1.0)
    e.add_argument("--alpha2", type=float, default=1.0)
    e.add_argument("--beta2", type=float, default=1.0)
    e.add_argument("--w", type=float, default=0.5, help="mixture weight of component 1")
    e.add_argument("--size", type=int, nargs="+", default=list(experiments.DEFAULT_SIZES),
                   help="sample sizes, one experiment row each")
    e.add_argument("--replicates", type=int, default=experiments.DEFAULT_REPLICATES)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--k-policy", choices=("fixed-7", "derived"), default="fixed-7")
    e.add_argument("--csv", help="output CSV path (default: stdout)")
    e.set_defaults(func=cmd_experiment)

    s = sub.add_parser("sweep", help="efficiency sweep over a Beta parameter grid (CSV)")
    s.add_argument("--step", type=int, default=experiments.SWEEP_DEFAULT_STEP)
    s.add_argument("--lo", type=int, default=experiments.SWEEP_DEFAULT_LO)
    s.add_argument("--hi", type=int, default=experiments.SWEEP_DEFAULT_HI)
    s.add_argument("--w", type=float, default=0.5)
    s.add_argument("--size", type=int, default=experiments.SWEEP_DEFAULT_SAMPLE,
                   help="bit-length sample size per grid point")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--fig", type=int, choices=(6, 19),
                   help="preset: 6=single-Beta grid, 19=constant bit-length table")
    s.add_argument("--csv", help="output CSV path (default: stdout)")
    s.set_defaults(func=cmd_sweep)

    return p


@cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed early fails here, not at exit
        return code
    except BrokenPipeError:
        # stdout's reader is gone: point stdout at devnull so the flush at
        # exit cannot fail again, as Python's note on SIGPIPE advises
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CcmatrixError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
