"""Command-line interface: compress, decompress, info, experiment, sweep.

Exit codes: 0 success, 2 parse/validation error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from itertools import chain

import numpy as np

from . import experiments
from .bitstream import U64_MAX
from .cmatrix import CompressedMatrix
from .container import load_matrix, save_matrix
from .efficiency import WORST_CASE_K, measure
from .errors import CcmatrixError, ParseError
from .genmat import (
    BetaMixture,
    Binomial,
    Constant,
    PoissonTrunc,
    TwoPoint,
    Uniform,
)


def parse_text_matrix(text: str) -> np.ndarray:
    """Parse text into a 2-D uint64 array, one row per non-blank line.

    Lines split as ``str.splitlines`` does, fields on commas and Unicode
    whitespace.  A field is anything ``int()`` accepts (``+3``, ``1_000``,
    non-ASCII digits) in 0..2**64 - 1; else, or for ragged or no rows,
    ParseError."""
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


def format_text_matrix(dense) -> str:
    """Format a 2-D array or nested sequences of non-negative ints as a str:
    per row, decimal values joined by single spaces, ended by a newline."""
    rows = dense if isinstance(dense, np.ndarray) else np.asarray(dense, dtype=object)
    line = " ".join(["%d"] * rows.shape[1]) + "\n"
    return "".join([line % tuple(row.tolist()) for row in rows])


def _print_report(m: CompressedMatrix, show_histogram: bool = False) -> None:
    rep = measure(m)
    inner = m.inner
    print(f"method: {rep.method}")
    print(f"rows: {m.rows}")
    print(f"cols: {m.cols}")
    print(f"order: {inner.order}")
    if rep.method == "sm":
        print(f"width: {inner.width}")
    else:
        print(f"k: {inner.k}")
    print(f"bits_allocated: {rep.bits_allocated}")
    print(f"bits_used: {rep.bits_used}")
    print(f"eta: {rep.eta!r}")
    if show_histogram:
        print("histogram:")
        for b, f in rep.histogram.items():
            print(f"  {b}: {f}")


def cmd_compress(args) -> int:
    with open(args.input) as f:
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
    if args.csv:
        experiments.write_csv(args.csv, experiments.EXPERIMENT_FIELDS, rows, comments)
    else:
        _print_rows(experiments.EXPERIMENT_FIELDS, rows, comments)
    return 0


def cmd_sweep(args) -> int:
    if args.fig == 19:
        rows = experiments.constant_bitlen_rows()
        fields = experiments.CONSTANT_FIELDS
        comments = ("constant bit-length comparison, b=1..64, k derived",)
        sm_count = sum(1 for r in rows if float(r["D"]) >= 0)
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
    if args.csv:
        experiments.write_csv(args.csv, fields, rows, comments)
    else:
        _print_rows(fields, rows, comments)
    return 0


def _print_rows(fields, rows, comments=()) -> None:
    for c in comments:
        print(f"# {c}")
    print(",".join(fields))
    for r in rows:
        print(",".join(str(r[f]) for f in fields))


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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CcmatrixError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
