"""Expected outputs for the benchmark, computed without importing ccmatrix.

The reference encoder follows the documented layouts only:

* the bitstring is a sequence of 64-bit words, bit position ``p`` in word
  ``p // 64`` at bit ``p % 64`` counted from the least significant bit,
  serialised as little-endian words;
* SM stores every element in ``width`` bits, ``width`` being the
  bit-length of the largest element;
* VLB stores every element as a ``k``-bit prefix holding its bit-length
  followed by that many payload bits, ``k = bit_length(bit_length(max))``;
* the ``CCM1`` container header is ``<4sBBBQQBQ``: magic, version, method
  (1 = SM, 2 = VLB), order (0 = row, 1 = col), rows, cols, width or k,
  word count.

Nothing here is timed; every function runs outside the measured region.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable
from fractions import Fraction

import numpy as np

HEADER = struct.Struct("<4sBBBQQBQ")
METHOD_CODES = {"sm": 1, "vlb": 2}
ORDER_CODES = {"row": 0, "col": 1}
_CHUNK = 16384  # fields packed per numpy step; bounds the oracle's memory

# Printed sweep/experiment figures carry six decimals; an exact value and
# the printed one may differ by half a unit in the last place.
PRINT_TOLERANCE = 5e-7 + 1e-12


def bitlens(values: np.ndarray) -> np.ndarray:
    """Bit-length of each uint64 element, counting 0 as one bit."""
    v = np.asarray(values, dtype=np.uint64).ravel().copy()
    n = np.zeros(v.size, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        hi = v >> np.uint64(shift)
        big = hi != 0
        n[big] += shift
        v[big] = hi[big]
    n += (v != 0).astype(np.int64)
    return np.maximum(n, 1)


def _field_bits(values: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Concatenate each value's low ``width`` bits, LSB first, as a 0/1 array."""
    parts = []
    for lo in range(0, values.size, _CHUNK):
        v = values[lo : lo + _CHUNK]
        w = widths[lo : lo + _CHUNK]
        top = int(w.max())
        cols = np.arange(top, dtype=np.uint64)
        bits = ((v[:, None] >> cols[None, :]) & np.uint64(1)).astype(np.uint8)
        parts.append(bits[np.arange(top)[None, :] < w[:, None]])
    return np.concatenate(parts)


def _words(bits: np.ndarray) -> tuple[bytes, int]:
    """Serialise a bit array as little-endian 64-bit words; returns (bytes, words)."""
    word_count = -(-bits.size // 64)
    padded = np.zeros(64 * word_count, dtype=np.uint8)
    padded[: bits.size] = bits
    return np.packbits(padded, bitorder="little").tobytes(), word_count


def _flat(dense: np.ndarray, order: str) -> np.ndarray:
    return np.asarray(dense, dtype=np.uint64).ravel(order="C" if order == "row" else "F")


def sm_container(dense: np.ndarray, order: str = "row") -> bytes:
    """Expected ``CCM1`` bytes of the SM encoding of ``dense``."""
    flat = _flat(dense, order)
    width = int(bitlens(flat).max())
    payload, words = _words(_field_bits(flat, np.full(flat.size, width)))
    rows, cols = dense.shape
    header = HEADER.pack(b"CCM1", 1, METHOD_CODES["sm"], ORDER_CODES[order], rows, cols, width, words)
    return header + payload


def vlb_container(dense: np.ndarray, order: str = "row") -> bytes:
    """Expected ``CCM1`` bytes of the VLB encoding of ``dense``."""
    flat = _flat(dense, order)
    bl = bitlens(flat)
    k = int(bitlens(np.array([bl.max()])).max())
    fields = np.column_stack([bl.astype(np.uint64), flat]).ravel()
    widths = np.column_stack([np.full(flat.size, k), bl]).ravel()
    payload, words = _words(_field_bits(fields, widths))
    rows, cols = dense.shape
    header = HEADER.pack(b"CCM1", 1, METHOD_CODES["vlb"], ORDER_CODES[order], rows, cols, k, words)
    return header + payload


def text_matrix(dense: np.ndarray) -> str:
    """The text form the CLI reads and writes: one row per line, single spaces."""
    return "".join(" ".join(map(str, row)) + "\n" for row in dense.tolist())


def report_fields(dense: np.ndarray, method: str) -> dict[str, str]:
    """Expected ``key: value`` lines of the CLI storage report (row order).

    ``eta`` is the exact saved fraction of a 64-bit allocation. For VLB it
    is written as the length-prefixed formula
    ``1 - sum(b*f) / (64*n) - k/64`` from the element histogram, so the
    printed value must equal both the measured and the analytic figure.
    """
    bl = bitlens(dense)
    n = bl.size
    rows, cols = dense.shape
    out = {"method": method, "rows": str(rows), "cols": str(cols), "order": "row"}
    allocated = 64 * n
    if method == "sm":
        width = int(bl.max())
        out["width"] = str(width)
        used = n * width
        eta = Fraction(64 - width, 64)
    else:
        k = int(bitlens(np.array([bl.max()])).max())
        out["k"] = str(k)
        weighted = int(bl.sum())
        used = n * k + weighted
        eta = 1 - Fraction(weighted, 64 * n) - Fraction(k, 64)
    out["bits_allocated"] = str(allocated)
    out["bits_used"] = str(used)
    out["eta"] = repr(float(eta))
    return out


def histogram(dense: np.ndarray) -> dict[int, int]:
    counts = np.bincount(bitlens(dense))
    return {b: int(c) for b, c in enumerate(counts) if c}


def parse_report(text: str) -> tuple[dict[str, str], dict[int, int]]:
    """Split CLI report output into its ``key: value`` fields and histogram."""
    fields: dict[str, str] = {}
    hist: dict[int, int] = {}
    in_hist = False
    for line in text.splitlines():
        if line.startswith("  ") and in_hist:
            b, f = line.split(":")
            hist[int(b)] = int(f)
            continue
        key, _, value = line.partition(": ")
        in_hist = line == "histogram:"
        if not in_hist:
            fields[key] = value
    return fields, hist


def report_mismatches(text: str, expected: dict[str, str], hist: dict[int, int] | None) -> list[str]:
    """Fields of a printed report that differ from the expectation."""
    fields, got_hist = parse_report(text)
    bad = [f"{k}: {fields.get(k)!r} != {v!r}" for k, v in expected.items() if fields.get(k) != v]
    if hist is not None and got_hist != hist:
        bad.append("histogram differs")
    return bad


# -- sweep and experiment rows ------------------------------------------


def close(printed: str, exact: Fraction | float) -> bool:
    return abs(float(printed) - float(exact)) <= PRINT_TOLERANCE


def grid_row_mismatches(row: dict[str, str], bl: np.ndarray, k: int = 7) -> list[str]:
    """Compare one mixture-grid CSV row with exact formulas over its sample."""
    n = bl.size
    mean = Fraction(int(bl.sum()), n)
    e1 = Fraction(64 - max(1, int(bl.max())), 64)
    e2 = 1 - mean / 64 - Fraction(k, 64)
    expected = {"mean_bitlen": mean, "eta1": e1, "eta2": e2, "D": e1 - e2}
    return [f"{key}={row[key]} vs {float(v)!r}" for key, v in expected.items() if not close(row[key], v)]


def replicate_stats(samples: Iterable[np.ndarray], k: int = 7) -> dict[str, Fraction | float]:
    """Exact per-replicate efficiencies, summarised as mean and sample sd.

    ``samples`` is walked once, so a generator keeps one replicate in
    memory at a time and the oracle does not raise the run's peak RSS.
    """
    e1, e2 = [], []
    for bl in samples:
        e1.append(Fraction(64 - max(1, int(bl.max())), 64))
        e2.append(1 - Fraction(int(bl.sum()), 64 * bl.size) - Fraction(k, 64))
    out: dict[str, Fraction | float] = {}
    for name, vals in (("eta1", e1), ("eta2", e2)):
        mean = sum(vals) / len(vals)
        var = sum((v - mean) ** 2 for v in vals) / (len(vals) - 1) if len(vals) > 1 else Fraction(0)
        out[f"{name}_mean"] = mean
        out[f"{name}_sd"] = float(var) ** 0.5
    return out


def experiment_row_mismatches(row: dict[str, str], samples: Iterable[np.ndarray], k: int = 7) -> list[str]:
    stats = replicate_stats(samples, k)
    return [f"{key}={row[key]} vs {float(v)!r}" for key, v in stats.items() if not close(row[key], v)]
