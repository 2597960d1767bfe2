"""Compression-efficiency analytics.

Efficiency is the saved fraction of a conventional 64-bit allocation:
``(bits allocated - bits used) / bits allocated``.  For the fixed-width
codec this collapses to ``(64 - width) / 64``; for the length-prefixed
codec it depends on the bit-length histogram and the prefix width k.

Histogram- and width-based functions are evaluated in exact rational
arithmetic and converted to float only on return, so measured and
analytic values can be compared for strict equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bitstream import bit_length
from .cmatrix import CompressedMatrix
from .sm import SmMatrix
from .vlb import VlbMatrix

WORST_CASE_K = 7  # prefix width covering bit-lengths up to 64


@dataclass(frozen=True)
class EfficiencyReport:
    """Measured storage accounting for one compressed matrix."""

    bits_allocated: int
    bits_used: int
    eta: float
    histogram: dict[int, int]
    k: int
    method: str


@dataclass(frozen=True)
class TwoPointSolveResult:
    """Probabilities of a two-bit-length mix hitting a target efficiency."""

    p1: float
    p2: float
    feasible: bool


def _check_bitlen(b: int, lo: int = 1) -> int:
    if not isinstance(b, int) or not lo <= b <= 64:
        raise ValueError(f"bit-length must be an integer in {lo}..64, got {b!r}")
    return b


def eta1(max_bitlen: int) -> float:
    """Fixed-width efficiency; depends only on the widest element."""
    _check_bitlen(max_bitlen)
    return float(Fraction(64 - max_bitlen, 64))


def _eta2(histogram: dict[int, int], k: int) -> Fraction:
    """Exact length-prefixed efficiency; rejects an invalid histogram or k."""
    if not histogram:
        raise ValueError("histogram must be non-empty")
    _check_bitlen(k)
    weighted = 0
    total = 0
    for b, f in histogram.items():
        _check_bitlen(b, lo=0)
        if not isinstance(f, int) or f < 1:
            raise ValueError(f"frequency for bit-length {b} must be >= 1, got {f!r}")
        weighted += b * f
        total += f
    return 1 - Fraction(weighted, 64 * total) - Fraction(k, 64)


def eta2(histogram: dict[int, int], k: int = WORST_CASE_K) -> float:
    """Length-prefixed efficiency from a bit-length histogram.

    ``1 - sum(b * f) / (64 * total) - k / 64``.  Histogram keys of 0 are
    accepted so raw distribution samples (which may contain zeros) can be
    evaluated directly; the codec itself never stores a zero prefix.
    """
    return float(_eta2(histogram, k))


def eta2_prob(probs: dict[int, float], k: int = WORST_CASE_K) -> float:
    """Length-prefixed efficiency from bit-length probabilities.

    The histogram frequencies are replaced by probabilities summing to 1.
    """
    if not probs:
        raise ValueError("probabilities must be non-empty")
    _check_bitlen(k)
    total = 0.0
    weighted = 0.0
    for b, p in probs.items():
        _check_bitlen(b, lo=0)
        if not p >= 0:  # also rejects NaN
            raise ValueError(f"probability for bit-length {b} is not >= 0: {p}")
        total += p
        weighted += b * p
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"probabilities sum to {total}, expected 1")
    # the weighted sum is the mean bit-length; a sum of probabilities just
    # above 1, which the tolerance admits, can lift it just above 64
    return expected_eta2(min(weighted, 64.0), k)


def expected_eta2(mean_bitlen: float, k: int = WORST_CASE_K) -> float:
    """Expected length-prefixed efficiency given the mean bit-length."""
    _check_bitlen(k)
    if not 0 <= mean_bitlen <= 64:
        raise ValueError(f"mean bit-length must lie in [0, 64], got {mean_bitlen}")
    return 1.0 - mean_bitlen / 64.0 - k / 64.0


def compare(histogram: dict[int, int], max_bitlen: int, k: int = WORST_CASE_K) -> float:
    """Difference D between fixed-width and length-prefixed efficiency.

    Positive favors the fixed-width codec, negative the length-prefixed
    one.  Computed exactly before conversion to float.
    """
    _check_bitlen(max_bitlen)
    return float(Fraction(64 - max_bitlen, 64) - _eta2(histogram, k))


def solve_two_point(
    target_eta2: float, b1: int, b2: int, k: int = WORST_CASE_K
) -> TwoPointSolveResult:
    """Probabilities (p1, p2) over two bit-lengths reaching a target efficiency.

    Solves ``p1 + p2 = 1`` together with
    ``b1*p1 + b2*p2 = 64*(1 - target - k/64)``.  When the solution leaves
    [0, 1] the result is flagged infeasible rather than raising.
    """
    _check_bitlen(b1)
    _check_bitlen(b2)
    _check_bitlen(k)
    if b1 == b2:
        raise ValueError("the two bit-lengths must differ")
    rhs = Fraction(64) * (1 - Fraction(target_eta2)) - k
    p2 = (rhs - b1) / (b2 - b1)
    p1 = 1 - p2
    eps = Fraction(1, 10**12)
    feasible = -eps <= p1 <= 1 + eps and -eps <= p2 <= 1 + eps
    return TwoPointSolveResult(float(p1), float(p2), feasible)


def bit_accounting(m: CompressedMatrix | SmMatrix | VlbMatrix) -> tuple[int, int, float]:
    """``(bits_allocated, bits_used, eta)`` of a compressed matrix, decoding nothing.

    The allocation is 64 bits per element and ``bits_used`` is the length
    of the packed buffer, so the three need only ``rows``, ``cols`` and
    ``bits_used``.  ``eta`` is the exact allocated-vs-used ratio.
    """
    inner = m.inner if isinstance(m, CompressedMatrix) else m
    allocated = 64 * inner.rows * inner.cols
    used = inner.bits_used
    return allocated, used, float(Fraction(allocated - used, allocated))


def measure(m: CompressedMatrix | SmMatrix | VlbMatrix) -> EfficiencyReport:
    """Storage accounting for an actual compressed matrix.

    ``bits_allocated``, ``bits_used`` and ``eta`` come from
    :func:`bit_accounting`.  The histogram counts the bit-lengths of the
    elements, block by block (``bit_length_counts``): a length-prefixed
    matrix reads them from its prefixes and decodes no payload, a
    fixed-width one counts the blocks of its ``blocks()``.  A caller that
    needs only the three figures calls :func:`bit_accounting` instead.  ``k`` is
    the prefix width the matrix actually stores, or for fixed-width
    matrices the equivalent derived value (bit-length of the largest
    bit-length present).
    """
    inner = m.inner if isinstance(m, CompressedMatrix) else m
    counts = inner.bit_length_counts().tolist()
    histogram = {b: f for b, f in enumerate(counts) if f}
    allocated, used, eta = bit_accounting(inner)
    if isinstance(inner, VlbMatrix):
        k = inner.k  # the prefix width actually stored
        method = "vlb"
    else:
        k = bit_length(max(histogram))
        method = "sm"
    return EfficiencyReport(
        bits_allocated=allocated,
        bits_used=used,
        eta=eta,
        histogram=histogram,
        k=k,
        method=method,
    )
