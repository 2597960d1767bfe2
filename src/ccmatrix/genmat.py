"""Random bit-length distributions and matrix generation.

Bit-lengths in 1..64 are drawn either from a transformed two-component
Beta mixture (``floor(64*x) + 1``, clamped to 64 at the upper edge) or
from standard discrete families.  Raw Binomial and truncated-Poisson
samples may contain 0; they are used unchanged in formula-level
experiments, while matrix realization maps bit-length 0 to the value 0.

All samplers use numpy's default PCG64 generator seeded from a 64-bit
integer, so identical (distribution, n, seed) triples reproduce the same
sample.  Replicate r of a replicated run derives its stream as
``seed XOR r``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .bitstream import _BLOCK, U64_MAX, bit_length
from .efficiency import WORST_CASE_K, eta1, eta2


@dataclass(frozen=True)
class BetaMixture:
    """Two-component Beta mixture over [0, 1], transformed to bit-lengths."""

    alpha1: float
    beta1: float
    alpha2: float
    beta2: float
    w: float = 0.5

    def __post_init__(self):
        for name in ("alpha1", "beta1", "alpha2", "beta2"):
            shape = getattr(self, name)
            if not math.isfinite(shape):
                raise ValueError(f"{name} must be finite")
            if shape <= 0:
                raise ValueError(f"{name} must be > 0")
        if not 0 <= self.w <= 1:
            raise ValueError("w must lie in [0, 1]")


@dataclass(frozen=True)
class Uniform:
    """Discrete uniform bit-lengths on a..b."""

    a: int = 1
    b: int = 64

    def __post_init__(self):
        if not 1 <= self.a <= self.b <= 64:
            raise ValueError("need 1 <= a <= b <= 64")


@dataclass(frozen=True)
class Binomial:
    """Binomial(n, p) bit-lengths; raw values lie in 0..n."""

    n: int
    p: float = 0.5

    def __post_init__(self):
        if not 1 <= self.n <= 64:
            raise ValueError("n must lie in 1..64")
        if not 0 <= self.p <= 1:
            raise ValueError("p must lie in [0, 1]")


@dataclass(frozen=True)
class PoissonTrunc:
    """Poisson(lam) bit-lengths truncated at 64 by re-drawing."""

    lam: float
    max_bitlen: int = 64

    def __post_init__(self):
        if not 1 <= self.max_bitlen <= 64:
            raise ValueError("max_bitlen must lie in 1..64")
        # the tail is cut by re-drawing, which never ends once
        # P(X <= max_bitlen) is about 0; a mean inside the range keeps
        # that probability at 1/2 or more (a Poisson median is < lam + 1/3)
        if not 0 < self.lam <= self.max_bitlen:
            raise ValueError(f"lam must lie in (0, max_bitlen={self.max_bitlen}]")


@dataclass(frozen=True)
class Constant:
    """Every element has the same bit-length."""

    b: int

    def __post_init__(self):
        if not 1 <= self.b <= 64:
            raise ValueError("b must lie in 1..64")


@dataclass(frozen=True)
class TwoPoint:
    """Bit-length b1 with probability p1, else b2."""

    b1: int
    b2: int
    p1: float

    def __post_init__(self):
        if not (1 <= self.b1 <= 64 and 1 <= self.b2 <= 64):
            raise ValueError("bit-lengths must lie in 1..64")
        if not 0 <= self.p1 <= 1:
            raise ValueError("p1 must lie in [0, 1]")


# By bit-length b in 0..64: the mask of the random low bits that b keeps
# (none for 0, one for 1, b - 1 from 2 on) and the top bit that b >= 2 sets.
_LOW = np.array([0, 1] + [(1 << (b - 1)) - 1 for b in range(2, 65)], dtype=np.uint64)
_TOP = np.array([0, 0] + [1 << (b - 1) for b in range(2, 65)], dtype=np.uint64)


BitLengthDist = Union[BetaMixture, Uniform, Binomial, PoissonTrunc, Constant, TwoPoint]


@dataclass(frozen=True)
class MixtureMoments:
    mean: float
    variance: float


@dataclass(frozen=True)
class EfficiencySummary:
    """Replicated efficiency estimates for one distribution and size."""

    eta2_mean: float
    eta2_sd: float
    eta1_mean: float
    eta1_sd: float
    replicates: int
    size: int


def derive_seed(seed: int, index: int) -> int:
    """Per-task stream seed: ``seed XOR index`` in 64-bit space."""
    return (seed ^ index) & U64_MAX


def unit_to_bitlen(x):
    """Map unit-interval draws to bit-lengths: ``floor(64*x) + 1``, capped at 64."""
    bl = np.floor(64 * np.asarray(x)).astype(np.int64) + 1
    return np.minimum(bl, 64)


def _draw_bitlens(dist: BitLengthDist, n: int, rng: np.random.Generator) -> np.ndarray:
    if isinstance(dist, BetaMixture):
        pick1 = rng.random(n) < dist.w
        first = np.flatnonzero(pick1)  # integer scatter beats a boolean mask
        rest = np.flatnonzero(~pick1)
        x = np.empty(n)
        x[first] = rng.beta(dist.alpha1, dist.beta1, size=first.size)
        x[rest] = rng.beta(dist.alpha2, dist.beta2, size=rest.size)
        return unit_to_bitlen(x)
    if isinstance(dist, Uniform):
        return rng.integers(dist.a, dist.b, size=n, endpoint=True, dtype=np.int64)
    if isinstance(dist, Binomial):
        return rng.binomial(dist.n, dist.p, size=n).astype(np.int64)
    if isinstance(dist, PoissonTrunc):
        out = rng.poisson(dist.lam, size=n).astype(np.int64)
        over = out > dist.max_bitlen
        while over.any():
            out[over] = rng.poisson(dist.lam, size=np.count_nonzero(over))
            over = out > dist.max_bitlen
        return out
    if isinstance(dist, Constant):
        return np.full(n, dist.b, dtype=np.int64)
    if isinstance(dist, TwoPoint):
        return rng.choice(
            np.array([dist.b1, dist.b2], dtype=np.int64),
            size=n,
            p=[dist.p1, 1 - dist.p1],
        )
    raise TypeError(f"unknown distribution {dist!r}")


def sample_bitlens(dist: BitLengthDist, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` bit-lengths; deterministic for a fixed seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _draw_bitlens(dist, n, np.random.default_rng(seed))


def mixture_moments(
    alpha1: float, beta1: float, alpha2: float, beta2: float, w: float
) -> MixtureMoments:
    """Mean and variance of the untransformed Beta mixture on [0, 1].

    The variance uses the standard mixture identity
    ``w*v1 + (1-w)*v2 + w*(1-w)*(m1 - m2)**2``.
    """
    BetaMixture(alpha1, beta1, alpha2, beta2, w)  # parameter validation
    m1 = alpha1 / (alpha1 + beta1)
    m2 = alpha2 / (alpha2 + beta2)
    v1 = alpha1 * beta1 / ((alpha1 + beta1) ** 2 * (alpha1 + beta1 + 1))
    v2 = alpha2 * beta2 / ((alpha2 + beta2) ** 2 * (alpha2 + beta2 + 1))
    mean = w * m1 + (1 - w) * m2
    var = w * v1 + (1 - w) * v2 + w * (1 - w) * (m1 - m2) ** 2
    return MixtureMoments(mean=mean, variance=var)


def sample_matrix(dist: BitLengthDist, rows: int, cols: int, seed: int) -> np.ndarray:
    """Generate a dense uint64 matrix whose elements realize sampled bit-lengths.

    Bit-length 1 yields a uniform draw from {0, 1}; bit-length b >= 2 a
    uniform draw from [2**(b-1), 2**b - 1]; a raw bit-length of 0 yields 0.

    The bit-lengths are drawn first, then 64 random bits per element,
    which are realized in place ``_BLOCK`` (8,192) elements at a time:
    ``bits & _LOW[b] | _TOP[b]``, two lookups in tables of 65 entries.
    So no temporary exceeds 64 KiB beside the two draws (a 1000x1000
    call peaks at about 15 MiB for its 7.6 MiB result, against 47 MiB
    for whole-array masks and gathers).
    """
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    rng = np.random.default_rng(seed)
    n = rows * cols
    bl = _draw_bitlens(dist, n, rng)
    vals = rng.integers(0, 2**64, size=n, dtype=np.uint64)
    for e0 in range(0, n, _BLOCK):
        b, v = bl[e0 : e0 + _BLOCK], vals[e0 : e0 + _BLOCK]
        v &= _LOW.take(b)
        v |= _TOP.take(b)
    return vals.reshape(rows, cols)


def replicate_efficiency(
    dist: BitLengthDist,
    size: int,
    replicates: int,
    seed: int,
    k: int | None = WORST_CASE_K,
) -> EfficiencySummary:
    """Replicated efficiency of both codecs on sampled bit-lengths.

    Each replicate draws ``size`` bit-lengths (replicate r seeded with
    ``seed XOR r``), evaluates the length-prefixed efficiency on the
    sample histogram and the fixed-width efficiency on the sample
    maximum, and the replicate values are summarized as mean and sample
    standard deviation.  ``k=None`` derives the prefix width from each
    sample instead of fixing the worst case.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    e1 = np.empty(replicates)
    e2 = np.empty(replicates)
    for r in range(replicates):
        bl = sample_bitlens(dist, size, derive_seed(seed, r))
        counts = np.bincount(bl, minlength=1)
        hist = {b: int(c) for b, c in enumerate(counts) if c}
        max_b = max(1, int(bl.max()))  # all-zero samples cost one bit per element
        k_eff = k if k is not None else bit_length(max_b)
        e2[r] = eta2(hist, k_eff)
        e1[r] = eta1(max_b)
    sd = (np.std(e1, ddof=1), np.std(e2, ddof=1)) if replicates > 1 else (0.0, 0.0)
    return EfficiencySummary(
        eta2_mean=float(e2.mean()),
        eta2_sd=float(sd[1]),
        eta1_mean=float(e1.mean()),
        eta1_sd=float(sd[0]),
        replicates=replicates,
        size=size,
    )
