"""Lossless bit-packed integer matrices with arithmetic on the compressed form.

Two codecs share a 64-bit-word bitstring substrate: a fixed-width one
(every element in a chunk sized for the largest element, O(1) access)
and a length-prefixed one (each element preceded by its exact bit-length,
checkpointed for seekable access).  On top of them sit checked matrix
arithmetic that decodes each operand once, storage-efficiency analytics,
bit-length distribution samplers, and reproducible efficiency
experiments.
"""

from .bitstream import BitBuffer, bit_length
from .cmatrix import CompressedMatrix
from .container import load_matrix, save_matrix
from .efficiency import (
    EfficiencyReport,
    TwoPointSolveResult,
    compare,
    eta1,
    eta2,
    eta2_prob,
    expected_eta2,
    measure,
    solve_two_point,
)
from .errors import (
    ArithmeticOverflow,
    BadMagic,
    CcmatrixError,
    CorruptStream,
    FieldOverflow,
    NarrowingRequested,
    OutOfBounds,
    ParseError,
    ShapeMismatch,
    TruncatedPayload,
    WidthOverflow,
)
from .genmat import (
    BetaMixture,
    Binomial,
    BitLengthDist,
    Constant,
    EfficiencySummary,
    MixtureMoments,
    PoissonTrunc,
    TwoPoint,
    Uniform,
    derive_seed,
    mixture_moments,
    replicate_efficiency,
    sample_bitlens,
    sample_matrix,
    unit_to_bitlen,
)
from .sm import SmMatrix
from .vlb import VlbMatrix

__version__ = "0.1.0"

__all__ = [
    "ArithmeticOverflow",
    "BadMagic",
    "BetaMixture",
    "Binomial",
    "BitBuffer",
    "BitLengthDist",
    "CcmatrixError",
    "CompressedMatrix",
    "Constant",
    "CorruptStream",
    "EfficiencyReport",
    "EfficiencySummary",
    "FieldOverflow",
    "MixtureMoments",
    "NarrowingRequested",
    "OutOfBounds",
    "ParseError",
    "PoissonTrunc",
    "ShapeMismatch",
    "SmMatrix",
    "TruncatedPayload",
    "TwoPoint",
    "TwoPointSolveResult",
    "Uniform",
    "VlbMatrix",
    "WidthOverflow",
    "bit_length",
    "compare",
    "derive_seed",
    "eta1",
    "eta2",
    "eta2_prob",
    "expected_eta2",
    "load_matrix",
    "measure",
    "mixture_moments",
    "replicate_efficiency",
    "sample_bitlens",
    "sample_matrix",
    "save_matrix",
    "solve_two_point",
    "unit_to_bitlen",
]
