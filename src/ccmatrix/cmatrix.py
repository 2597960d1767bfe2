"""Unified facade over the two codecs with arithmetic on the compressed form.

Element-wise operations decode each operand once per pass, through the
bulk unpack kernels, to a uint64 array (8 B per element) and stream its
elements in row-major order; ``transpose`` and ``matmul`` read operands
element by element through ``get``.  Results are re-encoded fixed-width
at the minimal chunk size, which takes two passes: one to find the
largest result element, one to fill the output buffer.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator

import numpy as np

from ._dense import ROW_MAJOR
from .bitstream import U64_MAX, bit_length
from .errors import ArithmeticOverflow, ShapeMismatch
from .sm import SmMatrix
from .vlb import DEFAULT_CHECKPOINT_STRIDE, VlbMatrix

SM = "sm"
VLB = "vlb"


class CompressedMatrix:
    """A compressed integer matrix, SM- or VLB-encoded."""

    __slots__ = ("_repr",)

    def __init__(self, inner: SmMatrix | VlbMatrix):
        if not isinstance(inner, (SmMatrix, VlbMatrix)):
            raise TypeError(f"expected SmMatrix or VlbMatrix, got {type(inner).__name__}")
        self._repr = inner

    @classmethod
    def compress(
        cls,
        dense,
        method: str = SM,
        order: str = ROW_MAJOR,
        checkpoint_stride: int = DEFAULT_CHECKPOINT_STRIDE,
    ) -> "CompressedMatrix":
        if method == SM:
            return cls(SmMatrix.compress(dense, order))
        if method == VLB:
            return cls(VlbMatrix.compress(dense, order, checkpoint_stride))
        raise ValueError(f"method must be 'sm' or 'vlb', got {method!r}")

    @property
    def inner(self) -> SmMatrix | VlbMatrix:
        return self._repr

    @property
    def method(self) -> str:
        return SM if isinstance(self._repr, SmMatrix) else VLB

    @property
    def rows(self) -> int:
        return self._repr.rows

    @property
    def cols(self) -> int:
        return self._repr.cols

    @property
    def shape(self) -> tuple[int, int]:
        return (self._repr.rows, self._repr.cols)

    @property
    def bits_used(self) -> int:
        return self._repr.bits_used

    def get(self, i: int, j: int) -> int:
        return self._repr.get(i, j)

    def iter_rowmajor(self) -> Iterator[int]:
        return self._repr.iter_rowmajor()

    def decompress(self) -> np.ndarray:
        return self._repr.decompress()

    # -- arithmetic ----------------------------------------------------

    def add(self, other: "CompressedMatrix") -> "CompressedMatrix":
        """Element-wise sum, re-encoded fixed-width at minimal width."""
        if self.shape != other.shape:
            raise ShapeMismatch(f"cannot add {self.shape} and {other.shape}")

        def sums() -> Iterator[int]:
            for x, y in zip(self.iter_rowmajor(), other.iter_rowmajor()):
                s = x + y
                if s > U64_MAX:
                    raise ArithmeticOverflow(f"{x} + {y} exceeds 64-bit range")
                yield s

        return self._encode_rowmajor(self.rows, self.cols, sums)

    def scalar_mul(self, s: int) -> "CompressedMatrix":
        """Element-wise product with a non-negative scalar."""
        s = operator.index(s)
        if s < 0 or s > U64_MAX:
            raise ValueError(f"scalar outside unsigned 64-bit range: {s}")

        def products() -> Iterator[int]:
            for x in self.iter_rowmajor():
                p = x * s
                if p > U64_MAX:
                    raise ArithmeticOverflow(f"{x} * {s} exceeds 64-bit range")
                yield p

        return self._encode_rowmajor(self.rows, self.cols, products)

    def matmul(self, other: "CompressedMatrix") -> "CompressedMatrix":
        """Matrix product with checked 64-bit unsigned accumulation.

        Streams the left operand one row strip at a time; the right
        operand is read element-wise.
        """
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"cannot multiply {self.shape} by {other.shape}"
            )
        inner_dim = self.cols
        out_cols = other.cols

        def products() -> Iterator[int]:
            for i in range(self.rows):
                row = [self.get(i, l) for l in range(inner_dim)]
                for j in range(out_cols):
                    acc = 0
                    for l, a in enumerate(row):
                        if a:
                            p = a * other.get(l, j)
                            if p > U64_MAX:
                                raise ArithmeticOverflow(
                                    f"product at ({i}, {j}) exceeds 64-bit range"
                                )
                            acc += p
                            if acc > U64_MAX:
                                raise ArithmeticOverflow(
                                    f"sum at ({i}, {j}) exceeds 64-bit range"
                                )
                    yield acc

        return self._encode_rowmajor(self.rows, out_cols, products)

    def transpose(self) -> "CompressedMatrix":
        def swapped() -> Iterator[int]:
            for j in range(self.cols):
                for i in range(self.rows):
                    yield self.get(i, j)

        return self._encode_rowmajor(self.cols, self.rows, swapped)

    def equals(self, other: "CompressedMatrix") -> bool:
        """Element-wise equality, independent of representation."""
        if self.shape != other.shape:
            return False
        return all(
            x == y for x, y in zip(self.iter_rowmajor(), other.iter_rowmajor())
        )

    @staticmethod
    def _encode_rowmajor(rows, cols, make_values) -> "CompressedMatrix":
        max_v = 0
        for v in make_values():
            if v > max_v:
                max_v = v
        width = bit_length(max_v)
        return CompressedMatrix(
            SmMatrix.from_values(rows, cols, width, make_values(), ROW_MAJOR)
        )

    # -- operators -----------------------------------------------------

    def __add__(self, other):
        return self.add(other) if isinstance(other, CompressedMatrix) else NotImplemented

    def __mul__(self, s):
        return self.scalar_mul(s) if isinstance(s, (int, np.integer)) else NotImplemented

    __rmul__ = __mul__

    def __matmul__(self, other):
        return self.matmul(other) if isinstance(other, CompressedMatrix) else NotImplemented

    def __eq__(self, other):
        if not isinstance(other, CompressedMatrix):
            return NotImplemented
        return self.equals(other)

    __hash__ = None

    def __repr__(self) -> str:
        return f"CompressedMatrix({self._repr!r})"
