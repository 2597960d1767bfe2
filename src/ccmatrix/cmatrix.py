"""Unified facade over the two codecs with arithmetic on the compressed form.

Every operation decodes each operand once, through the bulk unpack
kernels, to a uint64 array (8 B per element), computes in numpy with
overflow checked on the arrays, and encodes its result once,
fixed-width at the minimal chunk size, through the same encoder as
``compress``.
"""

from __future__ import annotations

import operator

import numpy as np

from ._dense import ROW_MAJOR, PackedMatrix
from .bitstream import U64_MAX
from .errors import ArithmeticOverflow, ShapeMismatch
from .sm import SmMatrix
from .vlb import VlbMatrix

# the one table from method name to codec class: ``compress``, the loader and ``--method``
CODECS = {codec.METHOD: codec for codec in (SmMatrix, VlbMatrix)}


class CompressedMatrix:
    """A compressed integer matrix, SM- or VLB-encoded."""

    __slots__ = ("_repr",)

    def __init__(self, inner: PackedMatrix):
        if not isinstance(inner, PackedMatrix):
            raise TypeError(f"expected SmMatrix or VlbMatrix, got {type(inner).__name__}")
        self._repr = inner

    @classmethod
    def compress(cls, dense, method: str = "sm", order: str = ROW_MAJOR) -> "CompressedMatrix":
        codec = CODECS.get(method) if isinstance(method, str) else None
        if codec is None:
            raise ValueError(f"method must be 'sm' or 'vlb', got {method!r}")
        return cls(codec.compress(dense, order))

    @property
    def inner(self) -> PackedMatrix:
        return self._repr

    @property
    def method(self) -> str:
        return self._repr.METHOD

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

    def decompress(self) -> np.ndarray:
        return self._repr.decompress()

    # -- arithmetic ----------------------------------------------------

    def add(self, other: "CompressedMatrix") -> "CompressedMatrix":
        """Element-wise sum, re-encoded fixed-width at minimal width."""
        if self.shape != other.shape:
            raise ShapeMismatch(f"cannot add {self.shape} and {other.shape}")
        a, b = self.decompress(), other.decompress()
        over = b > U64_MAX - a
        if over.any():
            raise ArithmeticOverflow(f"{a[over][0]} + {b[over][0]} exceeds 64-bit range")
        return CompressedMatrix.compress(a + b)

    def scalar_mul(self, s: int) -> "CompressedMatrix":
        """Element-wise product with a non-negative scalar."""
        s = operator.index(s)
        if s < 0 or s > U64_MAX:
            raise ValueError(f"scalar outside unsigned 64-bit range: {s}")
        a = self.decompress()
        if s:
            over = a > U64_MAX // s
            if over.any():
                raise ArithmeticOverflow(f"{a[over][0]} * {s} exceeds 64-bit range")
        return CompressedMatrix.compress(a * s)

    def matmul(self, other: "CompressedMatrix") -> "CompressedMatrix":
        """Matrix product with checked 64-bit unsigned accumulation.

        The operands are non-negative: if max(a) * max(b) * inner fits in
        64 bits, uint64 ``@`` is exact.  Otherwise the product is exact in
        Python ints, and the first cell past 64 bits, in row-major order,
        is rescanned to report which product or partial sum overflowed.
        """
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"cannot multiply {self.shape} by {other.shape}"
            )
        a, b = self.decompress(), other.decompress()
        if int(a.max()) * int(b.max()) * self.cols <= U64_MAX:
            return CompressedMatrix.compress(a @ b)
        out = a.astype(object) @ b.astype(object)
        over = np.flatnonzero(out > U64_MAX)
        if over.size:
            i, j = divmod(int(over[0]), other.cols)
            acc = 0
            for l in range(self.cols):
                p = int(a[i, l]) * int(b[l, j])
                if p > U64_MAX:
                    raise ArithmeticOverflow(f"product at ({i}, {j}) exceeds 64-bit range")
                acc += p
                if acc > U64_MAX:
                    raise ArithmeticOverflow(f"sum at ({i}, {j}) exceeds 64-bit range")
        return CompressedMatrix.compress(out.astype(np.uint64))

    def transpose(self) -> "CompressedMatrix":
        return CompressedMatrix.compress(self.decompress().T)

    def equals(self, other: "CompressedMatrix") -> bool:
        """Element-wise equality, independent of representation."""
        return self.shape == other.shape and np.array_equal(
            self.decompress(), other.decompress()
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
