"""Arithmetic directly on the compressed form.

Each operation decodes its operands once to uint64 arrays, computes in
numpy and re-encodes the result fixed-width at the minimal chunk size.
Overflow past 64 bits raises instead of wrapping, so the stored values
always mean what they say.
"""

import numpy as np

from ccmatrix import ArithmeticOverflow, CompressedMatrix

rng = np.random.default_rng(7)
a_dense = rng.integers(0, 1000, size=(4, 5), dtype=np.uint64)
b_dense = rng.integers(0, 1000, size=(4, 5), dtype=np.uint64)

a = CompressedMatrix.compress(a_dense, method="sm")
b = CompressedMatrix.compress(b_dense, method="vlb")
print(f"a: {a!r} using {a.bits_used} bits")
print(f"b: {b!r} using {b.bits_used} bits")

print()
print("=== mixed-representation sum ===")
total = a + b
print(f"result re-encoded at width {total.inner.width}: {total.bits_used} bits")
print("matches numpy:", (total.decompress() == a_dense + b_dense).all())

print()
print("=== product, transpose, scalar ===")
c = CompressedMatrix.compress(rng.integers(0, 1000, size=(5, 3), dtype=np.uint64))
prod = a @ c
print(f"(4x5) @ (5x3) -> {prod.shape}, width {prod.inner.width}")
print("transpose twice is identity:", prod.transpose().transpose() == prod)
print("3 * a equals a + a + a:", (3 * a) == (a + a + a))

print()
print("=== equality ignores the representation ===")
same_sm = CompressedMatrix.compress(a_dense, method="sm", order="col")
same_vlb = CompressedMatrix.compress(a_dense, method="vlb")
print("sm(col-major) == vlb(row-major):", same_sm == same_vlb)

print()
print("=== overflow is an error, never a wraparound ===")
top = CompressedMatrix.compress([[2**63]])
try:
    top.scalar_mul(2)
except ArithmeticOverflow as exc:
    print(f"caught: {exc}")
