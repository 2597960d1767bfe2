"""Length-prefixed compression: each element takes exactly the bits it needs.

Every element is stored as a k-bit prefix holding its bit-length followed
by that many payload bits.  k is the bit-length of the largest element's
bit-length (at most 7).  Small elements get cheap; the prefix is the rent.
"""

import numpy as np

from ccmatrix import SmMatrix, VlbMatrix, bit_length

row = [[900, 1023, 721, 256, 1, 10, 700, 20]]
m = VlbMatrix.compress(row)
sm_bits = SmMatrix.compress(row).bits_used

print(f"prefix width k = {m.k} (bit_length of bit_length(1023) = {bit_length(bit_length(1023))})")
print("per-element cost (prefix + payload):")
pos = 0
for v in row[0]:
    b = bit_length(v)
    print(f"  {v:>5}: {m.k} + {b:>2} = {m.k + b:>2} bits")
    pos += m.k + b
print(f"total: {m.bits_used} bits (fixed-width needs {sm_bits})")
print("on this tiny max-1023 row the fixed-width codec wins;")
print("spread the bit-lengths out and the prefixes start paying for themselves:")

spread = np.array([[1, 2, 1, 3, 1, 2, 1, 2**40]], dtype=np.uint64)
print(f"  {spread.tolist()[0]}")
print(f"  fixed-width: {SmMatrix.compress(spread).bits_used} bits")
print(f"  prefixed:    {VlbMatrix.compress(spread).bits_used} bits")

print()
print("=== seekable access via a two-level directory ===")
big = np.random.default_rng(1).integers(0, 2**20, size=(40, 40), dtype=np.uint64)
c = VlbMatrix.compress(big)
print(f"{len(c.checkpoints)} int64 checkpoints every 64 elements: {c.checkpoints.nbytes} bytes")
print(f"{len(c.offsets)} {c.offsets.dtype} offsets every 8 elements: {c.offsets.nbytes} bytes")
print(f"beside {c.data.words.nbytes} bytes of words; containers store neither level")
print(f"get(31, 17) = {c.get(31, 17)} == dense value {big[31, 17]}")

print()
print("=== values() decodes one sub-lane per offset and roundtrips losslessly ===")
decoded = m.values().tolist()
print("decoded:", decoded)
print("roundtrip exact:", (m.decompress() == np.array(row, dtype=np.uint64)).all())

print()
print("=== blocks(): every element, a block at a time through one reused buffer ===")
large = np.random.default_rng(2).integers(0, 2**20, size=(300, 300), dtype=np.uint64)
for packed in (VlbMatrix.compress(large), SmMatrix.compress(large)):
    total, firsts = 0, []
    for first, block in packed.blocks():  # elements first.. as a uint64 view of one buffer
        total += int(block.sum())
        firsts.append(first)
    print(f"{type(packed).__name__}: {len(firsts)} blocks from elements {firsts[:3]}...,")
    print(f"  sum {total} == {int(large.sum())}, never more than one block decoded at once")
