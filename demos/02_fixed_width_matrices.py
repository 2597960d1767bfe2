"""Fixed-width compression: every element in a chunk sized for the largest.

One 64-bit word holds six 10-bit elements with four bits left over, so a
row of values up to 1023 packs at 10 bits per element instead of 64.
Random access stays O(1): an element is one field read.
"""

import numpy as np

from ccmatrix import SmMatrix, measure

row = [[900, 1023, 721, 256, 1, 10, 700, 20]]
m = SmMatrix.compress(row)

print(f"matrix {m.rows}x{m.cols}, chunk width {m.width} bits")
print(f"bits used: {m.bits_used} (vs {64 * 8} uncompressed)")
print(f"words: {[f'{w:064b}' for w in m.data.words[: m.data.word_count]]}")

print()
print("element (0, 6) straddles the word boundary:", m.get(0, 6))
print("full decode:", m.decompress().tolist())

print()
print("=== in-place update within the chunk width ===")
m.set(0, 4, 512)
print("after set(0, 4, 512):", m.decompress().tolist())
m.set(0, 4, 1)

print()
print("=== widening when a larger value must fit ===")
wide = m.widen(11)
print(f"widened copy uses {wide.bits_used} bits at width {wide.width}")
wide.set(0, 0, 2047)
print("now holds 2047:", wide.get(0, 0))

print()
print("=== an entire 8x8 bit-matrix in one word ===")
bits = (np.arange(64).reshape(8, 8) % 2).astype(np.uint64)
tiny = SmMatrix.compress(bits)
print(f"width {tiny.width}, words {tiny.data.word_count}, bits used {tiny.bits_used}")
print(f"storage efficiency: {measure(tiny).eta:.6f}")
