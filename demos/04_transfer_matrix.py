"""Closing surfaces with a 2x2 transfer matrix over Z[q].

Cutting the genus-g surface into a disc, g holed tori and a cap reduces the
class computation to gluing: the disc's circle state passes through one
matrix once per holed torus (the matrix's chain), and the cap keeps the
identity coordinate.  The matrix is normalized once, before the chain, by
the group class q(q-1) and by the power of q its entries then share, which
each class gets back as a shift, so the chain's states carry no factor q.
Written in u = q - 1 those states have coefficients 0, 1 and -1 alone, so
one genus is glued in u, on ints that pack a state one coefficient to a
byte, and shifted back to q once.  The matrix is
assembled from fiber classes and passes its eigen-identities as exact
polynomial equalities.
"""

from itertools import islice

from affrep import build_transfer, close_surface, eigen_verify, reconstruct_transfer
from affrep.exactpoly import ONE, Q, Packing, chain, taylor_shift
from affrep.tqft import GROUP_CLASS

matrix = build_transfer()  # a pair of rows; every assembly identity is re-verified here
print("transfer matrix:")
for row in matrix:
    print("  [" + ", ".join(str(e) for e in row) + "]")

print("\nclosed surfaces:")
for genus in range(1, 6):
    print(f"  genus {genus}: {close_surface(genus, matrix)}")

print("\neigen-identities of the normalized matrix:")
for name, ok in eigen_verify(matrix):
    print(f"  {name}: {'pass' if ok else 'FAIL'}")

# the whole matrix can be rebuilt from the three smallest closed surfaces
a, b, d = reconstruct_transfer(
    close_surface(1, matrix), close_surface(2, matrix), close_surface(3, matrix)
)
print("\nreconstructed from genus 1-3 data (lower-left normalized to 1):")
print(f"  a = {a}\n  b = {b}\n  d = {d}")

# gluing by hand: normalize the matrix once, dividing a and d by the group
# class q(q-1) times q^2, the power of q they then share, and bc by its
# square; the chain of that q-free N gives the top-left entry x_k of N^k by
# the recurrence x_k = tr x_(k-1) - det x_(k-2), two products per holed
# torus, and q^(2k) x_k is the identity coordinate of k glued tori
print()
(a, b), (c, d) = matrix
s = GROUP_CLASS * Q**2
factored = ((a.exact_div(s), (b * c).exact_div(s * s)), (ONE, d.exact_div(s)))
glued = Q**6 * next(islice(chain(factored), 2, None))  # three holed tori
verdict = "" if glued == close_surface(3, matrix) else "  MISMATCH"
print(f"normalize once and glue three tori: {glued}{verdict}")

# the same three tori in u = q - 1: each entry p(q) of N becomes p(u + 1),
# so tr = u^2 + 1 and -det = -u^2, and every state has coefficients 0 and
# +-1; the chain adds rows with no product, and x_3 is shifted back once
(a, bc), (one, d) = factored
in_u = ((taylor_shift(a, 1), taylor_shift(bc, 1)), (one, taylor_shift(d, 1)))
x3 = next(islice(chain(in_u), 2, None))
print(f"  x_3 in u: {str(x3).replace('q', 'u')}")
glued_u = Q**6 * taylor_shift(x3, -1)
verdict = "" if glued_u == glued else "  MISMATCH"
print(f"glue three tori in u and shift back: {glued_u}{verdict}")

# the same chain on ints: each entry evaluated at u = 2^8, one coefficient
# to a byte, so a state x_k of 2k unit coefficients is one int of 2k bytes;
# a state is read back from its bytes, each less a bias, while every
# coefficient lies in the window [-32, 32), which tqft checks at every state
packing = Packing(8, 5, 7)
packed = tuple(tuple(map(packing.pack, row)) for row in in_u)
x3_packed = next(islice(chain(packed), 2, None))
read_back = packing.read(x3_packed)
verdict = "" if read_back == x3 else "  MISMATCH"
print(f"  x_3 read back from the packed chain: {str(read_back).replace('q', 'u')}{verdict}")
