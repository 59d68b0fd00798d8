"""Exact polynomial arithmetic in the motive variable q.

Everything downstream is built on Z[q] with arbitrary-precision integer
coefficients: classes of varieties multiply and add like polynomials, and
exact division takes the place of localization.
"""

from itertools import islice

from affrep import ONE, Q, ZERO, NotDivisible
from affrep.exactpoly import chain

group_class = Q * (Q - ONE)
print(f"class of the affine group of the line: {group_class}")

print(f"torus of rank 4: {(Q - ONE) ** 4}")

# evaluation at a prime power predicts a point count over that field
genus_one = Q**3 - Q**2
for q in (2, 3, 4, 5):
    print(f"genus-1 class at q={q}: {genus_one(q)}")

# exact division succeeds only when the quotient stays in Z[q]
product = genus_one * group_class**2
print(f"({product}) / ({group_class})^2 = {product.exact_div(group_class ** 2)}")
try:
    (Q**2 + ONE).exact_div(Q - ONE)
except NotDivisible as exc:
    print(f"as expected: {exc}")

# a 2x2 matrix is a pair of rows; its chain, the top-left entries of its
# powers, is what glues surfaces: [[q, 1], [1, 0]] gives Fibonacci polynomials
for k, fib in enumerate(islice(chain(((Q, ONE), (ONE, ZERO))), 5), start=1):
    print(f"top-left of [[q, 1], [1, 0]]^{k}: {fib}")
