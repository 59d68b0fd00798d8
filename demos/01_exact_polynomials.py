"""Exact polynomial arithmetic in the motive variable q.

Everything downstream is built on Z[q] with arbitrary-precision integer
coefficients: classes of varieties multiply and add like polynomials, and
exact division takes the place of localization.
"""

from affrep import ONE, Q, IntPoly, NotDivisible, PolyMatrix

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

# polynomial matrices scale and take traces exactly, entry by entry
fib = PolyMatrix.from_rows([[Q, ONE], [ONE, IntPoly()]])
print(f"trace of (q - 1) [[q, 1], [1, 0]]: {fib.scale(Q - ONE).trace()}")
