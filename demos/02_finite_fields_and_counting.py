"""Finite fields, the affine group, and the three counting engines.

A representation of a genus-g surface group is a 2g-tuple of affine maps
x |-> ax + b whose commutators multiply to the identity.  We count such
tuples over small finite fields three independent ways and watch the
answers coincide.
"""

from affrep import (
    aff_elements,
    count_closed,
    count_naive,
    count_semi,
    make_field,
)

# extension fields come with a deterministic irreducible modulus
for p, n in [(2, 2), (2, 3), (3, 2)]:
    field = make_field(p, n)
    print(f"F_{field.order} = F_{p}[X] / ({field.modulus_text()})")

f4 = make_field(2, 2)
print(f"\nAff(1, F_4) has {len(aff_elements(f4))} elements")

print("\ngenus 1, all engines:")
for q, (p, n) in [(2, (2, 1)), (3, (3, 1)), (4, (2, 2)), (5, (5, 1))]:
    field = make_field(p, n)
    naive = count_naive(field, 1).count
    semi = count_semi(field, 1).count
    closed = count_closed(q, 1)
    marker = "ok" if naive == semi == closed else "MISMATCH"
    print(f"  q={q}: naive={naive} semi={semi} closed={closed}  [{marker}]")

# naive is the exhaustive sweep over the group-law table, all (q(q-1))^2g
# tuples; the structured engine reaches cells that sweep cannot: it enumerates
# the scaling pairs of one handle and chains the handles by a 2x2 recurrence
f19 = make_field(19, 1)
record = count_semi(f19, 3)
print(f"\ngenus 3 over F_19: {record.count}")
print(f"  ({record.elapsed * 1000:.1f} ms for 18^2 = {18 ** 2} scaling pairs, chained over 3 handles)")
print(f"  closed form agrees: {count_closed(19, 3) == record.count}")
