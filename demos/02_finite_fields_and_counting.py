"""Finite fields, the affine group, and the three counting engines.

A representation of a genus-g surface group is a 2g-tuple of affine maps
x |-> ax + b whose commutators multiply to the identity.  We count such
tuples over small finite fields two independent ways, evaluate the
stratification's closed form at q as the third engine, and watch the
answers coincide.
"""

from affrep import (
    aff_elements,
    count_naive,
    count_points,
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
    closed = count_points(field, 1, "closed").count
    marker = "ok" if naive == semi == closed else "MISMATCH"
    print(f"  q={q}: naive={naive} semi={semi} closed={closed}  [{marker}]")

# naive counts on the group-law table alone, |G|^2 = (q(q-1))^2 entries: the
# commuting pairs at genus 1, |G| per conjugacy class, from q class gathers
# of about 3|G| steps (an abelian table would take |G| of them), and above it
# the tuples folded by the value of their commutator product; semi counts one
# handle's commutators from q alone and chains the handles by a 2x2 recurrence
f19 = make_field(19, 1)
record = count_semi(f19, 3)
print(f"\ngenus 3 over F_19: {record.count}")
print(f"  ({record.elapsed * 1000:.3f} ms for 3 steps of the handle chain)")
print(f"  closed form agrees: {count_points(f19, 3, 'closed').count == record.count}")
