"""From finitely many point counts to the whole counting polynomial.

The genus-g representation variety has dimension at most 4g - 1, so its
counting polynomial is pinned down by exact counts at 4g prime powers.
Interpolation runs on integers (Newton divided differences), and every
division must be exact; a corrupted count or an undersized degree bound
raises instead of producing a wrong polynomial.
"""

from affrep import (
    ExtraPointMismatch,
    default_plan,
    epoly_from_counts,
    lagrange_interpolate,
)

for genus in (1, 2):
    plan = default_plan(genus)
    result = epoly_from_counts(genus, plan)
    print(f"genus {genus}, counts at q in {plan.prime_powers}:")
    for rec in result.records:
        print(f"  q={rec.q}: {rec.count}")
    print(f"  => {result.epoly}\n")

# the interpolation is self-checking: surplus points must lie on the curve
corrupted = [(2, 4), (3, 18), (4, 48), (5, 100), (7, 295)]
try:
    lagrange_interpolate(corrupted, 3)
except ExtraPointMismatch as exc:
    print(f"corrupted sample detected: {exc}")

good = corrupted[:4] + [(7, 7**3 - 7**2)]
print(f"with the corrected sample: {lagrange_interpolate(good, 3)}")
