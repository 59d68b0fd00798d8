"""Recovering the counting polynomial from finitely many point counts.

The genus-g representation variety sits inside a (4g)-fold product of the
three-dimensional group, so its counting polynomial has degree at most
4g - 1 and is pinned down by counts at 4g distinct prime powers.  The
interpolation runs in exact rational arithmetic and then asserts two
consistency conditions that would fail if the data were not produced by a
single integer polynomial: integrality of the coefficients and agreement at
every surplus sample point.
"""

from __future__ import annotations

import csv
import dataclasses
from fractions import Fraction
from typing import Sequence

from .affcount import DEFAULT_GUARD, CountRecord, count_points
from .exactpoly import IntPoly, RatPoly
from .finitefield import make_field


class DuplicateAbscissa(ValueError):
    """Two sample points share an x value."""


class NonIntegerCoefficients(ValueError):
    """The interpolant has a fractional coefficient; the data is not
    consistent with an integer counting polynomial."""


class ExtraPointMismatch(ValueError):
    """A surplus sample disagrees with the interpolant; either the degree
    bound is too low or a count is corrupted."""


class DegreeMismatch(ValueError):
    """The interpolant's degree differs from the dimension bound."""


def lagrange_interpolate(points: Sequence[tuple[int, int]], degree_bound: int) -> IntPoly:
    """The unique integer polynomial of degree <= ``degree_bound`` through the points.

    Interpolates the first ``degree_bound + 1`` points exactly over the
    rationals, then checks integrality and that every remaining point lies
    on the result.
    """
    if degree_bound < 0:
        raise ValueError("degree bound must be non-negative")
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise DuplicateAbscissa(f"abscissae {xs} are not pairwise distinct")
    if len(points) < degree_bound + 1:
        raise ValueError(f"need at least {degree_bound + 1} points, got {len(points)}")
    base = points[: degree_bound + 1]
    acc = RatPoly()
    for i, (xi, yi) in enumerate(base):
        basis = RatPoly([1])
        denom = 1
        for j, (xj, _) in enumerate(base):
            if j == i:
                continue
            basis = basis * RatPoly([-xj, 1])
            denom *= xi - xj
        acc = acc + basis * Fraction(yi, denom)
    try:
        result = acc.to_integer()
    except ValueError as exc:
        raise NonIntegerCoefficients(str(exc)) from None
    for x, y in points[degree_bound + 1 :]:
        if result(x) != y:
            raise ExtraPointMismatch(
                f"interpolant gives {result(x)} at {x}, sample says {y}"
            )
    return result


_SMALL_PRIMES_LIMIT = 1000


def prime_power(m: int) -> tuple[int, int] | None:
    """Decompose m as p^k for prime p, or return None."""
    if m < 2:
        return None
    p = next((d for d in range(2, m + 1) if m % d == 0), m)
    k = 0
    while m % p == 0:
        m //= p
        k += 1
    return (p, k) if m == 1 else None


def smallest_prime_powers(count: int) -> tuple[int, ...]:
    """The ``count`` smallest prime powers >= 2: 2, 3, 4, 5, 7, 8, 9, 11, ..."""
    out = []
    m = 2
    while len(out) < count:
        if prime_power(m) is not None:
            out.append(m)
        m += 1
        if m > _SMALL_PRIMES_LIMIT:
            raise ValueError("prime-power search bound exhausted")
    return tuple(out)


@dataclasses.dataclass(frozen=True)
class SamplePlan:
    """Which prime powers to count over for a given genus."""

    genus: int
    prime_powers: tuple[int, ...]

    def __post_init__(self):
        if self.genus < 1:
            raise ValueError("genus must be >= 1")
        if len(set(self.prime_powers)) != len(self.prime_powers):
            raise DuplicateAbscissa("plan prime powers must be pairwise distinct")
        if len(self.prime_powers) < self.degree_bound + 1:
            raise ValueError(
                f"plan needs at least {self.degree_bound + 1} prime powers for genus {self.genus}"
            )
        for m in self.prime_powers:
            if prime_power(m) is None:
                raise ValueError(f"{m} is not a prime power")

    @property
    def degree_bound(self) -> int:
        # the variety embeds in a (4g)-fold product of a 3-dimensional group,
        # minus one relation, so the counting polynomial has degree <= 4g - 1
        return 4 * self.genus - 1


def default_plan(genus: int) -> SamplePlan:
    """The 4g smallest prime powers; for genus 3 this is 2, 3, 4, ..., 19."""
    if genus < 1:
        raise ValueError("genus must be >= 1")
    return SamplePlan(genus, smallest_prime_powers(4 * genus))


@dataclasses.dataclass
class EPolyResult:
    """Counting polynomial recovered from a plan's point counts."""

    genus: int
    plan: SamplePlan
    records: list[CountRecord]
    epoly: IntPoly


def epoly_from_samples(genus: int, samples: Sequence[tuple[int, int]]) -> IntPoly:
    """Interpolate pre-computed (q, count) samples for the given genus.

    Checks the interpolant has the expected degree 4g - 1 on top of the
    integrality and surplus-point checks.
    """
    if genus < 1:
        raise ValueError("genus must be >= 1")
    degree_bound = 4 * genus - 1
    result = lagrange_interpolate(samples, degree_bound)
    if result.degree != degree_bound:
        raise DegreeMismatch(
            f"interpolant has degree {result.degree}, expected {degree_bound} for genus {genus}"
        )
    return result


def epoly_from_counts(
    genus: int,
    plan: SamplePlan | None = None,
    engine: str = "semi",
    guard: int = DEFAULT_GUARD,
) -> EPolyResult:
    """Count points at each prime power of the plan and interpolate.

    The returned polynomial reproduces every gathered count by construction
    (the interpolation verifies surplus points and the plan covers the
    degree bound exactly or better).
    """
    if plan is None:
        plan = default_plan(genus)
    if plan.genus != genus:
        raise ValueError(f"plan is for genus {plan.genus}, not {genus}")
    records = []
    for m in plan.prime_powers:
        p, k = prime_power(m)  # plan validation guarantees this decomposes
        field = make_field(p, k)
        records.append(count_points(field, genus, engine=engine, guard=guard))
    samples = [(rec.q, rec.count) for rec in records]
    epoly = epoly_from_samples(genus, samples)
    return EPolyResult(genus=genus, plan=plan, records=records, epoly=epoly)


def samples_from_csv(path: str) -> list[tuple[int, int]]:
    """Read ``q,count`` rows; the first line may be a header.

    Blank lines are skipped.  Any other row whose first two cells are not
    integers raises :class:`ValueError` naming its line, so a bad row is
    never dropped.
    """
    out: list[tuple[int, int]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or not row[0].strip():
                continue
            malformed = ValueError(f"{path}, line {reader.line_num}: malformed sample row {row!r}")
            try:
                q = int(row[0])
            except ValueError:
                if reader.line_num == 1:
                    continue  # header
                raise malformed from None
            try:
                out.append((q, int(row[1])))
            except (IndexError, ValueError):
                raise malformed from None
    return out


def plan_from_text(genus: int, text: str) -> SamplePlan:
    """Parse a comma-separated prime-power list into a plan."""
    powers = tuple(int(tok) for tok in text.split(",") if tok.strip())
    return SamplePlan(genus, powers)
