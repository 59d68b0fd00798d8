"""Recovering the counting polynomial from finitely many point counts.

The genus-g representation variety sits inside a (4g)-fold product of the
three-dimensional group, so its counting polynomial has degree at most
4g - 1 and is pinned down by counts at 4g distinct prime powers.  The
interpolation runs on integers, by Newton divided differences with exact
division, and asserts two consistency conditions that would fail if the
data were not produced by a single integer polynomial: integrality of the
coefficients and agreement at every surplus sample point.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
from typing import Sequence

from .affcount import DEFAULT_GUARD, CountRecord, count_points
from .exactpoly import IntPoly
from .finitefield import DEFAULT_MAX_ORDER, make_field


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

    Takes the divided differences of the first ``degree_bound + 1`` points
    on plain ints, expands that Newton form into the monomial basis, then
    checks that every remaining point lies on the result.

    Every division is exact or raises :class:`NonIntegerCoefficients`, and
    that is the integrality test: an integer polynomial has integer divided
    differences at integer nodes, and a Newton form with integer nodes and
    integer divided differences has integer coefficients.
    """
    if degree_bound < 0:
        raise ValueError("degree bound must be non-negative")
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise DuplicateAbscissa(f"abscissae {xs} are not pairwise distinct")
    if len(points) < degree_bound + 1:
        raise ValueError(f"need at least {degree_bound + 1} points, got {len(points)}")
    nodes = xs[: degree_bound + 1]
    # after step j, diffs[i] = f[x_{i-j}, ..., x_i] for i >= j
    diffs = [y for _, y in points[: degree_bound + 1]]
    for j in range(1, degree_bound + 1):
        for i in range(degree_bound, j - 1, -1):
            num, den = diffs[i] - diffs[i - 1], nodes[i] - nodes[i - j]
            quot, rem = divmod(num, den)
            if rem:
                raise NonIntegerCoefficients(
                    f"divided difference {num}/{den} is not an integer"
                )
            diffs[i] = quot
    # Horner on the Newton form: coeffs <- coeffs * (q - x_k) + f[x_0, ..., x_k]
    coeffs = [diffs[degree_bound]]
    for k in range(degree_bound - 1, -1, -1):
        coeffs = [lo - nodes[k] * hi for lo, hi in zip([diffs[k]] + coeffs, coeffs + [0])]
    result = IntPoly(coeffs)
    for x, y in points[degree_bound + 1 :]:
        if result(x) != y:
            raise ExtraPointMismatch(
                f"interpolant gives {result(x)} at {x}, sample says {y}"
            )
    return result


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
    """The ``count`` smallest prime powers >= 2: 2, 3, 4, 5, 7, 8, 9, 11, ...

    Searches up to :data:`DEFAULT_MAX_ORDER`, the largest order
    :func:`make_field` builds; raises :class:`ValueError` when fewer than
    ``count`` prime powers lie within it.
    """
    candidates = (m for m in range(2, DEFAULT_MAX_ORDER + 1) if prime_power(m))
    out = tuple(itertools.islice(candidates, count))
    if len(out) < count:
        raise ValueError(
            f"{count} prime powers needed, only {len(out)} are <= {DEFAULT_MAX_ORDER}, "
            "the largest field order"
        )
    return out


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
    try:
        powers = smallest_prime_powers(4 * genus)
    except ValueError as exc:
        raise ValueError(f"no default plan for genus {genus}: {exc}") from None
    return SamplePlan(genus, powers)


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
    """Parse a comma-separated prime-power list into a plan.

    A token that is not an integer raises :class:`ValueError` naming it.
    """
    powers = []
    for tok in filter(str.strip, text.split(",")):
        try:
            powers.append(int(tok))
        except ValueError:
            raise ValueError(f"{tok.strip()!r} is not an integer") from None
    return SamplePlan(genus, tuple(powers))
