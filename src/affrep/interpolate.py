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
import io
import itertools
import sys
from math import isqrt
from typing import Sequence

from .affcount import Budget, CountRecord, charge_ahead, count_charge, count_points
from .exactpoly import Immutable, IntPoly, Record, words
from .finitefield import DEFAULT_MAX_ORDER, FieldOrder


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


def division_charge(m: int) -> tuple:
    """``Budget.charge``'s arguments to factor m >= 2: isqrt(m) - 1 trial divisions, naming m."""
    divisions = isqrt(m) - 1
    return divisions, "abscissa {} needs up to {} trial divisions to factor", m, divisions


def prime_power(m: int, budget: Budget | None = None) -> tuple[int, int] | None:
    """Decompose m as p^k for prime p, or return None.

    The smallest prime factor is found by trial division up to isqrt(m);
    those divisions (:func:`division_charge`) are charged to ``budget`` (a
    fresh default-guard :class:`Budget` if None) first.
    """
    if m >= 2:
        (budget or Budget()).charge(*division_charge(m))
    return _prime_power(m)


def charge_factoring(budget: Budget, abscissae: Sequence[int]) -> None:
    """Refuse now the trial divisions :func:`prime_power` would charge for all ``abscissae``.

    That is isqrt(m) - 1 for each m >= 2, refused as one total before any
    m is factored; each :func:`prime_power` call then charges its share.
    """
    divisions = sum(isqrt(m) - 1 for m in abscissae if m >= 2)
    what = "the {} abscissae, to q = {}, need up to {} trial divisions in all, to factor them"
    charge_ahead(budget, divisions, what, len(abscissae), max(abscissae, default=0), divisions)


def _prime_power(m: int) -> tuple[int, int] | None:
    # the factoring prime_power charges for
    if m < 2:
        return None
    p = next((d for d in range(2, isqrt(m) + 1) if m % d == 0), m)
    k = 0
    while m % p == 0:
        m //= p
        k += 1
    return (p, k) if m == 1 else None


def _smallest_factored(count: int) -> list[tuple[int, tuple[int, int]]]:
    # the count smallest prime powers m, each with its (p, k), factored once
    factored = ((m, _prime_power(m)) for m in range(2, DEFAULT_MAX_ORDER + 1))
    out = list(itertools.islice(((m, pk) for m, pk in factored if pk), count))
    if len(out) < count:
        raise ValueError(
            f"{count} prime powers needed, only {len(out)} are <= {DEFAULT_MAX_ORDER}, "
            "the largest field order"
        )
    return out


def smallest_prime_powers(count: int) -> tuple[int, ...]:
    """The ``count`` smallest prime powers >= 2: 2, 3, 4, 5, 7, 8, 9, 11, ...

    Searches up to :data:`DEFAULT_MAX_ORDER`, the largest order
    :func:`~affrep.finitefield.make_field` builds; raises
    :class:`ValueError` when fewer than ``count`` prime powers lie within it.
    """
    return tuple(m for m, _ in _smallest_factored(count))


class SamplePlan(Immutable):
    """Which prime powers to count over for a given genus, each with its (p, n).

    The trial division that checks the prime powers is charged to ``budget``
    (a fresh default-guard :class:`Budget` if None), its total refused
    before any is factored (:func:`charge_factoring`).  A caller that
    already factored them, as :func:`default_plan`'s search does, passes
    their ``factors``; each power is then charged but not factored again.
    """

    __slots__ = ("genus", "prime_powers", "factors")
    genus: int
    prime_powers: tuple[int, ...]
    factors: tuple[tuple[int, int], ...]

    def __init__(
        self,
        genus: int,
        prime_powers: tuple[int, ...],
        budget: Budget | None = None,
        factors: tuple[tuple[int, int], ...] | None = None,
    ):
        if genus < 1:
            raise ValueError("genus must be >= 1")
        if len(set(prime_powers)) != len(prime_powers):
            raise DuplicateAbscissa("plan prime powers must be pairwise distinct")
        if len(prime_powers) < 4 * genus:
            raise ValueError(f"plan needs at least {4 * genus} prime powers for genus {genus}")
        budget = budget or Budget()
        charge_factoring(budget, prime_powers)
        if factors is None:
            factors = []
            for m in prime_powers:
                factor = prime_power(m, budget)
                if factor is None:
                    raise ValueError(f"{m} is not a prime power")
                factors.append(factor)
        else:
            for m in prime_powers:
                budget.charge(*division_charge(m))
        super().__init__(genus, prime_powers, tuple(factors))

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
        found = _smallest_factored(4 * genus)
    except ValueError as exc:
        raise ValueError(f"no default plan for genus {genus}: {exc}") from None
    return SamplePlan(genus, tuple(m for m, _ in found), factors=tuple(pk for _, pk in found))


class EPolyResult(Record):
    """Counting polynomial recovered from a plan's point counts."""

    __slots__ = ("genus", "plan", "records", "epoly")
    genus: int
    plan: SamplePlan
    records: list[CountRecord]
    epoly: IntPoly


def interpolation_charge(genus: int, samples: int, bits: int) -> tuple:
    """``Budget.charge``'s arguments to interpolate ``samples`` points at genus g.

    The divided differences and the Newton expansion of the first 4g points
    take about (4g)^2 steps, and checking each surplus point takes 4g
    Horner steps: 4g steps per point, each weighted by the 64-bit words of
    the largest sample, of up to ``bits`` bits.
    """
    steps = 4 * genus * samples * words(bits)
    what = "interpolating {} samples of up to {} bits at genus {} needs {} units"
    return steps, what, samples, bits, genus, steps


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
    budget: Budget | None = None,
) -> EPolyResult:
    """Count points at each prime power of the plan and interpolate.

    Each count charges ``budget``, then the interpolation
    (:func:`interpolation_charge`, on counts of up to 4g times the bits of
    the largest q), and their total is refused before the first count.  The
    returned polynomial reproduces every gathered count by construction
    (the interpolation verifies surplus points and the plan covers the
    degree bound exactly or better).
    """
    if plan is None:
        plan = default_plan(genus)
    if plan.genus != genus:
        raise ValueError(f"plan is for genus {plan.genus}, not {genus}")
    budget, powers = budget or Budget(), plan.prime_powers
    interpolation = interpolation_charge(genus, len(powers), 4 * genus * max(powers).bit_length())
    total = sum(count_charge(m, genus, engine)[0] for m in powers) + interpolation[0]
    what = "the plan's {} {} counts and their interpolation, to q = {}, need {} units in all"
    charge_ahead(budget, total, what, len(powers), engine, max(powers), total)
    records = []
    for p, n in plan.factors:
        # refused here as make_field would refuse it; only a table engine builds F_q
        records.append(count_points(FieldOrder(p, n), genus, engine=engine, budget=budget))
    budget.charge(*interpolation)
    samples = [(rec.q, rec.count) for rec in records]
    epoly = epoly_from_samples(genus, samples)
    return EPolyResult(genus, plan, records, epoly)


def int_str_limit() -> int:
    """CPython's limit on the digits of an int converted to or from a string.

    ``PYTHONINTMAXSTRDIGITS`` sets it; 0 means no limit, as on an
    interpreter older than 3.10.7.
    """
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


ECHO_CHARS = 60


class CellTooLong(ValueError):
    """A CSV cell has more digits than CPython converts from a string."""


def row_error(where: str, kind: str, row: object, cells: Sequence[str]) -> ValueError:
    """The error for a ``kind`` row whose ``cells`` do not all parse as integers.

    A cell with more decimal digits than :func:`int_str_limit` gives
    :class:`CellTooLong`; any other failure is "malformed".  The row is
    echoed as its repr, cut to the first ``ECHO_CHARS`` characters and the
    repr's length when longer.
    """
    echo = repr(row)
    if len(echo) > ECHO_CHARS:
        echo = f"{echo[:ECHO_CHARS]}... ({len(echo)} characters)"
    limit = int_str_limit()
    digits = max((sum(map(str.isdecimal, cell)) for cell in cells), default=0)
    if limit and digits > limit:
        return CellTooLong(
            f"{where}: {kind} row {echo} has a cell of {digits} digits, over Python's "
            f"int-from-str limit of {limit} (PYTHONINTMAXSTRDIGITS sets it)"
        )
    return ValueError(f"{where}: malformed {kind} row {echo}")


def utf8_text(raw: bytes, source: str) -> str:
    """``raw`` as UTF-8 text, or a :class:`ValueError` naming ``source`` and its first bad byte."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        bad = f"byte {exc.start} is {raw[exc.start]:#04x}"
    raise ValueError(f"{source}: not UTF-8, {bad}")


def samples_from_csv(path: str) -> list[tuple[int, int]]:
    """Read ``q,count`` rows; the first line may be a header, with no number in it.

    The file is read as UTF-8.  Rows of blank cells are skipped.  Any other row whose
    first two cells are not integers, or with a nonblank later cell, raises the
    :class:`ValueError` of :func:`row_error`, naming its line, so no row or cell is dropped.
    """
    out: list[tuple[int, int]] = []
    with open(path, "rb") as fh:
        reader = csv.reader(io.StringIO(utf8_text(fh.read(), path), newline=""))
    for row in reader:
        if not any(cell.strip() for cell in row):
            continue
        where = f"{path}, line {reader.line_num}"
        try:
            q = int(row[0])
        except ValueError:
            if reader.line_num == 1 and not any(c.strip(" +-").isdecimal() for c in row):
                continue  # a header: no cell holds a number
            raise row_error(where, "sample", row, row[:1]) from None
        if any(cell.strip() for cell in row[2:]):
            raise row_error(where, "sample", row, row[2:])
        try:
            out.append((q, int(row[1])))
        except (IndexError, ValueError):
            raise row_error(where, "sample", row, row[1:2]) from None
    return out


def plan_from_text(genus: int, text: str, budget: Budget | None = None) -> SamplePlan:
    """Parse a comma-separated prime-power list into a plan.

    A token that is empty or not an integer raises :class:`ValueError`
    naming it, so no entry is dropped; the prime-power checks charge
    ``budget`` as in :class:`SamplePlan`, all of them before the first.
    """
    powers = []
    for position, tok in enumerate(text.split(","), start=1):
        if not tok.strip():
            raise ValueError(f"entry {position} is empty")
        try:
            powers.append(int(tok))
        except ValueError:
            raise ValueError(f"{tok.strip()!r} is not an integer") from None
    return SamplePlan(genus, tuple(powers), budget)
