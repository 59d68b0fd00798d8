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
from math import isqrt
from typing import Sequence

from .affcount import Budget, CountRecord, charge_ahead, count_charge, count_points
from .exactpoly import IntPoly, Record, words
from .finitefield import DEFAULT_MAX_ORDER, FieldOrder, over_int_str_limit, short_repr


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


ABSCISSAE = "the {} abscissae, to q = {}, need up to {} trial divisions in all, to factor them"


def factor_orders(
    budget: Budget, orders: Sequence[int], later: int = 0, what: str = ABSCISSAE
) -> tuple[tuple[int, int], ...]:
    """Each of ``orders`` as its (p, n), or "{m} is not a prime power".

    The trial divisions that factor them all, isqrt(m) - 1 for each m >= 2,
    plus ``later`` units the caller charges next, are refused as one total
    before any m is factored; ``what`` names that total, formatted with the
    number of orders, the largest and the total.  Each :func:`prime_power`
    call then charges its share.
    """
    total = later + sum(isqrt(m) - 1 for m in orders if m >= 2)
    charge_ahead(budget, total, what, len(orders), max(orders, default=0), total)
    factors = []
    for m in orders:
        factor = prime_power(m, budget)
        if factor is None:
            raise ValueError(f"{m} is not a prime power")
        factors.append(factor)
    return tuple(factors)


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


def default_plan(genus: int) -> tuple[tuple[int, int], ...]:
    """The (p, n) of the 4g smallest prime powers; for genus 3 these are 2, 3, 4, ..., 19."""
    if genus < 1:
        raise ValueError("genus must be >= 1")
    try:
        found = _smallest_factored(4 * genus)
    except ValueError as exc:
        raise ValueError(f"no default plan for genus {genus}: {exc}") from None
    return tuple(pk for _, pk in found)


class EPolyResult(Record):
    """Counting polynomial recovered from a plan's point counts."""

    __slots__ = ("records", "epoly")
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
    # the variety embeds in a (4g)-fold product of a 3-dimensional group,
    # minus one relation, so the counting polynomial has degree <= 4g - 1
    degree_bound = 4 * genus - 1
    result = lagrange_interpolate(samples, degree_bound)
    if result.degree != degree_bound:
        raise DegreeMismatch(
            f"interpolant has degree {result.degree}, expected {degree_bound} for genus {genus}"
        )
    return result


def epoly_from_counts(
    genus: int,
    plan: Sequence[tuple[int, int]] | None = None,
    engine: str = "semi",
    budget: Budget | None = None,
) -> EPolyResult:
    """Count points at each (p, n) of the plan (:func:`default_plan` if None) and interpolate.

    Each count charges ``budget``, then the interpolation
    (:func:`interpolation_charge`, on counts of up to 4g times the bits of
    the largest q), and their total is refused before the first count.  The
    returned polynomial reproduces every gathered count by construction
    (the interpolation verifies surplus points and the plan covers the
    degree bound exactly or better).  A pair whose n is below 1 or past the
    bit length of :data:`~affrep.finitefield.DEFAULT_MAX_ORDER` is refused
    as :class:`~affrep.finitefield.FieldOrder` refuses it, before any power
    of the plan is built.
    """
    if plan is None:
        plan = default_plan(genus)
    for p, n in plan:
        # refused as FieldOrder refuses it, before any power p^n is built
        if not 1 <= n <= DEFAULT_MAX_ORDER.bit_length():
            FieldOrder(p, n)
    budget, powers = budget or Budget(), [p**n for p, n in plan]
    interpolation = interpolation_charge(genus, len(powers), 4 * genus * max(powers).bit_length())
    total = sum(count_charge(m, genus, engine)[0] for m in powers) + interpolation[0]
    what = "the plan's {} {} counts and their interpolation, to q = {}, need {} units in all"
    charge_ahead(budget, total, what, len(powers), engine, max(powers), total)
    records = []
    for p, n in plan:
        # refused here as make_field would refuse it; only a table engine builds F_q
        records.append(count_points(FieldOrder(p, n), genus, engine=engine, budget=budget))
    budget.charge(*interpolation)
    samples = [(rec.q, rec.count) for rec in records]
    return EPolyResult(records, epoly_from_samples(genus, samples))


class CellTooLong(ValueError):
    """A CSV cell has more digits than CPython converts from a string."""


def row_error(where: str, kind: str, row: object, cells: Sequence[str]) -> ValueError:
    """The error for a ``kind`` row whose ``cells`` do not all parse as integers.

    A cell with more decimal digits than
    :func:`~affrep.finitefield.int_str_limit` gives :class:`CellTooLong`;
    any other failure is "malformed".  The row is echoed by
    :func:`~affrep.finitefield.short_repr`.
    """
    echo = short_repr(row)
    digits = max((sum(map(str.isdecimal, cell)) for cell in cells), default=0)
    over = over_int_str_limit(digits)
    if over:
        return CellTooLong(f"{where}: {kind} row {echo} has a cell of {digits} digits, {over}")
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


def plan_from_text(
    genus: int, text: str, budget: Budget | None = None
) -> tuple[tuple[int, int], ...]:
    """Parse a comma-separated prime-power list into a plan, the (p, n) of each.

    A token that is empty or not an integer raises :class:`ValueError`
    naming it, so no entry is dropped: by its position and digits if they
    pass :func:`~affrep.finitefield.int_str_limit`, else by
    :func:`~affrep.finitefield.short_repr`.  Then a genus under 1, a
    repeated power or fewer than 4g powers is refused, and the powers are
    factored by :func:`factor_orders`, charging ``budget`` (a fresh
    default-guard :class:`Budget` if None), all of them before the first.
    """
    powers = []
    for position, tok in enumerate(text.split(","), start=1):
        if not tok.strip():
            raise ValueError(f"entry {position} is empty")
        try:
            powers.append(int(tok))
        except ValueError:
            digits = sum(map(str.isdecimal, tok))
            over = over_int_str_limit(digits)
            if over:
                raise ValueError(f"entry {position} has {digits} digits, {over}") from None
            raise ValueError(f"{short_repr(tok.strip())} is not an integer") from None
    if genus < 1:
        raise ValueError("genus must be >= 1")
    if len(set(powers)) != len(powers):
        raise DuplicateAbscissa("plan prime powers must be pairwise distinct")
    if len(powers) < 4 * genus:
        raise ValueError(f"plan needs at least {4 * genus} prime powers for genus {genus}")
    return factor_orders(budget or Budget(), powers)
