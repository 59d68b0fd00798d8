"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Every comparison is exact; there are no tolerances."""

import itertools
import time

import pytest

from affrep.affcount import (
    aff_elements,
    aff_group_table,
    count_closed,
    count_group_generic,
    count_naive,
    count_semi,
)
from affrep.cli import cmd_table
from affrep.exactpoly import ONE, Q, IntPoly, PolyMatrix
from affrep.finitefield import irreducible_moduli, make_field
from affrep.geomstrat import character_class, moduli_class, rep_class
from affrep.interpolate import epoly_from_counts, lagrange_interpolate, prime_power
from affrep.tqft import build_transfer, close_surface, eigen_verify, reconstruct_transfer

QM1 = Q - ONE


def _report(number: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"acceptance criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def interpolated():
    return {g: epoly_from_counts(g).epoly for g in (1, 2, 3)}


def test_criterion_1_table_reproduction():
    t0 = time.perf_counter()
    report = cmd_table()
    elapsed = time.perf_counter() - t0
    cells = [c for c in report.checks if c["name"].startswith("cell_")]
    big = next(c for c in report.checks if c["name"] == "cell_g3_q19")
    ok = (
        report.passed
        and len(cells) == 24
        and "84217678403958" in big["details"]
        and elapsed < 60
    )
    _report(1, f"all 24 reference cells recomputed exactly in {elapsed:.1f}s", ok)


def test_criterion_2_three_method_agreement(interpolated):
    polynomial_level = all(rep_class(g) == close_surface(g) for g in range(1, 11))
    with_counts = all(
        interpolated[g] == rep_class(g) == close_surface(g) for g in (1, 2, 3)
    )
    _report(2, "stratification, transfer matrix and interpolation agree", polynomial_level and with_counts)


def test_criterion_3_reference_polynomials(interpolated):
    expected = {
        1: Q**3 - Q**2,
        2: Q**7 - 4 * Q**6 + 6 * Q**5 - 3 * Q**4,
        3: Q**11 - 6 * Q**10 + 15 * Q**9 - 20 * Q**8 + 15 * Q**7 - 5 * Q**6,
    }
    ok = all(interpolated[g] == expected[g] for g in (1, 2, 3))
    _report(3, "interpolated counting polynomials match the published forms", ok)


def test_criterion_4_oracle_equivalence():
    pairs = [(q, 1) for q in (2, 3, 4, 5)] + [(q, 2) for q in (2, 3)]
    ok = True
    for q, genus in pairs:
        field = make_field(*prime_power(q))
        oracle = count_naive(field, genus).count
        semi = count_semi(field, genus).count
        ok = ok and oracle == semi == count_closed(q, genus)
    _report(4, "exhaustive table oracle, structured engine and closed form agree", ok)


def test_criterion_5_transfer_matrix_identities():
    try:
        data = build_transfer()  # raises on any assembly or complement failure
    except Exception:
        _report(5, "transfer data assembly", False)
    report = eigen_verify(data)
    _report(5, "transfer assembly, eigenvector, trace and determinant identities", report.passed)


def test_criterion_6_reconstruction():
    data = build_transfer()
    a, b, d = reconstruct_transfer(
        close_surface(1, data), close_surface(2, data), close_surface(3, data)
    )
    entries_ok = (
        a == QM1**2 * Q**3
        and b == QM1**3 * (Q - 2) ** 2 * Q**6
        and d == (Q**2 - 3 * Q + 3) * QM1 * Q**3
    )
    matrix = PolyMatrix.from_rows([[a, b], [ONE, d]])
    group = Q * QM1
    roundtrip_ok = all(
        (matrix**g).entry(0, 0).exact_div(group**g) == close_surface(g, data)
        for g in range(1, 7)
    )
    _report(6, "matrix entries recovered from genus 1-3 data, powers close correctly", entries_ok and roundtrip_ok)


def _diagonal_count(q: int, genus: int) -> int:
    # the diagonal subgroup {(a, 0)} of Aff(1, F_q), re-indexed as its own table
    field = make_field(*prime_power(q))
    table, ident = aff_group_table(field)
    diagonal = [i for i, e in enumerate(aff_elements(field)) if e.b.is_zero()]
    position = {x: k for k, x in enumerate(diagonal)}
    sub = [[position[table[x][y]] for y in diagonal] for x in diagonal]
    return count_group_generic(sub, position[ident], genus)


def test_criterion_7_quotient_classes():
    # every representation degenerates to a diagonal one, so the moduli class
    # is the class of Hom(pi_g, K*): interpolate its point counts
    counted = True
    for g in (1, 2):
        samples = [(q, _diagonal_count(q, g)) for q in (2, 3, 4, 5, 7)[: 2 * g + 1]]
        counted = counted and lagrange_interpolate(samples, 2 * g) == moduli_class(g)
    # the character class equals the moduli class by definition, not by derivation
    closed = all(
        moduli_class(g) == character_class(g) == QM1 ** (2 * g) for g in range(1, 21)
    )
    _report(
        7,
        "moduli class matches interpolated diagonal counts (genus 1, 2); "
        "moduli and character classes equal (q-1)^2g up to genus 20",
        counted and closed,
    )


def test_criterion_8_property_suites():
    ok = True

    # ring axioms and division round trips on a deterministic sample
    sample = [IntPoly([c, c - 3, 2 * c, -c]) for c in range(-4, 5)]
    for x, y, z in itertools.product(sample[:5], repeat=3):
        ok = ok and (x + y) * z == x * z + y * z and (x * y) * z == x * (y * z)
    for x in sample:
        for y in sample:
            if not y.is_zero():
                ok = ok and (x * y).exact_div(y) == x

    # interpolation round trips
    for poly in (Q**5 - 3 * Q, 2 * Q**3 - Q + 5, IntPoly([7])):
        bound = (poly.degree or 0) + 1
        samples = [(x, poly(x)) for x in range(bound + 2)]
        ok = ok and lagrange_interpolate(samples, bound) == poly

    # exhaustive field axioms for every order <= 16
    for p, n in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)]:
        field = make_field(p, n)
        elems = list(field.elements())
        one, zero = field.one(), field.zero()
        for x in elems:
            ok = ok and x + zero == x and x * one == x and x + (-x) == zero
            if not x.is_zero():
                ok = ok and x * x.inv() == one
        for x, y, z in itertools.product(elems, repeat=3):
            ok = ok and (x + y) + z == x + (y + z)
            ok = ok and (x * y) * z == x * (y * z)
            ok = ok and x * (y + z) == x * y + x * z

    # counts do not depend on the modulus choice
    for (p, n), genus in [((2, 3), 1), ((2, 3), 2), ((3, 2), 1), ((3, 2), 2)]:
        counts = {
            count_semi(make_field(p, n, modulus=m), genus).count
            for m in irreducible_moduli(p, n)
        }
        ok = ok and len(counts) == 1 and counts == {count_closed(p**n, genus)}

    _report(8, "ring, division, interpolation, field-axiom and modulus-independence suites", ok)
