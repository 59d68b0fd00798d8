"""Exact interpolation of counting polynomials."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from affrep.exactpoly import ONE, Q, IntPoly
from affrep.geomstrat import rep_class
from affrep.interpolate import (
    DegreeMismatch,
    DuplicateAbscissa,
    ExtraPointMismatch,
    NonIntegerCoefficients,
    SamplePlan,
    default_plan,
    epoly_from_counts,
    epoly_from_samples,
    lagrange_interpolate,
    plan_from_text,
    prime_power,
    samples_from_csv,
    smallest_prime_powers,
)


def _fraction_lagrange(points):
    """Test oracle: the Lagrange sum over Fractions, monomial coefficients
    from the constant term up, trailing zeros dropped."""
    acc = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis, denom = [Fraction(1)], 1
        for j, (xj, _) in enumerate(points):
            if j != i:
                basis = [lo - xj * hi for lo, hi in zip([0] + basis, basis + [0])]
                denom *= xi - xj
        acc = [a + b * Fraction(yi, denom) for a, b in zip(acc, basis)]
    while acc and acc[-1] == 0:
        acc.pop()
    return acc


class TestLagrange:
    def test_genus_one_reference_counts(self):
        points = [(2, 4), (3, 18), (4, 48), (5, 100)]
        assert lagrange_interpolate(points, 3) == Q**3 - Q**2

    def test_constant_data(self):
        assert lagrange_interpolate([(2, 7), (3, 7)], 1) == IntPoly([7])

    def test_round_trip_from_samples(self):
        p = Q**5 - 3 * Q
        samples = [(x, p(x)) for x in range(1, 7)]
        assert lagrange_interpolate(samples, 5) == p

    def test_duplicate_abscissa(self):
        with pytest.raises(DuplicateAbscissa):
            lagrange_interpolate([(2, 4), (2, 5), (3, 6)], 1)

    def test_non_integer_coefficients(self):
        # the line through (0,0) and (2,1) is q/2
        with pytest.raises(NonIntegerCoefficients, match="1/2"):
            lagrange_interpolate([(0, 0), (2, 1)], 1)

    def test_extra_point_mismatch(self):
        p = Q**2 + ONE
        samples = [(x, p(x)) for x in range(4)]
        samples[3] = (3, samples[3][1] + 1)
        with pytest.raises(ExtraPointMismatch):
            lagrange_interpolate(samples, 2)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            lagrange_interpolate([(1, 1)], 3)

    def test_overdetermined_consistency(self):
        p = 2 * Q**3 - Q + 5
        base = [(x, p(x)) for x in range(4)]
        extended = base + [(x, p(x)) for x in range(4, 9)]
        assert lagrange_interpolate(base, 3) == lagrange_interpolate(extended, 3)

    @given(
        st.lists(st.integers(-(10**40), 10**40), min_size=1, max_size=9),
        st.lists(st.integers(-30, 30), min_size=12, max_size=14, unique=True),
        st.integers(min_value=0, max_value=3),
    )
    def test_round_trip_property(self, coeffs, xs, slack):
        p = IntPoly(coeffs)
        degree_bound = len(coeffs) - 1 + slack
        samples = [(x, p(x)) for x in xs]
        assert lagrange_interpolate(samples, degree_bound) == p
        assert _fraction_lagrange(samples[: degree_bound + 1]) == list(p.coeffs)

    @given(
        st.lists(st.integers(-(10**40), 10**40), max_size=7),
        st.integers(-(10**20), 10**20).map(lambda c: 2 * c + 1),
        st.lists(st.integers(-30, 30), min_size=10, max_size=12, unique=True),
        st.integers(min_value=0, max_value=3),
    )
    def test_integer_valued_non_integer_polynomial_property(self, coeffs, c, xs, slack):
        # p + c x(x-1)/2 takes integer values, but its q and q^2
        # coefficients are halves when c is odd
        p = IntPoly(coeffs)
        degree_bound = max(2, len(coeffs) - 1) + slack
        samples = [(x, p(x) + c * x * (x - 1) // 2) for x in xs]
        reference = _fraction_lagrange(samples[: degree_bound + 1])
        assert any(coeff.denominator != 1 for coeff in reference)
        with pytest.raises(NonIntegerCoefficients):
            lagrange_interpolate(samples, degree_bound)


class TestPrimePowers:
    @pytest.mark.parametrize(
        "m,expected",
        [(2, (2, 1)), (4, (2, 2)), (16, (2, 4)), (9, (3, 2)), (17, (17, 1)), (6, None), (12, None), (1, None)],
    )
    def test_decomposition(self, m, expected):
        assert prime_power(m) == expected

    def test_smallest_prime_powers(self):
        assert smallest_prime_powers(12) == (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19)

    def test_default_plans_match_reference_columns(self):
        assert default_plan(1).prime_powers == (2, 3, 4, 5)
        assert default_plan(2).prime_powers == (2, 3, 4, 5, 7, 8, 9, 11)
        assert default_plan(3).prime_powers == (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19)


class TestSamplePlan:
    def test_degree_bound(self):
        assert default_plan(2).degree_bound == 7

    def test_rejects_duplicates(self):
        with pytest.raises(DuplicateAbscissa):
            SamplePlan(1, (2, 3, 3, 5))

    def test_rejects_non_prime_powers(self):
        with pytest.raises(ValueError):
            SamplePlan(1, (2, 3, 5, 6))

    def test_rejects_short_plans(self):
        with pytest.raises(ValueError):
            SamplePlan(1, (2, 3, 5))

    def test_plan_from_text(self):
        assert plan_from_text(1, "2,3,4,5").prime_powers == (2, 3, 4, 5)


class TestEPolyFromCounts:
    def test_genus_one(self):
        result = epoly_from_counts(1)
        assert result.epoly == Q**3 - Q**2
        assert [rec.q for rec in result.records] == [2, 3, 4, 5]

    def test_genus_two(self):
        assert epoly_from_counts(2).epoly == rep_class(2)

    def test_extra_plan_points_do_not_change_the_answer(self):
        wide = SamplePlan(1, (2, 3, 4, 5, 7, 8, 9))
        assert epoly_from_counts(1, wide).epoly == epoly_from_counts(1).epoly

    def test_plan_genus_mismatch(self):
        with pytest.raises(ValueError):
            epoly_from_counts(2, default_plan(1))

    def test_degree_check(self):
        # constant samples cannot come from this family
        with pytest.raises(DegreeMismatch):
            epoly_from_samples(1, [(2, 7), (3, 7), (4, 7), (5, 7)])


class TestCsvIngestion:
    def test_with_header(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("q,count\n2,4\n3,18\n4,48\n5,100\n")
        assert samples_from_csv(str(path)) == [(2, 4), (3, 18), (4, 48), (5, 100)]

    def test_without_header(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("2,4\n3,18\n4,48\n5,100\n")
        samples = samples_from_csv(str(path))
        assert epoly_from_samples(1, samples) == Q**3 - Q**2

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("2\n")
        with pytest.raises(ValueError):
            samples_from_csv(str(path))
