"""Exact polynomial and polynomial-matrix arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from affrep.exactpoly import (
    ONE,
    Q,
    ZERO,
    DimensionMismatch,
    IntPoly,
    NotDivisible,
    PolyMatrix,
)
from affrep.finitefield import make_field

QM1 = Q - ONE

int_polys = st.builds(IntPoly, st.lists(st.integers(-50, 50), max_size=8))
nonzero_polys = int_polys.filter(lambda p: not p.is_zero())


class TestArithmetic:
    def test_add_cancellation(self):
        assert QM1 + ONE == Q

    def test_add_identity(self):
        p = IntPoly([3, 0, -7, 1])
        assert ZERO + p == p

    def test_add_leading_cancellation(self):
        assert (Q**3 - Q**2) + Q**2 == Q**3

    def test_mul_difference_of_squares(self):
        assert QM1 * (Q + ONE) == Q**2 - ONE

    def test_mul_group_class(self):
        # class of the affine group of the line: q(q-1)
        assert Q * QM1 == Q**2 - Q

    def test_mul_absorbing(self):
        assert IntPoly([5, -1, 2]) * ZERO == ZERO

    def test_pow_square(self):
        assert QM1**2 == Q**2 - 2 * Q + ONE

    def test_pow_zero_exponent(self):
        assert IntPoly([9, 4, 4])**0 == ONE

    def test_pow_fourth(self):
        assert QM1**4 == IntPoly([1, -4, 6, -4, 1])

    def test_eval_small_points(self):
        p = Q**3 - Q**2
        assert p(2) == 4
        assert p(5) == 100

    def test_eval_zero_poly(self):
        assert ZERO(12345) == 0

    def test_degree_sentinel(self):
        assert ZERO.degree is None
        assert ONE.degree == 0
        assert (Q**4).degree == 4

    def test_normalization(self):
        assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPoly([0, 0]).coeffs == ()


class TestExactDivision:
    def test_monomial_factor(self):
        assert (Q**2 - Q).exact_div(Q) == QM1

    def test_round_trip(self):
        p = Q**7 - 4 * Q**6 + 6 * Q**5 - 3 * Q**4
        norm = (Q * QM1) ** 2
        assert (p * norm).exact_div(norm) == p

    def test_remainder_raises(self):
        with pytest.raises(NotDivisible):
            (Q**2 + ONE).exact_div(QM1)

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ONE.exact_div(ZERO)

    def test_zero_dividend(self):
        assert ZERO.exact_div(QM1) == ZERO

    def test_leading_coefficient_not_dividing(self):
        with pytest.raises(NotDivisible):
            Q.exact_div(IntPoly([0, 2]))

    @pytest.mark.parametrize("genus", range(1, 9))
    def test_capping_divisor_with_zero_coefficients(self, genus):
        # q^g (q-1)^g, the capping divisor, has g zero coefficients below q^g;
        # q^k is never a multiple of it, so every product plus q^k must raise
        divisor = (Q * QM1) ** genus
        quotient = (Q + 3) ** (2 * genus) - 5 * Q**genus + 7
        product = quotient * divisor
        assert product.exact_div(divisor) == quotient
        for k in range(product.degree + 2):
            with pytest.raises(NotDivisible):
                (product + Q**k).exact_div(divisor)


class TestRingProperties:
    @given(int_polys, int_polys, int_polys)
    def test_associativity_and_distributivity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(int_polys, int_polys)
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(int_polys, nonzero_polys)
    def test_division_inverts_multiplication(self, a, b):
        assert (a * b).exact_div(b) == a

    @given(int_polys, int_polys, st.integers(-100, 100))
    def test_evaluation_is_ring_homomorphism(self, a, b, x):
        assert (a * b)(x) == a(x) * b(x)
        assert (a + b)(x) == a(x) + b(x)

    @given(int_polys, nonzero_polys)
    def test_degree_of_product(self, a, b):
        if a.is_zero():
            assert (a * b).degree is None
        else:
            assert (a * b).degree == a.degree + b.degree


def _transfer_matrix() -> PolyMatrix:
    return PolyMatrix.from_rows(
        [
            [Q**3 - Q**2, Q**4 - 3 * Q**3 + 2 * Q**2],
            [Q**3 - 2 * Q**2, Q**4 - 3 * Q**3 + 3 * Q**2],
        ]
    ).scale(Q * QM1)


class TestMatrices:
    def test_squared_top_left_pattern(self):
        # top-left of the squared transfer matrix is (q(q-1))^2 (a^2 + b c)
        # in terms of the normalized entries
        m = _transfer_matrix()
        a, b = Q**3 - Q**2, Q**4 - 3 * Q**3 + 2 * Q**2
        c = Q**3 - 2 * Q**2
        top_left = m.entry(0, 0) * m.entry(0, 0) + m.entry(0, 1) * m.entry(1, 0)
        assert top_left == (Q * QM1) ** 2 * (a * a + b * c)

    def test_squared_top_left_counts_genus_two(self, power_class):
        from affrep.affcount import count_semi

        oracle = count_semi(make_field(3, 1), 2).count
        assert power_class(_transfer_matrix(), 2)(3) == oracle == 486

    def test_dimension_mismatch(self):
        a = PolyMatrix(2, 3, [ONE] * 6)
        with pytest.raises(DimensionMismatch):
            a.trace()
        with pytest.raises(DimensionMismatch):
            PolyMatrix.from_rows([[ONE, ONE], [ONE]])

    def test_entry_count_checked(self):
        with pytest.raises(DimensionMismatch):
            PolyMatrix(2, 2, [ONE])


# every power of two and its predecessor, where the top bit moves, plus all of 0..300
SCHEDULE_EXPONENTS = sorted(set(range(301)) | {2**k + d for k in range(12) for d in (-1, 0)})


def _expected_products(e):
    # bit_length - 1 squarings, one product per set bit, none for e = 0
    return max(0, e.bit_length() - 1) + bin(e).count("1")


class TestPowerSchedule:
    @pytest.mark.parametrize(
        "base", [QM1, make_field(3, 2).from_int(5)], ids=["polynomial", "field-element"]
    )
    def test_power_stops_squaring_at_the_top_bit(self, monkeypatch, base):
        # only the schedule is counted, so each product returns its left factor
        # instead of running (q - 1)^2048 and the like
        calls = []

        def counting_product(self, other):
            calls.append(1)
            return self

        monkeypatch.setattr(type(base), "__mul__", counting_product)
        for e in SCHEDULE_EXPONENTS:
            calls.clear()
            base**e
            assert len(calls) == _expected_products(e), e


class TestRendering:
    @pytest.mark.parametrize(
        "poly, text",
        [
            (Q**3 - Q**2, "q^3 - q^2"),
            (ZERO, "0"),
            (IntPoly([7]), "7"),
            (2 * Q - 2, "2q - 2"),
            (-(Q**2) + ONE, "-q^2 + 1"),
            (Q**7 - 4 * Q**6 + 6 * Q**5 - 3 * Q**4, "q^7 - 4q^6 + 6q^5 - 3q^4"),
        ],
    )
    def test_canonical_text(self, poly, text):
        assert str(poly) == text
