"""Exact polynomial arithmetic and the 2x2 chain."""

import itertools

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from affrep.exactpoly import ONE, Q, ZERO, IntPoly, NotDivisible, Packing, chain, taylor_shift
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
        # q^g (q-1)^g, a power of the group class, has g zero coefficients below q^g;
        # q^k is never a multiple of it, so every product plus q^k must raise
        divisor = (Q * QM1) ** genus
        quotient = (Q + 3) ** (2 * genus) - 5 * Q**genus + 7
        product = quotient * divisor
        assert product.exact_div(divisor) == quotient
        for k in range(product.degree + 2):
            with pytest.raises(NotDivisible):
                (product + Q**k).exact_div(divisor)


def _reference_product(p, r):
    # the schoolbook double loop, one product per pair of coefficients
    out = [0] * (len(p) + len(r))
    for i, a in enumerate(p):
        for j, b in enumerate(r):
            out[i + j] += a * b
    return IntPoly(out)


def _reference_sum(p, r):
    return IntPoly(a + b for a, b in itertools.zip_longest(p, r, fillvalue=0))


# coefficient lists heavy in 0, 1 and -1, as the states glued in u = q - 1
# are, with wide ints among them and trailing zeros that IntPoly drops
_UNITS = st.sampled_from([0, 0, 1, -1]) | st.integers(-(2**70), 2**70)
unit_lists = st.lists(_UNITS, max_size=9).flatmap(
    lambda cs: st.integers(0, 3).map(lambda zeros: cs + [0] * zeros)
)


class TestKernels:
    """IntPoly's row-wise product and sum against the schoolbook loops."""

    @given(unit_lists, unit_lists)
    @example([], [1, -1])
    @example([0, 1, 0, 0], [])
    @example([-1, 0, 1, 0], [1, 1, -1, 0, 0])
    def test_product_matches_the_double_loop(self, p, r):
        assert IntPoly(p) * IntPoly(r) == _reference_product(p, r)

    @given(unit_lists, unit_lists)
    @example([], [])
    @example([1, -1], [-1, 1, 0])
    def test_sum_matches_the_coefficient_loop(self, p, r):
        assert IntPoly(p) + IntPoly(r) == _reference_sum(p, r)
        assert IntPoly(p) - IntPoly(r) == _reference_sum(p, [-c for c in r])

    @given(unit_lists, st.integers(-(2**70), 2**70))
    def test_integer_factors_match_the_double_loop(self, p, n):
        assert IntPoly(p) * n == n * IntPoly(p) == _reference_product(p, [n])
        assert IntPoly(p) + n == _reference_sum(p, [n])


class TestTaylorShift:
    @given(unit_lists)
    @example([])
    def test_shifts_invert_each_other(self, cs):
        p = IntPoly(cs)
        assert taylor_shift(taylor_shift(p, 1), -1) == p
        assert taylor_shift(taylor_shift(p, -1), 1) == p

    @given(unit_lists, st.sampled_from([1, -1]), st.integers(-20, 20))
    def test_shift_substitutes_q_plus_s(self, cs, s, x):
        p = IntPoly(cs)
        assert taylor_shift(p, s)(x) == p(x + s)

    @given(st.integers(-(2**70), 2**70).filter(lambda s: s not in (1, -1)))
    @example(0)
    def test_other_shifts_are_refused(self, s):
        with pytest.raises(ValueError):
            taylor_shift(QM1, s)

    def test_moves_the_transfer_matrix_to_u(self):
        # N's entries at q = u + 1, the matrix close_surface glues
        u = Q
        assert taylor_shift(QM1, 1) == u
        assert taylor_shift(QM1 * (Q - 2) ** 2, 1) == u * (u - ONE) ** 2
        assert taylor_shift(Q**2 - 3 * Q + 3, 1) == u**2 - u + ONE


class TestPacking:
    @given(st.sampled_from([8, 16, 24]), st.data())
    def test_a_polynomial_in_the_window_reads_back(self, width, data):
        # every coefficient at the window's edges included; a coefficient
        # moved past them, where the digits of an int are still unique, no
        # longer holds
        radius = data.draw(st.integers(0, width - 1))
        edge = 1 << radius
        cs = data.draw(st.lists(st.integers(-edge, edge - 1), min_size=1, max_size=6))
        packing = Packing(width, radius, len(cs))
        x = packing.pack(IntPoly(cs))
        assert x == IntPoly(cs)(1 << width)
        assert packing.holds(x) and packing.read(x) == IntPoly(cs)
        half = 1 << width - 1
        for step in (edge, -edge):
            for i, c in enumerate(cs):
                if not -edge <= c + step < edge and -half <= c + step < half:
                    assert not packing.holds(x + (step << width * i))

    def test_an_int_outside_the_window_is_refused(self):
        packing = Packing(8, 5, 2)
        for x in (-(1 << 16), 1 << 16, 32, -33, 32 << 8):
            assert not packing.holds(x)
            with pytest.raises(ValueError):
                packing.read(x)

    @pytest.mark.parametrize("width,radius,slots", [(12, 3, 1), (8, 8, 1), (8, -1, 1), (8, 3, 0)])
    def test_a_malformed_packing_is_refused(self, width, radius, slots):
        with pytest.raises(ValueError):
            Packing(width, radius, slots)


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


def _transfer_matrix():
    return tuple(
        tuple(Q * QM1 * e for e in row)
        for row in (
            (Q**3 - Q**2, Q**4 - 3 * Q**3 + 2 * Q**2),
            (Q**3 - 2 * Q**2, Q**4 - 3 * Q**3 + 3 * Q**2),
        )
    )


class TestMatrices:
    def test_squared_top_left_pattern(self):
        # top-left of the squared transfer matrix is (q(q-1))^2 (a^2 + b c)
        # in terms of the normalized entries
        (m00, m01), (m10, _) = _transfer_matrix()
        a, b = Q**3 - Q**2, Q**4 - 3 * Q**3 + 2 * Q**2
        c = Q**3 - 2 * Q**2
        top_left = m00 * m00 + m01 * m10
        assert top_left == (Q * QM1) ** 2 * (a * a + b * c)

    def test_squared_top_left_counts_genus_two(self, power_class):
        from affrep.affcount import count_semi

        oracle = count_semi(make_field(3, 1), 2).count
        assert power_class(_transfer_matrix(), 2)(3) == oracle == 486


def _top_left_powers(matrix, count):
    # top-left of M, M^2, ..., M^count from full 2x2 products
    power, out = matrix, []
    for _ in range(count):
        out.append(power[0][0])
        power = [[sum(r[k] * matrix[k][j] for k in range(2)) for j in range(2)] for r in power]
    return out


_ENTRIES = st.integers(-50, 50)
# matrices ((a, b), (c, d)): any, of trace 0, and of determinant 0 as outer products
_MATRICES = st.one_of(
    st.tuples(_ENTRIES, _ENTRIES, _ENTRIES, _ENTRIES).map(lambda e: ((e[0], e[1]), (e[2], e[3]))),
    st.tuples(_ENTRIES, _ENTRIES, _ENTRIES).map(lambda e: ((e[0], e[1]), (e[2], -e[0]))),
    st.tuples(_ENTRIES, _ENTRIES, _ENTRIES, _ENTRIES).map(
        lambda e: ((e[0] * e[2], e[0] * e[3]), (e[1] * e[2], e[1] * e[3]))
    ),
)


class TestChain:
    def test_fibonacci_numbers(self):
        assert list(itertools.islice(chain(((1, 1), (1, 0))), 10)) == [
            1, 2, 3, 5, 8, 13, 21, 34, 55, 89
        ]

    def test_fibonacci_polynomials(self):
        # the chain of [[q, 1], [1, 0]] gives F_(k+1)(q), with F_(k+2) = q F_(k+1) + F_k
        values = list(itertools.islice(chain(((Q, ONE), (ONE, ZERO))), 5))
        assert [str(v) for v in values] == [
            "q", "q^2 + 1", "q^3 + 2q", "q^4 + 3q^2 + 1", "q^5 + 4q^3 + 3q"
        ]

    @given(_MATRICES)
    def test_integers_match_the_matrix_powers(self, matrix):
        assert list(itertools.islice(chain(matrix), 12)) == _top_left_powers(matrix, 12)

    def test_polynomials_match_the_matrix_powers(self):
        matrix = _transfer_matrix()
        assert list(itertools.islice(chain(matrix), 5)) == _top_left_powers(matrix, 5)

    def test_two_products_per_value_after_the_second(self, monkeypatch):
        # the first value is the entry a; the second forms bc, ad and tr(M) a
        matrix, calls, mul = _transfer_matrix(), [], IntPoly.__mul__

        def counting_mul(self, other):
            calls.append(1)
            return mul(self, other)

        monkeypatch.setattr(IntPoly, "__mul__", counting_mul)
        per_value = []
        for _ in itertools.islice(chain(matrix), 12):
            per_value.append(len(calls))
            calls.clear()
        assert per_value == [0, 3] + [2] * 10


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
