"""Exact interpolation of counting polynomials."""

import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from affrep.affcount import Budget, BudgetExceeded
from affrep.exactpoly import ONE, Q, IntPoly
from affrep.finitefield import ECHO_CHARS, OrderTooLarge, int_str_limit
from affrep.geomstrat import rep_class
from affrep.interpolate import (
    CellTooLong,
    DegreeMismatch,
    DuplicateAbscissa,
    ExtraPointMismatch,
    NonIntegerCoefficients,
    default_plan,
    epoly_from_counts,
    epoly_from_samples,
    factor_orders,
    lagrange_interpolate,
    plan_from_text,
    prime_power,
    row_error,
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

    @pytest.mark.parametrize(
        "points,degree_bound,text",
        [
            ([(2, 4), (2, 5), (3, 6)], 1, "abscissae [2, 2, 3] are not pairwise distinct"),
            ([(1, 1)], 3, "need at least 4 points, got 1"),
            ([(0, 0), (2, 1)], 1, "divided difference 1/2 is not an integer"),
            ([(0, 0), (1, 1), (2, 3)], 1, "interpolant gives 2 at 2, sample says 3"),
            ([(0, 0)], -1, "degree bound must be non-negative"),
        ],
    )
    def test_error_texts(self, points, degree_bound, text):
        with pytest.raises(ValueError) as info:
            lagrange_interpolate(points, degree_bound)
        assert str(info.value) == text

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

    @pytest.mark.parametrize(
        "m,expected",
        [(1000000007, (1000000007, 1)), (3**30, (3, 30)), (1000003 * 1000033, None)],
    )
    def test_trial_division_stops_at_the_square_root(self, m, expected):
        t0 = time.perf_counter()
        assert prime_power(m) == expected
        assert time.perf_counter() - t0 < 1

    def test_guard_names_the_abscissa(self):
        # factoring 10^18 + 3 would take up to 10^9 - 1 trial divisions
        with pytest.raises(BudgetExceeded, match="abscissa 1000000000000000003 .* 999999999 "):
            prime_power(10**18 + 3)
        # isqrt(1009) - 1 = 30 divisions and the one for 4, refused before any
        refusal = r"the 4 abscissae, to q = 1009, need up to 31 trial divisions in all, .*\(guard 30\)$"
        budget = Budget(30)
        with pytest.raises(BudgetExceeded, match=refusal):
            plan_from_text(1, "2,3,4,1009", budget)
        assert budget.used == 0
        budget = Budget(31)
        assert plan_from_text(1, "2,3,4,1009", budget)[-1] == (1009, 1)
        assert budget.used == 31

    def test_smallest_prime_powers(self):
        assert smallest_prime_powers(12) == (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19)

    def test_default_plans_match_reference_columns(self):
        assert default_plan(1) == ((2, 1), (3, 1), (2, 2), (5, 1))
        assert [p**n for p, n in default_plan(2)] == [2, 3, 4, 5, 7, 8, 9, 11]
        assert [p**n for p, n in default_plan(3)] == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19]


class TestSamplePlan:
    """A plan is the (p, n) of each of its orders, checked by plan_from_text."""

    def test_degree_bound(self):
        # a genus-2 plan's 8 orders pin down a polynomial of degree 4g - 1 = 7
        result = epoly_from_counts(2, default_plan(2))
        assert (len(result.records), result.epoly.degree) == (8, 7)

    def test_rejects_duplicates(self):
        with pytest.raises(DuplicateAbscissa):
            plan_from_text(1, "2,3,3,5")

    def test_rejects_non_prime_powers(self):
        with pytest.raises(ValueError, match="^6 is not a prime power$"):
            plan_from_text(1, "2,3,5,6")

    def test_rejects_short_plans(self):
        with pytest.raises(ValueError, match="^plan needs at least 4 prime powers for genus 1$"):
            plan_from_text(1, "2,3,5")

    def test_plan_from_text(self):
        assert plan_from_text(1, "2,3,4,5") == default_plan(1)
        with pytest.raises(ValueError, match="^genus must be >= 1$"):
            plan_from_text(0, "2,3,4,5")

    def test_factors(self):
        factors = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))
        assert plan_from_text(1, "2,3,4,5,7,8,9") == factors
        # the default plan is its search's factors, as factoring its orders gives
        assert default_plan(2) == plan_from_text(2, "2,3,4,5,7,8,9,11")

    def test_factoring_is_charged_once_each_after_one_total(self):
        # isqrt(m) - 1 for each m >= 2, plus what the caller charges next,
        # refused before any is factored; then each m charges its share
        orders = (2, 3, 4, 5, 7, 8, 9, 11, 1)
        budget = Budget(17)
        refusal = "^the 9 abscissae, to q = 11, need up to 18 trial divisions in all, "
        with pytest.raises(BudgetExceeded, match=refusal):
            factor_orders(budget, orders, later=10)
        assert budget.used == 0
        with pytest.raises(ValueError, match="^1 is not a prime power$"):
            factor_orders(budget, orders)
        assert budget.used == 8
        what = "{1} and {2}"
        with pytest.raises(BudgetExceeded, match=r"^11 and 18 \(guard 17\)$"):
            factor_orders(Budget(17), orders[:-1], 10, what)
        assert factor_orders(Budget(8), orders[:-1]) == default_plan(2)

    def test_each_plan_power_is_factored_once(self, monkeypatch):
        # the default plan's search factors each m once; neither the plan nor
        # the counts factor a power again
        from affrep import interpolate

        factored, factor = [], interpolate._prime_power

        def counted(m):
            factored.append(m)
            return factor(m)

        monkeypatch.setattr(interpolate, "_prime_power", counted)
        result = epoly_from_counts(14, engine="closed")
        assert len(result.records) == 56
        assert sorted(factored) == list(range(2, result.records[-1].q + 1))


class TestEPolyFromCounts:
    def test_genus_one(self):
        result = epoly_from_counts(1)
        assert result.epoly == Q**3 - Q**2
        assert [rec.q for rec in result.records] == [2, 3, 4, 5]

    def test_genus_two(self):
        assert epoly_from_counts(2).epoly == rep_class(2)

    def test_an_oversized_pair_is_refused_before_its_power(self):
        # 3^(4 * 10^6) alone takes about 0.65 s to build; n past the bound's
        # bit length is refused before any power of the plan is built
        plan = [(2, 1), (3, 1), (2, 2), (3, 4 * 10**6)]
        t0 = time.perf_counter()
        with pytest.raises(OrderTooLarge, match=r"^3\^4000000 exceeds the enumeration bound 4096$"):
            epoly_from_counts(1, plan)
        assert time.perf_counter() - t0 < 0.1

    def test_extra_plan_points_do_not_change_the_answer(self):
        wide = plan_from_text(1, "2,3,4,5,7,8,9")
        assert epoly_from_counts(1, wide).epoly == epoly_from_counts(1).epoly

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

    @pytest.mark.parametrize(
        "text, line, row",
        [
            ("q,count\n2,4\n5,100,extra\n", 3, "['5', '100', 'extra']"),
            # count --output csv: p,n,q,genus,count,engine,elapsed_ms
            ("p,n,q,genus,count\n2,1,2,1,4\n", 2, "['2', '1', '2', '1', '4']"),
        ],
    )
    def test_extra_cells_are_refused(self, tmp_path, text, line, row):
        path = tmp_path / "counts.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            samples_from_csv(str(path))
        assert str(info.value) == f"{path}, line {line}: malformed sample row {row}"

    def test_blank_extra_cells_are_read(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("2,4,\n3,18, ,\n")
        assert samples_from_csv(str(path)) == [(2, 4), (3, 18)]

    def test_too_long_cell(self, tmp_path):
        # int() fails on the digit limit too; the error says so and echoes
        # only a prefix of the row
        path = tmp_path / "counts.csv"
        path.write_text("q,count\n2," + "9" * 5000 + "\n")
        with pytest.raises(CellTooLong) as info:
            samples_from_csv(str(path))
        assert str(info.value) == (
            f"{path}, line 2: sample row ['2', '{'9' * 53}... (5009 characters) has a cell "
            f"of 5000 digits, over Python's int-from-str limit of "
            f"{sys.get_int_max_str_digits()} (PYTHONINTMAXSTRDIGITS sets it)"
        )

    @pytest.mark.parametrize(
        "text,line,row",
        [
            ("2,4\nx,18\n", 2, "['x', '18']"),
            ("2\n", 1, "['2']"),
            ("q,count\n2,x\n", 2, "['2', 'x']"),
        ],
    )
    def test_malformed_row_texts(self, tmp_path, text, line, row):
        path = tmp_path / "counts.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            samples_from_csv(str(path))
        assert str(info.value) == f"{path}, line {line}: malformed sample row {row}"


class TestRowError:
    """Where ``row_error`` cuts its echo and tells a too-long cell from a malformed one."""

    @pytest.mark.parametrize("extra", [0, 1])
    def test_cell_at_and_over_the_digit_limit(self, extra):
        limit = int_str_limit()
        if not limit:
            pytest.skip("no int-to-str limit on this interpreter")
        cell = "9" * (limit + extra)
        error = row_error("here", "sample", "row", ["1", cell])
        assert isinstance(error, CellTooLong) == bool(extra)
        if extra:
            assert str(error) == (
                f"here: sample row 'row' has a cell of {limit + 1} digits, over Python's "
                f"int-from-str limit of {limit} (PYTHONINTMAXSTRDIGITS sets it)"
            )
        else:
            assert str(error) == "here: malformed sample row 'row'"

    @pytest.mark.parametrize("width", [ECHO_CHARS, ECHO_CHARS + 1])
    def test_echo_at_and_over_its_width(self, width):
        row = "x" * (width - 2)  # its repr adds two quotes
        error = row_error("here", "golden", row, [])
        cut = f"{repr(row)[:ECHO_CHARS]}... ({width} characters)"
        echo = repr(row) if width == ECHO_CHARS else cut
        assert str(error) == f"here: malformed golden row {echo}"
