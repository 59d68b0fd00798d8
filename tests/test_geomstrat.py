"""Stratification recursion, closed forms and quotient classes."""

import pytest

from affrep.affcount import aff_group_table, count_digits_bound, count_semi, oracle_counts
from affrep.exactpoly import ONE, Q, IntPoly
from affrep.finitefield import make_field
from affrep.geomstrat import (
    GenusOutOfRange,
    character_class,
    class_charge,
    moduli_class,
    rep_class,
    scaling_power,
    xs_closed,
    xs_recursive,
)
from affrep.interpolate import prime_power


class TestAuxiliaryClasses:
    def test_base_case(self):
        assert xs_recursive(1) == 2 * Q - 2
        assert xs_closed(1) == 2 * Q - 2

    def test_s_two(self):
        expected = Q * (Q - ONE) ** 2 + Q**2 - Q
        assert xs_recursive(2) == expected == Q**3 - Q**2

    def test_s_two_at_three(self):
        assert xs_recursive(2)(3) == 18

    def test_s_six_at_five(self):
        assert xs_closed(6)(5) == 12812500

    def test_recursion_is_an_oracle_for_the_closed_form(self):
        for s in range(1, 101):
            assert xs_recursive(s) == xs_closed(s)

    def test_invalid_s(self):
        with pytest.raises(ValueError):
            xs_closed(0)


class TestScalingPower:
    def test_matches_the_repeated_product(self):
        power = ONE
        for s in range(41):
            assert scaling_power(s) == power
            assert scaling_power(s, 3) == Q**3 * power
            power = power * (Q - ONE)

    def test_closed_forms_take_no_polynomial_power(self, monkeypatch):
        def pow_(self, e):
            raise AssertionError("IntPoly.__pow__ called")

        expected = [f(7) for f in (rep_class, moduli_class, character_class)]
        monkeypatch.setattr(IntPoly, "__pow__", pow_)
        assert [f(7) for f in (rep_class, moduli_class, character_class)] == expected


class TestClassCharge:
    def test_values(self):
        # (2g+1) w (1+w) with w = ceil(2g/64)
        assert class_charge(1) == 3 * 1 * 2
        assert class_charge(32) == 65 * 1 * 2
        assert class_charge(33) == 67 * 2 * 3
        assert class_charge(2560) == 5121 * 80 * 81

    def test_classes_stay_within_the_modelled_size(self):
        # at most 2g + 1 nonzero coefficients, each below 2^2g, so each of at
        # most count_digits_bound(2, g) digits: the genus-g count over F_2 is 2^2g
        for genus in (*range(1, 41), 100, 300):
            for cls in (rep_class(genus), moduli_class(genus)):
                nonzero = [abs(c) for c in cls.coeffs if c]
                assert len(nonzero) <= 2 * genus + 1
                assert max(nonzero) < 2 ** (2 * genus)
                assert len(str(max(nonzero))) <= count_digits_bound(2, genus)


class TestRepClass:
    def test_genus_one(self):
        assert rep_class(1) == Q**3 - Q**2

    def test_genus_three(self):
        assert rep_class(3) == (
            Q**11 - 6 * Q**10 + 15 * Q**9 - 20 * Q**8 + 15 * Q**7 - 5 * Q**6
        )

    def test_genus_two_at_seven(self):
        assert rep_class(2)(7) == 446586

    def test_genus_zero_rejected(self):
        with pytest.raises(GenusOutOfRange):
            rep_class(0)

    def test_interleaved_genera_get_their_own_classes(self):
        # the cache keeps the last class alone, so a genus asked again after
        # another is rebuilt, never answered with the other's class
        asked = (3, 5, 3, 3, 5, 1, 3)
        assert [rep_class(g) for g in asked] == [xs_recursive(2 * g) for g in asked]
        assert rep_class.cache_info().maxsize == 1
        assert rep_class.cache_info().currsize == 1

    def test_matches_semi_and_oracle_on_a_grid(self):
        # the class evaluated at q against two point counts that never use it:
        # semi's handle recurrence and the table oracle's one sweep per field
        classes = [rep_class(genus) for genus in range(1, 6)]
        for q in (2, 3, 4, 5, 7, 8, 9):
            field = make_field(*prime_power(q))
            oracle = oracle_counts(*aff_group_table(field), 5)[0]
            semi = [count_semi(field, genus).count for genus in range(1, 6)]
            assert [cls(q) for cls in classes] == semi == oracle

    def test_degree_and_leading_coefficient(self):
        for genus in range(1, 11):
            p = rep_class(genus)
            assert p.degree == 4 * genus - 1
            assert p.leading() == 1


class TestQuotientClasses:
    def test_moduli_genus_one(self):
        assert moduli_class(1) == Q**2 - 2 * Q + ONE

    def test_moduli_genus_two_binomial(self):
        assert moduli_class(2) == (Q - ONE) ** 4

    def test_moduli_equals_character(self):
        for genus in range(1, 21):
            assert moduli_class(genus) == character_class(genus) == (Q - ONE) ** (2 * genus)

    def test_genus_zero_rejected(self):
        with pytest.raises(GenusOutOfRange):
            moduli_class(0)
        with pytest.raises(GenusOutOfRange):
            character_class(0)
