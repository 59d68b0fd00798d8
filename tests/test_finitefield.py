"""Finite-field construction and exact arithmetic."""

import itertools
import time

import pytest

from affrep.finitefield import (
    FieldMismatch,
    InverseOfZero,
    NotPrime,
    OrderTooLarge,
    irreducible_moduli,
    is_prime,
    make_field,
    parse_descriptor,
)

SMALL_ORDERS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)]


def _quadratic_has_root(c0, c1, p):
    return any((x * x + c1 * x + c0) % p == 0 for x in range(p))


class TestConstruction:
    def test_f4_modulus(self):
        # the only irreducible monic quadratic over F_2
        assert make_field(2, 2).modulus == (1, 1, 1)

    def test_prime_field_modulus(self):
        assert make_field(5, 1).modulus == (0, 1)

    def test_f9_modulus_via_scan_oracle(self):
        # brute-force scan: first monic quadratic over F_3 without a root,
        # lex order on (c0, c1)
        expected = next(
            (c0, c1, 1)
            for c0, c1 in itertools.product(range(3), repeat=2)
            if not _quadratic_has_root(c0, c1, 3)
        )
        assert make_field(3, 2).modulus == expected == (1, 0, 1)

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            make_field(6, 1)

    def test_order_too_large(self):
        with pytest.raises(OrderTooLarge):
            make_field(2, 4, max_order=8)

    def test_order_bound_before_primality(self):
        # trial division of 10^18 + 3, or building 2^(10^9), would not finish
        t0 = time.perf_counter()
        with pytest.raises(OrderTooLarge):
            make_field(10**18 + 3, 1)
        with pytest.raises(OrderTooLarge):
            make_field(2, 10**9)
        assert time.perf_counter() - t0 < 1

    def test_explicit_reducible_modulus_rejected(self):
        with pytest.raises(ValueError):
            make_field(2, 2, modulus=(1, 0, 1))  # (X+1)^2 over F_2

    def test_default_modulus_is_the_first_irreducible_one(self):
        orders = [(p, n) for p in range(2, 257) if is_prime(p) for n in range(1, 9)]
        for p, n in orders:
            if p**n <= 256:
                assert make_field(p, n).modulus == irreducible_moduli(p, n)[0], (p, n)

    def test_two_irreducible_cubics_over_f2(self):
        assert irreducible_moduli(2, 3) == [(1, 0, 1, 1), (1, 1, 0, 1)]

    def test_is_prime(self):
        assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_parse_descriptor(self):
        assert parse_descriptor("2^3") == (2, 3)
        assert parse_descriptor("7") == (7, 1)
        with pytest.raises(ValueError):
            parse_descriptor("abc")


class TestElementArithmetic:
    def test_f4_generator_square(self):
        # t^2 = t + 1 is forced by the modulus X^2 + X + 1
        f4 = make_field(2, 2)
        t = f4.element([0, 1])
        assert t * t == t + f4.one()

    def test_inverse_of_one(self):
        for p, n in SMALL_ORDERS:
            field = make_field(p, n)
            assert field.one().inv() == field.one()

    def test_inverse_in_f5(self):
        f5 = make_field(5, 1)
        assert f5.element([2]).inv() == f5.element([3])

    def test_inverse_of_zero(self):
        with pytest.raises(InverseOfZero):
            make_field(3, 1).zero().inv()

    def test_field_mismatch(self):
        a = make_field(2, 1).one()
        b = make_field(3, 1).one()
        with pytest.raises(FieldMismatch):
            a + b

    def test_mismatch_between_moduli_of_same_order(self):
        f8a = make_field(2, 3)
        f8b = make_field(2, 3, modulus=(1, 1, 0, 1))
        with pytest.raises(FieldMismatch):
            f8a.one() * f8b.one()


class TestEnumeration:
    def test_f2_order(self):
        f2 = make_field(2, 1)
        assert list(f2.elements()) == [f2.zero(), f2.one()]

    def test_f4_cardinality(self):
        assert len(list(make_field(2, 2).elements())) == 4

    def test_f9_distinctness(self):
        elems = list(make_field(3, 2).elements())
        assert len(elems) == 9
        assert len(set(elems)) == 9

    def test_index_round_trip(self):
        for p, n in [(2, 2), (3, 2), (2, 3)]:
            field = make_field(p, n)
            for k, e in enumerate(field.elements()):
                assert e.index() == k
                assert field.from_int(k) == e


@pytest.mark.parametrize("p,n", SMALL_ORDERS)
class TestFieldAxiomsExhaustive:
    """Field axioms checked on every pair/triple for orders <= 16."""

    def test_abelian_group_laws(self, p, n):
        field = make_field(p, n)
        elems = list(field.elements())
        zero, one = field.zero(), field.one()
        for x in elems:
            assert x + zero == x
            assert x + (-x) == zero
            assert x * one == x
            if not x.is_zero():
                assert x * x.inv() == one
        for x, y in itertools.product(elems, repeat=2):
            assert x + y == y + x
            assert x * y == y * x

    def test_associativity_and_distributivity(self, p, n):
        field = make_field(p, n)
        elems = list(field.elements())
        for x, y, z in itertools.product(elems, repeat=3):
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z

    def test_frobenius_is_additive(self, p, n):
        field = make_field(p, n)
        elems = list(field.elements())
        for x, y in itertools.product(elems, repeat=2):
            assert (x + y) ** p == x**p + y**p
