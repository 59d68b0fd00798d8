"""Finite-field construction and exact arithmetic."""

import itertools
import time

import pytest

from affrep import finitefield
from affrep.finitefield import (
    FieldMismatch,
    FieldOrder,
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


def _prime_powers(max_order):
    return [
        (p, n)
        for p in range(2, max_order + 1)
        if is_prime(p)
        for n in range(1, max_order.bit_length())
        if p**n <= max_order
    ]


def _mobius(d):
    sign, k = 1, 2
    while k * k <= d:
        if d % k == 0:
            d //= k
            if d % k == 0:
                return 0
            sign = -sign
        k += 1
    return -sign if d > 1 else sign


def _monic(p, d):
    # every monic polynomial of degree d, low-to-high
    return [tail + (1,) for tail in itertools.product(range(p), repeat=d)]


def _product(f, g, p):
    prod = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            prod[i + j] = (prod[i + j] + a * b) % p
    return tuple(prod)


def _first_irreducible_by_sieve(p, n):
    # the lex-first monic candidate (constant term first, zero included) that
    # no product of two monic factors of degree >= 1 hits; no trial division
    reducible = {
        _product(f, g, p) for d in range(1, n) for f in _monic(p, d) for g in _monic(p, n - d)
    }
    return next(c for c in _monic(p, n) if c not in reducible)


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
        # the bound is DEFAULT_MAX_ORDER = 4096 = 2^12
        assert make_field(2, 12).order == 4096
        with pytest.raises(OrderTooLarge, match="^2\\^13 exceeds the enumeration bound 4096$"):
            make_field(2, 13)
        # an n past the bound's bit length is refused without building p^n;
        # 3^(10^7) alone would take seconds
        t0 = time.perf_counter()
        with pytest.raises(OrderTooLarge):
            FieldOrder(3, 10**7)
        assert time.perf_counter() - t0 < 0.5

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

    @pytest.mark.parametrize(
        "p,n,modulus", [(2, 2, (0, 0, 1)), (3, 3, (0, 1, 0, 1))], ids=["X^2", "X^3+X"]
    )
    def test_explicit_modulus_divisible_by_x_rejected(self, p, n, modulus):
        with pytest.raises(ValueError, match="not irreducible"):
            make_field(p, n, modulus=modulus)

    def test_x_is_accepted_as_a_prime_field_modulus(self):
        for p in (2, 3, 5, 7):
            assert make_field(p, 1, modulus=(0, 1)).modulus == (0, 1)

    def test_default_modulus_is_the_first_irreducible_one(self):
        for p, n in _prime_powers(256):
            assert make_field(p, n).modulus == _first_irreducible_by_sieve(p, n), (p, n)

    def test_irreducible_count_is_gauss_formula(self):
        # (1/n) sum over d | n of mu(d) p^(n/d) monic irreducibles of degree n
        for p, n in _prime_powers(1024):
            gauss = sum(_mobius(d) * p ** (n // d) for d in range(1, n + 1) if n % d == 0)
            assert len(irreducible_moduli(p, n)) * n == gauss, (p, n)

    def test_plan_field_moduli_are_pinned(self):
        # the four fields of `epoly --plan 2048,2187,3125,4096`
        texts = [make_field(p, n).modulus_text() for p, n in [(2, 11), (3, 7), (5, 5), (2, 12)]]
        assert texts == ["X^11 + X^9 + 1", "X^7 + 2X^6 + X^5 + 1", "X^5 + 4X^4 + 1", "X^12 + X^9 + 1"]

    def test_f4096_search_tests_five_candidates(self, monkeypatch):
        # X divides the 2048 candidates with constant term 0; none is tested
        tested = []
        is_irreducible = finitefield._is_irreducible

        def counting(poly, p):
            tested.append(poly)
            return is_irreducible(poly, p)

        monkeypatch.setattr(finitefield, "_is_irreducible", counting)
        make_field(2, 12)
        assert len(tested) == 5

    def test_two_irreducible_cubics_over_f2(self):
        assert irreducible_moduli(2, 3) == [(1, 0, 1, 1), (1, 1, 0, 1)]

    @pytest.mark.parametrize(
        "p,n,error",
        [(2, 0, ValueError), (3, -1, ValueError), (4, 2, NotPrime), (10**6 + 3, 2, OrderTooLarge)],
        ids=["degree-0", "negative-degree", "not-prime", "order-over-bound"],
    )
    def test_irreducible_moduli_refuses_what_make_field_refuses(self, p, n, error):
        t0 = time.perf_counter()
        with pytest.raises(error) as listed:
            irreducible_moduli(p, n)
        with pytest.raises(error) as built:
            make_field(p, n)
        with pytest.raises(error) as ordered:
            FieldOrder(p, n)
        assert str(listed.value) == str(built.value) == str(ordered.value)
        assert time.perf_counter() - t0 < 1

    def test_field_order_searches_no_modulus(self, monkeypatch):
        def no_search(p, n):
            raise AssertionError("a modulus was searched for")

        monkeypatch.setattr(finitefield, "_irreducible_moduli", no_search)
        order = FieldOrder(2, 12)
        assert (order.p, order.n, order.order) == (2, 12, 4096)
        with pytest.raises(OrderTooLarge, match="^2\\^13 exceeds the enumeration bound 4096$"):
            FieldOrder(2, 13)

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
