"""The affine group and the counting engines."""

import itertools
import operator
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affrep import affcount
from affrep.affcount import (
    AffElem,
    Budget,
    BudgetExceeded,
    InvalidGroupTable,
    aff_elements,
    aff_group_table,
    aff_identity,
    commutator,
    conjugacy_classes,
    count_digits_bound,
    count_group_generic,
    count_naive,
    count_points,
    count_semi,
    handle_distribution,
    oracle_counts,
    semi_counts,
    validate_group_table,
)
from affrep.finitefield import FieldMismatch, FqElem, make_field
from affrep.interpolate import prime_power
from conftest import closed_count

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)
F5 = make_field(5, 1)
F7 = make_field(7, 1)

REFERENCE_GRID = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19)


class TestGroupStructure:
    def test_identity_is_neutral(self):
        for x in aff_elements(F5):
            assert x * aff_identity(F5) == x
            assert aff_identity(F5) * x == x

    def test_explicit_product_in_f5(self):
        x = AffElem(F5.element([2]), F5.element([1]))
        y = AffElem(F5.element([3]), F5.element([4]))
        assert x * y == AffElem(F5.element([1]), F5.element([4]))

    def test_inverse(self):
        for x in aff_elements(F4):
            assert x * x.inv() == aff_identity(F4)
            assert x.inv().inv() == x

    def test_translation_inverse(self):
        b = F5.element([3])
        x = AffElem(F5.one(), b)
        assert x.inv() == AffElem(F5.one(), -b)

    def test_diagonal_inverse(self):
        a = F5.element([2])
        x = AffElem(a, F5.zero())
        assert x.inv() == AffElem(a.inv(), F5.zero())

    def test_scaling_component_must_be_nonzero(self):
        with pytest.raises(ValueError):
            AffElem(F5.zero(), F5.one())

    def test_cross_field_product(self):
        with pytest.raises(FieldMismatch):
            AffElem(F5.one(), F5.zero()) * AffElem(F3.one(), F3.zero())


class TestCommutator:
    def test_self_commutator(self):
        for x in aff_elements(F3):
            assert commutator(x, x) == aff_identity(F3)

    def test_commutator_formula_on_all_pairs(self):
        # [(a1,b1), (a2,b2)] = (1, (a1-1) b2 - (a2-1) b1)
        one = F3.one()
        for x, y in itertools.product(aff_elements(F3), repeat=2):
            c = commutator(x, y)
            assert c.a == one
            assert c.b == (x.a - one) * y.b - (y.a - one) * x.b

    def test_translations_commute(self):
        t1 = AffElem(F5.one(), F5.element([2]))
        t2 = AffElem(F5.one(), F5.element([4]))
        assert commutator(t1, t2) == aff_identity(F5)

    def test_lands_in_translation_subgroup(self):
        for field in (F2, F4, F5):
            one = field.one()
            for x, y in itertools.product(aff_elements(field), repeat=2):
                assert commutator(x, y).a == one


class TestNaiveEngine:
    @pytest.mark.parametrize(
        "field,genus,expected", [(F2, 1, 4), (F5, 1, 100), (F2, 2, 16)]
    )
    def test_reference_counts(self, field, genus, expected):
        assert count_naive(field, genus).count == expected

    def test_budget(self, monkeypatch):
        # the guard is checked before the group table is built: (g + 1)|G|^2 = 4 * 20^2
        monkeypatch.setattr(affcount, "aff_group_table", lambda field: pytest.fail("built"))
        with pytest.raises(BudgetExceeded, match=r"\(g\+1\)\|G\|\^2 = 1600 "):
            count_naive(F5, 3, Budget(1599))

    @pytest.mark.parametrize("field,genus,charge", [(F2, 4, 5 * 2**2), (F5, 2, 3 * 20**2)])
    def test_budget_boundary(self, field, genus, charge):
        # (g + 1)|G|^2: table entries, handle commutators and g - 1 fold steps
        assert count_naive(field, genus, Budget(charge)).count == closed_count(field.order, genus)
        with pytest.raises(BudgetExceeded, match=rf"g = {genus}, .*\(guard {charge - 1}\)"):
            count_naive(field, genus, Budget(charge - 1))

    def test_record_fields(self):
        rec = count_naive(F4, 1)
        assert (rec.p, rec.n, rec.q, rec.genus, rec.engine) == (2, 2, 4, 1, "naive")
        assert rec.elapsed >= 0


class TestSemiEngine:
    def test_reference_count_genus_two(self):
        assert count_semi(F3, 2).count == 486

    def test_largest_reference_cell(self):
        f19 = make_field(19, 1)
        assert count_semi(f19, 3).count == 84217678403958

    def test_genus_four_against_naive_oracle(self):
        # the group over F_2 has order 2 and is abelian, so all 2^8 tuples count
        assert count_semi(F2, 4).count == count_naive(F2, 4).count == 256

    def test_budget(self):
        # one step per handle, each on counts of at most 4g * 5 = 60 bits, one word
        f19 = make_field(19, 1)
        with pytest.raises(BudgetExceeded, match="semi count needs 3 units, g = 3 chain steps"):
            count_semi(f19, 3, Budget(2))
        assert count_semi(f19, 3, Budget(3)).count == 84217678403958

    @pytest.mark.parametrize("genus", [1, 2, 3, 4])
    def test_frobenius_mednykh_formula(self, genus):
        # |Hom| = |G|^(2g-1) * sum over irreducible characters of chi(1)^(2-2g);
        # Aff(1, F_q) has q - 1 characters of degree 1 and one of degree q - 1
        for q in REFERENCE_GRID:
            order = q * (q - 1)
            character_sum = (q - 1) + Fraction(q - 1) ** (2 - 2 * genus)
            expected = Fraction(order) ** (2 * genus - 1) * character_sum
            assert count_semi(make_field(*prime_power(q)), genus).count == expected


class TestCommutatorDistribution:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_matches_group_law(self, q):
        field = make_field(*prime_power(q))
        by_translation = {e: 0 for e in field.elements()}
        for x, y in itertools.product(aff_elements(field), repeat=2):
            by_translation[commutator(x, y).b] += 1
        n0, n1 = handle_distribution(q)
        assert by_translation.pop(field.zero()) == n0 == count_naive(field, 1).count
        assert set(by_translation.values()) == {n1}


PRIME_POWERS_TO_64 = tuple(q for q in range(2, 65) if prime_power(q))


def _rank_tally(field):
    # (N0, N1) of one handle by visiting the (q - 1)^2 shifted scaling pairs
    # (alpha_1, alpha_2), alpha_i != -1, of the linear-form model: the form
    # alpha_1 beta_2 - alpha_2 beta_1 has q^2 solutions over the identity at
    # rank 0 and, at rank 1, q over each translation
    alphas = [a for a in field.elements() if a != -field.one()]
    n0 = n1 = 0
    for a1, a2 in itertools.product(alphas, repeat=2):
        if a1.is_zero() and a2.is_zero():
            n0 += field.order**2
        else:
            n0, n1 = n0 + field.order, n1 + field.order
    return n0, n1


class TestSemiChain:
    @pytest.mark.parametrize("q", PRIME_POWERS_TO_64)
    def test_chain_matches_each_count(self, q):
        field = make_field(*prime_power(q))
        for genus_max in range(1, 7):
            chain = semi_counts(q, range(1, genus_max + 1))
            assert list(chain) == list(range(1, genus_max + 1))
            assert list(chain.values()) == [count_semi(field, g).count for g in chain]
            assert list(chain.values()) == [closed_count(q, g) for g in chain]

    @pytest.mark.parametrize("q", PRIME_POWERS_TO_64 + (81, 125, 128, 256))
    def test_distribution_matches_its_closed_value(self, q):
        assert handle_distribution(q) == _rank_tally(make_field(*prime_power(q)))

    def test_chain_keeps_only_the_genera_asked(self):
        assert semi_counts(5, [3, 1]) == {1: 100, 3: 12812500}

    def test_chain_is_charged_once(self):
        # g = 5 steps on counts of at most 4g * 5 = 100 bits, two words each,
        # for the whole chain, not per genus
        budget = Budget(10)
        assert semi_counts(19, range(1, 6), budget)[3] == 84217678403958
        assert budget.used == 10
        with pytest.raises(BudgetExceeded, match="semi count needs 10 units"):
            semi_counts(19, range(1, 6), Budget(9))

    @pytest.mark.parametrize("q", [2, 3, 5, 47, 4096])
    def test_charge_tracks_the_words_performed(self, q):
        # step k multiplies u and v, both at most u_k, the count at genus k, by
        # numbers of a few words; performed is the words of u_k summed over
        # the steps, and the charge is between it and 8 times it
        for genus in (1, 2, 10, 100, 1000):
            chain = semi_counts(q, range(1, genus + 1)).values()
            performed = sum(-(-u.bit_length() // 64) for u in chain)
            charge = affcount.count_charge(q, genus, "semi")[0]
            assert performed <= charge <= 8 * performed, (genus, performed, charge)

    def test_chain_needs_a_positive_genus(self):
        with pytest.raises(ValueError, match="genus must be >= 1"):
            semi_counts(3, [0])


class TestClosedForm:
    @pytest.mark.parametrize(
        "q,genus,expected",
        [(2, 3, 64), (9, 2, 2991816), (16, 3, 11943951728640)],
    )
    def test_reference_values(self, q, genus, expected):
        assert closed_count(q, genus) == expected
        assert count_points(make_field(*prime_power(q)), genus, "closed").count == expected

    @pytest.mark.parametrize("q", PRIME_POWERS_TO_64)
    def test_engine_matches_the_oracle(self, q):
        # the engine evaluates rep_class; the oracle is the formula on plain ints
        field = make_field(*prime_power(q))
        for genus in range(1, 7):
            assert count_points(field, genus, "closed").count == closed_count(q, genus)

    def test_budget(self):
        # building the genus-2 class, (2g+1) w (1+w) = 5 * 1 * 2, and 4g = 8 Horner
        # steps on a count of 4g times the bits of q = 40 bits, one word each
        f16 = make_field(2, 4)
        assert count_points(f16, 2, "closed", Budget(18)).count == 16**3 * (15**4 + 15)
        with pytest.raises(BudgetExceeded, match=r"\(guard 17\)"):
            count_points(f16, 2, "closed", Budget(17))

    @pytest.mark.parametrize("genus,units", [(3616, 99713234), (3617, 101404854)])
    def test_default_guard_edge_over_f2(self, genus, units):
        assert affcount.count_charge(2, genus, "closed")[0] == units

    def test_large_genus_is_refused_before_the_class_is_built(self, monkeypatch):
        # the class of genus 10^5 has 2 * 10^5 + 1 binomials of up to 2 * 10^5 bits
        def build(genus):
            raise AssertionError("the class was built")

        monkeypatch.setattr(affcount, "rep_class", build)
        with pytest.raises(BudgetExceeded, match=r"1953759768750 to build the genus-100000 class"):
            count_points(F2, 100000, "closed")

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 17, 27, 243, 4093, 4096])
    def test_digits_bound_is_tight(self, q):
        # over the count's digits by at most one plus 0.5 %; compared with
        # powers of ten, as the counts outgrow printing
        for genus in (1, 2, 3, 10, 100, 1000):
            bound = count_digits_bound(q, genus)
            count = closed_count(q, genus)
            assert 10 ** (bound - 2 - bound // 200) <= count < 10**bound, genus


class TestEngineAgreement:
    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    @pytest.mark.parametrize("genus", [1, 2])
    def test_three_engines_agree(self, q, genus):
        field = make_field(2, 2) if q == 4 else make_field(q, 1)
        naive = count_naive(field, genus).count
        semi = count_semi(field, genus).count
        closed = closed_count(q, genus)
        assert naive == semi == closed

    @pytest.mark.parametrize("genus", [1, 2, 3])
    def test_semi_matches_closed_on_reference_grid(self, genus):
        for q in REFERENCE_GRID:
            field = make_field(*prime_power(q))
            assert count_semi(field, genus).count == closed_count(q, genus)


class TestModulusIndependence:
    # the table oracle builds its group table from the modulus, so each
    # modulus counts on its own table; semi reads q alone and could not differ
    @staticmethod
    def _naive_counts(p, n, moduli):
        fields = [make_field(p, n, modulus=m) for m in moduli]
        tables = {tuple(map(tuple, aff_group_table(field)[0])) for field in fields}
        assert len(tables) == len(moduli)
        return {genus: {count_naive(field, genus).count for field in fields} for genus in (1, 2)}

    def test_f8_under_both_cubics(self):
        counts = self._naive_counts(2, 3, [(1, 0, 1, 1), (1, 1, 0, 1)])
        assert counts == {genus: {closed_count(8, genus)} for genus in (1, 2)}

    def test_f9_under_all_quadratics(self):
        counts = self._naive_counts(3, 2, [(1, 0, 1), (2, 1, 1), (2, 2, 1)])
        assert counts == {genus: {closed_count(9, genus)} for genus in (1, 2)}


def _cyclic_table(m):
    return [[(i + j) % m for j in range(m)] for i in range(m)], 0


def _quaternion_table():
    # Q8 = {+-1, +-i, +-j, +-k}: element 2*u + s is (-1)^s times unit u of (1, i, j, k),
    # with ij = k, jk = i, ki = j, the reversed products negated and i^2 = j^2 = k^2 = -1
    cyclic = {(1, 2): 3, (2, 3): 1, (3, 1): 2}

    def unit_product(u, v):
        if u == 0 or v == 0:
            return u + v, 0
        if u == v:
            return 0, 1
        if (u, v) in cyclic:
            return cyclic[u, v], 0
        return cyclic[v, u], 1

    table = []
    for x in range(8):
        row = []
        for y in range(8):
            unit, sign = unit_product(x // 2, y // 2)
            row.append(2 * unit + (sign + x + y) % 2)
        table.append(row)
    return table, 0


class TestGroupTable:
    @pytest.mark.parametrize("q", [q for q in range(2, 17) if prime_power(q)])
    def test_matches_affelem_products(self, q):
        # the table is built from F_q index tables; the group law is its reference
        field = make_field(*prime_power(q))
        elems = aff_elements(field)
        index = {e: i for i, e in enumerate(elems)}  # elems.index, by hash
        table, ident = aff_group_table(field)
        assert all(type(row) is tuple for row in table)
        assert table == [tuple(index[x * y] for y in elems) for x in elems]
        assert ident == index[aff_identity(field)]

    @pytest.mark.parametrize("q", [q for q in range(2, 65) if prime_power(q)])
    def test_addition_rows_match_fqelem_sums(self, q):
        # the rows come from base-p digits; FqElem addition is their reference
        field = make_field(*prime_power(q))
        elems = list(field.elements())
        rows = affcount._addition_rows(field)
        assert rows == [tuple((x + y).index() for y in elems) for x in elems]

    def test_no_fqelem_sum(self, monkeypatch):
        # the table takes no FqElem sum, and so no addition of F_q at all
        field = make_field(3, 2)
        expected = aff_group_table(field)
        monkeypatch.setattr(FqElem, "__add__", lambda *a: pytest.fail("added"))
        assert aff_group_table(field) == expected


class TestGenericEngine:
    def test_trivial_group(self):
        for genus in (1, 2, 3):
            assert count_group_generic([[0]], 0, genus) == 1

    def test_aff_f3_table(self):
        table, ident = aff_group_table(F3)
        assert len(table) == 6
        assert count_group_generic(table, ident, 1) == 18

    @pytest.mark.parametrize("m", [1, 2, 5, 8])
    def test_cyclic_groups(self, m):
        table, ident = _cyclic_table(m)
        assert count_group_generic(table, ident, 1) == m**2

    def test_agrees_with_semi_and_closed(self):
        f9 = make_field(3, 2)
        cases = [(F2, 1), (F3, 1), (F4, 1), (F2, 2), (F3, 2), (F5, 2), (F7, 2), (F4, 3), (F3, 4)]
        for field, genus in cases + [(f9, 2), (f9, 60)]:
            table, ident = aff_group_table(field)
            generic = count_group_generic(table, ident, genus)
            assert generic == count_semi(field, genus).count == closed_count(field.order, genus)

    def test_budget(self):
        # (g + 1)|G|^2 = 5 * 20^2 at genus 4
        table, ident = aff_group_table(F5)
        budget = Budget(2000)
        assert count_group_generic(table, ident, 4, budget) == closed_count(5, 4)
        assert budget.used == 2000
        with pytest.raises(BudgetExceeded, match=r"\(guard 1999\)"):
            count_group_generic(table, ident, 4, Budget(1999))

    def test_budget_before_validation(self, monkeypatch):
        # an over-budget call fails at once, without the O(n^2) table validation
        monkeypatch.setattr(affcount, "validate_group_table", lambda *a: pytest.fail("validated"))
        table, ident = aff_group_table(F5)
        with pytest.raises(BudgetExceeded):
            count_group_generic(table, ident, 4, Budget(1999))

    def test_default_budget(self):
        # no budget is a fresh default-guard one: at genus 10^6 the 20-element
        # table charges (10^6 + 1) * 400, over 10^8, before any fold step
        table, ident = aff_group_table(F5)
        with pytest.raises(BudgetExceeded, match=r"\(guard 100000000\)"):
            count_group_generic(table, ident, 10**6)
        with pytest.raises(BudgetExceeded, match=r"\(guard 100000000\)"):
            oracle_counts(table, ident, 10**6)

    def test_oracle_counts_budget(self, monkeypatch):
        # the sweep to genus 3 charges 4 * 20^2, before the table is validated
        table, ident = aff_group_table(F5)
        budget = Budget(1600)
        assert oracle_counts(table, ident, 3, budget)[0] == [closed_count(5, g) for g in (1, 2, 3)]
        assert budget.used == 1600
        monkeypatch.setattr(affcount, "validate_group_table", lambda *a: pytest.fail("validated"))
        with pytest.raises(BudgetExceeded, match=r"= 1600 steps .* \(guard 1599\)"):
            oracle_counts(table, ident, 3, Budget(1599))

    def test_engine_budget(self):
        # the generic engine is the table oracle's: the same charge, and an
        # over-budget count builds and validates no table
        assert count_points(F5, 4, "generic", Budget(2000)).count == closed_count(5, 4)
        with pytest.raises(BudgetExceeded, match=r"\(guard 1999\)"):
            count_points(F5, 4, "generic", Budget(1999))

    def test_engine_budget_before_building(self, monkeypatch):
        monkeypatch.setattr(affcount, "aff_group_table", lambda *a: pytest.fail("built"))
        monkeypatch.setattr(affcount, "validate_group_table", lambda *a: pytest.fail("validated"))
        with pytest.raises(BudgetExceeded):
            count_points(F5, 4, "generic", Budget(1999))

    @pytest.mark.parametrize("genus,expected", [(1, 40), (2, 2176), (3, 133120)])
    def test_quaternion_group(self, genus, expected):
        # Frobenius-Mednykh: |G| * sum over characters of (|G|/chi(1))^(2g-2);
        # Q8 has four characters of degree 1 and one of degree 2
        table, ident = _quaternion_table()
        assert validate_group_table(table, ident) == [0, 1, 3, 2, 5, 4, 7, 6]
        assert 8 * (4 * 8 ** (2 * genus - 2) + 4 ** (2 * genus - 2)) == expected
        assert count_group_generic(table, ident, genus) == expected

    def test_rejects_non_square_table(self):
        with pytest.raises(InvalidGroupTable):
            count_group_generic([[0, 1], [1]], 0, 1)

    def test_rejects_bad_identity(self):
        with pytest.raises(InvalidGroupTable):
            count_group_generic([[0, 1], [1, 0]], 1, 1)

    def test_rejects_missing_inverse(self):
        # row of x=1 never reaches the identity 0
        table = [[0, 1], [1, 1]]
        with pytest.raises(InvalidGroupTable):
            count_group_generic(table, 0, 1)

    def test_rejects_non_associative(self):
        # Z5 addition with t[1][1] and t[1][2] swapped: identity and inverses
        # survive but (1*2)*1 != 1*(2*1)
        table = [[(i + j) % 5 for j in range(5)] for i in range(5)]
        table[1][1], table[1][2] = table[1][2], table[1][1]
        with pytest.raises(InvalidGroupTable):
            count_group_generic(table, 0, 1)

    def test_rejects_non_associative_sampled(self):
        # x*y = x + y + xy(x + y) mod 12: commutative, identity 0, inverse -x,
        # and 532 of the 1728 triples fail associativity, so the 144 pairs of
        # whole rows (every pair, as order 12 < 15) cannot all agree
        n = 12
        table = [[(x + y + x * y * (x + y)) % n for y in range(n)] for x in range(n)]
        failing = sum(
            table[table[x][y]][z] != table[x][table[y][z]]
            for x, y, z in itertools.product(range(n), repeat=3)
        )
        assert failing == 532
        with pytest.raises(InvalidGroupTable, match="associativity"):
            count_group_generic(table, 0, 1)

    def test_rejects_row_with_two_identities_sampled(self):
        # Z_64 with 4*7 set to the identity 0: row 4 holds it at 7 and at 60,
        # 60 is still a two-sided inverse of 4, and the ceil(3000/64) = 47
        # seeded pairs (order 64 > 14) gather no pair of rows that differ, so
        # only the row check is left to reject it; counting the last handles
        # c with c = p^-1 would miscount such a table
        n = 64
        table, ident = _cyclic_table(n)
        table[4][7] = ident
        picks = random.Random(0).choices(range(n), k=2 * -(-3000 // n))
        pairs = zip(picks[0::2], picks[1::2])
        assert all(
            table[table[x][y]][z] == table[x][table[y][z]] for x, y in pairs for z in range(n)
        )
        with pytest.raises(InvalidGroupTable, match="row 4 holds the identity 2 times"):
            count_group_generic(table, ident, 1)

    def test_rejects_second_identity_after_the_inverse(self):
        # as above with the extra identity at 61, past the inverse 60: the
        # inverse scan stops before it, so only the row's tail shows it
        table, ident = _cyclic_table(64)
        table[4][61] = ident
        with pytest.raises(InvalidGroupTable, match="row 4 holds the identity 2 times"):
            validate_group_table(table, ident)

    def test_single_defect_in_z32_fails_associativity(self):
        # Z_32 with 5*4 set to the identity 0 passed the old sample of 1000
        # single triples; a pair of whole rows through row 5 now catches it
        table, ident = _cyclic_table(32)
        table[5][4] = ident
        with pytest.raises(InvalidGroupTable, match="associativity fails on"):
            validate_group_table(table, ident)

    def test_named_triple_fails(self):
        # each defect t[a][b] = a + b + 1 of Z_12 and Z_20 that associativity
        # refuses, and the non-associative table above, names a triple
        # (x, y, z) with (xy)z != x(yz)
        tables = [[[(x + y + x * y * (x + y)) % 12 for y in range(12)] for x in range(12)]]
        for n in (12, 20):
            for a, b in itertools.product(range(1, n), repeat=2):
                table, _ = _cyclic_table(n)
                table[a][b] = (a + b + 1) % n
                tables.append(table)
        refused = 0
        for table in tables:
            try:
                validate_group_table(table, 0)
            except InvalidGroupTable as exc:
                if "associativity" not in str(exc):
                    continue
                x, y, z = map(int, str(exc).split("(")[1].rstrip(")").split(", "))
                # the first z of the row pair (x, y) at which the rows differ
                assert table[table[x][y]][z] != table[x][table[y][z]]
                assert all(table[table[x][y]][w] == table[x][table[y][w]] for w in range(z))
                refused += 1
        assert refused > len(tables) // 2

    def test_sampled_pairs_cover_3000_triples(self):
        # each pair checks a whole row of n triples; below order 15 every pair,
        # as n^3 <= 3000 there
        for n in range(1, 15):
            assert sorted(affcount._associativity_pairs(n)) == list(
                itertools.product(range(n), repeat=2)
            )
        for n in range(15, 301):
            pairs = list(affcount._associativity_pairs(n))
            assert len(pairs) * n >= 3000
            assert all(0 <= x < n and 0 <= y < n for x, y in pairs)

    def test_inverses_of_small_tables_and_aff_tables(self):
        # the inverse of x is the one y with x*y = identity = y*x
        groups = [(table, ident) for _, table, ident in _small_tables()]
        groups += [
            aff_group_table(make_field(*prime_power(q))) for q in REFERENCE_GRID if q <= 16
        ]
        for table, ident in groups:
            expected = [row.index(ident) for row in table]
            assert all(table[y][x] == ident for x, y in enumerate(expected))
            assert validate_group_table(table, ident) == expected

    def test_rows_may_be_tuples(self):
        # rows compared after a gather are tuples either way
        for _, table, ident in _small_tables():
            rows = [tuple(row) for row in table]
            assert validate_group_table(rows, ident) == validate_group_table(table, ident)

    @pytest.mark.parametrize("bad", [-1, 5])
    def test_rejects_out_of_range_entry(self, bad):
        table = [[(i + j) % 5 for j in range(5)] for i in range(5)]
        table[3][4] = bad
        with pytest.raises(InvalidGroupTable, match="element indices"):
            count_group_generic(table, 0, 1)


def _commuting_pairs(table):
    # the pairs with x y = y x: row x against column x above the diagonal,
    # doubled for the pairs below it, plus the |G| on it
    upper = sum(
        sum(map(operator.eq, row[x + 1 :], map(operator.itemgetter(x), table[x + 1 :])))
        for x, row in enumerate(table)
    )
    return 2 * upper + len(table)


def _brute_force_count(table, identity, genus):
    # every tuple of g handles, each handle's commutator x y x^-1 y^-1
    # multiplied out in the table and the g commutators multiplied left to right
    n = len(table)
    inv = [row.index(identity) for row in table]
    handles = [
        table[table[table[x][y]][inv[x]]][inv[y]] for x in range(n) for y in range(n)
    ]
    count = 0
    for combo in itertools.product(handles, repeat=genus):
        prod = identity
        for c in combo:
            prod = table[prod][c]
        count += prod == identity
    return count


def _small_tables():
    # (name, table, identity) of Aff(1, F_q) for q = 2..5, Z_n and Q8
    for q in (2, 3, 4, 5):
        yield (f"aff{q}", *aff_group_table(make_field(*prime_power(q))))
    for m in (1, 2, 3, 5, 8):
        yield (f"z{m}", *_cyclic_table(m))
    yield ("q8", *_quaternion_table())


# every (table, genus) whose |G|^2g tuples number at most 10^5
BRUTE_FORCE_CASES = [
    pytest.param(table, ident, genus, id=f"{name}-g{genus}")
    for name, table, ident in _small_tables()
    for genus in range(1, 9)
    if len(table) ** (2 * genus) <= 10**5
]


class TestFoldAgainstBruteForce:
    @pytest.mark.parametrize("table,ident,genus", BRUTE_FORCE_CASES)
    def test_fold_matches_tuple_enumeration(self, table, ident, genus):
        assert count_group_generic(table, ident, genus) == _brute_force_count(table, ident, genus)

    def test_handle_commutators_of_aff_f3(self):
        # the translations (1, b) have indices ident + b; Aff(1, F_3) has
        # N0 = 18 handles with commutator the identity and N1 = 9 for each other
        table, ident = aff_group_table(F3)
        h = oracle_counts(table, ident, 1)[1]
        assert dict(h) == {ident: 18, ident + 1: 9, ident + 2: 9}
        assert (h[ident], h[ident + 1]) == handle_distribution(3)

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
    def test_genus_one_oracle_memory_at_q31(self):
        # a fresh process, so the peak is the oracle's own: the 930^2-entry
        # table at 8 bytes of pointer per entry is about 7 MB, while a table
        # with an int object per entry and a transposed copy grew by 39 MB
        probe = """
import sys
sys.path.insert(0, sys.argv[1])
from affrep.affcount import count_naive
from affrep.finitefield import make_field

def hwm_kb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

field = make_field(31, 1)
before = hwm_kb()
count = count_naive(field, 1).count
print(count, hwm_kb() - before)
"""
        src = str(Path(affcount.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-I", "-c", probe, src], capture_output=True, text=True, check=True
        ).stdout
        count, growth_kb = map(int, out.split())
        assert count == closed_count(31, 1)
        assert growth_kb < 16 * 1024


def _symmetric_table():
    # S3 as the permutations of (0, 1, 2) in lexicographic order, x * y = x after y
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(x[y[k]] for k in range(3))] for y in perms] for x in perms]
    return table, index[(0, 1, 2)]


def _relabel(table, identity, perm):
    # the same group with element x renamed perm[x]
    relabelled = [[0] * len(table) for _ in table]
    for x, row in enumerate(table):
        for y, xy in enumerate(row):
            relabelled[perm[x]][perm[y]] = perm[xy]
    return relabelled, perm[identity]


# Aff(1, F_q) for q <= 5, Z_n for n <= 12, Q8 and S3
RELABELLING_GROUPS = (
    [(f"aff{q}", aff_group_table(make_field(*prime_power(q)))) for q in (2, 3, 4, 5)]
    + [(f"z{n}", _cyclic_table(n)) for n in range(1, 13)]
    + [("q8", _quaternion_table()), ("s3", _symmetric_table())]
)


@st.composite
def _relabelled_groups(draw):
    name, (table, identity) = draw(st.sampled_from(RELABELLING_GROUPS))
    perm = draw(st.permutations(range(len(table))))
    return name, (table, identity), _relabel(table, identity, perm)


class TestOracleOnRelabelledTables:
    @settings(max_examples=60)
    @given(_relabelled_groups())
    def test_relabelling_keeps_every_count(self, group):
        _, (table, identity), (relabelled, ident) = group
        n = len(relabelled)
        singles = [count_group_generic(relabelled, ident, genus) for genus in (1, 2, 3)]
        for genus, count in enumerate(singles, start=1):
            if n ** (2 * genus) <= 10**5:
                assert count == _brute_force_count(relabelled, ident, genus)
        assert oracle_counts(relabelled, ident, 3)[0] == singles
        # the classes are gathered from the least unclassified label up, so
        # their order moves with the labels, their sizes must not
        assert singles[0] == count_group_generic(table, identity, 1)
        assert singles[0] == _commuting_pairs(relabelled)
        classes = conjugacy_classes(relabelled, validate_group_table(relabelled, ident))
        original = conjugacy_classes(table, validate_group_table(table, identity))
        assert sorted(map(len, classes)) == sorted(map(len, original))


# Aff(1, F_q) for q <= 16 in the reference grid, Z_n for n <= 12, Q8 and S3
CLASS_EQUATION_GROUPS = [
    (f"aff{q}", aff_group_table(make_field(*prime_power(q)))) for q in REFERENCE_GRID if q <= 16
] + [group for group in RELABELLING_GROUPS if not group[0].startswith("aff")]


class TestConjugacyClasses:
    @pytest.mark.parametrize("q", [q for q in REFERENCE_GRID if q <= 16])
    def test_class_sizes_of_aff(self, q):
        # the identity, the q - 1 nontrivial translations, and for each scaling
        # a != 1 its q elements (a, b); the centralizers are G, F_q and a torus
        # of order q - 1, |G| over each size.  F_2 is abelian: two singletons.
        table, ident = aff_group_table(make_field(*prime_power(q)))
        classes = conjugacy_classes(table, validate_group_table(table, ident))
        assert sorted(map(len, classes)) == sorted([1, q - 1] + [q] * (q - 2))
        assert {ident} in classes

    def test_classes_of_aff_f3(self):
        # (a, b) has index (idx(a) - 1) * 3 + idx(b): the identity is 0, the
        # translations 1 and 2, and the scalings by 2 are 3, 4 and 5
        table, ident = aff_group_table(F3)
        assert conjugacy_classes(table, validate_group_table(table, ident)) == [
            {0},
            {1, 2},
            {3, 4, 5},
        ]

    @pytest.mark.parametrize(
        "table,ident", [pytest.param(*group, id=name) for name, group in CLASS_EQUATION_GROUPS]
    )
    def test_class_equation_counts_the_commuting_pairs(self, table, ident):
        # the classes partition G in order of least element, each is the set
        # of z with y x = z y for some y, and |G| k(G) is the row-against-
        # column count (an abelian table has |G| singleton classes)
        n = len(table)
        classes = conjugacy_classes(table, validate_group_table(table, ident))
        assert sorted(itertools.chain.from_iterable(classes)) == list(range(n))
        assert [min(c) for c in classes] == sorted(min(c) for c in classes)
        for c in classes:
            x = min(c)
            assert c == {z for z in range(n) if any(table[y][x] == table[z][y] for y in range(n))}
        assert n * len(classes) == _commuting_pairs(table) == count_group_generic(table, ident, 1)


class TestDispatch:
    def test_engine_selection(self):
        for engine in ("naive", "semi", "closed", "generic"):
            rec = count_points(F3, 1, engine=engine)
            assert rec.count == 18
            assert rec.engine == engine

    def test_unknown_engine(self):
        with pytest.raises(ValueError):
            count_points(F3, 1, engine="magic")
