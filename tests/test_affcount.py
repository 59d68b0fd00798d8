"""The affine group and the counting engines."""

import itertools
from fractions import Fraction

import pytest

from affrep import affcount
from affrep.affcount import (
    AffElem,
    BudgetExceeded,
    InvalidGroupTable,
    aff_elements,
    aff_group_table,
    aff_identity,
    commutator,
    commutator_distribution,
    count_closed,
    count_group_generic,
    count_naive,
    count_points,
    count_semi,
    validate_group_table,
)
from affrep.finitefield import FieldMismatch, make_field
from affrep.interpolate import prime_power

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)
F5 = make_field(5, 1)

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
        # the guard is checked before the group table is built
        monkeypatch.setattr(affcount, "aff_group_table", lambda field: pytest.fail("built"))
        with pytest.raises(BudgetExceeded):
            count_naive(F5, 3, guard=10**6)

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
        # the group over F_2 has order 2, so the naive sweep is 2^8 tuples
        assert count_semi(F2, 4).count == count_naive(F2, 4).count == 256

    def test_budget(self):
        # the work is the (q-1)^2 scaling pairs of one handle plus one step per handle
        f19 = make_field(19, 1)
        with pytest.raises(BudgetExceeded, match=r"\(q-1\)\^2"):
            count_semi(f19, 3, guard=18**2 + 3 - 1)
        assert count_semi(f19, 3, guard=18**2 + 3).count == 84217678403958

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
        n0, n1 = commutator_distribution(field)
        assert by_translation.pop(field.zero()) == n0 == count_naive(field, 1).count
        assert set(by_translation.values()) == {n1}


class TestClosedForm:
    @pytest.mark.parametrize(
        "q,genus,expected",
        [(2, 3, 64), (9, 2, 2991816), (16, 3, 11943951728640)],
    )
    def test_reference_values(self, q, genus, expected):
        assert count_closed(q, genus) == expected


class TestEngineAgreement:
    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    @pytest.mark.parametrize("genus", [1, 2])
    def test_three_engines_agree(self, q, genus):
        field = make_field(2, 2) if q == 4 else make_field(q, 1)
        naive = count_naive(field, genus).count
        semi = count_semi(field, genus).count
        closed = count_closed(q, genus)
        assert naive == semi == closed

    @pytest.mark.parametrize("genus", [1, 2, 3])
    def test_semi_matches_closed_on_reference_grid(self, genus):
        for q in REFERENCE_GRID:
            field = make_field(*prime_power(q))
            assert count_semi(field, genus).count == count_closed(q, genus)


class TestModulusIndependence:
    def test_f8_under_both_cubics(self):
        default = make_field(2, 3)
        other = make_field(2, 3, modulus=(1, 1, 0, 1))
        assert default.modulus != other.modulus
        for genus in (1, 2):
            assert count_semi(default, genus).count == count_semi(other, genus).count

    def test_f9_under_all_quadratics(self):
        counts = set()
        for modulus in [(1, 0, 1), (2, 1, 1), (2, 2, 1)]:
            field = make_field(3, 2, modulus=modulus)
            counts.add(count_semi(field, 2).count)
        assert len(counts) == 1


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
        assert table == [[index[x * y] for y in elems] for x in elems]
        assert ident == index[aff_identity(field)]


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
        for field, genus in [(F2, 1), (F3, 1), (F4, 1), (F2, 2), (F3, 2)]:
            table, ident = aff_group_table(field)
            generic = count_group_generic(table, ident, genus)
            assert generic == count_semi(field, genus).count == count_closed(field.order, genus)

    def test_budget(self):
        table, ident = aff_group_table(F5)
        with pytest.raises(BudgetExceeded):
            count_group_generic(table, ident, 4, guard=10**6)

    def test_budget_before_validation(self, monkeypatch):
        # an over-budget call fails at once, without the O(n^2) table validation
        monkeypatch.setattr(affcount, "validate_group_table", lambda *a: pytest.fail("validated"))
        table, ident = aff_group_table(F5)
        with pytest.raises(BudgetExceeded):
            count_group_generic(table, ident, 4, guard=10**6)

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
        # and 532 of the 1728 triples fail associativity, so 1000 sampled
        # triples (order 12 > 10) all miss with probability 0.69^1000
        n = 12
        table = [[(x + y + x * y * (x + y)) % n for y in range(n)] for x in range(n)]
        failing = sum(
            table[table[x][y]][z] != table[x][table[y][z]]
            for x, y, z in itertools.product(range(n), repeat=3)
        )
        assert failing == 532
        with pytest.raises(InvalidGroupTable, match="associativity"):
            count_group_generic(table, 0, 1)

    @pytest.mark.parametrize("bad", [-1, 5])
    def test_rejects_out_of_range_entry(self, bad):
        table = [[(i + j) % 5 for j in range(5)] for i in range(5)]
        table[3][4] = bad
        with pytest.raises(InvalidGroupTable, match="element indices"):
            count_group_generic(table, 0, 1)


class TestDispatch:
    def test_engine_selection(self):
        for engine in ("naive", "semi", "closed", "generic"):
            rec = count_points(F3, 1, engine=engine)
            assert rec.count == 18
            assert rec.engine == engine

    def test_unknown_engine(self):
        with pytest.raises(ValueError):
            count_points(F3, 1, engine="magic")
