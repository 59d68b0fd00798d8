"""Transfer-matrix data, surface closing and reconstruction."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from affrep import tqft
from affrep.affcount import count_semi, handle_distribution
from affrep.exactpoly import ONE, Q, ZERO, IntPoly, NotDivisible, chain
from affrep.finitefield import make_field
from affrep.geomstrat import GenusOutOfRange, rep_class
from affrep.interpolate import prime_power
from affrep.tqft import (
    ReconstructionError,
    build_transfer,
    close_surface,
    eigen_verify,
    normalized,
    reconstruct_transfer,
    surface_classes,
)

QM1 = Q - ONE
GROUP = Q * QM1


@pytest.fixture(scope="module")
def data():
    return build_transfer()


class TestTransferData:
    def test_top_left_entry(self, data):
        assert data.matrix[0][0] == GROUP * (Q**3 - Q**2) == Q**3 * QM1**2

    def test_generic_fiber_vanishes_at_two(self, data):
        assert data.fiber_generic(2) == 0

    def test_complement_identities(self, data):
        ambient = QM1**3 * Q**3
        assert data.fiber_identity_twisted == ambient - data.fiber_identity
        assert data.fiber_generic_twisted == ambient - data.fiber_generic

    def test_columns_assemble_the_matrix(self, data):
        assert data.matrix == (
            (data.fiber_identity, data.fiber_identity_twisted),
            (data.fiber_generic, data.fiber_generic_twisted),
        )

    def test_group_class(self, data):
        assert data.group_class == Q**2 - Q

    def test_normalized_matrix_is_the_commutator_distribution(self, data):
        normalized = [[e.exact_div(data.group_class) for e in row] for row in data.matrix]
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19):
            n0, n1 = handle_distribution(q)
            evaluated = [[e(q) for e in row] for row in normalized]
            assert evaluated == [[n0, (q - 1) * n1], [n1, n0 + (q - 2) * n1]]


def _states(matrix):
    # the circle states M^k (1, 0) for k = 1, 2, ...: the first coordinate
    # u_k from the chain, the second from u_(k+1) = a u_k + b v_k
    (a, b), _ = matrix
    values = chain(matrix)
    u = next(values)
    for u_next in values:
        yield u, (u_next - a * u).exact_div(b)
        u = u_next


@pytest.fixture
def glued(monkeypatch):
    # every value drawn from the chain tqft glues with, one per holed torus
    drawn = []

    def counted_chain(matrix):
        for u in chain(matrix):
            drawn.append(u)
            yield u

    monkeypatch.setattr(tqft, "chain", counted_chain)
    return drawn


@pytest.fixture
def divided(monkeypatch):
    # the divisor of every exact division, in order
    divisors, exact_div = [], IntPoly.exact_div

    def counted_div(self, d):
        divisors.append(d)
        return exact_div(self, d)

    monkeypatch.setattr(IntPoly, "exact_div", counted_div)
    return divisors


class TestApplyTransfer:
    """One pass of the transfer matrix over a circle state, read from its chain."""

    def test_image_of_the_identity_generator(self, data):
        assert next(_states(data.matrix)) == (GROUP * (Q**3 - Q**2), GROUP * (Q**3 - 2 * Q**2))

    def test_linearity_at_zero(self, data):
        # a matrix sending (1, 0) to the zero state keeps it there
        (_, b), (_, d) = data.matrix
        zero_column = ((ZERO, b), (ZERO, d))
        assert list(itertools.islice(chain(zero_column), 4)) == [ZERO] * 4

    def test_image_of_the_punctured_generator(self, data):
        # M (0, 1) is the image of (1, 0) under M with the generators swapped
        (a, b), (c, d) = data.matrix
        swapped = ((d, c), (b, a))
        assert next(_states(swapped)) == (data.fiber_generic_twisted, data.fiber_identity_twisted)


class TestCloseSurface:
    def test_genus_one(self, data):
        assert close_surface(1, data) == Q**3 - Q**2

    def test_genus_two(self, data):
        assert close_surface(2, data) == Q**7 - 4 * Q**6 + 6 * Q**5 - 3 * Q**4

    def test_genus_five_against_stratification_oracle(self, data):
        assert close_surface(5, data) == Q**9 * (QM1**10 + Q - ONE) == rep_class(5)

    def test_matches_stratification_up_to_genus_ten(self, data):
        for genus in range(1, 11):
            assert close_surface(genus, data) == rep_class(genus)

    @pytest.mark.parametrize("genus", [31, 32, 33, 63, 64])
    def test_matches_stratification_where_the_top_bit_moves(self, data, genus):
        assert close_surface(genus, data) == rep_class(genus)

    def test_evaluations_match_point_counts(self, data):
        for genus, q in [(1, 4), (2, 5), (2, 9), (3, 8)]:
            field = make_field(*prime_power(q))
            assert close_surface(genus, data)(q) == count_semi(field, genus).count

    def test_evaluations_across_the_full_reference_grid(self, data):
        from affrep.cli import load_golden_table

        cells, checksum_ok = load_golden_table()
        assert checksum_ok
        for genus, q, count in cells:
            assert close_surface(genus, data)(q) == count

    def test_genus_zero_rejected(self, data):
        from affrep.cli import cmd_tqft

        with pytest.raises(GenusOutOfRange):
            close_surface(0, data)
        with pytest.raises(GenusOutOfRange):
            cmd_tqft(0)

    def test_semigroup_law(self, data):
        for genus, c_i in zip(range(1, 6), chain(data.matrix)):
            assert c_i == data.group_class**genus * close_surface(genus, data)

    def test_projection_law(self, data):
        # gluing by hand and projecting onto the identity coordinate agrees
        # with close_surface
        for genus, c_i in zip(range(1, 6), chain(data.matrix)):
            assert c_i.exact_div(data.group_class**genus) == close_surface(genus, data)

    def test_gluing_matches_the_matrix_power(self, data, power_class):
        # the route that does not glue: top-left of M^g from 2x2 products
        for genus in range(1, 13):
            assert close_surface(genus, data) == power_class(data.matrix, genus)

    def test_one_sweep_gives_every_genus(self, data, glued):
        assert surface_classes(data.matrix, range(1, 13)) == {g: rep_class(g) for g in range(1, 13)}
        assert len(glued) == 12

    @pytest.mark.parametrize("genera", [[9, 2, 5], range(1, 41)])
    def test_any_genera_asked_divide_three_times(self, data, glued, divided, genera):
        # the matrix is normalized once, before the chain: a by q(q-1), bc by
        # its square and d by q(q-1); no genus divides again
        classes = surface_classes(data.matrix, genera)
        assert classes == {g: rep_class(g) for g in sorted(genera)}
        assert len(glued) == max(genera)
        assert divided == [GROUP, GROUP**2, GROUP]

    @pytest.mark.parametrize("genus", [1, 2, 7])
    def test_close_surface_glues_g_tori_and_divides_three_times(self, data, glued, divided, genus):
        assert close_surface(genus, data) == rep_class(genus)
        assert len(glued) == genus
        assert divided == [GROUP, GROUP**2, GROUP]

    @given(*[st.builds(IntPoly, st.lists(st.integers(-9, 9), max_size=4))] * 3)
    def test_a_scaled_matrix_glues_as_its_unscaled_one(self, a, b, d):
        # a matrix whose chain's k-th value is (q(q-1))^k times that of
        # ((a, b), (1, d)) gives that matrix's chain, exactly, at genus 1-8
        scaled = ((GROUP * a, GROUP**2 * b), (ONE, GROUP * d))
        unscaled = dict(zip(range(1, 9), chain(((a, b), (ONE, d)))))
        assert surface_classes(scaled, range(1, 9)) == unscaled

    def test_genera_below_one_are_rejected(self, data):
        with pytest.raises(GenusOutOfRange):
            surface_classes(data.matrix, [0, 3])
        with pytest.raises(GenusOutOfRange):
            surface_classes(data.matrix, [])

    def test_failed_division_is_fatal(self):
        # a matrix whose chain starts at a class that is not a multiple of q(q-1)
        with pytest.raises(NotDivisible):
            surface_classes(((Q + ONE, ZERO), (ZERO, ZERO)), [1])

    @pytest.mark.parametrize("entry", [0, 1, 2])
    def test_each_entry_must_normalize(self, data, entry):
        # a and d must each be divisible by q(q-1), and bc by its square, even
        # for genus 1 alone, whose class is a / q(q-1)
        (a, b), (c, d) = data.matrix
        entries = [a, b * c, d]
        entries[entry] += Q
        broken = ((entries[0], entries[1]), (ONE, entries[2]))
        with pytest.raises(NotDivisible):
            surface_classes(broken, [1])


class TestReconstruction:
    def test_reference_entries(self, data):
        a, b, d = reconstruct_transfer(
            close_surface(1, data), close_surface(2, data), close_surface(3, data)
        )
        assert a == QM1**2 * Q**3
        assert b == QM1**3 * (Q - 2) ** 2 * Q**6
        assert d == (Q**2 - 3 * Q + 3) * QM1 * Q**3

    def test_reconstructed_matrix_reproduces_the_classes(self, data, power_class):
        a, b, d = reconstruct_transfer(*surface_classes(data.matrix, range(1, 4)).values())
        matrix = ((a, b), (ONE, d))
        for genus in range(1, 7):
            assert power_class(matrix, genus) == close_surface(genus, data)
        assert surface_classes(matrix, range(1, 7)) == surface_classes(data.matrix, range(1, 7))

    def test_zero_data_is_degenerate(self):
        with pytest.raises(ReconstructionError):
            reconstruct_transfer(ZERO, ZERO, ZERO)

    def test_equal_first_two_classes_are_degenerate(self):
        # e2 = e1^2 q(q-1) makes the upper-right entry vanish
        e1 = Q
        e2 = (GROUP * e1 * GROUP * e1).exact_div(GROUP**2)
        with pytest.raises(ReconstructionError):
            reconstruct_transfer(e1, e2, Q)

    def test_inconsistent_triple_is_not_divisible(self):
        with pytest.raises(NotDivisible):
            reconstruct_transfer(ZERO, Q + ONE, ONE)

    def test_rebuilt_matrix_of_corrupted_data_is_refused(self, data):
        # adding (q-2)^2 q^3 to the genus-3 class still rebuilds a matrix,
        # with d one more than it should be; that d is no multiple of q(q-1),
        # so the rebuilt matrix raises before it glues any genus
        e1, e2, e3 = surface_classes(data.matrix, range(1, 4)).values()
        a, b, d = reconstruct_transfer(e1, e2, e3 + (Q - 2) ** 2 * Q**3)
        assert d == reconstruct_transfer(e1, e2, e3)[2] + ONE
        with pytest.raises(NotDivisible):
            surface_classes(((a, b), (ONE, d)), range(1, 4))


class TestEigenIdentities:
    def test_all_identities_hold(self, data):
        checks = eigen_verify(data)
        assert all(ok for _, ok in checks)
        assert dict(checks) == {
            "eigenvector_scaling": True,
            "eigenvector_diagonal": True,
            "trace": True,
            "determinant": True,
        }

    def test_trace_and_determinant_expansions(self, data):
        # independent symbolic expansion of the normalized matrix
        (a, b), (c, d) = ([e.exact_div(data.group_class) for e in row] for row in data.matrix)
        trace = a + d
        det = a * d - b * c
        assert trace == Q**2 + Q**2 * QM1**2
        assert det == Q**4 * QM1**2


def _charge_shape(entries):
    # lowest nonzero power, degree and widest coefficient over the entries
    low = min(next(i for i, c in enumerate(e.coeffs) if c) for e in entries)
    degree = max(e.degree for e in entries)
    bits = max(abs(c).bit_length() for e in entries for c in e.coeffs)
    return low, degree, bits


@pytest.fixture
def counted_products(monkeypatch):
    # the coefficient products performed: for each nonzero left coefficient
    # one per right coefficient in IntPoly.__mul__, and one per divisor
    # coefficient for each nonzero quotient coefficient in IntPoly.exact_div
    performed = []
    mul, exact_div = IntPoly.__mul__, IntPoly.exact_div

    def counting_mul(self, other):
        performed.append(sum(1 for c in self.coeffs if c) * len(other.coeffs))
        return mul(self, other)

    def counting_div(self, d):
        quotient = exact_div(self, d)
        performed.append(sum(1 for c in quotient.coeffs if c) * len(d.coeffs))
        return quotient

    monkeypatch.setattr(IntPoly, "__mul__", counting_mul)
    monkeypatch.setattr(IntPoly, "exact_div", counting_div)
    return performed


class TestPolynomialGuardModel:
    def test_powers_stay_within_the_modelled_span_and_bits(self, data):
        # gluing_charges takes the state of k tori to powers 2k to 4k - 1, and
        # its bits to at most k times the 4 of the widest normalized entry
        for k, state in zip(range(1, 65), chain(normalized(data.matrix))):
            low, degree, bits = _charge_shape([state])
            assert low >= 2 * k and degree <= 4 * k - 1 and bits <= 4 * k

    def test_charges_follow_the_matrix_shape(self, data):
        # genus 1 normalizes: bc, 4 * 6, q(q-1) squared, 2 * 3, and the
        # quotients a' = q^3 - q^2, b' of 4 nonzero coefficients and d' of 3,
        # 2 * 3 + 4 * 5 + 3 * 3; genus 2 forms b' 1 and a'd', 4 + 2 * 5, and
        # tr(M') a', 3 * 4; tr(M') and -det(M') have 3 nonzero coefficients
        # each, and a state of k tori spans powers 2k to 4k - 1, so genus 3
        # multiplies x_2 by tr(M') and x_1 by -det(M'), 3 * 8 + 3 * 4
        charges = list(itertools.islice(tqft.gluing_charges(data.matrix), 3))
        assert charges == [24 + 6 + 35, 14 + 12, 24 + 12]
        # with entries of 80 bits, bc and b' have 157, so the normalization
        # and forming weigh three words a product; from genus 3 on, x_2 is
        # taken to have 2 * 157 bits, five words, and -det(M') has 157
        wide_matrix = tuple(tuple(2**77 * e for e in row) for row in data.matrix)
        wide = list(itertools.islice(tqft.gluing_charges(wide_matrix), 3))
        assert wide == [65 * 3, 26 * 3, 24 * 5 + 12 * 3]

    def test_matrix_charge_tracks_the_products_performed(self, data, counted_products):
        # for g <= 16 every coefficient glued is modelled at 4g <= 64 bits, so
        # every word weight is 1 and tqft's charge is a count of coefficient
        # products
        from affrep.affcount import BudgetExceeded
        from affrep.cli import cmd_tqft

        performed = counted_products
        for genus in range(8, 17):
            performed.clear()
            close_surface(genus, data)
            # performed <= charge <= 1.15 performed: a guard one under the
            # products performed refuses, and one of 1.15 times them admits
            with pytest.raises(BudgetExceeded):
                cmd_tqft(genus, guard=sum(performed) - 1)
            cmd_tqft(genus, guard=int(1.15 * sum(performed)))

    def test_sweep_charge_tracks_the_products_performed(self, data, counted_products):
        # verify's sweep glues to N, charged as cli._charge_gluing charges it,
        # and so does the matrix --reconstruct rebuilds, [[a, b], [1, d]];
        # with word weights of 1, as above
        from affrep.affcount import Budget
        from affrep.cli import _charge_gluing

        a, b, d = reconstruct_transfer(*surface_classes(data.matrix, range(1, 4)).values())
        for matrix in (data.matrix, ((a, b), (ONE, d))):
            for genus_max in range(8, 17):
                counted_products.clear()
                surface_classes(matrix, range(1, genus_max + 1))
                performed = sum(counted_products)
                budget = Budget(10**9)
                _charge_gluing(budget, matrix, genus_max, "the sweep")
                assert performed <= budget.used <= 1.15 * performed
