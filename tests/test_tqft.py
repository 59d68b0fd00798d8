"""Transfer-matrix data, surface closing and reconstruction."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from affrep import tqft
from affrep.affcount import DEFAULT_GUARD, count_semi, handle_distribution
from affrep.exactpoly import ONE, Q, ZERO, IntPoly, NotDivisible, Packing, chain, words
from affrep.finitefield import make_field
from affrep.geomstrat import GenusOutOfRange, rep_class
from affrep.interpolate import prime_power
from affrep.tqft import (
    ReconstructionError,
    build_transfer,
    close_surface,
    closing_charge,
    eigen_verify,
    normalized,
    packed_state,
    reconstruct_transfer,
    surface_classes,
)

QM1 = Q - ONE
GROUP = Q * QM1

# the two routes to one genus: glue in u = q - 1 and shift back, or the q chain
ROUTES = (
    lambda matrix, genus: close_surface(genus, matrix),
    lambda matrix, genus: dict(surface_classes(matrix, [genus]))[genus],
)


# the last genus the tqft command's default guard admits
BOUNDARY = 1155


@pytest.fixture(scope="module")
def matrix():
    return build_transfer()


def _read(x):
    # the polynomial a packed state of 8-bit slots holds, its coefficients in [-128, 128)
    return Packing(8, 7, x.bit_length() // 8 + 2).read(x)


class TestTransferData:
    def test_top_left_entry(self, matrix):
        assert matrix[0][0] == GROUP * (Q**3 - Q**2) == Q**3 * QM1**2

    def test_generic_fiber_vanishes_at_two(self, matrix):
        # the first column holds the fibers over the identity and over a
        # nonzero translation
        (_, _), (fiber_generic, _) = matrix
        assert fiber_generic(2) == 0

    def test_complement_identities(self, matrix):
        # each row's second entry is the once-shifted map's fiber, its complement
        ambient = QM1**3 * Q**3
        for fiber, twisted in matrix:
            assert twisted == ambient - fiber

    def test_columns_assemble_the_matrix(self, matrix):
        # the commutator map's fibers over the translations, the identity's
        # once and a nonzero one's q - 1 times, partition the ambient; the
        # complements then cover it q - 1 times
        (a, b), (c, d) = matrix
        ambient = QM1**3 * Q**3
        assert a + QM1 * c == ambient
        assert b + QM1 * d == QM1 * ambient

    def test_group_class(self):
        assert tqft.GROUP_CLASS == Q**2 - Q

    def test_normalized_matrix_is_the_commutator_distribution(self, matrix):
        normalized = [[e.exact_div(GROUP) for e in row] for row in matrix]
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

    def test_image_of_the_identity_generator(self, matrix):
        assert next(_states(matrix)) == (GROUP * (Q**3 - Q**2), GROUP * (Q**3 - 2 * Q**2))

    def test_linearity_at_zero(self, matrix):
        # a matrix sending (1, 0) to the zero state keeps it there
        (_, b), (_, d) = matrix
        zero_column = ((ZERO, b), (ZERO, d))
        assert list(itertools.islice(chain(zero_column), 4)) == [ZERO] * 4

    def test_image_of_the_punctured_generator(self, matrix):
        # M (0, 1) is the image of (1, 0) under M with the generators swapped
        (a, b), (c, d) = matrix
        swapped = ((d, c), (b, a))
        assert next(_states(swapped)) == (d, b)


class TestCloseSurface:
    def test_genus_one(self, matrix):
        assert close_surface(1, matrix) == Q**3 - Q**2

    def test_genus_two(self, matrix):
        assert close_surface(2, matrix) == Q**7 - 4 * Q**6 + 6 * Q**5 - 3 * Q**4

    def test_genus_five_against_stratification_oracle(self, matrix):
        assert close_surface(5, matrix) == Q**9 * (QM1**10 + Q - ONE) == rep_class(5)

    def test_matches_stratification_up_to_genus_ten(self, matrix):
        for genus in range(1, 11):
            assert close_surface(genus, matrix) == rep_class(genus)

    @pytest.mark.parametrize("genus", [31, 32, 33, 63, 64])
    def test_matches_stratification_where_the_top_bit_moves(self, matrix, genus):
        assert close_surface(genus, matrix) == rep_class(genus)

    def test_evaluations_match_point_counts(self, matrix):
        for genus, q in [(1, 4), (2, 5), (2, 9), (3, 8)]:
            field = make_field(*prime_power(q))
            assert close_surface(genus, matrix)(q) == count_semi(field, genus).count

    def test_evaluations_across_the_full_reference_grid(self, matrix):
        from affrep.cli import load_golden_table

        cells, checksum_ok = load_golden_table()
        assert checksum_ok
        for genus, q, count in cells:
            assert close_surface(genus, matrix)(q) == count

    def test_genus_zero_rejected(self, matrix):
        from affrep.cli import cmd_tqft

        for route in ROUTES:
            with pytest.raises(GenusOutOfRange):
                route(matrix, 0)
        with pytest.raises(GenusOutOfRange):
            cmd_tqft(0)

    def test_semigroup_law(self, matrix):
        for genus, c_i in zip(range(1, 6), chain(matrix)):
            assert c_i == GROUP**genus * close_surface(genus, matrix)

    def test_projection_law(self, matrix):
        # gluing by hand and projecting onto the identity coordinate agrees
        # with close_surface
        for genus, c_i in zip(range(1, 6), chain(matrix)):
            assert c_i.exact_div(GROUP**genus) == close_surface(genus, matrix)

    def test_gluing_matches_the_matrix_power(self, matrix, power_class):
        # the route that does not glue: top-left of M^g from 2x2 products
        for genus in range(1, 13):
            assert close_surface(genus, matrix) == power_class(matrix, genus)

    def test_one_sweep_gives_every_genus(self, matrix, glued):
        swept = dict(surface_classes(matrix, range(1, 13)))
        assert swept == {g: rep_class(g) for g in range(1, 13)}
        assert len(glued) == 12

    @pytest.mark.parametrize("genera", [[9, 2, 5], range(1, 41)])
    def test_any_genera_asked_divide_three_times(self, matrix, glued, divided, genera):
        # the matrix is normalized once, before the chain: a by q(q-1), bc by
        # its square and d by q(q-1), and then q^2 of a and d and q^4 of bc
        # are shifted out, no division; no genus divides again, and the chain
        # glues the q-free N, whose first value is q - 1
        classes = dict(surface_classes(matrix, genera))
        assert classes == {g: rep_class(g) for g in sorted(genera)}
        assert len(glued) == max(genera)
        assert glued[0] == QM1
        assert divided == [GROUP, GROUP**2, GROUP]

    @pytest.mark.parametrize("genus", [1, 2, 7])
    def test_close_surface_glues_g_tori_and_divides_three_times(self, matrix, glued, divided, genus):
        # close_surface glues N moved to u = q - 1, whose first value, read
        # back, is u (an IntPoly names its variable q); moving to u, packing,
        # reading back and moving back divide nothing
        assert close_surface(genus, matrix) == rep_class(genus)
        assert len(glued) == genus
        assert _read(glued[0]) == Q
        assert divided == [GROUP, GROUP**2, GROUP]

    def test_both_routes_agree(self, matrix):
        # the u route's class at each genus is the q chain's, for M and for
        # the matrix --reconstruct rebuilds from M's genus 1-3 classes
        a, b, d = reconstruct_transfer(*dict(surface_classes(matrix, range(1, 4))).values())
        for glued_matrix in (matrix, ((a, b), (ONE, d))):
            swept = dict(surface_classes(glued_matrix, range(1, 97)))
            assert all(close_surface(g, glued_matrix) == swept[g] for g in range(1, 97))

    @given(
        *[st.builds(IntPoly, st.lists(st.integers(-9, 9), max_size=4))] * 3,
        st.integers(0, 3),
    )
    def test_a_scaled_matrix_glues_as_its_unscaled_one(self, a, b, d, j):
        # a matrix whose chain's k-th value is (q^j q(q-1))^k times that of
        # ((a, b), (1, d)) gives that matrix's chain times q^(jk), exactly,
        # at genus 1-8, whatever power of q the entries share, zero entries
        # and the zero matrix included
        scaled = ((GROUP * Q**j * a, GROUP**2 * Q ** (2 * j) * b), (ONE, GROUP * Q**j * d))
        unscaled = zip(range(1, 9), chain(((a, b), (ONE, d))))
        swept = dict(surface_classes(scaled, range(1, 9)))
        assert swept == {k: Q ** (j * k) * x for k, x in unscaled}

    def test_the_sweep_yields_each_class_as_it_glues(self, matrix, glued):
        # a caller that drops each class holds one at a time: the sweep to a
        # genus of a million has glued one torus when it yields genus 1
        sweep = surface_classes(matrix, range(1, 10**6))
        assert next(sweep) == (1, rep_class(1))
        assert next(sweep) == (2, rep_class(2))
        assert len(glued) == 2

    def test_genera_below_one_are_rejected(self, matrix):
        with pytest.raises(GenusOutOfRange):
            surface_classes(matrix, [0, 3])
        with pytest.raises(GenusOutOfRange):
            surface_classes(matrix, [])

    def test_failed_division_is_fatal(self):
        # a matrix whose chain starts at a class that is not a multiple of q(q-1)
        for route in ROUTES:
            with pytest.raises(NotDivisible):
                route(((Q + ONE, ZERO), (ZERO, ZERO)), 1)

    @pytest.mark.parametrize("entry", [0, 1, 2])
    def test_each_entry_must_normalize(self, matrix, entry):
        # a and d must each be divisible by q(q-1), and bc by its square, even
        # for genus 1 alone, whose class is a / q(q-1)
        (a, b), (c, d) = matrix
        entries = [a, b * c, d]
        entries[entry] += Q
        broken = ((entries[0], entries[1]), (ONE, entries[2]))
        for route in ROUTES:
            with pytest.raises(NotDivisible):
                route(broken, 1)


@pytest.fixture
def packings(monkeypatch):
    # every Packing tqft makes, in order: one per chain it runs
    made = []

    def recording(*args):
        made.append(Packing(*args))
        return made[-1]

    monkeypatch.setattr(tqft, "Packing", recording)
    return made


class TestPackedChain:
    """The chain run on packed ints, each state checked, and read back once."""

    @given(
        *[st.builds(IntPoly, st.lists(st.integers(-9, 9), max_size=4))] * 3,
        st.integers(0, 3),
    )
    def test_the_read_back_is_the_polynomial_chain(self, a, b, d, j):
        # the u-matrices of the scaled-matrix property, the powers of q they
        # share, zero entries and the zero matrix included: at genus 1-8 the
        # packed chain reads back as the chain of polynomials does
        drawn = ((Q**j * a, Q ** (2 * j) * b), (ONE, Q**j * d))
        for genus, x in zip(range(1, 9), chain(drawn)):
            assert packed_state(drawn, genus) == x

    @pytest.mark.parametrize("genus,widths", [(3, [8]), (4, [8, 16]), (8, [8, 16])])
    def test_a_state_just_outside_the_window_widens(self, packings, genus, widths):
        # ((2, 0), (1, u)) has x_k = 2^k, |a|_1 = 2, tr = u + 2 and -det =
        # -2u, so L = 5, of 3 bits, and 8-bit slots give the window [-16,
        # 16): x_3 = 8 is in it, x_4 = 16 just outside, and the chain restarts
        # in 16-bit slots, whose window [-4096, 4096) holds x_8 = 256; in
        # 8-bit slots 256 packs as u does, so only the check of every state
        # tells them apart
        assert packed_state(((IntPoly([2]), ZERO), (ONE, Q)), genus) == IntPoly([2**genus])
        assert [p.width for p in packings] == widths
        assert [p.radius for p in packings] == [w - 4 for w in widths]

    def test_the_transfer_matrix_never_widens(self, matrix, packings, glued):
        # every state of N in u to the default guard's last genus lies in
        # the window of 8-bit slots, [-32, 32), as tr = u^2 + 1 and -det =
        # -u^2 give L = 3; a smaller genus checks the same states
        assert closing_charge(BOUNDARY) <= DEFAULT_GUARD < closing_charge(BOUNDARY + 1)
        assert close_surface(BOUNDARY, matrix) == rep_class(BOUNDARY)
        assert [(p.width, p.radius, p.slots) for p in packings] == [(8, 5, 2 * BOUNDARY + 1)]
        assert len(glued) == BOUNDARY


class TestReconstruction:
    def test_reference_entries(self, matrix):
        a, b, d = reconstruct_transfer(
            close_surface(1, matrix), close_surface(2, matrix), close_surface(3, matrix)
        )
        assert a == QM1**2 * Q**3
        assert b == QM1**3 * (Q - 2) ** 2 * Q**6
        assert d == (Q**2 - 3 * Q + 3) * QM1 * Q**3

    def test_reconstructed_matrix_reproduces_the_classes(self, matrix, power_class):
        a, b, d = reconstruct_transfer(*dict(surface_classes(matrix, range(1, 4))).values())
        rebuilt = ((a, b), (ONE, d))
        for genus in range(1, 7):
            assert power_class(rebuilt, genus) == close_surface(genus, matrix)
        swept = dict(surface_classes(rebuilt, range(1, 7)))
        assert swept == dict(surface_classes(matrix, range(1, 7)))

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

    def test_rebuilt_matrix_of_corrupted_data_is_refused(self, matrix):
        # adding (q-2)^2 q^3 to the genus-3 class still rebuilds a matrix,
        # with d one more than it should be; that d is no multiple of q(q-1),
        # so the rebuilt matrix raises before it glues any genus
        e1, e2, e3 = dict(surface_classes(matrix, range(1, 4))).values()
        a, b, d = reconstruct_transfer(e1, e2, e3 + (Q - 2) ** 2 * Q**3)
        assert d == reconstruct_transfer(e1, e2, e3)[2] + ONE
        with pytest.raises(NotDivisible):
            surface_classes(((a, b), (ONE, d)), range(1, 4))


class TestEigenIdentities:
    def test_all_identities_hold(self, matrix):
        checks = eigen_verify(matrix)
        assert all(ok for _, ok in checks)
        assert dict(checks) == {
            "eigenvector_scaling": True,
            "eigenvector_diagonal": True,
            "trace": True,
            "determinant": True,
        }

    def test_trace_and_determinant_expansions(self, matrix):
        # independent symbolic expansion of the normalized matrix
        (a, b), (c, d) = ([e.exact_div(GROUP) for e in row] for row in matrix)
        trace = a + d
        det = a * d - b * c
        assert trace == Q**2 + Q**2 * QM1**2
        assert det == Q**4 * QM1**2


@pytest.fixture
def counted_products(monkeypatch):
    # the coefficient products performed: for each nonzero left coefficient
    # one per right coefficient in IntPoly.__mul__, and one per divisor
    # coefficient for each nonzero quotient coefficient in IntPoly.exact_div;
    # and the n(n - 1)/2 additions of each Taylor shift of n coefficients
    performed = []
    mul, exact_div, shift = IntPoly.__mul__, IntPoly.exact_div, tqft.taylor_shift

    def counting_mul(self, other):
        performed.append(sum(1 for c in self.coeffs if c) * len(other.coeffs))
        return mul(self, other)

    def counting_div(self, d):
        quotient = exact_div(self, d)
        performed.append(sum(1 for c in quotient.coeffs if c) * len(d.coeffs))
        return quotient

    def counting_shift(p, s):
        n = len(p.coeffs)
        performed.append(n * (n - 1) // 2)
        return shift(p, s)

    monkeypatch.setattr(IntPoly, "__mul__", counting_mul)
    monkeypatch.setattr(IntPoly, "exact_div", counting_div)
    monkeypatch.setattr(tqft, "taylor_shift", counting_shift)
    return performed


@pytest.fixture
def packed_work(monkeypatch):
    # the word operations of packing: a product and a sum of one word per
    # coefficient packed; and, in the window's W 64-bit words, building it,
    # a division, a shift, a product and a complement, 4W, each check, an
    # add and a mask, 2W, and reading back, besides its own check, an add
    # and a conversion to bytes, 2W, and a subtraction per slot.  Forming
    # each packed state x, two products and a sum on at most its words, is
    # read from the chain's values
    work = []
    init, pack, holds, read = Packing.__init__, Packing.pack, Packing.holds, Packing.read

    def window(packing):
        return words(packing.bias.bit_length())

    def counting_init(self, *args):
        init(self, *args)
        work.append(4 * window(self))

    def counting_pack(self, p):
        work.append(2 * len(p.coeffs))
        return pack(self, p)

    def counting_holds(self, x):
        work.append(2 * window(self))
        return holds(self, x)

    def counting_read(self, x):
        work.append(2 * window(self) + self.slots)
        return read(self, x)

    monkeypatch.setattr(Packing, "__init__", counting_init)
    monkeypatch.setattr(Packing, "pack", counting_pack)
    monkeypatch.setattr(Packing, "holds", counting_holds)
    monkeypatch.setattr(Packing, "read", counting_read)
    return work


class TestPolynomialGuardModel:
    def test_powers_stay_within_the_modelled_span_and_bits(self, matrix):
        # gluing_charge takes the state of k tori on N to powers 0 to 2k - 1,
        # none of them zero, and its bits to at most 2k
        factored, j = normalized(matrix)
        assert j == 2
        for k, state in zip(range(1, 65), chain(factored)):
            bits = max(abs(c).bit_length() for c in state.coeffs)
            assert len(state.coeffs) == 2 * k and all(state.coeffs) and bits <= 2 * k

    def test_u_states_are_unit_coefficients(self, matrix, glued):
        # closing_charge takes the state of k tori in u, read back, to 2k
        # coefficients, each 0 or 1 or -1, so it packs into 2k bytes
        close_surface(300, matrix)
        assert len(glued) == 300
        for k, packed in enumerate(glued, 1):
            state = _read(packed)
            assert len(state.coeffs) == 2 * k and set(state.coeffs) <= {0, 1, -1}

    def test_charges_follow_the_matrix_shape(self):
        # genus 1 normalizes: bc, 4 * 6, q(q-1) squared, 2 * 3, and the
        # quotients a' = q^3 - q^2, b' of 4 nonzero coefficients and d' of 3,
        # 2 * 3 + 4 * 5 + 3 * 3, and shifts q^2 and q^4 out for no product;
        # genus 2 forms b_N 1 and a_N d_N, 4 + 2 * 3, and tr(N) a_N, 3 * 2;
        # tr(N) and -det(N) have 3 nonzero coefficients each, and a state of
        # k tori has 2k, so genus 3 multiplies x_2 by tr(N) and x_1 by
        # -det(N), 3 * 4 + 3 * 2
        charges = [tqft.gluing_charge(genus) for genus in (1, 2, 3)]
        assert charges == [24 + 6 + 35, 10 + 6, 12 + 6]

    def test_the_state_of_33_tori_is_the_first_of_two_words(self):
        # x_32 has up to 64 bits and x_33 up to 66, so genus 34 weighs x_33's
        # 6 * 33 products twice
        assert tqft.gluing_charge(33) == 6 * 32 + 6 * 31 == 378
        assert tqft.gluing_charge(34) == 6 * 33 * 2 + 6 * 32 == 588

    def test_matrix_charge_tracks_the_products_performed(
        self, matrix, counted_products, glued, packed_work
    ):
        # close_surface normalizes, moves N to u, forms tr and -det there,
        # packs, glues and checks the packed states, reads x_g back and
        # shifts it back; for g <= 32 the shift's sums have at most 2g <= 64
        # bits, so tqft's charge is the count of word operations: a guard
        # one under them refuses, and one of them admits.  To genus 64 the
        # shift weighs up to two words, and the charge stays within twice
        # the operations
        from affrep.affcount import BudgetExceeded
        from affrep.cli import cmd_tqft

        for genus in range(1, 65):
            for tally in (counted_products, glued, packed_work):
                tally.clear()
            close_surface(genus, matrix)
            stepped = sum(3 * words(x.bit_length()) for x in glued)
            performed = sum(counted_products) + stepped + sum(packed_work)
            if words(2 * genus) == 1:
                with pytest.raises(BudgetExceeded):
                    cmd_tqft(genus, guard=performed - 1)
                cmd_tqft(genus, guard=performed)
            assert performed <= tqft.closing_charge(genus) <= 2 * performed

    def test_sweep_charge_tracks_the_products_performed(self, matrix, counted_products):
        # verify's sweep glues to its genus-max, charged as cli._charge_gluing
        # charges it, net of the classes it also charges, for the products
        # performed; the matrix reconstruct_transfer rebuilds, [[a, b], [1,
        # d]], normalizes to the same N for 47 products against the 65
        # charged, and then glues as M does
        from affrep.affcount import Budget
        from affrep.cli import _charge_gluing
        from affrep.geomstrat import class_charge

        def sweep(glued, genus_max):
            counted_products.clear()
            dict(surface_classes(glued, range(1, genus_max + 1)))
            budget = Budget(10**9)
            _charge_gluing(budget, genus_max)
            classes = sum(class_charge(g) for g in range(1, genus_max + 1))
            return sum(counted_products), budget.used - classes

        for genus_max in range(1, 34):
            performed, charged = sweep(matrix, genus_max)
            assert charged == performed
        a, b, d = reconstruct_transfer(*dict(surface_classes(matrix, range(1, 4))).values())
        for genus_max in range(8, 34):
            performed, charged = sweep(((a, b), (ONE, d)), genus_max)
            assert performed <= charged <= 1.15 * performed
