"""Transfer-matrix data, surface closing and reconstruction."""

import pytest

from affrep.affcount import commutator_distribution, count_semi
from affrep.exactpoly import ONE, Q, ZERO, IntPoly, NotDivisible
from affrep.finitefield import make_field
from affrep.geomstrat import GenusOutOfRange, rep_class
from affrep.interpolate import prime_power
from affrep.tqft import (
    CircleState,
    ReconstructionError,
    apply_transfer,
    build_transfer,
    close_surface,
    eigen_verify,
    reconstruct_transfer,
)

QM1 = Q - ONE
GROUP = Q * QM1


@pytest.fixture(scope="module")
def data():
    return build_transfer()


class TestTransferData:
    def test_top_left_entry(self, data):
        assert data.matrix.entry(0, 0) == GROUP * (Q**3 - Q**2) == Q**3 * QM1**2

    def test_generic_fiber_vanishes_at_two(self, data):
        assert data.fiber_generic(2) == 0

    def test_complement_identities(self, data):
        ambient = QM1**3 * Q**3
        assert data.fiber_identity_twisted == ambient - data.fiber_identity
        assert data.fiber_generic_twisted == ambient - data.fiber_generic

    def test_columns_assemble_the_matrix(self, data):
        assert data.matrix.entry(0, 0) == data.fiber_identity
        assert data.matrix.entry(1, 0) == data.fiber_generic
        assert data.matrix.entry(0, 1) == data.fiber_identity_twisted
        assert data.matrix.entry(1, 1) == data.fiber_generic_twisted

    def test_group_class(self, data):
        assert data.group_class == Q**2 - Q

    def test_normalized_matrix_is_the_commutator_distribution(self, data):
        normalized = data.matrix.exact_div_scalar(data.group_class)
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19):
            n0, n1 = commutator_distribution(make_field(*prime_power(q)))
            evaluated = [[normalized.entry(i, j)(q) for j in range(2)] for i in range(2)]
            assert evaluated == [[n0, (q - 1) * n1], [n1, n0 + (q - 2) * n1]]


class TestApplyTransfer:
    def test_image_of_the_identity_generator(self, data):
        out = apply_transfer(CircleState(ONE, ZERO), data)
        assert out.c_i == GROUP * (Q**3 - Q**2)
        assert out.c_j == GROUP * (Q**3 - 2 * Q**2)

    def test_linearity_at_zero(self, data):
        out = apply_transfer(CircleState(ZERO, ZERO), data)
        assert out.c_i == ZERO and out.c_j == ZERO

    def test_image_of_the_punctured_generator(self, data):
        out = apply_transfer(CircleState(ZERO, ONE), data)
        assert out.c_i == data.fiber_identity_twisted
        assert out.c_j == data.fiber_generic_twisted


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
        with pytest.raises(GenusOutOfRange):
            close_surface(0, data)

    def test_semigroup_law(self, data):
        state = CircleState(ONE, ZERO)
        for genus in range(1, 6):
            state = apply_transfer(state, data)
            assert state.c_i == data.group_class**genus * close_surface(genus, data)

    def test_projection_law(self, data):
        # closing by iterated transfer plus projection onto the identity
        # coordinate agrees with the matrix-power route
        state = CircleState(ONE, ZERO)
        for genus in range(1, 6):
            state = apply_transfer(state, data)
            assert state.c_i.exact_div(data.group_class**genus) == close_surface(genus, data)


class TestReconstruction:
    def test_reference_entries(self, data):
        a, b, d = reconstruct_transfer(
            close_surface(1, data), close_surface(2, data), close_surface(3, data)
        )
        assert a == QM1**2 * Q**3
        assert b == QM1**3 * (Q - 2) ** 2 * Q**6
        assert d == (Q**2 - 3 * Q + 3) * QM1 * Q**3

    def test_reconstructed_matrix_reproduces_the_classes(self, data):
        from affrep.exactpoly import PolyMatrix

        a, b, d = reconstruct_transfer(
            close_surface(1, data), close_surface(2, data), close_surface(3, data)
        )
        matrix = PolyMatrix.from_rows([[a, b], [ONE, d]])
        for genus in range(1, 7):
            top_left = (matrix**genus).entry(0, 0)
            assert top_left.exact_div(GROUP**genus) == close_surface(genus, data)

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


class TestEigenIdentities:
    def test_all_identities_hold(self, data):
        report = eigen_verify(data)
        assert report.passed
        assert report.as_json() == {
            "eigenvector_scaling": True,
            "eigenvector_diagonal": True,
            "trace": True,
            "determinant": True,
        }

    def test_trace_and_determinant_expansions(self, data):
        # independent symbolic expansion of the normalized matrix
        m = data.matrix.exact_div_scalar(data.group_class)
        trace = m.entry(0, 0) + m.entry(1, 1)
        det = m.entry(0, 0) * m.entry(1, 1) - m.entry(0, 1) * m.entry(1, 0)
        assert trace == Q**2 + Q**2 * QM1**2
        assert det == Q**4 * QM1**2
