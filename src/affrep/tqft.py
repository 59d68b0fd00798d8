"""Transfer-matrix computation of the representation-variety classes.

Cutting the genus-g surface into a disc, g copies of a twice-holed torus
and a final cap turns the class computation into linear algebra over Z[q]:
a rank-2 module of circle states, a 2x2 transfer matrix for the holed
torus, and a projection for the caps.  The two module generators are the
class supported at the identity and the class supported on the punctured
translation subgroup; the matrix columns are the classes of the commutator
map's fibers over those loci.

Everything stays in Z[q] with exact division instead of localizing away
q and q - 1, so each step is checkable; results hold up to annihilators of
q and q - 1 in the Grothendieck ring (see :data:`LOCALIZATION_CAVEAT`).
"""

from __future__ import annotations

import dataclasses

from .exactpoly import ONE, Q, IntPoly, PolyMatrix
from .geomstrat import GenusOutOfRange

LOCALIZATION_CAVEAT = (
    "virtual classes obtained through transfer-matrix normalization hold up to "
    "annihilators of q and q-1 in the Grothendieck ring of varieties"
)


class TransferConsistencyError(RuntimeError):
    """An internal identity of the transfer data failed; transcription bug."""


class ReconstructionError(ValueError):
    """The genus 1-3 data is inconsistent with a rank-2 transfer matrix."""


@dataclasses.dataclass(frozen=True)
class CircleState:
    """Coordinates of a circle state over the two module generators."""

    c_i: IntPoly  # coefficient of the generator supported at the identity
    c_j: IntPoly  # coefficient of the generator on the punctured translations


@dataclasses.dataclass(frozen=True)
class TransferData:
    """The transfer matrix together with the fiber classes that assemble it."""

    matrix: PolyMatrix
    group_class: IntPoly
    fiber_identity: IntPoly  # commutator-map fiber over the identity
    fiber_generic: IntPoly  # commutator-map fiber over a nonzero translation
    fiber_identity_twisted: IntPoly  # same two fibers for the once-shifted map
    fiber_generic_twisted: IntPoly


def build_transfer() -> TransferData:
    """Assemble the transfer data from the fiber stratifications and verify it.

    Each fiber class is built as the sum of its strata, compared with its
    factored form, checked against the complement identities inside
    (K*)^3 x K^3, and finally assembled column-wise into the matrix, which
    must match q(q-1) [[q^3-q^2, q^4-3q^3+2q^2], [q^3-2q^2, q^4-3q^3+3q^2]].
    """
    qm1 = Q - ONE
    group_class = Q * qm1

    # fiber of the conjugated-commutator map over the identity: three strata
    fiber_identity = (Q - 2) * qm1**2 * Q**2 + qm1 * Q**3 + (Q - 2) * qm1 * Q**2
    # over a nonzero translation: two strata
    fiber_generic = (Q - 2) * qm1**2 * Q**2 + (Q - 2) * qm1 * Q**2
    # the once-shifted map's fibers are complements inside (K*)^3 x K^3
    ambient = qm1**3 * Q**3
    fiber_identity_twisted = ambient - fiber_identity
    fiber_generic_twisted = ambient - fiber_generic

    checks = [
        (fiber_identity, group_class * (Q**3 - Q**2)),
        (fiber_generic, group_class * (Q**3 - 2 * Q**2)),
        (fiber_identity_twisted, group_class * (Q**4 - 3 * Q**3 + 2 * Q**2)),
        (fiber_generic_twisted, group_class * (Q**4 - 3 * Q**3 + 3 * Q**2)),
    ]
    for got, expected in checks:
        if got != expected:
            raise TransferConsistencyError(f"fiber class {got} != {expected}")

    # column 1: image of the identity generator; column 2: image of the other
    matrix = PolyMatrix.from_rows(
        [
            [fiber_identity, fiber_identity_twisted],
            [fiber_generic, fiber_generic_twisted],
        ]
    )
    literal = PolyMatrix.from_rows(
        [
            [Q**3 - Q**2, Q**4 - 3 * Q**3 + 2 * Q**2],
            [Q**3 - 2 * Q**2, Q**4 - 3 * Q**3 + 3 * Q**2],
        ]
    ).scale(group_class)
    if matrix != literal:
        raise TransferConsistencyError("assembled matrix disagrees with its closed form")
    return TransferData(
        matrix=matrix,
        group_class=group_class,
        fiber_identity=fiber_identity,
        fiber_generic=fiber_generic,
        fiber_identity_twisted=fiber_identity_twisted,
        fiber_generic_twisted=fiber_generic_twisted,
    )


def apply_transfer(state: CircleState, data: TransferData) -> CircleState:
    """One pass of the holed-torus matrix over a circle state."""
    m = data.matrix
    return CircleState(
        c_i=m.entry(0, 0) * state.c_i + m.entry(0, 1) * state.c_j,
        c_j=m.entry(1, 0) * state.c_i + m.entry(1, 1) * state.c_j,
    )


def surface_class(matrix: PolyMatrix, genus: int) -> IntPoly:
    """Close the genus-g surface with a holed-torus matrix.

    Top-left entry of the g-th matrix power, divided exactly by the g-th
    power of the group class q(q-1) (the normalization for the g + 1
    basepoints the decomposition introduces).  A division failure is fatal:
    it would contradict the divisibility that makes the normalization
    meaningful.
    """
    return (matrix**genus).entry(0, 0).exact_div((Q * (Q - ONE)) ** genus)


def close_surface(genus: int, data: TransferData | None = None) -> IntPoly:
    """Virtual class of the genus-g representation variety, by :func:`surface_class`."""
    if genus < 1:
        raise GenusOutOfRange("genus must be >= 1")
    if data is None:
        data = build_transfer()
    return surface_class(data.matrix, genus)


def reconstruct_transfer(
    e1: IntPoly, e2: IntPoly, e3: IntPoly
) -> tuple[IntPoly, IntPoly, IntPoly]:
    """Recover transfer-matrix entries (a, b, d) from the genus 1-3 classes.

    With the lower-left entry normalized to 1 (the closed-surface classes
    only depend on the product of the off-diagonal entries), the matrix
    [[a, b], [1, d]] is pinned down by:

        a = q(q-1) e1,  b = q^2 (q-1)^2 e2 - a^2,
        d = (q^3 (q-1)^3 e3 - a^3) / b - 2a    (exact division).
    """
    group_class = Q * (Q - ONE)
    a = group_class * e1
    b = group_class**2 * e2 - a**2
    if b.is_zero():
        raise ReconstructionError("upper-right entry vanishes; genus data is degenerate")
    numerator = group_class**3 * e3 - a**3
    d = numerator.exact_div(b) - 2 * a
    return a, b, d


@dataclasses.dataclass(frozen=True)
class CheckReport:
    """Named pass/fail results of a verification pass."""

    checks: tuple[tuple[str, bool], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)

    def as_json(self) -> dict:
        return {name: ok for name, ok in self.checks}


def eigen_verify(data: TransferData | None = None) -> CheckReport:
    """Verify the diagonalization of the normalized matrix as polynomial identities.

    The normalized matrix M (transfer matrix divided entry-wise by the
    group class) has eigenvectors (q-1, -1) and (1, 1) with eigenvalues q^2
    and q^2 (q-1)^2.  These are (|G| / chi(1))^2 for the two irreducible
    degrees chi(1) = q - 1 and chi(1) = 1 (the latter q - 1 times) of the
    group of order |G| = q(q-1): by the Frobenius-Mednykh formula the
    genus-g count is |G|^(2g-1) sum_chi chi(1)^(2-2g), a sum of g-th powers
    of exactly these values.  Checking the eigenvector identities plus trace
    and determinant avoids inverting the eigenbasis over Z[q], which would
    need denominators.
    """
    if data is None:
        data = build_transfer()
    m = data.matrix.exact_div_scalar(data.group_class)
    qm1 = Q - ONE
    lam1 = Q**2
    lam2 = Q**2 * qm1**2

    def apply(v0: IntPoly, v1: IntPoly) -> tuple[IntPoly, IntPoly]:
        return (
            m.entry(0, 0) * v0 + m.entry(0, 1) * v1,
            m.entry(1, 0) * v0 + m.entry(1, 1) * v1,
        )

    got1 = apply(qm1, -ONE)
    got2 = apply(ONE, ONE)
    checks = (
        ("eigenvector_scaling", got1 == (lam1 * qm1, lam1 * -ONE)),
        ("eigenvector_diagonal", got2 == (lam2 * ONE, lam2 * ONE)),
        ("trace", m.trace() == lam1 + lam2),
        (
            "determinant",
            m.entry(0, 0) * m.entry(1, 1) - m.entry(0, 1) * m.entry(1, 0) == lam1 * lam2,
        ),
    )
    return CheckReport(checks)
