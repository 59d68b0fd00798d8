"""Transfer-matrix computation of the representation-variety classes.

Cutting the genus-g surface into a disc, g copies of a twice-holed torus
and a final cap turns the class computation into linear algebra over Z[q]:
a rank-2 module of circle states, a 2x2 transfer matrix for the holed
torus, and a projection for the caps.  The two module generators are the
class supported at the identity and the class supported on the punctured
translation subgroup; the matrix columns are the classes of the commutator
map's fibers over those loci.

The matrix is normalized once by the group class (:func:`normalized`), and
the holed tori are glued onto the disc one at a time by its Cayley-Hamilton
recurrence: the top-left entry x_k of its k-th power, the identity
coordinate of k glued tori and the genus-k class, is tr x_(k-1) - det x_(k-2),
two products per torus (:func:`~affrep.exactpoly.chain`), so one chain
gives every genus (:func:`surface_classes`).

Everything stays in Z[q] with exact division instead of localizing away
q and q - 1, so each step is checkable; results hold up to annihilators of
q and q - 1 in the Grothendieck ring (see :data:`LOCALIZATION_CAVEAT`).
"""

from __future__ import annotations

from itertools import count
from typing import Iterable, Iterator

from .exactpoly import ONE, Q, Immutable, IntPoly, cayley_hamilton, chain
from .geomstrat import GenusOutOfRange

LOCALIZATION_CAVEAT = (
    "virtual classes obtained through transfer-matrix normalization hold up to "
    "annihilators of q and q-1 in the Grothendieck ring of varieties"
)

GROUP_CLASS = Q * (Q - ONE)  # of the affine group of the line


class TransferConsistencyError(RuntimeError):
    """An internal identity of the transfer data failed; transcription bug."""


class ReconstructionError(ValueError):
    """The genus 1-3 data is inconsistent with a rank-2 transfer matrix."""


Matrix = tuple[tuple[IntPoly, IntPoly], tuple[IntPoly, IntPoly]]  # ((a, b), (c, d))


class TransferData(Immutable):
    """The transfer matrix, as its two rows, with the fiber classes that assemble it."""

    __slots__ = (
        "matrix",
        "group_class",
        "fiber_identity",
        "fiber_generic",
        "fiber_identity_twisted",
        "fiber_generic_twisted",
    )
    matrix: Matrix
    group_class: IntPoly
    fiber_identity: IntPoly  # commutator-map fiber over the identity
    fiber_generic: IntPoly  # commutator-map fiber over a nonzero translation
    fiber_identity_twisted: IntPoly  # same two fibers for the once-shifted map
    fiber_generic_twisted: IntPoly


def build_transfer() -> TransferData:
    """Assemble the transfer data from the fiber stratifications and verify it.

    Each fiber class is built as the sum of its strata, the once-shifted
    map's as complements inside (K*)^3 x K^3, and the four are assembled
    column-wise into the matrix, each entry of which must match its
    factored form in q(q-1) [[q^3-q^2, q^4-3q^3+2q^2], [q^3-2q^2, q^4-3q^3+3q^2]].
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

    # column 1: image of the identity generator; column 2: image of the other
    matrix = (
        (fiber_identity, fiber_identity_twisted),
        (fiber_generic, fiber_generic_twisted),
    )
    literal = (
        (Q**3 - Q**2, Q**4 - 3 * Q**3 + 2 * Q**2),
        (Q**3 - 2 * Q**2, Q**4 - 3 * Q**3 + 3 * Q**2),
    )
    for row, literal_row in zip(matrix, literal):
        for got, entry in zip(row, literal_row):
            if got != group_class * entry:
                raise TransferConsistencyError(f"fiber class {got} != {group_class * entry}")
    return TransferData(
        matrix,
        group_class,
        fiber_identity,
        fiber_generic,
        fiber_identity_twisted,
        fiber_generic_twisted,
    )


def normalized(matrix: Matrix) -> Matrix:
    """M' = ((a/s, bc/s^2), (1, d/s)) with s = q(q-1), whose chain is M's over s^k.

    The top-left entry x_k of M^k depends only on a, d and bc, so x_k(M') =
    x_k(M)/s^k, the class itself.  Each of the three divisions is exact or
    raises :class:`~affrep.exactpoly.NotDivisible`; only M's own entries are read.
    """
    ((a, b), (c, d)), s = matrix, GROUP_CLASS
    return (a.exact_div(s), (b * c).exact_div(s * s)), (ONE, d.exact_div(s))


def surface_classes(matrix: Matrix, genera: Iterable[int]) -> dict[int, IntPoly]:
    """The class at each genus of ``genera``, from one chain of gluing.

    The chain of the matrix, :func:`normalized` once, glues to the largest
    genus asked; the identity coordinate of g glued tori is the genus-g class.
    """
    keep = set(genera)
    if min(keep, default=0) < 1:
        raise GenusOutOfRange("genus must be >= 1")
    glued = zip(range(1, max(keep) + 1), chain(normalized(matrix)))
    return {g: c_i for g, c_i in glued if g in keep}


def close_surface(genus: int, data: TransferData | None = None) -> IntPoly:
    """Virtual class of the genus-g representation variety: glue g normalized tori."""
    if data is None:
        data = build_transfer()
    return surface_classes(data.matrix, (genus,))[genus]


def _shape(p: IntPoly) -> tuple[int, int, int, int]:
    # nonzero coefficients, lowest nonzero power, degree (-1 for zero) and widest bits
    powers = [i for i, c in enumerate(p.coeffs) if c]
    bits = max((abs(c).bit_length() for c in p.coeffs), default=0)
    return len(powers), powers[0] if powers else 0, len(p.coeffs) - 1, bits


def _products(*pairs: tuple[IntPoly, IntPoly]) -> int:
    # IntPoly.__mul__ multiplies each nonzero coefficient of the left factor by
    # every one of the right, and exact_div each nonzero quotient's by the divisor's
    return sum(_shape(left)[0] * len(right.coeffs) for left, right in pairs)


def gluing_charges(matrix: Matrix) -> Iterator[int]:
    """Weighted coefficient products of gluing the g-th torus, for g = 1, 2, ...

    Follows :func:`surface_classes`, on M' = ((a', b'), (1, d')) :func:`normalized`.
    The first torus is the entry a' and costs the normalization: the products
    bc and q(q-1) squared, and the three divisions.  The second forms
    -det(M') = b' - a'd' and multiplies tr(M') by a'.  From the third on,
    gluing the k-th multiplies each nonzero coefficient of tr(M') by every
    coefficient of the state x_(k-1), and each of -det(M') by every one of
    x_(k-2).  A state's powers lie between the lowest and the highest that
    the recurrence reaches, and its bits are at most k times the widest entry
    coefficient's of M'.  A product weighs the 64-bit words of its wider
    factor, the normalization's those of the widest of a, bc and d: up to
    about a thousand bits the loop dominates, so it costs about as many
    word-sized products.
    """
    (a, b), (c, d) = matrix
    (a1, b1), (c1, d1) = scaled = normalized(matrix)
    s, square = GROUP_CLASS, GROUP_CLASS * GROUP_CLASS
    glue = _products((b, c), (s, s), (a1, s), (b1, square), (d1, s))
    glue *= -(-max(_shape(p)[3] for p in (a, b * c, d)) // 64)
    factors = [_shape(p) for p in cayley_hamilton(scaled)]  # tr(M') and -det(M')
    bits = max(_shape(e)[3] for row in scaled for e in row)
    forming = _products((b1, c1), (a1, d1)) * -(-bits // 64)
    # the lowest power and the degree of x_(g-1) and of x_g, from x_0 = 1 and x_1 = a'
    states = [(0, 0), _shape(a1)[1:3]]
    for g in count(1):
        yield glue
        # x_(g+1) = tr(M') x_g - det(M') x_(g-1); the first step also forms -det(M')
        glue = forming if g == 1 else 0
        reach = []
        for (nonzero, f_low, f_high, f_bits), (s_low, s_high), k in zip(
            factors, states[::-1], (g, g - 1)
        ):
            if k:  # x_0 = 1 is added, not multiplied
                glue += nonzero * (s_high + 1) * -(-max(f_bits, bits * k) // 64)
            reach.append((f_low + s_low, f_high + s_high))
        lows, highs = zip(*reach)
        states = [states[1], (min(lows), max(highs))]


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
    a = GROUP_CLASS * e1
    b = GROUP_CLASS**2 * e2 - a**2
    if b.is_zero():
        raise ReconstructionError("upper-right entry vanishes; genus data is degenerate")
    numerator = GROUP_CLASS**3 * e3 - a**3
    d = numerator.exact_div(b) - 2 * a
    return a, b, d


def eigen_verify(data: TransferData | None = None) -> tuple[tuple[str, bool], ...]:
    """Verify the diagonalization of the normalized matrix as polynomial identities.

    The normalized matrix M (transfer matrix divided entry-wise by the
    group class) has eigenvectors (q-1, -1) and (1, 1) with eigenvalues q^2
    and q^2 (q-1)^2.  These are (|G| / chi(1))^2 for the two irreducible
    degrees chi(1) = q - 1 and chi(1) = 1 (the latter q - 1 times) of the
    group of order |G| = q(q-1): by the Frobenius-Mednykh formula the
    genus-g count is |G|^(2g-1) sum_chi chi(1)^(2-2g), a sum of g-th powers
    of exactly these values.  Checking the eigenvector identities plus trace
    and determinant avoids inverting the eigenbasis over Z[q], which would
    need denominators.  Returns the (name, passed) pair of each identity.
    """
    if data is None:
        data = build_transfer()
    (a, b), (c, d) = ([e.exact_div(data.group_class) for e in row] for row in data.matrix)
    qm1 = Q - ONE
    lam1 = Q**2
    lam2 = Q**2 * qm1**2

    def apply(v0: IntPoly, v1: IntPoly) -> tuple[IntPoly, IntPoly]:
        return a * v0 + b * v1, c * v0 + d * v1

    got1 = apply(qm1, -ONE)
    got2 = apply(ONE, ONE)
    return (
        ("eigenvector_scaling", got1 == (lam1 * qm1, lam1 * -ONE)),
        ("eigenvector_diagonal", got2 == (lam2 * ONE, lam2 * ONE)),
        ("trace", a + d == lam1 + lam2),
        ("determinant", a * d - b * c == lam1 * lam2),
    )
