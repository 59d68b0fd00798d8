"""Transfer-matrix computation of the representation-variety classes.

Cutting the genus-g surface into a disc, g copies of a twice-holed torus
and a final cap turns the class computation into linear algebra over Z[q]:
a rank-2 module of circle states, a 2x2 transfer matrix for the holed
torus, and a projection for the caps.  The two module generators are the
class supported at the identity and the class supported on the punctured
translation subgroup; the matrix columns are the classes of the commutator
map's fibers over those loci.

The matrix is normalized once (:func:`normalized`): divided by the group
class, which leaves q^j N with N free of the factor q, and the holed tori
are glued onto the disc one at a time by N's Cayley-Hamilton recurrence:
the top-left entry x_k of N^k is tr x_(k-1) - det x_(k-2), two products per
torus (:func:`~affrep.exactpoly.chain`), and q^(jk) x_k, the identity
coordinate of k glued tori, is the genus-k class.  There are two routes.
One genus (:func:`close_surface`) glues N moved to u = q - 1, the class of
K*, where tr = u^2 + 1, -det = -u^2 and every state has coefficients 0, 1
and -1 alone.  So each state packs into one int, a byte per coefficient
(:class:`~affrep.exactpoly.Packing`), the chain runs on those ints with
each state checked to lie in a window that proves the read-back exact
(:func:`packed_state`), and x_g is read back and shifted back to q once
(:func:`~affrep.exactpoly.taylor_shift`).  Every genus up to G
(:func:`surface_classes`) runs the chain in q, whose coefficients grow to
2k bits, as one shift per genus would cost about (2/3)G^3 additions.  As
every matrix glued normalizes to the same N, the guard charges each route
by a closed form in the genus (:func:`closing_charge`, and
:func:`gluing_charge` per torus of the sweep).

Everything stays in Z[q] with exact division instead of localizing away
q and q - 1, so each step is checkable; results hold up to annihilators of
q and q - 1 in the Grothendieck ring (see :data:`LOCALIZATION_CAVEAT`).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from .exactpoly import ONE, Q, IntPoly, Packing, cayley_hamilton, chain, taylor_shift, words
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


def build_transfer() -> Matrix:
    """The transfer matrix, as its two rows, assembled from the fiber stratifications.

    Each fiber class of the commutator map is built as the sum of its
    strata, the once-shifted map's as complements inside (K*)^3 x K^3, and
    the four are assembled column-wise into the matrix, each entry of which
    must match its factored form in q(q-1) [[q^3-q^2, q^4-3q^3+2q^2],
    [q^3-2q^2, q^4-3q^3+3q^2]] or raise :class:`TransferConsistencyError`.
    """
    qm1 = Q - ONE
    # fiber of the conjugated-commutator map over the identity: three strata
    fiber_identity = (Q - 2) * qm1**2 * Q**2 + qm1 * Q**3 + (Q - 2) * qm1 * Q**2
    # over a nonzero translation: two strata
    fiber_generic = (Q - 2) * qm1**2 * Q**2 + (Q - 2) * qm1 * Q**2
    # the once-shifted map's fibers are complements inside (K*)^3 x K^3
    ambient = qm1**3 * Q**3
    # column 1: image of the identity generator; column 2: image of the other
    matrix = (
        (fiber_identity, ambient - fiber_identity),
        (fiber_generic, ambient - fiber_generic),
    )
    literal = (
        (Q**3 - Q**2, Q**4 - 3 * Q**3 + 2 * Q**2),
        (Q**3 - 2 * Q**2, Q**4 - 3 * Q**3 + 3 * Q**2),
    )
    for row, literal_row in zip(matrix, literal):
        for got, entry in zip(row, literal_row):
            if got != GROUP_CLASS * entry:
                raise TransferConsistencyError(f"fiber class {got} != {GROUP_CLASS * entry}")
    return matrix


def _norm(p: IntPoly) -> int:
    # the sum of p's absolute coefficients
    return sum(map(abs, p.coeffs))


def _low(p: IntPoly) -> int:
    # the power of q that the lowest nonzero coefficient of p multiplies
    return next(i for i, c in enumerate(p.coeffs) if c)


def normalized(matrix: Matrix) -> tuple[Matrix, int]:
    """N and j with M/s = q^j N in effect, s = q(q-1): N's chain is M's over (q^j s)^k.

    The top-left entry x_k of M^k depends only on a, d and bc, so M' =
    ((a', b'), (1, d')) = ((a/s, bc/s^2), (1, d/s)) has x_k(M') =
    x_k(M)/s^k, the class itself; each of the three divisions is exact or
    raises :class:`~affrep.exactpoly.NotDivisible`.  j is the largest power
    of q that divides a' and d' and whose square divides b', counted from
    their low zero coefficients (0 when all three vanish), and N =
    ((a'/q^j, b'/q^(2j)), (1, d'/q^j)) drops those zeros, a slice and no
    division, so x_k(M') = q^(jk) x_k(N).  Only M's own entries are read.
    """
    ((a, b), (c, d)), s = matrix, GROUP_CLASS
    a, bc, d = a.exact_div(s), (b * c).exact_div(s * s), d.exact_div(s)
    shares = ((a, 1), (bc, 2), (d, 1))
    j = min((_low(e) // n for e, n in shares if not e.is_zero()), default=0)
    a, bc, d = (IntPoly(e.coeffs[n * j :]) for e, n in shares)
    return ((a, bc), (ONE, d)), j


def surface_classes(matrix: Matrix, genera: Iterable[int]) -> Iterator[tuple[int, IntPoly]]:
    """Each genus g of ``genera``, in increasing order, with its class, from one chain of gluing.

    The chain of N, the matrix :func:`normalized` once to q^j N, glues in
    q to the largest genus asked; the identity coordinate of g glued tori,
    x_g(N) shifted up by q^(jg), is the genus-g class.  Only the genera
    asked are shifted, each as the sweep reaches it, so a caller that
    drops each class holds one at a time.  The genera are checked, and the
    matrix normalized, before the first is yielded.  For one genus
    :func:`close_surface` is cheaper.
    """
    keep = set(genera)
    if min(keep, default=0) < 1:
        raise GenusOutOfRange("genus must be >= 1")
    factored, j = normalized(matrix)
    glued = zip(range(1, max(keep) + 1), chain(factored))
    return ((g, IntPoly((0,) * (j * g) + x.coeffs)) for g, x in glued if g in keep)


def packed_state(matrix: Matrix, genus: int) -> IntPoly:
    """x_genus of ``matrix``'s chain, glued on packed ints and read back once.

    Each entry is packed at u = 2^w (:class:`~affrep.exactpoly.Packing`),
    from w = 8, and the unchanged :func:`~affrep.exactpoly.chain` runs on
    the ints.  With L = max(|a|_1, |tr|_1 + |det|_1), the sums of absolute
    coefficients, and r = w - 1 - bitlength(L), a state whose two
    predecessors have coefficients in [-2^r, 2^r) has them below L 2^r <
    2^(w-1) in size, where the slots read uniquely, so checking each state
    for the window [-2^r, 2^r) confirms that every coefficient lies in it.
    With x_0 = 1 and x_1 = a below L, that proves by induction the read-back
    of the last state exact.  The g s + 1 slots bound the degree of every
    x_k, at most k s with s = max(deg a, deg tr, deg(det)/2).  A state that
    leaves the window doubles w and restarts the chain; no matrix the CLI
    glues does.
    """
    (a, _), _ = matrix
    trace, codet = cayley_hamilton(matrix)
    growth = max(_norm(a), _norm(trace) + _norm(codet)).bit_length()
    spread = max(a.degree or 0, trace.degree or 0, -(-(codet.degree or 0) // 2))
    width = 8
    while True:
        if width > growth:
            packing = Packing(width, width - 1 - growth, genus * spread + 1)
            packed = tuple(tuple(map(packing.pack, row)) for row in matrix)
            for x in itertools.islice(chain(packed), genus):
                if not packing.holds(x):
                    break
            else:
                return packing.read(x)
        width *= 2


def close_surface(genus: int, matrix: Matrix | None = None) -> IntPoly:
    """Virtual class of the genus-g representation variety: glue g tori in u = q - 1.

    ``matrix`` is the transfer matrix as its rows, :func:`build_transfer`'s
    if None.  It is :func:`normalized` once to q^j N, and N's three entries
    are moved to u, the class of K*, by :func:`~affrep.exactpoly.taylor_shift`:
    N becomes ((u, u(u-1)^2), (1, u^2-u+1)), with tr = u^2 + 1 and -det =
    -u^2, and the state of k tori has 2k coefficients, each 0 or 1 or -1.
    So each state packs into one int of 2k bytes, and the chain to
    ``genus`` runs on those ints, each state checked, and reads x_g back
    once (:func:`packed_state`); x_g is shifted back to q, and by q^(jg).
    """
    if genus < 1:
        raise GenusOutOfRange("genus must be >= 1")
    if matrix is None:
        matrix = build_transfer()
    ((a, bc), (one, d)), j = normalized(matrix)
    in_u = ((taylor_shift(a, 1), taylor_shift(bc, 1)), (one, taylor_shift(d, 1)))
    x = packed_state(in_u, genus)
    return IntPoly((0,) * (j * genus) + taylor_shift(x, -1).coeffs)


def gluing_charge(genus: int) -> int:
    """Weighted coefficient products of gluing the genus-th torus in :func:`surface_classes`.

    The CLI sweeps the transfer matrix M alone, which normalizes to N =
    ((q-1, (q-1)(q-2)^2), (1, q^2-3q+3)) with j = 2 (:func:`normalized`), so
    the charge is a function of the genus alone.  The first torus is the
    entry a' and costs the normalization, 65: the products bc, 4 * 6, and
    q(q-1) squared, 2 * 3, and the quotients a', 2 * 3, b', 4 * 5, and d',
    3 * 3; dropping q^j and q^(2j) is a slice, no product.  The second forms -det(N) = b_N -
    a_N d_N = -(q-1)^2, 4 + 2 * 3, and multiplies tr(N) = q^2-2q+2 by
    a_N = q-1, 3 * 2: 16.  The torus that makes genus k + 1 multiplies each
    of the 3 nonzero coefficients of tr(N) by every one of the state x_k of
    k tori, whose 2k coefficients, of q^0 to q^(2k-1) and none of them
    zero, have at most 2k bits, and each of the 3 of -det(N) by every one of
    x_(k-1): 6k w(2k) + 6(k-1) w(2(k-1)), where a product weighs the 64-bit
    words w of its wider factor (:func:`~affrep.exactpoly.words`).
    """
    if genus <= 2:
        return 65 if genus == 1 else 16
    k = genus - 1
    return 6 * k * words(2 * k) + 6 * (k - 1) * words(2 * (k - 1))


def closing_charge(genus: int) -> int:
    """Weighted coefficient operations of :func:`close_surface` at ``genus``, in closed form.

    The normalization costs 65, as in :func:`gluing_charge`, and moving
    N's entries to u 10 additions, n(n-1)/2 for each of n coefficients: a
    = q-1, 1, bc = (q-1)(q-2)^2, 6, and d = q^2-3q+3, 3.  The bound of
    :func:`packed_state` forms tr and -det of N in u by two unit-row
    products, 3 + 3, and packing the ten coefficients of N in u takes a
    product and a sum each, 20: 101.  N's states never leave the window of
    8-bit slots, so the packed state of k tori has 2k slots of 8 bits, at
    most 16k bits, and forming it takes two
    products and a sum on at most words(16k) words each, in the 64-bit
    words of :func:`~affrep.exactpoly.words`; the sum of words(16k) over k
    = 1 to g is (m+1)(2m+t) for g = 4m + t, t < 4.  Each state's window
    check adds and masks the window's 2g + 1 slots, W = words(8(2g+1))
    words each, and building the window and reading x_g back take 4W each,
    the read-back also one subtraction for each of the 2g + 1 slots.
    Shifting x_g, of 2g coefficients, back to q takes g(2g-1) additions,
    each on at most 2g bits, as every partial sum of the shift is at most
    a sum of binomials C(i, k) over i < 2g, below 2^(2g): g(2g-1) w(2g).

    >>> [closing_charge(g) for g in (1, 2, 3)]
    [118, 130, 146]
    """
    m, t = divmod(genus, 4)
    window = words(8 * (2 * genus + 1))
    glued = 3 * (m + 1) * (2 * m + t) + (2 * genus + 8) * window + 2 * genus + 1
    return 101 + glued + genus * (2 * genus - 1) * words(2 * genus)


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


def eigen_verify(matrix: Matrix | None = None) -> tuple[tuple[str, bool], ...]:
    """Verify the diagonalization of the normalized matrix as polynomial identities.

    The normalized matrix M (``matrix``, the transfer matrix as its rows and
    :func:`build_transfer`'s if None, divided entry-wise by the group class
    :data:`GROUP_CLASS`) has eigenvectors (q-1, -1) and (1, 1) with eigenvalues q^2
    and q^2 (q-1)^2.  These are (|G| / chi(1))^2 for the two irreducible
    degrees chi(1) = q - 1 and chi(1) = 1 (the latter q - 1 times) of the
    group of order |G| = q(q-1): by the Frobenius-Mednykh formula the
    genus-g count is |G|^(2g-1) sum_chi chi(1)^(2-2g), a sum of g-th powers
    of exactly these values.  Checking the eigenvector identities plus trace
    and determinant avoids inverting the eigenbasis over Z[q], which would
    need denominators.  Returns the (name, passed) pair of each identity.
    """
    if matrix is None:
        matrix = build_transfer()
    (a, b), (c, d) = ([e.exact_div(GROUP_CLASS) for e in row] for row in matrix)
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
