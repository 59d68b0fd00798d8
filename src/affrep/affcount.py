"""The group Aff(1, F_q) and engines counting surface-group representations.

A representation of the genus-g surface group is a tuple (A_1, ..., A_2g)
of group elements whose product of commutators [A_1,A_2]...[A_2g-1,A_2g] is
the identity.  Three independent engines count them:

* ``count_naive``  -- the exhaustive sweep over the group-law table: the
  table is built from the index tables of F_q and every tuple of element
  indices is tested by :func:`count_group_generic`,
* ``count_semi``   -- one handle at a time: the scaling coordinates of a
  handle are enumerated and its translation coordinates counted as
  solutions of a linear form, and the g handles are chained by a 2x2
  integer recurrence over the translation subgroup,
* ``count_closed`` -- direct evaluation of the closed-form polynomial.

The naive engine works on the group law and the semi engine works on the
shifted linear-form model (a |-> a - 1 folded into its coordinates), so
agreement between them is a genuine cross-check, not a tautology.
"""

from __future__ import annotations

import itertools
import random
import time
from typing import Sequence

from .exactpoly import Immutable, Record
from .finitefield import FieldMismatch, FieldSpec, FqElem

DEFAULT_GUARD = 10**8


class BudgetExceeded(RuntimeError):
    """The enumeration is larger than the configured guard."""


class InvalidGroupTable(ValueError):
    """The supplied multiplication table is not a group."""


class AffElem(Immutable):
    """The affine map x |-> a*x + b with a nonzero, as a pair (a, b)."""

    __slots__ = ("a", "b")
    a: FqElem
    b: FqElem

    def __init__(self, a: FqElem, b: FqElem):
        if a.field != b.field:
            raise FieldMismatch("components of an affine element must share a field")
        if a.is_zero():
            raise ValueError("the scaling component of an affine element must be nonzero")
        super().__init__(a, b)

    @property
    def field(self) -> FieldSpec:
        return self.a.field

    def __mul__(self, other: AffElem) -> AffElem:
        # (a1, b1) * (a2, b2) = (a1*a2, a1*b2 + b1), i.e. composition of maps.
        return AffElem(self.a * other.a, self.a * other.b + self.b)

    def inv(self) -> AffElem:
        ainv = self.a.inv()
        return AffElem(ainv, -(ainv * self.b))

    def is_identity(self) -> bool:
        return self.a == self.field.one() and self.b.is_zero()


def aff_identity(field: FieldSpec) -> AffElem:
    return AffElem(field.one(), field.zero())


def commutator(x: AffElem, y: AffElem) -> AffElem:
    """x * y * x^-1 * y^-1; always lands in the translation subgroup."""
    return x * y * x.inv() * y.inv()


def aff_elements(field: FieldSpec) -> list[AffElem]:
    """All q(q-1) group elements, deterministic order (a outer, b inner)."""
    elems = list(field.elements())
    return [AffElem(a, b) for a in elems if not a.is_zero() for b in elems]


class CountRecord(Record):
    """One point count, tagged with the field, genus and engine that produced it."""

    __slots__ = ("p", "n", "q", "genus", "count", "engine", "elapsed")

    def __init__(
        self, p: int, n: int, q: int, genus: int, count: int, engine: str, elapsed: float
    ):
        if q != p**n:
            raise ValueError("q must equal p^n")
        if count < 0:
            raise ValueError("count must be non-negative")
        super().__init__(p, n, q, genus, count, engine, elapsed)

    def as_json(self) -> dict:
        # count as a decimal string: consumers with 53-bit doubles must not truncate it
        return {
            "p": self.p,
            "n": self.n,
            "q": self.q,
            "genus": self.genus,
            "count": str(self.count),
            "engine": self.engine,
            "elapsed_ms": round(self.elapsed * 1000, 3),
        }


def _record(field: FieldSpec, genus: int, count: int, engine: str, t0: float) -> CountRecord:
    return CountRecord(
        p=field.p,
        n=field.n,
        q=field.order,
        genus=genus,
        count=count,
        engine=engine,
        elapsed=time.perf_counter() - t0,
    )


def _check_sweep_budget(order: int, genus: int, guard: int) -> None:
    # |G|^2g has at least (bits(|G|) - 1) * 2g bits, which settles a power
    # far beyond the guard without building it; when it does not settle, the
    # power has fewer than twice the guard's bits and is cheap to compare
    min_bits = (order.bit_length() - 1) * 2 * genus
    if min_bits >= guard.bit_length() or order ** (2 * genus) > guard:
        raise BudgetExceeded(
            f"exhaustive sweep needs |G|^2g tuples with |G| = {order} and g = {genus}, "
            f"more than the guard allows (guard {guard})"
        )


def check_budget(q: int, genus: int, engine: str, guard: int = DEFAULT_GUARD) -> None:
    """Raise :class:`BudgetExceeded` if ``engine`` at order q needs more than ``guard``."""
    if engine in ("naive", "generic"):
        _check_sweep_budget(q * (q - 1), genus, guard)
    elif engine == "semi" and (q - 1) ** 2 + genus > guard:
        raise BudgetExceeded(
            f"semi count needs {(q - 1) ** 2 + genus} steps, (q-1)^2 scaling pairs plus "
            f"{genus} handles (guard {guard})"
        )
    elif engine == "closed" and 4 * genus * q.bit_length() > guard:
        raise BudgetExceeded(
            f"closed form needs a count of up to {4 * genus * q.bit_length()} bits, "
            f"4g = {4 * genus} times the {q.bit_length()} bits of q = {q} (guard {guard})"
        )


def count_naive(field: FieldSpec, genus: int, guard: int = DEFAULT_GUARD) -> CountRecord:
    """The exhaustive sweep over the group-law table of Aff(1, F_q).

    Builds :func:`aff_group_table` from the addition and multiplication
    tables of F_q on enumeration indices and runs :func:`count_group_generic`
    on it, which still visits all (q(q-1))^2g tuples.  Raises
    :class:`BudgetExceeded` when that exceeds ``guard``, before the table is
    built.  Memory grows with the table, not the genus: about 54 bytes per
    entry of the (q(q-1))^2-entry table, 254 MB at q = 47.  The default
    guard admits genus 1 up to q = 97, which by that rate would need about
    4.7 GB, an extrapolation that was never run.
    """
    if genus < 1:
        raise ValueError("genus must be >= 1")
    t0 = time.perf_counter()
    check_budget(field.order, genus, "naive", guard)
    table, ident = aff_group_table(field)
    return _record(field, genus, count_group_generic(table, ident, genus, guard), "naive", t0)


def _admissible_alpha_indices(field: FieldSpec) -> list[int]:
    # Enumeration indices of the elements != -1; the zero element is index 0,
    # so truthiness of an index is exactly "nonzero coordinate".
    minus_one = -field.one()
    return [e.index() for e in field.elements() if e != minus_one]


def commutator_distribution(field: FieldSpec) -> tuple[int, int]:
    """Commutator counts of one handle in the shifted linear-form model.

    Returns (N0, N1): N0 pairs of group elements have commutator the
    identity, N1 have commutator one fixed nonzero translation.  The pair
    ((1 + alpha_1, beta_1), (1 + alpha_2, beta_2)) has commutator the
    translation by alpha_1 * beta_2 - alpha_2 * beta_1, so each shifted
    scaling pair (alpha_1, alpha_2) in (F_q - {-1})^2 contributes the number
    of beta solutions of that 1 x 2 form: q^(2 - rank) over the identity and,
    when the rank (computed from the coordinates) is 1, q over every nonzero
    translation, since a rank-1 form is onto F_q.
    """
    q = field.order
    n0 = n1 = 0
    for alpha in itertools.product(_admissible_alpha_indices(field), repeat=2):
        rank = 1 if any(alpha) else 0
        n0 += q ** (2 - rank)
        if rank:
            n1 += q
    return n0, n1


def count_semi(field: FieldSpec, genus: int, guard: int = DEFAULT_GUARD) -> CountRecord:
    """Count points handle by handle in the linear-form model.

    One handle's commutator lands in the translation subgroup T = F_q with
    the distribution of :func:`commutator_distribution`: N0 at the identity
    and N1 at each nonzero translation.  Chaining the g handles is a
    convolution over T; as the distribution is constant on T - {0}, it
    reduces to g steps of the integer recurrence

        (u, v) <- (N0 u + (q-1) N1 v,  N1 u + (N0 + (q-2) N1) v)

    from (1, 0), where u counts tuples whose commutator product is the
    identity and v those whose product is one fixed nonzero translation.
    The work is the (q-1)^2 scaling pairs of one handle plus g steps;
    raises :class:`BudgetExceeded` when that exceeds ``guard``.
    """
    if genus < 1:
        raise ValueError("genus must be >= 1")
    t0 = time.perf_counter()
    q = field.order
    check_budget(q, genus, "semi", guard)
    n0, n1 = commutator_distribution(field)
    u, v = 1, 0
    for _ in range(genus):
        u, v = n0 * u + (q - 1) * n1 * v, n1 * u + (n0 + (q - 2) * n1) * v
    return _record(field, genus, u, "semi", t0)


def count_closed(q: int, genus: int, guard: int = DEFAULT_GUARD) -> int:
    """Evaluate the closed-form count q^(2g-1)(q-1)^2g + q^2g - q^(2g-1).

    The count is below q^4g, so it has at most 4g times the bits of q; raises
    :class:`BudgetExceeded` when that bound exceeds ``guard``, before any
    power is built.
    """
    if genus < 1:
        raise ValueError("genus must be >= 1")
    if q < 2:
        raise ValueError("q must be >= 2")
    check_budget(q, genus, "closed", guard)
    s = 2 * genus
    return q ** (s - 1) * (q - 1) ** s + q**s - q ** (s - 1)


def count_digits_bound(q: int, genus: int) -> int:
    """An upper bound on the decimal digits of the genus-g count over F_q.

    The count q^(2g-1)((q-1)^2g + q - 1) is at most 2 q^(2g-1) (q-1)^2g.
    Each x in {q, q - 1} is at most 2^(m/64), m the bit length of x^64 - 1,
    so the count is at most 2^B with B over its log2 by at most 1/64 bit per
    factor, and 2^B has at most B log10(2) + 1 digits, where
    log10(2) < 0.30103.  No power of degree g is built.
    """
    q_bits = (q**64 - 1).bit_length()
    qm1_bits = ((q - 1) ** 64 - 1).bit_length()
    bits = 1 + -(-((2 * genus - 1) * q_bits + 2 * genus * qm1_bits) // 64)
    return bits * 30103 // 100000 + 1


def validate_group_table(table: Sequence[Sequence[int]], identity: int) -> list[int]:
    """Check the table is a plausible group and return the inverse of every element.

    Checks, in this order: the table is square, its entries are element
    indices, ``identity`` is a two-sided identity, every element has a
    two-sided inverse, associativity on all triples (n^3 <= 1000) or on
    1000 seeded random ones, and every row holds the identity exactly once.
    The last check is what :func:`count_group_generic` relies on: it counts
    the last handles that complete a prefix p as the commutators equal to
    p^-1, which equals the number of identities p*c only when p has one
    right inverse.  In a group that holds by associativity; the sample can
    miss a row with two.
    """
    n = len(table)
    if n == 0 or any(len(row) != n for row in table):
        raise InvalidGroupTable("table must be square and non-empty")
    if not set(range(n)).issuperset(itertools.chain.from_iterable(table)):
        raise InvalidGroupTable("table entries must be element indices")
    if not 0 <= identity < n:
        raise InvalidGroupTable("identity index out of range")
    for x in range(n):
        if table[identity][x] != x or table[x][identity] != x:
            raise InvalidGroupTable(f"index {identity} is not a two-sided identity")
    inv = []
    for x in range(n):
        # the first y with x*y = identity = y*x: scan the row in C, resuming
        # after any right inverse that is not also a left inverse
        row, y = table[x], -1
        while True:
            try:
                y = row.index(identity, y + 1)
            except ValueError:
                raise InvalidGroupTable(f"element {x} has no inverse") from None
            if table[y][x] == identity:
                break
        inv.append(y)
    if n**3 <= 1000:
        triples = itertools.product(range(n), repeat=3)
    else:
        picks = random.Random(0).choices(range(n), k=3000)
        triples = zip(picks[0::3], picks[1::3], picks[2::3])
    for x, y, z in triples:
        if table[table[x][y]][z] != table[x][table[y][z]]:
            raise InvalidGroupTable(f"associativity fails on ({x}, {y}, {z})")
    for x, row in enumerate(table):
        if row.count(identity) != 1:
            raise InvalidGroupTable(f"row {x} holds the identity {row.count(identity)} times")
    return inv


def count_group_generic(
    table: Sequence[Sequence[int]],
    identity: int,
    genus: int,
    guard: int = DEFAULT_GUARD,
) -> int:
    """Brute-force commutator-relation count using only a multiplication table.

    Independent of any affine structure: an oracle for cross-checking the
    other engines on the same group fed back as an opaque table.  Every one
    of the |G|^2g tuples is visited: the |G|^2 handle commutators are built
    once (x y x^-1 from the column of x^-1 in the transposed table), the
    commutators of the first g-1 handles are folded into a prefix product
    p, and each of the last handle's |G|^2 commutators c is compared with
    p^-1, since p c is the identity exactly when c = p^-1.  Raises
    :class:`BudgetExceeded` when |G|^2g exceeds ``guard``, before the table
    is validated.
    """
    if genus < 1:
        raise ValueError("genus must be >= 1")
    n = len(table)
    _check_sweep_budget(n, genus, guard)
    inv = validate_group_table(table, identity)
    cols = list(zip(*table))  # cols[y][x] == table[x][y]
    inv_cols = [cols[y] for y in inv]  # right multiplication by y^-1
    pair_comms: list[int] = []
    for row, right_inv in zip(table, inv_cols):
        # x y x^-1 y^-1 for each y, with x y from the row of x
        pair_comms += [cy[right_inv[xy]] for xy, cy in zip(row, inv_cols)]
    total = 0
    for combo in itertools.product(pair_comms, repeat=genus - 1):
        prod = identity
        for c in combo:
            prod = table[prod][c]
        total += pair_comms.count(inv[prod])
    return total


def aff_group_table(field: FieldSpec) -> tuple[list[list[int]], int]:
    """The multiplication table of Aff(1, F_q) in ``aff_elements`` order.

    Built from the q x q addition and multiplication tables of F_q on
    enumeration indices (2q^2 :class:`FqElem` operations), not from
    :class:`AffElem` products.  The element (a, b) has index
    (idx(a) - 1) * q + idx(b), since the zero of F_q has index 0, and row
    (a1, b1), column (a2, b2) holds the index of (a1 a2, a1 b2 + b1).
    """
    q = field.order
    elems = list(field.elements())  # elems[i].index() == i
    add = [[(x + y).index() for y in elems] for x in elems]
    mul = [[(x * y).index() for y in elems] for x in elems]
    table = []
    for a1 in range(1, q):
        scale = [(mul[a1][a2] - 1) * q for a2 in range(1, q)]
        for b1 in range(q):
            shift = [add[m][b1] for m in mul[a1]]
            table.append([s + t for s in scale for t in shift])
    return table, (field.one().index() - 1) * q


ENGINES = ("naive", "semi", "closed", "generic")


def count_points(
    field: FieldSpec,
    genus: int,
    engine: str = "semi",
    guard: int = DEFAULT_GUARD,
) -> CountRecord:
    """Run the selected engine and wrap the result in a :class:`CountRecord`."""
    if engine in ("naive", "generic"):
        record = count_naive(field, genus, guard)
        record.engine = engine
        return record
    if engine == "semi":
        return count_semi(field, genus, guard)
    if engine == "closed":
        t0 = time.perf_counter()
        return _record(field, genus, count_closed(field.order, genus, guard), "closed", t0)
    raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
