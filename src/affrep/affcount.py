"""The group Aff(1, F_q) and engines counting surface-group representations.

A representation of the genus-g surface group is a tuple (A_1, ..., A_2g)
of group elements whose product of commutators [A_1,A_2]...[A_2g-1,A_2g] is
the identity.  Two independent engines count them; a third evaluates the closed form:

* ``count_naive``  -- the table oracle: the group-law table is composed from
  the index tables of F_q and :func:`count_group_generic` counts the
  tuples on it, at genus 1 the commuting pairs as |G| times the number of
  conjugacy classes (:func:`conjugacy_classes`) and otherwise by folding
  them by the value of their commutator product (:func:`oracle_counts`,
  one sweep for every genus up to a bound),
* ``count_semi``   -- one handle at a time: its commutators are counted by
  the rank of a linear form, which depends on q alone
  (:func:`handle_distribution`), and the g handles are chained by a 2x2
  integer matrix over the translation subgroup (:func:`semi_counts`, one
  :func:`~affrep.exactpoly.chain` for every genus up to a bound),
* ``closed``       -- the stratification's :func:`~affrep.geomstrat.rep_class` at q.

The naive engine works on the group law and the semi engine works on the
shifted linear-form model (a |-> a - 1 folded into its coordinates), so
agreement between them is a genuine cross-check, not a tautology.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import Counter, defaultdict
from operator import eq, getitem, itemgetter
from typing import Iterable, Sequence

from .exactpoly import Immutable, Record, chain, words
from .finitefield import FieldMismatch, FieldOrder, FieldSpec, FqElem, make_field
from .geomstrat import class_charge, rep_class

DEFAULT_GUARD = 10**8


class BudgetExceeded(RuntimeError):
    """A charge would take a :class:`Budget` past its limit, the ``--guard``."""


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


def _record(
    field: FieldOrder | FieldSpec, genus: int, count: int, engine: str, t0: float
) -> CountRecord:
    return CountRecord(
        p=field.p,
        n=field.n,
        q=field.order,
        genus=genus,
        count=count,
        engine=engine,
        elapsed=time.perf_counter() - t0,
    )


class Budget:
    """A command's one ledger for ``--guard``: each phase charges once, before it works."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: int = DEFAULT_GUARD, used: int = 0):
        self.limit, self.used = limit, used

    def charge(self, units: int, what: str, *args) -> None:
        """Add ``units``, or past the limit raise :class:`BudgetExceeded` on ``what.format``."""
        if self.used + units > self.limit:
            spent = f", with {self.used} already charged" if self.used else ""
            raise BudgetExceeded(f"{what.format(*args)}{spent} (guard {self.limit})")
        self.used += units


def charge_ahead(budget: Budget, units: int, what: str, *args) -> None:
    """Refuse now the ``units`` that phases yet to charge ``budget`` would add in all."""
    Budget(budget.limit, budget.used).charge(units, what, *args)


def _table_charge(order: int, genus: int) -> tuple:
    # the table's entries, the handle commutators and g - 1 fold steps of <= |G|^2
    if genus < 1:
        raise ValueError("genus must be >= 1")
    steps = (genus + 1) * order * order
    what = "table oracle needs (g+1)|G|^2 = {} steps with |G| = {} and g = {}, for the table, "
    return steps, what + "the handle commutators and g - 1 fold steps", steps, order, genus


def count_charge(q: int, genus: int, engine: str) -> tuple:
    """``Budget.charge``'s arguments for ``engine`` to count at order q and genus g >= 1.

    (g + 1)|G|^2 for the table oracle; for ``semi`` g chain steps and for ``closed``
    :func:`~affrep.geomstrat.class_charge` plus 4g Horner steps, each step weighted by
    the 64-bit words of the count, whose bits are at most 4g times the bits of q.
    """
    if engine in ("naive", "generic"):
        return _table_charge(q * (q - 1), genus)
    if genus < 1:
        raise ValueError("genus must be >= 1")
    # the count is below |G|^2g < q^4g, as is each u, v of a chain: u + (q-1)v = |G|^2k
    bits = 4 * genus * q.bit_length()
    if engine == "semi":
        steps = genus * words(bits)
        what = "semi count needs {} units, g = {} chain steps on counts of up to {} bits at q = {}"
        return steps, what, steps, genus, bits, q
    building = class_charge(genus)
    steps = building + 4 * genus * words(bits)
    what = "closed form needs {} units, {} to build the genus-{} class and 4g = {} Horner steps"
    what += " on a count of up to {} bits at q = {}"
    return steps, what, steps, building, genus, 4 * genus, bits, q


def count_naive(
    field: FieldOrder | FieldSpec, genus: int, budget: Budget | None = None
) -> CountRecord:
    """The table oracle: count on the group-law table of Aff(1, F_q).

    Builds :func:`aff_group_table`, with |G| = q(q - 1), and takes the
    count of :func:`count_group_generic` on it, which charges (g + 1)|G|^2
    to ``budget`` (a fresh default-guard :class:`Budget` if None); a charge
    over the guard is refused before the table is built, and before F_q is
    built (:func:`~affrep.finitefield.make_field`) when ``field`` is only
    its :class:`~affrep.finitefield.FieldOrder`.  At genus 1 the
    count takes q class gathers of about 3|G| steps each, as Aff(1, F_q)
    has q conjugacy classes.  The default guard admits genus 1 up to q = 83
    and refuses q = 89.  Memory is the table, 8 bytes of pointer per
    entry: at q = 47 (|G|^2 = 4.67 million entries)
    ``count`` peaks at 58 MB of VmHWM (2-core Xeon, CPython 3.11.7).
    """
    t0 = time.perf_counter()
    budget = budget or Budget()
    charge_ahead(budget, *count_charge(field.order, genus, "naive"))
    if not isinstance(field, FieldSpec):
        field = make_field(field.p, field.n)
    table, ident = aff_group_table(field)
    return _record(field, genus, count_group_generic(table, ident, genus, budget), "naive", t0)


def handle_distribution(q: int) -> tuple[int, int]:
    """Commutator counts of one handle over F_q in the shifted linear-form model.

    Returns (N0, N1): N0 pairs of group elements have commutator the
    identity, N1 have commutator one fixed nonzero translation.  The pair
    ((1 + alpha_1, beta_1), (1 + alpha_2, beta_2)) has commutator the
    translation by alpha_1 * beta_2 - alpha_2 * beta_1, so each shifted
    scaling pair (alpha_1, alpha_2) in (F_q - {-1})^2 contributes the number
    of beta solutions of that 1 x 2 form: q^(2 - rank) over the identity and,
    when the rank is 1, q over every nonzero translation, since a rank-1
    form is onto F_q.  The rank is 0 only at (0, 0), a pair as 0 != -1 in
    every field, so N1 = ((q - 1)^2 - 1) q and N0 = q^2 + N1.
    """
    rank_one = ((q - 1) ** 2 - 1) * q
    return q * q + rank_one, rank_one


def semi_counts(q: int, genera: Iterable[int], budget: Budget | None = None) -> dict[int, int]:
    """The counts over F_q at each genus of ``genera``, from one semi chain.

    One handle's commutator lands in the translation subgroup T = F_q with
    the distribution of :func:`handle_distribution`: N0 at the identity
    and N1 at each nonzero translation.  Chaining the g handles is a
    convolution over T; as the distribution is constant on T - {0}, it
    reduces to g passes of the integer matrix

        [[N0, (q-1) N1], [N1, N0 + (q-2) N1]]

    over (u, v) from (1, 0), where u counts tuples whose commutator
    product is the identity and v those whose product is one fixed nonzero
    translation; the genus-g count is u after pass g, the top-left entry
    of the g-th power, which is the g-th value of
    :func:`~affrep.exactpoly.chain`.  One chain to the highest genus asked
    keeps the genera asked.  Its steps, weighted by the 64-bit words of the
    counts (:func:`count_charge`), are charged once to ``budget`` (a fresh
    default-guard :class:`Budget` if None) before the first.
    """
    keep = set(genera)
    if min(keep, default=0) < 1:
        raise ValueError("genus must be >= 1")
    genus_max = max(keep)
    (budget or Budget()).charge(*count_charge(q, genus_max, "semi"))
    n0, n1 = handle_distribution(q)
    matrix = ((n0, (q - 1) * n1), (n1, n0 + (q - 2) * n1))
    counts = zip(range(1, genus_max + 1), chain(matrix))
    return {genus: u for genus, u in counts if genus in keep}


def count_semi(
    field: FieldOrder | FieldSpec, genus: int, budget: Budget | None = None
) -> CountRecord:
    """Count points handle by handle in the linear-form model.

    The one count kept by :func:`semi_counts` over the order of ``field``,
    which charges ``budget`` (a fresh default-guard :class:`Budget` if None).
    It reads q alone, so no field need be built.
    """
    t0 = time.perf_counter()
    return _record(field, genus, semi_counts(field.order, (genus,), budget)[genus], "semi", t0)


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
    two-sided inverse, associativity, and every row holds the identity
    exactly once.  Every check reads the rows in C and copies none that is
    a tuple: the range check is one set test per row, and the identity is
    compared with the indices as its row and its column.  Associativity is
    checked a row at a time: for a pair (x, y), row xy of the table is (xy)z
    for every z, and row x gathered at row y is x(yz) for every z, so one
    gather and one tuple comparison check n triples.  The pairs are all n^2
    when n^3 <= 3000 (n <= 14), otherwise ceil(3000/n) drawn from
    ``random.Random(0)`` (:func:`_associativity_pairs`), at least 3000
    triples; a failure names the first z at which the rows differ.  The last
    check is what :func:`oracle_counts` relies on: it counts the last
    handles that complete a prefix p as the commutators equal to p^-1, which
    equals the number of identities p*c only when p has one right inverse.
    In a group that holds by associativity; the sample can miss a row with
    two.  That check searches only each row's tail after its inverse, which
    the inverse scan left unread, with ``row.index`` from there.
    """
    n = len(table)
    if n == 0 or any(len(row) != n for row in table):
        raise InvalidGroupTable("table must be square and non-empty")
    if not all(map(set(range(n)).issuperset, table)):
        raise InvalidGroupTable("table entries must be element indices")
    if not 0 <= identity < n:
        raise InvalidGroupTable("identity index out of range")
    indices = tuple(range(n))
    if tuple(table[identity]) != indices or tuple(map(itemgetter(identity), table)) != indices:
        raise InvalidGroupTable(f"index {identity} is not a two-sided identity")
    inv, doubled = [], None
    for x in range(n):
        # the first y with x*y = identity = y*x: scan the row in C, resuming
        # after any right inverse that is not also a left inverse, which
        # leaves row x holding the identity twice
        row, y = table[x], -1
        while True:
            try:
                y = row.index(identity, y + 1)
            except ValueError:
                raise InvalidGroupTable(f"element {x} has no inverse") from None
            if table[y][x] == identity:
                break
            if doubled is None:
                doubled = x
        inv.append(y)
    for x, y in _associativity_pairs(n):
        row = table[x]
        left, right = tuple(table[row[y]]), _gather(table[y])(row)
        if left != right:
            z = list(map(eq, left, right)).index(False)
            raise InvalidGroupTable(f"associativity fails on ({x}, {y}, {z})")
    # the first row holding the identity twice: one the inverse scan resumed
    # in, or an earlier one with the identity again after its inverse
    for x in range(n if doubled is None else doubled):
        try:
            table[x].index(identity, inv[x] + 1)
        except ValueError:
            continue
        doubled = x
        break
    if doubled is not None:
        count = table[doubled].count(identity)
        raise InvalidGroupTable(f"row {doubled} holds the identity {count} times")
    return inv


def _associativity_pairs(n: int) -> Iterable[tuple[int, int]]:
    # each pair checks n triples: every pair when n^3 <= 3000 (n <= 14), else
    # ceil(3000/n) seeded pairs, so at least 3000 triples either way; below
    # order 15 the draw, with its repeats, would take more pairs than all n^2
    if n**3 <= 3000:
        return itertools.product(range(n), repeat=2)
    picks = random.Random(0).choices(range(n), k=2 * -(-3000 // n))
    return zip(picks[0::2], picks[1::2])


def _gather(indices: Sequence[int]):
    # a C-level gather of a sequence at ``indices``, as a tuple: itemgetter of
    # one index returns the item itself, hence the trivial group's own
    if len(indices) > 1:
        return itemgetter(*indices)
    (index,) = indices
    return lambda row: (row[index],)


def conjugacy_classes(table: Sequence[Sequence[int]], inv: Sequence[int]) -> list[frozenset[int]]:
    """The conjugacy classes of a validated group table, in order of least element.

    ``inv`` holds the inverse of every element, as :func:`validate_group_table`
    returns them.  Each pass takes the least unclassified x and gathers its
    class {y x y^-1 : y in G} in C: column x of the table is y x for every y,
    and row y x read at y^-1 is y x y^-1.  So each class costs one gather of
    about 3|G| steps, k(G) gathers in all, and the centralizer of x has
    |G| / |class of x| elements.  Aff(1, F_q) has k = q classes, so the pass
    takes about 3q|G| steps; an abelian table is the worst case, as each of
    its |G| classes is a singleton and the pass takes about 3|G|^2 steps.
    """
    classes: list[frozenset[int]] = []
    classified: set[int] = set()
    for x in range(len(table)):
        if x not in classified:
            conjugates = map(table.__getitem__, map(itemgetter(x), table))
            found = frozenset(map(getitem, conjugates, inv))
            classes.append(found)
            classified |= found
    return classes


def oracle_counts(
    table: Sequence[Sequence[int]], identity: int, genus_max: int, budget: Budget | None = None
) -> tuple[list[int], Counter]:
    """The commutator-relation counts at genus 1 to ``genus_max`` in one sweep.

    Returns the counts, in order of genus, and h: h[z] is the number of
    handles (x, y) whose commutator x y x^-1 y^-1 is z, read from the table
    alone.  The table is validated once (:func:`validate_group_table`) and h
    tallied once; then d_0 = {identity: 1} and d_{k+1}[p c] += d_k[p] h[c]
    fold the tuples of k handles by the value p of their commutator product,
    and the genus-g count is the sum of d_{g-1}[p] h[p^-1], since p c is the
    identity exactly when c = p^-1.  Every tuple is counted once, as a
    weight, with its product taken left to right in the table.  The work is
    |G|^2 commutators plus genus_max - 1 steps of |supp d| * |supp h| <=
    |G|^2 products, charged with the table's entries, (genus_max + 1)|G|^2,
    to ``budget`` (a fresh default-guard :class:`Budget` if None) first.
    """
    (budget or Budget()).charge(*_table_charge(len(table), genus_max))
    inv = validate_group_table(table, identity)
    # [x, y] = (x y)(x^-1 y^-1) for one x per row, read from the rows of x and
    # x^-1 alone: the latter is gathered at the inverses once per row, in C
    at_inverses = _gather(inv)
    h: Counter = Counter()
    for row, inv_x in zip(table, inv):
        h.update([table[xy][xiyi] for xy, xiyi in zip(row, at_inverses(table[inv_x]))])
    counts, d = [], {identity: 1}
    for genus in range(1, genus_max + 1):
        counts.append(sum(weight * h[inv[p]] for p, weight in d.items()))
        if genus < genus_max:
            folded: defaultdict[int, int] = defaultdict(int)
            for p, weight in d.items():
                row = table[p]
                for c, count in h.items():
                    folded[row[c]] += weight * count
            d = folded
    return counts, h


def count_group_generic(
    table: Sequence[Sequence[int]], identity: int, genus: int, budget: Budget | None = None
) -> int:
    """Commutator-relation count using only a multiplication table.

    Independent of any affine structure: an oracle for cross-checking the
    other engines on the same group fed back as an opaque table.  At genus 1
    a handle (x, y) has commutator the identity exactly when x y = y x, so
    the count is the commuting pairs.  The y that commute with x are its
    centralizer, of |G| / |class of x| elements, so each conjugacy class
    holds |G| commuting pairs and the count is |G| k(G), by the class
    equation: k(G) class gathers of about 3|G| steps in C over the validated
    table (:func:`conjugacy_classes`), and no commutator built.  An abelian
    table is the worst case, with |G| classes of one element.  At genus >= 2
    it is the last count of :func:`oracle_counts`, which folds the tuples by
    the value of their commutator product.  Either way (g + 1)|G|^2 is
    charged to ``budget`` (a fresh default-guard :class:`Budget` if None)
    first, which bounds the pass on an abelian table too.
    """
    if genus > 1:
        return oracle_counts(table, identity, genus, budget)[0][-1]
    (budget or Budget()).charge(*_table_charge(len(table), genus))
    inv = validate_group_table(table, identity)
    return len(table) * len(conjugacy_classes(table, inv))


def _addition_rows(field: FieldSpec) -> list[tuple[int, ...]]:
    # row x holds idx(x + y).  The element of index u = p^m is a single
    # coefficient 1, so adding it raises y's base-p digit of weight u by one,
    # mod p: in each block of p u indices the row is the block rotated by u.
    # The element of index k is, digit by digit, that of the largest such
    # u <= k plus that of k - u, so every other row composes two earlier ones
    # in one C-level gather, and no FqElem sum is taken
    p, q = field.p, field.order
    rows = [tuple(range(q))]
    unit = 1
    for k in range(1, q):
        if k == unit * p:
            unit = k
        if k == unit:
            step = p * unit
            blocks = range(0, q, step)
            halves = (r for b in blocks for r in (range(b + unit, b + step), range(b, b + unit)))
            rows.append(tuple(itertools.chain.from_iterable(halves)))
        else:
            rows.append(itemgetter(*rows[k - unit])(rows[unit]))
    return rows


def _multiplication_rows(field: FieldSpec, elems: list[FqElem]) -> list[list[int]]:
    # row x - 1 holds idx(x y) = exp[log x + log y], for x != 0 and a primitive
    # element g with exp[k] = idx(g^k): the powers of each candidate until one
    # returns, so about q FqElem products in all rather than q^2
    q, one = field.order, field.one()
    for g in elems[1:]:
        exp, x = [], one
        while True:
            exp.append(x.index())
            x = x * g
            if x == one:
                break
        if len(exp) == q - 1:
            break
    log = [0] * q
    for k, e in enumerate(exp):
        log[e] = k
    exp += exp  # exp[i + j] for i, j < q - 1 without a modulus
    logs = log[1:]
    return [[0] + [exp[log[x] + k] for k in logs] for x in range(1, q)]


def aff_group_table(field: FieldSpec) -> tuple[list[tuple[int, ...]], int]:
    """The multiplication table of Aff(1, F_q) in ``aff_elements`` order, rows as tuples.

    The element (a, b) has index (idx(a) - 1) * q + idx(b), since the zero
    of F_q has index 0, so the translation (1, b) has the identity's index
    plus idx(b).  The table is composed rather than filled entry by entry:
    (a1, b1) = (1, b1)(a1, 0), so row (a1, b1) is the row of the translation
    (1, b1), which sends (a2, b2) to (a2, b2 + b1), gathered at the row of
    the scaling (a1, 0), which sends (a2, b2) to (a1 a2, a1 b2).  Those q
    translation rows and q - 1 scaling rows are built from the addition and
    multiplication tables of F_q on enumeration indices (the former from
    base-p digits, with no :class:`FqElem` sum; the latter from a few q
    products); each of the |G| = q(q - 1) rows is then the tuple of one
    C-level gather, not copied, so every entry is one of the q|G| int
    objects of the translation rows, 8 bytes of pointer per entry.
    """
    q = field.order
    bases = range(0, q * (q - 1), q)  # (idx(a2) - 1) * q for a2 != 0
    # comprehensions: C-level map(add, ...) spreads measured slower for the
    # tables of q <= 16 and no faster at q = 47
    translations = [[base + t for base in bases for t in row] for row in _addition_rows(field)]
    table: list[tuple[int, ...]] = []
    for mul in _multiplication_rows(field, list(field.elements())):
        scaling = itemgetter(*[(m - 1) * q + t for m in mul[1:] for t in mul])
        table += map(scaling, translations)
    return table, (field.one().index() - 1) * q


ENGINES = ("naive", "semi", "closed", "generic")


def count_points(
    field: FieldOrder | FieldSpec,
    genus: int,
    engine: str = "semi",
    budget: Budget | None = None,
) -> CountRecord:
    """Run the selected engine, which charges ``budget``, for a :class:`CountRecord`.

    ``semi`` and ``closed`` read only p, n and q, so an order serves them;
    the table engines build F_q from an order (:func:`count_naive`).
    """
    if engine in ("naive", "generic"):
        record = count_naive(field, genus, budget)
        record.engine = engine
        return record
    if engine == "semi":
        return count_semi(field, genus, budget)
    if engine == "closed":
        t0 = time.perf_counter()
        (budget or Budget()).charge(*count_charge(field.order, genus, engine))
        return _record(field, genus, rep_class(genus)(field.order), "closed", t0)
    raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
