"""Construction of F_{p^n} and exact field arithmetic.

Elements are residue-coefficient vectors of length n modulo a monic
irreducible polynomial over F_p.  Everything is deterministic: the default
modulus is the lexicographically smallest monic irreducible polynomial of
degree n (coefficients compared constant term first), so two runs always
build the same field.  Orders in scope are tiny, so irreducibility is
checked by trial division, skipping what X divides: for n >= 2 a candidate
with constant term 0 is a multiple of X, so the search starts at constant
term 1, and a polynomial that X does not divide has no divisor that X
divides, so only divisors with a nonzero constant term are tried.
"""

from __future__ import annotations

import itertools
from math import isqrt
from operator import mul
from typing import Iterator, Sequence

from .exactpoly import Immutable, _render, power

DEFAULT_MAX_ORDER = 4096


class NotPrime(ValueError):
    """The requested characteristic is not a prime number."""


class OrderTooLarge(ValueError):
    """The requested field order exceeds the enumeration bound."""


class FieldMismatch(ValueError):
    """Operands belong to different fields; no implicit coercion."""


class InverseOfZero(ZeroDivisionError):
    """The zero element has no multiplicative inverse."""


def is_prime(p: int) -> bool:
    """Deterministic trial-division primality check."""
    if p < 2:
        return False
    return all(p % d for d in range(2, isqrt(p) + 1))


def _poly_rem(num: Sequence[int], den: Sequence[int], p: int) -> list[int]:
    # Remainder of num by monic den over F_p; both low-to-high coefficient lists.
    rem = [c % p for c in num]
    dn = len(den) - 1
    for k in range(len(rem) - 1, dn - 1, -1):
        t = rem[k]
        if t:
            for j in range(dn + 1):
                rem[k - dn + j] = (rem[k - dn + j] - t * den[j]) % p
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


def _is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Whether the monic ``poly`` (low-to-high, reduced mod p) is irreducible over F_p.

    Of degree >= 2, a zero constant term means X divides it, so it is
    refused at once.  Otherwise no multiple of X divides it either, so trial
    division runs over the monic divisors of degree 1..deg/2 whose constant
    term is nonzero.
    """
    deg = len(poly) - 1
    if deg >= 2 and poly[0] == 0:
        return False
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(1, p), *[range(p)] * (d - 1)):
            if not _poly_rem(poly, tail + (1,), p):
                return False
    return True


class FieldSpec(Immutable):
    """The field F_{p^n} presented as F_p[X] modulo a monic irreducible polynomial.

    ``modulus`` is a low-to-high coefficient tuple of length n + 1 with
    leading coefficient 1.
    """

    __slots__ = ("p", "n", "modulus")
    p: int
    n: int
    modulus: tuple[int, ...]

    @property
    def order(self) -> int:
        return self.p**self.n

    def descriptor(self) -> str:
        """The ``p^n`` form accepted on the command line."""
        return f"{self.p}^{self.n}"

    def modulus_text(self) -> str:
        return _render(self.modulus, var="X")

    def element(self, coeffs: Sequence[int]) -> FqElem:
        if len(coeffs) > self.n:
            raise ValueError(f"at most {self.n} coefficients expected")
        cs = [c % self.p for c in coeffs]
        cs += [0] * (self.n - len(cs))
        return FqElem(self, tuple(cs))

    def from_int(self, k: int) -> FqElem:
        """The k-th element in enumeration order (inverse of :meth:`FqElem.index`)."""
        if not 0 <= k < self.order:
            raise ValueError(f"index {k} outside [0, {self.order})")
        cs = []
        for _ in range(self.n):
            cs.append(k % self.p)
            k //= self.p
        cs.reverse()
        return FqElem(self, tuple(cs))

    def zero(self) -> FqElem:
        return FqElem(self, (0,) * self.n)

    def one(self) -> FqElem:
        return self.element([1])

    def elements(self) -> Iterator[FqElem]:
        """All p^n elements, coefficient-vector lexicographic order."""
        for coeffs in itertools.product(range(self.p), repeat=self.n):
            yield FqElem(self, coeffs)


def check_order(p: int, n: int, max_order: int = DEFAULT_MAX_ORDER) -> None:
    """Raise :class:`OrderTooLarge` if p^n is over ``max_order``, as :func:`make_field` does."""
    if p >= 2 and (n > max_order.bit_length() or p**n > max_order):
        raise OrderTooLarge(f"{p}^{n} exceeds the enumeration bound {max_order}")


def _check_field(p: int, n: int, max_order: int) -> None:
    if n < 1:
        raise ValueError("extension degree must be >= 1")
    check_order(p, n, max_order)
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")


def make_field(
    p: int,
    n: int,
    modulus: Sequence[int] | None = None,
    max_order: int = DEFAULT_MAX_ORDER,
) -> FieldSpec:
    """Build F_{p^n}, picking the lex-smallest irreducible modulus by default.

    The default is the first irreducible candidate in lex order, constant
    term compared first; for n >= 2 the candidates with constant term 0 are
    skipped, as X divides them all (see :func:`_is_irreducible`).  An
    explicit ``modulus`` (low-to-high, monic, degree n) may be supplied; it
    is validated for irreducibility, so X^2 is refused and X accepted.  The
    order bound is checked before primality, so a huge p is refused without
    trial division; as p^n >= 2^n, an n beyond the bit length of
    ``max_order`` is refused without building p^n.
    """
    _check_field(p, n, max_order)
    if modulus is not None:
        mod = tuple(c % p for c in modulus)
        if len(mod) != n + 1 or mod[-1] != 1:
            raise ValueError("modulus must be monic of degree n")
        if not _is_irreducible(mod, p):
            raise ValueError(f"modulus is not irreducible over F_{p}")
        return FieldSpec(p, n, mod)
    # F_p has an irreducible polynomial of every degree, so the search finds one
    return FieldSpec(p, n, next(_irreducible_moduli(p, n)))


def _irreducible_moduli(p: int, n: int) -> Iterator[tuple[int, ...]]:
    # lex order, constant term first; past n = 1 the scan starts at constant
    # term 1, as X divides every candidate before it
    first = range(p) if n == 1 else range(1, p)
    for tail in itertools.product(first, *[range(p)] * (n - 1)):
        cand = tail + (1,)
        if _is_irreducible(cand, p):
            yield cand


def irreducible_moduli(p: int, n: int) -> list[tuple[int, ...]]:
    """Every monic irreducible polynomial of degree n over F_p, lex order.

    Refuses what :func:`make_field` refuses, with the same errors: n < 1, a
    p that is not prime, and an order over ``DEFAULT_MAX_ORDER``.
    """
    _check_field(p, n, DEFAULT_MAX_ORDER)
    return list(_irreducible_moduli(p, n))


def parse_descriptor(text: str) -> tuple[int, int]:
    """Parse a ``p^n`` or bare-prime field descriptor into (p, n)."""
    base, sep, exp = text.partition("^")
    try:
        p = int(base)
        n = int(exp) if sep else 1
    except ValueError:
        raise ValueError(f"malformed field descriptor {text!r}") from None
    return p, n


class FqElem(Immutable):
    """An element of a :class:`FieldSpec`, as n residues modulo p."""

    __slots__ = ("field", "coeffs")
    field: FieldSpec
    coeffs: tuple[int, ...]

    # every field operation runs __init__ and __eq__, so they are written out:
    # Immutable's generic ones are about 30 % and 2.5 times slower
    def __init__(self, field: FieldSpec, coeffs: tuple[int, ...]):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", coeffs)

    def __eq__(self, other):
        if other.__class__ is not FqElem:
            return NotImplemented
        # the field test is the costlier one, and an identical field skips it
        return self.coeffs == other.coeffs and (
            self.field is other.field or self.field == other.field
        )

    __hash__ = Immutable.__hash__  # defining __eq__ would otherwise unset it

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _check(self, other: FqElem) -> None:
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatch(
                f"elements of F_{self.field.descriptor()} and F_{other.field.descriptor()}"
            )

    def __add__(self, other: FqElem) -> FqElem:
        self._check(other)
        p = self.field.p
        return FqElem(self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: FqElem) -> FqElem:
        self._check(other)
        p = self.field.p
        return FqElem(self.field, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> FqElem:
        p = self.field.p
        return FqElem(self.field, tuple(-a % p for a in self.coeffs))

    def __mul__(self, other: FqElem) -> FqElem:
        self._check(other)
        f = self.field
        prod = [0] * (2 * f.n - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                prod[i + j] += a * b
        rem = _poly_rem(prod, f.modulus, f.p)
        rem += [0] * (f.n - len(rem))
        return FqElem(f, tuple(rem))

    def __pow__(self, e: int) -> FqElem:
        if e < 0:
            return self.inv() ** (-e)
        return power(self, e, self.field.one(), mul)

    def inv(self) -> FqElem:
        """Multiplicative inverse via x^(q-2); raises on zero."""
        if self.is_zero():
            raise InverseOfZero("0 has no inverse")
        return self ** (self.field.order - 2)

    def index(self) -> int:
        """Position of this element in the field's enumeration order."""
        k = 0
        for c in self.coeffs:
            k = k * self.field.p + c
        return k

    def __str__(self) -> str:
        return _render(self.coeffs, var="t")

    def __repr__(self) -> str:
        return f"FqElem(F_{self.field.descriptor()}, {str(self)!r})"
