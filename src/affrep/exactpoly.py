"""Exact univariate polynomial arithmetic, and the 2x2 chain both engines run.

Polynomials live in Z[q] with a dense coefficient list, index i holding
the coefficient of q^i.  Coefficients are Python ints, so there is no
overflow and no rounding anywhere; every operation here is exact or raises.
A 2x2 matrix is a plain pair of rows ``((a, b), (c, d))``, over ints or
polynomials; :func:`chain` gives the top-left entries of its powers by
the Cayley-Hamilton recurrence.  :func:`taylor_shift` substitutes q + 1 or
q - 1 for q by additions alone.  :class:`Packing` holds a polynomial of
small coefficients as one int, a slot of bits per coefficient, so that the
chain can run on ints and its states be read back.

The zero polynomial stores an empty coefficient tuple and its ``degree`` is
``None`` rather than an integer, so a degree of -1 can never be confused
with a valid degree.
"""

from __future__ import annotations

import itertools
from operator import add, attrgetter, mul, neg, sub
from typing import Iterable, Iterator


class NotDivisible(ArithmeticError):
    """Exact division was requested but a nonzero remainder appeared."""


class Record:
    """Base of the value classes: the fields are the ``__slots__``, in order.

    ``Cls(*values)`` sets each field in ``__slots__`` order, and two objects
    are equal when they are of the same class and their fields are equal.  A
    subclass whose constructor checks or normalises its arguments calls this
    one with the final values.  A Record's fields may be reassigned, so it is
    unhashable; :class:`Immutable` is the frozen, hashable kind.
    """

    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__slots__:
            # the fields as a tuple, or the one field's value
            cls._values = attrgetter(*cls.__slots__)

    def __init__(self, *values):
        names = self.__slots__
        if len(values) != len(names):
            raise TypeError(f"{type(self).__name__} takes the fields {names}, got {values}")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)


class Immutable(Record):
    """A :class:`Record` whose fields are set once, in ``__init__``, and hashed.

    Any later assignment or deletion raises :class:`AttributeError`; copy and
    pickle restore the fields through ``__setstate__``.
    """

    __slots__ = ()

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __setstate__(self, state):
        # copy and pickle restore the fields through here, past __setattr__
        _, fields = state
        for name, value in fields.items():
            object.__setattr__(self, name, value)


def power(base, e: int, one, product):
    """``base ** e`` by repeated squaring, from the identity ``one`` and ``product``.

    Squares only while exponent bits remain, so it makes
    ``e.bit_length() - 1`` squarings and one product per set bit of e.
    """
    result = one
    while e:
        if e & 1:
            result = product(result, base)
        e >>= 1
        if e:
            base = product(base, base)
    return result


def words(bits: int) -> int:
    """The 64-bit words that an integer of ``bits`` bits weighs, at least one.

    >>> words(0), words(64), words(65)
    (1, 1, 2)
    """
    return max(1, -(-bits // 64))


def _render(coeffs, var: str = "q") -> str:
    # Descending powers, explicit signs: "q^3 - q^2", "2q - 2", "7", "0".
    if not coeffs:
        return "0"
    parts: list[str] = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            power = var if i == 1 else f"{var}^{i}"
            body = power if mag == 1 else f"{mag}{power}"
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts)


class IntPoly(Immutable):
    """A polynomial in q with arbitrary-precision integer coefficients.

    >>> IntPoly([-1, 0, 1])
    IntPoly('q^2 - 1')
    >>> IntPoly([0, -1, 1]) * IntPoly([1, 1])
    IntPoly('q^3 - q')
    """

    __slots__ = ("coeffs",)
    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        # set directly, past Record.__init__, which would cost a third more per sum
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int | None:
        """Degree of the polynomial; ``None`` for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: IntPoly | int) -> IntPoly:
        longer, shorter = self.coeffs, _as_poly(other).coeffs
        if len(longer) < len(shorter):
            longer, shorter = shorter, longer
        return IntPoly([*map(add, longer, shorter), *longer[len(shorter) :]])

    __radd__ = __add__

    def __sub__(self, other: IntPoly | int) -> IntPoly:
        return self + (-_as_poly(other))

    def __neg__(self) -> IntPoly:
        return IntPoly(map(neg, self.coeffs))

    def __mul__(self, other: IntPoly | int) -> IntPoly:
        """The product, one row per nonzero coefficient a of ``self``, each added in C.

        The row is ``other`` shifted by a's power, added as it is for a = 1
        and subtracted for a = -1, so a unit coefficient costs no product.
        """
        right = _as_poly(other).coeffs
        if not self.coeffs or not right:
            return IntPoly()
        n = len(right)
        out = [0] * (len(self.coeffs) + n - 1)
        for i, a in enumerate(self.coeffs):
            if a == 1:
                out[i : i + n] = map(add, out[i : i + n], right)
            elif a == -1:
                out[i : i + n] = map(sub, out[i : i + n], right)
            elif a:
                out[i : i + n] = map(add, out[i : i + n], map(a.__mul__, right))
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> IntPoly:
        if e < 0:
            raise ValueError("negative powers are not defined in Z[q]")
        return power(self, e, ONE, mul)

    def __call__(self, x: int) -> int:
        """Evaluate at an integer point by Horner's rule, exactly."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def exact_div(self, d: IntPoly) -> IntPoly:
        """Return c with d * c == self, or raise.

        Synthetic long division with an integer-divisibility check at every
        step; any nonzero remainder raises :class:`NotDivisible` instead of
        truncating.  Each step subtracts only the divisor's nonzero
        coefficients.
        """
        if d.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return IntPoly()
        rem = list(self.coeffs)
        dc = d.coeffs
        lead = dc[-1]
        if len(rem) < len(dc):
            raise NotDivisible(f"({self}) is not divisible by ({d})")
        quot = [0] * (len(rem) - len(dc) + 1)
        terms = [(j, c) for j, c in enumerate(dc) if c]
        for k in range(len(quot) - 1, -1, -1):
            top = rem[k + len(dc) - 1]
            if top % lead != 0:
                raise NotDivisible(f"({self}) is not divisible by ({d})")
            t = top // lead
            quot[k] = t
            if t:
                for j, c in terms:
                    rem[k + j] -= t * c
        if any(rem):
            raise NotDivisible(f"({self}) is not divisible by ({d})")
        return IntPoly(quot)

    def __str__(self) -> str:
        return _render(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPoly({str(self)!r})"


def _as_poly(x: IntPoly | int) -> IntPoly:
    return x if isinstance(x, IntPoly) else IntPoly([x])


def taylor_shift(p: IntPoly, s: int) -> IntPoly:
    """p(q + s) for s = 1 or -1, by additions alone.

    Each pass takes the suffix sums of the coefficients, top first
    (:func:`itertools.accumulate`): the last is the value at q = 1, the
    next coefficient of p(q + 1), and the others are the coefficients of
    the quotient by q - 1, which the next pass shifts.  A polynomial of n
    coefficients takes n(n - 1)/2 additions.  For s = -1 the signs of the
    odd coefficients flip before and after, as p(q - 1) = r(-q) with
    r(q) = p(-q - 1).  Any other s raises :class:`ValueError`.

    >>> taylor_shift(IntPoly([0, 0, 1]), 1), taylor_shift(IntPoly([0, 0, 1]), -1)
    (IntPoly('q^2 + 2q + 1'), IntPoly('q^2 - 2q + 1'))
    """
    if s not in (1, -1):
        raise ValueError(f"taylor_shift shifts by 1 or -1, not {s!r}")
    coeffs, shifted = list(p.coeffs), []
    if s == -1:
        coeffs[1::2] = map(neg, coeffs[1::2])
    top_first = coeffs[::-1]
    while top_first:
        top_first = list(itertools.accumulate(top_first))
        shifted.append(top_first.pop())
    if s == -1:
        shifted[1::2] = map(neg, shifted[1::2])
    return IntPoly(shifted)


class Packing(Immutable):
    """Polynomials as single ints, one coefficient to a ``width``-bit slot.

    A polynomial p packs to the int p(2^width) (Kronecker substitution), so
    sums and products of packed ints pack the sums and products of their
    polynomials, exactly, whatever the coefficients.  An int is read back
    through its bytes, as the width is a multiple of 8: adding 2^radius to
    every slot, radius < width, turns a polynomial of at most ``slots``
    coefficients in the window [-2^radius, 2^radius) into one with
    coefficients in [0, 2^(radius+1)), and no carry or borrow crosses a
    slot.  :meth:`holds` checks that with one add, one mask and one
    compare, so an int it refuses packs no such polynomial.  An int it
    accepts packs one, but it is the polynomial the int was made from only
    if that one is known, from outside, to have its coefficients in
    [-2^(width-1), 2^(width-1)): the digits of an int in that range are
    unique.

    >>> packing = Packing(8, 5, 3)
    >>> x = packing.pack(IntPoly([-1, 0, 1]))
    >>> x, packing.holds(x), packing.read(x), packing.holds(x + 33)
    (65535, True, IntPoly('q^2 - 1'), False)
    """

    __slots__ = ("width", "radius", "slots", "bias", "outside")

    def __init__(self, width: int, radius: int, slots: int):
        if width % 8 or not 0 <= radius < width or slots < 1:
            raise ValueError(f"no packing of width {width}, radius {radius} and {slots} slots")
        ones = ((1 << width * slots) - 1) // ((1 << width) - 1)  # 1 in every slot
        # the bits a biased coefficient may set, and all others, the infinitely
        # many above the slots included
        super().__init__(width, radius, slots, ones << radius, ~(ones * ((2 << radius) - 1)))

    def pack(self, p: IntPoly) -> int:
        """p as the int p(2^width)."""
        return p(1 << self.width)

    def holds(self, x: int) -> bool:
        """Whether x packs a polynomial of ``slots`` coefficients in the window."""
        return (x + self.bias) & self.outside == 0

    def read(self, x: int) -> IntPoly:
        """The polynomial in the window that x packs, or :class:`ValueError`.

        The biased int's bytes, little end first, are the slots; each slot,
        less 2^radius, is one coefficient.
        """
        if not self.holds(x):
            raise ValueError(f"{x} packs no polynomial of {self.slots} coefficients in the window")
        size = self.width // 8
        raw = (x + self.bias).to_bytes(self.slots * size, "little")
        if size > 1:
            raw = [int.from_bytes(raw[i : i + size], "little") for i in range(0, len(raw), size)]
        offset = 1 << self.radius
        return IntPoly([digit - offset for digit in raw])


ZERO = IntPoly()
ONE = IntPoly([1])
Q = IntPoly([0, 1])


def cayley_hamilton(matrix) -> tuple:
    """tr(M) and -det(M) = bc - ad, the coefficients of M^2 = tr(M) M - det(M) I.

    ``matrix`` is M as its rows ``((a, b), (c, d))``, over ints or
    :class:`IntPoly`; forming -det(M) takes the two products bc and ad.

    >>> cayley_hamilton(((1, 1), (1, 0)))
    (1, 1)
    """
    (a, b), (c, d) = matrix
    return a + d, b * c - a * d


def chain(matrix) -> Iterator:
    """The top-left entry x_k of M^k for k = 1, 2, ..., without end.

    ``matrix`` is M as its rows ``((a, b), (c, d))``, over ints or
    :class:`IntPoly`.  By Cayley-Hamilton the entries follow
    x_k = tr(M) x_(k-1) - det(M) x_(k-2) from x_0 = 1 and x_1 = a.  The
    first value is a itself and the second tr(M) a - det(M), with tr(M) and
    -det(M) formed once, before it (:func:`cayley_hamilton`).  Each later
    value is two products, each with the matrix-derived factor on the left,
    and one sum.

    >>> from itertools import islice
    >>> list(islice(chain(((1, 1), (1, 0))), 6))
    [1, 2, 3, 5, 8, 13]
    """
    (a, _), _ = matrix
    yield a
    trace, codet = cayley_hamilton(matrix)
    prev, x = a, trace * a + codet
    while True:
        yield x
        prev, x = x, trace * x + codet * prev
