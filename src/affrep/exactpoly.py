"""Exact univariate polynomial and polynomial-matrix arithmetic.

Polynomials live in Z[q] with a dense coefficient list, index i holding
the coefficient of q^i.  Coefficients are Python ints, so there is no
overflow and no rounding anywhere; every operation here is exact or raises.

The zero polynomial stores an empty coefficient tuple and its ``degree`` is
``None`` rather than an integer, so a degree of -1 can never be confused
with a valid degree.
"""

from __future__ import annotations

import itertools
from operator import attrgetter, mul
from typing import Iterable, Iterator


class NotDivisible(ArithmeticError):
    """Exact division was requested but a nonzero remainder appeared."""


class DimensionMismatch(ValueError):
    """Matrix shapes are incompatible for the requested operation."""


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
        other = _as_poly(other)
        return IntPoly(
            a + b
            for a, b in itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        )

    __radd__ = __add__

    def __sub__(self, other: IntPoly | int) -> IntPoly:
        return self + (-_as_poly(other))

    def __neg__(self) -> IntPoly:
        return IntPoly(-c for c in self.coeffs)

    def __mul__(self, other: IntPoly | int) -> IntPoly:
        other = _as_poly(other)
        if not self.coeffs or not other.coeffs:
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
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


ZERO = IntPoly()
ONE = IntPoly([1])
Q = IntPoly([0, 1])


class PolyMatrix(Immutable):
    """A rows x cols matrix over :class:`IntPoly`, stored row-major."""

    __slots__ = ("rows", "cols", "entries")
    rows: int
    cols: int
    entries: tuple[IntPoly, ...]

    def __init__(self, rows: int, cols: int, entries: Iterable[IntPoly | int]):
        es = tuple(_as_poly(e) for e in entries)
        if rows <= 0 or cols <= 0:
            raise DimensionMismatch("matrix dimensions must be positive")
        if len(es) != rows * cols:
            raise DimensionMismatch(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(es)}"
            )
        super().__init__(rows, cols, es)

    @staticmethod
    def from_rows(rows: Iterable[Iterable[IntPoly | int]]) -> PolyMatrix:
        rs = [list(r) for r in rows]
        if not rs or any(len(r) != len(rs[0]) for r in rs):
            raise DimensionMismatch("rows must be non-empty and of equal length")
        return PolyMatrix(len(rs), len(rs[0]), [e for r in rs for e in r])

    def entry(self, i: int, j: int) -> IntPoly:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[IntPoly, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def scale(self, f: IntPoly | int) -> PolyMatrix:
        f = _as_poly(f)
        return PolyMatrix(self.rows, self.cols, [f * e for e in self.entries])

    def exact_div_scalar(self, d: IntPoly) -> PolyMatrix:
        """Entry-wise exact division; raises :class:`NotDivisible` on failure."""
        return PolyMatrix(self.rows, self.cols, [e.exact_div(d) for e in self.entries])

    def trace(self) -> IntPoly:
        if self.rows != self.cols:
            raise DimensionMismatch("trace requires a square matrix")
        acc = ZERO
        for i in range(self.rows):
            acc = acc + self.entry(i, i)
        return acc

    def __iter__(self) -> Iterator[tuple[IntPoly, ...]]:
        return (self.row(i) for i in range(self.rows))

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(e) for e in row) for row in self) + "]"

