"""Stratification closed forms for the representation-variety classes.

The auxiliary solution space with s scaling and s translation coordinates
satisfies the recursion

    [X_s] = (q - 2) q^(s-1) (q - 1)^(s-1) + q [X_(s-1)],    [X_1] = 2q - 2,

whose closed form is q^(s-1)(q-1)^s + q^s - q^(s-1).  The genus-g
representation variety corresponds to s = 2g.  The closed form is built from
the binomial coefficients of (q-1)^s; the recursion multiplies powers of
polynomials, a separate code path that serves as an oracle for the closed form.
"""

from __future__ import annotations

from functools import lru_cache

from .exactpoly import ONE, Q, IntPoly, words


class GenusOutOfRange(ValueError):
    """Surface genus must be at least 1."""


def scaling_power(s: int, shift: int = 0) -> IntPoly:
    """q^shift (q - 1)^s, from the binomial coefficients of (q - 1)^s.

    The coefficient of q^(s-k) is (-1)^k C(s, k), and C(s, k + 1) is
    C(s, k) (s - k) / (k + 1), an exact integer division.
    """
    coeffs = [0] * (shift + s + 1)
    c = 1
    for k in range(s + 1):
        coeffs[shift + s - k] = -c if k & 1 else c
        c = c * (s - k) // (k + 1)
    return IntPoly(coeffs)


def class_charge(genus: int) -> int:
    """Word-weighted cost of building a genus-g class and printing it once, (2g+1) w (1+w).

    Its 2g + 1 nonzero coefficients are below 2^2g, so of w = ceil(2g/64) words.
    Building each costs about w, and printing it w^2: CPython's int-to-str is quadratic.
    """
    w = words(2 * genus)
    return (2 * genus + 1) * w * (1 + w)


def xs_recursive(s: int) -> IntPoly:
    """The class of the auxiliary space, computed by the stratification recursion."""
    if s < 1:
        raise ValueError("s must be >= 1")
    acc = 2 * Q - 2
    qm1 = Q - ONE
    for k in range(2, s + 1):
        acc = (Q - 2) * Q ** (k - 1) * qm1 ** (k - 1) + Q * acc
    return acc


def xs_closed(s: int) -> IntPoly:
    """The closed form q^(s-1)(q-1)^s + q^(s-1)(q-1)."""
    if s < 1:
        raise ValueError("s must be >= 1")
    return scaling_power(s, s - 1) + scaling_power(1, s - 1)


@lru_cache(maxsize=1, typed=True)
def rep_class(genus: int) -> IntPoly:
    """Virtual class of the genus-g representation variety, q^(2g-1)((q-1)^2g + q - 1).

    The last class built is kept, so counting one genus at many q builds it
    once; one class is all the cache holds, whatever the genera asked.
    """
    if genus < 1:
        raise GenusOutOfRange("genus must be >= 1")
    return xs_closed(2 * genus)


def moduli_class(genus: int) -> IntPoly:
    """Class of the moduli space of representations, declared as (q-1)^2g.

    The value is stated, not derived: no orbit count or quotient
    construction stands behind it.  The paper's abstract finds the moduli
    space and the character variety non-equivalent, and deriving both
    quotient classes is an open roadmap item (item 3, "Derive the quotient
    classes instead of declaring them").
    """
    if genus < 1:
        raise GenusOutOfRange("genus must be >= 1")
    return scaling_power(2 * genus)


def character_class(genus: int) -> IntPoly:
    """Class of the character variety, declared as (q-1)^2g.

    Like :func:`moduli_class`, the value is stated, not derived, and the two
    functions share one body.  The paper's abstract finds the two spaces
    non-equivalent (the underlying group is not reductive); deriving this
    class, for example by counting the image of the scaling coordinates, is
    roadmap item 3.
    """
    return moduli_class(genus)
