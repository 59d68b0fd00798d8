"""Stratification closed forms for the representation-variety classes.

The auxiliary solution space with s scaling and s translation coordinates
satisfies the recursion

    [X_s] = (q - 2) q^(s-1) (q - 1)^(s-1) + q [X_(s-1)],    [X_1] = 2q - 2,

whose closed form is q^(s-1)(q-1)^s + q^s - q^(s-1).  The genus-g
representation variety corresponds to s = 2g.  The recursion is kept as a
separate code path so it can serve as an internal oracle for the closed
form.
"""

from __future__ import annotations

from .exactpoly import ONE, Q, IntPoly


class GenusOutOfRange(ValueError):
    """Surface genus must be at least 1."""


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
    """The closed form q^(s-1)(q-1)^s + q^s - q^(s-1)."""
    if s < 1:
        raise ValueError("s must be >= 1")
    return Q ** (s - 1) * (Q - ONE) ** s + Q**s - Q ** (s - 1)


def rep_class(genus: int) -> IntPoly:
    """Virtual class of the genus-g representation variety, q^(2g-1)((q-1)^2g + q - 1)."""
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
    return (Q - ONE) ** (2 * genus)


def character_class(genus: int) -> IntPoly:
    """Class of the character variety, declared as (q-1)^2g.

    Like :func:`moduli_class`, the value is stated, not derived, and the two
    functions share one body.  The paper's abstract finds the two spaces
    non-equivalent (the underlying group is not reductive); deriving this
    class, for example by counting the image of the scaling coordinates, is
    roadmap item 3.
    """
    if genus < 1:
        raise GenusOutOfRange("genus must be >= 1")
    return (Q - ONE) ** (2 * genus)
