"""Hypothesis settings and test helpers shared by the suite.

Under ``CI`` (set by GitHub Actions) the ``ci`` profile is loaded: examples
are derived from each test's source rather than drawn at random, so a
property failure replays exactly on every Python of the matrix, no example
is held to a deadline on a slow runner, and a failure prints the blob that
reproduces it.  Run ``CI=true python -m pytest -q`` to get it locally.
"""

import os

import pytest
from hypothesis import settings

from affrep.exactpoly import ONE, Q, ZERO

settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)

if os.environ.get("CI"):
    settings.load_profile("ci")


def closed_count(q: int, genus: int) -> int:
    """The genus-g count over F_q, q^(2g-1)((q-1)^2g + q - 1), on plain ints.

    The formula of ``perfbench/checker.closed_count``, written apart from
    ``geomstrat.rep_class``, so a test of the ``closed`` engine, which
    evaluates that class, compares two computations.  Import it as
    ``from conftest import closed_count``.
    """
    return q ** (2 * genus - 1) * ((q - 1) ** (2 * genus) + q - 1)


@pytest.fixture(scope="session")
def power_class():
    """The genus-g class without gluing: top-left of M^g over (q(q-1))^g.

    M^g is built by 2x2 products of IntPoly rows, so this route shares no
    code with the gluing of :mod:`affrep.tqft`.
    """

    def power_class(matrix, genus):
        m = [list(row) for row in matrix]
        power = m
        for _ in range(genus - 1):
            power = [[sum((r[k] * m[k][j] for k in range(2)), ZERO) for j in range(2)] for r in power]
        return power[0][0].exact_div((Q * (Q - ONE)) ** genus)

    return power_class

