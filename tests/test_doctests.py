"""The examples in the package's docstrings, run as tests."""

import doctest
import importlib
import pkgutil

import pytest

import affrep

MODULES = ["affrep"] + [info.name for info in pkgutil.iter_modules(affrep.__path__, "affrep.")]


@pytest.mark.parametrize("name", MODULES)
def test_module_examples_pass(name):
    failed, attempted = doctest.testmod(importlib.import_module(name))
    assert failed == 0
    if name == "affrep.exactpoly":
        # IntPoly's two, cayley_hamilton's, chain's two, words', taylor_shift's
        # and Packing's three
        assert attempted >= 10
