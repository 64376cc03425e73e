import doctest
import importlib
import pkgutil

import pytest

import qpcert

MODULES = ["qpcert"] + sorted(m.name for m in pkgutil.iter_modules(qpcert.__path__, "qpcert."))


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_polynomial_examples_are_run():
    # three Poly examples, one _differences example and two interpolate examples
    assert doctest.testmod(importlib.import_module("qpcert.polynomial")).attempted == 6
