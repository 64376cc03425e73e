"""The qpcert package exports the same names whatever is imported first.

import qpcert loads its submodules on first use, so each check runs in a
fresh interpreter, where nothing of qpcert is loaded yet.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qpcert

# run before the checks: nothing, a CLI certify call (which imports the
# submodule qpcert.certify), or the function read off the package first
FIRST = {
    "nothing": "",
    "cli certify": ("import qpcert.cli\n"
                    "qpcert.cli.main(['certify', '--parts', '1', '--shift', '0', "
                    "'--expr', '1', '--format', 'json'])\n"),
    "function": "import qpcert\nqpcert.certify\n",
}

CHECKS = """
import importlib, sys, types
import qpcert
import qpcert.certify as aliased
from qpcert import certify
for value in (qpcert.certify, aliased, certify):
    assert isinstance(value, types.FunctionType), value
    assert value is sys.modules["qpcert.certify"].certify
assert importlib.import_module("qpcert.certify") is sys.modules["qpcert.certify"]

star = {}
exec("from qpcert import *", star)
assert sorted(set(star) - {"__builtins__"}) == sorted(qpcert.__all__)
for name in qpcert.__all__:
    value = getattr(qpcert, name)
    assert value.__module__.startswith("qpcert."), name
    assert getattr(importlib.import_module(value.__module__), name) is value, name
    assert star[name] is value, name
assert set(qpcert.__all__) <= set(dir(qpcert))

try:
    qpcert.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("qpcert.no_such_name resolved")
"""


@pytest.mark.parametrize("first", FIRST.values(), ids=FIRST.keys())
def test_package_exports_in_any_import_order(first):
    env = {**os.environ, "PYTHONPATH": str(Path(qpcert.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-S", "-c", first + CHECKS], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
