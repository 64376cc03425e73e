"""Every frozen value class of qpcert behaves as a frozen dataclass would.

Each case builds a value twice, so == and hash are checked between two
separately built objects, and pins its repr: the dataclass-style repr
Name(field=value, ...), or the class's own for Poly, QuasiPoly and
RationalGF.
"""

import copy
import os
import pickle
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qpcert
from qpcert.certify import Refutation, certify, fit_quasipoly
from qpcert.closedform import (
    Add, Const, Floor, Mul, Neg, Pow, Round, Sub, Var, parse,
)
from qpcert.genfunc import RationalGF
from qpcert.polynomial import Poly
from qpcert.quasipoly import QuasiPoly
from qpcert.triangles import Triangle, TriangleParam

# (build, a field name, the pinned repr)
VALUES = [
    (lambda: Const(7), "value", "Const(value=7)"),
    (lambda: Var(), None, "Var()"),
    (lambda: Neg(Var()), "operand", "Neg(operand=Var())"),
    (lambda: Pow(Var(), 2), "exponent", "Pow(base=Var(), exponent=2)"),
    (lambda: Add(Var(), Const(1)), "left", "Add(left=Var(), right=Const(value=1))"),
    (lambda: Sub(Var(), Const(1)), "right", "Sub(left=Var(), right=Const(value=1))"),
    (lambda: Mul(Const(2), Var()), "left", "Mul(left=Const(value=2), right=Var())"),
    (lambda: Floor(Var(), 4), "divisor", "Floor(operand=Var(), divisor=4)"),
    (lambda: Round(Var(), 12), "operand", "Round(operand=Var(), divisor=12)"),
    (lambda: Refutation(n=3, lhs=2, rhs=1), "lhs", "Refutation(n=3, lhs=2, rhs=1)"),
    (lambda: certify(RationalGF(Poly(1, 0, 0, 1), (1,)), parse("1"), onset_override=0), "tail",
     "Certificate(gf=RationalGF(Poly('x^3 + 1') / (1-q^1)), expr=Const(value=1), onset=0, "
     "degree_bound=0, period=1, window=range(0, 1), tail=range(1, 4), "
     "refutation=Refutation(n=3, lhs=2, rhs=1))"),
    (lambda: fit_quasipoly([0, 1, 2, 3], d_max=1, l_max=1, holdout=1), "model",
     "FitResult(model=QuasiPoly(period=1, [Poly('x')]), degree=1, period=1, "
     "holdout_verified=True, samples_used=2)"),
    (lambda: Poly(Fraction(1, 2), 1), "den", "Poly('x + 1/2')"),
    (lambda: QuasiPoly(2, [Poly(1), Poly(0, 1)]), "constituents",
     "QuasiPoly(period=2, [Poly('1'), Poly('x')])"),
    (lambda: RationalGF(Poly(0, 0, 1), [3, 1, 2]), "parts",
     "RationalGF(Poly('x^2') / (1-q^1)(1-q^2)(1-q^3))"),
    (lambda: Triangle(3, 2, 2), "z", "Triangle(x=3, y=2, z=2)"),
    (lambda: TriangleParam(0, 1, 0), "b", "TriangleParam(a=0, b=1, t=0)"),
]


@pytest.mark.parametrize("build, field, text", VALUES, ids=[t.split("(")[0] for *_, t in VALUES])
def test_value_class_is_a_frozen_value(build, field, text):
    value, twin = build(), build()
    assert value is not twin
    assert value == twin and hash(value) == hash(twin)
    assert not value != twin
    assert repr(value) == text
    for name in (field, "no_such_field"):
        if name is not None:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
    assert value == twin
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(copied) is type(value)
        assert copied == value and hash(copied) == hash(value)


def test_values_of_sibling_classes_differ():
    x, y = Var(), Const(1)
    assert Add(x, y) != Sub(x, y)
    assert Floor(x, 2) != Round(x, 2)
    assert Refutation(n=3, lhs=2, rhs=1) != (3, 2, 1)
    assert Add(x, y) == Add(Var(), Const(1))


def test_triangles_order_as_side_tuples():
    tris = [Triangle(4, 4, 4), Triangle(5, 4, 3), Triangle(3, 2, 2), Triangle(5, 5, 2)]
    assert sorted(tris) == [Triangle(3, 2, 2), Triangle(4, 4, 4), Triangle(5, 4, 3),
                            Triangle(5, 5, 2)]
    a, b = Triangle(3, 2, 2), Triangle(4, 4, 4)
    assert a < b and a <= b and b > a and b >= a and a <= a and a >= a
    with pytest.raises(TypeError):
        a < (3, 2, 2)


# (a qpcert.cli call, or None, and the modules that neither the import of
# qpcert.cli nor that call may load)
LIBRARY = sorted(f"qpcert.{m.name}" for m in pkgutil.iter_modules(qpcert.__path__)
                 if m.name != "cli")
GUARDS = [
    (None, LIBRARY + ["fractions", "decimal", "dataclasses", "inspect", "pathlib"]),
    (["coeffs", "--parts", "1,2", "--num", "1,0,1", "--upto", "9"],
     ["qpcert.certify", "qpcert.closedform", "qpcert.quasipoly", "qpcert.triangles",
      "fractions"]),
    (["certify", "--parts", "2,3,4", "--shift", "3", "--expr",
      "round(n^2/12) - floor(n/4)*floor((n+2)/4)", "--probe", "9"],
     ["qpcert.triangles", "fractions", "decimal"]),
]


@pytest.mark.parametrize("argv, absent", GUARDS, ids=["import", "coeffs", "certify"])
def test_cli_loads_only_what_the_command_runs(argv, absent):
    # each module costs start-up time in every qpcert call that loads it;
    # -S keeps site's own imports out of the fresh interpreter, so only
    # qpcert's are seen
    call = "0" if argv is None else f"qpcert.cli.main({argv!r})"
    code = (f"import sys, qpcert.cli; code = {call}; "
            f"print(' '.join(m for m in {absent!r} if m in sys.modules), file=sys.stderr); "
            "sys.exit(code)")
    env = {**os.environ, "PYTHONPATH": str(Path(qpcert.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True)
    assert (run.returncode, run.stderr.split()) == (0, [])
