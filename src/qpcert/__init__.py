"""Exact finite-check certification of quasi-polynomial identities.

Coefficient sequences of rational generating functions with denominator
prod(1 - q^b_i) are quasi-polynomials of bounded degree and period; so
are closed forms built from polynomials, floors and nearest-integer
terms.  Checking a provably sufficient finite window of values therefore
upgrades agreement to a theorem.  All arithmetic is exact.

``import qpcert`` loads no submodule: each exported name is imported
from its home module on first use (PEP 562) and then kept here, so a
program loads only the modules whose names it reads, and the CLI only
those its command runs.  ``qpcert.certify`` is always the function,
never the submodule of the same name, whichever is imported first.
"""

import sys
import types

# exported name -> the submodule that defines it
_HOMES = {name: home for home, names in {
    "certify": ("Certificate", "FitResult", "InsufficientSamples", "Refutation", "certify",
                "fit_quasipoly", "soundness_probe"),
    "closedform": ("DivisorNotLiteral", "Expr", "ExprSyntaxError", "expr_bounds", "expr_eval",
                   "expr_to_qp", "expr_values", "format_expr", "parse"),
    "genfunc": ("EmptyParts", "RationalGF"),
    "polynomial": ("Poly", "interpolate"),
    "quasipoly": ("NonPositiveModulus", "QuasiPoly"),
    "triangles": ("InvalidTriangle", "Triangle", "TriangleParam", "andrews_expr",
                  "count_bruteforce", "list_triangles", "paper_check", "param_to_triangle",
                  "triangle_gf", "triangle_to_param"),
}.items() for name in names}

__all__ = sorted(_HOMES)

__version__ = "0.1.0"


def __getattr__(name: str):
    """An exported name, imported from its home module and kept here."""
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = f"{__name__}.{home}"
    __import__(module)
    value = globals()[name] = getattr(sys.modules[module], name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    """The qpcert package, which keeps exported names over submodules.

    Importing a submodule binds it on its package under its own name;
    for qpcert.certify that would hide the function certify.  That one
    binding is dropped, so the name resolves to the function.
    """

    def __setattr__(self, name, value):
        if name in _HOMES and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
