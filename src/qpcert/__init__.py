"""Exact finite-check certification of quasi-polynomial identities.

Coefficient sequences of rational generating functions with denominator
prod(1 - q^b_i) are quasi-polynomials of bounded degree and period; so
are closed forms built from polynomials, floors and nearest-integer
terms.  Checking a provably sufficient finite window of values therefore
upgrades agreement to a theorem.  All arithmetic is exact.
"""

from .certify import (
    Certificate,
    FitResult,
    InsufficientSamples,
    Refutation,
    certify,
    fit_quasipoly,
    soundness_probe,
)
from .closedform import (
    DivisorNotLiteral,
    Expr,
    ExprSyntaxError,
    expr_bounds,
    expr_eval,
    expr_to_qp,
    expr_values,
    format_expr,
    parse,
)
from .genfunc import EmptyParts, RationalGF
from .polynomial import Poly, interpolate
from .quasipoly import NonPositiveModulus, QuasiPoly
from .triangles import (
    InvalidTriangle,
    Triangle,
    TriangleParam,
    andrews_expr,
    count_bruteforce,
    list_triangles,
    paper_check,
    param_to_triangle,
    triangle_gf,
    triangle_to_param,
)

__all__ = [
    "Certificate",
    "DivisorNotLiteral",
    "EmptyParts",
    "Expr",
    "ExprSyntaxError",
    "FitResult",
    "InsufficientSamples",
    "InvalidTriangle",
    "NonPositiveModulus",
    "Poly",
    "QuasiPoly",
    "RationalGF",
    "Refutation",
    "Triangle",
    "TriangleParam",
    "andrews_expr",
    "certify",
    "count_bruteforce",
    "expr_bounds",
    "expr_eval",
    "expr_to_qp",
    "expr_values",
    "fit_quasipoly",
    "format_expr",
    "interpolate",
    "list_triangles",
    "paper_check",
    "param_to_triangle",
    "parse",
    "soundness_probe",
    "triangle_gf",
    "triangle_to_param",
]

__version__ = "0.1.0"
