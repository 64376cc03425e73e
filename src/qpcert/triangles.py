"""Integer-sided triangles counted by perimeter (Alcuin's sequence).

A triangle here is a sorted side triple x >= y >= z >= 1 with y + z > x.
The counting sequence by perimeter is the coefficient stream of
q^3 / ((1-q^2)(1-q^3)(1-q^4)), via the bijection

    (a, b, t) >= 0  <->  (x, y, z) = (2a+b+t+1, a+b+t+1, a+t+1)

whose perimeter is 4a + 2b + 3t + 3.  Andrews's closed form
round(n^2/12) - floor(n/4)*floor((n+2)/4) matches the same sequence; the
37-term comparison in paper_check is the classic published verification
of that identity.
"""

from __future__ import annotations

import functools

from ._value import _Value, _set
from .closedform import Expr, expr_values, parse
from .genfunc import RationalGF


class InvalidTriangle(ValueError):
    """Side triple is not sorted, not positive, or fails y + z > x."""


@functools.total_ordering
class Triangle(_Value):
    """Side lengths sorted non-increasing; must satisfy y + z > x.

    Triangles order as their (x, y, z) tuples.
    """

    __slots__ = __match_args__ = ("x", "y", "z")

    def __init__(self, x: int, y: int, z: int):
        _set(self, "x", x)
        _set(self, "y", y)
        _set(self, "z", z)
        if not (x >= y >= z >= 1):
            raise InvalidTriangle(f"sides must satisfy x >= y >= z >= 1: {self}")
        if y + z <= x:
            raise InvalidTriangle(f"triangle inequality fails: {self}")

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() < other._fields()

    @property
    def perimeter(self) -> int:
        return self.x + self.y + self.z


class TriangleParam(_Value):
    """Free non-negative coordinates (a, b, t) of the triangle bijection."""

    __slots__ = __match_args__ = ("a", "b", "t")

    def __init__(self, a: int, b: int, t: int):
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "t", t)
        if a < 0 or b < 0 or t < 0:
            raise ValueError(f"parameters must be non-negative: {self}")

    @property
    def perimeter(self) -> int:
        return 4 * self.a + 2 * self.b + 3 * self.t + 3


def _sides(n: int):
    """(x, lowest y) per longest side x of perimeter n, x decreasing.

    x runs over [ceil(n/3), floor((n-1)/2)]: 3x >= n keeps y's range
    [ceil((n-x)/2), x] non-empty, and 2x < n gives y + z > x.  Then
    z = n - x - y lies in [1, y].
    """
    for x in range((n - 1) // 2, (n + 2) // 3 - 1, -1):
        yield x, (n - x + 1) // 2


def count_bruteforce(n: int) -> int:
    """Number of integer-sided triangles with perimeter n, by enumeration.

    Loops the longest side x and counts the admissible middle sides
    directly; perimeters below 3 give 0.  About n/6 steps: the oracle for
    andrews_expr, which the CLI's ``triangles count`` evaluates in O(1)
    steps instead.
    """
    return sum(x - y_lo + 1 for x, y_lo in _sides(n))


def list_triangles(n: int) -> list[Triangle]:
    """All triangles of perimeter n in decreasing (x, y, z) lex order."""
    return [Triangle(x, y, n - x - y) for x, y_lo in _sides(n) for y in range(x, y_lo - 1, -1)]


def param_to_triangle(p: TriangleParam) -> Triangle:
    """(a, b, t) -> (2a+b+t+1, a+b+t+1, a+t+1); always a valid triangle."""
    a, b, t = p.a, p.b, p.t
    return Triangle(2 * a + b + t + 1, a + b + t + 1, a + t + 1)


def triangle_to_param(tri: Triangle) -> TriangleParam:
    """Inverse of param_to_triangle.

    a = x - y and b = y - z measure the side gaps; t = y + z - x - 1 is
    non-negative exactly because of the triangle inequality.
    """
    return TriangleParam(a=tri.x - tri.y, b=tri.y - tri.z, t=tri.y + tri.z - tri.x - 1)


def triangle_gf() -> RationalGF:
    """q^3 / ((1-q^2)(1-q^3)(1-q^4)): the perimeter generating function."""
    return RationalGF.from_parts((2, 3, 4), shift=3)


def andrews_expr() -> Expr:
    """Andrews's closed form for the triangle count at perimeter n."""
    return parse("round(n^2/12) - floor(n/4)*floor((n+2)/4)")


def paper_terms() -> tuple[list[int], list[int]]:
    """The two sides of the classic 37-term comparison.

    Returns coefficients 0..36 of the triangle generating function and
    Andrews's formula at n = 0..36.
    """
    return triangle_gf().coeffs(36), expr_values(andrews_expr(), range(37))


def paper_check() -> bool:
    """Bit-exact 37-term comparison of the two sides of the identity.

    True iff coefficients 0..36 of the triangle generating function all
    equal Andrews's formula there.  Checking 37 terms is one more than
    the tight finite-check window needs; it is kept verbatim as the
    classic form of the verification.
    """
    coeffs, formula = paper_terms()
    return coeffs == formula
