"""Dense univariate polynomials over exact rationals.

Coefficients are `fractions.Fraction` values, stored low-to-high, with
trailing zeros stripped so every polynomial has a unique representation.
The zero polynomial is the empty coefficient tuple and has degree -inf.

Everything here is exact: no floats enter any computation.
"""

from __future__ import annotations

import math
from fractions import Fraction

NEG_INF = float("-inf")  # degree of the zero polynomial


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an int or Fraction, got {type(x).__name__}")


class Poly:
    """A polynomial with Fraction coefficients, constant term first.

    >>> Poly(1, 0, 1)
    Poly('x^2 + 1')
    >>> Poly(1, 1) * Poly(1, 1)
    Poly('x^2 + 2x + 1')
    >>> Poly(-1, 0, 1)(3)
    Fraction(8, 1)
    """

    __slots__ = ("coeffs",)

    def __init__(self, *coeffs):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @property
    def degree(self):
        """Degree of the leading term; -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    @staticmethod
    def monomial(k: int, c=1) -> "Poly":
        """c * x^k."""
        if k < 0:
            raise ValueError("monomial exponent must be non-negative")
        return Poly(*([0] * k + [c]))

    def __call__(self, x) -> Fraction:
        """Evaluate at x by Horner's rule, exactly."""
        x = _as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly(other)
        if not isinstance(other, Poly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (n - len(other.coeffs))
        return Poly(*(x + y for x, y in zip(a, b)))

    __radd__ = __add__

    def __neg__(self):
        return Poly(*(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly(*(c * other for c in self.coeffs))
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(*out)

    __rmul__ = __mul__

    def __repr__(self):
        if self.is_zero():
            return "Poly('0')"
        parts = []
        for i, c in reversed(list(enumerate(self.coeffs))):
            if c == 0:
                continue
            sign = " + " if (c > 0 and parts) else " - " if (c < 0 and parts) else "" if c > 0 else "-"
            var = "" if i == 0 else "x" if i == 1 else f"x^{i}"
            mag = abs(c)
            coeff = str(mag) if (i == 0 or mag != 1) else ""
            parts.append(sign + coeff + var)
        return f"Poly('{''.join(parts)}')"


def interpolate(values, start: int, step: int) -> Poly:
    """Polynomial of degree < len(values) through (start + i*step, values[i]).

    Newton's forward-difference form on the progression: with
    t = (x - start)/step, the result is sum_k D_k * binomial(t, k), where
    D_k is the k-th forward difference of values at i = 0.  The
    differences stay integers for integer values; the only division is by
    (k+1)*step inside the nested evaluation.

    >>> interpolate([0, 1, 4], 0, 1)
    Poly('x^2')
    >>> interpolate([3, 12, 27], 12, 12)
    Poly('1/48x^2')
    """
    if not values:
        raise ValueError("interpolation needs at least one value")
    if step < 1:
        raise ValueError("step must be >= 1")
    leading = []
    row = list(values)
    while row:
        leading.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    total = Poly(leading[-1])
    for k in range(len(leading) - 2, -1, -1):
        # (x - x_k) / ((k+1)*step), with x_k = start + k*step
        scale = Fraction(1, (k + 1) * step)
        total = total * Poly(-(start + k * step) * scale, scale) + leading[k]
    return total


def lcm_of_denominators(p: Poly) -> int:
    """Smallest positive integer c such that c*p has integer coefficients."""
    c = 1
    for coeff in p.coeffs:
        c = math.lcm(c, coeff.denominator)
    return c
