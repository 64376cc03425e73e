"""Dense univariate polynomials over exact rationals.

A polynomial is stored as one tuple of integer numerators `num`, constant
term first, over one positive common denominator `den`.  The pair is kept
canonical: trailing zeros are stripped, gcd(den, *num) == 1, and the zero
polynomial is the empty tuple over 1, so equal polynomials have equal
(num, den).  Poly is a frozen slotted value over those two fields
(qpcert._value), so its == and hash are equality of values.  Arithmetic and
evaluation at an integer run on Python ints; the Fraction coefficients
`coeffs` are a view derived on demand.  The fractions module is imported
only where a Fraction is made or may be received (coeffs, evaluation, and
an operand that is not an int), so int-only arithmetic never loads it.

Everything here is exact; no float appears anywhere.  The zero
polynomial has degree -1.
"""

from __future__ import annotations

import functools
import math

from ._value import _rebuild, _Value, _set


def horner(num, x):
    """Value of sum(num[i] * x^i) by Horner's rule; an int for int inputs."""
    acc = 0
    for c in reversed(num):
        acc = acc * x + c
    return acc


def _poly(num, den: int) -> "Poly":
    """Canonical Poly equal to num/den; num holds ints and den >= 1.

    The private constructor behind all arithmetic and monomial: it skips
    the type checks of Poly(*coeffs) and, as pickle and copy do, builds
    the value with _rebuild.  An empty or all-zero num gives () over 1.
    """
    n = len(num)
    while n and not num[n - 1]:
        n -= 1
    num = tuple(num[:n])
    if not num:
        den = 1
    elif den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            num = tuple(c // g for c in num)
            den //= g
    return _rebuild(Poly, (num, den))


@functools.cache
def _fraction() -> type:
    """fractions.Fraction, imported on the first call.

    A function-local import statement would cost about 1 us on every
    evaluation, as much as the evaluation itself (CPython 3.11).
    """
    from fractions import Fraction
    return Fraction


def _is_fraction(x) -> bool:
    return isinstance(x, _fraction())


def _operand(x):
    """(num, den) of a Poly, int or Fraction; None for any other type."""
    if isinstance(x, Poly):
        return x.num, x.den
    if isinstance(x, int) or _is_fraction(x):
        return (x.numerator,), x.denominator
    return None


class Poly(_Value):
    """A polynomial with rational coefficients, constant term first.

    Stored as integer numerators `num` over one common denominator `den`
    (see the module docstring); `coeffs` gives the Fraction coefficients.

    >>> Poly(1, 0, 1)
    Poly('x^2 + 1')
    >>> Poly(1, 1) * Poly(1, 1)
    Poly('x^2 + 2x + 1')
    >>> Poly(-1, 0, 1)(3)
    Fraction(8, 1)
    """

    __slots__ = __match_args__ = ("num", "den")

    def __init__(self, *coeffs):
        den = 1
        for c in coeffs:
            if not (isinstance(c, int) or _is_fraction(c)):
                raise TypeError(f"expected an int or Fraction, got {type(c).__name__}")
            den = math.lcm(den, c.denominator)
        p = _poly([c.numerator * (den // c.denominator) for c in coeffs], den)
        _set(self, "num", p.num)
        _set(self, "den", p.den)

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Fractions, constant term first."""
        Fraction = _fraction()
        return tuple(Fraction(c, self.den) for c in self.num)

    @property
    def degree(self) -> int:
        """Degree of the leading term; -1 for the zero polynomial."""
        return len(self.num) - 1

    @staticmethod
    def monomial(k: int) -> "Poly":
        """x^k."""
        if k < 0:
            raise ValueError("monomial exponent must be non-negative")
        return _poly([0] * k + [1], 1)

    def __call__(self, x) -> Fraction:
        """Evaluate at x by Horner's rule, exactly."""
        Fraction = _fraction()
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"expected an int or Fraction, got {type(x).__name__}")
        return Fraction(horner(self.num, x), self.den)

    def __add__(self, other):
        b = _operand(other)
        if b is None:
            return NotImplemented
        (a, da), (b, db) = (self.num, self.den), b
        if da != db:
            d = math.lcm(da, db)
            a, b, da = [c * (d // da) for c in a], [c * (d // db) for c in b], d
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _poly(out, da)

    __radd__ = __add__

    def __neg__(self):
        return _poly([-c for c in self.num], self.den)

    def __sub__(self, other):
        if _operand(other) is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        b = _operand(other)
        if b is None:
            return NotImplemented
        (a, da), (b, db) = (self.num, self.den), b
        out = [0] * (len(a) + len(b) - 1)  # a zero factor leaves it all zero
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return _poly(out, da * db)

    __rmul__ = __mul__

    def __repr__(self):
        if not self.num:
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


def _differences(values):
    """The rows of values' forward-difference table, values first.

    Row k holds the k-th forward differences, one entry shorter than row
    k-1; the last row yielded has a single entry.  Integer values give
    integer rows.

    >>> list(_differences([0, 1, 4, 9]))
    [[0, 1, 4, 9], [1, 3, 5], [2, 2], [0]]
    """
    row = list(values)
    while row:
        yield row
        row = [b - a for a, b in zip(row, row[1:])]


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
    leading = [row[0] for row in _differences(values)]
    total = Poly(leading[-1])
    for k in range(len(leading) - 2, -1, -1):
        # (x - x_k) / ((k+1)*step), with x_k = start + k*step
        total = total * _poly((-(start + k * step), 1), (k + 1) * step) + leading[k]
    return total
