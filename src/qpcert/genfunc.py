"""Rational generating functions N(q) / prod(1 - q^b_i).

The denominator is described by a multiset of positive part sizes, kept
sorted, so RationalGF (a frozen slotted dataclass over the numerator and
the parts) compares and hashes equal for the same multiset in any order.
Dividing a power series by one factor (1 - q^b) is the integer pass
c_n += c_{n-b}, so the coefficient stream is the numerator after one
such pass per part and never leaves the integers.

The coefficient sequence of such a function agrees, from a computable
onset index on, with a single quasi-polynomial whose degree is at most
(#parts - 1) and whose period divides lcm(parts).  Those two bounds plus
the onset are what make finite-window identity certification sound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .polynomial import Poly


class EmptyParts(ValueError):
    """A rational generating function needs at least one denominator part."""


@dataclass(frozen=True, slots=True, repr=False)
class RationalGF:
    """Numerator polynomial over the integers, denominator prod(1 - q^b)."""

    numerator: Poly
    parts: tuple

    def __post_init__(self):
        parts = tuple(sorted(self.parts))
        if not parts:
            raise EmptyParts("parts must be a non-empty multiset of positive integers")
        if any(b < 1 for b in parts):
            raise ValueError(f"part sizes must be positive, got {parts}")
        if self.numerator.den != 1:
            raise ValueError(f"numerator must have integer coefficients, got {self.numerator!r}")
        object.__setattr__(self, "parts", parts)

    def __repr__(self):
        den = "".join(f"(1-q^{b})" for b in self.parts)
        return f"RationalGF({self.numerator!r} / {den})"

    @staticmethod
    def from_parts(parts, shift: int = 0) -> "RationalGF":
        """q^shift over prod(1 - q^b) for b in parts."""
        if shift < 0:
            raise ValueError("shift must be non-negative")
        return RationalGF(Poly.monomial(shift), parts)

    def coeffs(self, upto: int) -> list[int]:
        """Exact power-series coefficients c_0..c_upto.

        Starts from the numerator's coefficients and divides out one
        factor (1 - q^b) at a time with the in-place pass
        c_n += c_{n-b}, so every value is an integer by construction.
        """
        if upto < 0:
            raise ValueError("upto must be non-negative")
        c = list(self.numerator.num[: upto + 1])
        c += [0] * (upto + 1 - len(c))
        for b in self.parts:
            for n in range(b, upto + 1):
                c[n] += c[n - b]
        return c

    def degree_bound(self) -> int:
        """Upper bound on the degree of the coefficient quasi-polynomial."""
        return len(self.parts) - 1

    def period_bound(self) -> int:
        """A period of the coefficient quasi-polynomial: lcm of the parts."""
        return math.lcm(*self.parts)

    def onset(self) -> int:
        """First index from which the coefficients follow one quasi-polynomial.

        Proper fractions (deg num < deg den) have onset 0; an improper
        fraction contributes a polynomial part that perturbs coefficients
        up to deg(num) - deg(den), where deg(den) is the sum of the parts.
        """
        if self.numerator.is_zero():
            return 0
        return max(0, self.numerator.degree - sum(self.parts) + 1)
