"""Rational generating functions N(q) / prod(1 - q^b_i).

The denominator is described by a multiset of positive part sizes, kept
sorted, so RationalGF (a frozen slotted value over the numerator and
the parts) compares and hashes equal for the same multiset in any order.
Dividing a power series by one factor (1 - q^b) is the recurrence
c_n += c_{n-b}, i.e. a prefix sum along each residue class mod b, so the
coefficient stream is the numerator after one such pass per part and
never leaves the integers.  The first pass covers only the numerator
plus one period: past the numerator, N / (1 - q^b) repeats with period
b, so the rest of it is copied, not summed.  Each pass runs its sums in
C-level loops (itertools.accumulate, map(add)) over whichever axis of the
b-wide layout is shorter, so its Python-level steps number about
sqrt(upto + 1), not upto.

Single coefficients far out come from the lifted denominator instead:
with L = lcm(parts) and k parts, N / prod(1 - q^b) = R / (1 - q^L)^k for
the polynomial R = N * prod((1 - q^L) / (1 - q^b)), of degree
deg N + k*L - sum(parts), so c_n = sum_j R[n - j*L] * C(j + k - 1, k - 1)
needs the series only up to deg R (Stanley, EC1, section 4.4).

The coefficient sequence of such a function agrees, from a computable
onset index on, with a single quasi-polynomial whose degree is at most
(#parts - 1) and whose period divides lcm(parts).  Those two bounds plus
the onset are what make finite-window identity certification sound.
"""

from __future__ import annotations

import math
from itertools import accumulate, count, cycle, islice, repeat
from operator import add, mul, sub

from ._value import _Value, _set
from .polynomial import Poly

# Rows per tile in _divide.  Summing each column over the whole
# series (c[r::b] at once) allocates and frees ints in strided order: for
# parts 1..7 to 10^6 that raised peak memory from 69 to 108 MiB and ran
# slower than the old element-by-element loop.  Tiles of this many rows
# keep peak memory at that loop's level.
_TILE_ROWS = 4096

# coeffs_at weighs an expanded coefficient as the k passes that build it (for
# one part, a copy past the numerator) and a lifted index as its terms of R plus
# this many: one took 32 to 99 passes beyond its terms, and 141 to 146 for (1,)
# (CPython 3.11, two runs over nine part sets from (1,) to (1..7) and
# (997,1009), 50000 indices near 10^6).
_LIFT_COST = 60


def _divide(c: list[int], b: int) -> None:
    """Divide the series c by (1 - q^b) in place, cut after len(c) terms.

    The pass c_n += c_(n-b) is a prefix sum along each residue class mod b.
    Laid out as rows of b, it runs down each of the b columns when
    b*b <= len(c), one tile of _TILE_ROWS rows at a time, each column
    starting from the total the tile above left in its last row; otherwise
    it adds each row onto the row after it, in order.  Either way it takes
    at most min(b, len(c)/b) + len(c)/_TILE_ROWS Python-level steps.
    """
    size = len(c)
    if b * b <= size:
        step = _TILE_ROWS * b
        for s in range(0, size, step):
            for t in range(s, min(s + b, size)):
                # c[t] is final; this sums c[t + b], ..., c[t + step]
                c[t:t + step + 1:b] = accumulate(c[t + b:t + step + 1:b], initial=c[t])
    else:
        for s in range(b, size, b):
            c[s:s + b] = map(add, c[s:s + b], c[s - b:s])


class EmptyParts(ValueError):
    """A rational generating function needs at least one denominator part."""


class RationalGF(_Value):
    """Numerator polynomial over the integers, denominator prod(1 - q^b)."""

    __slots__ = __match_args__ = ("numerator", "parts")

    def __init__(self, numerator: Poly, parts):
        parts = tuple(sorted(parts))
        if not parts:
            raise EmptyParts("parts must be a non-empty multiset of positive integers")
        if any(b < 1 for b in parts):
            raise ValueError(f"part sizes must be positive, got {parts}")
        if numerator.den != 1:
            raise ValueError(f"numerator must have integer coefficients, got {numerator!r}")
        _set(self, "numerator", numerator)
        _set(self, "parts", parts)

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
        factor (1 - q^b) at a time with _divide's in-place pass
        c_n += c_(n-b), so every value is an integer by construction.
        The largest part goes first, over the numerator plus one period
        only: once the numerator ends, that quotient repeats its last b
        values, so the rest of the series is those values copied, not
        summed.  Each other part then passes over the whole series.  With
        k parts that is at most k - 1 whole passes plus one over
        len(numerator) + b terms; a whole pass takes at most
        min(b, (upto + 1)/b) + (upto + 1)/_TILE_ROWS Python-level steps.
        """
        if upto < 0:
            raise ValueError("upto must be non-negative")
        size = upto + 1
        *rest, b = self.parts
        num = self.numerator.num
        head = min(size, len(num) + b)
        c = list(num[:head])
        c += [0] * (head - len(c))
        _divide(c, b)
        if head < size:  # past the numerator c_n = c_(n-b): repeat the last b values
            c += islice(cycle(c[head - b:]), size - head)
        for b in rest:
            _divide(c, b)
        return c

    def coeffs_at(self, indices) -> list[int]:
        """Exact coefficients c_n for each n in indices, in their order.

        Lifts the denominator to (1 - q^L)^k, L = lcm(parts), when the
        lifted numerator R ends below the largest index and costs no more
        than the expansion up to it: each index weighs its deg R // L + 1
        terms of R plus _LIFT_COST, each expanded coefficient the k passes
        of coeffs.  Otherwise reads each value off that expansion, a range
        of step 1 as one slice.  Either way the series is expanded to at
        most max(deg R + 1, len(indices) * (deg R // L + 1 + _LIFT_COST) / k)
        terms, however far out the indices lie.
        """
        run = isinstance(indices, range) and indices.step == 1
        indices = indices if run else list(indices)
        if not indices:
            return []
        low, top = (indices[0], indices[-1]) if run else (min(indices), max(indices))
        if low < 0:
            raise ValueError("indices must be non-negative")
        k, lift = len(self.parts), self.period_bound()
        deg_r = self.numerator.degree + k * lift - sum(self.parts)
        if deg_r >= top or len(indices) * (deg_r // lift + 1 + _LIFT_COST) > (top + 1) * k:
            c = self.coeffs(top)
            return c[low:] if run else [c[n] for n in indices]
        r = self.coeffs(max(0, deg_r))
        for _ in range(k):  # the series times (1 - q^L)^k, cut after q^(deg R), is R
            r[lift:] = map(sub, r[lift:], r[:-lift])
        out = []
        for n in indices:
            j = max(0, (lift - 1 + n - deg_r) // lift)  # first j with n - j*lift <= deg R
            i = n - j * lift
            out.append(sum(map(mul, r[i::-lift], map(math.comb, count(j + k - 1), repeat(k - 1))))
                       if i >= 0 else 0)
        return out

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
        The zero numerator has degree -1, so its onset is 0 too.
        """
        return max(0, self.numerator.degree - sum(self.parts) + 1)
