"""Quasi-polynomials: one polynomial per residue class modulo a period.

A QuasiPoly of period L holds L constituent polynomials; the value at an
integer n is constituents[n mod L] evaluated at n itself (the constituents
are polynomials in n, not in the quotient (n - r)/L).  Residues use
mathematical mod, so negative n is well defined.  QuasiPoly is a frozen
slotted value (qpcert._value): == and hash compare the period and the constituent
tuple, so two representations of the same function with different
periods differ until canonical() reduces both to the minimal period.

The type speaks the integer operator protocol: it is closed under +, -
and *, with an int on either side lifted to a constant, and under ** and
// (exact floor division) by a positive integer.  So an interpreter
written for ints, run on the identity quasi-polynomial, converts a
closed form built from floors and nearest-integer terms into this
representation.
"""

from __future__ import annotations

import math
import operator

from ._value import _Value, _set
from .polynomial import Poly, _poly, horner


class NonPositiveModulus(ValueError):
    """Floor division requires a modulus >= 1."""


class QuasiPoly(_Value):
    """Period L plus L constituent polynomials, indexed by residue mod L."""

    __slots__ = __match_args__ = ("period", "constituents")

    def __init__(self, period: int, constituents):
        constituents = tuple(constituents)
        if period < 1:
            raise ValueError("period must be >= 1")
        if len(constituents) != period:
            raise ValueError(f"expected {period} constituents, got {len(constituents)}")
        if not all(isinstance(p, Poly) for p in constituents):
            raise TypeError("constituents must be Poly values")
        _set(self, "period", period)
        _set(self, "constituents", constituents)

    @staticmethod
    def from_poly(p: Poly) -> "QuasiPoly":
        """Period-1 quasi-polynomial equal to p everywhere."""
        return QuasiPoly(1, (p,))

    @staticmethod
    def constant(c) -> "QuasiPoly":
        return QuasiPoly.from_poly(Poly(c))

    def __call__(self, n: int) -> Fraction:
        """Value at integer n: the constituent for n mod period, at n."""
        return self.constituents[n % self.period](n)

    @property
    def degree(self) -> int:
        """Max constituent degree; -1 if all constituents are zero."""
        return max(p.degree for p in self.constituents)

    def canonical(self) -> "QuasiPoly":
        """The unique minimal-period representative with the same values.

        Period d < L works iff the constituent list repeats with period d,
        i.e. it equals itself shifted by d; two residue classes can merge
        only when their constituent polynomials are literally equal, since
        each class has infinitely many points.
        """
        c, L = self.constituents, self.period
        d = next(d for d in range(1, L + 1) if L % d == 0 and c[d:] == c[:L - d])
        return self if d == L else QuasiPoly(d, c[:d])

    def equivalent(self, other: "QuasiPoly") -> bool:
        """Pointwise equality on all integers, decided via canonical forms."""
        return self.canonical() == other.canonical()

    # -- arithmetic: pointwise on the lcm refinement, then canonicalize --

    @staticmethod
    def _pointwise(op, left, right):
        """op per residue class; an int is a constant, any other operand NotImplemented."""
        left, right = (QuasiPoly.constant(x) if isinstance(x, int) else x for x in (left, right))
        if not (isinstance(left, QuasiPoly) and isinstance(right, QuasiPoly)):
            return NotImplemented
        L = math.lcm(left.period, right.period)
        cons = tuple(
            op(left.constituents[r % left.period], right.constituents[r % right.period])
            for r in range(L)
        )
        return QuasiPoly(L, cons).canonical()

    def __add__(self, other):
        return self._pointwise(operator.add, self, other)

    __radd__ = __add__

    def __neg__(self):
        return QuasiPoly(self.period, tuple(-p for p in self.constituents))

    def __sub__(self, other):
        return self._pointwise(operator.sub, self, other)

    def __rsub__(self, other):
        return self._pointwise(operator.sub, other, self)

    def __mul__(self, other):
        return self._pointwise(operator.mul, self, other)

    __rmul__ = __mul__

    def __pow__(self, k):
        """Q**k for an integer k >= 1, by k - 1 multiplications."""
        if not isinstance(k, int):
            return NotImplemented
        if k < 1:
            raise ValueError(f"exponent must be >= 1, got {k}")
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def __floordiv__(self, m):
        """Q // m for an integer m >= 1; see floor_div."""
        if not isinstance(m, int):
            return NotImplemented
        return self.floor_div(m)

    def floor_div(self, m: int) -> "QuasiPoly":
        """Exact quasi-polynomial equal to floor(Q(n)/m) at every integer n.

        Per constituent, p(n) = u(n)/c with u = p.num integer-coefficient
        and c = p.den.  Then floor(p(n)/m) = (u(n) - (u(n) mod cm)) / cm,
        and u(n) mod cm depends only on n mod cm, so refining the period
        to lcm(L, c*m) makes the remainder a constant on each refined
        residue class; it is computed by integer Horner at the residue.
        """
        if m < 1:
            raise NonPositiveModulus(f"modulus must be >= 1, got {m}")
        refined = self.period
        for p in self.constituents:
            refined = math.lcm(refined, p.den * m)
        cons = []
        for r in range(refined):
            p = self.constituents[r % self.period]
            u, cm = p.num or (0,), p.den * m
            cons.append(_poly((u[0] - horner(u, r) % cm, *u[1:]), cm))
        return QuasiPoly(refined, tuple(cons)).canonical()

    def __repr__(self):
        cons = ", ".join(repr(p) for p in self.constituents)
        return f"QuasiPoly(period={self.period}, [{cons}])"
