"""Independent reference implementations used only by the tests.

These deliberately avoid the library's own code paths: the triangle
counter is the fully naive triple loop, the series expander builds
coefficients by multiplying truncated geometric series instead of
dividing out one part at a time with the library's running sums, and
the frac_* polynomials keep each coefficient as its own Fraction instead
of integer numerators over one common denominator.  oracle_eval walks an
expression's AST in Fractions and rounds with math.floor, where the
library's one interpreter applies the integer operators + - * ** and //;
the window scan evaluates each index with it.  fraction_agrees compares a
model's value with a sample through QuasiPoly.__call__, a Fraction,
where fit_quasipoly reads degrees off integer difference tables.
grid_fit is the exhaustive (period, degree) search that fit_quasipoly's
difference tables replace: it builds every candidate model by Lagrange
interpolation over Fraction tuples (frac_interpolate), where the library
interpolates in Newton form on integer numerators, and tests each
held-out sample with frac_eval.  reference_expr_bounds is the
bounds fold with the plainest period search: T = 1, 2, ... in turn, one
expr_values pass each, until p*T is a period, and round(X/m) folded as
floor((2X + m)/(2m)), where expr_bounds divides a start value that the
least T divides by the divisor's primes, one prime at a time, and
searches a round from X mod m.  It shares exactly one function with
expr_bounds, expr_values, which computes the values the search tests;
it knows nothing of the start value or the divisor's primes, so it
checks that the least T is found without the theory that finds it.
alcuin_count counts triangles by perimeter with the parity form, without
Andrews's formula or a loop.  replace is the tests' dataclasses.replace:
it rebuilds a value through its class's constructor.  expansions and
compiles are no oracles but spies: they record the expansion lengths a
call asks RationalGF.coeffs for, and the compile calls that closedform
makes during a call, which starts with no text compiled.
"""

import math
from fractions import Fraction

import qpcert.closedform
from qpcert.certify import FitResult
from qpcert.closedform import Add, Const, Floor, Mul, Neg, Pow, Round, Sub, Var, expr_values
from qpcert.genfunc import RationalGF
from qpcert.polynomial import Poly
from qpcert.quasipoly import QuasiPoly


def replace(value, **changes):
    """A copy of value with changes, built through its class's constructor.

    The constructor's checks run on the changed fields, as with
    dataclasses.replace.
    """
    fields = {name: getattr(value, name) for name in type(value).__match_args__}
    return type(value)(**{**fields, **changes})


def expansions(monkeypatch, call, *args, **kwargs):
    """call(*args, **kwargs) and the expansion lengths it asks coeffs for."""
    uptos, coeffs = [], RationalGF.coeffs
    with monkeypatch.context() as patch:
        patch.setattr(RationalGF, "coeffs",
                      lambda self, upto: uptos.append(upto) or coeffs(self, upto))
        out = call(*args, **kwargs)
    return out, uptos


def compiles(monkeypatch, call, *args, **kwargs):
    """call(*args, **kwargs) and, per compile that closedform made, None or its error's type.

    The call starts with closedform's cache of compiled texts empty, so
    what earlier calls compiled cannot change the count, and leaves the
    process's own cache as it found it.
    """
    outcomes = []

    def spy(*a, **k):
        try:
            code = compile(*a, **k)
        except Exception as error:
            outcomes.append(type(error))
            raise
        outcomes.append(None)
        return code

    with monkeypatch.context() as patch:
        patch.setattr(qpcert.closedform, "compile", spy, raising=False)
        patch.setattr(qpcert.closedform, "_CODES", {})
        out = call(*args, **kwargs)
    return out, outcomes


def naive_triangle_count(n: int) -> int:
    """Count sorted side triples by brute force over all candidates."""
    count = 0
    for x in range(1, n + 1):
        for y in range(1, x + 1):
            for z in range(1, y + 1):
                if x + y + z == n and y + z > x:
                    count += 1
    return count


def alcuin_count(n: int) -> int:
    """Triangles of perimeter n >= 0 by the parity form of Alcuin's sequence.

    (n^2 + 24) // 48 for even n and ((n + 3)^2 + 24) // 48 for odd n,
    i.e. the nearest integer to n^2/48 or (n + 3)^2/48.
    """
    k = n if n % 2 == 0 else n + 3
    return (k * k + 24) // 48


def naive_series_coeffs(parts, num_coeffs, upto: int) -> list[int]:
    """Coefficients of num(q) * prod_b (1 + q^b + q^2b + ...) up to q^upto."""
    acc = [0] * (upto + 1)
    for i, c in enumerate(num_coeffs[: upto + 1]):
        acc[i] = int(c)
    for b in parts:
        out = [0] * (upto + 1)
        for k in range(0, upto + 1, b):
            for i in range(0, upto + 1 - k):
                out[i + k] += acc[i]
        acc = out
    return acc


def oracle_eval(expr, n: int) -> int:
    """Value of expr at n, from a walk of its AST in Fractions.

    floor(v/m) is math.floor(Fraction(v, m)), and round(v/m) is
    math.floor(Fraction(v, m) + 1/2), nearest with ties half-up.
    """

    def walk(e) -> Fraction:
        if isinstance(e, Const):
            return Fraction(e.value)
        if isinstance(e, Var):
            return Fraction(n)
        if isinstance(e, Neg):
            return -walk(e.operand)
        if isinstance(e, Add):
            return walk(e.left) + walk(e.right)
        if isinstance(e, Sub):
            return walk(e.left) - walk(e.right)
        if isinstance(e, Mul):
            return walk(e.left) * walk(e.right)
        if isinstance(e, Pow):
            return walk(e.base) ** e.exponent
        if isinstance(e, Floor):
            return Fraction(math.floor(Fraction(walk(e.operand), e.divisor)))
        if isinstance(e, Round):
            return Fraction(math.floor(Fraction(walk(e.operand), e.divisor) + Fraction(1, 2)))
        raise TypeError(f"not an Expr node: {e!r}")

    v = walk(expr)
    assert v.denominator == 1
    return int(v)


def reference_expr_bounds(e) -> tuple:
    """(degree bound, period bound) of e, one candidate T per expr_values pass.

    The same fold as expr_bounds, but a round(X/m) is bounded as
    floor((2X + m)/(2m)), and each floor's period is p times the first
    T = 1, 2, ... whose block of d*p values at p*T matches the base
    block at 0 mod the divisor.
    """
    if isinstance(e, Const):
        return 0, 1
    if isinstance(e, Var):
        return 1, 1
    if isinstance(e, Neg):
        return reference_expr_bounds(e.operand)
    if isinstance(e, (Add, Sub, Mul)):
        (d1, p1), (d2, p2) = reference_expr_bounds(e.left), reference_expr_bounds(e.right)
        return (d1 + d2 if isinstance(e, Mul) else max(d1, d2)), math.lcm(p1, p2)
    if isinstance(e, Pow):
        d, p = reference_expr_bounds(e.base)
        return d * e.exponent, p
    if isinstance(e, Floor):
        d, p = reference_expr_bounds(e.operand)
        return d, p * _reference_floor_period(e.operand, d, p, e.divisor)
    if isinstance(e, Round):
        m = e.divisor
        return reference_expr_bounds(Floor(Add(Mul(Const(2), e.operand), Const(m)), 2 * m))
    raise TypeError(f"not an Expr node: {e!r}")


def _reference_floor_period(x, d: int, p: int, m: int) -> int:
    def residues(start):
        return [v % m for v in expr_values(x, range(start, start + d * p))]

    base = residues(0)
    t = 1
    while residues(p * t) != base:
        t += 1
    return t


def _reference_has_division(e) -> bool:
    """True if a Floor or Round node occurs in e."""
    if isinstance(e, (Floor, Round)):
        return True
    if isinstance(e, (Const, Var)):
        return False
    if isinstance(e, Neg):
        return _reference_has_division(e.operand)
    if isinstance(e, Pow):
        return _reference_has_division(e.base)
    if isinstance(e, (Add, Sub, Mul)):
        return _reference_has_division(e.left) or _reference_has_division(e.right)
    raise TypeError(f"not an Expr node: {e!r}")


def scan_first_mismatch(coeffs, expr, window):
    """(n, coeffs[n], expr(n)) at the first n in window where they differ, else None."""
    for n in window:
        rhs = oracle_eval(expr, n)
        if coeffs[n] != rhs:
            return (n, coeffs[n], rhs)
    return None


def fraction_agrees(model, n: int, v: int) -> bool:
    """model(n) == v, with model(n) evaluated as a Fraction."""
    return model(n) == v


def grid_fit(samples, d_max: int, l_max: int):
    """First candidate (L, d), by L then d, that reproduces every held-out sample.

    Candidate (L, d) interpolates each residue class mod L on the first
    (d+1)*L samples with frac_interpolate, and is checked on each later
    sample with frac_eval.  Returns the winner as a verified FitResult,
    its model a QuasiPoly of those constituents, or None if no candidate
    up to (l_max, d_max) survives.
    """
    for period in range(1, l_max + 1):
        for degree in range(d_max + 1):
            train = (degree + 1) * period
            cons = [frac_interpolate([(n, samples[n]) for n in range(r, train, period)])
                    for r in range(period)]
            if all(frac_eval(cons[n % period], n) == samples[n]
                   for n in range(train, len(samples))):
                model = QuasiPoly(period, [Poly(*c) for c in cons])
                return FitResult(model=model, degree=degree, period=period,
                                 holdout_verified=True, samples_used=train)
    return None


# -- Fraction-tuple polynomials: coefficients low to high, trailing zeros
# stripped, so equal polynomials are equal tuples.


def frac_poly(coeffs) -> tuple:
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def frac_add(a, b) -> tuple:
    n = max(len(a), len(b))
    return frac_poly((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                     for i in range(n))


def frac_mul(a, b) -> tuple:
    out = [Fraction(0)] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return frac_poly(out)


def frac_eval(a, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def frac_interpolate(points) -> tuple:
    """The polynomial of degree < len(points) through the (x, y) points, by Lagrange."""
    total = ()
    for i, (xi, yi) in enumerate(points):
        term = (Fraction(yi),)
        for j, (xj, _) in enumerate(points):
            if j != i:
                term = frac_mul(term, (Fraction(-xj, xi - xj), Fraction(1, xi - xj)))
        total = frac_add(total, term)
    return total


def frac_floor_div(constituents, m: int) -> tuple:
    """Canonical constituents of floor(Q(n)/m), one residue at a time.

    Q(n) is constituents[n mod L](n).  Each constituent p is scaled by the
    lcm c of its denominators to u = c*p; on each residue r of the
    refinement lcm(L, c*m), floor(Q/m) is (u - (u(r) mod cm)) / cm.  The
    result is reduced to the smallest period over which it repeats.
    """
    L = len(constituents)
    scaled = []
    refined = L
    for p in constituents:
        c = math.lcm(1, *(x.denominator for x in p))
        scaled.append((frac_mul(p, (Fraction(c),)), c))
        refined = math.lcm(refined, c * m)
    out = []
    for r in range(refined):
        u, c = scaled[r % L]
        cm = c * m
        rem = int(frac_eval(u, r)) % cm
        out.append(frac_mul(frac_add(u, (Fraction(-rem),)), (Fraction(1, cm),)))
    for d in range(1, refined + 1):
        if refined % d == 0 and all(out[r] == out[r % d] for r in range(refined)):
            return tuple(out[:d])


def frac_round_div(constituents, m: int) -> tuple:
    """Canonical constituents of floor((2Q(n) + m) / 2m), Q(n)/m rounded half-up."""
    return frac_floor_div([frac_add(frac_mul(p, (Fraction(2),)), (Fraction(m),))
                           for p in constituents], 2 * m)


# Triangle counts for perimeters 0..12, frozen from naive_triangle_count.
ALCUIN_PREFIX = [0, 0, 0, 1, 0, 1, 1, 2, 1, 3, 2, 4, 3]
