import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qpcert.genfunc import EmptyParts, RationalGF
from qpcert.polynomial import Poly
from qpcert.quasipoly import NonPositiveModulus, QuasiPoly

from oracles import frac_floor_div, frac_poly, frac_round_div, replace

N_POLY = Poly(0, 1)

small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=4)
small_polys = st.lists(small_fractions, min_size=0, max_size=3).map(lambda cs: Poly(*cs))
quasipolys = st.integers(min_value=1, max_value=6).flatmap(
    lambda L: st.lists(small_polys, min_size=L, max_size=L).map(
        lambda cs: QuasiPoly(L, tuple(cs))
    )
)


def floor_div_oracle(q: QuasiPoly, m: int, n: int) -> int:
    return math.floor(Fraction(q(n), m))


def test_from_poly_period_one():
    q = QuasiPoly.from_poly(N_POLY * N_POLY)
    assert q.period == 1
    assert q.constituents == (Poly(0, 0, 1),)
    assert QuasiPoly.constant(5).constituents == (Poly(5),)
    assert QuasiPoly.from_poly(Poly()).period == 1


def test_eval_period_two_floor():
    q = QuasiPoly(2, (N_POLY * Fraction(1, 2), (N_POLY - 1) * Fraction(1, 2)))
    assert q(7) == 3
    assert [q(n) for n in range(6)] == [0, 0, 1, 1, 2, 2]


def test_eval_negative_arguments_use_mathematical_mod():
    q = QuasiPoly.from_poly(N_POLY).floor_div(4)
    assert q(-1) == -1
    assert q(-4) == -1
    assert q(-5) == -2


def test_add_zero_is_identity():
    q = QuasiPoly(3, (Poly(1), Poly(0, 1), Poly(2))).canonical()
    assert (q + QuasiPoly.constant(0)) == q


def test_mul_periods_two_and_three():
    a = QuasiPoly(2, (Poly(0), Poly(1)))
    b = QuasiPoly(3, (Poly(1), Poly(2), Poly(3)))
    prod = a * b
    assert prod.period == 6
    for n in range(12):
        assert prod(n) == a(n) * b(n)


def test_mul_of_two_floor_terms():
    f1 = QuasiPoly.from_poly(N_POLY).floor_div(4)
    f2 = QuasiPoly.from_poly(N_POLY + 2).floor_div(4)
    assert (f1 * f2)(12) == 9


def test_floor_div_of_n_by_four():
    q = QuasiPoly.from_poly(N_POLY).floor_div(4)
    assert q.period == 4
    for r in range(4):
        assert q.constituents[r] == (N_POLY - r) * Fraction(1, 4)


def test_floor_div_shifted():
    assert QuasiPoly.from_poly(N_POLY + 2).floor_div(4)(12) == 3


def test_floor_div_rejects_bad_modulus():
    q = QuasiPoly.from_poly(N_POLY)
    with pytest.raises(NonPositiveModulus):
        q.floor_div(0)
    with pytest.raises(NonPositiveModulus):
        q // 0
    with pytest.raises(NonPositiveModulus):
        q // -2


@settings(max_examples=60, deadline=None)
@given(quasipolys, st.sampled_from([2, 3, 4, 12]))
def test_floor_div_matches_direct_floor(q, m):
    fd = q.floor_div(m)
    for n in range(-50, 201, 7):
        assert fd(n) == floor_div_oracle(q, m, n)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda L: st.lists(st.lists(small_fractions, max_size=3), min_size=L, max_size=L)),
    st.integers(min_value=1, max_value=12))
def test_floor_and_round_div_match_fraction_oracle(coeff_lists, m):
    q = QuasiPoly(len(coeff_lists), tuple(Poly(*cs) for cs in coeff_lists))
    cons = [frac_poly(cs) for cs in coeff_lists]
    for got, want in ((q.floor_div(m), frac_floor_div(cons, m)),
                      ((2 * q + m) // (2 * m), frac_round_div(cons, m))):
        assert got.period == len(want)
        assert tuple(p.coeffs for p in got.constituents) == want


def test_round_div_examples():
    # round(Q/m) is (2Q + m) // 2m
    q = (2 * QuasiPoly.from_poly(N_POLY * N_POLY) + 12) // 24
    assert q(5) == 2
    assert q(12) == 12


def test_round_div_half_up_ties():
    # round(n/2): 1/2 -> 1, -1/2 -> 0, 3/2 -> 2
    q = (2 * QuasiPoly.from_poly(N_POLY) + 2) // 4
    assert q(1) == 1
    assert q(-1) == 0
    assert q(3) == 2


def test_round_term_of_triangle_formula_is_tie_free():
    # n^2 mod 12 only hits {0,1,4,9}; a tie would need n^2 = 6 mod 12
    residues = {(n * n) % 12 for n in range(12)}
    assert residues == {0, 1, 4, 9}
    assert 6 not in residues


def test_canonicalize_collapses_repeats():
    q = QuasiPoly(2, (N_POLY + 1, N_POLY + 1))
    assert q.canonical().period == 1
    assert q.canonical().constituents == (N_POLY + 1,)


def test_canonicalize_idempotent():
    q = QuasiPoly(4, (Poly(1), Poly(2), Poly(1), Poly(2)))
    once = q.canonical()
    assert once.canonical() == once
    assert once.period == 2


def test_equivalent_for_two_floor_constructions():
    direct = QuasiPoly.from_poly(N_POLY).floor_div(4)
    # floor(n/4) = 2*floor(n/8) + floor((n mod 8)/4); second term is a
    # period-8 indicator of residues 4..7
    indicator = QuasiPoly(8, tuple(Poly(1 if r >= 4 else 0) for r in range(8)))
    rebuilt = QuasiPoly.from_poly(N_POLY).floor_div(8) * 2 + indicator
    for n in range(24):
        assert direct(n) == rebuilt(n)
    assert direct.equivalent(rebuilt)
    assert direct != QuasiPoly(8, tuple(direct.constituents[r % 4] for r in range(8)))


@settings(max_examples=60, deadline=None)
@given(quasipolys, quasipolys, st.integers(-5, 5), st.integers(1, 3), st.integers(1, 6))
def test_pointwise_evaluation_homomorphism(a, b, c, k, m):
    # the integer operator protocol: ints lift on either side, ** and //
    # by positive ints
    got = (a + b, a - b, a * b, -a, a + c, c + a, a - c, c - a, a * c, c * a, a ** k, a // m)
    for n in range(-24, 121, 11):
        x, y = a(n), b(n)
        want = (x + y, x - y, x * y, -x, x + c, c + x, x - c, c - x, x * c, c * x, x ** k, x // m)
        assert tuple(q(n) for q in got) == want
    for other in (Poly(1), Fraction(1, 2)):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(a, other)
            with pytest.raises(TypeError):
                op(other, a)


@settings(max_examples=60, deadline=None)
@given(quasipolys)
def test_canonicalization_preserves_behavior(q):
    c = q.canonical()
    assert q.period % c.period == 0
    for n in range(0, 2 * q.period):
        assert q(n) == c(n)
    # minimal: no proper divisor of the period is a period of the constituents
    L = c.period
    for d in range(1, L):
        if L % d == 0:
            assert any(c.constituents[r] != c.constituents[r % d] for r in range(L))


@settings(max_examples=60, deadline=None)
@given(quasipolys, quasipolys)
def test_degree_of_product_bounded(a, b):
    d = (a * b).degree
    if a.degree == -1 or b.degree == -1:
        assert d == -1
    else:
        assert d <= a.degree + b.degree


@settings(max_examples=60, deadline=None)
@given(quasipolys, st.sampled_from([2, 3, 5]))
def test_floor_div_preserves_degree_of_nonconstant(q, m):
    if q.degree >= 1:
        assert q.floor_div(m).degree == q.degree


@pytest.mark.parametrize(
    "value, rebuilt, field, change, error",
    [
        (Poly(Fraction(1, 2), 1), (N_POLY * 2 + 1) * Fraction(1, 2), "num", None, None),
        (QuasiPoly(2, [N_POLY * Fraction(1, 2), (N_POLY - 1) * Fraction(1, 2)]),
         QuasiPoly.from_poly(N_POLY) // 2, "period", {"period": 3}, ValueError),
        (RationalGF(Poly(0, 0, 1), [3, 1, 2]), RationalGF.from_parts((1, 2, 3), shift=2),
         "parts", {"parts": ()}, EmptyParts),
    ],
    ids=["Poly", "QuasiPoly", "RationalGF"],
)
def test_value_types_are_frozen_structural_values(value, rebuilt, field, change, error):
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    assert value is not rebuilt
    assert value == rebuilt and hash(value) == hash(rebuilt)
    # a copy with a changed field goes through the constructor's checks
    if change is not None:
        with pytest.raises(error):
            replace(value, **change)
