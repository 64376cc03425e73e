from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qpcert.polynomial import NEG_INF, Poly, interpolate, lcm_of_denominators

from oracles import ALCUIN_PREFIX, naive_triangle_count

small_fractions = st.fractions(min_value=-10, max_value=10, max_denominator=6)
polys = st.lists(small_fractions, min_size=0, max_size=7).map(lambda cs: Poly(*cs))


def test_add_cancellation():
    assert Poly(1, 1) + Poly(1, -1) == Poly(2)


def test_add_zero_identity():
    p = Poly(3, 0, Fraction(1, 2))
    assert p + Poly() == p
    assert Poly() + p == p


def test_mul_square():
    assert Poly(1, 1) * Poly(1, 1) == Poly(1, 2, 1)


def test_mul_denominator_factors():
    # (1-x^2)(1-x^3)(1-x^4), checked exactly at x=2 as well
    prod = (Poly(1) - Poly.monomial(2)) * (Poly(1) - Poly.monomial(3)) * (Poly(1) - Poly.monomial(4))
    assert prod == Poly(1, 0, -1, -1, -1, 1, 1, 1, 0, -1)
    assert prod(2) == (1 - 4) * (1 - 8) * (1 - 16)


def test_mul_by_zero_annihilates():
    assert Poly(1, 2, 3) * Poly() == Poly()


def test_eval_simple():
    assert Poly(-1, 0, 1)(3) == 8


def test_eval_denominator_vanishes_at_one():
    assert Poly(1, 0, -1, -1, -1, 1, 1, 1, 0, -1)(1) == 0


def test_eval_zero_poly():
    assert Poly()(Fraction(7, 3)) == 0


def test_degree_and_normalization():
    assert Poly().degree == NEG_INF
    assert Poly(5).degree == 0
    assert Poly(0, 0, 1).degree == 2
    assert Poly(1, 0, 0) == Poly(1)


def test_interpolate_square():
    assert interpolate([0, 1, 4], 0, 1) == Poly(0, 0, 1)
    assert interpolate([4, 1, 0, 1, 4], -2, 1) == Poly(0, 0, 1)
    assert interpolate([1, 9, 25], 1, 2) == Poly(0, 0, 1)


def test_interpolate_single_point():
    assert interpolate([5], 0, 1) == Poly(5)
    assert interpolate([5], -7, 3) == Poly(5)


def test_interpolate_rejects_empty_values_and_bad_step():
    with pytest.raises(ValueError):
        interpolate([], 0, 1)
    with pytest.raises(ValueError):
        interpolate([1, 2], 0, 0)
    with pytest.raises(ValueError):
        interpolate([1, 2], 0, -1)


def test_interpolate_alcuin_residue_zero():
    # residue class 0 mod 12 of the triangle-count sequence is quadratic;
    # fit it from four enumerated samples and check the next one
    values = [naive_triangle_count(n) for n in (0, 12, 24, 36)]
    assert values == [0, 3, 12, 27]
    p = interpolate(values, 0, 12)
    assert p.degree == 2
    assert p(48) == naive_triangle_count(48) == 48


@given(polys, polys, st.lists(small_fractions, min_size=10, max_size=10))
def test_eval_is_ring_homomorphism(p, q, xs):
    for x in xs:
        assert (p + q)(x) == p(x) + q(x)
        assert (p * q)(x) == p(x) * q(x)


@given(polys, st.integers(-50, 50), st.integers(1, 12), st.integers(0, 3))
def test_interpolate_left_inverse_of_sampling(p, start, step, extra):
    # any number of samples beyond deg p + 1 still gives back p itself
    k = (int(p.degree) + 1 if not p.is_zero() else 1) + extra
    values = [p(start + i * step) for i in range(k)]
    assert interpolate(values, start, step) == p


@given(polys)
def test_normalization_idempotent(p):
    assert Poly(*p.coeffs) == p
    assert Poly(*(list(p.coeffs) + [0, 0])) == p


@given(polys)
def test_neg_and_sub_consistent(p):
    assert p - p == Poly()
    assert p + (-p) == Poly()


def test_lcm_of_denominators():
    assert lcm_of_denominators(Poly(Fraction(1, 4), Fraction(1, 6))) == 12
    assert lcm_of_denominators(Poly(1, 2)) == 1
    assert lcm_of_denominators(Poly()) == 1


def test_alcuin_prefix_frozen_against_oracle():
    assert [naive_triangle_count(n) for n in range(13)] == ALCUIN_PREFIX
