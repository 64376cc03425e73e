import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qpcert.polynomial import Poly, interpolate

from oracles import frac_add, frac_eval, frac_mul, frac_poly, naive_triangle_count

small_fractions = st.fractions(min_value=-10, max_value=10, max_denominator=6)
coeff_lists = st.lists(small_fractions, min_size=0, max_size=7)
polys = coeff_lists.map(lambda cs: Poly(*cs))


def assert_canonical(p):
    assert p.den >= 1
    assert math.gcd(p.den, *p.num) == 1
    assert not p.num or p.num[-1] != 0
    assert p.num or p.den == 1


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
    # the product of a zero factor is the zero polynomial over 1
    for a, b in ((Poly(), Poly(Fraction(1, 3), 2)), (Poly(), Poly()), (0, Poly(1, 2)),
                 (Poly(Fraction(1, 2)), Fraction(0))):
        assert (a * b).num == () and (a * b).den == 1


def test_arithmetic_rejects_other_operands():
    # Poly takes exactly the operands _operand reads: Poly, int, Fraction
    for other in (1.5, "x", [1], None):
        for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
            with pytest.raises(TypeError):
                op(Poly(1, 1), other)
            with pytest.raises(TypeError):
                op(other, Poly(1, 1))
    assert Poly(1, 1) - Fraction(1, 2) == Poly(Fraction(1, 2), 1)
    assert 3 - Poly(1, 1) == Poly(2, -1)


def test_monomial_rejects_negative_exponent():
    assert Poly.monomial(0) == Poly(1)
    with pytest.raises(ValueError):
        Poly.monomial(-1)


def test_eval_simple():
    assert Poly(-1, 0, 1)(3) == 8


def test_eval_denominator_vanishes_at_one():
    assert Poly(1, 0, -1, -1, -1, 1, 1, 1, 0, -1)(1) == 0


def test_eval_zero_poly():
    assert Poly()(Fraction(7, 3)) == 0


def test_degree_and_normalization():
    assert Poly().degree == -1
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


@given(polys, st.integers(-50, 50), st.integers(1, 12), st.integers(0, 3))
def test_interpolate_left_inverse_of_sampling(p, start, step, extra):
    # any number of samples beyond deg p + 1 still gives back p itself
    k = max(p.degree + 1, 1) + extra
    values = [p(start + i * step) for i in range(k)]
    assert interpolate(values, start, step) == p


def test_den_is_lcm_of_denominators():
    assert Poly(Fraction(1, 4), Fraction(1, 6)).den == 12
    assert Poly(Fraction(1, 4), Fraction(1, 6)).num == (3, 2)
    assert Poly(1, 2).den == Poly().den == 1


def test_equal_polynomials_built_by_different_routes_hash_equal():
    pairs = [
        (Poly(Fraction(2, 4)), Poly(1) * Fraction(1, 2)),
        (Poly(Fraction(1, 3), 1) * 3 - Poly(0, 2), Poly(1, 1)),
        (Poly(Fraction(1, 6), Fraction(1, 6)) - Poly(Fraction(1, 6), Fraction(1, 6)), Poly()),
        (interpolate([3, 12, 27], 12, 12), Poly(0, 0, Fraction(1, 48))),
    ]
    for a, b in pairs:
        assert_canonical(a)
        assert a == b and hash(a) == hash(b)
    assert Poly(Fraction(2, 4)).num == (1,) and Poly(Fraction(2, 4)).den == 2


@given(coeff_lists, coeff_lists, small_fractions, st.integers(-30, 30))
def test_integer_form_matches_fraction_oracle(cs, ds, x, n):
    p, q = Poly(*cs), Poly(*ds)
    a, b = frac_poly(cs), frac_poly(ds)
    results = [
        (p, a),
        (p + q, frac_add(a, b)),
        (p - q, frac_add(a, frac_mul(b, (Fraction(-1),)))),
        (p * q, frac_mul(a, b)),
        (-p, frac_mul(a, (Fraction(-1),))),
        (p * x, frac_mul(a, (x,))),
        (x - p, frac_add((x,), frac_mul(a, (Fraction(-1),)))),
    ]
    for got, want in results:
        assert got.coeffs == want
        assert_canonical(got)
        assert got == Poly(*want) and hash(got) == hash(Poly(*want))
    assert p(n) == frac_eval(a, n)
    assert p(x) == frac_eval(a, x)
    assert isinstance(p(n), Fraction)
