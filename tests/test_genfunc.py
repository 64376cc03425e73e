from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qpcert import genfunc
from qpcert.certify import probe_indices
from qpcert.closedform import expr_values
from qpcert.genfunc import EmptyParts, RationalGF
from qpcert.polynomial import Poly, interpolate
from qpcert.quasipoly import QuasiPoly
from qpcert.triangles import andrews_expr, triangle_gf

from oracles import alcuin_count, expansions, naive_series_coeffs


def test_from_parts_triangle_instance():
    gf = triangle_gf()
    assert gf.parts == (2, 3, 4)
    assert gf.numerator == Poly.monomial(3)


def test_geometric_series():
    gf = RationalGF.from_parts((1,), shift=0)
    assert gf.coeffs(5) == [1, 1, 1, 1, 1, 1]


def test_parity_series():
    gf = RationalGF.from_parts((2,), shift=1)
    assert gf.coeffs(8) == [0, 1, 0, 1, 0, 1, 0, 1, 0]


def test_onset_counts_denominator_degree_as_sum_of_parts():
    # deg prod(1 - q^b) = 2 + 3 + 4 = 9: q^8 over it is proper; q^9 is
    # not, its polynomial part is a constant, which perturbs index 0 only
    assert RationalGF(Poly.monomial(8), (2, 3, 4)).onset() == 0
    assert RationalGF(Poly.monomial(9), (2, 3, 4)).onset() == 1
    assert RationalGF(Poly(1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 1), (2, 3, 4)).onset() == 2
    # a repeated part counts once per copy: deg (1 - q)^2 = 2
    assert RationalGF(Poly(0, 0, 0, 0, 5), (1, 1)).onset() == 3


def test_onset_marks_where_improper_coefficients_settle():
    # (1 + q^5)/((1 - q)(1 - q^2)) = polynomial part of degree 2 plus a
    # proper fraction; beyond index 2 the coefficients follow the
    # quasi-polynomial fitted from the tail, before it they need not
    gf = RationalGF(Poly(1, 0, 0, 0, 0, 1), (1, 2))
    assert gf.onset() == 3
    coeffs = gf.coeffs(60)
    tail = [interpolate([coeffs[m], coeffs[m + 2]], m, 2) for m in (56, 57)]
    model = QuasiPoly(2, tuple(tail))
    assert all(model(n) == coeffs[n] for n in range(gf.onset(), 61))
    assert any(model(n) != coeffs[n] for n in range(gf.onset()))


def test_empty_parts_rejected():
    with pytest.raises(EmptyParts):
        RationalGF.from_parts((), shift=0)


def test_nonpositive_part_rejected():
    with pytest.raises(ValueError):
        RationalGF.from_parts((2, 0), shift=0)


def test_negative_shift_rejected():
    with pytest.raises(ValueError):
        RationalGF.from_parts((2, 3, 4), shift=-1)


def test_fractional_numerator_rejected():
    with pytest.raises(ValueError):
        RationalGF(Poly(Fraction(1, 2)), (2,))


def test_bounds_on_triangle_instance():
    gf = triangle_gf()
    assert gf.degree_bound() == 2
    assert gf.period_bound() == 12
    assert gf.onset() == 0


def test_onset_of_improper_fraction():
    # (1 + q^3)/(1 - q): coefficients 1,1,1,2,2,2,... settle at n = 3
    gf = RationalGF(Poly(1, 0, 0, 1), (1,))
    assert gf.onset() == 3
    assert gf.coeffs(6) == [1, 1, 1, 2, 2, 2, 2]


def test_zero_numerator_onset():
    gf = RationalGF(Poly(), (2, 3))
    assert gf.onset() == 0
    assert gf.coeffs(5) == [0, 0, 0, 0, 0, 0]


# Each part b runs its prefix sums down the b columns when b*b <= upto+1
# and across the rows of b otherwise; these cases sit on either side of
# that threshold and of the last full row.
@pytest.mark.parametrize("parts, num, upto", [
    ((5,), [1, -2, 3], 24),             # b*b == upto + 1: columns
    ((5,), [1, -2, 3], 23),             # b*b == upto + 2: rows
    ((7,), [2, 0, 1], 7),               # b == upto
    ((7,), [2, 0, 1], 6),               # b == upto + 1
    ((9,), [2, 0, 1], 4),               # b > upto
    ((1, 3, 4), [3, -1], 0),            # upto == 0
    ((2, 3), list(range(1, 31)), 11),   # numerator longer than upto + 1
    ((3, 3, 3, 8, 8), [1, 5], 70),      # repeated parts
    ((2, 3, 40, 41), [1, 0, -4, 2], 120),  # both axes in one call
    ((11,), [1, 1, 1], 130),            # columns of unequal length
    ((12,), [1, 1, 1], 130),            # rows, the last one short
])
def test_coeffs_prefix_sum_boundaries(parts, num, upto):
    gf = RationalGF(Poly(*num), parts)
    assert gf.coeffs(upto) == naive_series_coeffs(parts, num, upto)


# A series longer than genfunc._TILE_ROWS rows is summed in several tiles,
# each column starting from the last total of the tile above.
@pytest.mark.parametrize("rows", [1, 2, 3, 5])
@pytest.mark.parametrize("parts, num, upto", [
    ((1,), [4, -1, 2], 30),
    ((2, 3, 4), [0, 0, 0, 1], 60),
    ((3, 3, 5, 9), [1, 5, -2], 90),
])
def test_coeffs_tiles_carry_column_totals(monkeypatch, rows, parts, num, upto):
    monkeypatch.setattr(genfunc, "_TILE_ROWS", rows)
    gf = RationalGF(Poly(*num), parts)
    assert gf.coeffs(upto) == naive_series_coeffs(parts, num, upto)


def test_coeffs_across_tiles_match_closed_forms():
    # at the shipped tile height part 1 spans three tiles and part 2 two
    upto = 2 * genfunc._TILE_ROWS + 3
    assert RationalGF.from_parts((1, 2)).coeffs(upto) == [n // 2 + 1 for n in range(upto + 1)]
    assert (RationalGF.from_parts((2, 3, 4), shift=3).coeffs(upto)
            == expr_values(andrews_expr(), range(upto + 1)))


# The largest part is divided out over the numerator plus one period only,
# len(num) + b terms, and the rest of that quotient is its last b values
# repeated; these cases sit on either side of where that head ends.
@pytest.mark.parametrize("parts, num, upto", [
    ((2, 5), [1, -2, 3], 7),            # len(num) + b == upto + 1: no repeat
    ((2, 5), [1, -2, 3], 8),            # one below upto + 1: one value repeated
    ((2, 5), [1, -2, 3], 6),            # one above upto + 1: head cut to the series
    ((3,), [2, 0, 0, 0, 0, 0, 1], 40),  # columns, the only part
    ((3,), [1, 1], 1000),               # rows, then a long repeat
    ((2, 3), [], 20),                   # zero numerator
    ((1, 4), list(range(-20, 21)), 9),  # numerator longer than the series
    ((3, 3, 3, 8, 8), [1, 5], 9),       # largest part repeated: head == upto + 1
    ((3, 3, 3, 8, 8), [1, 5], 200),
])
def test_coeffs_repeats_the_first_quotient_past_its_head(parts, num, upto):
    gf = RationalGF(Poly(*num), parts)
    assert gf.coeffs(upto) == naive_series_coeffs(parts, num, upto)


# A head of 28 terms over part 3 runs down columns, one tile of 1-3 rows
# (3-9 terms) at a time.
@pytest.mark.parametrize("rows", [1, 2, 3])
def test_coeffs_head_spans_several_tiles(monkeypatch, rows):
    monkeypatch.setattr(genfunc, "_TILE_ROWS", rows)
    parts, num = (1, 3), [(-1) ** i * (i + 1) for i in range(25)]
    assert RationalGF(Poly(*num), parts).coeffs(60) == naive_series_coeffs(parts, num, 60)


def test_coeffs_divides_the_largest_part_over_its_head_only(monkeypatch):
    passes = []
    divide = genfunc._divide

    def recording(c, b):
        passes.append(len(c))
        divide(c, b)

    monkeypatch.setattr(genfunc, "_divide", recording)
    gf = triangle_gf()
    assert gf.coeffs(10**4) == expr_values(andrews_expr(), range(10**4 + 1))
    head = [n for n in passes if n <= len(gf.numerator.num) + max(gf.parts)]
    assert len(head) == 1 and sorted(passes) == head + [10**4 + 1] * 2


# upto below the numerator's degree cuts the numerator short, and a part
# above upto leaves the series as it is
@example([2, 5], [1, -2, 3, 0, 4, -1, 5], 3)
@example([3, 12], [2, -1], 7)
@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=4),
       st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=50),
       st.integers(min_value=0, max_value=400))
def test_coeffs_match_truncated_series_oracle(parts, num, upto):
    gf = RationalGF(Poly(*num), parts)
    assert gf.coeffs(upto) == naive_series_coeffs(parts, num, upto)


def test_shift_law():
    base = RationalGF.from_parts((2, 3, 4), shift=0).coeffs(40)
    shifted = RationalGF.from_parts((2, 3, 4), shift=3).coeffs(40)
    assert shifted[:3] == [0, 0, 0]
    assert shifted[3:] == base[: 40 - 2]


def test_quasipoly_bounds_extrapolate():
    # interpolate one quadratic per residue class mod 12 from the first
    # 36 coefficients; the result must predict far-away coefficients
    gf = triangle_gf()
    coeffs = gf.coeffs(1000)
    constituents = [interpolate(coeffs[r:36:12], r, 12) for r in range(12)]
    model = QuasiPoly(12, tuple(constituents))
    assert model(100) == coeffs[100]
    assert model(1000) == coeffs[1000]


def test_coeffs_rejects_negative_upto():
    with pytest.raises(ValueError):
        triangle_gf().coeffs(-1)


@st.composite
def _gf_and_indices(draw):
    """A RationalGF over 1-4 parts <= 8 and an index list for coeffs_at.

    The numerator is zero, proper, improper or long; the indices come
    unsorted, with duplicates, index 0 and an index below gf.onset()
    mixed in, and their maximum falls below or above lcm(parts).
    """
    parts = draw(st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=4))
    total = sum(parts)
    length = draw(st.one_of(
        st.just(0),                           # zero
        st.integers(1, total),                # proper: degree < sum(parts)
        st.integers(total + 1, total + 12),   # improper
        st.integers(60, 150),                 # long
    ))
    num = draw(st.lists(st.integers(-9, 9), min_size=length, max_size=length))
    gf = RationalGF(Poly(*num), parts)
    lcm = gf.period_bound()
    if draw(st.booleans()):
        top = draw(st.integers(0, lcm - 1))
    else:
        top = draw(st.integers(lcm, max(lcm, 400)))
    indices = draw(st.lists(st.integers(0, top), max_size=12)) + [top, 0]
    if gf.onset() > 0:
        indices.append(draw(st.integers(0, min(top, gf.onset() - 1))))
    indices += draw(st.lists(st.sampled_from(indices), max_size=4))  # duplicates
    return gf, num, draw(st.permutations(indices))


@settings(max_examples=80, deadline=None)
@given(_gf_and_indices())
def test_coeffs_at_matches_truncated_series_oracle(case):
    gf, num, indices = case
    series = naive_series_coeffs(gf.parts, num, max(indices))
    assert gf.coeffs_at(indices) == [series[n] for n in indices]


def test_coeffs_at_empty_and_negative_indices():
    assert triangle_gf().coeffs_at([]) == []
    assert triangle_gf().coeffs_at(range(5, 5)) == []
    with pytest.raises(ValueError):
        triangle_gf().coeffs_at([3, -1])
    with pytest.raises(ValueError):
        triangle_gf().coeffs_at(range(-1, 5))


@pytest.mark.parametrize("indices", [
    range(0, 36), range(300, 336), range(10**6, 10**6 + 36),
    range(3, 40, 2), range(40, 2, -1), range(10**6 + 35, 10**6 - 1, -1),
])
def test_coeffs_at_reads_a_range_as_its_list(indices):
    # a range of step 1 is sliced off the expansion; any range gives the
    # values of the same indices passed as a list
    gf = triangle_gf()
    assert gf.coeffs_at(indices) == gf.coeffs_at(list(indices))
    assert gf.coeffs_at(indices) == [alcuin_count(n) for n in indices]


_PROBES = probe_indices(0, 100000, 500, 0)

# name -> (gf, indices, the expansion lengths gf.coeffs_at(indices) asks
# coeffs for): a call whose largest index lies past the lifted numerator
# R's degree reads R, one whose largest index does not reads the expansion
COEFFS_AT_REGIMES = {
    # R = q^3 (1 - q^12)^3 / ((1 - q^2)(1 - q^3)(1 - q^4)) has degree
    # 3 + 36 - 9 = 30, so each probe sums 3 terms of R
    "triangle-lifts": (triangle_gf(), _PROBES, [30]),
    # over parts (1,) the expansion is one copy past the numerator, over a
    # hundred times cheaper a coefficient than a lifted index
    "one-part-copy": (RationalGF.from_parts((1,)), list(range(10**6, 10**6 + 50000)),
                      [10**6 + 49999]),
    # 500 indices times 20000 terms of R each would outrun the expansion
    "long-numerator": (RationalGF(Poly(*range(1, 20001)), (1,)), _PROBES, [max(_PROBES)]),
    # lcm(997, 1009) = 1005973 > 10^5, so R ends past every index
    "lcm-past-indices": (RationalGF.from_parts((997, 1009)), _PROBES, [max(_PROBES)]),
    # over one part 7, R is the numerator 1 + 2q, of degree 1 < 7 - 1, so a
    # lifted index 6 mod 7 reads no term of R: its coefficient is 0
    "short-numerator-lifts": (RationalGF(Poly(1, 2), (7,)), list(range(10**6, 10**6 + 7)),
                              [1]),
}


@pytest.mark.parametrize("gf, indices, uptos", COEFFS_AT_REGIMES.values(),
                         ids=COEFFS_AT_REGIMES)
def test_coeffs_at_regime(monkeypatch, gf, indices, uptos):
    values, asked = expansions(monkeypatch, gf.coeffs_at, indices)
    assert asked == uptos
    series = gf.coeffs(max(indices))
    assert values == [series[n] for n in indices]


def test_coeffs_at_weighs_one_part_by_its_copy(monkeypatch):
    # the copy wins only near its indices: 500 probes to 10^30 over parts
    # (1,) still lift, reading the single term of R
    gf = RationalGF.from_parts((1,))
    assert expansions(monkeypatch, gf.coeffs_at, probe_indices(0, 10**30, 500, 0)) == (
        [1] * 500, [0])
