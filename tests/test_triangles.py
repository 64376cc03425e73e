import pytest

from qpcert.closedform import expr_eval
from qpcert.genfunc import RationalGF
from qpcert.triangles import (
    InvalidTriangle,
    Triangle,
    TriangleParam,
    andrews_expr,
    count_bruteforce,
    list_triangles,
    paper_check,
    param_to_triangle,
    triangle_gf,
    triangle_to_param,
)

from oracles import ALCUIN_PREFIX, alcuin_count, naive_triangle_count


def test_counts_small_cases():
    assert [count_bruteforce(n) for n in range(13)] == ALCUIN_PREFIX


def test_alcuin_parity_form_matches_naive_count():
    assert [alcuin_count(n) for n in range(61)] == [naive_triangle_count(n) for n in range(61)]


def test_counts_degenerate_perimeters():
    assert count_bruteforce(0) == 0
    assert count_bruteforce(1) == 0
    assert count_bruteforce(2) == 0
    assert list_triangles(2) == []


def test_count_matches_naive_triple_loop():
    for n in range(61):
        assert count_bruteforce(n) == naive_triangle_count(n), n


def test_list_is_decreasing_lex_and_complete():
    tris = list_triangles(12)
    assert tris == [Triangle(5, 5, 2), Triangle(5, 4, 3), Triangle(4, 4, 4)]
    assert list_triangles(3) == [Triangle(1, 1, 1)]
    for n in range(61):
        tris = list_triangles(n)
        assert len(tris) == count_bruteforce(n)
        assert all(t.perimeter == n for t in tris)
        assert tris == sorted(tris, reverse=True)
        assert len(set(tris)) == len(tris)


def test_triangle_invariants_enforced():
    with pytest.raises(InvalidTriangle):
        Triangle(2, 1, 1)  # degenerate: 1 + 1 = 2
    with pytest.raises(InvalidTriangle):
        Triangle(1, 2, 1)  # not sorted
    with pytest.raises(InvalidTriangle):
        Triangle(1, 1, 0)  # zero side
    with pytest.raises(ValueError):
        TriangleParam(-1, 0, 0)


def test_param_to_triangle_examples():
    assert param_to_triangle(TriangleParam(0, 0, 0)) == Triangle(1, 1, 1)
    assert param_to_triangle(TriangleParam(1, 1, 1)) == Triangle(5, 4, 3)
    t = param_to_triangle(TriangleParam(0, 1, 0))
    assert t == Triangle(2, 2, 1)
    assert t.perimeter == 5


def test_triangle_to_param_examples():
    assert triangle_to_param(Triangle(1, 1, 1)) == TriangleParam(0, 0, 0)
    assert triangle_to_param(Triangle(5, 4, 3)) == TriangleParam(1, 1, 1)
    assert triangle_to_param(Triangle(5, 5, 2)) == TriangleParam(0, 3, 1)
    assert param_to_triangle(TriangleParam(0, 3, 1)) == Triangle(5, 5, 2)


def test_perimeter_law():
    for a in range(0, 21, 4):
        for b in range(0, 21, 4):
            for t in range(0, 21, 4):
                p = TriangleParam(a, b, t)
                assert param_to_triangle(p).perimeter == 4 * a + 2 * b + 3 * t + 3
                assert p.perimeter == param_to_triangle(p).perimeter


def test_paper_check_passes():
    assert paper_check()


def test_paper_check_window_prefix_matches():
    e = andrews_expr()
    coeffs = triangle_gf().coeffs(11)
    assert coeffs == [expr_eval(e, n) for n in range(12)]


def test_mutated_part_breaks_the_check():
    e = andrews_expr()
    coeffs = RationalGF.from_parts((2, 3, 5), shift=3).coeffs(36)
    assert coeffs != [expr_eval(e, n) for n in range(37)]
