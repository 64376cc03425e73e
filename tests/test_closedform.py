import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import qpcert.closedform
from qpcert.closedform import (
    Add,
    Const,
    DivisorNotLiteral,
    ExprSyntaxError,
    Floor,
    Mul,
    Neg,
    Pow,
    Round,
    Sub,
    Var,
    _CODES_MAX,
    _Source,
    _bounds,
    expr_bounds,
    expr_eval,
    expr_to_qp,
    expr_values,
    format_expr,
    parse,
)
from qpcert.polynomial import Poly
from qpcert.quasipoly import QuasiPoly

from oracles import _reference_has_division, compiles, oracle_eval, reference_expr_bounds
from test_acceptance import ANDREWS, BATTERY as _ACCEPTANCE_BATTERY

# the acceptance battery of closed forms exercising nesting, round-of-floor
# and products, plus a negated base under a power and a difference whose
# quadratic terms cancel
BATTERY = _ACCEPTANCE_BATTERY + [
    "-n^2 + floor((2*n+1)/3)",
    "floor((n^2+n)/2) - n*floor(n/2)",
]


def test_parse_variable():
    assert parse("n") == Var()


def test_parse_andrews_ast():
    expected = Sub(
        Round(Pow(Var(), 2), 12),
        Mul(Floor(Var(), 4), Floor(Add(Var(), Const(2)), 4)),
    )
    assert parse(ANDREWS) == expected


def test_trunc_is_rejected():
    # truncation toward zero is not a quasi-polynomial on all of Z, and
    # reading it as floor gave trunc((n-5)/2) = -3 at n = 0 instead of -2
    with pytest.raises(ExprSyntaxError) as err:
        parse("trunc(n/4)")
    assert err.value.offset == 0
    assert "unknown identifier 'trunc' (expected 'n', 'floor' or 'round')" in str(err.value)


def test_whitespace_insignificant():
    assert parse(" floor( ( n + 2 ) / 4 ) ") == parse("floor((n+2)/4)")


def test_precedence_power_over_product_over_sum():
    assert parse("2+3*n^2") == Add(Const(2), Mul(Const(3), Pow(Var(), 2)))


def test_left_associativity():
    assert parse("1-2-3") == Sub(Sub(Const(1), Const(2)), Const(3))
    assert parse("1-2+3") == Add(Sub(Const(1), Const(2)), Const(3))
    assert parse("2*3*4") == Mul(Mul(Const(2), Const(3)), Const(4))


def test_unary_minus_binds_into_power_base():
    # per the grammar, -n^2 is (-n)^2
    assert parse("-n^2") == Pow(Neg(Var()), 2)
    assert parse("-(n^2)") == Neg(Pow(Var(), 2))


def test_parse_error_reports_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse("n + ")
    assert err.value.offset == 4
    with pytest.raises(ExprSyntaxError) as err:
        parse("(n")
    assert err.value.offset == 2
    with pytest.raises(ExprSyntaxError) as err:
        parse("n ^ 0")
    assert err.value.offset == 4
    with pytest.raises(ExprSyntaxError) as err:
        parse("round(n^2/")
    assert err.value.offset == 10
    with pytest.raises(ExprSyntaxError):
        parse("n n")
    # only ASCII digits and letters: no bare ValueError from int('²'),
    # and an Arabic-Indic three is not read as 3
    for text, offset in (("n²", 1), ("n^٣", 2)):
        with pytest.raises(ExprSyntaxError, match="unexpected character") as err:
            parse(text)
        assert err.value.offset == offset


_ATOM = "an integer, 'n', '(', '-', 'floor' or 'round'"


# The exact error class, text and offset for each kind of malformed input,
# pinned so that a change to the parser's structure cannot change them.
PARSE_ERRORS = [
    ("n $ 2", ExprSyntaxError, 2, "unexpected character '$'"),
    ("n²", ExprSyntaxError, 1, "unexpected character '²'"),
    ("n n", ExprSyntaxError, 2, "unexpected trailing input 'n'"),
    ("n)", ExprSyntaxError, 1, "unexpected trailing input ')'"),
    ("floor(n/4)/2", ExprSyntaxError, 10, "unexpected trailing input '/'"),
    ("n ^ 2 ^ 3", ExprSyntaxError, 6, "unexpected trailing input '^'"),
    ("", ExprSyntaxError, 0, f"expected {_ATOM}, found end of input"),
    ("n + ", ExprSyntaxError, 4, f"expected {_ATOM}, found end of input"),
    ("*n", ExprSyntaxError, 0, f"expected {_ATOM}, found '*'"),
    ("n*)", ExprSyntaxError, 2, f"expected {_ATOM}, found ')'"),
    ("(n+1", ExprSyntaxError, 4, "expected ')', found end of input"),
    ("floor n", ExprSyntaxError, 6, "expected '(', found 'n'"),
    ("floor(n 4)", ExprSyntaxError, 8, "expected '/', found '4'"),
    ("abc", ExprSyntaxError, 0, "unknown identifier 'abc' (expected 'n', 'floor' or 'round')"),
    ("n ^ 0", ExprSyntaxError, 4, "expected a positive integer exponent, found '0'"),
    ("n^", ExprSyntaxError, 2, "expected a positive integer exponent, found end of input"),
    ("n^n", ExprSyntaxError, 2, "expected a positive integer exponent, found 'n'"),
    ("n^(2)", ExprSyntaxError, 2, "expected a positive integer exponent, found '('"),
    ("round(n/0)", DivisorNotLiteral, 8, "expected a positive integer literal divisor, found '0'"),
    ("floor(n/n)", DivisorNotLiteral, 8, "expected a positive integer literal divisor, found 'n'"),
    ("round(n^2/", DivisorNotLiteral, 10,
     "expected a positive integer literal divisor, found end of input"),
]


@pytest.mark.parametrize("text, error, offset, message", PARSE_ERRORS,
                         ids=[repr(case[0]) for case in PARSE_ERRORS])
def test_parse_error_text_and_offset(text, error, offset, message):
    with pytest.raises(ExprSyntaxError) as err:
        parse(text)
    assert type(err.value) is error
    assert str(err.value) == f"syntax error at offset {offset}: {message}"
    assert err.value.offset == offset


def test_unknown_identifier():
    with pytest.raises(ExprSyntaxError) as err:
        parse("floor(m/4)")
    assert err.value.offset == 6


def test_division_only_inside_floor_round():
    with pytest.raises(ExprSyntaxError):
        parse("n/4")


def test_divisor_must_be_literal():
    # the parser's one fail path, raising the divisor's own error class
    for text, offset, found in (
        ("floor(n/n)", 8, "'n'"),
        ("floor(n/(4))", 8, "'('"),
        ("floor(n/0)", 8, "'0'"),
        ("round(n^2/", 10, "end of input"),
    ):
        message = f"expected a positive integer literal divisor, found {found}"
        with pytest.raises(DivisorNotLiteral, match=re.escape(message) + "$") as err:
            parse(text)
        assert err.value.offset == offset


def test_eval_andrews_values():
    e = parse(ANDREWS)
    assert expr_eval(e, 3) == 1
    assert expr_eval(e, 4) == 0
    assert expr_eval(e, 12) == 3
    assert expr_eval(e, 36) == 27


def test_eval_floor_example():
    assert expr_eval(parse("floor((n+2)/4)"), 12) == 3


def test_eval_floor_toward_minus_infinity():
    e = parse("floor(n/4)")
    assert expr_eval(e, -1) == -1
    assert expr_eval(e, -4) == -1


def test_eval_round_half_up():
    e = parse("round(n/2)")
    assert expr_eval(e, 1) == 1
    assert expr_eval(e, -1) == 0
    assert expr_eval(e, 3) == 2


def test_to_qp_floor():
    q = expr_to_qp(parse("floor(n/4)"))
    assert q.period == 4
    for r in range(4):
        assert q.constituents[r] == (Poly(0, 1) - r) * Fraction(1, 4)


def test_to_qp_polynomial():
    q = expr_to_qp(parse("n^2"))
    assert q.period == 1
    assert q.constituents == (Poly(0, 0, 1),)
    # a constant expression evaluates to an int, lifted to a constant
    assert expr_to_qp(parse("floor(-7/2)*3")) == QuasiPoly.constant(-12)


def test_to_qp_andrews_degree_and_period():
    q = expr_to_qp(parse(ANDREWS))
    assert q.degree == 2
    assert q.period == 12
    e = parse(ANDREWS)
    for n in range(144):
        assert q(n) == expr_eval(e, n)


@pytest.mark.parametrize("text", BATTERY)
def test_conversion_soundness_battery(text):
    e = parse(text)
    q = expr_to_qp(e)
    for n in range(-60, 601):
        assert q(n) == expr_eval(e, n), (text, n)


def test_to_qp_wide_refinement():
    # floor_div walks 10000 refined residues here; n^2 mod 10000 repeats
    # every 5000, so the canonical period is 5000.  The sample spans three
    # periods on each side of 0 with a step coprime to the period.
    e = parse("floor(n^2/10000)")
    q = expr_to_qp(e)
    assert q.period == 5000
    assert q.degree == 2
    sample = range(-15000, 15001, 7)
    assert len(sample) >= 2000
    for n in sample:
        assert q(n) == expr_eval(e, n), n


@pytest.mark.parametrize("text", BATTERY)
def test_round_trip_battery(text):
    e = parse(text)
    assert parse(format_expr(e)) == e


# (input, exact printed text): a round trip alone also passes when the
# printer adds parentheses that are not needed
@pytest.mark.parametrize("text, printed", [
    ("1-(2-3)", "1 - (2 - 3)"),
    ("((1-2))-3", "1 - 2 - 3"),
    ("(n+1)*n", "(n + 1)*n"),
    ("n*(n*n)", "n*(n*n)"),
    ("n+(2*n)", "n + 2*n"),
    ("(n+1)^2", "(n + 1)^2"),
    ("(2*n)^2", "(2*n)^2"),
    ("(n^2)^3", "(n^2)^3"),
    ("-(n+1)", "-(n + 1)"),
    ("-(n^2)", "-(n^2)"),
    ("(-n)^2", "-n^2"),
    ("floor((n+2)/4)", "floor((n + 2)/4)"),
    ("round((n*n)/12)", "round((n*n)/12)"),
    ("(-n)*floor(n/2)", "-n*floor(n/2)"),
])
def test_format_expr_exact_text(text, printed):
    assert format_expr(parse(text)) == printed


def test_andrews_repr():
    assert repr(parse(ANDREWS)) == (
        "Sub(left=Round(operand=Pow(base=Var(), exponent=2), divisor=12), "
        "right=Mul(left=Floor(operand=Var(), divisor=4), "
        "right=Floor(operand=Add(left=Var(), right=Const(value=2)), divisor=4)))"
    )


def test_binary_nodes_equal_only_within_their_class():
    assert Add(Var(), Var()) != Sub(Var(), Var())
    assert hash(parse("1-2*n")) == hash(parse("1 - 2*n"))


# random ASTs shaped like what parse can produce (non-negative literals)
def _exprs(divisors=st.integers(1, 6), max_leaves=6):
    leaves = st.one_of(
        st.integers(min_value=0, max_value=9).map(Const),
        st.just(Var()),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda ab: Add(*ab)),
            st.tuples(children, children).map(lambda ab: Sub(*ab)),
            st.tuples(children, children).map(lambda ab: Mul(*ab)),
            children.map(Neg),
            st.tuples(children, st.integers(1, 3)).map(lambda bk: Pow(*bk)),
            st.tuples(children, divisors).map(lambda am: Floor(*am)),
            st.tuples(children, divisors).map(lambda am: Round(*am)),
        )

    return st.recursive(leaves, extend, max_leaves=max_leaves)


@settings(max_examples=120, deadline=None)
@given(_exprs())
def test_print_parse_round_trip(e):
    assert parse(format_expr(e)) == e


@settings(max_examples=40, deadline=None)
@given(_exprs(), st.integers(min_value=-40, max_value=90))
def test_eval_total_and_integer(e, n):
    v = expr_eval(e, n)
    assert isinstance(v, int)


@settings(max_examples=30, deadline=None)
@given(_exprs())
def test_conversion_soundness_random(e):
    q = expr_to_qp(e)
    for n in range(-12, 37, 5):
        assert q(n) == expr_eval(e, n)


@pytest.mark.parametrize("text, bounds", [
    (ANDREWS, (2, 12)),
    ("round(n^2/12)", (2, 6)),
    ("floor(n^2/100000)", (2, 50000)),
    ("floor(n/1000003)", (1, 1000003)),
    ("round((round(n/4) + (3 - n))^3/6)", (3, 8)),
    # the outer floor's period test runs over 100003 classes at once
    ("floor(floor(n/100003)/7)", (1, 700021)),
    # cancelling terms: the fold overshoots the exact (0, 1)
    ("n - n + 1", (1, 1)),
    ("floor(n/4) - floor(n/4) + 1", (1, 4)),
    # a floor-free operand starts the period search from the divisor
    ("floor(n^1000/12)", (1000, 6)),
    # p = 1 with a floor inside: n(n-1)/2 mod 2 has period 4, not 2
    ("floor(floor((n^2-n)/2)/2)", (2, 4)),
    # round(X/1) is X; a constant operand (d = 0) has period 1
    ("round(n/1)", (1, 1)),
    ("floor(7/3)", (0, 1)),
    # rounds of a negative operand, odd and even divisor
    ("round((-n^2 - 5)/7)", (2, 7)),
    ("round((-n^2 - 5)/8)", (2, 4)),
    ("round(-floor(n/3)^2/10)", (2, 30)),
    # a floor of degree 3 inside: 2^(3+1) = 16 is the least T mod 8, where
    # a search from 8*3 rather than 8*lcm(1, 2, 3) would stop at 8
    ("floor(floor((3*n^3 + n)/6)/8)", (3, 48)),
    # 720720 = 2^4*3^2*5*7*11*13: (n + 3)^3 - n^3 is 0 mod 9, so the descent
    # divides 3 out once, and 16 stays whole
    ("floor(n^3/720720)", (3, 240240)),
    # six primes, none of which divides out, each tested on 1009 values
    ("floor(floor(n/1009)/30030)", (1, 30300270)),
])
def test_expr_bounds_fixed_cases(text, bounds):
    assert expr_bounds(parse(text)) == bounds


def test_expr_bounds_least_period_of_every_linear_floor():
    # k*n mod m has least period m/gcd(k, m): for every divisor k of every
    # m <= 120 the search must divide each prime power of m out of its
    # start as far as that period allows, each prime tested against the
    # base block (6 with k = 3: the test of 6/2 fails, that of 6/3 passes)
    # and every prime found (4, 9, 25 and 49 with k = their root)
    for m in range(1, 121):
        for k in range(1, m + 1):
            if m % k == 0:
                assert expr_bounds(parse(f"floor({k}*n/{m})")) == (1, m // k), (k, m)


# divisors with many, repeated and large prime factors, for the period search
WIDE_DIVISORS = st.sampled_from([*range(1, 13), 16, 24, 48, 60, 64, 243, 1000])
# divisors with a repeated prime, which a least period mod m can hold to a
# lower power than m does, or lack
REPEATED_PRIMES = st.sampled_from([4, 8, 9, 12, 18, 25, 27])


@st.composite
def _linear_floors(draw):
    """floor((k*n + c)/m) with gcd(k, m) > 1, whose period m/gcd(k, m) is below m."""
    m = draw(REPEATED_PRIMES)
    k = draw(st.sampled_from([k for k in range(2, 2 * m) if math.gcd(k, m) > 1]))
    return Floor(Add(Mul(Const(k), Var()), Const(draw(st.integers(0, 9)))), m)


@settings(max_examples=150, deadline=None)
@given(_linear_floors() | _exprs(REPEATED_PRIMES | WIDE_DIVISORS, max_leaves=4))
def test_expr_bounds_match_reference(e):
    # the search over T = 1, 2, ... with round folded to floor((2X + m)/(2m)),
    # and the fold's floor-free flag against a walk of its own; half the
    # draws are linear floors whose least T lacks some power of m's primes
    assert expr_bounds(e) == reference_expr_bounds(e)
    assert _bounds(e)[2] == (not _reference_has_division(e))


# (expression, passes, values, the GF period L the fold is given)
_WALKS = [
    ("floor(n/48)", 3, 3, 1),
    (ANDREWS, 8, 12, 1),
    ("floor(floor(n/100003)/7)", 4, 200008, 1),
    (ANDREWS, 0, 0, 12),
    ("floor(n/48)", 0, 0, 48),
    ("floor(n/48)", 2, 2, 16),
    ("floor(floor(n/100003)/7)", 0, 0, 700021),
]


@pytest.mark.parametrize("text, passes, values, cover", _WALKS,
                         ids=["-".join(map(str, row[:3] if row[3] == 1 else row)) for row in _WALKS])
def test_expr_bounds_walk_count(monkeypatch, text, passes, values, cover):
    # one expr_values pass for each floor's base block and one per prime
    # test, each over one block of d*p values; given L, a prime is tested
    # only while it can shrink lcm(L, p*T), and the base block only once
    # one is: at L = 16, floor(n/48) tests 3 but not 2, as 48's 2^4 is in L
    calls = []
    real = qpcert.closedform.expr_values

    def counted(e, ns):
        out = real(e, ns)
        calls.append(len(out))
        return out

    monkeypatch.setattr(qpcert.closedform, "expr_values", counted)
    _bounds(parse(text), cover)
    assert (len(calls), sum(calls)) == (passes, values)


@settings(max_examples=200, deadline=None)
@given(_exprs())
def test_expr_bounds_sound_against_conversion(e):
    # expr_to_qp's period is the least one, so a sound period bound is a
    # multiple of it
    degree, period = expr_bounds(e)
    q = expr_to_qp(e)
    assert period % q.period == 0
    assert degree >= q.degree


@settings(max_examples=120, deadline=None)
@given(_exprs(), st.integers(min_value=-60, max_value=60), st.integers(min_value=0, max_value=40))
def test_expr_values_match_expr_eval(e, start, length):
    # negative starts exercise floor toward -inf; length 0 is the empty range
    ns = range(start, start + length)
    assert expr_values(e, ns) == [expr_eval(e, n) for n in ns]


@settings(max_examples=300, deadline=None)
@given(st.one_of(_exprs(), _exprs(WIDE_DIVISORS, max_leaves=4)),
       st.integers(min_value=-60, max_value=60), st.integers(min_value=0, max_value=40))
def test_expr_values_match_fraction_oracle(e, start, length):
    # the oracle rounds exact Fractions, not the interpreter's integer //:
    # floor(X/m) is X // m and round(X/m) is (X + m//2) // m
    ns = range(start, start + length)
    assert expr_values(e, ns) == [oracle_eval(e, n) for n in ns]


@settings(max_examples=60, deadline=None)
@given(st.one_of(_exprs(), _exprs(WIDE_DIVISORS, max_leaves=4)),
       st.integers(min_value=-3000, max_value=100), st.integers(min_value=0, max_value=2048))
def test_wide_expr_values_match_eval_and_oracle(e, start, length):
    # every range, from the empty one to a certify-wide window, is evaluated
    # as compiled source text
    ns = range(start, start + length)
    values = expr_values(e, ns)
    assert values == [expr_eval(e, n) for n in ns]
    assert values == [oracle_eval(e, n) for n in ns]


@pytest.mark.parametrize("text", ["7", "floor(-7/2)*3", "(2 - 5)^3", "round(9/4) + 0"])
def test_expr_values_broadcast_constant(monkeypatch, text):
    e = parse(text)
    for ns in (range(-5, 6), range(3, 3), [10**30, -1], range(-300, 300)):
        values, compiled = compiles(monkeypatch, expr_values, e, ns)
        assert values == [expr_eval(e, 0)] * len(ns)
        assert compiled == []


def test_wide_expr_values_bind_constants_by_name(monkeypatch):
    # 10^5000 has more digits than int-to-str converts by default, so the
    # source text must name it, not spell it
    ns = range(-600, 600)
    for e in (Add(Var(), Const(10**5000)), parse("floor((n*10^5000 - n^2)/7) + 10^4400")):
        values, compiled = compiles(monkeypatch, expr_values, e, ns)
        assert values == [expr_eval(e, n) for n in ns]
        assert compiled == [None]


@pytest.mark.parametrize("text", ["-" * 250 + "n", " + ".join(["n"] * 300),
                                  "floor(" * 210 + "n" + "/3)" * 210], ids=["neg", "sum", "floor"])
def test_wide_expr_values_too_deep_to_compile_fall_back(monkeypatch, text):
    # each node of the source is one pair of parentheses, and compile
    # refuses to nest 200; each index is evaluated on its own instead, over
    # a range or over a list such as the probe's indices near 10^30
    e = parse(text)
    for ns in (range(-300, 300), [10**30 + 7 * k for k in range(-20, 20)]):
        values, compiled = compiles(monkeypatch, expr_values, e, ns)
        assert values == [expr_eval(e, n) for n in ns]
        assert compiled == [SyntaxError]


def test_wide_expr_values_reuse_the_code_of_one_shape(monkeypatch):
    # constants are names in the text, so these two share one text: it is
    # compiled once, and each call evaluates that code with its own
    # constants over its own range
    exprs = [parse("floor((n^2 + 3*n)/234)"), parse("floor((n^2 + 7*n)/701)")] * 3
    ranges = [range(100 * k - 300, 100 * k + 300) for k in range(len(exprs))]
    runs, compiled = compiles(monkeypatch, lambda: list(map(expr_values, exprs, ranges)))
    assert compiled == [None]
    for e, ns, values in zip(exprs, ranges, runs):
        assert values == [expr_eval(e, n) for n in ns]
        assert values == [oracle_eval(e, n) for n in ns]


def test_wide_expr_values_remember_a_text_too_deep_to_compile(monkeypatch):
    e = parse(" + ".join(["n"] * 300))
    ns = range(-300, 300)
    runs, compiled = compiles(monkeypatch, lambda: [expr_values(e, ns) for _ in range(2)])
    assert compiled == [SyntaxError]
    assert runs == [expr_values(e, list(ns))] * 2


def test_wide_expr_values_forget_running_out_of_memory(monkeypatch):
    # a compile that ran out of memory gives the values index by index, and
    # the next call of the same text compiles it again
    e = parse("n^2 - 3*n")
    ns = range(600)
    calls = []

    def short_of_memory_once(*args):
        calls.append(args)
        if len(calls) == 1:
            raise MemoryError
        return compile(*args)

    monkeypatch.setattr(qpcert.closedform, "_CODES", {})
    monkeypatch.setattr(qpcert.closedform, "compile", short_of_memory_once, raising=False)
    assert [expr_values(e, ns) for _ in range(3)] == [[expr_eval(e, n) for n in ns]] * 3
    assert len(calls) == 2


def test_wide_expr_values_keep_the_cache_within_its_bound(monkeypatch):
    # each i gives its own shape, n op n op ... n with + or * by the bits of
    # i, so more shapes than the bound are compiled; every text has the
    # same length, so a key that reads only the length would mix them up
    ns = range(-300, 300)
    monkeypatch.setattr(qpcert.closedform, "_CODES", {})
    for i in range(_CODES_MAX + 44):
        e = parse("n" + "".join(" +*"[1 + (i >> j & 1)] + "n" for j in range(9)))
        assert expr_values(e, ns) == expr_values(e, list(ns))
        assert 1 <= len(qpcert.closedform._CODES) <= _CODES_MAX


def test_expr_values_takes_any_int_iterable(monkeypatch):
    e = parse(ANDREWS)
    ns = [36, -13, 0, 36]
    assert expr_values(e, iter(ns)) == [expr_eval(e, n) for n in ns]

    def refused(bad):
        with pytest.raises(TypeError):
            expr_values(e, bad)

    # each index is read with operator.index before any text is compiled
    for bad in ([Fraction(1, 2)], [*range(600), Fraction(1, 2)], iter([3, Fraction(4)])):
        assert compiles(monkeypatch, refused, bad) == (None, [])


def test_source_builds_text_and_rejects_unsupported_operands():
    # each int is named in the order the operators meet it: -n*2 before 3 - ...
    scope = {}
    n = _Source("n", scope)
    assert (3 - -n * 2 + n ** 2 // 5 - n).text == "(((c1-((-n)*c0))+((n**c2)//c3))-n)"
    assert scope == {"c0": 2, "c1": 3, "c2": 2, "c3": 5}
    assert (7 * n).text == "(n*c4)" and (n * 7).text == "(n*c5)"
    # any operand but an int or a source raises TypeError, and so does a
    # source as an exponent or a divisor
    for other in (Fraction(1, 2), QuasiPoly.constant(1), [4], (4,), "4", 1.5):
        for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
            with pytest.raises(TypeError):
                op(n, other)
            with pytest.raises(TypeError):
                op(other, n)
        with pytest.raises(TypeError):
            n ** other
        with pytest.raises(TypeError):
            n // other
    for op in (lambda: n ** n, lambda: n // n, lambda: 2 ** n, lambda: 6 // n):
        with pytest.raises(TypeError):
            op()
