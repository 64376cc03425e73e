import math

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qpcert.certify import (
    InsufficientSamples,
    Refutation,
    certify,
    fit_quasipoly,
    probe_indices,
    rebuild_model,
    soundness_probe,
)
from qpcert.closedform import expr_bounds, expr_eval, expr_to_qp, expr_values, parse
from qpcert.genfunc import RationalGF
from qpcert.polynomial import Poly
from qpcert.triangles import andrews_expr, count_bruteforce, triangle_gf

from oracles import (
    alcuin_count,
    expansions,
    fraction_agrees,
    frac_mul,
    grid_fit,
    naive_series_coeffs,
    oracle_eval,
    replace,
    scan_first_mismatch,
)
from test_acceptance import ANDREWS, BATTERY
from test_closedform import _exprs


def test_certify_triangle_identity():
    cert = certify(triangle_gf(), andrews_expr())
    assert cert.certified
    assert cert.degree_bound == 2
    assert cert.period == 12
    assert cert.onset == 0
    assert cert.window == range(0, 36)
    assert len(cert.window) == 36


def test_certify_refutes_wrong_formula():
    cert = certify(triangle_gf(), parse("floor(n/4)"))
    assert not cert.certified
    assert cert.refutation.n == 3
    assert cert.refutation.lhs == 1
    assert cert.refutation.rhs == 0


def test_certify_geometric_series_constant():
    cert = certify(RationalGF.from_parts((1,)), parse("1"))
    assert cert.certified
    assert cert.degree_bound == 0
    assert cert.period == 1
    assert len(cert.window) == 1


def test_certify_improper_fraction_uses_onset():
    # (1 + q^3)/(1 - q) is 1,1,1,2,2,2,...; constant 2 only from n = 3
    gf = RationalGF(Poly(1, 0, 0, 1), (1,))
    cert = certify(gf, parse("2"))
    assert cert.certified
    assert cert.onset == 3
    refuted = certify(gf, parse("2"), onset_override=0)
    assert not refuted.certified
    assert refuted.refutation.n == 0


def test_certify_onset_override_shifts_window():
    cert = certify(triangle_gf(), andrews_expr(), onset_override=5)
    assert cert.certified
    assert cert.window == range(5, 41)


def test_certify_rejects_negative_onset_override():
    # certify's own check, not coeffs_at's on the indices it would read
    with pytest.raises(ValueError, match="onset_override must be non-negative"):
        certify(triangle_gf(), andrews_expr(), onset_override=-1)


def test_window_geometry():
    for cert in (
        certify(triangle_gf(), andrews_expr()),
        certify(RationalGF.from_parts((2, 2)), parse("floor(n/2)+1")),
    ):
        per_class = [0] * cert.period
        for n in cert.window:
            per_class[n % cert.period] += 1
        assert per_class == [cert.degree_bound + 1] * cert.period


def test_refutation_witness_recheckable():
    cert = certify(triangle_gf(), parse("floor(n/4)"))
    w = cert.refutation
    assert cert.gf.coeffs(w.n)[w.n] == w.lhs
    assert expr_eval(cert.expr, w.n) == w.rhs
    assert w.lhs != w.rhs


def test_fit_constant_samples():
    fit = fit_quasipoly([5] * 20, d_max=2, l_max=4, holdout=2)
    assert fit.period == 1
    assert fit.degree == 0
    assert fit.holdout_verified
    assert fit.model.constituents == (Poly(5),)


def test_fit_floor_halves():
    samples = [n // 2 for n in range(20)]
    fit = fit_quasipoly(samples, d_max=2, l_max=4, holdout=2)
    assert fit.period == 2
    assert fit.degree == 1
    assert fit.holdout_verified
    assert fit.model.constituents[0](0) == 0
    assert [fit.model(n) for n in range(40)] == [n // 2 for n in range(40)]


def test_fit_recovers_triangle_formula():
    samples = [count_bruteforce(n) for n in range(50)]
    fit = fit_quasipoly(samples, d_max=3, l_max=12, holdout=2)
    assert fit.period == 12
    assert fit.degree == 2
    assert fit.holdout_verified
    assert fit.samples_used == 36
    # 14 samples beyond the training prefix were genuinely held out
    assert len(samples) - fit.samples_used == 14
    assert fit.model.equivalent(expr_to_qp(andrews_expr()))


def test_fit_training_samples_always_reproduced():
    # geometric growth is no quasi-polynomial; the unverified result is
    # the largest ansatz, and it still matches everything it interpolated
    samples = [2 ** n for n in range(16)]
    fit = fit_quasipoly(samples, d_max=2, l_max=3, holdout=2)
    assert not fit.holdout_verified
    assert (fit.period, fit.degree, fit.samples_used) == (3, 2, 9)
    for n in range(fit.samples_used):
        assert fit.model(n) == samples[n]


@st.composite
def _fit_draws(draw):
    """(samples, d_max, l_max, holdout): a GF coefficient stream, perturbed half the time."""
    d_max = draw(st.integers(0, 3))
    l_max = draw(st.integers(1, 12))
    holdout = draw(st.integers(1, 5))
    parts = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    num = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4))
    size = (d_max + 1) * l_max + holdout + draw(st.integers(0, 12))
    samples = naive_series_coeffs(parts, num, size - 1)
    if draw(st.booleans()):
        samples[draw(st.integers(0, size - 1))] += draw(st.sampled_from([-2, -1, 1, 2]))
    return samples, d_max, l_max, holdout


@settings(max_examples=250, deadline=None)
@given(_fit_draws())
def test_fit_matches_grid_oracle(draw):
    samples, d_max, l_max, holdout = draw
    fit = fit_quasipoly(samples, d_max=d_max, l_max=l_max, holdout=holdout)
    grid = grid_fit(samples, d_max, l_max)
    assert fit.holdout_verified == (grid is not None)
    if grid is not None:
        assert fit == grid
        assert all(fraction_agrees(fit.model, n, v) for n, v in enumerate(samples))
    else:
        assert (fit.period, fit.degree) == (l_max, d_max)
        assert fit.samples_used == (d_max + 1) * l_max
        assert all(fraction_agrees(fit.model, n, samples[n]) for n in range(fit.samples_used))


def test_fit_insufficient_samples():
    with pytest.raises(InsufficientSamples) as err:
        fit_quasipoly([1, 2, 3, 4, 5], d_max=2, l_max=4, holdout=2)
    assert "14" in str(err.value)


def test_fit_rejects_bad_search_bounds():
    with pytest.raises(ValueError):
        fit_quasipoly([1] * 30, d_max=-1, l_max=4, holdout=2)
    with pytest.raises(ValueError):
        fit_quasipoly([1] * 30, d_max=2, l_max=0, holdout=2)
    with pytest.raises(ValueError):
        fit_quasipoly([1] * 30, d_max=2, l_max=4, holdout=0)


def test_probe_indices_deterministic_and_in_range():
    a = probe_indices(0, 1000, 50, seed=0)
    b = probe_indices(0, 1000, 50, seed=0)
    c = probe_indices(0, 1000, 50, seed=1)
    assert a == b
    assert a != c
    assert all(0 <= i <= 1000 for i in a)


def test_soundness_probe_vacuous_with_zero_probes():
    cert = certify(triangle_gf(), andrews_expr())
    assert soundness_probe(cert, 0, 10, seed=0)


@pytest.mark.parametrize("probes", [0, 5])
def test_soundness_probe_rejects_n_max_below_onset(probes):
    # no index lies in [onset, n_max]; zero probes must not read as agreement
    cert = certify(triangle_gf(), andrews_expr(), onset_override=200)
    with pytest.raises(ValueError):
        soundness_probe(cert, probes, 100, seed=0)


def test_soundness_probe_detects_swapped_gf():
    # the window still matches its bounds, but the swapped-in gf's
    # coefficients grow like n^2/60, not like the expression's n^2/48
    cert = certify(triangle_gf(), andrews_expr())
    swapped = replace(cert, gf=RationalGF.from_parts((2, 3, 5), shift=3))
    assert not soundness_probe(swapped, 500, 100000, seed=0)


def test_soundness_probe_evaluates_the_expression():
    # floor(n/36) is 0 on the whole window [0, 36) and positive from 36
    # on, so the certificate's window data says nothing about the error
    cert = certify(triangle_gf(), andrews_expr())
    wrong = replace(cert, expr=parse(ANDREWS + " + floor(n/36)"))
    assert not soundness_probe(wrong, 500, 100000, seed=0)


@pytest.mark.parametrize("field, value", [
    ("window", range(0, 35)),
    ("onset", 1),
    ("degree_bound", 1),
    # a refuted certificate with a tail, forged as certified: tail kept or emptied
    ("refutation", None),
    ("tail", range(0)),
])
def test_soundness_probe_rejects_malformed_window(field, value):
    cert = certify(triangle_gf(), andrews_expr())
    if field in ("refutation", "tail"):
        # (1 + q^2 - q^3)/(1 - q) has coefficients 1, 1, 2, 1, 1, ... and
        # onset 3; from onset 0 the tail [1, 4) refutes "1" at n = 2, an
        # index that no probe draws, so only the ranges can tell
        cert = certify(RationalGF(Poly(1, 0, 1, -1), (1,)), parse("1"), onset_override=0)
        assert (cert.tail, cert.refutation.n) == (range(1, 4), 2)
        assert 2 not in probe_indices(0, 100000, 500, 0)
    malformed = replace(cert, **{"refutation": None, field: value})
    assert not soundness_probe(malformed, 500, 100000, seed=0)


def test_certify_far_onset_reads_lifted_coefficients(monkeypatch):
    # the window [10^7, 10^7 + 36) comes off (1 - q^12)^3, whose numerator
    # has degree 30, not off an expansion to 10^7
    cert, uptos = expansions(monkeypatch, certify, triangle_gf(), andrews_expr(),
                             onset_override=10**7)
    assert cert.certified
    assert cert.window == range(10**7, 10**7 + 36)
    assert uptos and max(uptos) <= 30


def test_certify_far_onset_refutes_with_lifted_coefficients(monkeypatch):
    # one more than Andrews's formula disagrees at the window's first index
    n = 10**7
    expr = parse(ANDREWS + " + 1")
    cert, uptos = expansions(monkeypatch, certify, triangle_gf(), expr, onset_override=n)
    assert uptos and max(uptos) <= 30
    assert cert.refutation == Refutation(n, alcuin_count(n), oracle_eval(expr, n))
    assert cert.refutation.rhs == cert.refutation.lhs + 1


def test_certify_near_onset_reads_the_expansion(monkeypatch):
    # lcm(97, 101) = 9797, so R has degree 2*9797 - 198 and each index of
    # the window [30000, 49594) would sum 2 of its terms: 39188 terms in
    # all, fewer than the expansion's two passes over 49594 coefficients,
    # but each lifted index weighs _LIFT_COST passes more than its terms
    gf = RationalGF.from_parts((97, 101))
    cert, uptos = expansions(monkeypatch, certify, gf, parse("0"), onset_override=30000)
    assert cert.window == range(30000, 49594)
    assert uptos == [49593]
    # from the triangle's onset the window is read off the expansion too
    cert, uptos = expansions(monkeypatch, certify, triangle_gf(), andrews_expr(),
                             onset_override=300)
    assert cert.certified
    assert uptos == [335]


def test_soundness_probe_far_past_any_expansion():
    # indices up to 10^30: coeffs_at reads them off (1 - q^12)^3, whose
    # numerator has degree 30, where an expansion could not be allocated
    cert = certify(triangle_gf(), andrews_expr())
    assert soundness_probe(cert, 500, 10**30, seed=0)


def test_far_probe_rejects_formula_that_departs_past_10_to_12():
    # the extra floor term is 0 on the window and on every n < 10^12, so
    # only a probe past 10^12 can tell it from Andrews's formula
    cert = certify(triangle_gf(), andrews_expr())
    wrong = replace(cert, expr=parse(ANDREWS + " + floor(n/1000000000000)"))
    assert soundness_probe(wrong, 500, 100000, seed=0)
    assert not soundness_probe(wrong, 500, 10**30, seed=0)


def test_soundness_probe_requires_certified():
    cert = certify(triangle_gf(), parse("floor(n/4)"))
    with pytest.raises(ValueError):
        soundness_probe(cert, 10, 100, seed=0)


@pytest.mark.parametrize("onset", [None, 300, 10**7])
def test_rebuild_model_matches_expression(monkeypatch, onset):
    # the window is read through coeffs_at, as certify reads it: at 10^7
    # off (1 - q^12)^3, whose numerator has degree 30, not off an
    # expansion to 10^7; every onset gives the model of the GF's own onset
    cert = certify(triangle_gf(), andrews_expr(), onset_override=onset)
    model, uptos = expansions(monkeypatch, rebuild_model, cert)
    assert model.equivalent(expr_to_qp(cert.expr))
    assert model == rebuild_model(certify(triangle_gf(), andrews_expr()))
    if onset == 10**7:
        assert uptos and max(uptos) <= 30


def _identity_gf(expr, period, degree):
    """N(q) / (1 - q^period)^(degree+1) whose coefficients are expr(n), n >= 0.

    (1 - q^P)^(D+1) annihilates a quasi-polynomial of period P and degree
    D, so N is that product truncated below (D+1)*P.
    """
    size = (degree + 1) * period
    num = [oracle_eval(expr, n) for n in range(size)]
    for _ in range(degree + 1):  # times (1 - q^period), cut below q^size
        num = [c - (num[i - period] if i >= period else 0) for i, c in enumerate(num)]
    return RationalGF(Poly(*num), (period,) * (degree + 1))


def _bump(gf, k, stop):
    """gf plus q^k + ... + q^(stop-1): coefficients k..stop-1 rise by 1."""
    den = (1,)
    for b in gf.parts:
        den = frac_mul(den, (1,) + (0,) * (b - 1) + (-1,))
    return RationalGF(gf.numerator + Poly(*frac_mul((0,) * k + (1,) * (stop - k), den)),
                      gf.parts)


# divisors with a prime power q^e whose period search needs the factor
# q^floor(log_q d) of lcm(1..d) at degree d >= 3: 2^3, 3^2, 2^4, 3^3, 2^4*3
_DEEP_DIVISORS = st.sampled_from([8, 9, 16, 27, 48])


@st.composite
def _floor_towers(draw):
    """A floor or round, by a _DEEP_DIVISORS divisor, of a floor or round of a cubic or quartic."""
    degree = draw(st.integers(3, 4))
    poly = " + ".join(f"{draw(st.integers(1 if k == degree else 0, 3))}*n^{k}"
                      for k in range(degree, 0, -1))
    outer, inner = draw(st.lists(st.sampled_from(["floor", "round"]), min_size=2, max_size=2))
    return parse(f"{outer}({inner}(({poly})/{draw(st.integers(2, 6))})/{draw(_DEEP_DIVISORS)})")


@example(parse("floor(floor((3*n^3 + n)/6)/8)"))
@settings(max_examples=100, deadline=None)
@given(st.one_of(_floor_towers(), _exprs(st.one_of(st.integers(1, 6), _DEEP_DIVISORS))))
def test_gf_on_expr_bounds_agrees_past_its_window(expr):
    # the adversarial GF: on parts (p,)*(d+1) from expr_bounds, its
    # coefficients are expr's on the window [0, (d+1)*p) and from there on
    # follow the quasi-polynomial of degree d and period p that the window
    # determines, so it always certifies; it agrees with expr further out
    # only if (d, p) really bound expr (with the search started from 8*3,
    # the fixed case gets p = 24 and first departs at n = 96)
    d, p = expr_bounds(expr)
    assume((d + 1) * p <= 2000)
    cert = certify(_identity_gf(expr, p, d), expr)
    assert cert.certified
    past = range(cert.window.stop, cert.window.stop + 3 * p)
    assert cert.gf.coeffs_at(past) == expr_values(expr, past)


@pytest.mark.parametrize("text", BATTERY)
def test_first_witness_matches_per_index_scan(text):
    expr = parse(text)
    qp = expr_to_qp(expr)
    gf = _identity_gf(expr, qp.period, max(qp.degree, 0))
    cert = certify(gf, expr)
    assert cert.certified
    window = cert.window
    coeffs = naive_series_coeffs(gf.parts, gf.numerator.coeffs, window.stop - 1)
    assert scan_first_mismatch(coeffs, expr, window) is None
    for k in (window[0], window[len(window) // 2], window[-1]):
        for stop in (window.stop, k + 1):
            # with stop = window.stop every index from k on mismatches, so
            # only the first is k; with k + 1 only k does, as in the bench's
            # one-coefficient mutations, and the bisection must not stop on
            # the agreeing slice past it.  The bump raises the numerator's
            # degree and so gf.onset(), and the override keeps the window
            # of the unmutated identity
            mutated = _bump(gf, k, stop)
            cert = certify(mutated, expr, onset_override=window.start)
            assert cert.window == window
            coeffs = naive_series_coeffs(mutated.parts, mutated.numerator.coeffs,
                                         window.stop - 1)
            expected = scan_first_mismatch(coeffs, expr, window)
            assert expected[0] == k
            if stop == k + 1:
                assert scan_first_mismatch(coeffs, expr, range(k + 1, window.stop)) is None
            w = cert.refutation
            assert (w.n, w.lhs, w.rhs) == expected


# (n - 2*floor(n/2))*(n - 3*floor(n/3)) is (n mod 2)*(n mod 3), of degree
# 0, but the bounds fold gives it degree bound 2, so certify checks a wider
# window there (the certify-cancelled-product golden case)
_TIGHT_BATTERY = [t for t in BATTERY if t != "(n - 2*floor(n/2))*(n - 3*floor(n/3))"]


@st.composite
def _tight_identities(draw):
    """A battery entry or one of the benchmark's three certify-wide shapes.

    The bounds fold is exact on all of them.  The wide shapes' divisors
    are kept small enough that the oracle builds each identity quickly.
    """
    c = draw(st.integers(0, 9))
    m = draw(st.integers(2, 120))
    a = m // 12 + 2
    return draw(st.sampled_from(_TIGHT_BATTERY + [
        f"floor((n^2 + {c + 1}*n)/{m})",
        f"round(n^3/{m // 2 + 1})",
        f"floor(n/{a})*floor((n + {c})/{a + 1})",
    ]))


@settings(max_examples=60, deadline=None)
@given(_tight_identities(), st.data())
def test_certify_sizes_window_as_exact_conversion_where_fold_is_tight(text, data):
    # the GF is built as the benchmark builds an identity, on parts
    # (T,)*(D+1) with D and T from the exact conversion; certify must size
    # and check the window as when it took its bounds from expr_to_qp
    expr = parse(text)
    qp = expr_to_qp(expr)
    gf = _identity_gf(expr, qp.period, qp.degree)
    degree = max(gf.degree_bound(), qp.degree)
    period = math.lcm(gf.period_bound(), qp.period)
    window = range(gf.onset(), gf.onset() + (degree + 1) * period)
    k = data.draw(st.one_of(st.none(), st.sampled_from(window)))
    if k is not None:
        gf = _bump(gf, k, window.stop)
    cert = certify(gf, expr, onset_override=None if k is None else window.start)
    assert (cert.degree_bound, cert.period, cert.window) == (degree, period, window)
    coeffs = naive_series_coeffs(gf.parts, gf.numerator.coeffs, window.stop - 1)
    w = cert.refutation
    assert (None if w is None else (w.n, w.lhs, w.rhs)) == scan_first_mismatch(coeffs, expr, window)


@st.composite
def _certify_draws(draw):
    """(gf, numerator coefficients, expr, onset override or None).

    The numerator is D times the expression's series, D = prod(1 - q^b),
    truncated to sum(parts) + 2 terms, so the coefficients follow the
    expression at least that far; 30% of the time one numerator
    coefficient is bumped.  The expression's degree is at most 3 and its
    period divides 60, so every window stays small.
    """
    parts = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    expr = draw(_exprs())
    qp = expr_to_qp(expr)
    assume(qp.degree <= 3 and 60 % qp.period == 0)
    size = sum(parts) + 2
    num = [oracle_eval(expr, n) for n in range(size)]
    for b in parts:
        num = list(frac_mul(num, (1,) + (0,) * (b - 1) + (-1,))[:size])
    num = [int(c) for c in num] + [0] * (size - len(num))
    if draw(st.integers(0, 9)) < 3:
        num[draw(st.integers(0, size - 1))] += draw(st.sampled_from([-1, 1]))
    gf = RationalGF(Poly(*num), parts)
    override = draw(st.one_of(st.none(), st.integers(max(0, gf.onset() - 4), gf.onset() + 4)))
    return gf, num, expr, override


@settings(max_examples=150, deadline=None)
@given(_certify_draws())
def test_certify_verdict_matches_oracle_far_past_window(draw):
    # certified means the identity holds from the onset on, so the brute
    # oracle must find no mismatch on [t, 3*stop), and the probe must
    # agree there too; refuted means the witness is the oracle's first
    # mismatch, which lies in the window or the tail that follows it
    gf, num, expr, override = draw
    cert = certify(gf, expr, onset_override=override)
    upto = 3 * cert.tail.stop
    coeffs = naive_series_coeffs(gf.parts, num, upto - 1)
    mismatch = scan_first_mismatch(coeffs, expr, range(cert.onset, upto))
    assert cert.certified == (mismatch is None)
    if cert.certified:
        assert soundness_probe(cert, 50, upto, seed=0)
    else:
        w = cert.refutation
        assert (w.n, w.lhs, w.rhs) == mismatch


def test_onset_override_below_gf_onset_is_not_certified():
    # (1 + q^3)/(1 - q) is 1, 1, 1, 2, 2, ...: the constant 1 fails at n = 3,
    # past the one-index window [0, 1), inside the tail up to onset 3 + 1
    gf = RationalGF(Poly(1, 0, 0, 1), (1,))
    cert = certify(gf, parse("1"), onset_override=0)
    assert not cert.certified
    assert (cert.window, cert.tail) == (range(0, 1), range(1, 4))
    w = cert.refutation
    assert (w.n, w.lhs, w.rhs) == (3, 2, 1)


@st.composite
def _improper_draws(draw):
    """(gf, numerator coefficients, expr, override t < gf.onset()).

    gf is _identity_gf of an expression, whose coefficients are the
    expression's values from 0 on, plus Q*D for D = prod(1 - q^b) and a
    nonzero polynomial Q: the coefficients are the expression's plus Q's,
    so they disagree exactly where Q is nonzero, the last time at
    gf.onset() - 1 = deg Q.
    """
    expr = draw(_exprs())
    qp = expr_to_qp(expr)
    assume(qp.degree <= 3 and 60 % qp.period == 0)
    gf = _identity_gf(expr, qp.period, max(qp.degree, 0))
    q = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=6))
    q[-1] = draw(st.sampled_from([-2, -1, 1, 2]))
    den = (1,)
    for b in gf.parts:
        den = frac_mul(den, (1,) + (0,) * (b - 1) + (-1,))
    gf = RationalGF(gf.numerator + Poly(*frac_mul(q, den)), gf.parts)
    assert gf.onset() == len(q)
    num = [int(c) for c in gf.numerator.coeffs]
    return gf, num, expr, draw(st.integers(0, gf.onset() - 1))


@settings(max_examples=100, deadline=None)
@given(_improper_draws())
def test_override_below_onset_refutes_at_first_brute_force_mismatch(draw):
    gf, num, expr, override = draw
    cert = certify(gf, expr, onset_override=override)
    assert not cert.certified
    upto = 3 * cert.tail.stop
    coeffs = naive_series_coeffs(gf.parts, num, upto - 1)
    w = cert.refutation
    assert (w.n, w.lhs, w.rhs) == scan_first_mismatch(coeffs, expr, range(override, upto))
