"""Finite-check certification of coefficient-sequence identities.

Both sides of an identity "GF coefficients == closed form" are
quasi-polynomials of known bounded degree D and period P from the onset
index on.  Two quasi-polynomials of degree <= D and period dividing P
that agree on D+1 points in every residue class mod P are identical, so
checking the window [onset, onset + (D+1)*P) proves the identity for all
n >= onset.  A Certified verdict is therefore a theorem, not a sample.

The window is checked in one pass: the coefficients come from
RationalGF.coeffs_at, off the series expansion unless the window lies far
out, and the closed form's values from expr_values, the integer
interpreter run over the whole window at once.  The two lists are
compared whole; on a mismatch, a bisection on slice equality finds the
first index where they differ.  The expression's side of
D and P comes from expr_bounds, a fold over its AST in integers, so no
quasi-polynomial is built to size the window, and no checked value comes
from anything but the series and the interpreter.

fit_quasipoly is the matching guessing procedure.  On each residue class
mod L a quasi-polynomial's values form a polynomial sequence, and a
sequence has degree <= d iff its (d+1)-th forward differences vanish.  So
for each period L it reads each class's degree off the class's
difference table, takes the first L whose classes all have degree <=
d_max, and interpolates once.
"""

from __future__ import annotations

import math
import operator

from ._value import _Value, _set
from .closedform import Expr, expr_bounds, expr_values
from .genfunc import RationalGF
from .polynomial import _differences, interpolate
from .quasipoly import QuasiPoly


class InsufficientSamples(ValueError):
    """Too few samples for the requested ansatz search."""


class Refutation(_Value):
    """First checked index where the two sides disagree."""

    __slots__ = __match_args__ = ("n", "lhs", "rhs")

    def __init__(self, n: int, lhs: int, rhs: int):
        _set(self, "n", n)
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)


class Certificate(_Value):
    """Outcome of a finite-check certification run.

    `window` is the window the theorem checks; it always spans exactly
    degree_bound + 1 points in each residue class mod period.  `tail`
    follows it up to gf.onset() + (degree_bound + 1)*period, and is empty
    unless the onset was overridden below gf.onset() (see certify).  Both
    sides (coefficient and the expression's integer value) were computed
    at every index in window and tail.  If `refutation` is None the
    verdict is Certified: every index was compared and the identity holds
    for every n >= onset.  Otherwise it is the smallest mismatching index,
    and the comparison stopped there: indices past it were not compared.
    """

    __slots__ = __match_args__ = ("gf", "expr", "onset", "degree_bound", "period", "window",
                                  "tail", "refutation")

    def __init__(self, gf: RationalGF, expr: Expr, onset: int, degree_bound: int,
                 period: int, window: range, tail: range, refutation: Refutation | None):
        _set(self, "gf", gf)
        _set(self, "expr", expr)
        _set(self, "onset", onset)
        _set(self, "degree_bound", degree_bound)
        _set(self, "period", period)
        _set(self, "window", window)
        _set(self, "tail", tail)
        _set(self, "refutation", refutation)

    @property
    def certified(self) -> bool:
        return self.refutation is None


def certify(gf: RationalGF, expr: Expr, onset_override: int | None = None) -> Certificate:
    """Prove or refute: coefficient n of gf == expr(n) for all n >= onset.

    The degree bound is the max of the generating function's bound and
    the expression's (expr_bounds); the period is the lcm of the two
    periods.  Refutation is a result, not an error: the returned witness
    is the first mismatching index in the window or the tail.

    The window theorem needs both sides to be quasi-polynomials from the
    window's start on, which the coefficients are only from s =
    gf.onset().  So an override t below s also checks the tail, up to
    s + (degree+1)*period: agreement on [t, s) plus the window from s
    proves the identity from t.  Such an identity never certifies.  Write
    the numerator N = Q*D + R with D = prod(1 - q^b) and deg R < sum(b),
    a division that stays in the integers since D has constant term 1
    and leading coefficient +-1.  The coefficients are Q's plus those of
    R/D, a quasi-polynomial for all n >= 0.  If R/D is the expression,
    the mismatches are exactly Q's nonzero coefficients, and Q's top one
    sits at s - 1 >= t; otherwise the two quasi-polynomials differ at
    some n >= s.
    """
    if onset_override is not None and onset_override < 0:
        raise ValueError("onset_override must be non-negative")
    d, p = expr_bounds(expr)
    degree = max(gf.degree_bound(), d)
    period = math.lcm(gf.period_bound(), p)
    onset = gf.onset() if onset_override is None else onset_override
    window, tail = _ranges(gf, onset, degree, period)
    checked = range(onset, tail.stop)
    lhs = gf.coeffs_at(checked)
    rhs = expr_values(expr, checked)
    refutation = None
    if lhs != rhs:
        # lhs[:i] == rhs[:i] and lhs[i:j] != rhs[i:j]
        i, j = 0, len(lhs)
        while j - i > 1:
            mid = (i + j) // 2
            if lhs[i:mid] == rhs[i:mid]:
                i = mid
            else:
                j = mid
        refutation = Refutation(n=onset + i, lhs=lhs[i], rhs=rhs[i])
    return Certificate(
        gf=gf,
        expr=expr,
        onset=onset,
        degree_bound=degree,
        period=period,
        window=window,
        tail=tail,
        refutation=refutation,
    )


def _ranges(gf: RationalGF, onset: int, degree: int, period: int) -> tuple[range, range]:
    """(window, tail): degree + 1 indices per class mod period, then to gf.onset() + as many."""
    stop = onset + (degree + 1) * period
    return range(onset, stop), range(stop, max(stop, gf.onset() + stop - onset))


def rebuild_model(cert: Certificate) -> QuasiPoly:
    """Quasi-polynomial determined by the certificate's own window data.

    Interpolates the window's coefficients, read through coeffs_at as
    certify reads them, per residue class mod cert.period.  For an honest
    certificate this reconstructs the unique degree <= D quasi-polynomial
    behind the sequence, the one that expr_to_qp(cert.expr) is equivalent
    to; certify itself never builds that quasi-polynomial.
    """
    return _fit_residues(cert.gf.coeffs_at(cert.window), cert.window.start, cert.period)


def _fit_residues(values, start: int, period: int) -> QuasiPoly:
    """Quasi-polynomial interpolating values[i] at n = start + i.

    Constituent r interpolates values[i::period], i = (r - start) mod
    period; every class needs a value, i.e. len(values) >= period.
    """
    constituents = []
    for r in range(period):
        i = (r - start) % period
        constituents.append(interpolate(values[i::period], start + i, period))
    return QuasiPoly(period, tuple(constituents))


# Fixed linear congruential generator (Knuth's 64-bit parameters), so
# probe runs are reproducible across platforms and implementations.
_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


def probe_indices(onset: int, n_max: int, probes: int, seed: int) -> list[int]:
    """Deterministic pseudo-random indices in [onset, n_max]."""
    if probes < 0:
        raise ValueError("probes must be non-negative")
    if n_max < onset:
        raise ValueError("n_max must be >= onset")
    span = n_max - onset + 1
    state = seed & _LCG_MASK
    out = []
    for _ in range(probes):
        state = (_LCG_MULT * state + _LCG_INC) & _LCG_MASK
        out.append(onset + state % span)
    return out


def soundness_probe(cert: Certificate, probes: int, n_max: int, seed: int = 0) -> bool:
    """Empirical backstop for a Certified verdict: the identity, sampled.

    False if cert.window and cert.tail are not certify's ranges for
    cert's fields, or if the tail is not empty: certify never certifies
    with one.  Otherwise draws `probes` deterministic indices in
    [cert.onset, n_max] and compares both sides of the certified
    identity there: the exact coefficients against the expression's
    values (one expr_values pass).  The coefficients come from
    RationalGF.coeffs_at, which for a probe far past lcm(parts) reads
    them off the denominator lifted to (1 - q^L)^k and expands the
    series only up to the lifted numerator's degree, so n_max is not
    bounded by what an expansion can hold.  Neither side uses the window
    theorem or expr_bounds.  True means every probe agreed; with a
    correct implementation this is a consequence of the certified
    theorem, so False indicates a bug (or a tampered certificate).
    ValueError if cert is refuted, probes is negative or n_max is below
    cert.onset, even when probes is 0: probe_indices checks its
    arguments, and is called before the ranges are compared.
    """
    if not cert.certified:
        raise ValueError("soundness_probe requires a Certified certificate")
    indices = probe_indices(cert.onset, n_max, probes, seed)
    ranges = _ranges(cert.gf, cert.onset, cert.degree_bound, cert.period)
    if cert.tail or (cert.window, cert.tail) != ranges:
        return False
    return cert.gf.coeffs_at(indices) == expr_values(cert.expr, indices)


class FitResult(_Value):
    """Outcome of a quasi-polynomial ansatz search.

    `model` is the per-residue interpolation of the first samples_used =
    (degree+1)*period samples, so it reproduces each of them exactly.
    holdout_verified is True iff it also reproduces every later sample;
    len(samples) - samples_used values were held out.
    """

    __slots__ = __match_args__ = ("model", "degree", "period", "holdout_verified",
                                  "samples_used")

    def __init__(self, model: QuasiPoly, degree: int, period: int, holdout_verified: bool,
                 samples_used: int):
        _set(self, "model", model)
        _set(self, "degree", degree)
        _set(self, "period", period)
        _set(self, "holdout_verified", holdout_verified)
        _set(self, "samples_used", samples_used)


def _class_degree(values, d_max: int) -> int:
    """Smallest d <= d_max whose (d+1)-th differences of values vanish.

    A sequence too short to have (d+1)-th differences passes vacuously.
    Returns d_max + 1 if no d <= d_max passes.
    """
    rows = _differences(values)
    next(rows)  # the values themselves
    for d in range(d_max + 1):
        if not any(next(rows, ())):
            return d
    return d_max + 1


def fit_quasipoly(samples, d_max: int, l_max: int, holdout: int) -> FitResult:
    """The smallest quasi-polynomial ansatz explaining samples.

    samples[n] is the value at n.  Periods L = 1..l_max are tried in
    order; L's degree is the largest degree of its residue classes
    samples[r::L], each read off the class's difference table (see
    _class_degree).  The first L whose degree d is at most d_max wins, and
    its model interpolates each class on its first d+1 samples: the
    smallest (L, d) whose interpolation reproduces every sample it was not
    trained on.  If no period has degree <= d_max, the largest ansatz
    (l_max, d_max) is fitted and returned with holdout_verified=False.

    d_max and l_max are caps on the search, not the answer.  Requires
    len(samples) >= (d_max+1)*l_max + holdout so that even the largest
    ansatz leaves `holdout` genuinely unseen samples.
    """
    if d_max < 0:
        raise ValueError("d_max must be >= 0")
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    if holdout < 1:
        raise ValueError("holdout must be >= 1")
    samples = list(map(operator.index, samples))
    minimum = (d_max + 1) * l_max + holdout
    if len(samples) < minimum:
        raise InsufficientSamples(
            f"need at least {minimum} samples for d_max={d_max}, "
            f"l_max={l_max}, holdout={holdout}; got {len(samples)}"
        )

    for period in range(1, l_max + 1):
        degree = max(_class_degree(samples[r::period], d_max) for r in range(period))
        if degree <= d_max:
            verified = True
            break
    else:
        period, degree, verified = l_max, d_max, False
    train = (degree + 1) * period
    return FitResult(
        model=_fit_residues(samples[:train], 0, period),
        degree=degree,
        period=period,
        holdout_verified=verified,
        samples_used=train,
    )
