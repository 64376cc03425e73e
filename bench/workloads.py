"""Seeded workload generators.

Each generator turns a seed into a list of Op values: the argv handed to
qpcert.cli.main and the known answer the output must match.  Known
answers come from the construction (an identity's generating function
is built from the expression's own values, and a mutation changes one
value at a chosen index) and are confirmed by oracle.py over three
windows before any op runs; a disagreement aborts set-up.

Sizes are stratified by slot, so a seed changes coefficients, divisors
within narrow ranges, mutation sites and formats, but not the cost mix.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import oracle as O

FORMATS = ("text", "json", "csv")

ANDREWS = "round(n^2/12) - floor(n/4)*floor((n+2)/4)"

# Generating functions in closed form: (name, expression, parts, shift).
KNOWN_GFS = (("triangle", ANDREWS, (2, 3, 4), 3),
             ("parts123", "round((n+3)^2/12)", (1, 2, 3), 0))

# The acceptance battery of the repository's test suite.
BATTERY = [
    "n",
    "7",
    "n^2",
    "floor(n/4)",
    "round(n^2/12)",
    "floor((n+2)/4)",
    ANDREWS,
    "floor(floor(n/2)/3)",
    "round(floor(n/3)/5)",
    "floor(n/2)*floor(n/3)",
    "(n - 2*floor(n/2))*(n - 3*floor(n/3))",
    "n^3 - 6*floor((n^2+3)/7)",
]


@dataclass
class Op:
    """One CLI call and its known answer."""

    id: str
    argv: list
    kind: str  # certify | coeffs | fit | paper
    fmt: str
    expect: dict = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        if self.kind == "certify":
            return 0 if self.expect["witness"] is None else 1
        return 0


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _stratum(rng: random.Random, lo: int, hi: int, j: int, k: int) -> int:
    """A draw near the middle of the j-th of k equal sub-ranges of [lo, hi].

    The jitter is a tenth of the sub-range, so that op costs, which grow
    with the divisor, barely depend on the seed.
    """
    width = (hi - lo) / k
    mid = round(lo + (j + 0.5) * width)
    jitter = int(width / 10)
    return rng.randint(mid - jitter, mid + jitter)


# -- identities ------------------------------------------------------------


def certify_op(op_id, e, parts, fmt, *, shift=None, mutation=None, extra=None,
               onset=None, probe=None):
    """A certify op for "GF coefficients == e", with its verified answer.

    The GF is numerator(values of e) / prod(1 - q^b).  `mutation` is
    (k, delta): the series is changed at index k and agrees below it.
    `extra` is a polynomial part E added to the series (an improper
    numerator), so the series equals e exactly from deg E + 1 on.
    `shift` passes the numerator as --shift, after checking it is q^shift.
    """
    parts = list(parts)
    d, period = len(parts) - 1, math.lcm(*parts)
    width = (d + 1) * period
    top = sum(parts)
    values = [O.evaluate(e, n) for n in range(top)]
    num = O.numerator(values, parts)
    if shift is not None and num != [0] * shift + [1] + [0] * (top - shift - 1):
        raise O.OracleMismatch(f"{O.render(e)} is not q^{shift}/den on parts {parts}")
    extra = list(extra or [])
    if mutation is not None:
        num = O.mutate(num, parts, *mutation)
    if extra:
        den = O.denominator(parts)
        num = num + [0] * (len(extra) + top - len(num))
        for i, c in enumerate(extra):
            for j, dj in enumerate(den):
                num[i + j] += c * dj
        while num and num[-1] == 0:
            num.pop()

    # Known answer, from the construction alone: the series is e plus
    # `diff`, up to the mutation site; past it, it follows another
    # quasi-polynomial.
    start = max(0, len(num) - top) if onset is None else onset
    diff = dict(enumerate(extra))
    if mutation is not None:
        diff[mutation[0]] = mutation[1]
    bad = sorted(i for i, c in diff.items() if c and i >= start)
    witness = bad[0] if bad else None

    # Oracle: naive series product against the integer evaluator, 3 windows.
    upto = 3 * (start + width)
    got = O.series(num, parts, upto)
    want = [O.evaluate(e, n) for n in range(upto + 1)]
    last = upto if mutation is None else mutation[0]
    for n in range(last + 1):
        if got[n] - want[n] != diff.get(n, 0):
            raise O.OracleMismatch(
                f"{op_id}: series and {O.render(e)} differ by {got[n] - want[n]} "
                f"at n={n}; the construction says {diff.get(n, 0)}")

    argv = ["certify", "--parts", _csv(parts)]
    # "--flag=value", since a value may start with "-"
    argv += ["--shift", str(shift)] if shift is not None else [f"--num={_csv(num or [0])}"]
    argv += [f"--expr={O.render(e)}", "--format", fmt]
    if onset is not None:
        argv += ["--onset", str(onset)]
    if probe is not None:
        argv += ["--probe", str(probe[0]), "--seed", str(probe[1])]
    expect = {
        "verdict": "refuted" if witness is not None else "certified",
        "degree_bound": d,
        "period": period,
        "onset": start,
        "start": start,
        "stop": start + width,
        "checks": width,
        "witness": None if witness is None else (witness, got[witness], want[witness]),
        "probe_agreed": None if probe is None or witness is not None else True,
    }
    return Op(op_id, argv, "certify", fmt, expect)


def identity(op_id, e, fmt, **kw):
    """certify_op with parts (T,)*(d+1) from the expression's own bounds."""
    period, degree = O.bounds(e)
    return certify_op(op_id, e, [period] * (degree + 1), fmt, **kw)


# -- random grammar ----------------------------------------------------------


def _poly(rng, degree):
    """c_d n^d +/- ... with small non-negative literals."""
    def term(k, c):
        base = ("n",) if k == 1 else ("pow", ("n",), k)
        if k == 0:
            return ("c", c)
        return base if c == 1 else ("mul", ("c", c), base)

    node = term(degree, rng.randint(1, 3))
    for k in range(degree - 1, -1, -1):
        c = rng.randint(0, 5)
        if c:
            node = (rng.choice(("add", "sub")), node, term(k, c))
    return node


def _small_shapes(rng, j, k):
    """Ten expression shapes, each with period <= 60 and degree <= 3."""
    m = _stratum(rng, 2, 60, j, k)
    a = _stratum(rng, 2, 7, j, k)
    b = _stratum(rng, 2, 8, j, k)
    return [
        ("floor", _poly(rng, 1 + j % 3), m),
        ("round", _poly(rng, 1 + j % 2), m),
        ("mul", ("floor", _poly(rng, 1), a), ("floor", _poly(rng, 1), b)),
        ("add", _poly(rng, 1), ("floor", _poly(rng, 2), m)),
        ("floor", ("floor", _poly(rng, 1), a), b),
        ("sub", ("round", ("pow", ("n",), 2), a * max(1, m // a)),
         ("mul", ("floor", ("n",), a), ("floor", ("add", ("n",), ("c", rng.randint(1, 5))), a))),
        ("pow", ("floor", _poly(rng, 1), m), 2),
        _poly(rng, 1 + (j + 1) % 3),
        ("add", ("neg", ("floor", _poly(rng, 1), m)), ("pow", ("n",), 2)),
        ("round", ("floor", _poly(rng, 1), a), _stratum(rng, 2, 4, j, k)),
    ]


def certify_small(seed: int, work: Path) -> list:
    rng = random.Random(f"certify-small/{seed}")
    ops = []
    fmts = [FORMATS[i % 3] for i in range(100)]
    rng.shuffle(fmts)
    fmt = iter(fmts)

    def mutation(e):
        period, degree = O.bounds(e)
        return rng.randrange((degree + 1) * period), rng.choice((-2, -1, 1, 2))

    for i, text in enumerate(BATTERY):
        e = O.parse(text)
        ops.append(identity(f"battery{i}", e, next(fmt)))
        ops.append(identity(f"battery{i}-mut", e, next(fmt), mutation=mutation(e)))

    for name, text, parts, shift in KNOWN_GFS:
        e = O.parse(text)
        ops.append(certify_op(name, e, parts, next(fmt), shift=shift))
        k = rng.randrange(sum(parts))
        ops.append(certify_op(f"{name}-mut", e, parts, next(fmt),
                              mutation=(k, rng.choice((-1, 1)))))

    ops.append(paper_op(next(fmt)))

    slots = 7
    for j in range(slots):
        shapes = _small_shapes(rng, j, slots)
        for s, e in enumerate(shapes):
            op_id = f"random{s}.{j}"
            period, degree = O.bounds(e)
            width = (degree + 1) * period
            role = (s + j) % 4  # plain, mutated, mutated, improper with --onset
            if role == 0:
                ops.append(identity(op_id, e, next(fmt)))
            elif role < 3:
                ops.append(identity(op_id + "-mut", e, next(fmt), mutation=mutation(e)))
            else:
                deg = rng.randint(0, min(6, width - 1))
                extra = [rng.randint(-3, 3) for _ in range(deg)] + [rng.choice((-2, -1, 1, 2))]
                onset = None if j % 2 else rng.randint(0, deg + 2)
                ops.append(identity(op_id + "-onset", e, next(fmt), extra=extra, onset=onset))
    return ops


def paper_op(fmt):
    andrews = O.parse(ANDREWS)
    coeffs = O.series([0, 0, 0, 1], (2, 3, 4), 36)
    formula = [O.evaluate(andrews, n) for n in range(37)]
    if coeffs != formula:
        raise O.OracleMismatch("the oracle disagrees with the 37-term check")
    return Op("paper", ["paper", "--format", fmt], "paper", fmt,
              {"coefficients": coeffs, "formula": formula})


# -- wide periods ------------------------------------------------------------


def certify_wide(seed: int, work: Path) -> list:
    rng = random.Random(f"certify-wide/{seed}")
    ops = []
    slots = 10
    fmts = [FORMATS[i % 3] for i in range(3 * slots)]
    rng.shuffle(fmts)
    fmt = iter(fmts)
    for j in range(slots):
        a = _stratum(rng, 16, 26, j, slots)
        shapes = [
            ("floor-sq", ("floor", ("add", ("pow", ("n",), 2), ("mul", ("c", rng.randint(1, 9)), ("n",))),
                          _stratum(rng, 200, 1000, j, slots))),
            ("round-cube", ("round", ("pow", ("n",), 3), _stratum(rng, 200, 450, j, slots))),
            ("floor-prod", ("mul", ("floor", ("n",), a),
                            ("floor", ("add", ("n",), ("c", rng.randint(0, 9))), a + 1))),
        ]
        for s, (name, e) in enumerate(shapes):
            op_id = f"{name}.{j}"
            if (s + j) % 2:
                period, degree = O.bounds(e)
                width = (degree + 1) * period
                k = rng.randrange(int(0.7 * width), width)
                ops.append(identity(op_id + "-mut", e, next(fmt),
                                    mutation=(k, rng.choice((-1, 1)))))
            else:
                ops.append(identity(op_id, e, next(fmt)))
    return ops


# -- series and fitting ------------------------------------------------------


def coeffs_op(op_id, parts, shift, upto, fmt):
    argv = ["coeffs", "--parts", _csv(parts), "--shift", str(shift),
            "--upto", str(upto), "--format", fmt]
    coeffs = O.series([0] * shift + [1], parts, upto)
    return Op(op_id, argv, "coeffs", fmt, {"coefficients": [str(c) for c in coeffs]})


def fit_op(op_id, parts, shift, samples, dmax, lmax, fmt, work: Path):
    values = O.series([0] * shift + [1], parts, samples - 1)
    path = work / f"{op_id}.txt"
    path.write_text(" ".join(str(v) for v in values) + "\n", encoding="ascii")
    argv = ["fit", "--values", str(path), "--dmax", str(dmax), "--lmax", str(lmax),
            "--format", fmt]
    return Op(op_id, argv, "fit", fmt, {"samples": values})


def series_fit(seed: int, work: Path) -> list:
    rng = random.Random(f"series-fit/{seed}")
    ops = []
    for fmt in FORMATS:
        ops.append(coeffs_op(f"coeffs1to7.{fmt}", range(1, 8), 0,
                             rng.randint(49000, 51000), fmt))
        ops.append(coeffs_op(f"coeffs234.{fmt}", (2, 3, 4), 3,
                             rng.randint(49000, 51000), fmt))
    for name, text, parts, shift in KNOWN_GFS:
        ops.append(certify_op(f"probe-{name}", O.parse(text), parts, rng.choice(FORMATS),
                              shift=shift, probe=(500, rng.randrange(2 ** 32))))
    fit_fmts = list(FORMATS) + [rng.choice(FORMATS)]
    rng.shuffle(fit_fmts)
    ops.append(fit_op("fit-triangle.0", (2, 3, 4), 3, rng.randint(170, 180), 2, 12,
                      fit_fmts[0], work))
    ops.append(fit_op("fit-triangle.1", (2, 3, 4), 3, rng.randint(80, 90), 2, 12,
                      fit_fmts[1], work))
    ops.append(fit_op("fit-parts1to4.0", (1, 2, 3, 4), 0, rng.randint(115, 125), 3, 12,
                      fit_fmts[2], work))
    ops.append(fit_op("fit-parts1to4.1", (1, 2, 3, 4), 0, rng.randint(65, 75), 3, 12,
                      fit_fmts[3], work))
    return ops


WORKLOADS = {
    "certify-small": certify_small,
    "certify-wide": certify_wide,
    "series-fit": series_fit,
}
