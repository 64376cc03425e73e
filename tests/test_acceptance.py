"""Acceptance suite: one test per criterion, exact tolerances, timed.

Each test prints one PASS/FAIL line (visible with `pytest -s` or in the
captured output of a failing run) and asserts both the exact result and
the runtime budget.
"""

import json
import random
import time

from qpcert.certify import certify, fit_quasipoly, soundness_probe
from qpcert.cli import main
from qpcert.closedform import expr_eval, expr_to_qp, parse
from qpcert.genfunc import RationalGF
from qpcert.polynomial import Poly
from qpcert.triangles import andrews_expr, count_bruteforce, triangle_gf

from oracles import naive_series_coeffs, replace

ANDREWS = "round(n^2/12) - floor(n/4)*floor((n+2)/4)"

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


class timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def report(num: int, ok: bool, desc: str, elapsed: float):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {desc} ({elapsed:.2f}s)")
    assert ok, desc


def test_criterion_1_paper_reproduction(capsys):
    with timer() as t:
        code = main(["paper", "--format", "json"])
        out = capsys.readouterr().out
        doc = json.loads(out)
        coeffs = doc["result"]["coefficients"]
        formula = doc["result"]["formula"]
        ok = (
            code == 0
            and len(coeffs) == len(formula) == 37
            and coeffs == formula
            and doc["result"]["equal"] is True
        )
    with capsys.disabled():
        report(1, ok and t.elapsed < 1.0, "37-term identity check is exact", t.elapsed)


def test_criterion_2_certified_theorem(capsys):
    with timer() as t:
        cert = certify(triangle_gf(), andrews_expr())
        ok = (
            cert.certified
            and cert.degree_bound == 2
            and cert.period == 12
            and cert.onset == 0
            and cert.window == range(0, 36)
            and soundness_probe(cert, 500, 100000, seed=0)
        )
    with capsys.disabled():
        report(2, ok and t.elapsed < 5.0,
               "triangle identity certified (D=2, P=12, 36 checks) and probed", t.elapsed)


def test_criterion_3_oracle_equivalence(capsys):
    with timer() as t:
        coeffs = triangle_gf().coeffs(200)
        expr = andrews_expr()
        ok = all(count_bruteforce(n) == coeffs[n] for n in range(201))
        ok = ok and all(count_bruteforce(n) == expr_eval(expr, n) for n in range(501))
    with capsys.disabled():
        report(3, ok and t.elapsed < 5.0,
               "brute-force counts equal GF coefficients (n<=200) and closed form (n<=500)",
               t.elapsed)


def test_criterion_4_bijection_suite(capsys):
    from qpcert.triangles import TriangleParam, list_triangles, param_to_triangle, triangle_to_param

    def params_with_perimeter(n):
        for a in range((n - 3) // 4 + 1):
            for s in range((n - 3 - 4 * a) // 3 + 1):
                rem = n - 3 - 4 * a - 3 * s
                if rem % 2 == 0:
                    yield TriangleParam(a, rem // 2, s)

    with timer() as t:
        ok = True
        for n in range(3, 101):
            tris = list_triangles(n)
            params = [triangle_to_param(x) for x in tris]
            ok = ok and len(set(params)) == len(tris)
            ok = ok and [param_to_triangle(p) for p in params] == tris
            ok = ok and {param_to_triangle(p) for p in params_with_perimeter(n)} == set(tris)
    with capsys.disabled():
        report(4, ok and t.elapsed < 2.0,
               "parameter maps are mutually inverse with exact image (n<=100)", t.elapsed)


def test_criterion_5_conversion_soundness(capsys):
    with timer() as t:
        ok = True
        for text in BATTERY:
            e = parse(text)
            q = expr_to_qp(e)
            ok = ok and all(q(n) == expr_eval(e, n) for n in range(5001))
    with capsys.disabled():
        report(5, ok and t.elapsed < 10.0,
               f"{len(BATTERY)}-expression battery agrees on [0, 5000]", t.elapsed)


def test_criterion_6_gf_coefficient_oracle(capsys):
    with timer() as t:
        rng = random.Random(20120204)
        ok = True
        for _ in range(10):
            parts = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 4)))
            num = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))]
            gf = RationalGF(Poly(*num), parts)
            ok = ok and gf.coeffs(300) == naive_series_coeffs(parts, num, 300)
    with capsys.disabled():
        report(6, ok and t.elapsed < 10.0,
               "recurrence equals truncated-series product on 10 random GFs (N=300)",
               t.elapsed)


def test_criterion_7_ansatz_fitting(capsys):
    with timer() as t:
        samples = [count_bruteforce(n) for n in range(50)]
        fit = fit_quasipoly(samples, d_max=3, l_max=12, holdout=2)
        ok = (
            fit.holdout_verified
            # 36 samples fit the model and the other 14 are held out
            and (fit.period, fit.degree, fit.samples_used) == (12, 2, 36)
            and fit.model.equivalent(expr_to_qp(andrews_expr()))
            and fit.model(10000) == expr_eval(andrews_expr(), 10000)
        )
    with capsys.disabled():
        report(7, ok and t.elapsed < 2.0,
               "ansatz fit recovers the closed form and predicts n=10000", t.elapsed)


def test_criterion_8_mutation_sensitivity(capsys):
    expr = andrews_expr()
    mutated_parts = [(1, 3, 4), (3, 3, 4), (2, 2, 4), (2, 4, 4), (2, 3, 3), (2, 3, 5)]
    mutated_shifts = [2, 4]
    mutated_texts = [
        "round(n^2/11) - floor(n/4)*floor((n+2)/4)",
        "round(n^2/13) - floor(n/4)*floor((n+2)/4)",
        "round(n^2/12) - floor(n/3)*floor((n+2)/4)",
        "round(n^2/12) - floor(n/5)*floor((n+2)/4)",
        "round(n^2/12) - floor(n/4)*floor((n+2)/3)",
        "round(n^2/12) - floor(n/4)*floor((n+2)/5)",
        "round(n^2/12) - floor(n/4)*floor((n+1)/4)",
        "round(n^2/12) - floor(n/4)*floor((n+3)/4)",
        "round(n^3/12) - floor(n/4)*floor((n+2)/4)",
        "round(n^1/12) - floor(n/4)*floor((n+2)/4)",
    ]
    with timer() as t:
        certs = []
        for parts in mutated_parts:
            certs.append(certify(RationalGF.from_parts(parts, 3), expr))
        for shift in mutated_shifts:
            certs.append(certify(RationalGF.from_parts((2, 3, 4), shift), expr))
        for text in mutated_texts:
            certs.append(certify(triangle_gf(), parse(text)))
        ok = all(
            (not c.certified) and c.refutation.n <= 36 for c in certs
        )
    with capsys.disabled():
        report(8, ok and t.elapsed < 5.0,
               f"all {len(certs)} single-parameter mutations refuted with witness <= 36",
               t.elapsed)


def test_mutation_also_breaks_probe_backstop(capsys):
    # companion to criterion 8: tampering with a certificate's recorded
    # period must be caught by the empirical probe
    with timer() as t:
        cert = certify(triangle_gf(), andrews_expr())
        corrupted = replace(cert, period=cert.period // 2)
        ok = not soundness_probe(corrupted, 500, 100000, seed=0)
    with capsys.disabled():
        print(f"ACCEPTANCE 8b PASS: tampered certificate caught by probe ({t.elapsed:.2f}s)"
              if ok else f"ACCEPTANCE 8b FAIL ({t.elapsed:.2f}s)")
    assert ok
