"""Self-tests of the benchmark's own code: python3 -m pytest bench"""

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import oracle as O  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402
from run import run_op  # noqa: E402

ALCUIN_PREFIX = [0, 0, 0, 1, 0, 1, 1, 2, 1, 3, 2, 4, 3]


def test_oracle_alcuin_prefix():
    assert O.series([0, 0, 0, 1], (2, 3, 4), 12) == ALCUIN_PREFIX
    andrews = O.parse(W.ANDREWS)
    assert [O.evaluate(andrews, n) for n in range(13)] == ALCUIN_PREFIX
    assert O.numerator(ALCUIN_PREFIX, (2, 3, 4)) == [0, 0, 0, 1, 0, 0, 0, 0, 0]


def test_expression_text_round_trip():
    exprs = [O.parse(t) for t in W.BATTERY]
    for seed in range(20):
        rng = random.Random(seed)
        exprs += W._small_shapes(rng, seed % 7, 7)
    for e in exprs:
        assert O.parse(O.render(e)) == e
        period, degree = O.bounds(e)
        assert period <= 60 and degree <= 3


def test_rounding_and_floor_semantics():
    assert [O.evaluate(O.parse("round(n/2)"), n) for n in range(-3, 4)] == [-1, -1, 0, 0, 1, 1, 2]
    assert O.evaluate(O.parse("floor((n-5)/2)"), 0) == -3


def test_generated_gf_round_trip_over_three_windows():
    for text in W.BATTERY + ["floor((n^2 + 3*n)/200)", "round(n^3/201)"]:
        e = O.parse(text)
        period, degree = O.bounds(e)
        parts = [period] * (degree + 1)
        width = (degree + 1) * period
        values = [O.evaluate(e, n) for n in range(3 * width)]
        num = O.numerator(values, parts)
        assert O.series(num, parts, 3 * width - 1) == values
        k = width - 1
        mutated = O.series(O.mutate(num, parts, k, 2), parts, 3 * width - 1)
        assert mutated[:k] == values[:k] and mutated[k] == values[k] + 2


def test_bounds_reject_a_wrong_period():
    # floor(n^2/4) has period 2; a period-1 GF cannot reproduce it.
    e = O.parse("floor(n^2/4)")
    values = [O.evaluate(e, n) for n in range(30)]
    assert O.series(O.numerator(values, [1, 1, 1]), [1, 1, 1], 29) != values
    assert O.bounds(e) == (4, 2)


def test_workloads_are_seeded():
    for name, build in W.WORKLOADS.items():
        if name == "series-fit":
            continue
        a = [(op.id, op.argv) for op in build(3, None)]
        b = [(op.id, op.argv) for op in build(3, None)]
        c = [(op.id, op.argv) for op in build(4, None)]
        assert a == b and a != c


def test_certify_small_known_answers_hold(tmp_path):
    import qpcert.cli as cli

    ops = W.certify_small(1, tmp_path)
    assert len(ops) >= 95
    refuted = sum(op.expect["witness"] is not None for op in ops if op.kind == "certify")
    assert 0.35 < refuted / len(ops) < 0.65
    for op in ops:
        rc, out, _ = run_op(cli, op.argv)
        assert checks.check(op, rc, out) is None, op.id


def test_check_catches_wrong_answers(tmp_path):
    import qpcert.cli as cli

    ops = {op.id: op for op in W.certify_small(2, tmp_path)}
    op = ops["triangle"]
    rc, out, _ = run_op(cli, op.argv)
    assert checks.check(op, rc, out) is None
    assert checks.check(op, 1, out) is not None
    wrong = dict(op.expect, witness=(5, 1, 0), verdict="refuted")
    assert checks.check(W.Op(op.id, op.argv, op.kind, op.fmt, wrong), 1, out) is not None
    fit = W.fit_op("fit", (2, 3, 4), 3, 80, 2, 12, "csv", tmp_path)
    rc, out, _ = run_op(cli, fit.argv)
    assert checks.check(fit, rc, out) is None
    fit.expect["samples"][40] += 1
    assert "misses sample n=40" in checks.check(fit, rc, out)


def test_self_time_arithmetic():
    records = [
        ("root", -1, 0, 100, None),
        ("a", 0, 10, 40, {"points": 3}),
        ("b", 1, 20, 30, None),
        ("a", 0, 50, 90, {"points": 4}),
    ]
    agg = spans.self_times(records)
    assert agg["root"]["self_ns"] == 100 - 30 - 40
    assert agg["a"]["ns"] == 70 and agg["a"]["self_ns"] == 70 - 10
    assert agg["a"]["calls"] == 2 and agg["a"]["points"] == 7
    assert agg["b"]["self_ns"] == 10
    assert sum(v["self_ns"] for v in agg.values()) == spans.root_ns(records) == 100


def test_tracer_patches_every_importer_and_restores():
    import qpcert.cli as cli

    # the package's own "certify" attribute is the function, not the module
    module = sys.modules["qpcert.certify"]
    originals = (cli.certify, module.expr_eval, module.expr_to_qp)
    tracer = spans.Tracer()
    with tracer:
        assert cli.certify is not originals[0]
        assert module.expr_eval is not originals[1]
        rc, out, _ = run_op(cli, ["certify", "--parts", "2,3,4", "--shift", "3",
                                  "--expr", W.ANDREWS])
    assert rc == 0
    assert (cli.certify, module.expr_eval, module.expr_to_qp) == originals
    agg = spans.self_times(tracer.spans)
    assert agg["cli.main"]["calls"] == 1
    assert agg["certify.certify"]["checks"] == 36
    # expr_eval recurses through its own module global; one span per point
    assert agg["closedform.expr_eval"]["calls"] == 36
    assert agg["closedform.expr_to_qp"]["calls"] == 1
    assert agg["genfunc.coeffs"]["terms"] == 36
    assert agg["genfunc.coeffs"]["recurrence_steps"] == sum(min(n, 9) for n in range(36))
    assert sum(v["self_ns"] for v in agg.values()) == spans.root_ns(tracer.spans)
