"""qpcert benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload certify-small --seed 1 --seconds 20 --trace 0

One op is one qpcert.cli.main(argv) call, in this process, with stdout
captured; ops run in a closed loop (one caller, no think time beyond the
benchmark's own correctness check, which is not timed).  The inputs are
generated from --seed and checked against the oracle in oracle.py before
any op runs.  Every op's exit code and output are checked against its
known answer; failing ops are listed on stderr by op id.

--trace 0 reports the end-to-end metrics, with tracing off; times are
scaled to a reference machine speed (see reference_ns).  --trace 1
alternates untraced and traced passes and reports the per-layer metrics
(per op) from the traced ones.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
from oracle import OracleMismatch, evaluate, parse, series  # noqa: E402
from workloads import ANDREWS, WORKLOADS  # noqa: E402

SETUP_RUNS = 11
MIN_OPS = 100  # op calls per run, at least
REFERENCE_NS = 1_500_000  # nominal time of reference_ns()'s work
SEGMENT_NS = 20_000_000  # op time between two reference measurements
_ANDREWS = parse(ANDREWS)
SETUP_CODE = ("import sys; sys.path.insert(0, 'src'); "
              "import qpcert.cli as cli; cli.build_parser()")


def import_cli(root: Path):
    """qpcert.cli from root/src, or None if the checkout has no sources."""
    src = root / "src"
    if not (src / "qpcert" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import qpcert.cli as cli

    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        return None
    return cli


def run_op(cli, argv):
    """(exit code, stdout text, nanoseconds inside main)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter_ns()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        ns = time.perf_counter_ns() - start
    return rc, out.getvalue(), ns


class Runner:
    """Runs passes over the ops, checks every result, records failures."""

    def __init__(self, cli, ops, seed):
        self.cli, self.ops = cli, ops
        self.rng = random.Random(f"order/{seed}")
        self.attempted = self.failed = 0
        self.failures = {}

    def one(self, op):
        rc, out, ns = run_op(self.cli, op.argv)
        self.attempted += 1
        problem = checks.check(op, rc, out)
        if problem is not None:
            self.failed += 1
            self.failures.setdefault(op.id, problem)
        return ns, len(out.encode())

    def warm_up(self, seconds=2.0):
        """Run ops, unmeasured and uncounted, for up to one pass or `seconds`."""
        start = time.perf_counter()
        for op in self.ops:
            run_op(self.cli, op.argv)
            if time.perf_counter() - start > seconds:
                break

    def pass_(self):
        """One pass over every op in a fresh shuffled order.

        Returns (op, measured ns, ns at the reference speed, output bytes)
        per op.  reference_ns() runs before the pass and after every
        SEGMENT_NS of op time; each op is scaled by the faster of the two
        reference measurements around it.
        """
        order = list(self.ops)
        self.rng.shuffle(order)
        gc.collect()
        times, segment = [], []
        before = reference_ns()
        for i, op in enumerate(order):
            segment.append((op, *self.one(op)))
            if sum(ns for _, ns, _ in segment) >= SEGMENT_NS or i == len(order) - 1:
                after = reference_ns()
                scale = REFERENCE_NS / min(before, after)
                times += [(op, ns, ns * scale, nbytes) for op, ns, nbytes in segment]
                before, segment = after, []
        return times


def reference_ns() -> int:
    """Time of a fixed piece of pure-Python work that does not use qpcert.

    On a shared 2-core VM the time of one fixed pure-Python loop drifted
    between 39 and 75 ms within 40 s, and 20-s runs of the same ops
    differed by 10-20%.  Times are therefore reported at the reference
    speed, at which this work takes REFERENCE_NS: measured time *
    REFERENCE_NS / reference_ns() measured next to it.
    """
    start = time.perf_counter_ns()
    series([1], (1, 2, 3, 4, 5), 1500)
    total = Fraction(0)
    for i in range(1, 150):
        total += Fraction(1, i)
    for n in range(300):
        evaluate(_ANDREWS, n)
    return time.perf_counter_ns() - start


def measure_setup(root: Path) -> float:
    """Median time, at the reference speed, of a fresh interpreter
    importing qpcert.cli and building its parser."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    samples = []
    before = reference_ns()
    for i in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=root, check=True)
        elapsed = time.perf_counter() - start
        after = reference_ns()
        if i:  # the first run may still be writing bytecode caches
            samples.append(elapsed * REFERENCE_NS / min(before, after))
        before = after
    return statistics.median(samples)


def measure_rss(root: Path, work: Path, ops) -> float:
    """Peak RSS in MiB of a fresh process running each op once."""
    argv_file = work / "argv.json"
    argv_file.write_text(json.dumps([op.argv for op in ops]))
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--rss-child", str(argv_file)],
                          cwd=root, check=True, capture_output=True, text=True)
    return float(proc.stdout.split()[-1])


def rss_child(root: Path, argv_file: str) -> int:
    import resource

    cli = import_cli(root)
    for argv in json.loads(Path(argv_file).read_text()):
        run_op(cli, argv)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return 0


def end_to_end(runner, seconds, root, work):
    setup_s = measure_setup(root)
    rss = measure_rss(root, work, runner.ops)
    runner.warm_up()
    latencies = []  # ms of every measured op call, at the reference speed
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(latencies) < MIN_OPS:
        latencies += [scaled / 1e6 for _, _, scaled, _ in runner.pass_()]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (1e3 * len(latencies) / sum(latencies), "1/s"),
        "op_ms_p50": (statistics.median(latencies), "ms"),
        "op_ms_p90": (statistics.quantiles(latencies, n=10, method="inclusive")[8], "ms"),
        "peak_rss_mib": (rss, "MiB"),
    }


# Per-layer metric -> (layer, aggregate from spans.self_times).  Times
# ("ns", "self_ns") are reported in ms per op, counters per op.
LAYER_METRICS = {
    "cli.main.self_ms": ("cli.main", "self_ns"),
    "closedform.parse.ms": ("closedform.parse", "ns"),
    "closedform.parse.calls": ("closedform.parse", "calls"),
    "closedform.expr_to_qp.self_ms": ("closedform.expr_to_qp", "self_ns"),
    "closedform.expr_to_qp.calls": ("closedform.expr_to_qp", "calls"),
    "closedform.expr_eval.ms": ("closedform.expr_eval", "ns"),
    "closedform.expr_eval.calls": ("closedform.expr_eval", "calls"),
    "quasipoly.floor_div.self_ms": ("quasipoly.floor_div", "self_ns"),
    "quasipoly.floor_div.calls": ("quasipoly.floor_div", "calls"),
    "quasipoly.floor_div.residues": ("quasipoly.floor_div", "residues"),
    "quasipoly.canonical.ms": ("quasipoly.canonical", "ns"),
    "quasipoly.canonical.calls": ("quasipoly.canonical", "calls"),
    "quasipoly.arith.self_ms": ("quasipoly.arith", "self_ns"),
    "quasipoly.arith.calls": ("quasipoly.arith", "calls"),
    "quasipoly.eval.ms": ("quasipoly.eval", "ns"),
    "quasipoly.eval.calls": ("quasipoly.eval", "calls"),
    "polynomial.interpolate.ms": ("polynomial.interpolate", "ns"),
    "polynomial.interpolate.calls": ("polynomial.interpolate", "calls"),
    "polynomial.interpolate.points": ("polynomial.interpolate", "points"),
    "genfunc.coeffs.ms": ("genfunc.coeffs", "ns"),
    "genfunc.coeffs.calls": ("genfunc.coeffs", "calls"),
    "genfunc.coeffs.terms": ("genfunc.coeffs", "terms"),
    "genfunc.coeffs.recurrence_steps": ("genfunc.coeffs", "recurrence_steps"),
    "certify.certify.self_ms": ("certify.certify", "self_ns"),
    "certify.window.checks": ("certify.certify", "checks"),
    "certify.rebuild_model.self_ms": ("certify.rebuild_model", "self_ns"),
    "certify.soundness_probe.self_ms": ("certify.soundness_probe", "self_ns"),
    "certify.soundness_probe.probes": ("certify.soundness_probe", "probes"),
    "certify.fit_quasipoly.self_ms": ("certify.fit_quasipoly", "self_ns"),
    "certify.fit_quasipoly.candidates": ("certify.fit_quasipoly", "candidates"),
}


def per_layer(runner, seconds):
    """Alternate untraced and traced passes; per-op layer metrics."""
    runner.warm_up()
    totals = defaultdict(Counter)
    op_ns = root_ns = ops = out_bytes = 0
    overhead = []
    start = time.perf_counter()
    while not overhead or time.perf_counter() - start < seconds:
        plain = sum(ns for _, ns, _, _ in runner.pass_())
        with spans.Tracer() as tracer:
            results = runner.pass_()
        traced = sum(ns for _, ns, _, _ in results)
        overhead.append((traced - plain) / traced)
        op_ns += traced
        ops += len(results)
        out_bytes += sum(nbytes for *_, nbytes in results)
        root_ns += spans.root_ns(tracer.spans)
        for layer, agg in spans.self_times(tracer.spans).items():
            totals[layer].update(agg)

    # The root spans lie inside the measured op time; none means cli.main
    # was not wrapped.
    if not 0 < root_ns <= op_ns:
        raise AssertionError(f"root spans {root_ns} ns against op time {op_ns} ns")
    attributed = sum(agg["self_ns"] for agg in totals.values())
    metrics = {}
    for name, (layer, key) in LAYER_METRICS.items():
        value = totals[layer][key] / ops
        metrics[name] = (value / 1e6, "ms") if key.endswith("ns") else (value, "count")
    canonical = totals["quasipoly.canonical"]
    metrics["cli.main.out_bytes"] = (out_bytes / ops, "bytes")
    metrics["quasipoly.canonical.reduced_share"] = (
        canonical["reduced"] / canonical["calls"] if canonical["calls"] else 0.0, "share")
    metrics["trace.overhead_share"] = (statistics.median(overhead), "share")
    metrics["trace.unattributed_share"] = ((op_ns - attributed) / op_ns, "share")
    return metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description="qpcert benchmark")
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--rss-child", metavar="ARGV_JSON", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.rss_child is None and args.workload is None:
        p.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if args.rss_child:
        return rss_child(root, args.rss_child)
    cli = import_cli(root)
    if cli is None:
        print("error: no qpcert sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        try:
            ops = WORKLOADS[args.workload](args.seed, work)
        except OracleMismatch as exc:
            print(f"error: set-up aborted, oracle disagrees: {exc}", file=sys.stderr)
            return 3
        runner = Runner(cli, ops, args.seed)
        if args.trace:
            metrics = per_layer(runner, args.seconds)
        else:
            metrics = end_to_end(runner, args.seconds, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    by_id = {op.id: op for op in ops}
    for op_id, problem in sorted(runner.failures.items()):
        op = by_id[op_id]
        print(f"FAILED {op_id}: {problem}; argv={op.argv!r}; known answer={op.expect!r}",
              file=sys.stderr)
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
