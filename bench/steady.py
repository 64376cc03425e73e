"""Steadiness check of the benchmark itself: an A/A run of the same code.

    python3 bench/steady.py

Runs bench/run.py (end-to-end mode, run_seconds from BENCHMARK.json)
once per seed 1..10, workload and set A/B, as separate processes,
interleaving the two sets seed by seed.  For every workload and
end-to-end metric it prints each set's median and spread (interquartile
distance over the median, across seeds) and the drift of set B's median
from set A's in the metric's worse direction, against the bound in
BENCHMARK.json.  A spread above the bound (setup_s excepted) or a drift
above it fails; the aim is spreads below a third of the bound.  It then
runs the traced mode twice per workload on one seed and requires every
count metric to repeat exactly.

Exit code 0 when everything is within bounds, 1 otherwise.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEEDS = range(1, 11)
SETS = 2  # A and B


def run(workload, seed, seconds, trace=0):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed ops")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    workloads = [w["name"] for w in SPEC["workloads"]]
    values = {}  # (set, workload, metric) -> [values by seed]
    for seed in SEEDS:
        for s in range(SETS):
            for w in workloads:
                for metric, value in run(w, seed, SPEC["run_seconds"]).items():
                    values.setdefault((s, w, metric), []).append(value)
                print(f"seed {seed} set {s} {w} done", file=sys.stderr, flush=True)

    ok = True
    report = []
    print(f"{'workload':14} {'metric':13} {'bound':>6} " + " ".join(
        f"{'med' + str(s):>11} {'spr' + str(s):>6}" for s in range(SETS)) + f" {'drift':>7}")
    for w in workloads:
        for spec in SPEC["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            meds = [statistics.median(values[(s, w, name)]) for s in range(SETS)]
            sprs = [spread(values[(s, w, name)]) for s in range(SETS)]
            sign = 1 if spec["better"] == "lower" else -1
            drift = sign * (meds[-1] - meds[0]) / meds[0]
            bad = drift > bound or (name != "setup_s" and max(sprs) > bound)
            ok = ok and not bad
            report.append({"workload": w, "metric": name, "bound": bound, "medians": meds,
                           "spreads": sprs, "drift": drift, "ok": not bad,
                           "values": [values[(s, w, name)] for s in range(SETS)]})
            print(f"{w:14} {name:13} {bound:6.3f} " + " ".join(
                f"{m:11.5g} {x:6.3f}" for m, x in zip(meds, sprs))
                + f" {drift:+7.3f}{'  FAIL' if bad else ''}")

    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    for w in workloads:
        a, b = run(w, 1, 2, trace=1), run(w, 1, 2, trace=1)
        same = all(a[c] == b[c] for c in counts)
        ok = ok and same
        print(f"{w}: count metrics {'repeat exactly' if same else 'DIFFER'}")
    print(json.dumps({"ok": ok, "report": report}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
