"""Correctness check of one op's exit code and output against its known answer.

Outputs are read back in whichever format the op asked for (text, json
or csv) into one normal form, so every format is held to the same
answer.  check() returns None for a correct op, else a one-line reason.
"""

from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction


def _csv_fields(out: str) -> dict:
    rows = list(csv.reader(io.StringIO(out)))
    return {row[0]: row[1] for row in rows[1:]}


def _int_or_none(text):
    return None if text in (None, "") else int(text)


def read_certify(out: str, fmt: str) -> dict:
    if fmt == "json":
        r = json.loads(out)["result"]
        w, p = r["witness"], r["probe"]
        return {
            "verdict": r["verdict"],
            "degree_bound": int(r["degree_bound"]),
            "period": int(r["period"]),
            "onset": int(r["onset"]),
            "start": int(r["window"]["start"]),
            "stop": int(r["window"]["stop"]),
            "checks": int(r["window"]["checks"]),
            "witness": None if w is None else (int(w["n"]), int(w["lhs"]), int(w["rhs"])),
            "probe_agreed": None if p is None else p["agreed"],
        }
    if fmt == "csv":
        f = _csv_fields(out)
        has_w = f.get("witness.n") is not None
        return {
            "verdict": f["verdict"],
            "degree_bound": int(f["degree_bound"]),
            "period": int(f["period"]),
            "onset": int(f["onset"]),
            "start": int(f["window.start"]),
            "stop": int(f["window.stop"]),
            "checks": int(f["window.checks"]),
            "witness": (int(f["witness.n"]), int(f["witness.lhs"]), int(f["witness.rhs"]))
            if has_w else None,
            "probe_agreed": None if "probe.agreed" not in f else f["probe.agreed"] == "true",
        }
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    window = re.fullmatch(r"\[(-?\d+), (-?\d+)\) \((\d+) checks\)", lines["window"])
    witness = None
    if "witness" in lines:
        witness = tuple(int(v) for v in re.fullmatch(
            r"n=(-?\d+) lhs=(-?\d+) rhs=(-?\d+)", lines["witness"]).groups())
    probe = None
    if "probe" in lines:
        probe = lines["probe"].endswith(": agreed")
    return {
        "verdict": lines["verdict"],
        "degree_bound": int(lines["degree bound"]),
        "period": int(lines["period"]),
        "onset": int(lines["onset"]),
        "start": int(window.group(1)),
        "stop": int(window.group(2)),
        "checks": int(window.group(3)),
        "witness": witness,
        "probe_agreed": probe,
    }


def read_coeffs(out: str, fmt: str) -> list:
    if fmt == "json":
        return json.loads(out)["result"]["coefficients"]
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))[1:]
        if any(row[0] != str(n) for n, row in enumerate(rows)):
            raise ValueError("csv rows are not numbered 0, 1, 2, ...")
        return [row[1] for row in rows]
    return out.split()


def read_fit(out: str, fmt: str):
    """(period, holdout_verified, constituents as lists of Fractions)."""
    if fmt == "json":
        r = json.loads(out)["result"]
        period = int(r["period"])
        cons = [r["constituents"][str(i)] for i in range(period)]
        verified = r["holdout_verified"]
    elif fmt == "csv":
        f = _csv_fields(out)
        period = int(f["period"])
        cons = [f[f"constituents.{i}"].split() for i in range(period)]
        verified = f["holdout_verified"] == "true"
    else:
        lines = dict(line.split(": ", 1) for line in out.splitlines())
        period = int(lines["period"])
        cons = [lines[f"constituent {i}"].split() for i in range(period)]
        verified = lines["holdout_verified"] == "true"
    return period, verified, [[Fraction(c) for c in cs] for cs in cons]


def read_paper(out: str, fmt: str):
    """(coefficients, formula values, equal flag)."""
    if fmt == "json":
        r = json.loads(out)["result"]
        return [int(v) for v in r["coefficients"]], [int(v) for v in r["formula"]], r["equal"]
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))[1:]
        return [int(r[1]) for r in rows], [int(r[2]) for r in rows], True
    lines = out.splitlines()
    rows = [line.split() for line in lines[1:-1]]
    return [int(r[1]) for r in rows], [int(r[2]) for r in rows], lines[-1] == "true"


def _value(constituents, period, n):
    acc = Fraction(0)
    for c in reversed(constituents[n % period]):
        acc = acc * n + c
    return acc


def check(op, rc, out: str):
    """None if the op's exit code and output match its known answer."""
    if rc != op.exit_code:
        return f"exit code {rc}, expected {op.exit_code}"
    try:
        if op.kind == "certify":
            got = read_certify(out, op.fmt)
            for key, want in op.expect.items():
                if got[key] != want:
                    return f"{key} is {got[key]!r}, expected {want!r}"
        elif op.kind == "coeffs":
            got = read_coeffs(out, op.fmt)
            want = op.expect["coefficients"]
            if got != want:
                n = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                         min(len(got), len(want)))
                return f"coefficients differ from the oracle first at n={n}"
        elif op.kind == "fit":
            period, verified, cons = read_fit(out, op.fmt)
            samples = op.expect["samples"]
            bad = [n for n, v in enumerate(samples) if _value(cons, period, n) != v]
            if bad:
                return f"fitted model misses sample n={bad[0]}"
            if not verified:
                return "holdout_verified is false"
        elif op.kind == "paper":
            coeffs, formula, equal = read_paper(out, op.fmt)
            if (coeffs, formula, equal) != (op.expect["coefficients"], op.expect["formula"], True):
                return "37-term table differs from the oracle"
    except (KeyError, ValueError, TypeError, AttributeError, IndexError) as exc:
        return f"unreadable {op.fmt} output: {exc!r}"
    return None
