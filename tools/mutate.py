#!/usr/bin/env python3
"""Mutation runner for the functions every certify window rests on, and the CLI's int reader.

    python tools/mutate.py                          # every target below
    python tools/mutate.py closedform._floor_period # one or more targets

A target is module.function or module.Class.method in src/qpcert, listed
in TARGETS with the tests its mutants run against.  Each mutant is one
small edit to one target, made on its AST: an operator swapped (+ -,
* //, and or, ...), an integer constant moved by +-1 or a bool flipped,
a range() bound moved by +-1, or a comparison flipped (< <=, == !=,
...); EXTRA adds hand-written ones.  Each mutant is written into a copy
of src/ and tests/ in a temporary directory, the target's lines
replaced by the mutated function, and the target's tests run there
with -x and a fixed hypothesis seed.  The mutant is killed if the run
fails or exceeds its time limit.  A survivor listed in EQUIVALENT is
reported with the reason it changes no certificate; any other survivor
makes the script exit 1, and so does an EQUIVALENT label of a target
that was run but that none of its mutants makes, since the code it
described has changed.

Standard library only.  The tier-1 suite does not collect this file.
"""

from __future__ import annotations

import ast
import copy
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# test_certify.py holds the adversarial-GF test, which certifies a GF
# built on expr_bounds' own (degree, period) and reads it past the window
_BOUNDS = ("tests/test_closedform.py", "tests/test_certify.py")
# test_genfunc.py checks every expansion against the truncated-series
# oracle, over tiles, heads and both branches of _divide
_SERIES = ("tests/test_genfunc.py",)
# test_certify.py checks verdicts and witnesses against brute-force scans
# and feeds the probe tampered certificates; test_acceptance.py checks
# that every single-parameter corruption of the triangle GF refutes
_CERTIFY = ("tests/test_certify.py", "tests/test_acceptance.py")
# test_genfunc.py checks coeffs_at against the series oracle in both
# regimes; its far-onset pins, certify and the probe reading lifted
# coefficients near 10^7 and 10^12, live in test_certify.py
_FAR = "tests/test_certify.py::"
_COEFFS_AT = ("tests/test_genfunc.py",
              _FAR + "test_certify_far_onset_reads_lifted_coefficients",
              _FAR + "test_certify_far_onset_refutes_with_lifted_coefficients",
              _FAR + "test_certify_near_onset_reads_the_expansion",
              _FAR + "test_soundness_probe_far_past_any_expansion",
              _FAR + "test_far_probe_rejects_formula_that_departs_past_10_to_12",
              _FAR + "test_rebuild_model_matches_expression")
# test_cli.py checks _ints against int() of each field and pins which
# texts the json scanner reads; test_cli_golden.py pins every CLI byte
_CLI = ("tests/test_cli.py", "tests/test_cli_golden.py")

# target -> the tests each of its mutants runs against
TARGETS = {
    "closedform._bounds": _BOUNDS,
    "closedform._floor_period": _BOUNDS,
    "closedform._prime_factors": _BOUNDS,
    "certify._ranges": _BOUNDS,
    "certify.certify": _CERTIFY,
    "certify.soundness_probe": _CERTIFY,
    "genfunc.RationalGF.onset": _BOUNDS,
    "genfunc.RationalGF.degree_bound": _BOUNDS,
    "genfunc.RationalGF.period_bound": _BOUNDS,
    "genfunc._divide": _SERIES,
    "genfunc.RationalGF.coeffs": _SERIES,
    "genfunc.RationalGF.coeffs_at": _COEFFS_AT,
    "cli._ints": _CLI,
}

# target -> [(label, source text in the target, replacement)]
EXTRA = {
    "closedform._floor_period": [
        # once survived every tier-1 test and certified a false identity
        ("period search from m*d, not m*lcm(1..d)", "math.lcm(*range(1, s + 1))", "s"),
    ],
    "genfunc.RationalGF.period_bound": [
        ("the largest part, not lcm(parts)", "math.lcm(*self.parts)", "max(self.parts)"),
    ],
}

_CAP = "closedform._prime_factors: q * q <= n and q < 1 << 16 -> "
_STEP = "closedform._prime_factors: q += 1 if q == 2 else 2 -> "
_START = ("closedform._floor_period: t = math.gcd(m * math.lcm(*range(1, s + 1)), "
          "m ** (s + 1)) -> ")
_BLOCK = ("closedform._floor_period: return [v % m for v in expr_values(x, range(a, a + span))] "
          "-> return [v % m for v in expr_values(x, ")
_WIDER = ("the base block and every test block widen alike, and a block longer than "
          "d*p only checks more values of the same congruence")
_CAP_MOVED = ("moves the trial-division cap, which only a cofactor of 2^30 or more "
              "reaches; listing it whole loses minimality, not a period")
_PAST_ROOT = ("trial division runs on to 2^16 past sqrt(n); no q that divides the "
              "reduced n is composite, so the same primes are found")

_SEED = ("certify.soundness_probe: cert: Certificate, probes: int, n_max: int, seed: int=0 "
         "-> cert: Certificate, probes: int, n_max: int, ")
_OTHER_SEED = ("the default seed only draws other indices; the CLI passes its own --seed, "
               "and a certified identity agrees at every index")

_AT = "genfunc.RationalGF.coeffs_at: "
_CHOICE = "deg_r >= top or len(indices) * (deg_r // lift + 1 + _LIFT_COST) > (top + 1) * k"
_REGIME = ("moves the boundary between coeffs_at's two regimes, each of which reads every "
           "coefficient exactly; only the cost of a call changes")

_DIVIDE = "genfunc._divide: "
_BRANCH = ("moves the branch point between the two loop orders, which compute "
           "the same pass for every b")
_EMPTY_TAIL = "adds one start at or past the series' end, whose slices are empty"

# label -> why the mutant changes no certificate
EQUIVALENT = {
    "closedform._floor_period: d == 0 -> d == -1":
        "a shortcut: with d = 0 every block is empty, so every test passes and "
        "the descent divides t down to 1",
    "closedform._floor_period: s = 0 if floor_free else d -> s = 1 if floor_free else d":
        "lcm(1..1) = 1, so the start is gcd(m, m^2) = m, as with s = 0",
    _START + "t = math.gcd(m * math.lcm(*range(1, s + 1)), m ** (s + 2))":
        "m^(s+1) already holds each prime of m to a higher power than "
        "m*lcm(1..s) does, so the gcd is the same",
    _START + "t = math.gcd(m * math.lcm(*range(2, s + 1)), m ** (s + 1))":
        "lcm(2..s) = lcm(1..s)",
    _START + "t = math.gcd(m * math.lcm(*range(1, s + 2)), m ** (s + 1))":
        "the least T divides a start from lcm(1..s+1) too, so the descent ends "
        "at it, only with one more test where s + 1 is a power of a prime of m",
    _BLOCK + "range(a - 1, a + span))]": _WIDER,
    _BLOCK + "range(a, a + span + 1))]": _WIDER,
    _CAP + "q * q <= n or q < 1 << 16": _PAST_ROOT,
    _CAP + "q // q <= n and q < 1 << 16": _PAST_ROOT,
    _CAP + "q * q <= n and q <= 1 << 16": "q is odd past 2, so it never equals 2^16",
    _CAP + "q * q <= n and q < 2 << 16": _CAP_MOVED,
    _CAP + "q * q <= n and q < 1 << 17": _CAP_MOVED,
    _CAP + "q * q <= n and q < 1 << 15": _CAP_MOVED,
    _STEP + "q += 1 if q == 2 else 1":
        "q steps through every integer; a composite q never divides the reduced "
        "n, so the same primes are found",
    _SEED + "seed: int=1": _OTHER_SEED,
    _SEED + "seed: int=-1": _OTHER_SEED,
    _DIVIDE + "b * b <= size -> b * b < size": _BRANCH,
    _DIVIDE + "b * b <= size -> b // b <= size": _BRANCH,
    _DIVIDE + "range(0, size, step) -> range(0, size + 1, step)": _EMPTY_TAIL,
    _DIVIDE + "range(b, size, b) -> range(b, size + 1, b)": _EMPTY_TAIL,
    _DIVIDE + "range(0, size, step) -> range(0, size - 1, step)":
        "drops a last tile only where it starts at the last coefficient, which "
        "is final already: each tile's first row is the one the tile above ends on",
    "genfunc.RationalGF.coeffs: head < size -> head <= size":
        "at head == size the copy repeats zero values",
    _AT + "run = isinstance(indices, range) and indices.step == 1 -> "
          "run = isinstance(indices, range) and indices.step == 0":
        "no range has step 0, so every range is read as the list of its indices, "
        "which gives the same values",
    **{f"{_AT}{_CHOICE} -> {_CHOICE.replace(old, new)}": _REGIME for old, new in (
        ("deg_r >= top", "deg_r > top"), ("> (top", ">= (top"), ("(top + 1) * k", "(top + 1) // k"),
        ("top + 1", "top - 1"), ("top + 1", "top + 2"), ("top + 1", "top + 0"),
        ("lift + 1", "lift - 1"), ("lift + 1", "lift + 2"), ("lift + 1", "lift + 0"),
        ("deg_r // lift", "deg_r * lift"))},
}

_SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult, ast.LShift: ast.RShift, ast.RShift: ast.LShift,
    ast.And: ast.Or, ast.Or: ast.And,
}
_FLIPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}
_ADDRESS_SPACE = 2 << 30  # bytes per test run: a mutant that grows without end dies


def _edits(node):
    """Functions that each apply one mutation in place to a copy of node."""
    if isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in _SWAPS:
        yield lambda n: setattr(n, "op", _SWAPS[type(n.op)]())
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in _FLIPS:
                yield lambda n, i=i: n.ops.__setitem__(i, _FLIPS[type(n.ops[i])]())
    if isinstance(node, ast.Constant) and type(node.value) is bool:
        yield lambda n: setattr(n, "value", not n.value)
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        for delta in (1, -1):
            yield lambda n, delta=delta: setattr(n, "value", n.value + delta)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "range":
        for i, arg in enumerate(node.args):
            if isinstance(arg, (ast.Constant, ast.Starred)) or (
                    isinstance(arg, ast.BinOp) and isinstance(arg.op, (ast.Add, ast.Sub))
                    and isinstance(arg.right, ast.Constant)):
                continue  # a bound c or x +- c is moved by the constant's own edits
            for op in (ast.Add, ast.Sub):
                yield lambda n, i=i, op=op: n.args.__setitem__(
                    i, ast.BinOp(n.args[i], op(), ast.Constant(1)))


def _shown(node, parents):
    """What a mutant's label prints: node's simple statement, or its part of a compound one."""
    while not isinstance(parents[node], ast.stmt):
        node = parents[node]
    return node if hasattr(parents[node], "body") else parents[node]


def _find(tree, qualname):
    """The FunctionDef named by the dotted path qualname inside tree."""
    node = tree
    for name in qualname.split("."):
        node = next(n for n in node.body
                    if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name)
    return node


def mutants(target):
    """(label, function source) for every mutant of target, distinct sources only."""
    module, qualname = target.split(".", 1)
    tree = ast.parse((ROOT / "src" / "qpcert" / f"{module}.py").read_text())
    func = _find(tree, qualname)
    parents = {child: parent for parent in ast.walk(func) for child in ast.iter_child_nodes(parent)}
    nodes = list(ast.walk(func))
    seen = {ast.unparse(func)}
    labels = set()
    out = []
    for i, node in enumerate(nodes):
        for edit in _edits(node):
            j = nodes.index(_shown(node, parents))
            mutated = copy.deepcopy(func)
            walked = list(ast.walk(mutated))
            before = ast.unparse(walked[j])
            edit(walked[i])
            source = ast.unparse(mutated)
            if source in seen:
                continue
            seen.add(source)
            label = f"{target}: {before} -> {ast.unparse(walked[j])}"
            k = 2
            while label in labels:
                label = f"{target}: {before} -> {ast.unparse(walked[j])} (#{k})"
                k += 1
            labels.add(label)
            out.append((label, source))
    original = ast.unparse(func)
    for label, old, new in EXTRA.get(target, ()):
        if original.count(old) != 1:
            raise SystemExit(f"EXTRA mutant {label!r}: {old!r} is not in {target} exactly once")
        out.append((f"{target}: {label}", original.replace(old, new)))
    return out


def _apply(path: Path, qualname: str, source: str) -> None:
    """Replace the definition of qualname in the file at path by source."""
    text = path.read_text()
    func = _find(ast.parse(text), qualname)
    first = min([func.lineno] + [d.lineno for d in func.decorator_list])
    lines = text.splitlines(keepends=True)
    body = textwrap.indent(source, " " * func.col_offset) + "\n"
    path.write_text("".join(lines[:first - 1]) + body + "".join(lines[func.end_lineno:]))


def _limit():
    resource.setrlimit(resource.RLIMIT_AS, (_ADDRESS_SPACE, _ADDRESS_SPACE))


def _run(work: Path, tests, timeout: float | None) -> str:
    """'passed', 'failed' or 'timed out': tests in work, stopping at the first failure."""
    shutil.rmtree(work / ".hypothesis", ignore_errors=True)  # no examples carried between mutants
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *tests]
    # no .pyc: a mutant of the same size written within the same second
    # would otherwise be read from the bytecode of the one before it
    env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run(cmd, cwd=work, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=timeout, preexec_fn=_limit)
    except subprocess.TimeoutExpired:
        return "timed out"
    return "passed" if done.returncode == 0 else "failed"


def main(argv) -> int:
    targets = argv or list(TARGETS)
    unknown = [target for target in targets if target not in TARGETS]
    if unknown:
        raise SystemExit(f"not in TARGETS: {', '.join(unknown)}")
    with tempfile.TemporaryDirectory(prefix="qpcert-mutate-") as tmp:
        work = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", work)
        timeouts = {}
        for tests in dict.fromkeys(TARGETS[target] for target in targets):
            start = time.perf_counter()
            if _run(work, tests, None) != "passed":
                print(f"the unmutated {' '.join(tests)} fail; no mutant was run")
                return 2
            timeouts[tests] = max(30.0, 3 * (time.perf_counter() - start))
        unlisted, stale = [], []
        for target in targets:
            module, qualname = target.split(".", 1)
            path = work / "src" / "qpcert" / f"{module}.py"
            pristine = path.read_text()
            made = mutants(target)
            labels = {label for label, _ in made}
            stale += [label for label in EQUIVALENT
                      if label.startswith(f"{target}: ") and label not in labels]
            for label, source in made:
                _apply(path, qualname, source)
                outcome = _run(work, TARGETS[target], timeouts[TARGETS[target]])
                path.write_text(pristine)
                if outcome == "passed" and label in EQUIVALENT:
                    outcome = f"survived, equivalent: {EQUIVALENT[label]}"
                elif outcome == "passed":
                    outcome = "SURVIVED"
                    unlisted.append(label)
                else:
                    outcome = f"killed ({outcome})"
                print(f"{label}  [{outcome}]", flush=True)
    print(f"{len(unlisted)} survivor(s) not listed as equivalent")
    for label in unlisted:
        print(f"  {label}")
    print(f"{len(stale)} EQUIVALENT label(s) that no mutant of their target makes")
    for label in stale:
        print(f"  {label}")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
