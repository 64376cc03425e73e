#!/usr/bin/env python3
"""Mutation runner for the functions every certify window rests on, and the CLI's readers.

    python tools/mutate.py                          # every target below
    python tools/mutate.py closedform._floor_period # one or more targets

A target is module.function or module.Class.method in src/qpcert, listed
in TARGETS with the tests its mutants run against.  Each mutant is one
small edit to one target, made on its AST: an operator swapped (+ -,
* //, and or, ...), an integer constant moved by +-1 or a bool flipped,
a range() bound moved by +-1, or a comparison flipped (< <=, == !=,
...); EXTRA adds hand-written ones, each one or more snippets of the
target replaced.  One pytest.main call per set of tests collects them
once and runs them unmutated in a forked child; then one child per
mutant gives the live function the mutated code and defaults, empties
closedform's cache of compiled texts, and runs them with -x, a fixed
hypothesis seed and no example database (a test that starts a fresh
interpreter sees no mutant).  A mutant is killed if the run fails or
outlasts max(30 s, 3 times the unmutated run).  A survivor listed in
EQUIVALENT is reported with the reason it changes no certificate; any
other survivor makes the script exit 1.  So does an EQUIVALENT label
whose mutant was killed, since its reason no longer holds, and one of a
target that was run but that none of its mutants makes, since the code
it described has changed.
It needs pytest and hypothesis; the tier-1 suite does not collect it.
"""

import __future__
import ast
import copy
import os
import pkgutil
import resource
import signal
import sys
import time
from pathlib import Path

import pytest
from hypothesis import configuration, settings

ROOT = Path(__file__).resolve().parent.parent

# test_certify.py holds the adversarial-GF test, which certifies a GF
# built on expr_bounds' own (degree, period) and reads it past the window,
# and the test that certify's window, from the fold given lcm(parts),
# is the one expr_bounds' full search sizes; test_closedform.py counts
# the fold's expr_values passes with and without that period
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
# test_closedform.py checks expr_values, which compiles every range and
# list it is given, against expr_eval and the Fraction oracle on ranges of
# 0 to 2048 values, with a constant past the int-to-str limit and with
# texts too deep to compile, over a range and over a list near 10^30; it
# pins the source binding's text, that an index that is not an int raises
# before any compile, which calls reuse a compiled text and that the cache
# of them stays within its bound; test_certify.py pins how many texts a
# certify window and the full period search compile, cold and warm.  The
# fixed cases come first: a wrong text or a stale cache entry fails them at
# once, where the period searches of the rest of test_closedform.py could
# run on wrong values to the time limit
_CF = "tests/test_closedform.py::"
_VALUES = tuple(_CF + name for name in (
    "test_source_builds_text_and_rejects_unsupported_operands",
    "test_wide_expr_values_bind_constants_by_name",
    "test_wide_expr_values_too_deep_to_compile_fall_back",
    "test_wide_expr_values_reuse_the_code_of_one_shape",
    "test_wide_expr_values_remember_a_text_too_deep_to_compile",
    "test_wide_expr_values_forget_running_out_of_memory",
    "test_wide_expr_values_keep_the_cache_within_its_bound",
    "test_expr_values_broadcast_constant",
    "test_expr_values_takes_any_int_iterable",
    "test_wide_expr_values_match_eval_and_oracle",
    "test_expr_values_match_expr_eval",
    "test_expr_values_match_fraction_oracle",
)) + ("tests/test_certify.py::test_only_a_wide_window_is_compiled",)
# test_cli.py checks _ints against int() of each field and pins which
# texts the json scanner reads, checks what _read_argv reads against the
# command parser's namespace on drawn argv and pins the calls it must take;
# test_cli_golden.py pins every CLI byte, help and usage errors included
_CLI = ("tests/test_cli.py", "tests/test_cli_golden.py")

# target -> the tests each of its mutants runs against
TARGETS = {
    "closedform._bounds": _BOUNDS,
    "closedform._floor_period": _BOUNDS,
    "closedform._prime_factors": _BOUNDS,
    "closedform.expr_values": _VALUES,
    **{f"closedform._Source.{method}": _VALUES for method in (
        "_text", "_apply", "__add__", "__sub__", "__rsub__", "__mul__", "__neg__", "__pow__",
        "__floordiv__")},
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
    "cli._read_argv": _CLI,
}

# target -> [(label, source text in the target, replacement[, text, replacement ...])]
EXTRA = {
    "closedform._floor_period": [
        # once survived every tier-1 test and certified a false identity
        ("period search from m*d, not m*lcm(1..d)", "math.lcm(*range(1, s + 1))", "s"),
    ],
    "genfunc.RationalGF.period_bound": [
        ("the largest part, not lcm(parts)", "math.lcm(*self.parts)", "max(self.parts)"),
    ],
    # how expr_values reads its indices and falls back, and edits of the
    # text that the source binding's operators build, which no operator
    # swap reaches
    "closedform.expr_values": [
        ("a list read without operator.index", "list(map(operator.index, ns))", "list(ns)"),
        ("the fallback repeats the first value", "[_interpret(e, n) for n in ns]",
         "[_interpret(e, ns[0]) for n in ns]"),
        ("no fallback past the parser's nesting limit", "except (SyntaxError, RecursionError",
         "except (RecursionError"),
        # the cache of compiled texts: each of these reuses what an earlier
        # call of another text, or of other constants or another range, left
        ("a key that ignores the text", "_CODES.get(text)", "_CODES.get(len(text))",
         "_CODES[text] = compile", "_CODES[len(text)] = compile",
         "_CODES[text] = False", "_CODES[len(text)] = False"),
        ("the first call's values kept, not the code", "return eval(code, scope)",
         "return _CODES.setdefault(code, eval(code, scope))"),
        ("the first call's scope kept with the code", "eval(code, scope)",
         "eval(code, _CODES.setdefault(code, scope))"),
        ("a refused compile not remembered", "code = _CODES[text] = False", "code = False"),
    ],
    "closedform._Source._text": [
        ("spell an int's digits, not its name", "name = f'c{len(self.scope)}'", "name = repr(x)"),
        ("one name for every int", "f'c{len(self.scope)}'", "'c'"),
    ],
    "closedform._Source._apply": [
        ("no parentheses", "f'({self._text(left)}{symbol}{self._text(right)})'",
         "f'{self._text(left)}{symbol}{self._text(right)}'"),
        ("operands swapped", "{self._text(left)}{symbol}{self._text(right)}",
         "{self._text(right)}{symbol}{self._text(left)}"),
    ],
    "closedform._Source.__add__": [("+ as -", "'+'", "'-'")],
    "closedform._Source.__sub__": [("- as +", "'-'", "'+'")],
    "closedform._Source.__rsub__": [("x - n as n - x", "_apply(other, '-', self)",
                                     "_apply(self, '-', other)")],
    "closedform._Source.__mul__": [("* as +", "'*'", "'+'")],
    "closedform._Source.__neg__": [("no minus", "f'(-{self.text})'", "f'({self.text})'")],
    "closedform._Source.__pow__": [("** as *", "'**'", "'*'")],
    "closedform._Source.__floordiv__": [("// as /", "'//'", "'/'")],
}

_CAP = "closedform._prime_factors: q * q <= n and q < 1 << 16 -> "
_STEP = "closedform._prime_factors: q += 1 if q == 2 else 2 -> "
_START = ("closedform._floor_period: t = math.gcd(m * math.lcm(*range(1, s + 1)), "
          "m ** (s + 1)) -> ")
_ONE = ("lists a last 1 after the primes; dividing T by 1 never shrinks lcm(cover, p*T), "
        "so _floor_period never tests it")
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
        "the descent divides t down to 1, or given a cover only while that "
        "shrinks lcm(cover, p*t), which leaves the lcm as at t = 1",
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
    _CAP + "q * q <= n or q < 1 << 16": _PAST_ROOT,
    _CAP + "q // q <= n and q < 1 << 16": _PAST_ROOT,
    _CAP + "q * q <= n and q <= 1 << 16": "q is odd past 2, so it never equals 2^16",
    _CAP + "q * q <= n and q < 2 << 16": _CAP_MOVED,
    _CAP + "q * q <= n and q < 1 << 17": _CAP_MOVED,
    _CAP + "q * q <= n and q < 1 << 15": _CAP_MOVED,
    "closedform._prime_factors: n > 1 -> n >= 1": _ONE,
    "closedform._prime_factors: n > 1 -> n > 0": _ONE,
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
    for label, *edits in EXTRA.get(target, ()):
        source = original
        for old, new in zip(edits[::2], edits[1::2]):
            if original.count(old) != 1:
                raise SystemExit(f"EXTRA mutant {label!r}: {old!r} is not in {target} exactly once")
            source = source.replace(old, new)
        out.append((f"{target}: {label}", source))
    return out


def _swap(target: str, source: str) -> None:
    """Give target's live function the code and defaults of the function in source; every
    `from ... import` alias and the class __dict__ hold that object, so every caller sees it."""
    live = pkgutil.resolve_name(f"qpcert.{target}")
    exec(compile(source, live.__code__.co_filename, "exec", __future__.annotations.compiler_flag,
                 dont_inherit=True), live.__globals__, space := {})
    for name in "__code__", "__defaults__", "__kwdefaults__":
        setattr(live, name, getattr(space[live.__name__], name))


def _run(session, loop, limit: float, target=None, source=None) -> str:
    """The tests in a forked child, under source if given: 'passed', 'failed' or 'timed out'."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            resource.setrlimit(resource.RLIMIT_AS, (_ADDRESS_SPACE, _ADDRESS_SPACE))
            if source:
                _swap(target, source)
            # code compiled before the mutant's own could hide what it computes
            pkgutil.resolve_name("qpcert.closedform._CODES").clear()
            signal.setitimer(signal.ITIMER_REAL, limit)  # SIGALRM after limit s; 0: never
            loop(session=session)  # pytest's own loop, which stops at the first failure (-x)
            code = 1 if session.testsfailed else 0
        finally:
            os._exit(code)
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    return "passed" if code == 0 else "timed out" if code == -signal.SIGALRM else "failed"


class _Mutants:
    """pytest plugin: collect the tests once, then run them unmutated and under each mutant."""

    def __init__(self, made):
        self.made = made  # [(target, label, source)]
        self.unlisted = None  # survivors not in EQUIVALENT; None if the unmutated tests fail
        self.killed = []  # EQUIVALENT labels whose mutant was killed

    def pytest_configure(self):
        # no examples carried between mutants: the tests' settings(), made as they are
        # collected, inherit this profile; and hypothesis writes none of its caches,
        # since nothing can be created under os.devnull
        settings.register_profile("mutate", database=None)
        settings.load_profile("mutate")
        configuration.set_hypothesis_home_dir(os.devnull)

    def pytest_runtestloop(self, session):
        loop = session.config.pluginmanager.subset_hook_caller("pytest_runtestloop", [self])
        start = time.perf_counter()
        if _run(session, loop, 0) != "passed":
            return True
        limit = max(30.0, 3 * (time.perf_counter() - start))
        self.unlisted = []
        for target, label, source in self.made:
            outcome = _run(session, loop, limit, target, source)
            if outcome != "passed":
                outcome = f"killed ({outcome})"
                if label in EQUIVALENT:
                    outcome += ", but listed as EQUIVALENT"
                    self.killed.append(label)
            elif label in EQUIVALENT:
                outcome = f"survived, equivalent: {EQUIVALENT[label]}"
            else:
                outcome = "SURVIVED"
                self.unlisted.append(label)
            print(f"{label}  [{outcome}]", flush=True)
        return True


def main(argv) -> int:
    targets = argv or list(TARGETS)
    unknown = [target for target in targets if target not in TARGETS]
    if unknown:
        raise SystemExit(f"not in TARGETS: {', '.join(unknown)}")
    os.chdir(ROOT)  # pyproject's pythonpath puts src/ first
    made = {target: mutants(target) for target in targets}
    labels = {label for pairs in made.values() for label, _ in pairs}
    stale = [label for label in EQUIVALENT if label.split(": ")[0] in made and label not in labels]
    unlisted, killed = [], []
    for tests in dict.fromkeys(TARGETS[target] for target in targets):
        plugin = _Mutants([(target, label, source) for target in targets if TARGETS[target] == tests
                           for label, source in made[target]])
        pytest.main(["-x", "-p", "no:terminal", "-p", "no:cacheprovider", "--hypothesis-seed=0",
                     *tests], plugins=[plugin])
        if plugin.unlisted is None:
            print(f"the unmutated {' '.join(tests)} fail; no mutant was run")
            return 2
        unlisted += plugin.unlisted
        killed += plugin.killed
    print(f"{len(unlisted)} survivor(s) not listed as equivalent")
    for label in unlisted:
        print(f"  {label}")
    print(f"{len(killed)} EQUIVALENT label(s) whose mutant was killed")
    for label in killed:
        print(f"  {label}")
    print(f"{len(stale)} EQUIVALENT label(s) that no mutant of their target makes")
    for label in stale:
        print(f"  {label}")
    return 1 if unlisted or killed or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
