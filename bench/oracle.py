"""Independent reference arithmetic for the benchmark.

Nothing here imports qpcert.  Expressions are small tuples, evaluated
with plain integers; generating functions are expanded by multiplying
truncated geometric series.  Every known answer the benchmark checks
qpcert against comes from this module and from the construction in
workloads.py, never from the program under test.

Expression nodes:
    ("c", v)  ("n",)  ("neg", a)  ("add", a, b)  ("sub", a, b)
    ("mul", a, b)  ("pow", a, k)  ("floor", a, m)  ("round", a, m)
"""

from __future__ import annotations

import math


class OracleMismatch(RuntimeError):
    """The construction and the oracle disagree; the inputs are unusable."""


# -- evaluation ----------------------------------------------------------


def evaluate(e, n: int) -> int:
    """Integer value at n; floor toward -inf, round ties half-up."""
    kind = e[0]
    if kind == "c":
        return e[1]
    if kind == "n":
        return n
    if kind == "neg":
        return -evaluate(e[1], n)
    if kind == "add":
        return evaluate(e[1], n) + evaluate(e[2], n)
    if kind == "sub":
        return evaluate(e[1], n) - evaluate(e[2], n)
    if kind == "mul":
        return evaluate(e[1], n) * evaluate(e[2], n)
    if kind == "pow":
        return evaluate(e[1], n) ** e[2]
    if kind == "floor":
        return evaluate(e[1], n) // e[2]
    if kind == "round":
        return (2 * evaluate(e[1], n) + e[2]) // (2 * e[2])
    raise TypeError(f"not an expression node: {e!r}")


def bounds(e) -> tuple[int, int]:
    """A period and a degree bound of the quasi-polynomial e, by structure.

    A subexpression of period 1 has no floor or round inside, so it is a
    polynomial with integer coefficients, and P(n + m) = P(n) (mod m).
    For an integer-valued operand of period L > 1 and degree d, each
    binomial basis term C(j, k), k <= d, repeats mod m with period
    m*d!, so L*m*d! is a period of floor(a/m).  round(a/m) is
    floor((2a + m)/(2m)).
    """
    kind = e[0]
    if kind == "c":
        return 1, 0
    if kind == "n":
        return 1, 1
    if kind == "neg":
        return bounds(e[1])
    if kind in ("add", "sub", "mul"):
        (p1, d1), (p2, d2) = bounds(e[1]), bounds(e[2])
        return math.lcm(p1, p2), (d1 + d2 if kind == "mul" else max(d1, d2))
    if kind == "pow":
        p, d = bounds(e[1])
        return p, d * e[2]
    if kind in ("floor", "round"):
        p, d = bounds(e[1])
        if p == 1:
            return e[2], d
        m = e[2] if kind == "floor" else 2 * e[2]
        return p * m * math.factorial(d), d
    raise TypeError(f"not an expression node: {e!r}")


# -- concrete syntax -----------------------------------------------------

_LEVEL = {"add": 0, "sub": 0, "mul": 1, "pow": 2}


def render(e, need: int = 0) -> str:
    """Text in the qpcert grammar; parse(render(e)) == e."""
    kind = e[0]
    if kind == "add":
        body = f"{render(e[1], 0)} + {render(e[2], 1)}"
    elif kind == "sub":
        body = f"{render(e[1], 0)} - {render(e[2], 1)}"
    elif kind == "mul":
        body = f"{render(e[1], 1)}*{render(e[2], 2)}"
    elif kind == "pow":
        body = f"{render(e[1], 3)}^{e[2]}"
    elif kind == "neg":
        body = f"-{render(e[1], 3)}"
    elif kind in ("floor", "round"):
        body = f"{kind}({render(e[1], 2)}/{e[2]})"
    elif kind == "c":
        if e[1] < 0:
            raise ValueError("negative literals are written as neg nodes")
        body = str(e[1])
    elif kind == "n":
        body = "n"
    else:
        raise TypeError(f"not an expression node: {e!r}")
    return f"({body})" if _LEVEL.get(kind, 3) < need else body


def _tokens(text: str):
    out, i = [], 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit() or ch.isalpha():
            j = i
            while j < len(text) and text[j].isalnum():
                j += 1
            out.append(text[i:j])
            i = j
        elif ch in "+-*^()/":
            out.append(ch)
            i += 1
        else:
            raise ValueError(f"unexpected character {ch!r} in {text!r}")
    return out


def parse(text: str):
    """Parse the qpcert grammar (without the 'trunc' alias) into nodes."""
    toks = _tokens(text)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else ""

    def take(expected=None):
        nonlocal pos
        tok = peek()
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, found {tok!r} in {text!r}")
        pos += 1
        return tok

    def expr():
        node = term()
        while peek() in ("+", "-"):
            op = take()
            node = ("add" if op == "+" else "sub", node, term())
        return node

    def term():
        node = factor()
        while peek() == "*":
            take()
            node = ("mul", node, factor())
        return node

    def factor():
        node = atom()
        if peek() == "^":
            take()
            node = ("pow", node, int(take()))
        return node

    def atom():
        tok = take()
        if tok.isdigit():
            return ("c", int(tok))
        if tok == "n":
            return ("n",)
        if tok in ("floor", "round"):
            take("(")
            inner = expr()
            take("/")
            m = int(take())
            take(")")
            return (tok, inner, m)
        if tok == "(":
            inner = expr()
            take(")")
            return inner
        if tok == "-":
            return ("neg", atom())
        raise ValueError(f"unexpected token {tok!r} in {text!r}")

    node = expr()
    if pos != len(toks):
        raise ValueError(f"trailing input in {text!r}")
    return node


# -- generating functions ------------------------------------------------


def denominator(parts) -> list[int]:
    """Coefficients of prod (1 - q^b), low to high."""
    den = [1]
    for b in parts:
        out = den + [0] * b
        for i, c in enumerate(den):
            out[i + b] -= c
        den = out
    return den


def series(num, parts, upto: int) -> list[int]:
    """Coefficients 0..upto of num(q) * prod_b (1 + q^b + q^2b + ...)."""
    acc = [0] * (upto + 1)
    for i, c in enumerate(num[: upto + 1]):
        acc[i] = c
    for b in parts:
        for i in range(b, upto + 1):
            acc[i] += acc[i - b]
    return acc


def numerator(values, parts) -> list[int]:
    """(sum values[n] q^n) * prod (1 - q^b), truncated below deg den.

    When values are the series of some proper N / prod (1 - q^b), as a
    quasi-polynomial of degree < #parts whose period divides every part
    is, this is N: the product's higher coefficients vanish.
    """
    den = denominator(parts)
    top = len(den) - 1
    terms = [(j, c) for j, c in enumerate(den) if c]
    return [sum(c * values[i - j] for j, c in terms if j <= i) for i in range(top)]


def mutate(num, parts, k: int, delta: int) -> list[int]:
    """Numerator whose series differs from num's first at index k, by delta.

    Adds delta * q^k * (den mod q^(deg den - k)), which keeps the fraction
    proper and changes no coefficient below k.
    """
    den = denominator(parts)
    top = len(den) - 1
    if not 0 <= k < top:
        raise ValueError(f"mutation index {k} outside [0, {top})")
    out = list(num) + [0] * (top - len(num))
    for j in range(top - k):
        out[k + j] += delta * den[j]
    return out

