"""Closed-form integer expressions in one variable n.

Grammar (whitespace insignificant, +/-/* left associative):

    expr0  := expr1 (('+' | '-') expr1)*    level 0: Add, Sub
    expr1  := factor ('*' factor)*          level 1: Mul
    factor := atom ('^' POSINT)?            level 2: Pow
    atom   := INT | 'n' | '(' expr0 ')' | '-' atom
            | ('floor' | 'round') '(' expr0 '/' POSINT ')'

Each node class carries its grammar level as `level`, 3 (an atom)
unless stated above, and each binary one its symbol and int operator:
the printer, the interpreter and the parser read them there, the
parser climbing precedence over _BINARY, its symbol-to-class map.

INT and POSINT are runs of ASCII digits.  Unary minus binds tighter
than '^', so -n^2 is (-n)^2; write -(n^2) for the negated square.
Divisors inside floor/round must be positive integer literals.  floor
rounds toward -inf; round is nearest-integer with ties going half-up.

One interpreter gives the grammar its meaning, written with the integer
operators + - * ** and //, and runs with n bound to one of three values
that support them:

- an int: expr_eval, the value at one index;
- n's source text: expr_values, the values over many indices, where each
  operator builds the text of its result and the text of the whole
  expression is compiled into one list comprehension over the indices,
  once per text per process: constants are names in the text, so every
  expression of one shape reuses the same code.  Only a text nested too
  deep for compile (some 200 parentheses) is evaluated index by index,
  with n bound to each int;
- the identity quasi-polynomial: expr_to_qp, which so computes exactly
  the quasi-polynomial that every well-formed expression is.

expr_bounds gets a degree bound and a period of that quasi-polynomial
without building it: a fold over the AST that reads each floor's or
round's period off its operand's integer values mod the divisor, one
expr_values pass per test of one of the divisor's primes.  The
same fold reports whether each subtree is floor-free, which tells the
period search where it may start.  Given the period L that its caller
takes the lcm with, the fold tests a prime only where that can shrink
lcm(L, period); expr_bounds is the full search, at L = 1.

>>> e = parse("round(n^2/12)")
>>> [expr_eval(e, n) for n in range(8)]
[0, 0, 0, 1, 1, 2, 3, 4]
>>> expr_values(e, range(8))
[0, 0, 0, 1, 1, 2, 3, 4]
>>> q = expr_to_qp(e)
>>> q.period, q.degree, [q(n) for n in range(8)] == [expr_eval(e, n) for n in range(8)]
(6, 2, True)
>>> expr_bounds(e)
(2, 6)
"""

from __future__ import annotations

import math
import operator

from ._value import _Value, _set


class ExprSyntaxError(ValueError):
    """Parse failure; `offset` is the byte position in the input."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"syntax error at offset {offset}: {message}")
        self.offset = offset


class DivisorNotLiteral(ExprSyntaxError):
    """The divisor inside floor/round was not a positive integer literal."""


class Expr(_Value):
    """Base class for expression AST nodes; `level` is the grammar level."""

    __slots__ = ()
    level = 3

    def __str__(self):
        return format_expr(self)


class Const(Expr):
    __slots__ = __match_args__ = ("value",)

    def __init__(self, value: int):
        _set(self, "value", value)


class Var(Expr):
    __slots__ = ()


class Neg(Expr):
    __slots__ = __match_args__ = ("operand",)

    def __init__(self, operand: Expr):
        _set(self, "operand", operand)


class Pow(Expr):
    __slots__ = __match_args__ = ("base", "exponent")
    level = 2

    def __init__(self, base: Expr, exponent: int):
        if exponent < 1:
            raise ValueError("Pow exponent must be >= 1")
        _set(self, "base", base)
        _set(self, "exponent", exponent)


class _Binary(Expr):
    """left op right; the subclass gives the int operator, symbol and level."""

    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        _set(self, "left", left)
        _set(self, "right", right)


class Add(_Binary):
    __slots__ = ()
    op, symbol, level = operator.add, " + ", 0


class Sub(_Binary):
    __slots__ = ()
    op, symbol, level = operator.sub, " - ", 0


class Mul(_Binary):
    __slots__ = ()
    op, symbol, level = operator.mul, "*", 1


class _Division(Expr):
    """operand / divisor rounded to an integer; the subclass names how."""

    __slots__ = __match_args__ = ("operand", "divisor")

    def __init__(self, operand: Expr, divisor: int):
        if divisor < 1:
            raise ValueError(f"{type(self).__name__} divisor must be >= 1")
        _set(self, "operand", operand)
        _set(self, "divisor", divisor)


class Floor(_Division):
    """floor(operand / divisor), toward -inf."""

    __slots__ = ()


class Round(_Division):
    """round(operand / divisor), ties half-up."""

    __slots__ = ()


# -- tokenizer ---------------------------------------------------------

_SYMBOLS = "+-*^()/"
# ASCII only: str.isdigit/isalpha also accept characters such as '²' or
# Arabic-Indic digits, which int() rejects or silently reads as 0-9.
_DIGITS = frozenset("0123456789")
_LETTERS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")


def _tokenize(text: str):
    """List of (kind, value, offset) triples; kinds: int, name, sym, end."""
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
        elif ch in _DIGITS or ch in _LETTERS:
            kind, run, value = ("int", _DIGITS, int) if ch in _DIGITS else ("name", _LETTERS, str)
            j = i + 1
            while j < len(text) and text[j] in run:
                j += 1
            toks.append((kind, value(text[i:j]), i))
            i = j
        elif ch in _SYMBOLS:
            toks.append(("sym", ch, i))
            i += 1
        else:
            raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    toks.append(("end", "", len(text)))
    return toks


# Every binary operator's node class; its precedence is the class's level.
_BINARY = {"+": Add, "-": Sub, "*": Mul}


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def advance(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: str, error=ExprSyntaxError):
        kind, value, offset = self.peek()
        found = "end of input" if kind == "end" else repr(str(value))
        raise error(f"expected {expected}, found {found}", offset)

    def eat_sym(self, sym: str):
        kind, value, _ = self.peek()
        if kind == "sym" and value == sym:
            return self.advance()
        self.fail(f"'{sym}'")

    def positive_int(self, expected: str, error=ExprSyntaxError) -> int:
        kind, value, _ = self.peek()
        if kind != "int" or value < 1:
            self.fail(expected, error)
        return self.advance()[1]

    def expr(self, level: int = 0) -> Expr:
        # Precedence climbing: an operator's right operand binds only higher
        # levels, so + - * stay left associative.  A paren level costs three
        # frames (atom, expr, factor), which bounds the nesting depth.
        node = self.factor()
        while True:
            kind, value, _ = self.peek()
            cls = _BINARY.get(value) if kind == "sym" else None
            if cls is None or cls.level < level:
                return node
            self.advance()
            node = cls(node, self.expr(cls.level + 1))

    def factor(self) -> Expr:
        node = self.atom()
        kind, value, _ = self.peek()
        if kind == "sym" and value == "^":
            self.advance()
            node = Pow(node, self.positive_int("a positive integer exponent"))
        return node

    def atom(self) -> Expr:
        kind, value, offset = self.peek()
        if kind == "int":
            self.advance()
            return Const(value)
        if kind == "name" and value == "n":
            self.advance()
            return Var()
        if kind == "name" and value in ("floor", "round"):
            self.advance()
            self.eat_sym("(")
            inner = self.expr()
            self.eat_sym("/")
            divisor = self.positive_int("a positive integer literal divisor", DivisorNotLiteral)
            self.eat_sym(")")
            if value == "round":
                return Round(inner, divisor)
            return Floor(inner, divisor)
        if kind == "name":
            raise ExprSyntaxError(
                f"unknown identifier {value!r} (expected 'n', 'floor' or 'round')",
                offset,
            )
        if kind == "sym" and value == "(":
            self.advance()
            inner = self.expr()
            self.eat_sym(")")
            return inner
        if kind == "sym" and value == "-":
            self.advance()
            return Neg(self.atom())
        self.fail("an integer, 'n', '(', '-', 'floor' or 'round'")


def parse(text: str) -> Expr:
    """Parse a closed-form expression; see the module grammar.

    Raises ExprSyntaxError (with byte offset) on malformed input and
    DivisorNotLiteral when a floor/round divisor is not a positive
    integer literal.
    """
    p = _Parser(text)
    node = p.expr()
    kind, value, offset = p.peek()
    if kind != "end":
        raise ExprSyntaxError(f"unexpected trailing input {str(value)!r}", offset)
    return node


# -- evaluation --------------------------------------------------------


def _interpret(e: Expr, n):
    """Value of e with n bound to an int, a _Source or a QuasiPoly.

    Floor is //, which divides toward -inf; round is nearest with ties
    half-up, computed as (v + m//2) // m so no floats are involved.  That
    is (2v + m) // (2m) for every int v: for odd m = 2h + 1 write
    v + h = q*m + r with 0 <= r < m, so (2v + m)/(2m) = q + (2r + 1)/(2m).
    """
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return n
    if isinstance(e, Neg):
        return -_interpret(e.operand, n)
    if isinstance(e, _Binary):
        return e.op(_interpret(e.left, n), _interpret(e.right, n))
    if isinstance(e, Pow):
        return _interpret(e.base, n) ** e.exponent
    if isinstance(e, Floor):
        return _interpret(e.operand, n) // e.divisor
    if isinstance(e, Round):
        return (_interpret(e.operand, n) + e.divisor // 2) // e.divisor
    raise TypeError(f"not an Expr node: {e!r}")


def expr_eval(e: Expr, n: int) -> int:
    """Evaluate at integer n; always yields an integer."""
    return _interpret(e, n)


class _Source:
    """n as Python source text, under the integer operators _interpret uses.

    Each operator builds the text of its result, in parentheses, and
    computes no value: + - * take a source or an int on either side,
    unary - negates, and ** k and // m take an int k or m; + and *
    commute, so their reflected forms are aliases.  An int enters the
    text as a name bound to it in `scope`, the globals the text is
    evaluated in, which every source of one interpreter pass shares.  So
    the text holds only n, those names, operators and parentheses, never
    an int's digits, and any other operand raises TypeError.
    """

    __slots__ = ("text", "scope")

    def __init__(self, text: str, scope: dict):
        self.text = text
        self.scope = scope

    def _text(self, x) -> str:
        """x's text: a source's own, or the name an int x is bound to in scope."""
        if isinstance(x, _Source):
            return x.text
        if not isinstance(x, int):
            raise TypeError(f"not an int or a _Source: {x!r}")
        name = f"c{len(self.scope)}"
        self.scope[name] = x
        return name

    def _apply(self, left, symbol: str, right) -> _Source:
        return _Source(f"({self._text(left)}{symbol}{self._text(right)})", self.scope)

    def __add__(self, other):
        return self._apply(self, "+", other)

    __radd__ = __add__

    def __sub__(self, other):
        return self._apply(self, "-", other)

    def __rsub__(self, other):
        return self._apply(other, "-", self)

    def __mul__(self, other):
        return self._apply(self, "*", other)

    __rmul__ = __mul__

    def __neg__(self):
        return _Source(f"(-{self.text})", self.scope)

    def __pow__(self, k):
        return self._apply(self, "**", k) if isinstance(k, int) else NotImplemented

    def __floordiv__(self, m):
        return self._apply(self, "//", m) if isinstance(m, int) else NotImplemented


# expr_values' compiled code of each text, or False for a text that
# compile refused; emptied when it holds _CODES_MAX texts.  Only the text
# is the key: the code holds no constant, and each call evaluates it in a
# scope of its own.
_CODES: dict = {}
_CODES_MAX = 256


def expr_values(e: Expr, ns) -> list[int]:
    """[expr_eval(e, n) for n in ns], in one compiled pass.

    ns is a range, used as it is, or any iterable of ints, read into a
    list with operator.index.  n is bound to its source text, and
    [text for n in ns] is compiled and evaluated, with no builtins and only
    ns and this call's constants in scope; a constant expression's int is
    repeated.  Constants are names in the text, so the expressions of one
    shape share one text, and a compile, 40-60 us on CPython 3.11, is paid
    once per shape per process: every later call of that shape, over any
    indices, reuses the code in _CODES.  The first compile of a process
    costs about 2 ms more, since the builtin compile sets up the
    interpreter's AST node types.  A text nested deeper than compile accepts
    is evaluated index by index with n bound to each int, and that refusal
    is remembered too; a MemoryError is not.  Threads may share the cache:
    each of its operations is one dict operation, and a race can only lose
    an entry, which costs one more compile.

    >>> expr_values(parse("floor(n/4)"), range(-3, 5))
    [-1, -1, -1, 0, 0, 0, 0, 1]
    >>> expr_values(parse("2^3"), range(3))
    [8, 8, 8]
    """
    if not isinstance(ns, range):
        ns = list(map(operator.index, ns))
    size = len(ns)  # first: a range too long for len raises OverflowError before any work
    scope = {"__builtins__": {}, "ns": ns}
    v = _interpret(e, _Source("n", scope))
    if not isinstance(v, _Source):
        return [v] * size
    text = f"[{v.text} for n in ns]"
    code = _CODES.get(text)
    if code is None:
        if len(_CODES) >= _CODES_MAX:
            _CODES.clear()
        try:
            code = _CODES[text] = compile(text, "<expr_values>", "eval")
        except (SyntaxError, RecursionError):
            code = _CODES[text] = False  # nested too deep for CPython's parser or compiler
        except MemoryError:
            code = False  # not remembered: a later call may find the memory
    if code:
        return eval(code, scope)
    return [_interpret(e, n) for n in ns]


def expr_to_qp(e: Expr) -> QuasiPoly:
    """Exact quasi-polynomial equal to the expression at every integer.

    The interpreter run with n bound to the identity quasi-polynomial; a
    constant expression evaluates to an int, lifted to a constant.  The
    result is canonical.  The quasi-polynomial modules are imported here,
    so parsing and evaluating an expression loads neither.
    """
    from .polynomial import Poly
    from .quasipoly import QuasiPoly

    v = _interpret(e, QuasiPoly.from_poly(Poly(0, 1)))  # n itself, as a quasi-polynomial
    return v if isinstance(v, QuasiPoly) else QuasiPoly.constant(v)


def expr_bounds(e: Expr) -> tuple[int, int]:
    """(degree bound, period bound) of e's quasi-polynomial, from integers.

    On every residue class mod the period bound, e is a polynomial of at
    most the degree bound.  The bounds are folded over the AST: a
    constant is (0, 1) and n is (1, 1); + and - take the larger degree,
    * the sum and ^ k k times it, each the lcm of the periods.  A floor
    refines the period from its operand's values (see _floor_period).
    round(X/m) is floor((X + m//2)/m), as in _interpret, and adding a
    constant to X changes no period of X mod m, so a round is searched
    like a floor of X itself.

    Only integers are computed, unlike expr_to_qp's exact quasi-polynomial.
    Where terms cancel the bounds overshoot the exact degree and period
    (n - n has degree bound 1), but the period bound is always a multiple
    of the exact period and the degree bound never below the degree.
    This is the full search, _bounds at cover 1; certify gives the fold
    the GF's period, which skips the searches its window cannot use.
    """
    return _bounds(e)[:2]


def _bounds(e: Expr, cover: int = 1) -> tuple[int, int, bool]:
    """expr_bounds' (degree, period) up to cover, and whether no floor or round is in e.

    cover is the period L that the caller takes the lcm with; each floor
    or round searches its period only where that can shrink lcm(L, p)
    (see _floor_period), so the period returned may be a larger multiple
    of the exact one than expr_bounds', but lcm(L, p) is the same.  By
    induction over the AST: it holds at a leaf, the lcm of two periods
    keeps it, and a floor keeps it given its operand's.  At cover = 1 this
    is expr_bounds' full search.
    """
    if isinstance(e, Const):
        return 0, 1, True
    if isinstance(e, Var):
        return 1, 1, True
    if isinstance(e, Neg):
        return _bounds(e.operand, cover)
    if isinstance(e, _Binary):
        (d1, p1, f1), (d2, p2, f2) = _bounds(e.left, cover), _bounds(e.right, cover)
        return (d1 + d2 if isinstance(e, Mul) else max(d1, d2)), math.lcm(p1, p2), f1 and f2
    if isinstance(e, Pow):
        d, p, free = _bounds(e.base, cover)
        return d * e.exponent, p, free
    if isinstance(e, _Division):
        d, p, free = _bounds(e.operand, cover)
        return d, p * _floor_period(e.operand, d, p, e.divisor, free, cover), False
    raise TypeError(f"not an Expr node: {e!r}")


def _floor_period(x: Expr, d: int, p: int, m: int, floor_free: bool, cover: int) -> int:
    """A T such that x mod m has period p*T; x has degree <= d mod p.

    T is the least such T at cover = 1; otherwise lcm(cover, p*T) equals
    lcm(cover, p*T0) for the least T0.

    On residue class r, k -> x(r + p*k) is an integer-valued polynomial
    sum_i a_i*C(k, i) of degree <= d, so g(k) = x(r + p*(k+T)) - x(r + p*k)
    is one of degree < d.  Its binomial coefficients are integer
    combinations of g(0), ..., g(d-1), so g is 0 mod m everywhere iff it
    is at k < d: p*T is a period of x mod m iff x(n + p*T) = x(n) mod m
    for n in [0, d*p), a block of d*p values over every class at once.
    With d = 0, x is constant on each class and T is 1.

    The search starts from t = gcd(m*lcm(1..s), m^(s+1)), the part of
    m*lcm(1..s) made of m's primes, a T that the least T divides.  For
    each prime power q^e of m, q^(e+f) with f = floor(log_q d) is a T
    for x mod q^e: C(q^N, l) has at least N - f factors q for l <= d, so
    C(k + q^N, i) - C(k, i) = sum_l C(k, i-l)*C(q^N, l) is a multiple of
    q^e.  Their product is t with s = d.  An x with no floor or round in
    it, which the bounds fold reports as floor_free (and then p = 1), is
    a polynomial with integer coefficients, so x(n + m) = x(n) mod m and
    s = 0, t = m: far fewer, smaller values when d is large.  p = 1 alone
    is not enough: floor((n^2 - n)/2) has p = 1 but period 4 mod 2.

    Periods are the multiples of the least one T0, and T0 divides t, so
    for a T that T0 divides, T/q is a T iff q divides T/T0, which does
    not depend on the other primes' powers in T.  So each prime q of m in
    turn divides T out while T/q still passes, each test one expr_values
    pass over the block at p*(T/q) against the base block at 0, and the
    descent ends at the least T (but see _prime_factors).

    The caller only uses lcm(cover, p*T), so q is tested only while
    dividing T by q shrinks it: once the power of q in p*T is at most its
    power in cover, so is its power in p*T0, which divides p*T, and the
    lcm takes cover's power of q either way.  Every T kept is still a T:
    each step down is tested, and a step not taken keeps a multiple.  The
    base block is evaluated only once some prime needs a test.
    """
    if d == 0:
        return 1
    s = 0 if floor_free else d
    t = math.gcd(m * math.lcm(*range(1, s + 1)), m ** (s + 1))
    span = d * p

    def block(a):
        return [v % m for v in expr_values(x, range(a, a + span))]

    base = None
    for q in _prime_factors(m):
        while t % q == 0 and math.lcm(cover, p * (t // q)) < math.lcm(cover, p * t):
            base = base or block(0)
            if block(p * (t // q)) != base:
                break
            t //= q
    return t


def _prime_factors(n: int) -> list[int]:
    """The primes dividing n >= 1, by trial division below 2^16.

    A cofactor with no prime factor below 2^16 is listed whole: below
    2^32 it is prime, above it may be a product of larger primes.
    Dividing such a product out whole still leaves a period, only perhaps
    not the least one.
    """
    out = []
    q = 2
    while q * q <= n and q < 1 << 16:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1 if q == 2 else 2
    if n > 1:
        out.append(n)
    return out


# -- pretty printer ----------------------------------------------------

def _fmt(e: Expr, need: int) -> str:
    """e's text, in parentheses if its level is below need."""
    if isinstance(e, _Binary):
        body = f"{_fmt(e.left, e.level)}{e.symbol}{_fmt(e.right, e.level + 1)}"
    elif isinstance(e, Pow):
        body = f"{_fmt(e.base, 3)}^{e.exponent}"
    elif isinstance(e, Neg):
        body = f"-{_fmt(e.operand, 3)}"
    elif isinstance(e, _Division):
        # operand at factor level: "floor((n + 2)/4)", not "floor(n + 2/4)"
        body = f"{type(e).__name__.lower()}({_fmt(e.operand, 2)}/{e.divisor})"
    elif isinstance(e, Const):
        body = str(e.value)
    elif isinstance(e, Var):
        body = "n"
    else:
        raise TypeError(f"not an Expr node: {e!r}")
    return f"({body})" if e.level < need else body


def format_expr(e: Expr) -> str:
    """Render to the concrete syntax; re-parsing a parsed AST is identity."""
    return _fmt(e, 0)
