"""Command-line interface.

Subcommands: coeffs, certify, triangles (count|list), fit, paper.
Each command's flags are declared once, in _COMMANDS.  A command call of
exact long flags, each at most once, as --flag=value, --flag value (a
value not starting with -) or a bare switch, is read in one pass by
_read_argv; every other call (help, --, an abbreviated or repeated flag,
any usage error) goes to an argparse parser built from _COMMANDS when
first needed, which prints every help text and every error.
Every command renders one output document in text, json or csv form.  A
document holds ints, int lists, strs, bools and None as they are; the
writers print every int as its decimal string and every fraction is a
"p/q" string, never a float, so documents diff cleanly across
platforms.  Integer lists (coefficients, part sizes, numerators, the
paper's two columns, triangle sides) and the coeffs, paper and
triangles list tables are printed in one %-format pass over their ints,
with no str object per number; only exact ints are printed.  The json
form is byte-identical to json.dumps(doc, indent=2, sort_keys=True)
followed by a newline, with each int in doc replaced by its decimal
string: the same ASCII escapes, key order and indentation, written by a
small writer that accepts only the types a document holds.  Integer
flags and fit's values are ASCII, in any spelling int() reads (' 1',
'+0', '00', '-0'); a blank list field is an error.  A comma-separated
list of bare decimal fields, the usual --num, is read by the json
module's C scanner, which reads each such field as int() does; every
other text, and every error, goes through int().  Exit codes: 0
success/certified, 1 refuted (or a failed 37-term check), 2 usage or
parse errors, an expression nested too deeply, an index or size too
large to allocate, or running out of memory.  A stdout closed by its
reader (``qpcert coeffs ... | head``) ends the output, not the command:
the exit code stays the command's own.

This module imports only the standard library, and argparse only for a
call _read_argv declines.  Each command imports the library modules it
runs when it dispatches (see _Library), so parsing, --help and usage
errors load none: coeffs loads genfunc and polynomial, certify and fit
load certify (with closedform, genfunc, polynomial and quasipoly), and
paper and triangles load triangles, closedform, genfunc and polynomial.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from types import SimpleNamespace

SCHEMA_VERSION = "1"
PROBE_N_MAX = 100000

_json_str = json.encoder.encode_basestring_ascii
_json_scan = json.JSONDecoder().scan_once


class _Library:
    """qpcert's library modules as attributes, each imported on first read.

    _lib.certify is the module qpcert.certify, not the package's function
    of that name.  A command reads its functions off their modules at
    every call, so a patched module attribute is seen, but imports each
    module once per process, when a command first runs it.  The
    function-local import statements a certify call would need instead
    cost about 4 us per call, 2% of an in-process certify (CPython 3.11).
    """

    def __getattr__(self, name: str):
        if name.startswith("_"):  # a probe such as inspect's for __wrapped__
            raise AttributeError(name)
        module = f"{__package__}.{name}"
        __import__(module)
        setattr(self, name, sys.modules[module])
        return sys.modules[module]


_lib = _Library()


# -- argument helpers ---------------------------------------------------


def _ints(text: str, sep: str | None) -> list[int]:
    """int() of each sep-separated field of text, which must be ASCII.

    int() also reads other scripts' digits (Arabic-Indic '٣' as 3).
    A non-empty comma-separated text of only the bytes 0-9, ',' and '-'
    is first read as the json array "[" + text + "]" by the json
    module's C scanner, about twice as fast as int() per field.  On
    those bytes JSON accepts exactly the fields -?(0|[1-9][0-9]*), each
    of which int() reads to the same value, and rejects the rest ('',
    '-', '00', '1-2'); on any rejection, and on a field past int()'s
    digit limit, the int() reader runs and gives the result or error.
    """
    if not text.isascii():
        i = next(i for i, c in enumerate(text) if not c.isascii())
        raise ValueError(f"non-ASCII character {text[i]!r} at offset {i}")
    if sep == "," and text and not text.encode().translate(None, b"0123456789,-"):
        try:
            return _json_scan("[" + text + "]", 0)[0]
        except (StopIteration, ValueError):
            pass
    return list(map(int, text.split(sep)))


def _int_arg(low: int | None = None):
    """Type function for one integer, at least low (0 or 1) if given."""
    def read(text: str) -> int:
        try:
            [value] = _ints(text, ",")
        except ValueError:
            raise ValueError(f"expected an integer, got {text!r}")
        if low is not None and value < low:
            raise ValueError(
                f"expected a {'positive' if low else 'non-negative'} integer, got {value}")
        return value
    return read


def _int_list_arg(text: str) -> list[int]:
    try:
        return _ints(text, ",")
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}")


def _parts_arg(text: str) -> list[int]:
    parts = _int_list_arg(text)
    if min(parts) < 1:
        raise ValueError(f"part sizes must be positive, got {text!r}")
    return parts


def _gf_from_args(args) -> RationalGF:
    if args.num is not None:
        # _int_list_arg already made every coefficient an int
        return _lib.genfunc.RationalGF(_lib.polynomial._poly(args.num, 1), args.parts)
    return _lib.genfunc.RationalGF.from_parts(args.parts, shift=args.shift)


def _gf_inputs(args, **extra) -> dict:
    return {
        "parts": args.parts,
        "shift": args.shift,
        "numerator": args.num,
        **extra,
    }


# -- rendering ----------------------------------------------------------


def _check_ints(values) -> None:
    """Raise TypeError unless every value is exactly an int.

    %d would print True as 1 and 1.5 as 1.
    """
    if not set(map(type, values)) <= {int}:
        bad = next(v for v in values if type(v) is not int)
        raise TypeError(f"a document lists no {type(bad).__name__} as an integer")


def _join_ints(values, sep: str) -> str:
    """The decimal strings of the ints in values joined by sep, in one %-format pass.

    sep holds no %.  Only exact ints are accepted (_check_ints).  An int
    longer than sys.get_int_max_str_digits() raises the ValueError that
    str() raises.
    """
    if not values:
        return ""
    _check_ints(values)
    fmt = "%d" + (sep + "%d") * (len(values) - 1)
    return fmt % (values if isinstance(values, tuple) else tuple(values))


def _table(head: str, row: str, columns) -> str:
    """head, then row filled from each column's i-th int for every i, in one pass.

    The columns are int sequences of one length, and row has one %d field
    per column; neither head nor row holds another %.
    """
    k = len(columns)
    flat = [0] * (k * len(columns[0]))
    for i, column in enumerate(columns):
        if type(column) is not range:  # a range holds only ints
            _check_ints(column)
        flat[i::k] = column
    return (head + row * len(columns[0])) % tuple(flat)


def _render(fmt: str, doc, csv, text):
    """Write doc() as json, csv() or text(), in one write.

    doc, csv and text are zero-argument functions: doc returns the
    document, csv and text the whole csv or text body, final newline
    included.  Only the chosen format's function is called, so neither
    the document's inputs nor a long coefficient dump is built in the
    forms not printed.  The json form is exactly the bytes of
    json.dumps(doc(), indent=2, sort_keys=True) plus a newline, with
    every int in the document written as its decimal string (_json_dump).

    A reader that closes the pipe early (``qpcert coeffs ... | head``)
    ends the output, not the command: stdout is pointed at os.devnull so
    the flush at exit is silent, and the caller returns its own exit code.
    """
    if fmt == "json":
        out = []
        _json_dump(doc(), out)
        out.append("\n")
        body = "".join(out)
    else:
        body = csv() if fmt == "csv" else text()
    try:
        sys.stdout.write(body)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _json_dump(value, out: list, indent: str = "\n") -> None:
    """Append the pieces of json.dumps(value, indent=2, sort_keys=True) to out.

    Every int in value is written as its decimal string.  Only the types
    documents hold are accepted: dicts with str keys, lists, str, int,
    bool and None; anything else, an int subclass other than bool
    included, raises TypeError.  A list whose first element is a str is a
    list of strings, and one led by an int a list of ints: each is
    encoded in one pass (a map and a join, or _join_ints), so an element
    of another type in it raises TypeError instead of being rendered.
    """
    if isinstance(value, str):
        out.append(_json_str(value))
    elif type(value) is int:
        out.append('"%d"' % value)
    elif value is None or value is True or value is False:
        out.append("null" if value is None else "true" if value else "false")
    elif not isinstance(value, (dict, list)):
        raise TypeError(f"a document holds no {type(value).__name__}")
    elif not value:
        out.append("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, dict):
        inner, sep = indent + "  ", "{"
        for key, item in sorted(value.items()):
            out += (sep, inner, _json_str(key), ": ")
            _json_dump(item, out, inner)
            sep = ","
        out += (indent, "}")
    elif isinstance(value[0], str):
        inner = indent + "  "
        out += ("[", inner, ("," + inner).join(map(_json_str, value)), indent, "]")
    elif type(value[0]) is int:
        inner = indent + "  "
        out += ("[", inner, '"', _join_ints(value, '",' + inner + '"'), '"', indent, "]")
    else:
        inner, sep = indent + "  ", "["
        for item in value:
            out += (sep, inner)
            _json_dump(item, out, inner)
            sep = ","
        out += (indent, "]")


def _csv_fields(result: dict) -> str:
    """The csv body of the nested result dict, final newline included.

    A field,value header, then one row per leaf: its dotted key, and an
    int's decimal string, a str, a str list joined by spaces (csv bodies
    hold no int list, and one raises TypeError), true or false, or empty
    for None.  Rows are not quoted: every key and word is fixed and every
    other str a decimal integer or "p/q" string, so no field holds a
    comma, a double quote, a carriage return or a newline, and no row is
    one empty field: csv would quote none of them.
    """
    def walk(prefix, value):
        if isinstance(value, dict):
            for k, v in value.items():
                yield from walk(f"{prefix}.{k}" if prefix else k, v)
        elif isinstance(value, list):
            yield f"{prefix},{' '.join(value)}"
        elif isinstance(value, bool):
            yield f"{prefix},{'true' if value else 'false'}"
        else:
            yield f"{prefix},{'' if value is None else value}"

    return "\n".join(["field,value", *walk("", result), ""])


def _document(command: str, inputs: dict, result: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "result": result,
    }


# -- coeffs -------------------------------------------------------------


def _cmd_coeffs(args) -> int:
    gf = _gf_from_args(args)
    coeffs = gf.coeffs(args.upto)
    _render(args.format,
            lambda: _document("coeffs", _gf_inputs(args, upto=args.upto),
                              {"coefficients": coeffs}),
            lambda: _table("n,coefficient\n", "%d,%d\n", (range(len(coeffs)), coeffs)),
            lambda: _join_ints(coeffs, " ") + "\n")
    return 0


# -- certify ------------------------------------------------------------


def _certify_text(cert, probe) -> str:
    text = (f"verdict: {'certified' if cert.certified else 'refuted'}\n"
            f"degree bound: {cert.degree_bound}\n"
            f"period: {cert.period}\n"
            f"onset: {cert.onset}\n"
            f"window: [{cert.window.start}, {cert.window.stop}) ({len(cert.window)} checks)\n")
    if cert.tail:
        text += f"tail: [{cert.tail.start}, {cert.tail.stop}) ({len(cert.tail)} checks)\n"
    if not cert.certified:
        w = cert.refutation
        text += f"witness: n={w.n} lhs={w.lhs} rhs={w.rhs}\n"
    if probe is not None:
        verdict = "agreed" if probe["agreed"] else "DISAGREED"
        text += (f"probe: {probe['probes']} probes up to n={probe['n_max']} "
                 f"(seed {probe['seed']}): {verdict}\n")
    return text


def _range_doc(checked: range) -> dict:
    return {"start": checked.start, "stop": checked.stop, "checks": len(checked)}


def _cmd_certify(args) -> int:
    gf = _gf_from_args(args)
    onset = gf.onset() if args.onset is None else args.onset
    if args.probe is not None and onset > PROBE_N_MAX:
        raise ValueError(f"--probe draws indices from the onset up to {PROBE_N_MAX}, "
                         f"but the onset is {onset}; lower --onset or drop --probe")
    expr = _lib.closedform.parse(args.expr)
    cert = _lib.certify.certify(gf, expr, onset_override=args.onset)
    probe = None
    if args.probe is not None and cert.certified:
        agreed = _lib.certify.soundness_probe(cert, args.probe, PROBE_N_MAX, seed=args.seed)
        probe = {"probes": args.probe, "n_max": PROBE_N_MAX, "seed": args.seed,
                 "agreed": agreed}
    w = cert.refutation
    result = {
        "verdict": "certified" if cert.certified else "refuted",
        "degree_bound": cert.degree_bound,
        "period": cert.period,
        "onset": cert.onset,
        "window": _range_doc(cert.window),
        # only an --onset below the GF's onset has a tail
        **({"tail": _range_doc(cert.tail)} if cert.tail else {}),
        "witness": None if cert.certified else {"n": w.n, "lhs": w.lhs, "rhs": w.rhs},
        "probe": probe,
    }
    _render(args.format,
            lambda: _document("certify", _gf_inputs(args, expr=args.expr, onset=args.onset),
                              result),
            lambda: _csv_fields(result), lambda: _certify_text(cert, probe))
    return 0 if cert.certified else 1


# -- triangles ----------------------------------------------------------


def _cmd_triangles_count(args) -> int:
    # the paper's theorem: O(1) in the perimeter, where count_bruteforce
    # loops over about perimeter/6 longest sides
    count = _lib.closedform.expr_eval(_lib.triangles.andrews_expr(), args.perimeter)
    _render(args.format,
            lambda: _document("triangles count", {"perimeter": args.perimeter},
                              {"count": count}),
            lambda: "perimeter,count\n%d,%d\n" % (args.perimeter, count),
            lambda: "%d\n" % count)
    return 0


def _cmd_triangles_list(args) -> int:
    tris = _lib.triangles.list_triangles(args.perimeter)
    sides = ([t.x for t in tris], [t.y for t in tris], [t.z for t in tris])
    _render(args.format,
            lambda: _document("triangles list", {"perimeter": args.perimeter},
                              {"count": len(tris),
                               "triangles": [[t.x, t.y, t.z] for t in tris]}),
            lambda: _table("x,y,z\n", "%d,%d,%d\n", sides),
            lambda: _table("", "(%d,%d,%d)\n", sides))
    return 0


# -- fit ----------------------------------------------------------------


def _read_values(args) -> list[int]:
    if args.stdin:
        text = sys.stdin.read()
    else:
        with open(args.values, encoding="utf-8") as f:
            text = f.read()
    try:
        return _ints(text, None)
    except ValueError as exc:
        raise ValueError(f"values must be whitespace-separated integers: {exc}")


def _fit_text(fit, constituents) -> str:
    return (f"period: {fit.period}\n"
            f"degree: {fit.degree}\n"
            f"holdout_verified: {'true' if fit.holdout_verified else 'false'}\n"
            f"samples_used: {fit.samples_used}\n"
            + "".join(f"constituent {r}: {' '.join(cs)}\n"
                      for r, cs in enumerate(constituents)))


def _cmd_fit(args) -> int:
    samples = _read_values(args)
    fit = _lib.certify.fit_quasipoly(samples, d_max=args.dmax, l_max=args.lmax,
                                     holdout=args.holdout)
    inputs = {"dmax": args.dmax, "lmax": args.lmax, "holdout": args.holdout,
              "samples": len(samples)}
    constituents = [[str(c) for c in p.coeffs] or ["0"] for p in fit.model.constituents]
    result = {
        "period": fit.period,
        "degree": fit.degree,
        "holdout_verified": fit.holdout_verified,
        "samples_used": fit.samples_used,
        "constituents": {str(r): cs for r, cs in enumerate(constituents)},
    }
    _render(args.format, lambda: _document("fit", inputs, result),
            lambda: _csv_fields(result), lambda: _fit_text(fit, constituents))
    return 0


# -- paper --------------------------------------------------------------


def _cmd_paper(args) -> int:
    coeffs, formula = _lib.triangles.paper_terms()
    equal = coeffs == formula
    result = {"upto": 36, "coefficients": coeffs, "formula": formula, "equal": equal}
    columns = (range(len(coeffs)), coeffs, formula)
    _render(args.format, lambda: _document("paper", {}, result),
            lambda: _table("n,coefficient,formula\n", "%d,%d,%d\n", columns),
            lambda: _table(" n  coefficient  formula\n", "%2d  %11d  %7d\n", columns)
            + ("true\n" if equal else "false\n"))
    return 0 if equal else 1


# -- flags and parsers -------------------------------------------------


def _flag(name: str, read=None, *, choices=None, default=None, required=False, group=None,
          help=None, metavar=None) -> tuple:
    """One flag of _COMMANDS, in the terms of argparse's add_argument.

    read, its type function, raises ValueError on a bad value.  A flag
    whose default is False is a switch, which takes no value and stores
    True.  A group's flags exclude each other; required on them requires
    one of the group.
    """
    return name, read, choices, default, required, group, help, metavar


_PARTS = _flag("--parts", _parts_arg, required=True, help="denominator part sizes, e.g. 2,3,4")
_SHIFT = _flag("--shift", _int_arg(0), required=True, group="numerator",
               help="numerator q^shift")
_NUM = _flag("--num", _int_list_arg, required=True, group="numerator",
             help="numerator coefficients c0,c1,... (low to high)")
_FORMAT = _flag("--format", choices=("text", "json", "csv"), default="text")
_TRIANGLES = (_flag("--perimeter", _int_arg(0), required=True), _FORMAT)

# command words -> (help, handler, flags), in the order --help lists them;
# ("triangles",) has no handler, only the subcommands below it
_COMMANDS = {
    ("coeffs",): ("print power-series coefficients", _cmd_coeffs, (
        _PARTS, _SHIFT, _NUM, _flag("--upto", _int_arg(0), required=True, help="last index N"),
        _FORMAT)),
    ("certify",): ("prove or refute coefficients == expression", _cmd_certify, (
        _PARTS, _SHIFT, _NUM,
        _flag("--expr", required=True, help="closed-form expression in n"),
        _flag("--onset", _int_arg(0), help="claim the identity only for n >= onset"),
        _flag("--probe", _int_arg(0), metavar="K",
              help=f"after certifying, cross-check K random indices up to {PROBE_N_MAX}"),
        _flag("--seed", _int_arg(), default=0, help="probe RNG seed"),
        _FORMAT)),
    ("triangles",): ("integer-sided triangles by perimeter", None, ()),
    ("triangles", "count"): ("count triangles of a perimeter", _cmd_triangles_count, _TRIANGLES),
    ("triangles", "list"): ("list triangles of a perimeter", _cmd_triangles_list, _TRIANGLES),
    ("fit",): ("fit a quasi-polynomial ansatz to samples", _cmd_fit, (
        _flag("--values", required=True, group="samples",
              help="file of whitespace-separated integers"),
        _flag("--stdin", default=False, required=True, group="samples",
              help="read samples from stdin"),
        _flag("--dmax", _int_arg(0), required=True, help="cap on the fitted degree"),
        _flag("--lmax", _int_arg(1), required=True, help="cap on the fitted period"),
        _flag("--holdout", _int_arg(1), default=1,
              help="minimum samples kept unseen by the largest ansatz"),
        _FORMAT)),
    ("paper",): ("run the classic 37-term check of the triangle-count identity", _cmd_paper,
                 (_FORMAT,)),
}


def _reader_table(handler, flags) -> tuple:
    """One command's (flags, defaults, required, groups), as _read_argv reads them.

    flags maps each flag name to (dest, type function, choices, None), or
    a switch's to (dest, None, None, True); defaults holds each flag's
    default and the handler; required holds the dests of required flags
    outside a group; groups lists each group's (dests, required).
    """
    table, defaults, required, groups = {}, {"handler": handler}, set(), {}
    for name, read, choices, default, needed, group, _, _ in flags:
        dest = name[2:]
        table[name] = (dest, None, None, True) if default is False else (dest, read, choices, None)
        defaults[dest] = default
        if group:
            groups.setdefault(group, ([], needed))[0].append(dest)
        elif needed:
            required.add(dest)
    return table, defaults, required, tuple(groups.values())


_TABLES = {words: _reader_table(handler, flags)
           for words, (_, handler, flags) in _COMMANDS.items() if handler}


def build_parser():
    """The qpcert argument parser, built on the first call and then reused.

    parse_args keeps no state between calls, so one parser serves every
    main() call in a process.  Every caller gets it: do not modify it.
    """
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple:
    """The qpcert parser and its command parsers keyed by command words, from _COMMANDS.

    Only a call that _read_argv declines imports argparse.  Each type
    function is wrapped to raise ArgumentTypeError with its ValueError's
    message, which argparse prints as the flag's error.
    """
    import argparse

    class Parser(argparse.ArgumentParser):
        # CPython 3.11's argparse drops the "--" of --flag=-- and stores [] past
        # the flag's type function and choices (fit --dmax=-- raised TypeError);
        # here that "--" is the flag's value, read like any other
        def _get_values(self, action, arg_strings):
            if action.option_strings and arg_strings == ["--"]:
                value = self._get_value(action, "--")
                self._check_value(action, value)
                return value
            return super()._get_values(action, arg_strings)

    def typed(read):
        def convert(text):
            try:
                return read(text)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(str(exc))
        return convert

    parser = Parser(prog="qpcert", description="Certify identities between rational generating "
                    "function coefficients and closed-form quasi-polynomial expressions, with "
                    "exact arithmetic throughout.")
    subparsers = {(): parser.add_subparsers(dest="command", required=True)}
    commands = {}
    for words, (command_help, handler, flags) in _COMMANDS.items():
        p = subparsers[words[:-1]].add_parser(words[-1], help=command_help)
        if handler is None:
            subparsers[words] = p.add_subparsers(dest="subcommand", required=True)
            continue
        groups = {}
        for name, read, choices, default, required, group, help, metavar in flags:
            if group and group not in groups:
                groups[group] = p.add_mutually_exclusive_group(required=required)
            kind = {"action": "store_true"} if default is False else {
                "type": read and typed(read), "choices": choices, "default": default,
                "metavar": metavar}
            (groups[group] if group else p).add_argument(
                name, required=required and not group, help=help, **kind)
        p.set_defaults(handler=handler)
        commands[words] = p
    return parser, commands


def _read_argv(table: tuple, tokens: list[str]) -> SimpleNamespace | None:
    """tokens read in one pass as the command parser of table would read them, or None.

    table is the command's entry in _TABLES; None leaves the call to argparse.
    It takes exact long flags, each at most once, as --flag=value (a
    value not starting with --) or --flag value (a value not starting
    with -), and switches alone.  Each value goes through its
    flag's type function and choices; then required flags and mutually
    exclusive groups are checked.  Anything else gives None: an unknown
    or abbreviated flag, a repeated one, -h, --, a stray word, a missing
    value, a missing required flag, a group conflict, a bad choice or a
    type function that raises.  It prints nothing and never exits.
    """
    flags, defaults, required, groups = table
    read = {}
    i = 0
    while i < len(tokens):
        name, eq, value = tokens[i].partition("=")
        i += 1
        if name not in flags:
            return None
        dest, convert, choices, const = flags[name]
        if dest in read:
            return None
        if const is not None:
            if eq:
                return None
            value = const
        elif eq:
            if value.startswith("--"):
                return None
        elif i < len(tokens) and not tokens[i].startswith("-"):
            value = tokens[i]
            i += 1
        else:
            return None
        if convert is not None:
            try:
                value = convert(value)
            except (TypeError, ValueError):
                return None
        if choices is not None and value not in choices:
            return None
        read[dest] = value
    if not read.keys() >= required:
        return None
    for dests, needed in groups:
        count = len(read.keys() & dests)
        if count > 1 or needed and not count:
            return None
    return SimpleNamespace(**{**defaults, **read})


def main(argv=None) -> int:
    """Run one qpcert call on argv (default sys.argv[1:]); return its exit code.

    A call that names a command (for triangles, also count or list) and
    has a shape _read_argv takes is read in one pass, without argparse.
    Every other call goes through build_parser().parse_args(argv), which
    prints every help text and every usage error.  Either way the handler
    gets the same options as from build_parser().parse_args(argv).
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    depth = 2 if argv[:1] == ["triangles"] else 1
    table = _TABLES.get(tuple(argv[:depth]))
    args = None if table is None else _read_argv(table, argv[depth:])
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: an index or size is too large to allocate ({exc})", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: expression is nested too deeply", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; the requested window or range is too large",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
