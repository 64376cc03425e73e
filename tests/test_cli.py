import csv
import importlib
import io
import json
import os
import re
import subprocess
import sys
from enum import IntEnum
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qpcert.cli
from qpcert.cli import (_csv_fields, _ints, _join_ints, _json_dump, _table, build_parser,
                        main)
from qpcert.triangles import count_bruteforce

from oracles import alcuin_count
from test_cli_golden import CASES, USAGE_ERRORS, _run

ANDREWS = "round(n^2/12)-floor(n/4)*floor((n+2)/4)"


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_coeffs_text(capsys):
    code, out, _ = run(capsys, ["coeffs", "--parts", "2,3,4", "--shift", "3", "--upto", "12"])
    assert code == 0
    assert out == "0 0 0 1 0 1 1 2 1 3 2 4 3\n"


def test_coeffs_geometric(capsys):
    code, out, _ = run(capsys, ["coeffs", "--parts", "1", "--shift", "0", "--upto", "3"])
    assert code == 0
    assert out == "1 1 1 1\n"


def test_coeffs_upto_zero(capsys):
    code, out, _ = run(capsys, ["coeffs", "--parts", "2,3,4", "--shift", "3", "--upto", "0"])
    assert code == 0
    assert out == "0\n"


def test_coeffs_with_numerator_list(capsys):
    code, out, _ = run(capsys, ["coeffs", "--parts", "1", "--num", "1,0,0,1", "--upto", "6"])
    assert code == 0
    assert out == "1 1 1 2 2 2 2\n"


def test_coeffs_requires_num_or_shift(capsys):
    with pytest.raises(SystemExit) as err:
        main(["coeffs", "--parts", "2,3,4", "--upto", "5"])
    assert err.value.code == 2


def test_coeffs_rejects_bad_parts(capsys):
    with pytest.raises(SystemExit) as err:
        main(["coeffs", "--parts", "2,0", "--shift", "0", "--upto", "5"])
    assert err.value.code == 2


def test_certify_certified_exit_zero(capsys):
    code, out, _ = run(
        capsys,
        ["certify", "--parts", "2,3,4", "--shift", "3", "--expr", ANDREWS],
    )
    assert code == 0
    assert "verdict: certified" in out
    assert "degree bound: 2" in out
    assert "period: 12" in out
    assert "window: [0, 36) (36 checks)" in out


def test_certify_refuted_exit_one(capsys):
    code, out, _ = run(
        capsys,
        ["certify", "--parts", "2,3,4", "--shift", "3", "--expr", "floor(n/4)"],
    )
    assert code == 1
    assert "verdict: refuted" in out
    assert "witness: n=3 lhs=1 rhs=0" in out


def test_certify_parse_error_exit_two(capsys):
    code, out, err = run(
        capsys,
        ["certify", "--parts", "2,3,4", "--shift", "3", "--expr", "round(n^2/"],
    )
    assert code == 2
    assert out == ""
    assert "offset 10" in err


def test_certify_trunc_exit_two(capsys):
    code, out, err = run(
        capsys,
        ["certify", "--parts", "2", "--shift", "0", "--expr", "trunc((n-5)/2)"],
    )
    assert code == 2
    assert out == ""
    assert "unknown identifier 'trunc'" in err


@pytest.mark.parametrize("num", ["1,x", "1,,2", "1.5", ""])
def test_certify_bad_num_token_error_text(capsys, num):
    with pytest.raises(SystemExit) as err:
        main(["certify", "--parts", "1", "--num", num, "--expr", "1"])
    assert err.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"qpcert certify: error: argument --num: expected comma-separated integers, got {num!r}")


# int() reads other scripts' digits: Arabic-Indic 3 here would be read as 3
ARABIC_3 = "\u0663"


def _bad_flag(argv):
    """(flag, value) of the one bad integer value in argv."""
    i = next(i for i, a in enumerate(argv) if a == ARABIC_3 or ",," in a or a.endswith(","))
    return argv[i - 1], argv[i]


@pytest.mark.parametrize("argv", [
    ["certify", "--parts", ARABIC_3, "--shift", "0", "--expr", "1"],
    ["certify", "--parts", "2,,3", "--shift", "0", "--expr", "1"],
    ["certify", "--parts", "2,3,", "--shift", "0", "--expr", "1"],
    ["certify", "--parts", "1", "--num", ARABIC_3, "--expr", "1"],
    ["certify", "--parts", "1", "--shift", ARABIC_3, "--expr", "1"],
    ["coeffs", "--parts", "1", "--shift", "0", "--upto", ARABIC_3],
    ["certify", "--parts", "1", "--shift", "0", "--expr", "1", "--onset", ARABIC_3],
    ["certify", "--parts", "1", "--shift", "0", "--expr", "1", "--probe", ARABIC_3],
    ["certify", "--parts", "1", "--shift", "0", "--expr", "1", "--probe", "5",
     "--seed", ARABIC_3],
    ["triangles", "count", "--perimeter", ARABIC_3],
    ["fit", "--stdin", "--dmax", ARABIC_3, "--lmax", "1"],
    ["fit", "--stdin", "--dmax", "0", "--lmax", ARABIC_3],
    ["fit", "--stdin", "--dmax", "0", "--lmax", "1", "--holdout", ARABIC_3],
], ids=lambda argv: "{}={}".format(*_bad_flag(argv)))
def test_integer_flag_rejects_non_ascii_and_blank_fields(capsys, argv):
    flag, bad = _bad_flag(argv)
    what = "comma-separated integers" if flag in ("--parts", "--num") else "an integer"
    prog = " ".join(["qpcert", *(a for a in argv[:2] if not a.startswith("--"))])
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"{prog}: error: argument {flag}: expected {what}, got {bad!r}")


def test_certify_non_ascii_digit_exit_two(capsys):
    # '1^٣' once parsed as 1^3 and certified
    code, out, err = run(capsys, ["certify", "--parts", "1", "--shift", "0", "--expr", "1^٣"])
    assert code == 2
    assert out == ""
    assert "offset 2: unexpected character" in err


def _read_ints(text, sep):
    """(_ints(text, sep), None), or (None, its ValueError's message)."""
    try:
        return _ints(text, sep), None
    except ValueError as exc:
        return None, str(exc)


def _read_with_int(text, sep):
    """(list, None) or (None, message) from int() of each field, the reader _ints falls back to."""
    try:
        return list(map(int, text.split(sep))), None
    except ValueError as exc:
        return None, str(exc)


_PLAIN_PIECES = list("0123456789,-")
_TEXT_PIECES = _PLAIN_PIECES + list("+_.e \t\x0b[]\"") + ["true", "null", "NaN"]


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.lists(st.sampled_from(_PLAIN_PIECES), max_size=16),
                 st.lists(st.sampled_from(_TEXT_PIECES), max_size=16)).map("".join),
       st.sampled_from([",", None]))
def test_ints_reads_as_int_of_each_field(text, sep):
    # the json scanner takes plain comma lists; every text must still give
    # int()'s values, or raise int()'s message
    assert _read_ints(text, sep) == _read_with_int(text, sep)


_PAST_DIGIT_LIMIT = "1" * (sys.get_int_max_str_digits() + 1)


@pytest.mark.parametrize("sep", [",", None])
@pytest.mark.parametrize("text", ["", "-0", "0,-0", "00,1", "1.0", "1e3", "[1]", _PAST_DIGIT_LIMIT],
                         ids=lambda text: "past-digit-limit" if len(text) > 9 else repr(text))
def test_ints_fixed_texts_read_as_int_of_each_field(text, sep):
    assert _read_ints(text, sep) == _read_with_int(text, sep)
    if text is _PAST_DIGIT_LIMIT:
        assert _read_ints(text, sep)[1] is not None


def test_plain_comma_lists_take_the_json_scanner(monkeypatch):
    scan = qpcert.cli._json_scan
    calls, read = [], []

    def spy(text, start):
        calls.append(text)
        read.append(scan(text, start))
        return read[-1]

    monkeypatch.setattr(qpcert.cli, "_json_scan", spy)
    assert _ints("0,-12,345", ",") == [0, -12, 345]
    assert (calls, read) == (["[0,-12,345]"], [([0, -12, 345], 11)])
    calls.clear()
    assert _ints("+1,2", ",") == [1, 2]
    assert _ints(" 1", ",") == [1]
    assert _ints("3 -4\n5\n", None) == [3, -4, 5]
    assert calls == []


@pytest.mark.parametrize("expr", ["+".join(["1"] * 1200), "(" * 600 + "n" + ")" * 600],
                         ids=["long-sum", "deep-parens"])
def test_certify_too_deep_expression_exit_two(capsys, expr):
    # exit 1 would read as "refuted"; a deep expression is bad input
    code, out, err = run(capsys, ["certify", "--parts", "1", "--shift", "0", "--expr", expr])
    assert code == 2
    assert out == ""
    assert err == "error: expression is nested too deeply\n"


def test_certify_300_nested_parens_exit_zero(capsys):
    # each paren level costs the parser three frames (atom, expr, factor),
    # so about 330 levels fit under the recursion limit; a fourth frame per
    # level would put this depth past it
    code, out, err = run(capsys, ["certify", "--parts", "1", "--shift", "0",
                                  "--expr", "(" * 300 + "1" + ")" * 300])
    assert code == 0
    assert err == ""


def test_certify_out_of_memory_exit_two(capsys, monkeypatch):
    # exit 1 would read as "refuted"; a window too large to hold is bad input
    def exhausted(*args, **kwargs):
        raise MemoryError

    # the CLI calls the certify module's function; the dotted path
    # "qpcert.certify.certify" would resolve through the package's certify
    monkeypatch.setattr(importlib.import_module("qpcert.certify"), "certify", exhausted)
    code, out, err = run(capsys, ["certify", "--parts", "1000003,1000033", "--shift", "0",
                                  "--expr", "0"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: out of memory")


HUGE = str(10**20)


@pytest.mark.parametrize("argv", [
    ["coeffs", "--parts", "1", "--shift", "0", "--upto", HUGE],
    ["certify", "--parts", "1", "--shift", HUGE, "--expr", "1"],
    ["certify", "--parts", HUGE, "--shift", "0", "--expr", "1"],
])
def test_index_too_large_to_allocate_exit_two(capsys, argv):
    # exit 1 would read as "refuted"; an index past the address space is bad input
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_certify_onset_past_address_space_certifies(capsys):
    # a window far past its own length is read through coeffs_at, so an
    # onset past the address space allocates no expansion
    code, out, err = run(capsys, ["certify", "--parts", "1", "--shift", "0", "--expr", "1",
                                  "--onset", HUGE])
    assert (code, err) == (0, "")
    assert f"window: [{HUGE}, {10**20 + 1}) (1 checks)\n" in out
    assert out.startswith("verdict: certified\n")


def test_certify_probe_reported(capsys):
    code, out, _ = run(
        capsys,
        ["certify", "--parts", "2,3,4", "--shift", "3", "--expr", ANDREWS,
         "--probe", "50", "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["probe"]["agreed"] is True
    assert doc["result"]["probe"]["seed"] == "0"


def test_certify_probe_rejects_onset_beyond_probe_limit(capsys, monkeypatch):
    def no_certify(*args, **kwargs):
        raise AssertionError("certify ran before the flags were checked")

    monkeypatch.setattr(importlib.import_module("qpcert.certify"), "certify", no_certify)
    code, out, err = run(
        capsys,
        ["certify", "--parts", "1", "--shift", "0", "--expr", "1",
         "--onset", "200000", "--probe", "5"],
    )
    assert code == 2
    assert out == ""
    assert "--onset" in err and "--probe" in err and "100000" in err


def test_certify_zero_probes_reject_onset_beyond_probe_limit(capsys):
    # --probe 0 once printed "0 probes up to n=100000 ...: agreed" for a
    # range that lies below the onset
    code, out, err = run(
        capsys,
        ["certify", "--parts", "2,3,4", "--shift", "3", "--expr", ANDREWS,
         "--onset", "200000", "--probe", "0"],
    )
    assert code == 2
    assert out == ""
    assert "--onset" in err and "--probe" in err and "100000" in err


def _spawn(argv):
    """qpcert argv in a child interpreter, stdout and stderr piped back.

    stdout is block-buffered as in a default shell, so a flush at exit
    would meet the closed pipe too.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen([sys.executable, "-m", "qpcert.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def test_reader_closing_early_leaves_coeffs_exit_zero():
    # `qpcert coeffs ... | head -n 1`: 200001 rows overflow the pipe buffer,
    # so the child is still writing when the reader goes away
    with _spawn(["coeffs", "--parts", "1,2,3,4,5,6,7", "--shift", "0",
                 "--upto", "200000", "--format", "csv"]) as proc:
        assert proc.stdout.readline() == b"n,coefficient\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    assert err == b""


def test_reader_closed_before_write_keeps_refuted_exit_one():
    with _spawn(["certify", "--parts", "2,3,4", "--shift", "3", "--expr", "floor(n/4)"]) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert err == b""


def test_triangles_count(capsys):
    code, out, _ = run(capsys, ["triangles", "count", "--perimeter", "12"])
    assert code == 0
    assert out == "3\n"


def test_triangles_count_matches_bruteforce(capsys):
    for n in range(401):
        code, out, _ = run(capsys, ["triangles", "count", "--perimeter", str(n)])
        assert (code, out) == (0, f"{count_bruteforce(n)}\n"), n


@pytest.mark.parametrize("n", [10**12, 10**12 + 1])
def test_triangles_count_huge_perimeter(capsys, n):
    # far past any loop: about 1.7e11 longest sides to enumerate
    code, out, _ = run(capsys, ["triangles", "count", "--perimeter", str(n)])
    assert (code, out) == (0, f"{alcuin_count(n)}\n")


def test_triangles_count_degenerate(capsys):
    code, out, _ = run(capsys, ["triangles", "count", "--perimeter", "2"])
    assert code == 0
    assert out == "0\n"


def test_triangles_list(capsys):
    code, out, _ = run(capsys, ["triangles", "list", "--perimeter", "3"])
    assert code == 0
    assert out == "(1,1,1)\n"


def test_triangles_negative_perimeter_exit_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["triangles", "count", "--perimeter", "-4"])
    assert err.value.code == 2


def test_fit_triangle_counts_from_file(tmp_path, capsys):
    values = tmp_path / "counts.txt"
    values.write_text(" ".join(str(count_bruteforce(n)) for n in range(50)))
    code, out, _ = run(
        capsys,
        ["fit", "--values", str(values), "--dmax", "3", "--lmax", "12"],
    )
    assert code == 0
    assert "period: 12" in out
    assert "degree: 2" in out
    assert "holdout_verified: true" in out


def test_fit_constant_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("7\n" * 20))
    code, out, _ = run(capsys, ["fit", "--stdin", "--dmax", "2", "--lmax", "4"])
    assert code == 0
    assert "period: 1" in out
    assert "constituent 0: 7" in out


def test_fit_insufficient_samples_exit_two(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1 2 3 4 5"))
    code, _, err = run(
        capsys, ["fit", "--stdin", "--dmax", "2", "--lmax", "4", "--holdout", "2"]
    )
    assert code == 2
    assert "14" in err


def test_fit_rejects_non_integer_values(tmp_path, capsys):
    values = tmp_path / "bad.txt"
    values.write_text("1 2 x")
    code, _, err = run(capsys, ["fit", "--values", str(values), "--dmax", "1", "--lmax", "1"])
    assert code == 2
    assert err == ("error: values must be whitespace-separated integers: "
                   "invalid literal for int() with base 10: 'x'\n")


def test_fit_missing_values_file(tmp_path, capsys):
    missing = tmp_path / "nope.txt"
    code, out, err = run(capsys, ["fit", "--values", str(missing), "--dmax", "1", "--lmax", "1"])
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"


def test_fit_non_ascii_value_same_error_from_file_and_stdin(tmp_path, capsys, monkeypatch):
    text = f"{ARABIC_3} 3 3 3 3"
    values = tmp_path / "values.txt"
    values.write_text(text, encoding="utf-8")
    from_file = run(capsys, ["fit", "--values", str(values), "--dmax", "0", "--lmax", "1"])
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    from_stdin = run(capsys, ["fit", "--stdin", "--dmax", "0", "--lmax", "1"])
    assert from_file == from_stdin == (2, "", (
        "error: values must be whitespace-separated integers: "
        f"non-ASCII character {ARABIC_3!r} at offset 0\n"))


def test_paper_text(capsys):
    code, out, _ = run(capsys, ["paper"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "true"
    assert len(lines) == 39  # header + 37 rows + verdict


def test_paper_json_carries_both_arrays(capsys):
    code, out, _ = run(capsys, ["paper", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["result"]["coefficients"]) == 37
    assert len(doc["result"]["formula"]) == 37
    assert doc["result"]["coefficients"] == doc["result"]["formula"]
    assert doc["result"]["equal"] is True


def test_formats_carry_identical_coefficients(capsys):
    # each form prints its ints in one %-format pass: text, json and csv
    # must carry the same decimal strings, the csv rows numbered 0..upto
    for argv in (
        ["coeffs", "--parts", "2,3,4", "--shift", "3", "--upto", "12"],
        ["coeffs", "--parts", "1,2,3,4,5,6,7", "--shift", "0", "--upto", "2000"],
    ):
        _, text_out, _ = run(capsys, argv)
        _, json_out, _ = run(capsys, argv + ["--format", "json"])
        _, csv_out, _ = run(capsys, argv + ["--format", "csv"])
        from_json = json.loads(json_out)["result"]["coefficients"]
        header, *rows = csv.reader(io.StringIO(csv_out, newline=""))
        assert header == ["n", "coefficient"]
        assert [n for n, _ in rows] == list(map(str, range(int(argv[-1]) + 1)))
        assert text_out.split() == from_json == [c for _, c in rows]


def test_schema_version_present_everywhere(capsys):
    for argv in (
        ["coeffs", "--parts", "1", "--shift", "0", "--upto", "2", "--format", "json"],
        ["paper", "--format", "json"],
        ["triangles", "count", "--perimeter", "9", "--format", "json"],
    ):
        _, out, _ = run(capsys, argv)
        assert json.loads(out)["schema_version"] == "1"


def test_unknown_subcommand_exit_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


_CERTIFY_N = ["certify", "--parts", "2,3,4", "--shift", "3", "--expr", "n"]

# the edges of main's dispatch: help, no command first, arguments left
# over, and flag spellings that the full parser classifies itself before
# it hands them to the command's parser
DISPATCH_EDGES = {
    "help": ["-h"],
    "help-then-command": ["-h", "certify"],
    "certify-help": ["certify", "-h"],
    "certify-help-abbreviated": [*_CERTIFY_N, "--he"],
    "triangles-help": ["triangles", "-h"],
    "triangles-count-help": ["triangles", "count", "-h"],
    "triangles-nosuch": ["triangles", "nosuch"],
    "certify-stray": [*_CERTIFY_N, "stray"],
    "triangles-count-stray": ["triangles", "count", "--perimeter", "5", "stray"],
    "paper-stray": ["paper", "stray"],
    "dashdash-then-command": ["--", *_CERTIFY_N],
    "certify-dashdash-stray": [*_CERTIFY_N, "--", "stray"],
    "abbreviated-flag": ["certify", "--par", "2,3,4", "--shift", "3", "--expr", "n"],
    "num-equals-negative": ["certify", "--parts", "1", "--num=-1,2", "--expr", "n"],
    "command-abbreviated": ["cert", "--parts", "2,3,4", "--shift", "3", "--expr", "n"],
}

DISPATCH_ARGV = (
    [pytest.param(c["argv"], id=c["name"]) for c in CASES if c["stdin"] is None]
    + [pytest.param(argv, id=f"usage-error-{i}") for i, argv in enumerate(USAGE_ERRORS)]
    + [pytest.param(argv, id=name) for name, argv in DISPATCH_EDGES.items()]
)


@pytest.mark.parametrize("argv", DISPATCH_ARGV)
def test_dispatch_matches_full_parser(monkeypatch, argv):
    # the reference is main with no command parsers to dispatch to: every
    # call goes through build_parser().parse_args(argv), then the handler
    # under main's exception mapping
    dispatched = _run(monkeypatch, argv, None)
    parser = build_parser()
    monkeypatch.setattr("qpcert.cli._parsers", lambda: (parser, {}))
    assert _run(monkeypatch, argv, None) == dispatched


@pytest.mark.parametrize("argv", [
    _CERTIFY_N,
    ["triangles", "count", "--perimeter", "12"],
    ["paper", "--format", "csv"],
])
def test_command_call_skips_full_parser(capsys, monkeypatch, argv):
    def unused(*args, **kwargs):
        raise AssertionError("the full parser parsed a command call")

    monkeypatch.setattr(build_parser(), "parse_args", unused)
    monkeypatch.setattr(build_parser(), "parse_known_args", unused)
    assert main(argv) in (0, 1)
    assert capsys.readouterr().out


def _entry_point():
    """The function that pyproject.toml installs as the qpcert script."""
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    module, name = re.search(r'^qpcert = "([\w.]+):(\w+)"$', text, re.MULTILINE).groups()
    return getattr(importlib.import_module(module), name)


# argv -> exit code: a command call, help from each parser, and an
# argument left over for the full parser to report
ENTRY_POINT_CALLS = {
    "command": (_CERTIFY_N, 1),
    "help": (["--help"], 0),
    "certify-help": (["certify", "--help"], 0),
    "stray": ([*_CERTIFY_N, "stray"], 2),
}


@pytest.mark.parametrize("argv, code", ENTRY_POINT_CALLS.values(), ids=ENTRY_POINT_CALLS)
def test_entry_point_reads_sys_argv(monkeypatch, argv, code):
    # the installed script calls main() with no argument, so main reads
    # sys.argv[1:]; sys.argv[0], the script's path, must not show
    expected = _run(monkeypatch, argv, None)
    assert expected[0] == code
    assert _entry_point() is main
    monkeypatch.setattr("sys.argv", ["venv/bin/qpcert", *argv])
    assert _run(monkeypatch, None, None) == expected


# strings heavy in what json escapes: quotes, backslashes, control
# characters, DEL, non-ASCII and astral code points, lone surrogates
_JSON_TEXT = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é\u2028€😀')
                     | st.characters(exclude_categories=()), max_size=8)


# 10**4000 - 1 has 4000 digits, within the default int-to-str limit of 4300
_INTS = st.integers(-1000, 1000) | st.integers(-(10**4000 - 1), 10**4000 - 1)


def _documents():
    return st.recursive(
        st.none() | st.booleans() | _JSON_TEXT | _INTS,
        lambda inner: (
            st.lists(_JSON_TEXT, max_size=5)
            # a list led by an int is an int list, written in one pass
            | st.lists(_INTS, max_size=5)
            | st.lists(st.lists(_INTS, max_size=4), max_size=4)
            # a list led by neither a str nor an int is written element by element
            | st.builds(lambda first, rest: [first, *rest],
                        inner.filter(lambda v: not isinstance(v, str) and type(v) is not int),
                        st.lists(inner, max_size=4))
            | st.dictionaries(_JSON_TEXT, inner, max_size=5)
        ),
        max_leaves=30,
    )


@settings(max_examples=200, deadline=None)
@given(_documents())
def test_json_writer_matches_stdlib_encoder(doc):
    # the writer prints each int (never a bool) as its decimal string
    def strs(value):
        if type(value) is int:
            return str(value)
        if isinstance(value, dict):
            return {k: strs(v) for k, v in value.items()}
        if isinstance(value, list):
            return list(map(strs, value))
        return value

    out = []
    _json_dump(doc, out)
    assert "".join(out) == json.dumps(strs(doc), indent=2, sort_keys=True)


class _Color(IntEnum):
    RED = 1


@pytest.mark.parametrize("value", [
    ["1", 2], ["a", None], ["a", True], ["a", ["b"]], {"k": ["1", {}]},
    3.0, {"k": 1.5}, {1: "a"}, ("a",),
    [1, True], [1, 1.5], [1, "2"], [Fraction(1, 2), 1],
    [1, None], [1, 2.0],
    {"k": [1, True]}, [1, _Color.RED],
])
def test_json_writer_rejects_what_documents_do_not_hold(value):
    # a string list and an int list are each encoded in one pass: a
    # non-str element, or an element that is not exactly an int (%d would
    # print True as 1 and 1.5 as 1), raises instead of being rendered
    with pytest.raises(TypeError):
        _json_dump(value, [])


_INT_LISTS = st.lists(_INTS, max_size=20)


def test_csv_fields_reject_an_int_list():
    # csv bodies hold str lists only (fit's constituents); an int list is
    # not joined but raises, like any other int where a str must be
    with pytest.raises(TypeError):
        _csv_fields({"k": [1, 2]})


@settings(max_examples=200, deadline=None)
@given(_INT_LISTS)
def test_int_lists_render_as_their_str_path(values):
    # the reference is the per-number str path each form used before
    strs = list(map(str, values))
    out = []
    _json_dump({"k": values, "n": [values]}, out)
    assert "".join(out) == json.dumps({"k": strs, "n": [strs]}, indent=2, sort_keys=True)
    assert _join_ints(values, " ") == " ".join(strs)
    old_rows = [["n", "coefficient"], *zip(map(str, range(len(values))), strs)]
    assert (_table("n,coefficient\n", "%d,%d\n", (range(len(values)), values))
            == "".join(",".join(row) + "\n" for row in old_rows))


def test_int_past_digit_limit_raises_str_error():
    big = 10 ** sys.get_int_max_str_digits()
    with pytest.raises(ValueError) as expected:
        str(big)
    for render in (lambda: _join_ints([1, big], " "),
                   lambda: _json_dump([big], []),
                   lambda: _json_dump(big, []),
                   lambda: _table("", "%d,%d\n", (range(1), [big]))):
        with pytest.raises(ValueError) as raised:
            render()
        assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_coeffs_past_digit_limit_exit_two(capsys, fmt):
    # ten numerator terms of 4300 nines sum to a 4301-digit coefficient
    nines = "9" * sys.get_int_max_str_digits()
    with pytest.raises(ValueError) as expected:
        str(10 * int(nines))
    code, out, err = run(capsys, ["coeffs", "--parts", "1", "--num", ",".join([nines] * 10),
                                  "--upto", "9", "--format", fmt])
    assert (code, out, err) == (2, "", f"error: {expected.value}\n")


def test_certify_witness_past_digit_limit_exit_two(capsys):
    # refuted at n = 0, but the witness's rhs has more digits than str()
    # prints: this pins today's exit 2 with str()'s message, not the
    # refutation's exit 1; printing such a witness is still open work
    with pytest.raises(ValueError) as expected:
        str(10**5000)
    code, out, err = run(capsys, ["certify", "--parts", "1", "--shift", "0",
                                  "--expr", "10^5000"])
    assert (code, out, err) == (2, "", f"error: {expected.value}\n")
