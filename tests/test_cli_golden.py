"""Byte-for-byte CLI outputs, pinned in cli_golden.json and cli_usage_golden.json.

Each case of cli_golden.json is one `qpcert` invocation (argv, optional
stdin) with its expected exit code and exact stdout.  The cases cover
every subcommand in text, json and csv form, so any change to
rendering, to the coefficient computation or to interpolation that
alters a single output byte fails here.  Each json document is also
checked against the stdlib encoder's canonical form.  Each case of
cli_usage_golden.json is a help call or a usage error, with its exit
code, stdout and stderr as argparse prints them at 80 columns.
"""

import contextlib
import csv
import io
import json
from pathlib import Path

import pytest

from qpcert.cli import build_parser, main

CASES = json.loads((Path(__file__).parent / "cli_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_output_is_byte_identical(case, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(case["stdin"] or ""))
    code = main(case["argv"])
    assert code == case["exit"]
    assert capsys.readouterr().out == case["stdout"]


def canonical_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _scalars(value):
    """Every value in a json document that is neither an object nor an array."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for v in value:
            yield from _scalars(v)
    else:
        yield value


@pytest.mark.parametrize("case", [c for c in CASES if c["argv"][-1] == "json"],
                         ids=lambda c: c["name"])
def test_json_documents_are_canonical(case, monkeypatch):
    # the writer prints what the stdlib encoder prints with sort_keys and
    # indent 2, on every Python; and since a bare "count": 3 has the same
    # layout as "count": "3", every scalar must be a str, a bool or null
    _, out, _ = _run(monkeypatch, case["argv"], case["stdin"])
    doc = json.loads(out)
    assert canonical_json(doc) == out
    assert all(isinstance(v, (str, bool, type(None))) for v in _scalars(doc))


@pytest.mark.parametrize("case", [c for c in CASES if c["argv"][-1] == "csv"],
                         ids=lambda c: c["name"])
def test_csv_fields_need_no_quoting(case):
    # the csv form joins fields with "," unquoted; a csv reader must read
    # the same rows back
    rows = list(csv.reader(io.StringIO(case["stdout"], newline="")))
    assert "".join(",".join(row) + "\n" for row in rows) == case["stdout"]


# argparse rejects these mid-parse with SystemExit(2) and a usage message
USAGE_ERRORS = [
    [],
    ["nosuch"],
    ["triangles"],
    ["certify", "--parts", "2,3"],
    ["certify", "--parts", "2,0", "--shift", "1", "--expr", "n"],
    ["coeffs", "--parts", "2", "--shift", "1", "--num", "1", "--upto", "3"],
    ["coeffs", "--parts", "2", "--shift", "1", "--upto", "-1", "--format", "json"],
    ["fit", "--stdin", "--dmax", "1", "--lmax", "0"],
    # Arabic-Indic 12, which int() would read as 12
    ["triangles", "count", "--perimeter", "\u0661\u0662"],
    # arguments the command's parser leaves over: the full parser reports them
    ["certify", "--parts", "2,3,4", "--shift", "3", "--expr", "n", "stray"],
    ["triangles", "count", "--perimeter", "5", "stray"],
]


def _run(monkeypatch, argv, stdin):
    """(exit code, stdout, stderr) of one main() call in this process."""
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin or ""))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_reused_parser_keeps_no_state(monkeypatch):
    assert build_parser() is build_parser()
    # one usage error after every sixth case, so each lands between
    # well-formed calls
    runs = []
    for i, case in enumerate(CASES):
        runs.append((case["argv"], case["stdin"], (case["exit"], case["stdout"])))
        if i % 6 == 5 and i // 6 < len(USAGE_ERRORS):
            runs.append((USAGE_ERRORS[i // 6], None, None))
    assert sum(expected is None for *_, expected in runs) == len(USAGE_ERRORS)
    forward = [_run(monkeypatch, argv, stdin) for argv, stdin, _ in runs]
    backward = [_run(monkeypatch, argv, stdin) for argv, stdin, _ in reversed(runs)]
    assert backward[::-1] == forward
    for (argv, _, expected), (code, out, err) in zip(runs, forward):
        if expected is None:
            assert code == 2 and out == "" and err.startswith("usage: qpcert"), argv
        else:
            assert (code, out) == expected, argv


USAGE = json.loads((Path(__file__).parent / "cli_usage_golden.json").read_text(encoding="utf-8"))
HELP_WORDS = [(), ("coeffs",), ("certify",), ("triangles",), ("triangles", "count"),
              ("triangles", "list"), ("fit",), ("paper",)]


def test_usage_cases_cover_every_parser_and_usage_error():
    argvs = [case["argv"] for case in USAGE]
    assert [tuple(argv[:-1]) for argv in argvs if argv[-1:] == ["--help"]] == HELP_WORDS
    assert all(argv in argvs for argv in USAGE_ERRORS)


@pytest.mark.parametrize("case", USAGE, ids=[c["name"] for c in USAGE])
def test_help_and_usage_errors_are_byte_identical(case, monkeypatch):
    # argparse wraps help and usage to the terminal's width, read from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    expected = (case["exit"], case["stdout"], case["stderr"])
    assert _run(monkeypatch, case["argv"], None) == expected
