"""Byte-for-byte CLI outputs, pinned in cli_golden.json.

Each case is one `qpcert` invocation (argv, optional stdin) with its
expected exit code and exact stdout.  The cases cover every subcommand
in text, json and csv form, so any change to rendering, to the
coefficient computation or to interpolation that alters a single
output byte fails here.
"""

import io
import json
from pathlib import Path

import pytest

from qpcert.cli import main

CASES = json.loads((Path(__file__).parent / "cli_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_output_is_byte_identical(case, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(case["stdin"] or ""))
    code = main(case["argv"])
    assert code == case["exit"]
    assert capsys.readouterr().out == case["stdout"]
