"""CLI output frozen byte for byte: stdout and exit code per argument vector.

Each case in ``golden/cases.json`` names an argv, its exit code and the
file holding its stdout.  Relative paths in an argv resolve against the
``golden`` directory.  The tests never rewrite these files: a change
that alters output bytes edits them deliberately and says why.
"""

import json
from pathlib import Path

import pytest

from cycleweights.cli import run

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_output_matches_golden(case, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code = run(list(case["argv"]))
    out = capsys.readouterr().out
    expected = (GOLDEN / f"{case['name']}.out").read_bytes().decode("utf-8")
    assert code == case["exit"]
    assert out == expected


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("case", [c for c in CASES if "--json" in c["argv"]],
                         ids=lambda c: c["name"])
def test_json_golden_output_is_strict_json(case):
    text = (GOLDEN / f"{case['name']}.out").read_text(encoding="utf-8")
    lines = text.splitlines()
    assert lines
    for line in lines:
        json.loads(line, parse_constant=_reject_constant)
