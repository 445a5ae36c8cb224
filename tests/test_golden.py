"""CLI output frozen byte for byte: stdout and exit code per argument vector.

Each case in ``golden/cases.json`` names an argv, its exit code and the
file holding its stdout.  Relative paths in an argv resolve against the
``golden`` directory.  The tests never rewrite these files: a change
that alters output bytes edits them deliberately and says why.  CI runs
the same cases, from the ``golden`` directory, through the installed
``cycleweights`` script and compares its exit code and stdout bytes too,
so this list is the one contract list of argument vectors.
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


def test_the_corpus_has_no_orphan_and_no_duplicate_name():
    names = [c["name"] for c in CASES]
    assert len(set(names)) == len(names)
    assert {p.stem for p in GOLDEN.glob("*.out")} == set(names)
    used = {token for c in CASES for token in c["argv"]}
    assert {f"inputs/{p.name}" for p in (GOLDEN / "inputs").iterdir()} <= used


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("case", [c for c in CASES if "--json" in c["argv"]],
                         ids=lambda c: c["name"])
def test_json_golden_output_is_strict_json(case):
    text = (GOLDEN / f"{case['name']}.out").read_text(encoding="utf-8")
    lines = text.splitlines()
    # a usage error prints nothing; any other exit prints at least one object
    assert bool(lines) == (case["exit"] != 2)
    for line in lines:
        json.loads(line, parse_constant=_reject_constant)
