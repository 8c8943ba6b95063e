"""Every case of the command line's contract corpus does what
tests/corpus.json says it did; tests/contract.py rewrites that file."""

import json

import pytest

from contract import CORPUS, run

DATA = json.loads(CORPUS.read_text())
CASES = DATA["cases"]


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_case_matches_corpus(case, tmp_path, monkeypatch):
    # Python 3.14's argparse colours its messages when asked to by the environment.
    monkeypatch.setenv("PYTHON_COLORS", "0")
    expected = {key: value for key, value in case.items() if key not in ("name", "argv", "inputs")}
    assert run(case, DATA["documents"], tmp_path) == expected


def test_corpus_covers_every_command_and_exit_code():
    commands = {case["argv"][0] for case in CASES if case["argv"]}
    assert commands == {"construct", "forward", "verify", "limit", "render"}
    assert {case.get("exit") for case in CASES} >= {0, 1, 2, 3}
    assert {case.get("raises") for case in CASES} <= {None, "ZeroDivisionError"}
