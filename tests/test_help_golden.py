"""Pinned help and usage output of the command line: top-level --help, each
command's --help, an unknown command and two usage errors.

The digests are sha256 of the UTF-8 stdout and stderr, recorded with
Python 3.11's argparse at 80 columns, before the parser built only the
arguments of the command that it parses; argparse words its help
differently in other Python versions.
"""

import hashlib

import pytest

from shotbudget import cli

COMMANDS = ["shots", "qcb", "chisq", "noise", "budget", "validate", "curve"]
CASES = {
    "help": ["--help"],
    **{f"help_{command}": [command, "--help"] for command in COMMANDS},
    "unknown_command": ["nosuch"],
    "budget_no_spec": ["budget"],
    "budget_out_xml": ["budget", "--spec", "spec.json", "--out", "xml"],
}

_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
# case -> (exit code, sha256 of stdout, sha256 of stderr)
GOLDEN = {
    "help": (0, "23578b96b40e28af9692596795fb6449dbb77e91939b2fbb29758c990cc5253b", _EMPTY),
    "help_shots": (0, "acbd143c1bba45829eaa368e9faf4e9fa585a636b4a3fbe2c5cbe6b231a2386b", _EMPTY),
    "help_qcb": (0, "25105b5847864e942d335c089939e758f763f7d2080c2b71229d947f9aca4e95", _EMPTY),
    "help_chisq": (0, "00015f2020178b400126e7e169ea6ae8eef8ccdebd5a2c25b4596d45a8dd484f", _EMPTY),
    "help_noise": (0, "27c3961e5b3f6d92fc4a1e38be8543749a0e5ac3a03d11a4d2a555b2d83f1a0b", _EMPTY),
    "help_budget": (0, "4721e3188b3fffb83613a27cde46a10e544e5018594c34870ef89a2a4aa1136b", _EMPTY),
    "help_validate": (0, "4387903e3cb9abfff25515433afd194e1b6aeb7b90c6fb75fc33a4f77309db30", _EMPTY),
    "help_curve": (0, "6f3995b2adcbc672770dc31e9becc3f449d4478bd2e7ec4e9d259a88e17de5d6", _EMPTY),
    "unknown_command": (2, _EMPTY, "5a46274aca7c311db3e3f1d17bd27aa2bb117a1010fe90466a3c812e97d8aa1f"),
    "budget_no_spec": (2, _EMPTY, "9a377a74e2305d4130e10b9e3a923e9766b6d423edf9a57bc57af4768f7da785"),
    "budget_out_xml": (2, _EMPTY, "0d2fb26b99046de79a2f15ba0d77ff50541437fa038a9b2eaead6da20c6abf27"),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_help_and_usage_are_pinned(case, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    with pytest.raises(SystemExit) as info:
        cli.main(CASES[case])
    captured = capsys.readouterr()
    assert (info.value.code, _sha(captured.out), _sha(captured.err)) == GOLDEN[case], captured.out + captured.err
