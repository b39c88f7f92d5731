"""The CLI's JSON output, byte for byte, against the files under golden/.

Each file is the stdout of `python -m nclosed <command> --format json`.
JSON output is deterministic, so a change that keeps the verdicts keeps
these bytes; rewrite a file only for an intended change of output.
"""

from pathlib import Path

import pytest

from nclosed.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

COMMANDS = {
    "verify_default.json": ["verify", "--corpus", "default", "--jobs", "1"],
    "coset_Z9_power2.json": ["coset", "Z9", "--subgroup", "3", "--rep", "1",
                             "--power", "2"],
    "check_S3.json": ["check", "S3", "--subset", "(1 3),(1 2 3)", "--n", "3"],
    "subgroups_S4.json": ["subgroups", "S4"],
    "group_S4.json": ["group", "S4"],
    "scan_Z4.json": ["scan", "Z4", "--jobs", "1"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_json_matches_golden(name, capsys):
    code = main([*COMMANDS[name], "--format", "json"])
    assert code == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()
