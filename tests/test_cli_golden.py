"""Byte-for-byte replay of the README commands against tests/golden/cli_commands.json.

Each case holds the argument list, the exit code, and the exact stdout and
stderr.  It covers every README command in table, json and csv, the usage
errors, and each data command's --help.  To re-record after an intended
change of output:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from conftest import invoke

GOLDEN = Path(__file__).parent / "golden" / "cli_commands.json"

README_COMMANDS = [
    ["bound", "--d-min", "3", "--d-max", "100"],
    ["bound", "--d-min", "1", "--d-max", "1"],
    ["phi", "--disc", "-4", "--n", "5"],
    ["galois", "--disc", "-4", "--p", "3", "--a", "1", "--b", "1"],
    ["galois", "--disc", "-7", "--p", "5", "--a", "0"],
    ["galois", "--disc", "-8", "--n", "12"],
    ["analytics", "mertens", "--x", "1000000"],
    ["analytics", "product", "--disc", "-4", "--x", "1000000"],
    ["analytics", "scan", "--disc", "-4", "--x", "10000"],
    ["analytics", "landau", "--disc", "-4", "--x", "10000"],
]

USAGE_ERRORS = [
    ["bound", "--d-min", "5", "--d-max", "4"],
    ["phi", "--disc", "-12", "--n", "5"],
    ["galois", "--disc", "-8", "--n", "201"],
    ["galois", "--disc", "-8"],
    ["analytics", "scan", "--disc", "-4", "--x", "2"],
]

DATA_COMMANDS = [
    ["bound"],
    ["phi"],
    ["galois"],
    ["analytics", "mertens"],
    ["analytics", "product"],
    ["analytics", "scan"],
    ["analytics", "landau"],
]

CASES = (
    [[*args, "--format", fmt] for args in README_COMMANDS for fmt in ("table", "json", "csv")]
    + USAGE_ERRORS
    + [[*args, "--help"] for args in DATA_COMMANDS]
)


def run(args: list[str]) -> dict:
    # prog "cli", and help wrapped as in a terminal of 80 columns
    result = invoke(args)
    return {
        "args": args,
        "exit_code": result.exit_code,
        "stdout": result.stdout,
        "stderr": result.stderr,
    }


@pytest.fixture(scope="module")
def golden() -> dict[str, dict]:
    return {" ".join(case["args"]): case for case in json.loads(GOLDEN.read_text())}


def test_golden_holds_exactly_the_cases(golden):
    assert list(golden) == [" ".join(args) for args in CASES]


@pytest.mark.parametrize("args", CASES, ids=" ".join)
def test_cli_output_matches_golden(golden, args):
    assert run(args) == golden[" ".join(args)]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([run(args) for args in CASES], indent=1) + "\n")
