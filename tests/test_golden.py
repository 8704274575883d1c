"""The golden record: the exact stdout of one run per (subcommand, format).

Each file golden/<command>-<format>.txt is a transcript.  Its first line is
the command line, "$ cubesums <args>"; the rest is the bytes that command
prints.  The runs are in process.  To record a pair, write the line and the
output of one desk-sized run,

    { echo '$ cubesums ARGS'; cubesums ARGS; } > tests/golden/CMD-FMT.txt

and take the pair off _NOT_YET_RECORDED.
"""

import shlex
from pathlib import Path

import pytest

from cubesums.cli import _COMMANDS, main

GOLDEN = Path(__file__).parent / "golden"

_DECLARED = {(command, fmt) for command, (_h, formats, _help, _f)
             in _COMMANDS.items() for fmt in formats}

# the pairs with no transcript yet; recording one takes it off this list
_NOT_YET_RECORDED = {
    ("series", "csv"), ("series", "json"),
    ("density", "csv"), ("density", "json"),
    ("count", "csv"), ("count", "json"),
    ("variance", "json"), ("variance", "csv"),
    ("sieved", "json"), ("sieved", "csv"),
    ("verify", "text"),
    ("scan-exceptional", "json"), ("scan-exceptional", "csv"),
}

_TRANSCRIPTS = sorted(GOLDEN.glob("*.txt"))


def _pair(path):
    command, fmt = path.stem.rsplit("-", 1)
    return command, fmt


def test_every_declared_pair_is_recorded_or_listed():
    recorded = {_pair(path) for path in _TRANSCRIPTS}
    assert recorded <= _DECLARED, recorded - _DECLARED
    assert not recorded & _NOT_YET_RECORDED, recorded & _NOT_YET_RECORDED
    assert _DECLARED == recorded | _NOT_YET_RECORDED, \
        _DECLARED - recorded - _NOT_YET_RECORDED


@pytest.mark.parametrize("path", _TRANSCRIPTS, ids=lambda path: path.stem)
def test_golden_bytes(path, capsys):
    command_line, expected = path.read_bytes().decode().split("\n", 1)
    prompt, program, *argv = shlex.split(command_line)
    assert (prompt, program) == ("$", "cubesums")
    command, fmt = _pair(path)
    formats = _COMMANDS[command][1]
    printed = argv[argv.index("--format") + 1] if "--format" in argv \
        else formats[0]
    assert (argv[0], printed) == (command, fmt)
    assert main(argv) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out == expected
