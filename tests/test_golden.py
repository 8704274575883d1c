"""The golden record: the exact stdout of one run per (subcommand, format).

Each file golden/<command>-<format>.txt is a transcript.  Its first line is
the command line, "$ cubesums <args>"; the rest is the bytes that command
prints.  The runs are in process.  To record a pair, write the line and the
output of one desk-sized run,

    { echo '$ cubesums ARGS'; cubesums ARGS; } > tests/golden/CMD-FMT.txt

The one field compared loosely is wall_time, the run's own timing, that
variance and sieved print: its JSON value and its CSV column (the last, as
columns are in sorted key order) are masked on both sides.

density, variance and sieved need the S1 surface table, and sieved needs
weight_l2_norm_sq(nu_star(2)); inside the suite both are already in their
lru caches, so the record adds a few seconds.  Run alone, this module
builds S1 in its first density run, which took 15.6 s, and sieved pays
7.2 s for the norm (one fresh process, 2-core Xeon, Python 3.11.7,
numpy 2.4.6).
"""

import re
import shlex
from pathlib import Path

import pytest

from cubesums.cli import _COMMANDS, main

GOLDEN = Path(__file__).parent / "golden"

_DECLARED = {(command, fmt) for command, (_h, formats, _help, _f)
             in _COMMANDS.items() for fmt in formats}

_TRANSCRIPTS = sorted(GOLDEN.glob("*.txt"))


def _pair(path):
    command, fmt = path.stem.rsplit("-", 1)
    return command, fmt


def _mask_wall_time(text):
    lines = text.split("\n")
    if lines[0].endswith(",wall_time"):
        return "\n".join(line.rsplit(",", 1)[0] for line in lines)
    return re.sub(r'("wall_time": )\S+', r"\1-", text)


def test_every_declared_pair_is_recorded():
    assert {_pair(path) for path in _TRANSCRIPTS} == _DECLARED


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
    assert _mask_wall_time(out.out) == _mask_wall_time(expected)
