"""The README's command-line examples, run through ``cli.main``.

Each ``$ apolar analyze|pencil|family ...`` line in a fenced block of the
README is followed by the output it prints; the test runs the command and
compares stdout with those lines, so the documented sessions stay true.
"""

from __future__ import annotations

import shlex
from pathlib import Path

import pytest

from apolar import cli

README = Path(__file__).resolve().parent.parent / "README.md"
CHECKED = ("analyze", "pencil", "family")


def _sessions():
    """(argv, expected stdout lines) for each checked README command."""
    sessions, current, in_block = [], None, False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_block, current = not in_block, None
        elif in_block and line.startswith("$ apolar "):
            argv = shlex.split(line[len("$ apolar "):], comments=True)
            current = (argv, []) if argv[0] in CHECKED else None
            if current:
                sessions.append(current)
        elif in_block and current:
            current[1].append(line)
    return sessions


SESSIONS = _sessions()


def test_readme_has_every_checked_example():
    assert sorted({argv[0] for argv, _ in SESSIONS}) == sorted(CHECKED)


@pytest.mark.parametrize("argv,expected", SESSIONS,
                         ids=[argv[0] for argv, _ in SESSIONS])
def test_readme_example(argv, expected, capsys):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines() == expected
