"""The README's examples: its command lines and its Python API block.

Each ``$ apolar analyze|pencil|family ...`` line in a fenced block of the
README is followed by the output it prints; the test runs the command
through ``cli.main`` and compares stdout with those lines, so the
documented sessions stay true.  The ``python`` block runs as written, and
the names it imports from ``apolar`` are the package's ``__all__``.
"""

from __future__ import annotations

import ast
import shlex
from pathlib import Path

import pytest

import apolar
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


def _python_block() -> str:
    text = README.read_text()
    start = text.index("```python\n") + len("```python\n")
    return text[start:text.index("```", start)]


def test_readme_python_block_runs():
    exec(compile(_python_block(), str(README), "exec"), {})


def test_package_exports_the_readme_names():
    imported = [alias.name for node in ast.walk(ast.parse(_python_block()))
                if isinstance(node, ast.ImportFrom) and node.module == "apolar"
                for alias in node.names]
    assert sorted(apolar.__all__) == sorted(imported)
