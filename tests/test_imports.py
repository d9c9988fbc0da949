"""Every module-level import in the package is used, no module-level
function lacks a package caller without a recorded reason, and nothing
that the command line runs pulls in ``numpy.random``.

A name imported at the top of a module of ``src/apolar`` must be read
somewhere in that module; ``__init__.py`` (which imports to re-export) and
``from __future__ import annotations`` are exempt.  A module-level
function that no package code reads (by name or attribute, outside its
own body) is either in :data:`UNCALLED` with the reason it stays, or
belongs in the tests.  Importing ``numpy.random`` costs about 4.5 MB of
resident memory, and the package draws its random numbers from
``random`` instead.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "apolar"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


# module-level functions without a package caller, and why each stays
UNCALLED = {
    ("apolarity", "hilbert_function"): "__all__",
    ("apolarity", "translated_apolar"): "README: translated generator sets",
    ("constructions", "random_cubic"):
        "perfbench/tracer.py LAYERS; perfbench/workloads.py",
    ("hilbert", "ev_product_matrix"): "perfbench/tracer.py LAYERS",
    ("hilbert", "perp4_dim"): "perfbench/workloads.py",
    ("hilbert", "perp_dimensions"): "perfbench/tracer.py LAYERS; README API",
    ("linalg", "interpolate"): "perfbench/tracer.py LAYERS",
    ("linalg", "restrict_kernel"): "perfbench/tracer.py LAYERS",
    ("linalg", "rref_q"): "perfbench/tracer.py LAYERS",
    ("poly", "contract"): "perfbench/tracer.py LAYERS; perfbench/workloads.py",
    ("poly", "dp_mul"): "README API",
    ("poly", "mul_s"): "perfbench/tracer.py LAYERS; README API",
}


def _uncalled_functions(trees: dict[str, ast.Module]) -> set[tuple[str, str]]:
    """(module, name) of each module-level function whose name no code
    of the given modules reads, outside the function's own body."""
    defined, read = set(), set()
    for module, tree in trees.items():
        for top in tree.body:
            own = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add((module, top.name))
                own = top.name
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else \
                    node.attr if isinstance(node, ast.Attribute) else None
                if name is not None and name != own:
                    read.add(name)
    return {(module, name) for module, name in defined if name not in read}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_module_level_import(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_every_uncalled_function_has_a_reason():
    trees = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    assert _uncalled_functions(trees) == set(UNCALLED)


def test_an_uncalled_function_is_found():
    trees = {"a": ast.parse("def f():\n    return f()\n\ndef g():\n"
                            "    pass\n\nx = g\n"),
             "b": ast.parse("import a\n\ndef h():\n    return a.g\n")}
    assert _uncalled_functions(trees) == {("a", "f"), ("b", "h")}


def test_cli_runs_never_import_numpy_random():
    # a fresh interpreter: an earlier test may have imported numpy.random
    script = "\n".join([
        "import contextlib, io, sys",
        "from apolar import cli",
        "F = 'x0*x1*x3 - x0*x4^2 + x1*x2^2 + x2*x4*x5 + x3*x5^2'",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    codes = [cli.main(['analyze', F]),",
        "             cli.main(['pencil', '--f1', F, '--f2', 'x5^3'])]",
        "print(codes, 'numpy.random' in sys.modules)",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.splitlines()[-1] == "[0, 0] False"


def test_an_unused_import_is_found():
    tree = ast.parse("import math\nfrom os import path, sep\nprint(sep)\n")
    assert _unused_imports(tree) == ["math", "path"]
