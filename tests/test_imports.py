"""Import hygiene: no package module imports a name it never uses, and the
CLI does not load scipy's integration or optimization subpackages."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ngdbench"


def unused_imports(source):
    """(line, name) of every imported name the module never reads.

    A name counts as read when it appears as an identifier anywhere in the
    module (annotations included) or is listed in __all__.  __future__
    imports are exempt.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_checker_flags_unused_and_accepts_used():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import scipy.linalg\n"
              "from math import pi, tau\n"
              "from json import dumps\n"
              "__all__ = ['dumps']\n"
              "x: tau = scipy.linalg.norm([pi])\n")
    assert unused_imports(source) == [(2, "os")]


# __init__.py re-exports the public API, so its imports are exempt
@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_cli_import_skips_scipy_integrate_and_optimize():
    """Importing the CLI in a fresh interpreter loads neither scipy.integrate
    nor scipy.optimize."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    probe = ("import sys, ngdbench.cli; print(' '.join(m for m in"
             " ('scipy.integrate', 'scipy.optimize') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []
