"""Every name a package module imports is referenced in that module.

Uses the standard library ``ast`` only. A name counts as referenced when
it appears as a bare name anywhere in the module (including annotations
and the root of an attribute chain such as ``np.linalg``) or inside a
quoted annotation (a name only mentioned in some other string does not
count). ``__future__`` imports and ``__init__.py`` (which
re-exports) are exempt.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "glq"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import in the module."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                out[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                out[a.asname or a.name] = node.lineno
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def referenced_names(tree: ast.Module) -> set[str]:
    """Every bare name in the module, quoted annotations included."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in filter(None, _annotations(tree)):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                sub = ast.parse(node.value, mode="eval")
                names |= {n.id for n in ast.walk(sub) if isinstance(n, ast.Name)}
    return names


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = referenced_names(tree)
    return sorted(
        ((name, line) for name, line in imported_names(tree).items() if name not in used),
        key=lambda t: t[1],
    )


def test_scanner_flags_unused_and_keeps_used():
    src = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import os.path\n"
        "from dataclasses import dataclass, field\n"
        "from .linalg import Matrix, cholesky\n"
        "from .errors import TooLarge\n"
        "def f(a: 'list[Matrix]') -> int:\n"
        "    return np.zeros(1), os.path.sep, 'TooLarge'\n"
        "@dataclass\n"
        "class C:\n"
        "    x: int = 0\n"
    )
    assert unused_imports(src) == [("field", 4), ("cholesky", 5), ("TooLarge", 6)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
