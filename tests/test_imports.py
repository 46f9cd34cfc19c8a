"""Static guards over the package source, standard library ``ast`` only.

* Every name a package module imports is referenced in that module. A
  name counts as referenced when it appears as a bare name anywhere in
  the module (including annotations and the root of an attribute chain
  such as ``np.linalg``) or inside a quoted annotation (a name only
  mentioned in some other string does not count). ``__future__``
  imports and ``__init__.py`` (which re-exports) are exempt.
* Every top-level function and class of the package, and every public
  method or property of a public top-level class, is referenced from
  the package, ``bench/`` or ``scripts/``, not only from tests. A
  reference is a bare name or an attribute name outside the definition
  itself, or an imported name whose binding the importing module uses;
  an import alone, such as a re-export from ``__init__.py``, is not a
  reference. Names are matched without regard to their module.
  ``oracle.py`` holds the brute-force references the tests check
  against, so its own definitions are exempt.
* Every module-level private function and constant of the package is
  referenced in the package outside its own definition, so a helper or
  constant left behind when its last use goes fails the scan.
* No package module imports a private numpy module or name, or reaches
  one through an attribute of an imported numpy name (for example
  ``numpy.linalg._umath_linalg``, whose ``lstsq`` gufunc would batch the
  codebook solves). The bit-identity tests pin only numpy's public
  behaviour; a private entry point may change from one release to the
  next.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "glq"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
NON_TEST_SOURCES = sorted([*PACKAGE.glob("*.py"), *(ROOT / "bench").glob("*.py"),
                           *(ROOT / "scripts").glob("*.py")])


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


def definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """Qualified name -> node of every top-level function and class, and
    of every public method of a public top-level class."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    out[f"{node.name}.{item.name}"] = item
    return out


def uses(tree: ast.Module, skip: set[int]) -> set[str]:
    """Bare and attribute names in `tree`, outside the subtrees whose
    id() is in `skip`, and the imported name of every import whose bound
    name is among them (an import nothing uses is a re-export)."""
    out: set[str] = set()
    aliases = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            aliases.append(node)
        stack.extend(ast.iter_child_nodes(node))
    out |= {a.name.rsplit(".", 1)[-1] for a in aliases
            if (a.asname or a.name.split(".")[0]) in out}
    return out


def unreferenced(sources: dict[str, str], exempt: set[str]) -> list[str]:
    """module:qualname of every definition in `sources` (module -> text),
    outside the `exempt` modules, that no source references."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = {name: uses(tree, set()) for name, tree in trees.items()}
    out = []
    for mod, tree in trees.items():
        if mod in exempt:
            continue
        for qual, node in definitions(tree).items():
            leaf = qual.rsplit(".", 1)[-1]
            elsewhere = any(leaf in names for other, names in used.items() if other != mod)
            if not elsewhere and leaf not in uses(tree, {id(node)}):
                out.append(f"{mod}:{qual}")
    return out


def test_reference_scanner_flags_test_only_definitions():
    sources = {
        "lib": ("class A:\n"
                "    def used(self): return self.prop\n"
                "    @property\n"
                "    def prop(self): return 0\n"
                "    def test_only(self): return 1\n"
                "    def _private(self): return 2\n"
                "class _Hidden:\n"
                "    def hook(self): return 3\n"
                "def recursive(): return recursive()\n"
                "def exported(): return 4\n"
                "def reexported(): return 6\n"
                "def for_oracle(): return _Hidden\n"),
        "app": "from lib import A\nfrom lib import exported as ex\nA().used()\nex()\n",
        "ref": "from lib import for_oracle\ndef unused_reference(): return for_oracle()\n",
        "init": "from lib import reexported\n",
    }
    assert unreferenced(sources, exempt={"ref"}) == ["lib:A.test_only", "lib:recursive",
                                                     "lib:reexported"]


def test_no_test_only_definitions_in_package():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in NON_TEST_SOURCES}
    assert unreferenced(sources, exempt={"src/glq/oracle.py"}) == []


def private_definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """Name -> node of every module-level function and assigned name that
    is private (one leading underscore, not a dunder)."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        out.update((name, node) for name in names if _private(name))
    return out


def dead_private_definitions(sources: dict[str, str]) -> list[str]:
    """module:name of every private definition in `sources` (module ->
    text) that no source references outside the definition itself."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    out = []
    for mod, tree in trees.items():
        for name, node in private_definitions(tree).items():
            if not any(name in uses(other, {id(node)}) for other in trees.values()):
                out.append(f"{mod}:{name}")
    return out


def test_dead_definition_scanner():
    sources = {
        "lib": ("_BAND = 64\n"
                "_USED: int = 2\n"
                "_A, _B = 1, 2\n"
                "__all__ = ['f']\n"
                "def _left_behind(M): return M[:_BAND]\n"
                "def _recursive(n): return _recursive(n - 1)\n"
                "def _helper(): return _USED + _A\n"
                "def f(): return _helper()\n"
                "class C:\n"
                "    def _method(self): return 0\n"),
        "app": "from lib import _B\nprint(_B)\n",
    }
    assert dead_private_definitions(sources) == ["lib:_left_behind", "lib:_recursive"]


def test_no_dead_private_definitions():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert dead_private_definitions(sources) == []


def _private(part: str) -> bool:
    return part.startswith("_") and not (part.startswith("__") and part.endswith("__"))


def private_numpy_uses(source: str) -> list[tuple[str, int]]:
    """(dotted numpy name, line) of every private numpy module or name
    the source imports or reaches through an attribute chain rooted at
    a name bound to numpy, cut after its first private part; dunders
    such as ``__version__`` are public."""
    tree = ast.parse(source)
    bound: dict[str, str] = {}  # local name -> dotted numpy path
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "numpy":
                    found.append((a.name, node.lineno))
                    bound[a.asname or "numpy"] = a.name if a.asname else "numpy"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            for a in node.names:
                path = f"{node.module}.{a.name}"
                found.append((path, node.lineno))
                bound[a.asname or a.name] = path
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            parts, root = [], node
            while isinstance(root, ast.Attribute):
                parts.append(root.attr)
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                found.append((".".join([bound[root.id], *reversed(parts)]), node.lineno))
    out = set()
    for name, line in found:
        parts = name.split(".")
        first = next((i for i, part in enumerate(parts) if _private(part)), None)
        if first is not None:
            out.add((line, ".".join(parts[:first + 1])))
    return [(name, line) for line, name in sorted(out)]


def test_private_numpy_scanner():
    src = (
        "import numpy as np\n"
        "import numpy.linalg._umath_linalg\n"
        "from numpy.linalg import _umath_linalg as ul, lstsq\n"
        "from numpy._core import multiarray\n"
        "x = np.linalg._umath_linalg.lstsq\n"
        "y = np.__version__, np.linalg.lstsq, lstsq, ul\n"
        "z = np.zeros(1)._private_attr\n"
        "class A:\n"
        "    def f(self): return self._np\n"
    )
    assert private_numpy_uses(src) == [
        ("numpy.linalg._umath_linalg", 2),
        ("numpy.linalg._umath_linalg", 3),
        ("numpy._core", 4),
        ("numpy.linalg._umath_linalg", 5),
    ]


@pytest.mark.parametrize("path", MODULES + [PACKAGE / "__init__.py"], ids=lambda p: p.name)
def test_no_private_numpy(path):
    assert private_numpy_uses(path.read_text()) == []
