"""No module of the package or of the test suite imports a name it never
uses, and no function of the package imports anything: an import inside
a function hides an import cycle.  Only ``ast`` reads the sources;
``__init__.py`` files (which re-export) and import lines marked
``# noqa: F401`` are exempt from the first rule."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in (ROOT / "src" / "cspaces", ROOT / "tests")
               for p in d.glob("*.py") if p.name != "__init__.py")
PACKAGE = sorted((ROOT / "src" / "cspaces").glob("*.py"))


def unused_imports(path: Path) -> list:
    """(line, name) of each imported name that the module never reads."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def local_imports(path: Path) -> list:
    """(line, function) of each import inside a function body."""
    tree = ast.parse(path.read_text())
    return sorted({(node.lineno, fn.name) for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)
                   if isinstance(node, (ast.Import, ast.ImportFrom))})


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_function_local_imports(path):
    assert local_imports(path) == []
