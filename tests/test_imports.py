"""No module of the package or of the test suite imports a name it never
uses, and no function of the package imports anything: an import inside
a function hides an import cycle.  The package adds no ``functools``
cache to the seven it has, which grow without bound.  No engine reads
an absorbing, emitting or blocked point set.  The oracles of the tests
import nothing from the parse and the reachability they check.  Only
``ast`` reads the sources; ``__init__.py`` files (which re-export) and
import lines marked ``# noqa: F401`` are exempt from the first rule."""

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


# The module-level lru caches that exist; indexes of a presentation are
# stored on the presentation instead, so that they die with it.
KNOWN_CACHES = {("presentation", "edge_map"), ("presentation", "family"),
                ("presentation", "cuts"), ("presentation", "bound_rigid"),
                ("presentation", "closed_traces"), ("presentation", "normalize"),
                ("reach", "transitions")}
CACHE_NAMES = {"lru_cache", "cache"}


def _cache_aliases(tree) -> set:
    """The names a module binds to a functools cache by ``from functools
    import lru_cache as <name>`` (or ``cache``)."""
    return {alias.asname for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "functools"
            for alias in node.names
            if alias.name in CACHE_NAMES and alias.asname}


def _cache_call(node, aliases=frozenset()) -> bool:
    """Is node `lru_cache`, `cache`, `functools.<either>`, a name that
    aliases one of them, or a call of one?"""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr in CACHE_NAMES
    return isinstance(node, ast.Name) and (node.id in CACHE_NAMES
                                           or node.id in aliases)


def caches(path: Path) -> list:
    """(module, function) of each function that a functools cache wraps,
    and (module, line) of each other use of one."""
    tree = ast.parse(path.read_text())
    aliases = _cache_aliases(tree)
    found, decorators = [], set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in fn.decorator_list:
                if _cache_call(dec, aliases):
                    found.append((path.stem, fn.name))
                    decorators.update(id(n) for n in ast.walk(dec))
    found += [(path.stem, node.lineno) for node in ast.walk(tree)
              if isinstance(node, (ast.Name, ast.Attribute))
              and _cache_call(node, aliases) and id(node) not in decorators]
    return found


def test_no_new_unbounded_caches():
    found = [c for path in PACKAGE for c in caches(path)]
    assert set(found) <= KNOWN_CACHES, sorted(set(found) - KNOWN_CACHES, key=str)


@pytest.mark.parametrize("source", [
    "from functools import lru_cache as _lru\n\n"
    "@_lru(maxsize=64)\ndef expand(k):\n    return k\n",
    "from functools import cache as remember\n\n"
    "@remember\ndef expand(k):\n    return k\n",
    "import functools as ft\n\n"
    "@ft.lru_cache(maxsize=None)\ndef expand(k):\n    return k\n"])
def test_an_aliased_cache_is_still_found(tmp_path, source):
    path = tmp_path / "kinds.py"
    path.write_text(source)
    assert caches(path) == [("kinds", "expand")]


# ``presentation.normalize`` compiles these point sets into the families
# of a normal form, so the engines never read them.
FILTERS = {"absorbing", "emitting", "blocked"}
ENGINES = ("membership", "reach", "construct")


def filter_reads(path: Path) -> list:
    """(line, name) of each read of a filter set: an attribute of that
    name, or ``getattr`` with it as a constant."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Attribute) and node.attr in FILTERS
                and isinstance(node.ctx, ast.Load)):
            found.append((node.lineno, node.attr))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)
              and node.args[1].value in FILTERS):
            found.append((node.lineno, node.args[1].value))
    return sorted(found)


@pytest.mark.parametrize("module", ENGINES)
def test_no_engine_reads_a_filter_set(module):
    assert filter_reads(ROOT / "src" / "cspaces" / f"{module}.py") == []


@pytest.mark.parametrize("source, found", [
    ("def ends(g):\n    return g.absorbing | g.emitting\n",
     [(2, "absorbing"), (2, "emitting")]),
    ("def bad(g, c):\n    return c in getattr(g, 'blocked')\n",
     [(2, "blocked")]),
    ("def build(g):\n    return g.replace(blocked=g.excluded)\n", [])])
def test_a_planted_filter_read_is_found(tmp_path, source, found):
    path = tmp_path / "reach.py"
    path.write_text(source)
    assert filter_reads(path) == found


def imported_modules(path: Path) -> set:
    """The modules that a file imports from, as dotted names."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            out.add(node.module or "")
            out.update(f"{node.module}.{alias.name}" for alias in node.names)
    return out


def _imports_from(path: Path, module: str) -> set:
    return {m for m in imported_modules(path)
            if m == module or m.startswith(module + ".")}


def test_the_oracle_shares_no_code_with_the_parse():
    # tests/oracle.py cross-checks cspaces.membership, so it must not use it
    assert not _imports_from(ROOT / "tests" / "oracle.py", "cspaces.membership")


def test_the_oracle_shares_no_code_with_reach():
    # nor cspaces.reach, which its reachability oracle cross-checks
    assert not _imports_from(ROOT / "tests" / "oracle.py", "cspaces.reach")
