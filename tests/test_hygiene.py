"""Source hygiene of the package modules, checked on their syntax trees.

Every name a module imports must be used in that module, and no import may
reach into a private scipy module or name (one whose path has a component
starting with an underscore).  scipy is imported from scipy.spatial,
scipy.sparse and scipy.sparse.linalg only; the line search is polynet's own,
so scipy.optimize never loads.  The package __init__ is skipped there: it
imports only to re-export.  No module, __init__ included, imports scipy at
top level: scipy loads inside the function that first needs it, so a run
that never triangulates, factorizes or line-searches never pays its import.
Every private top-level definition and every UPPER_CASE module constant
is read somewhere in the package, and every public top-level function or
class is read there or re-exported by the package __init__, so no leftover
of a removed code path stays behind.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "polynet"
ALL_MODULES = sorted(SRC.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


def _imports(tree):
    """(bound name, full import path) for every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                yield bound, alias.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            base = "." * node.level + (node.module or "")
            for alias in node.names:
                yield alias.asname or alias.name, f"{base}.{alias.name}"


def _used_names(tree):
    # the root of an attribute chain a.b.c is itself a Name node
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_modules_found():
    assert {p.name for p in MODULES} >= {"assembly.py", "cli.py", "homogenize.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    unused = sorted(full for bound, full in _imports(tree) if bound not in used)
    assert unused == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_scipy_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    private = sorted(
        full
        for _, full in _imports(tree)
        if full.split(".")[0] == "scipy"
        and any(part.startswith("_") for part in full.split("."))
    )
    assert private == []


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_top_level_scipy_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    top_level = sorted(
        f"line {node.lineno}"
        for node in tree.body
        if (isinstance(node, ast.Import)
            and any(alias.name.split(".")[0] == "scipy" for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and node.level == 0
            and (node.module or "").split(".")[0] == "scipy")
    )
    assert top_level == []


SCIPY_ALLOWED = {"scipy.spatial", "scipy.sparse", "scipy.sparse.linalg"}


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_scipy_imported_from_spatial_and_sparse_only(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 0]
    other = sorted(m for m in modules
                   if m.split(".")[0] == "scipy" and m not in SCIPY_ALLOWED)
    assert other == []


def _top_level_names(tree):
    """Names bound by the module's top-level defs, classes and assignments."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def _read_names(tree):
    # a definition binds its name without reading it; an import neither
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def test_every_private_definition_and_constant_is_read():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in ALL_MODULES}
    read = set().union(*map(_read_names, trees.values()))
    unread = sorted(
        f"{module}: {name}"
        for module, tree in trees.items()
        for name in _top_level_names(tree)
        if ((name.startswith("_") and not name.startswith("__")) or name.isupper())
        and name not in read
    )
    assert unread == []


def test_every_public_function_and_class_is_read_or_exported():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in ALL_MODULES}
    read = set().union(*map(_read_names, trees.values()))
    exported = {bound for bound, _ in _imports(trees["__init__.py"])}
    unused = sorted(
        f"{module}: {node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in read | exported
    )
    assert unused == []
