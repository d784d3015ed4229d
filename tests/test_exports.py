"""The package's public surface: ``boostkit.__all__`` against what ``__init__``
imports, and no definition in ``src/boostkit`` that nothing outside the tests uses."""

import ast
from collections import Counter
from pathlib import Path

import boostkit


def imported_public_names():
    """Names bound by the ``from .module import ...`` lines of ``__init__``, minus private ones."""
    with open(boostkit.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = (alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
             for alias in node.names)
    return {name for name in names if not name.startswith("_")}


def test_every_exported_name_resolves():
    namespace = {}
    exec("from boostkit import *", namespace)
    for name in boostkit.__all__:
        assert namespace[name] is getattr(boostkit, name), name


def test_all_is_exactly_the_imported_public_names():
    assert boostkit.__all__ == sorted(set(boostkit.__all__))
    assert set(boostkit.__all__) == imported_public_names()


ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "boostkit"


def _referenced_names(tree):
    """Every name a tree refers to: imported names, names, attributes, and
    string constants (``bench/tracing.py`` patches names given as strings)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_top_level_definition_in_src_is_referenced():
    """Each top-level function and class of ``src/boostkit`` is referenced
    outside its own definition, somewhere in ``src/`` (``__init__.py`` aside,
    as its ``__all__`` names every export), ``bench/`` or ``tools/``. Code that
    only tests call belongs in ``tests/oracles.py`` or nowhere.

    A reference is matched by name alone, so a definition that shares its
    name with something else escapes: ``RoundStats.prior_loss`` would have
    hidden a ``prior.prior_loss`` that only tests called. A helper called
    only by unreferenced code passes too; the guard finds the root of such a
    chain, and removing the root exposes the rest.
    """
    files = sorted({*PACKAGE.glob("*.py"), *ROOT.glob("bench/**/*.py"), *ROOT.glob("tools/**/*.py")}
                   - {PACKAGE / "__init__.py"})
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in files}
    everywhere = Counter(name for tree in trees.values() for name in _referenced_names(tree))
    unreferenced = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = Counter(_referenced_names(node))
                if everywhere[node.name] - own[node.name] <= 0:
                    unreferenced.append(f"{path.stem}.{node.name}")
    assert not unreferenced, "referenced only by tests, if at all: " + ", ".join(unreferenced)
