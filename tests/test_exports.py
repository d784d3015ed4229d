"""The package's public surface: ``boostkit.__all__`` against what ``__init__`` imports."""

import ast

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
