"""The package's public surface: __all__ lists exactly what __init__ imports."""

import ast
from pathlib import Path

import demazure_crystals


def test_all_is_exactly_the_public_imports_and_every_name_resolves():
    namespace = {}
    exec("from demazure_crystals import *", namespace)
    exported = demazure_crystals.__all__
    assert set(exported) <= namespace.keys()
    assert all(hasattr(demazure_crystals, name) for name in exported)
    tree = ast.parse(Path(demazure_crystals.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert len(exported) == len(set(exported))
    assert set(exported) - {"__version__"} == {n for n in imported if not n.startswith("_")}
