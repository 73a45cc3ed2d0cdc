import ast
import os

import supercong

INIT = os.path.join(os.path.dirname(supercong.__file__), "__init__.py")


def _imported_public_names() -> set[str]:
    with open(INIT, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names if not (alias.asname or alias.name).startswith("_")}


def test_every_export_resolves():
    for name in supercong.__all__:
        assert hasattr(supercong, name), name


def test_no_duplicate_exports():
    assert len(supercong.__all__) == len(set(supercong.__all__))


def test_exports_equal_public_imports():
    assert set(supercong.__all__) == _imported_public_names()
