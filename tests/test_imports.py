"""Every name a package module imports is used there or re-exported."""

import ast
import pathlib

import pytest

import loewnerkit

MODULES = sorted(pathlib.Path(loewnerkit.__file__).parent.glob("*.py"))


def imported_names(tree):
    """Name bound by each import of the module, less __future__ ones."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert imported_names(tree) - used - exported_names(tree) == set()
