"""The package imports only the standard library, numpy and itself, which is
what "numpy is the only runtime dependency" in the README promises."""

import ast
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "trustquant"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "trustquant"}


def imported_roots(source: str) -> set[str]:
    """Top-level names of the absolute imports in `source`."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_imported_roots_sees_nested_and_relative_imports():
    source = "import os.path\nfrom . import model\ndef f():\n    import scipy.stats\n"
    assert imported_roots(source) == {"os", "scipy"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_trustquant(path):
    assert sorted(imported_roots(path.read_text()) - ALLOWED) == []
