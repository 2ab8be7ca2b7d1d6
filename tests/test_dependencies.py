"""numpy is the package's only runtime dependency: every module of
src/faciesnet imports only the standard library, numpy and itself."""

import ast
import sys
from pathlib import Path

import pytest

import faciesnet

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "faciesnet"}
MODULES = sorted(Path(faciesnet.__file__).parent.glob("*.py"))


def _imported(path) -> set:
    """The top-level names of the modules a source file imports; a
    relative import is the package's own."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("faciesnet" if node.level else node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_imports_only_stdlib_and_numpy(path):
    assert _imported(path) - ALLOWED == set()
