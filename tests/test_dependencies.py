"""The package needs numpy and the standard library alone; scipy, mpmath
and other installed packages may serve the tests as oracles only."""

import ast
import sys
from pathlib import Path

import pytest

import pressgap

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "pressgap"}
MODULES = sorted(Path(pressgap.__file__).parent.glob("*.py"))


def imported_packages(path):
    """Top-level package names of every absolute import in a source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_every_module_is_checked():
    assert "kernels.py" in {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_imports_only_numpy_and_the_standard_library(path):
    assert imported_packages(path) <= ALLOWED
