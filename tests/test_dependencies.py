"""The package needs numpy and the standard library alone; scipy, mpmath
and other installed packages may serve the tests as oracles only, and each
one that the tests or the benchmark harness import is declared in the
`test` extra, so that `pip install -e .[test]` can run them."""

import ast
import re
import sys
from pathlib import Path

import pytest

import pressgap

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "pressgap"}
MODULES = sorted(Path(pressgap.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
TEST_SOURCES = sorted(path for folder in ("tests", "perfbench")
                      for path in (ROOT / folder).glob("*.py"))
# the tests' and the harness's own modules (oracles, run, tracer, ...)
SIBLINGS = {path.stem for path in TEST_SOURCES}


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


def declared_packages(extra):
    """Import names of the project's dependencies and of its optional
    `extra`, read from pyproject.toml with a pattern, as tomllib needs
    Python 3.11."""
    text = (ROOT / "pyproject.toml").read_text()
    names = set()
    for key in ("dependencies", extra):
        table = re.search(rf"^{key} = \[(.*?)\]", text, re.MULTILINE | re.DOTALL)
        for requirement in re.findall(r'"([^"]+)"', table.group(1)):
            name = re.match(r"[A-Za-z0-9_.-]+", requirement).group()
            names.add(name.lower().replace("-", "_"))
    return names


def test_test_extra_is_read():
    assert {"numpy", "pytest", "hypothesis", "mpmath", "scipy"} <= declared_packages("test")


@pytest.mark.parametrize("path", TEST_SOURCES,
                         ids=lambda path: f"{path.parent.name}/{path.name}")
def test_test_imports_are_declared_in_the_test_extra(path):
    third_party = imported_packages(path) - ALLOWED - SIBLINGS
    assert third_party <= declared_packages("test")
