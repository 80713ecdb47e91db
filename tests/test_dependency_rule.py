"""numpy stays the only runtime dependency: every import in the package
is relative, numpy, or from the standard library."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "xpv"
MODULES = sorted(SRC.glob("*.py"))


def _foreign_imports(tree):
    """(line, module) of each absolute import outside numpy and the
    standard library."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top != "numpy" and top not in sys.stdlib_module_names:
                yield node.lineno, name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_relative_numpy_or_stdlib(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert list(_foreign_imports(tree)) == []


def test_rule_flags_a_foreign_import():
    assert {p.name for p in MODULES} >= {"__init__.py", "core.py", "primes.py"}
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import math, mpmath\n"
        "from scipy import special\n"
        "from . import core\n"
        "from .core import Enclosure\n"
        "import numpy.linalg\n"
        "def f():\n"
        "    import hypothesis.strategies\n"
    )
    assert list(_foreign_imports(tree)) == [
        (2, "mpmath"), (3, "scipy"), (8, "hypothesis.strategies")]
