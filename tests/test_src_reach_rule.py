"""``src/xpv`` holds what the package runs: every top-level def and class
is named somewhere in ``src/xpv`` outside its own body (``__init__``'s
re-exports included), or is a reference that tests read, listed below."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "xpv"

# Public functions the CLI does not call, kept as the references the tests
# read: criterion 9 checks the mean-value bound through f_value and the
# character sums through char_sum, and the li cross-check reads log_integral.
REFERENCES = ["char_sum", "f_value", "log_integral"]


def _named(node):
    """Every identifier ``node`` names: a name, an attribute, or an import."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rpartition(".")[2]


def unreached(trees):
    """(module, name) of each top-level def or class in ``trees`` (module
    name -> ast.Module) that no other top-level statement of any module names."""
    tops = [(module, top) for module, tree in trees.items() for top in tree.body]
    named = {}  # identifier -> the top-level statements naming it
    for module, top in tops:
        for name in _named(top):
            named.setdefault(name, set()).add(id(top))
    return sorted((module, top.name) for module, top in tops
                  if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and not named.get(top.name, set()) - {id(top)})


def test_every_src_def_is_reached_or_a_reference():
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    assert [name for _, name in unreached(trees)] == REFERENCES


def test_rule_flags_an_unreached_def():
    trees = {
        "a": ast.parse(
            "def used(x):\n"
            "    return helper(x)\n"
            "def helper(x):\n"
            "    return x\n"
            "def recursive(n):\n"
            "    return recursive(n - 1)\n"
            "class Unused:\n"
            "    pass\n"),
        "b": ast.parse("from .a import used\n"),
    }
    assert unreached(trees) == [("a", "Unused"), ("a", "recursive")]
