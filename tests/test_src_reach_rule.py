"""``src/xpv`` holds what the package runs: every top-level def and class
is named somewhere in ``src/xpv`` outside its own body (``__init__``'s
re-exports do not count), or is a reference that tests read, listed below.
Every method and property of a class is read somewhere in ``src/xpv``
outside its own body, as an attribute, as a string or as a bare name in
its own class body; dunder members are exempt."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "xpv"

# Public functions the CLI does not call, kept as the references the tests
# read: criterion 9 checks the mean-value bound through f_value and the
# character sums through char_sum, and the li cross-check reads log_integral.
# classify is the public one-point verdict rule that README documents.
REFERENCES = ["char_sum", "classify", "f_value", "log_integral"]


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
    name -> ast.Module) that no other top-level statement of any module
    names; an import in ``__init__`` names nothing, as a re-export is no use."""
    tops = [(module, top) for module, tree in trees.items() for top in tree.body
            if not (module == "__init__" and isinstance(top, (ast.Import, ast.ImportFrom)))]
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
    assert sorted(name for _, name in unreached(trees)) == REFERENCES


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
        # a re-export names Unused, but no code uses it
        "__init__": ast.parse("from .a import Unused\n__all__ = ['Unused']\n"),
    }
    assert unreached(trees) == [("a", "Unused"), ("a", "recursive")]


def _members(cls):
    """(name, node) of each method and property of ``cls``, dunders left out:
    its defs, and its names bound to a ``property(...)`` call."""
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
              and isinstance(node.value.func, ast.Name) and node.value.func.id == "property"):
            yield from ((t.id, node) for t in node.targets if isinstance(t, ast.Name))


def unread_members(trees):
    """(module, class, member) of each method or property of a class in
    ``trees`` that nothing reads outside its own body: no attribute of that
    name, no string equal to it, and no bare name in its own class body."""
    reads = {}  # name -> ids of the attribute and string nodes that read it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, set()).add(id(node))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                reads.setdefault(node.value, set()).add(id(node))
    out = []
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            in_class = {}  # bare name -> ids of the nodes of the class body that load it
            for node in ast.walk(cls):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    in_class.setdefault(node.id, set()).add(id(node))
            for name, member in _members(cls):
                if name.startswith("__") and name.endswith("__"):
                    continue
                own = {id(node) for node in ast.walk(member)}
                if not (reads.get(name, set()) | in_class.get(name, set())) - own:
                    out.append((module, cls.name, name))
    return sorted(out)


def test_every_src_class_member_is_read():
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    assert unread_members(trees) == []


def test_member_rule_flags_an_unread_member():
    trees = {
        "a": ast.parse(
            "class A:\n"
            "    def by_attribute(self):\n"
            "        return 0\n"
            "    def by_string(self):\n"
            "        return 1\n"
            "    def by_name(self):\n"
            "        return 2\n"
            "    alias = by_name\n"
            "    def recursive(self):\n"
            "        return self.recursive()\n"
            "    @property\n"
            "    def unread(self):\n"
            "        return 3\n"
            "    def __repr__(self):\n"
            "        return 'A'\n"
            "    p = property(lambda self: self.p)\n"
            "class B:\n"
            "    other = unread\n"
            "NAMES = ('by_string',)\n"),
        "b": ast.parse("from .a import A\nA().by_attribute()\n"),
    }
    assert unread_members(trees) == [("a", "A", "p"), ("a", "A", "recursive"),
                                     ("a", "A", "unread")]
