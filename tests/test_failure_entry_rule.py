"""One failure path: in the package, the string ``"check-not-passed"`` is
written only inside ``cli.run``, which alone turns a check that did not
pass into a discrepancy and picks the exit code; the old spelling
``"published-value-mismatch"`` is written nowhere."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "xpv"
MODULES = sorted(SRC.glob("*.py"))


def _literal_uses(tree, text):
    """(line, top-level function or None) of each string constant equal
    to ``text``; a docstring that only mentions it does not count."""
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Constant) and node.value == text:
                yield node.lineno, owner


def _uses(text):
    return [(path.name, owner) for path in MODULES
            for _, owner in _literal_uses(ast.parse(path.read_text(), filename=str(path)), text)]


def test_failure_entry_is_made_only_in_run():
    assert _uses("check-not-passed") == [("cli.py", "run")]
    assert _uses("published-value-mismatch") == []


def test_rule_flags_a_stray_failure_entry():
    tree = ast.parse(
        '"""A check-not-passed entry per failed check."""\n'
        "def run(checks):\n"
        '    return [{"kind": "check-not-passed", **e} for ok, e in checks if not ok]\n'
        "def _cmd_charsum(args):\n"
        '    return {"kind": "check-not-passed"}\n'
        'KIND = "check-not-passed"\n'
        "class Report:\n"
        '    kind = "check-not-passed"\n'
    )
    assert list(_literal_uses(tree, "check-not-passed")) == [
        (3, "run"), (5, "_cmd_charsum"), (6, None), (8, None)]
