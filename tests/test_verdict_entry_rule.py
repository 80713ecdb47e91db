"""One verdict rule: in the package, the verdict strings ``"pass"``,
``"fail"`` and ``"indeterminate"`` are written only in ``core.py``, whose
``margins_verdict`` decides every check; every other module compares
through the names ``core`` exports (``core.PASS``).  A dict-display key,
such as the report's top-level ``"pass"``, names a field, not a verdict,
and does not count."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "xpv"
MODULES = sorted(SRC.glob("*.py"))
VERDICTS = ("pass", "fail", "indeterminate")


def _verdict_literals(tree):
    """(line, text) of each string constant that spells a verdict and is
    not a key of a dict display."""
    keys = {id(key) for node in ast.walk(tree) if isinstance(node, ast.Dict)
            for key in node.keys if key is not None}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node.value in VERDICTS and id(node) not in keys):
            yield node.lineno, node.value


def test_verdict_literals_live_in_core_only():
    uses = {(path.name, text) for path in MODULES
            for _, text in _verdict_literals(ast.parse(path.read_text(), filename=str(path)))}
    assert uses == {("core.py", text) for text in VERDICTS}


def test_rule_flags_a_restated_verdict():
    tree = ast.parse(
        '"""A check may pass or fail."""\n'
        'status = "fail"\n'
        'ok = v != "pass"\n'
        'report = {"pass": not failed, "verdict": "indeterminate"}\n'
        'label = "passed"\n'
    )
    assert sorted(_verdict_literals(tree)) == [(2, "fail"), (3, "pass"), (4, "indeterminate")]
