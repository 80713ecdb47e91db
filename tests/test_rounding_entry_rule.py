"""The rounding model has one home: in the package, ``nextafter`` (math or
numpy) and the literals ``2.0 ** -53`` (u) and ``2.3e-16`` (one ulp of
log, relative) appear only in ``core.py``, which states the model once;
every other module reads ``core.U``, ``core.ULP``, ``core.gamma_n`` and
``core.outward``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "xpv"
MODULES = sorted(SRC.glob("*.py"))


def _is_const(node, value):
    return (isinstance(node, ast.Constant) and type(node.value) in (int, float)
            and node.value == value)


def _rounding_uses(tree):
    """(line, what) of each ``nextafter`` name or attribute, each literal
    2.3e-16 and each power 2 ** -53, in any spelling of 2 and -53."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Name) and node.id == "nextafter"
                or isinstance(node, ast.Attribute) and node.attr == "nextafter"
                or isinstance(node, ast.alias) and node.name == "nextafter"):
            yield node.lineno, "nextafter"
        elif _is_const(node, 2.3e-16):
            yield node.lineno, "2.3e-16"
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
              and _is_const(node.left, 2)
              and (_is_const(node.right, -53)
                   or isinstance(node.right, ast.UnaryOp)
                   and isinstance(node.right.op, ast.USub) and _is_const(node.right.operand, 53))):
            yield node.lineno, "2 ** -53"


def test_rounding_model_lives_in_core_only():
    uses = {(path.name, what) for path in MODULES
            for _, what in _rounding_uses(ast.parse(path.read_text(), filename=str(path)))}
    assert uses == {("core.py", "nextafter"), ("core.py", "2.3e-16"), ("core.py", "2 ** -53")}


def test_rule_flags_a_restated_model():
    tree = ast.parse(
        "import math\n"
        "from numpy import nextafter\n"
        "_U = 1.01 * 2.0 ** -53\n"
        "_V = 2 ** (-53)\n"
        "half = 2.3e-16 * y\n"
        "lo = math.nextafter(v, -math.inf)\n"
        "hi = np.nextafter(v, np.inf)\n"
        "ok = 2.0 ** -52 + 2.3e-15 + 3.0 ** -53\n"
        "doc = 'the literal 2.3e-16 in a string is prose'\n"
    )
    assert sorted(_rounding_uses(tree)) == [
        (2, "nextafter"), (3, "2 ** -53"), (4, "2 ** -53"), (5, "2.3e-16"),
        (6, "nextafter"), (7, "nextafter")]
