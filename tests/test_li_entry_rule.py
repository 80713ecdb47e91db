"""li has one entry: in the package, ``_li_series`` is named only inside
``_li`` (below 2^16) and ``_li_octave`` (at the anchors), so the sweeps
and ``log_integral`` read the same li, through ``_li``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "xpv"
MODULES = sorted(SRC.glob("*.py"))


def _series_uses(tree):
    """(line, top-level function or None) of each name or attribute
    ``_li_series``, called or not."""
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for node in ast.walk(top):
            if (isinstance(node, ast.Name) and node.id == "_li_series"
                    or isinstance(node, ast.Attribute) and node.attr == "_li_series"):
                yield node.lineno, owner


def test_li_series_is_read_only_through_li():
    uses = [(path.name, owner) for path in MODULES
            for _, owner in _series_uses(ast.parse(path.read_text(), filename=str(path)))]
    assert sorted(uses) == [("primes.py", "_li"), ("primes.py", "_li_octave")]


def test_rule_flags_a_stray_series_use():
    tree = ast.parse(
        "def _li(xs):\n"
        "    return _li_series(xs, 80)\n"
        "def log_integral(x):\n"
        "    return _li_series(np.array([x]), 80)\n"
        "_LI2, _LI2_HALF = _li_series(np.array([2.0]), 80)\n"
        "series = primes._li_series\n"
    )
    assert list(_series_uses(tree)) == [(2, "_li"), (4, "log_integral"), (5, None), (6, None)]
