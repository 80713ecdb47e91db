"""One builder for chi mod q: in the package, ``jacobi`` is named only
inside ``MultiplicativeSpec.prime_value``, so every table of a character
comes from ``mfunc._chi_period`` and no per-residue loop returns."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "xpv"
MODULES = sorted(SRC.glob("*.py"))


def _jacobi_uses(tree):
    """(line, dotted owner or None) of each name or attribute ``jacobi``,
    called or not; the owner is the chain of classes and functions that
    encloses it."""
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from walk(child, child.name if owner is None else f"{owner}.{child.name}")
                continue
            if (isinstance(child, ast.Name) and child.id == "jacobi"
                    or isinstance(child, ast.Attribute) and child.attr == "jacobi"):
                yield child.lineno, owner
            yield from walk(child, owner)
    yield from walk(tree, None)


def test_jacobi_is_read_only_by_prime_value():
    uses = [(path.name, owner) for path in MODULES
            for _, owner in _jacobi_uses(ast.parse(path.read_text(), filename=str(path)))]
    assert uses == [("mfunc.py", "MultiplicativeSpec.prime_value")]


def test_rule_flags_a_stray_jacobi_use():
    tree = ast.parse(
        "class MultiplicativeSpec:\n"
        "    def prime_value(self, p):\n"
        "        return float(jacobi(p, self.q))\n"
        "def _chi_period(q):\n"
        "    return np.array([jacobi(a, q) for a in range(q)])\n"
        "CHI = [mfunc.jacobi(a, 7) for a in range(7)]\n"
    )
    assert list(_jacobi_uses(tree)) == [
        (3, "MultiplicativeSpec.prime_value"), (5, "_chi_period"), (6, None)]
