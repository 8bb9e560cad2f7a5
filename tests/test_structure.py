"""Structural checks on the source of ``ivrf``: each decision is known to
one module."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ivrf"


def _packed_format_uses(tree):
    """Lines that name ``_GF2Polynomial`` or read an attribute ``bits``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "_GF2Polynomial":
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute) and node.attr in ("_GF2Polynomial", "bits"):
            yield node.lineno, node.attr
        elif isinstance(node, ast.alias) and node.name == "_GF2Polynomial":
            yield node.lineno, node.name


def test_only_ratfun_knows_the_packed_gf2_format():
    # the packed GF(2) polynomial (one int, bit i the coefficient of x^i)
    # is read and built in ratfun alone; other modules ask Polynomial methods
    uses = {}
    for path in sorted(SRC.glob("*.py")):
        found = list(_packed_format_uses(ast.parse(path.read_text(), str(path))))
        if found:
            uses[path.stem] = found
    assert "ratfun" in uses
    assert set(uses) == {"ratfun"}, {k: v for k, v in uses.items() if k != "ratfun"}
