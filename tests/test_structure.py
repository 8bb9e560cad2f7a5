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


def _valuation_callers(path):
    """The names of the functions and methods of a module that call an
    attribute ``valuation``."""
    callers = set()
    for fn in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(fn, ast.FunctionDef) and any(
                isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "valuation" for node in ast.walk(fn)):
            callers.add(fn.name)
    return callers


def test_q_constructions_read_valuations_through_one_reader():
    # SingularData, the Q verifiers and the theta CSV read each v_p in
    # integers through SingularData.valuations; notlocal_witness is generic
    # over fields and reads group elements
    assert _valuation_callers(SRC / "constructions.py") <= {"notlocal_witness"}
    assert "construct_theta" not in _valuation_callers(SRC / "cli.py")


def test_only_ratfun_knows_the_packed_gf4_format():
    # the packed GF(4) polynomial (two GF(2) planes w0, w1: coefficient i is
    # w0_i + w*w1_i) is read and built in ratfun alone
    uses = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = (node.id if isinstance(node, ast.Name) else node.attr
                    if isinstance(node, ast.Attribute) else node.name
                    if isinstance(node, ast.alias) else None)
            if name in ("_GF4Polynomial", "w0", "w1"):
                uses.setdefault(path.stem, []).append((node.lineno, name))
    assert "ratfun" in uses
    assert set(uses) == {"ratfun"}, {k: v for k, v in uses.items() if k != "ratfun"}
