"""Configs and texts fuzzed through the command line, in process.

Configs are built from the README configuration grammar and then mutated:
a key deleted, a value replaced by one of another type, an out-of-range
number or another kind, a key added.  Texts are built from the tokens of
the element and function grammar, with small exponents only, and include
element texts ``INT^{p/q}`` over the p-adic fields.  Whatever the input,
a command exits 0 or 2 and no exception but ``SystemExit`` escapes;
``construct witness`` may exit 1 only with a record that is not ``ok``.
``minval`` is fuzzed by a strategy of its own, with ``--sweep`` 0-3 and
both output formats, so that the 500 examples of the other commands stay
the same.
"""

import json

from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

from ivrf.cli import main

GF4 = {"kind": "gf", "q": 4}
GF2_U = {"kind": "ratfunc", "q": 2}
# each config with the symbols of its field
CONFIGS = [
    ({"field": {"variant": "padic", "p": 5}, "E": "ring"}, []),
    ({"field": {"variant": "padic", "p": 3}, "E": ["1", "3/2", "9"]}, []),
    ({"field": {"variant": "tadic", "residue": GF4},
      "subfield": {"kind": "subgf", "order": 2}, "E": "field"}, ["t", "u"]),
    ({"field": {"variant": "tadic", "residue": GF2_U}, "subfield": {"kind": "constants"}},
     ["t", "u"]),
    ({"field": {"variant": "tadic", "residue": {"kind": "ratfunc", "p": 2, "k": 1}},
      "subfield": {"kind": "frobenius", "e": 1}}, ["t", "u"]),
    ({"field": {"variant": "lex2", "residue": {"kind": "gf", "q": 3}}, "E": "ring"},
     ["t1", "t2"]),
    ({"field": {"variant": "hahn", "residue": GF2_U}, "subfield": {"kind": "constants"}},
     ["t", "u"]),
    ({"field": {"variant": "hahn", "residue": {"kind": "gf", "p": 2, "k": 2}},
      "subfield": {"kind": "subgf", "d": 1}, "E": "field"}, ["t", "u"]),
    ({"components": [{"variant": "padic", "p": 2}, {"variant": "padic", "p": 3}],
      "E": "field"}, []),
]
# values of the wrong type, numbers out of range, and every name of the
# grammar.  No drawn number makes a large well-formed input: the one
# Frobenius config has p = 2, where e = 4 gives a witness of degree 256 and
# e = 9 one beyond the bound, while degree 3^6 over GF(3)(u) runs for
# minutes, work that a budget must bound (ROADMAP item 5).
JUNK = [None, True, 2.5, "5", "", [], {}, -1, 0, 1, 2, 4, 9, 65537, 10 ** 18,
        "gf", "ratfunc", "padic", "tadic", "lex2", "hahn", "full", "subgf",
        "constants", "frobenius", "ring", "field", "bogus", ["t"], ["2^{1/2}"]]
KEYS = ["variant", "p", "q", "k", "kind", "var", "gen", "residue", "field",
        "subfield", "order", "d", "e", "E", "components"]
NAMES = ["x", "t", "t1", "t2", "u", "w", "y"]
TOKENS = NAMES + ["0", "1", "2", "7", "+", "-", "*", "/", "^", "**", "(", ")",
                  "{", "}", "1/2", "$", "²", " "]


def _paths(obj, path=()):
    """The paths to every value inside obj, and to obj itself."""
    yield path, obj
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield from _paths(value, path + (key,))


def _copy(obj):
    return json.loads(json.dumps(obj))


def _mutated(draw, cfg):
    """cfg with none, one or two of its keys deleted, replaced or added."""
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        path, value = draw(st.sampled_from(list(_paths(cfg))))
        action = draw(st.sampled_from(["delete", "replace", "add"]))
        if action == "add" and isinstance(value, dict):
            value[draw(st.sampled_from(KEYS))] = _copy(draw(st.sampled_from(JUNK)))
        elif path:
            parent = cfg
            for key in path[:-1]:
                parent = parent[key]
            if action == "delete" and isinstance(parent, dict):
                del parent[path[-1]]
            else:
                parent[path[-1]] = _copy(draw(st.sampled_from(JUNK)))
    return cfg


def _exponents():
    small = st.integers(-3, 3)
    return st.one_of(
        st.integers(0, 3).map(str), small.map(str),
        st.builds(lambda p, q: f"{{{p}/{q}}}", small, st.integers(0, 4)),
        st.builds(lambda p, q: f"({p}/{q})", small, st.integers(1, 4)))


def _texts(names):
    atoms = st.one_of(st.integers(0, 12).map(str), st.sampled_from(names))
    powered = st.builds(lambda a, e: f"{a}^{e}", atoms, _exponents())
    return st.recursive(
        st.one_of(atoms, powered),
        lambda inner: st.one_of(
            st.builds(lambda a, op, b: f"{a} {op} {b}", inner,
                      st.sampled_from(["+", "-", "*", "/", ""]), inner),
            st.builds(lambda a, e: f"({a})^{e}", inner, _exponents()),
            st.builds(lambda a: f"-({a})", inner)),
        max_leaves=5)


def _soup():
    return st.lists(st.sampled_from(TOKENS), max_size=8).map("".join)


def _functions(names):
    return st.one_of(_texts(names + ["x"]), _texts(names + ["x"]), _soup())


def _elements(names):
    """Element texts, half of them powers n^{p/q} of an integer n > 1: over
    Q these have no exact value unless p/q is whole."""
    powers = st.builds(lambda n, p, q: f"{n}^{{{p}/{q}}}", st.integers(2, 9),
                       st.integers(-3, 3), st.integers(2, 4))
    return st.one_of(powers, _texts(names or ["7"]), powers, _soup())


# the text strategies of each config, built once
TEXTS = [(_functions(names), _elements(names)) for _, names in CONFIGS]


@st.composite
def invocations(draw):
    k = draw(st.integers(0, len(CONFIGS) - 1))
    base = CONFIGS[k][0]
    functions, elements = TEXTS[k]
    cfg = _mutated(draw, _copy(base))
    if isinstance(cfg.get("E"), list) and draw(st.booleans()):
        cfg["E"] = [draw(elements)]
    raw = json.dumps(cfg)
    if draw(st.sampled_from([False] * 9 + [True])):
        raw = raw[:-1]  # not valid JSON
    command = draw(st.sampled_from(["member", "ideal", "dichotomy", "locpoly",
                                    "witness"]))
    phi = draw(functions)
    if command == "member":
        return ["member", "--config", raw, "--phi", phi, "--depth", "2"]
    if command == "ideal":
        kind = draw(st.sampled_from(["pointed", "mstar", "m"]))
        args = ["ideal", "--config", raw, "--phi", phi, "--kind", kind, "--depth", "2"]
        if kind == "pointed":
            args += ["--at", draw(elements)]
        return args
    if command == "dichotomy":
        return ["dichotomy", "--config", raw, "--phi", phi]
    if command == "locpoly":
        return ["locpoly", "--config", raw, "-f", phi, "-t", draw(elements)]
    return ["construct", "witness", "--config", raw, "--samples", "2", "--depth", "2"]


@settings(max_examples=500, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_fuzzed_commands_exit_zero_or_two(args):
    res = CliRunner().invoke(main, args)
    assert res.exception is None or isinstance(res.exception, SystemExit), (
        args, repr(res.exception))
    if args[:2] == ["construct", "witness"] and res.exit_code == 1:
        assert json.loads(res.stdout)["record"]["ok"] is False, args
    else:
        assert res.exit_code in (0, 2), (args, res.output)


@st.composite
def minval_invocations(draw):
    k = draw(st.integers(0, len(CONFIGS) - 1))
    cfg = _mutated(draw, _copy(CONFIGS[k][0]))
    raw = json.dumps(cfg)
    if draw(st.sampled_from([False] * 9 + [True])):
        raw = raw[:-1]  # not valid JSON
    return ["minval", "--config", raw, "-f", draw(TEXTS[k][0]),
            "--sweep", str(draw(st.integers(0, 3))),
            "--format", draw(st.sampled_from(["json", "csv"]))]


@settings(max_examples=300, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(minval_invocations())
def test_fuzzed_minval_exits_zero_or_two(args):
    res = CliRunner().invoke(main, args)
    assert res.exception is None or isinstance(res.exception, SystemExit), (
        args, repr(res.exception))
    assert res.exit_code in (0, 2), (args, res.output)


@st.composite
def construct_invocations(draw):
    command = draw(st.sampled_from(["psi", "rho", "separator"]))
    args = ["construct", command, "--preset", draw(st.sampled_from(["t6n2", "t30n2"])),
            "--phi", draw(TEXTS[0][0]), "--samples", str(draw(st.integers(1, 4)))]
    if command == "rho":
        args += ["--phi2", draw(TEXTS[0][0])]
    return args


@settings(max_examples=200, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(construct_invocations())
def test_fuzzed_constructions_exit_zero_or_two(args):
    res = CliRunner().invoke(main, args)
    assert res.exception is None or isinstance(res.exception, SystemExit), (
        args, repr(res.exception))
    assert res.exit_code in (0, 2), (args, res.output)
