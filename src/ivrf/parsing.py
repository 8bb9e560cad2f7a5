"""A small expression grammar shared by field elements and rational functions.

Grammar (whitespace ignored)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/')? unary)*        # juxtaposition multiplies
    unary  := '-' unary | atom
    atom   := INT | NAME | '(' expr ')'          # then optional '^' exponent
    exp    := INT | '-' INT | '{' INT ('/' INT)? '}' | '(' INT ('/' INT)? ')'

Names resolve through a caller-supplied environment; integers go through a
``make_int`` callback, so the same grammar parses p-adic rationals, finite
field expressions, Hahn sums and rational functions in x.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError

_TOKEN = re.compile(r"\s*(?:(\d+)|([a-zA-Z][a-zA-Z0-9]*)|(\*\*|[-+*/^(){}]))")


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"bad character at position {pos}: {text[pos:]!r}")
        num, name, op = m.groups()
        if num is not None:
            out.append(("int", int(num)))
        elif name is not None:
            out.append(("name", name))
        else:
            out.append(("op", "^" if op == "**" else op))
        pos = m.end()
    out.append(("end", None))
    return out


class _Parser:
    def __init__(self, tokens, env, make_int):
        self.toks = tokens
        self.i = 0
        self.env = env
        self.make_int = make_int

    def peek(self):
        return self.toks[self.i]

    def take(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, found {val!r}")

    def expr(self):
        value = self.term()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                value = value + rhs if val == "+" else value - rhs
            else:
                return value

    def term(self):
        value = self.unary()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.unary()
                value = value * rhs if val == "*" else value / rhs
            elif kind in ("int", "name") or (kind == "op" and val == "("):
                value = value * self.unary()  # juxtaposition
            else:
                return value

    def unary(self):
        kind, val = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return -self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            e = self.exponent()
            if e.denominator == 1:
                return base ** int(e)
            return base ** e
        return base

    def exponent(self):
        kind, val = self.take()
        if kind == "int":
            return Fraction(val)
        if kind == "op" and val == "-":
            kind2, val2 = self.take()
            if kind2 != "int":
                raise ParseError("expected integer exponent after '-'")
            return Fraction(-val2)
        if kind == "op" and val in "{(":
            close = "}" if val == "{" else ")"
            sign = 1
            kind2, val2 = self.take()
            if kind2 == "op" and val2 == "-":
                sign = -1
                kind2, val2 = self.take()
            if kind2 != "int":
                raise ParseError("expected integer in exponent")
            num = val2
            den = 1
            kind3, val3 = self.take()
            if kind3 == "op" and val3 == "/":
                kind4, val4 = self.take()
                if kind4 != "int":
                    raise ParseError("expected integer denominator in exponent")
                den = val4
                kind3, val3 = self.take()
            if kind3 != "op" or val3 != close:
                raise ParseError(f"expected {close!r} closing the exponent")
            return Fraction(sign * num, den)
        raise ParseError(f"malformed exponent near {val!r}")

    def atom(self):
        kind, val = self.take()
        if kind == "int":
            return self.make_int(val)
        if kind == "name":
            if val not in self.env:
                raise ParseError(f"unknown symbol {val!r}")
            return self.env[val]
        if kind == "op" and val == "(":
            value = self.expr()
            self.expect(")")
            return value
        raise ParseError(f"unexpected token {val!r}")


def parse_expression(text, env, make_int):
    """Parse ``text`` over the given symbol environment.

    ``make_int`` maps integer literals into the target structure; every
    other operation goes through the values' own operators.
    """
    p = _Parser(_tokenize(text), env, make_int)
    try:
        value = p.expr()
    except ZeroDivisionError:  # 1/0 or 0^-1 over Q, or t^{1/0}
        raise ParseError(f"division by zero in {text!r}") from None
    kind, _ = p.peek()
    if kind != "end":
        raise ParseError(f"trailing input after position {p.i}")
    return value
