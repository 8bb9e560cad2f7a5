"""A small expression grammar shared by field elements and rational functions.

Grammar (whitespace ignored)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/')? unary)*        # juxtaposition multiplies
    unary  := '-' unary | atom
    atom   := INT | NAME | '(' expr ')'          # then optional '^' exponent
    exp    := INT | '-' INT | '{' INT ('/' INT)? '}' | '(' INT ('/' INT)? ')'

INT is a run of decimal digits (Unicode ones included), NAME an ASCII letter
then letters and digits, and ``**`` is read as ``^``; any other character but
whitespace is a parse error that names its position.

Names resolve through a caller-supplied environment; integers go through a
``make_int`` callback, so the same grammar parses p-adic rationals, finite
field expressions, Hahn sums and rational functions in x.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError, ResourceError

EXPONENT_BOUND = 2 ** 16  # largest numerator or denominator of an exponent

_TOKEN = re.compile(r"\s*(\d+|[a-zA-Z][a-zA-Z0-9]*|\*\*|[-+*/^(){}])")
_END = "$"  # ends every token list; a bad character, so never a token


def _tokenize(text):
    """The tokens of ``text`` as strings, ``**`` read as ``^``, then ``_END``.

    One ``findall`` reads them.  The tokens cover every character but
    whitespace exactly when none is bad; only where the lengths disagree (a
    bad character, or whitespace other than spaces) is the text scanned
    again, token by token, for the position of the first bad character.
    """
    toks = _TOKEN.findall(text)
    if sum(map(len, toks)) != len(text) - text.count(" "):
        _check_characters(text)
    if "**" in text:
        toks = ["^" if t == "**" else t for t in toks]
    toks.append(_END)
    return toks


def _check_characters(text):
    """Raise for the first character that starts no token; its position is
    where the token before it ended, whitespace in between included."""
    pos = 0
    while m := _TOKEN.match(text, pos):
        pos = m.end()
    if text[pos:].strip():
        raise ParseError(f"bad character at position {pos}: {text[pos:]!r}")


def _shown(tok):
    """A token as an error message names it."""
    return "end of input" if tok == _END else repr(tok)


class _Parser:
    """Recursive descent over the tokens of ``_tokenize``, read in place as
    ``toks[i]``: a token is an integer when it starts with a digit and a
    name when it starts with a letter."""

    def __init__(self, tokens, env, make_int):
        self.toks = tokens
        self.i = 0
        self.env = env
        self.make_int = make_int

    def take(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expr(self):
        value = self.term()
        while (op := self.toks[self.i]) == "+" or op == "-":
            self.i += 1
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.unary()
        while True:
            op = self.toks[self.i]
            if op == "*" or op == "/":
                self.i += 1
                rhs = self.unary()
                value = value * rhs if op == "*" else value / rhs
            elif op[0].isalnum() or op == "(":
                value = value * self.unary()  # juxtaposition
            else:
                return value

    def unary(self):
        if self.toks[self.i] == "-":
            self.i += 1
            return -self.unary()
        base = self.atom()
        if self.toks[self.i] != "^":
            return base
        self.i += 1
        e = self.exponent()
        if abs(e.numerator) > EXPONENT_BOUND or e.denominator > EXPONENT_BOUND:
            raise ResourceError(f"exponent {e} beyond the bound {EXPONENT_BOUND}")
        if e.denominator == 1:
            return base ** int(e)
        return base ** e

    def exponent(self):
        tok = self.take()
        if tok[0].isdigit():
            return Fraction(int(tok))
        if tok == "-":
            tok = self.take()
            if not tok[0].isdigit():
                raise ParseError("expected integer exponent after '-'")
            return Fraction(-int(tok))
        if tok == "{" or tok == "(":
            close = "}" if tok == "{" else ")"
            sign = 1
            tok = self.take()
            if tok == "-":
                sign = -1
                tok = self.take()
            if not tok[0].isdigit():
                raise ParseError("expected integer in exponent")
            num = int(tok)
            den = 1
            tok = self.take()
            if tok == "/":
                tok = self.take()
                if not tok[0].isdigit():
                    raise ParseError("expected integer denominator in exponent")
                den = int(tok)
                tok = self.take()
            if tok != close:
                raise ParseError(f"expected {close!r} closing the exponent")
            return Fraction(sign * num, den)
        raise ParseError(f"malformed exponent near {_shown(tok)}")

    def atom(self):
        tok = self.toks[self.i]
        self.i += 1
        if tok[0].isdigit():
            return self.make_int(int(tok))
        if tok[0].isalpha():
            value = self.env.get(tok)
            if value is None:
                raise ParseError(f"unknown symbol {tok!r}")
            return value
        if tok == "(":
            value = self.expr()
            tok = self.take()
            if tok != ")":
                raise ParseError(f"expected ')', found {_shown(tok)}")
            return value
        if tok == _END:
            raise ParseError("unexpected end of input")
        raise ParseError(f"unexpected token {tok!r}")


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
    if p.toks[p.i] != _END:
        raise ParseError(f"trailing input after position {p.i}")
    return value
