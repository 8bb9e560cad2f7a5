"""The text grammar of ``ivrf.parsing`` read through ``parse_ratfun``: a
seeded token soup whose outcomes are pinned by one digest, and a table of
exact error messages."""

import hashlib
import random

import pytest

from ivrf.errors import IvrfError, ParseError
from ivrf.ff import FiniteField, RatFuncField
from ivrf.fields import QQ, HahnFinite, LexRank2, TAdicRat
from ivrf.ratfun import parse_ratfun

# Valid tokens, names no field knows (x2), fractional and negative exponent
# groups, and characters no token starts with: '$', ']', '_' and the
# superscript '²', which is a digit to str.isdigit but not a decimal digit.
# The Arabic-Indic '٣' is a decimal digit, so it reads as the integer 3.
SOUP = ["x", "x", "x", "t", "u", "t1", "t2", "0", "1", "2", "12", "x2", "+", "+", "-",
        "*", "/", "^", "**", "(", ")", "{", "}", "{1/2}", "(1/3)", "{-2}", "٣"]
BAD = ["$", "]", "²", "_"]
SPACES = ["", "", "", " ", " ", "  ", "   "]

FIELDS = {
    "Q": QQ,
    "tadic/GF4": TAdicRat(FiniteField(2, 2)),
    "tadic/GF2(u)": TAdicRat(RatFuncField(FiniteField(2))),
    "lex2": LexRank2(FiniteField(2)),
    "hahn/GF2(u)": HahnFinite(RatFuncField(FiniteField(2))),
}

# sha256 of the outcomes of the 600 texts per field, in field order
SOUP_DIGEST = "1146008148380a5fb777f8c4f37332966dcfdc891f1aac1a18f4b8b483fe5c44"


def _soup_token(rng):
    return rng.choice(BAD if rng.random() < 0.02 else SOUP)


def _soup_text(rng, names):
    """Every other text is tokens drawn at random; the rest are sums of
    monomials c*x^k (c a literal, one of the field's symbols ``names``, a
    power or a quotient of them), some with a drawn token put in, so that
    most of them parse."""
    if rng.random() < 0.5:
        tokens = [_soup_token(rng) for _ in range(rng.randint(1, 9))]
    else:
        tokens = []
        for _ in range(rng.randint(1, 4)):
            if tokens:
                tokens.append(rng.choice("+-"))
            a, b = rng.choice(names), rng.choice(names)
            c = rng.choice(["", "", "1", "2", "12", "٣", a, b, f"({a} + 1)", f"(1/{a})",
                            f"({b}/{a})", f"{a}^{{1/2}}", f"{a}^(1/3)", f"{a}^{{-2}}"])
            if c:
                tokens += [c, rng.choice(["*", "", "/"])]
            tokens += ["x", rng.choice(["", "^2", "^7", "**3", "^0", "^-1", "^12"])]
        if rng.random() < 0.3:
            tokens.insert(rng.randrange(len(tokens) + 1), _soup_token(rng))
    parts = [rng.choice(SPACES)]
    for token in tokens:
        parts += [token, rng.choice(SPACES)]
    return "".join(parts)


def _outcome(field, text):
    """The printed function, or the error's type and message."""
    try:
        return str(parse_ratfun(field, text))
    except IvrfError as e:
        return f"{type(e).__name__}: {e}"


def test_token_soup_outcomes_are_pinned():
    rng = random.Random("parsing:soup")
    h = hashlib.sha256()
    for name, field in FIELDS.items():
        names = sorted(field.symbol_env()) or ["3"]
        for _ in range(600):
            text = _soup_text(rng, names)
            h.update(f"{name}\x00{text}\x00{_outcome(field, text)}\n".encode())
    assert h.hexdigest() == SOUP_DIGEST


@pytest.mark.parametrize("text, message", [
    ("(x+1]", "bad character at position 4: ']'"),
    # the position is where the last token ended, before the whitespace
    ("x +  $ 1", "bad character at position 3: '  $ 1'"),
    ("x²", "bad character at position 1: '²'"),
    ("x_1", "bad character at position 1: '_1'"),
    ("(x+1}", "expected ')', found '}'"),
    ("(x+1", "expected ')', found end of input"),
    ("(x ٣ ]", "bad character at position 4: ' ]'"),
    ("x +", "unexpected end of input"),
    ("   ", "unexpected end of input"),
    (")", "unexpected token ')'"),
    ("y + 1", "unknown symbol 'y'"),
    ("x2", "unknown symbol 'x2'"),
    ("x^+", "malformed exponent near '+'"),
    ("x^", "malformed exponent near end of input"),
    ("x^x", "malformed exponent near 'x'"),
    ("x^-y", "expected integer exponent after '-'"),
    ("x^{y}", "expected integer in exponent"),
    ("x^{1/y}", "expected integer denominator in exponent"),
    ("x^{1 2}", "expected '}' closing the exponent"),
    ("x^(1/2}", "expected ')' closing the exponent"),
    ("x)", "trailing input after position 1"),
    ("x^2^2", "trailing input after position 3"),
])
def test_parse_error_messages(text, message):
    with pytest.raises(ParseError) as err:
        parse_ratfun(QQ, text)
    assert str(err.value) == message


@pytest.mark.parametrize("text, shown", [
    ("٣x", "3*x"),
    ("x ** 2", "x^2"),
    ("x***2", None),
    ("x\t+\n1", "x + 1"),
    (" x", "x"),
    ("2 12 x", "24*x"),
])
def test_parse_spacing_and_digits(text, shown):
    if shown is None:
        with pytest.raises(ParseError):
            parse_ratfun(QQ, text)
    else:
        assert str(parse_ratfun(QQ, text)) == shown
