"""Exact univariate polynomials and rational functions over any field.

The code is generic over a small coefficient-field protocol: the field
object provides ``zero()``, ``one()``, ``from_int(n)`` and its
``characteristic`` (and, optionally, ``poly_gcd(a, b)``: see
``Polynomial.gcd``), and its elements carry
arithmetic through operator overloading (exact, no floats).  An element is
false exactly when it is zero: trimming, supports, evaluation and products
test coefficients by truth value, never by ``==`` against ``zero()``, which
over the towers would compare whole rational functions.  Rational
functions are always held in canonical form: numerator and denominator
coprime, denominator monic.  Equality is therefore syntactic; two
polynomials are equal when they have the same variable, the same field and
equal coefficients.  A rational function equals only a rational function,
never an int or a polynomial, so equal values hash equal.  Every fraction
field in ivrf rests on this one form: an element of kappa(t) is a
RationalFunction in t, and a Hahn field element is one in s = t^(1/m).

A polynomial over GF(2) or GF(4) (a field whose ``poly_packing`` is its q)
is packed into ints: over GF(2) one int, bit i the coefficient of var^i
(``_GF2Polynomial``), and over GF(4) two such planes, the two bits of each
coefficient's index (``_GF4Polynomial``).  Addition is xor, multiplication
carry-less, division and the gcd shifted xor.  The GF(2)(u) towers and
GF(4)(t) rest on these rings.  Every other field keeps the dense tuple; all
print the same.  Over Q (``Fraction`` coefficients) products, divisions,
gcds and evaluation run on plain ints: each polynomial is put on one
denominator once, at the first of these that reads it
(``Polynomial._q_form``, kept with the polynomial), and each coefficient of
a result is built once as a reduced ``Fraction``.  ``evaluate_pair`` gives
a value over Q as the unreduced pair of ints that ``evaluate`` reduces.
``compose`` with an affine b0 + b1 x is a Taylor shift by repeated
synthetic division, with no polynomial product, and over Q it shifts the
integer form.

The operations are methods: ``RationalFunction(f, g)`` normalizes f/g by
one gcd, ``phi.evaluate(a)`` returns a value or ``POLE``,
``phi.compose(psi)`` substitutes, and ``==`` is the exact identity check.
Products, quotients, sums, inverses and compositions of reduced operands
are reduced by construction: sums and products cancel across before they
multiply (Henrici's rule, as ``fractions.Fraction`` does for ints), and
their denominators, products and exact quotients of monic ones, are monic
as built; only a quotient, an inverse or a composition makes its
denominator monic (``_monic``, which ``__init__`` shares).  An operand in
the same variable is a function; anything else is tried as a
constant of the coefficient field (over GF(q)(u), whose elements are
rational functions in u, ``u * x`` is the constant u times x).

Over fraction-field coefficients F(v), ``clear_denominators`` turns a
polynomial over F(v) into one over F[v], which the gcd
(``fraction_free_gcd``) and the residue root search share.

``parse_ratfun`` reads the text form, and ``parse_element`` the text of a
coefficient by the same rules.  While the text is a polynomial in x
it holds a sparse polynomial, a dict from exponent to coefficient, so
``x^k`` is one term, built with no product of coefficients, and only a
division by a non-constant (or a negative power of one) makes a
``RationalFunction``; from there on the operations above carry the value.
``RationalFunction(p)`` of a polynomial is p/1, canonical as it stands.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _igcd
from operator import mul as _mul

from .errors import StructuralError
from .parsing import parse_expression


class _Pole:
    """Value of a reduced rational function at a zero of its denominator."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Pole"

    def __bool__(self):
        return False


POLE = _Pole()


class Polynomial:
    """Dense univariate polynomial; trailing zeros trimmed.

    Over GF(2) and GF(4) (a field with ``poly_packing``) the constructor
    returns a ``_GF2Polynomial`` or ``_GF4Polynomial`` instead, which packs
    the coefficients into one int or two bit planes.
    """

    __slots__ = ("field", "coeffs", "var", "_ints")

    def __new__(cls, field, coeffs=(), var="x"):
        packing = getattr(field, "poly_packing", None)
        if packing:
            return object.__new__(_PACKED[packing])
        return object.__new__(cls)

    def __init__(self, field, coeffs, var="x"):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.field = field
        self.coeffs = tuple(coeffs)
        self.var = var
        self._ints = None

    def _new(self, coeffs):
        """A polynomial in this one's field and variable from a coefficient
        list, which is trimmed in place; arithmetic results skip the class
        dispatch of the constructor."""
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        p = object.__new__(Polynomial)
        p.field = self.field
        p.coeffs = tuple(coeffs)
        p.var = self.var
        p._ints = None
        return p

    def _q_form(self):
        """A polynomial over Q on one denominator, (ints, l) as ``_q_ints``
        gives it.  It is built on the first read and kept in ``_ints``: the
        coefficients of a polynomial never change, so it stays exact."""
        form = self._ints
        if form is None:
            form = self._ints = _q_ints(self.coeffs)
        return form

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, field, var="x"):
        return cls(field, (), var)

    @classmethod
    def constant(cls, field, c, var="x"):
        return cls(field, (c,), var)

    @classmethod
    def gen(cls, field, var="x"):
        return cls(field, (field.zero(), field.one()), var)

    @classmethod
    def from_dict(cls, field, d, var="x"):
        if not d:
            return cls.zero(field, var)
        n = max(d)
        zero = field.zero()
        return cls(field, [d.get(i, zero) for i in range(n + 1)], var)

    # -- structure ---------------------------------------------------

    @property
    def degree(self):
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_constant(self):
        return len(self.coeffs) <= 1

    def leading(self):
        if not self.coeffs:
            raise StructuralError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero()

    def support(self):
        return [i for i, c in enumerate(self.coeffs) if c]

    def low_degree(self):
        """The least exponent with a nonzero coefficient, None for the zero
        polynomial: ``p.low_degree() == p.degree`` exactly when p has one
        term."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (type(other) is type(self) and self.var == other.var
                and self.coeffs == other.coeffs and self.field == other.field)

    def __hash__(self):
        return hash(("poly", self.var, self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    # -- arithmetic --------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return self._new(out)

    __radd__ = __add__

    def __neg__(self):
        return self._new([-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return self._new([])
        # a constant factor scales the other one, and 1 leaves it as it is
        p, q = (other, self) if len(self.coeffs) == 1 else (self, other)
        if len(q.coeffs) == 1:
            return p.scale(q.coeffs[0])
        if isinstance(self.coeffs[-1], Fraction) and isinstance(other.coeffs[-1], Fraction):
            (a, la), (b, lb) = self._q_form(), other._q_form()
            den = la * lb
            return self._new([Fraction(n, den) for n in _convolve(a, b, 0)])
        return self._new(_convolve(self.coeffs, other.coeffs, self.field.zero()))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise StructuralError("negative power of a polynomial")
        if n == 0:
            return Polynomial.constant(self.field, self.field.one(), self.var)
        p = self.field.characteristic
        if p and not n % p and type(self) is Polynomial:
            # f^(pm) = (f^p)^m, and in characteristic p f^p is sum c_i^p x^(ip);
            # a packed polynomial squares by its own carry-less product instead
            frobenius = [self.field.zero()] * (p * self.degree + 1)
            for i, c in enumerate(self.coeffs):
                if c:
                    frobenius[p * i] = c ** p
            return self._new(frobenius) ** (n // p)
        return power(self, n)

    def scale(self, c):
        """The polynomial times a constant c; times 1 it is itself, times 0
        the zero polynomial, and a zero coefficient takes no product."""
        if not c:
            return self._new([])
        one = self.field.one()
        if c is one or c == one:
            return self
        return self._new([a * c if a else a for a in self.coeffs])

    def __divmod__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        if other.is_zero():
            raise StructuralError("polynomial division by zero")
        if len(self.coeffs) < len(other.coeffs):
            return self._new([]), self
        if isinstance(other.coeffs[-1], Fraction):
            # s a = q b + r for the integer multiples a = la * self, b = lb * other
            (a, la), (b, lb) = self._q_form(), other._q_form()
            q, r, s = _z_pseudo_divmod(a, b)
            den = la * s
            return (self._new([Fraction(c * lb, den) for c in q]),
                    self._new([Fraction(c, den) for c in r]))
        inv_lead = self.field.one() / other.leading()
        q, r = _long_division(list(self.coeffs), other.coeffs, lambda c: c * inv_lead)
        return self._new(q), self._new(r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.is_zero():
            return self
        lead = self.leading()
        if lead == self.field.one():
            return self
        return self.scale(self.field.one() / lead)

    @staticmethod
    def gcd(a, b):
        """Monic greatest common divisor.

        * Over GF(2) and GF(4) (packed): Euclid on the ints, or on the pairs
          of planes, made monic once.
        * Over rational-function coefficients F(v) the denominators are
          cleared once and the gcd is taken in F[v][x] by the primitive
          remainder sequence (Collins, J. ACM 1967; Brown, J. ACM 1971):
          each pseudo-remainder is divided by its content, a gcd in F[v],
          and only the final gcd is made monic over F(v).  Towers such as
          GF(q)(u)(t) thus reduce to gcds in GF(q)[u] instead of
          normalizing a fraction at every coefficient operation.  Over an
          infinite F (the GF(q)(u) towers: t-adic, Hahn and lex2) the
          images at one point v = sigma are tried first: a constant gcd in
          F[x] proves the gcd is 1 without the sequence, whose content steps
          each run a second one in F[v] (see ``fraction_free_gcd``).
        * A field with a gcd of its own (``field.poly_gcd``) gets the two
          operands once both have positive degree: the Hahn fields, whose
          coefficients are rational functions in t^(1/k) for various k,
          spread them onto one lattice s = t^(1/m) and run
          ``fraction_free_gcd`` over kappa[s].
        * Over Q (``Fraction`` coefficients) the same primitive remainder
          sequence runs in Z[x] on plain ints: each operand's integer form
          (``_q_form``) is read, each pseudo-remainder divided by its
          integer content, and only the final gcd is made monic over Q.
        * Otherwise (GF(q), q = 3 or q > 4): the Euclidean algorithm.

        The monic gcd is unique, so all of them give the same result.
        """
        if type(a) is _GF2Polynomial:
            x, y = a.bits, b.bits
            while y:
                x, y = y, _gf2_divmod(x, y)[1]
            return a._new(x)
        if type(a) is _GF4Polynomial:
            x0, x1, y0, y1 = a.w0, a.w1, b.w0, b.w1
            while y0 | y1:
                x0, x1, (y0, y1) = y0, y1, _gf4_divmod(x0, x1, y0, y1)[2:]
            return a._new(*_gf4_scale(x0, x1, _GF4_INV[_gf4_lead(x0, x1)]))
        if a.is_zero():
            return b.monic()
        if b.is_zero():
            return a.monic()
        if a.degree == 0 or b.degree == 0:
            return Polynomial.constant(a.field, a.field.one(), a.var)
        field_gcd = getattr(a.field, "poly_gcd", None)
        if field_gcd is not None:
            return field_gcd(a, b)
        lead = a.leading()
        if isinstance(lead, Fraction):
            g = _z_gcd(a._q_form()[0], b._q_form()[0])
            return a._new([Fraction(c, g[-1]) for c in g[:-1]] + [a.field.one()])
        if isinstance(lead, RationalFunction):
            g = fraction_free_gcd([(c.num, c.den) for c in a.coeffs],
                                  [(c.num, c.den) for c in b.coeffs])
            return a._new([RationalFunction(c, g[-1]) for c in g[:-1]] + [a.field.one()])
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    # -- evaluation and substitution ----------------------------------

    def evaluate(self, a):
        """The value at a field element (or anything with the ops).

        Over Q (a ``Fraction`` point and ``Fraction`` coefficients) the sum
        is taken on plain integers by ``_q_horner``, from the polynomial's
        integer form built on its first read, and reduced once at the end.
        Over every other field the value at 0 is the constant coefficient
        and at 1 the sum of the coefficients, with no product; elsewhere
        Horner's rule runs over the nonzero terms, multiplying by a^g for
        the gap g to the next one.  On a dense polynomial every gap is 1,
        which is the plain Horner loop; a sparse one such as x^256 + c takes
        one power of a, by the point's own ``**``: a reduced fraction (a
        t-adic or Hahn point) is raised with no gcd, where repeated products
        would cancel at every step.
        """
        coeffs = self.coeffs
        if len(coeffs) <= 1:
            return coeffs[0] if coeffs else self.field.zero()
        if isinstance(a, Fraction) and isinstance(coeffs[-1], Fraction):
            num, den = _q_horner(self, a)
            return Fraction(num, den)
        if not a:
            return coeffs[0]
        if a == self.field.one():
            return sum(coeffs[1:], coeffs[0])
        top = len(coeffs) - 1
        acc = coeffs[top]
        for i in range(top - 1, -1, -1):
            c = coeffs[i]
            if i and not c:
                continue
            gap = top - i
            acc = acc * (a if gap == 1 else a ** gap) + c
            top = i
        return acc

    def _coerce(self, other):
        """``other`` as a polynomial in this one's variable, or
        NotImplemented: a polynomial in the same variable is taken as it is,
        a rational function in it is left to its own operators, and anything
        else is a constant (see ``_scalar``)."""
        if isinstance(other, (Polynomial, RationalFunction)) and other.var == self.var:
            return other if isinstance(other, Polynomial) else NotImplemented
        c = _scalar(self.field, other)
        if c is None:
            return NotImplemented
        return Polynomial.constant(self.field, c, self.var)

    # -- printing ------------------------------------------------------

    def __repr__(self):
        return self.to_str()

    def to_str(self):
        if self.is_zero():
            return "0"
        one = self.field.one()
        parts = []
        for i in reversed(self.support()):
            c = self.coeff(i)
            cs = str(c)
            if i == 0:
                parts.append(_paren(cs))
            else:
                xs = self.var if i == 1 else f"{self.var}^{i}"
                parts.append(xs if c == one else f"{_paren(cs)}*{xs}")
        return " + ".join(parts)


def _paren(s):
    return f"({s})" if ("+" in s or "-" in s[1:] or "/" in s or " " in s) else s


class _GF2Polynomial(Polynomial):
    """A polynomial over GF(2) packed into one int: bit i is the coefficient
    of var^i.  Addition is xor, multiplication shift-xor, and division and
    the gcd (in ``Polynomial.gcd``) are shifted xor on the ints.  Only
    printing and rare readers go through ``coeffs``, which unpacks."""

    __slots__ = ("bits",)

    def __init__(self, field, coeffs, var="x"):
        bits = 0
        for i, c in enumerate(coeffs):
            if c:
                bits |= 1 << i
        self.field = field
        self.bits = bits
        self.var = var

    def _new(self, bits):
        p = object.__new__(_GF2Polynomial)
        p.field = self.field
        p.bits = bits
        p.var = self.var
        return p

    @property
    def coeffs(self):
        bits, f = self.bits, self.field
        return tuple(f.from_int(bits >> i) for i in range(bits.bit_length()))

    # -- structure ---------------------------------------------------

    @property
    def degree(self):
        return self.bits.bit_length() - 1

    def is_zero(self):
        return not self.bits

    def is_constant(self):
        return self.bits < 2

    def leading(self):
        if not self.bits:
            raise StructuralError("zero polynomial has no leading coefficient")
        return self.field.one()

    def coeff(self, i):
        return self.field.from_int(self.bits >> i if i >= 0 else 0)

    def support(self):
        out = []
        bits = self.bits
        while bits:
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
        return out

    def low_degree(self):
        bits = self.bits
        return (bits & -bits).bit_length() - 1 if bits else None

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (type(other) is _GF2Polynomial and self.bits == other.bits
                and self.var == other.var and self.field is other.field)

    def __hash__(self):
        return hash(("poly", self.var, self.bits))

    def __bool__(self):
        return self.bits != 0

    # -- arithmetic --------------------------------------------------

    def __add__(self, other):
        if type(other) is not _GF2Polynomial or other.var != self.var:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._new(self.bits ^ other.bits)

    __radd__ = __sub__ = __rsub__ = __add__

    def __neg__(self):
        return self

    def __mul__(self, other):
        if type(other) is not _GF2Polynomial or other.var != self.var:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._new(_gf2_mul(self.bits, other.bits))

    __rmul__ = __mul__

    def scale(self, c):
        return self if c else self._new(0)

    def __divmod__(self, other):
        if type(other) is not _GF2Polynomial:
            return NotImplemented
        if not other.bits:
            raise StructuralError("polynomial division by zero")
        q, r = _gf2_divmod(self.bits, other.bits)
        return self._new(q), self._new(r)

    def evaluate(self, a):
        """The value at a point: bit 0 at 0, the parity of the bits at 1,
        and Horner on the bits at any other point."""
        field = self.field
        if not a:
            return self.coeff(0)
        if a == field.one():
            return field.from_int(self.bits.bit_count())
        acc = field.zero()
        for i in range(self.degree, -1, -1):
            acc = acc * a + self.coeff(i)
        return acc


def _gf2_mul(a, b):
    """Carry-less product of two packed GF(2) polynomials: one shifted copy
    of the longer operand per set bit of the shorter."""
    if a.bit_length() > b.bit_length():
        a, b = b, a
    out = 0
    while a:
        low = a & -a
        out ^= b << (low.bit_length() - 1)
        a ^= low
    return out


def _gf2_divmod(a, b):
    """Quotient and remainder of packed GF(2) polynomials, b nonzero."""
    db = b.bit_length()
    q = 0
    shift = a.bit_length() - db
    while shift >= 0:
        q |= 1 << shift
        a ^= b << shift
        shift = a.bit_length() - db
    return q, a


class _GF4Polynomial(_GF2Polynomial):
    """A polynomial over GF(4) packed into two GF(2) planes, ints w0 and w1:
    the coefficient of var^i is w0_i + w*w1_i (w the generator, w^2 = w + 1),
    whose ``FFElement`` index has the bits w0_i and w1_i.  Its ``bits`` are
    the support w0 | w1, which the methods of ``_GF2Polynomial`` it keeps
    read.  Products are three carry-less ones (Karatsuba)."""

    __slots__ = ("w0", "w1")

    def __init__(self, field, coeffs, var="x"):
        w0 = w1 = 0
        for i, c in enumerate(coeffs):
            w0 |= (c.idx & 1) << i
            w1 |= (c.idx >> 1) << i
        self.field, self.w0, self.w1, self.var = field, w0, w1, var

    def _new(self, w0, w1):
        p = object.__new__(_GF4Polynomial)
        p.field, p.w0, p.w1, p.var = self.field, w0, w1, self.var
        return p

    @property
    def bits(self):
        return self.w0 | self.w1

    @property
    def degree(self):
        return (self.w0 | self.w1).bit_length() - 1

    @property
    def coeffs(self):
        return tuple(self.coeff(i) for i in range(self.degree + 1))

    def leading(self):
        _GF2Polynomial.leading(self)  # raises for the zero polynomial
        return self.field.element(_gf4_lead(self.w0, self.w1))

    def coeff(self, i):
        return self.field.element((self.w0 >> i & 1) | (self.w1 >> i & 1) << 1 if i >= 0 else 0)

    def __eq__(self, other):
        return (type(other) is _GF4Polynomial and self.w0 == other.w0 and self.w1 == other.w1
                and self.var == other.var and self.field is other.field)

    def __hash__(self):
        return hash(("poly", self.var, self.w0, self.w1))

    def __add__(self, other):
        if type(other) is not _GF4Polynomial or other.var != self.var:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._new(self.w0 ^ other.w0, self.w1 ^ other.w1)

    __radd__ = __sub__ = __rsub__ = __add__

    def __mul__(self, other):
        if type(other) is not _GF4Polynomial or other.var != self.var:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a0, a1, b0, b1 = self.w0, self.w1, other.w0, other.w1
        if (a0 | a1) < 2 or (b0 | b1) < 2:  # a constant factor scales the other
            k, p = (b0 | b1 << 1, self) if (b0 | b1) < 2 else (a0 | a1 << 1, other)
            return p if k == 1 else p._new(*_gf4_scale(p.w0, p.w1, k))
        low = _gf2_mul(a0, b0)
        # (a0 + w a1)(b0 + w b1) = a0b0 + a1b1 + w((a0 + a1)(b0 + b1) + a0b0)
        return self._new(low ^ _gf2_mul(a1, b1), _gf2_mul(a0 ^ a1, b0 ^ b1) ^ low)

    __rmul__ = __mul__

    def scale(self, c):
        return self if c.idx == 1 else self._new(*_gf4_scale(self.w0, self.w1, c.idx))

    def __divmod__(self, other):
        if type(other) is not _GF4Polynomial:
            return NotImplemented
        if not other.bits:
            raise StructuralError("polynomial division by zero")
        q0, q1, r0, r1 = _gf4_divmod(self.w0, self.w1, other.w0, other.w1)
        return self._new(q0, q1), self._new(r0, r1)

    def evaluate(self, a):
        """The parity of each plane at 1, and elsewhere Horner on the digits
        as over GF(2)."""
        if a == self.field.one():
            return self.field.element((self.w0.bit_count() & 1) | (self.w1.bit_count() & 1) << 1)
        return _GF2Polynomial.evaluate(self, a)


_PACKED = {2: _GF2Polynomial, 4: _GF4Polynomial}
_GF4_INV = (0, 1, 3, 2)  # 1/w = w + 1 and 1/(w + 1) = w; 0 stays 0


def _gf4_lead(w0, w1):
    """The index of the leading coefficient of packed planes, 0 for zero."""
    top = (w0 | w1).bit_length() - 1
    return (w0 >> top & 1) | (w1 >> top & 1) << 1 if top >= 0 else 0


def _gf4_scale(w0, w1, k):
    """The planes of a packed GF(4) polynomial times the element of index k:
    w(w0 + w w1) = w1 + w(w0 + w1), and (w + 1)(w0 + w w1) = w0 + w1 + w w0."""
    if k == 1:
        return w0, w1
    if k == 2:
        return w1, w0 ^ w1
    if k == 3:
        return w0 ^ w1, w0
    return 0, 0


def _gf4_divmod(a0, a1, b0, b1):
    """Quotient and remainder planes (q0, q1, r0, r1) of packed GF(4)
    polynomials, b nonzero.  Over b made monic each quotient digit is the
    leading digit of the remainder, and the quotient is scaled back once."""
    db = (b0 | b1).bit_length()
    shift = (a0 | a1).bit_length() - db
    inv = _GF4_INV[_gf4_lead(b0, b1)]
    m0, m1 = _gf4_scale(b0, b1, inv)
    multiples = ((0, 0), (m0, m1), (m1, m0 ^ m1), (m0 ^ m1, m0))
    q0 = q1 = 0
    while shift >= 0:
        top = shift + db - 1
        c = (a0 >> top & 1) | (a1 >> top & 1) << 1
        m0, m1 = multiples[c]
        q0 |= (c & 1) << shift
        q1 |= (c >> 1) << shift
        a0 ^= m0 << shift
        a1 ^= m1 << shift
        shift = (a0 | a1).bit_length() - db
    return (*_gf4_scale(q0, q1, inv), a0, a1)


# -- gcd over F[v][x] -------------------------------------------------------
#
# A polynomial in x over F[v] is a list of Polynomials in v over F, lowest
# degree first, with a nonzero last entry.

def fraction_free_gcd(a, b):
    """Primitive gcd in F[v][x] of two polynomials of positive degree over
    F(v), each given by its coefficient fractions: (numerator, denominator)
    pairs of Polynomials in v over F, lowest degree first.

    Returns the gcd over F[v], primitive; the monic gcd over F(v) is this
    list divided by its last entry.

    Over an infinite F a one-level image is tried first (Brown, J. ACM
    18(4), 1971): a and b are mapped to F[x] by v -> sigma for the first
    point sigma of 1, 0, w, w + 1 (w the generator of F) at which no
    coefficient denominator and not the numerator of a's leading
    coefficient vanishes.  A constant gcd of the images proves the gcd is 1
    (Gauss's lemma): the primitive gcd G in F[v][x] divides L a, L the lcm
    of a's denominators, so lc(G) divides lc(L a) = (L/d) n for a's leading
    coefficient n/d, which does not vanish at sigma.  So G(sigma) has the
    degree of G, and it divides both images, since L(sigma) != 0 and
    likewise for b.  A non-constant image gcd proves nothing, and the
    primitive remainder sequence below decides, as it does where no point
    qualifies.
    """
    if _coprime_image(a, b):
        v = a[-1][0]
        return [Polynomial.constant(v.field, v.field.one(), v.var)]
    a = _primitive_part(clear_denominators(a))
    b = _primitive_part(clear_denominators(b))
    if len(a) < len(b):
        a, b = b, a
    while True:
        r = _pseudo_remainder(a, b)
        if not r:
            return b
        a, b = b, _primitive_part(r)


def _coprime_image(a, b):
    """Whether the images of a and b at the first qualifying point of F
    (see ``fraction_free_gcd``) have a constant gcd in F[x]."""
    lead = a[-1][0]
    F = lead.field
    if F.is_finite:
        return False
    for sigma in _cheap_points(F):
        if not lead.evaluate(sigma):
            continue
        values = _image(a + b, sigma)
        if values is not None:
            image_a, image_b = Polynomial(F, values[:len(a)]), Polynomial(F, values[len(a):])
            return Polynomial.gcd(image_a, image_b).degree == 0
    return False


def _image(fracs, sigma):
    """The values n(sigma)/d(sigma) of the (numerator, monic denominator)
    pairs, or None where a denominator vanishes at sigma."""
    values = []
    for n, d in fracs:
        if d.degree == 0:
            values.append(n.evaluate(sigma))
            continue
        dv = d.evaluate(sigma)
        if not dv:
            return None
        values.append(n.evaluate(sigma) / dv)
    return values


def _cheap_points(F):
    """1 and 0, which evaluate with no product, then the generator w of F
    and w + 1 where F has one (u over GF(q)(u); Q has none)."""
    one = F.one()
    yield one
    yield F.zero()
    gen = getattr(F, "gen", None)
    if gen is not None:
        w = gen()
        yield w
        yield w + one


def clear_denominators(fracs):
    """The polynomial over F[v] that is the lcm of the denominators times the
    polynomial with the given coefficient fractions, (numerator, monic
    denominator) pairs of Polynomials in v over F.  The content is kept."""
    lcm = None
    for _, d in fracs:
        if d.degree > 0:
            lcm = d if lcm is None else lcm * (d // Polynomial.gcd(lcm, d))
    if lcm is None:
        return [n for n, _ in fracs]
    return [n * (lcm // d) for n, d in fracs]


def _primitive_part(coeffs):
    """Coefficients divided by their content, a gcd in F[v], and by the unit
    of F that makes the leading coefficient's leading coefficient 1."""
    content = None
    for c in coeffs:
        if c.is_zero():
            continue
        content = c if content is None else Polynomial.gcd(content, c)
        if content.degree == 0:
            break
    one = content.field.one()
    lead = coeffs[-1].leading()
    if content.degree == 0:
        if lead == one:
            return coeffs
        inv = one / lead
        return [c.scale(inv) for c in coeffs]
    divisor = content.scale(lead / content.leading())
    return [c // divisor for c in coeffs]


def _pseudo_remainder(a, b):
    """Remainder of lc(b)^k * a by b in F[v][x] for some k <= deg a - deg b
    + 1 (lazy: lc(b) multiplies only the steps that cancel a term), with
    trailing zeros trimmed.  Needs deg a >= deg b and b primitive, so that a
    constant lc(b) is 1."""
    r = list(a)
    lb = b[-1]
    db = len(b) - 1
    while len(r) > db:
        c = r.pop()
        if c.is_zero():
            continue
        shift = len(r) - db
        if lb.degree > 0:
            r = [lb * x for x in r]
        for j in range(db):
            r[shift + j] = r[shift + j] - c * b[j]
    while r and r[-1].is_zero():
        r.pop()
    return r


class RationalFunction:
    """Reduced fraction of polynomials; denominator monic, never zero."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _canonical=False):
        if den is None:  # num/1 is canonical as it stands
            den = Polynomial.constant(num.field, num.field.one(), num.var)
        elif den.is_zero():
            raise StructuralError("zero denominator")
        elif not _canonical:
            num, den, _ = _cancel(num, den)
            num, den = _monic(num, den)
        self.num = num
        self.den = den

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, field, var="x"):
        return cls(Polynomial.zero(field, var))

    @classmethod
    def one(cls, field, var="x"):
        return cls(Polynomial.constant(field, field.one(), var))

    @classmethod
    def constant(cls, field, c, var="x"):
        return cls(Polynomial.constant(field, c, var))

    @classmethod
    def gen(cls, field, var="x"):
        return cls(Polynomial.gen(field, var))

    @property
    def field(self):
        return self.num.field

    @property
    def var(self):
        return self.num.var

    def is_zero(self):
        return self.num.is_zero()

    def is_constant(self):
        return self.num.is_constant() and self.den.is_constant()

    def as_constant(self):
        if not self.is_constant():
            raise StructuralError("not a constant rational function")
        return self.num.coeff(0)

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash(("ratfun", self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other):
        """``other`` as a function in this one's variable, or NotImplemented.

        A polynomial or rational function in the same variable is a
        function; anything else (an int, or an element of ``self.field``,
        which over GF(q)(u) is itself a rational function in u) is a
        constant, see ``_scalar``.
        """
        if isinstance(other, (RationalFunction, Polynomial)) and other.var == self.num.var:
            return other if isinstance(other, RationalFunction) else RationalFunction(other)
        c = _scalar(self.field, other)
        if c is None:
            return NotImplemented
        return RationalFunction.constant(self.field, c, self.num.var)

    def _operands(self, other):
        """Numerator and denominator of self and of other as functions in
        one variable, or None.

        Besides ``_coerce``, self is read as a constant when ``other`` is a
        function in another variable over a field that holds it (u * x over
        GF(q)(u)): Python runs no reflected operator for two operands of one
        class.
        """
        o = self._coerce(other)
        if o is not NotImplemented:
            return self.num, self.den, o.num, o.den
        if isinstance(other, RationalFunction):
            c = _scalar(other.field, self)
            if c is not None:
                k = RationalFunction.constant(other.field, c, other.num.var)
                return k.num, k.den, other.num, other.den
        return None

    # The operations below cancel before they multiply (Henrici, J. ACM 3(1),
    # 1956; Knuth, TAOCP vol. 2, 4.5.1): on reduced operands their results
    # are reduced by construction, and a denominator is made monic only where
    # it was a numerator (a divisor, an inverse) or comes from a composition.

    def __add__(self, other):
        ops = self._operands(other)
        return NotImplemented if ops is None else _sum(*ops)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den, _canonical=True)

    def __sub__(self, other):
        ops = self._operands(other)
        if ops is None:
            return NotImplemented
        a, b, c, d = ops
        return _sum(a, b, -c, d)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        ops = self._operands(other)
        return NotImplemented if ops is None else _product(*ops)

    __rmul__ = __mul__

    def __truediv__(self, other):
        ops = self._operands(other)
        if ops is None:
            return NotImplemented
        a, b, c, d = ops
        if c.is_zero():
            raise StructuralError("division by the zero function")
        return _product(a, b, *_monic(d, c))

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def inverse(self):
        if self.is_zero():
            raise StructuralError("zero has no inverse")
        return RationalFunction(*_monic(self.den, self.num), _canonical=True)

    def __pow__(self, n):
        if isinstance(n, Fraction):
            if n.denominator != 1:
                return self._fractional_power(n)
            n = int(n)
        if n < 0:
            return self.inverse() ** (-n)
        # powers of coprime polynomials stay coprime, and of a monic one monic
        return RationalFunction(self.num ** n, self.den ** n, _canonical=True)

    def _fractional_power(self, n):
        """A constant function raised to a non-integer power: the power of
        its coefficient, where the coefficient field has it exactly (the
        Hahn monomials t^q)."""
        if not self.is_constant():
            raise StructuralError(f"power {n} of a non-constant function")
        return RationalFunction.constant(self.field, _root(self.as_constant(), n), self.var)

    # -- evaluation, composition ------------------------------------------

    def evaluate(self, a):
        """Value at a point; POLE where the reduced denominator vanishes.

        Over Q (a ``Fraction`` point) the value is one ``Fraction`` built
        from the unreduced pair of ``evaluate_pair``, or ``POLE`` where its
        second entry is 0.
        """
        if isinstance(a, Fraction) and isinstance(self.den.leading(), Fraction):
            num, den = self.evaluate_pair(a)
            return Fraction(num, den) if den else POLE
        d = self.den.evaluate(a)
        if not d:
            return POLE
        return self.num.evaluate(a) / d

    def evaluate_pair(self, a):
        """The value over Q at a Fraction a as an unreduced pair of ints
        (N, D) with N/D = f(a), and (1, 0) where a is a pole.

        Both polynomials go through ``_q_horner``: D is 0 exactly when the
        denominator's integer numerator is, and otherwise N/D is the
        quotient of the two unreduced pairs.  ``evaluate`` over Q is
        ``Fraction(N, D)`` of this pair.
        """
        dn, dd = _q_horner(self.den, a)
        if dn == 0:
            return 1, 0
        nn, nd = _q_horner(self.num, a)
        return nn * dd, nd * dn

    def compose(self, other):
        """Substitute a rational function (or polynomial) for the variable.

        Raises StructuralError when the substitution lands identically on a
        zero of the denominator (a constant filling a pole).

        With p/q = self and r/s = other, both reduced, and d = max(deg p,
        deg q), the result is s^d p(r/s) / s^d q(r/s), and these two are
        coprime: a common root is a common root of p and q, or a zero of s,
        where r does not vanish and the one of p, q of degree d does not.

        An affine substitution b0 + b1 x (s = 1, as in the refinement
        a0 + t*y of ``intr``) is a Taylor shift of p and of q, which takes
        no polynomial product; over Q it runs on their integer forms (see
        ``_compose_poly``).  Any other goes through ``horner``.
        """
        psi = self._coerce(other)
        if psi is NotImplemented:
            raise StructuralError(f"cannot compose with {other!r}")
        num = _compose_poly(self.num, psi)
        den = _compose_poly(self.den, psi)
        if psi.den.degree:
            # num/den here are fractions with common denominator psi.den^deg.
            d = max(self.num.degree, self.den.degree)
            num = num * psi.den ** (d - self.num.degree)
            den = den * psi.den ** (d - self.den.degree)
        if den.is_zero():
            raise StructuralError("composition hits a pole identically")
        return RationalFunction(*_monic(num, den), _canonical=True)

    def __repr__(self):
        return self.to_str()

    def to_str(self):
        if self.den.degree == 0:
            return self.num.to_str()
        ns = self.num.to_str()
        ds = self.den.to_str()
        if self.num.low_degree() < self.num.degree:
            ns = f"({ns})"
        if self.den.low_degree() < self.den.degree:
            ds = f"({ds})"
        return f"{ns}/{ds}"


def _cancel(p, q):
    """(p/g, q/g, g) for g = gcd(p, q), with g None when it is 1.

    Three cases take no gcd.  Where either polynomial is constant, g = 1.
    Where p == q, g = monic(p) and both cofactors are the constant lc(p).
    Where either has one term c v^k, g = v^m with m the lesser of the two
    least exponents (``low_degree``): c is a unit of the field, so
    gcd(c v^k, q) = v^min(k, ord q), and dividing by v^m drops the m lowest
    coefficients (a shift of the bits when packed).  Every other pair goes
    to ``Polynomial.gcd``.  The monic gcd is unique, so all give one result.
    """
    if p.degree <= 0 or q.degree <= 0:
        return p, q, None
    if p == q:
        lead = Polynomial.constant(p.field, p.leading(), p.var)
        return lead, lead, p.monic()
    lp, lq = p.low_degree(), q.low_degree()
    if lp == p.degree or lq == q.degree:
        m = min(lp, lq)
        if m == 0:
            return p, q, None
        if type(p) is _GF2Polynomial:
            return p._new(p.bits >> m), q._new(q.bits >> m), p._new(1 << m)
        if type(p) is _GF4Polynomial:
            return p._new(p.w0 >> m, p.w1 >> m), q._new(q.w0 >> m, q.w1 >> m), p._new(1 << m, 0)
        field = p.field
        return (p._new(list(p.coeffs[m:])), q._new(list(q.coeffs[m:])),
                p._new([field.zero()] * m + [field.one()]))
    g = Polynomial.gcd(p, q)
    if g.degree > 0:
        return p // g, q // g, g
    return p, q, None


def _product(a, b, c, d):
    """a/b * c/d for reduced fractions with monic denominators: gcd(a, d)
    and gcd(c, b) are cancelled (``_cancel``), and what is left is coprime.
    The denominator is a product of exact quotients of monic polynomials,
    so it is monic as built.  A product by a constant is the other operand
    scaled (``Polynomial.scale``): itself for 1, the zero function for 0."""
    if b.degree == 0 and a.degree <= 0:
        a, b, c, d = c, d, a, b
    if d.degree == 0 and c.degree <= 0:  # times the constant c
        return _reduced(a.scale(c.coeff(0)), b)
    a, d, _ = _cancel(a, d)
    c, b, _ = _cancel(c, b)
    return _reduced(a * c, b * d)


def _sum(a, b, c, d):
    """a/b + c/d for reduced fractions with monic denominators.  With
    g = gcd(b, d), t = a(d/g) + c(b/g) shares with the denominator
    (b/g)(d/g)g only g2 = gcd(t, g).  Over one denominator (b == d) g is b
    itself and only gcd(a + c, b) is taken.  The denominator is monic as
    built, as in ``_product``."""
    if b.degree == 0:
        a, b, c, d = c, d, a, b
    if d.degree == 0:  # plus the polynomial c
        return _reduced(a + c * b, b)
    b1, d1, g = _cancel(b, d)
    if g is None:
        return _reduced(a * d + c * b, b * d)
    t, _, g2 = _cancel(a * d1 + c * b1, g)
    return _reduced(t, b1 * (d if g2 is None else d // g2))


def _monic(num, den):
    """num/den, num and den coprime, with the denominator made monic: the
    canonical pair.  The zero function gets the denominator 1."""
    one = num.field.one()
    if num.is_zero():
        return num, Polynomial.constant(num.field, one, num.var)
    lead = den.leading()
    if lead is not one and lead != one:
        inv = one / lead
        num, den = num.scale(inv), den.scale(inv)
    return num, den


def _reduced(num, den):
    """The rational function num/den of coprime polynomials with den monic,
    which is canonical as it stands but for the zero function: that gets
    the denominator 1."""
    if num.is_zero():
        den = Polynomial.constant(num.field, num.field.one(), num.var)
    return RationalFunction(num, den, _canonical=True)


def _scalar(field, other):
    """``other`` as an element of ``field``, or None.

    An int is lifted; anything else must add to the field's zero and give
    an element of the zero's type and variable.  The check matters where
    elements are themselves rational functions: ``zero + other`` may hand
    ``other`` to its own reflected addition, which returns a function in
    ``other``'s variable rather than a constant of ``field``.
    """
    if isinstance(other, int):
        return field.from_int(other)
    zero = field.zero()
    try:
        c = zero + other
    except TypeError:
        return None
    if type(c) is not type(zero) or getattr(c, "var", None) != getattr(zero, "var", None):
        return None
    return c


def power(x, n, mul=_mul):
    """x^n for an int n >= 1 by squaring and multiplying, with ``mul`` the
    product: a power of one term of a sparse polynomial (x^k) stays one
    term."""
    result = None
    while True:
        if n & 1:
            result = x if result is None else mul(result, x)
        n >>= 1
        if not n:
            return result
        x = mul(x, x)


def horner(coeffs, r, s, one, scale=_mul):
    """(sum_i c_i r^i s^(n-i), s^n) for the coefficients c_0..c_n of a
    nonzero polynomial p, constant term first: s^n p(r/s) and its
    denominator, by Horner's rule with no division.  ``r``, ``s`` and
    ``one`` lie in one ring (ints, or polynomials), and ``scale(q, c)``
    multiplies an element q of it by a coefficient c."""
    rest = reversed(coeffs)
    acc, spow = scale(one, next(rest)), one
    for c in rest:
        spow = spow * s
        acc = acc * r + scale(spow, c)
    return acc, spow


def _q_horner(p, a):
    """p(a) over Q as an unreduced pair of ints (numerator, denominator).

    ``p`` is a polynomial with Fraction coefficients and ``a = r/s`` a
    Fraction.  With l the lcm of the coefficient denominators and n = deg p,
    the pair is (l * s^n * p(a), l * s^n): the numerator is ``horner`` on
    the ints l * c_i of p's integer form (``Polynomial._q_form``, built once
    per polynomial), one multiply-add on plain ints per coefficient, so no
    gcd and no Fraction is built.  The zero polynomial gives (0, 1).
    """
    if not p.coeffs:
        return 0, 1
    ints, lcm = p._q_form()
    r, s = a.as_integer_ratio()
    num, spow = horner(ints, r, s, 1)
    return num, lcm * spow


def _q_ints(coeffs):
    """A polynomial over Q on one denominator: (ints, l), l the lcm of the
    denominators of the Fraction (or int) ``coeffs`` and ints[i] = l *
    coeffs[i], plain ints in a tuple.  The zero polynomial gives ((), 1).
    ``Polynomial._q_form`` calls it once per polynomial and keeps the
    result."""
    ratios = [c.as_integer_ratio() for c in coeffs]
    lcm = 1
    for _, d in ratios:
        if lcm % d:
            lcm = lcm * d // _igcd(lcm, d)
    return tuple([n * (lcm // d) for n, d in ratios]), lcm


def _convolve(a, b, zero):
    """The coefficients of the product of two nonzero coefficient lists."""
    out = [zero] * (len(a) + len(b) - 1)
    # the nonzero terms of the second factor, listed once: polynomials
    # spread onto a finer lattice (Hahn fields) are mostly zeros
    terms = [(j, d) for j, d in enumerate(b) if d]
    for i, c in enumerate(a):
        if not c:
            continue
        for j, d in terms:
            out[i + j] = out[i + j] + c * d
    return out


def _long_division(r, b, quotient):
    """Long division of the coefficient list ``r`` (consumed) by ``b``: the
    quotient and the trimmed remainder as lists.  ``quotient(c)`` is the
    quotient coefficient for a nonzero leading coefficient c.  The divisor's
    nonzero terms below its leading one are listed once."""
    db = len(b) - 1
    q = [None] * (len(r) - db)
    terms = [(j, d) for j, d in enumerate(b[:db]) if d]
    for k in range(len(q) - 1, -1, -1):
        c = r.pop()
        if c:
            c = quotient(c)
            for j, d in terms:
                r[k + j] = r[k + j] - c * d
        q[k] = c
    while r and not r[-1]:
        r.pop()
    return q, r


def _z_pseudo_divmod(a, b):
    """Pseudo-division in Z[x] of int coefficient lists, deg a >= deg b:
    (q, r, s) with s a = q b + r and s = lc(b)^(deg a - deg b + 1), so that
    every step of the long division of s a by b is exact on ints."""
    lc = b[-1]
    s = lc ** (len(a) - len(b) + 1)
    q, r = _long_division([c * s for c in a], b, lambda c: c // lc)
    return q, r, s


def _z_gcd(a, b):
    """A gcd in Z[x] of two int coefficient lists of positive degree, by the
    primitive remainder sequence (Collins 1967; Brown 1971): each
    pseudo-remainder is divided by its content."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        content = _igcd(*b)
        b = [c // content for c in b]
        a, b = b, _z_pseudo_divmod(a, b)[1]
    return a


def _compose_poly(p, other):
    """The numerator of p(other.num/other.den) written over
    other.den**deg(p); the caller supplies the denominator power.

    An affine other = b0 + b1 y is a Taylor shift with no polynomial
    product: p(b1 (c + y)), c = b0/b1, is coefficient k times b1^k shifted
    by c (``_shift``).  Over Q it runs on the integer form (ints P_i over
    l): with b0 = A/S, b1 = T/U and D = SU, the ints P_i D^(n-i) are
    shifted by AU, and coefficient k times (TS)^k is over l D^n.  Every
    other substitution runs ``horner``."""
    if p.is_zero():
        return Polynomial.zero(p.field, other.var)
    if other.den.degree or other.num.degree != 1:
        one = Polynomial.constant(p.field, p.field.one(), other.var)
        return horner(p.coeffs, other.num, other.den, one, lambda q, c: q.scale(c))[0]
    (b0, b1), n = other.num.coeffs, p.degree
    if isinstance(b1, Fraction) and isinstance(p.coeffs[-1], Fraction):
        ints, lcm = p._q_form()
        (A, S), (T, U) = b0.as_integer_ratio(), b1.as_integer_ratio()
        D = S * U
        a = [c * D ** (n - i) for i, c in enumerate(ints)]
        _shift(a, A * U, 1)
        TS, den = T * S, lcm * D ** n
        return Polynomial(p.field, [Fraction(c * TS ** k, den) for k, c in enumerate(a)],
                          other.var)
    a, one = list(p.coeffs), p.field.one()
    if b1 is not one and b1 != one:
        for k in range(1, n + 1):
            bk = b1 if k == 1 else bk * b1
            a[k] = a[k] * bk if a[k] else a[k]
    if n:
        _shift(a, b0 / b1, one)
    return Polynomial(p.field, a, other.var)


def _shift(a, c, one):
    """The coefficients ``a`` of q, constant term first, become those of
    q(y + c) in place, by repeated synthetic division (von zur Gathen &
    Gerhard, ISSAC 1997): n(n+1)/2 additions, with no factorial, so in any
    characteristic, and no product where c is one; c = 0 leaves q."""
    if not c:
        return
    unit = c is one or c == one
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            d = a[j + 1]
            if d:
                a[j] = a[j] + (d if unit else c * d)


def _root(c, n):
    """c^n for a coefficient c and a non-integer n, where the coefficient
    field has it exactly.  A coefficient that is a non-constant function in
    its own variable (t over kappa(t)) has none."""
    if isinstance(c, RationalFunction) and not c.is_constant():
        root = None
    else:
        try:
            root = c ** n
        except TypeError:
            root = None
    if type(root) is not type(c):  # e.g. a float from Fraction ** Fraction
        raise StructuralError(f"no exact power {n} of {c}")
    return root


# -- parsing ----------------------------------------------------------------

def parse_ratfun(field, text):
    """Parse a rational function in x over ``field``.

    While the text is a polynomial in x, a value of the grammar of
    ``ivrf.parsing`` is a sparse polynomial (``_Parsed``): a dict from
    exponent to nonzero coefficient, each a plain element of ``field``.
    Integer literals and the field's symbols (``field.symbol_env()``) are
    constants and ``x`` is one term.  The power of one term c*x^k is the one
    term c^n*x^(kn), and a product with one term shifts the exponents and
    multiplies each coefficient once; where a coefficient is the field's
    ``one()`` itself, as in ``x^k`` and ``c*x^k``, no product is taken.  At
    the first division by a non-constant or negative power of one, both
    sides become ``RationalFunction``s once, and from there on the operators
    of ``RationalFunction`` carry the value.  The result is one canonical
    ``RationalFunction``.
    """
    return _parse(field, text, _environments(field)[1]).function()


def parse_element(field, text):
    """Parse an element of ``field``: the grammar of ``parse_ratfun`` without
    x.  A power of a constant follows the same rule (``_root``), so a power
    the field does not hold exactly, such as ``2^{1/2}`` over Q, is a
    ``StructuralError``."""
    return _parse(field, text, _environments(field)[0]).terms.get(0, field.zero())


def _parse(field, text, env):
    return parse_expression(text, env, lambda n: _Parsed.constant(field, field.from_int(n)))


def _environments(field):
    """The two parse environments of ``field``: its symbols
    (``symbol_env()``) as constants, for ``parse_element``, and the same with
    ``x`` as one term, for ``parse_ratfun``.  Both are built on the field's
    first parse and kept on the field object; their values are never
    changed."""
    envs = getattr(field, "_parse_envs", None)
    if envs is None:
        symbols = {name: _Parsed.constant(field, val)
                   for name, val in field.symbol_env().items()}
        envs = field._parse_envs = symbols, {"x": _Parsed(field, {1: field.one()}), **symbols}
    return envs


class _Parsed:
    """A value of ``parse_ratfun``: a sparse polynomial over ``field`` in
    ``terms`` (exponent to nonzero coefficient), or, once the text has
    divided by a non-constant, the ``RationalFunction`` ``rf`` with
    ``terms`` None.  Values are not changed after they are built."""

    __slots__ = ("field", "terms", "rf")

    def __init__(self, field, terms, rf=None):
        self.field = field
        self.terms = terms
        self.rf = rf

    @staticmethod
    def constant(field, c):
        return _Parsed(field, {0: c} if c else {})

    def function(self):
        """The value as a canonical RationalFunction."""
        if self.terms is None:
            return self.rf
        return RationalFunction(Polynomial.from_dict(self.field, self.terms))

    def _of(self, rf):
        return _Parsed(self.field, None, rf)

    def __add__(self, other):
        a, b = self.terms, other.terms
        if a is None or b is None:
            return self._of(self.function() + other.function())
        return _Parsed(self.field, _sparse_add(a, b))

    def __neg__(self):
        if self.terms is None:
            return self._of(-self.rf)
        return _Parsed(self.field, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.terms, other.terms
        if a is None or b is None:
            return self._of(self.function() * other.function())
        one = self.field.one()
        if len(a) == 1 and (len(b) != 1 or next(iter(a.values())) is one):
            a, b = b, a
        if len(b) != 1:
            return _Parsed(self.field, _sparse_mul(a, b))
        # times one term d*x^k: each term is shifted by k, and multiplied by
        # d unless d is the field's one itself, which x and x^k hold
        (k, d), = b.items()
        if d is one:
            return _Parsed(self.field, {i + k: c for i, c in a.items()})
        return _Parsed(self.field, {i + k: c * d for i, c in a.items()})

    def __truediv__(self, other):
        a, b = self.terms, other.terms
        if a is not None and _is_constant(b):  # scale by the constant
            if not b:
                raise StructuralError("division by the zero function")
            c = b[0]
            return _Parsed(self.field, {e: d / c for e, d in a.items()})
        return self._of(self.function() / other.function())

    def __pow__(self, n):
        terms, field = self.terms, self.field
        if terms is not None and isinstance(n, int) and n >= 0:
            if n == 0:
                return _Parsed.constant(field, field.one())
            if len(terms) != 1:
                return _Parsed(field, power(terms, n, _sparse_mul))
            (k, c), = terms.items()  # (c*x^k)^n = c^n*x^(kn), and 1^n is 1
            return _Parsed(field, {k * n: c if c is field.one() else c ** n})
        if not _is_constant(terms):
            return self._of(self.function() ** n)
        # a negative or fractional power of a constant is its coefficient's own
        c = terms.get(0, field.zero())
        if isinstance(n, Fraction):
            c = _root(c, n)
        elif c:
            c = c ** n
        else:
            raise StructuralError("zero has no inverse")
        return _Parsed.constant(field, c)


def _is_constant(terms):
    """Whether a sparse polynomial (or None, a function) is a constant."""
    return terms is not None and (not terms or (len(terms) == 1 and 0 in terms))


def _sparse_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = dict(a)
    for e, c in b.items():
        s = out.get(e)
        if s is None:
            out[e] = c
        else:
            s = s + c
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def _sparse_mul(a, b):
    """The product of two sparse polynomials."""
    out = {}
    for i, c in a.items():
        for j, d in b.items():
            k = i + j
            s = out.get(k)
            out[k] = c * d if s is None else s + c * d
    return {k: c for k, c in out.items() if c}
