"""Desk-scale valued fields with exact valuation and residue maps.

Four field variants are supported, each with a decidable, exactly computable
valuation onto an ordered group from :mod:`ivrf.ordgroup`:

* ``PAdicQ(p)``          rationals with the p-adic valuation (Z, residue GF(p))
* ``TAdicRat(kappa)``    kappa(t) with the t-adic valuation (Z, residue kappa)
* ``LexRank2(kappa)``    kappa(t1)(t2) with the rank-2 lex valuation (Z x Z)
* ``HahnFinite(kappa)``  fractions of finitely supported sums sum c_i t^(q_i),
                         q_i in Q (divisible group Q, residue kappa; the
                         maximal ideal is not principal), held as reduced
                         rational functions in s = t^(1/m)

Residue fields are GF(q) or GF(q)(u).  A residue subfield is a
``SubfieldSpec``, a decision procedure on the residue field, and the whole
residue field is None.  The pseudovaluation pullback of a subfield F under a
field V holds x iff v(x) > 0, or v(x) = 0 and the residue lies in F;
``in_pullback`` is that test, and ``intr.DomainSpec.pvd(V, F, E)`` is the
pullback as a domain (for F = None, the valuation ring).

Each variant is a ``ValuedField``.  It supplies its valuation, residue,
angular component, lift and generators; zero, one, integer literals, the
parsing symbols and the residue's precondition v(x) >= 0 come from the base
class.  The t-adic order and the angular component, read off the lowest
terms of a fraction of polynomials, are the module helpers ``_t_order`` and
``_angular``: they serve kappa(t), the t1-adic coefficients of the rank-2
field and the Hahn elements in s = t^(1/m).
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, lcm

from .errors import (ConfigError, PreconditionError, ResourceError,
                     StructuralError, UnsupportedCaseError)
from .ff import _PRIME_CAP, _least_factor, FiniteField, RatFuncField
from .ordgroup import INFINITY, GroupElement, GroupSpec
from .parsing import EXPONENT_BOUND
from .ratfun import (Polynomial, RationalFunction, _paren, fraction_free_gcd,
                     parse_element)


class RationalsContext:
    """The plain rationals as a coefficient-field context."""

    _zero = Fraction(0)
    _one = Fraction(1)
    characteristic = 0

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    @staticmethod
    def from_int(n):
        return Fraction(n)

    is_finite = False

    def symbol_env(self):
        return {}

    def describe(self):
        return "Q"

    def __repr__(self):
        return "Q"


QQ = RationalsContext()


# ---------------------------------------------------------------------------
# valued fields
# ---------------------------------------------------------------------------

class ValuedField:
    """Common surface of the four field variants.

    A field supplies ``valuation``, ``residue``, ``lift``,
    ``element_of_value``, ``random_element``, ``describe`` and ``angular``:
    the residue of x / element_of_value(v(x)) for x nonzero, multiplicative
    (a PreconditionError at 0).  It sets ``group``, ``residue_field`` and the
    shared constants ``_zero`` and ``_one``, and lists its generators in
    ``_generators``.  The rest is said once here: ``zero``, ``one``,
    ``from_int`` (an integer lifted from the residue field),
    ``characteristic`` (the residue field's, but 0 for ``PAdicQ``),
    ``symbol_env`` (the generators plus every residue-field symbol lifted)
    and ``_residue_is_zero``, the check that opens every ``residue`` but
    ``PAdicQ``'s, which tests the integers of the fraction.
    """

    group = None          # GroupSpec
    residue_field = None  # FiniteField | RatFuncField

    # coefficient-field protocol ------------------------------------

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_int(self, n):
        return self.lift(self.residue_field.from_int(n))

    @property
    def characteristic(self):
        return self.residue_field.characteristic

    # valuation data -------------------------------------------------

    def valuation(self, x):
        raise NotImplementedError

    def residue(self, x):
        raise NotImplementedError

    def lift(self, r):
        """Any element of valuation 0 whose residue is r (r nonzero)."""
        raise NotImplementedError

    def element_of_value(self, gamma):
        """Any element t with v(t) = gamma; gamma must lie in the lattice."""
        raise NotImplementedError

    def uniformizer(self):
        raise UnsupportedCaseError(f"{self.describe()} has no uniformizer")

    # parsing / misc ---------------------------------------------------

    def _generators(self):
        return {}

    def symbol_env(self):
        env = self._generators()
        for name, value in self.residue_field.symbol_env().items():
            env[name] = self.lift(value)
        return env

    def parse(self, text):
        return parse_element(self, text)

    def describe(self):
        raise NotImplementedError

    def __repr__(self):
        return self.describe()

    def random_nonzero(self, rng):
        while True:
            x = self.random_element(rng)
            if x:
                return x

    def _residue_is_zero(self, x):
        """Whether res(x) is 0, that is x = 0 or v(x) > 0; a
        PreconditionError when v(x) < 0."""
        v = self.valuation(x)
        zero = self.group.zero()
        if v < zero:
            raise PreconditionError("residue needs valuation >= 0")
        return v > zero


class PAdicQ(ValuedField):
    """Q with the p-adic valuation; elements are Fractions.

    At most one of the reduced numerator n and denominator d is divisible
    by p, so each element takes one valuation test: ``valuation`` counts
    the factors p of d when p divides d and of n otherwise, and ``residue``
    is n/d mod p from ``d % p`` (0 means v < 0) and ``n % p``, with no
    group element built.  ``int_valuation`` is the count itself, v_p of a
    nonzero int, for callers that hold unreduced integer pairs.
    """

    characteristic = 0

    def __init__(self, p):
        self.p = p
        self.group = GroupSpec.integers(1)
        self.residue_field = FiniteField(p)
        self._zero = Fraction(0)
        self._one = Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def int_valuation(self, n):
        """v_p(n) of a nonzero int n, as a plain int; v_2 by its lowest set bit."""
        if not n:
            raise PreconditionError("v_p(0) is not an integer")
        p, v = self.p, 0
        if p == 2:
            return (n & -n).bit_length() - 1
        while not n % p:
            n //= p
            v += 1
        return v

    def valuation(self, x):
        n, d = x.numerator, x.denominator
        if not n:
            return INFINITY
        return GroupElement(self.group, (-self.int_valuation(d) if d % self.p == 0
                                         else self.int_valuation(n),))

    def residue(self, x):
        d = x.denominator % self.p
        if not d:
            raise PreconditionError("residue needs valuation >= 0")
        return self.residue_field.from_int(x.numerator % self.p * pow(d, -1, self.p))

    def angular(self, x):
        n, d, p = x.numerator, x.denominator, self.p  # int_valuation raises at 0
        return self.residue_field.from_int(n // p ** self.int_valuation(n)
                                           * pow(d // p ** self.int_valuation(d), -1, p))

    def lift(self, r):
        return Fraction(r.idx)

    def element_of_value(self, gamma):
        if not gamma.in_lattice():
            raise PreconditionError(f"{gamma} is not an attained value")
        return Fraction(self.p) ** int(gamma.coords[0])

    def uniformizer(self):
        return Fraction(self.p)

    def random_element(self, rng):
        num = rng.randint(-6, 6)
        den = rng.randint(1, 6)
        e = rng.randint(-2, 2)
        if e >= 0:
            return Fraction(num * self.p ** e, den)
        return Fraction(num, den * self.p ** -e)

    def describe(self):
        return f"Q(v_{self.p})"


def _t_order(f):
    """The order at t = 0 of a nonzero fraction of polynomials in t."""
    return f.num.low_degree() - f.den.low_degree()


def _angular(f):
    """The angular component of a fraction of polynomials in t: the ratio of
    the lowest coefficients of its numerator and denominator."""
    m = f.num.low_degree()
    if m is None:
        raise PreconditionError("the angular component of 0")
    return f.num.coeff(m) / f.den.coeff(f.den.low_degree())


def _monomial(kappa, e, c, var):
    """c * var^e, c nonzero, as a reduced fraction of polynomials over kappa."""
    return RationalFunction(Polynomial.from_dict(kappa, {max(e, 0): c}, var),
                            Polynomial.from_dict(kappa, {max(-e, 0): kappa.one()}, var),
                            _canonical=True)


class TAdicRat(ValuedField):
    """kappa(t) with the t-adic valuation; elements are reduced fractions of
    polynomials in t over the residue field kappa."""

    def __init__(self, kappa):
        self.kappa = kappa
        self.group = GroupSpec.integers(1)
        self.residue_field = kappa
        self._zero = RationalFunction.zero(kappa, "t")
        self._one = RationalFunction.one(kappa, "t")

    def gen(self):
        return RationalFunction.gen(self.kappa, "t")

    def monomial(self, e, c):
        return _monomial(self.kappa, e, c, "t") if c else self.zero()

    def _generators(self):
        return {"t": self.gen()}

    def valuation(self, x):
        if x.is_zero():
            return INFINITY
        return GroupElement(self.group, (_t_order(x),))

    def residue(self, x):
        return self.kappa.zero() if self._residue_is_zero(x) else _angular(x)

    def angular(self, x):
        return _angular(x)

    def lift(self, r):
        return RationalFunction.constant(self.kappa, r, "t")

    def element_of_value(self, gamma):
        if not gamma.in_lattice():
            raise PreconditionError(f"{gamma} is not an attained value")
        return self.monomial(gamma.coords[0], self.kappa.one())

    def uniformizer(self):
        return self.gen()

    def random_element(self, rng):
        def poly(terms):
            return Polynomial(self.kappa, [self.kappa.random(rng) for _ in range(terms)], "t")
        num = poly(rng.randint(0, 2) + 1)
        den = Polynomial.zero(self.kappa, "t")
        while den.is_zero():
            den = poly(rng.randint(0, 1) + 1)
        return RationalFunction(num, den) * self.gen() ** rng.randint(-2, 2)

    def describe(self):
        return f"{self.kappa.describe()}(t) t-adic"


class LexRank2(ValuedField):
    """kappa(t1, t2) with the rank-2 lexicographic valuation, v(t1) = (1,0)
    and v(t2) = (0,1).  Elements are fractions in t2 over kappa(t1)."""

    def __init__(self, kappa):
        self.kappa = kappa
        self.inner = RatFuncField(kappa, "t1")
        self.group = GroupSpec.integers(2)
        self.residue_field = kappa
        self._zero = RationalFunction.zero(self.inner, "t2")
        self._one = RationalFunction.one(self.inner, "t2")

    def gen1(self):
        return RationalFunction.constant(self.inner, self.inner.gen(), "t2")

    def gen2(self):
        return RationalFunction.gen(self.inner, "t2")

    def _generators(self):
        return {"t1": self.gen1(), "t2": self.gen2()}

    @staticmethod
    def _poly_val(poly):
        # the least (t1-order, t2-exponent) over the terms of a polynomial in t2
        return min((_t_order(poly.coeff(j)), j) for j in poly.support())

    def valuation(self, x):
        if x.is_zero():
            return INFINITY
        a1, j1 = self._poly_val(x.num)
        a2, j2 = self._poly_val(x.den)
        return GroupElement(self.group, (a1 - a2, j1 - j2))

    def residue(self, x):
        return self.kappa.zero() if self._residue_is_zero(x) else self.angular(x)

    def angular(self, x):
        if x.is_zero():
            raise PreconditionError("the angular component of 0")
        (_, i), (_, j) = self._poly_val(x.num), self._poly_val(x.den)
        return _angular(x.num.coeff(i)) / _angular(x.den.coeff(j))

    def lift(self, r):
        return RationalFunction.constant(self.inner, self.inner.constant(r), "t2")

    def element_of_value(self, gamma):
        if not gamma.in_lattice():
            raise PreconditionError(f"{gamma} is not an attained value")
        a, b = (int(c) for c in gamma.coords)
        return self.gen1() ** a * self.gen2() ** b

    def uniformizer(self):
        return self.gen2()  # (0,1) is the least positive value

    def random_element(self, rng):
        coeff = self.inner.random(rng)
        x = RationalFunction.constant(self.inner, coeff, "t2")
        return (x * self.gen1() ** rng.randint(-1, 1)
                * self.gen2() ** rng.randint(-1, 1)
                + self.from_int(rng.randint(0, 2)))

    def describe(self):
        return f"{self.kappa.describe()}(t1,t2) lex rank 2"


# ---------------------------------------------------------------------------
# Hahn-style field with divisible value group
# ---------------------------------------------------------------------------

def _rescale(p, k, d=1):
    """The polynomial with the coefficient of s^i in p at s^(i*k/d); d must
    divide every exponent of p."""
    return Polynomial.from_dict(p.field, {i * k // d: p.coeff(i) for i in p.support()},
                                p.var)


def _spread(f, k):
    """f(s^k): substituting s^k keeps a reduced fraction reduced and its
    denominator monic."""
    if k == 1:
        return f
    return RationalFunction(_rescale(f.num, k), _rescale(f.den, k), _canonical=True)


def _hahn(field, m, f):
    """The element f(t^(1/m)) on its least lattice: m and every exponent of f
    are divided by their gcd."""
    k = m
    for p in (f.num, f.den):
        for i in p.support():
            k = gcd(k, i)
            if k == 1:
                return HahnElement(field, m, f)
    return HahnElement(field, m // k, RationalFunction(
        _rescale(f.num, 1, k), _rescale(f.den, 1, k), _canonical=True))


def _lattice_lcm(*ms):
    """The least common lattice t^(1/m) of lattices t^(1/m_i), for m at most
    ``EXPONENT_BOUND``: an element spread onto it has m times as many
    exponents."""
    m = lcm(*ms)
    if m > EXPONENT_BOUND:
        raise ResourceError(f"lattice t^(1/{m}) beyond the bound {EXPONENT_BOUND}")
    return m


def _exp_str(e):
    return str(e) if e.denominator == 1 else f"{{{e}}}"


class HahnElement:
    """A Hahn field element as a rational function in s = t^(1/m): ``f`` is
    a reduced ``RationalFunction`` in s over kappa (monic denominator) and
    ``m`` the least positive integer with the element in kappa(s).  The pair
    is canonical, so equality is syntactic."""

    __slots__ = ("field", "m", "f")

    def __init__(self, field, m, f):
        self.field = field
        self.m = m
        self.f = f

    def is_zero(self):
        return self.f.is_zero()

    def _combine(self, other, op):
        """op on both functions spread onto the lcm of both lattices (an int
        operand is lifted), as an element on its least lattice."""
        if isinstance(other, int):
            other = self.field.from_int(other)
        elif not isinstance(other, HahnElement):
            return NotImplemented
        k = _lattice_lcm(self.m, other.m)
        return _hahn(self.field, k, op(_spread(self.f, k // self.m),
                                       _spread(other.f, k // other.m)))

    def __add__(self, other):
        return self._combine(other, operator.add)

    __radd__ = __add__

    def __neg__(self):
        return HahnElement(self.field, self.m, -self.f)

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __rsub__(self, other):
        return self._combine(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._combine(other, operator.mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._combine(other, operator.truediv)

    def __rtruediv__(self, other):
        return self._combine(other, lambda a, b: b / a)

    def __pow__(self, n):
        if isinstance(n, Fraction) and n.denominator != 1:
            # Fractional powers only for bare monomials t^q with coefficient 1.
            num, den = self.f.num, self.f.den
            if (num.low_degree() == num.degree and num.leading() == self.field.kappa.one()
                    and den.low_degree() == den.degree):
                return self.field.monomial(Fraction(num.degree - den.degree, self.m) * n)
            raise StructuralError("fractional power of a non-monomial")
        # in characteristic p a power can shrink the lattice: (1 + s)^p = 1 + s^p
        return _hahn(self.field, self.m, self.f ** int(n))

    def __eq__(self, other):
        if not isinstance(other, HahnElement):
            return NotImplemented
        return self.m == other.m and self.f == other.f

    def __hash__(self):
        return hash((self.m, self.f))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        # Printed as a fraction of sums of c*t^q whose denominator has least
        # term 1; the denominator is left out when it is 1.
        num, den = self.f.num, self.f.den
        low = den.low_degree()
        c0 = den.coeff(low)
        one = self.field.kappa.one()

        def side(p):
            parts = []
            for i in p.support():
                e = Fraction(i - low, self.m)
                c = p.coeff(i) / c0
                cs = str(c)
                if e == 0:
                    parts.append(cs)
                else:
                    ts = "t" if e == 1 else f"t^{_exp_str(e)}"
                    parts.append(ts if c == one else f"{_paren(cs)}*{ts}")
            return " + ".join(parts) if parts else "0"

        if den.degree == low:
            return side(num)
        return f"({side(num)})/({side(den)})"


class HahnFinite(ValuedField):
    """Fraction field of finitely supported sums sum c_i t^(q_i), q_i in Q.

    The valuation ring has divisible value group Q and a maximal ideal that
    is not principal; the residue field is kappa.  An element is a reduced
    rational function in s = t^(1/m) (``HahnElement``), so the field works
    like ``TAdicRat`` on the lattice (1/m)Z.
    """

    def __init__(self, kappa):
        self.kappa = kappa
        self.group = GroupSpec.rationals()
        self.residue_field = kappa
        # shared immutable constants
        self._zero = HahnElement(self, 1, RationalFunction.zero(kappa, "s"))
        self._one = HahnElement(self, 1, RationalFunction.one(kappa, "s"))

    def monomial(self, q, c=None):
        kappa = self.kappa
        c = kappa.one() if c is None else c
        if not c:
            return self.zero()
        q = Fraction(q)
        return HahnElement(self, _lattice_lcm(q.denominator),
                           _monomial(kappa, q.numerator, c, "s"))

    def gen(self):
        return self.monomial(1)

    def _generators(self):
        return {"t": self.gen()}

    def poly_gcd(self, a, b):
        """Monic gcd of two polynomials of positive degree over this field.

        It is taken in kappa(s)[x], s = t^(1/m) with m the lcm of the
        coefficients' lattices: the monic gcd does not change under this
        field extension, and over kappa(s) the fraction-free gcd of ratfun
        applies to the coefficients' (numerator, denominator) pairs.
        """
        m = _lattice_lcm(*[c.m for c in a.coeffs + b.coeffs])

        def fractions(p):
            return [(f.num, f.den) for f in (_spread(c.f, m // c.m) for c in p.coeffs)]

        g = fraction_free_gcd(fractions(a), fractions(b))
        return Polynomial(self, [_hahn(self, m, RationalFunction(c, g[-1])) for c in g[:-1]]
                          + [self.one()], a.var)

    def valuation(self, x):
        if x.is_zero():
            return INFINITY
        return self.group.element(Fraction(_t_order(x.f), x.m))

    def residue(self, x):
        return self.kappa.zero() if self._residue_is_zero(x) else _angular(x.f)

    def angular(self, x):
        return _angular(x.f)

    def lift(self, r):
        return HahnElement(self, 1, RationalFunction.constant(self.kappa, r, "s"))

    def element_of_value(self, gamma):
        return self.monomial(gamma.coords[0])

    def random_element(self, rng):
        pool = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2),
                Fraction(2), Fraction(-1, 2), Fraction(1, 3)]
        x = self.zero()
        for _ in range(rng.randint(1, 3)):
            # the coefficient is drawn before the exponent: seeded samples
            # and the golden digests rest on this order
            c = self.kappa.random(rng)
            x = x + self.monomial(rng.choice(pool), c)
        return x

    def describe(self):
        return f"Hahn({self.kappa.describe()}, Q)"


# ---------------------------------------------------------------------------
# residue subfields and pseudovaluation pullbacks
# ---------------------------------------------------------------------------

class SubfieldSpec:
    """A proper subfield F of a residue field L, given by a decision
    procedure; like a residue field, it says in the attribute ``is_finite``
    whether it is finite.  The attribute ``purely_inseparable_exponent`` is
    an e with c^(p^e) in F for all c in L, or None.  The whole residue field
    is no SubfieldSpec: wherever a subfield is read, it is None."""

    def __init__(self, residue_field):
        self.L = residue_field

    purely_inseparable_exponent = None

    def contains(self, r):
        raise NotImplementedError

    def elements(self):
        raise UnsupportedCaseError("subfield is not enumerable")

    def describe(self):
        raise NotImplementedError

    def __repr__(self):
        return self.describe()


class PrimePowerSubfield(SubfieldSpec):
    """GF(p^d) inside GF(p^k), d | k; membership is the Frobenius fixed-point
    test x^(p^d) = x."""

    is_finite = True

    def __init__(self, L, d):
        super().__init__(L)
        if not isinstance(L, FiniteField):
            raise ConfigError("subfield-by-order needs a finite residue field")
        if d < 1:
            raise ConfigError(f"subfield degree d must be at least 1, not {d}")
        if L.k % d != 0:
            raise ConfigError(f"GF({L.p}^{d}) is not a subfield of GF({L.q})")
        self.d = d
        self.sub_order = L.p ** d

    def contains(self, r):
        return r ** self.sub_order == r

    def elements(self):
        return (x for x in self.L.elements() if self.contains(x))

    def describe(self):
        return f"GF({self.sub_order}) in GF({self.L.q})"


class ConstantSubfield(SubfieldSpec):
    """GF(q) inside GF(q)(u): the constants."""

    is_finite = True

    def __init__(self, L):
        super().__init__(L)
        if not isinstance(L, RatFuncField):
            raise ConfigError("constant subfield needs a rational function field")

    def contains(self, r):
        return r.is_constant()

    def elements(self):
        return (self.L.constant(c) for c in self.L.base.elements())

    def describe(self):
        return f"GF({self.L.base.q}) in {self.L.describe()}"


class FrobeniusSubfield(SubfieldSpec):
    """GF(q)(u^(p^e)) inside GF(q)(u).  In characteristic p a reduced fraction
    lies in the subfield iff every exponent of u is divisible by p^e, and the
    extension is purely inseparable of exponent e."""

    is_finite = False

    def __init__(self, L, e=1):
        super().__init__(L)
        if not isinstance(L, RatFuncField):
            raise ConfigError("Frobenius subfield needs a rational function field")
        if e < 1:
            raise ConfigError("exponent must be at least 1")
        # p^e > 2^16 exactly when p^min(e, 17) > 2^16, so a huge e builds no p^e
        self.step = L.base.p ** min(e, EXPONENT_BOUND.bit_length())
        if self.step > EXPONENT_BOUND:
            raise ResourceError(f"Frobenius subfield {L.var}^({L.base.p}^{e}) beyond "
                                f"the bound {EXPONENT_BOUND}")
        self.purely_inseparable_exponent = e

    def contains(self, r):
        return (all(i % self.step == 0 for i in r.num.support())
                and all(i % self.step == 0 for i in r.den.support()))

    def describe(self):
        return f"GF({self.L.base.q})({self.L.var}^{self.step}) in {self.L.describe()}"


def in_pullback(V, sub, x):
    """x in the pullback of the residue subfield ``sub`` under V: v(x) > 0,
    or v(x) = 0 and res(x) in sub.  ``sub=None`` is the whole valuation
    ring.  The one pullback test, for domains and the certifier's targets."""
    v = V.valuation(x)
    zero = V.group.zero()
    if v < zero:
        return False
    return v > zero or sub is None or sub.contains(V.residue(x))


# ---------------------------------------------------------------------------
# configuration ingestion
# ---------------------------------------------------------------------------

_REQUIRED = object()
_JSON_TYPE_NAMES = {dict: "a JSON object", list: "a JSON list", str: "a string",
                    int: "an integer"}


def _config_value(cfg, key, kind, default=_REQUIRED):
    """``cfg[key]``, checked to be of the JSON type ``kind`` (dict, list, str
    or int; a bool is not an int), or ``default`` when the key is absent and
    a default is given.  A missing required key or a value of another type
    is a ConfigError naming the key."""
    if key not in cfg:
        if default is _REQUIRED:
            raise ConfigError(f"config {cfg!r} is missing the key {key!r}")
        return default
    value = cfg[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ConfigError(f"config key {key!r} must be {_JSON_TYPE_NAMES[kind]}, "
                          f"not {value!r}")
    return value


def residue_field_from_config(cfg):
    """GF(q) (kind ``gf``, generator ``gen``) or GF(q)(var) (kind
    ``ratfunc``, the generator of GF(q) named w); either reads its order as
    ``q``, or as ``p`` and ``k`` (default 1)."""
    kind = _config_value(cfg, "kind", str, "gf")
    if kind not in ("gf", "ratfunc"):
        raise ConfigError(f"unknown residue field kind {kind!r}")
    if "q" in cfg:
        p, k = _split_prime_power(_config_value(cfg, "q", int))
    else:
        p, k = _config_value(cfg, "p", int), _config_value(cfg, "k", int, 1)
    if kind == "gf":
        return FiniteField(p, k, _config_value(cfg, "gen", str, "u"))
    return RatFuncField(FiniteField(p, k, "w"), _config_value(cfg, "var", str, "u"))


def _split_prime_power(q):
    if q > _PRIME_CAP:
        raise ResourceError(f"order {q} exceeds the cap {_PRIME_CAP}")
    if q < 2:
        raise ConfigError(f"{q} is not a prime power")
    p = _least_factor(q)
    k, m = 0, q
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise ConfigError(f"{q} is not a prime power")
    return p, k


def field_from_config(cfg):
    if not isinstance(cfg, dict):
        raise ConfigError(f"a field spec must be a JSON object, not {cfg!r}")
    variant = _config_value(cfg, "variant", str, None)
    if variant == "padic":
        return PAdicQ(_config_value(cfg, "p", int))
    over_residue = {"tadic": TAdicRat, "lex2": LexRank2, "hahn": HahnFinite}
    if variant in over_residue:
        residue = residue_field_from_config(_config_value(cfg, "residue", dict, {"q": 2}))
        if variant == "lex2" and not residue.is_finite:
            raise ConfigError("the lex2 variant needs a gf residue field, not "
                              f"{residue.describe()}")
        return over_residue[variant](residue)
    raise ConfigError(f"unknown field variant {variant!r}")


def subfield_from_config(L, cfg):
    """The subfield of the residue field L that ``cfg`` names: None for the
    whole of L (kind ``full``, the default), GF(p^d) in GF(p^k) (kind
    ``subgf``, by ``order`` or ``d``), the constants or a Frobenius subfield
    (kinds ``constants`` and ``frobenius``) in GF(q)(u)."""
    kind = _config_value(cfg, "kind", str, "full")
    if kind == "full":
        return None
    if kind == "subgf":
        if "order" not in cfg:
            return PrimePowerSubfield(L, _config_value(cfg, "d", int))
        p, d = _split_prime_power(_config_value(cfg, "order", int))
        if isinstance(L, FiniteField) and p != L.p:
            raise ConfigError("subfield characteristic mismatch")
        return PrimePowerSubfield(L, d)
    if kind == "constants":
        return ConstantSubfield(L)
    if kind == "frobenius":
        return FrobeniusSubfield(L, _config_value(cfg, "e", int, 1))
    raise ConfigError(f"unknown subfield kind {kind!r}")
