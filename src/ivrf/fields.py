"""Desk-scale valued fields with exact valuation and residue maps.

Four field variants are supported, each with a decidable, exactly computable
valuation onto an ordered group from :mod:`ivrf.ordgroup`:

* ``PAdicQ(p)``          rationals with the p-adic valuation (Z, residue GF(p))
* ``TAdicRat(kappa)``    kappa(t) with the t-adic valuation (Z, residue kappa)
* ``LexRank2(kappa)``    kappa(t1)(t2) with the rank-2 lex valuation (Z x Z)
* ``HahnFinite(kappa)``  fractions of finitely supported sums sum c_i t^(q_i),
                         q_i in Q (divisible group Q, residue kappa; the
                         maximal ideal is not principal)

Residue fields are GF(q) or GF(q)(u).  A pseudovaluation pullback is a field
plus a subfield predicate on its residue field: x belongs to the pullback iff
v(x) > 0, or v(x) = 0 and the residue lies in the subfield.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import (ConfigError, PreconditionError, StructuralError,
                     UnsupportedCaseError)
from .ff import FiniteField, RatFuncField, _is_prime
from .ordgroup import INFINITY, GroupElement, GroupSpec
from .parsing import parse_expression
from .ratfun import Polynomial, RationalFunction, fraction_free_gcd


class RationalsContext:
    """The plain rationals as a coefficient-field context."""

    @staticmethod
    def zero():
        return Fraction(0)

    @staticmethod
    def one():
        return Fraction(1)

    @staticmethod
    def from_int(n):
        return Fraction(n)

    is_finite = False
    char = 0

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
    """Common surface of the four field variants."""

    group = None          # GroupSpec
    residue_field = None  # FiniteField | RatFuncField
    is_discrete = False   # True when the value group is Z^k (lex)

    # coefficient-field protocol ------------------------------------

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def from_int(self, n):
        raise NotImplementedError

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

    def symbol_env(self):
        return {}

    def parse(self, text):
        return parse_expression(text, self.symbol_env(), self.from_int)

    def to_str(self, x):
        return str(x)

    def describe(self):
        raise NotImplementedError

    def __repr__(self):
        return self.describe()

    def random_nonzero(self, rng):
        while True:
            x = self.random_element(rng)
            if x != self.zero():
                return x

    def _check_nonneg(self, v):
        if v is not INFINITY and v < self.group.zero():
            raise PreconditionError("residue needs valuation >= 0")


class PAdicQ(ValuedField):
    """Q with the p-adic valuation; elements are Fractions."""

    is_discrete = True

    def __init__(self, p):
        self.p = p
        self.group = GroupSpec.integers(1)
        self.residue_field = FiniteField(p)

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def _vp(self, n):
        n = abs(n)
        v = 0
        while n % self.p == 0:
            n //= self.p
            v += 1
        return v

    def valuation(self, x):
        n = x.numerator
        if not n:
            return INFINITY
        return GroupElement(self.group, (self._vp(n) - self._vp(x.denominator),))

    def residue(self, x):
        v = self.valuation(x)
        self._check_nonneg(v)
        if v is INFINITY or v > self.group.zero():
            return self.residue_field.zero()
        n = x.numerator % self.p
        d = x.denominator % self.p
        return self.residue_field.from_int(n) / self.residue_field.from_int(d)

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
        return Fraction(num, den) * Fraction(self.p) ** rng.randint(-2, 2)

    def describe(self):
        return f"Q(v_{self.p})"


class TAdicRat(ValuedField):
    """kappa(t) with the t-adic valuation; elements are reduced fractions of
    polynomials in t over the residue field kappa."""

    is_discrete = True

    def __init__(self, kappa, var="t"):
        self.kappa = kappa
        self.var = var
        self.group = GroupSpec.integers(1)
        self.residue_field = kappa
        self._zero = RationalFunction.zero(kappa, var)
        self._one = RationalFunction.one(kappa, var)

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_int(self, n):
        return RationalFunction.constant(self.kappa, self.kappa.from_int(n), self.var)

    def gen(self):
        return RationalFunction.gen(self.kappa, self.var)

    @staticmethod
    def _ord(poly):
        return min(poly.support())

    def valuation(self, x):
        if x.is_zero():
            return INFINITY
        return GroupElement(self.group, (self._ord(x.num) - self._ord(x.den),))

    def residue(self, x):
        v = self.valuation(x)
        self._check_nonneg(v)
        if v is INFINITY or v > self.group.zero():
            return self.kappa.zero()
        m = self._ord(x.num)
        return x.num.coeffs[m] / x.den.coeffs[m]

    def lift(self, r):
        return RationalFunction.constant(self.kappa, r, self.var)

    def element_of_value(self, gamma):
        if not gamma.in_lattice():
            raise PreconditionError(f"{gamma} is not an attained value")
        return self.gen() ** int(gamma.coords[0])

    def uniformizer(self):
        return self.gen()

    def random_element(self, rng):
        deg = rng.randint(0, 2)
        num = Polynomial(self.kappa,
                         [self._rand_res(rng) for _ in range(deg + 1)], self.var)
        den = Polynomial.zero(self.kappa, self.var)
        while den.is_zero():
            den = Polynomial(self.kappa,
                             [self._rand_res(rng) for _ in range(rng.randint(0, 1) + 1)],
                             self.var)
        return RationalFunction(num, den) * self.gen() ** rng.randint(-2, 2)

    def _rand_res(self, rng):
        if getattr(self.kappa, "is_finite", False):
            return self.kappa.random(rng)
        return self.kappa.random(rng, degree=1)

    def symbol_env(self):
        env = {self.var: self.gen()}
        for name, val in self.kappa.symbol_env().items():
            env[name] = RationalFunction.constant(self.kappa, val, self.var)
        return env

    def describe(self):
        return f"{self.kappa.describe()}({self.var}) t-adic"


class LexRank2(ValuedField):
    """kappa(t1, t2) with the rank-2 lexicographic valuation, v(t1) = (1,0)
    and v(t2) = (0,1).  Elements are fractions in t2 over kappa(t1)."""

    is_discrete = True

    def __init__(self, kappa, vars=("t1", "t2")):
        self.kappa = kappa
        self.inner = RatFuncField(kappa, vars[0])
        self.var1, self.var2 = vars
        self.group = GroupSpec.integers(2)
        self.residue_field = kappa
        self._zero = RationalFunction.zero(self.inner, self.var2)
        self._one = RationalFunction.one(self.inner, self.var2)

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_int(self, n):
        return RationalFunction.constant(self.inner, self.inner.from_int(n), self.var2)

    def gen1(self):
        return RationalFunction.constant(self.inner, self.inner.gen(), self.var2)

    def gen2(self):
        return RationalFunction.gen(self.inner, self.var2)

    @staticmethod
    def _ord1(c):
        # t1-adic valuation of an element of kappa(t1)
        return min(c.num.support()) - min(c.den.support())

    def _poly_val(self, poly):
        best = None
        for j in poly.support():
            cand = (self._ord1(poly.coeffs[j]), j)
            if best is None or cand < best:
                best = cand
        return best

    def valuation(self, x):
        if x.is_zero():
            return INFINITY
        a1, j1 = self._poly_val(x.num)
        a2, j2 = self._poly_val(x.den)
        return GroupElement(self.group, (a1 - a2, j1 - j2))

    def residue(self, x):
        v = self.valuation(x)
        self._check_nonneg(v)
        if v is INFINITY or v > self.group.zero():
            return self.kappa.zero()
        a, j = self._poly_val(x.num)
        cf = x.num.coeffs[j]
        cg = x.den.coeffs[j]
        ratio = cf / cg  # t1-adic unit in kappa(t1)
        m = min(ratio.num.support())
        return ratio.num.coeffs[m] / ratio.den.coeffs[m]

    def lift(self, r):
        return RationalFunction.constant(self.inner, self.inner.constant(r), self.var2)

    def element_of_value(self, gamma):
        if not gamma.in_lattice():
            raise PreconditionError(f"{gamma} is not an attained value")
        a, b = (int(c) for c in gamma.coords)
        return self.gen1() ** a * self.gen2() ** b

    def uniformizer(self):
        return self.gen2()  # (0,1) is the least positive value

    def random_element(self, rng):
        coeff = self.inner.random(rng, degree=1)
        x = RationalFunction.constant(self.inner, coeff, self.var2)
        return (x * self.gen1() ** rng.randint(-1, 1)
                * self.gen2() ** rng.randint(-1, 1)
                + self.from_int(rng.randint(0, 2)))

    def symbol_env(self):
        env = {self.var1: self.gen1(), self.var2: self.gen2()}
        for name, val in self.kappa.symbol_env().items():
            env[name] = self.lift(val)
        return env

    def describe(self):
        return f"{self.kappa.describe()}({self.var1},{self.var2}) lex rank 2"


# ---------------------------------------------------------------------------
# Hahn-style field with divisible value group
# ---------------------------------------------------------------------------

def _lcm(a, b):
    return a * b // gcd(a, b)


class HahnSum:
    """Finitely supported sum of c * t^q with q rational; terms sorted by q."""

    __slots__ = ("kappa", "terms")

    def __init__(self, kappa, terms):
        merged = {}
        zero = kappa.zero()
        for e, c in terms:
            e = Fraction(e)
            acc = merged.get(e)
            c = c if acc is None else acc + c
            merged[e] = c
        self.kappa = kappa
        self.terms = tuple(sorted((e, c) for e, c in merged.items() if c != zero))

    def is_zero(self):
        return not self.terms

    def min_exp(self):
        return self.terms[0][0]

    def coeff(self, e):
        for te, tc in self.terms:
            if te == e:
                return tc
        return self.kappa.zero()

    def __add__(self, other):
        return HahnSum(self.kappa, self.terms + other.terms)

    def __neg__(self):
        return HahnSum(self.kappa, tuple((e, -c) for e, c in self.terms))

    def __mul__(self, other):
        out = []
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                out.append((e1 + e2, c1 * c2))
        return HahnSum(self.kappa, out)

    def __eq__(self, other):
        return isinstance(other, HahnSum) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)


def _exp_str(e):
    return str(e) if e.denominator == 1 else f"{{{e}}}"


class HahnElement:
    """Reduced fraction of Hahn sums.  Canonical form: the denominator has
    least exponent 0 with coefficient 1, and numerator/denominator are coprime
    after the exponent lattice is cleared to t^(1/m)."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den, _canonical=False):
        if den.is_zero():
            raise StructuralError("zero denominator")
        if not _canonical:
            num, den = _hahn_canon(field, num, den)
        self.field = field
        self.num = num
        self.den = den

    def is_zero(self):
        return self.num.is_zero()

    def _coerce(self, other):
        if isinstance(other, HahnElement):
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return HahnElement(self.field, self.num * o.den + o.num * self.den,
                           self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return HahnElement(self.field, -self.num, self.den, _canonical=True)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return HahnElement(self.field, self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise StructuralError("division by zero")
        return HahnElement(self.field, self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n):
        if isinstance(n, Fraction) and n.denominator != 1:
            # Fractional powers only for bare monomials t^q with coefficient 1.
            if (len(self.num.terms) == 1 and self.num.terms[0][1] == self.field.kappa.one()
                    and self.den.terms == ((Fraction(0), self.field.kappa.one()),)):
                return self.field.monomial(self.num.terms[0][0] * n)
            raise StructuralError("fractional power of a non-monomial")
        n = int(n)
        if n < 0:
            if self.is_zero():
                raise StructuralError("zero has no inverse")
            return HahnElement(self.field, self.den, self.num) ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        if not isinstance(other, HahnElement):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        def side(s):
            parts = []
            one = self.field.kappa.one()
            for e, c in s.terms:
                if e == 0:
                    parts.append(str(c))
                else:
                    ts = "t" if e == 1 else f"t^{_exp_str(e)}"
                    cs = str(c)
                    if c == one:
                        parts.append(ts)
                    elif "+" in cs or "-" in cs[1:] or "/" in cs or " " in cs:
                        parts.append(f"({cs})*{ts}")
                    else:
                        parts.append(f"{cs}*{ts}")
            return " + ".join(parts) if parts else "0"

        if self.den.terms == ((Fraction(0), self.field.kappa.one()),):
            return side(self.num)
        return f"({side(self.num)})/({side(self.den)})"


def _hahn_canon(field, num, den):
    kappa = field.kappa
    one = kappa.one()
    if num.is_zero():
        return (HahnSum(kappa, ()), field._one_sum)
    # Monomial denominator: divide through exactly, no gcd needed.
    if len(den.terms) == 1:
        e0, c0 = den.terms[0]
        if e0 == 0 and c0 == one:
            return num, den
        inv = one / c0
        new_num = HahnSum(kappa, tuple((e - e0, c * inv) for e, c in num.terms))
        return new_num, field._one_sum
    m = _exp_lcm((num, den))
    a, npoly = _sum_to_poly(num, m)
    b, dpoly = _sum_to_poly(den, m)
    if npoly.degree > 0 and dpoly.degree > 0:
        g = Polynomial.gcd(npoly, dpoly)
        if g.degree > 0:
            npoly = npoly // g
            dpoly = dpoly // g
    c0 = dpoly.coeffs[0]
    if c0 != one:
        inv = one / c0
        npoly = npoly.scale(inv)
        dpoly = dpoly.scale(inv)
    return _poly_to_sum(kappa, npoly, m, a - b), _poly_to_sum(kappa, dpoly, m)


# Hahn sums with exponents in (1/m)Z are Laurent polynomials in s = t^(1/m);
# canonical forms and gcds are computed there.

def _exp_lcm(sums):
    """The lcm m of the exponent denominators of the given Hahn sums."""
    m = 1
    for hs in sums:
        for e, _ in hs.terms:
            m = _lcm(m, e.denominator)
    return m


def _sum_to_poly(hs, m):
    """(a, P) with hs = t^a * P(t^(1/m)), P in kappa[s] and P(0) != 0."""
    a = hs.min_exp()
    return a, Polynomial.from_dict(
        hs.kappa, {int((e - a) * m): c for e, c in hs.terms}, "s")


def _poly_to_sum(kappa, poly, m, shift=Fraction(0)):
    """t^shift * poly(t^(1/m)) as a Hahn sum."""
    return HahnSum(kappa, tuple((shift + Fraction(i, m), poly.coeffs[i])
                                for i in poly.support()))


class HahnFinite(ValuedField):
    """Fraction field of finitely supported sums sum c_i t^(q_i), q_i in Q.

    The valuation ring has divisible value group Q and a maximal ideal that
    is not principal; the residue field is kappa.
    """

    is_discrete = False

    def __init__(self, kappa):
        self.kappa = kappa
        self.group = GroupSpec.rationals()
        self.residue_field = kappa
        # shared immutable constants
        self._one_sum = HahnSum(kappa, ((Fraction(0), kappa.one()),))
        self._zero = HahnElement(self, self._sum(()), self._one_sum, _canonical=True)
        self._one = HahnElement(self, self._one_sum, self._one_sum, _canonical=True)

    def _sum(self, terms):
        return HahnSum(self.kappa, terms)

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_int(self, n):
        c = self.kappa.from_int(n)
        if c == self.kappa.zero():
            return self.zero()
        return HahnElement(self, self._sum(((Fraction(0), c),)), self._one_sum,
                           _canonical=True)

    def monomial(self, q, c=None):
        c = self.kappa.one() if c is None else c
        if c == self.kappa.zero():
            return self.zero()
        return HahnElement(self, self._sum(((Fraction(q), c),)), self._one_sum,
                           _canonical=True)

    def gen(self):
        return self.monomial(1)

    def poly_gcd(self, a, b):
        """Monic gcd of two polynomials of positive degree over this field.

        It is taken in kappa(s)[x], s = t^(1/m) with m the lcm of the
        exponent denominators of all coefficients: the monic gcd does not
        change under this field extension, and over kappa(s) the
        fraction-free gcd of ratfun applies.
        """
        m = _exp_lcm(hs for p in (a, b) for c in p.coeffs for hs in (c.num, c.den))
        g = fraction_free_gcd([self._s_fraction(c, m) for c in a.coeffs],
                              [self._s_fraction(c, m) for c in b.coeffs])
        lead = _poly_to_sum(self.kappa, g[-1], m)
        return Polynomial(self, [HahnElement(self, _poly_to_sum(self.kappa, c, m), lead)
                                 for c in g[:-1]] + [self.one()], a.var)

    def _s_fraction(self, x, m):
        """x as a (numerator, denominator) pair in kappa[s], s = t^(1/m)."""
        b, den = _sum_to_poly(x.den, m)
        if x.is_zero():
            return Polynomial.zero(self.kappa, "s"), den
        a, num = _sum_to_poly(x.num, m)
        k = int((a - b) * m)
        pad = [self.kappa.zero()] * abs(k)
        if k > 0:
            num = Polynomial(self.kappa, pad + list(num.coeffs), "s")
        elif k < 0:
            den = Polynomial(self.kappa, pad + list(den.coeffs), "s")
        return num, den

    def valuation(self, x):
        if x.is_zero():
            return INFINITY
        return self.group.element(x.num.min_exp())

    def residue(self, x):
        v = self.valuation(x)
        self._check_nonneg(v)
        if v is INFINITY or v > self.group.zero():
            return self.kappa.zero()
        return x.num.coeff(Fraction(0))

    def lift(self, r):
        if r == self.kappa.zero():
            return self.zero()
        return HahnElement(self, self._sum(((Fraction(0), r),)), self._one_sum,
                           _canonical=True)

    def element_of_value(self, gamma):
        return self.monomial(gamma.coords[0])

    def random_element(self, rng):
        pool = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2),
                Fraction(2), Fraction(-1, 2), Fraction(1, 3)]
        terms = []
        for _ in range(rng.randint(1, 3)):
            c = (self.kappa.random(rng) if getattr(self.kappa, "is_finite", False)
                 else self.kappa.random(rng, degree=1))
            terms.append((rng.choice(pool), c))
        num = self._sum(tuple(terms))
        if num.is_zero():
            return self.zero()
        return HahnElement(self, num, self._one_sum)

    def symbol_env(self):
        env = {"t": self.gen()}
        for name, val in self.kappa.symbol_env().items():
            env[name] = self.lift(val)
        return env

    def describe(self):
        return f"Hahn({self.kappa.describe()}, Q)"


# ---------------------------------------------------------------------------
# residue subfields and pseudovaluation pullbacks
# ---------------------------------------------------------------------------

class SubfieldSpec:
    """A subfield F of a residue field L, given by a decision procedure."""

    def __init__(self, residue_field):
        self.L = residue_field

    is_whole = False

    def contains(self, r):
        raise NotImplementedError

    def is_finite(self):
        raise NotImplementedError

    def elements(self):
        raise UnsupportedCaseError("subfield is not enumerable")

    def power_subset(self, s):
        """Whether {c^s : c in L, c != 0} is contained in F; None if unknown."""
        raise NotImplementedError

    def purely_inseparable_exponent(self):
        """e such that c^(p^e) in F for all c in L, or None."""
        return None

    def describe(self):
        raise NotImplementedError

    def __repr__(self):
        return self.describe()


class FullResidueField(SubfieldSpec):
    is_whole = True

    def contains(self, r):
        return True

    def is_finite(self):
        return getattr(self.L, "is_finite", False)

    def elements(self):
        return self.L.elements()

    def power_subset(self, s):
        return True

    def purely_inseparable_exponent(self):
        return 0

    def describe(self):
        return f"{self.L.describe()} (whole)"


class PrimePowerSubfield(SubfieldSpec):
    """GF(p^d) inside GF(p^k), d | k; membership is the Frobenius fixed-point
    test x^(p^d) = x."""

    def __init__(self, L, d):
        super().__init__(L)
        if not isinstance(L, FiniteField):
            raise ConfigError("subfield-by-order needs a finite residue field")
        if L.k % d != 0:
            raise ConfigError(f"GF({L.p}^{d}) is not a subfield of GF({L.q})")
        self.d = d
        self.sub_order = L.p ** d

    def contains(self, r):
        return r ** self.sub_order == r

    def is_finite(self):
        return True

    def elements(self):
        return (x for x in self.L.elements() if self.contains(x))

    def power_subset(self, s):
        return all(self.contains(x ** s) for x in self.L.nonzero_elements())

    def purely_inseparable_exponent(self):
        return None  # finite fields are perfect; the finite-L case applies

    def describe(self):
        return f"GF({self.sub_order}) in GF({self.L.q})"


class ConstantSubfield(SubfieldSpec):
    """GF(q) inside GF(q)(u): the constants."""

    def __init__(self, L):
        super().__init__(L)
        if not isinstance(L, RatFuncField):
            raise ConfigError("constant subfield needs a rational function field")

    def contains(self, r):
        return r.is_constant()

    def is_finite(self):
        return True

    def elements(self):
        return (self.L.constant(c) for c in self.L.base.elements())

    def power_subset(self, s):
        return s == 0

    def describe(self):
        return f"GF({self.L.base.q}) in {self.L.describe()}"


class FrobeniusSubfield(SubfieldSpec):
    """GF(q)(u^(p^e)) inside GF(q)(u).  In characteristic p a reduced fraction
    lies in the subfield iff every exponent of u is divisible by p^e, and the
    extension is purely inseparable of exponent e."""

    def __init__(self, L, e=1):
        super().__init__(L)
        if not isinstance(L, RatFuncField):
            raise ConfigError("Frobenius subfield needs a rational function field")
        if e < 1:
            raise ConfigError("exponent must be at least 1")
        self.e = e
        self.step = L.base.p ** e

    def contains(self, r):
        return (all(i % self.step == 0 for i in r.num.support())
                and all(i % self.step == 0 for i in r.den.support()))

    def is_finite(self):
        return False

    def power_subset(self, s):
        return s % self.step == 0

    def purely_inseparable_exponent(self):
        return self.e

    def generator_outside(self):
        """The configured element of L outside F (the variable u itself)."""
        return self.L.gen()

    def describe(self):
        return f"GF({self.L.base.q})({self.L.var}^{self.step}) in {self.L.describe()}"


class PVDSpec:
    """A valued field together with a residue subfield pullback."""

    def __init__(self, field, subfield):
        self.field = field
        self.subfield = subfield

    def member(self, x):
        v = self.field.valuation(x)
        if v is INFINITY:
            return True
        zero = self.field.group.zero()
        if v > zero:
            return True
        if v < zero:
            return False
        return self.subfield.contains(self.field.residue(x))

    def maximal_ideal_member(self, x):
        v = self.field.valuation(x)
        return v is INFINITY or v > self.field.group.zero()

    def is_trivial(self):
        return self.subfield.is_whole

    def describe(self):
        return f"pullback of {self.subfield.describe()} under {self.field.describe()}"

    def __repr__(self):
        return self.describe()


def pvd_member(x, D):
    return D.member(x)


def ideal_member(x, which, field_or_pvd):
    """Membership of a field element in m or a power of m.

    ``which`` is "m" (shared by the valuation ring and any pullback) or
    ("m_power", k).  For a divisible value group every power of m equals m.
    """
    field = field_or_pvd.field if isinstance(field_or_pvd, PVDSpec) else field_or_pvd
    v = field.valuation(x)
    zero = field.group.zero()
    if which == "m" or which == "m_of_D":
        return v is INFINITY or v > zero
    if isinstance(which, tuple) and which[0] == "m_power":
        k = which[1]
        if v is INFINITY:
            return True
        if not field.is_discrete:
            return v > zero
        step = field.valuation(field.uniformizer())
        return v >= step.scale(k)
    raise ConfigError(f"unknown ideal designator {which!r}")


# ---------------------------------------------------------------------------
# configuration ingestion
# ---------------------------------------------------------------------------

def _require(cfg, key):
    """``cfg[key]``, or a ConfigError naming the missing key."""
    try:
        return cfg[key]
    except KeyError:
        raise ConfigError(f"config {cfg!r} is missing the key {key!r}") from None


def residue_field_from_config(cfg):
    kind = cfg.get("kind", "gf")
    if kind == "gf":
        if "q" in cfg:
            q = cfg["q"]
            p, k = _split_prime_power(q)
        else:
            p, k = _require(cfg, "p"), cfg.get("k", 1)
        return FiniteField(p, k, cfg.get("gen", "u"))
    if kind == "ratfunc":
        base_cfg = dict(cfg.get("base", {}))
        if "q" in cfg and "base" not in cfg:
            base_cfg = {"q": cfg["q"]}
        var = cfg.get("var", "u")
        if "gen" not in base_cfg:
            base_cfg["gen"] = "w"
        base = residue_field_from_config({"kind": "gf", **base_cfg})
        return RatFuncField(base, var)
    raise ConfigError(f"unknown residue field kind {kind!r}")


def _split_prime_power(q):
    for p in range(2, q + 1):
        if _is_prime(p) and q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            if m != 1:
                raise ConfigError(f"{q} is not a prime power")
            return p, k
    raise ConfigError(f"{q} is not a prime power")


def field_from_config(cfg):
    variant = cfg.get("variant")
    if variant == "padic":
        return PAdicQ(_require(cfg, "p"))
    if variant == "tadic":
        return TAdicRat(residue_field_from_config(cfg.get("residue", {"q": 2})))
    if variant == "lex2":
        return LexRank2(residue_field_from_config(cfg.get("residue", {"q": 2})))
    if variant == "hahn":
        return HahnFinite(residue_field_from_config(cfg.get("residue", {"q": 2})))
    raise ConfigError(f"unknown field variant {variant!r}")


def subfield_from_config(field, cfg):
    L = field.residue_field
    kind = cfg.get("kind", "full")
    if kind == "full":
        return FullResidueField(L)
    if kind == "subgf":
        if "order" in cfg:
            p, d = _split_prime_power(cfg["order"])
            if p != L.p:
                raise ConfigError("subfield characteristic mismatch")
        else:
            d = _require(cfg, "d")
        return PrimePowerSubfield(L, d)
    if kind == "constants":
        return ConstantSubfield(L)
    if kind == "frobenius":
        return FrobeniusSubfield(L, cfg.get("e", 1))
    raise ConfigError(f"unknown subfield kind {kind!r}")


def pvd_from_config(cfg):
    field = field_from_config(_require(cfg, "field"))
    sub = subfield_from_config(field, cfg.get("subfield", {"kind": "full"}))
    return PVDSpec(field, sub)
