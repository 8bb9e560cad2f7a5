"""Finite fields GF(p^k) at table scale, and rational-function fields over them.

GF(p^k) elements are indices into a fixed enumeration; for k > 1 the index
encodes the base-p digits of the coefficient vector of the residue class
modulo a lex-least monic irreducible.  Addition, negation, multiplication and
inversion run off tables built once per field (q <= 64, so a two-operand
table has at most 4096 entries); the digits are taken apart only while the
tables are built and when an element is printed.  The tables come from
``Polynomial`` arithmetic over GF(p): trial division finds the modulus, and
each product of two digit vectors is reduced by it with ``%``.  Prime fields
up to p = 2^16 use plain modular arithmetic.  GF(q)(u) is built from the
generic polynomial core with variable ``u``; GF(2) and GF(4) name their
``poly_packing``, so their polynomials are packed into bit planes, and the
polynomial arithmetic under GF(2)(u) and GF(4)(t) runs on ints.
"""

from __future__ import annotations

import itertools
from math import isqrt

from .errors import StructuralError, ResourceError
from .ratfun import Polynomial, RationalFunction, power

_TABLE_CAP = 64  # largest q for table-backed extension fields
_PRIME_CAP = 2 ** 16  # largest p; GF(p) keeps all p elements


def _least_factor(n):
    """The least factor d >= 2 of an integer n >= 2 (n itself when prime)."""
    return next((d for d in range(2, isqrt(n) + 1) if n % d == 0), n)


class FiniteField:
    """GF(p^k); elements are FFElement handles into shared tables."""

    _cache = {}

    def __new__(cls, p, k=1, gen_name="u"):
        key = (p, k, gen_name)
        self = cls._cache.get(key)
        if self is None:
            self = super().__new__(cls)
            self._init(p, k, gen_name)
            cls._cache[key] = self
        return self

    def _init(self, p, k, gen_name):
        if p > _PRIME_CAP:
            raise ResourceError(f"the prime {p} exceeds the cap {_PRIME_CAP}")
        if p < 2 or _least_factor(p) != p:
            raise StructuralError(f"{p} is not prime")
        if k < 1:
            raise StructuralError("extension degree must be positive")
        # p^k > 64 exactly when p^min(k, 7) > 64, so a huge k builds no p^k
        if k > 1 and p ** min(k, _TABLE_CAP.bit_length()) > _TABLE_CAP:
            raise ResourceError(f"GF({p}^{k}) exceeds the table cap {_TABLE_CAP}")
        q = p ** k
        self.p = self.characteristic = p
        self.k = k
        self.q = q
        self.gen_name = gen_name
        # polynomials over GF(2) and GF(4) are packed into bit planes (ratfun)
        self.poly_packing = q if q in (2, 4) else None
        self._els = [FFElement(self, i) for i in range(q)]
        if k > 1:
            self.modulus = self._find_irreducible()
            self._build_tables()

    # -- construction helpers ------------------------------------------

    def _find_irreducible(self):
        """Lex-least monic irreducible of degree k over GF(p), found by trial
        division by the monic polynomials of degree 1..k//2."""
        Fp = FiniteField(self.p)
        divisors = [d for d in polynomials(Fp, self.k // 2, monic=True)
                    if d.degree > 0]
        for tail in itertools.product(Fp.elements(), repeat=self.k):
            f = Polynomial(Fp, (*reversed(tail), Fp.one()))
            if all(not (f % d).is_zero() for d in divisors):
                return f
        raise StructuralError("no irreducible polynomial found")  # unreachable

    def _digits(self, idx):
        p = self.p
        out = []
        for _ in range(self.k):
            out.append(idx % p)
            idx //= p
        return out

    def _index(self, digits):
        idx = 0
        for d in reversed(digits):
            idx = idx * self.p + d
        return idx

    def _build_tables(self):
        p, q = self.p, self.q
        digits = [self._digits(i) for i in range(q)]
        self._add_tab = [[self._index([(a + b) % p for a, b in zip(di, dj)])
                          for dj in digits] for di in digits]
        self._neg_tab = [self._index([(-a) % p for a in di]) for di in digits]
        # mul and inv are read off the powers of a primitive element g
        Fp = self.modulus.field
        for di in digits[p:]:
            g = x = Polynomial(Fp, [Fp.element(d) for d in di])
            powers = [1]  # g^0, g^1, ... until the cycle returns to 1
            while (i := self._index([c.idx for c in x.coeffs])) != 1:
                powers.append(i)
                x = (x * g) % self.modulus
            if len(powers) == q - 1:
                break
        n = q - 1
        log = {i: e for e, i in enumerate(powers)}
        self._mul = [[0] * q] + [
            [0] + [powers[(log[a] + log[b]) % n] for b in range(1, q)]
            for a in range(1, q)]
        self._inv = [0] + [powers[-log[a] % n] for a in range(1, q)]

    # -- field protocol --------------------------------------------------

    def zero(self):
        return self._els[0]

    def one(self):
        return self._els[1 % self.q]

    def from_int(self, n):
        return self._els[n % self.p]

    def gen(self):
        """The residue class of the variable (k > 1), else 1."""
        if self.k == 1:
            return self.one()
        return self._els[self.p]

    def element(self, idx):
        return self._els[idx % self.q]

    is_finite = True

    def elements(self):
        return iter(self._els)

    def nonzero_elements(self):
        return iter(self._els[1:])

    def random(self, rng):
        return self._els[rng.randrange(self.q)]

    def pth_root(self, x):
        """Frobenius is a bijection: the unique y with y^p = x."""
        return x ** (self.q // self.p)

    def symbol_env(self):
        return {} if self.k == 1 else {self.gen_name: self.gen()}

    def describe(self):
        return f"GF({self.q})"

    def __repr__(self):
        return self.describe()

    # -- arithmetic on indices -------------------------------------------

    def _add(self, i, j):
        if self.k == 1:
            return (i + j) % self.p
        return self._add_tab[i][j]

    def _neg(self, i):
        if self.k == 1:
            return (-i) % self.p
        return self._neg_tab[i]

    def _mul_idx(self, i, j):
        if self.k == 1:
            return (i * j) % self.p
        return self._mul[i][j]

    def _inv_idx(self, i):
        if i == 0:
            raise StructuralError("division by zero in finite field")
        if self.k == 1:
            return pow(i, self.p - 2, self.p)
        return self._inv[i]


class FFElement:
    """An element of a FiniteField; hashable and immutable."""

    __slots__ = ("field", "idx")

    def __init__(self, field, idx):
        self.field = field
        self.idx = idx

    def _coerce(self, other):
        if isinstance(other, FFElement):
            if other.field is not self.field:
                raise StructuralError("elements of different finite fields")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        return None

    def __add__(self, other):
        f = self.field
        if type(other) is not FFElement or other.field is not f:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return f._els[f._add(self.idx, other.idx)]

    __radd__ = __add__

    def __neg__(self):
        return self.field._els[self.field._neg(self.idx)]

    def __sub__(self, other):
        f = self.field
        if type(other) is not FFElement or other.field is not f:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return f._els[f._add(self.idx, f._neg(other.idx))]

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        f = self.field
        if type(other) is not FFElement or other.field is not f:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return f._els[f._mul_idx(self.idx, other.idx)]

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * self.field._els[self.field._inv_idx(o.idx)]

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n):
        if n < 0:
            return (self.field._els[self.field._inv_idx(self.idx)]) ** (-n)
        return power(self, n) if n else self.field.one()

    def __eq__(self, other):
        if isinstance(other, FFElement):
            return self.field is other.field and self.idx == other.idx
        if isinstance(other, int):
            return self == self.field.from_int(other)
        return NotImplemented

    def __hash__(self):
        # equal to hash(n) for the element n of the prime field, 0 <= n < p
        return hash(self.idx)

    def __bool__(self):
        return self.idx != 0

    def __repr__(self):
        f = self.field
        if f.k == 1:
            return str(self.idx)
        Fp = f.modulus.field
        return Polynomial(Fp, [Fp.element(d) for d in f._digits(self.idx)],
                          f.gen_name).to_str()


class RatFuncField:
    """GF(q)(var): univariate rational functions over a finite field."""

    def __init__(self, base, var="u"):
        if base.k > 1 and base.gen_name == var:
            raise StructuralError(
                f"variable {var!r} collides with the field generator; "
                f"construct the base field with a different gen_name")
        self.base = base
        self.var = var
        self.characteristic = base.characteristic
        # shared immutable constants: every Polynomial trim and every
        # normalization over this field asks for them
        self._zero = RationalFunction.zero(base, var)
        self._one = RationalFunction.one(base, var)

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_int(self, n):
        return RationalFunction.constant(self.base, self.base.from_int(n), self.var)

    def gen(self):
        return RationalFunction.gen(self.base, self.var)

    def constant(self, c):
        return RationalFunction.constant(self.base, c, self.var)

    is_finite = False

    def random(self, rng, degree=1):
        def draw():
            return Polynomial(self.base, [self.base.random(rng) for _ in range(degree + 1)],
                              self.var)
        num, den = draw(), draw()
        while den.is_zero():
            den = draw()
        return RationalFunction(num, den)

    def small_elements(self):
        """Nonzero elements of numerator and denominator degree at most 2,
        by numerator, then denominator, in ``polynomials`` order, for bounded
        searches."""
        return (RationalFunction(num, den, _canonical=True)
                for num in polynomials(self.base, 2, var=self.var) if num
                for den in polynomials(self.base, 2, monic=True, var=self.var)
                if Polynomial.gcd(num, den).degree == 0)

    def pth_root(self, x):
        """The y with y^p = x, or None when x is not a p-th power."""
        return rf_pth_root(x, self.base.p)

    def symbol_env(self):
        env = {self.var: self.gen()}
        for name, val in self.base.symbol_env().items():
            env[name] = self.constant(val)
        return env

    def describe(self):
        return f"GF({self.base.q})({self.var})"

    def __repr__(self):
        return self.describe()

    def __eq__(self, other):
        return (isinstance(other, RatFuncField)
                and other.base is self.base and other.var == self.var)

    def __hash__(self):
        return hash(("ratfuncfield", self.base.p, self.base.k, self.var))


def polynomials(field, max_degree, monic=False, var="x"):
    """Every polynomial of degree <= max_degree over a finite field (monic
    ones only when ``monic``): zero first unless ``monic``, then by degree,
    leading coefficient and tail, each in the field's element order."""
    if not monic:
        yield Polynomial.zero(field, var)
    leads = [field.one()] if monic else list(field.nonzero_elements())
    elements = list(field.elements())
    for d in range(max_degree + 1):
        for lead in leads:
            for tail in itertools.product(elements, repeat=d):
                yield Polynomial(field, (*tail, lead), var)


def rf_pth_root(h, p):
    """The rational function H with H^p = h, or None when there is none.

    The coefficient field's ``pth_root`` returns a root or None (GF(q) is
    perfect; GF(q)(u) is not).  Frobenius is an injective ring map, so the
    coefficient-wise roots N, D of the canonical h = num/den have N^p = num,
    D^p = den and h = (N/D)^p; a common factor G of N and D would make G^p a
    common factor of num and den, and D is monic as den is, so N/D is canonical."""
    num = _poly_pth_root(h.num, p)
    den = _poly_pth_root(h.den, p)
    if num is None or den is None:
        return None
    return RationalFunction(num, den, _canonical=True)


def _poly_pth_root(poly, p):
    """Coefficient-wise p-th root of a polynomial, or None when an exponent
    is not divisible by p or a coefficient has no p-th root."""
    field = poly.field
    out = {}
    for i in poly.support():
        r = None if i % p else field.pth_root(poly.coeff(i))
        if r is None:
            return None
        out[i // p] = r
    return Polynomial.from_dict(field, out, poly.var)
