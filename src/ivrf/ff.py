"""Finite fields GF(p^k) at table scale, and rational-function fields over them.

GF(p^k) elements are indices into a fixed enumeration; for k > 1 the index
encodes the base-p digits of the coefficient vector of the residue class
modulo a lex-least monic irreducible.  Addition, negation, multiplication and
inversion run off tables built once per field (q <= 64, so a two-operand
table has at most 4096 entries); the digits are taken apart only while the
tables are built and when an element is printed.  Prime fields of any size
use plain modular arithmetic.  GF(q)(u) is built from the generic polynomial
core with variable ``u``.
"""

from __future__ import annotations

import itertools

from .errors import StructuralError, ResourceError
from .ratfun import Polynomial, RationalFunction

_TABLE_CAP = 64  # largest q for table-backed extension fields


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class FiniteField:
    """GF(p^k); elements are FFElement handles into shared tables."""

    _cache = {}

    def __new__(cls, p, k=1, gen_name="u"):
        key = (p, k, gen_name)
        if key in cls._cache:
            return cls._cache[key]
        self = super().__new__(cls)
        cls._cache[key] = self
        self._init(p, k, gen_name)
        return self

    def _init(self, p, k, gen_name):
        if not _is_prime(p):
            raise StructuralError(f"{p} is not prime")
        if k < 1:
            raise StructuralError("extension degree must be positive")
        q = p ** k
        if k > 1 and q > _TABLE_CAP:
            raise ResourceError(f"GF({q}) exceeds the table cap {_TABLE_CAP}")
        self.p = p
        self.k = k
        self.q = q
        self.gen_name = gen_name
        self._els = [FFElement(self, i) for i in range(q)]
        if k > 1:
            self.modulus = self._find_irreducible()
            self._build_tables()

    # -- construction helpers ------------------------------------------

    def _find_irreducible(self):
        """Lex-least monic irreducible of degree k over GF(p)."""
        p, k = self.p, self.k
        for tail in itertools.product(range(p), repeat=k):
            coeffs = list(reversed(tail)) + [1]  # low..high, monic
            if self._poly_irreducible(coeffs):
                return tuple(coeffs)
        raise StructuralError("no irreducible polynomial found")  # unreachable

    def _poly_irreducible(self, coeffs):
        # Trial division by all monic polynomials of degree 1..k//2.
        p, k = self.p, self.k
        if coeffs[0] == 0:
            return False
        for d in range(1, k // 2 + 1):
            for tail in itertools.product(range(p), repeat=d):
                div = list(tail) + [1]
                if not any(self._poly_mod(coeffs, div)):
                    return False
        return True

    def _poly_mod(self, a, b):
        p = self.p
        a = list(a)
        db = len(b) - 1
        while len(a) - 1 >= db and any(a):
            while a and a[-1] == 0:
                a.pop()
            if len(a) - 1 < db:
                break
            c = a[-1]
            shift = len(a) - 1 - db
            for i, bc in enumerate(b):
                a[shift + i] = (a[shift + i] - c * bc) % p
        while a and a[-1] == 0:
            a.pop()
        return a

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
        mul = [[0] * q for _ in range(q)]
        for i in range(q):
            di = digits[i]
            for j in range(i, q):
                dj = digits[j]
                prod = [0] * (2 * self.k - 1)
                for a, ca in enumerate(di):
                    if ca == 0:
                        continue
                    for b, cb in enumerate(dj):
                        prod[a + b] = (prod[a + b] + ca * cb) % self.p
                rem = self._poly_mod(prod, list(self.modulus))
                rem += [0] * (self.k - len(rem))
                v = self._index(rem[: self.k])
                mul[i][j] = v
                mul[j][i] = v
        self._mul = mul
        inv = [0] * q
        for i in range(1, q):
            row = mul[i]
            for j in range(1, q):
                if row[j] == 1:
                    inv[i] = j
                    break
        self._inv = inv

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

    @property
    def order(self):
        return self.q

    @property
    def char(self):
        return self.p

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
        if isinstance(other, FFElement):
            return self.field is other.field and self.idx == other.idx
        if isinstance(other, int):
            return self == self.field.from_int(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field.p, self.field.k, self.idx))

    def __bool__(self):
        return self.idx != 0

    def __repr__(self):
        f = self.field
        if f.k == 1:
            return str(self.idx)
        digits = f._digits(self.idx)
        parts = []
        for i in range(f.k - 1, -1, -1):
            d = digits[i]
            if d == 0:
                continue
            if i == 0:
                parts.append(str(d))
            else:
                s = f.gen_name if i == 1 else f"{f.gen_name}^{i}"
                parts.append(s if d == 1 else f"{d}*{s}")
        return " + ".join(parts) if parts else "0"


class RatFuncField:
    """GF(q)(var): univariate rational functions over a finite field."""

    def __init__(self, base, var="u"):
        if base.k > 1 and base.gen_name == var:
            raise StructuralError(
                f"variable {var!r} collides with the field generator; "
                f"construct the base field with a different gen_name")
        self.base = base
        self.var = var
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

    def poly(self, coeffs):
        return RationalFunction(Polynomial(self.base, coeffs, self.var))

    @property
    def char(self):
        return self.base.p

    is_finite = False

    def random(self, rng, degree=2):
        num = Polynomial(self.base,
                         [self.base.random(rng) for _ in range(degree + 1)],
                         self.var)
        den = Polynomial.zero(self.base, self.var)
        while den.is_zero():
            den = Polynomial(self.base,
                             [self.base.random(rng) for _ in range(degree + 1)],
                             self.var)
        return RationalFunction(num, den)

    def polynomials(self, max_degree, monic_only=False, include_zero=True):
        """All polynomials of degree <= max_degree, lowest degree first."""
        base = self.base
        if include_zero and not monic_only:
            yield Polynomial.zero(base, self.var)
        for d in range(max_degree + 1):
            leads = [base.one()] if monic_only else list(base.nonzero_elements())
            for lead in leads:
                for tail in itertools.product(base.elements(), repeat=d):
                    yield Polynomial(base, list(tail) + [lead], self.var)

    def small_elements(self, max_degree=2, include_zero=False):
        """Nonzero elements of slowly growing height, for bounded searches."""
        if include_zero:
            yield self.zero()
        for d in range(max_degree + 1):
            for num in self.polynomials(d, include_zero=False):
                if num.degree != d:
                    continue
                for dd in range(max_degree + 1):
                    for den in self.polynomials(dd, monic_only=True):
                        if den.degree != dd:
                            continue
                        if Polynomial.gcd(num, den).degree > 0:
                            continue
                        yield RationalFunction(num, den, _canonical=True)

    def pth_root(self, x):
        """The y with y^p = x, or None when x is not a p-th power."""
        p = self.base.p
        num = _poly_pth_root(x.num, p)
        den = _poly_pth_root(x.den, p)
        if num is None or den is None:
            return None
        root = RationalFunction(num, den)
        return root if root ** p == x else None

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


def _poly_pth_root(poly, p):
    """Coefficient-wise p-th root of a polynomial supported on p-divisible
    exponents, or None."""
    field = poly.field
    out = {}
    for i in poly.support():
        if i % p:
            return None
        out[i // p] = field.pth_root(poly.coeffs[i])
    return Polynomial.from_dict(field, out, poly.var)
