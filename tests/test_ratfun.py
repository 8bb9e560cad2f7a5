import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from ivrf import ratfun
from ivrf.errors import IvrfError, ParseError, StructuralError
from ivrf.fields import (QQ, ConstantSubfield, HahnElement, HahnFinite, LexRank2,
                         PAdicQ, TAdicRat, _spread)
from ivrf.ff import FFElement, FiniteField, RatFuncField
from ivrf.intr import DomainSpec, domain_from_config, intr_member, residue_roots
from ivrf.newton import local_poly, minval_poly
from ivrf.parsing import parse_expression
from ivrf.ratfun import (POLE, Polynomial, RationalFunction, _GF2Polynomial,
                         parse_ratfun)


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def qpoly(*cs):
    return Polynomial(QQ, [Fraction(c) for c in cs])


x = RationalFunction.gen(QQ)

small_fraction = st.fractions(min_value=-9, max_value=9, max_denominator=6)
coeff_lists = st.lists(small_fraction, min_size=1, max_size=5)
# evaluation points: small, zero, and with large denominators, of either sign
points = st.one_of(small_fraction, st.just(Fraction(0)),
                   st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                                max_denominator=10 ** 15))


def fraction_horner(coeffs, a):
    # the reference: Horner with Fraction arithmetic at every step
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * a + c
    return acc


class TestNormalize:
    def test_common_factor(self):
        r = RationalFunction(qpoly(-1, 0, 1), qpoly(-1, 1))  # (x^2-1)/(x-1)
        assert r == x + 1

    def test_unit_content(self):
        assert RationalFunction(qpoly(0, 2), qpoly(2)) == x

    def test_gf2_example(self):
        F2 = FiniteField(2)
        P = lambda *cs: Polynomial(F2, [F2.from_int(c) for c in cs])
        r = RationalFunction(P(0, 1, 0, 0, 1), P(0, 1, 1))  # (x^4+x)/(x^2+x)
        assert r.num == P(1, 1, 1) and r.den == P(1)

    def test_idempotent(self):
        r = RationalFunction(qpoly(0, 6, 6), qpoly(0, 0, 3))
        again = RationalFunction(r.num, r.den)
        assert r == again

    def test_zero_denominator(self):
        with pytest.raises(StructuralError):
            RationalFunction(qpoly(1), qpoly())

    def test_denominator_monic(self):
        r = RationalFunction(qpoly(1), qpoly(2, 4))
        assert r.den.leading() == Fraction(1)


class TestEvaluate:
    def test_square(self):
        assert (x ** 2).evaluate(Fraction(3)) == 9

    def test_pole(self):
        assert (1 / x).evaluate(Fraction(0)) is POLE

    def test_theta_at_one(self):
        theta = (6 * (1 + x ** 4)) / ((1 + 6 * x ** 2) * (6 + x ** 2))
        assert theta.evaluate(Fraction(1)) == Fraction(12, 49)

    @pytest.mark.parametrize("field", [QQ, PAdicQ(5)], ids=["QQ", "Q5"])
    def test_pole_exactly_at_denominator_roots(self, field):
        X = RationalFunction.gen(field)
        roots = [Fraction(-3, 7), Fraction(10 ** 12, 10 ** 12 + 1), Fraction(0)]
        den = (X - roots[0]) * (X - roots[1]) * (X - roots[2])
        phi = (X - Fraction(5, 3)) / den
        for r in roots:
            assert phi.evaluate(r) is POLE
        assert phi.evaluate(Fraction(5, 3)) == 0
        for a in (Fraction(-3, 8), roots[1] + Fraction(1, 10 ** 15), Fraction(7)):
            expect = (a - Fraction(5, 3)) / ((a - roots[0]) * (a - roots[1]) * a)
            assert phi.evaluate(a) == expect
        # a root shared with the numerator cancels: no pole there
        assert ((X - roots[0]) / den).evaluate(roots[0]) == 1 / (
            (roots[0] - roots[1]) * roots[0])
        assert ((X - roots[0]) / den).evaluate(roots[1]) is POLE

    @pytest.mark.parametrize("field", [QQ, PAdicQ(5)], ids=["QQ", "Q5"])
    def test_zero_numerator(self, field):
        zero = RationalFunction.zero(field)
        for a in (Fraction(0), Fraction(-2, 3), Fraction(1, 10 ** 15)):
            value = zero.evaluate(a)
            assert value == 0 and type(value) is Fraction
            assert Polynomial.zero(field).evaluate(a) == 0


class TestArith:
    def test_add(self):
        assert x + 1 / x == (x ** 2 + 1) / x

    def test_compose_poly(self):
        assert (x ** 2).compose(x + 1) == x ** 2 + 2 * x + 1

    def test_compose_theta_constant(self):
        theta = (6 * (1 + x ** 4)) / ((1 + 6 * x ** 2) * (6 + x ** 2))
        c = theta.compose(RationalFunction.constant(QQ, Fraction(2, 3)))
        assert c.is_constant()
        assert c.as_constant() == Fraction(97, 319)
        assert c.as_constant() == theta.evaluate(Fraction(2, 3))

    def test_compose_constant_pole(self):
        phi = 1 / (x - 1)
        with pytest.raises(StructuralError):
            phi.compose(RationalFunction.constant(QQ, Fraction(1)))

    def test_power_negative(self):
        assert (x ** -2) * x ** 2 == RationalFunction.one(QQ)


class TestIdentity:
    def test_psi_identity(self):
        psi = x ** 2 / (x ** 4 + 6)
        assert x ** 2 * (1 - x ** 2 * psi) == 6 * psi

    def test_theta_symmetry(self):
        theta = (6 * (1 + x ** 4)) / ((1 + 6 * x ** 2) * (6 + x ** 2))
        assert theta.compose(1 / x) == theta

    def test_distinct(self):
        assert x != x + 1

    def test_equal_only_to_rational_functions(self):
        # a rational function never equals an int or a polynomial, so
        # equality agrees with hashing: 1 is not found in {1 as a function}
        one = RationalFunction.one(QQ)
        assert one != 1 and 1 not in {one}
        t = Polynomial.gen(QQ)
        assert RationalFunction(t) != t
        assert HahnFinite(FiniteField(2)).one() != 1
        # a finite-field element keeps its int equality and matching hash
        F4 = FiniteField(2, 2)
        assert F4.one() == 1 and hash(F4.one()) == hash(1)


class TestParse:
    def test_padic_style(self):
        V = PAdicQ(5)
        phi = parse_ratfun(V, "(x^5 - x)/5")
        assert phi.evaluate(Fraction(2)) == 6

    def test_implicit_multiplication(self):
        V = PAdicQ(2)
        phi = parse_ratfun(V, "6(1+x^4)/((1+6x^2)(6+x^2))")
        assert phi.evaluate(Fraction(1)) == Fraction(12, 49)

    def test_hahn_fractional_exponent(self):
        H = HahnFinite(FiniteField(2))
        phi = parse_ratfun(H, "t^{1/2}*x + 1")
        assert phi.num.coeffs == (H.one(), H.monomial(Fraction(1, 2)))
        assert phi.evaluate(H.monomial(Fraction(1, 2))) == H.gen() + 1

    def test_fractional_power_of_variable(self):
        with pytest.raises(StructuralError):
            parse_ratfun(HahnFinite(FiniteField(2)), "x^{1/2}")

    def test_fractional_power_without_exact_root(self):
        with pytest.raises(StructuralError):
            parse_ratfun(PAdicQ(5), "4^{1/2}*x")
        with pytest.raises(StructuralError):
            parse_ratfun(HahnFinite(FiniteField(2)), "(1 + t)^{1/2}")


@given(coeff_lists, coeff_lists)
@settings(max_examples=60)
def test_normalize_idempotent(nc, dc):
    num, den = Polynomial(QQ, nc), Polynomial(QQ, dc)
    if den.is_zero():
        return
    r = RationalFunction(num, den)
    assert RationalFunction(r.num, r.den) == r


@given(coeff_lists, coeff_lists, points, st.sampled_from([QQ, PAdicQ(5)]))
@settings(max_examples=150)
def test_evaluate_matches_fraction_horner(nc, dc, a, field):
    f, g = Polynomial(field, nc), Polynomial(field, dc)
    value = f.evaluate(a)
    assert value == fraction_horner(nc, a) and type(value) is Fraction
    if g.is_zero():
        return
    phi = RationalFunction(f, g)
    d = fraction_horner(phi.den.coeffs, a)
    if d == 0:
        assert phi.evaluate(a) is POLE
    else:
        value = phi.evaluate(a)
        assert value == fraction_horner(phi.num.coeffs, a) / d
        assert type(value) is Fraction


@given(coeff_lists, coeff_lists, points)
@settings(max_examples=60)
def test_evaluate_commutes_with_mul(nc, dc, a):
    f, g = Polynomial(QQ, nc), Polynomial(QQ, dc)
    if g.is_zero():
        return
    phi = RationalFunction(f)
    psi = RationalFunction(g)
    prod = phi * psi
    va = prod.evaluate(a)
    assert va == phi.evaluate(a) * psi.evaluate(a)


@given(coeff_lists, coeff_lists)
@settings(max_examples=40)
def test_identity_implies_pointwise_agreement(nc, dc):
    f, g = Polynomial(QQ, nc), Polynomial(QQ, dc)
    if g.is_zero():
        return
    phi = RationalFunction(f, g)
    psi = RationalFunction(f.scale(Fraction(3)), g.scale(Fraction(3)))
    assert phi == psi
    for k in range(20):
        a = Fraction(k - 10, 3)
        assert phi.evaluate(a) == psi.evaluate(a)


def test_divmod_reconstruction():
    f = qpoly(1, 2, 0, 5)
    g = qpoly(3, 1)
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.degree < g.degree


GF2 = FiniteField(2)
GF2_U = RatFuncField(GF2, "u")

# coefficient fields of the gcd paths: the rationals and GF(2) (Euclid),
# fraction fields F(v) (fraction-free), Hahn fields (in kappa(t^(1/m))[x])
GCD_FIELDS = {
    "Q": (QQ, lambda rng: Fraction(rng.randint(-5, 5), rng.randint(1, 4))),
    "GF2": (GF2, GF2.random),
    "GF2(u)": (GF2_U, lambda rng: GF2_U.random(rng, degree=rng.randint(0, 2))),
    "GF2(u)(t)": (TAdicRat(GF2_U), None),
    "lex2": (LexRank2(GF2), None),
    "hahn": (HahnFinite(GF2), None),             # exponents in {0, ±1, ±1/2, 2, 1/3}
    "hahn/GF2(u)": (HahnFinite(GF2_U), None),
}


def _random_poly(V, rng, degree, draw=None):
    draw = draw or V.random_element
    return Polynomial(V, [draw(rng) for _ in range(degree + 1)])


def _euclid_gcd(a, b):
    """Reference: plain Euclid over the coefficient field, no rescaling.

    Over GF(2)(u)(t) it is only fast enough for a test when one operand has
    degree 1: on a degree-2 pair its remainders carry coefficients of
    degree 20-40 in t, the swell the fraction-free gcd avoids.
    """
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def test_gcd_monic_and_divides():
    f = qpoly(-1, 0, 1) * qpoly(2, 1)
    g = qpoly(-1, 1) * qpoly(2, 1)
    d = Polynomial.gcd(f, g)
    assert d.leading() == 1
    assert (f % d).is_zero() and (g % d).is_zero()
    for name in GCD_FIELDS:
        _check_gcd(name)


def _check_gcd(name):
    V, draw = GCD_FIELDS[name]
    one = V.one()
    x = Polynomial.gen(V)
    for seed in range(6):
        rng = random.Random(f"gcd:{name}:{seed}")
        a = _random_poly(V, rng, rng.randint(1, 2), draw)
        b = _random_poly(V, rng, rng.randint(1, 2), draw)
        c = _random_poly(V, rng, rng.randint(1, 2), draw)
        if c.is_zero():
            c = x
        c = c.monic()
        d = Polynomial.gcd(a, b)
        if not d.is_zero():
            assert d.leading() == one
            assert (a % d).is_zero() and (b % d).is_zero()
        if a.degree + b.degree <= 3:
            assert d == _euclid_gcd(a, b)
        assert Polynomial.gcd(a * c, b * c) == d * c
        assert Polynomial.gcd(x * c, (x + 1) * c) == c
        assert Polynomial.gcd(a * c, Polynomial.zero(V)) == (a * c).monic()
        assert Polynomial.gcd(Polynomial.zero(V), c) == c
    assert Polynomial.gcd(Polynomial.zero(V), Polynomial.zero(V)).is_zero()


def test_gcd_hahn_fractional_exponents():
    H = HahnFinite(GF2)
    x = Polynomial.gen(H)
    r = H.monomial(Fraction(1, 2))
    c = x + r                                      # root t^(1/2) ...
    f = c * (x + H.monomial(Fraction(1, 3)))       # ... shared with t^(1/3)
    g = c * (x + H.one())
    assert Polynomial.gcd(f, g) == c
    assert Polynomial.gcd(f.scale(H.monomial(Fraction(-2, 3))), g) == c


# -- gcds over the GF(2)(u) towers and lex2, whose coefficients are fractions
# in an inner variable v over an infinite field F: t over GF(2)(u), s =
# t^(1/6) over GF(2)(u) once t^(1/2) and t^(1/3) meet, t2 over GF(2)(t1).
# Each case is (V, v, w) with w the generator of F.

def _tower_gcd_cases():
    T, H, L = TAdicRat(GF2_U), HahnFinite(GF2_U), LexRank2(GF2)
    u = GF2_U.gen()
    return {
        "tadic/GF2(u)": (T, T.gen(), T.lift(u)),
        "hahn/GF2(u)": (H, H.monomial(Fraction(1, 6)), H.lift(u)),
        "lex2": (L, L.gen2(), L.gen1()),
    }


def _coprime_pair(a, q, k):
    """a and a*q + k: coprime for a nonzero constant k, since gcd(a, aq + k)
    = gcd(a, k)."""
    return a, a * q + k


def _awkward_pairs(V, v, w):
    """Coprime pairs whose coefficients vanish at the cheap points of F:
    denominators v and v + 1 (no image at v = 0 or 1), a leading numerator
    v + 1, and denominators v + w and v + w + 1 as well."""
    one = V.one()
    x = Polynomial.gen(V)
    a = (x ** 3).scale(v + one) + (x ** 2).scale(one / v) + x.scale(one / (v + one)) + w
    lead = (x ** 3).scale(v + one) + x + w
    q = x.scale(one / (v + w)) + one / (v + w + one)
    return [_coprime_pair(a, x + one, one),        # first image at v = w
            _coprime_pair(lead, x, one),            # first image at v = 0
            _coprime_pair(a, q, one)]               # no image: 0, 1, w, w + 1 fail


@pytest.mark.parametrize("name", ["tadic/GF2(u)", "hahn/GF2(u)", "lex2"])
def test_tower_gcd_agrees_with_a_planted_factor(name):
    V, v, w = _tower_gcd_cases()[name]
    one = Polynomial.constant(V, V.one())
    x = Polynomial.gen(V)
    rng = random.Random(f"tower-gcd:{name}")
    mixed = [x + V.one(), x + w]
    if name.startswith("hahn"):
        mixed = [x + V.monomial(Fraction(1, 2)), x + V.monomial(Fraction(1, 3))]

    def poly(degree):
        while True:
            p = _random_poly(V, rng, degree)
            if p.degree == degree:
                return p

    pairs = _awkward_pairs(V, v, w)
    for _ in range(4):
        pairs.append(_coprime_pair(poly(rng.randint(1, 2)), poly(1),
                                   _nonzero_constant(V, rng, V.random_element)))
    for i, (a, b) in enumerate(pairs):
        assert Polynomial.gcd(a, b) == one
        for h in (mixed[i % 2], poly(1)):
            assert Polynomial.gcd(a * h, b * h) == h.monic()


def test_coprime_hahn_gcd_skips_the_tower_remainder_sequence(monkeypatch):
    # the nested remainder sequence over GF(2)(u)[s][x] runs only where the
    # image at a point of GF(2)(u) does not already show a gcd of 1
    H = HahnFinite(GF2_U)
    x = Polynomial.gen(H)
    u = H.lift(GF2_U.gen())
    a = x ** 4 + x.scale(H.monomial(Fraction(1, 2))) + u
    b = a + x + H.one()                       # coprime: a is 1 + t^(1/2) + u at x = 1
    h = x + H.monomial(Fraction(1, 3))
    calls = []
    remainder = ratfun._pseudo_remainder

    def counted(p, q):
        if q[-1].field is GF2_U:
            calls.append(p)
        return remainder(p, q)

    monkeypatch.setattr(ratfun, "_pseudo_remainder", counted)
    assert Polynomial.gcd(a, b) == Polynomial.constant(H, H.one())
    assert calls == []
    assert Polynomial.gcd(a * h, b * h) == h
    assert calls


@pytest.mark.parametrize("name", ["Q", "GF4", "GF2(u)", "GF2(u)(t)", "hahn"])
def test_power_matches_repeated_product(name):
    F4 = FiniteField(2, 2)
    V, draw = (F4, F4.random) if name == "GF4" else GCD_FIELDS[name]
    rng = random.Random(f"pow:{name}")
    for _ in range(3):
        num = _random_poly(V, rng, 1, draw)
        den = _random_poly(V, rng, 1, draw)
        if num.is_zero() or den.is_zero():
            continue
        r = RationalFunction(num, den)
        for n in range(-3, 6):
            expected = RationalFunction.one(V)
            for _ in range(abs(n)):
                expected = expected * (r if n > 0 else r.inverse())
            got = r ** n
            assert got == expected and hash(got) == hash(expected)
            assert got.den.leading() == V.one()
            assert Polynomial.gcd(got.num, got.den).degree == 0


def test_hahn_power_shrinks_the_lattice():
    H = HahnFinite(GF2)
    s = H.monomial(Fraction(1, 2))
    for got, expected in (
            (RationalFunction.constant(H, H.one() + s) ** 2,
             RationalFunction.constant(H, H.one() + H.gen())),
            (RationalFunction(Polynomial(H, [s, H.one()])) ** 2,
             RationalFunction(Polynomial(H, [H.gen(), H.zero(), H.one()])))):
        assert got == expected and hash(got) == hash(expected)


@pytest.mark.parametrize("name", ["GF4", "GF3(u)", "GF2(u)(t)", "hahn/GF2(u)", "lex2"])
def test_frobenius_power_matches_square_and_multiply(name):
    # in characteristic p a power f^(pm) is taken as (sum c_i^p x^(ip))^m;
    # it equals the power by squaring and multiplying
    F4, GF3_U = FiniteField(2, 2), RatFuncField(FiniteField(3), "u")
    V, draw = {"GF4": (F4, F4.random), "GF3(u)": (GF3_U, GF3_U.random)}.get(
        name) or GCD_FIELDS[name]
    p = V.characteristic
    assert p == (3 if name == "GF3(u)" else 2)
    assert QQ.characteristic == PAdicQ(5).characteristic == 0
    rng = random.Random(f"frobenius:{name}")
    for _ in range(3):
        f = _random_poly(V, rng, 2, draw)
        for n in (p, p * p, 2 * p, p + 1, 3 * p):
            assert f ** n == ratfun.power(f, n)


def test_scaling_by_zero_multiplies_no_coefficient(monkeypatch):
    # 0 * f is the zero function without a product per coefficient of f,
    # and 1/w for a sparse w over GF(3)(u) scales w by the inverse of its
    # leading coefficient without multiplying that inverse by each zero
    # coefficient in the gap, so the work does not grow with the gap
    L = RatFuncField(FiniteField(3), "u")
    u = L.gen()
    big = u ** 40 + u + 1
    calls = []
    mul = FFElement.__mul__

    def counted(a, b):
        calls.append(None)
        return mul(a, b)

    def sparse(gap):
        zero, one = L.zero(), L.one()
        return RationalFunction(Polynomial(L, [one, one] + [zero] * gap + [1 / big], "t"))

    f, ws = big / (u + 2), [sparse(gap) for gap in (100, 200)]
    monkeypatch.setattr(FFElement, "__mul__", counted)
    monkeypatch.setattr(FFElement, "__rmul__", counted)
    assert (0 * f).is_zero()
    assert calls == []
    counts = []
    for w in ws:
        del calls[:]
        inverse = 1 / w
        counts.append(len(calls))
        assert inverse * w == RationalFunction.one(L, "t")
    assert counts[0] == counts[1] < 400


# -- sums, products, quotients, inverses and compositions against the full
# normalization: each result must equal RationalFunction(num, den) of the
# unreduced numerator and denominator, which cancels by one gcd of the two.

def _coprime_factors(V, rng, draw):
    """Three pairwise coprime monic polynomials: x + k for distinct random
    k, and over GF(2), where only two are distinct, x^2 + x + 1 third."""
    ks = []
    for _ in range(50):
        k = draw(rng)
        if k not in ks:
            ks.append(k)
        if len(ks) == 3:
            break
    fs = [Polynomial.gen(V) + k for k in ks]
    if len(fs) < 3:
        fs.append(fs[0] * fs[1] + 1)
    return fs


def _nonzero_constant(V, rng, draw):
    while True:
        k = draw(rng)
        if k != V.zero():
            return k


def _homogenized(p, d, num, den):
    """den^d * p(num/den) as a polynomial, term by term."""
    acc = Polynomial.zero(p.field, num.var)
    for i in p.support():
        acc = acc + (num ** i * den ** (d - i)).scale(p.coeff(i))
    return acc


@pytest.mark.parametrize("name", sorted(GCD_FIELDS))
@pytest.mark.parametrize("seed", range(2))
def test_fast_paths_match_full_normalization(name, seed):
    V, draw = GCD_FIELDS[name]
    draw = draw or V.random_element
    rng = random.Random(f"henrici:{name}:{seed}")
    # f = a/b and g = c/d with r in a and d, s in b and d, w in a and c
    r, s, w = _coprime_factors(V, rng, draw)
    f = RationalFunction((r * w).scale(_nonzero_constant(V, rng, draw)), s)
    g = RationalFunction(w.scale(_nonzero_constant(V, rng, draw)), r * s)
    k = _nonzero_constant(V, rng, draw)
    a, b, c, d = f.num, f.den, g.num, g.den
    for got, num, den in ((f * g, a * c, b * d), (f / g, a * d, b * c),
                          (f + g, a * d + c * b, b * d), (f - g, a * d - c * b, b * d),
                          (f.inverse(), b, a), (g ** -2, d * d, c * c),
                          (k * f, a.scale(k), b), (k / g, d.scale(k), c),
                          (g - k, c - d.scale(k), d)):
        assert got == RationalFunction(num, den)
    zero = f - f
    assert zero.is_zero() and zero.den == Polynomial.constant(V, V.one())
    n = max(a.degree, b.degree)
    assert f.compose(g) == RationalFunction(_homogenized(a, n, c, d), _homogenized(b, n, c, d))
    # a constant landing on a root of the numerator gives zero over 1
    root = RationalFunction.constant(V, -r.coeff(0))
    assert f.compose(root) == RationalFunction.zero(V)
    assert f.compose(root).den == Polynomial.constant(V, V.one())


# -- affine substitutions b0 + b1*x against the sum of powers
# sum c_i (b0 + b1 x)^i, built by Polynomial + and * alone, for the numerator
# and the denominator.

AFFINE_FIELDS = {
    "Q5": PAdicQ(5),
    "tadic/GF4": TAdicRat(FiniteField(2, 2)),
    "hahn/GF2": HahnFinite(GF2),
    "tadic/GF2(u)": TAdicRat(GF2_U),
    "hahn/GF2(u)": HahnFinite(GF2_U),
    "lex2/GF2": LexRank2(GF2),
    "tadic/GF3": TAdicRat(FiniteField(3)),
}


def _sum_of_powers(p, b0, b1):
    V = p.field
    linear = Polynomial(V, [b0, b1])
    acc, power = Polynomial.zero(V), Polynomial.constant(V, V.one())
    for i, c in enumerate(p.coeffs):
        if i:
            power = power * linear
        acc = acc + power * c
    return acc


def _affine_oracle(phi, b0, b1):
    return RationalFunction(_sum_of_powers(phi.num, b0, b1), _sum_of_powers(phi.den, b0, b1))


def _residue_lift(V, rng):
    L = V.residue_field
    while True:
        r = L.random(rng) if L.is_finite else L.random(rng, degree=1)
        if r:
            return V.lift(r)


@given(st.sampled_from(sorted(AFFINE_FIELDS)), st.integers(0, 2 ** 32),
       st.sampled_from(["0", "b1", "b1*lift", "random"]), st.sampled_from(["1", "random"]))
@example("hahn/GF2", 0, "1/3", "1/2")  # b0 = t^(1/3), b1 = t^(1/2): mixed lattices
@example("hahn/GF2", 1, "b1", "1/2")   # c = b0/b1 = 1
@settings(max_examples=150, derandomize=True, deadline=None, database=None)
def test_affine_compose_matches_the_sum_of_powers(name, seed, b0_kind, b1_kind):
    V = AFFINE_FIELDS[name]
    rng = random.Random(f"affine:{name}:{seed}")

    def draw(kind, b1=None):
        if kind == "random":
            return V.random_nonzero(rng) if b1 is None else V.random_element(rng)
        if kind == "b1":
            return b1
        if kind == "b1*lift":
            return b1 * _residue_lift(V, rng)
        if kind in ("0", "1"):
            return V.from_int(int(kind))
        return V.monomial(Fraction(kind))  # a Hahn lattice t^q

    b1 = draw(b1_kind)
    b0 = draw(b0_kind, b1)
    num = Polynomial(V, [V.random_element(rng) for _ in range(rng.randint(1, 6))])
    den = Polynomial(V, [V.random_element(rng) for _ in range(rng.randint(1, 4))])
    phi = RationalFunction(num, den if den else Polynomial.constant(V, V.one()))
    x = RationalFunction.gen(V)
    assert phi.compose(b0 + b1 * x) == _affine_oracle(phi, b0, b1)


def test_affine_compose_is_a_taylor_shift(monkeypatch):
    # The substitution a0 + t*x of the refinement multiplies no polynomials:
    # over Q5 it shifts the integer form, and over Hahn GF(2), where c =
    # a0/t = 1, the shift takes no product by c, so a polynomial of degree n
    # takes at most 2n - 1 coefficient products, for b1^k and the scaling
    # by it.  Any other substitution still runs Horner's rule.
    Q5, H = PAdicQ(5), HahnFinite(GF2)
    x, y = RationalFunction.gen(Q5), RationalFunction.gen(H)
    phi = ((x ** 5 - x) / 5) ** 2
    t = H.monomial(Fraction(1, 2))
    rng = random.Random("taylor")
    n = 6
    chi = RationalFunction(Polynomial(H, [H.random_element(rng) for _ in range(n)] + [H.one()]))
    want_phi = _affine_oracle(phi, Fraction(15), Fraction(5))
    want_chi = _affine_oracle(chi, t, t)
    psi, omega = 15 + 5 * x, t + t * y  # a0 + t*x at the residues 3 and 1
    products, hahn_products, horners = [], [], []
    poly_mul, hahn_mul, horner = Polynomial.__mul__, HahnElement.__mul__, ratfun.horner
    monkeypatch.setattr(Polynomial, "__mul__",
                        lambda a, b: products.append(a.field) or poly_mul(a, b))
    monkeypatch.setattr(HahnElement, "__mul__",
                        lambda a, b: hahn_products.append(a) or hahn_mul(a, b))
    monkeypatch.setattr(ratfun, "horner", lambda *args: horners.append(1) or horner(*args))
    assert phi.compose(psi) == want_phi
    assert products == []
    assert chi.compose(omega) == want_chi
    assert len(hahn_products) <= 2 * n - 1
    assert horners == []
    phi.compose(x ** 2 + 1)
    # chi(1/y) = y^n chi(1/y) / y^n: the power of 1/y's denominator is kept
    one, v = Polynomial.constant(H, H.one()), Polynomial.gen(H)
    assert chi.compose(1 / y) == RationalFunction(_homogenized(chi.num, n, one, v),
                                                  _homogenized(chi.den, n, one, v))
    assert len(horners) == 4  # the numerator and the denominator of each


# -- products, quotients and sums whose cancellation needs no gcd: an operand
# of one term c*v^k, two equal denominators, and the constants 0 and 1, at
# every level of each tower.  The oracle reduces the unreduced numerator and
# denominator by Polynomial.gcd, exact division and a monic denominator; it
# builds no RationalFunction but the canonical pair itself.

GF4 = FiniteField(2, 2)


def _oracle(num, den):
    g = Polynomial.gcd(num, den)
    num, den = num // g, den // g
    inv = den.field.one() / den.leading()
    return RationalFunction(num.scale(inv), den.scale(inv), _canonical=True)


def _cancel_levels():
    """name -> (F, v, draw, k): fractions in the variable v over F, draw(rng)
    an element of F and k a nonzero element of F that is not 1."""
    T4, TU, H, L = TAdicRat(GF4), TAdicRat(GF2_U), HahnFinite(GF2_U), LexRank2(GF2)
    u = GF2_U.gen()
    lattice = [H.monomial(Fraction(1, 2)), H.monomial(Fraction(1, 3))]
    return {
        "Q5/x": (PAdicQ(5), "x", GCD_FIELDS["Q"][1], Fraction(-3, 5)),
        "tadic/GF4/x": (T4, "x", T4.random_element, T4.gen()),
        "tadic/GF4/t": (GF4, "t", GF4.random, GF4.gen()),
        "tadic/GF2(u)/x": (TU, "x", TU.random_element, TU.lift(u) / TU.gen()),
        "tadic/GF2(u)/t": (GF2_U, "t", GCD_FIELDS["GF2(u)"][1], u + 1),
        "tadic/GF2(u)/u": (GF2, "u", GF2.random, None),
        "hahn/GF2(u)/x": (H, "x", lambda rng: H.random_element(rng) * rng.choice(lattice),
                          lattice[1]),
        "hahn/GF2(u)/s": (GF2_U, "s", GCD_FIELDS["GF2(u)"][1], u),
        "lex2/x": (L, "x", L.random_element, L.gen1()),
        "lex2/t2": (L.inner, "t2", lambda rng: L.inner.random(rng, degree=1),
                    L.inner.gen()),
        "lex2/t1": (GF2, "t1", GF2.random, None),
    }


def _term(F, v, c, k):
    """c*v^k, canonical: one term over 1, or c over v^-k."""
    return RationalFunction(Polynomial.from_dict(F, {max(k, 0): c}, v),
                            Polynomial.from_dict(F, {max(-k, 0): F.one()}, v), _canonical=True)


def _check_against_oracle(got, num, den):
    want = _oracle(num, den)
    assert got.num == want.num and got.den == want.den
    assert repr(got) == repr(want)


@pytest.mark.parametrize("name", sorted(_cancel_levels()))
def test_cancellation_without_gcd_matches_the_oracle(name):
    F, v, draw, k = _cancel_levels()[name]
    rng = random.Random(f"cancel:{name}")
    vv = Polynomial.from_dict(F, {1: F.one()}, v)

    def poly(degree):
        return Polynomial(F, [draw(rng) for _ in range(degree + 1)], v)

    def fraction():
        # a reduced fraction whose numerator or denominator has a power of v
        num, den = poly(rng.randint(0, 2)), poly(rng.randint(1, 2))
        while den.is_zero():
            den = poly(1)
        return _oracle(num * vv ** rng.randint(0, 2), den * vv ** rng.randint(0, 2))

    one, zero = RationalFunction.one(F, v), RationalFunction.zero(F, v)
    units = [F.one()] + ([k] if k is not None else [])
    for _ in range(4):
        f = fraction()
        a, b = f.num, f.den
        terms = [_term(F, v, rng.choice(units), e) for e in range(-2, 4)]
        same = _oracle(poly(rng.randint(0, 2)), b)       # over b, or a factor of it
        for g in terms + [same, f]:
            c, d = g.num, g.den
            cases = [(f * g, a * c, b * d), (g * f, a * c, b * d),
                     (f + g, a * d + c * b, b * d), (f - g, a * d - c * b, b * d),
                     (g - f, c * b - a * d, b * d),
                     (RationalFunction(a * c, b * d), a * c, b * d)]
            if not c.is_zero():
                cases.append((f / g, a * d, b * c))
            if not a.is_zero():
                cases.append((g / f, c * b, d * a))
            if not (a * c).is_zero():
                cases.append((RationalFunction(b * d, a * c), b * d, a * c))
            for got, num, den in cases:
                _check_against_oracle(got, num, den)
        for got, num, den in ((f * one, a, b), (one * f, a, b), (f * 1, a, b), (1 * f, a, b),
                              (f / one, a, b), (f / 1, a, b), (f - f, a - a, b),
                              (zero * f, a - a, b), (f * 0, a - a, b),
                              (RationalFunction(b, b), b, b)):
            _check_against_oracle(got, num, den)
        assert (f - f).den == (zero * f).den == Polynomial.constant(F, F.one(), v)


def test_hahn_element_cancellation_matches_the_oracle():
    # Hahn elements with the lattices t^(1/2) and t^(1/3) meet on s = t^(1/6):
    # each result, spread onto s, is the oracle's reduction of the spread
    # operands.
    H = HahnFinite(GF2_U)
    rng = random.Random("cancel:hahn-elements")
    u = H.lift(GF2_U.gen())

    def on6(e):
        return _spread(e.f, 6 // e.m)

    monomials = [H.monomial(q) for q in (Fraction(1, 2), Fraction(1, 3), Fraction(-1, 3),
                                         Fraction(2))]
    for _ in range(6):
        f = H.random_element(rng)
        for g in monomials + [u * monomials[0], f + monomials[1], f]:
            (a, b), (c, d) = (on6(f).num, on6(f).den), (on6(g).num, on6(g).den)
            cases = [(f * g, a * c, b * d), (f + g, a * d + c * b, b * d),
                     (f - g, a * d - c * b, b * d), (f / g, a * d, b * c)]
            for got, num, den in cases:
                _check_against_oracle(on6(got), num, den)


def test_single_term_and_equal_operands_take_no_gcd(monkeypatch):
    # a one-term operand c*v^k shares only a power of v with the other one,
    # and a sum over one denominator shares only a factor of it with the
    # numerator: no Polynomial.gcd at any level of the tower, while a planted
    # factor 1 + t takes one at the level of t
    T = TAdicRat(GF2_U)
    t, u, one = T.gen(), T.lift(GF2_U.gen()), T.one()
    X = RationalFunction.gen(PAdicQ(5))
    f, g, h, k = u / t, t ** 2 / (one + t), one / t, X ** 2 + X
    planted = (t ** 2 + t) / (t + u)
    calls = []
    gcd = Polynomial.gcd

    def counted(a, b):
        calls.append(a.field)
        return gcd(a, b)

    monkeypatch.setattr(Polynomial, "gcd", staticmethod(counted))
    got = [f * g, h + f, X ** 3 * (1 / k)]
    assert calls == []
    assert planted * (u / (one + t)) == u * t / (t + u)
    assert calls.count(GF2_U) == 1
    monkeypatch.undo()
    assert got == [u * t / (one + t), (one + u) / t, X ** 2 / (X + 1)]


def test_scalar_of_a_function_field_is_a_constant():
    # Over L = GF(2)(u) a scalar is itself a rational function in u: an
    # operand in another variable is a constant of a function in x, on
    # either side of the operator.
    L = GF2_U
    u = L.gen()
    t = RationalFunction.gen(L)
    c = RationalFunction.one(L) * u
    assert c.is_constant() and c.field is L and c.as_constant() == u
    ux = RationalFunction(Polynomial(L, [L.zero(), u]))
    assert t * u == ux and t - u == t + u == RationalFunction(Polynomial(L, [u, L.one()]))
    assert t / u == RationalFunction(Polynomial(L, [L.zero(), L.one() / u]))
    assert u * t == ux and u + t == t + u and u - t == t - u
    assert u / t == RationalFunction(Polynomial.constant(L, u), Polynomial.gen(L))
    assert Polynomial.gen(L) * u == u * Polynomial.gen(L) == ux.num
    # a polynomial and a function in one variable combine as functions
    assert Polynomial.gen(QQ) + x == 2 * x and Polynomial.gen(QQ) * x == x ** 2
    # neither a function in x nor a scalar: no silent answer
    with pytest.raises(TypeError):
        t * RationalFunction.gen(QQ, "v")
    with pytest.raises(StructuralError):
        t.compose(RationalFunction.gen(QQ, "v"))


def _assert_reduced(r, num, den):
    assert r.num * den == r.den * num
    assert r.den.leading() == r.num.field.one()
    assert Polynomial.gcd(r.num, r.den).degree == 0


@pytest.mark.parametrize("V", [TAdicRat(GF2_U), HahnFinite(GF2_U)],
                         ids=["GF2(u)(t)", "hahn/GF2(u)"])
@pytest.mark.parametrize("seed", range(6))
def test_tower_normalization_reduces(V, seed):
    # Degree-2 and degree-3 pairs over the towers, where a Euclid nested at
    # every level of the tower blows up; checked for a reduced result, not
    # for time.
    for degree in (2, 3):
        rng = random.Random(seed)
        num = _random_poly(V, rng, degree)
        den = _random_poly(V, rng, degree)
        _assert_reduced(RationalFunction(num, den), num, den)


def test_tower_parse_reduces():
    # A Hahn/GF(2)(u) function whose normalization once took minutes in
    # nested gcds over GF(2)[u] held as coefficient lists.
    H = HahnFinite(GF2_U)
    num = ("(t^-1)*x^3 + t^2*x^2 + ((1/(u + 1))*t^{1/2})*x"
           " + ((u/(u + 1))*t^-1 + (u/(u + 1))*t^{-1/2} + 1/(u + 1))")
    den = ("((u/(u + 1))*t^{1/2})*x^3 + (((u + 1)/u)*t^{1/3})*x"
           " + (t^-1 + (u/(u + 1))*t)")
    r = parse_ratfun(H, f"({num})/({den})")
    _assert_reduced(r, parse_ratfun(H, num).num, parse_ratfun(H, den).num)
    assert r.num.degree == 3 and r.den.degree == 3


# -- GF(2)[v], packed into ints, against a schoolbook reference --------------
#
# The reference works on lists of 0/1 ints, constant term first, with no
# trailing zeros, so it shares nothing with the packed representation.

def _ref_trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _ref_add(a, b):
    n = max(len(a), len(b))
    return _ref_trim([(a[i] if i < len(a) else 0) ^ (b[i] if i < len(b) else 0)
                      for i in range(n)])


def _ref_mul(a, b):
    out = [0] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] ^= x & y
    return _ref_trim(out)


def _ref_divmod(a, b):
    r = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    for i in range(len(r) - 1, len(b) - 2, -1):
        if r[i]:
            q[i - len(b) + 1] = 1
            for j, y in enumerate(b):
                r[i - len(b) + 1 + j] ^= y
    return _ref_trim(q), _ref_trim(r)


def _ref_gcd(a, b):
    while b:
        a, b = b, _ref_divmod(a, b)[1]
    return a  # monic: its last entry is 1


def _gf2(bits):
    return Polynomial(GF2, [GF2.from_int(c) for c in bits], "v")


# degrees up to 70, across the 30- and 60-bit digits of Python ints
gf2_lists = st.lists(st.integers(0, 1), max_size=71).map(_ref_trim)


@given(gf2_lists, gf2_lists, st.integers(0, 3))
@example([], [], 0)
@example([1] * 71, [0] * 30 + [1], 3)
@example([0] * 60 + [1], [1] * 61, 2)
@settings(max_examples=200, deadline=None)
def test_gf2_packed_matches_reference(a, b, n):
    pa, pb = _gf2(a), _gf2(b)
    assert type(pa) is _GF2Polynomial
    assert pa.degree == len(a) - 1
    assert pa.coeffs == tuple(GF2.from_int(c) for c in a)
    assert pa.support() == [i for i, c in enumerate(a) if c]
    assert [pa.coeff(i) for i in range(-1, len(a) + 2)] == (
        [GF2.zero()] + [GF2.from_int(c) for c in a] + [GF2.zero()] * 2)
    assert pa.is_constant() == (len(a) <= 1) and pa.is_zero() == (not a)
    assert pa + pb == _gf2(_ref_add(a, b)) == pa - pb
    assert -pa == pa
    assert pa * pb == _gf2(_ref_mul(a, b))
    power = [1]
    for _ in range(n):
        power = _ref_mul(power, a)
    assert pa ** n == _gf2(power)
    assert pa.evaluate(GF2.zero()) == GF2.from_int(a[0] if a else 0)
    assert pa.evaluate(GF2.one()) == GF2.from_int(sum(a))
    if b:
        q, r = divmod(pa, pb)
        assert q * pb + r == pa and r.degree < pb.degree
        assert (q, r) == tuple(map(_gf2, _ref_divmod(a, b)))
        assert pa // pb == q and pa % pb == r
    else:
        with pytest.raises(StructuralError):
            divmod(pa, pb)
    g = Polynomial.gcd(pa, pb)
    assert g == _gf2(_ref_gcd(a, b))
    if a or b:
        assert g.leading() == GF2.one()
        assert (pa % g).is_zero() and (pb % g).is_zero()
    else:
        assert g.is_zero()


def test_gf2_packed_evaluates_at_a_function_field_element():
    # a point other than 0 and 1 takes the packed Horner loop
    pa = _gf2([1, 0, 1, 1])  # v^3 + v^2 + 1
    u = GF2_U.gen()
    a = u / (u + 1)
    value = pa.evaluate(a)
    assert value == Polynomial.evaluate(pa, a)  # generic Horner on the coefficients
    assert value == (u ** 3 + u + 1) / (u ** 3 + u ** 2 + u + 1)
    assert str(value) == "(u^3 + u + 1)/(u^3 + u^2 + u + 1)"


# -- GF(4)[v], packed into two bit planes, against a table reference ---------
#
# The reference works on lists of GF(4) indices, constant term first, with no
# trailing zeros, through the field's own addition, negation, multiplication
# and inversion tables, so it shares nothing with the packed representation.

def _ref4_add(a, b, neg=False):
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return _ref_trim([GF4._add_tab[x][GF4._neg_tab[y] if neg else y] for x, y in zip(a, b)])


def _ref4_scale(a, k):
    return _ref_trim([GF4._mul[k][x] for x in a])


def _ref4_mul(a, b):
    out = [0] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = GF4._add_tab[out[i + j]][GF4._mul[x][y]]
    return _ref_trim(out)


def _ref4_divmod(a, b):
    r = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    inv = GF4._inv[b[-1]]
    for i in range(len(r) - 1, len(b) - 2, -1):
        if r[i]:
            k = i - len(b) + 1
            c = q[k] = GF4._mul[r[i]][inv]
            for j, y in enumerate(b):
                r[k + j] = GF4._add_tab[r[k + j]][GF4._neg_tab[GF4._mul[c][y]]]
    return _ref_trim(q), _ref_trim(r)


def _ref4_gcd(a, b):
    while b:
        a, b = b, _ref4_divmod(a, b)[1]
    return _ref4_scale(a, GF4._inv[a[-1]]) if a else a


def _ref4_eval(a, k):
    acc = 0
    for c in reversed(a):
        acc = GF4._add_tab[GF4._mul[acc][k]][c]
    return acc


def _ref4_str(a):
    names = {1: "1", 2: "u", 3: "(u + 1)"}
    parts = []
    for i in reversed(range(len(a))):
        if a[i]:
            xs = "" if i == 0 else "v" if i == 1 else f"v^{i}"
            parts.append(names[a[i]] if not xs else xs if a[i] == 1 else f"{names[a[i]]}*{xs}")
    return " + ".join(parts) or "0"


def _gf4(idx):
    return Polynomial(GF4, [GF4.element(i) for i in idx], "v")


# degrees up to 70, across the 30- and 60-bit digits of Python ints
gf4_lists = st.lists(st.integers(0, 3), max_size=71).map(_ref_trim)


@given(gf4_lists, gf4_lists, st.integers(0, 3))
@example([], [], 0)
@example([3] * 71, [0] * 30 + [2], 3)
@example([0] * 60 + [1], [2, 3] * 30 + [3], 2)
@settings(max_examples=200, deadline=None)
def test_gf4_packed_matches_reference(a, b, n):
    T4 = TAdicRat(GF4)
    pa, pb = _gf4(a), _gf4(b)
    el = [GF4.element(c) for c in a]
    assert pa.degree == len(a) - 1
    assert pa.coeffs == tuple(el)
    assert pa.support() == [i for i, c in enumerate(a) if c]
    assert pa.low_degree() == next((i for i, c in enumerate(a) if c), None)
    assert [pa.coeff(i) for i in range(-1, len(a) + 2)] == (
        [GF4.zero()] + el + [GF4.zero()] * 2)
    assert pa.is_constant() == (len(a) <= 1) and pa.is_zero() == (not a)
    if a:
        assert pa.leading() == el[-1]
    else:
        with pytest.raises(StructuralError):
            pa.leading()
    assert pa + pb == _gf4(_ref4_add(a, b))
    assert pa - pb == _gf4(_ref4_add(a, b, neg=True))
    assert -pa == _gf4(_ref4_add([], a, neg=True))
    product = pa * pb
    assert product == _gf4(_ref4_mul(a, b))
    # one value built two ways: equal, with one hash
    again = Polynomial.from_dict(GF4, {i: GF4.element(c) for i, c in
                                       enumerate(_ref4_mul(a, b)) if c}, "v")
    assert product == again and hash(product) == hash(again)
    power = [1]
    for _ in range(n):
        power = _ref4_mul(power, a)
    assert pa ** n == _gf4(power)
    for k in range(4):
        assert pa.scale(GF4.element(k)) == _gf4(_ref4_scale(a, k))
        assert pa.evaluate(GF4.element(k)) == GF4.element(_ref4_eval(a, k))
    # at a function-field point, against the sum of the terms c_i a^i
    t, w = T4.gen(), T4.lift(GF4.gen())
    point = (t * t + w * t + 1) / t
    want = T4.zero()
    for i, c in enumerate(el):
        if c:
            want = want + point ** i * c
    # a constant polynomial gives its constant, an element of GF(4)
    assert T4.zero() + pa.evaluate(point) == want
    if b:
        q, r = divmod(pa, pb)
        assert q * pb + r == pa and r.degree < pb.degree
        assert (q, r) == tuple(map(_gf4, _ref4_divmod(a, b)))
        assert pa // pb == q and pa % pb == r
    else:
        with pytest.raises(StructuralError):
            divmod(pa, pb)
    g = Polynomial.gcd(pa, pb)
    assert g == _gf4(_ref4_gcd(a, b))
    if a or b:
        assert g.leading() == GF4.one()
        assert (pa % g).is_zero() and (pb % g).is_zero()
    else:
        assert g.is_zero()
    assert str(pa) == _ref4_str(a)


def test_sparse_polynomial_evaluates_by_powers(monkeypatch):
    # x^256 + c at a Hahn point: 8 squarings for the power, not 256 products
    H = HahnFinite(GF2_U)
    u = H.lift(GF2_U.gen())
    a = H.monomial(Fraction(1, 2), GF2_U.gen()) + H.one()
    p = Polynomial.from_dict(H, {0: u, 256: H.one()})
    want = a
    for _ in range(8):
        want = want * want
    want = want + u
    products = []
    mul = HahnElement.__mul__

    def counted(x, y):
        products.append(1)
        return mul(x, y)

    monkeypatch.setattr(HahnElement, "__mul__", counted)
    monkeypatch.setattr(HahnElement, "__rmul__", counted)
    assert p.evaluate(a) == want
    assert len(products) <= 2 * 8 + 2


def test_sparse_evaluation_at_a_fraction_takes_no_gcd_in_its_variable(monkeypatch):
    # x^27 + u at a t-adic point: a^27 of a reduced fraction is reduced as
    # it stands, where 27 products a * a would cancel by gcds in t
    V = TAdicRat(RatFuncField(FiniteField(3), "u"))
    u, t = V.lift(V.kappa.gen()), V.gen()
    a = (u * t + 1) / (t + u)
    want = V.one()
    for _ in range(27):
        want = want * a
    want = want + u
    p = Polynomial.from_dict(V, {0: u, 27: V.one()})
    gcds = []
    gcd = Polynomial.gcd

    def counted(f, g):
        gcds.append(f.var)
        return gcd(f, g)

    monkeypatch.setattr(Polynomial, "gcd", staticmethod(counted))
    assert p.evaluate(a) == want
    assert "t" not in gcds


@pytest.mark.parametrize("seed", range(4))
def test_evaluate_matches_the_sum_of_terms(seed):
    # gaps of every size, a zero constant term, and the points 0 and 1
    F = FiniteField(5)
    rng = random.Random(f"sparse-eval:{seed}")
    terms = {i: F.random(rng) for i in rng.sample(range(40), rng.randint(1, 6))}
    p = Polynomial.from_dict(F, terms)
    for a in [F.zero(), F.one()] + [F.random(rng) for _ in range(4)]:
        want = F.zero()
        for i in p.support():
            term = p.coeff(i)
            for _ in range(i):
                term = term * a
            want = want + term
        assert p.evaluate(a) == want


def test_polynomial_equality_includes_variable():
    gf2_w = FiniteField(2, 1, "w")  # a second GF(2) object
    for F in (QQ, GF2, GF2_U):
        u1 = Polynomial.gen(F, "u") + 1
        v1 = Polynomial.gen(F, "v") + 1
        assert u1 != v1
        assert u1 == Polynomial.gen(F, "u") + 1
        assert hash(u1) == hash(Polynomial.gen(F, "u") + 1)
        assert RationalFunction(u1) != RationalFunction(v1)
    assert Polynomial.gen(QQ, "u") != Polynomial.gen(GF2, "u")
    # equality covers the field: zero polynomials over two dense fields differ
    assert Polynomial.zero(QQ, "u") != Polynomial.zero(FiniteField(2, 2), "u")
    # the hash covers the variable and the coefficients, not the field object
    assert Polynomial.gen(gf2_w, "u") != Polynomial.gen(GF2, "u")
    assert hash(Polynomial.gen(gf2_w, "u")) == hash(Polynomial.gen(GF2, "u"))


# The fields whose arithmetic rests on GF(2)[v], with a domain for
# intr_member and one function over each.
GF2_TOWERS = {
    "GF2(u)(t)": (DomainSpec.pvd(TAdicRat(GF2_U), ConstantSubfield(GF2_U)),
                  "t*x/(x^2 + x + u)"),
    "hahn/GF2(u)": (DomainSpec.pvd(HahnFinite(GF2_U), ConstantSubfield(GF2_U)),
                    "t*(x^2 + x)/(x^2 + x + u)"),
    "lex2": (DomainSpec.pvd(LexRank2(GF2), None), "t2*x^2/(x^2 + x + 1)"),
    "hahn/GF2": (DomainSpec.pvd(HahnFinite(GF2), None), "(x^2 + x)/(x^2 + x + 1)"),
}


@pytest.mark.parametrize("name", sorted(GF2_TOWERS))
def test_gf2_hot_paths_build_no_coefficient_tuple(name, monkeypatch):
    # Normalization, gcds and intr_member over the towers read packed
    # polynomials bit by bit; building their coefficient tuples costs time
    # and memory on every call, so here it fails.
    D, text = GF2_TOWERS[name]
    V = D.field
    rng = random.Random(f"packed:{name}")
    polys = [_random_poly(V, rng, rng.randint(1, 2)) for _ in range(6)]

    def unpack(self):
        raise AssertionError("coefficient tuple of a packed polynomial built")

    monkeypatch.setattr(_GF2Polynomial, "coeffs", property(unpack))
    fs = [RationalFunction(a, b) for a, b in zip(polys[::2], polys[1::2])
          if not b.is_zero()]
    for f, g in zip(fs, fs[1:]):
        _assert_reduced(f * g, f.num * g.num, f.den * g.den)
        if not g.is_zero():
            _assert_reduced(f / g, f.num * g.den, f.den * g.num)
        Polynomial.gcd(f.num * g.den, f.den * g.den)
    phi = parse_ratfun(V, text)
    assert intr_member(phi, D, depth=3).kind in ("in", "out")


def test_gf4_hot_paths_build_no_coefficient_tuple(monkeypatch):
    # GF(4)[v] is packed into two bit planes under every generator name, and
    # under the t-adic field and GF(4)(u).  Products, quotients and gcds
    # there, the local polynomials over GF(4), its root search and
    # intr_member on the t-adic pullback read the planes, so building a
    # coefficient tuple fails.
    packed = ratfun._GF4Polynomial
    for name in ("u", "w", "z"):
        assert type(Polynomial.gen(FiniteField(2, 2, name), "v")) is packed
    W4 = FiniteField(2, 2, "w")
    T4, U4 = TAdicRat(GF4), RatFuncField(W4, "u")
    assert type(T4.gen().num) is packed and type(U4.gen().den) is packed
    D = domain_from_config({"field": {"variant": "tadic", "residue": {"kind": "gf", "q": 4}},
                            "subfield": {"kind": "subgf", "order": 2}, "E": "field"})
    phis = [parse_ratfun(D.field, text) for text in
            ("(x^2 + x)/(x^4 + x + 1)", "u*t*x/(x^2 + x + u)", "t/(x^2 + x + u)")]

    def unpack(self):
        raise AssertionError("coefficient tuple of a packed polynomial built")

    monkeypatch.setattr(packed, "coeffs", property(unpack))
    for V, draw in ((T4, T4.random_element), (U4, lambda rng: U4.random(rng, degree=2))):
        rng = random.Random(f"packed4:{V}")
        fs = [draw(rng) for _ in range(8)]
        for f, g in zip(fs, fs[1:]):
            _assert_reduced(f * g, f.num * g.num, f.den * g.den)
            if g:
                _assert_reduced(f / g, f.num * g.den, f.den * g.num)
            _assert_reduced(f + g, f.num * g.den + g.num * f.den, f.den * g.den)
            Polynomial.gcd(f.num * g.den, f.den * g.den)
    t = T4.gen()
    f = parse_ratfun(T4, "x^3 + (u*t)*x^2 + (t^2 + 1)*x + t").num
    env = minval_poly(f, T4)
    for point in (t, T4.one(), t * t):
        loc = local_poly(env, point, T4.valuation(point))
        assert type(loc) is packed and loc.leading() == GF4.one()
        roots, complete = residue_roots(loc, GF4)
        assert complete and all(not loc.evaluate(r) for r in roots)
    x4 = Polynomial.from_dict(GF4, {4: GF4.one(), 1: GF4.one(), 0: GF4.one()})
    assert residue_roots(x4, GF4) == (set(), True)
    assert residue_roots(x4 * x4 + Polynomial.gen(GF4), GF4)[1]
    for phi in phis:
        assert intr_member(phi, D, depth=3).kind in ("in", "out")


# -- Q[x] against a per-Fraction reference -----------------------------------
#
# The reference works on lists of Fractions, constant term first, with no
# trailing zeros, one Fraction operation per step, so it shares nothing with
# the integer kernels of Polynomial over Q.

def _q_trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _q_ref_mul(a, b):
    out = [Fraction(0)] * max(0, len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    return _q_trim(out)


def _q_ref_divmod(a, b):
    r = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    for i in range(len(r) - 1, len(b) - 2, -1):
        f = r[i] / b[-1]
        q[i - len(b) + 1] = f
        for j, d in enumerate(b):
            r[i - len(b) + 1 + j] -= f * d
    return _q_trim(q), _q_trim(r)


def _q_ref_gcd(a, b):
    while b:
        a, b = b, _q_ref_divmod(a, b)[1]
    return [c / a[-1] for c in a]


def _q_random_coeffs(rng, p, degree):
    """Coefficients of degree ``degree`` (the zero polynomial for -1): a fifth
    zeros, the rest small fractions times p^-2 .. p^2, the leading one
    nonzero and of either sign."""
    out = [Fraction(0) if rng.random() < 0.2 else
           Fraction(rng.randint(-9, 9), rng.randint(1, 6)) * Fraction(p) ** rng.randint(-2, 2)
           for _ in range(degree + 1)]
    if out:
        out[-1] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                           rng.randint(1, 6)) * Fraction(p) ** rng.randint(-2, 2)
    return out


def _q_cases(V, seed, count):
    """Seeded operand pairs over V as coefficient lists: degrees -1 (zero)
    to 8, pairs with a common factor of degree 1-3, and the edge cases."""
    p = getattr(V, "p", 3)
    rng = random.Random(f"q-oracle:{V!r}:{seed}")
    cases = [([], []), ([], [Fraction(-2, 25)]), ([Fraction(7, 5)], [Fraction(-3)]),
             ([Fraction(1), Fraction(0), Fraction(-1, 25)], [Fraction(-25, 2)]),
             ([Fraction(-5), Fraction(1, 5)], [Fraction(25), Fraction(0), Fraction(-1)])]
    for _ in range(count):
        a = _q_random_coeffs(rng, p, rng.randint(-1, 8))
        b = _q_random_coeffs(rng, p, rng.randint(-1, 8))
        if rng.random() < 0.5:
            c = _q_random_coeffs(rng, p, rng.randint(1, 3))
            a, b = _q_ref_mul(a, c), _q_ref_mul(b, c)
        cases.append((a, b))
    return cases


def _assert_q_poly(got, want):
    assert all(type(c) is Fraction for c in got.coeffs), got.coeffs
    assert list(got.coeffs) == want


@pytest.mark.parametrize("V", [QQ, PAdicQ(5)], ids=["QQ", "Q5"])
@pytest.mark.parametrize("seed", range(3))
def test_q_arithmetic_matches_fraction_reference(V, seed):
    for a, b in _q_cases(V, seed, 40):
        pa, pb = Polynomial(V, a), Polynomial(V, b)
        _assert_q_poly(pa * pb, _q_ref_mul(a, b))
        _assert_q_poly(pb * pa, _q_ref_mul(a, b))
        g = Polynomial.gcd(pa, pb)
        if a or b:
            _assert_q_poly(g, _q_ref_gcd(a, b))
            assert g.leading() == 1
            assert (pa % g).is_zero() and (pb % g).is_zero()
        else:
            assert g.is_zero()
        if not b:
            with pytest.raises(StructuralError):
                divmod(pa, pb)
            continue
        q, r = divmod(pa, pb)
        want_q, want_r = _q_ref_divmod(a, b)
        _assert_q_poly(q, want_q)
        _assert_q_poly(r, want_r)
        assert pa // pb == q and pa % pb == r
        assert q * pb + r == pa and r.degree < pb.degree


@pytest.mark.parametrize("V", [QQ, PAdicQ(5)], ids=["QQ", "Q5"])
def test_q_kernels_build_one_fraction_per_coefficient(V, monkeypatch):
    # Products, divisions and gcds over Q run on plain ints and build each
    # output coefficient once; a Fraction per term operation costs a gcd
    # each, so here more of them fail.
    rng = random.Random("q-fractions")
    c = Polynomial(V, _q_random_coeffs(rng, 5, 3))
    a = c * Polynomial(V, _q_random_coeffs(rng, 5, 5))
    b = c * Polynomial(V, _q_random_coeffs(rng, 5, 5))
    assert a.degree == b.degree == 8
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    def count(op, *args):
        built.clear()
        with monkeypatch.context() as m:
            m.setattr(Fraction, "__new__", staticmethod(counted))
            out = op(*args)
        return out, len(built)

    p, n = count(Polynomial.__mul__, a, b)
    assert n <= len(p.coeffs)
    for u, v in ((a, b), (p, b), (a, c)):
        (q, r), n = count(divmod, u, v)
        assert n <= len(q.coeffs) + len(r.coeffs)
    g, n = count(Polynomial.gcd, a, b)
    assert g == c.monic() and n <= len(g.coeffs) + 1


def _q_results(p, q, a):
    """Every Q kernel on the pair at the point: products both ways, the two
    values, divmod (q nonzero) and the gcd (p or q nonzero)."""
    out = [p * q, q * p, p.evaluate(a), q.evaluate(a)]
    if q:
        out.append(divmod(p, q))
    if p or q:
        out.append(Polynomial.gcd(p, q))
    return out


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(coeff_lists, coeff_lists, points)
def test_a_kept_integer_form_matches_fresh_copies_and_fractions(ac, bc, a):
    # The integer form is built on the first read and kept; reading it again,
    # and reading the forms of the results, must give what fresh copies of
    # the same coefficients and plain Fraction arithmetic give.
    p, q = Polynomial(QQ, ac), Polynomial(QQ, bc)
    p.evaluate(a), q.evaluate(a)
    first = _q_results(p, q, a)
    assert _q_results(p, q, a) == first
    assert _q_results(Polynomial(QQ, ac), Polynomial(QQ, bc), a) == first
    ac, bc = _q_trim(ac), _q_trim(bc)
    assert list(first[0].coeffs) == _q_ref_mul(ac, bc)
    assert first[2:4] == [fraction_horner(ac, a), fraction_horner(bc, a)]
    if bc:
        assert [list(r.coeffs) for r in first[4]] == list(_q_ref_divmod(ac, bc))
    if ac or bc:
        assert list(first[-1].coeffs) == _q_ref_gcd(ac, bc)
    # results whose forms have been read act as fresh copies of themselves
    for r in [first[0], first[1], *(first[4] if bc else ())]:
        r.evaluate(a)
        fresh = Polynomial(QQ, r.coeffs), Polynomial(QQ, bc)
        assert _q_results(r, q, a) == _q_results(*fresh, a)


# -- parse_ratfun against the constant-function oracle ------------------------
#
# The oracle reads a text with the grammar of ivrf.parsing over an
# environment of constant RationalFunctions (x the generator, every literal
# and field symbol a constant function), so every operator of the text is an
# operator of RationalFunction and every intermediate value is canonical.

def _oracle_parse(field, text):
    env = {"x": RationalFunction.gen(field)}
    for name, val in field.symbol_env().items():
        env[name] = RationalFunction.constant(field, val)
    return parse_expression(
        text, env, lambda n: RationalFunction.constant(field, field.from_int(n)))


def _outcome(parse, field, text):
    """The parsed function, or the type and message of the error."""
    try:
        return parse(field, text)
    except IvrfError as e:
        return type(e), str(e)


def _assert_same_function(got, want):
    assert got == want
    assert got.to_str() == want.to_str()
    assert got.num == want.num and got.den == want.den
    assert ([type(c) for c in got.num.coeffs + got.den.coeffs]
            == [type(c) for c in want.num.coeffs + want.den.coeffs])


def _assert_parses_as_oracle(field, text):
    got = _outcome(parse_ratfun, field, text)
    want = _outcome(_oracle_parse, field, text)
    if isinstance(want, RationalFunction):
        assert isinstance(got, RationalFunction), (text, got)
        _assert_same_function(got, want)
    else:
        assert got == want, text


# exponents of constants: integers of either sign, and fractions, which only
# a Hahn field has exactly (and only on its monomials)
CONSTANT_EXPONENTS = [""] * 12 + ["^0", "^2", "^-1", "^-2", "**3", "^(-3)", "^{2/1}",
                                  "^{1/2}", "^{-1/2}", "^(1/3)"]
X_EXPONENTS = ["", "", "^0", "^2", "^4", "^-1", "^-2", "**3"]
GROUP_EXPONENTS = ["0", "2", "3", "-1", "-2"]


def _random_atom(rng, names):
    k = rng.randrange(5)
    if k == 0 or (k == 1 and not names):
        return f"{rng.randint(0, 7)}{rng.choice(CONSTANT_EXPONENTS)}"
    if k == 1:
        return f"{rng.choice(names)}{rng.choice(CONSTANT_EXPONENTS)}"
    if k == 2:
        return f"{rng.randint(1, 9)}x{rng.choice(X_EXPONENTS)}"  # juxtaposition
    return f"x{rng.choice(X_EXPONENTS)}"


def _random_text(rng, names, depth):
    """A seeded expression: sums, differences, products (written and
    juxtaposed), quotients, unary minus and integer powers of groups."""
    if depth == 0 or rng.random() < 0.25:
        return _random_atom(rng, names)
    a = _random_text(rng, names, depth - 1)
    b = _random_text(rng, names, depth - 1)
    return rng.choice([
        f"{a} + {b}", f"{a} - ({b})", f"({a})*({b})", f"({a}) / ({b})",
        f"{a}/({b})", f"({a})({b})", f"-({a}) + {b}", f"-{_random_atom(rng, names)}",
        f"({a})^{rng.choice(GROUP_EXPONENTS)}",
    ])


@pytest.mark.parametrize("name", sorted(GCD_FIELDS))
def test_parse_matches_constant_function_oracle(name):
    V, _ = GCD_FIELDS[name]
    names = sorted(V.symbol_env())
    rng = random.Random(f"parse:{name}")
    for _ in range(60):
        _assert_parses_as_oracle(V, _random_text(rng, names, 3))


@pytest.mark.parametrize("field, text, expected", [
    (QQ, "1/0", (StructuralError, "division by the zero function")),
    (QQ, "0^-1", (StructuralError, "zero has no inverse")),
    (QQ, "(x-x)^-1", (StructuralError, "zero has no inverse")),
    (QQ, "x/(x-x)", (StructuralError, "division by the zero function")),
    (QQ, "0^0", "1"),
    (QQ, "x^{1/2}", (StructuralError, "power 1/2 of a non-constant function")),
    (QQ, "2^{1/2}", (StructuralError, "no exact power 1/2 of 2")),
    (QQ, "(2-2)^{-1/2}", (ParseError, "division by zero in '(2-2)^{-1/2}'")),
    (QQ, "(x^2-1)/(x-1)", "x + 1"),
    (GF2, "(x+1)^2/(x^2+1)", "1"),
    (GF2, "1/(1+1)", (StructuralError, "division by the zero function")),
], ids=["1/0", "0^-1", "(x-x)^-1", "x/(x-x)", "0^0", "x^{1/2}", "2^{1/2}",
        "(2-2)^{-1/2}", "(x^2-1)/(x-1)", "GF2:(x+1)^2/(x^2+1)", "GF2:1/(1+1)"])
def test_parse_edge_cases(field, text, expected):
    got = _outcome(parse_ratfun, field, text)
    if isinstance(expected, str):
        assert got.to_str() == expected
        assert got.den == Polynomial.constant(field, field.one())
        _assert_same_function(got, _oracle_parse(field, text))
    else:
        assert got == expected


def test_polynomial_texts_parse_without_gcd_or_dense_power(monkeypatch):
    # A text that is a polynomial in x stays a sparse polynomial: x^k is one
    # term and a division by a constant scales, so no gcd is taken and no
    # dense polynomial is raised to a power.
    texts = [(QQ, "(3/7)*x^4 + (1/5)*x^2 + 2"), (TAdicRat(GF2_U), "u*t*x^3 + (1/t)*x")]
    wanted = [_oracle_parse(V, text) for V, text in texts]
    calls = []
    gcd, power = Polynomial.gcd, Polynomial.__pow__

    def counted_gcd(a, b):
        calls.append("gcd")
        return gcd(a, b)

    def counted_power(p, n):
        calls.append("pow")
        return power(p, n)

    monkeypatch.setattr(Polynomial, "gcd", staticmethod(counted_gcd))
    monkeypatch.setattr(Polynomial, "__pow__", counted_power)
    got = [parse_ratfun(V, text) for V, text in texts]
    assert calls == []
    for g, w in zip(got, wanted):
        _assert_same_function(g, w)


def test_parses_over_one_field_share_one_environment(monkeypatch):
    # the environment of x and the field's symbols is built once per field
    # object, on its first parse
    envs = []
    parse = ratfun.parse_expression

    def recorded(text, env, make_int):
        envs.append(env)
        return parse(text, env, make_int)

    monkeypatch.setattr(ratfun, "parse_expression", recorded)
    V, W = TAdicRat(FiniteField(2, 2)), TAdicRat(FiniteField(2, 2))
    for text in ("1", "t*x + u", "1/(x + t)"):
        _assert_same_function(parse_ratfun(V, text), _oracle_parse(V, text))
    parse_ratfun(W, "1")
    assert envs[0] is envs[1] is envs[2] and envs[3] is not envs[0]
    assert sorted(envs[0]) == ["t", "u", "x"]


def test_power_of_a_sum_squares_and_multiplies(monkeypatch):
    products = []
    sparse_mul = ratfun._sparse_mul

    def counted(a, b):
        products.append(a)
        return sparse_mul(a, b)

    monkeypatch.setattr(ratfun, "_sparse_mul", counted)
    got = parse_ratfun(QQ, "(x + 1)^200")
    assert len(products) <= 2 * (200).bit_length()
    _assert_same_function(got, _oracle_parse(QQ, "(x + 1)^200"))


@pytest.mark.parametrize("V, text", [
    (TAdicRat(GF2_U), "x^7 + (u/t)*x^3 + 1"),
    (HahnFinite(GF2_U), "(1/t)*x^4 + x"),
    (TAdicRat(GF2_U), "(u*t)^3*x^2 + x^12*t"),
], ids=["tadic", "hahn", "tadic-powers"])
def test_monomials_parse_without_coefficient_products(monkeypatch, V, text):
    # x^k and c*x^k take no product of coefficients (elements of V): the
    # power of one term powers its coefficient, which x holds as the field's
    # one, and a product with x^k shifts the exponents.  u/t takes products
    # in GF(2)(u), a level below, and (u*t)^3 is one product and one power.
    want = _oracle_parse(V, text)
    zero = V.zero()
    products = []

    def counting(cls, name):
        mul = getattr(cls, name)

        def counted(a, b):
            if type(a) is type(zero) and getattr(a, "var", None) == getattr(zero, "var", None):
                products.append((str(a), str(b)))
            return mul(a, b)
        monkeypatch.setattr(cls, name, counted)

    for cls in (RationalFunction, HahnElement):
        counting(cls, "__mul__")
        counting(cls, "__rmul__")
    got = parse_ratfun(V, text)
    monkeypatch.undo()
    assert products == ([("u", "t")] if "u*t" in text else [])
    _assert_same_function(got, want)


@pytest.mark.parametrize("V", [QQ, GF4, GF2_U, TAdicRat(GF2_U), LexRank2(GF2),
                               HahnFinite(GF2_U)], ids=str)
def test_a_bare_polynomial_is_canonical_without_cancelling(monkeypatch, V):
    # RationalFunction(p) is p/1, canonical as built: no _cancel, no _monic
    rng = random.Random(f"bare:{V}")
    polys = [Polynomial.zero(V), Polynomial.constant(V, V.from_int(3)),
             Polynomial(V, [V.one(), V.zero(), V.from_int(2)])]
    if hasattr(V, "random_element"):
        polys.append(_random_poly(V, rng, 3))
    calls = []
    for name in ("_cancel", "_monic"):
        fn = getattr(ratfun, name)
        monkeypatch.setattr(ratfun, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    got = [RationalFunction(p) for p in polys]
    assert calls == []
    one = Polynomial.constant(V, V.one())
    for p, r in zip(polys, got):
        assert r.num == p and r.den == one
        assert r == RationalFunction(p, one)


@pytest.mark.parametrize("V", [QQ, GF4, GF2_U, TAdicRat(GF4), TAdicRat(GF2_U),
                               LexRank2(GF2), HahnFinite(GF2), HahnFinite(GF2_U)],
                         ids=str)
def test_coefficients_are_zero_exactly_when_false(V):
    # the coefficient protocol of ratfun: zero tests are truth values
    rng = random.Random(f"truth:{V}")
    if V is QQ:
        draws = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(20)]
    else:
        draws = [(getattr(V, "random_element", None) or V.random)(rng) for _ in range(20)]
    zero = V.zero()
    nonzero = [c for c in draws if c != zero]
    assert nonzero and all(nonzero)
    assert not any(c for c in draws if c == zero)
    assert not zero and not (V.one() - V.one()) and V.one()


@pytest.mark.parametrize("V", [QQ, GF2, GF4, GF2_U, TAdicRat(GF4), TAdicRat(GF2_U),
                               LexRank2(GF2), HahnFinite(GF2), HahnFinite(GF2_U)],
                         ids=str)
def test_low_degree_is_the_least_exponent_of_the_support(V):
    # dense polynomials, and packed ones over GF(2), with and without gaps
    rng = random.Random(f"low-degree:{V}")
    draw = (lambda r: Fraction(r.randint(-3, 3), r.randint(1, 4))) if V is QQ else (
        getattr(V, "random_element", None) or V.random)
    polys = [Polynomial.zero(V), Polynomial.constant(V, V.one()),
             Polynomial(V, [V.zero()] * 3 + [V.one()])]
    for _ in range(40):
        polys.append(Polynomial(V, [V.zero() if rng.random() < 0.5 else draw(rng)
                                    for _ in range(rng.randint(0, 6))]))
    assert {type(p) is _GF2Polynomial for p in polys} == {V is GF2}
    for p in polys:
        support = p.support()
        assert p.low_degree() == (support[0] if support else None)
        # the one-term test, False for the zero polynomial
        assert (p.low_degree() == p.degree) == (len(support) == 1)
    assert sum(len(p.support()) == 1 for p in polys) > 1


def test_fractional_power_of_zero_is_of_a_non_monomial():
    # a packed zero has no least exponent, so it is no one-term polynomial
    H = HahnFinite(GF2)
    for parse in (H.parse, lambda text: parse_ratfun(H, text)):
        with pytest.raises(StructuralError) as err:
            parse("0^{1/2}")
        assert str(err.value) == "fractional power of a non-monomial"


def test_sparse_product_drops_cancelled_terms():
    # (x + 1)(x - 1) = x^2 - 1 has no x term, so a sum that leaves only its
    # constant is read as a constant
    one = Fraction(1)
    assert ratfun._sparse_mul({0: one, 1: one}, {0: -one, 1: one}) == {0: -one, 2: one}


@pytest.mark.parametrize("V, text, error, message", [
    (QQ, "(x+1]", ParseError, "bad character at position 4: ']'"),
    (QQ, "(x+1}", ParseError, "expected ')', found '}'"),
    # t is a constant coefficient: its missing square root is the coefficient's
    (TAdicRat(FiniteField(2, 2)), "(t + 1)^{1/2}", StructuralError,
     "no exact power 1/2 of t + 1"),
    (LexRank2(GF2), "t1^{1/2}", StructuralError, "no exact power 1/2 of t1"),
], ids=["bracket", "brace", "tadic-root", "lex2-root"])
def test_parse_error_message(V, text, error, message):
    # the end-of-input and t^{1/2}*x messages are checked with their exit
    # code in tests/test_cli.py
    with pytest.raises(error) as err:
        parse_ratfun(V, text)
    assert str(err.value) == message


def test_parse_matches_oracle_on_benchmark_corpus(monkeypatch):
    # The first 150 items of the certify and tower corpora of the benchmark,
    # read from perfbench/corpus.py without changing it.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import corpus

    for workload in ("certify", "tower"):
        fields = {}
        for item in corpus.build(workload, 2024)[:150]:
            V = fields.get(item.domain)
            if V is None:
                V = fields[item.domain] = domain_from_config(
                    corpus.DOMAINS[item.domain]["config"]).field
            _assert_same_function(parse_ratfun(V, item.text), _oracle_parse(V, item.text))
