import operator
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from ivrf.errors import ParseError, PreconditionError, StructuralError
from ivrf.ff import FiniteField, RatFuncField
from ivrf.fields import (ConstantSubfield, FrobeniusSubfield, HahnElement,
                         HahnFinite, LexRank2, PAdicQ, PrimePowerSubfield, TAdicRat,
                         _spread, field_from_config, subfield_from_config)
from ivrf.intr import DomainSpec, domain_from_config
from ivrf.ordgroup import INFINITY
from ivrf.ratfun import RationalFunction

ALL_FIELDS = [
    PAdicQ(5),
    TAdicRat(FiniteField(2, 2)),
    LexRank2(FiniteField(2)),
    HahnFinite(RatFuncField(FiniteField(2), "u")),
]
HAHN_FIELDS = [
    HahnFinite(FiniteField(2)),
    HahnFinite(FiniteField(2, 2)),
    HahnFinite(RatFuncField(FiniteField(2), "u")),
]


class TestValuationExamples:
    def test_padic(self):
        V = PAdicQ(5)
        assert V.valuation(Fraction(50)) == V.group.element(2)
        assert V.valuation(Fraction(0)) is INFINITY

    def test_tadic(self):
        V = TAdicRat(FiniteField(2))
        x = V.parse("t^2/(1+t)")
        assert V.valuation(x) == V.group.element(2)

    def test_hahn_least_exponent(self):
        V = HahnFinite(FiniteField(2))
        x = V.parse("t^{1/2} + t")
        assert V.valuation(x) == V.group.element(Fraction(1, 2))

    def test_lex_rank2(self):
        V = LexRank2(FiniteField(2))
        assert V.valuation(V.gen1()) == V.group.element(1, 0)
        assert V.valuation(V.gen2()) == V.group.element(0, 1)
        assert V.valuation(V.parse("t1/t2^5")) == V.group.element(1, -5)


class TestResidueExamples:
    def test_padic_seven_halves(self):
        V = PAdicQ(5)
        assert V.residue(Fraction(7, 2)) == V.residue_field.from_int(1)

    def test_kills_the_ideal(self):
        V = TAdicRat(FiniteField(2, 2))
        c = V.parse("u + t^2")
        assert V.residue(V.gen() * c) == V.residue_field.zero()

    def test_drops_higher_order(self):
        V = TAdicRat(FiniteField(2, 2))
        assert V.residue(V.parse("u + t")) == FiniteField(2, 2).gen()

    def test_negative_valuation_rejected(self):
        V = PAdicQ(5)
        with pytest.raises(PreconditionError):
            V.residue(Fraction(1, 5))


def _multiplicity(p, n):
    """The exponent of p in the nonzero integer n, by repeated division."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@pytest.mark.parametrize("p", [2, 3, 5])
def test_padic_valuation_and_residue_by_definition(p):
    # v(n/d) = v_p(n) - v_p(d) and res(n/d) = n * d^-1 mod p on seeded
    # fractions: zero, negatives, and powers of p in either part.
    V = PAdicQ(p)
    rng = random.Random(p)
    xs = [Fraction(0), Fraction(-p), Fraction(1, p ** 3), Fraction(-p ** 4, 7)]
    for _ in range(300):
        n = rng.choice([-1, 1]) * rng.randint(1, 60) * p ** rng.randint(0, 3)
        xs.append(Fraction(n, rng.randint(1, 60) * p ** rng.randint(0, 3)))
    for x in xs:
        n, d = x.numerator, x.denominator
        if not n:
            assert V.valuation(x) is INFINITY
            assert V.residue(x) == V.residue_field.zero()
            continue
        v = _multiplicity(p, n) - _multiplicity(p, d)
        assert V.valuation(x) == V.group.element(v)
        if v < 0:
            with pytest.raises(PreconditionError, match=r"^residue needs valuation >= 0$"):
                V.residue(x)
        else:
            assert V.residue(x) == V.residue_field.from_int(n * pow(d, -1, p))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_padic_int_valuation_counts_the_factors_p(p):
    # the integer routine behind valuation: any sign, unreduced products,
    # and an error rather than an endless loop at 0
    V = PAdicQ(p)
    rng = random.Random(f"int-valuation:{p}")
    for _ in range(300):
        m, k = rng.randint(-10 ** 6, 10 ** 6), rng.randint(0, 6)
        if m % p:
            assert V.int_valuation(m * p ** k) == k
    with pytest.raises(PreconditionError, match=r"^v_p\(0\) is not an integer$"):
        V.int_valuation(0)


def test_padic_int_valuation_at_2_matches_the_division_loop():
    # v_2 is read off the lowest set bit; it must agree with counting the
    # factors 2 one division at a time, for either sign and large k
    def by_division(n):
        v = 0
        while not n % 2:
            n //= 2
            v += 1
        return v

    V = PAdicQ(2)
    rng = random.Random("int-valuation:2")
    for k in range(201):
        for m in (1, -1, 3, -7, rng.randrange(1, 10 ** 30, 2), -rng.randrange(1, 2 ** 90, 2)):
            n = m << k
            assert V.int_valuation(n) == by_division(n) == k
    with pytest.raises(PreconditionError, match=r"^v_p\(0\) is not an integer$"):
        V.int_valuation(0)


@pytest.mark.parametrize("V", ALL_FIELDS, ids=lambda v: v.describe())
class TestValuationAxioms:
    def test_multiplicative(self, V):
        rng = random.Random(11)
        for _ in range(120):
            x, y = V.random_nonzero(rng), V.random_nonzero(rng)
            assert V.valuation(x * y) == V.valuation(x) + V.valuation(y)

    def test_ultrametric_equality_case(self, V):
        rng = random.Random(12)
        zero = V.group.zero()
        checked = 0
        while checked < 120:
            x, y = V.random_nonzero(rng), V.random_nonzero(rng)
            vx, vy = V.valuation(x), V.valuation(y)
            s = x + y
            if vx == vy:
                if s != V.zero():
                    assert V.valuation(s) >= vx
                continue
            assert V.valuation(s) == min(vx, vy)
            checked += 1

    def test_residue_homomorphism(self, V):
        rng = random.Random(13)
        zero = V.group.zero()
        checked = 0
        while checked < 120:
            x, y = V.random_nonzero(rng), V.random_nonzero(rng)
            if V.valuation(x) < zero or V.valuation(y) < zero:
                continue
            assert V.residue(x * y) == V.residue(x) * V.residue(y)
            assert V.residue(x + y) == V.residue(x) + V.residue(y)
            assert (V.residue(x) != V.residue_field.zero()) == (V.valuation(x) == zero)
            checked += 1

    def test_element_of_value(self, V):
        rng = random.Random(14)
        for _ in range(40):
            x = V.random_nonzero(rng)
            v = V.valuation(x)
            if not v.in_lattice():
                continue
            t = V.element_of_value(v)
            assert V.valuation(t) == v

    def test_lift_residue(self, V):
        rng = random.Random(15)
        L = V.residue_field
        for _ in range(30):
            r = L.random(rng) if getattr(L, "is_finite", False) else L.random(rng, 1)
            if r == L.zero():
                continue
            x = V.lift(r)
            assert V.valuation(x) == V.group.zero()
            assert V.residue(x) == r


class TestPVD:
    def setup_method(self):
        self.F4 = FiniteField(2, 2)
        self.V = TAdicRat(self.F4)
        self.D = DomainSpec.pvd(self.V, PrimePowerSubfield(self.F4, 1))
        self.u = self.V.lift(self.F4.gen())
        self.t = self.V.gen()

    def test_examples(self):
        assert not self.D.member(self.u)
        assert self.D.member(self.u * self.t)
        assert self.D.member(self.V.one() + self.u * self.t)

    def test_ring_closure_sampled(self):
        rng = random.Random(21)
        members = []
        while len(members) < 40:
            x = self.V.random_element(rng)
            if self.D.member(x):
                members.append(x)
        for _ in range(500):
            a, b = rng.choice(members), rng.choice(members)
            assert self.D.member(a - b)
            assert self.D.member(a * b)
        assert self.D.member(self.V.zero())
        assert self.D.member(self.V.one())

    def test_neither_d_nor_inverse(self):
        # an element of V with residue outside F fails in both directions
        assert not self.D.member(self.u)
        assert not self.D.member(self.V.one() / self.u)


class TestSubfields:
    def test_primepower(self):
        F4 = FiniteField(2, 2)
        sub = PrimePowerSubfield(F4, 1)
        assert sub.contains(F4.one())
        assert not sub.contains(F4.gen())
        assert len(list(sub.elements())) == 2

    def test_constants(self):
        L = RatFuncField(FiniteField(2), "u")
        sub = ConstantSubfield(L)
        assert sub.contains(L.one())
        assert not sub.contains(L.gen())

    def test_frobenius(self):
        L = RatFuncField(FiniteField(2), "u")
        sub = FrobeniusSubfield(L, 1)
        u = L.gen()
        assert sub.contains(u ** 2)
        assert sub.contains((1 + u ** 2) / u ** 4)
        assert not sub.contains(u)
        assert not sub.contains((1 + u) / u ** 2)
        assert sub.purely_inseparable_exponent == 1

    def test_purely_inseparable_exponents(self):
        L = RatFuncField(FiniteField(2), "u")
        F4 = FiniteField(2, 2)
        assert FrobeniusSubfield(L, 2).purely_inseparable_exponent == 2
        assert ConstantSubfield(L).purely_inseparable_exponent is None
        assert PrimePowerSubfield(F4, 1).purely_inseparable_exponent is None

    def test_frobenius_closed_under_ops(self):
        L = RatFuncField(FiniteField(2), "u")
        sub = FrobeniusSubfield(L, 1)
        rng = random.Random(5)
        members = [c for c in (x ** 2 for x in L.small_elements())]
        for _ in range(100):
            a, b = rng.choice(members), rng.choice(members)
            assert sub.contains(a + b)
            assert sub.contains(a * b)


class TestParsing:
    @pytest.mark.parametrize("V, text, expected", [
        (PAdicQ(5), "2^{1/2}", (StructuralError, "no exact power 1/2 of 2")),
        (PAdicQ(5), "4^{1/2}", (StructuralError, "no exact power 1/2 of 4")),
        (PAdicQ(5), "(1/4)^{-1/2}", (StructuralError, "no exact power -1/2 of 1/4")),
        (PAdicQ(5), "7/2 + 5^2", "57/2"),
        (PAdicQ(5), "x", (ParseError, "unknown symbol 'x'")),
        (TAdicRat(FiniteField(2, 2)), "t^{1/2}", (StructuralError, "no exact power 1/2 of t")),
        (TAdicRat(FiniteField(2, 2)), "(u*t)^{-2}", "u/t^2"),
        (LexRank2(FiniteField(3)), "t2^{1/2}", (StructuralError, "no exact power 1/2 of t2")),
        (HahnFinite(RatFuncField(FiniteField(2), "u")), "u*(t^2)^{1/4}", "u*t^{1/2}"),
        (HahnFinite(RatFuncField(FiniteField(2), "u")), "(1+t)^{1/2}",
         (StructuralError, "fractional power of a non-monomial")),
    ], ids=["Q:2^1/2", "Q:4^1/2", "Q:(1/4)^-1/2", "Q:sum", "Q:x", "tadic:t^1/2",
            "tadic:(ut)^-2", "lex2:t2^1/2", "hahn:monomial", "hahn:non-monomial"])
    def test_element_powers_follow_the_function_rule(self, V, text, expected):
        # an element text takes a power by the rule parse_ratfun applies to
        # a constant: the field's exact power or an error, never a float
        if isinstance(expected, str):
            x = V.parse(text)
            assert str(x) == expected and type(x) is type(V.zero())
            return
        error, message = expected
        with pytest.raises(error) as err:
            V.parse(text)
        assert str(err.value) == message

    def test_round_trips(self):
        cases = [
            (PAdicQ(5), ["7/2", "-3", "50"]),
            (TAdicRat(FiniteField(2, 2)), ["(u + t)/(1 + u*t^2)", "t^2", "u"]),
            (HahnFinite(RatFuncField(FiniteField(2), "u")),
             ["t^{1/2} + u*t", "(1+t)/t^2", "u^2"]),
            (LexRank2(FiniteField(3)), ["t1/t2", "(1+t1)*t2^2", "2"]),
        ]
        for V, texts in cases:
            for s in texts:
                x = V.parse(s)
                assert V.parse(str(x)) == x
        for H in HAHN_FIELDS:
            rng = random.Random(f"hahn-round-trip:{H.describe()}")
            for _ in range(10):
                x = H.random_element(rng) / H.random_nonzero(rng)
                y = H.parse(str(x))
                assert y == x and hash(y) == hash(x)

    def test_config_round_trip(self):
        V = field_from_config({"variant": "hahn", "residue": {"kind": "ratfunc", "q": 2}})
        assert V.describe().startswith("Hahn")
        D = domain_from_config({
            "field": {"variant": "tadic", "residue": {"kind": "gf", "q": 4}},
            "subfield": {"kind": "subgf", "order": 2}})
        assert not D.member(D.field.lift(FiniteField(2, 2).gen()))

    def test_whole_residue_field_config_is_none(self):
        L = RatFuncField(FiniteField(2), "u")
        assert subfield_from_config(L, {"kind": "full"}) is None
        assert subfield_from_config(L, {}) is None


def test_hahn_canonical_equality():
    H = HahnFinite(FiniteField(2))
    t = H.gen()
    a = (1 + t) ** 3 / ((1 + t) ** 2)
    assert a == 1 + t
    b = (t ** Fraction(1, 2) + t) / t ** Fraction(1, 2)
    assert b == 1 + t ** Fraction(1, 2)
    assert H.valuation(b) == H.group.zero()
    # seeded random elements on the lattices (1/2)Z and (1/3)Z: canonical
    # forms make the operations undo each other exactly, with equal hashes,
    # and a product lands back on the coarsest lattice it lies in
    for H in HAHN_FIELDS:
        half, third = H.monomial(Fraction(1, 2)), H.monomial(Fraction(1, 3))
        assert half * half == H.gen() and hash(half * half) == hash(H.gen())
        rng = random.Random(f"hahn-canonical:{H.describe()}")
        for _ in range(10):
            x = H.random_nonzero(rng) * half + H.random_element(rng)
            y = H.random_nonzero(rng) * third + H.random_element(rng)
            for z in ((x * y) / y, (x + y) - y):
                assert z == x and hash(z) == hash(x)


def test_hahn_operators_match_the_spread_functions():
    # operands on the lattices t^(1/2) and t^(1/3), and ints on either side
    # (1 - h, h - 1, 2 / h, h / 2): every result, spread onto the lcm lattice
    # of its operands, is the operation on the operands spread onto it
    H = HahnFinite(FiniteField(3))
    half, third = H.monomial(Fraction(1, 2)), H.monomial(Fraction(1, 3))
    rng = random.Random("hahn-operators")
    xs = [1 - half, half + 2 * third ** 2, H.random_nonzero(rng) * half + third]
    ys = [third, 1 + half * third, H.random_nonzero(rng) * third - half]

    def lattice(a):
        return 1 if isinstance(a, int) else a.m

    def spread(a, k):
        if isinstance(a, int):
            return RationalFunction.constant(H.kappa, H.kappa.from_int(a), "s")
        return _spread(a.f, k // a.m)

    pairs = ([(x, y) for x in xs for y in ys] + [(n, x) for x in xs for n in (1, 2)]
             + [(x, n) for x in xs for n in (1, 2)])
    for a, b in pairs:
        k = lcm(lattice(a), lattice(b))
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            z = op(a, b)
            assert isinstance(z, HahnElement) and k % z.m == 0
            assert _spread(z.f, k // z.m) == op(spread(a, k), spread(b, k)), (a, b, op)
    for x in xs:
        for zero in (0, H.zero()):
            with pytest.raises(StructuralError):
                x / zero


# The valued-field surface every variant shares: one case per field, with
# the field's symbols and an element of negative value written as text.
GF4 = FiniteField(2, 2)
GF2_U = RatFuncField(FiniteField(2), "u")
SURFACE_CASES = [
    (PAdicQ(5), set(), "1/5"),
    (TAdicRat(GF4), {"t", "u"}, "1/t"),
    (TAdicRat(GF2_U), {"t", "u"}, "u/t"),
    (LexRank2(GF4), {"t1", "t2", "u"}, "1/t2"),
    (LexRank2(FiniteField(2)), {"t1", "t2"}, "t2/t1"),
    (HahnFinite(GF4), {"t", "u"}, "t^{-1/2}"),
    (HahnFinite(GF2_U), {"t", "u"}, "t^{-1/2}"),
]


@pytest.mark.parametrize("V, symbols, negative", SURFACE_CASES,
                         ids=[V.describe() for V, _, _ in SURFACE_CASES])
class TestSharedSurface:
    def test_symbol_env(self, V, symbols, negative):
        env = V.symbol_env()
        assert set(env) == symbols
        for name, value in V.residue_field.symbol_env().items():
            assert env[name] == V.lift(value)

    def test_zero_and_one(self, V, symbols, negative):
        zero, one = V.zero(), V.one()
        assert V.valuation(zero) is INFINITY
        assert V.valuation(one) == V.group.zero()
        assert V.residue(one) == V.residue_field.one()
        assert zero + one == one and one * one == one and zero * one == zero

    def test_from_int(self, V, symbols, negative):
        for n in range(-3, 6):
            # n as a sum of |n| ones, negated when n < 0
            total = V.zero()
            for _ in range(abs(n)):
                total = total + V.one()
            if n < 0:
                total = -total
            assert V.from_int(n) == total
            assert V.residue(V.from_int(n)) == V.residue_field.from_int(n)

    def test_residue_zero_on_the_ideal(self, V, symbols, negative):
        assert V.residue(V.zero()) == V.residue_field.zero()
        positive = (V.group.element(0, 1) if V.group.rank == 2
                    else V.group.element(Fraction(1, 2) if V.group.divisible[0] else 1))
        rng = random.Random(f"surface:{V.describe()}")
        for _ in range(10):
            x = V.random_nonzero(rng)
            x = x * V.element_of_value(positive - V.valuation(x))
            assert V.valuation(x) == positive
            assert V.residue(x) == V.residue_field.zero()

    def test_residue_rejects_negative_value(self, V, symbols, negative):
        x = V.parse(negative)
        assert V.valuation(x) < V.group.zero()
        with pytest.raises(PreconditionError):
            V.residue(x)


ANGULAR_FIELDS = [PAdicQ(5), TAdicRat(FiniteField(2, 2)),
                  TAdicRat(RatFuncField(FiniteField(2), "u")), LexRank2(FiniteField(2)),
                  HahnFinite(FiniteField(2)), HahnFinite(RatFuncField(FiniteField(2), "u"))]


@pytest.mark.parametrize("V", ANGULAR_FIELDS, ids=lambda V: V.describe())
@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_angular_component(V, seed):
    """ac(x) is the residue of x / element_of_value(v(x)): multiplicative,
    the residue on units, 1 on the chosen elements of each value, r on the
    lift of r, and undefined at 0."""
    L, rng = V.residue_field, random.Random(seed)
    x, y = V.random_nonzero(rng), V.random_nonzero(rng)
    ac = V.angular
    assert ac(x * y) == ac(x) * ac(y)
    assert ac(x / y) == ac(x) / ac(y)
    gamma = V.valuation(x)
    unit = x / V.element_of_value(gamma)
    assert V.valuation(unit) == V.group.zero()
    assert ac(x) == ac(unit) == V.residue(unit)
    assert ac(V.element_of_value(gamma)) == L.one()
    r = L.random(rng)
    if r:
        assert ac(V.lift(r)) == r
    with pytest.raises(PreconditionError):
        ac(V.zero())
