import random
from fractions import Fraction
from itertools import combinations

import pytest
from click.testing import CliRunner

from ivrf import newton, ordgroup, suites
from ivrf.cli import main
from ivrf.errors import PreconditionError, StructuralError
from ivrf.ff import FiniteField, RatFuncField
from ivrf.fields import HahnFinite, LexRank2, PAdicQ, TAdicRat
from ivrf.newton import local_poly, minval_poly, minval_rat, predict, slopes_check
from ivrf.ordgroup import INFINITY, GroupMismatchError
from ivrf.ratfun import Polynomial, RationalFunction

Q5 = PAdicQ(5)
G = Q5.group


def qp(*cs):
    return Polynomial(Q5, [Fraction(c) for c in cs])


def direct_min(f, V, gamma):
    # the independent oracle: the literal minimum over the support lines
    return min(V.valuation(f.coeffs[i]) + gamma.scale(i) for i in f.support())


class TestMinvalPoly:
    def test_constant(self):
        pl = minval_poly(qp(50), Q5)
        assert len(pl.segments) == 1
        assert pl.segments[0].slope == 0
        assert pl.eval(G.element(-7)) == G.element(2)

    def test_five_plus_x(self):
        pl = minval_poly(qp(5, 1), Q5)
        assert [s.slope for s in pl.segments] == [1, 0]
        assert pl.breakpoints() == [G.element(1)]
        assert pl.eval(G.element(Fraction(1, 2))) == G.element(Fraction(1, 2))

    def test_cubic(self):
        pl = minval_poly(qp(25, 5, 0, 1), Q5)
        assert [s.slope for s in pl.segments] == [3, 1, 0]
        assert pl.breakpoints() == [G.element(Fraction(1, 2)), G.element(1)]
        assert not pl.breakpoints()[0].in_lattice()
        assert pl.eval(G.element(Fraction(2, 3))) == G.element(Fraction(5, 3))

    def test_zero_rejected(self):
        with pytest.raises(StructuralError):
            minval_poly(qp(), Q5)

    def test_breakpoint_count_bound(self):
        rng = random.Random(2)
        for _ in range(100):
            f = Polynomial(Q5, [Q5.random_element(rng) for _ in range(9)])
            if f.is_zero():
                continue
            pl = minval_poly(f, Q5)
            assert len(pl.breakpoints()) <= max(f.support())


def _hull_poly(V, rng):
    # coefficients of scattered values, some zero, so the hull drops lines
    G = V.group
    coeffs = []
    for _ in range(rng.randint(1, 7)):
        if rng.random() < 0.2:
            coeffs.append(V.zero())
            continue
        if G.rank == 2:
            gamma = G.element(rng.randint(-3, 3), rng.randint(-4, 4))
        else:
            gamma = G.element(Fraction(rng.randint(-12, 12), rng.choice([1, 2, 3])))
        coeffs.append(V.element_of_value(gamma) * V.lift(V.residue_field.one()))
    return Polynomial(V, coeffs)


def _canonical(g):
    return all(type(c) is int or c.denominator != 1 for c in g.coords)


@pytest.mark.parametrize("V", [LexRank2(FiniteField(2)), HahnFinite(FiniteField(2))],
                         ids=lambda v: v.describe())
def test_hull_matches_brute_force(V):
    """The breakpoints are exactly the values where two lines tie for the
    minimum over all lines, each piece is that minimum, and every integral
    coordinate of a breakpoint or an intercept is an ``int``."""
    rng = random.Random(31)
    G = V.group
    unit = G.element(1, 0) if G.rank == 2 else G.element(1)
    breaks = fractional = 0
    for _ in range(60):
        f = _hull_poly(V, rng)
        if f.is_zero():
            continue
        lines = [(i, V.valuation(f.coeffs[i])) for i in f.support()]
        ties = set()
        for (i, bi), (j, bj) in combinations(lines, 2):
            gamma = (bj - bi).scale(Fraction(1, i - j))
            values = [b + gamma.scale(k) for k, b in lines]
            if values.count(min(values)) > 1:
                ties.add(gamma)
        env = minval_poly(f, V)
        assert env.breakpoints() == sorted(ties)
        for seg in env.segments:
            lo, hi = seg.lo, seg.hi
            inner = (G.zero() if lo is None and hi is None else hi - unit if lo is None
                     else lo + unit if hi is None else (lo + hi).scale(Fraction(1, 2)))
            for gamma in (lo, inner, hi):
                if gamma is not None:
                    assert seg.value_at(gamma) == direct_min(f, V, gamma)
            assert _canonical(seg.intercept)
            assert all(_canonical(g) for g in (lo, hi) if g is not None)
        breaks += len(ties)
        fractional += sum(any(type(c) is not int for c in g.coords) for g in ties)
    assert breaks > 40 and fractional


class TestMinvalRat:
    def test_five_plus_x_over_x(self):
        phi = RationalFunction(qp(5, 1), qp(0, 1))
        pl = minval_rat(phi, Q5)
        assert pl.eval(G.element(0)) == G.element(0)
        assert pl.eval(G.element(Fraction(1, 2))) == G.element(0)
        assert pl.eval(G.element(2)) == G.element(-1)

    def test_constant(self):
        pl = minval_rat(RationalFunction(qp(75)), Q5)
        segs = pl.merged().segments
        assert len(segs) == 1 and segs[0].slope == 0
        assert pl.eval(G.element(9)) == G.element(2)

    def test_theta_values(self):
        Q2 = PAdicQ(2)
        P = lambda *cs: Polynomial(Q2, [Fraction(c) for c in cs])
        theta = RationalFunction(P(6, 0, 0, 0, 6), P(6, 0, 37, 0, 6))
        pl = minval_rat(theta, Q2)
        assert pl.eval(Q2.group.element(0)) == Q2.group.element(1)
        assert pl.eval(Q2.group.element(1)) == Q2.group.element(0)

    def test_difference_of_envelopes(self):
        rng = random.Random(3)
        for _ in range(60)         :
            f = Polynomial(Q5, [Q5.random_element(rng) for _ in range(5)])
            g = Polynomial(Q5, [Q5.random_element(rng) for _ in range(4)])
            if f.is_zero() or g.is_zero():
                continue
            phi = RationalFunction(f, g)
            pl = minval_rat(phi, Q5)
            for _ in range(10):
                gamma = G.element(Fraction(rng.randint(-9, 9), rng.randint(1, 3)))
                expect = (direct_min(phi.num, Q5, gamma)
                          - direct_min(phi.den, Q5, gamma))
                assert pl.eval(gamma) == expect

    def test_keeps_the_envelopes_it_was_made_from(self):
        phi = RationalFunction(qp(5, 1), qp(0, 1))
        pl = minval_rat(phi, Q5)
        assert pl.num.poly == phi.num and pl.den.poly == phi.den
        assert pl == pl.num - pl.den

    def test_slopes_suite_and_sweep_build_each_envelope_once(self, monkeypatch):
        built = []
        minval = newton.minval_poly

        def spy(f, V):
            built.append(f)
            return minval(f, V)
        monkeypatch.setattr(newton, "minval_poly", spy)
        monkeypatch.setattr(suites, "minval_poly", spy)
        assert suites.run_suite("slopes", seed=2024, samples=200)["ok"]
        assert len(built) == 400  # a numerator and a denominator per sample
        built.clear()
        res = CliRunner().invoke(main, ["minval", "--config", '{"variant":"padic","p":5}',
                                        "-f", "(x^3+5)/(x-25)", "--sweep", "3"])
        assert res.exit_code == 0, res.output
        assert len(built) == 2


class TestLocalPoly:
    def test_at_unit(self):
        loc = local_poly(minval_poly(qp(5, 1), Q5), Fraction(1), G.zero())
        assert loc.degree == 1
        assert loc.support() == [1]
        assert loc.leading() == loc.field.one()

    def test_at_uniformizer(self):
        loc = local_poly(minval_poly(qp(5, 1), Q5), Fraction(5), G.element(1))
        assert loc.degree == 1
        assert loc.support() == [0, 1]
        # x + 1 vanishes at the residue of -1
        assert loc.evaluate(Q5.residue_field.from_int(-1)) == Q5.residue_field.zero()

    def test_pure_power(self):
        loc = local_poly(minval_poly(qp(0, 0, 1), Q5), Fraction(7), G.zero())
        assert loc.support() == [2]
        assert loc.leading() == loc.field.one()

    def test_support_matches_min(self):
        rng = random.Random(4)
        for _ in range(150):
            f = Polynomial(Q5, [Q5.random_element(rng) for _ in range(6)])
            if f.is_zero():
                continue
            t = Q5.random_element(rng)
            if t == 0:
                continue
            vt = Q5.valuation(t)
            loc = local_poly(minval_poly(f, Q5), t, vt)
            mv = direct_min(f, Q5, vt)
            achieved = [i for i in f.support()
                        if Q5.valuation(f.coeffs[i]) + vt.scale(i) == mv]
            assert loc.support() == achieved
            assert loc.degree == max(achieved)


def _unit(V, rng):
    L = V.residue_field
    while True:
        r = L.random(rng) if getattr(L, "is_finite", False) else L.random(rng, degree=1)
        if r != L.zero():
            return V.lift(r)


def _definition_local_poly(f, t, V):
    # residues of every coefficient of f(t*x) / (a_d t^d), d the largest
    # index attaining the minimum of v(a_i t^i)
    vals = {i: V.valuation(f.coeffs[i] * t ** i) for i in f.support()}
    mv = min(vals.values())
    d = max(i for i in vals if vals[i] == mv)
    lead = f.coeffs[d] * t ** d
    return Polynomial(V.residue_field,
                      [V.residue(c * t ** i / lead) for i, c in enumerate(f.coeffs)])


GF2U = RatFuncField(FiniteField(2), "u")


@pytest.mark.parametrize("V", [Q5, TAdicRat(FiniteField(2, 2)), TAdicRat(GF2U),
                               LexRank2(FiniteField(2)), HahnFinite(FiniteField(2)),
                               HahnFinite(GF2U)],
                         ids=lambda v: v.describe())
def test_local_poly_matches_definition(V):
    rng = random.Random(12)
    zero = V.group.zero()
    off_unit = several = 0
    for k in range(30):
        t = V.random_nonzero(rng)
        if k % 2:
            # every nonzero coefficient is a unit times c / t^i, so every
            # index of the support attains the minimum at t
            c = V.random_nonzero(rng)
            f = Polynomial(V, [_unit(V, rng) * c / t ** i if rng.random() < 0.8
                               else V.zero() for i in range(rng.randint(1, 4))])
        else:
            f = Polynomial(V, [V.random_element(rng) for _ in range(rng.randint(1, 4))])
        if f.is_zero():
            continue
        loc = local_poly(minval_poly(f, V), t, V.valuation(t))
        assert loc == _definition_local_poly(f, t, V)
        assert loc.leading() == loc.field.one()
        off_unit += V.valuation(t) != zero
        several += len(loc.support()) > 1
    assert off_unit and several


class TestValuationReads:
    """Each coefficient valuation is read once, by the envelope.  The
    valuation a residue takes to test its own argument is not counted."""

    @pytest.fixture
    def reads(self, monkeypatch):
        calls, in_residue = [], []
        for cls in (PAdicQ, TAdicRat):
            def valuation(V, x, orig=cls.valuation):
                if not in_residue:
                    calls.append(x)
                return orig(V, x)

            def residue(V, x, orig=cls.residue):
                in_residue.append(x)
                try:
                    return orig(V, x)
                finally:
                    in_residue.pop()
            monkeypatch.setattr(cls, "valuation", valuation)
            monkeypatch.setattr(cls, "residue", residue)
        return calls

    @pytest.mark.parametrize("V", [Q5, TAdicRat(FiniteField(2, 2))],
                             ids=["padic", "tadic"])
    def test_local_poly_reads_no_valuation(self, V, reads):
        rng = random.Random(9)
        several = 0
        for k in range(40):
            t = V.random_nonzero(rng)
            if k % 2:  # every index attains the minimum at t
                c = V.random_nonzero(rng)
                f = Polynomial(V, [_unit(V, rng) * c / t ** i for i in range(4)])
            else:
                f = Polynomial(V, [V.random_element(rng) for _ in range(4)])
            if f.is_zero():
                continue
            env, vt = minval_poly(f, V), V.valuation(t)
            reads.clear()
            several += len(local_poly(env, t, vt).support()) > 1
            assert reads == []
        assert several

    def test_predict_suite_reads_each_coefficient_once(self, reads, monkeypatch):
        supports = []
        minval = suites.minval_poly

        def spy(f, V):
            supports.append(len(f.support()))
            return minval(f, V)
        monkeypatch.setattr(suites, "minval_poly", spy)
        assert suites.run_suite("predict", seed=2024, samples=60)["ok"]
        assert len(supports) == 60
        # the support, then v(a) and v(f(a)), once per sample
        assert len(reads) == sum(supports) + 2 * 60


def test_predict_suite_takes_no_residue(monkeypatch):
    """Local polynomials are read from angular components in the residue
    field: the predict suite asks no valued field for a residue."""
    calls = []
    for cls in (PAdicQ, TAdicRat):
        def residue(V, x, orig=cls.residue):
            calls.append(x)
            return orig(V, x)
        monkeypatch.setattr(cls, "residue", residue)
    assert suites.run_suite("predict", seed=2024, samples=500)["ok"]
    assert calls == []


class TestPredict:
    def test_exact_case(self):
        phi = RationalFunction(qp(5, 1))
        predicted, exact = predict(minval_rat(phi, Q5), Fraction(3), G.element(0))
        assert predicted == G.element(0) and exact
        assert Q5.valuation(phi.evaluate(Fraction(3))) == predicted

    def test_root_blocks_exactness(self):
        phi = RationalFunction(qp(5, 1))
        predicted, exact = predict(minval_rat(phi, Q5), Fraction(-5), G.element(1))
        assert predicted == G.element(1) and not exact
        assert phi.evaluate(Fraction(-5)) == 0  # jumped to infinity

    def test_constant_always_exact(self):
        phi = RationalFunction(qp(10))
        predicted, exact = predict(minval_rat(phi, Q5), Fraction(7), G.element(0))
        assert predicted == G.element(1) and exact

    def test_zero_point_rejected(self):
        with pytest.raises(PreconditionError):
            predict(minval_rat(RationalFunction(qp(1, 1)), Q5), Fraction(0), INFINITY)

    @pytest.mark.parametrize("V", [Q5, TAdicRat(FiniteField(2, 2))],
                             ids=["padic", "tadic"])
    def test_soundness_sampled(self, V):
        rng = random.Random(5)
        checked = 0
        while checked < 300:
            coeffs = []
            for _ in range(rng.randint(1, 7)):
                coeffs.append(V.random_element(rng))
            f = Polynomial(V, coeffs)
            if f.is_zero():
                continue
            a = V.random_nonzero(rng)
            vfa = V.valuation(f.evaluate(a))
            predicted, exact = predict(minval_rat(RationalFunction(f), V), a,
                                       V.valuation(a))
            assert vfa is INFINITY or vfa >= predicted
            assert exact == (vfa == predicted)
            checked += 1


class TestSlopes:
    def test_five_plus_x(self):
        phi = RationalFunction(qp(5, 1))
        assert slopes_check(minval_rat(phi, Q5), Fraction(5), G.element(1)) == (1, 0)

    def test_identity_function(self):
        phi = RationalFunction(qp(0, 1))
        for t in (Fraction(1), Fraction(5), Fraction(1, 5), Fraction(7)):
            assert slopes_check(minval_rat(phi, Q5), t, Q5.valuation(t)) == (1, 1)

    def test_zero_point_or_function_rejected(self):
        env = minval_rat(RationalFunction(qp(5, 1)), Q5)
        with pytest.raises(PreconditionError, match="slopes need phi and t nonzero"):
            slopes_check(env, Fraction(0), INFINITY)
        # a zero function has no envelope
        with pytest.raises(StructuralError, match="minval of the zero function"):
            minval_rat(RationalFunction(qp()), Q5)

    def test_matches_envelope_slopes(self):
        rng = random.Random(6)
        checked = 0
        while checked < 150:
            f = Polynomial(Q5, [Q5.random_element(rng) for _ in range(5)])
            g = Polynomial(Q5, [Q5.random_element(rng) for _ in range(4)])
            if f.is_zero() or g.is_zero():
                continue
            t = Q5.random_element(rng)
            if t == 0:
                continue
            phi = RationalFunction(f, g)
            if phi.is_zero():
                continue
            c, cp = slopes_check(minval_rat(phi, Q5), t, Q5.valuation(t))
            pl = minval_poly(phi.num, Q5) - minval_poly(phi.den, Q5)
            assert (c, cp) == pl.slopes_around(Q5.valuation(t))
            checked += 1


class TestGaussMultiplicativity:
    @pytest.mark.parametrize("V", [Q5, TAdicRat(FiniteField(2, 2)),
                                   HahnFinite(FiniteField(2)),
                                   LexRank2(FiniteField(2))],
                             ids=lambda v: v.describe())
    def test_product_rule(self, V):
        rng = random.Random(8)
        checked = 0
        while checked < 60:
            f = Polynomial(V, [V.random_element(rng) for _ in range(rng.randint(1, 4))])
            g = Polynomial(V, [V.random_element(rng) for _ in range(rng.randint(1, 4))])
            if f.is_zero() or g.is_zero():
                continue
            assert minval_poly(f * g, V) == minval_poly(f, V) + minval_poly(g, V)
            checked += 1


# A reference for the Newton layer that computes on group elements
# throughout: the hull, the evaluation and the local polynomial exactly as
# they read before rank-1 values were computed on their one coordinate.

def _ref_hull(f, V):
    lines = [(i, V.valuation(f.coeffs[i])) for i in reversed(f.support())]
    stack = []
    for m, b in lines:
        while stack:
            m0, b0, n0, k0 = stack[-1]
            n, k = tuple(b.coords[j] - b0.coords[j] for j in range(len(b.coords))), m0 - m
            if n0 is None or [c * k0 for c in n] > [c * k for c in n0]:
                stack.append((m, b, n, k))
                break
            stack.pop()
        else:
            stack.append((m, b, None, 1))
    ends = [V.group.element(*[Fraction(c, k) for c in n]) for _, _, n, k in stack[1:]]
    return [(m, b, lo, hi, m)
            for (m, b, _, _), lo, hi in zip(stack, [None] + ends, ends + [None])]


def _ref_eval(segments, gamma):
    for seg in segments:
        if seg.hi is None or gamma <= seg.hi:
            return gamma.scale(seg.slope) + seg.intercept


def _ref_local_poly(env, t, vt):
    vals = [(i, b + vt.scale(i)) for i, b in env.lines]
    mv = min(v for _, v in vals)
    d, *below = [i for i, v in vals if v == mv]
    V, coeffs = env.V, env.poly.coeffs
    L = V.residue_field
    loc = [L.zero()] * d + [L.one()]
    if below:
        ac, lead, act = V.angular, V.angular(coeffs[d]), V.angular(t)
        for i in below:
            loc[i] = ac(coeffs[i]) / (lead * act ** (d - i))
    return Polynomial(L, loc, "x")


def _exact(g):
    """A group element (or None) with the type of every coordinate, so that
    an int and a Fraction of the same value tell apart."""
    return None if g is None else (g.group, tuple((type(c), c) for c in g.coords))


def _newton_draw(V, rng, k):
    """(f, t) as in the ``newton`` digest: in odd draws every coefficient
    of f attains the minimum at t; every third even draw scatters values."""
    t = V.random_nonzero(rng)
    if k % 2:
        c = V.random_nonzero(rng)
        return Polynomial(V, [_unit(V, rng) * c / t ** i
                              for i in range(rng.randint(1, 4))]), t
    if k % 3 == 0 and (V.group.rank == 2 or V.group.divisible[0]):
        return _hull_poly(V, rng), t
    return Polynomial(V, [V.random_element(rng) for _ in range(rng.randint(1, 5))]), t


def _random_value(G, rng):
    n = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
    return G.element(n, rng.randint(-3, 3)) if G.rank == 2 else G.element(n)


@pytest.mark.parametrize("V", [Q5, TAdicRat(FiniteField(2, 2)), HahnFinite(FiniteField(2)),
                               LexRank2(FiniteField(2))],
                         ids=lambda v: v.describe())
def test_newton_matches_the_group_element_reference(V):
    """Segments, values and local polynomials equal the reference's, with
    every coordinate of the same type: Hahn gives fractional breakpoints
    and coordinates, lex2 is rank 2."""
    rng = random.Random(33)
    G = V.group
    unit = G.element(1, 0) if G.rank == 2 else G.element(1)
    fractional = several = 0
    for k in range(60):
        f, t = _newton_draw(V, rng, k)
        if f.is_zero():
            continue
        env = minval_poly(f, V)
        ref = _ref_hull(f, V)
        assert [(s.slope, _exact(s.intercept), _exact(s.lo), _exact(s.hi), s.tag)
                for s in env.segments] == [
            (m, _exact(b), _exact(lo), _exact(hi), tag) for m, b, lo, hi, tag in ref]
        cuts = env.breakpoints()
        points = cuts + [_random_value(G, rng) for _ in range(6)]
        points += [cuts[0] - unit, cuts[-1] + unit] if cuts else [G.zero()]
        for gamma in points:
            assert _exact(env.eval(gamma)) == _exact(_ref_eval(env.segments, gamma))
            for seg in env.segments:
                want = gamma.scale(seg.slope) + seg.intercept
                assert _exact(seg.value_at(gamma)) == _exact(want)
        g = V.random_nonzero(rng)
        den = Polynomial(V, [g, V.random_nonzero(rng)])
        renv = minval_rat(RationalFunction(f, den), V)
        for gamma in points + renv.breakpoints():
            assert _exact(renv.eval(gamma)) == _exact(_ref_eval(renv.segments, gamma))
        vt = V.valuation(t)
        loc = local_poly(env, t, vt)
        assert loc == _ref_local_poly(env, t, vt)
        fractional += any(type(c) is not int for p in cuts for c in p.coords)
        several += len(loc.support()) > 1
    assert several and fractional


@pytest.mark.parametrize("V", [Q5, HahnFinite(FiniteField(2))], ids=lambda v: v.describe())
def test_rank1_values_build_one_group_element_per_result(V, monkeypatch):
    """Over a rank-1 group a local polynomial builds no group element and
    a value of the envelope builds exactly one; a value of another group
    is still refused."""
    rng = random.Random(34)
    draws = [_newton_draw(V, rng, k) for k in range(12)]
    draws = [(minval_poly(f, V), t, V.valuation(t)) for f, t in draws if not f.is_zero()]
    built = []
    init = ordgroup.GroupElement.__init__

    def spy(self, group, coords):
        built.append(coords)
        init(self, group, coords)
    monkeypatch.setattr(ordgroup.GroupElement, "__init__", spy)
    for env, t, vt in draws:
        local_poly(env, t, vt)
        assert built == []
        for gamma in env.breakpoints() + [vt]:
            env.eval(gamma)
            assert len(built) == 1
            built.clear()
    for other in (LexRank2(FiniteField(2)).group.element(0, 1),
                  (HahnFinite(FiniteField(2)) if V is Q5 else Q5).group.zero()):
        for env, _, _ in draws:
            with pytest.raises(GroupMismatchError):
                env.eval(other)
