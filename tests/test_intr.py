import random
from fractions import Fraction

import pytest

from ivrf import intr
from ivrf.errors import PreconditionError, UndecidedError
from ivrf.ff import FiniteField, RatFuncField, polynomials
from ivrf.fields import (ConstantSubfield, FrobeniusSubfield, HahnFinite, PAdicQ,
                         PrimePowerSubfield, TAdicRat)
from ivrf.intr import (CertifiedIn, CertifiedOut, DomainSpec, MStar, Pointed,
                       Unknown, ValueIdeal, VIOLATION,
                       WHOLE_FIELD, WHOLE_RING, ZERO, STRICTLY_POSITIVE,
                       _small_residues, characteristic_set, dichotomy_check,
                       domain_from_config, ideal_member, intr_member, residue_roots)
from ivrf.newton import minval_rat
from ivrf.ratfun import (POLE, Polynomial, RationalFunction, clear_denominators, horner,
                         parse_ratfun)

Q5 = PAdicQ(5)


def qp(*cs):
    return Polynomial(Q5, [Fraction(c) for c in cs])


def hahn_pvd():
    GFU = RatFuncField(FiniteField(2), "u")
    H = HahnFinite(GFU)
    return H, DomainSpec.pvd(H, ConstantSubfield(GFU))


class TestMembership:
    def test_inverse_of_x_is_out(self):
        # (x + 125)/(x^2 + 125) is 1/x in value for 0 < v(a) < 3/2 and 1 at
        # a = 0, so the envelope, not the point 0, gives the witness
        D = DomainSpec.pvd(Q5, None, WHOLE_RING)
        phi = RationalFunction(qp(125, 1), qp(125, 0, 1))
        v = intr_member(phi, D)
        assert v.kind == "out"
        assert v.witness == Fraction(5)
        assert Q5.valuation(phi.evaluate(v.witness)) < Q5.group.zero()

    def test_zero_is_checked_before_the_components(self):
        D = DomainSpec.pvd(Q5, None, WHOLE_RING)
        v = intr_member(RationalFunction(qp(1), qp(0, 1)), D)  # 1/x
        assert (v.kind, v.witness, v.reason) == ("out", Fraction(0), "pole at 0")

    def test_fermat_quotient_in_at_depth_two(self):
        D = DomainSpec.pvd(Q5, None, WHOLE_RING)
        phi = RationalFunction(qp(0, -1, 0, 0, 0, 1), qp(5))
        v = intr_member(phi, D, depth=3)
        assert v.kind == "in"
        assert v.depth_used == 2
        # exhaustive spot check over random ring elements
        rng = random.Random(0)
        for _ in range(400):
            a = Q5.random_element(rng)
            while Q5.valuation(a) < Q5.group.zero():
                a = Q5.random_element(rng)
            val = phi.evaluate(a)
            assert val == 0 or Q5.valuation(val) >= Q5.group.zero()

    def test_depth_exhaustion_is_honest(self):
        D = DomainSpec.pvd(Q5, None, WHOLE_RING)
        phi = RationalFunction(qp(0, -1, 0, 0, 0, 1), qp(5))
        v = intr_member(phi, D, depth=1)
        assert v.kind == "unknown"
        assert v.depth_exhausted

    @pytest.mark.parametrize("text, point", [
        ("((t)*x^3 + (t^2))/((1/t)*x^4 + (t/(1 + t)) + (1)*x^3)", "1/32768"),
        ("((t/(1 + t))*x^2)/((1)*x^4 + (1/t^2)*x^2 + (1)*x^3)", "1/65536"),
    ])
    def test_lattice_bound_in_a_refinement_is_unknown(self, text, point):
        # each refinement halves the lattice step until the substitution
        # needs t^(1/131072): the class is Unknown, not a ResourceError
        D = domain_from_config({"field": {"variant": "hahn", "residue": {"q": 2}},
                                "E": "field"})
        phi = parse_ratfun(D.field, text)
        for depth in range(1, 9):
            v = intr_member(phi, D, depth=depth)
            assert v.kind == "unknown" and v.depth_exhausted
        v = intr_member(phi, D, depth=20)
        assert v.kind == "unknown" and not v.depth_exhausted
        assert v.reason == (f"refinement at {point}, residue 1: "
                            "lattice t^(1/131072) beyond the bound 65536")

    @pytest.mark.parametrize("text", ["1/(t^{1/65536}*x^3 + 1)", "t^{1/65536}*x^3 + 1"],
                             ids=["point", "interval"])
    def test_lattice_bound_at_a_breakpoint_of_the_input_is_unknown(self, text):
        # the input's own breakpoint -1/196608 needs t^(1/196608), beyond the
        # lattice bound, in _check_point or _check_interval before any refinement
        D = domain_from_config({"field": {"variant": "hahn", "residue": {"q": 2}},
                                "E": "field"})
        v = intr_member(parse_ratfun(D.field, text), D, depth=3)
        assert v.kind == "unknown" and not v.depth_exhausted
        assert v.reason == ("certification over Hahn(GF(2), Q): "
                            "lattice t^(1/196608) beyond the bound 65536")

    def test_undecided_residue_is_not_depth_exhausted(self):
        # no refinement runs, though the residue variable is named "depth"
        D = domain_from_config({
            "field": {"variant": "tadic",
                      "residue": {"kind": "ratfunc", "q": 2, "var": "depth"}},
            "subfield": {"kind": "frobenius", "e": 1}, "E": "ring"})
        v = intr_member(parse_ratfun(D.field, "depth^2*x^2 + depth^2*x"), D)
        assert v.reason == ("residue ratio depth^2*x^2 + depth^2*x "
                            "into subfield undecided at 0")
        assert not v.depth_exhausted

    def test_over_refined_quotient_is_out(self):
        D = DomainSpec.pvd(Q5, None, WHOLE_RING)
        phi = RationalFunction(qp(0, -1, 0, 0, 0, 1), qp(25))
        v = intr_member(phi, D, depth=4)
        assert v.kind == "out"
        ev = phi.evaluate(v.witness)
        assert Q5.valuation(ev) < Q5.group.zero()

    def test_pole_inside_ring(self):
        D = DomainSpec.pvd(Q5, None, WHOLE_RING)
        phi = RationalFunction(qp(0, 1), qp(-1, 1))
        v = intr_member(phi, D)
        assert v.kind == "out"
        assert phi.evaluate(v.witness) is POLE

    def test_theta_over_intersection(self):
        Q2 = PAdicQ(2)
        P = lambda *cs: Polynomial(Q2, [Fraction(c) for c in cs])
        theta = RationalFunction(P(6, 0, 0, 0, 6), P(6, 0, 37, 0, 6))
        D = DomainSpec.intersection([PAdicQ(2), PAdicQ(3)], WHOLE_FIELD)
        v = intr_member(theta, D)
        assert v.kind == "in"
        # cross-check by exhaustive sampling on reduced fractions
        for r in range(-25, 26):
            for s in range(1, 12):
                a = Fraction(r, s)
                val = theta.evaluate(a)
                assert val is not POLE
                assert D.member(val)

    def test_finite_point_set(self):
        D = DomainSpec([(Q5, None)], [Fraction(1), Fraction(5)])
        phi = RationalFunction(qp(1), qp(0, 1))  # 1/x
        v = intr_member(phi, D)
        assert v.kind == "out" and v.witness == Fraction(5)
        D2 = DomainSpec([(Q5, None)], [Fraction(1), Fraction(2)])
        assert intr_member(phi, D2).kind == "in"

    def test_zero_function_trivially_in(self):
        D = DomainSpec.pvd(Q5, None, WHOLE_RING)
        assert intr_member(RationalFunction.zero(Q5), D).kind == "in"

    def test_certified_in_soundness_sampled(self):
        H, D = hahn_pvd()
        dom = DomainSpec(D.components, WHOLE_FIELD)
        P = lambda *cs: Polynomial(H, list(cs))
        u = H.lift(H.kappa.gen())
        members = [
            RationalFunction(P(u + H.gen(), H.one(), H.one()),
                             P(u, H.one(), H.one())),
            RationalFunction(P(H.monomial(Fraction(1, 2))), P(u, H.one(), H.one())),
            RationalFunction.one(H) + RationalFunction(P(H.gen()), P(u, H.one(), H.one())),
        ]
        rng = random.Random(1)
        for phi in members:
            assert intr_member(phi, dom, depth=3).kind == "in"
            for _ in range(350):
                a = H.random_element(rng)
                val = phi.evaluate(a)
                assert val is not POLE and D.member(val)

    def test_certified_out_witness_reverifies(self):
        H, D = hahn_pvd()
        dom = DomainSpec(D.components, WHOLE_FIELD)
        P = lambda *cs: Polynomial(H, list(cs))
        u = H.lift(H.kappa.gen())
        # residue of the constant is u, outside GF(2)
        phi = RationalFunction(P(u))
        v = intr_member(phi, dom)
        assert v.kind == "out"
        assert not D.member(phi.evaluate(v.witness))


class TestCombine:
    """The one rule that merges part verdicts: first Out, else first
    Unknown, else In over the certificates at the deepest depth."""

    @staticmethod
    def _parts(*verdicts):
        yield from verdicts
        pytest.fail("a part after the CertifiedOut was read")

    def test_out_wins_and_stops_the_stream(self):
        out = CertifiedOut(Fraction(3), "w")
        parts = self._parts(Unknown("a"), CertifiedIn("r1", 2), Unknown("b"), out)
        assert intr._combine(parts, list) is out

    def test_first_unknown_without_an_out(self):
        first = Unknown("a")
        parts = [first, CertifiedIn("r1", 2), Unknown("b")]
        assert intr._combine(iter(parts), list) is first

    def test_certificates_in_order_at_the_deepest_depth(self):
        v = intr._combine(iter([CertifiedIn("r1", 2), CertifiedIn("r2", 3),
                                CertifiedIn("r3", 1)]), tuple)
        assert (v.kind, v.certificate, v.depth_used) == ("in", ("r1", "r2", "r3"), 3)
        v = intr._combine(iter([CertifiedIn("r1", 0)]), list)
        assert (v.certificate, v.depth_used) == (["r1"], 1)
        v = intr._combine(iter([]), list)
        assert (v.kind, v.certificate, v.depth_used) == ("in", [], 1)


class TestDriver:
    """Ring and value-ideal membership share one driver; these reach the
    branches that the seeded corpora do not."""

    def test_pole_at_a_listed_point(self):
        D = domain_from_config({"field": {"variant": "padic", "p": 5}, "E": ["5"]})
        phi = parse_ratfun(Q5, "1/(x - 5)")
        v = intr_member(phi, D)
        assert (v.kind, v.witness, v.reason) == ("out", Fraction(5), "pole at a listed point")
        assert not ideal_member(phi, ValueIdeal(1), D)

    def test_witness_failing_reverification_is_unknown(self, monkeypatch):
        # a faulty component verdict whose witness 1 meets every target
        monkeypatch.setattr(intr, "_certify",
                            lambda *args: CertifiedOut(Fraction(1), "injected"))
        D = DomainSpec.pvd(Q5, None)
        v = intr_member(parse_ratfun(Q5, "x"), D)
        assert (v.kind, v.reason) == ("unknown", "candidate witness failed re-verification")
        with pytest.raises(UndecidedError):
            ideal_member(parse_ratfun(Q5, "5*x"), ValueIdeal(1), D)

    def test_value_ideal_with_undecided_components(self, monkeypatch):
        # with every component undecided, phi(0) still decides a value ideal
        # when it falls outside m; otherwise the answer stays undecided
        monkeypatch.setattr(intr, "_certify", lambda *args: Unknown("injected"))
        D = DomainSpec.pvd(Q5, None)
        assert not ideal_member(parse_ratfun(Q5, "x + 1"), ValueIdeal(1), D)
        with pytest.raises(UndecidedError):
            ideal_member(parse_ratfun(Q5, "x + 5"), ValueIdeal(1), D)

    def test_refined_witness_reason_names_the_witness(self):
        # The witness 80 = 5 + 5 * 15 comes out of the refinement at the
        # residue class of 5, where the shifted function has value -1 at 15;
        # the reason names 80, the point where phi has value -1.
        D = DomainSpec.pvd(Q5, None)
        phi = parse_ratfun(Q5, "((1/5)*x^4 + (5) + (7/2)*x^3)"
                               "/((-3)*x^3 + (-3) + (-3)*x^1 + (3/25)*x^2)")
        v = intr_member(phi, D)
        assert (v.kind, v.witness, v.reason) == ("out", Fraction(80), "value -1 at 80")
        assert str(Q5.valuation(phi.evaluate(v.witness))) == "-1"

    def test_verdicts_take_no_undeclared_attribute(self):
        for v in (CertifiedIn([], 1), CertifiedOut(Fraction(1)), Unknown("reason")):
            with pytest.raises(AttributeError):
                v.certificate_of_the_parent = []


class TestIdeals:
    def test_pointed_examples(self):
        D = DomainSpec.pvd(Q5, None, WHOLE_FIELD)
        x = RationalFunction(qp(0, 1))
        assert ideal_member(x, Pointed(Fraction(5)), D)
        assert not ideal_member(x, Pointed(Fraction(1)), D)

    def test_pointed_zero_value_is_in(self):
        # phi(5) = 0, whose valuation INFINITY lies above every value of m
        D = DomainSpec.pvd(Q5, None)
        assert ideal_member(parse_ratfun(Q5, "x - 5"), Pointed(Fraction(5)), D)

    def test_pointed_pole_precondition(self):
        D = DomainSpec.pvd(Q5, None, WHOLE_FIELD)
        phi = RationalFunction(qp(1), qp(0, 1))
        with pytest.raises(PreconditionError):
            ideal_member(phi, Pointed(Fraction(0)), D)

    def test_pointed_anchor_must_be_in_E(self):
        D = DomainSpec.pvd(Q5, None, WHOLE_RING)
        x = RationalFunction(qp(0, 1))
        with pytest.raises(PreconditionError):
            ideal_member(x, Pointed(Fraction(1, 5)), D)

    def test_mstar_examples(self):
        H, D = hahn_pvd()
        dom = DomainSpec(D.components, WHOLE_FIELD)
        x = RationalFunction.gen(H)
        assert not ideal_member(x, MStar(), dom)
        t_const = RationalFunction.constant(H, H.gen())
        assert ideal_member(t_const, MStar(), dom)

    def test_mstar_theta_over_v2(self):
        Q2 = PAdicQ(2)
        P = lambda *cs: Polynomial(Q2, [Fraction(c) for c in cs])
        theta = RationalFunction(P(6, 0, 0, 0, 6), P(6, 0, 37, 0, 6))
        D = DomainSpec.pvd(Q2, None, WHOLE_FIELD)
        assert ideal_member(theta, MStar(), D)

    def test_mstar_rejected_for_intersections(self):
        D = DomainSpec.intersection([PAdicQ(2), PAdicQ(3)], WHOLE_FIELD)
        with pytest.raises(PreconditionError):
            ideal_member(RationalFunction.one(PAdicQ(2)), MStar(), D)

    def test_mstar_on_a_one_component_intersection(self):
        Q2 = PAdicQ(2)
        D = DomainSpec.intersection([Q2], WHOLE_FIELD)
        assert ideal_member(RationalFunction.constant(Q2, Fraction(2)), MStar(), D)
        assert not ideal_member(RationalFunction.one(Q2), MStar(), D)

    def test_value_ideal(self):
        D = DomainSpec.pvd(Q5, None, WHOLE_RING)
        phi = RationalFunction(qp(25))
        assert ideal_member(phi, ValueIdeal(2), D)
        assert not ideal_member(RationalFunction(qp(5)), ValueIdeal(2), D)
        # (x^5 - x) maps the ring into m but not into m^2 (a=2 gives v=1)
        f = RationalFunction(qp(0, -1, 0, 0, 0, 1))
        assert ideal_member(f, ValueIdeal(1), D)
        assert not ideal_member(f, ValueIdeal(2), D)
        # it takes one refinement per residue class
        with pytest.raises(UndecidedError):
            ideal_member(f, ValueIdeal(1), D, depth=1)

    def test_ideal_member(self):
        # constant functions on a one-point E: the value ideal is m^power
        F4 = FiniteField(2, 2)
        V = TAdicRat(F4)
        D = DomainSpec.pvd(V, PrimePowerSubfield(F4, 1), [V.one()])
        assert ideal_member(RationalFunction.constant(V, V.gen()), ValueIdeal(1), D)
        assert not ideal_member(RationalFunction.one(V), ValueIdeal(1), D)
        D5 = DomainSpec.pvd(Q5, None, [Fraction(1)])
        assert ideal_member(RationalFunction(qp(Fraction(10, 3))), ValueIdeal(1), D5)
        assert ideal_member(RationalFunction(qp(50)), ValueIdeal(2), D5)
        assert not ideal_member(RationalFunction(qp(5)), ValueIdeal(2), D5)
        # E = {5} does not contain 0, so the pole of 25/x at 0 is no obstacle
        E5 = DomainSpec.pvd(Q5, None, [Fraction(5)])
        assert ideal_member(parse_ratfun(Q5, "25/x"), ValueIdeal(1), E5)

    def test_m_power_divisible_group(self):
        H = HahnFinite(FiniteField(2))
        D = DomainSpec.pvd(H, None, [H.one()])
        x = RationalFunction.constant(H, H.monomial(Fraction(1, 4)))
        assert ideal_member(x, ValueIdeal(3), D)

    def test_value_ideal_certified_over_divisible_group(self):
        # the certifier against the strict threshold v > 0 of the Hahn ring
        H = HahnFinite(FiniteField(2))
        ring = DomainSpec.pvd(H, None, WHOLE_RING)
        field = DomainSpec.pvd(H, None, WHOLE_FIELD)

        def fn(text):
            return parse_ratfun(H, text)
        assert ideal_member(fn("t*x"), ValueIdeal(1), ring)
        assert ideal_member(fn("t*x"), ValueIdeal(3), ring)
        assert not ideal_member(fn("x"), ValueIdeal(1), ring)
        assert not ideal_member(fn("x"), ValueIdeal(1), field)
        assert not ideal_member(fn("t*x"), ValueIdeal(1), field)
        for D in (ring, field):
            assert ideal_member(fn("t^{1/2}/(x^2 + x + 1)"), ValueIdeal(1), D)

    def test_characteristic_sets(self):
        D = DomainSpec.pvd(Q5, None, WHOLE_FIELD)
        x = RationalFunction(qp(0, 1))
        fam = [Pointed(Fraction(5)), Pointed(Fraction(1)), Pointed(Fraction(10))]
        got = characteristic_set(x, fam, D)
        assert [i.a for i in got] == [Fraction(5), Fraction(10)]
        assert len(characteristic_set(RationalFunction.zero(Q5), fam, D)) == 3

    def test_x_in_pointed_family_but_not_mstar(self):
        H, D = hahn_pvd()
        dom = DomainSpec(D.components, WHOLE_FIELD)
        x = RationalFunction.gen(H)
        assert minval_rat(x, H).eval(H.group.zero()) == H.group.zero()
        assert not ideal_member(x, MStar(), dom)
        for q in (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(7, 2)):
            a = H.monomial(q)
            assert ideal_member(x, Pointed(a), dom)

    def test_pointed_containment_for_certified(self):
        # anything certified into the ring lands in the one-point overring
        D = DomainSpec.pvd(PAdicQ(5), None, WHOLE_RING)
        phi = RationalFunction(qp(0, -1, 0, 0, 0, 1), qp(5))
        assert intr_member(phi, D).kind == "in"
        for a in (Fraction(0), Fraction(1), Fraction(5), Fraction(7, 3)):
            assert Q5.valuation(phi.evaluate(a)) >= Q5.group.zero() \
                or phi.evaluate(a) == 0


class TestDichotomy:
    def test_constant_t(self):
        H, D = hahn_pvd()
        phi = RationalFunction.constant(H, H.gen())
        assert dichotomy_check(phi, D) == STRICTLY_POSITIVE

    def test_unit_plus_small(self):
        H, D = hahn_pvd()
        P = lambda *cs: Polynomial(H, list(cs))
        u = H.lift(H.kappa.gen())
        phi = RationalFunction(P(u + H.gen(), H.one(), H.one()),
                               P(u, H.one(), H.one()))
        assert dichotomy_check(phi, D) == ZERO
        assert intr_member(phi, DomainSpec(D.components, WHOLE_FIELD)).kind == "in"

    def test_violation(self):
        H, D = hahn_pvd()
        P = lambda *cs: Polynomial(H, list(cs))
        phi = RationalFunction(P(H.zero(), H.zero(), H.one()),
                               P(H.gen(), H.zero(), H.one()))
        assert dichotomy_check(phi, D) == VIOLATION
        assert intr_member(phi, DomainSpec(D.components, WHOLE_FIELD)).kind == "out"

    def test_rejects_intersections(self):
        H = HahnFinite(FiniteField(2))
        D = DomainSpec.intersection([H, H], WHOLE_FIELD)
        with pytest.raises(PreconditionError):
            dichotomy_check(RationalFunction.gen(H), D)

    def test_needs_divisible_group(self):
        F4 = FiniteField(2, 2)
        D = DomainSpec.pvd(TAdicRat(F4), PrimePowerSubfield(F4, 1))
        with pytest.raises(PreconditionError):
            dichotomy_check(RationalFunction.one(D.field), D)


class TestSmallResidues:
    def test_finite_sources_are_enumerated_in_full(self):
        F = FiniteField(101)
        every = list(_small_residues(F, PrimePowerSubfield(F, 1)))
        assert len(every) == 100 and F.zero() not in every
        assert len(list(_small_residues(F, None))) == 100

    def test_ratfunc_field_search(self):
        L = RatFuncField(FiniteField(2), "u")
        assert len(list(_small_residues(L, None))) == 31
        frobenius = list(_small_residues(L, FrobeniusSubfield(L, 1)))
        assert len(frobenius) == 7
        assert all(FrobeniusSubfield(L, 1).contains(c) for c in frobenius)
        assert list(_small_residues(L, ConstantSubfield(L))) == [L.one()]


class TestResidueRoots:
    def test_finite_field_exhaustive(self):
        F4 = FiniteField(2, 2)
        p = Polynomial(F4, [F4.one(), F4.one(), F4.one()])  # x^2+x+1
        roots, complete = residue_roots(p, F4)
        assert complete
        assert roots == {F4.gen(), F4.gen() + 1}

    def test_ratfunc_rational_root_bound(self):
        L = RatFuncField(FiniteField(2), "u")
        u = L.gen()
        # (x - u)(x - 1/u) = x^2 - (u + 1/u)x + 1
        p = Polynomial(L, [L.one(), u + 1 / u, L.one()])
        roots, complete = residue_roots(p, L)
        assert complete
        assert roots == {u, 1 / u}

    def test_rootless_quartic(self):
        L = RatFuncField(FiniteField(2), "u")
        p = Polynomial(L, [L.gen() ** 2, L.zero(), L.zero(), L.zero(), L.one()])
        roots, complete = residue_roots(p, L)
        assert complete and not roots

    def test_cap_degrades(self):
        # u^25 needs the monic trial divisors of degree at most 12: 2^13 - 1
        # of them, past the budget
        L = RatFuncField(FiniteField(2), "u")
        big = L.gen() ** 25
        p = Polynomial(L, [big, L.one()])
        roots, complete = residue_roots(p, L)
        assert not complete

    def test_content_is_divided_out(self):
        # c is the product of the irreducibles of degree at most 4 over GF(2),
        # of degree 22 with 256 divisors; c*x + c has the one root of x + 1
        L = RatFuncField(FiniteField(2), "u")
        u = L.gen()
        c = (u ** 16 + u) * (u ** 8 + u) / (u ** 2 + u)
        assert c.num.degree == 22
        assert residue_roots(Polynomial(L, [c, c]), L) == ({L.one()}, True)

    @pytest.mark.parametrize("E", [WHOLE_RING, WHOLE_FIELD])
    def test_cap_at_a_breakpoint_gives_unknown(self, E):
        # the denominator's local polynomial at value 0 is x^2 + x + u^25,
        # whose root search runs past the budget; the depth is not the cause
        T = TAdicRat(RatFuncField(FiniteField(2), "u"))
        phi = parse_ratfun(T, "1/(x^2 + x + u^25)")
        v = intr_member(phi, DomainSpec.pvd(T, None, E))
        assert v.kind == "unknown"
        assert v.reason == "root search beyond budget 4096 at value 0"
        assert not v.depth_exhausted

    def test_m_star_strictness_within_pullback(self):
        # membership in every pointed ideal does not force the envelope prime
        H, D = hahn_pvd()
        dom = DomainSpec(D.components, WHOLE_FIELD)
        x = RationalFunction.gen(H)
        in_pointed = all(ideal_member(x, Pointed(H.monomial(Fraction(k, 2))), dom)
                         for k in range(1, 6))
        assert in_pointed and not ideal_member(x, MStar(), dom)


def _enumerated_roots(poly, L, cap=4, limit=100_000):
    """The reference root search over GF(q)(u): every n and every monic d of
    degree at most ``cap`` (fewer while the candidate count passes
    ``limit``), screened by sum_i P_i n^i d^(deg-i) = 0 on the cleared
    coefficients P_i.  Complete exactly when both end coefficients have
    degree at most ``cap`` and no cut was needed.  Returns (roots, complete)
    like ``residue_roots``."""
    shift = poly.support()[0]
    q = Polynomial(L, poly.coeffs[shift:], poly.var)
    if q.degree == 0:
        return set(), True
    cleared = clear_denominators([(c.num, c.den) for c in q.coeffs])
    bound_n, bound_d = cleared[0].degree, cleared[-1].degree
    complete = bound_n <= cap and bound_d <= cap
    bn, bd = min(bound_n, cap), min(bound_d, cap)
    while bn + bd > 0 and L.base.q ** (bn + bd + 2) > limit:
        complete = False
        if bn >= bd:
            bn -= 1
        else:
            bd -= 1
    deg = q.degree
    one = Polynomial.constant(L.base, L.base.one(), L.var)
    roots = set()
    for d in polynomials(L.base, bd, monic=True, var=L.var):
        dpow = [one]
        for _ in range(deg):
            dpow.append(dpow[-1] * d)
        for n in polynomials(L.base, bn, var=L.var):
            if n.is_zero():
                continue
            acc = Polynomial.zero(L.base, L.var)
            npow = one
            for i, c in enumerate(cleared):
                if c:
                    acc = acc + c * npow * dpow[deg - i]
                npow = npow * n
            if acc.is_zero() and Polynomial.gcd(n, d).degree == 0:
                roots.add(RationalFunction(n, d))
    return roots, complete


def _u_poly(L, rng, degree, monic=False):
    """A random polynomial in u of exactly ``degree``, as an element of L."""
    base = L.base
    lead = base.one() if monic else rng.choice(list(base.nonzero_elements()))
    coeffs = [base.random(rng) for _ in range(degree)] + [lead]
    return RationalFunction(Polynomial(base, coeffs, L.var))


def _planted_poly(L, rng, roots, extra, height):
    """The product of x - r over ``roots`` and a cofactor of x-degree
    ``extra`` whose coefficients have u-degree at most ``height``."""
    x = Polynomial.gen(L)
    p = Polynomial.constant(L, L.one())
    for r in roots:
        p = p * (x - r)
    cofactor = Polynomial(L, [_u_poly(L, rng, rng.randint(0, height)) for _ in range(extra)]
                          + [L.one()])
    return p * cofactor


_ROOT_FIELDS = [(RatFuncField(FiniteField(2), "u"), 2), (RatFuncField(FiniteField(3), "u"), 1),
                (RatFuncField(FiniteField(2, 2, "w"), "u"), 1)]


@pytest.mark.parametrize("L, height", _ROOT_FIELDS, ids=lambda a: str(a))
def test_root_search_matches_the_enumeration(L, height):
    # x-degree 1-3 with 0-2 planted roots, numerator and denominator of
    # u-degree at most ``height``; wherever the enumeration is complete, the
    # search is complete with the same roots
    rng = random.Random(f"residue roots:{L}")
    compared = 0
    for _ in range(30):
        degree = rng.randint(1, 3)
        planted = [_u_poly(L, rng, rng.randint(0, height))
                   / _u_poly(L, rng, rng.randint(0, height), True)
                   for _ in range(rng.randint(0, min(degree, 2)))]
        p = _planted_poly(L, rng, planted, degree - len(planted), height)
        want, want_complete = _enumerated_roots(p, L)
        if not want_complete:
            continue
        compared += 1
        assert set(planted) <= want
        assert residue_roots(p, L) == (want, True), p
    assert compared >= 20


@pytest.mark.parametrize("L, most", [(RatFuncField(FiniteField(2), "u"), 2),
                                     (RatFuncField(FiniteField(3), "u"), 1)], ids=str)
def test_root_search_finds_planted_roots_past_degree_four(L, most):
    # up to ``most`` planted roots n/d with n and d of u-degree 5-8, times a
    # cofactor: the divisor search finds every one, and each root it
    # returns is a root
    rng = random.Random(f"planted roots:{L}")
    for _ in range(12):
        planted = {_u_poly(L, rng, rng.randint(5, 8)) / _u_poly(L, rng, rng.randint(5, 8), True)
                   for _ in range(rng.randint(1, most))}
        p = _planted_poly(L, rng, planted, rng.randint(0, 1), 1)
        roots, complete = residue_roots(p, L)
        assert complete and planted <= roots, p
        assert all(p.evaluate(r) == L.zero() for r in roots)


def _counting_horner(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return horner(*args)
    monkeypatch.setattr(intr, "horner", counted)
    return calls


def test_root_search_sums_no_candidate_with_a_single_top_degree(monkeypatch):
    # x^730 - u^27: the candidates c*u^j (j <= 8 or j >= 19) give the term
    # degrees 27 and 730*j, never equal, so no candidate sum is taken; the
    # divisor budget still leaves the search incomplete
    L = RatFuncField(FiniteField(3), "u")
    u = L.gen()
    calls = _counting_horner(monkeypatch)
    p = Polynomial.from_dict(L, {0: -(u ** 27), 730: L.one()})
    assert residue_roots(p, L) == (set(), False)
    assert calls == []
    # x^729 - u^27 is (x^27 - u)^27, whose end coefficients u and 1 leave
    # the candidates c and c*u, and none ties: a complete search
    p = Polynomial.from_dict(L, {0: -(u ** 27), 729: L.one()})
    assert residue_roots(p, L) == (set(), True)
    assert calls == []


def test_root_search_finds_the_roots_of_p_th_powers():
    # over GF(2)(u): (x + u)^2 (x + 1) is no square, and the search runs on
    # it; (x + u)^4 (x + u + 1)^2 is the square of (x + u)^2 (x + u + 1),
    # and the search runs on that, which has the same roots
    L = RatFuncField(FiniteField(2), "u")
    u, x = L.gen(), Polynomial.gen(L)
    assert residue_roots((x + u) ** 2 * (x + 1), L) == ({u, L.one()}, True)
    assert residue_roots((x + u) ** 4 * (x + u + 1) ** 2, L) == ({u, u + 1}, True)


def test_root_search_sums_the_candidates_whose_top_degrees_tie(monkeypatch):
    # x^2 + u^2 over GF(3)(u) has no root, but its candidates +-u tie at
    # term degree 2 and are summed, while 1, -1, u^2 and -u^2 are not
    L = RatFuncField(FiniteField(3), "u")
    u, x = L.gen(), Polynomial.gen(L)
    calls = _counting_horner(monkeypatch)
    assert residue_roots(x ** 2 + u ** 2, L) == (set(), True)
    assert len(calls) == 2
    # at a root two term degrees tie, so planted roots of several heights
    # are all still found
    planted = {u, -u, (u ** 2 + 1) / u, u / (u + 1), 1 / (u ** 3 + u + 1)}
    p = Polynomial.constant(L, L.one())
    for r in planted:
        p = p * (x - r)
    roots, complete = residue_roots(p, L)
    assert complete and roots == planted


class TestRestrictedResidues:
    """Over E = D for a pullback domain, the unit shell at value 0 only
    carries residues from the subfield."""

    def setup_method(self):
        F4 = FiniteField(2, 2)
        self.V = TAdicRat(F4)
        self.D = DomainSpec.pvd(self.V, PrimePowerSubfield(F4, 1))
        self.u = self.V.lift(F4.gen())

    def test_identity_in_over_ring_but_not_field(self):
        x = RationalFunction.gen(self.V)
        ring = DomainSpec(self.D.components, WHOLE_RING)
        field = DomainSpec(self.D.components, WHOLE_FIELD)
        assert intr_member(x, ring).kind == "in"
        out = intr_member(x, field)
        assert out.kind == "out"
        assert not self.D.member(x.evaluate(out.witness))

    def test_unit_twist_is_out_even_over_ring(self):
        phi = RationalFunction.constant(self.V, self.u) * RationalFunction.gen(self.V)
        ring = DomainSpec(self.D.components, WHOLE_RING)
        out = intr_member(phi, ring)
        assert out.kind == "out"
        w = out.witness
        assert ring.contains_point(w)
        assert not self.D.member(phi.evaluate(w))


class TestRankTwo:
    def setup_method(self):
        from ivrf.fields import LexRank2
        self.V = LexRank2(FiniteField(2))
        self.t1 = self.V.gen1()
        self.t2 = self.V.gen2()

    def test_member_out_with_witness(self):
        # (t1 + x^2)/t1 takes value (t1+1)/t1 at a = 1, below the ring
        P = lambda *cs: Polynomial(self.V, list(cs))
        phi = RationalFunction(P(self.t1, self.V.zero(), self.V.one()),
                               P(self.t1))
        D = DomainSpec.pvd(self.V, None, WHOLE_RING)
        v = intr_member(phi, D)
        assert v.kind == "out"
        ev = phi.evaluate(v.witness)
        assert self.V.valuation(ev) < self.V.group.zero()

    def test_member_in(self):
        P = lambda *cs: Polynomial(self.V, list(cs))
        phi = RationalFunction(P(self.V.zero(), self.t2))  # t2 * x
        D = DomainSpec.pvd(self.V, None, WHOLE_RING)
        assert intr_member(phi, D).kind == "in"

    def test_fractional_breakpoint_skipped(self):
        # the envelope of t1 + x^2 breaks at (1/2, 0), outside the lattice
        from ivrf.newton import minval_poly
        P = lambda *cs: Polynomial(self.V, list(cs))
        pl = minval_poly(P(self.t1, self.V.zero(), self.V.one()), self.V)
        bp = pl.breakpoints()[0]
        assert not bp.in_lattice()


class TestDomainConfig:
    def test_valuation_config(self):
        D = domain_from_config({"field": {"variant": "padic", "p": 5}, "E": "ring"})
        assert [sub for _, sub in D.components] == [None]
        assert D.member(Fraction(5)) and not D.member(Fraction(1, 5))

    def test_intersection_config(self):
        D = domain_from_config({"components": [{"variant": "padic", "p": 2},
                                               {"variant": "padic", "p": 3}],
                                "E": "field"})
        assert [sub for _, sub in D.components] == [None, None]
        assert D.member(Fraction(1, 5)) and not D.member(Fraction(1, 2))

    def test_pvd_config_with_point_list(self):
        D = domain_from_config({
            "field": {"variant": "tadic", "residue": {"kind": "gf", "q": 4}},
            "subfield": {"kind": "subgf", "order": 2},
            "E": ["t", "1 + t"]})
        assert len(D.E) == 2


_TADIC_GF4 = {"variant": "tadic", "residue": {"kind": "gf", "q": 4}}
_TADIC_GF2U = {"variant": "tadic", "residue": {"kind": "ratfunc", "q": 2}}
_SUBGF2 = {"kind": "subgf", "order": 2}
_CONSTANTS = {"kind": "constants"}
_FROBENIUS = {"kind": "frobenius", "e": 1}
# prod (x + c) over the seven squares c among the small residues of GF(2)(u)
# (numerator and denominator of degree <= 2), so every probe residue is a root
_SQUARES_PRODUCT = "*".join(
    f"(x + {c})" for c in ("1", "u^2", "1/u^2", "1/(u^2 + 1)", "u^2/(u^2 + 1)",
                           "u^2 + 1", "(u^2 + 1)/u^2"))


def _out(witness, reason):
    return {"verdict": "CertifiedOut", "witness": witness, "reason": reason}


def _in(component, *pieces):
    return {"verdict": "CertifiedIn", "depth_used": 1,
            "certificate": [{"component": component, "pieces": list(pieces)}]}


class TestResidueBranches:
    """One pullback input, E = ring, per branch of the residue check
    (``_residue_condition``), which gets the breakpoint ratio r0 * locf/locg
    ("ratio" cases) or the zero crossing const * c^s ("powers" cases; at
    value 0 on E = ring just const).  Each input but the last has phi(0) in
    D, since the point 0 is checked before any branch."""

    CASES = {
        # ratio over a finite enumeration: a value outside F, or all inside
        "ratio finite out": (_TADIC_GF2U, _CONSTANTS, "x^2 + (u + 1)*x + 1",
                             _out("1", "residue u + 1 outside subfield")),
        "ratio finite in": (_TADIC_GF4, _SUBGF2, "x^2 + x", _in(
            "GF(4)(t) t-adic",
            {"from": None, "to": "0", "slope": 2, "intercept": "0"},
            {"point": "0", "classes": [{"residue": "*", "case": "exact",
                                        "ratio": "x^2 + x"}]},
            {"from": "0", "to": None, "slope": 1, "intercept": "0",
             "status": "clear"})),
        # a constant ratio: in F, outside F, and with every probe a root
        "ratio constant in F": (
            _TADIC_GF2U, _FROBENIUS, "(x^2 + x + u^2 + t^2)/(x^2 + x + u^2 + t)",
            _in("GF(2)(u)(t) t-adic",
                {"from": None, "to": "0", "slope": 0, "intercept": "0"},
                {"point": "0", "classes": [{"residue": "*", "case": "exact",
                                            "ratio": "1"}]},
                {"from": "0", "to": None, "slope": 0, "intercept": "0",
                 "status": "zero segment", "residue": "1"})),
        "ratio constant out": (_TADIC_GF2U, _FROBENIUS,
                               "(u*x^2 + u*x + t^2)/(x^2 + x + t^2)",
                               _out("(1/u^2)", "residue u outside subfield")),
        "ratio constant no probe": (
            _TADIC_GF2U, _FROBENIUS,
            f"(u*x*{_SQUARES_PRODUCT} + t)/(x*{_SQUARES_PRODUCT} + t)",
            _out("t + ((u^2 + 1)/u^2)",
                 "residue (u^12 + u^11 + u^9 + u^7 + u^5 + u^3 + u)/"
                 "(u^12 + u^10 + u^8 + u^6 + u^4 + u^2 + 1) outside subfield")),
        # a ratio that is a p-th power lands in the Frobenius subfield
        "ratio pth power": (_TADIC_GF2U, _FROBENIUS, "x^4 + x^2", _in(
            "GF(2)(u)(t) t-adic",
            {"from": None, "to": "0", "slope": 4, "intercept": "0"},
            {"point": "0", "classes": [{"residue": "*", "case": "exact",
                                        "ratio": "x^4 + x^2"}]},
            {"from": "0", "to": None, "slope": 2, "intercept": "0",
             "status": "clear"})),
        # even exponents alone do not make a p-th power: u is not a square
        "ratio even exponents out": (_TADIC_GF2U, _FROBENIUS, "u*x^4 + x^2",
                                     _out("1", "residue u + 1 outside subfield")),
        # the bounded probe: a residue outside F, or none found
        "ratio probe out": (_TADIC_GF2U, _FROBENIUS, "u*x^2 + x",
                            _out("1", "residue u + 1 outside subfield")),
        "ratio probe undecided": (_TADIC_GF2U, _FROBENIUS, "x^2 + x", {
            "verdict": "Unknown", "depth_exhausted": False,
            "reason": "residue ratio x^2 + x into subfield undecided at 0"}),
        # value 0 on E = ring: the residues are F's units
        "powers allowed in": (_TADIC_GF4, _SUBGF2, "x", _in(
            "GF(4)(t) t-adic",
            {"from": None, "to": None, "slope": 1, "intercept": "0",
             "status": "clear"})),
        "powers allowed out": (_TADIC_GF4, _SUBGF2, "u*x",
                               _out("1", "residue u outside subfield")),
        # zero crossings at values 1 and 2 around the breakpoint 3/2
        "powers finite out": (_TADIC_GF4, _SUBGF2, "t*x/(x^2 + t^3)",
                              _out("u*t", "residue u + 1 outside subfield")),
        "powers finite in": (_TADIC_GF4, _SUBGF2, "t^3*x^3/(x^6 + t^9)", _in(
            "GF(4)(t) t-adic",
            {"from": None, "to": "3/2", "slope": -3, "intercept": "3",
             "status": "clear"},
            {"point": "3/2", "status": "not a value"},
            {"from": "3/2", "to": None, "slope": 3, "intercept": "-6",
             "status": "clear"})),
        "powers power_subset": (_TADIC_GF2U, _FROBENIUS, "t^2*x^2/(x^4 + t^6)",
                                _in(
            "GF(2)(u)(t) t-adic",
            {"from": None, "to": "3/2", "slope": -2, "intercept": "2",
             "status": "clear"},
            {"point": "3/2", "status": "not a value"},
            {"from": "3/2", "to": None, "slope": 2, "intercept": "-4",
             "status": "clear"})),
        "powers probe out": (_TADIC_GF2U, _CONSTANTS, "t*x/(x^2 + t^3)",
                             _out("(1/u)*t", "residue u outside subfield")),
        # value 0 over GF(2)(u): const in F with s odd is In, because the
        # residues are F's units; const outside F is Out at residue 1
        "powers units x": (_TADIC_GF2U, _FROBENIUS, "x", _in(
            "GF(2)(u)(t) t-adic",
            {"from": None, "to": None, "slope": 1, "intercept": "0",
             "status": "clear"})),
        "powers units u^2*x": (_TADIC_GF2U, _FROBENIUS, "u^2*x", _in(
            "GF(2)(u)(t) t-adic",
            {"from": None, "to": None, "slope": 1, "intercept": "0",
             "status": "clear"})),
        "powers units out": (_TADIC_GF2U, _FROBENIUS, "u*x",
                             _out("1", "residue u outside subfield")),
        # phi(0) = u lies outside F: the point 0 answers before any branch
        "value at 0 first": (_TADIC_GF2U, _CONSTANTS, "x^2 + u",
                             _out("0", "value at 0 outside the domain")),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_verdict(self, case):
        field, subfield, text, expected = self.CASES[case]
        D = domain_from_config({"field": field, "subfield": subfield, "E": "ring"})
        v = intr_member(parse_ratfun(D.field, text), D, depth=3)
        assert v.to_json() == expected
