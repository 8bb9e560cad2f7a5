import random
import sys
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from ivrf import constructions, ratfun, suites
from ivrf.cli import main
from ivrf.constructions import (SingularData, build_psi,
                                build_rho, build_separator, build_theta,
                                coprime_grid, field_map_scan, notlocal_witness,
                                preset, verify_psi, verify_rho,
                                verify_separator, verify_theta, _theta_case)
from ivrf.errors import (PreconditionError, ResourceError, StructuralError,
                         UnsupportedCaseError)
from ivrf.ff import FiniteField, RatFuncField
from ivrf.fields import (ConstantSubfield, FrobeniusSubfield, HahnFinite,
                         PAdicQ, PrimePowerSubfield, TAdicRat)
from ivrf.intr import DomainSpec, intr_member
from ivrf.ordgroup import INFINITY
from ivrf.ratfun import POLE, Polynomial, RationalFunction

S = preset("t6n2")
x = RationalFunction.gen(S.field)


class TestSingularData:
    def test_presets_valid(self):
        preset("t6n2")
        preset("t30n2")

    def test_invariant_enforced(self):
        with pytest.raises(StructuralError):
            SingularData([2, 3], t=8, n=2)   # v_3(8) = 0
        with pytest.raises(StructuralError):
            SingularData([2, 3], t=12, n=2)  # v_2(12) = 2 not < 2
        SingularData([2, 3], t=12, n=3)

    def test_zero_t_rejected(self):
        with pytest.raises(StructuralError):  # v(0) is above every value
            SingularData([2, 3], t=0, n=2)

    def test_unknown_preset_rejected(self):
        with pytest.raises(PreconditionError, match="^unknown preset 't6n3'$"):
            preset("t6n3")


class TestTheta:
    def test_formula_shape(self):
        theta = build_theta(S)
        expect = (6 * (1 + x ** 4)) / ((1 + 6 * x ** 2) * (6 + x ** 2))
        assert theta == expect

    def test_value_at_one(self):
        assert build_theta(S).evaluate(Fraction(1)) == Fraction(12, 49)

    def test_inversion_symmetry(self):
        theta = build_theta(S)
        assert theta.compose(1 / x) == theta

    def test_case_table_examples(self):
        theta = build_theta(S)
        V2, V3 = S.components
        v = theta.evaluate(Fraction(1))
        assert V2.valuation(v) == V2.group.element(2)
        v2 = theta.evaluate(Fraction(2))
        assert v2 == Fraction(51, 125)
        assert V2.residue(v2) == V2.residue_field.one()
        assert theta.evaluate(Fraction(1, 2)) == Fraction(51, 125)
        assert V3.valuation(v2) == V3.group.element(1)

    def test_grid_verification(self):
        _, rep = verify_theta(S, coprime_grid(60))
        assert rep["ok"] and rep["checked"] > 2000

    def test_grid_verification_t30(self):
        _, rep = verify_theta(preset("t30n2"), coprime_grid(25))
        assert rep["ok"]

    def test_suite_builds_each_integer_form_once(self, monkeypatch):
        # theta's two polynomials are put on one denominator once each, not
        # at each of the 48 928 evaluations
        q_ints, calls = ratfun._q_ints, []

        def spy(coeffs):
            calls.append(coeffs)
            return q_ints(coeffs)
        monkeypatch.setattr(ratfun, "_q_ints", spy)
        assert suites.run_suite("theta", seed=2024, samples=200)["ok"]
        assert len(calls) == 12

    def test_suite_certifies_at_its_depth(self, monkeypatch):
        depths = []
        intr_member = suites.intr_member

        def spy(phi, D, depth):
            depths.append(depth)
            return intr_member(phi, D, depth=depth)
        monkeypatch.setattr(suites, "intr_member", spy)
        assert suites.run_suite("theta", samples=20, depth=1)["ok"]
        assert depths == [1]


def _group_case(V, a, value):
    """theta's case table at a for the value, read from group elements and
    the residue of the reduced Fraction: the reference for the integer
    reading of ``_theta_case``."""
    zero = V.group.zero()
    vth = V.valuation(value)
    if V.valuation(a) == zero:
        return "unit argument", vth is not INFINITY and vth > zero
    return "congruent to 1", vth == zero and V.residue(value) == V.residue_field.one()


def _case_draws(p, rng):
    """Seeded (a, N, D) triples, D nonzero and N/D unreduced: a of either
    sign with p^-3 .. p^3 (0 among them), and N equal to D, 0, D plus a
    multiple of a power of p, or any multiple of one; then the pairs of
    theta's own evaluation at specs with v_p(t) = 2 and v_p(t) = 1."""
    def point():
        r = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
        return r * Fraction(p) ** rng.randint(-3, 3)

    draws = []
    for k in range(3000):
        a = Fraction(0) if k % 50 == 0 else point()
        D = rng.choice([-1, 1]) * rng.randint(1, 50) * p ** rng.randint(0, 3)
        N = (D, 0, D + rng.randint(-50, 50) * p ** rng.randint(0, 4),
             rng.randint(-50, 50) * p ** rng.randint(0, 4))[k % 4]
        draws.append((a, N, D))
    other = 3 if p == 2 else 2
    for T in (SingularData([p], p ** 2, 3), SingularData(sorted([p, other]), p * other, 2)):
        theta = build_theta(T)
        for a in [*coprime_grid(8), *(point() for _ in range(200))]:
            N, D = theta.evaluate_pair(a)
            if D:
                draws.append((a, N, D))
    return draws


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_integer_case_table_matches_group_elements(p):
    V = PAdicQ(p)
    seen = set()
    for a, N, D in _case_draws(p, random.Random(f"theta-case:{p}")):
        got = _theta_case(V, a.numerator, a.denominator, N, D)
        assert got == _group_case(V, a, Fraction(N, D)), (a, N, D)
        seen.add(got)
    assert seen == {("unit argument", True), ("unit argument", False),
                    ("congruent to 1", True), ("congruent to 1", False)}


@st.composite
def singular_data(draw):
    """An admissible spec beyond the presets: primes a nonempty subset of
    {2, 3, 5, 7}, n 2 or 3, and t the product of p^e over the primes with
    0 < e < n (n = 1 admits no t)."""
    primes = draw(st.lists(st.sampled_from([2, 3, 5, 7]), min_size=1,
                           max_size=4, unique=True).map(sorted))
    n = draw(st.integers(2, 3))
    t = 1
    for p in primes:
        t *= p ** draw(st.integers(1, n - 1))
    return SingularData(primes, t, n)


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(singular_data())
def test_every_verifier_holds_on_admissible_specs(T):
    grid = list(coprime_grid(12))
    y = RationalFunction.gen(T.field)
    theta, rep = verify_theta(T, grid)
    assert rep["ok"] and rep["checked"] == len(grid), rep["violations"][:3]
    for phi in (y, (y * y - 2) / (3 * y + 1)):
        assert verify_psi(phi, T, grid)[1]["ok"], phi
    assert verify_rho(y + 2, y * y - 3, T, grid)[1]["ok"]
    assert verify_separator(y, T, grid)[1]["ok"]
    assert intr_member(theta, T.domain(), depth=3).kind == "in"


class TestPsi:
    def test_shape_and_identity(self):
        psi, identity = build_psi(x, S), verify_psi(x, S, [])[1]["identity"]
        assert psi == x ** 2 / (x ** 4 + 6)
        assert identity

    def test_unit_case(self):
        psi = build_psi(x, S)
        V2 = S.components[0]
        assert V2.valuation(psi.evaluate(Fraction(1))) == V2.group.zero()

    def test_ideal_case(self):
        psi = build_psi(x, S)
        assert psi.evaluate(Fraction(2)) == Fraction(2, 11)
        V2 = S.components[0]
        assert V2.valuation(psi.evaluate(Fraction(2))) == V2.group.element(1)

    def test_identity_for_random_functions(self):
        rng = random.Random(0)
        for _ in range(40):
            num = Polynomial(S.field, [Fraction(rng.randint(-5, 5))
                                       for _ in range(rng.randint(1, 5))])
            den = Polynomial(S.field, [Fraction(rng.randint(-5, 5))
                                       for _ in range(rng.randint(1, 5))])
            if num.is_zero() or den.is_zero():
                continue
            phi = RationalFunction(num, den)
            if phi.is_zero():
                continue
            identity = verify_psi(phi, S, [])[1]["identity"]
            assert identity

    def test_case_table(self):
        _, rep = verify_psi(x, S, list(coprime_grid(20)))
        assert rep["ok"]


class TestRho:
    def test_constants(self):
        two = RationalFunction.constant(S.field, Fraction(2))
        three = RationalFunction.constant(S.field, Fraction(3))
        rho = build_rho(two, three, S)
        assert rho.is_constant() and rho.as_constant() == Fraction(929, 319)
        V2, V3 = S.components
        assert V2.valuation(rho.as_constant()) == V2.group.zero()
        assert V3.valuation(rho.as_constant()) == V3.group.zero()

    def test_equal_arguments(self):
        rho = build_rho(x, x, S)
        for a in (Fraction(2), Fraction(3), Fraction(1, 6)):
            for V in S.components:
                assert V.valuation(rho.evaluate(a)) == V.valuation(a)

    def test_constant_squares(self):
        four = RationalFunction.constant(S.field, Fraction(4))
        nine = RationalFunction.constant(S.field, Fraction(9))
        rho = build_rho(four, nine, S)
        V2, V3 = S.components
        assert V2.valuation(rho.as_constant()) == V2.group.zero()
        assert V3.valuation(rho.as_constant()) == V3.group.zero()

    def test_min_law_sampled(self):
        _, rep = verify_rho(x + 2, x * x - 3, S, list(coprime_grid(15)))
        assert rep["ok"]


class TestSeparator:
    def test_ideal_side(self):
        sep = build_separator(x, S)
        assert sep.evaluate(Fraction(2)) == Fraction(250, 301)
        V2 = S.components[0]
        assert V2.valuation(sep.evaluate(Fraction(2))) == V2.group.element(1)

    def test_unit_side(self):
        sep = build_separator(x, S)
        V2 = S.components[0]
        assert V2.valuation(sep.evaluate(Fraction(1))) == V2.group.zero()

    def test_sampled(self):
        _, rep = verify_separator(x, S, list(coprime_grid(15)))
        assert rep["ok"]


class TestVerifierFailures:
    """Each verifier fed a wrong function by a patched builder reports it,
    and hands back the function it checked."""

    def test_theta(self, monkeypatch):
        monkeypatch.setattr(constructions, "build_theta", lambda S: 1 / x)
        theta, rep = verify_theta(S, coprime_grid(3))
        assert theta == 1 / x and not rep["ok"]
        assert rep["checked"] == 14  # the pole at 0 is not checked
        assert rep["violations"][0] == {"a": "0", "case": "pole"}
        assert {"a": "1", "prime": 2, "case": "unit argument"} in rep["violations"]
        assert {"a": "2", "prime": 2, "case": "congruent to 1"} in rep["violations"]

    def test_psi(self, monkeypatch):
        monkeypatch.setattr(constructions, "build_psi", lambda phi, S: phi)
        psi, rep = verify_psi(x, S, list(coprime_grid(4)))
        assert psi == x and not rep["ok"]
        assert rep["identity"] is False
        assert {"a": "4", "prime": 2} in rep["violations"]  # v_2 is 2, not 2*2-1

    def test_psi_identity_alone_fails_the_report(self, monkeypatch):
        monkeypatch.setattr(constructions, "build_psi", lambda phi, S: phi)
        _, rep = verify_psi(x, S, list(coprime_grid(3)))
        assert rep["identity"] is False and rep["violations"] == []
        assert not rep["ok"]

    def test_rho(self, monkeypatch):
        monkeypatch.setattr(constructions, "build_rho", lambda phi1, phi2, S: phi1)
        rho, rep = verify_rho(x + 2, x * x - 3, S, list(coprime_grid(3)))
        assert rho == x + 2 and not rep["ok"]
        # v_2(2) = 1 but v_2(-3) = 0
        assert rep["violations"][0] == {"a": "0", "prime": 2}

    def test_separator(self, monkeypatch):
        monkeypatch.setattr(constructions, "build_separator",
                            lambda phi, S: 1 / (x - 1))
        sep, rep = verify_separator(x, S, list(coprime_grid(3)))
        assert sep == 1 / (x - 1) and not rep["ok"]
        assert rep["skipped"] == 1 and rep["checked"] == 14  # the pole at 1
        assert {"a": "3", "case": "not in D"} in rep["violations"]
        assert {"a": "2", "prime": 2} in rep["violations"]

    def test_separator_skips_a_pole_of_phi(self):
        _, rep = verify_separator(1 / x, S, list(coprime_grid(3)))
        assert rep["ok"] and rep["skipped"] == 1 and rep["checked"] == 14


def _group_psi(phi, T, samples):
    """verify_psi read from group elements of the reduced values: the
    reference for its integer reading."""
    psi = constructions.build_psi(phi, T)
    phi_n = phi ** T.n
    identity = phi_n * (1 - phi_n * psi) == RationalFunction.constant(T.field, T.t) * psi
    report = {"identity": identity, "checked": 0, "violations": []}
    for a in samples:
        pv = phi.evaluate(a)
        sv = psi.evaluate(a)
        if pv is POLE or sv is POLE:
            continue
        for V in T.components:
            zero = V.group.zero()
            vphi = V.valuation(pv)
            vpsi = V.valuation(sv)
            if vphi == zero:
                ok = vpsi == zero
            elif vphi is not INFINITY and vphi > zero:
                expect = vphi.scale(T.n) - V.valuation(T.t)
                ok = vpsi == expect and vpsi > zero
            else:
                continue
            if not ok:
                report["violations"].append({"a": str(a), "prime": V.p})
        report["checked"] += 1
    report["ok"] = identity and not report["violations"]
    return psi, report


def _group_rho(phi1, phi2, T, samples):
    rho = constructions.build_rho(phi1, phi2, T)
    report = {"checked": 0, "skipped": 0, "violations": []}
    for a in samples:
        v1 = phi1.evaluate(a)
        v2 = phi2.evaluate(a)
        vr = rho.evaluate(a)
        if v1 is POLE or v2 is POLE or vr is POLE:
            report["skipped"] += 1
            continue
        for V in T.components:
            expect = min(V.valuation(v1), V.valuation(v2))
            if V.valuation(vr) != expect:
                report["violations"].append({"a": str(a), "prime": V.p})
        report["checked"] += 1
    report["ok"] = not report["violations"]
    return rho, report


def _group_separator(phi, T, samples):
    psi = constructions.build_separator(phi, T)
    D = T.domain()
    report = {"checked": 0, "skipped": 0, "violations": []}
    for a in samples:
        pv = phi.evaluate(a)
        sv = psi.evaluate(a)
        if pv is POLE or sv is POLE:
            report["skipped"] += 1
            continue
        if not D.member(sv):
            report["violations"].append({"a": str(a), "case": "not in D"})
        for V in T.components:
            zero = V.group.zero()
            vphi = V.valuation(pv)
            vpsi = V.valuation(sv)
            if (vphi > zero) != (vpsi > zero):
                report["violations"].append({"a": str(a), "prime": V.p})
        report["checked"] += 1
    report["ok"] = not report["violations"]
    return psi, report


# the presets, the specs of the theta digest, and a non-integral t
_ORACLE_SPECS = [*(SingularData(*spec) for spec in constructions.PRESETS.values()),
                 SingularData([2, 3], 12, 3), SingularData([3, 5], 45, 3),
                 SingularData([2, 3, 5, 7], 210, 2),
                 SingularData([2, 3], Fraction(12, 5), 3)]


def _oracle_phis(T):
    """Functions with poles and zeros on the grid: x, 1/x, x - 1 and
    (x^2 - 2)/(3x + 1)."""
    y = RationalFunction.gen(T.field)
    return [y, 1 / y, y - 1, (y * y - 2) / (3 * y + 1)]


def _oracle_reports(T, grid):
    """Each verifier's name and result beside its group-element reference."""
    phis = _oracle_phis(T)
    for phi in phis:
        yield "psi", verify_psi(phi, T, grid), _group_psi(phi, T, grid)
        yield "separator", verify_separator(phi, T, grid), _group_separator(phi, T, grid)
        for phi2 in phis:
            yield "rho", verify_rho(phi, phi2, T, grid), _group_rho(phi, phi2, T, grid)


class TestGroupOracle:
    """psi, rho and the separator report what the group-element reading of
    the reduced values reports, on sound and on wrong functions."""

    @pytest.mark.parametrize("T", _ORACLE_SPECS, ids=repr)
    def test_sound_builders(self, T):
        for name, got, ref in _oracle_reports(T, list(coprime_grid(5))):
            assert got == ref, name

    @pytest.mark.parametrize("T", _ORACLE_SPECS, ids=repr)
    def test_wrong_builders(self, T, monkeypatch):
        y = RationalFunction.gen(T.field)
        monkeypatch.setattr(constructions, "build_psi", lambda phi, T: phi)
        monkeypatch.setattr(constructions, "build_rho", lambda phi1, phi2, T: phi1)
        monkeypatch.setattr(constructions, "build_separator",
                            lambda phi, T: 1 / (y - 1))
        violations = {}
        for name, got, ref in _oracle_reports(T, list(coprime_grid(5))):
            assert got == ref, name
            violations[name] = violations.get(name, 0) + len(got[1]["violations"])
        assert all(violations.values()), violations


@pytest.mark.parametrize("suite, expected", [
    ("psi-identity", {}),
    ("rho", {("ivrf.intr", "ideal_member"): 924}),  # the characteristic sets
])
def test_q_suites_read_no_group_valuation_in_constructions(suite, expected, monkeypatch):
    calls = {}
    valuation = PAdicQ.valuation

    def spy(self, a):
        caller = sys._getframe(1)
        key = (caller.f_globals["__name__"], caller.f_code.co_name)
        calls[key] = calls.get(key, 0) + 1
        return valuation(self, a)
    monkeypatch.setattr(PAdicQ, "valuation", spy)
    assert suites.run_suite(suite, seed=2024)["ok"]
    assert calls == expected


class TestOneBuild:
    """A construct command or the theta suite builds each function once."""

    @pytest.fixture
    def builds(self, monkeypatch):
        counts = {}
        for name in ("build_theta", "build_psi", "build_rho", "build_separator"):
            def spy(*args, _name=name, _real=getattr(constructions, name)):
                counts[_name] = counts.get(_name, 0) + 1
                return _real(*args)
            monkeypatch.setattr(constructions, name, spy)
        return counts

    @pytest.mark.parametrize("args, expected", [
        (["theta", "--samples", "5"], {"build_theta": 1}),
        (["psi", "--samples", "5"], {"build_psi": 1}),
        (["rho", "--phi", "x+2", "--phi2", "x^2-3", "--samples", "5"],
         {"build_rho": 1, "build_theta": 1}),
        (["separator", "--phi", "x", "--samples", "5"],
         {"build_separator": 1, "build_theta": 1}),
    ])
    def test_construct(self, builds, args, expected):
        res = CliRunner().invoke(main, ["construct", *args])
        assert res.exit_code == 0, res.output
        assert builds == expected

    def test_theta_suite(self, builds):
        assert suites.run_suite("theta", samples=20)["ok"]
        assert builds == {"build_theta": 1}


class TestWitnesses:
    def test_finite_case(self):
        F4 = FiniteField(2, 2)
        D = DomainSpec.pvd(TAdicRat(F4), PrimePowerSubfield(F4, 1))
        rng = random.Random(1)
        pts = [D.field.random_nonzero(rng) for _ in range(120)]
        w, rec = notlocal_witness(D, split_samples=pts)
        assert rec["ok"] and rec["maps_to_one"] and rec["certified"]
        assert w.den.degree == 4

    def test_inseparable_case(self):
        GFU = RatFuncField(FiniteField(2), "u")
        D = DomainSpec.pvd(HahnFinite(GFU), FrobeniusSubfield(GFU, 1))
        rng = random.Random(2)
        pts = [D.field.random_nonzero(rng) for _ in range(80)]
        w, rec = notlocal_witness(D, split_samples=pts)
        assert rec["ok"] and rec["denominator_rootless"] and rec["certified"]
        assert w.den.degree == 4

    def test_split_evaluation_skips_zero_coefficients(self, monkeypatch):
        """One split evaluation of the e = 4 witness 1/(x^256 - u^16) on the
        Hahn field: the point spread onto its lattice is mostly zero
        coefficients, and making the value's denominator monic multiplies
        only the nonzero ones (515 products when each zero took one)."""
        GFU = RatFuncField(FiniteField(2), "u")
        D = DomainSpec.pvd(HahnFinite(GFU), FrobeniusSubfield(GFU, 4))
        w, _ = notlocal_witness(D, depth=1)
        a = D.field.parse("(1/(u + 1))*t^{1/2} + (u + 1)*t^2")
        expected = 1 / (a ** 256 - D.field.lift(GFU.gen() ** 16))
        products = []
        mul = RationalFunction.__mul__

        def spy(f, g):
            products.append(f)
            return mul(f, g)
        monkeypatch.setattr(RationalFunction, "__mul__", spy)
        value = w.evaluate(a)
        assert len(products) == 5
        assert value == expected

    def test_intersection_rejected(self):
        D = DomainSpec.intersection([TAdicRat(FiniteField(2))] * 2)
        with pytest.raises(PreconditionError):
            notlocal_witness(D)

    def test_unsupported_case(self):
        GFU = RatFuncField(FiniteField(2), "u")
        D = DomainSpec.pvd(HahnFinite(GFU), ConstantSubfield(GFU))
        with pytest.raises(UnsupportedCaseError):
            notlocal_witness(D)


class TestFieldMapScan:
    def test_trace_found(self):
        F4 = FiniteField(2, 2)
        scan = field_map_scan(F4, PrimePowerSubfield(F4, 1), 2, 0)
        trace = RationalFunction(Polynomial(F4, [F4.zero(), F4.one(), F4.one()]))
        entry = scan.find(trace)
        assert entry is not None
        u = F4.gen()
        assert entry["values"][F4.zero()] == F4.zero()
        assert entry["values"][F4.one()] == F4.zero()
        assert entry["values"][u] == F4.one()
        assert entry["values"][u + 1] == F4.one()

    def test_norm_found_at_three(self):
        F4 = FiniteField(2, 2)
        scan = field_map_scan(F4, PrimePowerSubfield(F4, 1), 3, 0)
        norm = RationalFunction(Polynomial(
            F4, [F4.zero(), F4.zero(), F4.zero(), F4.one()]))
        entry = scan.find(norm)
        assert entry is not None
        assert all(entry["values"][d] == F4.one()
                   for d in F4.elements() if d != F4.zero())

    def test_whole_field_everything_qualifies(self):
        F2 = FiniteField(2)
        scan = field_map_scan(F2, None, 1, 1)
        assert len(scan.maps) == scan.scanned

    def test_every_entry_reverifies(self):
        F4 = FiniteField(2, 2)
        M = PrimePowerSubfield(F4, 1)
        scan = field_map_scan(F4, M, 2, 1)
        for entry in scan.maps:
            bad = [d for d in F4.elements()
                   if entry["values"][d] is POLE or not M.contains(entry["values"][d])]
            assert len(bad) <= 1
            assert bad == entry["exceptions"]

    def test_resource_guards(self):
        F64 = FiniteField(2, 6)
        with pytest.raises(ResourceError):
            field_map_scan(F64, None, 2, 0)
        F4 = FiniteField(2, 2)
        with pytest.raises(ResourceError):
            field_map_scan(F4, None, 5, 0)
        GFU = RatFuncField(FiniteField(2), "u")
        with pytest.raises(PreconditionError):
            field_map_scan(GFU, ConstantSubfield(GFU), 2, 0)

    @pytest.mark.parametrize("bounds", [(-1, 0), (2, -1)], ids=["degree", "exceptions"])
    def test_negative_bound_is_a_precondition_error(self, bounds):
        with pytest.raises(PreconditionError, match="at least 0"):
            field_map_scan(FiniteField(2, 2), None, *bounds)

    def test_json_shape(self):
        F2 = FiniteField(2)
        scan = field_map_scan(F2, None, 1, 0)
        data = scan.to_json()
        assert data["source"] == "GF(2)"
        assert data["scanned"] == scan.scanned
        assert all("function" in m for m in data["maps"])
