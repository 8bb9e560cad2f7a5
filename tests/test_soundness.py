"""Soundness of ``intr_member`` on random functions of degree at most 3.

For each domain, on E = ring and on E = field, Hypothesis draws the four
coefficients of a numerator and of a denominator from a small pool and
checks the three promises of the certifier:

* a ``CertifiedIn`` holds at every sampled point of E: phi has no pole
  there and its value lies in D;
* a ``CertifiedOut`` witness lies in E, and phi fails there again under
  direct evaluation (a pole, or a value outside D);
* a repeated call gives the same verdict JSON.

The sampled points are a fixed pool per field, cut down to the points of E;
on E = ring it holds units with residue inside and outside each subfield.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from ivrf.ff import FiniteField, RatFuncField
from ivrf.fields import (ConstantSubfield, FrobeniusSubfield, HahnFinite, LexRank2,
                         PAdicQ, PrimePowerSubfield, TAdicRat)
from ivrf.intr import WHOLE_FIELD, WHOLE_RING, DomainSpec, intr_member
from ivrf.ratfun import POLE, Polynomial, RationalFunction

GF2 = FiniteField(2)
GF4 = FiniteField(2, 2)
GF2_U = RatFuncField(GF2, "u")

TADIC_U = TAdicRat(GF2_U)
HAHN_U = HahnFinite(GF2_U)
HAHN_GF4 = HahnFinite(GF4)

TADIC_COEFFS = ["0", "1", "t", "u", "u*t", "1/t", "u + 1", "t^2", "1/u", "u^2"]
TADIC_POINTS = ["0", "1", "t", "u", "u^2", "u*t", "1 + t", "1/t", "u + t",
                "u^2 + 1", "u/t", "(u + 1)*t^2"]
HAHN_COEFFS = ["0", "1", "t", "u", "t^(1/2)", "u*t^(1/2)", "1/t", "u + 1", "u^2"]
HAHN_POINTS = ["0", "1", "u", "u^2", "t^(1/2)", "u*t", "1/t^(1/2)",
               "1 + t^(1/2)", "u^2 + t", "u + 1"]

# name -> (domain on E = ring, coefficient pool, point pool)
DOMAINS = {
    "Q5": (DomainSpec.pvd(PAdicQ(5), None),
           ["0", "1", "-1", "2", "5", "1/5", "3/25", "25", "7"],
           ["0", "1", "2", "3", "5", "10", "25", "1/5", "1/2", "-1", "6/5"]),
    "{2,3}": (DomainSpec.intersection([PAdicQ(2), PAdicQ(3)], WHOLE_RING),
              ["0", "1", "2", "3", "6", "1/2", "1/3", "1/6", "5"],
              ["0", "1", "2", "3", "5", "6", "7", "12", "1/2", "1/3", "1/5"]),
    "tadic/GF2(u) constants": (
        DomainSpec.pvd(TADIC_U, ConstantSubfield(GF2_U)),
        TADIC_COEFFS, TADIC_POINTS),
    "tadic/GF2(u) frobenius": (
        DomainSpec.pvd(TADIC_U, FrobeniusSubfield(GF2_U, 1)),
        TADIC_COEFFS, TADIC_POINTS),
    "hahn/GF2(u) constants": (
        DomainSpec.pvd(HAHN_U, ConstantSubfield(GF2_U)),
        HAHN_COEFFS, HAHN_POINTS),
    "hahn/GF2(u) frobenius": (
        DomainSpec.pvd(HAHN_U, FrobeniusSubfield(GF2_U, 1)),
        HAHN_COEFFS, HAHN_POINTS),
    "tadic/GF2(u) constants, u-degree 5-8": (
        DomainSpec.pvd(TADIC_U, ConstantSubfield(GF2_U)),
        ["0", "1", "t", "(u^5 + u^2 + 1)*t", "(u^7 + u + 1)/(u^3 + u)",
         "(u^6 + u^5 + 1)/t", "(u^8 + u^4 + u^3 + 1)*t^2/(u^2 + 1)",
         "(u^5 + u^3 + u^2 + u + 1)/(u^4 + u^2)", "u^6/(u^8 + u + 1)"],
        TADIC_POINTS),
    "lex2/GF2": (DomainSpec.pvd(LexRank2(GF2), None),
                 ["0", "1", "t1", "t2", "1/t1", "t1*t2", "1/t2", "t2/t1"],
                 ["0", "1", "t1", "t2", "1/t1", "t1/t2", "t2/t1", "1 + t1",
                  "1 + t2", "t1 + t2"]),
    "hahn/GF4 over GF2": (
        DomainSpec.pvd(HAHN_GF4, PrimePowerSubfield(GF4, 1)),
        ["0", "1", "u", "u + 1", "t", "t^(1/2)", "u*t^(1/2)", "1/t"],
        ["0", "1", "u", "u + 1", "t^(1/2)", "u*t", "1/t^(1/2)", "1 + t",
         "u + t^(1/2)"]),
}


def _verdict_json(v):
    return json.dumps(v.to_json(), sort_keys=True, default=str)


def _fails(D, phi, a):
    ev = phi.evaluate(a)
    return ev is POLE or not D.member(ev)


@pytest.mark.parametrize("E", [WHOLE_RING, WHOLE_FIELD])
@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_verdicts_are_sound(name, E):
    ring, coeffs, points = DOMAINS[name]
    D = DomainSpec(ring.components, E)
    V = D.field
    pool = [V.parse(c) for c in coeffs]
    sample = [a for a in (V.parse(p) for p in points) if D.contains_point(a)]

    coefficients = st.lists(st.sampled_from(pool), min_size=4, max_size=4)

    @given(coefficients, coefficients)
    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    def check(num, den):
        den_poly = Polynomial(V, den)
        if den_poly.is_zero():
            return
        phi = RationalFunction(Polynomial(V, num), den_poly)
        verdict = intr_member(phi, D, depth=3)
        if verdict.kind == "in":
            bad = [str(a) for a in sample if _fails(D, phi, a)]
            assert not bad, f"{phi} certified in {D.describe()} but fails at {bad}"
        elif verdict.kind == "out":
            assert D.contains_point(verdict.witness), (phi, verdict.witness)
            assert _fails(D, phi, verdict.witness), (phi, verdict.witness)
        assert _verdict_json(intr_member(phi, D, depth=3)) == _verdict_json(verdict)

    check()
