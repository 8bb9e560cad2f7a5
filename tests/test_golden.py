"""Golden outputs: the ten verify suites must keep their reports byte for byte.

Each digest is the sha256 of a suite's report at seed 3 and 20 samples,
as sorted-key JSON (``default=str``, like ``ivrf verify``, without the
indentation) with the wall-clock ``elapsed`` field removed.  A change
that alters any certified verdict, witness, envelope or printed rational
function changes a digest; a pure speed-up does not.

The suites meet the GF(2)(u) towers only in ``witnesses`` and ``mstar``,
so one more digest pins canonical forms and verdicts over the fields whose
arithmetic rests on GF(2)[v] (see ``test_tower_digest``), and another over
Hahn fields with a dense residue field, GF(4) and GF(3) (see
``test_hahn_digest``).  A third pins the full verdict JSON (witness, reason
and certificate) over p-adic rings, an intersection and the pullbacks whose
residue checks probe a restricted set of residues (see
``test_verdict_digest``).  A fourth pins the value-ideal answers of
``ideal_member`` on the same functions (see ``test_value_ideal_digest``).
"""

import hashlib
import json
import random
from collections import Counter

import pytest

from ivrf.errors import UndecidedError
from ivrf.ff import FiniteField, RatFuncField
from ivrf.fields import (ConstantSubfield, FrobeniusSubfield, HahnFinite, LexRank2,
                         PAdicQ, PrimePowerSubfield, TAdicRat)
from ivrf.intr import (WHOLE_FIELD, WHOLE_RING, DomainSpec, ValueIdeal, ideal_member,
                       intr_member)
from ivrf.ratfun import Polynomial, RationalFunction
from ivrf.suites import run_suite

GOLDEN = {
    "envelope": "50c51f24123c5914148fb0cc9bd6320dc92e35c2f6fe838eb44c03be662124f7",
    "gauss": "146e71e029ba501004284afeed8f9570e49b6411669b8e0e3ba2175d88cb6f11",
    "predict": "77bb7688a9ae0af012c80a4c539e4911fa5cc3490f0981322f82c9f42f4a81bd",
    "slopes": "8e477afbe297217adecbf9bee0f2f0b0c22fb63e1bacde0a7de0b6fb4b6a6377",
    "psi-identity": "5f4db7e531d4700a8f14d431d40b4378d08b1369a5ac68a31eb277066eea43d8",
    "theta": "11c50caeefb83fbca6e213f6b680337929f89dfb469879cb65c60b0a3bd7c684",
    "rho": "6f982c6161907fabc54ef0c17c454c5d5406ef187acb718af7f17e9731195caf",
    "mstar": "afc1d90a20f547d220522e3b95adfd48d0f45ba21b91a5acf6f6a47e091bcbda",
    "witnesses": "55b7b7d3b9dbbb41e784cb855768cd7acf3bfdd87d0ac0809ee8cc2e0d85a5c0",
    "dichotomy": "ae2f9878c68bac0a97785c9e5ec3219f36c6fbb33027c39e18da7e1107c3afad",
}


@pytest.mark.parametrize("suite", sorted(GOLDEN))
def test_report_digest(suite):
    rep = run_suite(suite, seed=3, samples=20)
    assert rep["ok"], rep["failures"][:5]
    body = {k: v for k, v in rep.items() if k != "elapsed"}
    text = json.dumps(body, sort_keys=True, default=str)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[suite]


GF2 = FiniteField(2)
GF2_U = RatFuncField(GF2, "u")
# field name -> (domain, number of seeded pairs).  The pair counts are those
# the digest was first taken with; more pairs would change the digest.
TOWER_DOMAINS = {
    "GF2(u)(t)": (DomainSpec.pvd(TAdicRat(GF2_U), ConstantSubfield(GF2_U)), 6),
    "hahn/GF2(u)": (DomainSpec.pvd(HahnFinite(GF2_U), ConstantSubfield(GF2_U)), 2),
    "lex2": (DomainSpec.pvd(LexRank2(GF2), None), 6),
    "hahn/GF2": (DomainSpec.pvd(HahnFinite(GF2), None), 6),
}
TOWER_DIGEST = "de7e04ee54f0459a526a1a9c596ca71bc1582b12c750dfb85660ff65956f2860"


def _nonzero_poly(V, rng):
    while True:
        p = Polynomial(V, [V.random_element(rng) for _ in range(rng.randint(1, 3))])
        if not p.is_zero():
            return p


def _kind_and_witness(v):
    return f"{v.kind}\t{getattr(v, 'witness', '')}"


def _seeded_functions(domains, seed_prefix):
    # Per field, seeded pairs a, b of quotients of degree <= 2 polynomials,
    # and their product and quotient.  Each product and quotient is checked
    # against the unreduced fraction by cross-multiplication, which needs no
    # gcd.
    for name, (D, pairs) in domains.items():
        V = D.field
        rng = random.Random(f"{seed_prefix}:{name}")
        for _ in range(pairs):
            a = RationalFunction(_nonzero_poly(V, rng), _nonzero_poly(V, rng))
            b = RationalFunction(_nonzero_poly(V, rng), _nonzero_poly(V, rng))
            prod, quot = a * b, a / b
            assert prod.num * (a.den * b.den) == prod.den * (a.num * b.num)
            assert quot.num * (a.den * b.num) == quot.den * (a.num * b.den)
            yield name, D, prod
            yield name, D, quot


def _domain_digest(domains, seed_prefix, verdict_text=_kind_and_witness):
    # Each line is a seeded function as printed, and the verdict of
    # intr_member(depth=3) on it (by default its kind and witness).
    lines = [f"{name}\t{phi}\t{verdict_text(intr_member(phi, D, depth=3))}"
             for name, D, phi in _seeded_functions(domains, seed_prefix)]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_tower_digest():
    assert _domain_digest(TOWER_DOMAINS, "tower-golden") == TOWER_DIGEST


GF4 = FiniteField(2, 2)
HAHN_GF4 = HahnFinite(GF4)
HAHN_DOMAINS = {
    "hahn/GF4": (DomainSpec.pvd(HAHN_GF4, None), 6),
    "hahn/GF4 over GF2": (DomainSpec.pvd(HAHN_GF4, PrimePowerSubfield(GF4, 1)), 6),
    "hahn/GF3": (DomainSpec.pvd(HahnFinite(FiniteField(3)), None), 6),
}
HAHN_DIGEST = "49f0ec9832381a44ab651aeffadae8b6f80de0bdd44f07348cad8b83b7c07d47"


def test_hahn_digest():
    assert _domain_digest(HAHN_DOMAINS, "hahn-golden") == HAHN_DIGEST


GF2_U_FROBENIUS = FrobeniusSubfield(GF2_U, 1)
# Two pairs over Hahn/GF(2)(u), as when the digest was taken; the third pair
# is in test_mixed_lattice_digest.
VERDICT_DOMAINS = {
    "Q5": (DomainSpec.pvd(PAdicQ(5), None), 6),
    "{2,3} on E=field": (DomainSpec.intersection([PAdicQ(2), PAdicQ(3)]), 6),
    "tadic/GF4 over GF2": (DomainSpec.pvd(TAdicRat(GF4), PrimePowerSubfield(GF4, 1)), 6),
    "tadic/GF2(u) constants": (DomainSpec.pvd(TAdicRat(GF2_U), ConstantSubfield(GF2_U)), 6),
    "tadic/GF2(u) frobenius": (DomainSpec.pvd(TAdicRat(GF2_U), GF2_U_FROBENIUS), 6),
    "hahn/GF2(u) frobenius": (DomainSpec.pvd(HahnFinite(GF2_U), GF2_U_FROBENIUS), 2),
    "hahn/GF4 over GF2": (DomainSpec.pvd(HAHN_GF4, PrimePowerSubfield(GF4, 1)), 6),
}
VERDICT_DIGEST = "609e4bec978c4406789de3dfb03e503150f9fcf1a47864d6a66f3035827e3956"


def test_verdict_digest():
    digest = _domain_digest(VERDICT_DOMAINS, "verdict-golden",
                            lambda v: json.dumps(v.to_json(), sort_keys=True, default=str))
    assert digest == VERDICT_DIGEST


# Three pairs over Hahn/GF(2)(u) with the verdict digest's seed.  The third
# mixes the lattices of t^(1/2), t^(5/6) and t^(-2/3), so its product and
# quotient live on s = t^(1/6); normalizing them through one gcd of the full
# product took about a minute each, and checking the reduced results
# coprime takes as long, hence the cross-multiplication check.
MIXED_DOMAINS = {"hahn/GF2(u) frobenius": (VERDICT_DOMAINS["hahn/GF2(u) frobenius"][0], 3)}
MIXED_DIGEST = "079307f8753408d215804c1fcfdf4b6259a4fde8354c49ab775db4add166d8e0"


def test_mixed_lattice_digest():
    digest = _domain_digest(MIXED_DOMAINS, "verdict-golden",
                            lambda v: json.dumps(v.to_json(), sort_keys=True, default=str))
    assert digest == MIXED_DIGEST


# The value ideals m and m^2 over the verdict digest's functions, with E the
# whole ring and the whole field: each line is the answer of ideal_member
# (depth 3), or UndecidedError.
VALUE_IDEAL_DIGEST = "ccd865fc9fb8bd07f9bd71d58918e85c04b819cbb7a22be72942b8cb90a2dd74"


def test_value_ideal_digest():
    lines, answers = [], Counter()
    for name, D, phi in _seeded_functions(VERDICT_DOMAINS, "verdict-golden"):
        for E in (WHOLE_RING, WHOLE_FIELD):
            on_E = DomainSpec(D.components, E)
            for power in (1, 2):
                try:
                    answer = str(ideal_member(phi, ValueIdeal(power), on_E, depth=3))
                except UndecidedError:
                    answer = "UndecidedError"
                answers[answer] += 1
                lines.append(f"{name}\tE={E}\tm^{power}\t{phi}\t{answer}")
    assert answers == {"True": 25, "False": 267, "UndecidedError": 12}
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == VALUE_IDEAL_DIGEST
