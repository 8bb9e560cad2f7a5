"""Digests of ivrf's deterministic outputs, for checking that a refactor
leaves every one of them byte-identical.

    python tools/identity.py [--suite-seed 7] [--corpus-seeds 7 2024]

prints seven sha256 digests: ``suites`` over the ten ``run_suite`` reports
at the suite seed (default sample counts, without ``elapsed``); ``corpus``
over ``str(phi)`` and the verdict JSON of ``intr_member(phi, D, depth=3)``
for every ``certify`` and ``tower`` item of ``perfbench/corpus.py`` at each
corpus seed; ``kinds`` over the seed, the item id and the verdict kind
(in, out or unknown) of the same items; and ``witness`` over the
``notlocal_witness`` records of the Frobenius pullbacks of GF(2)(u)
(e = 1..4) and GF(3)(u) (e = 1, 2), each on the t-adic and the Hahn field,
at depth 3 with 10 split samples drawn from ``random.Random(0)``; and
``newton`` over the envelope JSON of 40 seeded nonzero rational functions
on each of six fields (Q5, t-adic GF(4) and GF(2)(u), lex2 GF(2), Hahn
GF(2) and GF(2)(u)), with the prediction, the slopes and the local
polynomials of the numerator and the denominator at a seeded point; in
every odd draw each numerator coefficient attains the minimum at that
point, so the local polynomials have several terms; and ``theta`` over
the ``verify_theta`` reports on ``coprime_grid(60)`` at ({2,3}, t=12,
n=3), ({3,5}, t=45, n=3) and ({2,3,5,7}, t=210, n=2), beyond the suite's
one preset; and ``compose`` over ``str(phi.compose(b0 + b1*x))`` for 40
seeded functions on each of the six ``newton`` fields, b1 a random nonzero
element and b0 in turn 0, b1 times the lift of a nonzero residue, and a
random element.  A change that rewrites witnesses or reasons on purpose moves
``corpus`` but must keep ``kinds``: that shows no verdict changed kind.  It
reads the package and the corpus of the checkout that holds it, so compare
its lines from two checkouts.  It writes no files.
"""

import argparse
import hashlib
import json
import os
import random
import sys

sys.dont_write_bytecode = True
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import corpus  # noqa: E402
import ivrf  # noqa: E402
from ivrf.suites import SUITES, run_suite  # noqa: E402


def _dump(obj):
    return json.dumps(obj, sort_keys=True, default=str)


def suites_digest(seed):
    h = hashlib.sha256()
    for name in sorted(SUITES):
        report = run_suite(name, seed=seed)
        report.pop("elapsed")
        h.update(f"{name}\t{_dump(report)}\n".encode())
    return h.hexdigest()


def witness_digest():
    h = hashlib.sha256()
    for p, exponents in ((2, range(1, 5)), (3, range(1, 3))):
        L = ivrf.RatFuncField(ivrf.FiniteField(p), "u")
        for V in (ivrf.TAdicRat(L), ivrf.HahnFinite(L)):
            for e in exponents:
                D = ivrf.DomainSpec.pvd(V, ivrf.FrobeniusSubfield(L, e))
                rng = random.Random(0)
                pts = [V.random_nonzero(rng) for _ in range(10)]
                w, record = ivrf.notlocal_witness(D, depth=3, split_samples=pts)
                h.update(f"{D.describe()}\t{w}\t{_dump(record)}\n".encode())
    return h.hexdigest()


def _unit(V, rng):
    L = V.residue_field
    while True:
        r = L.random(rng) if L.is_finite else L.random(rng, degree=1)
        if r:
            return V.lift(r)


def _newton_fields():
    gf2u = ivrf.RatFuncField(ivrf.FiniteField(2), "u")
    return (ivrf.PAdicQ(5), ivrf.TAdicRat(ivrf.FiniteField(2, 2)), ivrf.TAdicRat(gf2u),
            ivrf.LexRank2(ivrf.FiniteField(2)), ivrf.HahnFinite(ivrf.FiniteField(2)),
            ivrf.HahnFinite(gf2u))


def newton_digest():
    h = hashlib.sha256()
    for V in _newton_fields():
        rng = random.Random(0)
        for k in range(40):
            a = V.random_nonzero(rng)
            if k % 2:
                c = V.random_nonzero(rng)
                num = [_unit(V, rng) * c / a ** i for i in range(rng.randint(1, 4))]
            else:
                num = [V.random_element(rng) for _ in range(rng.randint(1, 4))]
            den = [V.random_element(rng) for _ in range(rng.randint(1, 3))]
            num, den = ivrf.Polynomial(V, num), ivrf.Polynomial(V, den)
            if num.is_zero() or den.is_zero():
                continue
            phi = ivrf.RationalFunction(num, den)
            env, va = ivrf.minval_rat(phi, V), V.valuation(a)
            locs = [ivrf.local_poly(e, a, va) for e in (env.num, env.den)]
            h.update(f"{V.describe()}\t{phi}\t{a}\t{_dump(env.to_json())}"
                     f"\t{ivrf.predict(env, a, va)}\t{ivrf.slopes_check(env, a, va)}"
                     f"\t{locs[0]}\t{locs[1]}\n".encode())
    return h.hexdigest()


def compose_digest():
    h = hashlib.sha256()
    for V in _newton_fields():
        rng = random.Random(0)
        x = ivrf.RationalFunction.gen(V)
        for k in range(40):
            num = ivrf.Polynomial(V, [V.random_element(rng) for _ in range(rng.randint(1, 5))])
            den = ivrf.Polynomial(V, [V.random_element(rng) for _ in range(rng.randint(1, 3))])
            if num.is_zero() or den.is_zero():
                continue
            phi = ivrf.RationalFunction(num, den)
            b1 = V.random_nonzero(rng)
            b0 = (V.zero(), b1 * _unit(V, rng), V.random_element(rng))[k % 3]
            h.update(f"{V.describe()}\t{phi}\t{b0}\t{b1}"
                     f"\t{phi.compose(b0 + b1 * x)}\n".encode())
    return h.hexdigest()


THETA_SPECS = (([2, 3], 12, 3), ([3, 5], 45, 3), ([2, 3, 5, 7], 210, 2))


def theta_digest():
    h = hashlib.sha256()
    for primes, t, n in THETA_SPECS:
        S = ivrf.SingularData(primes, t, n)
        theta, report = ivrf.verify_theta(S, ivrf.coprime_grid(60))
        h.update(f"{S.describe()}\t{theta}\t{_dump(report)}\n".encode())
    return h.hexdigest()


def corpus_digests(seeds):
    """The ``corpus`` and ``kinds`` digests, from one pass over the items."""
    h = hashlib.sha256()
    kinds = hashlib.sha256()
    for seed in seeds:
        for workload, names in sorted(corpus.WORKLOAD_DOMAINS.items()):
            domains = {n: ivrf.domain_from_config(corpus.DOMAINS[n]["config"])
                       for n in names}
            for item in corpus.build(workload, seed):
                D = domains[item.domain]
                phi = ivrf.parse_ratfun(D.field, item.text)
                verdict = ivrf.intr_member(phi, D, depth=3)
                h.update(f"{seed}\t{item.id}\t{phi}\t{_dump(verdict.to_json())}\n".encode())
                kinds.update(f"{seed}\t{item.id}\t{verdict.kind}\n".encode())
    return h.hexdigest(), kinds.hexdigest()


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--suite-seed", type=int, default=7)
    ap.add_argument("--corpus-seeds", type=int, nargs="+", default=[7, 2024])
    args = ap.parse_args()
    print("suites", suites_digest(args.suite_seed))
    corpus_hex, kinds_hex = corpus_digests(args.corpus_seeds)
    print("corpus", corpus_hex)
    print("kinds", kinds_hex)
    print("witness", witness_digest())
    print("newton", newton_digest())
    print("theta", theta_digest())
    print("compose", compose_digest())
