"""Named verification suites.

Each suite draws deterministic samples from a seeded generator, re-checks one
family of exact claims by an independent route (direct minima, direct
evaluation, exhaustive residue enumeration), and returns a report dict with
``ok``, counts, and up to ten failure records.  The command line exposes them
as ``ivrf verify <suite>``.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from . import constructions as cons
from .errors import StructuralError
from .fields import (ConstantSubfield, FrobeniusSubfield, HahnFinite, PAdicQ,
                     PrimePowerSubfield, TAdicRat)
from .ff import FiniteField, RatFuncField
from .intr import (DomainSpec, MStar, Pointed, WHOLE_FIELD, VIOLATION,
                   characteristic_set, dichotomy_check, ideal_member,
                   intr_member)
from .newton import local_poly, minval_poly, minval_rat, slopes_check
from .ratfun import POLE, Polynomial, RationalFunction


def _report(name, **params):
    return {"suite": name, "ok": True, "checked": 0, "failures": [],
            "params": params}


def _fail(report, **info):
    report["ok"] = False
    if len(report["failures"]) < 10:
        report["failures"].append(info)


# -- sample generators -------------------------------------------------------

Q5 = PAdicQ(5)  # the fields of envelope, gauss, predict and slopes
T4 = TAdicRat(FiniteField(2, 2))


def _rand_poly(V, rng, max_degree, coefficient):
    """A nonzero polynomial over V: a degree drawn up to ``max_degree``, then
    each coefficient by ``coefficient()``, drawn again while it is zero."""
    while True:
        f = Polynomial(V, [coefficient() for _ in range(rng.randint(0, max_degree) + 1)])
        if not f.is_zero():
            return f


def _rand_poly_padic(V, rng, max_degree=8):
    def coefficient():
        if rng.random() < 0.2:
            return Fraction(0)
        c = rng.randint(-9, 9)
        e = rng.randint(-2, 2)
        return Fraction(c * V.p ** e) if e >= 0 else Fraction(c, V.p ** -e)
    return _rand_poly(V, rng, max_degree, coefficient)


def _rand_poly_tadic(V, rng, max_degree=8):
    # monomial coefficients c * t^e keep the exact arithmetic small
    def coefficient():
        c = V.kappa.random(rng)
        return V.monomial(rng.randint(-2, 3), c) if c else V.zero()
    return _rand_poly(V, rng, max_degree, coefficient)


def _rand_point_tadic(V, rng):
    kappa = V.kappa
    while True:
        num = Polynomial(kappa, [kappa.random(rng) for _ in range(rng.randint(1, 2))],
                         "t")
        if num.is_zero():
            continue
        den = Polynomial(kappa, [kappa.random(rng) for _ in range(rng.randint(1, 2))],
                         "t")
        if den.is_zero():
            continue
        return RationalFunction(num, den) * V.gen() ** rng.randint(-2, 2)


# -- suites ------------------------------------------------------------------

def envelope(seed=0, samples=None, depth=None):
    """Envelope oracle: the piecewise form equals the direct minimum.

    At gamma = n/d the minimum of v(a_i) + i*gamma is taken in integers, as
    the minimum of v(a_i)*d + i*n divided by d: scaling by d > 0 keeps the
    order and is exact."""
    functions = samples or 500
    rng = random.Random(seed)
    report = _report("envelope", seed=seed, functions=functions, points=100)
    fields = [(Q5, _rand_poly_padic), (T4, _rand_poly_tadic)]
    for k in range(functions):
        V, make = fields[k % 2]
        f = make(V, rng)
        pl = minval_poly(f, V)
        if not pl.is_continuous():
            _fail(report, f=str(f), reason="discontinuous envelope")
            continue
        slopes = [s.slope for s in pl.segments]
        if slopes != sorted(slopes, reverse=True) or len(set(slopes)) != len(slopes):
            _fail(report, f=str(f), reason="slopes not strictly decreasing")
        if len(pl.breakpoints()) > max(f.support()):
            _fail(report, f=str(f), reason="too many breakpoints")
        lines = [(i, V.valuation(f.coeffs[i]).coords[0]) for i in f.support()]
        for _ in range(100):
            n, d = rng.randint(-24, 24), rng.randint(1, 4)
            gamma = V.group.element(Fraction(n, d))
            direct = V.group.element(Fraction(min(b * d + i * n for i, b in lines), d))
            if pl.eval(gamma) != direct:
                _fail(report, f=str(f), gamma=str(gamma), got=str(pl.eval(gamma)),
                      expected=str(direct))
        report["checked"] += 1
    return report


def gauss(seed=0, samples=None, depth=None):
    """Envelope of a product equals the sum of the envelopes."""
    pairs = samples or 500
    rng = random.Random(seed)
    report = _report("gauss", seed=seed, pairs=pairs)
    for k in range(pairs):
        if k % 3 == 2:
            V, make = T4, _rand_poly_tadic
        else:
            V, make = Q5, _rand_poly_padic
        f = make(V, rng, max_degree=6)
        g = make(V, rng, max_degree=6)
        if minval_poly(f * g, V) != minval_poly(f, V) + minval_poly(g, V):
            _fail(report, f=str(f), g=str(g))
        report["checked"] += 1
    return report


def predict(seed=0, samples=None, depth=None):
    """v(f(a)) never undercuts the envelope; equality holds exactly when the
    local polynomial does not vanish at the residue of a/a = 1."""
    count = samples or 10_000
    rng = random.Random(seed)
    report = _report("predict", seed=seed, count=count)
    n_tadic = count // 5
    for k in range(count):
        if k < n_tadic:
            V = T4
            f = _rand_poly_tadic(V, rng, max_degree=6)
            a = _rand_point_tadic(V, rng)
        else:
            V = Q5
            f = _rand_poly_padic(V, rng, max_degree=8)
            a = V.random_element(rng)
            if a == 0:
                a = Fraction(1)
        vfa = V.valuation(f.evaluate(a))
        env, va = minval_poly(f, V), V.valuation(a)
        predicted = env.eval(va)
        if vfa < predicted:
            _fail(report, f=str(f), a=str(a), reason="value below envelope")
            continue
        loc = local_poly(env, a, va)
        exact = bool(loc.evaluate(V.residue_field.one()))
        if exact != (vfa == predicted):
            _fail(report, f=str(f), a=str(a),
                  reason="exactness flag disagrees with the local polynomial")
        report["checked"] += 1
    return report


def slopes(seed=0, samples=None, depth=None):
    """Local-polynomial support extremes match the envelope slopes."""
    count = samples or 200
    rng = random.Random(seed)
    report = _report("slopes", seed=seed, count=count)
    for k in range(count):
        if k % 3 == 2:
            V = T4
            f = _rand_poly_tadic(V, rng, max_degree=5)
            g = _rand_poly_tadic(V, rng, max_degree=4)
            tt = _rand_point_tadic(V, rng)
        else:
            V = Q5
            f = _rand_poly_padic(V, rng, max_degree=5)
            g = _rand_poly_padic(V, rng, max_degree=4)
            tt = V.random_element(rng)
            if tt == 0:
                tt = Fraction(5)
        phi = RationalFunction(f, g)  # f and g are drawn nonzero
        env, vt = minval_rat(phi, V), V.valuation(tt)
        got, expected = slopes_check(env, tt, vt), env.slopes_around(vt)
        if got != expected:
            _fail(report, phi=str(phi), t=str(tt), got=got, expected=expected)
        report["checked"] += 1
    return report


def _rand_q_ratfun(field, rng, max_degree=4):
    while True:
        num = Polynomial(field, [Fraction(rng.randint(-6, 6))
                                 for _ in range(rng.randint(1, max_degree + 1))])
        den = Polynomial(field, [Fraction(rng.randint(-6, 6))
                                 for _ in range(rng.randint(1, max_degree + 1))])
        if not num.is_zero() and not den.is_zero():
            return RationalFunction(num, den)


def psi_identity(seed=0, samples=None, depth=None):
    """The cancellation identity of psi, plus its valuation case table."""
    functions = 100
    points = samples or 1000
    rng = random.Random(seed)
    S = cons.preset("t6n2")
    report = _report("psi-identity", seed=seed, functions=functions, points=points)
    for _ in range(functions):
        phi = _rand_q_ratfun(S.field, rng)
        if not cons.verify_psi(phi, S, ())[1]["identity"]:
            _fail(report, phi=str(phi), reason="identity failed")
        report["checked"] += 1
    grid = []
    for _ in range(points):
        grid.append(Fraction(rng.randint(-40, 40), rng.randint(1, 12)))
    _, vrep = cons.verify_psi(_rand_q_ratfun(S.field, rng, 3), S, grid)
    if not vrep["ok"]:
        _fail(report, stage="case table", failures=vrep["violations"][:3])
    x = RationalFunction.gen(S.field)
    _, vrep2 = cons.verify_psi(x, S, grid)
    if not vrep2["ok"]:
        _fail(report, stage="case table x", failures=vrep2["violations"][:3])
    return report


def theta(seed=0, samples=None, depth=3):
    """Exhaustive case table for theta on the reduced-fraction grid."""
    bound = samples or 200
    S = cons.preset("t6n2")
    report = _report("theta", bound=bound)
    th, vrep = cons.verify_theta(S, cons.coprime_grid(bound))
    report["checked"] = vrep["checked"]
    if not vrep["ok"]:
        for v in vrep["violations"][:10]:
            _fail(report, **v)
    verdict = intr_member(th, S.domain(), depth=depth)
    if verdict.kind != "in":
        _fail(report, stage="membership", verdict=repr(verdict))
    x = RationalFunction.gen(S.field)
    if th.compose(1 / x) != th:
        _fail(report, stage="symmetry")
    return report


def rho(seed=0, samples=None, depth=None):
    """Minimum-valuation law for rho and the characteristic-set equation."""
    triples = samples or 1000
    rng = random.Random(seed)
    S = cons.preset("t6n2")
    report = _report("rho", seed=seed, triples=triples)
    per_pair = 10
    pairs = max(1, triples // per_pair)
    points = [Fraction(rng.randint(-60, 60), rng.randint(1, 12))
              for _ in range(per_pair)]
    for _ in range(pairs):
        phi1 = _rand_q_ratfun(S.field, rng, 2)
        phi2 = _rand_q_ratfun(S.field, rng, 2)
        try:
            _, vrep = cons.verify_rho(phi1, phi2, S, points)
        except StructuralError as exc:  # constant ratio at a pole of theta
            _fail(report, phi1=str(phi1), phi2=str(phi2), error=str(exc))
            continue
        if not vrep["ok"]:
            _fail(report, phi1=str(phi1), phi2=str(phi2),
                  violations=vrep["violations"][:3])
        report["checked"] += vrep["checked"]

    # characteristic sets over a finite pointed family
    D = S.domain()
    anchors = [Fraction(0), Fraction(1), Fraction(2), Fraction(3), Fraction(6),
               Fraction(1, 5), Fraction(4), Fraction(9)]
    family = [Pointed(a, comp) for a in anchors
              for comp in range(len(S.components))]
    for _ in range(20):
        phi1 = _rand_q_ratfun(S.field, rng, 2)
        phi2 = _rand_q_ratfun(S.field, rng, 2)
        try:
            r = cons.build_rho(phi1, phi2, S)
        except StructuralError:  # constant ratio at a pole of theta
            continue
        usable = [i for i in family
                  if phi1.evaluate(i.a) is not POLE
                  and phi2.evaluate(i.a) is not POLE
                  and r.evaluate(i.a) is not POLE]
        chi1 = {id(i) for i in characteristic_set(phi1, usable, D)}
        chi2 = {id(i) for i in characteristic_set(phi2, usable, D)}
        chir = {id(i) for i in characteristic_set(r, usable, D)}
        if chi1 & chi2 != chir:
            _fail(report, phi1=str(phi1), phi2=str(phi2),
                  reason="characteristic sets differ")
        report["checked"] += 1
    return report


# -- pullback corpus over the Hahn field -------------------------------------

def _hahn_pvd_constants():
    GFU = RatFuncField(FiniteField(2), "u")
    H = HahnFinite(GFU)
    return H, DomainSpec.pvd(H, ConstantSubfield(GFU), WHOLE_FIELD)


def _intrv_pool(H):
    """Functions integer-valued over the whole field for the valuation ring."""
    GFU = H.kappa
    u = H.lift(GFU.gen())
    one = H.one()
    zero = H.zero()
    P = lambda *cs: Polynomial(H, list(cs))
    inv_quad = RationalFunction(P(one), P(u, one, one))          # 1/(x^2+x+u)
    tame = RationalFunction(P(zero, one, one), P(u, one, one))   # (x^2+x)/(x^2+x+u)
    shifted = RationalFunction(P(u + one, one, one), P(u, one, one))
    return [RationalFunction.one(H), inv_quad, tame, shifted]


def _member_corpus(H, rng, size, mstar_only=False):
    """Random certified members of the pullback ring (constants, t-scaled
    pool elements, sums and products)."""
    pool = _intrv_pool(H)
    out = []
    exps = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]
    while len(out) < size:
        q = rng.choice(exps)
        base = rng.choice(pool)
        member = RationalFunction.constant(H, H.monomial(q)) * base
        if not mstar_only:
            style = rng.random()
            if style < 0.3:
                member = member + 1
            elif style < 0.45:
                member = member * rng.choice(pool) + 1
            elif style < 0.6:
                c = H.one() if rng.random() < 0.5 else H.monomial(rng.choice(exps))
                member = member + RationalFunction.constant(H, c)
            elif style < 0.75:
                member = member * RationalFunction.constant(H, H.monomial(q))
        else:
            if rng.random() < 0.4:
                member = member * rng.choice(pool)
            if rng.random() < 0.3:
                member = member + RationalFunction.constant(H, H.monomial(rng.choice(exps)))
        if member.is_zero():
            continue
        out.append(member)
    return out


def mstar(seed=0, samples=None, depth=None):
    """Ideal and primality laws for the envelope-at-zero prime, by exact
    piecewise-linear arithmetic."""
    combos = samples or 500
    rng = random.Random(seed)
    H, dom = _hahn_pvd_constants()
    zero = H.group.zero()
    report = _report("mstar", seed=seed, combos=combos)

    members = _member_corpus(H, rng, 8, mstar_only=True)
    ring = _intrv_pool(H) + [m + 1 for m in members[:4]]
    for phi in members:
        if not ideal_member(phi, MStar(), dom):
            _fail(report, phi=str(phi), reason="corpus member not in M*")

    def mv0(fn):
        return minval_rat(fn, H).eval(zero)

    mv_members = [mv0(m) for m in members]
    mv_ring = [mv0(r) for r in ring]
    sums = {}
    prods = {}
    prods2 = {}
    for _ in range(combos):
        i = rng.randrange(len(members))
        j = rng.randrange(len(members))
        k = rng.randrange(len(ring))
        phi, psi, rho_fn = members[i], members[j], ring[k]
        mv_phi, mv_psi, mv_rho = mv_members[i], mv_members[j], mv_ring[k]
        if (i, j) not in sums:
            s = phi + psi
            sums[(i, j)] = None if s.is_zero() else mv0(s)
        mv_sum = sums[(i, j)]
        if mv_sum is not None:
            if not (mv_sum >= min(mv_phi, mv_psi)) or not (mv_sum > zero):
                _fail(report, phi=str(phi), psi=str(psi), reason="sum left M*")
        if not (mv_rho >= zero):
            _fail(report, rho=str(rho_fn), reason="ring element negative at 0")
        if (k, i) not in prods:
            prods[(k, i)] = mv0(rho_fn * phi)
        if prods[(k, i)] != mv_rho + mv_phi:
            _fail(report, rho=str(rho_fn), phi=str(phi),
                  reason="product rule failed")
        # primality: a product landing in M* forces a strict factor
        if (k, j) not in prods2:
            other = psi + 1
            prods2[(k, j)] = (mv0(other), mv0(rho_fn * other))
        mv2, mvp = prods2[(k, j)]
        if mvp != mv_rho + mv2:
            _fail(report, reason="product rule failed in primality check")
        if mvp > zero and mv_rho >= zero and mv2 >= zero:
            if not (mv_rho > zero or mv2 > zero):
                _fail(report, reason="primality forcing failed")
        report["checked"] += 1

    # x is in every pointed ideal at the maximal ideal but not in M*
    x = RationalFunction.gen(H)
    if ideal_member(x, MStar(), dom):
        _fail(report, reason="x should not be in M*")
    for _ in range(25):
        a = H.monomial(Fraction(rng.randint(1, 8), rng.randint(1, 4)))
        if not ideal_member(x, Pointed(a), dom):
            _fail(report, a=str(a), reason="x missing from a pointed ideal")
    return report


def witnesses(seed=0, samples=None, depth=3):
    """Both two-family witnesses: certified in, exhaustive map check, and the
    pointed-ideal split at sampled points."""
    count = samples or 1000
    rng = random.Random(seed)
    report = _report("witnesses", seed=seed, samples=count, depth=depth)

    F4 = FiniteField(2, 2)
    GFU = RatFuncField(FiniteField(2), "u")
    families = [("finite", DomainSpec.pvd(TAdicRat(F4), PrimePowerSubfield(F4, 1))),
                ("inseparable", DomainSpec.pvd(HahnFinite(GFU), FrobeniusSubfield(GFU, 1)))]
    for case, D in families:  # each case's points are drawn just before its witness
        pts = [D.field.random_nonzero(rng) for _ in range(count)]
        w, rec = cons.notlocal_witness(D, depth=depth, split_samples=pts)
        report[f"{case}_case"] = {"witness": str(w), "ok": rec["ok"]}
        if not rec["ok"]:
            _fail(report, case=case, record={k: v for k, v in rec.items()
                                             if k != "membership"})
        if not rec.get("maps_to_one", True):  # only the finite case maps L to {1}
            _fail(report, case=case, reason="map to {1} failed")
    report["checked"] = 2 * count + 2
    return report


def dichotomy(seed=0, samples=None, depth=3):
    """Certified members of the pullback ring classify Zero or
    StrictlyPositive; the known non-member classifies Violation."""
    size = samples or 200
    rng = random.Random(seed)
    H, dom = _hahn_pvd_constants()
    report = _report("dichotomy", seed=seed, members=size, depth=depth)

    corpus = _member_corpus(H, rng, size)
    for phi in corpus:
        verdict = intr_member(phi, dom, depth=depth)
        if verdict.kind != "in":
            _fail(report, phi=str(phi), reason=f"corpus member not certified: {verdict!r}")
            continue
        cls = dichotomy_check(phi, dom)
        if cls == VIOLATION:
            _fail(report, phi=str(phi), reason="certified member classified Violation")
        report["checked"] += 1

    P = lambda *cs: Polynomial(H, list(cs))
    bad = RationalFunction(P(H.zero(), H.zero(), H.one()),
                           P(H.gen(), H.zero(), H.one()))
    if dichotomy_check(bad, dom) != VIOLATION:
        _fail(report, reason="x^2/(x^2+t) must classify Violation")
    if intr_member(bad, dom, depth=depth).kind != "out":
        _fail(report, reason="x^2/(x^2+t) must be certified out")
    report["checked"] += 1
    return report


SUITES = {
    "envelope": envelope,
    "gauss": gauss,
    "predict": predict,
    "slopes": slopes,
    "psi-identity": psi_identity,
    "theta": theta,
    "rho": rho,
    "mstar": mstar,
    "witnesses": witnesses,
    "dichotomy": dichotomy,
}


def run_suite(name, seed=0, samples=None, depth=3):
    """The suite's report, with its wall time in seconds under ``elapsed``."""
    if name not in SUITES:
        raise KeyError(name)
    t0 = time.monotonic()
    report = SUITES[name](seed=seed, samples=samples, depth=depth)
    report["elapsed"] = round(time.monotonic() - t0, 3)
    return report
