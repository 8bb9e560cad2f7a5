"""Membership certification for rings of integer-valued rational functions.

A rational function phi belongs to the ring attached to a domain D and a
point set E when phi(a) lands in D for every a in E.  The certifier never
enumerates E.  It splits the values gamma = v(a) along the merged breakpoints
of the numerator and denominator envelopes:

* on the open interior of a segment both envelopes are attained by a single
  term, so v(phi(a)) equals the envelope difference for every a there and a
  linear inequality settles the segment;
* at a lattice breakpoint the residues c = res(a/t) split the elements into
  classes.  Classes where neither local polynomial vanishes are exact.  A
  class where the denominator's local polynomial vanishes (or the
  numerator's, when the baseline already fails) is refined through the
  substitution a = t*(c + y) with v(y) > 0, one recursion level per depth
  unit.

Certification is sound, never complete: ``Unknown`` is an honest outcome,
produced when the depth budget runs out or a root/residue search over an
infinite residue field cannot be exhausted.  ``CertifiedOut`` always carries
a concrete witness that is re-verified by direct evaluation.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import (ConfigError, PreconditionError, StructuralError,
                     UndecidedError)
from .fields import (FrobeniusSubfield, PVDSpec, _require, field_from_config,
                     pvd_from_config)
from .ff import FiniteField, RatFuncField
from .newton import local_poly, minval_poly, minval_rat
from .ordgroup import INFINITY, lattice_point_in_interval
from .ratfun import POLE, Polynomial, RationalFunction

WHOLE_RING = "ring"
WHOLE_FIELD = "field"

_SEARCH_LIMIT = 64  # residues tried before a search degrades to Unknown


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

class CertifiedIn:
    kind = "in"

    def __init__(self, certificate, depth_used):
        self.certificate = certificate
        self.depth_used = depth_used

    def __repr__(self):
        return f"CertifiedIn(depth={self.depth_used})"

    def to_json(self):
        return {"verdict": "CertifiedIn", "depth_used": self.depth_used,
                "certificate": self.certificate}


class CertifiedOut:
    kind = "out"

    def __init__(self, witness, reason=""):
        self.witness = witness
        self.reason = reason

    def __repr__(self):
        return f"CertifiedOut(witness={self.witness!r})"

    def to_json(self):
        return {"verdict": "CertifiedOut", "witness": str(self.witness),
                "reason": self.reason}


class Unknown:
    kind = "unknown"

    def __init__(self, reason, depth_exhausted=False):
        self.reason = reason
        self.depth_exhausted = depth_exhausted

    def __repr__(self):
        return f"Unknown({self.reason!r})"

    def to_json(self):
        return {"verdict": "Unknown", "reason": self.reason,
                "depth_exhausted": self.depth_exhausted}


# ---------------------------------------------------------------------------
# domains and ideals
# ---------------------------------------------------------------------------

class DomainSpec:
    """A target domain (valuation ring, pullback, or finite intersection)
    together with the point set E."""

    def __init__(self, kind, components, E):
        self.kind = kind
        self.components = components  # list of (ValuedField, subfield-or-None)
        self.E = E

    @classmethod
    def valuation_ring(cls, V, E=WHOLE_RING):
        return cls("valuation", [(V, None)], E)

    @classmethod
    def pvd(cls, D, E=WHOLE_RING):
        sub = None if D.is_trivial() else D.subfield
        return cls("pvd" if sub is not None else "valuation",
                   [(D.field, sub)], E)

    @classmethod
    def intersection(cls, fields, E=WHOLE_FIELD):
        if not fields:
            raise ConfigError("intersection needs at least one valuation")
        if not all(type(V) is type(fields[0]) for V in fields):
            raise ConfigError("intersection components must share one field")
        return cls("intersection", [(V, None) for V in fields], E)

    @property
    def field(self):
        """Coefficient context of the shared fraction field."""
        return self.components[0][0]

    def member(self, x):
        for V, sub in self.components:
            v = V.valuation(x)
            if v is INFINITY:
                continue
            zero = V.group.zero()
            if v < zero:
                return False
            if v == zero and sub is not None and not sub.contains(V.residue(x)):
                return False
        return True

    def contains_point(self, a):
        if self.E == WHOLE_FIELD:
            return True
        if self.E == WHOLE_RING:
            return self.member(a)
        return any(a == e for e in self.E)

    def describe(self):
        parts = " ^ ".join(
            (V.describe() if sub is None else f"{V.describe()}|{sub.describe()}")
            for V, sub in self.components)
        return f"{parts} on E={self.E}"

    def __repr__(self):
        return self.describe()


class Pointed:
    """The maximal ideal of functions whose value at ``a`` falls in m."""

    kind = "pointed"

    def __init__(self, a, component=0):
        self.a = a
        self.component = component

    def __repr__(self):
        return f"Pointed(a={self.a}, component={self.component})"


class MStar:
    """Functions whose envelope is strictly positive at 0."""

    kind = "mstar"

    def __repr__(self):
        return "MStar"


class ValueIdeal:
    """The ideal of functions landing pointwise in m^power."""

    kind = "value"

    def __init__(self, power=1):
        self.power = power

    def __repr__(self):
        return f"ValueIdeal(m^{self.power})"


# ---------------------------------------------------------------------------
# regions of the value line
# ---------------------------------------------------------------------------

class _Region:
    __slots__ = ("lo", "lo_open", "hi", "hi_open")

    def __init__(self, lo, lo_open, hi, hi_open):
        self.lo = lo
        self.lo_open = lo_open
        self.hi = hi
        self.hi_open = hi_open

    def contains(self, gamma):
        if self.lo is not None:
            if gamma < self.lo or (self.lo_open and gamma == self.lo):
                return False
        if self.hi is not None:
            if gamma > self.hi or (self.hi_open and gamma == self.hi):
                return False
        return True

    def intersect(self, lo, lo_open, hi, hi_open):
        nlo, nlo_open = self.lo, self.lo_open
        if lo is not None and (nlo is None or lo > nlo or (lo == nlo and lo_open)):
            nlo, nlo_open = lo, lo_open
        nhi, nhi_open = self.hi, self.hi_open
        if hi is not None and (nhi is None or hi < nhi or (hi == nhi and hi_open)):
            nhi, nhi_open = hi, hi_open
        if nlo is not None and nhi is not None:
            if nlo > nhi or (nlo == nhi and (nlo_open or nhi_open)):
                return None
        return _Region(nlo, nlo_open, nhi, nhi_open)

    def lattice_point(self, group):
        # Closed finite endpoints that are lattice points qualify directly.
        if self.lo is not None and not self.lo_open and self.lo.in_lattice():
            return self.lo
        if self.hi is not None and not self.hi_open and self.hi.in_lattice():
            return self.hi
        return lattice_point_in_interval(group, self.lo, self.hi, True, True)


def _everywhere():
    return _Region(None, True, None, True)


# ---------------------------------------------------------------------------
# residue-field searches
# ---------------------------------------------------------------------------

def residue_roots(poly, L, cap=4):
    """Nonzero roots of a polynomial over GF(q) or GF(q)(u).

    Returns (roots, complete).  Over GF(q) enumeration is exhaustive.  Over
    GF(q)(u) candidates come from the rational root bound: a reduced root
    n/d has n dividing the lowest cleared coefficient and d dividing the
    highest, so the search is complete whenever both degree bounds stay at
    or below ``cap``; otherwise the bounded search may miss roots and
    ``complete`` is False.
    """
    zero = L.zero()
    if isinstance(L, FiniteField):
        return ({c for c in L.nonzero_elements() if poly.evaluate(c) == zero},
                True)
    if not isinstance(L, RatFuncField):
        raise PreconditionError(f"no root search over {L!r}")
    support = poly.support()
    if not support:
        raise StructuralError("root search on the zero polynomial")
    shift = support[0]
    q = Polynomial(L, poly.coeffs[shift:], poly.var)
    if q.degree == 0:
        return (set(), True)
    # Clear denominators to polynomials in GF(q)[u].
    den = Polynomial.constant(L.base, L.base.one(), L.var)
    for i in q.support():
        den = den * (q.coeffs[i].den // Polynomial.gcd(den, q.coeffs[i].den))
    cleared = {}
    for i in q.support():
        c = q.coeffs[i]
        cleared[i] = c.num * (den // c.den)
    lo_i = min(cleared)
    hi_i = max(cleared)
    bound_n = cleared[lo_i].degree
    bound_d = cleared[hi_i].degree
    complete = bound_n <= cap and bound_d <= cap
    bn, bd = min(bound_n, cap), min(bound_d, cap)
    # keep the candidate count at desk scale even for larger base fields
    qsize = L.base.q
    while bn + bd > 0 and qsize ** (bn + 1) * qsize ** (bd + 1) > 100_000:
        complete = False
        if bn >= bd:
            bn -= 1
        else:
            bd -= 1
    # Candidates are screened homogeneously: n/d is a root exactly when
    # sum_i P_i n^i d^(deg-i) vanishes, which needs no fraction arithmetic.
    deg = q.degree
    roots = set()
    zero_poly = Polynomial.zero(L.base, L.var)
    for d in _ff_polys(L.base, bd, monic=True):
        dpow = [Polynomial.constant(L.base, L.base.one(), L.var)]
        for _ in range(deg):
            dpow.append(dpow[-1] * d)
        for n in _ff_polys(L.base, bn, monic=False):
            if n.is_zero():
                continue
            acc = zero_poly
            npow = Polynomial.constant(L.base, L.base.one(), L.var)
            for i in range(deg + 1):
                if i in cleared:
                    acc = acc + cleared[i] * npow * dpow[deg - i]
                if i < deg:
                    npow = npow * n
            if not acc.is_zero():
                continue
            if Polynomial.gcd(n, d).degree > 0:
                continue
            roots.add(RationalFunction(n, d))
    return roots, complete


def _ff_polys(base, max_degree, monic):
    if monic:
        for d in range(max_degree + 1):
            for tail in itertools.product(list(base.elements()), repeat=d):
                yield Polynomial(base, list(tail) + [base.one()], "u")
    else:
        yield Polynomial.zero(base, "u")
        for d in range(max_degree + 1):
            for lead in base.nonzero_elements():
                for tail in itertools.product(list(base.elements()), repeat=d):
                    yield Polynomial(base, list(tail) + [lead], "u")


def _small_residues(L, allowed, limit=_SEARCH_LIMIT):
    """Nonzero residues to probe, restricted to ``allowed`` when given."""
    if allowed is not None and allowed.is_finite():
        count = 0
        for c in allowed.elements():
            if c != L.zero():
                yield c
                count += 1
                if count >= limit:
                    return
        return
    if isinstance(L, FiniteField):
        for c in L.nonzero_elements():
            if allowed is None or allowed.contains(c):
                yield c
        return
    count = 0
    for c in L.small_elements(max_degree=2):
        if allowed is None or allowed.contains(c):
            yield c
            count += 1
            if count >= limit:
                return


def _rf_power_root(h, L, p):
    """H with H^p = h in L(x), or None; L must be GF(q)(u)."""
    num = _x_poly_root(h.num, L, p)
    den = _x_poly_root(h.den, L, p)
    if num is None or den is None:
        return None
    cand = RationalFunction(num, den)
    return cand if cand ** p == h else None


def _x_poly_root(poly, L, p):
    out = {}
    for i in poly.support():
        if i % p:
            return None
        r = L.pth_root(poly.coeffs[i])
        if r is None:
            return None
        out[i // p] = r
    return Polynomial.from_dict(L, out, poly.var)


# ---------------------------------------------------------------------------
# the certifier
# ---------------------------------------------------------------------------

class _Ctx:
    __slots__ = ("V", "fsub", "tau", "strict", "root_cap")

    def __init__(self, V, fsub, tau, strict, root_cap=4):
        self.V = V
        self.fsub = fsub
        self.tau = tau
        self.strict = strict
        self.root_cap = root_cap

    def value_ok(self, v):
        if v is INFINITY:
            return True
        return v > self.tau if self.strict else v >= self.tau

    def residue_condition_active(self):
        return (self.fsub is not None and not self.strict
                and self.tau == self.V.group.zero())

    def point_ok(self, y):
        """Full membership test of a field element against the target."""
        v = self.V.valuation(y)
        if not self.value_ok(v):
            return False
        if (self.residue_condition_active() and v == self.V.group.zero()
                and not self.fsub.contains(self.V.residue(y))):
            return False
        return True


class _Outcome:
    __slots__ = ("status", "witness", "reason", "depth_used", "cert")

    def __init__(self, status, witness=None, reason="", depth_used=1, cert=None):
        self.status = status
        self.witness = witness
        self.reason = reason
        self.depth_used = depth_used
        self.cert = cert if cert is not None else []


def _certify(ctx, phi, region, restrict0, depth):
    V = ctx.V
    group = V.group
    zero = group.zero()
    plf = minval_poly(phi.num, V)
    plg = minval_poly(phi.den, V)
    pld = plf.combine(plg, lambda a, b: a - b)
    unknown_reason = None
    depth_used = 1
    cert = []

    for seg in pld.segments:
        piece = region.intersect(seg.lo, True, seg.hi, True)
        rec = {"from": _fmt(seg.lo), "to": _fmt(seg.hi),
               "slope": seg.slope, "intercept": str(seg.intercept)}
        if piece is not None:
            out = _check_interval(ctx, phi, seg, piece, restrict0, rec)
            if out is not None:
                if out.status == "out":
                    out.cert = cert + [rec]
                    return out
                if out.status == "unknown":
                    unknown_reason = unknown_reason or out.reason
        cert.append(rec)

        # The breakpoint at the right end of this segment, if any.
        delta = seg.hi
        if delta is None or not region.contains(delta):
            continue
        if not delta.in_lattice():
            cert.append({"point": _fmt(delta), "status": "not a value"})
            continue
        prec = {"point": _fmt(delta), "classes": []}
        out = _check_point(ctx, phi, plf, plg, delta, region, restrict0,
                           depth, prec)
        cert.append(prec)
        depth_used = max(depth_used, out.depth_used)
        if out.status == "out":
            out.cert = cert
            return out
        if out.status == "unknown":
            unknown_reason = unknown_reason or out.reason

    if unknown_reason is not None:
        return _Outcome("unknown", reason=unknown_reason, depth_used=depth_used,
                        cert=cert)
    return _Outcome("in", depth_used=depth_used, cert=cert)


def _check_interval(ctx, phi, seg, piece, restrict0, rec):
    """Linear analysis on an open segment interior (both supports single)."""
    V = ctx.V
    group = V.group
    zero = group.zero()
    s, beta = seg.slope, seg.intercept

    bad = _failing_subregion(piece, s, beta, ctx.tau, ctx.strict, group)
    if bad is not None:
        gv = bad.lattice_point(group)
        if gv is not None:
            # residue 1 is in every subfield, so a bare power of value gv is
            # an admissible point even under the residue restriction
            rec["status"] = "violated"
            return _Outcome("out", witness=V.element_of_value(gv),
                            reason=f"envelope value {seg.value_at(gv)} at {gv}")

    if not ctx.residue_condition_active():
        rec["status"] = "clear"
        return None

    fi, gj = seg.tag
    f_c = phi.num.coeffs[fi]
    g_c = phi.den.coeffs[gj]

    if s == 0 and beta == zero:
        const = V.residue(f_c / g_c)
        rec["status"] = "zero segment"
        rec["residue"] = str(const)
        if not ctx.fsub.contains(const):
            gv = piece.lattice_point(group)
            if gv is not None:
                return _Outcome("out", witness=V.element_of_value(gv),
                                reason=f"residue {const} outside subfield")
        return None

    if s != 0:
        gstar = (ctx.tau - beta).scale(Fraction(1, s))
        if piece.contains(gstar) and gstar.in_lattice():
            t = V.element_of_value(gstar)
            const = V.residue((f_c * t ** fi) / (g_c * t ** gj))
            allowed = _allowed_at(gstar, restrict0)
            rec["status"] = "zero crossing"
            out = _residues_into_subfield_powers(ctx, const, s, allowed, t)
            if out is not None:
                return out
    rec["status"] = "clear"
    return None


def _check_point(ctx, phi, plf, plg, delta, region, restrict0, depth, prec):
    V = ctx.V
    L = V.residue_field
    zero = V.group.zero()
    t = V.element_of_value(delta)
    locf = local_poly(phi.num, t, V)
    locg = local_poly(phi.den, t, V)
    val = plf.eval(delta) - plg.eval(delta)
    ok_val = ctx.value_ok(val)
    allowed = _allowed_at(delta, restrict0)

    roots_g, complete_g = residue_roots(locg.poly, L, ctx.root_cap)
    roots_f, complete_f = residue_roots(locf.poly, L, ctx.root_cap)
    if allowed is not None:
        roots_g = {c for c in roots_g if allowed.contains(c)}
        roots_f = {c for c in roots_f if allowed.contains(c)}
    unknown_reason = None
    if not complete_g or (not ok_val and not complete_f):
        unknown_reason = (f"root search beyond degree cap {ctx.root_cap} "
                          f"at value {delta}")

    # Exact classes.
    if not ok_val:
        c = _first_nonroot(L, allowed, roots_f | roots_g)
        if c is not None:
            prec["classes"].append({"residue": str(c), "case": "exact",
                                    "action": "witness"})
            return _Outcome("out", witness=t * V.lift(c),
                            reason=f"exact class value {val} at {delta}")
    elif val == zero and ctx.residue_condition_active():
        out = _point_residue_condition(ctx, phi, locf, locg, t, delta,
                                       allowed, roots_f | roots_g, prec)
        if out is not None:
            if out.status == "unknown":
                unknown_reason = unknown_reason or out.reason
            else:
                return out

    # Classes needing refinement.
    recurse = set(roots_g)
    if not ok_val:
        recurse |= roots_f
    depth_used = 1
    for c in sorted(recurse, key=str):
        crec = {"residue": str(c), "case": "g-root" if c in roots_g else "f-root"}
        prec["classes"].append(crec)
        a0 = t * V.lift(c)
        ev = phi.evaluate(a0)
        if ev is POLE:
            crec["action"] = "pole"
            return _Outcome("out", witness=a0, reason=f"pole at {a0}")
        if not ctx.point_ok(ev):
            crec["action"] = "witness"
            return _Outcome("out", witness=a0,
                            reason=f"value {V.valuation(ev)} at {a0}")
        if depth <= 1:
            crec["action"] = "depth exhausted"
            unknown_reason = unknown_reason or (
                f"refinement needed at {delta}, residue {c}; depth exhausted")
            continue
        shifted = phi.compose(RationalFunction(
            Polynomial(V, [a0, t], phi.num.var)))
        sub_region = _Region(zero, True, None, True)
        out = _certify(ctx, shifted, sub_region, None, depth - 1)
        crec["action"] = "refined"
        crec["depth"] = out.depth_used
        depth_used = max(depth_used, 1 + out.depth_used)
        if out.status == "out":
            return _Outcome("out", witness=a0 + t * out.witness,
                            reason=out.reason, depth_used=depth_used)
        if out.status == "unknown":
            unknown_reason = unknown_reason or out.reason

    if unknown_reason:
        return _Outcome("unknown", reason=unknown_reason, depth_used=depth_used)
    return _Outcome("in", depth_used=depth_used)


def _point_residue_condition(ctx, phi, locf, locg, t, delta, allowed, roots, prec):
    """At a breakpoint with envelope value 0, exact classes have residue
    r0 * locf(c)/locg(c); every allowed non-root c must land in the subfield."""
    V = ctx.V
    L = V.residue_field
    df, dg = locf.degree, locg.degree
    r0 = V.residue((phi.num.coeffs[df] * t ** df) /
                   (phi.den.coeffs[dg] * t ** dg))
    h = RationalFunction(locf.poly.scale(r0), locg.poly)
    prec["classes"].append({"residue": "*", "case": "exact",
                            "ratio": str(h)})

    if (allowed is not None and allowed.is_finite()) or isinstance(L, FiniteField):
        for c in _small_residues(L, allowed, limit=10 ** 6):
            if c in roots:
                continue
            value = h.evaluate(c)
            if value is POLE:
                continue
            if not ctx.fsub.contains(value):
                return _Outcome("out", witness=t * V.lift(c),
                                reason=f"residue {value} outside subfield")
        return None

    if h.is_constant():
        const = h.as_constant()
        if ctx.fsub.contains(const):
            return None
        c = _first_nonroot(L, allowed, roots)
        if c is not None:
            return _Outcome("out", witness=t * V.lift(c),
                            reason=f"residue {const} outside subfield")
        return _Outcome("unknown", reason="no probe residue found")

    if isinstance(ctx.fsub, FrobeniusSubfield) and isinstance(L, RatFuncField):
        reduced = h
        power_ok = True
        for _ in range(ctx.fsub.e):
            reduced = _rf_power_root(reduced, L, L.base.p)
            if reduced is None:
                power_ok = False
                break
        if power_ok:
            return None

    for c in _small_residues(L, allowed):
        if c in roots:
            continue
        value = h.evaluate(c)
        if value is POLE:
            continue
        if not ctx.fsub.contains(value):
            return _Outcome("out", witness=t * V.lift(c),
                            reason=f"residue {value} outside subfield")
    return _Outcome("unknown",
                    reason=f"residue ratio {h} into subfield undecided at {delta}")


def _residues_into_subfield_powers(ctx, const, s, allowed, t):
    """Need const * c^s in the subfield for every allowed nonzero residue."""
    V = ctx.V
    L = V.residue_field
    if allowed is not None:
        # residues restricted to the subfield's units: c^s stays inside, so
        # the condition is exactly const in F, and c = 1 witnesses failure
        if ctx.fsub.contains(const):
            return None
        return _Outcome("out", witness=t,
                        reason=f"residue {const} outside subfield")
    if isinstance(L, FiniteField):
        for c in _small_residues(L, None, limit=10 ** 6):
            if not ctx.fsub.contains(const * c ** s):
                return _Outcome("out", witness=t * V.lift(c),
                                reason=f"residue {const * c ** s} outside subfield")
        return None
    if ctx.fsub.contains(const) and ctx.fsub.power_subset(s):
        return None
    for c in _small_residues(L, None):
        if not ctx.fsub.contains(const * c ** s):
            return _Outcome("out", witness=t * V.lift(c),
                            reason=f"residue {const * c ** s} outside subfield")
    return _Outcome("unknown", reason="power-residue condition undecided")


def _first_nonroot(L, allowed, roots):
    for c in _small_residues(L, allowed):
        if c not in roots:
            return c
    return None


def _failing_subregion(piece, s, beta, tau, strict, group):
    """Sub-interval of ``piece`` where s*gamma + beta fails the threshold."""
    zero = group.zero()
    if s == 0:
        fails = beta < tau or (strict and beta == tau)
        return piece if fails else None
    gstar = (tau - beta).scale(Fraction(1, s))
    if s > 0:
        # fails on the left of gstar
        return piece.intersect(None, True, gstar, not strict)
    return piece.intersect(gstar, not strict, None, True)


def _allowed_at(gamma, restrict0):
    if restrict0 is None:
        return None
    g0, sub = restrict0
    return sub if gamma == g0 else None


def _fmt(g):
    return None if g is None else str(g)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def intr_member(phi, D, depth=3, root_cap=4):
    """Certify phi(a) in D for all a in E; sound, possibly Unknown."""
    if phi.is_zero():
        return CertifiedIn([{"trivial": "zero function"}], 0)

    if isinstance(D.E, (list, tuple)):
        for a in D.E:
            ev = phi.evaluate(a)
            if ev is POLE:
                return CertifiedOut(a, "pole at a listed point")
            if not D.member(ev):
                return CertifiedOut(a, "value outside the domain")
        return CertifiedIn([{"finite": len(D.E)}], 1)

    certificates = []
    depth_used = 1
    unknown = None
    for V, fsub in D.components:
        zero = V.group.zero()
        if D.E == WHOLE_FIELD:
            region = _everywhere()
            restrict0 = None
        elif D.E == WHOLE_RING:
            region = _Region(zero, False, None, True)
            restrict0 = (zero, fsub) if fsub is not None else None
        else:
            raise ConfigError(f"unknown point set {D.E!r}")
        ctx = _Ctx(V, fsub, zero, False, root_cap)
        out = _certify(ctx, phi, region, restrict0, depth)
        depth_used = max(depth_used, out.depth_used)
        if out.status == "out":
            w = out.witness
            ok = D.contains_point(w)
            if ok:
                evw = phi.evaluate(w)
                ok = evw is POLE or not D.member(evw)
            if ok:
                return CertifiedOut(w, out.reason)
            unknown = unknown or "candidate witness failed re-verification"
        elif out.status == "unknown":
            unknown = unknown or out.reason
        certificates.append({"component": V.describe(), "pieces": out.cert})

    # 0 belongs to both the whole field and the whole ring.
    ev0 = phi.evaluate(D.field.zero())
    if ev0 is POLE:
        return CertifiedOut(D.field.zero(), "pole at 0")
    if not D.member(ev0):
        return CertifiedOut(D.field.zero(), "value at 0 outside the domain")

    if unknown is not None:
        return Unknown(unknown, depth_exhausted="depth" in unknown)
    return CertifiedIn(certificates, depth_used)


def ideal_member(phi, ideal, D, depth=3):
    """Membership of phi in a pointed ideal, in M*, or in a value ideal."""
    if ideal.kind == "pointed":
        if not D.contains_point(ideal.a):
            raise PreconditionError("the anchor point must lie in E")
        ev = phi.evaluate(ideal.a)
        if ev is POLE:
            raise PreconditionError(f"pole at the anchor point {ideal.a}")
        V, _ = D.components[ideal.component]
        v = V.valuation(ev)
        return v is INFINITY or v > V.group.zero()

    if ideal.kind == "mstar":
        if D.kind == "intersection":
            raise PreconditionError("M* needs a single valuation or pullback")
        if phi.is_zero():
            return True
        V = D.field
        pl = minval_rat(phi, V)
        return pl.eval(V.group.zero()) > V.group.zero()

    if ideal.kind == "value":
        if phi.is_zero():
            return True
        if isinstance(D.E, (list, tuple)):
            for a in D.E:
                ev = phi.evaluate(a)
                if ev is POLE:
                    return False
                for V, _ in D.components:
                    from .fields import ideal_member as _field_ideal
                    if not _field_ideal(ev, ("m_power", ideal.power), V):
                        return False
            return True
        verdicts = []
        for V, fsub in D.components:
            zero = V.group.zero()
            if V.is_discrete:
                tau = V.valuation(V.uniformizer()).scale(ideal.power)
                strict = False
            else:
                tau = zero
                strict = True
            if D.E == WHOLE_FIELD:
                region = _everywhere()
                restrict0 = None
            else:
                region = _Region(zero, False, None, True)
                restrict0 = (zero, fsub) if fsub is not None else None
            ev0 = phi.evaluate(V.zero())
            if ev0 is POLE:
                return False
            v0 = V.valuation(ev0)
            if not (v0 is INFINITY or (v0 > tau if strict else v0 >= tau)):
                return False
            ctx = _Ctx(V, None, tau, strict)
            out = _certify(ctx, phi, region, restrict0, depth)
            verdicts.append(out.status)
        if all(s == "in" for s in verdicts):
            return True
        if any(s == "out" for s in verdicts):
            return False
        raise UndecidedError("value-ideal membership undecided")

    raise ConfigError(f"unknown ideal {ideal!r}")


def characteristic_set(r, family, D, depth=3):
    """The ideals in the family that contain r."""
    return [ideal for ideal in family if ideal_member(r, ideal, D, depth)]


ZERO = "Zero"
STRICTLY_POSITIVE = "StrictlyPositive"
VIOLATION = "Violation"


def dichotomy_check(phi, D):
    """Sign pattern of the envelope of phi over the whole value group.

    For the pullback domains with divisible value group this is the local /
    not-local split: members must classify Zero or StrictlyPositive, and a
    Violation certifies non-membership.
    """
    if isinstance(D, PVDSpec):
        V = D.field
    else:
        V = D
    if not all(V.group.divisible):
        raise PreconditionError("dichotomy needs a divisible value group")
    if phi.is_zero():
        raise PreconditionError("dichotomy of the zero function")
    pl = minval_rat(phi, V).merged()
    zero = V.group.zero()
    segs = pl.segments
    if len(segs) == 1:
        if segs[0].slope != 0:
            return VIOLATION
        if segs[0].intercept == zero:
            return ZERO
        return STRICTLY_POSITIVE if segs[0].intercept > zero else VIOLATION
    if segs[0].slope > 0 or segs[-1].slope < 0:
        return VIOLATION
    for seg in segs[:-1]:
        if not seg.value_at(seg.hi) > zero:
            return VIOLATION
    return STRICTLY_POSITIVE


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def domain_from_config(cfg):
    E = cfg.get("E", "ring")
    if isinstance(E, str) and E not in (WHOLE_RING, WHOLE_FIELD):
        raise ConfigError(f"unknown point set {E!r}")
    if "components" in cfg:
        fields = [field_from_config(c) for c in cfg["components"]]
        dom = DomainSpec.intersection(fields, E if isinstance(E, str) else list(E))
    elif "subfield" in cfg:
        dom = DomainSpec.pvd(pvd_from_config(cfg), E)
    else:
        dom = DomainSpec.valuation_ring(field_from_config(_require(cfg, "field")), E)
    if isinstance(E, list):
        dom.E = [dom.field.parse(s) if isinstance(s, str) else s for s in E]
    return dom
