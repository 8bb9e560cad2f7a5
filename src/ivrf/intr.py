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

Membership in the ring (``intr_member``) and in a value ideal m^k
(``ideal_member``) run one driver; they differ only in their targets, the
thresholds that phi(a) must meet.

Certification is sound, never complete: ``Unknown`` is an honest outcome,
produced when the depth budget runs out or a root/residue search over an
infinite residue field cannot be exhausted; its ``depth_exhausted`` is True
exactly when the refinement depth ran out.  Every non-membership answer,
a value-ideal ``False`` included, rests on a concrete witness that is
re-verified by direct evaluation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice

from .errors import (ConfigError, PreconditionError, ResourceError, StructuralError,
                     UndecidedError)
from .fields import (FrobeniusSubfield, _config_value, field_from_config,
                     in_pullback, subfield_from_config)
from .ff import FiniteField, RatFuncField, _poly_pth_root, polynomials
from .newton import local_poly, minval_poly, minval_rat
from .ordgroup import lattice_point_in_interval
from .ratfun import (POLE, Polynomial, RationalFunction, _primitive_part,
                     clear_denominators, horner)

WHOLE_RING = "ring"
WHOLE_FIELD = "field"

_SEARCH_LIMIT = 64  # GF(q)(u) residues tried before a search degrades to Unknown
_ROOT_BUDGET = 2 ** 12  # divisor trials and candidates per GF(q)(u) root search


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

class CertifiedIn:
    __slots__ = ("certificate", "depth_used")
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
    """A witness where phi fails, and the reason.  A reason that names the
    witness is given by its head alone (``pole``, ``value V``) and reads
    "<head> at <witness>"; ``moved`` keeps it naming the witness."""

    __slots__ = ("witness", "reason", "head")
    kind = "out"

    def __init__(self, witness, reason="", head=None):
        self.witness = witness
        self.reason = reason if head is None else f"{head} at {witness}"
        self.head = head

    def moved(self, witness):
        """The same failure found at another point, ``witness``."""
        return CertifiedOut(witness, self.reason, self.head)

    def __repr__(self):
        return f"CertifiedOut(witness={self.witness!r})"

    def to_json(self):
        return {"verdict": "CertifiedOut", "witness": str(self.witness),
                "reason": self.reason}


class Unknown:
    """No verdict; ``depth_exhausted`` is True exactly when the depth ran out."""

    __slots__ = ("reason", "depth_exhausted")
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
    """A target domain together with the point set E: the intersection of
    its components, each a valued field V with a residue subfield, or None
    for the whole valuation ring of V.  One component is a valuation ring
    or a pseudovaluation pullback; more are a finite intersection."""

    def __init__(self, components, E):
        self.components = components  # list of (ValuedField, subfield-or-None)
        self.E = E

    @classmethod
    def pvd(cls, V, sub, E=WHOLE_RING):
        """The pullback of the residue subfield ``sub`` under V; ``sub=None``,
        the whole residue field, gives the valuation ring."""
        return cls([(V, sub)], E)

    @classmethod
    def intersection(cls, fields, E=WHOLE_FIELD):
        if not fields:
            raise ConfigError("intersection needs at least one valuation")
        if not all(type(V) is type(fields[0]) for V in fields):
            raise ConfigError("intersection components must share one field")
        return cls([(V, None) for V in fields], E)

    @property
    def field(self):
        """Coefficient context of the shared fraction field."""
        return self.components[0][0]

    def member(self, x):
        return all(in_pullback(V, sub, x) for V, sub in self.components)

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
        return lattice_point_in_interval(group, self.lo, self.hi)


def _region(E, zero, fsub):
    """The values of the nonzero points of E, and the subfield the residues
    at value ``zero`` are restricted to: ``fsub`` when E is the ring, else
    None (no restriction)."""
    if E == WHOLE_FIELD:
        return _Region(None, True, None, True), None
    if E == WHOLE_RING:
        return _Region(zero, False, None, True), fsub
    raise ConfigError(f"unknown point set {E!r}")


# ---------------------------------------------------------------------------
# residue-field searches
# ---------------------------------------------------------------------------

def residue_roots(poly, L):
    """Nonzero roots of a polynomial over GF(q) or GF(q)(u).

    Returns (roots, complete).  Over GF(q) enumeration is exhaustive.  Over
    GF(q)(u) a p-th power r^p has the roots of r, so the search runs on
    coefficient-wise p-th roots while there are any.  Then the rational
    root theorem names the candidates: with the coefficients P_i cleared to
    GF(q)[u] and divided by their content, a reduced root n/d (d monic) has
    n dividing the lowest P_i and d the highest, so n is a unit times a
    monic divisor of the one and d a monic divisor of the other.  A
    candidate is a root exactly when sum_i P_i n^i d^(deg-i) vanishes
    (``horner``), which needs no fraction arithmetic.  The sum cannot
    vanish when one index alone reaches the largest term degree
    deg P_i + i deg n + (deg-i) deg d over the nonzero P_i, so only the
    other candidates are summed.  A search tries at most
    ``_ROOT_BUDGET`` trial divisors per end coefficient and screens at most
    ``_ROOT_BUDGET`` candidates; ``complete`` is True exactly when neither
    runs out, and then every root is found.
    """
    if isinstance(L, FiniteField):
        return {c for c in L.nonzero_elements() if not poly.evaluate(c)}, True
    if not isinstance(L, RatFuncField):
        raise PreconditionError(f"no root search over {L!r}")
    shift = poly.low_degree()
    if shift is None:
        raise StructuralError("root search on the zero polynomial")
    if shift == poly.degree:
        return (set(), True)
    root = _poly_pth_root(poly, L.base.p)
    if root is not None:  # poly = root^p, and a^p = 0 exactly when a = 0
        return residue_roots(root, L)
    cleared = _primitive_part(clear_denominators(
        [(c.num, c.den) for c in poly.coeffs[shift:]]))
    nums, nums_complete = _monic_divisors(cleared[0])
    dens, dens_complete = _monic_divisors(cleared[-1])
    one = Polynomial.constant(L.base, L.base.one(), L.var)
    candidates = ((n.scale(c), d) for d in dens for n in nums
                  if Polynomial.gcd(n, d).degree == 0 for c in L.base.nonzero_elements())
    terms = [(i, c.degree) for i, c in enumerate(cleared) if c]
    top = len(cleared) - 1

    def may_vanish(n, d):
        degrees = [dc + i * n.degree + (top - i) * d.degree for i, dc in terms]
        return degrees.count(max(degrees)) > 1

    roots = {RationalFunction(n, d, _canonical=True)
             for n, d in islice(candidates, _ROOT_BUDGET)
             if may_vanish(n, d) and horner(cleared, n, d, one)[0].is_zero()}
    return roots, nums_complete and dens_complete and next(candidates, None) is None


def _monic_divisors(a):
    """The monic divisors of a nonzero polynomial over GF(q), by degree, and
    whether that list is complete.  A divisor or its cofactor has at most
    half the degree of a, so trial division by the monic polynomials of that
    degree finds both; at most ``_ROOT_BUDGET`` of them are tried."""
    divisors = {}
    trials = polynomials(a.field, a.degree // 2, monic=True, var=a.var)
    for m in islice(trials, _ROOT_BUDGET):
        cofactor, rem = divmod(a, m)
        if rem.is_zero():
            divisors[m] = divisors[cofactor.monic()] = None
    return sorted(divisors, key=lambda m: m.degree), next(trials, None) is None


def _small_residues(L, allowed):
    """Nonzero residues to probe, restricted to ``allowed`` when given.

    A finite source (a finite ``allowed``, or L = GF(q)) is enumerated in
    full; over GF(q)(u) the search stops after ``_SEARCH_LIMIT`` residues of
    small height.
    """
    if allowed is not None and allowed.is_finite:
        return (c for c in allowed.elements() if c)
    source = L.nonzero_elements() if L.is_finite else L.small_elements()
    residues = (c for c in source if allowed is None or allowed.contains(c))
    return residues if L.is_finite else islice(residues, _SEARCH_LIMIT)


# ---------------------------------------------------------------------------
# the certifier
# ---------------------------------------------------------------------------

class _Ctx:
    """The target of one component: values v(y) at or above ``tau`` (above,
    when ``strict``), and at value 0 residues in the subfield ``fsub`` when it
    is not None.  Contexts with a subfield have tau = 0 and are not strict, so
    they are the pullbacks that ``in_pullback`` tests."""

    __slots__ = ("V", "fsub", "tau", "strict")

    def __init__(self, V, fsub, tau, strict):
        self.V = V
        self.fsub = fsub
        self.tau = tau
        self.strict = strict

    def value_ok(self, v):
        return v > self.tau if self.strict else v >= self.tau

    def point_ok(self, y):
        """Full membership test of a field element against the target."""
        if self.fsub is None:
            return self.value_ok(self.V.valuation(y))
        return in_pullback(self.V, self.fsub, y)


def _combine(verdicts, record):
    """The one rule that merges part verdicts, read in order: the first
    ``CertifiedOut``, with no part after it read; else the first ``Unknown``;
    else ``CertifiedIn(record(certificates))`` at the deepest depth used,
    at least 1.  Only that last case builds a record."""
    unknown = None
    certificates = []
    depth_used = 1
    for out in verdicts:
        if out.kind == "out":
            return out
        if out.kind == "unknown":
            unknown = unknown or out
        else:
            certificates.append(out.certificate)
            depth_used = max(depth_used, out.depth_used)
    return unknown or CertifiedIn(record(certificates), depth_used)


def _certify(ctx, phi, region, restrict0, depth):
    """The verdict for one context: its segments and breakpoints combined,
    so a ``CertifiedIn`` carries their records in order."""
    num, den = minval_poly(phi.num, ctx.V), minval_poly(phi.den, ctx.V)

    def parts():
        for seg in (num - den).segments:
            piece = region.intersect(seg.lo, True, seg.hi, True)
            if piece is None:
                yield CertifiedIn(_segment_record(seg), 1)
            else:
                yield _check_interval(ctx, phi, seg, piece, restrict0)

            # The breakpoint at the right end of this segment, if any.
            delta = seg.hi
            if delta is None or not region.contains(delta):
                continue
            if not delta.in_lattice():
                yield CertifiedIn({"point": _fmt(delta), "status": "not a value"}, 1)
            else:
                yield _check_point(ctx, phi, num, den, delta, seg.value_at(delta),
                                   restrict0, depth)

    return _combine(parts(), list)


def _segment_record(seg, **status):
    return {"from": _fmt(seg.lo), "to": _fmt(seg.hi), "slope": seg.slope,
            "intercept": str(seg.intercept), **status}


def _check_interval(ctx, phi, seg, piece, restrict0):
    """Linear analysis on an open segment interior (both supports single)."""
    V = ctx.V
    group = V.group
    zero = group.zero()
    s, beta = seg.slope, seg.intercept

    bad = _failing_subregion(piece, s, beta, ctx.tau, ctx.strict)
    if bad is not None:
        gv = bad.lattice_point(group)
        if gv is not None:
            # residue 1 is in every subfield, so a bare power of value gv is
            # an admissible point even under the residue restriction
            return CertifiedOut(V.element_of_value(gv),
                                f"envelope value {seg.value_at(gv)} at {gv}")
    clear = CertifiedIn(_segment_record(seg, status="clear"), 1)
    if ctx.fsub is None:
        return clear

    # at a point a of value gamma on this piece, ac(phi(a)) = const * ac(a)^s
    fi, gj = seg.tag
    const = V.angular(phi.num.coeffs[fi]) / V.angular(phi.den.coeffs[gj])

    if s == 0 and beta == zero:
        if not ctx.fsub.contains(const):
            gv = piece.lattice_point(group)
            if gv is not None:
                return CertifiedOut(V.element_of_value(gv),
                                    f"residue {const} outside subfield")
        return CertifiedIn(_segment_record(seg, status="zero segment",
                                           residue=str(const)), 1)

    if s != 0:
        gstar = (ctx.tau - beta).scale(Fraction(1, s))
        if piece.contains(gstar) and gstar.in_lattice():
            # phi has value tau = 0 at t*lift(c), and residue h(c) = const * c^s
            # as ac(t) = 1; when the residues are restricted to the
            # subfield's units, c^s stays in F and h = const decides
            t = V.element_of_value(gstar)
            allowed = restrict0 if gstar == zero else None
            h = const * RationalFunction.gen(V.residue_field) ** (s if allowed is None else 0)
            return _residue_condition(ctx, t, h, allowed, (), gstar) or clear
    return clear


def _check_point(ctx, phi, num, den, delta, val, restrict0, depth):
    """The residue classes at the breakpoint ``delta`` of envelope value ``val``.

    The local polynomials are read from ``num`` and ``den``, the envelopes of
    phi's terms; the numerator's only where a verdict reads it: for its roots
    when the value fails (they are refined, and no exact class may take
    them), and for the ratio h at value 0 of a pullback.  There a numerator
    root c has h(c) = 0, which every subfield contains, so the ratio check
    skips the denominator's roots alone."""
    V = ctx.V
    L = V.residue_field
    zero = V.group.zero()
    t = V.element_of_value(delta)
    locg = local_poly(den, t, delta)
    ok_val = ctx.value_ok(val)
    allowed = restrict0 if delta == zero else None

    roots_g, complete = residue_roots(locg, L)
    roots_f = set()
    if not ok_val:
        roots_f, complete_f = residue_roots(local_poly(num, t, delta), L)
        complete = complete and complete_f
    if allowed is not None:
        roots_g = {c for c in roots_g if allowed.contains(c)}
        roots_f = {c for c in roots_f if allowed.contains(c)}
    roots = roots_f | roots_g

    def classes():
        if not complete:
            yield Unknown(f"root search beyond budget {_ROOT_BUDGET} at value {delta}")

        # Exact classes.
        if not ok_val:
            c = next((c for c in _small_residues(L, allowed) if c not in roots), None)
            if c is not None:
                yield CertifiedOut(t * V.lift(c), f"exact class value {val} at {delta}")
        elif val == zero and ctx.fsub is not None:
            # exact classes have residue r0 * locf(c)/locg(c), r0 = ac(a_df/b_dg)
            locf = local_poly(num, t, delta)
            r0 = (V.angular(phi.num.coeffs[locf.degree])
                  / V.angular(phi.den.coeffs[locg.degree]))
            h = RationalFunction(locf.scale(r0), locg)
            yield (_residue_condition(ctx, t, h, allowed, roots, delta) or CertifiedIn(
                {"residue": "*", "case": "exact", "ratio": str(h)}, 1))

        # Classes needing refinement.
        for c in sorted(roots, key=str):
            yield _refine(ctx, phi, t, c, "g-root" if c in roots_g else "f-root",
                          delta, depth)

    return _combine(classes(), lambda records: {"point": _fmt(delta), "classes": records})


def _refine(ctx, phi, t, c, case, delta, depth):
    """The verdict on the residue class of c at value ``delta`` = v(t): a
    ``CertifiedOut`` at its centre a0 = t*lift(c) when phi fails there, else
    the verdict on the substitution a = a0 + t*y, v(y) > 0, one depth lower,
    with its witness moved back to a; ``Unknown`` if the substitution passes
    a resource bound, such as a Hahn lattice finer than t^(1/65536)."""
    V = ctx.V
    a0 = t * V.lift(c)
    ev = phi.evaluate(a0)
    if ev is POLE:
        return CertifiedOut(a0, head="pole")
    if not ctx.point_ok(ev):
        return CertifiedOut(a0, head=f"value {V.valuation(ev)}")
    if depth <= 1:
        return Unknown(f"refinement needed at {delta}, residue {c}; depth exhausted", True)
    try:
        shifted = phi.compose(RationalFunction(Polynomial(V, [a0, t], phi.num.var)))
        out = _certify(ctx, shifted, _Region(V.group.zero(), True, None, True), None, depth - 1)
    except ResourceError as err:
        return Unknown(f"refinement at {delta}, residue {c}: {err}")
    if out.kind == "out":
        return out.moved(a0 + t * out.witness)
    if out.kind == "unknown":
        return out
    return CertifiedIn({"residue": str(c), "case": case, "action": "refined",
                        "depth": out.depth_used}, 1 + out.depth_used)


def _residue_condition(ctx, t, h, allowed, roots, delta):
    """At value 0 the residues of phi are h(c), h a rational function over
    the residue field; every allowed nonzero c outside ``roots`` must land
    in the subfield."""
    if h.is_constant() and ctx.fsub.contains(h.as_constant()):
        return None
    L = ctx.V.residue_field
    residues = _small_residues(L, allowed)
    if L.is_finite or (allowed is not None and allowed.is_finite):
        return _probe(ctx, t, residues, h, roots)

    if h.is_constant():
        return (_probe(ctx, t, residues, h, roots)
                or Unknown("no probe residue found"))

    sub = ctx.fsub
    if isinstance(sub, FrobeniusSubfield) and all(
            i % sub.step == 0 and sub.contains(f.coeff(i))
            for f in (h.num, h.den) for i in f.support()):
        # h is then a p^e-th power (GF(q) is perfect), and so is each h(c)
        return None

    return (_probe(ctx, t, residues, h, roots)
            or Unknown(f"residue ratio {h} into subfield undecided at {delta}"))


def _probe(ctx, t, residues, h, skip):
    """The first residue c outside ``skip`` whose value h(c) (a pole is
    passed over) lands outside the subfield, as a ``CertifiedOut`` with
    witness t * lift(c); None when there is none."""
    for c in residues:
        if c in skip:
            continue
        value = h.evaluate(c)
        if value is not POLE and not ctx.fsub.contains(value):
            return CertifiedOut(t * ctx.V.lift(c),
                                f"residue {value} outside subfield")
    return None


def _failing_subregion(piece, s, beta, tau, strict):
    """Sub-interval of ``piece`` where s*gamma + beta fails the threshold."""
    if s == 0:
        fails = beta < tau or (strict and beta == tau)
        return piece if fails else None
    gstar = (tau - beta).scale(Fraction(1, s))
    if s > 0:
        # fails on the left of gstar
        return piece.intersect(None, True, gstar, not strict)
    return piece.intersect(gstar, not strict, None, True)


def _fmt(g):
    return None if g is None else str(g)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def _meets(targets, ev):
    """Whether the value ``ev`` (possibly ``POLE``) meets every target."""
    return ev is not POLE and all(ctx.point_ok(ev) for ctx in targets)


def _certify_domain(phi, D, targets, depth):
    """The verdict on phi(a) meeting every target for all a in E.

    A target is one ``_Ctx`` per component of D, in order; on the ring E,
    points of value 0 have residues in their component's subfield.  The
    point 0, which lies in both the whole ring and the whole field, is
    checked before any component, as the cheapest disproof.  A
    ``CertifiedOut`` of a component is passed on only when its witness lies
    in E and phi fails a target there; otherwise the verdict is ``Unknown``.
    """
    if phi.is_zero():
        return CertifiedIn([{"trivial": "zero function"}], 0)

    if isinstance(D.E, (list, tuple)):
        for a in D.E:
            ev = phi.evaluate(a)
            if ev is POLE:
                return CertifiedOut(a, "pole at a listed point")
            if not _meets(targets, ev):
                return CertifiedOut(a, "value outside the domain")
        return CertifiedIn([{"finite": len(D.E)}], 1)

    ev0 = phi.evaluate(D.field.zero())
    if ev0 is POLE:
        return CertifiedOut(D.field.zero(), "pole at 0")
    if not _meets(targets, ev0):
        return CertifiedOut(D.field.zero(), "value at 0 outside the domain")

    def components():
        for ctx, (_, fsub) in zip(targets, D.components):
            region, restrict0 = _region(D.E, ctx.V.group.zero(), fsub)
            try:  # a bound met at the input's own segments and breakpoints
                out = _certify(ctx, phi, region, restrict0, depth)
            except ResourceError as err:
                out = Unknown(f"certification over {ctx.V.describe()}: {err}")
            if out.kind == "out" and (not D.contains_point(out.witness)
                                      or _meets(targets, phi.evaluate(out.witness))):
                out = Unknown("candidate witness failed re-verification")
            yield out

    return _combine(components(), lambda pieces: [
        {"component": ctx.V.describe(), "pieces": p} for ctx, p in zip(targets, pieces)])


def intr_member(phi, D, depth=3):
    """Certify phi(a) in D for all a in E; sound, possibly Unknown."""
    targets = [_Ctx(V, fsub, V.group.zero(), False) for V, fsub in D.components]
    return _certify_domain(phi, D, targets, depth)


def ideal_member(phi, ideal, D, depth=3):
    """Membership of phi in a pointed ideal, in M*, or in a value ideal."""
    if ideal.kind == "pointed" and ideal.component not in range(len(D.components)):
        raise PreconditionError(f"no component {ideal.component} in {D.describe()}")
    if ideal.kind == "value" and ideal.power < 1:
        raise PreconditionError(f"the power of m must be at least 1, not {ideal.power}")
    if ideal.kind == "pointed":
        if not D.contains_point(ideal.a):
            raise PreconditionError("the anchor point must lie in E")
        ev = phi.evaluate(ideal.a)
        if ev is POLE:
            raise PreconditionError(f"pole at the anchor point {ideal.a}")
        V, _ = D.components[ideal.component]
        return V.valuation(ev) > V.group.zero()

    if ideal.kind == "mstar":
        if len(D.components) > 1:
            raise PreconditionError("M* needs a single valuation or pullback")
        if phi.is_zero():
            return True
        V = D.field
        pl = minval_rat(phi, V)
        return pl.eval(V.group.zero()) > V.group.zero()

    if ideal.kind == "value":
        targets = []  # one threshold of m^power per component
        for V, _ in D.components:
            if not any(V.group.divisible):
                tau = V.valuation(V.uniformizer()).scale(ideal.power)
                targets.append(_Ctx(V, None, tau, False))
            else:  # a divisible value group: every power of m is m
                targets.append(_Ctx(V, None, V.group.zero(), True))
        verdict = _certify_domain(phi, D, targets, depth)
        if verdict.kind == "unknown":
            raise UndecidedError("value-ideal membership undecided")
        return verdict.kind == "in"

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
    if len(D.components) > 1:
        raise PreconditionError("dichotomy needs a single valuation or pullback")
    V = D.field
    if not all(V.group.divisible):
        raise PreconditionError("dichotomy needs a divisible value group")
    if phi.is_zero():
        raise PreconditionError("dichotomy of the zero function")
    pl = minval_rat(phi, V)
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
    if isinstance(E, str):
        if E not in (WHOLE_RING, WHOLE_FIELD):
            raise ConfigError(f"unknown point set {E!r}")
    elif not (isinstance(E, list) and all(isinstance(s, str) for s in E)):
        raise ConfigError(f"point set E must be {WHOLE_RING!r}, {WHOLE_FIELD!r} "
                          f"or a list of element strings, not {E!r}")
    if "components" in cfg:
        fields = [field_from_config(c)
                  for c in _config_value(cfg, "components", list)]
        dom = DomainSpec.intersection(fields, E)
    else:  # a config without a subfield is the whole valuation ring
        V = field_from_config(_config_value(cfg, "field", dict))
        sub = subfield_from_config(V.residue_field,
                                   _config_value(cfg, "subfield", dict, {}))
        dom = DomainSpec.pvd(V, sub, E)
    if isinstance(E, list):
        dom.E = [dom.field.parse(s) for s in E]
    return dom
