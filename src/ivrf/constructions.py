"""Builders and verifiers for the explicit rational functions of the theory.

Everything here lives over a semilocal intersection of p-adic valuation
rings carrying a uniform element t and an exponent n with
0 < v_m(t) < n * v_m(t_m) for every member valuation.  The shipped presets
are ({2,3}, t=6, n=2) and ({2,3,5}, t=30, n=2).

The builders return exact rational functions:

* theta(x) = t(1 + x^(2n)) / ((1 + t x^n)(t + x^n)), symmetric under
  x -> 1/x, a global unit-to-ideal separator;
* psi = phi^n / (t + phi^(2n)), with the exact cancellation identity
  phi^n (1 - phi^n psi) = t psi;
* rho = phi1 + theta(phi1/phi2) phi2, whose value has valuation
  min(v(phi1(a)), v(phi2(a))) at every sample;
* the separator phi / (phi + theta(phi));
* the two not-local witnesses 1/(x^q - x + 1) and 1/(x^(p^(2e)) - u^(p^e)).

Each builder is paired with a sampling verifier that builds the function,
re-checks its valuation case table (and psi's identity) by exact evaluation
read in integers, and returns the function it checked with its report.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import (PreconditionError, ResourceError, StructuralError,
                     UnsupportedCaseError)
from .ff import polynomials
from .fields import PAdicQ
from .intr import (DomainSpec, Pointed, WHOLE_FIELD, ideal_member,
                   intr_member, residue_roots)
from .ordgroup import INFINITY
from .parsing import EXPONENT_BOUND
from .ratfun import POLE, Polynomial, RationalFunction


class SingularData:
    """A finite family of p-adic valuations with a uniform element t."""

    def __init__(self, primes, t, n):
        if n < 1:
            raise StructuralError("n must be a positive integer")
        self.components = [PAdicQ(p) for p in primes]
        self.t = Fraction(t)
        self.n = n
        for V, vt in zip(self.components, self.valuations(self.t.as_integer_ratio())):
            if not 0 < vt < n:
                raise StructuralError(
                    f"0 < v_{V.p}(t) < n*v_{V.p}(t_m) fails for t={t}, n={n}")

    def valuations(self, pair):
        """v_p(num) - v_p(den) of an unreduced pair of ints (num, den), den
        nonzero, for each p in order: an int, or INFINITY where num is 0, as
        for ``RationalFunction.evaluate_pair`` or ``Fraction.as_integer_ratio``."""
        num, den = pair
        if not num:
            return [INFINITY] * len(self.components)
        return [V.int_valuation(num) - V.int_valuation(den) for V in self.components]

    @property
    def field(self):
        return self.components[0]

    def domain(self):
        return DomainSpec.intersection(list(self.components))

    def describe(self):
        ps = ",".join(str(V.p) for V in self.components)
        return f"({{{ps}}}, t={self.t}, n={self.n})"

    def __repr__(self):
        return f"SingularData{self.describe()}"


PRESETS = {"t6n2": ([2, 3], 6, 2), "t30n2": ([2, 3, 5], 30, 2)}  # primes, t, n


def preset(name):
    if name not in PRESETS:
        raise PreconditionError(f"unknown preset {name!r}")
    return SingularData(*PRESETS[name])


def _x(S):
    return RationalFunction.gen(S.field)


def _const(S, c):
    return RationalFunction.constant(S.field, Fraction(c))


def build_theta(S):
    """t(1+x^(2n)) / ((1+t x^n)(t+x^n)); equal to its own pullback under 1/x."""
    x = _x(S)
    t = _const(S, S.t)
    n = S.n
    theta = (t * (1 + x ** (2 * n))) / ((1 + t * x ** n) * (t + x ** n))
    return theta


def coprime_grid(bound):
    """0 and all reduced r/s with |r|, s <= bound."""
    yield Fraction(0)
    for s in range(1, bound + 1):
        for r in range(1, bound + 1):
            if gcd(r, s) == 1:
                yield Fraction(r, s)
                yield Fraction(-r, s)


def verify_theta(S, samples, values=None):
    """theta and its exact case table: at v(a) = 0 the value gains valuation;
    at v(a) != 0 the value is congruent to 1 modulo the maximal ideal.

    The table is read in integers.  The built theta's value at each sample
    is the unreduced pair (N, D) of ``RationalFunction.evaluate_pair``, the
    pair ``evaluate`` reduces, and ``_theta_case`` reads each valuation from
    N, D and a's numerator and denominator.  A list ``values`` receives
    (a, (N, D)) for every sample, in order, for the theta CSV.
    """
    theta = build_theta(S)
    report = {"checked": 0, "violations": []}
    for a in samples:
        num, den = theta.evaluate_pair(a)
        if values is not None:
            values.append((a, (num, den)))
        if not den:
            report["violations"].append({"a": str(a), "case": "pole"})
            continue
        r, s = a.numerator, a.denominator
        for V in S.components:
            case, ok = _theta_case(V, r, s, num, den)
            if not ok:
                report["violations"].append(
                    {"a": str(a), "prime": V.p, "case": case})
        report["checked"] += 1
    report["ok"] = not report["violations"]
    return theta, report


def _theta_case(V, r, s, num, den):
    """The row of theta's case table at a = r/s (reduced) for the p-adic V,
    and whether the value num/den (den nonzero) meets it, as (case, ok).

    Every v_p is ``V.int_valuation`` of a nonzero int, and v(num/den) is
    v_p(num) - v_p(den).  Where v(a) = 0 (r nonzero and p dividing neither
    r nor s, so v_p(rs) = 0) the case is "unit argument", met when num is
    nonzero and v_p(num) > v_p(den).  Elsewhere, a = 0 included, it is
    "congruent to 1": v(num/den) = 0 and num/den - 1 = (num - den)/den lies
    in the maximal ideal, that is v_p(num) = v_p(den) and num = den or
    v_p(num - den) > v_p(den).
    """
    vp = V.int_valuation
    vden = vp(den)
    if r and not vp(r * s):
        return "unit argument", num != 0 and vp(num) > vden
    return "congruent to 1", (num != 0 and vp(num) == vden
                              and (num == den or vp(num - den) > vden))


def build_psi(phi, S):
    """psi = phi^n/(t + phi^(2n))."""
    if phi.is_zero():
        raise PreconditionError("psi needs a nonzero function")
    return phi ** S.n / (_const(S, S.t) + phi ** (2 * S.n))


def verify_psi(phi, S, samples):
    """psi, the cancellation identity phi^n (1 - phi^n psi) = t psi, and the
    valuation case table: v(psi(a)) = 0 where v(phi(a)) = 0, and
    v(psi(a)) = n*v(phi(a)) - v(t) > 0 where v(phi(a)) > 0."""
    psi = build_psi(phi, S)
    phi_n = phi ** S.n
    identity = phi_n * (1 - phi_n * psi) == _const(S, S.t) * psi
    report = {"identity": identity, "checked": 0, "violations": []}
    vts = S.valuations(S.t.as_integer_ratio())
    for a in samples:
        pairs = [f.evaluate_pair(a) for f in (phi, psi)]
        if not all(den for _, den in pairs):
            continue
        for V, vphi, vpsi, vt in zip(S.components, *map(S.valuations, pairs), vts):
            if vphi == 0:
                ok = vpsi == 0
            elif 0 < vphi < INFINITY:
                ok = vpsi == S.n * vphi - vt and vpsi > 0
            else:
                continue
            if not ok:
                report["violations"].append({"a": str(a), "prime": V.p})
        report["checked"] += 1
    report["ok"] = identity and not report["violations"]
    return psi, report


def build_rho(phi1, phi2, S):
    """rho = phi1 + theta(phi1/phi2) * phi2."""
    if phi2.is_zero():
        raise PreconditionError("rho needs phi2 nonzero")
    theta = build_theta(S)
    ratio = phi1 / phi2
    composed = theta.compose(ratio)  # StructuralError on a constant pole
    return phi1 + composed * phi2


def verify_rho(phi1, phi2, S, samples):
    """rho, with v(rho(a)) = min(v(phi1(a)), v(phi2(a))) at every sample."""
    rho = build_rho(phi1, phi2, S)
    report = {"checked": 0, "skipped": 0, "violations": []}
    for a in samples:
        pairs = [f.evaluate_pair(a) for f in (phi1, phi2, rho)]
        if not all(den for _, den in pairs):
            report["skipped"] += 1
            continue
        for V, e1, e2, er in zip(S.components, *map(S.valuations, pairs)):
            if er != min(e1, e2):
                report["violations"].append({"a": str(a), "prime": V.p})
        report["checked"] += 1
    report["ok"] = not report["violations"]
    return rho, report


def build_separator(phi, S):
    """phi / (phi + theta(phi)): keeps the ideal side, inverts the unit side."""
    if phi.is_zero():
        raise PreconditionError("the separator needs a nonzero function")
    theta = build_theta(S)
    composed = theta.compose(phi)
    return phi / (phi + composed)


def verify_separator(phi, S, samples):
    """The separator psi, with v(psi(a)) > 0 exactly when v(phi(a)) > 0, and
    psi(a) in the intersection domain, at every sample."""
    psi = build_separator(phi, S)
    report = {"checked": 0, "skipped": 0, "violations": []}
    for a in samples:
        pairs = [f.evaluate_pair(a) for f in (phi, psi)]
        if not all(den for _, den in pairs):
            report["skipped"] += 1
            continue
        vphis, vpsis = map(S.valuations, pairs)
        if min(vpsis) < 0:
            report["violations"].append({"a": str(a), "case": "not in D"})
        for V, vphi, vpsi in zip(S.components, vphis, vpsis):
            if (vphi > 0) != (vpsi > 0):
                report["violations"].append({"a": str(a), "prime": V.p})
        report["checked"] += 1
    report["ok"] = not report["violations"]
    return psi, report


# ---------------------------------------------------------------------------
# not-local witnesses
# ---------------------------------------------------------------------------

def notlocal_witness(D, depth=3, split_samples=None):
    """The two-family witness for a one-component domain (a valuation ring
    or a pullback), with verification.

    Finite residue field L of order q: w = 1/(x^q - x + 1), which maps L to
    {1}.  Purely inseparable residue extension of exponent e with generator
    c outside the subfield: w = 1/(x^(p^(2e)) - c_lift^(p^e)).  In both cases
    w is certified integer-valued on the whole field, and w lies in the
    pointed ideal at a exactly when v(a) < 0, giving the two families of
    maximal ideals.  A degree p^(2e) above ``EXPONENT_BOUND`` is a
    ResourceError.
    """
    if len(D.components) > 1:
        raise PreconditionError("the not-local witness needs a single valuation "
                                "or pullback")
    V, sub = D.components[0]
    L = V.residue_field
    record = {}

    if L.is_finite:
        q = L.q
        den = {0: V.one(), 1: V.from_int(-1), q: V.one()}
        record["case"] = f"finite residue field of order {q}"
        record["maps_to_one"] = all(
            d ** q - d + 1 == L.one() for d in L.elements())
    else:
        e = None if sub is None else sub.purely_inseparable_exponent
        if not e:
            raise UnsupportedCaseError(
                "the residue field is infinite and the residue extension is "
                "not purely inseparable of finite exponent; the ring of "
                "integer-valued rational functions on the field is local and "
                "no two-family witness exists")
        p = L.base.p
        pe = p ** e
        degree = pe * pe
        if degree > EXPONENT_BOUND:
            raise ResourceError(f"witness degree {p}^{2 * e} beyond the bound "
                                f"{EXPONENT_BOUND}")
        c = L.gen()  # the variable u lies outside GF(q)(u^(p^e))
        den = {0: -V.lift(c ** pe), degree: V.one()}
        record["case"] = f"purely inseparable of exponent {e}"
        denom_residue = Polynomial.from_dict(L, {0: -(c ** pe), degree: L.one()})
        roots, complete = residue_roots(denom_residue, L)
        record["denominator_rootless"] = complete and not roots

    w = RationalFunction(Polynomial.constant(V, V.one()), Polynomial.from_dict(V, den))
    dom = DomainSpec(D.components, WHOLE_FIELD)
    verdict = intr_member(w, dom, depth=depth)
    record["membership"] = verdict.to_json()
    record["certified"] = verdict.kind == "in"

    if split_samples is not None:
        zero = V.group.zero()
        bad = []
        for a in split_samples:
            if not a:
                continue
            pointed = ideal_member(w, Pointed(a), dom)
            expect = V.valuation(a) < zero
            if pointed != expect:
                bad.append(str(a))
        record["split_checked"] = True
        record["split_violations"] = bad
    record["ok"] = record["certified"] and not record.get("split_violations")
    return w, record


# ---------------------------------------------------------------------------
# exhaustive rational maps between small fields
# ---------------------------------------------------------------------------

class FieldMapReport:
    """Outcome of an exhaustive scan for rational maps L -> M (M None: all
    of L)."""

    def __init__(self, L, M, degree_bound, exception_bound):
        self.L = L
        self.M = M
        self.degree_bound = degree_bound
        self.exception_bound = exception_bound
        self.maps = []
        self.scanned = 0

    def find(self, phi):
        for entry in self.maps:
            if entry["function"] == phi:
                return entry
        return None

    def to_json(self):
        return {
            "source": self.L.describe(),
            "target": (f"{self.L.describe()} (whole)" if self.M is None
                       else self.M.describe()),
            "degree_bound": self.degree_bound,
            "exception_bound": self.exception_bound,
            "scanned": self.scanned,
            "maps": [{
                "function": str(e["function"]),
                "exceptions": [str(x) for x in e["exceptions"]],
                "constant_map": e["constant_map"],
                "values": {str(k): str(v) for k, v in e["values"].items()},
            } for e in self.maps],
        }


_SCAN_PAIR_BUDGET = 2_000_000


def field_map_scan(L, M, degree_bound, exception_bound=0):
    """All rational functions over L (canonical forms, degrees <= bound)
    mapping all but at most ``exception_bound`` elements of L into M.

    M is a SubfieldSpec on L, or None for L itself.  Poles count as
    exceptions.  Exhaustive within the stated bounds; resource-guarded
    beyond them.
    """
    if not getattr(L, "is_finite", False):
        raise PreconditionError("the scan needs a finite source field")
    if degree_bound < 0 or exception_bound < 0:
        raise PreconditionError("the scan bounds must be at least 0")
    if L.q > 64:
        raise ResourceError("source field order beyond 64")
    if degree_bound > 4:
        raise ResourceError("degree bound beyond 4")
    q = L.q
    num_count = q ** (degree_bound + 1)
    den_count = sum(q ** d for d in range(degree_bound + 1))
    if num_count * den_count > _SCAN_PAIR_BUDGET:
        raise ResourceError("scan budget exceeded")

    report = FieldMapReport(L, M, degree_bound, exception_bound)
    elements = list(L.elements())
    for den in polynomials(L, degree_bound, monic=True):
        for num in polynomials(L, degree_bound):
            if num.is_zero():
                if den.degree > 0:
                    continue  # the canonical zero is 0/1
            elif Polynomial.gcd(num, den).degree > 0:
                continue
            phi = RationalFunction(num, den, _canonical=True)
            report.scanned += 1
            values = {}
            exceptions = []
            for d in elements:
                v = phi.evaluate(d)
                values[d] = v
                if v is POLE or (M is not None and not M.contains(v)):
                    exceptions.append(d)
            if len(exceptions) <= exception_bound:
                good = [v for v in values.values() if v is not POLE]
                constant_map = len(set(good)) <= 1
                report.maps.append({
                    "function": phi,
                    "values": values,
                    "exceptions": exceptions,
                    "constant_map": constant_map,
                })
    return report

