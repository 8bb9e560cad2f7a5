"""The minimum-valuation engine.

For a nonzero polynomial f = sum a_i x^i over a valued field, the function
gamma -> min_i (v(a_i) + i*gamma) is the lower envelope of finitely many
lines with integer slopes; it is concave, its slopes strictly decrease left
to right, and its breakpoints live in the divisible closure of the value
group.  For a rational function the envelope of the numerator minus the
envelope of the denominator is taken segment-wise on the merged breakpoints.

The envelope of f keeps its lines (i, v(a_i)), each v(a_i) read once, and
local polynomials are read from them: for t nonzero, loc(f, t) is f(t*x)
divided by its dominant coefficient and reduced modulo the maximal ideal, a
monic ``Polynomial`` in x over the residue field.  The envelope predicts
v(f(a)) exactly unless the residue of a/t is a root of the local polynomial.
The envelope of phi keeps those of its numerator and denominator.

Over a rank-1 value group (every field but lex2) the hull, the values and
the local polynomial's minimum are computed on each value's one coordinate,
an int or a Fraction, with one group element per returned value.
"""

from __future__ import annotations

from fractions import Fraction
from operator import sub

from .errors import PreconditionError, StructuralError
from .ordgroup import GroupElement, _norm
from .ratfun import Polynomial


def _on_coordinate(G, gamma):
    """Whether ``gamma`` is an element of ``G`` of rank 1, read as a number;
    anything else takes the group arithmetic, which checks the group."""
    return (G.rank == 1 and type(gamma) is GroupElement
            and (gamma.group is G or gamma.group == G))


class Segment:
    """One affine piece: slope * gamma + intercept on [lo, hi].

    ``lo``/``hi`` are group elements or None for an unbounded end.  ``tag``
    records which line (polynomial index, or index pair for a quotient)
    realizes the piece.
    """

    __slots__ = ("slope", "intercept", "lo", "hi", "tag")

    def __init__(self, slope, intercept, lo, hi, tag=None):
        self.slope = slope
        self.intercept = intercept
        self.lo = lo
        self.hi = hi
        self.tag = tag

    def value_at(self, gamma):
        b = self.intercept
        if _on_coordinate(b.group, gamma):
            return GroupElement(b.group, (_norm(self.slope * gamma.coords[0] + b.coords[0]),))
        return gamma.scale(self.slope) + b

    def __repr__(self):
        lo = "-oo" if self.lo is None else str(self.lo)
        hi = "+oo" if self.hi is None else str(self.hi)
        return f"[{lo},{hi}]: {self.slope}*g + {self.intercept}"


class PiecewiseLinear:
    """A continuous piecewise-linear function on the divisible closure."""

    __slots__ = ("group", "segments")

    def __init__(self, group, segments):
        if not segments:
            raise StructuralError("a piecewise-linear function needs a segment")
        self.group = group
        self.segments = list(segments)

    def eval(self, gamma):
        if _on_coordinate(self.group, gamma):
            g = gamma.coords[0]
            for seg in self.segments:
                if seg.hi is None or g <= seg.hi.coords[0]:
                    return GroupElement(self.group,
                                        (_norm(seg.slope * g + seg.intercept.coords[0]),))
        for seg in self.segments:
            if seg.hi is None or gamma <= seg.hi:
                return seg.value_at(gamma)

    def breakpoints(self):
        return [seg.hi for seg in self.segments[:-1]]

    def slopes_around(self, gamma):
        """Slopes immediately left and right of gamma."""
        left = next(s for s in self.segments if s.hi is None or gamma <= s.hi)
        right = next(s for s in self.segments if s.hi is None or gamma < s.hi)
        return left.slope, right.slope

    def is_continuous(self):
        for a, b in zip(self.segments, self.segments[1:]):
            if a.hi is None or b.lo is None or a.hi != b.lo:
                return False
            if a.value_at(a.hi) != b.value_at(b.lo):
                return False
        return True

    def merged(self):
        """Join adjacent pieces carrying the same affine map."""
        out = [self.segments[0]]
        for seg in self.segments[1:]:
            last = out[-1]
            if seg.slope == last.slope and seg.intercept == last.intercept:
                tag = last.tag if last.tag == seg.tag else None
                out[-1] = Segment(last.slope, last.intercept, last.lo, seg.hi, tag)
            else:
                out.append(seg)
        return PiecewiseLinear(self.group, out)

    def combine(self, other, op):
        """Segment-wise combination on the merged breakpoint partition."""
        cuts = sorted(set(self.breakpoints()) | set(other.breakpoints()))
        segs = []
        lo = None
        i = j = 0
        for k in range(len(cuts) + 1):
            hi = cuts[k] if k < len(cuts) else None
            while (lo is not None and self.segments[i].hi is not None
                   and self.segments[i].hi <= lo):
                i += 1
            while (lo is not None and other.segments[j].hi is not None
                   and other.segments[j].hi <= lo):
                j += 1
            a, b = self.segments[i], other.segments[j]
            segs.append(Segment(op(a.slope, b.slope), op(a.intercept, b.intercept),
                                lo, hi, (a.tag, b.tag)))
            lo = hi
        return PiecewiseLinear(self.group, segs)

    def __sub__(self, other):
        return self.combine(other, lambda x, y: x - y)

    def __add__(self, other):
        return self.combine(other, lambda x, y: x + y)

    def __eq__(self, other):
        if not isinstance(other, PiecewiseLinear):
            return NotImplemented
        diff = self.combine(other, lambda x, y: (x, y))
        return all(s.slope[0] == s.slope[1] and s.intercept[0] == s.intercept[1]
                   for s in diff.segments)

    def to_json(self):
        return {"segments": [
            {"slope": seg.slope,
             "intercept": seg.intercept.to_json(),
             "from": None if seg.lo is None else seg.lo.to_json(),
             "to": None if seg.hi is None else seg.hi.to_json()}
            for seg in self.segments]}

    def __repr__(self):
        return "PL{" + "; ".join(repr(s) for s in self.segments) + "}"


class Envelope(PiecewiseLinear):
    """The envelope of ``poly`` over ``V``; ``lines`` are its (i, v(a_i)), i falling."""

    __slots__ = ("poly", "V", "lines")

    def __init__(self, poly, V, lines, segments):
        super().__init__(V.group, segments)
        self.poly, self.V, self.lines = poly, V, lines


def minval_poly(f, V):
    """Lower envelope of the lines v(a_i) + i*gamma over the support of f."""
    if f.is_zero():
        raise StructuralError("minval of the zero polynomial")
    # decreasing slope: leftmost piece first
    lines = [(i, V.valuation(f.coeffs[i])) for i in reversed(f.support())]
    # entries (slope, intercept, n, k): the piece starts at coordinates n/k,
    # k > 0 (n None on the left end), and n/k > n0/k0 iff n*k0 > n0*k in lex;
    # over a rank-1 group n is the one coordinate itself
    G = V.group
    rank1 = G.rank == 1
    stack = []
    for m, b in lines:
        while stack:
            m0, b0, n0, k0 = stack[-1]
            k = m0 - m
            if rank1:
                n = b.coords[0] - b0.coords[0]
                later = n0 is None or n * k0 > n0 * k
            else:
                n = tuple(map(sub, b.coords, b0.coords))
                later = n0 is None or [c * k0 for c in n] > [c * k for c in n0]
            if later:
                stack.append((m, b, n, k))
                break
            stack.pop()
        else:
            stack.append((m, b, None, 1))
    ends = [G.element(Fraction(n, k)) if rank1 else G.element(*[Fraction(c, k) for c in n])
            for _, _, n, k in stack[1:]]
    segs = [Segment(m, b, lo, hi, tag=m)
            for (m, b, _, _), lo, hi in zip(stack, [None] + ends, ends + [None])]
    return Envelope(f, V, lines, segs)


class RatEnvelope(PiecewiseLinear):
    """The envelope of phi: ``num`` minus ``den``, the envelopes of phi's
    numerator and denominator, with equal adjacent pieces merged."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        super().__init__(num.group, (num - den).merged().segments)
        self.num, self.den = num, den


def minval_rat(phi, V):
    """Envelope of the numerator minus envelope of the denominator."""
    if phi.is_zero():
        raise StructuralError("minval of the zero function")
    return RatEnvelope(minval_poly(phi.num, V), minval_poly(phi.den, V))


def local_poly(env, t, vt):
    """The localized residue polynomial of the envelope's polynomial f at a
    nonzero t of value vt, a ``Polynomial`` in x over the residue field.

    With d the largest index attaining min_i v(a_i t^i), this is
    f(t x) / (a_d t^d) reduced modulo the maximal ideal: monic of degree d,
    and its coefficient at x^i is nonzero exactly when index i attains the
    minimum.  The minimum is over all of the envelope's lines, not its hull,
    and reads no valuation.  An attaining index i < d has the residue of
    a_i / (a_d t^(d-i)), of value 0: ac(a_i) / (ac(a_d) ac(t)^(d-i)) in
    angular components, in the residue field.  Every other one is 0.
    """
    if _on_coordinate(env.V.group, vt):
        g = vt.coords[0]
        vals = [(i, b.coords[0] + i * g) for i, b in env.lines]
    else:
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


def predict(env, a, va):
    """(predicted valuation of phi(a), exactness flag), read from phi's ``env``.

    The prediction is the envelope value at va = v(a).  It is exact when the
    residue 1 = res(a/a) is a root of neither local polynomial at t = a;
    v(phi(a)) can only exceed the envelope, never undercut it.
    """
    if not a:
        raise PreconditionError("predict needs a nonzero point")
    one = env.num.V.residue_field.one()
    exact = bool(local_poly(env.num, a, va).evaluate(one)
                 and local_poly(env.den, a, va).evaluate(one))
    return env.eval(va), exact


def slopes_check(env, t, vt):
    """Slopes of phi's ``env`` adjacent to vt = v(t), read off the local polynomials.

    Returns (c, c') where c governs the piece immediately left of vt and
    c' the piece immediately right: c is the difference of the top support
    indices, c' of the bottom support indices.
    """
    if not t:
        raise PreconditionError("slopes need phi and t nonzero")
    locf, locg = local_poly(env.num, t, vt), local_poly(env.den, t, vt)
    return locf.degree - locg.degree, locf.low_degree() - locg.low_degree()
