"""Ordered abelian value groups with exact rational coordinates.

A rank-k group element is a vector in Q^k compared lexicographically.  The
same representation serves the lattice Z^k and its divisible closure Q^k;
one flag tells them apart, and ``in_lattice`` tells whether an element lies
in the integral lattice.

A coordinate is a plain ``int`` when it is integral and a ``Fraction`` only
when it is not; this form is canonical (never a ``Fraction`` with denominator
1), so the integral lattices run on machine integers.  An ``int`` equals,
hashes and prints like the ``Fraction`` of the same value.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub

from .errors import StructuralError, UnsupportedCaseError


class GroupMismatchError(StructuralError):
    pass


def _norm(c):
    """Canonical form of an int or Fraction arithmetic result."""
    if type(c) is int or c.denominator != 1:
        return c
    return c.numerator


def _canon(c):
    """The canonical coordinate for any exact rational ``c``."""
    if type(c) is int:
        return c
    return _norm(c if type(c) is Fraction else Fraction(c))


def _normed(coords):
    """``coords`` (a tuple of arithmetic results) in canonical form."""
    for c in coords:
        if type(c) is not int and c.denominator == 1:
            return tuple(map(_norm, coords))
    return coords


class GroupSpec:
    """Z^rank, or Q^rank when ``divisible``, under lexicographic order.
    The attribute ``divisible`` repeats the flag once per coordinate, the
    form that ``perfbench/tracing.py`` reads."""

    __slots__ = ("rank", "divisible", "_zero")

    def __init__(self, rank, divisible=False):
        if rank < 1:
            raise StructuralError("group rank must be at least 1")
        self.rank = rank
        self.divisible = (bool(divisible),) * rank
        self._zero = GroupElement(self, (0,) * rank)

    @staticmethod
    def integers(rank=1):
        """Z^rank with lexicographic order."""
        return GroupSpec(rank)

    @staticmethod
    def rationals():
        """Q as a rank-1 divisible group."""
        return GroupSpec(1, True)

    def __eq__(self, other):
        return (isinstance(other, GroupSpec)
                and self.rank == other.rank
                and self.divisible == other.divisible)

    def __hash__(self):
        return hash((self.rank, self.divisible))

    def __repr__(self):
        if self.rank == 1:
            return "Q" if self.divisible[0] else "Z"
        core = "x".join("Q" if d else "Z" for d in self.divisible)
        return f"{core}(lex)"

    def element(self, *coords):
        if len(coords) != self.rank:
            raise GroupMismatchError(
                f"expected {self.rank} coordinates, got {len(coords)}")
        return GroupElement(self, tuple([_canon(c) for c in coords]))

    def zero(self):
        return self._zero


class GroupElement:
    """An element of a GroupSpec; immutable, totally ordered."""

    __slots__ = ("group", "coords")

    def __init__(self, group, coords):
        self.group = group
        self.coords = coords

    def _check(self, other):
        if type(other) is GroupElement and other.group is self.group:
            return
        if not isinstance(other, GroupElement):
            raise GroupMismatchError(f"not a group element: {other!r}")
        if other.group != self.group:
            raise GroupMismatchError("elements of different groups")

    def __add__(self, other):
        self._check(other)
        return GroupElement(
            self.group, _normed(tuple(map(add, self.coords, other.coords))))

    def __sub__(self, other):
        self._check(other)
        return GroupElement(
            self.group, _normed(tuple(map(sub, self.coords, other.coords))))

    def __neg__(self):
        return GroupElement(self.group, tuple([-a for a in self.coords]))

    def scale(self, q):
        """Multiply by an exact rational; the result may leave the lattice."""
        q = _canon(q)
        return GroupElement(self.group, _normed(tuple([a * q for a in self.coords])))

    def in_lattice(self):
        return all(d or type(c) is int
                   for c, d in zip(self.coords, self.group.divisible))

    def __eq__(self, other):
        if isinstance(other, _Infinity):
            return False
        if not isinstance(other, GroupElement) or (
                other.group is not self.group and other.group != self.group):
            return NotImplemented
        return self.coords == other.coords

    def __lt__(self, other):
        if isinstance(other, _Infinity):
            return True
        self._check(other)
        return self.coords < other.coords

    def __le__(self, other):
        if isinstance(other, _Infinity):
            return True
        self._check(other)
        return self.coords <= other.coords

    def __gt__(self, other):
        if isinstance(other, _Infinity):
            return False
        self._check(other)
        return self.coords > other.coords

    def __ge__(self, other):
        if isinstance(other, _Infinity):
            return False
        self._check(other)
        return self.coords >= other.coords

    def __hash__(self):
        return hash((self.group, self.coords))

    def __repr__(self):
        if self.group.rank == 1:
            return str(self.coords[0])
        return "(" + ", ".join(str(c) for c in self.coords) + ")"

    def to_json(self):
        return [str(c) for c in self.coords]


class _Infinity:
    """Valuation of zero: a single value above every group element."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __eq__(self, other):
        return isinstance(other, _Infinity)

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, _Infinity)

    def __gt__(self, other):
        return not isinstance(other, _Infinity)

    def __ge__(self, other):
        return True

    def __hash__(self):
        return hash("ivrf-infinity")

    def __repr__(self):
        return "oo"

    def to_json(self):
        return "oo"


INFINITY = _Infinity()


def element_from_json(group, data):
    return group.element(*[Fraction(s) for s in data])


def lattice_point_in_interval(group, lo, hi):
    """A lattice point strictly between lo and hi, or None.

    ``lo``/``hi`` are group elements or None for the unbounded ends.  Only
    rank-1 groups and the rank-2 integral lattice are supported, which covers
    every shipped field.
    """
    if group.rank == 1:
        return _rank1_point(group, lo, hi)
    if group.rank == 2 and group.divisible == (False, False):
        return _rank2_point(group, lo, hi)
    raise UnsupportedCaseError(f"lattice search not implemented for {group!r}")


def _rank1_point(group, lo, hi):
    if lo is None and hi is None:
        return group.zero()
    if group.divisible[0]:
        # Any rational in the interval will do.
        if lo is None:
            return group.element(hi.coords[0] - 1)
        if hi is None:
            return group.element(lo.coords[0] + 1)
        l, h = lo.coords[0], hi.coords[0]
        return group.element(Fraction(l + h, 2)) if l < h else None
    if lo is None:
        return group.element(_int_below(hi.coords[0]))
    n = _int_above(lo.coords[0])
    if hi is None or n < hi.coords[0]:
        return group.element(n)
    return None


def _int_above(q):
    """The least integer > q."""
    return q.numerator // q.denominator + 1


def _int_below(q):
    """The greatest integer < q."""
    return -((-q.numerator) // q.denominator) - 1


def _rank2_point(group, lo, hi):
    if lo is None and hi is None:
        return group.zero()
    if lo is None:
        return group.element(_int_below(hi.coords[0]), 0)
    if hi is None:
        return group.element(_int_above(lo.coords[0]), 0)
    l1, l2 = lo.coords
    h1, h2 = hi.coords
    # A first coordinate strictly between the endpoints frees the second.
    a = _int_above(l1)
    if a < h1:
        return group.element(a, 0)
    # Otherwise the candidates share a first coordinate with an endpoint.
    if l1.denominator == 1 and h1.denominator == 1 and l1 == h1:
        b = _int_above(l2)
        return group.element(l1, b) if b < h2 else None
    if l1.denominator == 1 and l1 < h1:
        # (l1, b) with b above l2; first coordinates differ so hi is no bar.
        return group.element(l1, _int_above(l2))
    if h1.denominator == 1 and l1 < h1:
        return group.element(h1, _int_below(h2))
    return None
