"""Ordered abelian value groups with exact rational coordinates.

A rank-k group element is a vector in Q^k compared lexicographically.  The
same representation serves the lattice Z^k and its divisible closure; a
per-coordinate flag records which coordinates are divisible, and
``in_lattice`` tells whether an element lies in the integral lattice.

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
    """Q^rank under lexicographic order, with lattice flags per coordinate."""

    __slots__ = ("rank", "divisible", "_zero")

    def __init__(self, rank, divisible=None):
        if rank < 1:
            raise StructuralError("group rank must be at least 1")
        if divisible is None:
            divisible = (False,) * rank
        divisible = tuple(bool(d) for d in divisible)
        if len(divisible) != rank:
            raise StructuralError("need one lattice flag per coordinate")
        self.rank = rank
        self.divisible = divisible
        self._zero = GroupElement(self, (0,) * rank)

    @staticmethod
    def integers(rank=1):
        """Z^rank with lexicographic order."""
        return GroupSpec(rank)

    @staticmethod
    def rationals():
        """Q as a rank-1 divisible group."""
        return GroupSpec(1, (True,))

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
        if len(coords) == 1 and isinstance(coords[0], (tuple, list)):
            coords = tuple(coords[0])
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

    def __mul__(self, q):
        return self.scale(q)

    __rmul__ = __mul__

    def in_lattice(self):
        return all(d or type(c) is int
                   for c, d in zip(self.coords, self.group.divisible))

    def is_zero(self):
        return all(c == 0 for c in self.coords)

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


def cmp(a, b):
    """Three-way lexicographic comparison: -1, 0 or 1."""
    if a < b:
        return -1
    if a == b:
        return 0
    return 1


def element_from_json(group, data):
    return group.element(*[Fraction(s) for s in data])


def lattice_point_in_interval(group, lo, hi, lo_open=True, hi_open=True):
    """A lattice point strictly (or weakly) between lo and hi, or None.

    ``lo``/``hi`` are group elements or None for the unbounded ends.  Only
    rank-1 groups and the rank-2 integral lattice are supported, which covers
    every shipped field.
    """
    if group.rank == 1:
        return _rank1_point(group, lo, hi, lo_open, hi_open)
    if group.rank == 2 and group.divisible == (False, False):
        return _rank2_point(group, lo, hi, lo_open, hi_open)
    raise UnsupportedCaseError(f"lattice search not implemented for {group!r}")


def _rank1_point(group, lo, hi, lo_open, hi_open):
    if group.divisible[0]:
        # Any rational in the interval will do.
        if lo is None and hi is None:
            return group.zero()
        if lo is None:
            h = hi.coords[0]
            return group.element(h - 1)
        if hi is None:
            return group.element(lo.coords[0] + 1)
        l, h = lo.coords[0], hi.coords[0]
        if l > h or (l == h and (lo_open or hi_open)):
            return None
        if l == h:
            return group.element(l)
        return group.element(Fraction(l + h, 2))
    if lo is None and hi is None:
        return group.zero()
    if lo is None:
        h = hi.coords[0]
        n = _int_below(h, hi_open)
        return group.element(n)
    if hi is None:
        n = _int_above(lo.coords[0], lo_open)
        return group.element(n)
    n = _int_above(lo.coords[0], lo_open)
    h = hi.coords[0]
    if n < h or (n == h and not hi_open):
        return group.element(n)
    return None


def _int_above(q, strict):
    """Least integer > q (strict) or >= q."""
    n = -((-q.numerator) // q.denominator)  # ceil
    if strict and n == q:
        n += 1
    return n


def _int_below(q, strict):
    n = q.numerator // q.denominator  # floor
    if strict and n == q:
        n -= 1
    return n


def _rank2_point(group, lo, hi, lo_open, hi_open):
    if lo is None and hi is None:
        return group.zero()
    if lo is None:
        h1 = hi.coords[0]
        return group.element(_int_below(h1, True) if h1.denominator == 1 else _int_below(h1, False), 0)
    if hi is None:
        l1 = lo.coords[0]
        return group.element(_int_above(l1, True) if l1.denominator == 1 else _int_above(l1, False), 0)
    l1, l2 = lo.coords
    h1, h2 = hi.coords
    # A first coordinate strictly between the endpoints frees the second.
    a = _int_above(l1, True)
    if a < h1:
        return group.element(a, 0)
    # Otherwise the candidates share a first coordinate with an endpoint.
    if l1.denominator == 1 and h1.denominator == 1 and l1 == h1:
        b = _int_above(l2, lo_open)
        if b < h2 or (b == h2 and not hi_open):
            return group.element(l1, b)
        return None
    if l1.denominator == 1:
        # (l1, b) with b above l2; first coordinates differ so hi is no bar.
        if l1 < h1:
            return group.element(l1, _int_above(l2, lo_open))
    if h1.denominator == 1:
        if l1 < h1:
            return group.element(h1, _int_below(h2, hi_open))
    return None
