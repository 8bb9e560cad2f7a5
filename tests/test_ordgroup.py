from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from ivrf.ordgroup import (GroupMismatchError, GroupSpec, INFINITY,
                           element_from_json, lattice_point_in_interval)

Z = GroupSpec.integers()
Z2 = GroupSpec.integers(2)
Q = GroupSpec.rationals()

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def el(*cs):
    return Z2.element(*cs) if len(cs) == 2 else Z.element(*cs)


def test_addition_examples():
    assert Z.element(1) + Z.element(2) == Z.element(3)
    assert Z2.element(0, 0) + Z2.element(3, -7) == Z2.element(3, -7)
    assert Z2.element(1, -3) + Z2.element(0, 5) == Z2.element(1, 2)


def test_scale_examples():
    assert Z.element(2).scale(Fraction(1, 2)) == Z.element(1)
    assert Z.element(2).scale(Fraction(1, 2)).in_lattice()
    half = Z.element(1).scale(Fraction(1, 2))
    assert not half.in_lattice()
    assert Z2.element(3, -2).scale(Fraction(1, 3)) == Z2.element(1, Fraction(-2, 3))


def test_cmp_examples():
    assert Z2.element(1, 0) > Z2.element(0, 100)
    assert Z.element(Fraction(1, 2)) < Z.element(1)
    g = Z.element(7)
    assert g == g


def test_group_mismatch():
    with pytest.raises(GroupMismatchError):
        Z.element(1) + Z2.element(1, 0)
    with pytest.raises(GroupMismatchError):
        Z.element(1) < Q.element(1)


def test_infinity_ordering():
    assert INFINITY > Z.element(10 ** 9)
    assert Z.element(-5) < INFINITY
    assert INFINITY == INFINITY
    assert not INFINITY < INFINITY
    assert INFINITY >= INFINITY


def test_json_round_trip():
    g = Z2.element(Fraction(1, 2), -3)
    assert element_from_json(Z2, g.to_json()) == g


@given(rationals, rationals, rationals)
def test_translation_invariance(a, b, c):
    x, y, z = Z.element(a), Z.element(b), Z.element(c)
    assert (x < y, x == y, x > y) == (x + z < y + z, x + z == y + z, x + z > y + z)


@given(rationals, rationals, rationals, rationals)
def test_translation_invariance_rank2(a, b, c, d):
    x, y = Z2.element(a, b), Z2.element(c, d)
    z = Z2.element(d, a)
    assert (x < y, x == y, x > y) == (x + z < y + z, x + z == y + z, x + z > y + z)


@given(rationals, st.fractions(min_value=-6, max_value=6, max_denominator=6),
       st.fractions(min_value=-6, max_value=6, max_denominator=6))
def test_scale_composition(a, p, q):
    x = Z.element(a)
    assert x.scale(p).scale(q) == x.scale(p * q)


@given(rationals, rationals, rationals)
def test_total_order(a, b, c):
    xs = [Z.element(a), Z.element(b), Z.element(c)]
    x, y, z = xs
    assert sum(1 for f in (x < y, x == y, x > y) if f) == 1
    if x <= y and y <= z:
        assert x <= z
    if x <= y and y <= x:
        assert x == y


class TestLatticeSearch:
    def test_empty_rank1(self):
        assert lattice_point_in_interval(
            Z, Z.element(Fraction(1, 3)), Z.element(Fraction(2, 3))) is None

    def test_rank1_hit(self):
        p = lattice_point_in_interval(
            Z, Z.element(Fraction(1, 2)), Z.element(Fraction(5, 2)))
        assert p is not None and p.in_lattice()
        assert Z.element(Fraction(1, 2)) < p < Z.element(Fraction(5, 2))

    def test_unbounded(self):
        p = lattice_point_in_interval(Z, Z.element(3), None)
        assert p > Z.element(3) and p.in_lattice()
        p = lattice_point_in_interval(Z, None, Z.element(-7))
        assert p < Z.element(-7) and p.in_lattice()

    def test_rank2_empty_between_consecutive(self):
        assert lattice_point_in_interval(
            Z2, Z2.element(0, 0), Z2.element(0, 1)) is None

    def test_rank2_hit(self):
        lo, hi = Z2.element(0, 0), Z2.element(1, 0)
        p = lattice_point_in_interval(Z2, lo, hi)
        assert p is not None and lo < p < hi and p.in_lattice()

    def test_rank2_fractional_first_coordinate(self):
        lo = Z2.element(Fraction(1, 2), 0)
        hi = Z2.element(Fraction(3, 4), 0)
        assert lattice_point_in_interval(Z2, lo, hi) is None

    def test_divisible_always_finds(self):
        p = lattice_point_in_interval(
            Q, Q.element(Fraction(1, 3)), Q.element(Fraction(2, 3)))
        assert p is not None
        assert Q.element(Fraction(1, 3)) < p < Q.element(Fraction(2, 3))

    def test_closed_endpoints(self):
        from ivrf.intr import _Region
        r = _Region(Z.element(2), False, Z.element(2), False)
        assert r.lattice_point(Z) == Z.element(2)


def _lattice_grid(group):
    """Lattice points with coordinates in [-4, 4], of step 1/12 in a
    divisible coordinate: strictly between two endpoints of coordinates in
    [-2, 2] with denominators 1, 2 or 3 it holds a lattice point whenever
    the group has one there."""
    lines = [[Fraction(k, 12) for k in range(-48, 49)] if d else range(-4, 5)
             for d in group.divisible]
    return [group.element(*c) for c in product(*lines)]


@pytest.mark.parametrize("group, coords", [
    (Z, [Fraction(n, d) for d in (1, 2, 3) for n in range(-2 * d, 2 * d + 1)]),
    (Q, [Fraction(n, d) for d in (1, 2, 3) for n in range(-2 * d, 2 * d + 1)]),
    (Z2, [Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 3), Fraction(1)]),
], ids=["Z", "Q", "Z2"])
def test_lattice_search_matches_a_grid(group, coords):
    # every pair of endpoints, each bounded or not: the point found lies
    # strictly inside and in the lattice, and it is None exactly when the
    # grid has no such point
    grid = _lattice_grid(group)
    ends = [None] + [group.element(*c) for c in product(coords, repeat=group.rank)]
    for lo, hi in product(ends, repeat=2):
        p = lattice_point_in_interval(group, lo, hi)
        inside = [g for g in grid if (lo is None or lo < g) and (hi is None or g < hi)]
        assert (p is None) == (not inside), (lo, hi, p)
        if p is not None:
            assert p.in_lattice() and (lo is None or lo < p) and (hi is None or p < hi)


class TestRepresentation:
    """Integral coordinates are ints; others are Fractions."""

    def test_integral_results_are_int(self):
        half = Z.element(Fraction(1, 2))
        results = [Z.element(3), Z.element(Fraction(6, 2)), Z.zero(), Z2.zero(),
                   Z.element(3) + Z.element(4), Z2.element(1, 2) - Z2.element(3, 5),
                   -Z.element(3), Z.element(3).scale(2), Z.element(3).scale(Fraction(2)),
                   half + half, half - Z.element(Fraction(-1, 2)), half.scale(4),
                   Z.element(6).scale(Fraction(1, 3)), Q.element(Fraction(4, 2))]
        for g in results:
            assert all(type(c) is int for c in g.coords), g.coords

    def test_non_integral_results_are_fraction(self):
        g = Z.element(1).scale(Fraction(1, 2))
        assert g.coords == (Fraction(1, 2),) and type(g.coords[0]) is Fraction
        assert type((g + Z.element(1)).coords[0]) is Fraction

    def test_int_and_fraction_inputs_agree(self):
        a, b = Z.element(3), Z.element(Fraction(3))
        assert a == b
        assert hash(a) == hash(b)
        assert repr(a) == repr(b) == "3"
        assert a.to_json() == b.to_json() == ["3"]
        assert repr(Z2.element(Fraction(2), Fraction(1, 2))) == "(2, 1/2)"

    def test_rational_midpoint_is_exact(self):
        p = lattice_point_in_interval(Q, Q.element(1), Q.element(2))
        assert p == Q.element(Fraction(3, 2))
        assert type(p.coords[0]) is Fraction
        p = lattice_point_in_interval(Q, Q.element(1), Q.element(3))
        assert p == Q.element(2) and type(p.coords[0]) is int

    def test_equal_groups_built_apart_still_combine(self):
        other_z = GroupSpec.integers()
        assert other_z is not Z
        assert Z.element(1) + other_z.element(2) == Z.element(3)

    def test_different_groups_still_raise(self):
        for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a < b,
                   lambda a, b: a >= b):
            with pytest.raises(GroupMismatchError):
                op(Z.element(1), Q.element(1))
            with pytest.raises(GroupMismatchError):
                op(Z2.element(1, 0), Z.element(1))
        with pytest.raises(GroupMismatchError):
            Z.element(1) + 1
        assert Z.element(1) != Q.element(1)
