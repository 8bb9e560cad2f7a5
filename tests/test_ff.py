import random

import pytest

from ivrf.errors import ResourceError, StructuralError
from ivrf.ff import FiniteField, RatFuncField


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2),
                                 (5, 1), (7, 1), (2, 4), (2, 6)])
def test_frobenius_fixed_points(p, k):
    F = FiniteField(p, k)
    q = F.order
    for a in F.elements():
        assert a ** q == a


def test_gf4_structure():
    F4 = FiniteField(2, 2)
    u = F4.gen()
    assert u * u == u + 1
    assert u ** 3 == F4.one()
    assert (u / u) == F4.one()
    assert u + u == F4.zero()


def test_field_axioms_sampled():
    rng = random.Random(0)
    F = FiniteField(3, 2)
    for _ in range(200):
        a, b, c = (F.random(rng) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        if a != F.zero():
            assert a * (F.one() / a) == F.one()


def test_prime_field_mod_arithmetic():
    F5 = FiniteField(5)
    assert F5.from_int(7) == F5.from_int(2)
    assert F5.from_int(2) ** -1 == F5.from_int(3)
    assert F5.from_int(-1) == F5.from_int(4)


def test_table_cap():
    with pytest.raises(ResourceError):
        FiniteField(2, 7)  # GF(128) beyond the table cap


def test_division_by_zero():
    F = FiniteField(2, 2)
    with pytest.raises(StructuralError):
        F.one() / F.zero()


def test_pth_root_roundtrip():
    for p, k in [(2, 2), (3, 2), (2, 3)]:
        F = FiniteField(p, k)
        for a in F.elements():
            r = F.pth_root(a)
            assert r ** p == a


class TestRatFuncField:
    def setup_method(self):
        self.L = RatFuncField(FiniteField(2), "u")

    def test_gen_name_collision(self):
        with pytest.raises(StructuralError):
            RatFuncField(FiniteField(2, 2, gen_name="u"), "u")

    def test_arithmetic(self):
        u = self.L.gen()
        h = (u ** 2 + 1) / (u ** 3 + u)
        # (u+1)^2 / u(u+1)^2 = 1/u
        assert h == 1 / u

    def test_pth_root(self):
        u = self.L.gen()
        assert self.L.pth_root(u ** 2) == u
        assert self.L.pth_root(u) is None
        assert self.L.pth_root((u ** 2 + 1) / u ** 4) == (u + 1) / u ** 2

    def test_small_elements_distinct(self):
        seen = []
        for c in self.L.small_elements(max_degree=1):
            assert c not in seen
            seen.append(c)
        assert len(seen) > 4

    def test_symbol_env_parse(self):
        env = self.L.symbol_env()
        assert "u" in env


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (2, 6)])
def test_add_neg_tables_match_digit_arithmetic(p, k):
    F = FiniteField(p, k)
    for i in range(F.q):
        di = F._digits(i)
        assert F._neg_tab[i] == F._index([(-a) % p for a in di])
        for j in range(F.q):
            dj = F._digits(j)
            assert F._add_tab[i][j] == F._index([(a + b) % p for a, b in zip(di, dj)])
    a, b = F.gen(), F.gen() ** 2
    assert (a + b).idx == F._add_tab[a.idx][b.idx]
    assert (a - b).idx == F._add_tab[a.idx][F._neg_tab[b.idx]]
    assert (-a).idx == F._neg_tab[a.idx]
    assert a + 1 == 1 + a and a - 1 == -(1 - a)


def test_mixed_field_operations_raise():
    F4, F8 = FiniteField(2, 2), FiniteField(2, 3)
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
        with pytest.raises(StructuralError):
            op(F4.gen(), F8.gen())
