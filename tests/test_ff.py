import hashlib
import random

import pytest

from ivrf.errors import ResourceError, StructuralError
from ivrf.ff import FiniteField, RatFuncField, polynomials, rf_pth_root
from ivrf.ratfun import RationalFunction


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2),
                                 (5, 1), (7, 1), (2, 4), (2, 6)])
def test_frobenius_fixed_points(p, k):
    F = FiniteField(p, k)
    q = F.q
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


@pytest.mark.parametrize("args,error", [
    ((4,), StructuralError),            # not prime
    ((2, 7), ResourceError),            # GF(128) beyond the table cap
    ((2, 0), StructuralError),          # no extension of degree 0
    ((2, 10 ** 12), ResourceError),     # 2^(10^12) is never built
    ((100000007,), ResourceError),      # prime beyond the prime cap
    ((1000000000000000003,), ResourceError),
])
def test_invalid_field_raises_every_time(args, error):
    # a failed construction leaves nothing half-built in the cache
    for _ in range(3):
        with pytest.raises(error):
            FiniteField(*args)


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (3, 1)])
def test_polynomials_enumeration(p, k):
    F = FiniteField(p, k)
    q = F.q
    for d in range(3):
        every = list(polynomials(F, d, var="w"))
        monic = list(polynomials(F, d, monic=True, var="w"))
        assert len(every) == q ** (d + 1)
        assert len(monic) == sum(q ** i for i in range(d + 1))
        assert every[0].is_zero() and not monic[0].is_zero()
        for polys in (every, monic):
            assert len({f.coeffs for f in polys}) == len(polys)
            assert all(f.var == "w" for f in polys)
            assert all(f.degree <= d for f in polys)
            degrees = [f.degree for f in polys]
            assert degrees == sorted(degrees)
        assert all(f.leading() == F.one() for f in monic)
    assert all(f.var == "x" for f in polynomials(F, 1))


def test_division_by_zero():
    F = FiniteField(2, 2)
    with pytest.raises(StructuralError):
        F.one() / F.zero()


def test_extension_field_elements_print_as_polynomials_in_the_generator():
    # every element of every table-backed GF(p^k), k > 1, under three
    # generator names: the digest pins each printed string
    h = hashlib.sha256()
    printed = 0
    for gen in ("u", "w", "a1"):
        for p, k in [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (5, 2), (7, 2)]:
            F = FiniteField(p, k, gen)
            for a in F.elements():
                h.update(f"{F.q}\t{gen}\t{a!r}\n".encode())
                printed += 1
    assert printed == 702
    assert h.hexdigest() == "411f70e5089e9d5480d63b745e5147ecfd93b6ca6bf449c9b492bdbd53043488"
    assert [repr(a) for a in FiniteField(3, 2, "a1").elements()] == [
        "0", "1", "2", "a1", "a1 + 1", "a1 + 2", "2*a1", "2*a1 + 1", "2*a1 + 2"]


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
        # the same path one level up, over GF(2)(u)(x)
        x = RationalFunction.gen(self.L)
        U = RationalFunction.constant(self.L, u)
        H = (1 + U * x) / (x ** 2 + U ** 3)
        assert rf_pth_root(H ** 2, 2) == H
        assert rf_pth_root(x ** 2 + U ** 2, 2) == x + U
        assert rf_pth_root(U * x ** 2, 2) is None   # u has no square root
        assert rf_pth_root(x ** 3, 2) is None       # odd exponent

    @pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2)])
    def test_pth_root_is_exact(self, p, k):
        # rf_pth_root returns N/D as canonical without raising it to the p-th
        # power: its roots must be exact, and canonical so that == holds
        L = RatFuncField(FiniteField(p, k, gen_name="a"), "u")
        rng = random.Random(p * 10 + k)
        for _ in range(30):
            h = L.random(rng, degree=rng.randint(0, 3))
            assert rf_pth_root(h ** p, p) == h
        found = 0
        for g in L.small_elements():
            root = rf_pth_root(g, p)
            if root is not None:
                assert root ** p == g
                found += 1
        assert found > 1

    def test_small_elements_distinct(self):
        seen = []
        for c in self.L.small_elements():
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


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (5, 1)])
def test_prime_field_elements_hash_like_ints(p, k):
    F = FiniteField(p, k)
    for n in range(p):
        assert F.from_int(n) == n and hash(F.from_int(n)) == hash(n)
        assert n in {F.from_int(n)}


def test_mixed_field_operations_raise():
    F4, F8 = FiniteField(2, 2), FiniteField(2, 3)
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
        with pytest.raises(StructuralError):
            op(F4.gen(), F8.gen())
