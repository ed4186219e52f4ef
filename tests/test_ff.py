import random
import time

import pytest
from hypothesis import given, strategies as st

from clgeom import ff
from clgeom.errors import DivisionByZero, NotPrime, OrderTooLarge
from clgeom.ff import factor_prime_power, ff_create, ff_extend


def test_factor_prime_power():
    assert factor_prime_power(2) == (2, 1)
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(343) == (7, 3)
    for bad in (0, 1, 6, 12, 100):
        with pytest.raises(NotPrime):
            factor_prime_power(bad)


def test_order_cap():
    with pytest.raises(OrderTooLarge):
        ff_create(2, 21)


def test_prime_field_is_mod_p():
    F = ff_create(7)
    for a in range(7):
        for b in range(7):
            assert F.add(a, b) == (a + b) % 7
            assert F.mul(a, b) == (a * b) % 7
    assert F.inv(3) == 5
    with pytest.raises(DivisionByZero):
        F.inv(0)


def test_gf4_structure():
    F = ff_create(2, 2)
    # canonical modulus t^2 + t + 1
    assert F.modulus == (1, 1, 1)
    t = 2  # code of the generator
    assert F.mul(t, t) == F.add(t, 1)  # t^2 = t + 1
    assert F.inv(t) == F.add(t, 1)
    # multiplicative group is cyclic of order 3
    assert F.pow(t, 3) == 1


def test_gf9_modulus_is_smallest():
    F = ff_create(3, 2)
    assert F.modulus == (1, 0, 1)  # t^2 + 1 is irreducible over GF(3)


@pytest.mark.parametrize("p,h,modulus", [
    (2, 2, (1, 1, 1)),
    (2, 3, (1, 1, 0, 1)),
    (2, 4, (1, 1, 0, 0, 1)),
    (3, 2, (1, 0, 1)),
    (3, 3, (1, 2, 0, 1)),
    (3, 4, (2, 1, 0, 0, 1)),
    (5, 2, (2, 0, 1)),
])
def test_smallest_moduli_pinned(p, h, modulus):
    assert ff_create(p, h).modulus == modulus


def test_extension_modulus_pinned():
    # GF(16) as GF(4)[t]/(t^2 + t + w), w the generator (code 2) of GF(4)
    assert ff_extend(ff_create(2, 2), 2).modulus == (2, 1, 1)


@pytest.mark.parametrize("p,h", [(2, 1), (2, 2), (3, 1), (3, 2), (2, 3), (5, 1)])
def test_field_axioms_exhaustive(p, h):
    F = ff_create(p, h)
    q = F.q
    elems = range(q)
    for a in elems:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
    # a few spot associativity/distributivity triples per field
    triples = [(1, 2 % q, (q - 1)), (q - 1, q - 1, 1), (2 % q, 3 % q, 5 % q)]
    for a, b, c in triples:
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
def test_gf9_commutative_distributive(a, b, c):
    F = ff_create(3, 2)
    assert F.add(a, b) == F.add(b, a)
    assert F.mul(a, b) == F.mul(b, a)
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_extension_agrees_with_direct_construction():
    base = ff_create(2)
    E = ff_extend(base, 2)
    D = ff_create(2, 2)
    for a in range(4):
        for b in range(4):
            assert E.mul(a, b) == D.mul(a, b)
            assert E.add(a, b) == D.add(a, b)


def test_extension_of_nonprime_base():
    base = ff_create(3, 2)  # GF(9)
    E = ff_extend(base, 2)  # GF(81)
    assert E.q == 81
    # multiplicative order of the generator divides 80
    t = base.q  # code of the extension generator
    assert E.pow(t, 80) == 1
    seen = set()
    x = 1
    for _ in range(80):
        seen.add(x)
        x = E.mul(x, t)
    assert len(seen) in (16, 40, 80) and 1 in seen


def test_to_vector_roundtrip():
    base = ff_create(2)
    E = ff_extend(base, 3)
    for a in range(8):
        v = E.to_vector(a)
        assert len(v) == 3
        assert E.from_vector(v) == a


def _poly_inv(F, a):
    """a^(q-2) by square-and-multiply on the polynomial product."""
    result, e = 1, F.q - 2
    while e:
        if e & 1:
            result = F._poly_mul(result, a)
        a = F._poly_mul(a, a)
        e >>= 1
    return result


# GF(p^h), extended by d when d > 1
@pytest.mark.parametrize("p,h,d", [
    (2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 4, 1), (5, 2, 1), (3, 3, 1),
    (2, 2, 2), (3, 2, 2), (2, 2, 3),
])
def test_tables_match_polynomial_reference(p, h, d):
    F = ff_create(p, h)
    if d > 1:
        F = ff_extend(F, d)
    assert F.tables is not None
    for a in range(F.q):
        for b in range(a, F.q):
            assert F.mul(a, b) == F.mul(b, a) == F._poly_mul(a, b)
        if a:
            assert F.inv(a) == _poly_inv(F, a)


@pytest.mark.parametrize("p,h", [(2, 9), (31, 2), (2, 10)])
def test_tables_match_polynomial_reference_sampled(p, h):
    F = ff_create(p, h)
    assert F.tables is not None
    q = F.q
    rng = random.Random(q)
    pairs = [(0, rng.randrange(q)), (rng.randrange(q), 0), (1, q - 1)]
    pairs += [(rng.randrange(q), rng.randrange(q)) for _ in range(500)]
    for a, b in pairs:
        assert F.mul(a, b) == F._poly_mul(a, b)
        if a:
            assert F.inv(a) == _poly_inv(F, a)


def test_tables_stop_above_table_max():
    F = ff_create(2, 11)
    assert F.tables is None
    a, b = 1234, 777
    assert F.mul(a, b) == F._poly_mul(a, b)
    assert F.mul(a, F.inv(a)) == 1


def test_table_build_is_cheap(monkeypatch):
    # both took seconds while a q x q product table was filled
    monkeypatch.setattr(ff, "_FIELDS", {})
    monkeypatch.setattr(ff, "_EXTENSIONS", {})
    start = time.perf_counter()
    ff_create(2, 9)
    assert time.perf_counter() - start < 0.5
    base = ff_create(2, 3)
    start = time.perf_counter()
    ff_extend(base, 3)
    assert time.perf_counter() - start < 0.5
