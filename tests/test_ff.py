import pytest
from hypothesis import given, strategies as st

from clgeom.errors import DivisionByZero, NotPrime, OrderTooLarge
from clgeom.ff import factor_prime_power, ff_create, ff_extend, field_for_order


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


def test_field_for_order():
    assert field_for_order(8).q == 8
    assert field_for_order(8) is ff_create(2, 3)
