"""Exact arithmetic in GF(q), q = p^h, and in towers of extensions.

``FieldCtx`` is the one field class (its docstring gives the element
codes): ``ff_create(p, h)`` is GF(p) extended by h, and ``ff_extend(F, d)``
is F extended by d.  The reducing modulus is always the lexicographically
smallest monic irreducible polynomial of the right degree (coefficient
tuples (c_{d-1}, ..., c_0) compared ascending), so every run constructs the
same field.  Up to order ``_TABLE_MAX`` a field multiplies and inverts
through log/exp tables, which ``geometry`` and ``clcore`` also read as
numpy arrays.

Polynomials are coefficient lists, constant term first, trailing zeros
stripped ([] is the zero polynomial).
"""

from __future__ import annotations

import numpy as np

from .errors import DivisionByZero, GuardViolated, NotPrime, OrderTooLarge

MAX_ORDER = 1 << 20

# log/exp tables are built up to this order; SUBSPACE_CAP keeps every
# geometry but PG(1,q) that forms products over GF(p^h), h > 1, at q <= 961
_TABLE_MAX = 1024


def factor_prime_power(q: int):
    """Return (p, h) with q = p**h, p prime.  Raises NotPrime otherwise."""
    if q < 2:
        raise NotPrime(f"{q} is not a prime power")
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        p = q
    h = 0
    m = q
    while m % p == 0:
        m //= p
        h += 1
    if m != 1:
        raise NotPrime(f"{q} is not a prime power")
    return p, h


# ---------------------------------------------------------------------------
# polynomial arithmetic over an abstract base field
# ---------------------------------------------------------------------------

def _ptrim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _psub(F, a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out.append(F.sub(x, y))
    return _ptrim(out)


def _pmul(F, a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] = F.add(out[i + j], F.mul(x, y))
    return _ptrim(out)


def _pmod(F, a, b):
    """Remainder of a modulo the nonzero polynomial b."""
    a = list(a)
    lead_inv = F.inv(b[-1])
    db = len(b) - 1
    while len(a) > db:
        shift = len(a) - 1 - db
        c = F.mul(a[-1], lead_inv)
        for i in range(len(b)):
            a[shift + i] = F.sub(a[shift + i], F.mul(c, b[i]))
        _ptrim(a)
    return a


def _pgcd(F, a, b):
    a, b = list(a), list(b)
    while b:
        a, b = b, _pmod(F, a, b)
    if a:
        li = F.inv(a[-1])
        a = [F.mul(li, c) for c in a]
    return a


def _ppowmod(F, a, e, m):
    result = [1]
    base = _pmod(F, a, m)
    while e:
        if e & 1:
            result = _pmod(F, _pmul(F, result, base), m)
        base = _pmod(F, _pmul(F, base, base), m)
        e >>= 1
    return result


def _is_irreducible(F, f, d):
    """Irreducibility of monic f of degree d over the field F, by Ben-Or's
    test.  x^(Q^j) - x is the product of the monic irreducibles of degree
    dividing j, and a reducible f has an irreducible factor of degree at
    most d/2, so f is irreducible exactly when gcd(x^(Q^j) - x, f) = 1 for
    j = 1 .. d/2."""
    x = [0, 1]
    power = x
    for _ in range(d // 2):
        power = _ppowmod(F, power, F.q, f)
        if len(_pgcd(F, _psub(F, power, x), f)) > 1:
            return False
    return True


def _smallest_irreducible(F, d):
    """Lexicographically smallest monic irreducible of degree d over F."""
    from itertools import product

    for coeffs in product(range(F.q), repeat=d):
        # coeffs = (c_{d-1}, ..., c_0), ascending order of these tuples
        poly = list(reversed(coeffs)) + [1]
        if _is_irreducible(F, poly, d):
            return tuple(poly)
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# the field class
# ---------------------------------------------------------------------------

class FieldCtx:
    """GF(Q^d) as the polynomials of degree < d over a base field GF(Q),
    reduced by ``modulus``; elements are integer codes in [0, Q^d).

    Code sum(c_i * Q**i) is the polynomial with coefficient codes
    (c_0, ..., c_{d-1}) of the base field (``to_vector``); code 0 is zero
    and code 1 is one.  GF(p) is its own base, with d = 1 and modulus x.
    Whatever the tower, a code is its own base-p digit vector over
    h = h_base * d digits, so addition is digitwise mod p and needs no
    base field.

    Immutable after construction; safe for concurrent reads.
    """

    def __init__(self, base: FieldCtx | int, d: int = 1):
        """GF(Q^d) over the field ``base``; an int ``base`` is a prime p,
        and then the field is GF(p) itself (d must be 1)."""
        self.tables = self._log = self._exp = None
        if isinstance(base, int):
            if factor_prime_power(base) != (base, 1):
                raise NotPrime(f"{base} is not prime")
            if d != 1:
                raise GuardViolated("GF(p) is its own base; extend it instead")
            if base > MAX_ORDER:
                raise OrderTooLarge(f"{base} exceeds maximum order {MAX_ORDER}")
            self.p = self.q = base
            self.h = self.d = 1
            self.base = self
            self.modulus = (0, 1)
            return
        if d < 1:
            raise GuardViolated("extension degree must be >= 1")
        if base.q ** d > MAX_ORDER:
            raise OrderTooLarge(f"{base.q}^{d} exceeds maximum order {MAX_ORDER}")
        self.p = base.p
        self.h = base.h * d
        self.q = base.q ** d
        self.base = base
        self.d = d
        self.modulus = _smallest_irreducible(base, d)
        if self.q <= _TABLE_MAX:
            self._build_tables()

    # -- coordinate map GF(Q^d) <-> GF(Q)^d --

    def to_vector(self, a: int):
        """Coefficient codes (c_0, ..., c_{d-1}) over the base field."""
        Q = self.base.q
        return tuple((a // Q ** i) % Q for i in range(self.d))

    def from_vector(self, vec) -> int:
        Q = self.base.q
        return sum(int(c) * Q ** i for i, c in enumerate(vec))

    # -- arithmetic --

    def add(self, a: int, b: int) -> int:
        if self.h == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        return self._digitwise(a, b, 1)

    def sub(self, a: int, b: int) -> int:
        if self.h == 1:
            return (a - b) % self.p
        if self.p == 2:
            return a ^ b
        return self._digitwise(a, b, -1)

    def neg(self, a: int) -> int:
        return self.sub(0, a)

    def sub_scaled(self, v, f: int, row) -> list:
        """v - f * row entry by entry, as a new list: the elimination step
        of ``geometry.rref`` and ``geometry.point_in_subspace``."""
        if self.h == 1:
            p = self.p
            return [(a - f * b) % p for a, b in zip(v, row)]
        mul, sub = self.mul, self.sub
        return [sub(a, mul(f, b)) for a, b in zip(v, row)]

    def mul(self, a: int, b: int) -> int:
        if self.h == 1:
            return (a * b) % self.p
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        return self._poly_mul(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of 0")
        if self.h == 1:
            return pow(a, self.p - 2, self.p)
        if self._exp is not None:
            return self._exp[self.q - 1 - self._log[a]]
        return self.pow(a, self.q - 2)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a = self.inv(a)
            e = -e
        result = 1
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    # -- internals --

    def _digitwise(self, a, b, sign):
        """a + sign * b, base-p digit by digit mod p: the route for odd p
        and h > 1, and the reference for the XOR route of p = 2."""
        p = self.p
        out = 0
        unit = 1
        for _ in range(self.h):
            out += (a + sign * b) % p * unit
            a //= p
            b //= p
            unit *= p
        return out

    def _poly_mul(self, a, b):
        """Product by polynomial multiplication mod the modulus: the
        reference the tables are built from."""
        B = self.base
        prod = _pmul(B, _ptrim(list(self.to_vector(a))),
                     _ptrim(list(self.to_vector(b))))
        return self.from_vector(_pmod(B, prod, list(self.modulus)))

    def _build_tables(self):
        """log/exp tables of the smallest primitive element g.

        exp[i] = g^i for i < 2(q-1), so exp[log a + log b] needs no
        reduction; log 0 = 2(q-1) points past that into zeros, so products
        with 0 need no branch.  ``tables`` holds the same two lists as
        int64 arrays for the numpy code in geometry and clcore, which
        multiply whole arrays of codes; addition needs no table."""
        q = self.q
        for g in range(2, q):
            powers = [1]
            x = g
            while x != 1:
                powers.append(x)
                x = self._poly_mul(x, g)
            if len(powers) == q - 1:
                break
        zero = 2 * (q - 1)
        self._exp = powers * 2 + [0] * (zero + 1)
        self._log = [zero] * q
        for i, x in enumerate(powers):
            self._log[x] = i
        self.tables = (np.array(self._log, dtype=np.int64),
                       np.array(self._exp, dtype=np.int64))

    def __repr__(self):
        if self.base.h == 1:
            return f"FieldCtx(GF({self.q}))"
        return f"FieldCtx(GF({self.base.q})^{self.d})"


_FIELDS: dict = {}


def ff_create(p: int, h: int = 1) -> FieldCtx:
    """Construct (and cache) the canonical GF(p^h): GF(p) extended by h."""
    key = (p, h)
    if key not in _FIELDS:
        _FIELDS[key] = FieldCtx(p) if h == 1 else FieldCtx(ff_create(p), h)
    return _FIELDS[key]


_EXTENSIONS: dict = {}


def ff_extend(ctx: FieldCtx, d: int) -> FieldCtx:
    """Degree-d extension of GF(q), with the GF(q)^d coordinate map."""
    if d < 2:
        raise GuardViolated("extension degree must be >= 2")
    key = (ctx, d)
    if key not in _EXTENSIONS:
        _EXTENSIONS[key] = FieldCtx(ctx, d)
    return _EXTENSIONS[key]
