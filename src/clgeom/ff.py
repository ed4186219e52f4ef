"""Exact arithmetic in GF(q) for prime powers q = p^h, plus extensions.

Elements are integer codes: the element with coefficient vector
(c_0, ..., c_{h-1}) over GF(p) has code sum(c_i * p**i).  Code 0 is the
additive identity, code 1 the multiplicative identity.  The reducing modulus
is always the lexicographically smallest monic irreducible polynomial of the
right degree (coefficient tuples (c_{h-1}, ..., c_0) compared ascending), so
every run constructs the same field.

Polynomials are coefficient lists, constant term first, trailing zeros
stripped ([] is the zero polynomial).
"""

from __future__ import annotations

from .errors import DivisionByZero, GuardViolated, NotPrime, OrderTooLarge

MAX_ORDER = 1 << 20

# Multiplication/inverse lookup tables are built below this order.
_TABLE_MAX = 512


def is_prime(n: int) -> bool:
    """Trial-division primality test; inputs here are desk-scale."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


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


def _padd(F, a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out.append(F.add(x, y))
    return _ptrim(out)


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


def _pdivmod(F, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    lead_inv = F.inv(b[-1])
    db = len(b) - 1
    quot = [0] * max(len(a) - db, 0)
    while len(a) - 1 >= db and a:
        shift = len(a) - 1 - db
        c = F.mul(a[-1], lead_inv)
        quot[shift] = c
        for i in range(len(b)):
            a[shift + i] = F.sub(a[shift + i], F.mul(c, b[i]))
        _ptrim(a)
    return _ptrim(quot), a


def _pmod(F, a, b):
    return _pdivmod(F, a, b)[1]


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
    """Irreducibility of monic f of degree d over the field F."""
    if d == 1:
        return True
    # Rabin's test: x^(Q^d) == x mod f and gcd(x^(Q^(d/r)) - x, f) trivial
    # for every prime r dividing d
    x = [0, 1]
    if _ppowmod(F, x, F.q ** d, f) != x:
        return False
    r = 2
    dd = d
    primes = set()
    while r * r <= dd:
        while dd % r == 0:
            primes.add(r)
            dd //= r
        r += 1
    if dd > 1:
        primes.add(dd)
    for r in primes:
        g = _psub(F, _ppowmod(F, x, F.q ** (d // r), f), x)
        if len(_pgcd(F, g, f)) > 1:
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


class _PrimeOps:
    """Arithmetic mod p on integer codes, used while bootstrapping a field."""

    def __init__(self, p):
        self.p = p
        self.q = p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of 0")
        return pow(a, self.p - 2, self.p)


# ---------------------------------------------------------------------------
# field contexts
# ---------------------------------------------------------------------------

class FieldCtx:
    """GF(p^h) with elements as integer codes in [0, q).

    Immutable after construction; safe for concurrent reads.
    """

    def __init__(self, p: int, h: int):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if h < 1:
            raise GuardViolated("extension degree must be >= 1")
        if p ** h > MAX_ORDER:
            raise OrderTooLarge(f"{p}^{h} exceeds maximum order {MAX_ORDER}")
        self.p = p
        self.h = h
        self.q = p ** h
        if h == 1:
            self.modulus = (0, 1)
        else:
            self.modulus = _smallest_irreducible(_PrimeOps(p), h)
        self._mul_table = None
        self._inv_table = None
        if h > 1 and self.q <= _TABLE_MAX:
            self._build_tables()

    # -- codecs --

    def decode(self, a: int):
        """Coefficient tuple (c_0, ..., c_{h-1}) of code a."""
        p = self.p
        return tuple((a // p ** i) % p for i in range(self.h))

    def encode(self, coeffs) -> int:
        p = self.p
        return sum(int(c) % p * p ** i for i, c in enumerate(coeffs))

    def elements(self):
        return range(self.q)

    # -- arithmetic --

    def add(self, a: int, b: int) -> int:
        if self.h == 1:
            return (a + b) % self.p
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.h):
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        if self.h == 1:
            return (a - b) % self.p
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.h):
            out += ((a - b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a: int) -> int:
        return self.sub(0, a)

    def mul(self, a: int, b: int) -> int:
        if self.h == 1:
            return (a * b) % self.p
        if self._mul_table is not None:
            return self._mul_table[a * self.q + b]
        return self._poly_mul(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of 0")
        if self.h == 1:
            return pow(a, self.p - 2, self.p)
        if self._inv_table is not None:
            return self._inv_table[a]
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

    def _poly_mul(self, a, b):
        ops = _PrimeOps(self.p)
        pa = _ptrim(list(self.decode(a)))
        pb = _ptrim(list(self.decode(b)))
        return self.encode(_pmod(ops, _pmul(ops, pa, pb), list(self.modulus))
                           + [0] * self.h)

    def _build_tables(self):
        q = self.q
        table = [0] * (q * q)
        for a in range(q):
            for b in range(a, q):
                v = self._poly_mul(a, b)
                table[a * q + b] = v
                table[b * q + a] = v
        self._mul_table = table
        inv = [0] * q
        for a in range(1, q):
            inv[a] = self.pow(a, q - 2)
        self._inv_table = inv

    def __repr__(self):
        return f"FieldCtx(GF({self.q}))"


_FIELDS: dict = {}


def ff_create(p: int, h: int = 1) -> FieldCtx:
    """Construct (and cache) the canonical GF(p^h)."""
    key = (p, h)
    if key not in _FIELDS:
        _FIELDS[key] = FieldCtx(p, h)
    return _FIELDS[key]


def field_for_order(q: int) -> FieldCtx:
    """GF(q) for a prime power q."""
    p, h = factor_prime_power(q)
    return ff_create(p, h)


class ExtFieldCtx:
    """GF(q^d) as a d-dimensional vector space over a base GF(q).

    Element codes are integers in [0, q^d); code sum(c_i * q**i) has
    coordinate vector (c_0, ..., c_{d-1}) of base-field codes.
    """

    def __init__(self, base: FieldCtx, d: int):
        if d < 2:
            raise GuardViolated("extension degree must be >= 2")
        if base.q ** d > MAX_ORDER:
            raise OrderTooLarge(f"{base.q}^{d} exceeds maximum order {MAX_ORDER}")
        self.base = base
        self.d = d
        self.q = base.q ** d
        self.modulus = _smallest_irreducible(base, d)
        self._mul_table = None
        self._inv_table = None
        if self.q <= _TABLE_MAX:
            self._build_tables()

    # -- coordinate map GF(q^d) <-> GF(q)^d --

    def to_vector(self, a: int):
        Q = self.base.q
        return tuple((a // Q ** i) % Q for i in range(self.d))

    def from_vector(self, vec) -> int:
        Q = self.base.q
        return sum(int(c) * Q ** i for i, c in enumerate(vec))

    def elements(self):
        return range(self.q)

    # -- arithmetic --

    def add(self, a: int, b: int) -> int:
        B = self.base
        Q = B.q
        out = 0
        mult = 1
        for _ in range(self.d):
            out += B.add(a % Q, b % Q) * mult
            a //= Q
            b //= Q
            mult *= Q
        return out

    def sub(self, a: int, b: int) -> int:
        B = self.base
        Q = B.q
        out = 0
        mult = 1
        for _ in range(self.d):
            out += B.sub(a % Q, b % Q) * mult
            a //= Q
            b //= Q
            mult *= Q
        return out

    def neg(self, a: int) -> int:
        return self.sub(0, a)

    def mul(self, a: int, b: int) -> int:
        if self._mul_table is not None:
            return self._mul_table[a * self.q + b]
        return self._poly_mul(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of 0")
        if self._inv_table is not None:
            return self._inv_table[a]
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

    def _poly_mul(self, a, b):
        B = self.base
        pa = _ptrim(list(self.to_vector(a)))
        pb = _ptrim(list(self.to_vector(b)))
        red = _pmod(B, _pmul(B, pa, pb), list(self.modulus))
        return self.from_vector(red + [0] * (self.d - len(red)))

    def _build_tables(self):
        q = self.q
        table = [0] * (q * q)
        for a in range(q):
            for b in range(a, q):
                v = self._poly_mul(a, b)
                table[a * q + b] = v
                table[b * q + a] = v
        self._mul_table = table
        inv = [0] * q
        for a in range(1, q):
            inv[a] = self.pow(a, q - 2)
        self._inv_table = inv

    def __repr__(self):
        return f"ExtFieldCtx(GF({self.base.q}^{self.d}))"


_EXTENSIONS: dict = {}


def ff_extend(ctx: FieldCtx, d: int) -> ExtFieldCtx:
    """Degree-d extension of GF(q), with the GF(q)^d coordinate map."""
    key = (ctx.p, ctx.h, d)
    if key not in _EXTENSIONS:
        _EXTENSIONS[key] = ExtFieldCtx(ctx, d)
    return _EXTENSIONS[key]
