"""Exact rational matrix algebra: rank, kernel, row-space membership.

No floating point anywhere.  Rank uses fraction-free (Bareiss) elimination
on integer-scaled rows; membership reduces against a cached integer echelon
basis of the row space, which is exactly the rank-augmentation test.  A
kernel-orthogonality route is available as an independent cross-check and
caches the kernel per matrix.

No module of the library imports this one.  ``clcore.is_cl`` decides CL
membership by the 2-design identity on the point table; these two routes
are its independent oracles in the tests, over the incidence matrix built
as rationals, which limits them to small geometries.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionMismatch


class RatMatrix:
    """Immutable matrix of exact rationals with lazy derived data."""

    def __init__(self, rows):
        self.rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise DimensionMismatch("ragged rows")
        self._echelon = None
        self._kernel = None
        self._rank = None

    @classmethod
    def from_numpy(cls, arr) -> "RatMatrix":
        return cls([[int(x) for x in row] for row in arr])

    def transpose(self) -> "RatMatrix":
        return RatMatrix(list(zip(*self.rows))) if self.rows else RatMatrix([])

    def int_rows(self):
        """Rows scaled to primitive integer vectors."""
        out = []
        for row in self.rows:
            m = lcm(*(x.denominator for x in row)) if row else 1
            ints = [int(x * m) for x in row]
            g = 0
            for v in ints:
                g = gcd(g, v)
            if g > 1:
                ints = [v // g for v in ints]
            out.append(ints)
        return out


def _int_scale(vec):
    """Scale a rational vector to a primitive integer vector."""
    vec = [Fraction(x) for x in vec]
    m = lcm(*(x.denominator for x in vec)) if vec else 1
    ints = [int(x * m) for x in vec]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def _echelon_reduce(v, basis):
    """Reduce integer vector v against an echelon basis {pivot: row}."""
    for pc in sorted(basis):
        f = v[pc]
        if f:
            row = basis[pc]
            p = row[pc]
            g = gcd(f, p)
            a, b = p // g, f // g
            v = [a * vi - b * ri for vi, ri in zip(v, row)]
    return v


def _make_primitive(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    if g > 1:
        v = [x // g for x in v]
    # fix sign so the pivot entry is positive
    for x in v:
        if x:
            if x < 0:
                v = [-y for y in v]
            break
    return v


def _build_echelon(int_rows):
    basis = {}
    for row in int_rows:
        v = _echelon_reduce(list(row), basis)
        for pc, x in enumerate(v):
            if x:
                basis[pc] = _make_primitive(v)
                break
    return basis


def _echelon_of(M: RatMatrix):
    if M._echelon is None:
        M._echelon = _build_echelon(M.int_rows())
    return M._echelon


def rank(M: RatMatrix) -> int:
    """Rank over the rationals via fraction-free Bareiss elimination."""
    if M._rank is None:
        m = [row[:] for row in M.int_rows()]
        nr, nc = len(m), (len(m[0]) if m else 0)
        r = 0
        prev = 1
        for c in range(nc):
            if r >= nr:
                break
            pr = None
            for i in range(r, nr):
                if m[i][c]:
                    pr = i
                    break
            if pr is None:
                continue
            m[r], m[pr] = m[pr], m[r]
            piv = m[r][c]
            for i in range(r + 1, nr):
                fi = m[i][c]
                mi, mr = m[i], m[r]
                for j in range(c, nc):
                    mi[j] = (mi[j] * piv - fi * mr[j]) // prev
            prev = piv
            r += 1
        M._rank = r
    return M._rank


def kernel_basis(M: RatMatrix):
    """Basis of the right null space; M @ v == 0 exactly for each v."""
    if M._kernel is None:
        # rational RREF
        m = [list(row) for row in M.rows]
        nr, nc = M.nrows, M.ncols
        pivots = []
        r = 0
        for c in range(nc):
            pr = None
            for i in range(r, nr):
                if m[i][c]:
                    pr = i
                    break
            if pr is None:
                continue
            m[r], m[pr] = m[pr], m[r]
            s = m[r][c]
            if s != 1:
                m[r] = [x / s for x in m[r]]
            for i in range(nr):
                if i != r and m[i][c]:
                    f = m[i][c]
                    mr = m[r]
                    m[i] = [m[i][j] - f * mr[j] for j in range(nc)]
            pivots.append(c)
            r += 1
            if r == nr:
                break
        pivset = set(pivots)
        free = [c for c in range(nc) if c not in pivset]
        basis = []
        for fc in free:
            v = [Fraction(0)] * nc
            v[fc] = Fraction(1)
            for ri, pc in enumerate(pivots):
                v[pc] = -m[ri][fc]
            basis.append(tuple(v))
        M._kernel = basis
    return M._kernel


def in_rowspace(M: RatMatrix, v, method: str = "rank") -> bool:
    """Row-space membership of v.

    method="rank": rank(M) == rank(M with v appended), realized as exact
    reduction against the cached echelon basis of M's row space.
    method="kernel": v is orthogonal to every kernel-basis vector of M.
    Both routes agree on every input.
    """
    if len(v) != M.ncols:
        raise DimensionMismatch(f"vector length {len(v)} != ncols {M.ncols}")
    if method == "rank":
        vi = _int_scale(v)
        red = _echelon_reduce(vi, _echelon_of(M))
        return not any(red)
    if method == "kernel":
        vf = [Fraction(x) for x in v]
        for kv in kernel_basis(M):
            s = Fraction(0)
            for a, b in zip(vf, kv):
                if a and b:
                    s += a * b
            if s:
                return False
        return True
    raise ValueError(f"unknown method {method!r}")
