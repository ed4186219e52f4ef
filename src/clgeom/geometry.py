"""Finite projective and affine geometries PG(n,q) / AG(n,q).

Points are coordinate tuples of field-element codes, normalized so the
leftmost nonzero entry is 1, ordered lexicographically.  Subspaces are
canonical reduced-row-echelon matrices, so structural equality is subspace
equality.  AG(n,q) is realized inside its projective closure with the
hyperplane at infinity fixed at X0 = 0: affine points are the projective
points with X0 = 1, affine k-spaces the projective k-spaces not contained
in X0 = 0.

Enumerations are kept in memory and nothing is stored on disk.  The one
form of incidence is the point table (``Geometry.point_table``), built in
numpy from the RREF matrices (over GF(p^h), h > 1, through the field's
log/exp tables); ``Geometry.points_of`` gives the points of any other
subspace by the same lookup.  The dense incidence matrix and the point
bitmasks are views derived from the table on request.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidRange,
    NotContaining,
    NotDivisible,
    NotSkew,
    TooManySubspaces,
)
from .ff import FieldCtx, factor_prime_power, ff_create, ff_extend

SUBSPACE_CAP = 10 ** 6

# entries of one numpy chunk in the point table and mask builders; small
# chunks keep the temporaries in cache and the peak memory flat
_CHUNK = 1 << 14


# ---------------------------------------------------------------------------
# Gaussian binomials
# ---------------------------------------------------------------------------

def gauss_binom(n: int, k: int, q: int) -> int:
    """Number of (k-1)-spaces of PG(n-1,q); exact integer arithmetic."""
    if k < 0 or k > n:
        raise InvalidRange(f"gauss_binom({n},{k}) requires 0 <= k <= n")
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    assert num % den == 0
    return num // den


def gauss0(n: int, k: int, q: int) -> int:
    """gauss_binom with the out-of-range-is-zero convention (formula use)."""
    if k < 0 or k > n or n < 0:
        return 0
    return gauss_binom(n, k, q)


def projective_point_count(n: int, q: int) -> int:
    return (q ** (n + 1) - 1) // (q - 1)


# ---------------------------------------------------------------------------
# subspaces: canonical RREF matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Subspace:
    """A subspace of PG(n,q) as its unique RREF matrix (rows = basis)."""

    mat: tuple
    pivots: tuple
    ncols: int

    @property
    def k(self) -> int:
        """Projective dimension; -1 for the empty subspace."""
        return len(self.mat) - 1

    def __repr__(self):
        return f"Subspace(k={self.k}, mat={self.mat})"


def rref(rows, field: FieldCtx):
    """Reduced row echelon form over GF(q); returns (rows, pivots)."""
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if m else 0
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
        s = field.inv(m[r][c])
        if s != 1:
            m[r] = [field.mul(s, v) for v in m[r]]
        for i in range(nr):
            if i != r and m[i][c]:
                f = m[i][c]
                mr = m[r]
                m[i] = [field.sub(m[i][j], field.mul(f, mr[j])) for j in range(nc)]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return tuple(tuple(row) for row in m[:r]), tuple(pivots)


def make_subspace(rows, field: FieldCtx, ncols: int | None = None) -> Subspace:
    rows = list(rows)
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for the empty subspace")
        ncols = len(rows[0])
    mat, pivots = rref(rows, field)
    return Subspace(mat, pivots, ncols)


def point_in_subspace(field: FieldCtx, coords, sub: Subspace) -> bool:
    """Row-space membership of a coordinate vector."""
    if len(coords) != sub.ncols:
        raise DimensionMismatch("coordinate length != ambient dimension")
    v = list(coords)
    for row, c in zip(sub.mat, sub.pivots):
        f = v[c]
        if f:
            v = [field.sub(v[j], field.mul(f, row[j])) for j in range(len(v))]
    return not any(v)


def subspace_contains(field: FieldCtx, outer: Subspace, inner: Subspace) -> bool:
    return all(point_in_subspace(field, row, outer) for row in inner.mat)


def span(field: FieldCtx, a: Subspace, b: Subspace) -> Subspace:
    if a.ncols != b.ncols:
        raise DimensionMismatch("span of subspaces from different spaces")
    return make_subspace(list(a.mat) + list(b.mat), field, a.ncols)


def meet(field: FieldCtx, a: Subspace, b: Subspace) -> Subspace:
    """Intersection of row spaces (Zassenhaus); empty meet has k = -1."""
    if a.ncols != b.ncols:
        raise DimensionMismatch("meet of subspaces from different spaces")
    nc = a.ncols
    zero = (0,) * nc
    rows = [tuple(r) + tuple(r) for r in a.mat] + [tuple(r) + zero for r in b.mat]
    red, _ = rref(rows, field)
    inter = [r[nc:] for r in red if not any(r[:nc])]
    return make_subspace(inter, field, nc)


def _normalized_vectors(q: int, length: int):
    """All vectors with leftmost nonzero entry 1, sorted lexicographically."""
    vecs = []
    for lead in range(length):
        prefix = (0,) * lead + (1,)
        for tail in product(range(q), repeat=length - lead - 1):
            vecs.append(prefix + tail)
    vecs.sort()
    return vecs


# ---------------------------------------------------------------------------
# numpy field arithmetic for the point table
# ---------------------------------------------------------------------------

def _combine(field: FieldCtx, coeffs: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """c.M for every row c of coeffs (theta x r) and every block M of mats
    (B x r x ncols), as a B x theta x ncols array of field codes."""
    if field.h == 1:
        return np.matmul(coeffs, mats) % field.p
    # SUBSPACE_CAP keeps q <= 961 here (0 < k < n), within the tables
    assert field.tables is not None
    log, exp = field.tables
    p = field.p
    out = np.zeros((len(mats), len(coeffs), mats.shape[2]), dtype=np.int64)
    for i in range(coeffs.shape[1]):
        c = coeffs[None, :, i, None]
        m = mats[:, None, i, :]
        prod = exp[log[c] + log[m]]
        # addition adds the base-p digits of the codes mod p
        total, unit = 0, 1
        for _ in range(field.h):
            total = total + (out // unit + prod // unit) % p * unit
            unit *= p
        out = total
    return out


# ---------------------------------------------------------------------------
# geometries
# ---------------------------------------------------------------------------

class Geometry:
    """Enumerated PG(n,q) or AG(n,q) with in-memory point tables.

    Immutable after construction; all enumerations are lazy and cached.
    """

    def __init__(self, kind: str, n: int, field: FieldCtx):
        if kind not in ("PG", "AG"):
            raise ValueError(f"kind must be PG or AG, got {kind!r}")
        if n < 1:
            raise ValueError("dimension must be >= 1")
        # codes, Geometry.key and the caches keyed by it assume the
        # canonical field; a tower such as GF(4)^2 has GF(16)'s p and h
        if field is not ff_create(field.p, field.h):
            raise ValueError(f"{field!r} is not the canonical GF({field.q})")
        self.kind = kind
        self.n = n
        self.field = field
        self.q = field.q
        self._points = None
        self._point_index = None
        self._subspaces = {}
        self._subspace_index = {}
        self._codes = None
        self._tables = {}
        self._masks = {}

    @property
    def key(self):
        return (self.kind, self.field.p, self.field.h, self.n)

    def __repr__(self):
        return f"Geometry({self.kind}({self.n},{self.q}))"

    def closure(self) -> "Geometry":
        """The projective closure; self for PG geometries."""
        if self.kind == "PG":
            return self
        return geometry("PG", self.n, self.q)

    # -- points --

    @property
    def points(self):
        """Lexicographically sorted normalized coordinate tuples.

        Points are the 0-spaces, so SUBSPACE_CAP bounds them too."""
        if self._points is None:
            self._capped_count(0)
            if self.kind == "PG":
                self._points = _normalized_vectors(self.q, self.n + 1)
            else:
                # the closure's points with X0 = 1, in the same order
                self._points = [(1,) + t
                                for t in product(range(self.q), repeat=self.n)]
        return self._points

    @property
    def point_index(self):
        if self._point_index is None:
            self._point_index = {p: i for i, p in enumerate(self.points)}
        return self._point_index

    @property
    def num_points(self) -> int:
        if self.kind == "PG":
            return projective_point_count(self.n, self.q)
        return self.q ** self.n

    def infinite_points(self):
        """For AG: the points of the hyperplane X0 = 0 in the closure."""
        if self.kind != "AG":
            raise ValueError("infinite_points is an AG notion")
        return [p for p in self.closure().points if p[0] == 0]

    # -- subspaces --

    def subspace_count(self, k: int) -> int:
        if k < 0 or k > self.n:
            raise InvalidRange(f"k={k} out of range for n={self.n}")
        if self.kind == "PG":
            return gauss_binom(self.n + 1, k + 1, self.q)
        return self.q ** (self.n - k) * gauss_binom(self.n, k, self.q)

    def _capped_count(self, k: int) -> int:
        """subspace_count(k), refused above SUBSPACE_CAP.

        PG(n,q) and AG(n,q) both have at least q^e k-spaces, e = (k+1)(n-k),
        and q^e > SUBSPACE_CAP once e reaches the cap's bit length, so a huge
        geometry is refused before any power of q is built."""
        e = (k + 1) * (self.n - k)
        if e >= SUBSPACE_CAP.bit_length():
            raise TooManySubspaces(f"at least {self.q}^{e}", SUBSPACE_CAP)
        count = self.subspace_count(k)
        if count > SUBSPACE_CAP:
            raise TooManySubspaces(count, SUBSPACE_CAP)
        return count

    def subspaces(self, k: int):
        """Ordered tuple of all k-spaces (lexicographic canonical matrices)."""
        if k not in self._subspaces:
            count = self._capped_count(k)
            if self.kind == "AG":
                full = self.closure().subspaces(k)
                subs = tuple(s for s in full if any(row[0] for row in s.mat))
            else:
                subs = tuple(self._enumerate_pg(k))
            assert len(subs) == count
            self._subspaces[k] = subs
        return self._subspaces[k]

    def _enumerate_pg(self, k: int):
        n1 = self.n + 1
        r = k + 1
        q = self.q
        mats = []
        for pivots in combinations(range(n1), r):
            pivset = set(pivots)
            free = []  # (row, col) positions of free entries
            for i in range(r):
                for c in range(pivots[i] + 1, n1):
                    if c not in pivset:
                        free.append((i, c))
            base = [[0] * n1 for _ in range(r)]
            for i, c in enumerate(pivots):
                base[i][c] = 1
            for assignment in product(range(q), repeat=len(free)):
                mat = [row[:] for row in base]
                for (i, c), v in zip(free, assignment):
                    mat[i][c] = v
                mats.append(tuple(map(tuple, mat)))
        mats.sort()
        pivcache = {}
        out = []
        for m in mats:
            pv = tuple(next(c for c in range(n1) if row[c]) for row in m)
            out.append(Subspace(m, pivcache.setdefault(pv, pv), n1))
        return out

    def subspace_index(self, k: int):
        if k not in self._subspace_index:
            self._subspace_index[k] = {s.mat: i for i, s in enumerate(self.subspaces(k))}
        return self._subspace_index[k]

    # -- incidence --

    def _locate(self, mats: np.ndarray):
        """Point indices of a stack of RREF matrices (B x r x ncols) with
        r rows each, as a B x theta array of positions among the points and
        a mask of the hits; in AG the misses are the points at infinity.

        Every point of an RREF matrix M is c.M for a normalized coefficient
        vector c, and c.M is already normalized (its leading entry sits in a
        pivot column of M, where M has an identity column).  The products are
        computed in numpy, encoded as base-q integers and looked up among the
        points' codes.  c -> c.M keeps the lexicographic order (c reappears
        in M's pivot columns, and the columns before a pivot depend only on
        earlier entries of c), so each row's positions come out ascending."""
        q, n1 = self.q, self.n + 1
        weights = q ** np.arange(n1 - 1, -1, -1, dtype=np.int64)
        if self._codes is None:
            # lexicographic order of the points is the order of their codes
            self._codes = np.array(self.points, dtype=np.int64) @ weights
        codes = self._codes
        r = mats.shape[1]
        # for r = 1 the single row is the point itself
        vecs = mats if r == 1 else _combine(
            self.field, np.array(_normalized_vectors(q, r), dtype=np.int64), mats)
        keys = vecs @ weights
        pos = np.minimum(np.searchsorted(codes, keys), len(codes) - 1)
        return pos, codes[pos] == keys

    def point_table(self, k: int) -> np.ndarray:
        """N x theta int64 array whose row j lists, ascending, the indices of
        the points on k-space j: the one stored form of the incidence, from
        which every checker and transform reads."""
        if k not in self._tables:
            subs = self.subspaces(k)
            if k == self.n:
                table = np.arange(len(self.points))[None, :]
            else:
                theta = (gauss_binom(k + 1, 1, self.q) if self.kind == "PG"
                         else self.q ** k)
                table = np.empty((len(subs), theta), dtype=np.int64)
                step = max(1, _CHUNK // (theta * (self.n + 1)))
                for lo in range(0, len(subs), step):
                    mats = np.array([s.mat for s in subs[lo:lo + step]],
                                    dtype=np.int64)
                    pos, hit = self._locate(mats)
                    assert (hit.sum(axis=1) == theta).all()
                    table[lo:lo + len(mats)] = pos[hit].reshape(len(mats),
                                                                theta)
            table.setflags(write=False)
            self._tables[k] = table
        return self._tables[k]

    def points_of(self, sub: Subspace) -> np.ndarray:
        """Ascending indices of this geometry's points that lie in an
        arbitrary subspace (given in the closure's coordinates for AG)."""
        if sub.k < 0:
            return np.empty(0, dtype=np.int64)
        if sub.k == self.n:
            return np.arange(len(self.points))
        pos, hit = self._locate(np.array([sub.mat], dtype=np.int64))
        return pos[hit]

    def incidence(self, k: int) -> np.ndarray:
        """0/1 point-(k-space) incidence matrix (P_n for PG, A_n for AG),
        scattered from the point table into a fresh array on every call."""
        table = self.point_table(k)
        inc = np.zeros((self.num_points, len(table)), dtype=np.uint8)
        inc[table, np.arange(len(table))[:, None]] = 1
        return inc

    def point_masks(self, k: int):
        """Per k-space bitmask of incident point indices (bit i = point i),
        packed from the point table.  A derived view only: no library route
        reads it; the checkers and transforms work on the table."""
        if k not in self._masks:
            table = self.point_table(k)
            v = self.num_points
            masks = []
            step = max(1, 8 * _CHUNK // v)
            for lo in range(0, len(table), step):
                rows = table[lo:lo + step]
                dense = np.zeros((len(rows), v), dtype=np.uint8)
                dense[np.arange(len(rows))[:, None], rows] = 1
                packed = np.packbits(dense, axis=1, bitorder="little")
                masks.extend(int.from_bytes(r.tobytes(), "little") for r in packed)
            self._masks[k] = masks
        return self._masks[k]


_GEOMETRIES: dict = {}


def geometry(kind: str, n: int, q: int) -> Geometry:
    """Construct (and cache) the geometry of the given kind and order."""
    p, h = factor_prime_power(q)
    key = (kind, p, h, n)
    if key not in _GEOMETRIES:
        _GEOMETRIES[key] = Geometry(kind, n, ff_create(p, h))
    return _GEOMETRIES[key]


# ---------------------------------------------------------------------------
# projection and spreads
# ---------------------------------------------------------------------------

def canonical_complement(pi: Subspace, field: FieldCtx) -> Subspace:
    """The coordinate complement of pi's pivot columns (skew to pi)."""
    n1 = pi.ncols
    pivset = set(pi.pivots)
    rows = []
    for j in range(n1):
        if j not in pivset:
            e = [0] * n1
            e[j] = 1
            rows.append(e)
    return make_subspace(rows, field, n1)


def project_subspace(field: FieldCtx, K: Subspace, pi: Subspace,
                     beta: Subspace) -> Subspace:
    """K ∩ beta in beta's internal coordinates, for pi ⊆ K, beta skew to pi."""
    if not subspace_contains(field, K, pi):
        raise NotContaining("projection centre not contained in the subspace")
    if meet(field, beta, pi).k >= 0:
        raise NotSkew("screen subspace meets the projection centre")
    n = K.ncols - 1
    if beta.k != n - pi.k - 1:
        raise DimensionMismatch(
            f"screen must have dimension {n - pi.k - 1}, got {beta.k}")
    inter = meet(field, K, beta)
    # internal coordinates: coefficients w.r.t. beta's RREF basis are just
    # the entries at beta's pivot columns
    rows = [tuple(r[c] for c in beta.pivots) for r in inter.mat]
    return make_subspace(rows, field, beta.k + 1)


def field_reduction_spread(n: int, k: int, q: int):
    """A k-spread of PG(n,q) by field reduction from PG(m-1, q^(k+1))."""
    if (n + 1) % (k + 1) != 0:
        raise NotDivisible(f"(k+1)={k + 1} does not divide (n+1)={n + 1}")
    field = geometry("PG", n, q).field
    d = k + 1
    if d == 1:
        # 0-spread: every point is its own element
        return [make_subspace([list(p)], field, n + 1)
                for p in geometry("PG", n, q).points]
    m = (n + 1) // d
    ext = ff_extend(field, d)
    Q = ext.q
    out = []
    for w in _normalized_vectors(Q, m):
        rows = []
        for j in range(d):
            alpha = q ** j  # code of t^j in the extension
            row = []
            for comp in w:
                row.extend(ext.to_vector(ext.mul(alpha, comp)))
            rows.append(row)
        out.append(make_subspace(rows, field, n + 1))
    return out
