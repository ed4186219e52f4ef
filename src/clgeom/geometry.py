"""Finite projective and affine geometries PG(n,q) / AG(n,q).

Points are coordinate tuples of field-element codes, normalized so the
leftmost nonzero entry is 1, ordered lexicographically.  Subspaces are
canonical reduced-row-echelon matrices, so structural equality is subspace
equality.  AG(n,q) is realized inside its projective closure with the
hyperplane at infinity fixed at X0 = 0: affine points are the projective
points with X0 = 1, affine k-spaces the projective k-spaces not contained
in X0 = 0.

Enumerations and incidence matrices are cached in memory and, optionally,
on disk (directory from the CLGEOM_CACHE environment variable, magic header
CLG1).  The cache is purely a performance layer; results are identical with
it disabled.
"""

from __future__ import annotations

import os
import pickle
import warnings
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

_CACHE_MAGIC = b"CLG1"


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


def _normalize_point(field: FieldCtx, coords):
    for c in coords:
        if c:
            if c == 1:
                return tuple(coords)
            s = field.inv(c)
            return tuple(field.mul(s, v) for v in coords)
    raise ValueError("zero vector is not a projective point")


# ---------------------------------------------------------------------------
# disk cache
# ---------------------------------------------------------------------------

_cache_enabled = True
_cache_warned = False


def set_cache_enabled(flag: bool) -> None:
    global _cache_enabled
    _cache_enabled = bool(flag)


def cache_dir() -> str:
    d = os.environ.get("CLGEOM_CACHE")
    if not d:
        d = os.path.join(os.path.expanduser("~"), ".cache", "clgeom")
    return d


def _cache_path(key: str) -> str:
    return os.path.join(cache_dir(), key + ".clg")


def _cache_load(key: str):
    if not _cache_enabled:
        return None
    path = _cache_path(key)
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError:
        return None
    if not blob.startswith(_CACHE_MAGIC):
        return None
    try:
        return pickle.loads(blob[len(_CACHE_MAGIC):])
    except Exception:
        return None


def _cache_store(key: str, payload) -> None:
    global _cache_warned
    if not _cache_enabled:
        return
    path = _cache_path(key)
    tmp = path + ".tmp"
    try:
        os.makedirs(cache_dir(), exist_ok=True)
        with open(tmp, "wb") as fh:
            fh.write(_CACHE_MAGIC)
            fh.write(pickle.dumps(payload, protocol=4))
        os.replace(tmp, path)
    except OSError:
        if not _cache_warned:
            warnings.warn(f"geometry cache directory {cache_dir()} not writable; "
                          "falling back to in-memory only")
            _cache_warned = True


# ---------------------------------------------------------------------------
# geometries
# ---------------------------------------------------------------------------

class Geometry:
    """Enumerated PG(n,q) or AG(n,q) with cached incidence matrices.

    Immutable after construction; all enumerations are lazy and cached.
    """

    def __init__(self, kind: str, n: int, field: FieldCtx):
        if kind not in ("PG", "AG"):
            raise ValueError(f"kind must be PG or AG, got {kind!r}")
        if n < 1:
            raise ValueError("dimension must be >= 1")
        self.kind = kind
        self.n = n
        self.field = field
        self.q = field.q
        self._points = None
        self._point_index = None
        self._subspaces = {}
        self._subspace_index = {}
        self._incidence = {}
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
        if self._points is None:
            if self.kind == "PG":
                pts = _normalized_vectors(self.q, self.n + 1)
                # replace nonzero entries by field codes: codes coincide with
                # the integers 0..q-1 used by _normalized_vectors
                self._points = pts
            else:
                self._points = [p for p in self.closure().points if p[0] != 0]
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

    def subspaces(self, k: int):
        """Ordered tuple of all k-spaces (lexicographic canonical matrices)."""
        if k not in self._subspaces:
            count = self.subspace_count(k)
            if count > SUBSPACE_CAP:
                raise TooManySubspaces(count, SUBSPACE_CAP)
            if self.kind == "AG":
                full = self.closure().subspaces(k)
                subs = tuple(s for s in full if any(row[0] for row in s.mat))
            else:
                key = self._cache_key(k, "subspaces")
                data = _cache_load(key)
                if data is None:
                    subs = tuple(self._enumerate_pg(k))
                    _cache_store(key, [(s.mat, s.pivots) for s in subs])
                else:
                    subs = tuple(Subspace(tuple(map(tuple, m)), tuple(p), self.n + 1)
                                 for m, p in data)
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

    def incidence(self, k: int) -> np.ndarray:
        """0/1 point-(k-space) incidence matrix (P_n for PG, A_n for AG)."""
        if k not in self._incidence:
            key = self._cache_key(k, "incidence")
            data = _cache_load(key)
            if data is None:
                data = self._build_incidence(k)
                _cache_store(key, data)
            data.setflags(write=False)
            self._incidence[k] = data
        return self._incidence[k]

    def _build_incidence(self, k: int) -> np.ndarray:
        subs = self.subspaces(k)
        pidx = self.point_index
        field = self.field
        mat = np.zeros((len(self.points), len(subs)), dtype=np.uint8)
        coeffs = _normalized_vectors(self.q, k + 1)
        n1 = self.n + 1
        for j, s in enumerate(subs):
            rows = s.mat
            for cv in coeffs:
                pt = [0] * n1
                for ci, c in enumerate(cv):
                    if c:
                        row = rows[ci]
                        for t in range(n1):
                            if row[t]:
                                pt[t] = field.add(pt[t], field.mul(c, row[t]))
                p = _normalize_point(field, pt)
                i = pidx.get(p)
                if i is not None:
                    mat[i, j] = 1
        return mat

    def point_table(self, k: int) -> np.ndarray:
        """N x theta array whose row j lists the point indices of k-space j.

        Derived from incidence(k) and kept in memory only; every k-space has
        the same number theta of points, so the table is rectangular."""
        if k not in self._tables:
            # nonzero of the transpose lists points block by block, in order
            blocks, pts = np.nonzero(self.incidence(k).T)
            sizes = np.bincount(blocks, minlength=self.subspace_count(k))
            assert (sizes == sizes[0]).all()
            table = pts.reshape(len(sizes), sizes[0])
            table.setflags(write=False)
            self._tables[k] = table
        return self._tables[k]

    def point_masks(self, k: int):
        """Per k-space bitmask of incident point indices."""
        if k not in self._masks:
            inc = self.incidence(k)
            masks = []
            for j in range(inc.shape[1]):
                m = 0
                for i in np.flatnonzero(inc[:, j]):
                    m |= 1 << int(i)
                masks.append(m)
            self._masks[k] = masks
        return self._masks[k]

    def point_mask_of(self, sub: Subspace) -> int:
        """Bitmask of this geometry's points lying in an arbitrary subspace."""
        field = self.field
        pidx = self.point_index
        mask = 0
        n1 = self.n + 1
        for cv in _normalized_vectors(self.q, sub.k + 1):
            pt = [0] * n1
            for ci, c in enumerate(cv):
                if c:
                    row = sub.mat[ci]
                    for t in range(n1):
                        if row[t]:
                            pt[t] = field.add(pt[t], field.mul(c, row[t]))
            i = pidx.get(_normalize_point(field, pt))
            if i is not None:
                mask |= 1 << i
        return mask

    def _cache_key(self, k: int, what: str) -> str:
        return f"{self.kind}-p{self.field.p}-h{self.field.h}-n{self.n}-k{k}-{what}"


_GEOMETRIES: dict = {}


def geometry(kind: str, n: int, q: int) -> Geometry:
    """Construct (and cache) the geometry of the given kind and order."""
    p, h = factor_prime_power(q)
    key = (kind, p, h, n)
    if key not in _GEOMETRIES:
        _GEOMETRIES[key] = Geometry(kind, n, ff_create(p, h))
    return _GEOMETRIES[key]


def enumerate_subspaces(geom: Geometry, k: int):
    """Ordered list of all k-spaces of the geometry."""
    return geom.subspaces(k)


def incidence_matrix(geom: Geometry, k: int) -> np.ndarray:
    return geom.incidence(k)


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
