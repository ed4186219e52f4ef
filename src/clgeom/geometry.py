"""Finite projective and affine geometries PG(n,q) / AG(n,q).

Points are coordinate tuples of field-element codes, normalized so the
leftmost nonzero entry is 1, ordered lexicographically.  Subspaces are
canonical reduced-row-echelon matrices, so structural equality is subspace
equality.  AG(n,q) is realized inside its projective closure with the
hyperplane at infinity fixed at X0 = 0: affine points are the projective
points with X0 = 1, affine k-spaces the projective k-spaces not contained
in X0 = 0.

Each k-level (``Geometry.subspaces``) is one ``SubspaceLevel``: a numpy
array of the canonical matrices' codes, from which ``Subspace`` objects are
built only on demand.  The level is written pivot pattern by pivot
pattern into one array, each pattern's free entries as a q x ... x q grid
with arange(q) broadcast along one axis per entry (no counter, no
division), and gathered once in key order (see ``_enumerate_pg``).  The
points of PG(n,q) are the rows of its 0-level.  Enumerations are kept in
memory and nothing is stored on disk.

One route finds each object: ``Geometry._rank`` a normalized vector among
the closure's points, in closed form; ``_spaces_of`` a subspace, from its
RREF rows' point keys.  ``Geometry.subspace_index`` validates and finds
untrusted matrices (family JSON, anchor coordinates) in the level's sorted
keys.  Four methods of ``Geometry`` know what AG is: ``closure``,
``subspace_count`` (every count), ``subspaces`` (the closure level's tail)
and ``from_closure`` (AG's positions from the closure's).

The one form of incidence is the point table (``Geometry.point_table``),
stored, as every sub table is, in the smallest unsigned dtype that holds
its entries (``_index_dtype``), and built in numpy from a level's codes
with no search: the points of a k-space are the combinations c.M of its
matrix's rows, and each is ranked by ``Geometry._rank``.  A single
subspace (``Geometry.points_of``) gets its c.M from ``_combine`` (over
GF(p^h), h > 1, gathered from the field's q x q add and mul tables).  The
point table reads them from the digit table D_r of r = k+1 rows instead:
row t of D_r holds c.col for every coefficient vector c, where col is the
column of GF(q)^r whose base-q digits are t, so a block's points are
D_r's rows at its columns' digits, summed into keys with no field product
and no ``% p``.  D_r is built afresh for each point table strictly
between the points and the whole space, never holds more entries than
that table, and nothing else reads it (see ``Geometry._digit_table``).
``Geometry.sub_table`` gives the j-spaces in each k-space, derived from
the closure's point table in one loop for both kinds: a j-space's rows are
the table's entries at fixed columns, found by ``_spaces_of``, and read
through ``from_closure``.  The dense incidence matrix and the point
bitmasks are views derived from the table on request.
"""

from __future__ import annotations

import numbers
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations, repeat

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidRange,
    NotDivisible,
    TooManySubspaces,
)
from .ff import FieldCtx, factor_prime_power, ff_create, ff_extend

SUBSPACE_CAP = 10 ** 6

# entries of one numpy chunk in the point table, sub table and mask
# builders; small chunks keep the temporaries in cache and the peak memory flat
_CHUNK = 1 << 14


def _integers(items) -> bool:
    """Whether every item is an integer (numpy integers too) and none a
    bool: an int64 cast would take 1.7 as 1 and True as 1, and numpy
    reads a bool index as a mask."""
    return all(issubclass(t, numbers.Integral) and not issubclass(t, bool)
               for t in set(map(type, items)))


def _index_dtype(count: int) -> np.dtype:
    """The dtype of a point table or sub table whose entries are positions
    among count objects: the smallest unsigned dtype that holds count - 1
    (uint16 for up to 65536 points)."""
    return np.min_scalar_type(count - 1)


# ---------------------------------------------------------------------------
# Gaussian binomials
# ---------------------------------------------------------------------------

@cache
def gauss_binom(n: int, k: int, q: int) -> int:
    """Number of (k-1)-spaces of PG(n-1,q); exact integer arithmetic,
    memoized (the predictions and checkers ask for the same few values)."""
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

    @cached_property
    def _check_equations(self) -> tuple:
        """The row space's check equations, one per non-pivot column j in
        column order: (j, ((c, e), ...)) with the pivot column c and the
        entry e at j of every row that is nonzero there.  v lies in the row
        space iff v[j] = sum(v[c] * e) for every j: row i is the only row
        nonzero at its pivot c, so v[c] is its only possible coefficient."""
        pivots = set(self.pivots)
        return tuple(
            (j, tuple((c, row[j]) for row, c in zip(self.mat, self.pivots)
                      if row[j]))
            for j in range(self.ncols) if j not in pivots)


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
                m[i] = field.sub_scaled(m[i], m[i][c], m[r])
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
    """Row-space membership of a coordinate vector: the subspace's check
    equations (``Subspace._check_equations``, built once per object) are
    tested in column order, and the first that fails decides."""
    if len(coords) != sub.ncols:
        raise DimensionMismatch("coordinate length != ambient dimension")
    v = coords
    if field.h == 1:
        p = field.p
        for j, terms in sub._check_equations:
            r = v[j]
            for c, e in terms:
                r -= v[c] * e
            if r % p:
                return False
        return True
    mul, minus = field.mul, field.sub
    for j, terms in sub._check_equations:
        r = v[j]
        for c, e in terms:
            r = minus(r, mul(v[c], e))
        if r:
            return False
    return True


# ---------------------------------------------------------------------------
# levels: all k-spaces as one code array
# ---------------------------------------------------------------------------

class SubspaceLevel(Sequence):
    """The k-spaces of a geometry in lexicographic order of their canonical
    matrices, stored as one read-only B x (k+1) x (n+1) array ``codes`` of
    field codes (in the smallest unsigned dtype that holds q-1) and the
    ascending ``keys`` of those matrices (see ``_keys``).

    Indexing (negative indices too; a slice gives a list) and iteration
    build each ``Subspace`` on demand, with entries that are Python ints."""

    def __init__(self, codes: np.ndarray, keys: np.ndarray):
        codes.setflags(write=False)
        keys.setflags(write=False)
        self.codes = codes
        self.keys = keys

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, j):
        if isinstance(j, slice):
            return list(map(_subspace_of, self.codes[j].tolist()))
        return _subspace_of(self.codes[operator.index(j)].tolist())

    def __iter__(self):
        for lo in range(0, len(self.codes), _CHUNK):
            for mat in self.codes[lo:lo + _CHUNK].tolist():
                yield _subspace_of(mat)


def _subspace_of(rows) -> Subspace:
    """The Subspace of a canonical matrix given as lists of Python ints."""
    # the leading entry of an RREF row, its first nonzero, is a 1
    return Subspace(tuple(map(tuple, rows)),
                    tuple(row.index(1) for row in rows), len(rows[0]))


def _keys(mats: np.ndarray, q: int) -> np.ndarray:
    """One key per matrix of a B x r x ncols stack of codes in [0, q),
    ordered as the matrices are lexicographically: the base-q number of
    the entries as an int64 while q^(r*ncols) < 2^63, otherwise the rows'
    base-q numbers (each below q^ncols < 2^63, see Geometry.subspaces) as
    big-endian bytes (see _compose).  Neither builds an int64 copy of the
    stack."""
    b, r, ncols = mats.shape
    if q ** (r * ncols) >= 2 ** 63:
        assert q ** ncols < 2 ** 63
        rows = _keys(mats.reshape(b * r, 1, ncols), q)
        return _compose(rows.reshape(b, r), q, ncols)
    flat = mats.reshape(b, r * ncols)
    key = np.zeros(b, dtype=np.int64)
    # _CHUNK rows at a time, so each column pass stays in cache
    for lo in range(0, b, _CHUNK):
        part = key[lo:lo + _CHUNK]
        for column in flat[lo:lo + _CHUNK].T:
            part *= q
            part += column
    return key


def _compose(rows: np.ndarray, q: int, ncols: int) -> np.ndarray:
    """_keys of r x ncols matrices from their rows' keys (... x r, each below
    q^ncols < 2^63): base-q^ncols digits while q^(r*ncols) < 2^63, else the
    rows' big-endian int64 bytes read as one string, in the rows' order."""
    r = rows.shape[-1]
    if q ** (r * ncols) >= 2 ** 63:
        return np.ascontiguousarray(rows, dtype=">i8").view(f"S{8 * r}")[..., 0]
    return rows @ q ** (ncols * np.arange(r - 1, -1, -1, dtype=np.int64))


def _search(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Positions of keys in the ascending sorted_keys, -1 for a key not
    among them.  Searched in ascending order, the keys' binary searches
    share their paths, about twice as fast as in the order they come."""
    order = keys.argsort()
    pos = np.empty(len(keys), dtype=np.intp)
    pos[order] = np.searchsorted(sorted_keys, keys[order])
    # a key past the last one clips to it and misses
    return np.where(sorted_keys.take(pos, mode="clip") == keys, pos, -1)


def _enumerate_pg(q: int, ncols: int, r: int):
    """Codes and ascending keys of all (r-1)-spaces of PG(ncols-1, q).

    Each pivot pattern is one block of q^f matrices, written in place into
    one preallocated code array: identity columns at the pivots, zeros
    left of each pivot and in the other pivot columns, and the f remaining
    free entries spanning a q x ... x q grid, one axis per free entry.
    Free entry a is arange(q) broadcast along its own axis (the block seen
    as q^a x q x q^(f-1-a)), so no counter is decoded and nothing is
    divided.  The level is the blocks gathered once in the order of one
    stable argsort of their keys."""
    code = np.min_scalar_type(q - 1)
    patterns = [(pivots, [(i, c) for i in range(r)
                          for c in range(pivots[i] + 1, ncols)
                          if c not in pivots])
                for pivots in combinations(range(ncols), r)]
    codes = np.zeros((sum(q ** len(free) for _, free in patterns), r, ncols),
                     dtype=code)
    digits = np.arange(q, dtype=code)[:, None]
    lo = 0
    for pivots, free in patterns:
        block = codes[lo:lo + q ** len(free)]
        block[:, range(r), pivots] = 1
        for a, (i, c) in enumerate(free):
            block.reshape(q ** a, q, -1, r, ncols)[..., i, c] = digits
        lo += len(block)
    keys = _keys(codes, q)
    order = np.argsort(keys, kind="stable")
    return codes.take(order, axis=0), keys[order]


def _digit_keys(digits: np.ndarray, mats: np.ndarray, q: int) -> np.ndarray:
    """B x theta base-q keys of the points c.M of a stack of matrices (B x r
    x ncols) for every coefficient vector c of Geometry._coefficients, read
    from its digit table D_r (see Geometry._digit_table): column j of M is
    the base-q number t_j of its r entries, and the key of c.M is the
    Horner sum over j of D_r[t_j, c]: no field product and no division."""
    r = mats.shape[1]
    # ncols x B, so that each column's digits are contiguous
    cols = np.ascontiguousarray(mats[:, 0].T, dtype=np.intp)
    for i in range(1, r):
        cols *= q
        cols += mats[:, i].T
    keys = digits.take(cols[0], axis=0)
    for t in cols[1:]:
        keys *= q
        keys += digits.take(t, axis=0)
    return keys


# ---------------------------------------------------------------------------
# numpy field arithmetic for the point table
# ---------------------------------------------------------------------------

def _combine(field: FieldCtx, coeffs: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """c.M for every row c of coeffs (theta x r, or B x theta x r with its
    own rows for each block) and every block M of mats (B x r x ncols), as
    a B x theta x ncols array of field codes."""
    if field.h == 1:
        return np.matmul(coeffs, mats) % field.p
    if field.tables is None:
        # within SUBSPACE_CAP only PG(1,q) has q past the table order
        mul, add = (np.frompyfunc(f, 2, 1) for f in (field.mul, field.add))
        prods = mul(coeffs[..., :, :, None], mats[:, None])
        return add.reduce(prods, axis=-2).astype(np.int64)
    # gathers from the flat q x q tables at a*q + b
    add, mul = (t.ravel() for t in field.tables)
    q = field.q
    out = None
    for i in range(coeffs.shape[-1]):
        prod = mul[coeffs[..., i, None].astype(np.intp) * q
                   + mats[:, None, i, :]]
        out = prod if out is None else add[out.astype(np.intp) * q + prod]
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
        # _rank's weights, rank offsets and point keys, and the
        # coefficient vectors and their leading columns by row count
        self._ranks = None
        self._coeffs = {}
        self._subspaces = {}
        self._tables = {}  # point tables by k, sub tables by (k, j)
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

    @cached_property
    def points(self):
        """Lexicographically sorted normalized coordinate tuples, the rows
        of the 0-level (so SUBSPACE_CAP bounds them too): a list for
        callers outside the library, whose routes read the level itself."""
        return list(map(tuple, self.subspaces(0).codes[:, 0].tolist()))

    @cached_property
    def num_points(self) -> int:
        return self.subspace_count(0)

    # -- subspaces --

    def subspace_count(self, k: int) -> int:
        if k < 0 or k > self.n:
            raise InvalidRange(f"k={k} out of range for n={self.n}")
        if self.kind == "PG":
            return gauss_binom(self.n + 1, k + 1, self.q)
        return self.q ** (self.n - k) * gauss_binom(self.n, k, self.q)

    def count_at_infinity(self, k: int) -> int:
        """How many of the closure's k-spaces lie inside X0 = 0: they come
        first, so k-space i is the closure's k-space i + this (0 in PG)."""
        return self.closure().subspace_count(k) - self.subspace_count(k)

    def from_closure(self, k: int, pos: np.ndarray) -> np.ndarray:
        """Positions among this geometry's k-spaces of the closure's at pos:
        pos itself in PG; in AG, flat, without those inside X0 = 0 and the
        rest shifted by count_at_infinity(k)."""
        if self.kind == "PG":
            return pos
        shift = self.count_at_infinity(k)
        return pos[pos >= shift] - shift

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

    def subspaces(self, k: int) -> "SubspaceLevel":
        """All k-spaces, ordered by their canonical matrices."""
        if k not in self._subspaces:
            count = self._capped_count(k)
            if self.kind == "AG":
                # the k-spaces not inside X0 = 0: they have their leading 1
                # at entry (0, 0), the others a 0, so they are the closure
                # level's last `count`, viewed without a copy
                full = self.closure().subspaces(k)
                level = SubspaceLevel(full.codes[-count:], full.keys[-count:])
            else:
                if k == self.n:
                    # refused with the points, which bound its rows' keys
                    # (_keys) as a lower level's count bounds them there
                    self._capped_count(0)
                level = SubspaceLevel(*_enumerate_pg(self.q, self.n + 1, k + 1))
            assert len(level) == count
            self._subspaces[k] = level
        return self._subspaces[k]

    def subspace_index(self, k: int, mats) -> np.ndarray:
        """Positions in subspaces(k) of a stack of code matrices (each
        (k+1) x (n+1)), by _search over the level's sorted keys; -1 for
        a matrix that is not one of the k-spaces (not in RREF, not of full
        rank, holding a non-code, or in AG inside X0 = 0)."""
        level = self.subspaces(k)
        mats = np.asarray(mats)
        if not len(mats):
            return np.empty(0, dtype=np.int64)
        if mats.shape[1:] != (k + 1, self.n + 1):
            raise DimensionMismatch(
                f"expected {k + 1}x{self.n + 1} matrices, got {mats.shape[1:]}")
        valid = ((mats >= 0) & (mats < self.q)).all(axis=(1, 2))
        if not valid.all():
            # a matrix holding a non-code is looked up as the zero matrix,
            # which is no k-space
            mats = np.where(valid[:, None, None], mats, 0)
        return _search(level.keys, _keys(mats, self.q))

    # -- incidence --

    def _coefficients(self, r: int):
        """The coefficient vectors c of the points c.M of an r-row matrix
        M, the points of PG(r-1,q) in order (PG(0,q) has the one point
        (1)), as an int64 theta x r array, with their leading columns."""
        if r not in self._coeffs:
            coeffs = (np.ones((1, 1), dtype=np.int64) if r == 1 else
                      geometry("PG", r - 1, self.q).subspaces(0).codes[:, 0]
                      .astype(np.int64))
            self._coeffs[r] = coeffs, (coeffs != 0).argmax(axis=1)
        return self._coeffs[r]

    def _digit_table(self, r: int) -> np.ndarray:
        """D_r, the q^r x theta int32 array whose row t holds c.col for
        every coefficient vector c of _coefficients(r) (theta of them),
        where col is the vector of GF(q)^r with the base-q digits t = sum
        col_i q^(r-1-i): _combine over the q^r columns, chunk by chunk,
        after which a block's points are rows of D_r gathered at its
        columns' digits.  Only point_table reads it, built afresh for the
        k-spaces, 0 < k = r-1 < n, and it never holds more entries than
        their point table: PG(n,q) has at least q^(r(n-k)) >= q^r k-spaces
        of theta points each, and AG(n,q) has q^(n-k) [n,k]_q >= q^r theta
        / q^k k-spaces of q^k points each.

        int32 holds it and the keys summed from it: n >= 2, the closure has
        at most SUBSPACE_CAP points, so q < 1000, and every key is below
        q^(n+1) = (q-1) * (the closure's point count) + 1 < 2^31.  So D_r
        has at most as many entries as the table, but up to twice its bytes
        where the table is uint16 (see _index_dtype)."""
        coeffs, _ = self._coefficients(r)
        # the columns as the rows of a q^r x r array, each multiplied by
        # the r x theta array of the coefficient vectors
        cols = np.indices((self.q,) * r).reshape(r, -1).T
        digits = np.empty((len(cols), len(coeffs)), dtype=np.int32)
        step = max(1, _CHUNK // len(coeffs))
        for lo in range(0, len(cols), step):
            digits[lo:lo + step] = _combine(
                self.field, cols[lo:lo + step], coeffs.T[None])[0]
        return digits

    def _rank(self, lead: np.ndarray, vecs=None, keys=None):
        """Positions among the closure's points (see from_closure) of
        normalized vectors, given by their codes (vecs, ... x ncols) or by
        their base-q keys, whose leading 1s sit in the columns lead.

        A normalized vector whose leading 1 sits in column i has key L + t
        with t < L = q^(n-i), and the points before it are the (L-1)/(q-1)
        points led further right and the t points led at i with smaller
        keys, so its index is key - L + (L-1)/(q-1).  A gather of the
        closure's point keys at these ranks asserts that every vector is a
        point (a key that ranks outside the points is clipped to a miss):
        untrusted vectors are found by subspace_index instead."""
        if self._ranks is None:
            # the closure's point keys, ascending; with at most SUBSPACE_CAP
            # points they are int64 (see _keys)
            point_keys = self.closure().subspaces(0).keys
            q, n = self.q, self.n
            weights = q ** np.arange(n, -1, -1, dtype=np.int64)
            # key - offsets[i] is the rank of a point led at column i
            offsets = weights - (weights - 1) // (q - 1)
            self._ranks = weights, offsets, point_keys
        weights, offsets, point_keys = self._ranks
        if keys is None:
            keys = vecs @ weights
        pos = keys - offsets[lead]
        assert (point_keys.take(pos, mode="clip") == keys).all()
        return pos

    def point_table(self, k: int) -> np.ndarray:
        """N x theta array whose row j lists, ascending, the indices of the
        points on k-space j: the one stored form of the incidence, from
        which every checker, transform and sub table reads.  Its dtype is
        _index_dtype of the point count, so readers gather through it with
        ndarray.take.

        Every point of an RREF matrix M is c.M for a normalized coefficient
        vector c (_coefficients), and c.M is already normalized: its
        leading 1 sits in the pivot column of M's row at c's leading 1,
        where M has an identity column.  c -> c.M keeps the lexicographic
        order (c reappears in M's pivot columns, and the columns before a
        pivot depend only on earlier entries of c), so each row's
        positions come out ascending, and row i of M, e_i.M, is the point
        at position (q^(k-i) - 1)/(q - 1) of its row, where e_i sits among
        the points of PG(k,q); _blocks_of and clcore's containment tests
        read the matrices' rows from there (see _basis_columns).

        For 0 < k < n the keys of the c.M are summed chunk by chunk from
        the digit table D_(k+1) by _digit_keys, with no field product,
        ranked in closed form by _rank, and read through from_closure,
        which keeps num_points of geometry(kind, k, q) per row.  k = 0 and
        k = n need neither: each point is its own 0-space, and the whole
        space holds every point."""
        if k not in self._tables:
            codes = self.subspaces(k).codes
            # counted (and refused above the cap) without building the
            # point list
            v = self._capped_count(0)
            if k in (0, self.n):
                table = np.arange(v, dtype=_index_dtype(v)).reshape(
                    (-1, 1) if k == 0 else (1, -1))
            else:
                theta = geometry(self.kind, k, self.q).num_points
                digits = self._digit_table(k + 1)
                _, lead = self._coefficients(k + 1)
                table = np.empty((len(codes), theta), dtype=_index_dtype(v))
                # the keys are B x theta' for the theta' points c.M
                step = max(1, _CHUNK // digits.shape[1])
                for lo in range(0, len(codes), step):
                    mats = codes[lo:lo + step]
                    keys = _digit_keys(digits, mats, self.q)
                    # c.M is led where M's row at c's leading 1 is; found
                    # after the keys, so that it adds nothing to their peak
                    pos = self._rank(
                        (mats != 0).argmax(axis=2)[:, lead], keys=keys)
                    table[lo:lo + len(mats)] = self.from_closure(
                        0, pos).reshape(len(mats), theta)
            table.setflags(write=False)
            self._tables[k] = table
        return self._tables[k]

    def sub_table(self, k: int, j: int) -> np.ndarray:
        """N x m array whose row i lists, ascending, the positions in
        subspaces(j) of the j-spaces in k-space i, for 0 <= j < k (the point
        table for j = 0), in _index_dtype of the j-level's count, derived
        from the closure's point table in one loop for PG and AG.  The
        closure's j-spaces in its k-space M are C.M for C the j-spaces of
        PG(k,q); C.M is in RREF (C's pivots move to M's) and C -> C.M keeps
        the order (see point_table).  The rows of C are points of PG(k,q),
        ranked by _rank, so the rows of C.M are the point table's entries
        at those positions, and _spaces_of finds C.M from them.  In AG,
        from_closure drops the j-spaces inside X0 = 0, as many in every row
        (they come first), which leaves m of them per row."""
        count = len(self.subspaces(k))
        if not 0 <= j < k:
            raise InvalidRange(f"j={j} not in [0, {k})")
        if j == 0:
            return self.point_table(k)
        if (k, j) not in self._tables:
            closure = self.closure()
            pg = geometry("PG", k, self.q)
            # the position of each row of C among the points of PG(k,q)
            vecs = pg.subspaces(j).codes
            cols = pg._rank((vecs != 0).argmax(axis=2), vecs)
            rows = closure.point_table(k)[self.count_at_infinity(k):]
            table = np.empty(
                (count, geometry(self.kind, k, self.q).subspace_count(j)),
                dtype=_index_dtype(len(self.subspaces(j))))
            step = max(1, _CHUNK // cols.size)
            for lo in range(0, count, step):
                pos = _spaces_of(closure, j,
                                 rows[lo:lo + step].take(cols, axis=1))
                assert (pos >= 0).all()
                table[lo:lo + step] = self.from_closure(j, pos).reshape(
                    len(pos), -1)
            table.setflags(write=False)
            self._tables[k, j] = table
        return self._tables[k, j]

    def points_of(self, sub: Subspace) -> np.ndarray:
        """Ascending indices of this geometry's points that lie in an
        arbitrary subspace (given in the closure's coordinates for AG).

        One matrix, so no stack: its points c.M come from ``_combine`` as a
        theta x ncols array, each led at the pivot of M's row at c's
        leading 1 (see point_table), ranked by ``_rank``, then from_closure."""
        if sub.ncols != self.n + 1:
            raise DimensionMismatch(
                f"subspace of {sub.ncols} coordinates in {self!r}, which "
                f"has {self.n + 1}")
        if sub.k < 0:
            return np.empty(0, dtype=np.int64)
        if sub.k == self.n:
            return np.arange(self._capped_count(0))
        mat = np.array(sub.mat, dtype=np.int64)
        coeffs, lead = self._coefficients(len(mat))
        vecs = (mat if len(mat) == 1
                else _combine(self.field, coeffs, mat[None])[0])
        return self.from_closure(
            0, self._rank(np.array(sub.pivots)[lead], vecs))

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
                # one bytes object per row in one call; the fixed-width
                # view drops trailing zero bytes, the high ones of a
                # little-endian mask, which leaves the value as it is
                row_bytes = packed.view(f"S{packed.shape[1]}").ravel().tolist()
                masks.extend(map(int.from_bytes, row_bytes, repeat("little")))
            self._masks[k] = masks
        return self._masks[k]


def _basis_columns(q: int, k: int) -> list:
    """The columns of a k-space's ascending point-table row that hold the
    rows of its RREF matrix, in row order: row i is the point at position
    (q^(k-i) - 1)/(q - 1) (see Geometry.point_table).  So a k-space lies in a
    subspace exactly when the points in these k+1 columns do.

    Projective rows only: an AG point table omits the points at infinity,
    so its columns are not these.  Every caller reads projective rows:
    clcore's containment tests are PG-guarded, and _blocks_of takes
    indices among the closure's points."""
    return [(q ** (k - i) - 1) // (q - 1) for i in range(k + 1)]


def _spaces_of(geom: Geometry, j: int, rows: np.ndarray) -> np.ndarray:
    """Positions in geom.subspaces(j) of the j-spaces whose RREF rows are
    the closure's points at the indices rows (... x (j+1)), -1 for a
    j-space that is not among them (in AG one inside X0 = 0): the rows'
    point keys composed by _compose and searched in the level's keys."""
    if not rows.size:
        return np.empty(rows.shape[:-1], dtype=np.intp)
    keys = _compose(geom.closure().subspaces(0).keys.take(rows), geom.q,
                    geom.n + 1)
    return _search(geom.subspaces(j).keys, keys.ravel()).reshape(keys.shape)


def _blocks_of(geom: Geometry, k: int, rows: np.ndarray) -> np.ndarray:
    """Positions in geom.subspaces(k) of the k-spaces whose points are the
    rows of `rows` (B x theta indices among the closure's points, in any
    order), the inverse of the point table.

    The matrices' rows are the points in the basis columns of the sorted
    rows (see _basis_columns), found by _spaces_of.  A row that is not the
    point set of a k-space is not detected, and may give -1 or any
    position."""
    return _spaces_of(geom, k,
                      np.sort(rows, axis=1)[:, _basis_columns(geom.q, k)])


_GEOMETRIES: dict = {}


def geometry(kind: str, n: int, q: int) -> Geometry:
    """Construct (and cache) the geometry of the given kind and order.

    n and q are integers (numpy integers too), refused otherwise, bools
    among them, before the cache is read: 2.0 would be cached under 2's
    key, and True taken as 1."""
    # the common case, two ints, skips the slower ABC checks
    if type(n) is not int or type(q) is not int:
        if not _integers((n, q)):
            raise ValueError(
                f"dimension and order must be integers, got {n!r}, {q!r}")
        n, q = int(n), int(q)
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


@cache
def field_reduction_spread(n: int, k: int, q: int) -> np.ndarray:
    """A k-spread of PG(n,q) by field reduction from PG(m-1, q^(k+1)): the
    cached, read-only int64 positions in geometry("PG", n, q).subspaces(k)
    of the elements of the points w of PG(m-1, q^(k+1)), in w's order.

    The element of w holds lambda.w for lambda in GF(q^(k+1))*, each entry
    over GF(q) (``FieldCtx.to_vector``).  w leads with 1, so lambda.w leads
    with lambda, and is normalized exactly when lambda's first nonzero
    coordinate is 1: those theta multipliers give each element's points
    once, from one _combine, and _blocks_of reads the elements off them."""
    if (n + 1) % (k + 1) != 0:
        raise NotDivisible(f"(k+1)={k + 1} does not divide (n+1)={n + 1}")
    geom = geometry("PG", n, q)
    if k in (0, n):
        # every point its own element; the whole space the one element
        spread = np.arange(len(geom.subspaces(k)))
    else:
        d = k + 1
        ext = ff_extend(geom.field, d)
        # the GF(q)^d coordinates of every code of the extension
        coords = np.arange(ext.q)[:, None] // q ** np.arange(d) % q
        lam = np.flatnonzero(
            coords[np.arange(ext.q), (coords != 0).argmax(axis=1)] == 1)
        w = _enumerate_pg(ext.q, (n + 1) // d, 1)[0]
        vecs = coords[_combine(ext, lam[:, None], w)].reshape(-1, n + 1)
        rows = geom._rank((vecs != 0).argmax(axis=1), vecs)
        spread = _blocks_of(geom, k, rows.reshape(len(w), len(lam)))
        assert (spread >= 0).all()
    spread.setflags(write=False)
    return spread
