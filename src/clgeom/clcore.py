"""Cameron-Liebler k-set families: decision, constructions, transforms,
and brute-force verification of every counting identity.

A family is the ascending array of its members' indices into its geometry's
enumeration, and every route reads that array.  The CL decision tests whether
its 0/1 characteristic vector lies in the rational row space of the
point-(k-space) incidence matrix P.  Points and k-spaces form a 2-design
whose r and lambda are Gaussian binomials, so P P^T = (r-lambda) I +
lambda J and the test is a closed-form integer identity over the
geometry's point table (see ``is_cl``); no rational matrix is built.

Every route here reads incidence from the point table, and the points of
other subspaces from ``Geometry.points_of``.  A family's points are read
through its indices into the table; no route copies its rows.  What a
route needs of a family (its point degrees P chi, its 0/1 vector, its
meet profile) is derived once and cached on it (see ``KFamily``).  The
tables hold their entries in the smallest unsigned dtype
(``geometry._index_dtype``), and every gather through those entries is an
``ndarray.take`` (fancy indexing with narrow indices is about twice as
slow), as is every gather of whole rows (along axis 0).  Counts over
table rows are gathered in pieces (``_counts``), rows mapped through a
position array too (``_gather``), and sums over a row run column by
column in blocks of rows (``_row_reduce``).  Whether a k-space lies in a
subspace is read off the k+1 points of its row that are its RREF rows
(``geometry._basis_columns``), one column at a time over the rows still
in (``_rows_within``), of the whole table or of a family's indices.  The
transforms read each image's canonical matrix off its sorted points
(``geometry._blocks_of``), with no elimination per member.  Every checker
computes its counts by brute force over the geometry (most of them from
one meet profile, from degree sums over the geometry's sub tables) and
compares them with the closed-form prediction in exact rational
arithmetic; checkers report violations instead of raising, so they double
as falsification tools.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain, islice
from operator import eq

import numpy as np

from .errors import (
    AnchorInvalid,
    DimensionMismatch,
    DimensionTooLarge,
    DimensionTooSmall,
    FamilyFormatError,
    GuardViolated,
    InvalidRange,
    MemberInsideHyperplane,
    NotASpread,
    NotContained,
    NotDisjoint,
    NotPrime,
    PointNotInSubspace,
    PreconditionNotMet,
)
from .ff import MAX_ORDER, factor_prime_power
from .geometry import (
    _CHUNK,
    _basis_columns,
    _blocks_of,
    _combine,
    _integers,
    Geometry,
    Subspace,
    canonical_complement,
    gauss0,
    gauss_binom,
    geometry,
    make_subspace,
)
from .sieve import x_max_param


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

def _dimension(k) -> int:
    """k as an int, refused with ValueError unless it is an integer (numpy
    integers too) and no bool, before any cache is read: the caches would
    take 1.0 and True as 1."""
    if not _integers([k]):
        raise ValueError(f"dimension k must be an integer, got {k!r}")
    return int(k)


class KFamily:
    """An immutable set of k-spaces of a geometry, with exact parameter,
    stored once as ``indices``: their positions in ``geom.subspaces(k)``,
    a read-only ascending int64 array.

    Every other view is derived from ``indices`` on first use and kept,
    which is safe as the family never changes: ``members`` (a frozenset),
    ``chi`` (the 0/1 vector over the k-spaces), ``degrees`` (P chi: over
    the points, the members through each) and the meet profile.  No view
    copies the members' rows of the point table: the routes read them
    through ``indices``.  The arrays are read-only; ``size`` is the length
    of ``indices``.  k and the members are integers (numpy integers too): a
    float or a bool is refused with ValueError, and a k outside [0, n] with
    InvalidRange, whether or not there are members."""

    def __init__(self, geom: Geometry, k: int, members):
        self.geom = geom
        self.k = _dimension(k)
        count = geom.subspace_count(self.k)
        if not (isinstance(members, np.ndarray) and members.dtype.kind in "iu"):
            members = list(members)
            if not _integers(members):
                raise ValueError("member indices must be integers")
        try:
            idx = np.sort(members.astype(np.int64, copy=False)
                          if isinstance(members, np.ndarray)
                          else np.fromiter(members, dtype=np.int64))
        except OverflowError:
            raise ValueError("member index out of range") from None
        if len(idx) and (idx[0] < 0 or int(idx[-1]) >= count):
            raise ValueError("member index out of range")
        # drop repeats: the entries equal to the one before them
        repeats = idx[1:] == idx[:-1]
        if repeats.any():
            idx = np.delete(idx, np.flatnonzero(repeats) + 1)
        self.indices = idx
        self.indices.setflags(write=False)

    @cached_property
    def members(self) -> frozenset:
        return frozenset(self.indices.tolist())

    @property
    def size(self) -> int:
        return len(self.indices)

    @property
    def x(self) -> Fraction:
        """|L| / [n k]_q; defined whether or not the family is CL."""
        return Fraction(self.size, gauss_binom(self.geom.n, self.k, self.geom.q))

    @cached_property
    def chi(self) -> np.ndarray:
        v = np.zeros(self.geom.subspace_count(self.k), dtype=np.uint8)
        v[self.indices] = 1
        v.setflags(write=False)
        return v

    @cached_property
    def degrees(self) -> np.ndarray:
        deg = _counts(self.geom.point_table(self.k), self.indices,
                      self.geom.num_points)
        deg.setflags(write=False)
        return deg

    @cached_property
    def _profile(self) -> np.ndarray:
        return _pair_profile(self)

    def __eq__(self, other):
        return (isinstance(other, KFamily)
                and self.geom.key == other.geom.key
                and self.k == other.k
                and np.array_equal(self.indices, other.indices))

    def __hash__(self):
        return hash((self.geom.key, self.k, self.indices.tobytes()))

    def __repr__(self):
        return (f"KFamily({self.geom!r}, k={self.k}, size={self.size}, "
                f"x={self.x})")


@dataclass
class CLReport:
    is_cl: bool
    x: Fraction
    certificate: str


@dataclass
class CheckReport:
    ok: bool
    violations: Sequence = dc_field(default_factory=list)


def is_cl(F: KFamily) -> CLReport:
    """Decide membership of the characteristic vector chi in Im(P^T) (for
    AG, Im(A^T)) by the 2-design identity of the point table.

    Points against k-spaces of PG(n,q), and points against k-flats of
    AG(n,q), form a 2-(v, theta, lambda) design: every point lies on
    r = [n k]_q blocks and every two on lambda = [n-1 k-1]_q (0 for k =
    0), closed forms with nothing read off the table.  So P P^T =
    (r-lambda) I + lambda J and r - lambda + v lambda = r theta.  For
    r > lambda the orthogonal projection of chi onto Im(P^T) is
    (P^T P chi - lambda theta |L| / r) / (r - lambda), so chi lies in
    Im(P^T) exactly when r P^T P chi - lambda theta |L| == r (r-lambda) chi.
    For k = n (one block, r = lambda) both sides vanish, as they should:
    Im(P^T) is then all of R^1.
    """
    geom, k = F.geom, F.k
    table = geom.point_table(k)
    nblocks, theta = table.shape
    # the k-spaces through a point, and through two points
    r, lam = gauss_binom(geom.n, k, geom.q), gauss0(geom.n - 1, k - 1, geom.q)
    # Every term of the identity lies in [0, r*theta*N] (a <= r,
    # b <= r*theta, lambda <= r, |L| <= N).  Counting incidences both ways,
    # N*theta = v*r, so r*theta*N = v*r^2; the int64 sums are exact while
    # that is below 2^63.
    assert r * theta * nblocks < 2 ** 63
    b = _row_reduce(F.degrees, table)  # P^T P chi
    # r P^T P chi - lambda theta |L| - r (r-lambda) chi, in place
    b *= r
    b -= lam * theta * F.size
    b[F.indices] -= r * (r - lam)
    ok = not b.any()
    x = F.x
    assert 0 <= x <= x_max_param(geom.kind, geom.n, k, geom.q)
    return CLReport(ok, x, "design-identity")


# ---------------------------------------------------------------------------
# trivial constructions
# ---------------------------------------------------------------------------

@cache
def _default_hyperplane(geom: Geometry) -> Subspace:
    """The hyperplane X0 = 0, the canonical complement of the point e_0;
    built once per geometry (a Subspace is immutable)."""
    e0 = make_subspace([[1] + [0] * geom.n], geom.field)
    return canonical_complement(e0, geom.field)


def construct_trivial(geom: Geometry, k: int, kind: str, point=None,
                      hyperplane: Subspace | None = None,
                      complement_of: bool = False) -> KFamily:
    """Build a trivial family: empty, point_pencil, hyperplane_class,
    pencil_plus_hyperplane, or the complement of any of these."""
    k = _dimension(k)
    # refuses a geometry past SUBSPACE_CAP before an anchor of n+1
    # coordinates is built
    geom.subspaces(k)
    if kind == "empty":
        fam = KFamily(geom, k, ())
    elif kind == "point_pencil":
        fam = KFamily(geom, k, _pencil(geom, k, _resolve_point(geom, point)))
    elif kind in ("hyperplane_class", "pencil_plus_hyperplane"):
        if geom.kind != "PG":
            raise AnchorInvalid(f"{kind} is a projective construction")
        H = hyperplane if hyperplane is not None else _default_hyperplane(geom)
        if H.k != geom.n - 1:
            raise AnchorInvalid(
                f"anchor of dimension {H.k} is no hyperplane of {geom!r}")
        pencil = np.empty(0, dtype=np.int64)
        if kind == "pencil_plus_hyperplane":
            p_idx = _resolve_point(geom, point)
            if p_idx in geom.points_of(H):
                raise AnchorInvalid("anchor point lies in the anchor hyperplane")
            pencil = _pencil(geom, k, p_idx)
        cls = _indices_inside(geom, k, H)
        fam = KFamily(geom, k, np.concatenate((pencil, cls)))
        assert fam.size == len(pencil) + len(cls), "pencil meets the class"
    else:
        raise AnchorInvalid(f"unknown trivial kind {kind!r}")
    if complement_of:
        fam = complement(fam)
    return fam


def _resolve_point(geom: Geometry, point) -> int:
    if point is None:
        return 0
    # numpy integers too, such as np.flatnonzero hands out; not a bool
    if _integers([point]):
        point = int(point)
        if not 0 <= point < len(geom.subspaces(0)):
            raise AnchorInvalid(f"point index {point} out of range")
        return point
    try:
        coords = tuple(point)
    except TypeError:
        raise AnchorInvalid(
            f"{point!r} is neither a point index nor coordinates") from None
    # int() would truncate 1.9 to 1 and take True as 1
    if not _integers(coords):
        raise AnchorInvalid(f"{coords} has a coordinate that is no integer")
    pt = tuple(map(int, coords))
    # codes only, so that the lookup sees no entry past int64
    codes = len(pt) == geom.n + 1 and all(0 <= c < geom.q for c in pt)
    idx = int(geom.subspace_index(0, [[pt]])[0]) if codes else -1
    if idx < 0:
        raise AnchorInvalid(f"{pt} is not a point of {geom!r}")
    return idx


def _pencil(geom: Geometry, k: int, p_idx: int) -> np.ndarray:
    """Indices of the k-spaces through point p_idx, ascending."""
    return _rows_holding(geom.point_table(k), [p_idx])


def _indices_inside(geom: Geometry, k: int, outer: Subspace) -> np.ndarray:
    """Indices of the k-spaces inside the subspace outer, ascending."""
    return _rows_within(_mask(geom, outer), geom.point_table(k),
                        _basis_columns(geom.q, k))


def _rows_within(mask: np.ndarray, table: np.ndarray, cols,
                 rows: np.ndarray | None = None) -> np.ndarray:
    """Ascending positions of the rows of table, or of those in the
    ascending selection rows, whose entries at the columns cols all lie in
    mask (boolean, over the entries' range).

    One column at a time, gathered only over the rows still in, so the
    work shrinks with them.  For containment in a subspace pass a
    projective point table's basis columns (geometry._basis_columns): a
    k-space lies in a subspace exactly when its RREF rows do."""
    # a column's view, then its gather: cheaper than table[keep, c]
    keep = (np.flatnonzero(mask.take(table[:, cols[0]])) if rows is None
            else rows[mask.take(table[:, cols[0]][rows])])
    for c in cols[1:]:
        keep = keep[mask.take(table[:, c][keep])]
    return keep


def _rows_holding(table: np.ndarray, points,
                  rows: np.ndarray | None = None) -> np.ndarray:
    """Ascending positions of the rows of table, or of those in the
    ascending selection rows, that hold every one of points: the rows
    holding the first, then those of them holding the next, and so on; no
    points keep every row.  A row holds a point at most once, so the flat
    positions of a point give its rows in order.

    Over the whole table a point is one comparison, with no copy of the
    table; a selection is gathered (take along axis 0, several times
    faster than fancy indexing) in pieces of _CHUNK entries, so no
    temporary grows with it."""
    theta = table.shape[1]
    step = max(1, _CHUNK // theta)
    keep = rows
    # a Python int compares in the table's own dtype; a numpy int64 would
    # widen every entry it is compared with
    for p in map(int, points):
        if keep is None:
            keep = np.flatnonzero(table == p) // theta
            continue
        hits = [lo + np.flatnonzero(
                    table.take(keep[lo:lo + step], axis=0) == p) // theta
                for lo in range(0, len(keep), step)]
        keep = keep[np.concatenate(hits)] if hits else keep
    return np.arange(len(table)) if keep is None else keep


def _counts(table: np.ndarray, rows: np.ndarray,
            minlength: int) -> np.ndarray:
    """np.bincount(table[rows].ravel(), minlength=minlength), with no copy
    of the rows counted: they are gathered in pieces of _CHUNK entries, or
    of minlength if that is more, so adding up the pieces' counts costs no
    more than gathering them."""
    step = max(1, max(_CHUNK, minlength) // table.shape[1])
    out = np.zeros(minlength, dtype=np.intp)
    for lo in range(0, len(rows), step):
        part = table.take(rows[lo:lo + step], axis=0)
        # an entry past minlength lengthens the counts, as in bincount
        counts = np.bincount(part.ravel(), minlength=len(out))
        counts[:len(out)] += out
        out = counts
    return out


def _gather(values: np.ndarray, table: np.ndarray,
            rows: np.ndarray) -> np.ndarray:
    """values[table[rows]], in pieces of _CHUNK entries: take reads the
    table's narrow entries as indices, but converts each piece of them to
    intp, so no such copy grows with rows."""
    theta = table.shape[1]
    out = np.empty((len(rows), theta), dtype=values.dtype)
    step = max(1, _CHUNK // theta)
    for lo in range(0, len(rows), step):
        out[lo:lo + step] = values.take(
            table.take(rows[lo:lo + step], axis=0))
    return out


def _row_reduce(values: np.ndarray, table: np.ndarray) -> np.ndarray:
    """values[table].sum(axis=1), in values' dtype.  While rows are no
    wider than the table is long, one gather per column through the
    strided column views of _CHUNK rows at a time: no N x theta temporary,
    no copy of the table, and each block's rows stay in cache over its
    columns, where whole columns would fetch every row once per column.
    Only sums reduce a whole row; containment reads a few of its columns
    (_rows_within)."""
    if table.shape[1] > len(table):
        return values.take(table).sum(axis=1, dtype=values.dtype)
    out = np.empty(len(table), dtype=values.dtype)
    for lo in range(0, len(table), _CHUNK):
        part, acc = table[lo:lo + _CHUNK], out[lo:lo + _CHUNK]
        acc[:] = values.take(part[:, 0])
        for col in part.T[1:]:
            acc += values.take(col)
    return out


def _mask(geom: Geometry, sub: Subspace) -> np.ndarray:
    """Over the geometry's points: True on sub, False off it."""
    mask = np.zeros(geom.num_points, dtype=bool)
    mask[geom.points_of(sub)] = True
    return mask


def _positions(geom: Geometry, sub: Subspace) -> np.ndarray:
    """Over the geometry's points: -1 off sub, and on sub the point's index
    in sub's own PG, which is its position in points_of(sub) (c -> c.M
    keeps the order, see Geometry.point_table)."""
    pts = geom.points_of(sub)
    # the smallest signed dtype that holds -1 and every position (sub is
    # never empty here)
    pos = np.full(geom.num_points, -1, dtype=np.min_scalar_type(-len(pts)))
    pos[pts] = np.arange(len(pts))
    return pos


# ---------------------------------------------------------------------------
# set algebra
# ---------------------------------------------------------------------------

def complement(F: KFamily) -> KFamily:
    total = F.geom.subspace_count(F.k)
    return KFamily(F.geom, F.k, np.delete(np.arange(total), F.indices))


def union_disjoint(F: KFamily, G: KFamily) -> KFamily:
    _same_space(F, G)
    if np.isin(F.indices, G.indices, assume_unique=True).any():
        raise NotDisjoint("families share members")
    return KFamily(F.geom, F.k, np.concatenate((F.indices, G.indices)))


def difference(F: KFamily, G: KFamily) -> KFamily:
    """G \\ F for F ⊆ G."""
    _same_space(F, G)
    keep = np.isin(G.indices, F.indices, assume_unique=True, invert=True)
    if G.size - np.count_nonzero(keep) != F.size:
        raise NotContained("first family not contained in the second")
    return KFamily(F.geom, F.k, G.indices[keep])


def _same_space(F: KFamily, G: KFamily):
    if F.geom.key != G.geom.key or F.k != G.k:
        raise GuardViolated("families live in different spaces")


# ---------------------------------------------------------------------------
# restriction / projection / PG<->AG
# ---------------------------------------------------------------------------

def restrict(F: KFamily, pi: Subspace) -> KFamily:
    """Members contained in pi, re-indexed in pi's internal geometry."""
    if F.geom.kind != "PG":
        raise GuardViolated("restriction is defined on projective families")
    i = pi.k
    if i < F.k + 1:
        raise DimensionTooSmall(f"dim pi = {i} < k+1 = {F.k + 1}")
    geom = F.geom
    sub_geom = geometry("PG", i, geom.q)
    pos = _positions(geom, pi)
    table = geom.point_table(F.k)
    inside = _rows_within(pos >= 0, table, _basis_columns(geom.q, F.k),
                          F.indices)
    out = _blocks_of(sub_geom, F.k, _gather(pos, table, inside))
    assert (out >= 0).all()
    return KFamily(sub_geom, F.k, out)


def project(F: KFamily, pi: Subspace) -> KFamily:
    """Images K ∩ beta of the members through pi, in the canonical
    complement beta of pi's pivot columns; a (k-i-1)-set of PG(n-i-1,q)."""
    if F.geom.kind != "PG":
        raise GuardViolated("projection is defined on projective families")
    i = pi.k
    if i > F.k - 1:
        raise DimensionTooLarge(f"dim pi = {i} > k-1 = {F.k - 1}")
    geom = F.geom
    beta = canonical_complement(pi, geom.field)
    sub_geom = geometry("PG", geom.n - i - 1, geom.q)
    table = geom.point_table(F.k)
    # pi lies in the members holding its RREF rows; an empty pi in every one
    through = _rows_holding(
        table, geom.points_of(pi)[_basis_columns(geom.q, i)], F.indices)
    # K ∩ beta is a (k-i-1)-space for every K through pi (beta is skew to
    # pi and spans the space with it), so each row keeps as many points
    images = _gather(_positions(geom, beta), table, through)
    images = images[images >= 0].reshape(len(images),
                                         gauss_binom(F.k - i, 1, geom.q))
    out = _blocks_of(sub_geom, F.k - i - 1, images)
    assert (out >= 0).all()
    assert len(set(out.tolist())) == len(out), \
        "projection produced a duplicate image"
    return KFamily(sub_geom, F.k - i - 1, out)


def pg_to_ag(F: KFamily, H: Subspace | None = None) -> KFamily:
    """View a projective family not meeting hyperplane H as an affine one.

    H defaults to X0 = 0; any hyperplane is moved there by a coordinate
    change T (a collineation, so the family's parameter and CL status are
    unchanged), which permutes the points, and each member's image is
    read off its permuted points."""
    if F.geom.kind != "PG":
        raise GuardViolated("pg_to_ag expects a projective family")
    geom = F.geom
    field = geom.field
    n1 = geom.n + 1
    if H is None:
        H = _default_hyperplane(geom)
    if H.ncols != n1:
        raise DimensionMismatch(
            f"hyperplane of {H.ncols} coordinates in {geom!r}, which has {n1}")
    if H.k != geom.n - 1:
        raise GuardViolated("H must be a hyperplane")
    # H's normal a is 1 in H's one free column s and -H[j][s] in pivot
    # column j; RREF puts s right of every pivot with H[j][s] != 0, so s is
    # the largest index in a's support.  T has the columns a, then e_j for
    # every j != s: invertible, as a is the only column with an entry in
    # row s.  So p.T is p.a followed by p without column s (X0 = 0 has
    # s = 0, a = e_0 and T = I).
    s = next(c for c in range(n1) if c not in H.pivots)
    a = np.zeros(n1, dtype=np.int64)
    a[s] = 1
    for row, c in zip(H.mat, H.pivots):
        a[c] = field.neg(row[s])
    T = np.column_stack([a, np.delete(np.eye(n1, dtype=np.int64), s, axis=1)])
    points = geom.subspaces(0).codes[:, 0].astype(np.int64)
    images = _combine(field, points, T[None]).transpose(1, 0, 2)
    # p.a leads p.T when it is nonzero, and is scaled to 1; when p.a = 0,
    # p's leading 1 lies left of s (p.a = p_s + terms left of s) and leads
    lead = np.where(images[:, 0, 0] == 0, 1, images[:, 0, 0])
    inverse = np.zeros(geom.q, dtype=np.int64)
    factors = np.flatnonzero(np.bincount(lead))
    inverse[factors] = field.inv_all(factors.tolist())
    images = _combine(field, inverse[lead][:, None, None], images)[:, 0]
    perm = geom._rank(images)
    ag = geometry("AG", geom.n, geom.q)
    out = _blocks_of(ag, F.k, _gather(perm, geom.point_table(F.k), F.indices))
    inside = np.flatnonzero(out < 0)
    if len(inside):
        raise MemberInsideHyperplane(int(F.indices[inside[0]]))
    return KFamily(ag, F.k, out)


def ag_to_pg(F: KFamily) -> KFamily:
    """The same members viewed in the projective closure."""
    if F.geom.kind != "AG":
        raise GuardViolated("ag_to_pg expects an affine family")
    return KFamily(F.geom.closure(), F.k,
                   F.indices + F.geom.count_at_infinity(F.k))


# ---------------------------------------------------------------------------
# counting-identity checkers
# ---------------------------------------------------------------------------

def _pair_profile(F: KFamily) -> np.ndarray:
    """N x (k+2) int64 array: row K counts the members by their meet with
    K, in column d + 1 those meeting it in a d-space (d <= k; in AG an
    affine d-flat), in column 0 those sharing no point.

    From degree sums over the sub tables, column by column, with no pair
    counted: summed over K's j-spaces, the members through each give
    s_j = sum_{d >= j} c_d m_dj, m_dj the j-spaces of a d-space (affine
    d-flat), subspace_count(j) of geometry(kind, d, q).  Two k-spaces
    (affine k-flats that meet) meet in at least a (2k-n)-space, so with
    c_k = chi, back-substitution from j = k-1 down to max(0, 2k-n) gives
    every c_d for d >= 0, and c_-1 is the rest of |L|."""
    geom, k, q = F.geom, F.k, F.geom.q
    prof = np.zeros((geom.subspace_count(k), k + 2), dtype=np.int64)
    prof[:, k + 1] = F.chi
    for j in range(k - 1, max(0, 2 * k - geom.n) - 1, -1):
        table = geom.sub_table(k, j)
        deg = F.degrees if j == 0 else _counts(
            table, F.indices, geom.subspace_count(j))
        s = _row_reduce(deg, table)
        for d in range(j + 1, k + 1):
            s -= prof[:, d + 1] * geometry(geom.kind, d, q).subspace_count(j)
        prof[:, j + 1] = s
    prof[:, 0] = F.size - prof[:, 1:].sum(axis=1)
    prof.setflags(write=False)
    return prof


class Violations(Sequence):
    """A checker's violations, read-only: prefix + (K, expected[chi(K)],
    column[K]) for each k-space K, ascending, whose entry of the profile
    column is not its prediction, then the tuples of rest.

    Only the failing positions are stored, beside the column and chi
    (views the family keeps anyway); each tuple is built when it is read,
    by index, by slice (a list) or by iteration, so a family that misses
    the identity at every k-space costs one array of positions.  It
    compares equal to a list of the same tuples, as a list would."""

    def __init__(self, chi: np.ndarray, column: np.ndarray, expected: tuple,
                 prefix: tuple = (), rest=()):
        # counts are never negative, so -1 stands for a non-integer
        # prediction
        wanted = np.array([e.numerator if e.denominator == 1 else -1
                           for e in expected])[chi]
        self._positions = np.flatnonzero(column != wanted)
        self._chi, self._column = chi, column
        self._expected, self._prefix = expected, prefix
        self._rest = list(rest)

    def _build(self, positions: np.ndarray) -> list:
        return [self._prefix + (K, self._expected[c], a) for K, c, a in zip(
            positions.tolist(), self._chi.take(positions).tolist(),
            self._column.take(positions).tolist())]

    def __len__(self) -> int:
        return len(self._positions) + len(self._rest)

    def __getitem__(self, j):
        # normalised like a list's index or slice, IndexError included
        r = range(len(self))[j]
        if isinstance(r, int):
            return self[r:r + 1][0]
        m = len(self._positions)
        picks = np.arange(r.start, r.stop, r.step)
        built = self._build(self._positions.take(picks[picks < m]))
        rest = [self._rest[i - m] for i in picks[picks >= m].tolist()]
        # the positions come before rest, and after it when read backwards
        return built + rest if r.step > 0 else rest + built

    def __iter__(self):
        for lo in range(0, len(self._positions), _CHUNK):
            yield from self._build(self._positions[lo:lo + _CHUNK])
        yield from self._rest

    def __eq__(self, other):
        if not isinstance(other, (list, Violations)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self):
        return f"Violations(len={len(self)})"


def check_disjoint_count(F: KFamily) -> CheckReport:
    """Every k-space K misses exactly (x - chi(K)) [n-k-1 k]_q q^(k^2+k)
    members."""
    if F.geom.kind != "PG":
        raise GuardViolated("disjoint-count identity is projective")
    # the meet profile's i = k+1 case: K meets those members in nothing
    return check_meet_profile(F, F.k + 1)


def meet_profile_expected(F: KFamily, i: int, member: bool) -> Fraction:
    """Predicted number of members meeting a k-space in a (k-i)-space."""
    geom, k = F.geom, F.k
    n, q = geom.n, geom.q
    x = F.x
    common = q ** (i * (i - 1)) * gauss0(n - k - 1, i - 1, q)
    if member:
        # the (q^(k+1)-1)/(q^(k-i+1)-1) prefactor combines with [k i]_q into
        # [k+1 i]_q, which also gives the right i = k+1 (disjoint) case
        t1 = (x - 1) * gauss0(k + 1, i, q)
        t2 = Fraction(q ** i * (q ** (n - k) - 1), q ** i - 1) * gauss0(k, i, q)
        return (t1 + t2) * common
    return x * common * gauss0(k + 1, i, q)


def check_meet_profile(F: KFamily, i: int) -> CheckReport:
    """Brute-force (k-i)-space meet counts against the two-case formula."""
    if F.geom.kind != "PG":
        raise GuardViolated("meet-profile identity is projective")
    if not (_integers([i]) and 1 <= i <= F.k + 1):
        raise GuardViolated(f"i must be an integer in [1, k+1], got {i!r}")
    expected = tuple(meet_profile_expected(F, i, member)
                     for member in (False, True))
    violations = Violations(F.chi, F._profile[:, F.k - i + 1], expected)
    return CheckReport(not violations, violations)


def check_spread(F: KFamily, S) -> bool:
    """|F ∩ S| == x for a validated k-spread S, given as positions in
    F.geom.subspaces(k) (such as ``field_reduction_spread`` returns).

    For AG families the spread must partition the affine points; parallel
    elements sharing a point at infinity are fine."""
    geom, k = F.geom, F.k
    if not (isinstance(S, np.ndarray) or _integers(S)):
        # np.asarray would read [False, 10] as [0, 10]
        raise NotASpread("element is not a k-space of the geometry")
    idxs = np.asarray(S).ravel()
    if idxs.dtype.kind not in "iu":
        # a float, a bool or a position past 64 bits is no position
        idxs = np.full(min(idxs.size, 1), -1)
    if ((idxs < 0) | (idxs >= geom.subspace_count(k))).any():
        raise NotASpread("element is not a k-space of the geometry")
    # how often each point is covered, in one pass over the elements' rows
    cover = _counts(geom.point_table(k), idxs, geom.num_points)
    if (cover > 1).any():
        raise NotASpread("elements are not pairwise disjoint")
    if not cover.all():
        raise NotASpread("elements do not cover every point")
    return int(F.chi[idxs].sum()) == F.x


def check_affine_line(F: KFamily) -> CheckReport:
    """Affine line-class identities: disjointness counts for every line,
    and exactly x members through every point at infinity."""
    if F.geom.kind != "AG" or F.k != 1:
        raise GuardViolated("affine-line identity requires an AG line family")
    geom = F.geom
    n, q = geom.n, geom.q
    x = F.x
    factor = q * q * gauss0(n - 2, 1, q) + 1
    # the second RREF row of an affine line is its direction, the point
    # at infinity of its closure, ranked in closed form; the points at
    # infinity (X0 = 0) are the closure's first count_at_infinity(0)
    directions = geom.subspaces(1).codes.take(F.indices, axis=0)[:, 1]
    ranks = geom._rank(directions)
    through = np.bincount(ranks, minlength=geom.count_at_infinity(0)).tolist()
    points = geom.closure().subspaces(0).codes[:len(through), 0]
    violations = Violations(
        F.chi, F._profile[:, 0], (x * factor, (x - 1) * factor), ("line",),
        [("infinite-point", tuple(points[i].tolist()), x, count)
         for i, count in enumerate(through) if count != x])
    return CheckReport(not violations, violations)


def check_drudge_identity(F: KFamily, p, tau: Subspace) -> bool:
    """Exact pencil/subspace counting identity for a point p in tau."""
    if F.geom.kind != "PG":
        raise GuardViolated("identity stated for projective families")
    geom, k = F.geom, F.k
    n, q = geom.n, geom.q
    p_idx = _resolve_point(geom, p)
    in_tau = _mask(geom, tau)
    if not in_tau[p_idx]:
        raise PointNotInSubspace("p must lie in tau")
    i = tau.k
    if i < k + 1:
        raise GuardViolated("tau must have dimension >= k+1")
    table = geom.point_table(k)
    inside = _rows_within(in_tau, table, _basis_columns(q, k), F.indices)
    # p's degree among the members, and among those inside tau
    a, b, c = (int(F.degrees[p_idx]), len(inside),
               int(_counts(table, inside, geom.num_points)[p_idx]))
    g_n1k = gauss_binom(n - 1, k, q)
    g_i1k = gauss_binom(i - 1, k, q)
    qi, qk, qn = q ** i - 1, q ** k - 1, q ** n - 1
    # a + g_n1k qk b/(g_i1k qi) = g_n1k c/g_i1k + qk |L|/qn, times g_i1k qi qn
    return (a * g_i1k * qi * qn + g_n1k * qk * qn * b
            == g_n1k * qi * qn * c + qk * g_i1k * qi * F.size)


def check_aid_identity(F: KFamily, K: int, t: int) -> bool:
    """The parameter equals the stated average of restricted parameters over
    all t-spaces through a fixed k-space K, given by its index."""
    if not _integers([K]):
        raise InvalidRange(f"k-space index {K!r} is not an integer")
    count = F.geom.subspace_count(F.k)
    if not 0 <= K < count:
        raise InvalidRange(f"k-space index {K} not in [0, {count})")
    return _aid_value(F, K, t) == F.x


def _aid_value(F: KFamily, K: int, t: int) -> Fraction:
    """The average of check_aid_identity, from K's meet profile.

    The restricted parameters sum by double counting: a member m meeting K
    in a d-space spans with K a w-space, w = 2k - d, and lies in the
    [n-w t-w]_q t-spaces through K + m, so the sum over tau of |L ∩ tau|
    is a weighted sum of K's meet profile."""
    geom, k = F.geom, F.k
    n, q = geom.n, geom.q
    if not (_integers([t]) and 2 * k + 1 <= t <= n - 1 and n >= 2 * k + 2):
        raise GuardViolated(
            f"requires an integer 2k+1 <= t <= n-1 and n >= 2k+2, got t={t!r}")
    if geom.kind != "PG":
        raise GuardViolated("averaging identity is projective")
    prof = F._profile[K]
    pairs = sum(int(prof[d + 1]) * gauss_binom(n - 2 * k + d, t - 2 * k + d, q)
                for d in range(-1, k + 1))
    total = Fraction(pairs, gauss_binom(t, k, q))
    chi = int(F.chi[K])
    return (total - gauss_binom(n - k, t - k, q) * chi) \
        / gauss_binom(n - k - 1, t - k - 1, q) + chi


def find_skew_space(F: KFamily):
    """Some (k+1)-space containing no member, or None.

    Search order: non-member k-spaces K in enumeration order, then the
    (k+1)-spaces through K in enumeration order."""
    if F.geom.kind != "PG":
        raise GuardViolated("skew-space search is projective")
    geom, k = F.geom, F.k
    # the k-spaces inside each (k+1)-space; those inside a free one, a
    # (k+1)-space holding no member, are non-members
    table = geom.sub_table(k + 1, k)
    free = _rows_within(~F.chi.view(bool), table, range(table.shape[1]))
    if not len(free):
        return None
    rows = table.take(free, axis=0)
    K = rows.min()
    j = free[(rows == K).any(axis=1)][0]
    return geom.subspaces(k + 1)[j]


def check_pencil_propagation(F: KFamily, pi: Subspace) -> bool:
    """If F restricted to pi is the pencil of a point p, F must be the full
    pencil of p."""
    R = restrict(F, pi)
    sub_geom = R.geom
    if not R.size:
        raise PreconditionNotMet("restriction is empty")
    common = np.flatnonzero(R.degrees == R.size)
    if not len(common):
        raise PreconditionNotMet("restriction has no common point")
    p_int = int(common[0])
    pencil = construct_trivial(sub_geom, R.k, "point_pencil", point=p_int)
    if R != pencil:
        raise PreconditionNotMet("restriction is not a point-pencil")
    # c -> c.M keeps the lexicographic order (see Geometry.point_table), so
    # internal point j of pi is the j-th point of pi in full coordinates
    p_full = int(F.geom.points_of(pi)[p_int])
    return F == construct_trivial(F.geom, F.k, "point_pencil", point=p_full)


# ---------------------------------------------------------------------------
# family JSON format
# ---------------------------------------------------------------------------

def _family_head(F: KFamily) -> dict:
    geom = F.geom
    return {"space": geom.kind, "p": geom.field.p, "h": geom.field.h,
            "n": geom.n, "k": F.k}


def family_to_dict(F: KFamily) -> dict:
    codes = F.geom.subspaces(F.k).codes.take(F.indices, axis=0)
    return {**_family_head(F), "members": codes.tolist()}


def iter_family_json(F: KFamily):
    """The pieces of `family_json`: the header, the members in pieces of at
    most _CHUNK codes, then the tail.

    The indenting encoder is pure Python, so the header goes through
    json.dumps with no members, and each piece of members through one
    %-template of their (k+1)(n+1) codes each, one member per line in that
    encoder's layout."""
    head = json.dumps({**_family_head(F), "members": []}, indent=1)
    if not F.size:
        yield head + "\n"
        return
    codes = F.geom.subspaces(F.k).codes
    _, r, ncols = codes.shape
    row = "   [\n" + ",\n".join(["    %d"] * ncols) + "\n   ]"
    member = "  [\n" + ",\n".join([row] * r) + "\n  ]"
    step = max(1, _CHUNK // (r * ncols))
    yield f"{head[:-4]}[\n"  # head ends in "[]\n}"
    for lo in range(0, F.size, step):
        part = F.indices[lo:lo + step]
        text = ",\n".join([member] * len(part)) % tuple(
            codes.take(part, axis=0).ravel().tolist())
        yield f",\n{text}" if lo else text
    yield "\n ]\n}\n"


def family_json(F: KFamily) -> str:
    """json.dumps(family_to_dict(F), indent=1) + "\\n", byte for byte."""
    return "".join(iter_family_json(F))


def save_family(F: KFamily, path: str) -> None:
    with open(path, "w") as fh:
        fh.writelines(iter_family_json(F))


def _header_int(data: dict, key: str) -> int:
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise FamilyFormatError(f"{key} must be an integer, got {value!r}")
    return value


def _header_order(p: int, h: int) -> int:
    """The order p**h, after bounding p and h so that computing it is cheap."""
    # p >= 2 and p**h <= MAX_ORDER force h < MAX_ORDER.bit_length()
    if not (2 <= p <= MAX_ORDER and 1 <= h < MAX_ORDER.bit_length()) \
            or p ** h > MAX_ORDER:
        raise FamilyFormatError(
            f"field order p^h with p={p}, h={h} is not in [2, {MAX_ORDER}]")
    q = p ** h
    try:
        named = factor_prime_power(q)
    except NotPrime as exc:
        raise FamilyFormatError(f"{p}^{h} is not a prime power") from exc
    if named != (p, h):
        raise FamilyFormatError(
            f"p={p}, h={h} does not name GF({q}) by its characteristic: "
            f"expected p={named[0]}, h={named[1]}")
    return q


def subspace_from_codes(rows, field, ncols: int, what: str) -> Subspace:
    """The subspace of an untrusted matrix of field codes, named `what` in
    errors: a list of at most ncols rows, each a list of ncols ints in
    [0, q) (JSON's exact types, as _member_codes reads them: no bools), in
    reduced row echelon form and of full rank."""
    if type(rows) is not list or len(rows) > ncols or any(
            type(row) is not list or len(row) != ncols for row in rows):
        raise FamilyFormatError(
            f"{what}: expected a list of at most {ncols} rows of {ncols} codes")
    for row in rows:
        for c in row:
            if type(c) is not int or not 0 <= c < field.q:
                raise FamilyFormatError(
                    f"{what}: entry {c!r} is not a code in [0, {field.q})")
    sub = make_subspace(rows, field, ncols)
    if sub.mat != tuple(map(tuple, rows)):
        raise FamilyFormatError(
            f"{what}: not in reduced row echelon form or not of full rank")
    return sub


def family_from_dict(data: dict) -> KFamily:
    if not isinstance(data, dict):
        raise FamilyFormatError("family JSON must be an object")
    keys = ("space", "p", "h", "n", "k", "members")
    for key in keys:
        if key not in data:
            raise FamilyFormatError(f"missing key {key!r}")
    for key in data:
        if key not in keys:
            raise FamilyFormatError(f"unknown key {key!r}")
    space = data["space"]
    if space not in ("PG", "AG"):
        raise FamilyFormatError(f"space must be PG or AG, got {space!r}")
    p, h, n, k = (_header_int(data, key) for key in ("p", "h", "n", "k"))
    q = _header_order(p, h)
    if not 0 <= k <= n or n < 1:
        raise FamilyFormatError(f"need n >= 1 and 0 <= k <= n, got n={n}, k={k}")
    if not isinstance(data["members"], list):
        raise FamilyFormatError("members must be a list")
    geom = geometry(space, n, q)
    geom.subspaces(k)  # refuses a level past SUBSPACE_CAP first
    codes = _member_codes(data["members"], k + 1, n + 1)
    found = geom.subspace_index(k, codes)
    misses = np.flatnonzero(found < 0)
    if len(codes) == len(data["members"]) and not len(misses):
        # also the empty family
        order = np.argsort(found, kind="stable")
        repeats = order[1:][found[order[1:]] == found[order[:-1]]]
        if len(repeats):
            j = int(repeats.min())
            first = int(np.flatnonzero(found == found[j])[0])
            raise FamilyFormatError(f"member {j}: repeats member {first}")
        return KFamily(geom, k, found)
    # the first faulty member is the first miss of the lookup, or else the
    # first member that does not parse (those before it are found); if it
    # passes this check, it is a k-space of the closure inside X0 = 0
    mi = int(misses[0]) if len(misses) else len(codes)
    mat = data["members"][mi]
    if type(mat) is not list or len(mat) != k + 1:
        raise FamilyFormatError(
            f"member {mi}: expected a {k + 1}x{n + 1} matrix")
    subspace_from_codes(mat, geom.field, n + 1, f"member {mi}")
    raise FamilyFormatError(
        f"member {mi}: not a {k}-space of {space}({n},{q})")


def _member_codes(members: list, r: int, ncols: int) -> np.ndarray:
    """The longest prefix of the members in which each is a list of r lists
    of ncols ints (not bools) that fit in int64, as a u x r x ncols int64
    array.  The lookup refuses entries outside [0, q).

    The members are checked and converted in pieces of at most _CHUNK
    codes, into one array, so no list of every row or code is built."""
    size = r * ncols
    codes = np.empty((len(members), r, ncols), dtype=np.int64)
    flat = codes.reshape(-1)
    step = max(1, _CHUNK // size)
    for lo in range(0, len(members), step):
        piece = members[lo:lo + step]
        u = _first_not(piece, list, r)
        rows = list(chain.from_iterable(islice(piece, u)))
        u = _first_not(rows, list, ncols) // r
        entries = list(chain.from_iterable(islice(rows, u * r)))
        # the exact type: bool is a subclass of int
        u = _first_not(entries, int) // size
        del entries[u * size:]
        try:
            part = np.array(entries, dtype=np.int64)
        except OverflowError:
            u = next(i for i, c in enumerate(entries)
                     if not -2 ** 63 <= c < 2 ** 63) // size
            part = np.array(entries[:u * size], dtype=np.int64)
        flat[lo * size:(lo + u) * size] = part
        if u < len(piece):
            return codes[:lo + u]
    return codes


def _first_not(items: list, kind: type, length: int | None = None) -> int:
    """The index of the first item not of exactly the type kind (or not of
    the given length), or len(items) when there is none."""
    if set(map(type, items)) <= {kind} and (
            length is None or set(map(len, items)) <= {length}):
        return len(items)
    return next(i for i, x in enumerate(items) if type(x) is not kind
                or length is not None and len(x) != length)


def load_family(path: str) -> KFamily:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FamilyFormatError(f"invalid JSON: {exc}") from exc
    return family_from_dict(data)
