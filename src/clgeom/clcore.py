"""Cameron-Liebler k-set families: decision, constructions, transforms,
and brute-force verification of every counting identity.

A family is a set of k-space indices into its geometry's enumeration.  The
CL decision tests whether the 0/1 characteristic vector lies in the rational
row space of the point-(k-space) incidence matrix P.  Points and k-spaces
form a 2-design, so P P^T = (r-lambda) I + lambda J and the test is a
closed-form integer identity over the geometry's point table (see
``is_cl``); no rational matrix is built.

Every route here reads incidence from the point table, and the points of
other subspaces from ``Geometry.points_of``.  The transforms read each
image's canonical matrix off its sorted points (``geometry._blocks_of``),
with no elimination per member.  Every checker computes its counts by
brute force over the geometry (most of them from one meet profile, counted
in numpy) and compares them with the closed-form prediction in exact
rational arithmetic; checkers report violations instead of raising, so
they double as falsification tools.
"""

from __future__ import annotations

import json
import numbers
from collections import Counter
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import chain

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
    _blocks_of,
    _combine,
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

class KFamily:
    """An immutable set of k-spaces of a geometry, with exact parameter."""

    def __init__(self, geom: Geometry, k: int, members):
        self.geom = geom
        self.k = k
        self.members = frozenset(int(m) for m in members)
        count = geom.subspace_count(k)
        if self.members and (min(self.members) < 0 or max(self.members) >= count):
            raise ValueError("member index out of range")
        self._chi = None
        self._rows = None
        self._profile = None

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def x(self) -> Fraction:
        """|L| / [n k]_q; defined whether or not the family is CL."""
        return Fraction(self.size, gauss_binom(self.geom.n, self.k, self.geom.q))

    @property
    def chi(self) -> np.ndarray:
        if self._chi is None:
            v = np.zeros(self.geom.subspace_count(self.k), dtype=np.uint8)
            v[list(self.members)] = 1
            v.setflags(write=False)
            self._chi = v
        return self._chi

    def __eq__(self, other):
        return (isinstance(other, KFamily)
                and self.geom.key == other.geom.key
                and self.k == other.k
                and self.members == other.members)

    def __hash__(self):
        return hash((self.geom.key, self.k, self.members))

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
    violations: list = dc_field(default_factory=list)


def is_cl(F: KFamily) -> CLReport:
    """Decide membership of the characteristic vector chi in Im(P^T) (for
    AG, Im(A^T)) by the 2-design identity of the point table.

    Points against k-spaces of PG(n,q), and points against k-flats of
    AG(n,q), form a 2-(v, theta, lambda) design with every point on r
    blocks, so P P^T = (r-lambda) I + lambda J and r - lambda + v lambda =
    r theta.  For r > lambda the orthogonal projection of chi onto Im(P^T)
    is (P^T P chi - lambda theta |L| / r) / (r - lambda), so chi lies in
    Im(P^T) exactly when r P^T P chi - lambda theta |L| == r (r-lambda) chi.
    For k = n (one block, r = lambda) both sides vanish, as they should:
    Im(P^T) is then all of R^1.
    """
    geom = F.geom
    table = geom.point_table(F.k)
    nblocks, theta = table.shape
    v = geom.num_points
    on = np.bincount(table.ravel(), minlength=v)
    r = int(on[0])
    assert len(on) == v and (on == r).all(), "not every point lies on r blocks"
    lam, rest = divmod(r * (theta - 1), v - 1)
    assert rest == 0, "points and blocks do not form a 2-design"
    assert r - lam + v * lam == r * theta
    # Every term below lies in [0, r*theta*N] (a <= r, b <= r*theta,
    # lambda <= r, |L| <= N).  With N*theta = v*r and Fisher's v <= N for
    # 0 < k < n, r*theta*N = v*r^2 <= N^3 <= 10^18 below SUBSPACE_CAP; for
    # k = 0 and k = n it is v.
    assert r * theta * nblocks < 2 ** 63
    members = np.fromiter(F.members, dtype=np.intp, count=F.size)
    a = np.bincount(table[members].ravel(), minlength=v)  # P chi
    b = a[table].sum(axis=1)                               # P^T P chi
    chi = np.zeros(nblocks, dtype=np.int64)
    chi[members] = 1
    ok = np.array_equal(r * b - lam * theta * F.size, r * (r - lam) * chi)
    x = F.x
    assert 0 <= x <= x_max_param(geom.kind, geom.n, F.k, geom.q)
    return CLReport(ok, x, "design-identity")


# ---------------------------------------------------------------------------
# trivial constructions
# ---------------------------------------------------------------------------

def _default_hyperplane(geom: Geometry) -> Subspace:
    """The hyperplane X0 = 0, the canonical complement of the point e_0."""
    e0 = make_subspace([[1] + [0] * geom.n], geom.field)
    return canonical_complement(e0, geom.field)


def construct_trivial(geom: Geometry, k: int, kind: str, point=None,
                      hyperplane: Subspace | None = None,
                      complement_of: bool = False) -> KFamily:
    """Build a trivial family: empty, point_pencil, hyperplane_class,
    pencil_plus_hyperplane, or the complement of any of these."""
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
        pencil = set()
        if kind == "pencil_plus_hyperplane":
            p_idx = _resolve_point(geom, point)
            if p_idx in geom.points_of(H):
                raise AnchorInvalid("anchor point lies in the anchor hyperplane")
            pencil = set(_pencil(geom, k, p_idx))
        cls = _indices_inside(geom, k, H)
        assert not pencil & cls
        fam = KFamily(geom, k, pencil | cls)
    else:
        raise AnchorInvalid(f"unknown trivial kind {kind!r}")
    if complement_of:
        fam = complement(fam)
    return fam


def _resolve_point(geom: Geometry, point) -> int:
    if point is None:
        return 0
    # numpy integers are Integral too, such as np.flatnonzero hands out
    if isinstance(point, numbers.Integral):
        point = int(point)
        if not 0 <= point < len(geom.points):
            raise AnchorInvalid(f"point index {point} out of range")
        return point
    pt = tuple(int(c) for c in point)
    idx = geom.point_index.get(pt)
    if idx is None:
        raise AnchorInvalid(f"{pt} is not a point of {geom!r}")
    return idx


def _pencil(geom: Geometry, k: int, p_idx: int):
    """Indices of the k-spaces through point p_idx, read off the point table."""
    return np.flatnonzero((geom.point_table(k) == p_idx).any(axis=1)).tolist()


def _indices_inside(geom: Geometry, k: int, outer: Subspace):
    inside = (_positions(geom, outer) >= 0)[geom.point_table(k)].all(axis=1)
    return set(np.flatnonzero(inside).tolist())


def _positions(geom: Geometry, sub: Subspace) -> np.ndarray:
    """Over the geometry's points: -1 off sub, and on sub the point's index
    in sub's own PG, which is its position in points_of(sub) (c -> c.M
    keeps the order, see Geometry._locate)."""
    pts = geom.points_of(sub)
    pos = np.full(geom.num_points, -1, dtype=np.int64)
    pos[pts] = np.arange(len(pts))
    return pos


def _member_rows(F: KFamily) -> np.ndarray:
    """The point-table rows of F's members in ascending order, cached on F."""
    if F._rows is None:
        rows = F.geom.point_table(F.k)[np.flatnonzero(F.chi)]
        rows.setflags(write=False)
        F._rows = rows
    return F._rows


# ---------------------------------------------------------------------------
# set algebra
# ---------------------------------------------------------------------------

def complement(F: KFamily) -> KFamily:
    total = F.geom.subspace_count(F.k)
    return KFamily(F.geom, F.k, set(range(total)) - F.members)


def union_disjoint(F: KFamily, G: KFamily) -> KFamily:
    _same_space(F, G)
    if F.members & G.members:
        raise NotDisjoint("families share members")
    return KFamily(F.geom, F.k, F.members | G.members)


def difference(F: KFamily, G: KFamily) -> KFamily:
    """G \\ F for F ⊆ G."""
    _same_space(F, G)
    if not F.members <= G.members:
        raise NotContained("first family not contained in the second")
    return KFamily(F.geom, F.k, G.members - F.members)


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
    rows = _member_rows(F)
    inside = (pos >= 0)[rows].all(axis=1)
    out = _blocks_of(sub_geom, F.k, pos[rows[inside]])
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
    rows = _member_rows(F)
    in_pi = _positions(geom, pi) >= 0
    # member rows hold distinct points, so pi lies in those holding all of it
    through = in_pi[rows].sum(axis=1) == in_pi.sum()
    # K ∩ beta is a (k-i-1)-space for every K through pi (beta is skew to
    # pi and spans the space with it), so each row keeps as many points
    images = _positions(geom, beta)[rows[through]]
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
    for c in np.flatnonzero(np.bincount(lead)).tolist():
        inverse[c] = field.inv(c)
    images = _combine(field, inverse[lead][:, None, None], images)
    perm = geom.subspace_index(0, images)
    assert (perm >= 0).all()
    ag = geometry("AG", geom.n, geom.q)
    out = _blocks_of(ag, F.k, perm[_member_rows(F)])
    inside = np.flatnonzero(out < 0)
    if len(inside):
        raise MemberInsideHyperplane(int(np.flatnonzero(F.chi)[inside[0]]))
    return KFamily(ag, F.k, out)


def ag_to_pg(F: KFamily) -> KFamily:
    """The same members viewed in the projective closure."""
    if F.geom.kind != "AG":
        raise GuardViolated("ag_to_pg expects an affine family")
    ag = F.geom
    pg = ag.closure()
    out = pg.subspace_index(F.k,
                            ag.subspaces(F.k).codes[np.flatnonzero(F.chi)])
    assert (out >= 0).all()
    return KFamily(pg, F.k, out)


# ---------------------------------------------------------------------------
# counting-identity checkers
# ---------------------------------------------------------------------------

def _meets(geom: Geometry, k: int, blocks: np.ndarray,
           rows: np.ndarray) -> np.ndarray:
    """For each block (a row of point indices), the subspaces `rows`
    counted by their meet with it: in column d + 1 those meeting it in a
    d-space (d <= k; [d+1 1]_q points in PG, q^d affine points in AG), in
    column 0 those sharing no point.

    Lists the subspaces through each point, gathers them over each block's
    points, and counts each (block, subspace) pair.  About eight arrays as
    long as a chunk's pairs are alive at once, so a chunk of _CHUNK // 2
    pairs keeps them under 1 MB (larger chunks measured slower)."""
    sizes = [gauss_binom(d + 1, 1, geom.q) if geom.kind == "PG"
             else geom.q ** d for d in range(k + 1)]
    column = np.full(sizes[-1] + 1, -1, dtype=np.int64)
    column[[0] + sizes] = np.arange(k + 2)
    out = np.zeros((len(blocks), k + 2), dtype=np.int64)
    size = len(rows)
    flat = rows.ravel()
    through = np.argsort(flat, kind="stable") // rows.shape[1]  # by point
    deg = np.bincount(flat, minlength=geom.num_points)
    start = np.cumsum(deg) - deg
    load = deg[blocks].sum(axis=1)  # pairs gathered by each block
    ends = np.cumsum(load)
    lo = 0
    while lo < len(blocks):
        base = ends[lo - 1] if lo else 0
        hi = max(lo + 1,
                 int(np.searchsorted(ends, base + _CHUNK // 2, "right")))
        pts = blocks[lo:hi].ravel()
        lens = deg[pts]
        idx = np.repeat(start[pts] - (np.cumsum(lens) - lens), lens)
        idx += np.arange(len(idx))
        key = np.repeat(np.arange(hi - lo) * size, load[lo:hi])
        key += through[idx]
        pairs, shared = np.unique(key, return_counts=True)
        cols = column[shared]
        assert (cols > 0).all(), "two subspaces share a non-subspace"
        out[lo:hi] = np.bincount(pairs // size * (k + 2) + cols,
                                 minlength=(hi - lo) * (k + 2)).reshape(hi - lo, -1)
        lo = hi
    out[:, 0] = size - out[:, 1:].sum(axis=1)
    return out


def _pair_profile(F: KFamily) -> np.ndarray:
    """N x (k+2) int64 array: row K counts the members by their meet with
    K (see _meets).

    A family with more than half the blocks is profiled through its
    complement.  The collineation group is transitive on k-spaces, so every
    K meets the N blocks as block 0 does."""
    if F._profile is None:
        geom, k = F.geom, F.k
        table = geom.point_table(k)
        if 2 * F.size > len(table):
            every = _meets(geom, k, table, table[:1]).sum(axis=0)
            prof = every - _meets(geom, k, table, table[F.chi == 0])
        else:
            prof = _meets(geom, k, table, table[F.chi == 1])
        prof.setflags(write=False)
        F._profile = prof
    return F._profile


def _violations(F: KFamily, actual: np.ndarray, expected: tuple) -> list:
    """(K, expected, actual) for each K, ascending, whose entry of the
    profile column `actual` is not expected[chi(K)]."""
    chi = F.chi
    # counts are never negative, so -1 stands for a non-integer prediction
    wanted = np.array([e.numerator if e.denominator == 1 else -1
                       for e in expected])[chi]
    return [(K, expected[chi[K]], int(actual[K]))
            for K in np.flatnonzero(actual != wanted).tolist()]


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
    if not 1 <= i <= F.k + 1:
        raise GuardViolated(f"i must be in [1, k+1], got {i}")
    expected = tuple(meet_profile_expected(F, i, member)
                     for member in (False, True))
    violations = _violations(F, _pair_profile(F)[:, F.k - i + 1], expected)
    return CheckReport(not violations, violations)


def check_spread(F: KFamily, S) -> bool:
    """|F ∩ S| == x for a validated k-spread S (list of Subspace).

    For AG families the spread must partition the affine points; parallel
    elements sharing a point at infinity are fine."""
    geom, k = F.geom, F.k
    table = geom.point_table(k)
    # elements of another shape are no k-spaces either
    shaped = [j for j, s in enumerate(S)
              if s.k == k and s.ncols == geom.n + 1]
    idxs = np.full(len(S), -1)
    idxs[shaped] = geom.subspace_index(k, [S[j].mat for j in shaped])
    covered = np.zeros(geom.num_points, dtype=bool)
    for j in idxs.tolist():
        if j < 0:
            raise NotASpread("element is not a k-space of the geometry")
        pts = table[j]
        if covered[pts].any():
            raise NotASpread("elements are not pairwise disjoint")
        covered[pts] = True
    if not covered.all():
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
    violations = [("line",) + v for v in _violations(
        F, _pair_profile(F)[:, 0], (x * factor, (x - 1) * factor))]
    # the second RREF row of an affine line is its direction, the point
    # at infinity of its closure
    directions = geom.subspaces(1).codes[np.flatnonzero(F.chi), 1]
    through = Counter(map(tuple, directions.tolist()))
    for pt in geom.infinite_points():
        if through[pt] != x:
            violations.append(("infinite-point", pt, x, through[pt]))
    return CheckReport(not violations, violations)


def check_drudge_identity(F: KFamily, p, tau: Subspace) -> bool:
    """Exact pencil/subspace counting identity for a point p in tau."""
    if F.geom.kind != "PG":
        raise GuardViolated("identity stated for projective families")
    geom, k = F.geom, F.k
    n, q = geom.n, geom.q
    p_idx = _resolve_point(geom, p)
    in_tau = _positions(geom, tau) >= 0
    if not in_tau[p_idx]:
        raise PointNotInSubspace("p must lie in tau")
    i = tau.k
    if i < k + 1:
        raise GuardViolated("tau must have dimension >= k+1")
    rows = _member_rows(F)
    through_p = (rows == p_idx).any(axis=1)
    inside = in_tau[rows].all(axis=1)
    a, b, c = (int(m.sum()) for m in (through_p, inside, through_p & inside))
    g_n1k = gauss_binom(n - 1, k, q)
    g_i1k = gauss_binom(i - 1, k, q)
    lhs = Fraction(a) + Fraction(g_n1k * (q ** k - 1), g_i1k * (q ** i - 1)) * b
    rhs = Fraction(g_n1k, g_i1k) * c + Fraction(q ** k - 1, q ** n - 1) * F.size
    return lhs == rhs


def check_aid_identity(F: KFamily, K: int, t: int) -> bool:
    """The parameter equals the stated average of restricted parameters over
    all t-spaces through a fixed k-space K, given by its index."""
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
    if not (2 * k + 1 <= t <= n - 1 and n >= 2 * k + 2):
        raise GuardViolated("requires 2k+1 <= t <= n-1 and n >= 2k+2")
    if geom.kind != "PG":
        raise GuardViolated("averaging identity is projective")
    prof = _pair_profile(F)[K]
    pairs = sum(int(prof[d + 1]) * gauss_binom(n - 2 * k + d, t - 2 * k + d, q)
                for d in range(-1, k + 1))
    total = Fraction(pairs, gauss_binom(t, k, q))
    chi = 1 if K in F.members else 0
    return (total - gauss_binom(n - k, t - k, q) * chi) \
        / gauss_binom(n - k - 1, t - k - 1, q) + chi


def find_skew_space(F: KFamily):
    """Some (k+1)-space containing no member, or None.

    Search order: non-member k-spaces K in enumeration order, then the
    (k+1)-spaces through K in enumeration order."""
    if F.geom.kind != "PG":
        raise GuardViolated("skew-space search is projective")
    geom, k = F.geom, F.k
    table, upper = geom.point_table(k), geom.point_table(k + 1)
    # the (k+1)-spaces holding no member; the k-spaces inside one of them,
    # none of which is a member
    free = np.flatnonzero(_meets(geom, k, upper, table[F.chi == 1])[:, -1] == 0)
    inside = np.flatnonzero(_meets(geom, k, table, upper[free])[:, -1])
    if not len(inside):
        return None
    K = table[inside[0]]
    j = free[np.isin(upper[free], K).sum(axis=1) == len(K)][0]
    return geom.subspaces(k + 1)[j]


def check_pencil_propagation(F: KFamily, pi: Subspace) -> bool:
    """If F restricted to pi is the pencil of a point p, F must be the full
    pencil of p."""
    R = restrict(F, pi)
    sub_geom = R.geom
    if not R.members:
        raise PreconditionNotMet("restriction is empty")
    rows = sub_geom.point_table(R.k)[np.flatnonzero(R.chi)]
    common = np.flatnonzero(
        np.bincount(rows.ravel(), minlength=sub_geom.num_points) == len(rows))
    if not len(common):
        raise PreconditionNotMet("restriction has no common point")
    p_int = int(common[0])
    pencil = construct_trivial(sub_geom, R.k, "point_pencil", point=p_int)
    if R != pencil:
        raise PreconditionNotMet("restriction is not a point-pencil")
    # c -> c.M keeps the lexicographic order (see Geometry._locate), so
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
    codes = F.geom.subspaces(F.k).codes[np.flatnonzero(F.chi)]
    return {**_family_head(F), "members": codes.tolist()}


def family_json(F: KFamily) -> str:
    """json.dumps(family_to_dict(F), indent=1) + "\\n", byte for byte.

    The indenting encoder is pure Python, so the header goes through
    json.dumps with no members, and every member through one %-template
    of its (k+1)(n+1) codes, one per line in that encoder's layout."""
    head = json.dumps({**_family_head(F), "members": []}, indent=1)
    codes = F.geom.subspaces(F.k).codes[np.flatnonzero(F.chi)]
    if not len(codes):
        return head + "\n"
    _, r, ncols = codes.shape
    row = "   [\n" + ",\n".join(["    %d"] * ncols) + "\n   ]"
    member = "  [\n" + ",\n".join([row] * r) + "\n  ]"
    body = ",\n".join(member % tuple(m)
                      for m in codes.reshape(len(codes), -1).tolist())
    # head ends in "[]\n}"
    return f"{head[:-4]}[\n{body}\n ]\n}}\n"


def save_family(F: KFamily, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(family_json(F))


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
    errors: a list of at most ncols rows, each a list of ncols ints (not
    bools) in [0, q), in reduced row echelon form and of full rank."""
    if not isinstance(rows, list) or len(rows) > ncols or any(
            not isinstance(row, list) or len(row) != ncols for row in rows):
        raise FamilyFormatError(
            f"{what}: expected a list of at most {ncols} rows of {ncols} codes")
    for row in rows:
        for c in row:
            if isinstance(c, bool) or not isinstance(c, int) \
                    or not 0 <= c < field.q:
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
    members = _member_codes(data["members"], k + 1, n + 1)
    if members is not None:
        found = geom.subspace_index(k, members)
        if (found >= 0).all():
            return KFamily(geom, k, found)
    # some member is malformed or no k-space: the sequential check names
    # the first such member
    for mi, mat in enumerate(data["members"]):
        if not isinstance(mat, list) or len(mat) != k + 1:
            raise FamilyFormatError(
                f"member {mi}: expected a {k + 1}x{n + 1} matrix")
        sub = subspace_from_codes(mat, geom.field, n + 1, f"member {mi}")
        if geom.subspace_index(k, [sub.mat])[0] < 0:
            raise FamilyFormatError(
                f"member {mi}: not a {k}-space of {space}({n},{q})")
    raise AssertionError("a member missed the lookup but passed the check")


def _member_codes(members: list, r: int, ncols: int):
    """The members as an M x r x ncols int64 array when every one is a list
    of r lists of ncols ints (not bools) that fit in int64; None otherwise.
    The lookup refuses entries outside [0, q)."""
    if not _all_lists(members, r):
        return None
    rows = list(chain.from_iterable(members))
    if not _all_lists(rows, ncols):
        return None
    entries = list(chain.from_iterable(rows))
    # the exact type: bool is a subclass of int
    if not set(map(type, entries)) <= {int}:
        return None
    try:
        codes = np.array(entries, dtype=np.int64)
    except OverflowError:
        return None
    return codes.reshape(len(members), r, ncols)


def _all_lists(items: list, length: int) -> bool:
    return set(map(type, items)) <= {list} and set(map(len, items)) <= {length}


def load_family(path: str) -> KFamily:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FamilyFormatError(f"invalid JSON: {exc}") from exc
    return family_from_dict(data)
