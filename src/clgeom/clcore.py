"""Cameron-Liebler k-set families: decision, constructions, transforms,
and brute-force verification of every counting identity.

A family is a set of k-space indices into its geometry's enumeration.  The
CL decision tests whether the 0/1 characteristic vector lies in the rational
row space of the point-(k-space) incidence matrix P.  Points and k-spaces
form a 2-design, so P P^T = (r-lambda) I + lambda J and the test is a
closed-form integer identity over the geometry's point table (see
``is_cl``); the rational rank and kernel routes of ``linalg`` stay
available as independent oracles.  Every checker computes
its counts by brute force over the geometry and compares them with the
closed-form prediction in exact rational arithmetic; checkers report
violations instead of raising, so they double as falsification tools.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .errors import (
    AnchorInvalid,
    DimensionTooLarge,
    DimensionTooSmall,
    FamilyFormatError,
    GuardViolated,
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
    Geometry,
    Subspace,
    canonical_complement,
    gauss0,
    gauss_binom,
    geometry,
    make_subspace,
    point_in_subspace,
    project_subspace,
    rref,
)
from .linalg import RatMatrix, in_rowspace
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
        self._profile = None
        self._restrict_params = {}

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
            for m in self.members:
                v[m] = 1
            v.setflags(write=False)
            self._chi = v
        return self._chi

    def member_masks(self):
        masks = self.geom.point_masks(self.k)
        return [masks[m] for m in sorted(self.members)]

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


_ROWSPACE: dict = {}


def _incidence_ratmatrix(geom: Geometry, k: int) -> RatMatrix:
    key = (geom.key, k)
    if key not in _ROWSPACE:
        _ROWSPACE[key] = RatMatrix.from_numpy(geom.incidence(k))
    return _ROWSPACE[key]


def _design_in_rowspace(F: KFamily) -> bool:
    """chi in Im(P^T), decided by the 2-design identity of the point table.

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
    return np.array_equal(r * b - lam * theta * F.size, r * (r - lam) * chi)


_CERTIFICATES = {
    "design": "design-identity",
    "rank": "rank-augmentation",
    "kernel": "kernel-orthogonality",
}


def is_cl(F: KFamily, method: str = "design") -> CLReport:
    """Decide membership of the characteristic vector in Im(P^T) / Im(A^T).

    method="design" (the default) checks the closed-form 2-design identity
    on the point table in integer arithmetic.  method="rank" and
    method="kernel" reduce against the rational incidence matrix instead;
    they are independent oracles for tests and small geometries."""
    if method not in _CERTIFICATES:
        raise ValueError(f"unknown method {method!r}")
    if method == "design":
        ok = _design_in_rowspace(F)
    else:
        M = _incidence_ratmatrix(F.geom, F.k)
        ok = in_rowspace(M, [int(c) for c in F.chi], method=method)
    x = F.x
    assert 0 <= x <= x_max_param(F.geom.kind, F.geom.n, F.k, F.geom.q)
    return CLReport(ok, x, _CERTIFICATES[method])


# ---------------------------------------------------------------------------
# trivial constructions
# ---------------------------------------------------------------------------

def _default_hyperplane(geom: Geometry) -> Subspace:
    """The hyperplane X0 = 0."""
    n1 = geom.n + 1
    rows = []
    for j in range(1, n1):
        e = [0] * n1
        e[j] = 1
        rows.append(e)
    return make_subspace(rows, geom.field, n1)


def construct_trivial(geom: Geometry, k: int, kind: str, point=None,
                      hyperplane: Subspace | None = None,
                      complement_of: bool = False) -> KFamily:
    """Build a trivial family: empty, point_pencil, hyperplane_class,
    pencil_plus_hyperplane, or the complement of any of these."""
    if kind == "empty":
        fam = KFamily(geom, k, ())
    elif kind == "point_pencil":
        fam = KFamily(geom, k, _pencil(geom, k, _resolve_point(geom, point)))
    elif kind == "hyperplane_class":
        if geom.kind != "PG":
            raise AnchorInvalid("hyperplane_class is a projective construction")
        H = hyperplane if hyperplane is not None else _default_hyperplane(geom)
        fam = KFamily(geom, k, _indices_inside(geom, k, H))
    elif kind == "pencil_plus_hyperplane":
        if geom.kind != "PG":
            raise AnchorInvalid("pencil_plus_hyperplane is a projective construction")
        H = hyperplane if hyperplane is not None else _default_hyperplane(geom)
        p_idx = _resolve_point(geom, point)
        if point_in_subspace(geom.field, geom.points[p_idx], H):
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
    if isinstance(point, int):
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
    hmask = geom.point_mask_of(outer)
    masks = geom.point_masks(k)
    return {j for j, m in enumerate(masks) if m & hmask == m}


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
    pimask = geom.point_mask_of(pi)
    masks = geom.point_masks(F.k)
    subs = geom.subspaces(F.k)
    index = sub_geom.subspace_index(F.k)
    out = set()
    for m in F.members:
        if masks[m] & pimask == masks[m]:
            rows = [tuple(row[c] for c in pi.pivots) for row in subs[m].mat]
            mat, _ = rref(rows, geom.field)
            out.add(index[mat])
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
    pimask = geom.point_mask_of(pi)
    masks = geom.point_masks(F.k)
    subs = geom.subspaces(F.k)
    index = sub_geom.subspace_index(F.k - i - 1)
    out = set()
    for m in F.members:
        if masks[m] & pimask == pimask:
            img = project_subspace(geom.field, subs[m], pi, beta)
            idx = index[img.mat]
            assert idx not in out, "projection produced a duplicate image"
            out.add(idx)
    return KFamily(sub_geom, F.k - i - 1, out)


def _hyperplane_transform(geom: Geometry, H: Subspace):
    """Column transform T (as tuple of columns) sending H to X0 = 0."""
    field = geom.field
    n1 = geom.n + 1
    # normal vector a: the 1-dim GF(q) kernel of H's RREF rows, read off
    # from the single free column
    mat, pivots = H.mat, H.pivots
    pivset = set(pivots)
    free = [c for c in range(n1) if c not in pivset][0]
    a = [0] * n1
    a[free] = 1
    for r, pc in enumerate(pivots):
        a[pc] = field.neg(mat[r][free])
    cols = [tuple(a)]
    # extend with standard basis columns, keeping GF(q) rank
    for j in range(n1):
        e = [0] * n1
        e[j] = 1
        cand = cols + [tuple(e)]
        red, _ = rref(cand, field)
        if len(red) == len(cand):
            cols.append(tuple(e))
        if len(cols) == n1:
            break
    return cols


def _apply_transform(field, mat, cols):
    out = []
    for row in mat:
        new = []
        for col in cols:
            s = 0
            for a, b in zip(row, col):
                if a and b:
                    s = field.add(s, field.mul(a, b))
            new.append(s)
        out.append(new)
    return out


def pg_to_ag(F: KFamily, H: Subspace | None = None) -> KFamily:
    """View a projective family not meeting hyperplane H as an affine one.

    H defaults to X0 = 0; any other hyperplane is first moved there by a
    coordinate change (a collineation, so the family's parameter and CL
    status are unchanged)."""
    if F.geom.kind != "PG":
        raise GuardViolated("pg_to_ag expects a projective family")
    geom = F.geom
    field = geom.field
    default_H = _default_hyperplane(geom)
    subs = geom.subspaces(F.k)
    mats = [subs[m].mat for m in sorted(F.members)]
    if H is not None and H.mat != default_H.mat:
        if H.k != geom.n - 1:
            raise GuardViolated("H must be a hyperplane")
        cols = _hyperplane_transform(geom, H)
        mats = [rref(_apply_transform(field, m, cols), field)[0] for m in mats]
    ag = geometry("AG", geom.n, geom.q)
    ag_index = ag.subspace_index(F.k)
    out = set()
    for orig, mat in zip(sorted(F.members), mats):
        if mat not in ag_index:
            raise MemberInsideHyperplane(orig)
        out.add(ag_index[mat])
    return KFamily(ag, F.k, out)


def ag_to_pg(F: KFamily) -> KFamily:
    """The same members viewed in the projective closure."""
    if F.geom.kind != "AG":
        raise GuardViolated("ag_to_pg expects an affine family")
    ag = F.geom
    pg = ag.closure()
    ag_subs = ag.subspaces(F.k)
    pg_index = pg.subspace_index(F.k)
    return KFamily(pg, F.k, {pg_index[ag_subs[m].mat] for m in F.members})


# ---------------------------------------------------------------------------
# counting-identity checkers
# ---------------------------------------------------------------------------

_MEET_SIZE_TO_DIM: dict = {}


def _meet_dim_table(q: int, kmax: int):
    key = (q, kmax)
    if key not in _MEET_SIZE_TO_DIM:
        table = {0: -1}
        for d in range(kmax + 1):
            table[(q ** (d + 1) - 1) // (q - 1)] = d
        _MEET_SIZE_TO_DIM[key] = table
    return _MEET_SIZE_TO_DIM[key]


def _pair_profile(F: KFamily):
    """For every k-space K: counts of members by projective meet dimension."""
    if F._profile is None:
        geom = F.geom
        masks = geom.point_masks(F.k)
        mem = F.member_masks()
        table = _meet_dim_table(geom.q, F.k)
        kk = F.k + 2  # dims -1..k shifted by +1
        prof = []
        for Km in masks:
            counts = [0] * kk
            for mm in mem:
                counts[table[(Km & mm).bit_count()] + 1] += 1
            prof.append(counts)
        F._profile = prof
    return F._profile


def check_disjoint_count(F: KFamily) -> CheckReport:
    """Every k-space K misses exactly (x - chi(K)) [n-k-1 k]_q q^(k^2+k)
    members."""
    if F.geom.kind != "PG":
        raise GuardViolated("disjoint-count identity is projective")
    geom, k = F.geom, F.k
    n, q = geom.n, geom.q
    x = F.x
    factor = gauss0(n - k - 1, k, q) * q ** (k * k + k)
    prof = _pair_profile(F)
    violations = []
    for K in range(len(prof)):
        chi = 1 if K in F.members else 0
        expected = (x - chi) * factor
        actual = prof[K][0]
        if expected != actual:
            violations.append((K, expected, actual))
    return CheckReport(not violations, violations)


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
    prof = _pair_profile(F)
    slot = F.k - i + 1  # meet dim (k-i) shifted by +1
    violations = []
    for K in range(len(prof)):
        member = K in F.members
        expected = meet_profile_expected(F, i, member)
        actual = prof[K][slot]
        if expected != actual:
            violations.append((K, expected, actual))
    return CheckReport(not violations, violations)


def check_spread(F: KFamily, S) -> bool:
    """|F ∩ S| == x for a validated k-spread S (list of Subspace).

    For AG families the spread must partition the affine points; parallel
    elements sharing a point at infinity are fine."""
    geom, k = F.geom, F.k
    index = geom.subspace_index(k)
    idxs = []
    cover = 0
    for s in S:
        if s.mat not in index:
            raise NotASpread("element is not a k-space of the geometry")
        idxs.append(index[s.mat])
        m = geom.point_mask_of(s)
        if cover & m:
            raise NotASpread("elements are not pairwise disjoint")
        cover |= m
    if cover != (1 << geom.num_points) - 1:
        raise NotASpread("elements do not cover every point")
    return sum(1 for j in idxs if j in F.members) == F.x


def check_affine_line(F: KFamily) -> CheckReport:
    """Affine line-class identities: disjointness counts for every line,
    and exactly x members through every point at infinity."""
    if F.geom.kind != "AG" or F.k != 1:
        raise GuardViolated("affine-line identity requires an AG line family")
    geom = F.geom
    n, q = geom.n, geom.q
    x = F.x
    masks = geom.point_masks(1)
    mem = F.member_masks()
    expected_factor = q * q * gauss0(n - 2, 1, q) + 1
    violations = []
    for j, Lm in enumerate(masks):
        chi = 1 if j in F.members else 0
        expected = (x - chi) * expected_factor
        actual = sum(1 for mm in mem if mm & Lm == 0)
        if expected != actual:
            violations.append(("line", j, expected, actual))
    subs = geom.subspaces(1)
    field = geom.field
    member_subs = [subs[m] for m in sorted(F.members)]
    for pt in geom.infinite_points():
        actual = sum(1 for s in member_subs if point_in_subspace(field, pt, s))
        if actual != x:
            violations.append(("infinite-point", pt, x, actual))
    return CheckReport(not violations, violations)


def check_drudge_identity(F: KFamily, p, tau: Subspace) -> bool:
    """Exact pencil/subspace counting identity for a point p in tau."""
    if F.geom.kind != "PG":
        raise GuardViolated("identity stated for projective families")
    geom, k = F.geom, F.k
    n, q = geom.n, geom.q
    p_idx = _resolve_point(geom, p)
    if not point_in_subspace(geom.field, geom.points[p_idx], tau):
        raise PointNotInSubspace("p must lie in tau")
    i = tau.k
    if i < k + 1:
        raise GuardViolated("tau must have dimension >= k+1")
    taumask = geom.point_mask_of(tau)
    pbit = 1 << p_idx
    masks = geom.point_masks(k)
    a = b = c = 0
    for m in F.members:
        mm = masks[m]
        through_p = bool(mm & pbit)
        inside = mm & taumask == mm
        a += through_p
        b += inside
        c += through_p and inside
    g_n1k = gauss_binom(n - 1, k, q)
    g_i1k = gauss_binom(i - 1, k, q)
    lhs = Fraction(a) + Fraction(g_n1k * (q ** k - 1), g_i1k * (q ** i - 1)) * b
    rhs = Fraction(g_n1k, g_i1k) * c + Fraction(q ** k - 1, q ** n - 1) * F.size
    return lhs == rhs


def check_aid_identity(F: KFamily, K: int, t: int) -> bool:
    """The parameter equals the stated average of restricted parameters over
    all t-spaces through a fixed k-space K."""
    geom, k = F.geom, F.k
    n, q = geom.n, geom.q
    if not (2 * k + 1 <= t <= n - 1 and n >= 2 * k + 2):
        raise GuardViolated("requires 2k+1 <= t <= n-1 and n >= 2k+2")
    params = _restricted_params(F, t)
    tmasks = geom.point_masks(t)
    Kmask = geom.point_masks(k)[K]
    chi = 1 if K in F.members else 0
    total = Fraction(0)
    for j, tm in enumerate(tmasks):
        if tm & Kmask == Kmask:
            total += params[j]
    value = (total - gauss_binom(n - k, t - k, q) * chi) \
        / gauss_binom(n - k - 1, t - k - 1, q) + chi
    return value == F.x


def _restricted_params(F: KFamily, t: int):
    """Parameter of F restricted to each t-space (computed via restrict)."""
    if t not in F._restrict_params:
        geom = F.geom
        params = []
        for tau in geom.subspaces(t):
            params.append(restrict(F, tau).x)
        F._restrict_params[t] = params
    return F._restrict_params[t]


def find_skew_space(F: KFamily):
    """Some (k+1)-space containing no member, or None.

    Search order: non-member k-spaces K in enumeration order, then the
    (k+1)-spaces through K in enumeration order."""
    if F.geom.kind != "PG":
        raise GuardViolated("skew-space search is projective")
    geom, k = F.geom, F.k
    kmasks = geom.point_masks(k)
    tmasks = geom.point_masks(k + 1)
    mem = F.member_masks()
    occupied: dict = {}

    def tau_occupied(j):
        if j not in occupied:
            tm = tmasks[j]
            occupied[j] = any(mm & tm == mm for mm in mem)
        return occupied[j]

    members = F.members
    for K in range(len(kmasks)):
        if K in members:
            continue
        Km = kmasks[K]
        for j, tm in enumerate(tmasks):
            if tm & Km == Km and not tau_occupied(j):
                return geom.subspaces(k + 1)[j]
    return None


def check_pencil_propagation(F: KFamily, pi: Subspace) -> bool:
    """If F restricted to pi is the pencil of a point p, F must be the full
    pencil of p."""
    R = restrict(F, pi)
    sub_geom = R.geom
    if not R.members:
        raise PreconditionNotMet("restriction is empty")
    common = ~0
    for mm in R.member_masks():
        common &= mm
    if common == 0:
        raise PreconditionNotMet("restriction has no common point")
    p_int = (common & -common).bit_length() - 1
    pencil = construct_trivial(sub_geom, R.k, "point_pencil", point=p_int)
    if R != pencil:
        raise PreconditionNotMet("restriction is not a point-pencil")
    # map the internal point back to full coordinates
    internal = sub_geom.points[p_int]
    field = F.geom.field
    n1 = F.geom.n + 1
    coords = [0] * n1
    for c, row in zip(internal, pi.mat):
        if c:
            for t in range(n1):
                if row[t]:
                    coords[t] = field.add(coords[t], field.mul(c, row[t]))
    from .geometry import _normalize_point
    p_full = F.geom.point_index[_normalize_point(field, coords)]
    return F == construct_trivial(F.geom, F.k, "point_pencil", point=p_full)


# ---------------------------------------------------------------------------
# family JSON format
# ---------------------------------------------------------------------------

def family_to_dict(F: KFamily) -> dict:
    geom = F.geom
    subs = geom.subspaces(F.k)
    return {
        "space": geom.kind,
        "p": geom.field.p,
        "h": geom.field.h,
        "n": geom.n,
        "k": F.k,
        "members": [[list(row) for row in subs[m].mat] for m in sorted(F.members)],
    }


def save_family(F: KFamily, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(family_to_dict(F), fh, indent=1)
        fh.write("\n")


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


def family_from_dict(data: dict) -> KFamily:
    if not isinstance(data, dict):
        raise FamilyFormatError("family JSON must be an object")
    for key in ("space", "p", "h", "n", "k", "members"):
        if key not in data:
            raise FamilyFormatError(f"missing key {key!r}")
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
    field = geom.field
    index = geom.subspace_index(k)
    members = set()
    for mi, mat in enumerate(data["members"]):
        if not isinstance(mat, list) or len(mat) != k + 1 or any(
                not isinstance(row, list) or len(row) != n + 1 for row in mat):
            raise FamilyFormatError(
                f"member {mi}: expected a {k + 1}x{n + 1} matrix")
        rows = []
        for row in mat:
            for c in row:
                if isinstance(c, bool) or not isinstance(c, int) \
                        or not 0 <= c < field.q:
                    raise FamilyFormatError(
                        f"member {mi}: entry {c!r} is not a code in [0, {field.q})")
            rows.append(tuple(row))
        canon, _ = rref(rows, field)
        if canon != tuple(rows):
            raise FamilyFormatError(
                f"member {mi}: matrix is not in reduced row echelon form "
                f"or not full rank")
        idx = index.get(canon)
        if idx is None:
            raise FamilyFormatError(
                f"member {mi}: not a {k}-space of {space}({n},{field.q})")
        members.add(idx)
    return KFamily(geom, k, members)


def load_family(path: str) -> KFamily:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FamilyFormatError(f"invalid JSON: {exc}") from exc
    return family_from_dict(data)
