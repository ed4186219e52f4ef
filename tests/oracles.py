"""Slower independent references that the tests compare the library with.

None of these is a production route: each one decides or computes the same
thing as a fast route of the library by a different method, one member or
one parameter at a time.

* ``rational_is_cl``: the CL decision by echelon reduction or kernel
  orthogonality over the incidence matrix as exact rationals
  (``clgeom.linalg``), against ``clcore.is_cl``'s design identity.
* ``span`` and ``meet``: the span and the intersection of two subspaces
  by row reduction (Zassenhaus for the meet), for ``project_subspace`` and
  the tests' pairwise references.
* ``project_subspace``: one projected image by Zassenhaus meets, against
  ``clcore.project``; it raises ``NotContaining`` and ``NotSkew``.
* ``locate_by_combine``: the point positions of a stack of matrices from
  ``geometry._combine``'s field products, against the point table's digit
  route.
* ``pg_to_ag_oracle``: ``pg_to_ag`` with the coordinate change found by an
  RREF rank loop and applied entry by entry.
* ``field_reduction_spread_subspaces``: the field-reduction spread with
  every element eliminated by ``make_subspace``, against
  ``geometry.field_reduction_spread``'s positions read off the elements'
  points.
* ``enumerate_pg_mixed_radix``: a projective level with the free entries
  of each pivot pattern decoded from a counter by ``divmod`` and the
  sorted keys decoded back into codes, against
  ``geometry._enumerate_pg``'s broadcast grids.
* ``int64_tables``: a twin of a geometry whose point and sub tables are
  int64 copies, so that the routes run on its families read the entries
  as int64 indices, against the same routes on the narrow tables.
* ``indices_inside_full_rows``, ``restrict_full_rows``,
  ``project_full_rows``, ``drudge_full_rows`` and ``skew_space_full_rows``:
  the containment tests reduced over all theta points of every row
  (logical and/or, or a count of pi's points), against ``clcore``'s
  reads of the k+1 basis columns with early exit.
* ``c8_fraction``, ``below_fraction``, ``exact_floor_fraction`` and
  ``rule_table_fraction``: the irrational bounds a*C + b decided in
  ``Fraction``, by comparing ((x - b)/a)^8 with C^8 as one normalised
  rational, and the rule table built from them with a residue set per
  rule, against ``sieve``'s cross-multiplied integers and lazy residues.
* ``firing_rules``, ``classification_rules`` and ``direct_entry``: every
  sieve rule evaluated on one x directly, under its guard as
  ``sieve.RULES`` writes it and in ``Fraction``, against ``sieve()``'s
  integer thresholds and residue tests, whose guards ``sieve._RuleTable``
  decides apart; ``lift_bound``, the generic lift those bounds follow.
* ``sieve_json_per_x`` and ``sieve_csv_per_x``: a sieve report written
  with one f-string per x, against ``SieveReport``'s digit-block writers.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import ceil, floor, isqrt
from typing import NamedTuple

import numpy as np

from clgeom.clcore import (
    CLReport,
    KFamily,
    _default_hyperplane,
    _mask,
    _positions,
    _resolve_point,
)
from clgeom.errors import (
    ClgeomError,
    DimensionMismatch,
    DimensionTooLarge,
    DimensionTooSmall,
    GuardViolated,
    MemberInsideHyperplane,
    NotDivisible,
    PointNotInSubspace,
)
from clgeom.ff import FieldCtx, ff_extend
from clgeom.geometry import (
    Geometry,
    Subspace,
    _blocks_of,
    _combine,
    _enumerate_pg,
    _keys,
    canonical_complement,
    gauss_binom,
    geometry,
    make_subspace,
    point_in_subspace,
    rref,
)
from clgeom.linalg import RatMatrix, in_rowspace
from clgeom.sieve import (
    _Root,
    affine_condition,
    affine_pencil_bound,
    bound_rules,
    classification_threshold,
    gm_condition_solvable,
    hyperplane_average_bound,
    ihringer_bound,
    improved_lift_bound,
    line_condition_solvable,
    pencil_lift_bound,
    trivial_params,
    x_max_param,
)


# ---------------------------------------------------------------------------
# levels by a mixed-radix counter
# ---------------------------------------------------------------------------

def _codes_of(keys: np.ndarray, q: int, r: int, ncols: int) -> np.ndarray:
    """The B x r x ncols code stack whose keys are `keys` (inverse of
    _keys), in the smallest unsigned dtype that holds q-1."""
    code = np.min_scalar_type(q - 1)
    if keys.dtype != np.int64:
        # each row's base-q number as a big-endian int64
        rows = keys.view(">i8").astype(np.int64)
        return _codes_of(rows, q, 1, ncols).reshape(-1, r, ncols)
    codes = np.empty((len(keys), r * ncols), dtype=code)
    rest = keys
    for j in range(r * ncols - 1, -1, -1):
        rest, codes[:, j] = np.divmod(rest, q)
    return codes.reshape(-1, r, ncols)


def enumerate_pg_mixed_radix(q: int, ncols: int, r: int):
    """Codes and ascending keys of all (r-1)-spaces of PG(ncols-1, q).

    Each pivot pattern is one block: identity columns at the pivots, zeros
    left of each pivot and in the other pivot columns, and the remaining
    free entries running through GF(q) as a mixed-radix counter over
    arange(q**f).  Only the blocks' keys are kept; the sorted keys are
    decoded back into the level's codes."""
    code = np.min_scalar_type(q - 1)
    keys = []
    for pivots in combinations(range(ncols), r):
        free = [(i, c) for i in range(r) for c in range(pivots[i] + 1, ncols)
                if c not in pivots]
        block = np.zeros((q ** len(free), r, ncols), dtype=code)
        block[:, range(r), pivots] = 1
        counter = np.arange(len(block))
        for i, c in reversed(free):
            counter, block[:, i, c] = np.divmod(counter, q)
        keys.append(_keys(block, q))
    keys = np.sort(np.concatenate(keys))
    return _codes_of(keys, q, r, ncols), keys


# ---------------------------------------------------------------------------
# the field-reduction spread, one element at a time
# ---------------------------------------------------------------------------

@cache
def field_reduction_spread_subspaces(n: int, k: int, q: int) -> tuple:
    """The k-spread of PG(n,q) by field reduction from PG(m-1, q^(k+1)),
    one Subspace per point w of PG(m-1, q^(k+1)) in order: the rows
    t^j.w, j < k+1, written over GF(q) and eliminated by make_subspace."""
    if (n + 1) % (k + 1) != 0:
        raise NotDivisible(f"(k+1)={k + 1} does not divide (n+1)={n + 1}")
    field = geometry("PG", n, q).field
    d = k + 1
    if d == 1:
        # 0-spread: every point is its own element
        return tuple(make_subspace([list(p)], field, n + 1)
                     for p in geometry("PG", n, q).points)
    m = (n + 1) // d
    ext = ff_extend(field, d)
    Q = ext.q
    out = []
    for w in _enumerate_pg(Q, m, 1)[0][:, 0].tolist():
        rows = []
        for j in range(d):
            alpha = q ** j  # code of t^j in the extension
            row = []
            for comp in w:
                row.extend(ext.to_vector(ext.mul(alpha, comp)))
            rows.append(row)
        out.append(make_subspace(rows, field, n + 1))
    return tuple(out)


# ---------------------------------------------------------------------------
# the CL decision over the rational incidence matrix
# ---------------------------------------------------------------------------

_ROWSPACE: dict = {}


def _incidence_ratmatrix(geom: Geometry, k: int) -> RatMatrix:
    key = (geom.key, k)
    if key not in _ROWSPACE:
        _ROWSPACE[key] = RatMatrix.from_numpy(geom.incidence(k))
    return _ROWSPACE[key]


_CERTIFICATES = {
    "rank": "rank-augmentation",
    "kernel": "kernel-orthogonality",
}


def rational_is_cl(F: KFamily, method: str) -> CLReport:
    """is_cl by reduction against the rational incidence matrix:
    method="rank" (echelon reduction) or method="kernel" (orthogonality to
    a kernel basis).  Practical only for small geometries."""
    M = _incidence_ratmatrix(F.geom, F.k)
    ok = in_rowspace(M, [int(c) for c in F.chi], method=method)
    return CLReport(ok, F.x, _CERTIFICATES[method])


# ---------------------------------------------------------------------------
# point positions from field products
# ---------------------------------------------------------------------------

def locate_by_combine(geom: Geometry, mats: np.ndarray):
    """Positions among geom's points of the points c.M of a stack of RREF
    matrices (B x r x ncols), for every coefficient vector c of
    ``Geometry._coefficients``, as a B x theta array, and a mask of the
    hits; in AG the misses are the points at infinity.  c.M comes from
    ``_combine``'s field products, and ``Geometry._rank`` ranks it among
    the closure's points, whose first count_at_infinity(0) are the points
    at infinity in AG: the reference for the point table's keys summed
    from the digit table."""
    vecs = _combine(geom.field, geom._coefficients(mats.shape[1]), mats)
    pos = geom._rank(vecs)
    shift = geom.count_at_infinity(0)
    return pos - shift, pos >= shift


# ---------------------------------------------------------------------------
# span, meet and projection, one subspace at a time
# ---------------------------------------------------------------------------

class NotContaining(ClgeomError):
    """The projection centre is not contained in the given subspace."""


class NotSkew(ClgeomError):
    """The screen subspace meets the projection centre."""


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


def subspace_contains(field: FieldCtx, outer: Subspace, inner: Subspace) -> bool:
    return all(point_in_subspace(field, row, outer) for row in inner.mat)


def project_subspace(field: FieldCtx, K: Subspace, pi: Subspace,
                     beta: Subspace) -> Subspace:
    """K ∩ beta in beta's internal coordinates, for pi ⊆ K, beta skew to pi.

    By Zassenhaus meets and RREF, one subspace at a time: the test oracle
    for ``clcore.project``, which gathers the same images from a level's
    codes for the canonical complement beta of pi."""
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


# ---------------------------------------------------------------------------
# the tables in int64
# ---------------------------------------------------------------------------

class _Int64Tables(Geometry):
    """A geometry's twin with its levels, whose point and sub tables are
    read-only int64 copies of the geometry's own."""

    def __init__(self, geom: Geometry):
        super().__init__(geom.kind, geom.n, geom.field)
        self._subspaces = geom._subspaces
        self._narrow = geom

    def _wide(self, key, table: np.ndarray) -> np.ndarray:
        if key not in self._tables:
            self._tables[key] = table.astype(np.int64)
            self._tables[key].setflags(write=False)
        return self._tables[key]

    def point_table(self, k: int) -> np.ndarray:
        return self._wide(k, self._narrow.point_table(k))

    def sub_table(self, k: int, j: int) -> np.ndarray:
        return self._wide((k, j), self._narrow.sub_table(k, j))


@cache
def int64_tables(geom: Geometry) -> Geometry:
    """The twin of geom whose tables are int64 (one per geometry): a
    family built on it has geom's key, so it compares equal to the same
    members on geom, and every route reads it through int64 entries."""
    return _Int64Tables(geom)


# ---------------------------------------------------------------------------
# containment over every point of a row
# ---------------------------------------------------------------------------

def row_reduce_full(ufunc, values: np.ndarray, table: np.ndarray) -> np.ndarray:
    """ufunc.reduce(values[table], axis=1), one column of table at a time."""
    out = values[table[:, 0]]
    for col in table.T[1:]:
        ufunc(out, values[col], out=out)
    return out


def indices_inside_full_rows(geom: Geometry, k: int,
                             outer: Subspace) -> np.ndarray:
    """The k-spaces whose every point lies in outer."""
    return np.flatnonzero(row_reduce_full(
        np.logical_and, _mask(geom, outer), geom.point_table(k)))


def restrict_full_rows(F: KFamily, pi: Subspace) -> KFamily:
    """restrict, with the members whose every point lies in pi."""
    if F.geom.kind != "PG":
        raise GuardViolated("restriction is defined on projective families")
    if pi.k < F.k + 1:
        raise DimensionTooSmall(f"dim pi = {pi.k} < k+1 = {F.k + 1}")
    sub_geom = geometry("PG", pi.k, F.geom.q)
    pos = _positions(F.geom, pi)
    rows = F.geom.point_table(F.k)[F.indices]
    inside = row_reduce_full(np.logical_and, pos >= 0, rows)
    return KFamily(sub_geom, F.k, _blocks_of(sub_geom, F.k, pos[rows[inside]]))


def project_full_rows(F: KFamily, pi: Subspace) -> KFamily:
    """project, with the members holding as many points of pi as it has."""
    if F.geom.kind != "PG":
        raise GuardViolated("projection is defined on projective families")
    i = pi.k
    if i > F.k - 1:
        raise DimensionTooLarge(f"dim pi = {i} > k-1 = {F.k - 1}")
    geom = F.geom
    beta = canonical_complement(pi, geom.field)
    sub_geom = geometry("PG", geom.n - i - 1, geom.q)
    rows = F.geom.point_table(F.k)[F.indices]
    in_pi = _mask(geom, pi).astype(np.int64)
    through = row_reduce_full(np.add, in_pi, rows) == in_pi.sum()
    images = _positions(geom, beta)[rows[through]]
    images = images[images >= 0].reshape(len(images),
                                         gauss_binom(F.k - i, 1, geom.q))
    return KFamily(sub_geom, F.k - i - 1,
                   _blocks_of(sub_geom, F.k - i - 1, images))


def drudge_full_rows(F: KFamily, p, tau: Subspace) -> bool:
    """check_drudge_identity, with the members whose every point lies in
    tau, and its sides compared as Fractions."""
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
    rows = F.geom.point_table(F.k)[F.indices]
    inside = rows[row_reduce_full(np.logical_and, in_tau, rows)]
    a, b, c = (int(F.degrees[p_idx]), len(inside),
               np.count_nonzero(inside == p_idx))
    g_n1k = gauss_binom(n - 1, k, q)
    g_i1k = gauss_binom(i - 1, k, q)
    lhs = a + Fraction(g_n1k * (q ** k - 1), g_i1k * (q ** i - 1)) * b
    rhs = Fraction(g_n1k, g_i1k) * c + Fraction(q ** k - 1, q ** n - 1) * F.size
    return lhs == rhs


def skew_space_full_rows(F: KFamily):
    """find_skew_space, with the (k+1)-spaces none of whose k-spaces is a
    member."""
    if F.geom.kind != "PG":
        raise GuardViolated("skew-space search is projective")
    geom, k = F.geom, F.k
    table = geom.sub_table(k + 1, k)
    free = np.flatnonzero(
        ~row_reduce_full(np.logical_or, F.chi.view(bool), table))
    if not len(free):
        return None
    K = table[free].min()
    j = free[(table[free] == K).any(axis=1)][0]
    return geom.subspaces(k + 1)[j]


# ---------------------------------------------------------------------------
# pg_to_ag through a coordinate change found by rank
# ---------------------------------------------------------------------------

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


def pg_to_ag_oracle(F: KFamily, H: Subspace | None = None) -> KFamily:
    """pg_to_ag with the transform above, member by member."""
    if F.geom.kind != "PG":
        raise GuardViolated("pg_to_ag expects a projective family")
    geom = F.geom
    field = geom.field
    members = np.flatnonzero(F.chi)
    mats = geom.subspaces(F.k).codes[members]
    if H is not None and H.mat != _default_hyperplane(geom).mat:
        if H.k != geom.n - 1:
            raise GuardViolated("H must be a hyperplane")
        cols = _hyperplane_transform(geom, H)
        mats = [rref(_apply_transform(field, m, cols), field)[0]
                for m in mats.tolist()]
    ag = geometry("AG", geom.n, geom.q)
    out = ag.subspace_index(F.k, mats)
    inside = np.flatnonzero(out < 0)
    if len(inside):
        raise MemberInsideHyperplane(int(members[inside[0]]))
    return KFamily(ag, F.k, out)


# ---------------------------------------------------------------------------
# sieve bounds in Fraction
# ---------------------------------------------------------------------------

def c8_fraction(n: int, k: int, q: int) -> Fraction:
    """C(n,k,q)^8 = q^(4n-2k^2-6k-12) (q-1)^(2k^2-2k+4) (q^2+q+1)^4 / 2,
    multiplied out in Fraction."""
    return (Fraction(q) ** (4 * n - 2 * k * k - 6 * k - 12)
            * (q - 1) ** (2 * k * k - 2 * k + 4)
            * (q * q + q + 1) ** 4 / 2)


class FractionRoot(NamedTuple):
    """The bound a*C + b of a `sieve._Root`, with a, b and C^8 reduced."""
    a: Fraction
    b: Fraction
    c8: Fraction


def fraction_root(root: _Root) -> FractionRoot:
    return FractionRoot(Fraction(root.an, root.ad), Fraction(root.bn, root.bd),
                        Fraction(root.c8n, root.c8d))


def below_fraction(x, bound) -> bool:
    """Exact x < bound: for a _Root, y = (x - b)/a is <= 0 or y^8 < C^8."""
    if not isinstance(bound, _Root):
        return x < bound
    a, b, c8 = fraction_root(bound)
    y = (x - b) / a
    return y <= 0 or y ** 8 < c8


def exact_floor_fraction(bound, scale: int = 1) -> int:
    """floor(scale * bound): for a _Root, the integer 8th root Z of
    floor((scale*a)^8 C^8), then m = floor(Z + scale*b) + 1 or m - 1,
    whichever lies below the irrational scale*bound."""
    if not isinstance(bound, _Root):
        return floor(scale * bound)
    a, b, c8 = fraction_root(bound)
    z = isqrt(isqrt(isqrt(floor((scale * a) ** 8 * c8))))
    m = floor(z + scale * b) + 1
    return m if below_fraction(Fraction(m, scale), bound) else m - 1


def threshold_fraction(bound) -> int:
    """Least integer t >= 0 with not (t < bound)."""
    if isinstance(bound, _Root):
        return max(0, exact_floor_fraction(bound) + 1)
    return max(0, ceil(bound))


def rule_table_fraction(space: str, n: int, k: int, q: int) -> list:
    """`sieve._RuleTable(space, n, k, q).rules` with each rule's residues
    as the set of every residue mod 2(q+1) it fires on, its ends from
    `threshold_fraction` and the lines-modular end from a Fraction."""
    every = frozenset(range(2 * (q + 1)))
    pg, d = space == "PG", n - k
    rules = []

    def congruence(rid, solvable, hi=None):
        rules.append((rid, 0, hi, frozenset(
            r for r in every if not solvable(r, q))))

    if space == "AG" and d % 2 == 0 and d >= 2:
        congruence("affine-modular", affine_condition)
    if pg and n == 3 and k == 1:
        congruence("gm-modular", gm_condition_solvable)
    if pg and n >= 2 * k + 1 and d % 2 == 0 and d + 1 >= 7:
        congruence("lines-modular", line_condition_solvable,
                   threshold_fraction(Fraction(q ** d - 1,
                                               q ** (k + 1) - 1)))
    for rule_space, rid, bound in bound_rules():
        if rule_space == space:
            try:
                rules.append((rid, 1, threshold_fraction(bound(n, k, q)),
                              every))
            except GuardViolated:
                pass
    if pg:
        try:
            rules.append(("c-interval", 2, threshold_fraction(
                classification_threshold(n, k, q)), every))
        except GuardViolated:
            pass
    if pg and k >= 2 and n >= 2 * k + 1 and q <= 5:
        rules.append(("small-q-trivial", 0, None, every))
    return rules


# ---------------------------------------------------------------------------
# sieve rules, one x at a time
# ---------------------------------------------------------------------------

def lift_bound(B_t, t: int, n: int, k: int, q: int):
    """Lift a rational lower bound B_t valid in dimension t up to
    dimension n."""
    if t < 3 * k + 2:
        raise GuardViolated(f"requires t >= 3k+2, got t={t}, k={k}")
    if n < t + 1:
        raise GuardViolated(f"requires n >= t+1, got n={n}, t={t}")
    step = Fraction(q ** (n - k) - 1, q ** (t - k) - 1)
    return (B_t - 1) * step + 1


def classification_rules(space: str, n: int, k: int, q: int, x: Fraction):
    """Interval/classification exclusions for a (possibly rational) x.

    Returns the list of firing rule ids; trivial parameters never fire."""
    if x in trivial_params(space, n, k, q):
        return []
    out = []
    if space == "PG" and n >= 3 * k + 2:
        if (0 < x < 1) or (1 < x < 2):
            out.append("unit-intervals")
        if x >= 2 and below_fraction(
                x, classification_threshold(n, k, q)):
            out.append("c-interval")
    if space == "PG" and k >= 2 and n >= 2 * k + 1 and q <= 5:
        out.append("small-q-trivial")
    return out


def firing_rules(space: str, n: int, k: int, q: int, x: Fraction) -> list:
    """Ids of every rule excluding the (non-trivial) parameter x, each rule
    evaluated on x directly under its guard as `sieve.RULES` writes it; the
    reference for `sieve._RuleTable`, which decides the guards apart."""
    pg, ag = space == "PG", space == "AG"
    out = []
    if x.denominator == 1:
        congruences = (
            ("gm-modular", pg and n == 3 and k == 1, gm_condition_solvable),
            ("lines-modular", pg and n >= 2 * k + 1 and (n - k) % 2 == 0
             and n - k + 1 >= 7
             and x < Fraction(q ** (n - k) - 1, q ** (k + 1) - 1),
             line_condition_solvable),
            ("affine-modular", ag and (n - k) % 2 == 0 and n - k >= 2,
             affine_condition))
        out += [rid for rid, guard, solvable in congruences
                if guard and not solvable(int(x), q)]
    if x > 0:
        bounds = (
            ("pencil-lift", pg and n >= 3 * k + 3, pencil_lift_bound),
            ("ihringer", pg and n >= 3 * k, ihringer_bound),
            ("improved-lift", pg and n >= 3 * k + 3, improved_lift_bound),
            ("hyperplane-average", pg and n >= 3 * k + 4,
             hyperplane_average_bound),
            ("affine-bound", ag and n >= 2 * k + 2, affine_pencil_bound))
        out += [rid for rid, guard, bound in bounds
                if guard and below_fraction(x, bound(n, k, q))]
    out.extend(classification_rules(space, n, k, q, x))
    return out


def direct_entry(space: str, n: int, k: int, q: int, x: int) -> tuple:
    """(status, rules) of the integer x from the per-x rules, on x and on
    its complement X_max - x when that is another integer >= 0."""
    if Fraction(x) in trivial_params(space, n, k, q):
        return "TRIVIAL", []
    ids = firing_rules(space, n, k, q, Fraction(x))
    comp = x_max_param(space, n, k, q) - x
    if comp >= 0 and comp.denominator == 1 and comp != x:
        ids += [r + "[complement]"
                for r in firing_rules(space, n, k, q, comp)]
    ids = sorted(set(ids))
    return ("EXCLUDED" if ids else "OPEN"), ids


# ---------------------------------------------------------------------------
# sieve reports, one x at a time
# ---------------------------------------------------------------------------

def _labels_per_x(report):
    """(x, status, rules) of every x of the report, from its runs."""
    for run in report.runs:
        for x in range(run.start, run.stop):
            status, rules = run.labels[(x - run.start) % len(run.labels)]
            yield x, status, rules


def sieve_json_per_x(report) -> str:
    """`SieveReport.to_json()` with one f-string per entry."""
    entries = []
    for x, status, rules in _labels_per_x(report):
        items = ",".join(f"\n    {json.dumps(r)}" for r in rules)
        listed = f"[{items}\n   ]" if rules else "[]"
        entries.append(f'  {{\n   "x": {x},\n   "status": '
                       f'{json.dumps(status)},\n   "rules": {listed}\n  }}')
    head = json.dumps({**report._json_head(), "entries": []}, indent=1)
    if not entries:
        return head + "\n"
    return head[:-len("[]\n}")] + "[\n" + ",\n".join(entries) + "\n ]\n}\n"


def sieve_csv_per_x(report) -> str:
    """`SieveReport.to_csv()` with one f-string per row."""
    return "x,status,rules\n" + "".join(
        f"{x},{status},{';'.join(rules)}\n"
        for x, status, rules in _labels_per_x(report))
