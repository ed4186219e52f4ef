import hashlib
import importlib
import json
import random
import time
import tracemalloc
from functools import cached_property
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clgeom.errors import (
    DimensionMismatch,
    InvalidRange,
    NotDivisible,
    TooManySubspaces,
)
from clgeom import cli, ff
from clgeom.clcore import KFamily, ag_to_pg, check_drudge_identity
from clgeom.ff import FieldCtx, factor_prime_power, ff_create, ff_extend
from clgeom.geometry import (
    Geometry,
    Subspace,
    _basis_columns,
    _blocks_of,
    _combine,
    _enumerate_pg,
    canonical_complement,
    field_reduction_spread,
    gauss0,
    gauss_binom,
    geometry,
    make_subspace,
    point_in_subspace,
    rref,
)
from oracles import (
    NotContaining,
    NotSkew,
    enumerate_pg_mixed_radix,
    field_reduction_spread_subspaces,
    locate_by_combine,
    meet,
    project_subspace,
    span,
    subspace_contains,
)


# the package re-exports the function geometry under the module's name
geometry_module = importlib.import_module("clgeom.geometry")


def gauss_oracle(n, k, q):
    """Independent recursion: [n k]_q = [n-1 k-1]_q + q^k [n-1 k]_q."""
    if k < 0 or k > n:
        return 0
    if k == 0 or k == n:
        return 1
    return gauss_oracle(n - 1, k - 1, q) + q ** k * gauss_oracle(n - 1, k, q)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_gauss_binom_against_recursion(q):
    for n in range(8):
        for k in range(n + 1):
            assert gauss_binom(n, k, q) == gauss_oracle(n, k, q)


def test_gauss_binom_known_values():
    assert gauss_binom(4, 2, 2) == 35
    assert gauss_binom(6, 3, 2) == 1395
    assert gauss_binom(4, 2, 3) == 130
    with pytest.raises(InvalidRange):
        gauss_binom(3, 5, 2)
    assert gauss0(3, 5, 2) == 0
    assert gauss0(-1, 0, 2) == 0


def test_gauss_binom_is_memoized_and_still_refuses():
    """Memoized, the values stay those of the product formula, and an
    invalid argument raises on every call (an exception is not cached)."""
    gauss_binom.cache_clear()
    assert gauss_binom(6, 3, 2) == gauss_binom(6, 3, 2) == 1395
    assert gauss_binom.cache_info().hits >= 1
    for args in ((3, 5, 2), (3, -1, 2)):
        for _ in range(2):
            with pytest.raises(InvalidRange):
                gauss_binom(*args)


@pytest.mark.parametrize("n,q", [(4, 2), (5, 2), (3, 3), (3, 4), (3, 5),
                                 (2, 8), (2, 9)])
def test_basis_columns_hold_the_rref_rows(n, q):
    """On every k-level, k = n included, the points in a row's basis
    columns are the rows of its canonical matrix, in order."""
    g = geometry("PG", n, q)
    for k in range(n + 1):
        cols = _basis_columns(q, k)
        assert cols == sorted(cols, reverse=True) and len(cols) == k + 1
        codes = g.subspaces(k).codes
        rows = g.subspace_index(0, codes.reshape(-1, 1, n + 1))
        assert np.array_equal(rows.reshape(-1, k + 1),
                              g.point_table(k)[:, cols])


def test_point_enumeration():
    g = geometry("PG", 3, 2)
    assert len(g.points) == 15
    assert g.points[0] == (0, 0, 0, 1)  # lex-sorted normalized vectors
    assert len(set(g.points)) == 15
    ag = geometry("AG", 3, 2)
    assert len(ag.points) == 8
    assert all(p[0] == 1 for p in ag.points)
    # the points at infinity (X0 = 0) are the closure's first 7
    assert [p[0] for p in g.points] == [0] * 7 + [1] * 8


def test_subspace_counts():
    g = geometry("PG", 3, 2)
    assert len(g.subspaces(1)) == 35
    assert len(g.subspaces(2)) == 15
    g3 = geometry("PG", 3, 3)
    assert len(g3.subspaces(1)) == 130
    ag = geometry("AG", 3, 2)
    assert len(ag.subspaces(1)) == 28  # q^(n-k) * [n k]_q = 4 * 7
    assert len(ag.subspaces(2)) == 14


def test_subspace_cap():
    g = geometry("PG", 9, 3)
    with pytest.raises(TooManySubspaces):
        g.subspaces(4)


def test_subspaces_are_canonical_and_sorted():
    g = geometry("PG", 3, 2)
    subs = g.subspaces(1)
    mats = [s.mat for s in subs]
    assert mats == sorted(mats)
    for s in subs:
        # rows already in RREF: re-reducing is the identity
        red, piv = rref(s.mat, g.field)
        assert red == s.mat and piv == s.pivots


def test_incidence_column_sums():
    g = geometry("PG", 3, 2)
    inc = g.incidence(1)
    assert inc.shape == (15, 35)
    assert set(inc.sum(axis=0)) == {3}   # points per line
    assert set(inc.sum(axis=1)) == {7}   # lines per point
    ag = geometry("AG", 3, 2)
    ai = ag.incidence(1)
    assert ai.shape == (8, 28)
    assert set(ai.sum(axis=0)) == {2}
    assert set(ai.sum(axis=1)) == {7}


ORACLE_GEOMS = [(kind, n, q) for kind in ("PG", "AG")
                for n, q in ((3, 2), (3, 3), (3, 4), (2, 8), (2, 9))]


@pytest.mark.parametrize("kind,n,q", ORACLE_GEOMS)
def test_point_table_matches_membership_oracle(kind, n, q):
    """Table rows and points_of against brute-force membership; incidence
    and masks against the table."""
    g = geometry(kind, n, q)
    for k in range(n + 1):
        table = g.point_table(k)
        subs = g.subspaces(k)
        assert table.shape[0] == len(subs)
        assert table.dtype == np.min_scalar_type(len(g.points) - 1)
        inc = g.incidence(k)
        assert inc.shape == (len(g.points), len(subs)) and inc.dtype == np.uint8
        assert inc.sum() == table.size
        masks = g.point_masks(k)
        assert len(masks) == len(subs)
        for j, (row, sub) in enumerate(zip(table, subs)):
            expect = [i for i, p in enumerate(g.points)
                      if point_in_subspace(g.field, p, sub)]
            assert row.tolist() == expect
            assert g.points_of(sub).tolist() == expect
            assert np.flatnonzero(inc[:, j]).tolist() == expect
            assert masks[j] == sum(1 << i for i in expect)


def test_points_of_subspaces_at_infinity():
    """An AG geometry's points_of takes any subspace of the closure: those
    inside X0 = 0 hold no affine point, the others q^k of them."""
    g = geometry("AG", 3, 3)
    for k in range(4):
        for sub in g.closure().subspaces(k):
            expect = [i for i, p in enumerate(g.points)
                      if point_in_subspace(g.field, p, sub)]
            got = g.points_of(sub).tolist()
            assert got == expect
            assert len(got) == (3 ** k if any(r[0] for r in sub.mat) else 0)
    assert g.points_of(make_subspace([], g.field, 4)).tolist() == []


@pytest.mark.parametrize("kind,n,q", [g for g in ORACLE_GEOMS if g[0] == "AG"])
def test_ag_ranks_are_the_closure_ranks(kind, n, q):
    """An AG geometry ranks every point of its closure, those at infinity
    too, as the closure does, from codes and from keys: one ranking."""
    g = geometry(kind, n, q)
    points = g.closure().subspaces(0)
    vecs = points.codes[:, 0]
    lead = (vecs != 0).argmax(axis=1)
    for geom in (g, g.closure()):
        assert np.array_equal(geom._rank(lead, vecs), np.arange(len(vecs)))
        assert np.array_equal(geom._rank(lead, keys=points.keys),
                              np.arange(len(vecs)))


@pytest.mark.parametrize("kind,n,q", [g for g in ORACLE_GEOMS if g[0] == "AG"])
def test_from_closure_drops_the_spaces_at_infinity(kind, n, q, monkeypatch):
    """from_closure is the identity in PG.  In AG the point tables, sub
    tables, points_of and the CLI's spread equal the closure's with the
    k-spaces inside X0 = 0 dropped and the others renumbered in order,
    told apart here by the codes' column 0."""
    g = geometry(kind, n, q)
    closure = g.closure()
    pos = np.arange(5)
    # renumber[k][i]: the position among g's k-spaces of the closure's
    # k-space i, -1 for one inside X0 = 0
    renumber = []
    for k in range(n + 1):
        assert closure.from_closure(k, pos) is pos
        affine = closure.subspaces(k).codes[:, :, 0].any(axis=1)
        renumber.append(np.where(affine, np.cumsum(affine) - 1, -1))

    def reference(j, rows):
        rows = renumber[j][rows]
        return rows[rows >= 0].reshape(len(rows), -1)

    spreads = []
    monkeypatch.setattr(cli.clcore, "check_spread",
                        lambda F, S: spreads.append(S) or True)
    for k in range(n + 1):
        affine = renumber[k] >= 0
        assert np.array_equal(g.point_table(k), reference(
            0, closure.point_table(k)[affine]))
        for j in range(1, k):
            assert np.array_equal(g.sub_table(k, j), reference(
                j, closure.sub_table(k, j)[affine]))
        for sub in closure.subspaces(k):
            assert np.array_equal(g.points_of(sub), reference(
                0, closure.points_of(sub)[None])[0])
        if (n + 1) % (k + 1) == 0:
            cli._run_check(KFamily(g, k, [0]), "spread", random.Random(0))
            want = renumber[k][field_reduction_spread(n, k, q)]
            assert np.array_equal(spreads.pop(), want[want >= 0])


def enumerate_oracle(kind, n, q, k):
    """The k-spaces in pure Python: every pivot pattern with every
    assignment of its free entries, sorted as tuples of tuples; AG keeps
    those not inside X0 = 0."""
    n1, r = n + 1, k + 1
    mats = []
    for pivots in combinations(range(n1), r):
        free = [(i, c) for i in range(r) for c in range(pivots[i] + 1, n1)
                if c not in pivots]
        for assignment in product(range(q), repeat=len(free)):
            mat = [[0] * n1 for _ in range(r)]
            for i, c in enumerate(pivots):
                mat[i][c] = 1
            for (i, c), v in zip(free, assignment):
                mat[i][c] = v
            mats.append(tuple(map(tuple, mat)))
    mats.sort()
    if kind == "AG":
        mats = [m for m in mats if any(row[0] for row in m)]
    pivots = [tuple(next(c for c in range(n1) if row[c]) for row in m)
              for m in mats]
    return mats, pivots


# every level of the oracle geometries, and PG(6,3) k=5, whose 1093 keys need
# 67 bits and so take the byte-key route
LEVELS = [(kind, n, q, k) for kind, n, q in ORACLE_GEOMS
          for k in range(n + 1)] + [("PG", 6, 3, 5)]


@pytest.mark.parametrize("kind,n,q,k", LEVELS)
def test_level_matches_enumeration_oracle(kind, n, q, k):
    g = geometry(kind, n, q)
    level = g.subspaces(k)
    mats, pivots = enumerate_oracle(kind, n, q, k)
    assert [s.mat for s in level] == mats
    assert [s.pivots for s in level] == pivots
    assert [level[j].mat for j in (0, -1, len(mats) - 1)] == \
        [mats[0], mats[-1], mats[-1]]
    assert all(type(c) is int for s in level
               for c in sum(s.mat, s.pivots) + (s.ncols,))
    with pytest.raises(IndexError):
        level[len(mats)]
    # the table from the oracle's matrices by field products
    pos, hit = locate_by_combine(g, np.array(mats, dtype=np.int64))
    assert np.array_equal(g.point_table(k),
                          pos[hit].reshape(len(mats), -1))
    order = np.arange(len(mats))
    assert np.array_equal(g.subspace_index(k, mats), order)
    assert np.array_equal(g.subspace_index(k, level.codes), order)
    # non-members: the zero matrix (not of full rank), a non-code, a
    # matrix with its rows swapped (not RREF) and, in AG, a k-space inside
    # X0 = 0
    zero = [[0] * (n + 1)] * (k + 1)
    wide = [list(row) for row in mats[0]]
    wide[0][-1] = q
    misses = [zero, wide] + ([mats[0][::-1]] if k else [])
    if kind == "AG" and k < n:
        inside = [[int(c == i + 1) for c in range(n + 1)] for i in range(k + 1)]
        misses.append(inside)
        assert g.closure().subspace_index(k, [inside])[0] >= 0
    assert g.subspace_index(k, misses).tolist() == [-1] * len(misses)
    with pytest.raises(DimensionMismatch):
        g.subspace_index(k, [[[0] * n] * (k + 1)])


@pytest.mark.parametrize("kind,n,q,k", [("PG", 4, 2, 1), ("AG", 3, 3, 2)])
def test_level_slices_are_lists_of_subspaces(kind, n, q, k):
    level = geometry(kind, n, q).subspaces(k)
    every = [level[j] for j in range(len(level))]
    for cut in (slice(None, 40), slice(5, 30, 3), slice(-3, None),
                slice(None, None, -7), slice(len(level), None)):
        got = level[cut]
        assert type(got) is list and got == every[cut]
        assert all(type(s) is Subspace for s in got)
    # integer indexing is as it was: numpy integers index, floats do not
    assert level[np.int64(-1)] == every[-1]
    with pytest.raises(TypeError):
        level[1.0]


@pytest.mark.parametrize("kind,n,q,k",
                         [level for level in LEVELS if level[0] == "AG"])
def test_ag_level_is_the_tail_of_the_closure_level(kind, n, q, k):
    """An AG level views the last of its closure's k-spaces without a copy,
    and `ag_to_pg` shifts indices by the count of those inside X0 = 0."""
    g = geometry(kind, n, q)
    level, full = g.subspaces(k), g.closure().subspaces(k)
    assert np.shares_memory(level.codes, full.codes)
    assert np.shares_memory(level.keys, full.keys)
    every = KFamily(g, k, np.arange(len(level)))
    assert np.array_equal(ag_to_pg(every).indices,
                          g.closure().subspace_index(k, level.codes))


@pytest.mark.parametrize("kind,n,q,k", LEVELS)
def test_blocks_of_inverts_point_table(kind, n, q, k):
    """Every block is found again from its points in shuffled order; AG
    blocks from the closure's rows."""
    g = geometry(kind, n, q)
    closure = g.closure()
    rows = closure.point_table(k)[closure.subspace_index(k, g.subspaces(k).codes)]
    shuffled = np.random.default_rng(len(rows)).permuted(rows, axis=1)
    assert k == 0 or not np.array_equal(shuffled, rows)
    assert np.array_equal(_blocks_of(g, k, shuffled), np.arange(len(rows)))


@pytest.mark.parametrize("kind,n,q,k", LEVELS)
def test_locate_ranks_match_binary_search(kind, n, q, k):
    """_rank's closed-form ranks of the combine route's points against a
    binary search of each vector's key among the point keys, on every block
    of the closure's level; in AG the blocks through points at infinity
    (X0 = 0) miss exactly there."""
    g = geometry(kind, n, q)
    point_keys = g.subspaces(0).keys
    coeffs = (np.ones((1, 1), dtype=np.int64) if k == 0 else
              geometry("PG", k, q).subspaces(0).codes[:, 0])
    mats = g.closure().subspaces(k).codes.astype(np.int64)
    vecs = _combine(g.field, coeffs, mats)
    keys = vecs @ q ** np.arange(n, -1, -1, dtype=np.int64)
    want = np.minimum(np.searchsorted(point_keys, keys), len(point_keys) - 1)
    want_hit = point_keys[want] == keys
    pos, hit = locate_by_combine(g, mats)
    assert np.array_equal(hit, want_hit)
    assert np.array_equal(pos[hit], want[want_hit])
    if kind == "PG":
        assert hit.all()
    else:
        assert np.array_equal(hit, vecs[..., 0] != 0) and not hit.all()


@pytest.mark.parametrize("kind,n,q,k",
                         LEVELS + [("PG", 2, 43, 1), ("AG", 2, 43, 1)])
def test_digit_route_matches_combine_route(kind, n, q, k):
    """The point table, whose keys are summed from the digit table D_(k+1)
    for 0 < k < n, lists the hits of the _combine route (tests/oracles.py,
    the route of points_of) at their positions on every block of the
    level, and over GF(43), a prime past the oracle geometries' fields."""
    g = geometry(kind, n, q)
    codes = g.subspaces(k).codes
    pos, hit = locate_by_combine(g, codes.astype(np.int64))
    assert np.array_equal(g.point_table(k), pos[hit].reshape(len(codes), -1))


@pytest.mark.parametrize("kind", ["PG", "AG"])
def test_digit_route_keys_past_sixteen_bits(kind):
    """A point led at column i has a key below 2 q^(n-i), so the keys of
    PG(2,191) reach 2 * 191^2 - 1 = 72961, past 16 bits: on every 37th
    line the point table, summed from D_2, lists the hits of the _combine
    route at their positions, which D_r and its key sums in int16 or
    uint16 would not."""
    g = geometry(kind, 2, 191)
    assert g.subspaces(0).keys[-1] == 2 * 191 ** 2 - 1
    codes = g.subspaces(1).codes[::37]
    pos, hit = locate_by_combine(g, codes.astype(np.int64))
    assert np.array_equal(g.point_table(1)[::37],
                          pos[hit].reshape(len(codes), -1))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_digit_tables_stay_within_their_level(q, monkeypatch):
    """The point table of every level strictly between the points and the
    whole space reads D_(k+1), one of q^(k+1) x theta entries, never more
    than the table's own (as many in AG's hyperplanes, nearly as many in
    PG's: the tightest levels); the point tables of k = 0 and k = n, every
    sub table (once the point tables it refines are built, the closure's
    in AG) and a single subspace's points build none."""
    built = []
    digit_table = Geometry._digit_table

    def recorded(g, r):
        built.append(digit_table(g, r))
        return built[-1]

    monkeypatch.setattr(Geometry, "_digit_table", recorded)
    field = ff_create(*factor_prime_power(q))
    for kind, n in (("PG", 2), ("PG", 3), ("AG", 2), ("AG", 3)):
        g = Geometry(kind, n, field)
        g.points_of(g.subspaces(1)[-1])
        assert built == []
        for k in range(n + 1):
            table = g.point_table(k)
            assert [d.shape for d in built] == (
                [(q ** (k + 1), gauss_binom(k + 1, 1, q))] if 0 < k < n
                else [])
            assert sum(d.size for d in built) <= table.size
            g.closure().point_table(k)
            built.clear()
            for j in range(1, k):
                g.sub_table(k, j)
                assert built == []


@pytest.mark.parametrize("n,q,k", [(6, 2, 2), (5, 3, 1), (4, 4, 2),
                                   (3, 9, 1), (6, 3, 5)])
def test_enumeration_matches_mixed_radix_counter(n, q, k):
    """The broadcast grids give the codes and keys that a mixed-radix
    counter decoded by divmod gives, past the oracle geometries' n <= 4
    (PG(6,3) k=5 on the byte-key route), with keys strictly ascending."""
    codes, keys = _enumerate_pg(q, n + 1, k + 1)
    want_codes, want_keys = enumerate_pg_mixed_radix(q, n + 1, k + 1)
    assert codes.dtype == want_codes.dtype and keys.dtype == want_keys.dtype
    assert np.array_equal(codes, want_codes)
    assert np.array_equal(keys, want_keys)
    assert (keys[1:] > keys[:-1]).all()
    assert len(keys) == gauss_binom(n + 1, k + 1, q)


@pytest.mark.parametrize("kind,n,q,k", [
    ("PG", 4, 3, 2), ("AG", 4, 3, 2), ("PG", 4, 4, 2), ("AG", 4, 4, 2),
    ("PG", 5, 2, 3), ("PG", 6, 2, 3), ("AG", 5, 2, 3), ("PG", 3, 8, 2),
    ("AG", 3, 9, 2), ("PG", 4, 3, 3), ("PG", 8, 2, 7)])
def test_sub_table_digit_route_matches_combine_route(kind, n, q, k):
    """Sub tables whose keys are composed from the point keys of the point
    table's entries (the closure's rows in AG) equal C.M from _combine
    looked up by subspace_index, on hyperplanes too, and with byte keys
    (PG(8,2)'s 6-spaces).  Each j whose C.M stack has
    at most 10^7 entries: for PG(8,2) j = 6 alone."""
    g = geometry(kind, n, q)
    codes = g.subspaces(k).codes.astype(np.int64)
    for j in range(1, k):
        m = gauss_binom(k + 1, j + 1, q) if kind == "PG" else \
            q ** (k - j) * gauss_binom(k, j, q)
        if len(codes) * m * (j + 1) * (n + 1) > 10 ** 7:
            continue
        coeffs = geometry(kind, k, q).subspaces(j).codes
        subs = _combine(g.field, coeffs.reshape(-1, k + 1).astype(np.int64),
                        codes)
        want = g.subspace_index(j, subs.reshape(-1, j + 1, n + 1))
        table = g.sub_table(k, j)
        assert table.dtype == np.min_scalar_type(len(g.subspaces(j)) - 1)
        assert np.array_equal(table, want.reshape(len(codes), -1))


def test_sub_table_byte_key_route():
    """PG(8,2)'s 6-spaces have byte keys (63 bits of entries), composed
    from their rows' point keys as the int64 keys are: the whole space
    lists every 6-space, each hyperplane's row ascends, each 6-space lies
    in q+1 = 3 hyperplanes, and the sampled ones lie in their hyperplane's
    points."""
    g = geometry("PG", 8, 2)
    level = g.subspaces(6)
    assert level.keys.dtype != np.int64
    assert np.array_equal(g.sub_table(8, 6), np.arange(len(level))[None])
    table = g.sub_table(7, 6)
    assert (np.diff(table.astype(np.int64), axis=1) > 0).all()
    assert (np.bincount(table.ravel(), minlength=len(level)) == 3).all()
    for row, points in zip(table[::100], g.point_table(7)[::100]):
        for s in row[::50]:
            assert np.isin(g.points_of(level[s]), points).all()


def test_sub_table_builds_no_digit_table():
    """A sub table is derived from the point table it refines: after
    PG(3,16)'s plane table and line level, the plane-to-line table (4369 x
    273 uint32, 4.8 MB) is built within its own bytes and 1 MB of chunks,
    with no digit table D_3 (4096 x 273 int32, 4.5 MB) beside it."""
    g = Geometry("PG", 3, ff_create(2, 4))
    g.point_table(2)
    g.subspaces(1)
    tracemalloc.start()
    try:
        table = g.sub_table(2, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.nbytes > 4_500_000
    assert peak < table.nbytes + 2 ** 20


def test_ag_sub_table_builds_no_closure_sub_table(monkeypatch):
    """AG's sub tables run the loop PG's do, over the closure's point table
    rows of the affine k-flats: after AG(3,16)'s levels and the closure's
    plane table, the plane-to-line table (4368 x 272 uint32, 4.8 MB) is
    built within its own bytes and 1 MB, and the closure's table of the
    same size is never built beside it."""
    monkeypatch.setattr(geometry_module, "_GEOMETRIES", {})
    g = geometry("AG", 3, 16)
    g.subspaces(2)
    g.subspaces(1)
    g.closure().point_table(2)
    tracemalloc.start()
    try:
        table = g.sub_table(2, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.shape == (4368, 272) and table.dtype == np.uint32
    assert (2, 1) not in g.closure()._tables
    assert peak < table.nbytes + 2 ** 20


@pytest.mark.parametrize("n,q", [
    (2.0, 2), (2.5, 2), (True, 2), (np.True_, 2), (2, 2.0), (2, True),
    ("2", 2)], ids=repr)
def test_geometry_refuses_non_integer_dimension_and_order(n, q, monkeypatch):
    """A bool or a non-integer n or q is refused before the cache is read,
    so it caches nothing: 2.0 would be cached under PG(2,2)'s key and
    poison it, and True would be taken as 1.  numpy integers are ints."""
    monkeypatch.setattr(geometry_module, "_GEOMETRIES", {})
    with pytest.raises(ValueError):
        geometry("PG", n, q)
    assert geometry_module._GEOMETRIES == {}
    g = geometry("PG", 2, 2)
    assert type(g.n) is int and len(g.subspaces(1)) == 7
    assert geometry("PG", np.int64(2), np.uint8(2)) is g
    pencil = KFamily(geometry("PG", 3, 2), 1, range(7))
    assert isinstance(check_drudge_identity(
        pencil, 0, geometry("PG", 3, 2).subspaces(2)[0]), bool)


@pytest.mark.parametrize("q", [4, 8, 9, 16])
@pytest.mark.parametrize("kind", ["PG", "AG"])
def test_point_table_makes_no_scalar_field_calls(kind, q, monkeypatch):
    """Over GF(p^h), h > 1, every product and sum of the point table is a
    gather from the field's q x q tables, built on first use from a fresh
    field: no scalar FieldCtx.mul or add runs."""
    want = [geometry(kind, 3, q).point_table(k) for k in range(4)]
    # fresh fields and geometries, dropped again after the test
    monkeypatch.setattr(ff, "_FIELDS", {})
    monkeypatch.setattr(ff, "_EXTENSIONS", {})
    monkeypatch.setattr(geometry_module, "_GEOMETRIES", {})
    g = geometry(kind, 3, q)

    def scalar(*args):
        raise AssertionError("scalar field arithmetic in the point table")

    monkeypatch.setattr(FieldCtx, "mul", scalar)
    monkeypatch.setattr(FieldCtx, "add", scalar)
    assert [g.point_table(k).tolist() for k in range(4)] == \
        [t.tolist() for t in want]


PINNED_VIEWS = json.loads(
    (Path(__file__).parent / "pinned_views.json").read_text())


def _array_digest(a):
    return hashlib.sha256(repr((a.dtype.str, a.shape)).encode()
                          + a.tobytes()).hexdigest()


@pytest.mark.parametrize("config", sorted(PINNED_VIEWS))
def test_views_match_pinned_digests(config):
    """The level codes, point table, incidence matrix and point masks are
    byte for byte those pinned before the closed-form ranks and the q x q
    field gathers: PG and AG, q in {2, 3, 4, 5, 7, 8, 9, 16, 25, 27},
    n = 2..4, every k with v * N <= 2 * 10^6 (166 levels).  The table was
    pinned as int64 and is digested so; it is stored in the smallest
    unsigned dtype that holds a point index."""
    kind, n, q, k = config.split()
    g = geometry(kind, int(n), int(q))
    k = int(k)
    width = (g.num_points + 7) // 8
    masks = hashlib.sha256(b"".join(m.to_bytes(width, "little")
                                    for m in g.point_masks(k))).hexdigest()
    assert [_array_digest(g.subspaces(k).codes),
            _array_digest(g.point_table(k).astype(np.int64)),
            _array_digest(g.incidence(k)), masks] == PINNED_VIEWS[config]
    assert g.point_table(k).dtype == np.min_scalar_type(g.num_points - 1)
    level = g.subspaces(k)
    for j in (0, len(level) - 1):
        assert np.array_equal(g.points_of(level[j]), g.point_table(k)[j])


@pytest.mark.parametrize("p,h", [(2, 1), (5, 1), (2, 3), (3, 2), (5, 2),
                                 (3, 3), (2, 9), (31, 2), (2, 10), (2, 11),
                                 (3, 7)])
def test_combine_matches_field_arithmetic(p, h):
    """Each route of _combine (mod p, gathers from the q x q tables up to
    q = 1024, the field's own methods past the table order), with shared
    and with per-block coefficients, against sums of products entry by
    entry on sampled codes."""
    field = ff_create(p, h)
    rng = np.random.default_rng(field.q)
    mats = rng.integers(0, field.q, size=(4, 3, 5))
    for coeffs in (rng.integers(0, field.q, size=(2, 3)),
                   rng.integers(0, field.q, size=(4, 2, 3))):
        per_block = coeffs if coeffs.ndim == 3 else [coeffs] * len(mats)
        want = [[[0] * 5 for _ in range(2)] for _ in range(len(mats))]
        for b, (cs, m) in enumerate(zip(per_block, mats.tolist())):
            for t, c in enumerate(cs.tolist()):
                for i in range(3):
                    for j in range(5):
                        want[b][t][j] = field.add(want[b][t][j],
                                                  field.mul(c[i], m[i][j]))
        assert _combine(field, coeffs, mats).tolist() == want


def test_level_builds_no_subspace_objects(monkeypatch):
    """Enumeration and the point table work on the code array alone."""
    made = []

    def counting(*args):
        made.append(args)
        return Subspace(*args)

    monkeypatch.setattr(geometry_module, "Subspace", counting)
    g = Geometry("PG", 5, ff_create(3))
    assert len(g.subspaces(1)) == 11011
    assert g.point_table(1).shape == (11011, 4)
    assert made == []
    assert g.subspaces(1)[7].k == 1 and len(made) == 1


def test_point_table_over_large_field():
    """k = 0 and k = n need no field products."""
    t0 = time.perf_counter()
    g = geometry("PG", 1, 1024)
    for k, shape in ((0, (1025, 1)), (1, (1, 1025))):
        table = g.point_table(k)
        assert table.shape == shape
        assert table.ravel().tolist() == list(range(1025))
        assert g.incidence(k).sum() == 1025
        assert sum(m.bit_count() for m in g.point_masks(k)) == 1025
    assert time.perf_counter() - t0 < 1.0


def test_geometry_rejects_non_canonical_field():
    # GF(4)^2 has GF(16)'s p and h, but other codes
    with pytest.raises(ValueError):
        Geometry("PG", 2, ff_extend(ff_create(2, 2), 2))
    assert geometry("PG", 2, 16).field is ff_create(2, 4)


def test_point_cap():
    g = geometry("PG", 30, 2)
    assert g.subspace_count(30) == 1
    with pytest.raises(TooManySubspaces):
        g.points


def test_incidence_row_sums_match_pencil_size():
    g = geometry("PG", 4, 3)
    inc = g.incidence(1)
    assert set(inc.sum(axis=1)) == {gauss_binom(4, 1, 3)}


def test_point_in_subspace_and_containment():
    g = geometry("PG", 3, 2)
    line = g.subspaces(1)[0]
    pts = [p for p in g.points if point_in_subspace(g.field, p, line)]
    assert len(pts) == 3
    plane = next(s for s in g.subspaces(2)
                 if subspace_contains(g.field, s, line))
    assert plane.k == 2


def test_span_meet_dimension_formula():
    g = geometry("PG", 4, 2)
    lines = g.subspaces(1)
    rng = np.random.default_rng(7)
    for _ in range(40):
        a, b = (lines[i] for i in rng.integers(0, len(lines), 2))
        s = span(g.field, a, b)
        m = meet(g.field, a, b)
        assert s.k + m.k == a.k + b.k  # Grassmann identity


def test_meet_of_disjoint_lines_is_empty():
    g = geometry("PG", 3, 2)
    l1 = make_subspace([(1, 0, 0, 0), (0, 1, 0, 0)], g.field)
    l2 = make_subspace([(0, 0, 1, 0), (0, 0, 0, 1)], g.field)
    assert meet(g.field, l1, l2).k == -1
    assert span(g.field, l1, l2).k == 3


@pytest.mark.parametrize("n,k,q,count", [(3, 1, 2, 5), (5, 1, 2, 21),
                                         (3, 1, 3, 10), (5, 2, 2, 9)])
def test_field_reduction_spread(n, k, q, count):
    g = geometry("PG", n, q)
    S = field_reduction_spread(n, k, q)
    assert len(S) == count
    cover = set()
    assert ((S >= 0) & (S < g.subspace_count(k))).all()
    for s in S:
        pts = set(g.points_of(g.subspaces(k)[s]).tolist())
        assert not cover & pts
        cover |= pts
    assert cover == set(range(g.num_points))


def test_field_reduction_spread_is_a_read_only_array():
    """The positions are built once per (n, k, q) and handed out
    read-only, so no caller can change a later call's spread."""
    S = field_reduction_spread(5, 1, 2)
    assert S.dtype == np.int64 and not S.flags.writeable
    with pytest.raises(ValueError):
        S[0] = S[1]
    assert field_reduction_spread(5, 1, 2) is S


@pytest.mark.parametrize("n,k,q", [
    (3, 1, 2), (5, 1, 2), (3, 1, 3), (5, 2, 2), (5, 1, 3), (7, 1, 3),
    (7, 3, 2), (5, 1, 4), (3, 1, 9), (3, 1, 16), (3, 1, 5), (8, 2, 2),
    (1, 1, 7), (3, 3, 2), (3, 1, 31), (5, 1, 5), (3, 1, 8), (3, 0, 2),
    (2, 0, 4)])
def test_field_reduction_spread_matches_subspace_oracle(n, k, q):
    """The positions read off the elements' points are those of the
    elements eliminated one by one (tests/oracles.py), in order: every
    spread the tests use, PG(7,3) k=1, both ends k = 0 and k = n, and
    extension fields with and without GF(p^h) tables below them."""
    oracle = field_reduction_spread_subspaces(n, k, q)
    want = geometry("PG", n, q).subspace_index(k, [s.mat for s in oracle])
    assert np.array_equal(field_reduction_spread(n, k, q), want)


def test_spread_divisibility_guard():
    with pytest.raises(NotDivisible):
        field_reduction_spread(4, 1, 2)


def test_projection():
    g = geometry("PG", 3, 2)
    pt = make_subspace([(1, 0, 0, 0)], g.field)
    beta = canonical_complement(pt, g.field)
    assert beta.k == 2
    line = make_subspace([(1, 0, 0, 0), (0, 1, 0, 0)], g.field)
    img = project_subspace(g.field, line, pt, beta)
    assert img.k == 0 and img.ncols == 3
    with pytest.raises(NotContaining):
        project_subspace(g.field,
                         make_subspace([(0, 0, 1, 0), (0, 0, 0, 1)], g.field),
                         pt, beta)
    with pytest.raises(NotSkew):
        project_subspace(g.field, line, pt, span(g.field, pt, beta))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 34), st.integers(0, 34))
def test_meet_is_commutative(i, j):
    g = geometry("PG", 3, 2)
    lines = g.subspaces(1)
    a, b = lines[i], lines[j]
    assert meet(g.field, a, b).mat == meet(g.field, b, a).mat
    assert span(g.field, a, b).mat == span(g.field, b, a).mat


@pytest.mark.parametrize("kind", ["PG", "AG"])
def test_huge_dimension_refused_from_its_exponent(kind):
    # at least q^((k+1)(n-k)) k-spaces; q^n is never built
    g = geometry(kind, 10 ** 9, 3)
    for k in (0, 1, 10 ** 9 - 1):
        with pytest.raises(TooManySubspaces, match="at least 3\\^"):
            g.subspaces(k)
    with pytest.raises(TooManySubspaces):
        g.points


def full_elimination_member(field, coords, sub):
    """Row-space membership by eliminating every row and only then looking
    at the remainder: the reference for point_in_subspace's check
    equations."""
    v = list(coords)
    for row, c in zip(sub.mat, sub.pivots):
        f = v[c]
        if f:
            v = [field.sub(a, field.mul(f, b)) for a, b in zip(v, row)]
    return not any(v)


@pytest.mark.parametrize("n,q", [(3, 2), (3, 3), (2, 4), (2, 9)])
def test_point_in_subspace_matches_full_elimination(n, q):
    """Every vector of GF(q)^(n+1), normalized or not, against every
    subspace: equal to the full elimination and to the rank of the
    extended matrix, and for points to points_of."""
    g = geometry("PG", n, q)
    vectors = list(product(range(q), repeat=n + 1))
    # each vector's position among the points, -1 for the others
    indices = g.subspace_index(0, np.array(vectors)[:, None]).tolist()
    for k in range(-1, n + 1):
        subs = [make_subspace([], g.field, n + 1)] if k < 0 else g.subspaces(k)
        for sub in subs:
            inside = set(g.points_of(sub).tolist())
            for v, index in zip(vectors, indices):
                got = point_in_subspace(g.field, v, sub)
                assert got == full_elimination_member(g.field, v, sub)
                assert got == (len(rref(list(sub.mat) + [v], g.field)[0])
                               == len(sub.mat))
                if index >= 0:
                    assert got == (index in inside)


def _raising(*args):
    raise AssertionError("a field operation was called")


@pytest.mark.parametrize("q", [2, 3])
def test_point_in_subspace_calls_no_field_op_over_prime_fields(q, monkeypatch):
    """Over GF(p) the check equations are summed inline, mod p."""
    g = geometry("PG", 3, q)
    subs = [make_subspace([], g.field, 4)] + [
        s for k in range(4) for s in g.subspaces(k)]
    vectors = list(product(range(q), repeat=4))
    want = [[full_elimination_member(g.field, v, s) for v in vectors]
            for s in subs]
    for name in ("mul", "sub", "sub_scaled"):
        monkeypatch.setattr(FieldCtx, name, _raising)
    assert [[point_in_subspace(g.field, v, s) for v in vectors]
            for s in subs] == want


def test_point_in_subspace_stops_at_the_first_failed_equation(monkeypatch):
    """Over GF(4), a vector that fails the first check equation costs at
    most one mul per term of that equation."""
    g = geometry("PG", 3, 4)
    f = g.field
    calls = []
    real = FieldCtx.mul
    monkeypatch.setattr(FieldCtx, "mul",
                        lambda self, a, b: calls.append(1) or real(self, a, b))
    rng = random.Random(4)
    tried = 0
    for k in range(3):
        for sub in g.subspaces(k):
            j, terms = sub._check_equations[0]
            for _ in range(4):
                v = tuple(rng.randrange(4) for _ in range(4))
                r = v[j]
                for c, e in terms:
                    r = f.sub(r, real(f, v[c], e))
                if not r:
                    continue
                calls.clear()
                assert not point_in_subspace(f, v, sub)
                assert len(calls) <= len(terms)
                tried += 1
    assert tried > 1000


def test_check_equations_are_built_once_per_subspace(monkeypatch):
    g = geometry("PG", 3, 3)
    built = []
    real = Subspace.__dict__["_check_equations"].func
    prop = cached_property(lambda self: built.append(1) or real(self))
    prop.__set_name__(Subspace, "_check_equations")
    monkeypatch.setattr(Subspace, "_check_equations", prop)
    line = make_subspace([(1, 0, 2, 1), (0, 1, 1, 0)], g.field)
    for v in product(range(3), repeat=4):
        point_in_subspace(g.field, v, line)
    assert len(built) == 1
    again = make_subspace(list(line.mat), g.field)
    assert point_in_subspace(g.field, (1, 1, 0, 1), again)
    assert len(built) == 2


def test_built_equations_leave_eq_hash_and_repr_alone():
    g = geometry("PG", 3, 4)
    lines = g.subspaces(1)
    for sub in [make_subspace([], g.field, 4)] + [lines[i] for i in range(40)]:
        fresh = Subspace(sub.mat, sub.pivots, sub.ncols)
        point_in_subspace(g.field, (1, 2, 3, 1), sub)
        assert "_check_equations" in sub.__dict__
        assert "_check_equations" not in fresh.__dict__
        assert sub == fresh and fresh == sub
        assert hash(sub) == hash(fresh)
        assert repr(sub) == repr(fresh)
        assert len({sub, fresh}) == 1


@st.composite
def subspace_and_vectors(draw):
    """A random subspace of PG(n,q) from random rows, and vectors to test:
    the zero vector, a random one, a nonzero multiple of it and a random
    combination of the rows (none of them normalized)."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 16]))
    n = draw(st.integers(1, 6))
    field = geometry("PG", n, q).field
    vec = st.tuples(*[st.integers(0, q - 1)] * (n + 1))
    rows = draw(st.lists(vec, max_size=n + 1))
    sub = make_subspace(rows, field, n + 1)
    v = draw(vec)
    s = draw(st.integers(1, q - 1))
    w = (0,) * (n + 1)
    for row in rows:
        a = draw(st.integers(0, q - 1))
        w = tuple(field.add(x, field.mul(a, y)) for x, y in zip(w, row))
    return field, sub, [(0,) * (n + 1), v,
                        tuple(field.mul(s, x) for x in v), w]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(subspace_and_vectors())
def test_point_in_subspace_matches_elimination_and_rank(case):
    field, sub, vectors = case
    for v in vectors:
        got = point_in_subspace(field, v, sub)
        assert got == full_elimination_member(field, v, sub)
        assert got == (len(rref(list(sub.mat) + [v], field)[0])
                       == len(sub.mat))
    assert point_in_subspace(field, vectors[0], sub)
    assert point_in_subspace(field, vectors[3], sub)


@pytest.mark.parametrize("kind", ["PG", "AG"])
def test_points_of_refuses_another_width(kind, monkeypatch):
    """A subspace of the wrong number of coordinates is refused by name,
    before the lookup runs."""
    g = geometry(kind, 3, 2)
    monkeypatch.setattr(Geometry, "_rank", None)
    for ncols in (3, 5):
        for rows in ([], [[1] + [0] * (ncols - 1)],
                     [[int(i == j) for j in range(ncols)]
                      for i in range(ncols)]):
            with pytest.raises(DimensionMismatch, match="coordinates"):
                g.points_of(make_subspace(rows, g.field, ncols))
