import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clgeom.errors import (
    InvalidRange,
    NotContaining,
    NotDivisible,
    NotSkew,
    TooManySubspaces,
)
from clgeom.ff import ff_create, ff_extend
from clgeom.geometry import (
    Geometry,
    canonical_complement,
    field_reduction_spread,
    gauss0,
    gauss_binom,
    geometry,
    make_subspace,
    meet,
    point_in_subspace,
    project_subspace,
    rref,
    span,
    subspace_contains,
)


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


def test_point_enumeration():
    g = geometry("PG", 3, 2)
    assert len(g.points) == 15
    assert g.points[0] == (0, 0, 0, 1)  # lex-sorted normalized vectors
    assert len(set(g.points)) == 15
    ag = geometry("AG", 3, 2)
    assert len(ag.points) == 8
    assert all(p[0] == 1 for p in ag.points)
    assert len(ag.infinite_points()) == 7


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
        assert table.shape[0] == len(subs) and table.dtype == np.int64
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
    index = g.subspace_index(k)
    for s in S:
        assert s.mat in index
        pts = set(g.points_of(s).tolist())
        assert not cover & pts
        cover |= pts
    assert cover == set(range(g.num_points))


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
