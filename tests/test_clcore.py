import importlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

from clgeom import clcore as cc
import numpy as np

from clgeom.errors import (
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
    PointNotInSubspace,
    PreconditionNotMet,
    TooManySubspaces,
)
from clgeom.ff import ff_create
from clgeom.geometry import (
    _CHUNK,
    _basis_columns,
    Geometry,
    canonical_complement,
    field_reduction_spread,
    gauss0,
    gauss_binom,
    geometry,
    make_subspace,
    point_in_subspace,
)
from clgeom.sieve import x_max_param
from oracles import (
    drudge_full_rows,
    indices_inside_full_rows,
    int64_tables,
    meet,
    pg_to_ag_oracle,
    project_full_rows,
    project_subspace,
    rational_is_cl,
    restrict_full_rows,
    skew_space_full_rows,
)


def hyperplane_param(n, k, q):
    return Fraction(q ** (n - k) - 1, q ** (k + 1) - 1)


def trivial_families(geom, k):
    """All trivial kinds valid in the geometry, with their expected x."""
    out = [(cc.construct_trivial(geom, k, "empty"), Fraction(0)),
           (cc.construct_trivial(geom, k, "point_pencil"), Fraction(1))]
    if geom.kind == "PG":
        xh = hyperplane_param(geom.n, k, geom.q)
        out.append((cc.construct_trivial(geom, k, "hyperplane_class"), xh))
        out.append((cc.construct_trivial(geom, k, "pencil_plus_hyperplane",
                                         point=_off_hyperplane_point(geom)),
                    1 + xh))
    xmax = x_max_param(geom.kind, geom.n, k, geom.q)
    out += [(cc.complement(f), xmax - x) for f, x in list(out)]
    return out


def _off_hyperplane_point(geom):
    # first point with X0 != 0 (the default hyperplane is X0 = 0)
    return next(i for i, p in enumerate(geom.points) if p[0] != 0)


SMALL_GEOMS = [("PG", 3, 2, 1), ("PG", 3, 3, 1), ("PG", 4, 2, 1),
               ("AG", 3, 2, 1), ("AG", 3, 3, 1)]


@pytest.mark.parametrize("kind,n,q,k", SMALL_GEOMS)
def test_trivial_families_are_cl(kind, n, q, k):
    geom = geometry(kind, n, q)
    for fam, x in trivial_families(geom, k):
        assert fam.x == x
        rep = cc.is_cl(fam)
        assert rep.is_cl and rep.x == x
        assert rational_is_cl(fam, "kernel").is_cl


def test_random_same_size_families_are_not_cl():
    geom = geometry("PG", 3, 2)
    pencils = [frozenset(cc.construct_trivial(geom, 1, "point_pencil",
                                              point=i).members)
               for i in range(len(geom.points))]
    rng = random.Random(424242)
    total = geom.subspace_count(1)
    checked = 0
    while checked < 30:
        members = frozenset(rng.sample(range(total), 7))
        if members in pencils:
            continue
        assert not cc.is_cl(cc.KFamily(geom, 1, members)).is_cl
        checked += 1


# Each (kind, n, q, k): PG and AG, k = 0, 1, 2 and k = n, GF(2), GF(3), GF(4).
ORACLE_GEOMS = [("PG", 3, 2, 0), ("PG", 3, 2, 1), ("PG", 3, 2, 2),
                ("PG", 3, 2, 3), ("PG", 4, 2, 2), ("PG", 3, 3, 1),
                ("PG", 2, 4, 1), ("AG", 3, 2, 0), ("AG", 3, 2, 1),
                ("AG", 3, 2, 2), ("AG", 3, 2, 3), ("AG", 3, 3, 1),
                ("AG", 2, 4, 1)]


def oracle_families(geom, k, seed):
    """Trivial families and complements, one-member swaps of each, and
    seeded random families of random size."""
    rng = random.Random(seed)
    total = geom.subspace_count(k)
    fams = [fam for fam, _ in trivial_families(geom, k)]
    for fam in list(fams):
        if 0 < fam.size < total:
            out_idx = rng.choice(sorted(set(range(total)) - fam.members))
            dropped = rng.choice(sorted(fam.members))
            fams.append(cc.KFamily(geom, k,
                                   (fam.members - {dropped}) | {out_idx}))
    for _ in range(6):
        fams.append(cc.KFamily(geom, k, rng.sample(range(total),
                                                   rng.randint(0, total))))
    return fams


@pytest.mark.parametrize("kind,n,q,k", ORACLE_GEOMS)
def test_design_route_agrees_with_oracles(kind, n, q, k):
    geom = geometry(kind, n, q)
    verdicts = []
    for fam in oracle_families(geom, k, seed=f"{kind}{n}{q}{k}"):
        rep = cc.is_cl(fam)
        assert rep.certificate == "design-identity"
        assert rep.x == fam.x
        assert rep.is_cl == rational_is_cl(fam, "rank").is_cl, fam
        assert rep.is_cl == rational_is_cl(fam, "kernel").is_cl, fam
        verdicts.append(rep.is_cl)
    assert True in verdicts
    # is_cl's r and lambda, the k-spaces through a point and through two
    # points, are the table's: every point lies on r rows, and the 2-design
    # counts lambda (v-1) = r (theta-1) and r - lambda + v lambda = r theta
    r, lam = gauss_binom(n, k, q), gauss0(n - 1, k - 1, q)
    table = geom.point_table(k)
    v, theta = geom.num_points, table.shape[1]
    assert np.array_equal(np.bincount(table.ravel(), minlength=v),
                          np.full(v, r))
    assert lam * (v - 1) == r * (theta - 1)
    assert r - lam + v * lam == r * theta
    if 0 < k < n and geom.num_points < geom.subspace_count(k):
        # Im(P^T) is a proper subspace: the swaps must leave it
        assert False in verdicts
    else:
        # P^T has full row rank (k = 0, k = n, projective planes)
        assert all(verdicts)


def test_design_route_builds_no_rational_matrix(tmp_path):
    """construct then verify --checks cl, as the CLI runs them, in a fresh
    interpreter that never imports the rational matrix module."""
    path = tmp_path / "pencil.json"
    code = ("import sys\n"
            "from clgeom.cli import main\n"
            "assert main(['construct', '-n', '4', '-k', '2', '-q', '2', "
            f"'--kind', 'point-pencil', '-o', {str(path)!r}]) == 0\n"
            f"assert main(['verify', {str(path)!r}, '--checks', 'cl']) == 0\n"
            "print('clgeom.linalg' in sys.modules)")
    src = os.path.dirname(os.path.dirname(cc.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "False"


def test_design_route_pg53_lines():
    """PG(5,3) k=1 (11011 lines): out of reach of the rational oracles."""
    geom = geometry("PG", 5, 3)
    pencil = cc.construct_trivial(geom, 1, "point_pencil")
    rep = cc.is_cl(pencil)
    assert rep.is_cl and rep.x == 1
    assert not cc.is_cl(corrupted(pencil)).is_cl


def test_parameter_and_size():
    geom = geometry("PG", 3, 2)
    pencil = cc.construct_trivial(geom, 1, "point_pencil")
    assert pencil.size == 7
    assert pencil.x == 1
    full = cc.complement(cc.KFamily(geom, 1, ()))
    assert full.x == Fraction(15, 3) == x_max_param("PG", 3, 1, 2)


def test_set_algebra():
    geom = geometry("PG", 3, 2)
    pencil = cc.construct_trivial(geom, 1, "point_pencil")
    hp = cc.construct_trivial(geom, 1, "hyperplane_class")
    # default pencil anchor (0,0,0,1) lies in X0=0, so these share members
    with pytest.raises(NotDisjoint):
        cc.union_disjoint(pencil, hp)
    p_off = _off_hyperplane_point(geom)
    pencil2 = cc.construct_trivial(geom, 1, "point_pencil", point=p_off)
    u = cc.union_disjoint(pencil2, hp)
    assert u.x == pencil2.x + hp.x
    d = cc.difference(hp, u)
    assert d.members == pencil2.members
    with pytest.raises(NotContained):
        cc.difference(u, pencil2)
    with pytest.raises(GuardViolated):
        cc.union_disjoint(pencil, cc.KFamily(geometry("PG", 3, 3), 1, ()))


def test_construct_trivial_anchor_errors():
    geom = geometry("PG", 3, 2)
    with pytest.raises(AnchorInvalid):
        cc.construct_trivial(geom, 1, "point_pencil", point=(1, 1))
    # tuples that are no point, each refused as an anchor before any lookup
    # can overflow or mismatch: of the wrong length, past int64, past the
    # codes, not normalized, zero, and in AG at infinity (X0 = 0)
    for g, point in ((geom, (0, 0, 0, 0, 1)), (geom, (2 ** 63, 0, 0, 1)),
                     (geom, (0, 0, 0, -2 ** 64)), (geom, (0, 0, 0, 2)),
                     (geometry("PG", 3, 3), (0, 0, 2, 1)),
                     (geom, (0, 0, 0, 0)),
                     (geometry("AG", 3, 2), (0, 0, 0, 1))):
        with pytest.raises(AnchorInvalid, match="is not a point of"):
            cc.construct_trivial(g, 1, "point_pencil", point=point)
    with pytest.raises(AnchorInvalid):
        cc.construct_trivial(geom, 1, "nonsense")
    with pytest.raises(AnchorInvalid):
        # anchor point inside the anchor hyperplane
        cc.construct_trivial(geom, 1, "pencil_plus_hyperplane",
                             point=(0, 0, 0, 1))
    ag = geometry("AG", 3, 2)
    with pytest.raises(AnchorInvalid):
        cc.construct_trivial(ag, 1, "hyperplane_class")


def test_anchor_coordinates_must_be_integers():
    """A coordinate that is no integer is refused, not truncated by int();
    integral numpy coordinates, and a numpy array, are points as tuples
    of ints are."""
    geom = geometry("PG", 3, 2)
    want = cc.construct_trivial(geom, 1, "point_pencil", point=(0, 0, 0, 1))
    for point in ((0, 0, 0, 1.9), (0, 0, 0, 1.0), (0.0, 0, 0, 1),
                  (0, 0, 0, Fraction(1)), (0, 0, 0, "1"),
                  np.array([0, 0, 0, 1.0]), 1.0):
        with pytest.raises(AnchorInvalid):
            cc.construct_trivial(geom, 1, "point_pencil", point=point)
        with pytest.raises(AnchorInvalid):
            cc.check_drudge_identity(want, point, geom.subspaces(2)[0])
    for point in (np.array([0, 0, 0, 1]), np.array([0, 0, 0, 1], np.uint8),
                  (np.int64(0), 0, np.int32(0), np.uint16(1)), [0, 0, 0, 1]):
        assert cc.construct_trivial(geom, 1, "point_pencil",
                                    point=point) == want


def test_default_hyperplane_is_built_once():
    """X0 = 0 for each geometry, the same object on every call."""
    for n, q in ((3, 2), (4, 3), (2, 4)):
        geom = geometry("PG", n, q)
        H = cc._default_hyperplane(geom)
        assert H is cc._default_hyperplane(geom)
        assert H.k == n - 1 and all(row[0] == 0 for row in H.mat)
        assert cc._indices_inside(geom, 1, H).tolist() == [
            j for j, L in enumerate(geom.subspaces(1))
            if all(row[0] == 0 for row in L.mat)]


def test_construct_trivial_takes_numpy_point_indices():
    geom = geometry("PG", 3, 2)
    for p in np.arange(len(geom.points)):
        assert cc.construct_trivial(geom, 1, "point_pencil", point=p) == \
            cc.construct_trivial(geom, 1, "point_pencil", point=int(p))
    # point 9 lies off the default hyperplane X0 = 0
    tau = next(t for t in geom.subspaces(2) if 9 in geom.points_of(t))
    for p in (np.int64(9), np.int32(9), np.uint8(9), np.intp(9)):
        fam = cc.construct_trivial(geom, 1, "pencil_plus_hyperplane", point=p)
        assert fam == cc.construct_trivial(geom, 1, "pencil_plus_hyperplane",
                                           point=9)
        assert cc.check_drudge_identity(fam, p, tau)
    for p in (np.int64(-1), np.int64(len(geom.points)), np.uint16(1000)):
        with pytest.raises(AnchorInvalid):
            cc.construct_trivial(geom, 1, "point_pencil", point=p)


def test_bool_is_no_anchor_point():
    """A bool is no point index and no coordinate, though int() would
    take True as 1: each is refused as an invalid anchor."""
    geom = geometry("PG", 3, 2)
    for point in (True, False, np.True_, (0, 0, 0, True)):
        with pytest.raises(AnchorInvalid):
            cc.construct_trivial(geom, 1, "point_pencil", point=point)


def test_aid_identity_refuses_bool_and_float_k_space():
    """K is an integer: numpy would read True as a mask of the profile
    and refuse 1.0 as an index, so both are refused as an out-of-range K
    is."""
    fam = cc.construct_trivial(geometry("PG", 4, 2), 1, "point_pencil")
    for K in (True, False, np.True_, 1.0, np.float64(1)):
        with pytest.raises(InvalidRange):
            cc.check_aid_identity(fam, K, 3)
    assert cc.check_aid_identity(fam, np.int64(1), 3)


def test_spread_check_refuses_bool_elements():
    """np.asarray would read [False, 10, ...] as [0, 10, ...], the spread
    whose first element is line 0."""
    geom = geometry("PG", 3, 2)
    pencil = cc.construct_trivial(geom, 1, "point_pencil")
    S = field_reduction_spread(3, 1, 2).tolist()
    assert S[0] == 0 and cc.check_spread(pencil, S)
    for bad in ([False] + S[1:], [np.False_] + S[1:], [0.0] + S[1:]):
        with pytest.raises(NotASpread):
            cc.check_spread(pencil, bad)
    assert cc.check_spread(pencil, [np.int64(s) for s in S])


def _guarded_calls() -> dict:
    """One call per kind guard: the affine family AG(4,2) k=1 where a
    projective one is needed, with arguments that pass every check made
    before the guard, and the two other guards of ag_to_pg and pg_to_ag."""
    ag = geometry("AG", 4, 2)
    fam = cc.construct_trivial(ag, 1, "point_pencil")
    pg = geometry("PG", 4, 2)
    solid, point = pg.subspaces(3)[0], pg.subspaces(0)[0]
    pencil = cc.construct_trivial(pg, 1, "point_pencil")
    return {
        "restrict": lambda: cc.restrict(fam, solid),
        "project": lambda: cc.project(fam, point),
        "pg_to_ag": lambda: cc.pg_to_ag(fam),
        "check_disjoint_count": lambda: cc.check_disjoint_count(fam),
        "check_meet_profile": lambda: cc.check_meet_profile(fam, 1),
        "check_drudge_identity":
            lambda: cc.check_drudge_identity(fam, 0, solid),
        "check_aid_identity": lambda: cc.check_aid_identity(fam, 0, 3),
        "find_skew_space": lambda: cc.find_skew_space(fam),
        "ag_to_pg": lambda: cc.ag_to_pg(pencil),
        "pg_to_ag_plane": lambda: cc.pg_to_ag(pencil, pg.subspaces(2)[0]),
    }


@pytest.mark.parametrize("name", [
    "restrict", "project", "pg_to_ag", "check_disjoint_count",
    "check_meet_profile", "check_drudge_identity", "check_aid_identity",
    "find_skew_space", "ag_to_pg", "pg_to_ag_plane"])
def test_kind_guards(name):
    """Every transform and checker stated for one kind refuses the other
    with GuardViolated, and pg_to_ag refuses a plane of PG(4,2) as its H."""
    with pytest.raises(GuardViolated):
        _guarded_calls()[name]()


# -- counting identity checkers ---------------------------------------------

def corrupted(fam):
    """Swap one member for the first non-member (breaks CL)."""
    total = fam.geom.subspace_count(fam.k)
    out_idx = next(i for i in range(total) if i not in fam.members)
    dropped = min(fam.members)
    return cc.KFamily(fam.geom, fam.k,
                      (fam.members - {dropped}) | {out_idx})


@pytest.mark.parametrize("kind,n,q,k", [("PG", 3, 2, 1), ("PG", 3, 3, 1),
                                        ("PG", 4, 2, 1)])
def test_disjoint_and_meet_profile(kind, n, q, k):
    geom = geometry(kind, n, q)
    for fam, _ in trivial_families(geom, k):
        assert cc.check_disjoint_count(fam).ok
        for i in range(1, k + 2):
            assert cc.check_meet_profile(fam, i).ok
    pencil = cc.construct_trivial(geom, k, "point_pencil")
    bad = corrupted(pencil)
    assert not cc.check_disjoint_count(bad).ok
    assert any(not cc.check_meet_profile(bad, i).ok for i in range(1, k + 2))


def test_meet_profile_example_value():
    # pencil of PG(3,2), i=1, member K: 6 members meet K in a point
    geom = geometry("PG", 3, 2)
    pencil = cc.construct_trivial(geom, 1, "point_pencil")
    assert cc.meet_profile_expected(pencil, 1, member=True) == 6
    assert cc.check_meet_profile(pencil, 1).ok


def test_meet_profile_guard():
    geom = geometry("PG", 3, 2)
    pencil = cc.construct_trivial(geom, 1, "point_pencil")
    with pytest.raises(GuardViolated):
        cc.check_meet_profile(pencil, 0)
    with pytest.raises(GuardViolated):
        cc.check_meet_profile(pencil, 3)


def test_spread_check():
    geom = geometry("PG", 3, 2)
    S = field_reduction_spread(3, 1, 2).tolist()
    for fam, x in trivial_families(geom, 1):
        assert cc.check_spread(fam, S)
    bad = corrupted(cc.construct_trivial(geom, 1, "point_pencil"))
    # a corrupted pencil misses some spread of PG(3,2) in != x elements;
    # this particular one changes the intersection with the standard spread
    results = [cc.check_spread(cc.construct_trivial(geom, 1, "point_pencil",
                                                    point=i), S)
               for i in range(15)]
    assert all(results)
    with pytest.raises(NotASpread):
        cc.check_spread(bad, S[:-1])
    with pytest.raises(NotASpread):
        cc.check_spread(bad, S + [S[0]])


def test_spread_check_reports_faults_in_order():
    """One count of the elements' points decides: an element that is no
    k-space is reported before an overlap, and an overlap before a point
    left uncovered, each with its own message; AG spreads too."""
    for n, q in ((3, 2), (5, 3)):
        geom = geometry("PG", n, q)
        S = field_reduction_spread(n, 1, q).tolist()
        fam = cc.construct_trivial(geom, 1, "point_pencil")
        # positions of no line: past the level, negative, past int64 and
        # past 64 bits, and not an integer
        past = geom.subspace_count(1)
        faults = {
            "element is not a k-space of the geometry": [
                S + [past], [S[0], S[0], -1] + S[1:-1], S + [2 ** 63],
                S + [2 ** 64], S[:-1] + [S[-1] + 0.5]],
            "elements are not pairwise disjoint": [
                S + [S[0]], S[:-1] + [S[0]]],
            "elements do not cover every point": [S[:-1], []],
        }
        for message, spreads in faults.items():
            for spread in spreads:
                with pytest.raises(NotASpread) as exc:
                    cc.check_spread(fam, spread)
                assert str(exc.value) == message
    ag = geometry("AG", 3, 2)
    # the affine lines of AG(3,2) in one direction partition its points
    parallel = [i for i, L in enumerate(ag.subspaces(1))
                if L.mat[1] == (0, 0, 0, 1)]
    assert len(parallel) == 4
    pencil = cc.construct_trivial(ag, 1, "point_pencil")
    assert cc.check_spread(pencil, parallel) == (
        int(pencil.chi[parallel].sum()) == pencil.x)
    with pytest.raises(NotASpread) as exc:
        cc.check_spread(pencil, parallel[1:])
    assert str(exc.value) == "elements do not cover every point"


def test_drudge_identity():
    geom = geometry("PG", 3, 2)
    fams = trivial_families(geom, 1)
    rng = random.Random(31337)
    planes = geom.subspaces(2)
    for fam, _ in fams:
        for _ in range(10):
            tau = planes[rng.randrange(len(planes))]
            pts = [i for i, p in enumerate(geom.points)
                   if point_in_subspace(geom.field, p, tau)]
            assert cc.check_drudge_identity(fam, rng.choice(pts), tau)
    pencil = fams[1][0]
    tau = planes[0]
    outside = next(i for i, p in enumerate(geom.points)
                   if not point_in_subspace(geom.field, p, tau))
    with pytest.raises(PointNotInSubspace):
        cc.check_drudge_identity(pencil, outside, tau)
    bad = corrupted(pencil)
    hits = 0
    for tau in planes:
        pts = [i for i, p in enumerate(geom.points)
               if point_in_subspace(geom.field, p, tau)]
        hits += sum(not cc.check_drudge_identity(bad, p, tau) for p in pts)
    assert hits > 0


def test_aid_identity():
    geom = geometry("PG", 4, 2)
    for fam, _ in trivial_families(geom, 1):
        for K in range(0, geom.subspace_count(1), 31):
            assert cc.check_aid_identity(fam, K, 3)
    pencil = cc.construct_trivial(geom, 1, "point_pencil")
    bad = corrupted(pencil)
    assert any(not cc.check_aid_identity(bad, K, 3)
               for K in range(geom.subspace_count(1)))
    with pytest.raises(GuardViolated):
        cc.check_aid_identity(pencil, 0, 4)  # t must be <= n-1
    with pytest.raises(GuardViolated):
        cc.check_aid_identity(cc.construct_trivial(geometry("PG", 3, 2), 1,
                                                   "point_pencil"), 0, 3)


def test_aid_identity_refuses_k_space_outside_level():
    geom = geometry("PG", 5, 2)
    pencil = cc.construct_trivial(geom, 1, "point_pencil")
    assert pencil.geom.subspace_count(1) == 651
    assert cc.is_cl(pencil).is_cl
    for K in (-1, 651, 10 ** 6):
        with pytest.raises(InvalidRange):
            cc.check_aid_identity(pencil, K, 3)
    assert cc.check_aid_identity(pencil, 650, 3)


def test_affine_line_identities():
    for q in (2, 3):
        ag = geometry("AG", 3, q)
        for fam, _ in trivial_families(ag, 1):
            assert cc.check_affine_line(fam).ok
        bad = corrupted(cc.construct_trivial(ag, 1, "point_pencil"))
        assert not cc.check_affine_line(bad).ok
    with pytest.raises(GuardViolated):
        cc.check_affine_line(cc.KFamily(geometry("PG", 3, 2), 1, ()))


# -- transforms -------------------------------------------------------------

def test_restrict_preserves_cl():
    geom = geometry("PG", 4, 2)
    solid = geom.subspaces(3)[0]
    for fam, _ in trivial_families(geom, 1):
        R = cc.restrict(fam, solid)
        assert cc.is_cl(R).is_cl
    pencil = cc.construct_trivial(geom, 1, "point_pencil")
    with pytest.raises(DimensionTooSmall):
        cc.restrict(pencil, geom.subspaces(1)[0])


def test_restriction_of_pencil_is_pencil_or_full_hyperplane_count():
    geom = geometry("PG", 4, 2)
    pencil = cc.construct_trivial(geom, 1, "point_pencil")
    anchor = geom.points[0]
    solid = next(s for s in geom.subspaces(3)
                 if point_in_subspace(geom.field, anchor, s))
    R = cc.restrict(pencil, solid)
    assert R.x == 1 and R.size == gauss_binom(3, 1, 2)


def test_project_pencil():
    geom = geometry("PG", 5, 2)
    pen = cc.construct_trivial(geom, 2, "point_pencil", point=1)
    pi = make_subspace([geom.points[0]], geom.field)
    img = cc.project(pen, pi)
    assert img.geom.n == 4 and img.k == 1
    assert img.x == 1
    assert cc.is_cl(img).is_cl
    with pytest.raises(DimensionTooLarge):
        cc.project(pen, geom.subspaces(2)[0])


def test_pencil_propagation():
    geom = geometry("PG", 4, 2)
    pencil = cc.construct_trivial(geom, 1, "point_pencil")
    anchor = geom.points[0]
    solid = next(s for s in geom.subspaces(3)
                 if point_in_subspace(geom.field, anchor, s))
    assert cc.check_pencil_propagation(pencil, solid)
    hp = cc.construct_trivial(geom, 1, "hyperplane_class")
    with pytest.raises(PreconditionNotMet):
        cc.check_pencil_propagation(hp, solid)


def test_find_skew_space():
    geom = geometry("PG", 4, 2)
    pencil = cc.construct_trivial(geom, 1, "point_pencil")
    tau = cc.find_skew_space(pencil)
    assert tau is not None and tau.k == 2
    # tau really contains no member
    taupts = set(geom.points_of(tau).tolist())
    table = geom.point_table(1)
    assert all(not set(table[m].tolist()) <= taupts for m in pencil.members)
    full = cc.complement(cc.KFamily(geom, 1, ()))
    assert cc.find_skew_space(full) is None


_CONTAINMENT: dict = {}


def skew_space_oracle(F):
    """find_skew_space by meet() on every pair of a k-space and a
    (k+1)-space: the first non-member K that lies in a (k+1)-space holding
    no member, and the first such (k+1)-space through K."""
    geom, k = F.geom, F.k
    lower, upper = geom.subspaces(k), geom.subspaces(k + 1)
    key = (geom.key, k)
    if key not in _CONTAINMENT:
        _CONTAINMENT[key] = [
            [K for K, A in enumerate(lower) if meet(geom.field, A, B) == A]
            for B in upper]
    inside = _CONTAINMENT[key]
    free = [j for j, ks in enumerate(inside) if not F.members.intersection(ks)]
    for K in sorted(set(range(len(lower))) - F.members):
        for j in free:
            if K in inside[j]:
                return upper[j]
    return None


@pytest.mark.parametrize("n,q,k", [(3, 2, 0), (3, 2, 1), (4, 2, 1),
                                   (3, 3, 1), (4, 2, 2), (2, 4, 1)])
def test_find_skew_space_matches_meet_oracle(n, q, k):
    geom = geometry("PG", n, q)
    total = geom.subspace_count(k)
    rng = random.Random(f"skew{n}{q}{k}")
    fams = [cc.construct_trivial(geom, k, "point_pencil")]
    for size in (0, 1, total // 10, total // 3, total // 2, total - 1, total):
        fams.append(cc.KFamily(geom, k, rng.sample(range(total), size)))
    answers = [cc.find_skew_space(fam) for fam in fams]
    assert answers == [skew_space_oracle(fam) for fam in fams]
    assert answers[1] is not None and answers[-1] is None


def test_pg_ag_roundtrip_default_hyperplane():
    geom = geometry("PG", 3, 2)
    hp = cc.construct_trivial(geom, 1, "hyperplane_class")
    fam = cc.complement(hp)  # lines not inside X0=0
    aff = cc.pg_to_ag(fam)
    assert aff.geom.kind == "AG" and aff.size == fam.size
    back = cc.ag_to_pg(aff)
    assert back.members == fam.members
    with pytest.raises(MemberInsideHyperplane):
        cc.pg_to_ag(hp)


def test_pg_ag_nondefault_hyperplane():
    geom = geometry("PG", 3, 2)
    # hyperplane X3 = 0
    H = make_subspace([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)], geom.field)
    cls = set(cc._indices_inside(geom, 1, H).tolist())
    fam = cc.KFamily(geom, 1, set(range(geom.subspace_count(1))) - cls)
    aff = cc.pg_to_ag(fam, H=H)
    assert aff.size == fam.size
    assert cc.is_cl(aff).is_cl == cc.is_cl(fam).is_cl
    with pytest.raises(MemberInsideHyperplane):
        cc.pg_to_ag(cc.KFamily(geom, 1, set(cls)), H=H)


@pytest.mark.parametrize("n,q", [(3, 3), (4, 2), (3, 4)])
def test_pg_to_ag_matches_rank_transform_on_every_hyperplane(n, q):
    """Against the coordinate change found by an RREF rank loop: the lines
    off each hyperplane H, and the lines inside it (refused)."""
    geom = geometry("PG", n, q)
    lines = set(range(geom.subspace_count(1)))
    for H in geom.subspaces(n - 1):
        inside = set(cc._indices_inside(geom, 1, H).tolist())
        off = cc.KFamily(geom, 1, lines - inside)
        assert cc.pg_to_ag(off, H=H) == pg_to_ag_oracle(off, H=H)
        mixed = cc.KFamily(geom, 1, set(list(lines - inside)[:3])
                           | {max(inside)})
        with pytest.raises(MemberInsideHyperplane) as got:
            cc.pg_to_ag(mixed, H=H)
        with pytest.raises(MemberInsideHyperplane) as want:
            pg_to_ag_oracle(mixed, H=H)
        assert got.value.args == want.value.args


def test_pg_to_ag_past_the_table_order():
    """GF(3^7) has no log/exp tables, so the point permutation of PG(1,2187)
    is multiplied out through the field's own methods."""
    geom = geometry("PG", 1, 3 ** 7)
    points = cc.construct_trivial(geom, 0, "hyperplane_class",
                                  complement_of=True)
    assert cc.pg_to_ag(points) == pg_to_ag_oracle(points)
    H = geom.subspaces(0)[5]
    off = cc.KFamily(geom, 0, [0, 1, 2, 9, geom.num_points - 1])
    assert cc.pg_to_ag(off, H=H) == pg_to_ag_oracle(off, H=H)


def test_pg_to_ag_refuses_hyperplane_of_another_space():
    """The planes of PG(4,2), and PG(2,2) itself, have the dimension of a
    PG(3,2) hyperplane but not its n + 1 coordinates."""
    geom = geometry("PG", 3, 2)
    pencil = cc.construct_trivial(geom, 1, "point_pencil")
    planes = list(geometry("PG", 4, 2).subspaces(2))
    planes.append(make_subspace([[1, 0, 0], [0, 1, 0], [0, 0, 1]], geom.field))
    for H in planes:
        with pytest.raises(DimensionMismatch):
            cc.pg_to_ag(pencil, H=H)


def test_transforms_with_empty_images():
    """No member through the centre, no member inside pi: the empty family
    of the image space."""
    geom = geometry("PG", 4, 2)
    cls = cc.construct_trivial(geom, 1, "hyperplane_class")
    img = cc.project(cls, make_subspace([[1, 0, 0, 0, 0]], geom.field))
    assert img == cc.KFamily(geometry("PG", 3, 2), 0, ())
    pencil = cc.construct_trivial(geom, 1, "point_pencil", point=0)
    plane = make_subspace([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0],
                           [0, 0, 1, 0, 0]], geom.field)
    assert 0 not in geom.points_of(plane)
    assert cc.restrict(pencil, plane) == cc.KFamily(geometry("PG", 2, 2), 1, ())


def test_ag_pencil_roundtrip():
    ag = geometry("AG", 3, 3)
    pen = cc.construct_trivial(ag, 1, "point_pencil")
    proj = cc.ag_to_pg(pen)
    assert proj.geom.kind == "PG" and proj.size == pen.size
    # not CL in the projective sense (misses the lines at infinity through p)
    assert cc.pg_to_ag(proj) == pen


# -- serialization ----------------------------------------------------------

def test_family_json_roundtrip(tmp_path):
    geom = geometry("PG", 3, 2)
    fam = cc.construct_trivial(geom, 1, "pencil_plus_hyperplane",
                               point=_off_hyperplane_point(geom))
    path = tmp_path / "fam.json"
    cc.save_family(fam, str(path))
    again = cc.load_family(str(path))
    assert again == fam
    # byte-identical re-serialization
    cc.save_family(again, str(tmp_path / "fam2.json"))
    assert path.read_bytes() == (tmp_path / "fam2.json").read_bytes()


def test_family_json_validates_schema(tmp_path):
    import jsonschema
    from importlib import resources
    schema = json.loads(resources.files("clgeom")
                        .joinpath("schemas/family.schema.json").read_text())
    fam = cc.construct_trivial(geometry("AG", 3, 2), 1, "point_pencil")
    jsonschema.validate(cc.family_to_dict(fam), schema)


@pytest.mark.parametrize("extra", [{"extra": 1}, {"x": "0"},
                                   {"members2": []}, {"": None}])
def test_family_unknown_key_refused_by_schema_and_loader(extra):
    import jsonschema
    from importlib import resources
    schema = json.loads(resources.files("clgeom")
                        .joinpath("schemas/family.schema.json").read_text())
    base = {"space": "PG", "p": 2, "h": 1, "n": 3, "k": 1, "members": []}
    jsonschema.validate(base, schema)
    cc.family_from_dict(base)
    data = {**base, **extra}
    (key,) = extra
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(data, schema)
    with pytest.raises(FamilyFormatError, match=f"unknown key {key!r}"):
        cc.family_from_dict(data)


def test_family_json_rejects_noncanonical():
    fam = cc.construct_trivial(geometry("PG", 3, 2), 1, "point_pencil")
    d = cc.family_to_dict(fam)
    ok = cc.family_from_dict(d)
    assert ok == fam
    import copy
    bad = copy.deepcopy(d)
    # scale a row: same subspace, different matrix, must be rejected
    bad["members"][0][1] = bad["members"][0][0]
    with pytest.raises(FamilyFormatError):
        cc.family_from_dict(bad)
    bad = copy.deepcopy(d)
    bad["members"][0][0][0] = 9
    with pytest.raises(FamilyFormatError):
        cc.family_from_dict(bad)
    bad = copy.deepcopy(d)
    bad["space"] = "XX"
    with pytest.raises(FamilyFormatError):
        cc.family_from_dict(bad)
    bad = copy.deepcopy(d)
    del bad["k"]
    with pytest.raises(FamilyFormatError):
        cc.family_from_dict(bad)


def _pencil_dict():
    return cc.family_to_dict(
        cc.construct_trivial(geometry("PG", 3, 2), 1, "point_pencil"))


@pytest.mark.parametrize("key,value", [
    ("p", "2"), ("p", 2.0), ("p", True), ("h", None), ("h", True),
    ("n", 3.0), ("n", False), ("k", "1"), ("k", True)])
def test_family_header_rejects_non_int(key, value):
    d = _pencil_dict()
    d[key] = value
    with pytest.raises(FamilyFormatError):
        cc.family_from_dict(d)


def test_family_rejects_bool_entries():
    d = _pencil_dict()
    row = d["members"][0][0]
    row[row.index(1)] = True
    with pytest.raises(FamilyFormatError):
        cc.family_from_dict(d)


@pytest.mark.parametrize("p,h", [(2, 10 ** 6), (10 ** 30, 1), (2, 0), (1, 5),
                                 (0, 1), (-2, 2), (2, 21)])
def test_family_rejects_field_order_before_computing_it(p, h):
    import time
    d = _pencil_dict()
    d["p"], d["h"] = p, h
    t0 = time.perf_counter()
    with pytest.raises(FamilyFormatError):
        cc.family_from_dict(d)
    assert time.perf_counter() - t0 < 0.25


@pytest.mark.parametrize("p,h", [(4, 1), (8, 1), (6, 1), (9, 1)])
def test_family_rejects_header_naming_another_field(p, h):
    d = _pencil_dict()
    d["p"], d["h"] = p, h
    with pytest.raises(FamilyFormatError):
        cc.family_from_dict(d)


def test_family_gf4_header_roundtrip():
    fam = cc.construct_trivial(geometry("PG", 2, 4), 1, "point_pencil")
    d = cc.family_to_dict(fam)
    assert (d["p"], d["h"]) == (2, 2)
    assert cc.family_to_dict(cc.family_from_dict(d)) == d


@pytest.mark.parametrize("data", [
    [], {"space": "PG", "p": 2, "h": 1, "n": 3, "k": 4, "members": []},
    {"space": "PG", "p": 2, "h": 1, "n": 0, "k": 0, "members": []},
    {"space": "PG", "p": 2, "h": 1, "n": 3, "k": 1, "members": {}},
    {"space": "PG", "p": 2, "h": 1, "n": 3, "k": 1, "members": [7]},
    {"space": "PG", "p": 2, "h": 1, "n": 3, "k": 1, "members": [[1, 2]]}])
def test_family_rejects_malformed_shapes(data):
    with pytest.raises(FamilyFormatError):
        cc.family_from_dict(data)


def _with_members(d, changes):
    for mi, mat in changes:
        d["members"][mi] = mat
    return d


@pytest.mark.parametrize("changes,message", [
    # the first faulty member is named, whatever the faults of later ones
    ([(1, [[0, 1, 0, 0], [1, 0, 0, 0]]), (4, [[1, 0, 2, 0], [0, 1, 0, 0]])],
     "member 1: not in reduced row echelon form or not of full rank"),
    ([(1, [[1, 0, 2, 0], [0, 1, 0, 0]]), (4, [[0, 1, 0, 0], [1, 0, 0, 0]])],
     "member 1: entry 2 is not a code in [0, 2)"),
    ([(2, [[1, 0, 0, 0]]), (3, [[True, 0, 0, 0], [0, 1, 0, 0]])],
     "member 2: expected a 2x4 matrix"),
    ([(3, [[True, 0, 0, 0], [0, 1, 0, 0]]), (5, [[1, 0, 0, 0], [0, 0, 0]])],
     "member 3: entry True is not a code in [0, 2)"),
    ([(5, [[1, 0, 0, 0], [1, 0, 0, 0]])],
     "member 5: not in reduced row echelon form or not of full rank"),
    ([(2, [[1, 0, 0, 0], [0, 1.0, 0, 0]])],
     "member 2: entry 1.0 is not a code in [0, 2)"),
    ([(6, [[1, 0, 0, 0], [0, 1, 0, 10 ** 30]])],
     "member 6: entry 1000000000000000000000000000000 is not a code in "
     "[0, 2)"),
])
def test_family_errors_name_the_first_faulty_member(changes, message):
    with pytest.raises(FamilyFormatError) as exc:
        cc.family_from_dict(_with_members(_pencil_dict(), changes))
    assert str(exc.value) == message


def test_refusing_a_fault_in_the_last_member_checks_only_it(monkeypatch):
    """The members the lookup found are not checked again one by one."""
    calls = []
    real = cc.make_subspace
    monkeypatch.setattr(cc, "make_subspace",
                        lambda *args: calls.append(1) or real(*args))
    d = cc.family_to_dict(
        cc.construct_trivial(geometry("PG", 4, 3), 1, "point_pencil"))
    last = len(d["members"]) - 1
    d["members"][last] = d["members"][last][::-1]
    with pytest.raises(FamilyFormatError) as exc:
        cc.family_from_dict(d)
    assert str(exc.value) == (f"member {last}: not in reduced row echelon "
                              "form or not of full rank")
    assert len(calls) <= 1
    d["members"] = []
    assert cc.family_from_dict(d).size == 0


def test_refusing_an_unparsable_last_member_checks_only_it(monkeypatch):
    """The members before one that does not parse are looked up in one
    batch, so only the faulty one is checked one by one."""
    calls = []
    real = cc.subspace_from_codes
    monkeypatch.setattr(cc, "subspace_from_codes",
                        lambda *args: calls.append(1) or real(*args))
    d = cc.family_to_dict(
        cc.construct_trivial(geometry("PG", 4, 3), 1, "point_pencil"))
    last = len(d["members"]) - 1
    d["members"][last][1][4] = 1.0
    with pytest.raises(FamilyFormatError) as exc:
        cc.family_from_dict(d)
    assert str(exc.value) == (f"member {last}: entry 1.0 is not a code "
                              "in [0, 3)")
    assert len(calls) <= 1
    # the first member does not parse: nothing is looked up in a batch
    d["members"][0] = d["members"][0][:1]
    calls.clear()
    with pytest.raises(FamilyFormatError, match="^member 0: expected a 2x5"):
        cc.family_from_dict(d)
    assert calls == []


@pytest.mark.parametrize("fault,message", [
    (lambda mat: [[True if c == 1 else c for c in mat[0]], mat[1]],
     "entry True is not a code in [0, 3)"),
    (lambda mat: [mat[0], mat[1][:-1]],
     "expected a list of at most 6 rows of 6 codes"),
    (lambda mat: [mat[0], mat[1][:-1] + [2 ** 63]],
     f"entry {2 ** 63} is not a code in [0, 3)")],
    ids=["bool", "short-row", "past-int64"])
def test_load_family_names_a_fault_in_a_later_piece(fault, message,
                                                    tmp_path):
    """The members are read in pieces of _CHUNK codes; a fault in a later
    piece (in its middle, at its first member, at its last) is named by
    its index in the whole list."""
    fam = cc.construct_trivial(geometry("PG", 5, 3), 1, "point_pencil",
                               complement_of=True)
    step = _CHUNK // 12
    data = cc.family_to_dict(fam)
    members = data["members"]
    path = tmp_path / "fam.json"
    for mi in (3 * step + 5, 5 * step, 5 * step - 1):
        saved = members[mi]
        members[mi] = fault(saved)
        path.write_text(json.dumps(data))
        members[mi] = saved
        with pytest.raises(FamilyFormatError) as exc:
            cc.load_family(str(path))
        assert str(exc.value) == f"member {mi}: {message}"


def test_family_file_pieces_trace_little(tmp_path):
    """save_family writes the PG(6,3) k=1 pencil complement (98735
    members, 12.5 MB of JSON) in pieces, tracing under 2 MB; _member_codes
    reads its parsed members tracing no more than their array and 1 MB:
    no string of the whole file, no list of every row or code."""
    geom = geometry("PG", 6, 3)
    fam = cc.construct_trivial(geom, 1, "point_pencil", complement_of=True)
    path = tmp_path / "fam.json"
    tracemalloc.start()
    try:
        cc.save_family(fam, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20, peak
    members = json.loads(path.read_text())["members"]
    tracemalloc.start()
    try:
        codes = cc._member_codes(members, 2, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(codes, geom.subspaces(1).codes.take(fam.indices,
                                                               axis=0))
    assert peak <= codes.nbytes + 2 ** 20, (peak, codes.nbytes)


def test_family_rejects_affine_member_at_infinity():
    d = cc.family_to_dict(
        cc.construct_trivial(geometry("AG", 3, 2), 1, "point_pencil"))
    d = _with_members(d, [(1, [[0, 1, 0, 0], [0, 0, 1, 0]])])
    with pytest.raises(FamilyFormatError) as exc:
        cc.family_from_dict(d)
    assert str(exc.value) == "member 1: not a 1-space of AG(3,2)"


# -- point-table routes against brute-force oracles ---------------------------

PROFILE_GEOMS = [("PG", 3, 2, 1), ("PG", 3, 2, 2), ("PG", 3, 3, 1),
                 ("PG", 3, 3, 2), ("PG", 2, 4, 1), ("PG", 2, 4, 2),
                 ("PG", 4, 2, 1), ("PG", 4, 2, 2), ("PG", 4, 2, 3),
                 ("AG", 3, 3, 1), ("AG", 3, 3, 2)]


@pytest.mark.parametrize("kind,n,q,k", PROFILE_GEOMS + [
    ("PG", 5, 2, 3), ("PG", 3, 4, 2)])
def test_sub_table_matches_containment_oracle(kind, n, q, k):
    """A j-space S lies in the k-space K exactly when points_of(S) lies in
    K's point-table row; each row lists those S ascending."""
    geom = geometry(kind, n, q)
    rows = geom.point_table(k)
    on = np.zeros((geom.num_points, len(rows)), dtype=bool)
    on[rows, np.arange(len(rows))[:, None]] = True
    for j in range(k):
        inside = np.array([on[geom.points_of(S)].all(axis=0)
                           for S in geom.subspaces(j)])
        assert geom.sub_table(k, j).tolist() == [
            np.flatnonzero(col).tolist() for col in inside.T]
    for j in (-1, k):
        with pytest.raises(InvalidRange):
            geom.sub_table(k, j)


_MEET_COLUMNS: dict = {}


def oracle_profile(F):
    """Meet profile by meet() on every pair of k-spaces: column d + 1
    counts members meeting K in a d-space, column 0 the rest; in AG a meet
    inside the hyperplane at infinity shares no affine point."""
    geom, k = F.geom, F.k
    key = (geom.key, k)
    if key not in _MEET_COLUMNS:
        subs = geom.subspaces(k)
        cols = []
        for A in subs:
            row = []
            for B in subs:
                M = meet(geom.field, A, B)
                affine = geom.kind == "PG" or any(r[0] for r in M.mat)
                row.append(M.k + 1 if affine else 0)
            cols.append(row)
        _MEET_COLUMNS[key] = cols
    members = sorted(F.members)
    return [[sum(row[m] == c for m in members) for c in range(k + 2)]
            for row in _MEET_COLUMNS[key]]


def profile_families(geom, k, seed):
    if k == geom.n:
        return [cc.KFamily(geom, k, ()), cc.KFamily(geom, k, (0,))]
    return oracle_families(geom, k, seed)


@pytest.mark.parametrize("kind,n,q,k", PROFILE_GEOMS)
def test_pair_profile_matches_meet_oracle(kind, n, q, k):
    geom = geometry(kind, n, q)
    fams = profile_families(geom, k, seed=f"profile{kind}{n}{q}{k}")
    total = geom.subspace_count(k)
    # families of more than half the k-spaces and of at most half
    assert any(2 * f.size > total for f in fams)
    assert any(2 * f.size <= total for f in fams)
    for fam in fams:
        assert cc._pair_profile(fam).tolist() == oracle_profile(fam), fam


def test_profile_of_large_k_reads_no_level_below_2k_minus_n(monkeypatch):
    """Two k-spaces meet in at least a (2k-n)-space, so the profile reads
    the sub tables of j >= 2k-n only.  With the cap below PG(5,2)'s 1395
    planes, its hyperplanes (2k-n = 3) still get profiles equal to the
    meet() oracle."""
    monkeypatch.setattr(importlib.import_module("clgeom.geometry"),
                        "SUBSPACE_CAP", 1000)
    geom = Geometry("PG", 5, ff_create(2, 1))  # no level enumerated yet
    with pytest.raises(TooManySubspaces):
        geom.subspaces(2)
    for fam in oracle_families(geom, 4, seed="large-k"):
        assert cc._pair_profile(fam).tolist() == oracle_profile(fam), fam


def test_hyperplane_profile_of_pg_8_2():
    """Two distinct hyperplanes of PG(8,2) meet in a 6-space, so a member
    hyperplane meets the others in one and itself in a 7-space."""
    geom = geometry("PG", 8, 2)
    total = geom.subspace_count(7)
    rng = random.Random("pg82")
    for members in ([], [5], rng.sample(range(total), 200), range(total)):
        fam = cc.KFamily(geom, 7, members)
        want = np.zeros((total, 9), dtype=np.int64)
        want[:, 8] = fam.chi
        want[:, 7] = fam.size - want[:, 8]
        assert (cc._pair_profile(fam) == want).all()


def oracle_violations(F, column, expected):
    """(K, expected, actual) in K order, from the oracle profile."""
    out = []
    for K, row in enumerate(oracle_profile(F)):
        e = expected[K in F.members]
        if e != row[column]:
            out.append((K, e, row[column]))
    return out


@pytest.mark.parametrize("kind,n,q,k", [("PG", 3, 3, 1), ("PG", 4, 2, 2),
                                        ("AG", 3, 3, 1)])
def test_violation_lists_of_non_cl_families(kind, n, q, k):
    geom = geometry(kind, n, q)
    for fam in oracle_families(geom, k, seed=f"violations{kind}{n}{q}{k}"):
        x = fam.x
        if kind == "AG":
            factor = q * q * gauss_binom(n - 2, 1, q) + 1
            expect = [("line",) + v for v in oracle_violations(
                fam, 0, (x * factor, (x - 1) * factor))]
            got = cc.check_affine_line(fam).violations
            got = [v for v in got if v[0] == "line"]
            reports = [(got, expect)]
        else:
            factor = gauss0(n - k - 1, k, q) * q ** (k * k + k)
            reports = [(cc.check_disjoint_count(fam).violations,
                        oracle_violations(fam, 0, (x * factor,
                                                   (x - 1) * factor)))]
            for i in range(1, k + 2):
                expected = (cc.meet_profile_expected(fam, i, False),
                            cc.meet_profile_expected(fam, i, True))
                reports.append((cc.check_meet_profile(fam, i).violations,
                                oracle_violations(fam, k - i + 1, expected)))
        for got, expect in reports:
            assert got == expect
            for v in got:
                K, e, a = v[-3:]
                assert type(K) is int and type(a) is int
                assert type(e) is Fraction


def test_violations_are_built_when_read():
    """Read by index, by slice (either way, across the line violations and
    the points at infinity after them) or by iteration, a violation list
    gives the tuples of its full list; it counts, tests and compares as
    that list does."""
    reports = []
    for kind, n, q, k in (("PG", 4, 2, 1), ("PG", 3, 3, 1), ("AG", 3, 3, 1)):
        geom = geometry(kind, n, q)
        rng = random.Random(f"read{kind}{n}{q}")
        fam = cc.KFamily(geom, k, rng.sample(range(geom.subspace_count(k)),
                                             17))
        if kind == "AG":
            reports.append(cc.check_affine_line(fam))
        else:
            reports += [cc.check_disjoint_count(fam),
                        cc.check_meet_profile(fam, 1)]
    reports.append(cc.check_disjoint_count(
        cc.construct_trivial(geometry("PG", 4, 2), 1, "point_pencil")))
    for rep in reports:
        got = rep.violations
        full = list(got)
        m = len(full)
        assert rep.ok is (not got) is (m == 0)
        assert len(got) == m and got == full and full == got
        assert got[:10] == full[:10]
        if not m:
            continue
        assert got != full[:-1] and got != tuple(full)
        assert any(v[0] == "infinite-point" for v in full) is (
            rep is reports[-2])
        for j in (0, m // 2, m - 1, -1, -m):
            assert got[j] == full[j]
        for sl in (slice(None, None, -1), slice(m - 3, 2, -2),
                   slice(-5, None), slice(1, None, 3), slice(m, None)):
            assert got[sl] == full[sl]
        with pytest.raises(IndexError):
            got[m]


def restrict_based_aid_value(F, K, t):
    """The averaging identity's value from restrict() on every t-space
    through K: the route the double count replaced."""
    geom, k = F.geom, F.k
    n, q = geom.n, geom.q
    kpts = set(geom.point_table(k)[K].tolist())
    total = Fraction(0)
    for tau in geom.subspaces(t):
        if kpts <= set(geom.points_of(tau).tolist()):
            total += cc.restrict(F, tau).x
    chi = 1 if K in F.members else 0
    return (total - gauss_binom(n - k, t - k, q) * chi) \
        / gauss_binom(n - k - 1, t - k - 1, q) + chi


@pytest.mark.parametrize("n,q,k", [(5, 2, 1), (6, 2, 2)])
def test_aid_double_count_matches_restriction(n, q, k):
    geom = geometry("PG", n, q)
    rng = random.Random(f"aid{n}{q}{k}")
    total = geom.subspace_count(k)
    pencil = cc.construct_trivial(geom, k, "point_pencil")
    fams = [pencil, corrupted(pencil),
            cc.construct_trivial(geom, k, "hyperplane_class",
                                 complement_of=True),
            cc.KFamily(geom, k, rng.sample(range(total), total // 3)),
            cc.KFamily(geom, k, rng.sample(range(total), 2 * total // 3))]
    t = 2 * k + 1
    for fam in fams:
        for K in sorted(fam.members)[:2] + rng.sample(range(total), 2):
            value = restrict_based_aid_value(fam, K, t)
            assert cc._aid_value(fam, K, t) == value
            assert cc.check_aid_identity(fam, K, t) == (value == fam.x)


def test_checkers_and_transforms_build_no_masks(monkeypatch, tmp_path,
                                                capsys):
    """No library route reads the bitmasks or the dense incidence."""
    from clgeom.cli import main
    from clgeom.geometry import Geometry

    def refuse(self, k):
        raise AssertionError("bitmask or dense incidence used")

    monkeypatch.setattr(Geometry, "point_masks", refuse)
    monkeypatch.setattr(Geometry, "incidence", refuse)
    for kind, n, q in (("PG", 4, 2), ("AG", 3, 3)):
        geom = geometry(kind, n, q)
        for fam in (cc.construct_trivial(geom, 1, "point_pencil"),
                    corrupted(cc.construct_trivial(geom, 1, "point_pencil"))):
            path = tmp_path / f"{kind}.json"
            cc.save_family(fam, str(path))
            assert main(["verify", str(path)]) in (0, 1)
            if kind == "AG":
                assert cc.pg_to_ag(cc.ag_to_pg(fam)) == fam
                continue
            cc.restrict(fam, geom.subspaces(3)[5])
            cc.project(fam, make_subspace([geom.points[3]], geom.field))
            cc.pg_to_ag(cc.construct_trivial(geom, 1, "hyperplane_class",
                                             complement_of=True))
            cc.find_skew_space(fam)
            anchor = geom.points[0]
            solid = next(s for s in geom.subspaces(3)
                         if point_in_subspace(geom.field, anchor, s))
            try:
                cc.check_pencil_propagation(fam, solid)
            except PreconditionNotMet:
                pass
    out = capsys.readouterr().out
    assert "affine-line" in out and "aid" in out and "drudge" in out


# -- array-native routes against their Python oracles -----------------------

def project_oracle(F, pi):
    """project by Zassenhaus meets and RREF, member by member."""
    geom, field = F.geom, F.geom.field
    beta = canonical_complement(pi, field)
    sub_geom = geometry("PG", geom.n - pi.k - 1, geom.q)
    index = {s.mat: j for j, s in
             enumerate(sub_geom.subspaces(F.k - pi.k - 1))}
    subs = geom.subspaces(F.k)
    return {index[project_subspace(field, subs[m], pi, beta).mat]
            for m in sorted(F.members)
            if all(point_in_subspace(field, r, subs[m]) for r in pi.mat)}


@pytest.mark.parametrize("n,q,k", [(3, 2, 1), (4, 2, 2), (5, 2, 3),
                                   (3, 3, 2), (4, 3, 2), (3, 4, 2),
                                   (3, 8, 1), (2, 9, 1)])
def test_project_matches_oracle(n, q, k):
    """Every i in [-1, k-1], centres at random, the whole level and a random
    half of it: p = 2, odd p and h > 1."""
    geom = geometry("PG", n, q)
    rng = random.Random(f"{n}/{q}/{k}")
    count = geom.subspace_count(k)
    full = cc.KFamily(geom, k, range(count))
    half = cc.KFamily(geom, k, rng.sample(range(count), count // 2))
    for i in range(-1, k):
        if i < 0:
            centres = [make_subspace([], geom.field, n + 1)]
        else:
            level = geom.subspaces(i)
            centres = [level[0], level[-1]] + [
                level[rng.randrange(len(level))] for _ in range(2)]
        for pi in centres:
            for fam in (full, half):
                img = cc.project(fam, pi)
                assert img.geom.key == ("PG", geom.field.p, geom.field.h,
                                        n - i - 1)
                assert img.k == k - i - 1
                assert img.members == project_oracle(fam, pi)
            # every k-space through pi has its own image
            assert cc.project(full, pi).size == gauss_binom(n - i, k - i, q)


def drudge_isin_route(F, p, tau):
    """check_drudge_identity as it read the point table through np.isin."""
    geom, k = F.geom, F.k
    n, q = geom.n, geom.q
    p_idx = cc._resolve_point(geom, p)
    tau_pts = geom.points_of(tau)
    if p_idx not in tau_pts:
        raise PointNotInSubspace("p must lie in tau")
    i = tau.k
    if i < k + 1:
        raise GuardViolated("tau must have dimension >= k+1")
    rows = geom.point_table(k)[np.flatnonzero(F.chi)]
    through_p = (rows == p_idx).any(axis=1)
    inside = np.isin(rows, tau_pts).all(axis=1)
    a, b, c = (int(m.sum()) for m in (through_p, inside, through_p & inside))
    g_n1k = gauss_binom(n - 1, k, q)
    g_i1k = gauss_binom(i - 1, k, q)
    lhs = Fraction(a) + Fraction(g_n1k * (q ** k - 1), g_i1k * (q ** i - 1)) * b
    rhs = Fraction(g_n1k, g_i1k) * c + Fraction(q ** k - 1, q ** n - 1) * F.size
    return lhs == rhs


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (PointNotInSubspace, GuardViolated) as exc:
        return type(exc)


@pytest.mark.parametrize("n,q,k", [(3, 2, 1), (4, 2, 1), (4, 2, 2),
                                   (3, 3, 1), (3, 4, 1), (4, 3, 1),
                                   (5, 2, 2)])
def test_drudge_mask_route_matches_isin_route(n, q, k):
    """Answers and errors of every (p, tau) draw, on CL families, their
    complements and corrupted families; a point off a too-small tau is
    PointNotInSubspace first.  The draws on one family reuse its cached
    rows and degrees, and a fresh copy of the family, with nothing cached,
    answers the same."""
    geom = geometry("PG", n, q)
    rng = random.Random(f"drudge/{n}/{q}/{k}")
    fams = [f for f, _ in trivial_families(geom, k)]
    fams += [corrupted(f) for f in fams
             if 0 < f.size < geom.subspace_count(k)]
    seen = set()
    for fam in fams:
        for _ in range(12):
            level = geom.subspaces(rng.randrange(n))
            tau = level[rng.randrange(len(level))]
            p = rng.randrange(geom.num_points)
            want = _outcome(drudge_isin_route, fam, p, tau)
            assert _outcome(cc.check_drudge_identity, fam, p, tau) == want
            fresh = cc.KFamily(geom, k, fam.indices)
            assert _outcome(cc.check_drudge_identity, fresh, p, tau) == want
            seen.add(want if isinstance(want, type) else bool(want))
    assert {True, False, PointNotInSubspace, GuardViolated} <= seen
    point = geom.subspaces(0)[0]
    outside = int(np.setdiff1d(np.arange(geom.num_points),
                               geom.points_of(point))[0])
    with pytest.raises(PointNotInSubspace):
        cc.check_drudge_identity(fams[1], outside, point)


CONTAINMENT_GEOMS = [(n, q, k) for n, q in ((4, 2), (5, 2), (3, 3), (4, 3),
                                            (3, 4), (3, 5), (2, 8), (3, 8),
                                            (2, 9), (3, 9))
                     for k in range(n)]


def _subspaces_to_try(geom, rng, dims, count):
    """For each dimension in dims, the level's first and last subspaces and
    count seeded ones; the empty subspace for dimension -1."""
    out = []
    for d in dims:
        if d < 0:
            out.append(make_subspace([], geom.field, geom.n + 1))
            continue
        level = geom.subspaces(d)
        picks = {0, len(level) - 1}
        picks.update(rng.randrange(len(level)) for _ in range(count))
        out += [level[j] for j in sorted(picks)]
    return out


@pytest.mark.parametrize("n,q,k", CONTAINMENT_GEOMS)
def test_containment_routes_match_full_row_oracles(n, q, k):
    """_indices_inside, restrict, project, check_drudge_identity and
    find_skew_space read a row's k+1 basis columns with early exit; the
    oracles reduce over all its theta points.  On trivial families, their
    complements and seeded random families, for subspaces of every
    dimension (the empty pi for project), answers and errors agree.
    _rows_within and _rows_holding over a family's indices give their
    whole-table rows that are members."""
    geom = geometry("PG", n, q)
    rng = random.Random(f"contain/{n}/{q}/{k}")
    table = geom.point_table(k)
    total = geom.subspace_count(k)
    fams = [f for f, _ in trivial_families(geom, k)]
    fams += [cc.KFamily(geom, k, rng.sample(range(total), size))
             for size in (1, total // 3, total // 2)]
    for outer in _subspaces_to_try(geom, rng, range(n + 1), 2):
        assert np.array_equal(cc._indices_inside(geom, k, outer),
                              indices_inside_full_rows(geom, k, outer))
    seen = set()
    for fam in fams:
        member = fam.chi.view(bool)
        assert cc.find_skew_space(fam) == skew_space_full_rows(fam)
        for pi in _subspaces_to_try(geom, rng, range(k + 1, n + 1), 1):
            assert cc.restrict(fam, pi) == restrict_full_rows(fam, pi)
            mask, cols = cc._mask(geom, pi), _basis_columns(q, k)
            whole = cc._rows_within(mask, table, cols)
            assert np.array_equal(
                cc._rows_within(mask, table, cols, fam.indices),
                whole[member[whole]])
        for pi in _subspaces_to_try(geom, rng, range(-1, k), 1):
            assert cc.project(fam, pi) == project_full_rows(fam, pi)
            points = geom.points_of(pi)[_basis_columns(q, pi.k)]
            whole = cc._rows_holding(table, points)
            assert np.array_equal(
                cc._rows_holding(table, points, fam.indices),
                whole[member[whole]])
        for tau in _subspaces_to_try(geom, rng, range(n + 1), 0):
            pts = geom.points_of(tau)
            for p in (int(rng.choice(pts)), rng.randrange(geom.num_points)):
                want = _outcome(drudge_full_rows, fam, p, tau)
                assert _outcome(cc.check_drudge_identity, fam, p, tau) == want
                seen.add(want if isinstance(want, type) else bool(want))
    assert {True, PointNotInSubspace, GuardViolated} <= seen
    # for k = 0, and for tau the whole space (k = n-1), the identity holds
    # for every family
    assert (False in seen) == (0 < k < n - 1)


@pytest.mark.parametrize("kind,n,q,k", [("PG", 3, 2, 1), ("PG", 4, 2, 2),
                                        ("AG", 3, 3, 1), ("PG", 3, 2, 3)])
def test_family_views_are_read_only_and_derived(kind, n, q, k):
    """Each cached view of a family is built once, cannot be written, and
    equals its recomputation from indices; families compare and hash by
    their indices alone, whichever views they hold."""
    geom = geometry(kind, n, q)
    table = geom.point_table(k)
    for fam, _ in trivial_families(geom, k):
        idx = fam.indices
        chi = np.zeros(geom.subspace_count(k), dtype=np.uint8)
        chi[idx] = 1
        rows = table[idx]
        fresh = cc.KFamily(geom, k, idx)
        views = {
            "chi": chi,
            "degrees": np.bincount(rows.ravel(), minlength=geom.num_points),
            "_profile": cc._pair_profile(fresh),
        }
        assert fam == fresh and hash(fam) == hash(fresh)
        for name, want in views.items():
            view = getattr(fam, name)
            assert getattr(fam, name) is view
            assert np.array_equal(view, want), name
            with pytest.raises(ValueError):
                view[...] = 1
        assert fam.members == frozenset(idx.tolist())
        assert fam.indices is idx
        assert fam == fresh and hash(fam) == hash(fresh)
        assert fam == cc.KFamily(geom, k, idx.tolist())
        assert len({fam, fresh, cc.KFamily(geom, k, idx)}) == 1


def test_checkers_and_transforms_add_no_tables():
    """is_cl, drudge, restrict and project read the point table through
    the family's indices: no further table is built or cached on the
    geometry."""
    geom = geometry("PG", 4, 3)
    geom.point_table(1)
    before = {key: id(table) for key, table in geom._tables.items()}
    for fam, _ in trivial_families(geom, 1):
        cc.is_cl(fam)
        tau = geom.subspaces(2)[7]
        cc.check_drudge_identity(fam, int(geom.points_of(tau)[0]), tau)
        cc.restrict(fam, geom.subspaces(3)[11])
        cc.project(fam, geom.subspaces(0)[5])
        assert {key: id(table) for key, table in geom._tables.items()} \
            == before


def test_routes_on_a_nearly_full_family_copy_no_table_rows():
    """The hyperplane-class complement of PG(5,3) k=3 holds 10890 of the
    11011 solids, so a copy of its rows of the point table (theta = 40
    uint16 entries a row, 0.88 MB) would be nearly the table's size.  Once
    the table and the family are built, is_cl, drudge (tau a hyperplane,
    and the whole space, which holds every member), restrict and project
    on it trace less than half the table's bytes of new memory, although
    each intp index that take converts the narrow entries to is 4 times
    an entry's bytes."""
    geom = geometry("PG", 5, 3)
    table = geom.point_table(3)
    assert table.dtype == np.uint16
    fam = cc.construct_trivial(geom, 3, "hyperplane_class",
                               complement_of=True)
    tau = geom.subspaces(4)[7]
    p = int(geom.points_of(tau)[0])
    space = geom.subspaces(5)[0]
    tracemalloc.start()
    try:
        assert cc.is_cl(fam).is_cl
        assert cc.check_drudge_identity(fam, p, tau)
        assert cc.check_drudge_identity(fam, p, space)
        assert cc.restrict(fam, geom.subspaces(4)[11]).size
        assert cc.project(fam, geom.subspaces(0)[5]).size
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table.nbytes / 2, (peak, table.nbytes)


def _counts_case(case):
    """(table, rows, minlength) for test_counts_match_bincount."""
    rng = np.random.default_rng(sum(map(ord, case)))
    if case == "empty":
        return (geometry("PG", 3, 3).point_table(1),
                np.empty(0, dtype=np.int64), 40)
    if case == "pieces":
        table = geometry("PG", 3, 9).point_table(1)
        rows = np.flatnonzero(rng.random(len(table)) < 0.8)
        assert len(rows) > 3 * (_CHUNK // table.shape[1])
        return table, rows, 820
    if case == "whole":
        table = geometry("PG", 5, 3).point_table(1)
        return table, np.arange(len(table)), 364
    if case == "sub-table":
        # int32, and more counts (33880 planes) than a piece has entries
        table = geometry("PG", 5, 3).sub_table(3, 2)
        return table, np.flatnonzero(rng.random(len(table)) < 0.5), 33880
    # wider than a piece (step 1), with entries past minlength
    table = rng.integers(0, 50, size=(7, _CHUNK + 3))
    return table, np.array([0, 2, 3, 6]), 10


@pytest.mark.parametrize("case", ["empty", "pieces", "whole", "sub-table",
                                  "wide"])
def test_counts_match_bincount(case):
    """_counts is np.bincount over the selected rows, gathered in pieces."""
    table, rows, minlength = _counts_case(case)
    want = np.bincount(table[rows].ravel(), minlength=minlength)
    assert np.array_equal(cc._counts(table, rows, minlength), want)


# Point tables at the edges of their dtypes: uint8 with entries up to 255
# and 254, uint16 just past 255 and up to 65535, and uint32; then two
# k = 2 families whose profiles read uint8 and uint16 line tables.
DTYPE_EDGE_GEOMS = [("AG", 2, 16, 1), ("AG", 4, 4, 1), ("PG", 7, 2, 1),
                    ("PG", 2, 16, 1), ("AG", 4, 16, 0), ("AG", 2, 256, 0),
                    ("PG", 2, 256, 0), ("PG", 4, 2, 2), ("PG", 4, 3, 2)]


def _through_last_point(geom, dim):
    """A dim-space through the last point (1, q-1, ..., q-1): it and the
    unit vectors e_n, e_(n-1), ..., which are independent of it."""
    n = geom.n
    units = [[0] * c + [1] + [0] * (n - c) for c in range(n, n - dim, -1)]
    return make_subspace([geom.points[-1]] + units, geom.field)


@pytest.mark.parametrize("kind,n,q,k", DTYPE_EDGE_GEOMS)
def test_narrow_tables_match_int64_routes(kind, n, q, k):
    """Every point and sub table is stored in np.min_scalar_type of its
    count minus one.  Every row of the point table holds theta distinct
    points of its k-space, ascending, which is all of them, as membership
    says.  On a pencil of the last point, its complement, a seeded third
    of the k-spaces and (PG) the hyperplane class, the routes that read the
    narrow tables agree with those routes and the oracles on int64 copies
    (oracles.int64_tables), wherever the geometry admits them."""
    geom = geometry(kind, n, q)
    wide = int64_tables(geom)
    v, total = geom.num_points, geom.subspace_count(k)
    table = geom.point_table(k)
    theta = gauss_binom(k + 1, 1, q) if kind == "PG" else q ** k
    assert table.dtype == np.min_scalar_type(v - 1)
    assert table.shape == (total, theta) and table.max() == v - 1
    for j in range(1, k):
        assert geom.sub_table(k, j).dtype == np.min_scalar_type(
            geom.subspace_count(j) - 1)
    assert (np.diff(table.astype(np.int64), axis=1) > 0).all()
    points = geom.points
    for row, sub in zip(table.tolist(), geom.subspaces(k)):
        assert all(point_in_subspace(geom.field, points[i], sub)
                   for i in row)

    rng = np.random.default_rng(sum(map(ord, f"{kind}{n}{q}{k}")))
    pencil = cc.construct_trivial(geom, k, "point_pencil", point=v - 1)
    fams = [pencil, cc.complement(pencil),
            cc.KFamily(geom, k, rng.choice(total, total // 3, replace=False))]
    if kind == "PG":
        fams.append(cc.construct_trivial(geom, k, "hyperplane_class"))
    spread = None
    if kind == "PG" and (n + 1) % (k + 1) == 0:
        spread = field_reduction_spread(n, k, q)
    elif kind == "AG" and k == 0:
        spread = np.arange(total)
    elif kind == "AG":
        # the lines with line 0's direction, a parallel class
        codes = geom.subspaces(1).codes
        spread = np.flatnonzero((codes[:, 1] == codes[0, 1]).all(axis=1))
    # the (k+1)-space to k-space table of PG(2,256) has 16.9M entries
    skew = kind == "PG" and (geom.subspace_count(k + 1)
                             * gauss_binom(k + 2, 1, q) <= 10 ** 6)
    for fam in fams:
        twin = cc.KFamily(wide, k, fam.indices)
        assert cc.is_cl(fam) == cc.is_cl(twin)
        assert np.array_equal(fam.degrees, np.bincount(
            wide.point_table(k)[fam.indices].ravel(), minlength=v))
        assert np.array_equal(fam._profile, twin._profile)
        if spread is not None:
            assert cc.check_spread(fam, spread) \
                == cc.check_spread(twin, spread)
        if kind == "AG":
            assert cc.pg_to_ag(cc.ag_to_pg(fam)) == fam
            assert cc.pg_to_ag(cc.ag_to_pg(fam)) == pg_to_ag_oracle(
                cc.ag_to_pg(fam))
            if k == 1:
                assert cc.check_affine_line(fam) == cc.check_affine_line(twin)
            continue
        for dim in sorted({k + 1, max(k + 1, n - 1), n}):
            tau = _through_last_point(geom, dim)
            assert cc.check_drudge_identity(fam, v - 1, tau) \
                == drudge_full_rows(twin, v - 1, tau)
            assert cc.restrict(fam, tau) == restrict_full_rows(twin, tau)
        if k:
            pi = _through_last_point(geom, 0)
            assert cc.project(fam, pi) == project_full_rows(twin, pi)
        if skew:
            assert cc.find_skew_space(fam) == skew_space_full_rows(twin)


def test_construct_trivial_refuses_anchor_of_wrong_dimension():
    """hyperplane= takes only hyperplanes.  Point 0, (0,0,0,0,1), is off
    every refused anchor but the whole space, so the anchor-point check
    cannot refuse them first."""
    geom = geometry("PG", 4, 2)
    e = [[int(c == j) for c in range(5)] for j in range(5)]
    for d in (0, 1, 2, 3, 5):
        H = make_subspace(e[:d], geom.field, 5)
        for k in (1, 2):
            for kind in ("hyperplane_class", "pencil_plus_hyperplane"):
                with pytest.raises(AnchorInvalid):
                    cc.construct_trivial(geom, k, kind, point=0, hyperplane=H)
    hyperplane = make_subspace(e[:4], geom.field)
    cls = cc.construct_trivial(geom, 1, "hyperplane_class", hyperplane=hyperplane)
    assert cls.size == gauss_binom(4, 2, 2) and cc.is_cl(cls).is_cl


def test_centre_of_another_width_is_dimension_mismatch():
    """restrict, project, check_drudge_identity and construct_trivial with
    an anchor hyperplane name a subspace of the wrong width."""
    geom = geometry("PG", 3, 2)
    pen = cc.construct_trivial(geom, 1, "point_pencil")

    def wide(rows):
        return make_subspace([list(r) + [0] for r in rows], geom.field, 5)

    def narrow(rows):
        return make_subspace([list(r)[:3] for r in rows], geom.field, 3)

    plane = make_subspace([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
                          geom.field)
    point = make_subspace([[1, 0, 0, 0]], geom.field)
    for resize in (wide, narrow):
        with pytest.raises(DimensionMismatch):
            cc.restrict(pen, resize(plane.mat))
        with pytest.raises(DimensionMismatch):
            cc.project(pen, resize(point.mat))
        with pytest.raises(DimensionMismatch):
            cc.check_drudge_identity(pen, 0, resize(plane.mat))
        for kind in ("hyperplane_class", "pencil_plus_hyperplane"):
            with pytest.raises(DimensionMismatch):
                cc.construct_trivial(geom, 1, kind, point=14,
                                     hyperplane=resize(plane.mat))


@pytest.mark.parametrize("make", [
    lambda: cc.construct_trivial(geometry("PG", 3, 2), 1, "empty"),
    lambda: cc.KFamily(geometry("PG", 4, 3), 2, [17]),
    lambda: cc.construct_trivial(geometry("PG", 3, 4), 1, "point_pencil",
                                 point=9),
    lambda: cc.construct_trivial(geometry("AG", 3, 4), 1, "point_pencil"),
    lambda: cc.construct_trivial(geometry("PG", 4, 3), 1, "hyperplane_class",
                                 complement_of=True),
    lambda: cc.construct_trivial(geometry("PG", 4, 2), 4, "point_pencil"),
    # 10890 members of 12 codes: eight pieces, the last one short
    lambda: cc.construct_trivial(geometry("PG", 5, 3), 1, "point_pencil",
                                 complement_of=True),
    # two whole pieces, and one member past them
    lambda: cc.KFamily(geometry("PG", 5, 3), 1, range(2 * (_CHUNK // 12))),
    lambda: cc.KFamily(geometry("PG", 5, 3), 1,
                       range(2 * (_CHUNK // 12) + 1))],
    ids=["empty", "one-member", "gf4", "ag-gf4", "complement", "k=n",
         "pieces", "piece-boundary", "past-boundary"])
def test_family_json_is_indented_dumps(make, tmp_path):
    """family_json and save_family write json.dumps(indent=1) byte for
    byte, and iter_family_json yields the header, the members in pieces
    of at most _CHUNK codes, then the tail."""
    fam = make()
    want = json.dumps(cc.family_to_dict(fam), indent=1) + "\n"
    pieces = list(cc.iter_family_json(fam))
    assert "".join(pieces) == want
    step = _CHUNK // ((fam.k + 1) * (fam.geom.n + 1))
    assert len(pieces) == (2 + -(-fam.size // step) if fam.size else 1)
    assert cc.family_json(fam) == want
    path = tmp_path / "fam.json"
    cc.save_family(fam, str(path))
    assert path.read_text() == want
    assert cc.load_family(str(path)) == fam


# -- the index array against Python set algebra ------------------------------

ARRAY_GEOMS = [("PG", 3, 2, 1), ("PG", 4, 2, 2), ("PG", 3, 3, 0),
               ("PG", 3, 4, 1), ("AG", 3, 3, 1), ("AG", 3, 2, 2)]


def trivial_members_by_sets(geom, k, kind, point):
    """The members of a trivial family by Python set algebra over the rows
    of the point table (the default hyperplane is X0 = 0)."""
    rows = [set(row) for row in geom.point_table(k).tolist()]
    pencil = {j for j, row in enumerate(rows) if point in row}
    in_h = {i for i, p in enumerate(geom.points) if p[0] == 0}
    cls = {j for j, row in enumerate(rows) if row <= in_h}
    return {"empty": set(), "point_pencil": pencil, "hyperplane_class": cls,
            "pencil_plus_hyperplane": pencil | cls}[kind]


@pytest.mark.parametrize("space,n,q,k", ARRAY_GEOMS)
def test_trivial_families_match_set_algebra(space, n, q, k):
    geom = geometry(space, n, q)
    everything = set(range(geom.subspace_count(k)))
    point = _off_hyperplane_point(geom)
    kinds = ["empty", "point_pencil"]
    if space == "PG":
        kinds += ["hyperplane_class", "pencil_plus_hyperplane"]
    for kind in kinds:
        want = trivial_members_by_sets(geom, k, kind, point)
        fam = cc.construct_trivial(geom, k, kind, point=point)
        assert fam.members == want and fam.size == len(want)
        co = cc.construct_trivial(geom, k, kind, point=point,
                                  complement_of=True)
        assert co.members == everything - want
        assert co == cc.complement(fam)


@pytest.mark.parametrize("space,n,q,k", ARRAY_GEOMS)
def test_set_algebra_matches_python_sets(space, n, q, k):
    geom = geometry(space, n, q)
    total = geom.subspace_count(k)
    everything = set(range(total))
    rng = random.Random(f"array/{space}{n}{q}{k}")
    for _ in range(20):
        a = set(rng.sample(range(total), rng.randint(0, total)))
        b = set(rng.sample(range(total), rng.randint(0, total)))
        A, B = cc.KFamily(geom, k, a), cc.KFamily(geom, k, b)
        assert cc.complement(A).members == everything - a
        assert cc.complement(cc.complement(A)) == A
        rest = cc.KFamily(geom, k, b - a)
        assert cc.union_disjoint(A, rest).members == a | b
        assert cc.union_disjoint(rest, A).members == a | b
        assert cc.difference(A, cc.union_disjoint(A, rest)).members == b - a
        if a & b:
            with pytest.raises(NotDisjoint):
                cc.union_disjoint(A, B)
        else:
            assert cc.union_disjoint(A, B).members == a | b
        if a <= b:
            assert cc.difference(A, B).members == b - a
        else:
            with pytest.raises(NotContained):
                cc.difference(A, B)


def test_family_from_any_iterable_compares_and_hashes_equal():
    geom = geometry("PG", 3, 2)
    want = {2, 3, 5, 8, 13}
    fams = [cc.KFamily(geom, 1, sorted(want)),
            cc.KFamily(geom, 1, set(want)),
            cc.KFamily(geom, 1, (m for m in want)),
            cc.KFamily(geom, 1, [13, 8, 5, 3, 2]),
            cc.KFamily(geom, 1, np.array([13, 2, 8, 5, 3], dtype=np.int32)),
            cc.KFamily(geom, 1, [8, 2, 13, 3, 3, 5, 2, 8, 8])]
    for fam in fams:
        assert fam == fams[0] and hash(fam) == hash(fams[0])
        assert fam.members == want and fam.size == 5
        assert fam.x == Fraction(5, 7)
        assert fam.indices.tolist() == sorted(want)
        assert fam.indices.dtype == np.int64
        assert not fam.indices.flags.writeable
        assert np.flatnonzero(fam.chi).tolist() == sorted(want)
    span = cc.KFamily(geom, 1, range(2, 14))
    assert span == cc.KFamily(geom, 1, np.arange(13, 1, -1, dtype=np.int32))
    assert hash(span) == hash(cc.KFamily(geom, 1, list(range(2, 14))))
    assert span.members == set(range(2, 14))
    assert fams[0] != span and fams[0] != cc.KFamily(geom, 2, sorted(want))
    assert cc.KFamily(geom, 1, ()) == cc.KFamily(geom, 1, np.array([], int))
    # the family keeps its own copy of an array argument
    arr = np.array([1, 4])
    fam = cc.KFamily(geom, 1, arr)
    arr[0] = 9
    assert fam.members == {1, 4}


@pytest.mark.parametrize("members", [
    [-1], [0, 35], [2 ** 70], (m for m in (3, -4)), np.array([35]),
    np.array([-1], dtype=np.int32), range(30, 36)],
    ids=["negative", "count", "huge", "generator", "array", "int32", "range"])
def test_family_refuses_members_out_of_range(members):
    with pytest.raises(ValueError, match="out of range"):
        cc.KFamily(geometry("PG", 3, 2), 1, members)


@pytest.mark.parametrize("members", [
    [1.7, 2], np.array([1.9, 3.2]), [True, 3], np.array([True, False]),
    [np.True_], [np.float64(1)], np.array([1, 2], dtype=object) / 1],
    ids=["floats", "float-array", "bool", "bool-array", "numpy-bool",
         "numpy-float", "object-floats"])
def test_family_refuses_non_integer_members(members):
    """A float or a bool is no member index: the int64 cast would truncate
    1.7 to 1 and take True as 1."""
    with pytest.raises(ValueError, match="must be integers"):
        cc.KFamily(geometry("PG", 3, 2), 1, members)


def test_family_takes_numpy_integers():
    geom = geometry("PG", 3, 2)
    want = cc.KFamily(geom, 1, [2, 3])
    for members in ([np.int64(3), np.uint8(2)], np.array([3, 2], dtype=object),
                    np.array([3, 2], dtype=np.uint16)):
        assert cc.KFamily(geom, 1, members) == want


@pytest.mark.parametrize("k", [1.0, True, np.float64(1), np.True_, "1"],
                         ids=["float", "bool", "numpy-float", "numpy-bool",
                              "str"])
def test_family_and_construction_refuse_non_integer_k(k):
    """k is refused before any cache is read, so the refusal does not
    depend on whether the k-level is cached: the caches would take 1.0
    and True as 1.  A fresh Geometry shows that nothing was built."""
    fresh, cached = Geometry("PG", 4, ff_create(2)), geometry("PG", 4, 2)
    cached.point_table(1)
    for geom in (fresh, cached):
        with pytest.raises(ValueError, match="must be an integer"):
            cc.KFamily(geom, k, [0, 1])
        with pytest.raises(ValueError, match="must be an integer"):
            cc.construct_trivial(geom, k, "point_pencil")
    assert not fresh._subspaces and not fresh._tables


@pytest.mark.parametrize("k", [7, -1, 5], ids=["7", "-1", "n+1"])
def test_family_refuses_k_outside_range_without_members(k):
    """An empty member list has no index to check against the level, so
    the range of k is checked first: such a family was built, and then its
    x, chi and is_cl raised InvalidRange."""
    geom = geometry("PG", 4, 2)
    for members in ([], np.array([], dtype=np.int64), [0]):
        with pytest.raises(InvalidRange):
            cc.KFamily(geom, k, members)


def test_family_and_construction_take_numpy_integer_k():
    geom = geometry("PG", 4, 2)
    want = cc.construct_trivial(geom, 1, "point_pencil")
    for k in (np.int64(1), np.uint8(1)):
        fam = cc.construct_trivial(geom, k, "point_pencil")
        assert fam == want and type(fam.k) is int
        assert cc.KFamily(geom, k, want.indices) == want


@pytest.mark.parametrize("i,t", [(1.0, 3.0), (True, True),
                                 (np.float64(1), np.float64(3)),
                                 (np.True_, np.True_)],
                         ids=["float", "bool", "numpy-float", "numpy-bool"])
def test_meet_profile_and_aid_refuse_non_integer_i_and_t(i, t):
    """i and t are integers, refused with GuardViolated as their range
    checks refuse them: i = True ran as i = 1, and i = 1.0 or t = 3.0
    raised TypeError."""
    fam = cc.construct_trivial(geometry("PG", 4, 2), 1, "point_pencil")
    with pytest.raises(GuardViolated, match="integer"):
        cc.check_meet_profile(fam, i)
    with pytest.raises(GuardViolated, match="integer"):
        cc.check_aid_identity(fam, 0, t)
    assert cc.check_meet_profile(fam, np.int64(1)).ok
    assert cc.check_aid_identity(fam, 0, np.int64(3))


def test_one_member_family_past_the_cap_builds():
    """PG(30,2) has about 7.7e17 lines, far past the enumeration cap; a
    family of one of them builds without touching the level."""
    geom = geometry("PG", 30, 2)
    count = geom.subspace_count(1)
    for m in (5, count - 1):
        fam = cc.KFamily(geom, 1, [m])
        assert fam.members == {m} and fam.size == 1
        assert fam.x == Fraction(1, gauss_binom(30, 1, 2))
        assert fam == cc.KFamily(geom, 1, np.array([m]))
    with pytest.raises(ValueError):
        cc.KFamily(geom, 1, [count])


def test_family_repeated_member_refused_by_schema_and_loader(tmp_path):
    import jsonschema
    from importlib import resources
    schema = json.loads(resources.files("clgeom")
                        .joinpath("schemas/family.schema.json").read_text())
    base = _pencil_dict()
    jsonschema.validate(base, schema)
    members = base["members"]
    assert len(members) == 7
    for listed, message in (
            (members + [members[0]], "member 7: repeats member 0"),
            (members[:3] + [members[1]] + members[3:] + [members[1]],
             "member 3: repeats member 1")):
        data = {**base, "members": listed}
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(data, schema)
        with pytest.raises(FamilyFormatError, match=message):
            cc.family_from_dict(data)
        path = tmp_path / "repeat.json"
        path.write_text(json.dumps(data))
        with pytest.raises(FamilyFormatError, match=message):
            cc.load_family(str(path))


def test_no_library_route_reads_the_point_list(monkeypatch, tmp_path,
                                               capsys):
    """With Geometry.points raising, anchors (indices and tuples), the
    spread and affine-line checks and the CLI's default verify run on
    level positions alone, and the spread eliminates no element."""
    from clgeom.cli import main
    geometry_module = importlib.import_module("clgeom.geometry")

    def refuse(*args):
        raise AssertionError("point list read or element eliminated")

    with monkeypatch.context() as m:
        m.setattr(geometry_module, "make_subspace", refuse)
        m.setattr(geometry_module, "rref", refuse)
        field_reduction_spread.cache_clear()
        spreads = {(n, k, q): field_reduction_spread(n, k, q)
                   for n, k, q in ((5, 1, 2), (3, 1, 3), (7, 3, 2),
                                   (8, 2, 2), (3, 0, 2), (1, 1, 7))}
    monkeypatch.setattr(Geometry, "points", property(refuse))
    pg, ag = geometry("PG", 5, 2), geometry("AG", 3, 3)
    for geom in (pg, ag):
        anchor = tuple(geom.subspaces(0).codes[5, 0].tolist())
        pencil = cc.construct_trivial(geom, 1, "point_pencil", point=5)
        assert cc.construct_trivial(geom, 1, "point_pencil",
                                    point=anchor) == pencil
    assert cc.construct_trivial(
        pg, 1, "pencil_plus_hyperplane", point=(1, 0, 0, 0, 0, 0)) == \
        cc.construct_trivial(pg, 1, "pencil_plus_hyperplane", point=31)
    assert cc.check_spread(cc.construct_trivial(pg, 1, "point_pencil"),
                           spreads[5, 1, 2])
    assert cc.check_affine_line(pencil).ok
    for space, n, q, point in (("pg", 5, 2, "0,1,1,0,1,0"),
                               ("ag", 3, 3, "1,2,0,1")):
        path = tmp_path / f"{space}.json"
        argv = ["construct", "--space", space, "-n", str(n), "-k", "1",
                "-q", str(q), "--kind", "point-pencil", "--point", point]
        assert main([*argv, "-o", str(path)]) == 0
        assert main(["verify", str(path)]) == 0
    assert main(["verify", str(path), "--checks", "spread"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert all(name in out for name in ("spread", "drudge", "affine-line"))


def test_no_library_route_reads_members(monkeypatch, tmp_path, capsys):
    """Every construction, checker, transform and the family file format
    read the index array, never the frozenset view."""
    from clgeom.cli import main

    def refuse(self):
        raise AssertionError("KFamily.members read")

    monkeypatch.setattr(cc.KFamily, "members", property(refuse))
    kinds = ("empty", "point_pencil", "hyperplane_class",
             "pencil_plus_hyperplane")
    for space, n, q in (("PG", 3, 2), ("PG", 4, 2), ("AG", 3, 3)):
        geom = geometry(space, n, q)
        point = _off_hyperplane_point(geom)
        planes = geom.subspaces(2)
        tau = next(s for s in planes
                   if point_in_subspace(geom.field, geom.points[point], s))
        fams = [cc.construct_trivial(geom, 1, kind, point=point,
                                     complement_of=co)
                for kind in kinds[:2 if space == "AG" else 4]
                for co in (False, True)]
        # a pencil with one member swapped for the first non-member
        pencil, free = fams[2].indices, cc.complement(fams[2]).indices
        fams.append(cc.KFamily(geom, 1, [*pencil[1:], free[0]]))
        for fam in fams:
            cc.is_cl(fam)
            path = tmp_path / "fam.json"
            cc.save_family(fam, str(path))
            assert cc.load_family(str(path)) == fam
            hash(fam)
            rest = cc.complement(fam)
            assert cc.difference(fam, cc.union_disjoint(fam, rest)) == rest
            if space == "AG":
                cc.check_affine_line(fam)
                assert cc.pg_to_ag(cc.ag_to_pg(fam)) == fam
                continue
            cc.check_disjoint_count(fam)
            for i in (1, 2):
                cc.check_meet_profile(fam, i)
            cc.check_drudge_identity(fam, point, tau)
            if n == 3:
                cc.check_spread(fam, field_reduction_spread(3, 1, 2))
            else:
                cc.check_aid_identity(fam, 3, 3)
            cc.find_skew_space(fam)
            try:
                cc.check_pencil_propagation(fam, geom.subspaces(n - 1)[1])
            except PreconditionNotMet:
                pass
            cc.restrict(fam, geom.subspaces(n - 1)[0])
            cc.project(fam, make_subspace([geom.points[3]], geom.field))
            try:
                cc.pg_to_ag(fam)
            except MemberInsideHyperplane:
                pass
        path = tmp_path / f"{space}.json"
        argv = ["--space", space.lower(), "-n", str(n), "-k", "1", "-q",
                str(q), "--kind", "point-pencil", "-o", str(path)]
        assert main(["construct", *argv]) == 0
        assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "affine-line" in out and "aid" in out and "spread" in out
