import json
import os
import random
import subprocess
import sys
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
)
from clgeom.geometry import (
    canonical_complement,
    field_reduction_spread,
    gauss0,
    gauss_binom,
    geometry,
    make_subspace,
    meet,
    point_in_subspace,
)
from clgeom.sieve import x_max_param
from oracles import pg_to_ag_oracle, project_subspace, rational_is_cl


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
    with pytest.raises(AnchorInvalid):
        cc.construct_trivial(geom, 1, "nonsense")
    with pytest.raises(AnchorInvalid):
        # anchor point inside the anchor hyperplane
        cc.construct_trivial(geom, 1, "pencil_plus_hyperplane",
                             point=(0, 0, 0, 1))
    ag = geometry("AG", 3, 2)
    with pytest.raises(AnchorInvalid):
        cc.construct_trivial(ag, 1, "hyperplane_class")


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
    S = field_reduction_spread(3, 1, 2)
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
    cls = cc._indices_inside(geom, 1, H)
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
        inside = cc._indices_inside(geom, 1, H)
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
                 ("PG", 4, 2, 1), ("PG", 4, 2, 2), ("AG", 3, 3, 1)]


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
    assert any(2 * f.size > total for f in fams)  # the complement route
    assert any(2 * f.size <= total for f in fams)
    for fam in fams:
        assert cc._pair_profile(fam).tolist() == oracle_profile(fam), fam


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
                                   (3, 3, 1), (3, 4, 1)])
def test_drudge_mask_route_matches_isin_route(n, q, k):
    """Answers and errors of every (p, tau) draw, on CL and corrupted
    families; a point off a too-small tau is PointNotInSubspace first."""
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
            seen.add(want if isinstance(want, type) else bool(want))
    assert {True, False, PointNotInSubspace, GuardViolated} <= seen
    point = geom.subspaces(0)[0]
    outside = int(np.setdiff1d(np.arange(geom.num_points),
                               geom.points_of(point))[0])
    with pytest.raises(PointNotInSubspace):
        cc.check_drudge_identity(fams[1], outside, point)


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
    lambda: cc.construct_trivial(geometry("PG", 4, 2), 4, "point_pencil")],
    ids=["empty", "one-member", "gf4", "ag-gf4", "complement", "k=n"])
def test_family_json_is_indented_dumps(make, tmp_path):
    """family_json and save_family write json.dumps(indent=1) byte for
    byte."""
    fam = make()
    want = json.dumps(cc.family_to_dict(fam), indent=1) + "\n"
    assert cc.family_json(fam) == want
    path = tmp_path / "fam.json"
    cc.save_family(fam, str(path))
    assert path.read_text() == want
    assert cc.load_family(str(path)) == fam
