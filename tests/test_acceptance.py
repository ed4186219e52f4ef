"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with -s to see the lines; every check is also a hard assertion.
"""

import random
import time
from fractions import Fraction

from clgeom import clcore as cc
from clgeom.cli import main as cli_main
from clgeom.geometry import (
    field_reduction_spread,
    geometry,
    make_subspace,
    point_in_subspace,
)
from clgeom.sieve import sieve, x_max_param
from oracles import rational_is_cl


class _Gate:
    def __init__(self, number, budget):
        self.number = number
        self.budget = budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None and dt < self.budget else "FAIL"
        print(f"\nACCEPTANCE {self.number}: {status} ({dt:.2f}s, "
              f"budget {self.budget}s)")
        if exc_type is None:
            assert dt < self.budget, f"criterion {self.number} over budget"
        return False


def _off_hyperplane_point(geom):
    return next(i for i, p in enumerate(geom.points) if p[0] != 0)


def trivial_set(geom, k):
    out = [(cc.construct_trivial(geom, k, "empty"), Fraction(0)),
           (cc.construct_trivial(geom, k, "point_pencil"), Fraction(1))]
    if geom.kind == "PG":
        xh = Fraction(geom.q ** (geom.n - k) - 1, geom.q ** (k + 1) - 1)
        out.append((cc.construct_trivial(geom, k, "hyperplane_class"), xh))
        out.append((cc.construct_trivial(geom, k, "pencil_plus_hyperplane",
                                         point=_off_hyperplane_point(geom)),
                    1 + xh))
    xmax = x_max_param(geom.kind, geom.n, k, geom.q)
    out += [(cc.complement(f), xmax - x) for f, x in list(out)]
    return out


GEOM_SET = [("PG", 3, 2, 1), ("PG", 3, 3, 1), ("PG", 4, 2, 1),
            ("PG", 4, 2, 2), ("PG", 5, 2, 1), ("PG", 5, 2, 2),
            ("AG", 3, 2, 1), ("AG", 3, 3, 1)]


def test_acceptance_1_bounds_example(capsys):
    with _Gate(1, 1.0):
        rc = cli_main(["bounds", "-n", "8", "-k", "1", "-q", "7"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "840700.125" in out
        improved = next(l for l in out.splitlines()
                        if l.startswith("improved-lift"))
        assert abs(float(improved.split()[1]) - 5476.998) < 0.5
        avg = next(l for l in out.splitlines()
                   if l.startswith("hyperplane-average"))
        assert abs(float(avg.split()[1]) - 5482.9585) < 0.5


def test_acceptance_2_cl_decision():
    with _Gate(2, 60.0):
        for kind, n, q, k in GEOM_SET:
            geom = geometry(kind, n, q)
            for fam, x in trivial_set(geom, k):
                rep = cc.is_cl(fam)
                assert rep.is_cl and rep.x == x == fam.x, (kind, n, q, k, x)
        # 100 seeded random pencil-sized families of PG(3,2), none CL
        geom = geometry("PG", 3, 2)
        pencils = [frozenset(cc.construct_trivial(geom, 1, "point_pencil",
                                                  point=i).members)
                   for i in range(len(geom.points))]
        rng = random.Random(20240811)
        total = geom.subspace_count(1)
        checked = 0
        while checked < 100:
            members = frozenset(rng.sample(range(total), 7))
            if members in pencils:
                continue
            assert not cc.is_cl(cc.KFamily(geom, 1, members)).is_cl
            checked += 1


def _corrupted(fam):
    total = fam.geom.subspace_count(fam.k)
    out_idx = next(i for i in range(total) if i not in fam.members)
    return cc.KFamily(fam.geom, fam.k,
                      (fam.members - {min(fam.members)}) | {out_idx})


def test_acceptance_3_identities():
    with _Gate(3, 120.0):
        rng = random.Random(11)
        # disjointness counts and full meet profiles
        for kind, n, q, k in [("PG", 3, 2, 1), ("PG", 3, 3, 1),
                              ("PG", 4, 2, 1)]:
            geom = geometry(kind, n, q)
            fams = trivial_set(geom, k)
            for fam, _ in fams:
                assert cc.check_disjoint_count(fam).ok
                for i in range(1, k + 2):
                    assert cc.check_meet_profile(fam, i).ok
            bad = _corrupted(fams[1][0])
            assert not cc.check_disjoint_count(bad).ok
            assert any(not cc.check_meet_profile(bad, i).ok
                       for i in range(1, k + 2))
        # pencil/subspace counting identity, 50 seeded (p, tau) pairs
        for kind, n, q, k in [("PG", 3, 2, 1), ("PG", 4, 2, 1)]:
            geom = geometry(kind, n, q)
            dims = list(range(k + 1, n))
            pairs = []
            for _ in range(50):
                taus = geom.subspaces(rng.choice(dims))
                tau = taus[rng.randrange(len(taus))]
                pts = [j for j, p in enumerate(geom.points)
                       if point_in_subspace(geom.field, p, tau)]
                pairs.append((rng.choice(pts), tau))
            for fam, _ in trivial_set(geom, k):
                for p, tau in pairs:
                    assert cc.check_drudge_identity(fam, p, tau)
            bad = _corrupted(cc.construct_trivial(geom, k, "point_pencil"))
            assert any(not cc.check_drudge_identity(bad, p, tau)
                       for p, tau in pairs)
        # averaging identity over t-space pencils: all K, PG(4,2), k=1, t=3
        geom = geometry("PG", 4, 2)
        for fam, _ in trivial_set(geom, 1):
            for K in range(geom.subspace_count(1)):
                assert cc.check_aid_identity(fam, K, 3)
        bad = _corrupted(cc.construct_trivial(geom, 1, "point_pencil"))
        assert any(not cc.check_aid_identity(bad, K, 3)
                   for K in range(geom.subspace_count(1)))
        # affine line identities
        for q in (2, 3):
            ag = geometry("AG", 3, q)
            for fam, _ in trivial_set(ag, 1):
                assert cc.check_affine_line(fam).ok
            bad = _corrupted(cc.construct_trivial(ag, 1, "point_pencil"))
            assert not cc.check_affine_line(bad).ok


def _all_line_spreads_pg32():
    """Exhaustive backtracking over partitions of PG(3,2) into lines."""
    geom = geometry("PG", 3, 2)
    masks = geom.point_masks(1)
    full = (1 << geom.num_points) - 1
    spreads = []

    def extend(cover, chosen):
        if cover == full:
            spreads.append(frozenset(chosen))
            return
        # branch on the lowest uncovered point to avoid permutations
        rest = ~cover & full
        abit = rest & -rest
        for j, m in enumerate(masks):
            if m & abit and not m & cover:
                extend(cover | m, chosen + [j])

    extend(0, [])
    return spreads


def test_acceptance_4_spreads():
    with _Gate(4, 60.0):
        # field-reduction spreads are valid partitions
        for n, k, q in [(3, 1, 2), (3, 1, 3), (5, 1, 2)]:
            geom = geometry("PG", n, q)
            S = field_reduction_spread(n, k, q)
            cover = set()
            for s in S:
                pts = set(geom.points_of(geom.subspaces(k)[s]).tolist())
                assert not cover & pts
                cover |= pts
            assert cover == set(range(geom.num_points))
            pencil = cc.construct_trivial(geom, k, "point_pencil")
            assert cc.check_spread(pencil, S)
        # exhaustive oracle: PG(3,2) has exactly 56 line spreads
        spreads = _all_line_spreads_pg32()
        assert len(spreads) == 56
        assert len(set(spreads)) == 56
        geom = geometry("PG", 3, 2)
        for fam, x in trivial_set(geom, 1):
            for spread in spreads:
                assert len(fam.members & spread) == x


def test_acceptance_5_projection_restriction():
    with _Gate(5, 60.0):
        geom = geometry("PG", 5, 2)
        pen = cc.construct_trivial(geom, 2, "point_pencil", point=1)
        pi = make_subspace([geom.points[0]], geom.field)
        img = cc.project(pen, pi)
        assert img.geom.n == 4 and img.k == 1 and img.x == 1
        rep = rational_is_cl(img, "rank")
        assert rep.is_cl and rep.certificate == "rank-augmentation"
        # restrictions of every CL family to 20 seeded subspaces stay CL
        rng = random.Random(77)
        for kind, n, q, k in [("PG", 4, 2, 1), ("PG", 3, 3, 1),
                              ("PG", 5, 2, 2)]:
            g = geometry(kind, n, q)
            dims = list(range(k + 1, n))
            picks = []
            for _ in range(20):
                d = rng.choice(dims)
                taus = g.subspaces(d)
                picks.append(taus[rng.randrange(len(taus))])
            for fam, _ in trivial_set(g, k):
                for tau in picks:
                    assert cc.is_cl(cc.restrict(fam, tau)).is_cl


def test_acceptance_6_sieve_table():
    with _Gate(6, 5.0):
        r33 = sieve("PG", 3, 1, 3)
        assert r33.entry(3).status == "EXCLUDED"
        assert "gm-modular" in r33.entry(3).rules
        assert r33.entry(5).status == "OPEN"
        # independent residue scan behind the two modular claims
        assert not any((3 + m * (m - 3)) % 4 == 0 for m in range(4))
        assert any((10 + m * (m - 5)) % 4 == 0 for m in range(4))
        rag = sieve("AG", 3, 1, 2)
        assert rag.entry(2).status == "EXCLUDED"
        assert "affine-modular" in rag.entry(2).rules
        for x in (0, 1, 3, 4):
            assert rag.entry(x).status == "TRIVIAL"
        assert 2 * 1 % 6 != 0  # independent: x(x-1) for x=2 mod 2(q+1)
        # line-class congruence x(x-1)+2m(m-x)=0 mod (q+1): m=1 solves it
        # at x=2 for every q, so x=2 in PG(7,2) is excluded by the
        # lower-bound rules alone
        r72 = sieve("PG", 7, 1, 2, x_range=(0, 30))
        assert r72.entry(2).status == "EXCLUDED"
        assert "lines-modular" not in r72.entry(2).rules
        # where it can fail: x=3, q=3 gives 6+2m(m-3) = 2 mod 4 for all m
        assert not any((6 + 2 * m * (m - 3)) % 4 == 0 for m in range(4))
        r73 = sieve("PG", 7, 1, 3, x_range=(0, 30))
        assert "lines-modular" in r73.entry(3).rules
        # guard x < (q^6-1)/(q^2-1) = 91; every complement 820-x here is
        # at least 790, so the rule cannot fire on it
        for e in r73.entries:
            assert "lines-modular[complement]" not in e.rules, e


def test_acceptance_7_sieve_soundness():
    with _Gate(7, 60.0):
        for kind, n, q, k in GEOM_SET:
            geom = geometry(kind, n, q)
            fams = trivial_set(geom, k)
            realized = {x for _, x in fams}
            p_off = _off_hyperplane_point(geom)
            if geom.kind == "PG":
                hp = cc.construct_trivial(geom, k, "hyperplane_class")
                pen = cc.construct_trivial(geom, k, "point_pencil",
                                           point=p_off)
                realized.add(cc.union_disjoint(pen, hp).x)
            report = sieve(kind, n, k, q)
            for x in realized:
                if x.denominator == 1:
                    assert report.entry(int(x)).status != "EXCLUDED", \
                        (kind, n, q, k, x)
        # projected family parameter is not excluded either
        g5 = geometry("PG", 5, 2)
        pen = cc.construct_trivial(g5, 2, "point_pencil", point=1)
        img = cc.project(pen, make_subspace([g5.points[0]], g5.field))
        rep = sieve("PG", 4, 1, 2)
        assert rep.entry(int(img.x)).status != "EXCLUDED"
