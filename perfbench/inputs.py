"""Workload inputs and the closed-form expectations they are checked against.

Pure Python, no clgeom import: the inputs come from the seed alone, and
the expected counts and parameters are computed here independently of the
library.  Geometries are (space, n, q, k) tuples.
"""

from __future__ import annotations

import random
from fractions import Fraction

VARIANTS = ("trivial", "complement", "swap")

# decide-cold: CL decision ladder, one fresh empty cache per rung, as
# (geometry, family kind, variant).  GF(4) (a prime power with h > 1) and an
# AG rung stay in any trimmed ladder.  Kind and variant are fixed per rung,
# so that every seed does the same work: complements carry thousands of
# members through construct and load_family, and a seeded choice moved the
# median rung time by 30% between seeds.  Each variant appears twice.
LADDER = ((("PG", 3, 2, 1), "point-pencil", "trivial"),
          (("AG", 4, 3, 1), "point-pencil", "swap"),
          (("PG", 5, 2, 2), "hyperplane-class", "complement"),
          (("PG", 4, 3, 1), "pencil-plus-hyperplane", "swap"),
          (("PG", 6, 2, 1), "point-pencil", "complement"),
          (("PG", 4, 4, 1), "hyperplane-class", "trivial"))

VERIFY = (("PG", 4, 3, 1), ("PG", 5, 2, 1), ("PG", 5, 2, 2), ("AG", 4, 3, 1))

# enumerate-cache: sized so that a run holds five or more cold+warm passes;
# with PG(6,3) and PG(7,2) k=2 a run held one pass and spread 0.2-0.36
ENUM = (("PG", 5, 3, 1), ("PG", 6, 2, 2), ("AG", 4, 4, 1))

# sieve-sweep: (space, n, k, q) over the full range, then the seeded window
SIEVE_FULL = (("PG", 3, 1, 7), ("PG", 7, 1, 4), ("PG", 8, 1, 3),
              ("PG", 11, 2, 2), ("AG", 6, 2, 3), ("AG", 6, 1, 2))
SIEVE_WINDOW = ("PG", 8, 1, 7)
WINDOW = 2000
TINY = ("PG", 3, 2, 1)
TINY_WINDOW = 50


def gauss(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    return num // den


def x_max(space: str, n: int, k: int, q: int) -> Fraction:
    if space == "PG":
        return Fraction(q ** (n + 1) - 1, q ** (k + 1) - 1)
    return Fraction(q ** (n - k))


def trivial_x(kind: str, space: str, n: int, k: int, q: int) -> Fraction:
    """Parameter of a trivial family of the given CLI kind."""
    xh = Fraction(q ** (n - k) - 1, q ** (k + 1) - 1)
    return {"point-pencil": Fraction(1), "hyperplane-class": xh,
            "pencil-plus-hyperplane": 1 + xh}[kind]


def trivial_params(space: str, n: int, k: int, q: int) -> set:
    """Parameters of the trivial families and of their complements."""
    base = {Fraction(0), Fraction(1)}
    if space == "PG":
        base |= {trivial_x("hyperplane-class", space, n, k, q),
                 trivial_x("pencil-plus-hyperplane", space, n, k, q)}
    xm = x_max(space, n, k, q)
    return base | {xm - t for t in base}


def kinds(space: str) -> tuple:
    if space == "PG":
        return ("point-pencil", "hyperplane-class", "pencil-plus-hyperplane")
    return ("point-pencil",)


def enum_counts(space: str, n: int, k: int, q: int):
    """(number of k-spaces, points per k-space, k-spaces per point)."""
    if space == "PG":
        return (gauss(n + 1, k + 1, q), gauss(k + 1, 1, q), gauss(n, k, q))
    return q ** (n - k) * gauss(n, k, q), q ** k, gauss(n, k, q)


def random_point(rng: random.Random, n: int, q: int, affine: bool) -> list:
    """A uniform projective point as a normalized coordinate vector; with
    ``affine`` one off the hyperplane X0 = 0."""
    if affine:
        lead = 0
    else:
        lead = rng.choices(range(n + 1),
                           weights=[q ** (n - i) for i in range(n + 1)])[0]
    return [0] * lead + [1] + [rng.randrange(q) for _ in range(n - lead)]


def random_kspace(rng: random.Random, space: str, n: int, k: int,
                  q: int) -> list:
    """A k-space as its reduced row echelon matrix of field codes; for AG
    one not inside the hyperplane at infinity (pivot in column 0)."""
    cols = range(1, n + 1) if space == "AG" else range(n + 1)
    pivots = sorted(rng.sample(cols, k if space == "AG" else k + 1))
    if space == "AG":
        pivots = [0] + pivots
    rows = []
    for i, c in enumerate(pivots):
        row = [0] * (n + 1)
        row[c] = 1
        for j in range(c + 1, n + 1):
            if j not in pivots:
                row[j] = rng.randrange(q)
        rows.append(row)
    return rows


def ladder(seed: int, tiny: bool) -> list:
    """decide-cold rungs; the seed picks the anchor and the swapped member."""
    rng = random.Random(f"{seed}/ladder")
    rungs = []
    for (space, n, q, k), kind, variant in (
            ((TINY, "point-pencil", "swap"),) if tiny else LADDER):
        affine = space == "AG" or kind == "pencil-plus-hyperplane"
        rungs.append({
            "space": space, "n": n, "q": q, "k": k, "kind": kind,
            "point": random_point(rng, n, q, affine),
            "variant": variant,
            "swap_seed": rng.randrange(2 ** 32),
        })
    return rungs


def verify_geometries(tiny: bool) -> tuple:
    return (TINY,) if tiny else VERIFY


def enum_geometries(tiny: bool) -> tuple:
    return (TINY,) if tiny else ENUM


def sieve_configs(seed: int, tiny: bool) -> list:
    """(space, n, k, q, (lo, hi)) for every sieve of one sweep."""
    space, n, k, q = SIEVE_WINDOW
    top = int(x_max(space, n, k, q))
    size = TINY_WINDOW if tiny else WINDOW
    lo = random.Random(f"{seed}/sieve").randrange(top - size + 2)
    window = [(space, n, k, q, (lo, lo + size - 1))]
    if tiny:
        return window
    full = [(s, nn, kk, qq, (0, int(x_max(s, nn, kk, qq))))
            for s, nn, kk, qq in SIEVE_FULL]
    return full + window


def span_points(mat, p: int) -> set:
    """Normalized points of the row space of ``mat`` over the prime field
    GF(p), by direct enumeration of coefficient vectors."""
    r = len(mat)
    ncols = len(mat[0])
    out = set()
    coeffs = [[]]
    for _ in range(r):
        coeffs = [c + [a] for c in coeffs for a in range(p)]
    for c in coeffs:
        v = [sum(ci * row[j] for ci, row in zip(c, mat)) % p
             for j in range(ncols)]
        lead = next((x for x in v if x), 0)
        if lead:
            inv = pow(lead, p - 2, p)
            out.add(tuple(x * inv % p for x in v))
    return out
