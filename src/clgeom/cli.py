"""Command line front end.

Subcommands compose the library modules 1:1: bounds, sieve, construct,
verify, project, enumerate.  Exit codes: 0 success / all checks pass,
1 a verification failed, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from functools import partial

from . import clcore
from .sieve import (
    bound_rules,
    check_config,
    classification_threshold,
    exact_floor,
    sieve as run_sieve,
    step_factor,
    x_max_param,
)
from .errors import ClgeomError, GuardViolated
from .ff import factor_prime_power
from .geometry import _CHUNK, field_reduction_spread, geometry, make_subspace

DEFAULT_SEED = 2024


def _parse_q(value: str) -> int:
    try:
        q = int(value)
        factor_prime_power(q)
    except GuardViolated as exc:  # too large to decide
        raise argparse.ArgumentTypeError(str(exc)) from exc
    except (ValueError, ClgeomError) as exc:
        raise argparse.ArgumentTypeError(f"{value!r} is not a prime power") \
            from exc
    return q


def _fraction_str(x: Fraction) -> str:
    """Exact decimal when the denominator is 2^a 5^b, else num/den."""
    den = x.denominator
    d = den
    for p in (2, 5):
        while d % p == 0:
            d //= p
    if d == 1:
        # smallest power of ten divisible by den gives the exact decimal
        e = 0
        t = 1
        while t % den:
            t *= 10
            e += 1
        digits = x.numerator * (t // den)
        s = str(digits).rjust(e + 1, "0")
        return s[:-e] + "." + s[-e:] if e else s
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_bounds(args) -> int:
    n, k, q = args.n, args.k, args.q
    check_config("PG", n, k, q)
    xm = x_max_param("PG", n, k, q)
    print(f"X_max = {xm.numerator}/{xm.denominator} = {_fraction_str(xm)}")
    rows = [("c-threshold", partial(classification_threshold, n, k, q)),
            ("step-factor", partial(step_factor, k, q))]
    rows += [(rid, partial(bound, n, k, q)) for _, rid, bound in bound_rules()]
    for name, fn in rows:
        try:
            v = fn()
        except GuardViolated as exc:
            print(f"{name:20s} guard not met ({exc})")
            continue
        micros = exact_floor(v, 10 ** 6)
        sign = "-" if micros < 0 else ""
        whole, frac = divmod(abs(micros), 10 ** 6)
        tag = (f"exact {v.numerator}/{v.denominator}"
               if isinstance(v, Fraction) else "rounded down")
        print(f"{name:20s} {f'{sign}{whole}.{frac:06d}':>18s}  ({tag})")
    print("every value is rounded down to 6 decimals, toward the "
          "non-excluding side")
    return 0


def cmd_sieve(args) -> int:
    report = run_sieve(args.space, args.n, args.k, args.q,
                       x_range=(args.x_min, args.x_max))
    if args.json:
        with open(args.json, "w") as fh:
            fh.writelines(report.iter_json())
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.writelines(report.iter_csv())
    if not args.json and not args.csv:
        sys.stdout.writelines(report.iter_csv())
    for note in report.notes:
        print(f"note: {note}", file=sys.stderr)
    return 0


_KINDS = {
    "empty": "empty",
    "point-pencil": "point_pencil",
    "hyperplane-class": "hyperplane_class",
    "pencil-plus-hyperplane": "pencil_plus_hyperplane",
}


def cmd_construct(args) -> int:
    geom = geometry(args.space, args.n, args.q)
    point = None
    if args.point:
        point = tuple(int(c) for c in args.point.split(","))
    fam = clcore.construct_trivial(geom, args.k, _KINDS[args.kind],
                                   point=point,
                                   complement_of=args.complement)
    text = clcore.family_json(fam)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output}: {fam.size} members, x = {fam.x}")
    else:
        sys.stdout.write(text)
    return 0


ALL_CHECKS = ("cl", "disjoint", "profile", "spread", "drudge", "aid",
              "affine-line")


def _default_checks(fam) -> list:
    checks = ["cl"]
    if fam.geom.kind == "PG":
        checks += ["disjoint", "profile"]
        if fam.geom.n >= fam.k + 2:
            checks.append("drudge")
        if (fam.geom.n + 1) % (fam.k + 1) == 0:
            checks.append("spread")
        if 2 * fam.k + 1 <= fam.geom.n - 1 and fam.geom.n >= 2 * fam.k + 2:
            checks.append("aid")
    elif fam.k == 1:
        checks.append("affine-line")
    return checks


def _draw_flag(geom, i: int, rng: random.Random):
    """A uniform point p (an index into geom.subspaces(0)) and a uniform
    i-space tau through it, without enumerating the i-spaces.

    tau is the span of p and i uniform points, drawn again until it has
    dimension i.  The stabilizer of p is transitive on the i-spaces through
    p and keeps this draw, so tau is uniform among them; every point lies
    on equally many i-spaces, so (p, tau) is a uniform incident pair."""
    points = geom.subspaces(0).codes[:, 0]
    p = rng.randrange(len(points))
    while True:
        rows = [points[j].tolist() for j in
                [p] + [rng.randrange(len(points)) for _ in range(i)]]
        tau = make_subspace(rows, geom.field)
        if tau.k == i:
            return p, tau


def _run_check(fam, name: str, rng: random.Random):
    """Returns (ok, violations)."""
    geom, k = fam.geom, fam.k
    if name == "cl":
        rep = clcore.is_cl(fam)
        return rep.is_cl, [] if rep.is_cl else ["characteristic vector "
                                                "outside incidence row space"]
    if name == "disjoint":
        rep = clcore.check_disjoint_count(fam)
        return rep.ok, [f"K={K}: expected {e}, got {a}"
                        for K, e, a in rep.violations[:10]]
    if name == "profile":
        bad = []
        for i in range(1, k + 2):
            rep = clcore.check_meet_profile(fam, i)
            bad += [f"i={i} K={K}: expected {e}, got {a}"
                    for K, e, a in rep.violations[:5]]
        return not bad, bad
    if name == "spread":
        S = field_reduction_spread(geom.n, k, geom.q)
        # in AG, the elements not inside the hyperplane at infinity
        ok = clcore.check_spread(fam, geom.from_closure(k, S))
        return ok, [] if ok else [f"spread intersection != x = {fam.x}"]
    if name == "drudge":
        dims = range(k + 1, geom.n)
        if not dims:
            raise GuardViolated(
                f"drudge needs n >= k + 2, got n = {geom.n}, k = {k}")
        bad = []
        for _ in range(20):
            p, tau = _draw_flag(geom, rng.choice(dims), rng)
            if not clcore.check_drudge_identity(fam, p, tau):
                bad.append(f"p={p}, tau={tau.mat}")
        return not bad, bad
    if name == "aid":
        t = 2 * k + 1
        bad = []
        count = geom.subspace_count(k)
        picks = rng.sample(range(count), min(10, count))
        for K in picks:
            if not clcore.check_aid_identity(fam, K, t):
                bad.append(f"K={K}, t={t}")
        return not bad, bad
    if name == "affine-line":
        rep = clcore.check_affine_line(fam)
        return rep.ok, [str(v) for v in rep.violations[:10]]
    raise GuardViolated(f"unknown check {name!r}")


def cmd_verify(args) -> int:
    fam = clcore.load_family(args.family)
    if args.checks is not None:
        names = [c.strip() for c in args.checks.split(",") if c.strip()]
        if not names:
            raise GuardViolated(
                f"--checks names no check; choose from {', '.join(ALL_CHECKS)}")
        for c in names:
            if c not in ALL_CHECKS:
                raise GuardViolated(
                    f"unknown check {c!r}; choose from {', '.join(ALL_CHECKS)}")
    else:
        names = _default_checks(fam)
    rng = random.Random(args.seed)
    results = []
    failed = False
    for name in names:
        ok, violations = _run_check(fam, name, rng)
        results.append({"check": name, "ok": ok, "violations": violations})
        line = f"{name:12s} {'pass' if ok else 'FAIL'}"
        print(line)
        if not ok:
            failed = True
            for v in violations:
                print(f"  {v}", file=sys.stderr)
    if args.json:
        payload = {
            "family": {"space": fam.geom.kind, "n": fam.geom.n,
                       "k": fam.k, "q": fam.geom.q,
                       "size": fam.size, "x": str(fam.x)},
            "results": results,
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
    return 1 if failed else 0


def cmd_project(args) -> int:
    fam = clcore.load_family(args.family)
    if fam.geom.kind != "PG":
        raise GuardViolated("projection is defined on projective families")
    pi = clcore.subspace_from_codes(json.loads(args.pi), fam.geom.field,
                                    fam.geom.n + 1, "--pi")
    image = clcore.project(fam, pi)
    text = clcore.family_json(image)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output}: {image.size} members, x = {image.x}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_enumerate(args) -> int:
    geom = geometry(args.space, args.n, args.q)
    subs = geom.subspaces(args.k)
    if args.count_only:
        print(len(subs))
        return 0
    # json.dumps(mat) of every matrix, one per line, through one
    # %-template of its (k+1)(n+1) codes
    _, r, ncols = subs.codes.shape
    row = "[" + ", ".join(["%d"] * ncols) + "]"
    line = "[" + ", ".join([row] * r) + "]\n"
    for lo in range(0, len(subs), _CHUNK):
        chunk = subs.codes[lo:lo + _CHUNK].reshape(-1, r * ncols).tolist()
        sys.stdout.writelines(line % tuple(m) for m in chunk)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="clgeom",
        description="Cameron-Liebler k-set toolkit for PG(n,q) / AG(n,q)")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_geom(p, space=True):
        if space:
            p.add_argument("--space", choices=("pg", "ag"), default="pg",
                           type=str.lower)
        p.add_argument("-n", type=int, required=True)
        p.add_argument("-k", type=int, required=True)
        p.add_argument("-q", type=_parse_q, required=True,
                       metavar="Q", help="prime power field order")

    p = sub.add_parser("bounds", help="print every lower bound for PG(n,q)")
    add_geom(p, space=False)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("sieve", help="classify integer parameters")
    add_geom(p)
    p.add_argument("--x-min", type=int)
    p.add_argument("--x-max", type=int)
    p.add_argument("--json", metavar="PATH")
    p.add_argument("--csv", metavar="PATH")
    p.set_defaults(fn=cmd_sieve)

    p = sub.add_parser("construct", help="write a trivial family as JSON")
    add_geom(p)
    p.add_argument("--kind", choices=sorted(_KINDS), required=True)
    p.add_argument("--point", help="anchor point coordinates, comma separated")
    p.add_argument("--complement", action="store_true")
    p.add_argument("-o", "--output", metavar="PATH")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("verify", help="run identity checks on a family file")
    p.add_argument("family", metavar="FAMILY.json")
    p.add_argument("--checks", help=f"comma list from {','.join(ALL_CHECKS)}")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("project", help="project a family through a subspace")
    p.add_argument("family", metavar="FAMILY.json")
    p.add_argument("--pi", required=True,
                   help="RREF matrix of the centre as a JSON list of rows")
    p.add_argument("-o", "--output", metavar="PATH")
    p.set_defaults(fn=cmd_project)

    p = sub.add_parser("enumerate", help="list all k-spaces")
    add_geom(p)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(fn=cmd_enumerate)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if hasattr(args, "space"):
        args.space = args.space.upper()
    try:
        return args.fn(args)
    except ClgeomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
