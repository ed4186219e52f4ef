"""Child-process side of the benchmark: everything that imports clgeom.

Run only by run.py, one process at a time:

    child.py setup   --workload W ...   set up, report the ready time, exit
    child.py work    --workload W ...   set up, then run passes of W
    child.py enum    ...                one enumerate-cache pass
    child.py cli     ... -- ARGV        clgeom.cli.main(ARGV), probed, traced

Every subcommand writes one JSON object to ``--out``.  Times are
``time.perf_counter`` readings, which on Linux share one monotonic clock
across processes, so run.py can subtract its own launch time from them.
Each timed operation is bracketed by speed probes run in the same process
(see speed.py).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import random
import sys
import traceback
from contextlib import nullcontext
from statistics import median
from time import perf_counter

import inputs
import speed
from tracer import Tracer, install_clgeom

TRACER: Tracer | None = None


def _span(group):
    """A benchmark-side span when tracing, a no-op otherwise."""
    return nullcontext() if TRACER is None else TRACER.span(group)


def _report_error(what: str) -> None:
    print(f"perfbench: {what} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


# ---------------------------------------------------------------------------
# verify-batch
# ---------------------------------------------------------------------------

class VerifyBatch:
    """Seeded families checked by is_cl, the default battery and transforms.

    A pass holds 36 families: for each geometry and variant, three families
    that cycle through the kinds (pencil, hyperplane class, their union on
    PG; pencils on AG).  Every pass, whatever the seed, has the same mix of
    geometries, kinds, and CL and non-CL families; the seed picks anchors,
    swapped members and the checkers' samples."""

    def __init__(self, seed: int, tiny: bool, plant: bool):
        self.cc = importlib.import_module("clgeom.clcore")
        self.gm = geometry = importlib.import_module("clgeom.geometry")
        self.seed = seed
        self.plant = plant
        self.slots = [(g, v, j) for g in inputs.verify_geometries(tiny)
                      for v in inputs.VARIANTS for j in range(3)]
        self.geoms = {g: geometry.geometry(g[0], g[1], g[2])
                      for g in inputs.verify_geometries(tiny)}
        # anchor points for each geometry: all, and those off X0 = 0
        self.anchors = {
            g: (range(len(geom.points)),
                [i for i, p in enumerate(geom.points) if p[0] != 0])
            for g, geom in self.geoms.items()}
        # declared warm-up: one untimed CL family per geometry (a hyperplane
        # class on PG) builds every enumeration, incidence matrix, mask list
        # and rational echelon that the passes use, sub-geometries included
        for i, (_, variant, j) in enumerate(self.slots):
            if variant == "trivial" and j == 1:
                self.op(-1, i)

    def op(self, rnd: int, i: int) -> bool:
        """Construct, decide, check and transform one family; True if right."""
        cc = self.cc
        g, variant, j = self.slots[i]
        space, n, q, k = g
        geom = self.geoms[g]
        rng = random.Random(f"{self.seed}/verify/{rnd}/{i}")
        names = inputs.kinds(space)
        kind = names[j % len(names)].replace("-", "_")
        off_x0 = kind == "pencil_plus_hyperplane" or space == "AG"
        point = rng.choice(self.anchors[g][off_x0])

        F = cc.construct_trivial(geom, k, kind, point=point,
                                 complement_of=variant == "complement")
        if variant == "swap":
            members = set(F.members)
            members.discard(rng.choice(sorted(members)))
            total = geom.subspace_count(k)
            while True:
                new = rng.randrange(total)
                if new not in F.members:
                    break
            F = cc.KFamily(geom, k, members | {new})
        verdict = cc.is_cl(F).is_cl
        battery = self.battery(F, rng)
        with _span("clcore.transform"):
            if space == "PG":
                hyperplanes = geom.subspaces(n - 1)
                R = cc.restrict(F, hyperplanes[rng.randrange(len(hyperplanes))])
                pi = self.gm.make_subspace(
                    [geom.points[rng.randrange(len(geom.points))]], geom.field)
                P = cc.project(F, pi)
                images = (R, P)
            else:
                back = cc.pg_to_ag(cc.ag_to_pg(F))
                images = ()

        expect_cl = variant != "swap"
        if self.plant and rnd == 0 and i == 0:
            expect_cl = not expect_cl
        ok = verdict == expect_cl
        if variant != "swap":
            x = inputs.trivial_x(kind.replace("_", "-"), space, n, k, q)
            if variant == "complement":
                x = inputs.x_max(space, n, k, q) - x
            ok = ok and F.x == x and all(battery)
            ok = ok and all(cc.is_cl(img).is_cl for img in images)
        if space == "AG":
            ok = ok and back == F
        return ok

    def battery(self, F, rng) -> list:
        """The CLI's default checks after ``cl``, through the public API."""
        cc, gm = self.cc, self.gm
        geom, k = F.geom, F.k
        n, q = geom.n, geom.q
        out = []
        if TRACER is not None:
            TRACER.counts["clcore.pair_ops"] += (
                geom.subspace_count(k) * F.size)
        if geom.kind == "AG":
            out.append(cc.check_affine_line(F).ok)
            return out
        out.append(cc.check_disjoint_count(F).ok)
        out += [cc.check_meet_profile(F, i).ok for i in range(1, k + 2)]
        dims = list(range(k + 1, n))
        for _ in range(20):
            taus = geom.subspaces(rng.choice(dims))
            tau = taus[rng.randrange(len(taus))]
            pts = [j for j, p in enumerate(geom.points)
                   if gm.point_in_subspace(geom.field, p, tau)]
            out.append(cc.check_drudge_identity(F, rng.choice(pts), tau))
        if (n + 1) % (k + 1) == 0:
            out.append(cc.check_spread(F, gm.field_reduction_spread(n, k, q)))
        if 2 * k + 1 <= n - 1 and n >= 2 * k + 2:
            count = geom.subspace_count(k)
            for K in rng.sample(range(count), min(10, count)):
                out.append(cc.check_aid_identity(F, K, 2 * k + 1))
        return out

    def run_pass(self, rnd: int):
        """One pass; returns (op times, failures, speed probes)."""
        times, failed, probes = [], 0, [speed.probe()]
        for i in range(len(self.slots)):
            if TRACER is not None:
                TRACER.op_id = rnd * len(self.slots) + i
            t0 = perf_counter()
            try:
                with _span("bench.op"):
                    ok = self.op(rnd, i)
            except Exception:
                _report_error(f"verify-batch family {rnd}/{i}")
                ok = False
            times.append(perf_counter() - t0)
            failed += not ok
            probes.append(speed.probe())
        return times, failed, probes


# ---------------------------------------------------------------------------
# sieve-sweep
# ---------------------------------------------------------------------------

class SieveSweep:
    """Full-range sieves plus a seeded window of the large PG(8,7) range."""

    def __init__(self, seed: int, tiny: bool, plant: bool):
        self.sv = sieve = importlib.import_module("clgeom.sieve")
        self.plant = plant
        self.configs = inputs.sieve_configs(seed, tiny)
        rng = random.Random(f"{seed}/sieve-dps")
        self.samples = [rng.sample(range(lo, hi + 1), min(3, hi - lo + 1))
                        for _, _, _, _, (lo, hi) in self.configs]
        # declared warm-up: mpmath's first evaluation builds its constants
        sieve.sieve("PG", 7, 1, 2, x_range=(0, 5))

    def run_pass(self, rnd: int):
        times, failed, probes = [], 0, [speed.probe()]
        for i, (space, n, k, q, (lo, hi)) in enumerate(self.configs):
            if TRACER is not None:
                TRACER.op_id = rnd * len(self.configs) + i
            t0 = perf_counter()
            try:
                with _span("bench.op"):
                    report = self.sv.sieve(space, n, k, q, x_range=(lo, hi))
                    text = report.to_json()
                t1 = perf_counter()
                ok = self.check(i, report, text)
            except Exception:
                _report_error(f"sieve {space}({n},{q}) k={k}")
                t1 = perf_counter()
                ok = False
            times.append(t1 - t0)
            failed += not ok
            probes.append(speed.probe())
        return times, failed, probes

    def check(self, i: int, report, text: str) -> bool:
        space, n, k, q, (lo, hi) = self.configs[i]
        if [e.x for e in report.entries] != list(range(lo, hi + 1)):
            return False
        if len(json.loads(text)["entries"]) != hi - lo + 1:
            return False
        trivial = {int(t) for t in inputs.trivial_params(space, n, k, q)
                   if t.denominator == 1 and lo <= t <= hi}
        if self.plant and i == 0:
            trivial.add(next(x for x in range(lo, hi + 1) if x not in trivial))
        if {e.x for e in report.entries if e.status == "TRIVIAL"} != trivial:
            return False
        for x in self.samples[i]:
            fine = self.sv.sieve(space, n, k, q, x_range=(x, x), dps=120)
            if fine.entries[0].status != report.entries[x - lo].status:
                return False
        return True


WORKLOADS = {"verify-batch": VerifyBatch, "sieve-sweep": SieveSweep}


def cmd_work(args) -> dict:
    """Set up, then run passes until the time budget is spent.

    A pass starts only while it is expected to end within ``seconds`` and
    always while fewer than ``min_ops`` operations have been timed."""
    global TRACER
    if args.trace:
        TRACER = Tracer()
        install_clgeom(TRACER)
    load = WORKLOADS[args.workload](args.seed, args.tiny, args.plant)
    ready = perf_counter()
    ops, passes, raw, walls, failed, probes = [], [], [], [], 0, []
    rnd = 0
    while True:
        t0 = perf_counter()
        times, bad, pr = load.run_pass(rnd)
        walls.append(perf_counter() - t0)
        ops += speed.scaled(times, pr)
        passes.append(sum(speed.scaled(times, pr)))
        raw.append(sum(times))
        probes += pr
        failed += bad
        rnd += 1
        if rnd >= args.max_passes:
            break
        elapsed = perf_counter() - ready
        if len(ops) >= args.min_ops and \
                elapsed + median(walls) > args.seconds:
            break
    out = {"ready": ready, "ops": ops, "passes": passes, "raw_passes": raw,
           "probes": probes, "attempted": len(ops), "failed": failed}
    if TRACER is not None:
        TRACER.uninstall()
        out["trace"] = TRACER.summary()
    return out


def cmd_setup(args) -> dict:
    if args.workload in WORKLOADS:
        WORKLOADS[args.workload](args.seed, args.tiny, False)
    elif args.workload == "decide-cold":
        import clgeom.cli  # noqa: F401  what every rung process imports
        inputs.ladder(args.seed, args.tiny)
    else:
        import clgeom.geometry  # noqa: F401
        inputs.enum_geometries(args.tiny)
    ready = perf_counter()
    return {"ready": ready, "probes": [speed.probe()]}


# ---------------------------------------------------------------------------
# enumerate-cache
# ---------------------------------------------------------------------------

def cmd_enum(args) -> dict:
    """Enumerate, build incidence and masks for each geometry, then check.

    Whether the pass is cold or warm depends only on the cache directory
    run.py hands over."""
    global TRACER
    if args.trace:
        TRACER = Tracer()
        install_clgeom(TRACER)
    geometry = importlib.import_module("clgeom.geometry").geometry

    speed.kernel()  # warm-up, so that the first probe does not run cold
    built, ops, probes = [], [], [speed.probe()]
    for i, (space, n, q, k) in enumerate(inputs.enum_geometries(args.tiny)):
        if TRACER is not None:
            TRACER.op_id = i
        t0 = perf_counter()
        with _span("bench.op"):
            g = geometry(space, n, q)
            subs = g.subspaces(k)
            inc = g.incidence(k)
            masks = g.point_masks(k)
        ops.append(perf_counter() - t0)
        probes.append(speed.probe())
        built.append((g, k, subs, inc, masks))
    if TRACER is not None:
        TRACER.uninstall()

    rng = random.Random(f"{args.seed}/enum")
    checks, digests = [], []
    for i, (g, k, subs, inc, masks) in enumerate(built):
        try:
            ok = check_enumeration(g, k, subs, inc, masks, rng,
                                   plant=args.plant and i == 0)
        except Exception:
            _report_error(f"enumeration check of {g!r}")
            ok = False
        checks.append(ok)
        h = hashlib.sha256(repr([s.mat for s in subs]).encode())
        h.update(repr(inc.shape).encode())
        h.update(inc.tobytes())
        digests.append(h.hexdigest())
    out = {"ops": speed.scaled(ops, probes), "raw_ops": ops,
           "probes": probes, "checks": checks, "digests": digests}
    if TRACER is not None:
        out["trace"] = TRACER.summary()
    return out


def check_enumeration(g, k, subs, inc, masks, rng, plant) -> bool:
    """Counts against the Gaussian binomials, incidence row and column sums,
    mask popcounts, and, over prime fields, a seeded sample of columns
    recomputed mod p."""
    space, n, q = g.kind, g.n, g.q
    count, theta, r = inputs.enum_counts(space, n, k, q)
    if plant:
        count += 1
    npts = q ** n if space == "AG" else (q ** (n + 1) - 1) // (q - 1)
    if len(subs) != count or inc.shape != (npts, count) or len(masks) != count:
        return False
    if (inc.sum(axis=0) != theta).any() or (inc.sum(axis=1) != r).any():
        return False
    if any(m.bit_count() != theta for m in masks):
        return False
    if g.field.h > 1:
        # the recomputation below does arithmetic mod p, so prime fields only
        return True
    index = {p: i for i, p in enumerate(g.points)}
    for j in rng.sample(range(count), min(5, count)):
        expect = {index[p] for p in inputs.span_points(subs[j].mat, q)
                  if p in index}
        got = set(int(i) for i in inc[:, j].nonzero()[0])
        mask = {i for i in range(npts) if masks[j] >> i & 1}
        if not expect == got == mask:
            return False
    return True


# ---------------------------------------------------------------------------
# CLI process
# ---------------------------------------------------------------------------

def cmd_cli(args) -> tuple:
    """clgeom.cli.main(ARGV) between two speed probes, traced on request."""
    global TRACER
    cli = importlib.import_module("clgeom.cli")
    if args.trace:
        TRACER = Tracer()
        install_clgeom(TRACER)
        TRACER.op_id = args.op
    t0 = perf_counter()
    speed.kernel()  # warm-up, so that the first probe does not run cold
    before = speed.probe()
    t1 = perf_counter()
    rc = cli.main(args.argv)
    t2 = perf_counter()
    after = speed.probe()
    out = {"ready": t0, "probes": [before, after],
           "probe_s": (t1 - t0) + (perf_counter() - t2)}
    if TRACER is not None:
        TRACER.uninstall()
        out["trace"] = TRACER.summary()
    return out, rc


def main() -> int:
    ap = argparse.ArgumentParser(prog="child.py")
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name in ("setup", "work", "enum", "cli"):
        p = sub.add_parser(name)
        p.add_argument("--out", required=True)
        p.add_argument("--spans")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tiny", action="store_true")
        p.add_argument("--plant", action="store_true")
        p.add_argument("--trace", type=int, default=0)
        if name in ("setup", "work"):
            p.add_argument("--workload", required=True)
        if name == "work":
            p.add_argument("--seconds", type=float, required=True)
            p.add_argument("--min-ops", type=int, default=1)
            p.add_argument("--max-passes", type=int, default=10 ** 9)
        if name == "cli":
            p.add_argument("--op", type=int, default=0)
            p.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    import clgeom
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    if not os.path.abspath(clgeom.__file__).startswith(src + os.sep):
        print(f"perfbench: clgeom imported from {clgeom.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 3
    if args.cmd == "cli" and args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    rc = 0
    if args.cmd == "cli":
        out, rc = cmd_cli(args)
    else:
        out = {"setup": cmd_setup, "work": cmd_work, "enum": cmd_enum}[
            args.cmd](args)
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    if TRACER is not None and args.spans:
        with open(args.spans, "a") as fh:
            TRACER.write_spans(fh, os.getpid())
    return rc


if __name__ == "__main__":
    sys.exit(main())
