"""Benchmark harness for clgeom.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is taken from ``src/`` of
the checkout that holds this file.  Workloads (see README.md beside this
file): decide-cold, verify-batch, sieve-sweep, enumerate-cache.  The load
is a closed loop with one client: one process runs one operation at a
time.  Every measured operation runs in a child process (child.py, which
also wraps each clgeom CLI call), each with its own fresh CLGEOM_CACHE
directory under ``.perfbench/`` of the checkout, removed when the run
ends.

Every time is scaled by the speed probes run beside it (see speed.py);
standard error gets one line with the unscaled figures.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--tiny`` swaps in PG(3,2) and a 50-value sieve window; ``--plant`` plants
one wrong expectation.  Both exist for selftest.py.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import math
import os
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)
import inputs  # noqa: E402
import speed  # noqa: E402
from tracer import LAYERS  # noqa: E402

WORKLOADS = ("decide-cold", "verify-batch", "sieve-sweep", "enumerate-cache")

END_TO_END = {
    "setup_s": "s", "pass_s": "s", "op_p50_s": "s", "op_p90_s": "s",
    "peak_rss_mb": "MB", "correct_frac": "ratio",
}

PER_LAYER = {
    "ff.mul_calls": "count", "ff.add_calls": "count",
    "ff.sub_calls": "count", "ff.inv_calls": "count",
    "geometry.subspaces_s": "s", "geometry.incidence_s": "s",
    "geometry.point_masks_s": "s", "geometry.point_mask_of_s": "s",
    "geometry.point_mask_of_calls": "count", "geometry.rref_s": "s",
    "geometry.rref_calls": "count", "geometry.kspaces": "count",
    "geometry.cache_mb": "MB",
    "linalg.from_numpy_s": "s", "linalg.in_rowspace_first_s": "s",
    "linalg.in_rowspace_warm_s": "s", "linalg.in_rowspace_calls": "count",
    "clcore.is_cl_s": "s", "clcore.construct_s": "s",
    "clcore.check_disjoint_s": "s", "clcore.check_profile_s": "s",
    "clcore.check_aid_s": "s", "clcore.check_drudge_s": "s",
    "clcore.check_spread_s": "s", "clcore.check_affine_line_s": "s",
    "clcore.transform_s": "s", "clcore.pair_ops": "count",
    "clcore.load_family_s": "s", "clcore.family_to_dict_s": "s",
    "sieve.sieve_s": "s", "sieve.bound_evals": "count",
    "sieve.bound_eval_s": "s", "sieve.modular_evals": "count",
    "sieve.to_json_s": "s",
    "cli.startup_s": "s", "cli.construct_s": "s", "cli.verify_s": "s",
    **{f"layer.{layer}.{part}_s": "s"
       for layer in LAYERS for part in ("incl", "self")},
    "trace.overhead_s": "s", "trace.overhead_frac": "ratio",
    "trace.spans": "count",
}

# run-time limits: the whole run ends well inside 180 s even if a child
# hangs, and verify-batch times enough families for a p90 with at least
# ten samples beyond it
DEADLINE_S = 170.0
VERIFY_MIN_OPS = 100
# set-up-only processes per untraced run; on verify-batch and sieve-sweep
# the measuring worker's own set-up is one more sample
SETUP_PROBES = {"decide-cold": 5, "verify-batch": 2, "sieve-sweep": 4,
                "enumerate-cache": 5}
CONSTRUCT_LINE = re.compile(r"wrote .*: (\d+) members, x = (\S+)")


class ChildFailed(Exception):
    pass


class Run:
    """One benchmark run: its scratch directory, children and results."""

    def __init__(self, args, tmp: str):
        self.args = args
        self.tmp = tmp
        self.deadline = perf_counter() + DEADLINE_S
        self.spans = os.path.join(tmp, "spans.jsonl")
        self.attempted = 0
        self.failed = 0
        self.summaries = []
        self.startups = []
        self.cache_mb = 0.0
        self.probes = []
        self.raw = []       # unscaled operation times, for the log line
        self._n = 0

    # -- children --

    def path(self, stem: str) -> str:
        self._n += 1
        return os.path.join(self.tmp, f"{self._n:05d}-{stem}")

    def env(self, cache: str) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env["CLGEOM_CACHE"] = cache
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        env["PYTHONHASHSEED"] = "0"
        return env

    def launch(self, cmd: list, cache: str, quiet_rcs=()):
        """Run one child to completion; returns (launch time, end time,
        return code, stdout).  Its standard error is passed on unless the
        return code is one of ``quiet_rcs``."""
        timeout = self.deadline - perf_counter()
        if timeout <= 0:
            raise ChildFailed("run deadline passed")
        t0 = perf_counter()
        try:
            proc = subprocess.run(cmd, env=self.env(cache), cwd=self.tmp,
                                  capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"timed out: {cmd[1:4]}") from exc
        t1 = perf_counter()
        if proc.stderr and proc.returncode not in quiet_rcs:
            sys.stderr.write(proc.stderr)
        return t0, t1, proc.returncode, proc.stdout

    def child(self, sub: str, cache: str, *extra) -> tuple:
        """Run child.py; returns (launch time, its JSON result)."""
        out = self.path(f"{sub}.json")
        a = self.args
        cmd = [sys.executable, CHILD, sub, "--out", out, "--seed",
               str(a.seed), "--spans", self.spans, *extra]
        cmd += ["--tiny"] * a.tiny + ["--plant"] * a.plant
        t0, _, rc, _ = self.launch(cmd, cache)
        if rc != 0:
            raise ChildFailed(f"child.py {sub} exited with {rc}")
        with open(out) as fh:
            result = json.load(fh)
        if "trace" in result:
            self.summaries.append(result["trace"])
        self.probes += result.get("probes", [])
        return t0, result

    def fresh_cache(self) -> str:
        return tempfile.mkdtemp(prefix="cache-", dir=self.tmp)

    def setup_samples(self, n: int) -> list:
        out = []
        for _ in range(n):
            t0, res = self.child("setup", self.fresh_cache(),
                                 "--workload", self.args.workload)
            out.append((res["ready"] - t0) * speed.REF_S / res["probes"][0])
        return out

    def record(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    # -- passes --

    def passes(self, one_pass) -> tuple:
        """Untraced: passes while the next is expected to end within the
        budget (at least one).  Traced: one untraced pass for reference,
        then one traced pass."""
        if self.args.trace:
            ref = one_pass(False)
            return [ref], [one_pass(True)]
        start = perf_counter()
        results, walls = [], []
        while True:
            t0 = perf_counter()
            results.append(one_pass(False))
            walls.append(perf_counter() - t0)
            if perf_counter() - start + statistics.median(walls) > \
                    self.args.seconds:
                return results, []

    # -- decide-cold --

    def decide_pass(self, traced: bool):
        ops = []
        for idx, rung in enumerate(inputs.ladder(self.args.seed,
                                                 self.args.tiny)):
            try:
                dt, ok = self.rung(idx, rung, traced)
            except (OSError, ValueError, KeyError) as exc:
                print(f"perfbench: rung {idx}: {exc!r}", file=sys.stderr)
                dt, ok = 0.0, False
            ops.append(dt)
            self.record(ok)
        # the operation is the whole ladder: the median of six unlike rungs
        # rests on the two ~1 s rungs, mostly interpreter start-up, and
        # moved by 0.23-0.32 between runs
        return sum(ops), [sum(ops)]

    def cli(self, argv: list, cache: str, idx: int, traced: bool):
        """One clgeom CLI process, run through child.py so that it probes
        the host speed in-process; returns (scaled time without the
        probes, return code, stdout)."""
        out = self.path("cli.json")
        cmd = [sys.executable, CHILD, "cli", "--out", out, "--spans",
               self.spans, "--op", str(idx), "--trace", str(int(traced)),
               "--", *argv]
        # exit code 1 is a failed check, expected for the swapped families
        t0, t1, rc, stdout = self.launch(cmd, cache, quiet_rcs=(0, 1))
        with open(out) as fh:
            res = json.load(fh)
        if traced:
            self.summaries.append(res["trace"])
            self.startups.append(res["ready"] - t0)
        self.probes += res["probes"]
        self.raw.append(t1 - t0 - res["probe_s"])
        return speed.scaled([t1 - t0 - res["probe_s"]], res["probes"])[0], \
            rc, stdout

    def rung(self, idx: int, r: dict, traced: bool):
        """construct, then verify --checks cl, each in a fresh process
        against the rung's own empty cache directory."""
        space, n, q, k = r["space"], r["n"], r["q"], r["k"]
        cache = self.fresh_cache()
        fam = os.path.join(cache, "family.json")
        argv = ["construct", "--kind", r["kind"], "--space", space.lower(),
                "-n", str(n), "-k", str(k), "-q", str(q),
                "--point", ",".join(map(str, r["point"])), "-o", fam]
        if r["variant"] == "complement":
            argv.append("--complement")
        t_c, rc, stdout = self.cli(argv, cache, idx, traced)
        x = inputs.trivial_x(r["kind"], space, n, k, q)
        if r["variant"] == "complement":
            x = inputs.x_max(space, n, k, q) - x
        m = CONSTRUCT_LINE.search(stdout)
        ok = (rc == 0 and m is not None and Fraction(m.group(2)) == x
              and int(m.group(1)) == x * inputs.gauss(n, k, q))
        if r["variant"] == "swap":
            swap_member(fam, r)
        t_v, rc, stdout = self.cli(["verify", fam, "--checks", "cl"],
                                   cache, idx, traced)
        if traced:
            self.cache_mb += dir_mb(cache)
        expect = r["variant"] != "swap"
        if self.args.plant and idx == 0:
            expect = not expect
        verdict = {(0, "pass"): True, (1, "FAIL"): False}.get(
            (rc, stdout.split()[-1] if stdout.split() else ""))
        return t_c + t_v, ok and verdict == expect

    # -- enumerate-cache --

    def enum_pass(self, traced: bool):
        cache = self.fresh_cache()
        flag = ["--trace", "1"] if traced else []
        _, cold = self.child("enum", cache, *flag)
        if traced:
            self.cache_mb += dir_mb(cache)
        _, warm = self.child("enum", cache, *flag)
        same = [c == w for c, w in zip(cold["digests"], warm["digests"])]
        for ok, agree in zip(cold["checks"] + warm["checks"], same + same):
            self.record(ok and agree)
        self.raw += cold["raw_ops"] + warm["raw_ops"]
        # an operation is one geometry, built cold and then loaded warm
        ops = [c + w for c, w in zip(cold["ops"], warm["ops"])]
        return sum(ops), ops

    # -- verify-batch, sieve-sweep: passes inside one worker process --

    def worker(self, traced: bool, passes: int | None, min_ops: int):
        a = self.args
        extra = ["--workload", a.workload, "--seconds", str(a.seconds),
                 "--min-ops", str(min_ops)]
        if passes:
            extra += ["--max-passes", str(passes)]
        if traced:
            extra += ["--trace", "1"]
        cache = self.fresh_cache()
        t0, res = self.child("work", cache, *extra)
        if traced:
            self.cache_mb += dir_mb(cache)
        self.attempted += res["attempted"]
        self.failed += res["failed"]
        self.raw += res["raw_passes"]
        setup = (res["ready"] - t0) * speed.REF_S / res["probes"][0]
        return setup, res["passes"], res["ops"]


def swap_member(path: str, rung: dict) -> None:
    """Replace one member of a family file by a k-space outside it."""
    with open(path) as fh:
        data = json.load(fh)
    rng = random.Random(rung["swap_seed"])
    members = data["members"]
    old = [list(map(list, m)) for m in members]
    members.pop(rng.randrange(len(members)))
    while True:
        new = inputs.random_kspace(rng, rung["space"], rung["n"], rung["k"],
                                   rung["q"])
        if new not in old:
            break
    members.append(new)
    with open(path, "w") as fh:
        json.dump(data, fh)


def dir_mb(path: str) -> float:
    total = 0
    for base, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total / 2 ** 20


def percentile(values: list, pct: int) -> float:
    """Nearest-rank percentile: the smallest value with at least ``pct``
    percent of the values at or below it.  Every pass holds the same
    operations, so unlike an interpolated percentile it does not move with
    the number of passes a run fits in."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct * len(ordered) / 100) - 1)]


def end_to_end(run: Run, setups: list, passes: list, ops: list) -> dict:
    print(f"perfbench: speed probe median "
          f"{statistics.median(run.probes):.5f} s (REF_S {speed.REF_S}) over "
          f"{len(run.probes)} probes; timed work {sum(run.raw):.3f} s "
          f"unscaled, {sum(passes):.3f} s scaled", file=sys.stderr)
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    values = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(passes),
        "op_p50_s": percentile(ops, 50),
        "op_p90_s": percentile(ops, 90),
        "peak_rss_mb": rss_kb / 1024,
        "correct_frac": (run.attempted - run.failed) / max(run.attempted, 1),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(run: Run, ref_pass: float, traced_pass: float) -> dict:
    calls, incl, lincl, lself, counts = ({} for _ in range(5))
    kspaces, warm = {}, []
    spans = 0
    for s in run.summaries:
        for dst, src in ((calls, s["calls"]), (incl, s["incl"]),
                         (lincl, s["layer_incl"]), (lself, s["layer_self"]),
                         (counts, s["counts"])):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
        kspaces.update(s["kspaces"])
        warm += s["rowspace_warm"]
        spans += s["spans"]
    values = {
        **{f"ff.{op}_calls": counts.get(f"ff.{op}_calls", 0)
           for op in ("mul", "add", "sub", "inv")},
        "geometry.kspaces": sum(kspaces.values()),
        "geometry.cache_mb": run.cache_mb,
        "geometry.point_mask_of_calls": calls.get("geometry.point_mask_of", 0),
        "geometry.rref_calls": calls.get("geometry.rref", 0),
        "linalg.in_rowspace_first_s": incl.get("linalg.in_rowspace_first", 0.0),
        "linalg.in_rowspace_warm_s": statistics.median(warm) if warm else 0.0,
        "linalg.in_rowspace_calls": calls.get("linalg.in_rowspace_first", 0)
        + calls.get("linalg.in_rowspace_warm", 0),
        "clcore.pair_ops": counts.get("clcore.pair_ops", 0),
        "sieve.bound_evals": calls.get("sieve.bound_eval", 0),
        "sieve.modular_evals": calls.get("sieve.modular_eval", 0),
        "cli.startup_s": sum(run.startups),
        "trace.overhead_s": traced_pass - ref_pass,
        "trace.overhead_frac": traced_pass / ref_pass - 1 if ref_pass else 0.0,
        "trace.spans": spans,
    }
    for layer in LAYERS:
        values[f"layer.{layer}.incl_s"] = lincl.get(layer, 0.0)
        values[f"layer.{layer}.self_s"] = lself.get(layer, 0.0)
    for name, unit in PER_LAYER.items():
        if name not in values:
            # a span-time metric: "<layer>.<what>_s" -> group "<layer>.<what>"
            values[name] = incl.get(name[:-2], 0.0)
    return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}


def measure(run: Run) -> dict:
    a = run.args
    w = a.workload
    setups = [] if a.trace else run.setup_samples(SETUP_PROBES[w])
    if w in ("verify-batch", "sieve-sweep"):
        min_ops = 1
        if w == "verify-batch" and not a.tiny:
            min_ops = VERIFY_MIN_OPS
        if a.trace:
            ref = run.worker(False, 1, 1)
            traced = run.worker(True, 1, 1)
            return per_layer(run, sum(ref[1]), sum(traced[1]))
        setup, passes, ops = run.worker(False, None, min_ops)
        return end_to_end(run, setups + [setup], passes, ops)
    one = run.decide_pass if w == "decide-cold" else run.enum_pass
    plain, traced = run.passes(one)
    if a.trace:
        return per_layer(run, plain[0][0], traced[0][0])
    return end_to_end(run, setups, [p[0] for p in plain],
                      [t for p in plain for t in p[1]])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--plant", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "clgeom", "__init__.py")):
        print(f"perfbench: no clgeom package under {SRC}", file=sys.stderr)
        return 2
    # a terminated run still kills its child and removes its directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    with open(os.path.join(WORK, "lock"), "w") as lock:
        # one benchmark process at a time per checkout
        fcntl.flock(lock, fcntl.LOCK_EX)
        subprocess.run([sys.executable, "-m", "compileall", "-q",
                        os.path.join(SRC, "clgeom")], check=True)
        tmp = tempfile.mkdtemp(prefix="run-", dir=os.path.join(WORK, "tmp"))
        run = Run(args, tmp)
        try:
            metrics = measure(run)
            if args.trace:
                keep = os.path.join(WORK, "traces", f"{args.workload}.jsonl")
                os.makedirs(os.path.dirname(keep), exist_ok=True)
                if os.path.exists(run.spans):
                    shutil.move(run.spans, keep)
        except ChildFailed as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({"correct": run.failed == 0 and run.attempted > 0,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
