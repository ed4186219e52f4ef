"""In-memory span tracer for the benchmark's traced runs.

The tracer replaces public names of the clgeom modules with timing
wrappers, installed where the caller looks the name up (for example
``clgeom.clcore.in_rowspace``).  Each call becomes a span recording its
name, start, end, parent span and operation id.  Spans stay in memory and
are written out when the run ends.  Alongside the spans the tracer keeps:

* per metric group: calls and inclusive time of the outermost call, so a
  recursive or nested call of the same group is not counted twice;
* per layer: inclusive time (outermost span of that layer) and self time
  (span time minus the time of its direct child spans);
* plain counters (the ``FieldCtx`` call counts and benchmark-computed
  sizes).

Very hot leaf functions are aggregated only (``keep=False``): they update
the totals above but store no individual span, which keeps memory bounded
on workloads that call them hundreds of thousands of times.  The ``FieldCtx``
arithmetic is counted, not timed; its time shows in the caller's self time.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("geometry", "linalg", "clcore", "sieve", "cli")


class Tracer:
    def __init__(self):
        self.spans = []      # (name, start, end, span id, parent id, op id)
        self.stack = []      # open frames: [group, layer, start, child time,
                             #               span id, parent id]
        self.calls = Counter()
        self.incl = defaultdict(float)
        self.layer_incl = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.counts = Counter()
        self.kspaces = {}
        self.op_id = -1
        self._depth = Counter()
        self._next_id = 0
        self._installed = []

    # -- installation --

    def wrap(self, owner, attr, metric, keep=True, name=None, on_result=None):
        """Time calls of ``owner.attr`` under the metric group ``metric``.

        ``name`` (default: the metric) may be a function of the call
        arguments, used to split one function into two metrics.  Missing
        attributes are skipped, so the benchmark keeps running when a later
        version of the library renames or removes a function."""
        fn = owner.__dict__.get(attr) if isinstance(owner, type) else \
            getattr(owner, attr, None)
        if fn is None:
            return
        raw = fn.__func__ if isinstance(fn, (classmethod, staticmethod)) else fn
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer.enter(name(args) if callable(name) else
                                 (name or metric))
            try:
                result = raw(*args, **kwargs)
            finally:
                tracer.exit(frame, keep)
            if on_result is not None:
                on_result(args, result)
            return result

        if isinstance(fn, classmethod):
            traced = classmethod(traced)
        elif isinstance(fn, staticmethod):
            traced = staticmethod(traced)
        self._installed.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def enter(self, group: str) -> list:
        layer = group.split(".", 1)[0]
        parent = self.stack[-1][4] if self.stack else -1
        frame = [group, layer, perf_counter(), 0.0, self._next_id, parent]
        self._next_id += 1
        self.stack.append(frame)
        self._depth[group] += 1
        self._depth[layer] += 1
        return frame

    def exit(self, frame: list, keep: bool = True) -> None:
        end = perf_counter()
        group, layer, start, child, sid, parent = frame
        stack = self.stack
        stack.pop()
        dur = end - start
        if stack:
            stack[-1][3] += dur
        depth = self._depth
        depth[group] -= 1
        depth[layer] -= 1
        if not depth[group]:
            self.calls[group] += 1
            self.incl[group] += dur
        if not depth[layer]:
            self.layer_incl[layer] += dur
        self.layer_self[layer] += dur - child
        if keep:
            self.spans.append((group, start, end, sid, parent, self.op_id))

    @contextmanager
    def span(self, group: str):
        """A span opened by the benchmark itself around calls into a layer."""
        frame = self.enter(group)
        try:
            yield
        finally:
            self.exit(frame)

    def count(self, owner, attr, counter):
        """Count calls of ``owner.attr`` without timing them."""
        fn = owner.__dict__.get(attr) if isinstance(owner, type) else \
            getattr(owner, attr, None)
        if fn is None:
            return
        counts = self.counts

        def counted(*args):
            counts[counter] += 1
            return fn(*args)

        self._installed.append((owner, attr, fn))
        setattr(owner, attr, counted)

    def uninstall(self):
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()

    # -- output --

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "incl": dict(self.incl),
            "layer_incl": dict(self.layer_incl),
            "layer_self": dict(self.layer_self),
            "counts": dict(self.counts),
            "kspaces": self.kspaces,
            "rowspace_warm": [span[2] - span[1] for span in self.spans
                              if span[0] == "linalg.in_rowspace_warm"],
            "spans": len(self.spans),
        }

    def write_spans(self, fh, pid: int) -> None:
        for name, start, end, sid, parent, op in self.spans:
            fh.write(json.dumps({"pid": pid, "id": sid, "name": name,
                                 "start": start, "end": end,
                                 "parent": parent, "op": op}))
            fh.write("\n")


def install_clgeom(tracer: Tracer) -> None:
    """Wrap the public functions of every clgeom module."""
    # the package re-exports functions named like its modules, so the
    # modules are taken from the import system, not as package attributes
    cli, clcore, ff, geometry, linalg, sieve = (
        importlib.import_module(f"clgeom.{m}")
        for m in ("cli", "clcore", "ff", "geometry", "linalg", "sieve"))

    for op in ("mul", "add", "sub", "inv"):
        tracer.count(ff.FieldCtx, op, f"ff.{op}_calls")

    def record_kspaces(args, result):
        geom, k = args[0], args[1]
        tracer.kspaces[f"{geom.kind}-q{geom.q}-n{geom.n}-k{k}"] = len(result)

    G = geometry.Geometry
    tracer.wrap(G, "subspaces", "geometry.subspaces", on_result=record_kspaces)
    tracer.wrap(G, "incidence", "geometry.incidence")
    tracer.wrap(G, "point_masks", "geometry.point_masks")
    tracer.wrap(G, "point_mask_of", "geometry.point_mask_of", keep=False)
    tracer.wrap(G, "subspace_index", "geometry.subspace_index")
    for module in (geometry, clcore):
        tracer.wrap(module, "rref", "geometry.rref", keep=False)
    tracer.wrap(cli, "geometry", "geometry.geometry")
    for module in (cli, geometry):
        tracer.wrap(module, "field_reduction_spread", "geometry.spread")

    seen = set()

    def rowspace_name(args):
        key = id(args[0])
        if key in seen:
            return "linalg.in_rowspace_warm"
        seen.add(key)
        return "linalg.in_rowspace_first"

    tracer.wrap(linalg.RatMatrix, "from_numpy", "linalg.from_numpy")
    tracer.wrap(clcore, "in_rowspace", "linalg.in_rowspace", name=rowspace_name)

    for attr, metric in (
            ("is_cl", "clcore.is_cl"),
            ("construct_trivial", "clcore.construct"),
            ("check_disjoint_count", "clcore.check_disjoint"),
            ("check_meet_profile", "clcore.check_profile"),
            ("check_aid_identity", "clcore.check_aid"),
            ("check_drudge_identity", "clcore.check_drudge"),
            ("check_spread", "clcore.check_spread"),
            ("check_affine_line", "clcore.check_affine_line"),
            ("restrict", "clcore.restrict"),
            ("project", "clcore.project"),
            ("pg_to_ag", "clcore.pg_to_ag"),
            ("ag_to_pg", "clcore.ag_to_pg"),
            ("load_family", "clcore.load_family"),
            ("family_to_dict", "clcore.family_to_dict")):
        tracer.wrap(clcore, attr, metric)

    tracer.wrap(sieve, "sieve", "sieve.sieve")
    tracer.wrap(sieve.SieveReport, "to_json", "sieve.to_json")
    for attr in ("classification_threshold", "step_factor",
                 "improved_lift_bound", "hyperplane_average_bound"):
        tracer.wrap(sieve, attr, "sieve.bound_eval")
    for attr in ("gm_condition_solvable", "line_condition_solvable",
                 "affine_condition"):
        tracer.wrap(sieve, attr, "sieve.modular_eval", keep=False)

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "cmd_construct", "cli.construct")
    tracer.wrap(cli, "cmd_verify", "cli.verify")
