"""Spans around calls into the library's layers, recorded from outside.

A ``Tracer`` times every call the benchmark makes (the closed-loop call
latencies) and, when enabled, also keeps a span per call: name, start,
end, parent span and the input it belongs to.  ``install`` extends the
spans to calls between layers by rebinding, inside each layer module,
the public functions it imported from another layer; nothing under
``src/`` changes and untraced runs never call it.  Spans stay in memory;
the runner writes them out at exit.
"""

from __future__ import annotations

import functools
import importlib
import types
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("hypergraph", "saturation", "constructions", "facelattice", "axioms",
          "realization", "tubings", "catalog", "cli")

# span names whose results feed the per-layer counts
COUNTED = frozenset({
    "facelattice.abstract_polytope", "facelattice.FacePoset.covers",
    "facelattice.to_json_dict",
    "axioms.verify_axioms", "axioms.verify_inductive",
    "constructions.enumerate_constructions", "constructions.enumerate_constructs",
    "tubings.tubings_equal_constructs", "saturation.saturated_closure",
    "realization.realize", "realization.face_lattice_isomorphic",
})

# per-layer metric -> span names whose durations it sums
TIMES = {
    "facelattice.poset_s": ("facelattice.abstract_polytope",),
    "facelattice.covers_s": ("facelattice.FacePoset.covers",),
    "facelattice.export_s": ("facelattice.export", "facelattice.to_json_dict"),
    "axioms.axioms_s": ("axioms.verify_axioms",),
    "axioms.inductive_s": ("axioms.verify_inductive",),
    "constructions.enumerate_s": ("constructions.enumerate_constructions",),
    "constructions.count_s": ("constructions.count_constructions",),
    "constructions.constructs_s": ("constructions.enumerate_constructs",),
    "constructions.recognize_s": ("constructions.is_construction",
                                  "constructions.is_construct"),
    "tubings.check_s": ("tubings.tubings_equal_constructs",),
    "saturation.closure_s": ("saturation.saturated_closure",),
    "saturation.cognate_s": ("saturation.cognate_class",),
    "realization.realize_s": ("realization.realize",),
    "realization.iso_s": ("realization.face_lattice_isomorphic",),
    "realization.export_s": ("realization.export", "realization.to_json_dict"),
    "catalog.atlas_s": ("catalog.fvector_table", "catalog.chart_edges"),
    "cli.info_s": ("cli.info",),
    "cli.enumerate_s": ("cli.enumerate",),
    "cli.lattice_s": ("cli.lattice",),
    "cli.verify_s": ("cli.verify",),
    "cli.realize_s": ("cli.realize",),
    "cli.atlas_s": ("cli.atlas",),
}

COUNTS = (
    "facelattice.faces", "facelattice.order_pairs", "facelattice.covers",
    "axioms.flags_checked", "axioms.sections_checked",
    "constructions.constructions", "constructions.constructs",
    "constructions.subsets_generated", "constructions.recognize_calls",
    "tubings.families_checked",
    "saturation.closure_calls", "saturation.subsets_walked", "saturation.members_added",
    "realization.vertices", "realization.geometric_faces",
    "hypergraph.calls", "cli.output_bytes", "trace.spans",
)

# counts that measure wasted or repeated work: lower is better
WORK_COUNTS = frozenset({
    "facelattice.order_pairs", "axioms.flags_checked", "axioms.sections_checked",
    "constructions.subsets_generated", "constructions.recognize_calls",
    "tubings.families_checked", "saturation.closure_calls",
    "saturation.subsets_walked", "hypergraph.calls", "trace.spans",
})


def per_layer_spec() -> list[dict]:
    """Every per-layer metric the traced run prints, with unit and direction."""
    out = [{"name": n, "unit": "s", "better": "lower"} for n in TIMES]
    out += [{"name": n, "unit": "s", "better": "lower"} for n in (
        "facelattice.poset_self_s", "hypergraph.busy_s", "catalog.load_s")]
    out += [{"name": n, "unit": "bytes" if n == "cli.output_bytes" else "count",
             "better": "lower" if n in WORK_COUNTS else "higher"} for n in COUNTS]
    out.append({"name": "constructions.construct_yield", "unit": "ratio",
                "better": "higher"})
    out += [{"name": f"{layer}.self_s", "unit": "s", "better": "lower"}
            for layer in LAYERS + ("bench",)]
    out.append({"name": "trace.overhead_s", "unit": "s", "better": "lower"})
    out += [{"name": n, "unit": "ms", "better": "lower"}
            for n in ("call_p50_ms", "call_p95_ms")]
    return out


class Tracer:
    """Call timing for one pass; spans only when ``enabled``."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent, input]
        self.latencies: list[float] = []
        self.call_s = 0.0  # sum of latencies
        self.results: list[tuple[str, tuple, object]] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._input: str | None = None

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self._input])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def input(self, label: str):
        """Root span of one input; the spans under it share its label."""
        self._input = label
        idx = self._open("bench.input") if self.enabled else None
        try:
            yield
        finally:
            if idx is not None:
                self._close(idx)
            self._input = None

    def call(self, name: str, fn, *args):
        """One closed-loop call from the benchmark into the library."""
        idx = self._open(name) if self.enabled else None
        t0 = perf_counter()
        try:
            out = fn(*args)
        finally:
            dt = perf_counter() - t0
            self.latencies.append(dt)
            self.call_s += dt
            if idx is not None:
                self._close(idx)
        if self.enabled and name in COUNTED:
            self.results.append((name, args, out))
        return out

    def add(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if name in COUNTED:
                self.results.append((name, args, out))
            return out
        return traced


def _layer_functions(module: types.ModuleType) -> dict:
    return {k: v for k, v in vars(module).items()
            if not k.startswith("_") and callable(v) and not isinstance(v, type)
            and getattr(v, "__module__", None) == module.__name__}


def install(tracer: Tracer, package: types.ModuleType) -> None:
    """Wrap every cross-layer reference to a public function in a span.

    A layer module that imported a public function of another layer gets
    a traced wrapper under the same name; one that imported a whole layer
    module (``from . import facelattice as fl``) gets a namespace whose
    functions are wrapped.  Calls inside one module are not split.
    """
    public = {n for n in dir(package) if not n.startswith("_")}
    mods = {layer: importlib.import_module(f"{package.__name__}.{layer}")
            for layer in LAYERS}
    layer_of = {m.__name__: layer for layer, m in mods.items()}
    for layer, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, types.ModuleType):
                target = layer_of.get(obj.__name__)
                if target is None or target == layer:
                    continue
                ns = types.SimpleNamespace(**vars(obj))
                for fname, fn in _layer_functions(obj).items():
                    setattr(ns, fname, tracer.wrap(f"{target}.{fname}", fn))
                setattr(mod, attr, ns)
            elif attr in public and callable(obj) and not isinstance(obj, type):
                target = layer_of.get(getattr(obj, "__module__", None))
                if target is not None and target != layer:
                    setattr(mod, attr, tracer.wrap(f"{target}.{obj.__name__}", obj))


def span_totals(spans: list[list]) -> tuple[dict, dict, dict]:
    """Per span name: total duration and call count; per layer: self time
    (each span's duration minus the time its child spans cover)."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    totals: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_time: dict[str, float] = {}
    for i, s in enumerate(spans):
        name = s[0]
        layer = name.split(".", 1)[0]
        totals[name] = totals.get(name, 0.0) + dur[i]
        calls[name] = calls.get(name, 0) + 1
        self_time[layer] = self_time.get(layer, 0.0) + dur[i] - child[i]
    return totals, calls, self_time


def poset_self_time(spans: list[list]) -> float:
    """Face-poset builder time net of the constructs it enumerates."""
    dur = [s[2] - s[1] for s in spans]
    out = 0.0
    for i, s in enumerate(spans):
        if s[0] == "facelattice.abstract_polytope":
            out += dur[i]
        elif s[3] >= 0 and spans[s[3]][0] == "facelattice.abstract_polytope":
            out -= dur[i]
    return out


def count_results(tracer: Tracer, lib) -> dict[str, int]:
    """Work and output counts derived from the recorded call results.

    Runs after the pass, outside every span.  ``lib`` is the untraced
    package; closures are counted once per distinct input, as the
    library caches them for the life of the process.
    """
    acc = dict.fromkeys(COUNTS, 0)
    acc.update(tracer.counts)
    seen_closures = set()
    for name, args, out in tracer.results:
        if name == "facelattice.abstract_polytope":
            acc["facelattice.faces"] += len(out)
            acc["facelattice.order_pairs"] += sum(1 for _ in out.iter_pairs())
        elif name == "facelattice.FacePoset.covers":
            acc["facelattice.covers"] += len(out)
        elif name == "facelattice.to_json_dict":
            acc["facelattice.covers"] += len(out["covers"])
        elif name == "axioms.verify_axioms":
            acc["axioms.flags_checked"] += out.flags_checked
            acc["axioms.sections_checked"] += out.sections_checked
        elif name == "axioms.verify_inductive":
            acc["axioms.sections_checked"] += out.sections_checked
        elif name == "constructions.enumerate_constructions":
            acc["constructions.constructions"] += len(out)
        elif name == "constructions.enumerate_constructs":
            h = args[0]
            acc["constructions.constructs"] += len(out)
            tops = len(lib.finest_partition(h))
            acc["constructions.subsets_generated"] += sum(
                1 << (len(k) - tops) for k in lib.enumerate_constructions(h))
        elif name == "tubings.tubings_equal_constructs":
            acc["tubings.families_checked"] += out.families_checked
        elif name == "saturation.saturated_closure":
            h = args[0]
            acc["saturation.closure_calls"] += 1
            if h not in seen_closures:
                seen_closures.add(h)
                n = h.n_atoms
                acc["saturation.subsets_walked"] += (1 << n) - n - 1
                acc["saturation.members_added"] += len(out.members) - len(h.members)
        elif name == "realization.realize":
            acc["realization.vertices"] += len(out.vertices)
        elif name == "realization.face_lattice_isomorphic":
            acc["realization.geometric_faces"] += len(out.face_map)
    return acc


def layer_metrics(tracer: Tracer, lib, load_s: float) -> dict[str, float]:
    """All per-layer metrics of one traced pass except the overhead."""
    totals, calls, self_time = span_totals(tracer.spans)
    out: dict[str, float] = {}
    for metric, names in TIMES.items():
        out[metric] = sum(totals.get(n, 0.0) for n in names)
    out["facelattice.poset_self_s"] = poset_self_time(tracer.spans)
    out["hypergraph.busy_s"] = sum(t for n, t in totals.items()
                                   if n.startswith("hypergraph."))
    out["catalog.load_s"] = load_s
    counts = count_results(tracer, lib)
    counts["constructions.recognize_calls"] = (
        calls.get("constructions.is_construction", 0)
        + calls.get("constructions.is_construct", 0))
    counts["hypergraph.calls"] = sum(c for n, c in calls.items()
                                     if n.startswith("hypergraph."))
    counts["trace.spans"] = len(tracer.spans)
    out.update(counts)
    gen = counts["constructions.subsets_generated"]
    out["constructions.construct_yield"] = (
        counts["constructions.constructs"] / gen if gen else 0.0)
    for layer in LAYERS + ("bench",):
        out[f"{layer}.self_s"] = self_time.get(layer, 0.0)
    return out
