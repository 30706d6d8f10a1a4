"""One pass of a workload, in a fresh interpreter.

Started by ``run.py`` once per pass (and once per set-up probe), so the
library's memos start empty every time, as they do for each CLI call.
It reads a JSON request on stdin, runs the inputs of the plan, checks
every output and prints one JSON result line with the time of each call
and of each input's checks.  A failed check or an exception raised by
the library counts the input as failed; the pass goes on with the next.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import nestohedra as lib  # noqa: E402
from nestohedra import cli  # noqa: E402
from nestohedra import facelattice as fl  # noqa: E402
from nestohedra import realization as rz  # noqa: E402

import tracing  # noqa: E402
from workloads import expected_faces, expected_vertices, load_oracle  # noqa: E402


class CheckFailed(Exception):
    pass


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


class Pass:
    """Attempt/failure bookkeeping for one pass."""

    def __init__(self, tracer: tracing.Tracer):
        self.tr = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.glue_s: list[float] = []

    def attempt(self, label: str, body) -> None:
        """Run one input with its checks.  Its time outside the calls into
        the library (checks and glue) goes to ``glue_s``."""
        self.attempted += 1
        t0 = time.perf_counter()
        calls0 = self.tr.call_s
        try:
            with self.tr.input(label):
                body()
        except CheckFailed as exc:
            self.failed += 1
            self.errors.append(f"{label}: check failed: {exc}")
        except Exception:  # the library raised: count it, keep going
            self.failed += 1
            self.errors.append(f"{label}: raised")
            traceback.print_exc(file=sys.stderr)
        finally:
            self.glue_s.append(time.perf_counter() - t0 - (self.tr.call_s - calls0))


def graph(tr: tracing.Tracer, spec: dict):
    return tr.call("tubings.as_graph", lib.as_graph, spec["edges"], spec["atoms"])


def lattice_json(p) -> str:
    return json.dumps(fl.to_json_dict(p))


def realized_json(rp) -> str:
    return json.dumps(rz.to_json_dict(rp))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def run_catalog_cli(plan: dict, ps: Pass, oracle: dict) -> None:
    tr = ps.tr
    os.environ.pop("NESTOHEDRA_COLOR", None)

    def one(item: dict) -> None:
        argv = item["argv"]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = tr.call(f"cli.{argv[0]}", cli.run, argv)
        data = out.getvalue().encode("utf-8")
        tr.add("cli.output_bytes", len(data))
        check(code == item["exit"], f"exit {code}, expected {item['exit']}")
        check(hashlib.sha256(data).hexdigest() == item["sha256"], "stdout digest drifted")

    for item in oracle["catalog_cli"]:
        ps.attempt(" ".join(item["argv"]), lambda item=item: one(item))


def run_poset_ladder(plan: dict, ps: Pass, oracle: dict) -> None:
    tr = ps.tr

    def one(spec: dict) -> None:
        want = oracle["ladders"][spec["label"]]
        g = graph(tr, spec)
        h = g.underlying
        cs = tr.call("constructions.enumerate_constructs", lib.enumerate_constructs, h)
        p = tr.call("facelattice.abstract_polytope", lib.abstract_polytope, h)
        cov = tr.call("facelattice.FacePoset.covers", p.covers)
        ra = tr.call("axioms.verify_axioms", lib.verify_axioms, p)
        ri = tr.call("axioms.verify_inductive", lib.verify_inductive, p)
        text = tr.call("facelattice.export", lattice_json, p)
        fv = list(lib.f_vector(p))
        check(fv == want["f_vector"], f"f-vector {fv}")
        check(fv[0] == expected_vertices(spec["family"], spec["n"]), "vertex closed form")
        faces = expected_faces(spec["family"], spec["n"])
        check(faces is None or len(cs) == faces, "face closed form")
        check(len(p) == len(cs) + 1, "faces are the constructs plus the bottom")
        check(len(cov) == want["covers"], f"{len(cov)} covers")
        check(len(text) == want["json_bytes"], "lattice JSON size")
        check(ra.ok, "verify_axioms rejected the poset")
        check(ri.ok, "verify_inductive rejected the poset")
        if spec["n"] == 6:
            tb = tr.call("tubings.tubings_equal_constructs",
                         lib.tubings_equal_constructs, g)
            check(tb.ok, "tubings differ from constructs")
            check(tb.families_checked == want["families_checked"], "tubing families")

    for spec in plan["rungs"]:
        ps.attempt(spec["label"], lambda spec=spec: one(spec))


def run_realize_mix(plan: dict, ps: Pass, oracle: dict) -> None:
    run_realize_rungs(plan, ps, oracle)
    run_random_inputs(plan, ps)


def run_realize_rungs(plan: dict, ps: Pass, oracle: dict) -> None:
    tr = ps.tr

    def realize_one(spec: dict) -> None:
        want = oracle["ladders"][spec["label"]]
        h = graph(tr, spec).underlying
        cons = tr.call("constructions.enumerate_constructions",
                       lib.enumerate_constructions, h)
        count = tr.call("constructions.count_constructions", lib.count_constructions, h)
        rp = tr.call("realization.realize", lib.realize, h)
        text = tr.call("realization.export", realized_json, rp)
        closed = expected_vertices(spec["family"], spec["n"])
        check(len(cons) == count == len(rp.vertices) == closed == want["vertices"],
              f"{len(cons)} constructions, {count} counted, {len(rp.vertices)} vertices")
        check(rp.dimension == spec["n"] - 1, "dimension")
        check(len(text) == want["realized_json_bytes"], "realization JSON size")

    def iso_one(spec: dict) -> None:
        want = oracle["ladders"][spec["label"]]
        h = graph(tr, spec).underlying
        cs = tr.call("constructions.enumerate_constructs", lib.enumerate_constructs, h)
        iso = tr.call("realization.face_lattice_isomorphic",
                      lib.face_lattice_isomorphic, h)
        check(iso.ok, "realized face lattice differs from the construct poset")
        check(len(iso.face_map) == len(cs) == want["geometric_faces"]
              == expected_faces(spec["family"], spec["n"]), "face count")

    for spec in plan["realize"]:
        ps.attempt(spec["label"], lambda spec=spec: realize_one(spec))
    for spec in plan["iso"]:
        ps.attempt(f"iso-{spec['label']}", lambda spec=spec: iso_one(spec))


def run_random_inputs(plan: dict, ps: Pass) -> None:
    tr = ps.tr

    def one(spec: dict) -> None:
        h = tr.call("hypergraph.Hypergraph.from_sets", lib.Hypergraph.from_sets,
                    spec["members"])
        hbar = tr.call("saturation.saturated_closure", lib.saturated_closure, h)
        cc = tr.call("saturation.cognate_class", lib.cognate_class, h)
        count = tr.call("constructions.count_constructions", lib.count_constructions, h)
        cons = tr.call("constructions.enumerate_constructions",
                       lib.enumerate_constructions, h)
        rp = tr.call("realization.realize", lib.realize, h)
        check(lib.is_saturated(hbar), "closure is not saturated")
        check(len(hbar.members) == spec["closure_members"], "closure size")
        check(h.member_sets <= hbar.member_sets, "closure dropped a member")
        check(cc.saturated_top == hbar, "cognate top differs from the closure")
        check(count == len(cons) == len(rp.vertices) == spec["constructions"],
              f"{count} counted, {len(cons)} enumerated, {len(rp.vertices)} vertices")
        check(rp.dimension == spec["n"] - spec["blocks"], "dimension")

    for spec in plan["inputs"]:
        ps.attempt(spec["label"], lambda spec=spec: one(spec))


WORKLOADS = {
    "catalog-cli": run_catalog_cli,
    "poset-ladder": run_poset_ladder,
    "realize-mix": run_realize_mix,
}


def run_pass(plan: dict, trace: bool, oracle: dict, load_s: float) -> dict:
    """Run one pass in this process and return its measurements."""
    tracer = tracing.Tracer(trace)
    if trace:
        tracing.install(tracer, lib)
    ps = Pass(tracer)
    t0 = time.perf_counter()
    WORKLOADS[plan["workload"]](plan, ps, oracle)
    wall = time.perf_counter() - t0
    out = {
        "wall_s": wall,
        "attempted": ps.attempted,
        "failed": ps.failed,
        "errors": ps.errors[:20],
        "glue_s": ps.glue_s,
        "latencies_s": tracer.latencies,
        "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        out["layers"] = tracing.layer_metrics(tracer, lib, load_s)
        out["spans"] = tracer.spans
    return out


def main() -> None:
    t0 = time.perf_counter()
    lib.catalog()
    load_s = time.perf_counter() - t0
    # set-up ends here: the runner subtracts its spawn time from this clock
    result = {"ready": time.monotonic()}
    request = json.loads(sys.stdin.read())
    if request["mode"] == "pass":
        oracle = request.get("oracle") or load_oracle()
        result.update(run_pass(request["plan"], request["trace"], oracle, load_s))
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
