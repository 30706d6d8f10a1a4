"""nestohedra benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload poset-ladder --seed 1 --seconds 40 --trace 0

Run from the repository root; the library is imported from ``src/``.
Each pass over the workload's inputs runs in a fresh interpreter
(``worker.py``), one after another, as a single closed-loop caller with
no threads, so every pass starts with empty memos.  Within ``--seconds``
the runner makes five set-up probes, then starts passes until the next
one is not expected to end in time (it makes one pass in any case, two
with ``--trace 1``, and ends none past ``HARD_LIMIT_S`` after start).
Workers run with PYTHONHASHSEED derived from ``--seed``, so a seed also
fixes set iteration order.

Every call into the library, and the checks between calls, do the same
work in each pass, so the runner keeps each one's fastest time over the
passes: on a shared host the slowdowns come from other tenants and only
ever add time, and the fastest of many passes of a short call is far
steadier than any one pass.

A shared host also has slow spells that outlast a whole run.  Before
each pass the runner times a fixed pure-Python loop that calls no
library code; the fastest loop time of the run gives the host's speed,
and every time measured after set-up is scaled to the speed at which
the loop takes ``REFERENCE_LOOP_S``.  The raw figures and the loop times
are printed on the line before the result.

``--trace 0`` prints the end-to-end metrics:

* ``wall_s``: all inputs of the workload, output checks included; the
  sum of every call's and every input's checks' fastest time, scaled.
* ``setup_s``: from spawning an interpreter until ``import nestohedra``
  and ``catalog()`` have finished (median over probes and passes; not
  scaled).
* ``peak_rss_mib``: peak resident set size of a pass's own process
  (median).
* ``ok_ratio``: inputs whose checks passed over inputs attempted (the
  ``failed`` field carries the failures; a ratio of failures would read
  0 at a healthy commit, and metrics must never be 0).

``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics (see ``tracing.py``; medians over the traced passes,
scaled), a per-layer self-time table and ``trace.overhead_s`` (traced
minus untraced ``wall_s``); the spans are written to ``perfbench/out/``.
Its ``call_p50_ms`` and ``call_p95_ms`` are percentiles over the
benchmark's calls into the library (one ``cli.run`` each on
catalog-cli), each call at its fastest time in the untraced passes,
scaled; the info line gives the number of calls.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import LAYERS, per_layer_spec  # noqa: E402
from workloads import WORKLOADS, make_plan  # noqa: E402

PROBES = 5
# fastest time of ``calibrate`` at the reference speed: about the fastest
# seen with CPython 3.11 on a 2-vCPU Intel Xeon VM of a shared host
REFERENCE_LOOP_S = 0.016
PERCENTILES = {"call_p50_ms": 50, "call_p95_ms": 95}
HARD_LIMIT_S = 170
STARTED = time.monotonic()


class BenchError(Exception):
    pass


def calibrate() -> float:
    """Time of a fixed pure-Python loop on this host."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def spawn(request: dict, seed: int) -> tuple[dict, float, float]:
    """Run one worker to completion; returns its result, its set-up time
    and its lifetime, both measured from the spawn."""
    env = dict(os.environ)
    env.pop("NESTOHEDRA_COLOR", None)
    env["PYTHONHASHSEED"] = str(seed % 4294967296)
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=env, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(json.dumps(request),
                                  timeout=max(1.0, STARTED + HARD_LIMIT_S - t0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"the run exceeded {HARD_LIMIT_S} s") from None
    finally:
        # on every way out, the worker has ended before spawn returns
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lifetime = time.monotonic() - t0
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    return result, result["ready"] - t0, lifetime


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles(n=100) interpolates it."""
    return statistics.quantiles(values, n=100)[q - 1]


def fastest(passes: list[dict], key: str) -> list[float]:
    """Element-wise minimum of the passes' per-call or per-input times."""
    return [min(col) for col in zip(*(r[key] for r in passes))]


def wall(passes: list[dict]) -> float:
    """Sum of every call's and every input's checks' fastest time."""
    return sum(fastest(passes, "latencies_s")) + sum(fastest(passes, "glue_s"))


class Sampler:
    """Passes over one plan, each in a fresh worker, one after another."""

    def __init__(self, plan: dict, seed: int, trace: bool):
        self.plan = plan
        self.seed = seed
        self.trace = trace
        self.passes: list[tuple[bool, dict]] = []
        self.lifetimes: list[float] = []
        self.setups: list[float] = []
        self.calibration: list[float] = []

    def take(self) -> None:
        self.calibration.append(calibrate())
        traced = self.trace and len(self.passes) % 2 == 1
        request = {"mode": "pass", "plan": self.plan, "trace": traced}
        res, setup, life = spawn(request, self.seed)
        self.passes.append((traced, res))
        self.lifetimes.append(life)
        self.setups.append(setup)

    def run(self, seconds: float) -> None:
        start = time.monotonic()
        self.setups += [spawn({"mode": "probe"}, self.seed)[1] for _ in range(PROBES)]
        for _ in range(2 if self.trace else 1):
            self.take()
        deadline = min(start + seconds, STARTED + HARD_LIMIT_S)
        while time.monotonic() + statistics.median(self.lifetimes) <= deadline:
            self.take()

    def results(self, traced: bool) -> list[dict]:
        return [r for t, r in self.passes if t == traced]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    sampler = Sampler(make_plan(workload, seed), seed, trace)
    sampler.run(seconds)

    every = [r for _, r in sampler.passes]
    attempted = sum(r["attempted"] for r in every)
    failed = sum(r["failed"] for r in every)
    for r in every:
        for err in r["errors"]:
            print(f"failed: {err}", file=sys.stderr)
    plain = sampler.results(False)
    calls = [1000 * x for x in fastest(plain, "latencies_s")]
    scale = REFERENCE_LOOP_S / min(sampler.calibration)
    info = {"workload": workload, "seed": seed, "passes": len(every),
            "call_samples": len(calls), "setup_samples": len(sampler.setups),
            "raw_wall_s": wall(plain), "raw_call_p50_ms": quantile(calls, 50),
            "scale": scale, "calibration_s": sampler.calibration}
    if not trace:
        metrics = {
            "wall_s": (scale * wall(plain), "s"),
            "setup_s": (statistics.median(sampler.setups), "s"),
            "peak_rss_mib": (statistics.median(r["rss_mib"] for r in plain), "MiB"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        }
    else:
        metrics, consistent = layer_summary(sampler, scale, calls)
        if not consistent:
            failed += 1
            print("failed: per-layer counts differ between traced passes",
                  file=sys.stderr)
        write_spans(workload, seed, sampler, metrics)
        print_self_table(workload, metrics)
    print(json.dumps(info))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def layer_summary(sampler: Sampler, scale: float, calls: list[float]) -> tuple[dict, bool]:
    """Per-layer times: medians over the traced passes, scaled
    (``catalog.load_s`` is set-up and is not).  Counts must agree
    between the traced passes."""
    traced = [r["layers"] for r in sampler.results(True)]
    consistent = True
    metrics = {}
    for spec in per_layer_spec():
        name, unit = spec["name"], spec["unit"]
        if name == "trace.overhead_s":
            value = scale * (wall(sampler.results(True)) - wall(sampler.results(False)))
        elif name in PERCENTILES:
            value = scale * quantile(calls, PERCENTILES[name])
        elif name == "catalog.load_s":
            value = statistics.median(layers[name] for layers in traced)
        elif name == "constructions.construct_yield":
            gen = metrics["constructions.subsets_generated"][0]
            value = metrics["constructions.constructs"][0] / gen if gen else 0.0
        elif unit == "s":
            value = scale * statistics.median(layers[name] for layers in traced)
        else:
            consistent = consistent and len({layers[name] for layers in traced}) == 1
            value = traced[0][name]
        metrics[name] = (value, unit)
    return metrics, consistent


def print_self_table(workload: str, metrics: dict) -> None:
    rows = [(layer, metrics[f"{layer}.self_s"][0]) for layer in LAYERS + ("bench",)]
    total = sum(v for _, v in rows) or 1.0
    print(f"self time per layer on {workload} (median of traced passes, scaled):")
    for layer, v in sorted(rows, key=lambda r: -r[1]):
        print(f"  {layer:<14} {v:10.4f} s  {100 * v / total:5.1f}%")
    print(f"  tracing overhead {metrics['trace.overhead_s'][0]:+.4f} s")


def write_spans(workload: str, seed: int, sampler: Sampler, metrics: dict) -> None:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    doc = {"workload": workload, "seed": seed,
           "fields": ["name", "start", "end", "parent", "input"],
           "passes": [r["spans"] for r in sampler.results(True)],
           "metrics": {k: v for k, (v, _) in metrics.items()}}
    path = out_dir / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run unwinds, so that spawn stops its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (ROOT / "src" / "nestohedra" / "__init__.py").is_file():
        print("error: run from a checkout with src/nestohedra", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
