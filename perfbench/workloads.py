"""Seeded inputs and closed-form expectations for the benchmark workloads.

Everything here is plain data (atom names, edges, member lists) built
from the workload seed without calling the library, so the library only
ever sees the generated inputs.  The construction counts used to size
the random workload come from this module's own deletion recurrence.
"""

from __future__ import annotations

import json
import random
from itertools import combinations
from math import comb, factorial
from pathlib import Path

WORKLOADS = ("catalog-cli", "poset-ladder", "realize-mix")

ORACLE_PATH = Path(__file__).with_name("oracle.json")

# Rungs of the ladders: (label, family, vertex count).  Each call is timed
# at its fastest over the passes of a run, and on a shared host that
# figure is steady only when a pass is short enough to repeat some
# thirty times, so the largest rungs are path6 (904 faces) for the face
# poset and path7 (429 vertices) for the realization.
POSET_RUNGS = (("path6", "path", 6), ("cycle5", "cycle", 5),
               ("star5", "star", 5), ("complete5", "complete", 5))
REALIZE_RUNGS = (("path7", "path", 7), ("cycle6", "cycle", 6),
                 ("complete5", "complete", 5))
ISO_RUNGS = (("path6", "path", 6), ("complete5", "complete", 5))

# realize-mix's random inputs: slot i draws an input of kind RANDOM_KINDS[i % 3]:
# (atoms, split into two disjoint blocks, cost target).  Realization time
# grows as (constructions) x (closure members), so a slot accepts only an
# input whose product lies within 10% of its target; that keeps the work
# of a pass nearly the same across seeds.
RANDOM_INPUTS = 6
RANDOM_KINDS = ((8, False, 6000), (9, True, 2000), (10, False, 12000))

# ---------------------------------------------------------------------------
# closed forms (Postnikov, "Permutohedra, associahedra, and beyond")
# ---------------------------------------------------------------------------

def expected_vertices(family: str, n: int) -> int:
    """Vertex count of the graph nestohedron: Catalan for paths, n! for
    complete graphs, C(2n-2, n-1) for cycles, sum (n-1)!/k! for stars."""
    if family == "path":
        return comb(2 * n, n) // (n + 1)
    if family == "complete":
        return factorial(n)
    if family == "cycle":
        return comb(2 * n - 2, n - 1)
    if family == "star":
        return sum(factorial(n - 1) // factorial(k) for k in range(n))
    raise ValueError(family)


def expected_faces(family: str, n: int) -> int | None:
    """Nonempty face count (constructs): little Schroeder numbers for
    paths, ordered set partitions for complete graphs; None otherwise."""
    if family == "path":
        # half the large Schroeder number S(n), S(n) = S(n-1) + sum S(k) S(n-1-k)
        big = [1]
        for m in range(1, n + 1):
            big.append(big[m - 1] + sum(big[k] * big[m - 1 - k] for k in range(m)))
        return big[n] // 2
    if family == "complete":
        fubini = [1]
        for m in range(1, n + 1):
            fubini.append(sum(comb(m, k) * fubini[m - k] for k in range(1, m + 1)))
        return fubini[n]
    return None


# ---------------------------------------------------------------------------
# graph rungs
# ---------------------------------------------------------------------------

def graph_edges(family: str, n: int) -> list[tuple[int, int]]:
    if family == "path":
        return [(i, i + 1) for i in range(n - 1)]
    if family == "cycle":
        return [(i, (i + 1) % n) for i in range(n)]
    if family == "star":
        return [(0, i) for i in range(1, n)]
    if family == "complete":
        return list(combinations(range(n), 2))
    raise ValueError(family)


def graph_spec(rng: random.Random, label: str, family: str, n: int) -> dict:
    """A rung with seed-permuted single-letter atom names: the seed moves
    the atoms' bit order, never the polytope."""
    names = rng.sample("abcdefghijklmnopqrstuvwxyz", n)
    return {"label": label, "family": family, "n": n, "atoms": names,
            "edges": [[names[a], names[b]] for a, b in graph_edges(family, n)]}


# ---------------------------------------------------------------------------
# random hypergraphs
# ---------------------------------------------------------------------------

def _components(masks) -> list[frozenset[int]]:
    comps: list[tuple[int, set[int]]] = []
    for m in sorted(masks):
        carrier, members, keep = m, {m}, []
        for c, mem in comps:
            if c & m:
                carrier |= c
                members |= mem
            else:
                keep.append((c, mem))
        keep.append((carrier, members))
        comps = keep
    return [frozenset(mem) for _, mem in comps]


class _TooMany(Exception):
    pass


def count_constructions(members: frozenset[int], memo: dict, cap: float) -> int:
    """Deletion recurrence: a connected family contributes, for each atom
    of its carrier, the count with that atom deleted; blocks multiply.
    Raises _TooMany once a partial count exceeds ``cap`` (no subfamily
    has more constructions than its family)."""
    got = memo.get(members)
    if got is not None:
        return got
    comps = _components(members)
    out = 1
    if len(comps) > 1:
        for c in comps:
            out *= count_constructions(c, memo, cap)
            if out > cap:
                raise _TooMany
    elif members:
        carrier = 0
        for m in members:
            carrier |= m
        out = 0
        while carrier:
            low = carrier & -carrier
            carrier ^= low
            out += count_constructions(frozenset(m for m in members if not m & low),
                                       memo, cap)
            if out > cap:
                raise _TooMany
    memo[members] = out
    return out


def saturated_closure(masks: set[int]) -> set[int]:
    """Close under unions of intersecting members: the unions of all
    connected subfamilies, which is the saturated closure."""
    current = set(masks)
    frontier = list(current)
    while frontier:
        added = []
        for a in frontier:
            for b in list(current):
                u = a | b
                if a & b and u not in current:
                    current.add(u)
                    added.append(u)
        frontier = added
    return current


def _hypertree(rng: random.Random, atoms: list[int]) -> set[int]:
    """Members of size 2-4 spanning ``atoms``: each new member shares one
    covered atom; then at most one extra member anywhere on ``atoms``."""
    rest = atoms[:]
    rng.shuffle(rest)
    covered: list[int] = []
    masks = set()
    while rest:
        if covered:
            k = min(len(rest), rng.randint(1, 3))
            pick = [rng.choice(covered)] + rest[:k]
        else:
            k = min(len(rest), rng.randint(2, 4))
            pick = rest[:k]
        rest = rest[k:]
        covered += pick[-k:]
        masks.add(sum(1 << i for i in pick))
    if rng.random() < 0.5 and len(atoms) >= 2:
        masks.add(sum(1 << i for i in rng.sample(atoms, rng.randint(2, min(4, len(atoms))))))
    return masks


def random_spec(rng: random.Random, slot: int) -> dict:
    """An atomic non-graph hypergraph (some member has 3 or more atoms)."""
    n, split, target = RANDOM_KINDS[slot % 3]
    lo, hi = 0.9 * target, 1.1 * target
    names = [f"x{i}" for i in range(n)]
    rng.shuffle(names)
    while True:
        idx = list(range(n))
        rng.shuffle(idx)
        groups = [idx[:n // 2], idx[n // 2:]] if split else [idx]
        masks = {1 << i for i in range(n)}
        for g in groups:
            masks |= _hypertree(rng, g)
        if all(m.bit_count() < 3 for m in masks):
            continue
        # the closure has at least as many members as the input
        try:
            count = count_constructions(frozenset(masks), {}, hi / len(masks))
        except _TooMany:
            continue
        closure = saturated_closure(masks)
        if lo <= count * len(closure) <= hi:
            break
    return {"label": f"r{slot}", "n": n, "atoms": names,
            "members": [[names[i] for i in range(n) if m >> i & 1]
                        for m in sorted(masks)],
            "constructions": count, "closure_members": len(closure),
            "blocks": len(_components(masks))}


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------

def load_oracle() -> dict:
    return json.loads(ORACLE_PATH.read_text(encoding="utf-8"))


def make_plan(workload: str, seed: int) -> dict:
    """The whole input of one pass, as JSON-ready data."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "catalog-cli":
        return {"workload": workload}
    if workload == "poset-ladder":
        rungs = [graph_spec(rng, *r) for r in POSET_RUNGS]
        return {"workload": workload, "rungs": rungs}
    if workload == "realize-mix":
        return {"workload": workload,
                "realize": [graph_spec(rng, *r) for r in REALIZE_RUNGS],
                "iso": [graph_spec(rng, *r) for r in ISO_RUNGS],
                "inputs": [random_spec(rng, i) for i in range(RANDOM_INPUTS)]}
    raise ValueError(f"unknown workload {workload!r}")

