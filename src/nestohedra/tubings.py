"""Graphs as hypergraphs and the tubing notion.

A graph is carried as the saturated closure of singletons, edges (as
two-element members) and the full vertex set; the closure's members are
the usual connected subsets plus the full set.  A tubing is a member
family whose pairs neither overlap nor sit next to an edge, containing
the full vertex set, and (for loose graphs) not containing the whole
block partition.  For graphs, tubings coincide with constructs; the
equivalence checker below exercises exactly that, and the notion does
not extend to general hypergraphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import (
    BadEdgeError,
    CarrierTooLargeError,
    EmptyCarrierError,
    NestohedraError,
    NotTubesError,
)
from .constructions import _ensure_asc, _masks_in, antichains_all_miss
from .hypergraph import (
    AtomSet,
    Family,
    Hypergraph,
    bits_of,
    family_components,
    family_union,
    mask_sort_key,
)
from .saturation import saturated_closure


@dataclass(frozen=True)
class GraphHypergraph:
    """The saturated closure of a graph, as ``underlying``.  It adds
    nothing, and stays only while ``perfbench/`` reads ``.underlying``."""

    underlying: Hypergraph


def as_graph(edges: Iterable[Iterable[str]], atoms: Iterable[str]) -> GraphHypergraph:
    """Close singletons, edges and the full vertex set under saturation."""
    atom_list = sorted(set(atoms))
    if not atom_list:
        raise EmptyCarrierError("a graph needs at least one vertex")
    atom_set = set(atom_list)
    fams = {frozenset({a}) for a in atom_list}
    for e in edges:
        pair = frozenset(e)
        if len(pair) != 2 or not pair <= atom_set:
            raise BadEdgeError(f"bad edge {sorted(pair)}")
        fams.add(pair)
    fams.add(frozenset(atom_list))
    base = Hypergraph.from_sets(fams, carrier=atom_list)
    return GraphHypergraph(saturated_closure(base))


def graph_from_text(text: str) -> GraphHypergraph:
    """Edge-list format: one ``x-y`` edge per line; a bare ``x`` line
    declares an isolated vertex; ``#`` starts a comment."""
    return as_graph(*_parse_edges(text))


def _parse_edges(text: str) -> tuple[set[frozenset[str]], set[str]]:
    """The edges and vertices of an edge list, before any saturation."""
    atoms: set[str] = set()
    edges: set[frozenset[str]] = set()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split("-")]
        if len(parts) == 1:
            atoms.add(parts[0])
        elif len(parts) == 2:
            if not parts[0] or not parts[1]:
                raise BadEdgeError(f"bad edge line {raw!r}")
            atoms.update(parts)
            edges.add(frozenset(parts))
        else:
            raise BadEdgeError(f"bad edge line {raw!r}")
    return edges, atoms


def is_graph_hypergraph(h: Hypergraph) -> bool:
    """Is ``h`` the closure of singletons, pairs and the full carrier,
    that is, what ``as_graph`` builds from its two-atom members?"""
    if not h.atoms:
        return False
    edges = [h.atom_set(m) for m in h.members if m.bit_count() == 2]
    return as_graph(edges, h.atoms).underlying == h


def is_loose(g: GraphHypergraph) -> tuple[bool, frozenset[AtomSet]]:
    """Looseness plus the block partition of the graph minus its top.

    Loose means the members other than the full vertex set fall apart
    into two or more blocks, i.e. the full set is not dispensable.  A
    single-vertex graph has no members besides its top and counts as
    not loose.
    """
    h = g.underlying
    rest = [m for m in h.members if m != h.carrier_mask]
    comps = family_components(rest)
    blocks = frozenset(h.atom_set(family_union(c)) for c in comps)
    return len(comps) >= 2, blocks


def _clash(a: int, b: int, members: frozenset[int]) -> bool:
    """Are the member masks ``a`` and ``b`` overlapping (intersecting,
    neither inside the other) or adjacent (disjoint, with a member as
    their union)?  No tubing holds such a pair."""
    c = a & b
    if c:
        return c != a and c != b
    return (a | b) in members


def is_tubing(g: GraphHypergraph, t: Iterable[Iterable[str]]) -> bool:
    """Pairwise non-overlapping and non-adjacent members of the graph,
    containing the full vertex set, avoiding the whole loose partition."""
    h = g.underlying
    found = _masks_in(h, t, h.members)
    if isinstance(found, str):
        raise NotTubesError("a tubing may only use members of the graph")
    return _is_tubing(h, sorted(set(found)))


def _is_tubing(h: Hypergraph, masks: list[int]) -> bool:
    """``is_tubing`` on distinct member masks of the graph's closure ``h``."""
    top = h.carrier_mask
    for i, a in enumerate(masks):
        for b in masks[i + 1:]:
            c = a & b  # ``_clash`` inline: it runs for every pair of every walked family
            if (c != a and c != b) if c else (a | b) in h.members:
                return False
    if top not in masks:
        return False
    # Compatible tubes below the top cover every vertex only when the maximal
    # ones are a loose graph's blocks: two would be adjacent through the top,
    # and three or more connected tubes with no edge between are components.
    return family_union(m for m in masks if m != top) != top


@dataclass(frozen=True)
class TubingEquivalenceReport:
    ok: bool
    counterexample: Family | None
    pairs_checked: int
    families_checked: int


def _check_cap(n_atoms: int, cap: int) -> None:
    if n_atoms > cap:
        raise CarrierTooLargeError(
            f"carrier of size {n_atoms} exceeds the cap {cap}")


def tubings_equal_constructs(g: GraphHypergraph, cap: int = 6) -> TubingEquivalenceReport:
    """Compare the tubing predicate with the construct predicate over all
    member subsets containing the full vertex set.

    Subsets holding an overlapping or adjacent pair fail both predicates
    outright; that is verified once per pair (the pair is an antichain
    whose union is a member), after which only pairwise-compatible
    subsets need the full walk.  Row ``compatible[i]`` holds the bits of
    the later members compatible with member i; the walk extends a
    subset by each bit of ``cand & compatible[i]``, lowest first, and
    feeds every subset through both predicates in full.
    """
    h = g.underlying
    _check_cap(h.n_atoms, cap)
    _ensure_asc(h)
    others = [m for m in sorted(h.members, key=mask_sort_key) if m != h.carrier_mask]
    n = len(others)

    pairs_checked = 0
    compatible = [0] * n
    for i in range(n):
        a = others[i]
        for j in range(i + 1, n):
            b = others[j]
            if _clash(a, b, h.members):
                pairs_checked += 1
                # both sides reject any family with this pair: the pair is
                # incomparable and its union is a member (for overlaps the
                # closure supplies it)
                if (a & b) in (a, b) or (a | b) not in h.members:
                    raise NestohedraError(
                        "internal error: bad pair is not a failing antichain")
            else:
                compatible[i] |= 1 << j

    families_checked = 0
    counterexample: Family | None = None

    def walk(cand: int, chosen: list[int]) -> bool:
        # every family holds the carrier, so the construct test is the
        # antichain test alone
        nonlocal families_checked, counterexample
        masks = [*chosen, h.carrier_mask]
        families_checked += 1
        if _is_tubing(h, masks) != antichains_all_miss(h.members, masks):
            counterexample = h.family(masks)
            return False
        for i in bits_of(cand):
            if not walk(cand & compatible[i], [*chosen, others[i]]):
                return False
        return True

    ok = walk((1 << n) - 1, [])
    return TubingEquivalenceReport(ok=ok, counterexample=counterexample,
                                   pairs_checked=pairs_checked,
                                   families_checked=families_checked)
