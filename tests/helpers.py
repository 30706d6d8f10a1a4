"""Shared generators for the exhaustive desk-scale tests."""

from __future__ import annotations

import itertools
import string
from typing import Callable, Iterable

from nestohedra import (
    BOTTOM,
    FacePoset,
    abstract_polytope,
    catalog_lookup,
    is_asc,
    saturated_closure,
)
from nestohedra.constructions import _block_fault
from nestohedra.errors import NestohedraError
from nestohedra.facelattice import _induced
from nestohedra.hypergraph import (
    Hypergraph,
    bits_of,
    family_components,
    family_is_connected,
    family_union,
    mask_sort_key,
    members_within,
    set_sort_key,
)
from nestohedra.saturation import _dispensable_mask

ATOMS = ("x", "y", "z", "u")


def frozen(*atom_strings):
    """frozen('x', 'yz') -> frozenset({frozenset({'x'}), frozenset({'y','z'})})"""
    return frozenset(frozenset(s) for s in atom_strings)


def fs(s: str) -> frozenset:
    return frozenset(s)


def all_atomic_hypergraphs(k: int):
    """Every atomic hypergraph on the first ``k`` sample atoms."""
    atoms = ATOMS[:k]
    singles = [frozenset({a}) for a in atoms]
    bigger = [frozenset(c) for r in range(2, k + 1)
              for c in itertools.combinations(atoms, r)]
    for r in range(len(bigger) + 1):
        for combo in itertools.combinations(bigger, r):
            yield Hypergraph.from_sets(singles + list(combo))


def all_asc_hypergraphs(k: int):
    for h in all_atomic_hypergraphs(k):
        if is_asc(h):
            yield h


def all_hypergraphs(k: int):
    """Every hypergraph whose carrier is exactly the first ``k`` atoms."""
    atoms = set(ATOMS[:k])
    subsets = [frozenset(c) for r in range(1, k + 1)
               for c in itertools.combinations(sorted(atoms), r)]
    for r in range(len(subsets) + 1):
        for combo in itertools.combinations(subsets, r):
            if set().union(*combo) == atoms if combo else not atoms:
                yield Hypergraph.from_sets(combo)


def paper_a():
    """The running 4-atom example: path x-y-z-u plus the triple {x,y,z}."""
    return Hypergraph.from_sets(
        [{"x"}, {"y"}, {"z"}, {"u"},
         {"x", "y"}, {"y", "z"}, {"z", "u"}, {"x", "y", "z"}])


def paper_e():
    return Hypergraph.from_sets(
        [{"x", "y"}, {"x", "y", "z"}, {"y", "z"}, {"u"}, {"v"}])


def graph(kind, n):
    """Singletons plus the edges of the path, cycle, star or complete
    graph on ``n`` <= 26 vertices (not saturated)."""
    v = string.ascii_lowercase[:n]
    if kind == "path":
        edges = [(v[i], v[i + 1]) for i in range(n - 1)]
    elif kind == "cycle":
        edges = [(v[i], v[(i + 1) % n]) for i in range(n)]
    elif kind == "star":
        edges = [(v[0], v[i]) for i in range(1, n)]
    else:
        edges = list(itertools.combinations(v, 2))
    # a cycle on one or two vertices is its path
    edges = {frozenset(e) for e in edges if e[0] != e[1]}
    return Hypergraph.from_sets([{a} for a in v] + list(edges))


def random_atomic(rng, k):
    """Singletons on ``k`` <= 6 atoms plus one to four random larger sets."""
    atoms = "abcdef"[:k]
    bigger = [frozenset(c) for r in range(2, k + 1)
              for c in itertools.combinations(atoms, r)]
    extra = rng.sample(bigger, rng.randint(1, 4))
    return Hypergraph.from_sets([{a} for a in atoms] + extra)


# ---------------------------------------------------------------------------
# enumeration oracles: one-atom deletion with de-duplication, and the
# power set of every construction (the library's routes before the
# peeling recursion)
# ---------------------------------------------------------------------------

_ENUM_MEMO: dict[frozenset[int], frozenset[frozenset[int]]] = {}


def _constructions(members: frozenset[int]) -> frozenset[frozenset[int]]:
    got = _ENUM_MEMO.get(members)
    if got is not None:
        return got
    if not members:
        out = frozenset({frozenset()})
    else:
        comps = family_components(members)
        if len(comps) == 1:
            carrier = family_union(members)
            acc: set[frozenset[int]] = set()
            for b in bits_of(carrier):
                bit = 1 << b
                sub = frozenset(m for m in members if not m & bit)
                for k in _constructions(sub):
                    acc.add(k | {carrier})
            out = frozenset(acc)
        else:
            acc = set()
            for combo in itertools.product(*(_constructions(c) for c in comps)):
                acc.add(frozenset().union(*combo))
            out = frozenset(acc)
    _ENUM_MEMO[members] = out
    return out


def oracle_constructions(h):
    """Constructions of an atomic hypergraph by one-atom deletion."""
    return frozenset(h.family(k) for k in _constructions(h.members))


def oracle_constructs(h):
    """All subfamilies of constructions keeping every connected component."""
    tops = frozenset(family_union(c) for c in family_components(h.members))
    acc: set[frozenset[int]] = set()
    for k in _constructions(h.members):
        free = sorted(k - tops)
        for r in range(len(free) + 1):
            for sub in itertools.combinations(free, r):
                acc.add(frozenset(sub) | tops)
    return frozenset(h.family(c) for c in acc)


def oracle_block_constructions(members, carrier):
    """Constructions of a saturated connected block by brute force: every
    subfamily of carrier size that the block check accepts."""
    return frozenset(frozenset(k) for k in itertools.combinations(sorted(members),
                                                               carrier.bit_count())
                     if _block_fault(members, carrier, k) is None)


def reference_vertex_rows(h):
    """(construction, incidence row) pairs of an atomic hypergraph's
    realization, constructions from the deletion oracle sorted by the
    sorted ``mask_sort_key`` list of their member masks, each row saying
    which non-block members of the closure (in canonical order) the
    construction holds."""
    hbar = saturated_closure(h)
    tops = {family_union(c) for c in family_components(hbar.members)}
    cons = sorted(_constructions(hbar.members),
                  key=lambda k: sorted(mask_sort_key(m) for m in k))
    facets = [m for m in sorted(hbar.members, key=mask_sort_key) if m not in tops]
    return [(hbar.family(k), tuple(m in k for m in facets)) for k in cons]


def _forest(k: Iterable[int]) -> dict[int, tuple[int, int]]:
    """Parent and root atom of each member mask of a construction.

    The parent of X is the smallest member strictly containing X, or 0
    when X is a top; X's children are the members whose parent is X.
    The root is the index of the one atom of X in none of its children.
    """
    ms = sorted(k, key=int.bit_count)
    inner = dict.fromkeys(ms, 0)  # union of the children, smallest first
    out = {}
    for i, m in enumerate(ms):
        root = m & ~inner[m]
        if not root or root & (root - 1):
            raise NestohedraError("internal error: non-unique root")
        parent = next((o for o in ms[i + 1:] if m & ~o == 0), 0)
        if parent:
            inner[parent] |= m
        out[m] = (parent, root.bit_length() - 1)
    return out


def oracle_read_forest(h: Hypergraph, masks: Iterable[int],
                       node: Callable[[str, list], object], top: Callable[[list], object]):
    """Read the construction with the already-checked member ``masks`` off
    its forest bottom up, with ``node(root atom, child results)`` per
    member and ``top`` on the trees (the library's route before the
    by-size sweep: a parent map, then recursion from the tops)."""
    forest = _forest(masks)
    children: dict[int, list[int]] = {}
    for m, (parent, _) in forest.items():
        children.setdefault(parent, []).append(m)

    def read(m: int):
        return node(h.atoms[forest[m][1]], [read(c) for c in children.get(m, ())])

    return top([read(t) for t in children.get(0, ())])


def oracle_coordinates(k, n):
    """The vertex of the construction with member masks ``k``, read off
    its forest: the root atom of each member X gets 3**|X| minus 3**|Y|
    summed over the children Y of X, so the sum over every member
    telescopes to 3**|X|.  It builds the parent map first, independent
    of the library's child-level sweep, which keeps only the trees read
    so far and replaces a member's children by the member."""
    forest = _forest(k)
    out = [0] * n
    for m, (parent, root) in forest.items():
        out[root] += 3 ** m.bit_count()
        if parent:
            out[forest[parent][1]] -= 3 ** m.bit_count()
    for m, (_, root) in forest.items():
        # the root coordinate always clears the next-lower level, so no
        # coordinate is below 3
        if m.bit_count() >= 2 and out[root] <= 3 ** (m.bit_count() - 1):
            raise NestohedraError("internal error: peeled coordinate too small")
    return tuple(out)


def oracle_faces(rp) -> set:
    """Every subset of every vertex's set of incident facet supports,
    rebuilt from ``rp.incidence`` one bitmask per subset (the library's
    route before the doubling power set)."""
    supports = [spec.support for spec in rp.facet_specs]
    faces = set()
    for row in rp.incidence:
        items = sorted((s for s, on in zip(supports, row) if on), key=set_sort_key)
        for bits in range(1 << len(items)):
            faces.add(frozenset(items[i] for i in range(len(items))
                                if bits >> i & 1))
    return faces


# ---------------------------------------------------------------------------
# saturation oracles: the walk over every carrier subset of two or more
# atoms, and greedy deletion of dispensable members (the library's routes
# before the union closure)
# ---------------------------------------------------------------------------

def _subsets_of_two_or_more(n: int):
    """Masks of the subsets of ``range(n)`` with at least two elements,
    by increasing cardinality."""
    for size in range(2, n + 1):
        for combo in itertools.combinations(range(n), size):
            mask = 0
            for i in combo:
                mask |= 1 << i
            yield mask


def oracle_saturated_closure(h):
    """Least fixpoint of adding every dispensable subset.

    Walks the carrier subsets by increasing cardinality, adding Y as a
    member whenever the members inside Y are connected with union Y; one
    pass suffices because only strictly smaller members can witness Y.
    """
    current = set(h.members)
    for mask in _subsets_of_two_or_more(h.n_atoms):
        if mask in current:
            continue
        if family_is_connected(members_within(current, mask), mask):
            current.add(mask)
    return Hypergraph(h.atoms, current)


def oracle_bare_kernel(h):
    """Delete dispensable members greedily, smallest first, until none
    remains."""
    current = set(h.members)
    while True:
        victim = None
        for m in sorted(current, key=mask_sort_key):
            if _dispensable_mask(frozenset(current), m):
                victim = m
                break
        if victim is None:
            return Hypergraph(h.atoms, current)
        current.remove(victim)


def oracle_dispensable_subsets(h):
    """All carrier subsets dispensable in ``h``, by testing each one."""
    out = []
    for mask in _subsets_of_two_or_more(h.n_atoms):
        if _dispensable_mask(h.members, mask):
            out.append(h.atom_set(mask))
    return frozenset(out)


L = frozen("u", "zu", "yzu", "xyzu")
M = frozen("y", "u", "yzu", "xyzu")
N = frozen("x", "u", "zu", "xyzu")


# ---------------------------------------------------------------------------
# labelled graphs up to isomorphism
# ---------------------------------------------------------------------------

def graphs_up_to_iso(n: int, connected_only: bool):
    """Edge sets of graphs on ``n`` vertices, one per isomorphism class."""
    verts = ATOMS[:n] if n <= 4 else tuple("abcde"[:n])
    all_edges = [frozenset(e) for e in itertools.combinations(verts, 2)]
    seen = set()
    for r in range(len(all_edges) + 1):
        for combo in itertools.combinations(all_edges, r):
            edges = frozenset(combo)
            canon = min(
                tuple(sorted(tuple(sorted((perm[a], perm[b])))
                             for a, b in map(sorted, edges)))
                for perm in (dict(zip(verts, p))
                             for p in itertools.permutations(verts)))
            if canon in seen:
                continue
            seen.add(canon)
            if connected_only and not _graph_connected(verts, edges):
                continue
            yield verts, edges


def _graph_connected(verts, edges) -> bool:
    if not verts:
        return True
    reached = {verts[0]}
    frontier = [verts[0]]
    while frontier:
        v = frontier.pop()
        for e in edges:
            if v in e:
                (w,) = e - {v}
                if w not in reached:
                    reached.add(w)
                    frontier.append(w)
    return len(reached) == len(verts)


# ---------------------------------------------------------------------------
# hand-built posets for the negative axiom corpus
# ---------------------------------------------------------------------------

def _delete_face(p: FacePoset, face) -> FacePoset:
    """The sub-order induced on every face but ``face``."""
    return _induced(p, ((1 << len(p.faces)) - 1) & ~(1 << p.index(face)))


def negative_posets() -> list[tuple[str, FacePoset]]:
    """Mutated posets that are not abstract polytopes."""
    out = []
    assoc = abstract_polytope(catalog_lookup("H'_4321").hypergraph)

    edge = next(f for f, r in zip(assoc.faces, assoc.ranks) if r == 1)
    out.append(("associahedron minus an edge face", _delete_face(assoc, edge)))

    vertex = next(f for f, r in zip(assoc.faces, assoc.ranks) if r == 0)
    out.append(("associahedron minus a vertex face", _delete_face(assoc, vertex)))

    # two triangles glued at one shared vertex, one global top
    vs = ["a", "b", "c", "d", "e"]
    es = ["ab", "bc", "ac", "ad", "de", "ae"]
    faces = [("bot", -1)] + [(v, 0) for v in vs] + [(e, 1) for e in es] + [("top", 2)]
    covers = [("bot", v) for v in vs]
    covers += [(e[0], e) for e in es] + [(e[1], e) for e in es]
    covers += [(e, "top") for e in es]
    out.append(("two triangles sharing a vertex",
                FacePoset.from_covers(faces, covers)))

    # a flag-skipping chain: one vertex hangs directly under the top
    faces = [("bot", -1), ("v", 0), ("w", 0), ("e", 1), ("top", 2)]
    covers = [("bot", "v"), ("bot", "w"), ("v", "e"), ("e", "top"), ("w", "top")]
    out.append(("vertex directly under the top", FacePoset.from_covers(faces, covers)))

    # no greatest face
    faces = [("bot", -1), ("a", 0), ("b", 0)]
    covers = [("bot", "a"), ("bot", "b")]
    out.append(("two maximal faces", FacePoset.from_covers(faces, covers)))

    # no least face
    faces = [("a", -1), ("b", -1), ("v", 0), ("top", 1)]
    covers = [("a", "v"), ("b", "v"), ("v", "top")]
    out.append(("no least face", FacePoset.from_covers(faces, covers)))

    # a rank-1 polytope with a single vertex
    faces = [("bot", -1), ("a", 0), ("top", 1)]
    covers = [("bot", "a"), ("a", "top")]
    out.append(("one-vertex segment", FacePoset.from_covers(faces, covers)))

    return out


def diamond_poset() -> FacePoset:
    """The unique rank-1 polytope: bottom, two vertices, top."""
    faces = [("bot", -1), ("a", 0), ("b", 0), ("top", 1)]
    covers = [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")]
    return FacePoset.from_covers(faces, covers)
