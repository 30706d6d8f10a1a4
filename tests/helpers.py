"""Shared generators for the exhaustive desk-scale tests, the oracles,
the differential corpus and the route table that holds each production
route against its oracle."""

from __future__ import annotations

import functools
import itertools
import random
import string
from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress, repeat
from math import comb
from operator import eq
from typing import Callable, Iterable, Sequence

import pytest

from nestohedra import (
    BOTTOM, FacePoset, abstract_polytope, bare_kernel, catalog, catalog_lookup, continuation,
    count_constructions, dispensable_subsets, enumerate_constructions, enumerate_constructs,
    f_vector, face_label, face_lattice_isomorphic, facet_section, finest_partition, is_asc,
    is_atomic, is_construction, join, meet, otimes, quotient, realize, restriction,
    saturated_closure, section, to_f_construction, to_s_construction, verify_axioms,
    verify_inductive)
from nestohedra.axioms import VerificationReport
from nestohedra.constructions import (
    EMPTY, Prefix, _antichain_constructions, _block_fault, _f_vector_and_rank, _peel, _word,
    _word_text, make_sum)
from nestohedra.errors import (
    BadFactorError, CarrierOverlapError, HypergraphError, MalformedPosetError, NestohedraError,
    NotComparableError)
from nestohedra.facelattice import Row, _induced, _labelled, _transpose, _up_rows
from nestohedra.hypergraph import (
    Hypergraph, bits_of, family_components, family_union, mask_sort_key,
    members_within, set_sort_key)
from nestohedra.realization import _coordinates, _sums_fault
from nestohedra.saturation import _dispensable_mask

ATOMS = ("x", "y", "z", "u")


def frozen(*atom_strings):
    """frozen('x', 'yz') -> frozenset({frozenset({'x'}), frozenset({'y','z'})})"""
    return frozenset(frozenset(s) for s in atom_strings)


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


def abar():
    """The saturated closure of ``paper_a``: the 3-D associahedron."""
    return saturated_closure(paper_a())


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

@functools.cache
def _constructions(members: frozenset[int]) -> frozenset[frozenset[int]]:
    if not members:
        return frozenset({frozenset()})
    comps = family_components(members)
    if len(comps) > 1:
        return frozenset(frozenset().union(*combo)
                         for combo in itertools.product(*map(_constructions, comps)))
    carrier = family_union(members)
    return frozenset(k | {carrier} for b in bits_of(carrier)
                     for k in _constructions(frozenset(m for m in members if not m >> b & 1)))


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
    """(construction, incidence row, equation signs) triples of an
    atomic hypergraph's realization, constructions from the deletion
    oracle sorted by the sorted ``mask_sort_key`` list of their member
    masks.  The row says which non-block members of the closure (in
    canonical order) the construction holds.  The signs are the defining
    equations: over every member X of the closure (in canonical order) a
    vertex sums to exactly 3**|X| (sign 0) when X is in its
    construction, block tops included, and to more (sign 1) otherwise;
    these equations fix the point."""
    hbar = saturated_closure(h)
    tops = {family_union(c) for c in family_components(hbar.members)}
    cons = sorted(_constructions(hbar.members),
                  key=lambda k: sorted(mask_sort_key(m) for m in k))
    order = sorted(hbar.members, key=mask_sort_key)
    facets = [m for m in order if m not in tops]
    return [(hbar.family(k), tuple(m in k for m in facets),
             tuple(int(m not in k) for m in order)) for k in cons]


def reference_incidence(h):
    """``realize(h)``'s incidence rows rebuilt from its vertices: a row
    marks each facet support that its construction's family holds."""
    rp = realize(h)
    return tuple(tuple(spec.support in fam for spec in rp.facet_specs)
                 for fam, _ in rp.vertices)


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
        # X's children are disjoint and cover |X| - 1 atoms, so their
        # levels sum to at most 3**(|X| - 1) and the root gets at least
        # 2 * 3**(|X| - 1) (row coordinate-floor): this guard cannot fire
        # on a construction, and no coordinate is below 3
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
        inner = members_within(current, mask)
        if family_union(inner) == mask and len(family_components(inner)) <= 1:
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
    """Edge sets of graphs on ``n`` <= 6 vertices, one per isomorphism
    class."""
    verts = ATOMS[:n] if n <= 4 else tuple("abcdef"[:n])
    for edges in _graph_classes(n):
        if not connected_only or _graph_connected(verts, edges):
            yield verts, edges


@functools.cache
def _graph_classes(n: int) -> tuple[frozenset, ...]:
    """One edge set per isomorphism class of graphs on ``n`` <= 6
    vertices, by edge count.  Up to five vertices every edge set is
    tried against every vertex permutation.  Six vertices extend each
    five-vertex class by a sixth vertex ``f`` with every neighbour set
    (a graph minus a vertex is in some five-vertex class): an edge set
    is a 15-bit mask over the vertex pairs, named by the least mask a
    vertex permutation gives it, and each class keeps that least mask."""
    if n > 6:
        raise ValueError("graphs up to isomorphism on at most 6 vertices")
    if n == 6:
        return _six_vertex_classes()
    verts = ATOMS[:n] if n <= 4 else tuple("abcde")
    all_edges = [frozenset(e) for e in itertools.combinations(verts, 2)]
    seen = set()
    out = []
    for r in range(len(all_edges) + 1):
        for combo in itertools.combinations(all_edges, r):
            edges = frozenset(combo)
            canon = min(
                tuple(sorted(tuple(sorted((perm[a], perm[b])))
                             for a, b in map(sorted, edges)))
                for perm in (dict(zip(verts, p))
                             for p in itertools.permutations(verts)))
            if canon not in seen:
                seen.add(canon)
                out.append(edges)
    return tuple(out)


def _six_vertex_classes() -> tuple[frozenset, ...]:
    verts = tuple("abcdef")
    pairs = list(itertools.combinations(range(6), 2))
    bit = {p: 1 << i for i, p in enumerate(pairs)}
    # per vertex permutation, the image of every low byte and every high
    # 7 bits of a mask, one pair bit at a time doubling the table
    tables = []
    for perm in itertools.permutations(range(6)):
        lo, hi = [0], [0]
        for i, (a, b) in enumerate(pairs):
            t = lo if i < 8 else hi
            t += [x | bit[min(perm[a], perm[b]), max(perm[a], perm[b])] for x in t]
        tables.append((lo, hi))
    least = set()
    for edges in _graph_classes(5):
        base = sum(bit[tuple(sorted(map(verts.index, e)))] for e in edges)
        for nbrs in range(32):
            mask = base | sum(bit[v, 5] for v in bits_of(nbrs))
            least.add(min(lo[mask & 255] | hi[mask >> 8] for lo, hi in tables))
    return tuple(frozenset(frozenset((verts[a], verts[b]))
                           for i, (a, b) in enumerate(pairs) if mask >> i & 1)
                 for mask in sorted(least, key=lambda m: (m.bit_count(), m)))


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
    drop = p.index(face)
    return _induced(p, [i for i in range(len(p.faces)) if i != drop])


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


def oracle_lattice_ops(p: FacePoset) -> tuple[Callable, Callable, Callable]:
    """``meet``, ``join`` and ``section`` on ``p`` as they read the
    transposed rows, made once here: of the faces in the rows of both
    (down-sets for the meet, up-sets for the join), the first by
    descending (ascending) rank whose own row holds them all, and the
    section keeps the faces above f and below g."""
    below = _transpose(p._above)

    def bound(rows: Sequence[Row], sign: int, what: str) -> Callable:
        def op(_: FacePoset, c1, c2):
            i, j = p.index(c1), p.index(c2)
            common = sorted(set(rows[i]).intersection(rows[j]))
            for k in sorted(common, key=lambda x: sign * p.ranks[x]):
                if set(rows[k]).issuperset(common):
                    return p.faces[k]
            raise NestohedraError(f"faces have no {what}")
        return op

    def section_op(_: FacePoset, g, f) -> FacePoset:
        fi, gi = p.index(f), p.index(g)
        if gi not in p._above[fi]:
            raise NotComparableError("section endpoints are not comparable")
        return _induced(p, set(p._above[fi]).intersection(below[gi]), p.ranks[fi] + 1)

    return bound(below, -1, "meet"), bound(p._above, 1, "join"), section_op


def lattice_outcomes(p: FacePoset, meet_op: Callable, join_op: Callable,
                     section_op: Callable) -> list:
    """The meet, the join and the section of every ordered pair of faces
    of ``p``: the face (a section's fields), or the type and message of
    the ``NestohedraError`` raised."""
    out = []
    for a in p.faces:
        for b in p.faces:
            for op in (meet_op, join_op, section_op):
                try:
                    got = op(p, a, b)
                except NestohedraError as err:
                    got = (type(err), str(err))
                out.append(_poset_fields(got) if isinstance(got, FacePoset) else got)
    return out


# ---------------------------------------------------------------------------
# the axiom checkers as they read the transposed rows, and poset isomorphism
# ---------------------------------------------------------------------------

def reference_order_fault(p: FacePoset) -> str:
    """Why the order is not a partial order with ranks strictly monotone
    on it; empty when it is.  Each row is checked against the others'
    rows as sets, assuming nothing of how the poset was built: the scan
    that ``axioms._order_fault`` falls back on when its proof over the
    cover rows fails."""
    rows = [frozenset(row) for row in p._above]
    for i, above in enumerate(rows):
        if i not in above:
            return "order is not reflexive"
        for j in p._above[i]:
            if j == i:
                continue
            if i in rows[j]:
                return "order is not antisymmetric"
            if not rows[j] <= above:
                return "order is not transitive"
            if p.ranks[j] <= p.ranks[i]:
                return f"rank does not increase from {p._labels[i][0]} to {p._labels[j][0]}"
    return ""


def _reference_preamble(p: FacePoset, below: Sequence[Row],
                        label: str) -> tuple[bool, list[tuple[str, tuple[str, ...]]]]:
    """The checks both checkers start with: a well-formed order, then a
    unique least and greatest face.  Returns that verdict and the
    counterexamples (up to four least and greatest faces under ``label``
    on failure).  The least and greatest faces are read off the rows and
    their transpose ``below``, and the verdict is not kept on the poset."""
    fault = reference_order_fault(p)
    if fault:
        raise MalformedPosetError(fault)
    n = len(p.faces)
    bottoms = [i for i in range(n) if len(p._above[i]) == n]
    tops = [i for i in range(n) if len(below[i]) == n]
    counter: list[tuple[str, tuple[str, ...]]] = []
    bounded = len(bottoms) == 1 and len(tops) == 1
    if not bounded:
        witness = tuple(p._labels[i][0] for i in (bottoms + tops)[:4])
        counter.append((label, witness))
    return bounded, counter


def _reference_disconnected_sections(p: FacePoset, up: Sequence[Row],
                                     down: Sequence[Row]) -> tuple[int, list[tuple[int, int]]]:
    """The number of sections of rank >= 2 checked for strong
    connectedness, and the (f, g) index pairs of those that fail, in order.

    Every face strictly between f and g lies above an atom (a cover of f
    below g) and below a coatom (a face covered by g above f), so the
    open interval is connected exactly when the coatoms' atom sets,
    merged while any two overlap, become one set: all the atoms.  The
    covers of f are numbered locally, and each face above f gets the
    small mask of those lying below it (-1 marks the faces not above f).
    The version that resets every mask to -1 after each f: the reference
    for the section scan ``verify_axioms`` runs on the marks of
    ``axioms._intervals``.
    """
    ranks, above = p.ranks, p._above
    atoms_below = [-1] * len(p.faces)
    checked = 0
    failed: list[tuple[int, int]] = []
    for f, above_f in enumerate(above):
        floor = ranks[f] + 3
        tops = [g for g in above_f if ranks[g] >= floor]
        if not tops:
            continue
        for x in above_f:
            atoms_below[x] = 0
        for t, u in enumerate(up[f]):
            for x in above[u]:
                atoms_below[x] |= 1 << t
        for g in tops:
            checked += 1
            # when g covers f, f is the only coatom and the interval is empty
            sets = [atoms_below[c] for c in down[g] if atoms_below[c] >= 0]
            if len(sets) <= 1:
                continue
            lows = atoms_below[g]
            merged, last = sets[0], 0
            while merged != last and merged != lows:
                last = merged
                for atoms in sets:
                    if atoms & merged:
                        merged |= atoms
            if merged != lows:
                failed.append((f, g))
        for x in above_f:
            atoms_below[x] = -1
    return checked, failed


def reference_verify_axioms(p: FacePoset) -> VerificationReport:
    """Check the least/greatest, flag-length, strong-connectedness and
    diamond properties, reporting witnesses for each failure: the
    checker that read its greatest and minimal faces off the transposed
    rows, ``verify_axioms``'s reference."""
    below = _transpose(p._above)
    p1, counter = _reference_preamble(p, below, "P1")
    n = len(p.faces)
    r = p.rank
    ranks = p.ranks

    # flags: maximal chains along covers from the minimal faces.  Each
    # face keeps the lengths of the chains from it to a maximal face,
    # with their numbers, so no flag is walked one by one.
    up, down = p._cover_rows()
    tails: list[dict[int, int]] = [{}] * n
    for i in sorted(range(n), key=lambda i: -ranks[i]):
        if not up[i]:
            tails[i] = {1: 1}
            continue
        tail: dict[int, int] = {}
        for j in up[i]:
            for length, count in tails[j].items():
                tail[length + 1] = tail.get(length + 1, 0) + count
        tails[i] = tail
    minimals = [i for i in range(n) if len(below[i]) == 1]
    expected = r + 2
    flags_checked = sum(sum(tails[i].values()) for i in minimals)
    p2 = all(tails[i].keys() == {expected} for i in minimals)
    if not p2:
        # the first bad flag in depth-first order, last cover first
        def bad(i: int, depth: int) -> bool:
            return any(depth + length != expected for length in tails[i])

        i, depth = next(i for i in reversed(minimals) if bad(i, 0)), 1
        while up[i]:
            i = next(j for j in reversed(up[i]) if bad(j, depth))
            depth += 1
        counter.append(("P2", (p._labels[i][0], f"length {depth}")))

    # strong connectedness: only sections of rank >= 2 need a check
    sections_checked, disconnected = _reference_disconnected_sections(p, up, down)
    p3 = not disconnected
    for f, g in disconnected:
        counter.append(("P3", (p._labels[f][0], p._labels[g][0])))

    # diamond: exactly two faces strictly between any rank-gap-2 pair.
    # Ranks rise strictly along the order, so those faces are the middles
    # of the two-step cover paths, and a face two ranks up with none
    # covers f directly.
    p4 = True
    for f in range(n):
        want = ranks[f] + 2
        between = {g: 0 for g in up[f] if ranks[g] == want}
        for c in up[f]:
            for g in up[c]:
                if ranks[g] == want:
                    between[g] = between.get(g, 0) + 1
        for g in sorted(between):
            if between[g] != 2:
                p4 = False
                counter.append(("P4", (p._labels[f][0], p._labels[g][0],
                                       f"{between[g]} between")))

    return VerificationReport(p1, p2, p3, p4, r, tuple(counter),
                              flags_checked, sections_checked)


def reference_verify_inductive(p: FacePoset) -> VerificationReport:
    """Rebuild the poset rank by rank.

    The down-set of every face of rank k >= 1 must be assembled from its
    rank k-1 faces: those cover everything below (p2), share each rank
    k-2 face exactly twice (p4, bivalence) and hang together through
    shared rank k-2 faces (p3, close connectedness).  Rank -1 and 0
    down-sets must be the one- and two-face base posets.  Ranks rise
    strictly along the order, so a face's facets are its down-covers
    one rank down, and their ridges are theirs.  This is the checker
    that read every down-set off the transposed rows and walked the
    facets sharing a ridge; ``verify_inductive``'s reference.
    """
    below = _transpose(p._above)
    p1, counter = _reference_preamble(p, below, "bounds")
    n = len(p.faces)
    r = p.rank
    ranks = p.ranks
    _, down = p._cover_rows()

    p2 = p3 = p4 = True
    sections_checked = 0

    for i in sorted(range(n), key=lambda i: ranks[i]):
        rk = ranks[i]
        bel = below[i]
        if rk == -1:
            if bel != (i,):
                p2 = False
                counter.append(("base-rank-minus-1", (p._labels[i][0],)))
            continue
        if rk == 0:
            if len(bel) != 2 or any(ranks[j] != -1 for j in bel if j != i):
                p2 = False
                counter.append(("base-rank-0", (p._labels[i][0],)))
            continue
        sections_checked += 1
        facets = [f for f in down[i] if ranks[f] == rk - 1]
        if not facets:
            p2 = False
            counter.append(("facet-coverage", (p._labels[i][0], "no facets")))
            continue
        # coverage: everything strictly below must sit inside a facet.
        # Each face below i lies under a face i covers, so that holds
        # exactly when i covers facets only.
        missing: list[int] = []
        if len(facets) != len(down[i]):
            p2 = False
            covered = set().union(*(below[f] for f in facets))
            missing = [j for j in bel if j != i and j not in covered]
            counter.append(("facet-coverage", (p._labels[i][0], p._labels[missing[0]][0])))
        # the rank k-2 faces below i, each with the facets holding it:
        # the facets' own down-covers, and the missing ones in none
        holders: dict[int, list[int]] = {y: [] for y in missing if ranks[y] == rk - 2}
        for f in facets:
            for y in down[f]:
                if ranks[y] == rk - 2:
                    holders.setdefault(y, []).append(f)
        # bivalence: every rank k-2 face below i lies in exactly 2 facets
        for y in sorted(holders):
            if len(holders[y]) != 2:
                p4 = False
                counter.append(("bivalence", (p._labels[i][0], p._labels[y][0],
                                              f"in {len(holders[y])} facets")))
        # close connectedness through shared rank k-2 faces
        if len(facets) > 1:
            reached = {facets[0]}
            frontier = [facets[0]]
            while frontier:
                for y in down[frontier.pop()]:
                    for v in holders.get(y, ()):
                        if v not in reached:
                            reached.add(v)
                            frontier.append(v)
            if len(reached) != len(facets):
                p3 = False
                counter.append(("close-connectedness", (p._labels[i][0],)))

    return VerificationReport(p1, p2, p3, p4, r, tuple(counter),
                              0, sections_checked)


def _reports(p: FacePoset, *checkers) -> list:
    """Each checker's report on ``p`` as a dict, or the message of the
    ``MalformedPosetError`` it raised."""
    out = []
    for verify in checkers:
        try:
            out.append(verify(p).to_dict())
        except MalformedPosetError as err:
            out.append(str(err))
    return out


def poset_isomorphic(p1: FacePoset, p2: FacePoset) -> bool:
    """Order-preserving bijection test by signature refinement plus
    backtracking; meant for posets of a few hundred faces at most."""
    n = len(p1.faces)
    if n != len(p2.faces) or sorted(p1.ranks) != sorted(p2.ranks):
        return False

    def signatures(p: FacePoset) -> list:
        up, down = p._cover_rows()
        sig = list(p.ranks)
        for _ in range(3):
            get = sig.__getitem__
            sig = [hash((sig[i], tuple(sorted(map(get, up[i]))),
                         tuple(sorted(map(get, down[i])))))
                   for i in range(len(p.faces))]
        return sig

    s1, s2 = signatures(p1), signatures(p2)
    if sorted(s1) != sorted(s2):
        return False
    cands = {i: [j for j in range(n) if s2[j] == s1[i]] for i in range(n)}
    order = sorted(range(n), key=lambda i: len(cands[i]))
    assigned: dict[int, int] = {}
    used: set[int] = set()
    rows1 = [frozenset(row) for row in p1._above]
    rows2 = [frozenset(row) for row in p2._above]

    def fits(i: int, j: int) -> bool:
        for a, b in assigned.items():
            if (a in rows1[i]) != (b in rows2[j]):
                return False
            if (i in rows1[a]) != (j in rows2[b]):
                return False
        return True

    def backtrack(pos: int) -> bool:
        if pos == n:
            return True
        i = order[pos]
        for j in cands[i]:
            if j not in used and fits(i, j):
                assigned[i] = j
                used.add(j)
                if backtrack(pos + 1):
                    return True
                del assigned[i]
                used.discard(j)
        return False

    return backtrack(0)


def is_isomorphism(p: FacePoset, q: FacePoset, phi: Callable) -> bool:
    """Whether the face map ``phi`` is an isomorphism of ``p`` onto
    ``q``: it sends the faces of ``p`` one-to-one onto those of ``q``
    and the bottom to the bottom, keeps ranks, and sends each face's
    up-set row onto its image's row."""
    image = [phi(f) for f in p.faces]
    if len(set(image)) != len(image) or set(image) != set(q.faces):
        return False
    at = [q.index(g) for g in image]
    return (all((f is BOTTOM) == (g is BOTTOM) for f, g in zip(p.faces, image))
            and [q.ranks[j] for j in at] == list(p.ranks)
            and all({at[k] for k in row} == set(q._above[at[i]])
                    for i, row in enumerate(p._above)))


def facet_projection(y: frozenset) -> Callable:
    """The map from the facet section at {y, carrier} onto restriction to
    y x trace on the rest: a member inside y goes to itself, any other
    member to its trace on the rest."""
    return lambda face: face if face is BOTTOM else frozenset(m if m <= y else m - y
                                                                for m in face)


def drop_isolated(h: Hypergraph) -> Callable:
    """The map from the face poset of ``h`` onto that of ``h`` without its
    isolated atoms: it drops their singletons from every face."""
    isolated = {m for m in h.member_sets
                if len(m) == 1 and not any(m < x for x in h.member_sets)}
    return lambda face: face if face is BOTTOM else face - isolated


# ---------------------------------------------------------------------------
# the differential corpus and the route table
# ---------------------------------------------------------------------------

KINDS = ("path", "cycle", "star", "complete")
# the random inputs the per-route tests drew before the table: one
# random_atomic draw per seed, and streams of draws (seed: draws)
RANDOM_SEEDS = (*range(8), *range(100, 108), *range(200, 208), *range(300, 308),
                *range(1000, 1012))
RANDOM_STREAMS = {6: 12, 7: 20, 12: 12, 13: 12, 17: 12}


def hypertree(seed: int, n: int, blocks: int) -> Hypergraph:
    """An atomic non-graph hypergraph on ``n`` atoms whose closure has
    ``blocks`` blocks: the atoms are shuffled and split, and each part
    is spanned by members of 2-4 atoms, each after the first meeting
    the ones before in one atom, the first of three or more."""
    rng = random.Random(seed)
    atoms = list(string.ascii_lowercase[:n])
    rng.shuffle(atoms)
    sets = [{a} for a in atoms]
    size = -(-n // blocks)
    for part in (atoms[i:i + size] for i in range(0, n, size)):
        k = min(len(part), rng.randint(3, 4))
        covered, rest = part[:k], part[k:]
        sets.append(set(covered))
        while rest:
            k = min(len(rest), rng.randint(1, 3))
            sets.append({rng.choice(covered), *rest[:k]})
            covered, rest = covered + rest[:k], rest[k:]
    return Hypergraph.from_sets(sets)


def seeded(seed: int) -> Hypergraph:
    return random_atomic(random.Random(seed), 5 + seed % 2)


@functools.cache
def tier(name: str) -> tuple[Hypergraph, ...]:
    """One tier of the corpus, without repeats: ``atomic`` (every atomic
    hypergraph on at most four atoms), ``non-atomic`` (the others on at
    most three), ``catalog`` (its atomic entries), ``graphs`` (path,
    cycle, star and complete on n <= 7), ``random`` (on 5-6 atoms) or
    ``saturated`` (the closures of those four)."""
    if name == "atomic":
        hs = [h for k in range(5) for h in all_atomic_hypergraphs(k)]
    elif name == "non-atomic":
        hs = [h for k in range(4) for h in all_hypergraphs(k) if not is_atomic(h)]
    elif name == "catalog":
        hs = [e.hypergraph for e in catalog() if is_atomic(e.hypergraph)]
    elif name == "graphs":
        hs = [graph(kind, n) for kind in KINDS for n in range(1, 8)]
    elif name == "random":
        hs = [seeded(s) for s in RANDOM_SEEDS]
        for seed, draws in RANDOM_STREAMS.items():
            rng = random.Random(seed)
            hs += [random_atomic(rng, rng.choice((5, 6))) for _ in range(draws)]
    elif name == "saturated":
        hs = [saturated_closure(h) for t in ("atomic", "catalog", "graphs", "random")
              for h in tier(t)]
    else:
        raise KeyError(name)
    return tuple(dict.fromkeys(hs))


def _forests_and_words(h):
    out = []
    for k in _peel(h.members, False):
        fam = h.family(k)
        out.append((to_f_construction(h, fam), to_s_construction(h, fam), str(_word(h, k))))
    return out


def oracle_forests_and_words(h):
    """Forest, word and printed word of every construction, read off the
    parent map in one pass that builds (tree, word) pairs."""
    def word(terms):
        return make_sum(terms) if terms else EMPTY

    def node(atom, pairs):
        trees, words = [t for t, _ in pairs], [w for _, w in pairs]
        return frozenset({atom, *trees}), Prefix(atom, word(words))

    def top(pairs):
        return frozenset(t for t, _ in pairs), word([w for _, w in pairs])

    out = []
    for k in _peel(h.members, False):
        forest, w = oracle_read_forest(h, k, node, top)
        out.append((forest, w, str(w)))
    return out


# many inputs share closure blocks: each side runs once per block
@functools.cache
def _antichain_block(b):
    got = _antichain_constructions(b.members, b.carrier_mask)
    return got, frozenset(b.family(k) for k in got)


@functools.cache
def _oracle_block(b):
    return oracle_block_constructions(b.members, b.carrier_mask), enumerate_constructions(b)


def _closure_blocks(h):
    return sorted(finest_partition(saturated_closure(h)), key=lambda b: b.atoms)


def oracle_antichain_blocks(h):
    """Per block of the closure: its constructions by brute force and by
    the peel."""
    return [_oracle_block(b) for b in _closure_blocks(h)]


def oracle_f_vector(h):
    p = abstract_polytope(h)
    return f_vector(p), p.rank


def _simplex(m):
    """Nonempty faces of the m-simplex by dimension, the top included."""
    return [comb(m + 1, k + 1) for k in range(m + 1)]


def _times(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


@functools.cache
def _truncations(members):
    """Nonempty faces by dimension, the top included, of the nestohedron
    of a connected building set (its carrier a member): the simplex on
    the carrier, truncated at each larger member in decreasing size.
    When X is added only singletons lie inside it, so the face cut off
    is a point times the nestohedron of the contraction of the members
    added so far onto the atoms outside X, of codimension |X|, and
    truncating a face G of codimension c in a simple polytope replaces
    the faces of G with those of G x (c - 1)-simplex."""
    carrier = family_union(members)
    faces = _simplex(carrier.bit_count() - 1)
    added = [m for m in members if m == carrier or m.bit_count() == 1]
    for x in sorted(members - set(added), key=mask_sort_key, reverse=True):
        contraction = frozenset(y & ~x for y in added if y & ~x)
        cut = _simplex(x.bit_count() - 1)
        cut[0] -= 1
        grown = _times(_truncations(contraction), cut)
        faces = [a + b for a, b in itertools.zip_longest(faces, grown, fillvalue=0)]
        added.append(x)
    return faces


def oracle_truncation_fvector(h):
    """``_f_vector_and_rank`` by successive truncations (Postnikov,
    "Permutohedra, associahedra, and beyond", section 7): per block of
    the closure, the simplex truncated at the larger members; a
    disconnected input is the product of its blocks."""
    faces = [1]
    for block in family_components(saturated_closure(h).members):
        faces = _times(faces, _truncations(block))
    rank = len(faces) - 1
    return tuple(faces[:rank]), rank


def _reverse_inclusion(a, b):
    return a is BOTTOM or (b is not BOTTOM and b <= a)


def pairwise_order(faces_ranks, leq=_reverse_inclusion):
    """Faces sorted by rank and label, their ranks and up-set rows,
    from one ``leq`` test per ordered pair of faces (a construct lies
    below every construct it contains, the bottom below everything).
    Under reverse inclusion a face contains no other face of its own or
    a lower rank, since ranks fall as faces grow, so only faces of a
    higher rank are tested."""
    items = sorted(faces_ranks, key=lambda fr: (fr[1], face_label(fr[0])))
    faces = [f for f, _ in items]
    ranks = [r for _, r in items]
    above = []
    for i, f in enumerate(faces):
        start = bisect_right(ranks, ranks[i]) if leq is _reverse_inclusion else 0
        ups = compress(range(start, len(faces)), map(leq, repeat(f), faces[start:]))
        above.append(tuple(sorted({i, *ups})))
    return faces, ranks, above


def construct_faces(h):
    return [(BOTTOM, -1)] + [(c, h.n_atoms - len(c)) for c in enumerate_constructs(h)]


def oracle_poset(h):
    return pairwise_order(construct_faces(h))


# both sides of a row read one build
_poset = functools.lru_cache(maxsize=1)(abstract_polytope)


def oracle_build_shortcuts(h):
    """Covers by the generic cover scan, labels by labelling the faces
    afresh."""
    p = _poset(h)
    generic = FacePoset(p.faces, p.ranks, p._above)
    return generic._cover_rows(), tuple(_labelled(p.faces))


def oracle_dense_order(faces_ranks):
    """The dense builder the sparse rows replaced: faces sorted by rank
    and label, their ranks, one up-set and one down-set bitmask per face
    and the labels.  Each member gets the bitset of faces containing it;
    face j lies above face i exactly when j contains no member missing
    from i, and below it exactly when j contains every member of i."""
    items = sorted(faces_ranks, key=lambda fr: (fr[1], face_label(fr[0])))
    faces, ranks = [f for f, _ in items], [r for _, r in items]
    labels = _labelled(faces)
    full = (1 << len(faces)) - 1
    non_bottom = full
    contains = {}
    for i, f in enumerate(faces):
        if f is BOTTOM:
            non_bottom &= ~(1 << i)
            continue
        for m in f:
            contains[m] = contains.get(m, 0) | 1 << i
    bottoms = full & ~non_bottom
    above = []
    below = []
    for i, f in enumerate(faces):
        if f is BOTTOM:
            above.append(full)
            below.append(1 << i)
            continue
        excluded = 0
        for m, holders in contains.items():
            if m not in f:
                excluded |= holders
        above.append(non_bottom & ~excluded)
        inside = non_bottom
        for m in f:
            inside &= contains[m]
        below.append(bottoms | inside)
    return faces, ranks, above, below, labels


def _dense_rows(h):
    """``oracle_dense_order`` on the constructs, its bitmasks read as
    sorted index tuples."""
    faces, ranks, above, below, labels = oracle_dense_order(construct_faces(h))
    return (faces, ranks, tuple(tuple(bits_of(m)) for m in above),
            tuple(tuple(bits_of(m)) for m in below), tuple(labels))


def _poset_fields(p):
    """What a poset's readers see: faces, ranks, up-set rows, labels and
    cover rows."""
    return p.faces, p.ranks, p._above, p._labels, p._cover_rows()


def _blocks(h):
    return sorted(finest_partition(h), key=lambda b: b.atoms)


def _facets(h):
    """(block, y) for every facet of every block of the saturated ``h``:
    each member y of the block but its carrier."""
    return [(b, y) for b in _blocks(h)
            for y in sorted(b.member_sets - {frozenset(b.atoms)}, key=set_sort_key)]


def oracle_facet_sections(h):
    """Each facet section cut out of the whole poset by the generic
    ``section``."""
    return [_poset_fields(section(_poset(b), frozenset({y, frozenset(b.atoms)}), BOTTOM))
            for b, y in _facets(h)]


@functools.lru_cache(maxsize=1)
def _product_factors(h):
    """The factor posets of the ``products`` row, built once for both of
    its sides: the posets of the blocks of the saturated ``h``, then
    restriction x trace for every facet of ``_facets(h)``."""
    blocks = [tuple(map(abstract_polytope, _blocks(h)))] if h.members else []
    return blocks + [tuple(map(abstract_polytope, _factors(b, y))) for b, y in _facets(h)]


def reference_otimes(*posets):
    """``otimes`` on name families: the product faces are unions of the
    factors' faces, sorted by (rank, label) with ties in input order,
    and keyed for ``_up_rows`` by one bit per distinct member."""
    if not posets:
        raise HypergraphError("otimes needs at least one poset")
    seen: set[str] = set()
    for p in posets:
        atoms = {a for f in p.faces if f is not BOTTOM for m in f for a in m}
        if atoms & seen:
            raise CarrierOverlapError(
                f"carriers overlap on {sorted(atoms & seen)}")
        seen |= atoms
    parts = []
    for p in posets:
        parts.append([(f, r) for f, r in zip(p.faces, p.ranks) if f is not BOTTOM])
    faces_ranks = [(BOTTOM, -1)]
    for combo in itertools.product(*parts):
        face = frozenset().union(*(f for f, _ in combo))
        rank = sum(r for _, r in combo)
        faces_ranks.append((face, rank))
    labels = _labelled(f for f, _ in faces_ranks)
    order = sorted(range(len(faces_ranks)), key=lambda i: (faces_ranks[i][1], labels[i][0]))
    faces, ranks, labels = ([faces_ranks[i][0] for i in order],
                            [faces_ranks[i][1] for i in order], [labels[i] for i in order])
    members = frozenset().union(*(f for f in faces if f is not BOTTOM))
    bit = {m: 1 << k for k, m in enumerate(members)}
    keys = [None if f is BOTTOM else sum(map(bit.__getitem__, f)) for f in faces]
    return FacePoset._built(faces, ranks, _up_rows(keys), labels)


@functools.cache
def _continuation_draws() -> dict[Hypergraph, list]:
    """(y, k, j) calls per ASC hypergraph on one to four atoms, drawn in
    that order from one stream: for every member y, sampled true
    factors, and sampled or broken ones (a random subfamily, the empty
    family, the empty set, an unknown atom, a member crossing y), one
    bad factor per call."""
    rng = random.Random(11)

    def key(fam):
        return sorted(map(sorted, fam))

    draws = {}
    for h in (h for n in range(1, 5) for h in all_asc_hypergraphs(n)):
        members = sorted(h.member_sets, key=sorted)
        calls = draws[h] = []
        for y in members:
            rest = frozenset(h.atoms) - y
            r, q = _factors(h, y)
            ks = sorted(enumerate_constructions(r), key=key)
            js = [frozenset()] if q is None else sorted(enumerate_constructions(q), key=key)
            k0, j0 = ks[0], js[0]
            inside = [m for m in members if m <= y]
            crossing = [m for m in members if m & y and m - y]
            traces = sorted({m & rest for m in members if m & rest}, key=sorted)
            k_cands = rng.sample(ks, min(2, len(ks))) + [
                frozenset(rng.sample(inside, rng.randint(0, len(inside)))),
                frozenset(), k0 | {frozenset()}, k0 | {frozenset("q")}]
            if crossing:
                k_cands.append(k0 - {y} | {rng.choice(crossing)})
            j_cands = rng.sample(js, min(2, len(js))) + [
                frozenset(rng.sample(traces, rng.randint(0, len(traces)))),
                frozenset(), j0 | {frozenset()}, j0 | {frozenset("q")},
                # crosses y; a nonempty factor when y is the carrier
                j0 | {(traces[0] if traces else frozenset()) | {min(y)}}]
            calls += [(y, k, j0) for k in k_cands] + [(y, k0, j) for j in j_cands]
    return draws


def _outcomes(glue, h):
    """``glue`` on every call: its result, or its ``BadFactorError``
    message."""
    out = []
    for y, k, j in _continuation_draws().get(h, ()):
        try:
            out.append(glue(h, y, k, j))
        except BadFactorError as exc:
            out.append(str(exc))
    return out


@functools.lru_cache(maxsize=64)
def _factors(h, y):
    rest = frozenset(h.atoms) - y
    return restriction(h, y), quotient(h, rest) if rest else None


def oracle_continuation(h, y, k, j):
    """Restriction x trace: the factors must be constructions of the
    restriction to y and of the trace on the rest; they glue through
    the members of ``h``."""
    r, q = _factors(h, y)
    if not is_construction(r, k):
        raise BadFactorError("first factor is not a construction of the restriction")
    if q is None:
        if j:
            raise BadFactorError("second factor must be empty when y is the carrier")
        return k
    if not is_construction(q, j):
        raise BadFactorError("second factor is not a construction of the trace")
    return k | {x | y if x | y in h.member_sets else x for x in j}


def _peeled_coordinates(h):
    """(construction, ``_coordinates``) pairs in ``_peel``'s order, with
    one memo per hypergraph as in ``realize``, so that most members are
    read back from it."""
    memo: dict[int, int] = {}
    return [(k, _coordinates(k, h.n_atoms, memo)) for k in _peel(h.members, False)]


def _roots_under_the_floor(h):
    """(construction, member X) pairs, |X| >= 2, whose root coordinate
    from ``_coordinates`` is below 2 * 3**(|X| - 1): there are none."""
    out = []
    for k, coords in _peeled_coordinates(h):
        out += [(sorted(k), m) for m, (_, root) in _forest(k).items()
                if m.bit_count() >= 2 and coords[root] < 2 * 3 ** (m.bit_count() - 1)]
    return out


def _vertex_rows(h):
    """Each vertex's construction, incidence row and, per closure member
    X, the sign of its coordinate sum minus 3**|X|."""
    rp = realize(h)
    order = sorted(saturated_closure(h).members, key=mask_sort_key)

    def sign(coords, m):
        d = sum(coords[i] for i in bits_of(m)) - 3 ** m.bit_count()
        return (d > 0) - (d < 0)

    return [(fam, row, tuple(sign(coords, m) for m in order))
            for (fam, coords), row in zip(rp.vertices, rp.incidence)]


def _rows(vertices):
    return [(fam, row) for fam, row, _ in vertices]


def _equations(vertices):
    return [(fam, signs) for fam, _, signs in vertices]


def oracle_sums_fault(facets, specs, incidence, block_masks, cols):
    """The first fault of the vertex sums, or "": ``realize``'s facet and
    block loops before the parent-forest walk, each raise made a return.
    Every facet re-sums its columns over every vertex and compares its
    incidence column with the vertices at its level."""
    for m, spec, holds in zip(facets, specs, zip(*incidence)):
        totals = list(map(sum, zip(*map(cols.__getitem__, bits_of(m)))))
        if min(totals) < spec.level:
            return "internal error: vertex outside a halfspace"
        if holds != tuple(map(eq, totals, repeat(spec.level))):
            return "internal error: incidence disagrees with the construction"
    for m in block_masks:
        level = 3 ** m.bit_count()
        if any(map(level.__ne__, map(sum, zip(*map(cols.__getitem__, bits_of(m)))))):
            return "internal error: vertex off a block hyperplane"
    return ""


def _sums_cases(h):
    """``realize(h)``'s own check data as (facet masks, specs, incidence
    rows, block carriers, coordinate columns): unperturbed, then each
    coordinate moved by +-1 on the first, a middle and the last vertex,
    the first and last coordinates of the middle vertex swapped, one
    incidence entry flipped, and the first and last incidence rows
    swapped.  A moved coordinate breaks every facet and block holding
    its atom, so the first fault must be ranked; swapped rows keep each
    facet's count at its level and only the holders' sum sees them."""
    rp = realize(h)
    facets = [h.mask(spec.support) for spec in rp.facet_specs]
    blocks = [family_union(c) for c in family_components(saturated_closure(h).members)]
    coords = [c for _, c in rp.vertices]
    rows = list(rp.incidence)
    mid = len(coords) // 2
    variants = [(coords, rows)]
    for v in sorted({0, mid, len(coords) - 1}):
        for i in range(h.n_atoms):
            for d in (1, -1):
                moved = coords.copy()
                moved[v] = coords[v][:i] + (coords[v][i] + d,) + coords[v][i + 1:]
                variants.append((moved, rows))
    if h.n_atoms >= 2:
        swapped = coords.copy()
        swapped[mid] = (coords[mid][-1], *coords[mid][1:-1], coords[mid][0])
        variants.append((swapped, rows))
    if facets:
        flipped = rows.copy()
        flipped[mid] = (not rows[mid][0], *rows[mid][1:])
        variants.append((coords, flipped))
        swapped = rows.copy()
        swapped[0], swapped[-1] = rows[-1], rows[0]
        variants.append((coords, swapped))
    return [(facets, rp.facet_specs, r, blocks, list(zip(*c))) for c, r in variants]


def _holders(rows):
    """Per facet column, the vertices whose incidence row holds it."""
    return [list(compress(range(len(rows)), col)) for col in zip(*rows)]


def oracle_face_map(h):
    """Every face from the bitmask power set, joined with the block
    tops."""
    hbar = saturated_closure(h)
    tops = frozenset(h.atom_set(family_union(c)) for c in family_components(hbar.members))
    return True, {s: s | tops for s in oracle_faces(realize(h))}


@dataclass(frozen=True)
class Route:
    """A production route and its oracle, both maps from a hypergraph to
    a value that must agree on every input of the slice: the named
    tiers, capped at ``max_atoms``."""
    name: str
    production: Callable[[Hypergraph], object]
    oracle: Callable[[Hypergraph], object]
    tiers: tuple[str, ...]
    max_atoms: int = 6

    def corpus(self) -> list[Hypergraph]:
        return list(dict.fromkeys(h for t in self.tiers for h in tier(t)
                                  if h.n_atoms <= self.max_atoms))


ATOMIC = ("atomic", "catalog", "graphs", "random")
GEOMETRIC = ("catalog", "graphs", "random")
ALL = ("non-atomic",) + ATOMIC

_ROWS = [
    Route("peel-constructions", enumerate_constructions, oracle_constructions, ATOMIC),
    Route("peel-constructs", enumerate_constructs, oracle_constructs, ATOMIC),
    Route("forests-and-words", _forests_and_words, oracle_forests_and_words, ATOMIC),
    Route("word-text", lambda h: [_word_text(h, k) for k in _peel(h.members, False)],
          lambda h: [str(_word(h, k)) for k in _peel(h.members, False)], ATOMIC),
    Route("antichain-constructions", lambda h: [_antichain_block(b) for b in _closure_blocks(h)],
          oracle_antichain_blocks, ("atomic", "random")),
    Route("count", count_constructions, lambda h: len(enumerate_constructions(h)), ATOMIC),
    Route("union-closure", saturated_closure, oracle_saturated_closure, ALL, 7),
    Route("bare-kernel", bare_kernel, oracle_bare_kernel, ALL, 7),
    Route("dispensable-subsets", dispensable_subsets, oracle_dispensable_subsets, ALL, 7),
    Route("f-vector", _f_vector_and_rank, oracle_f_vector, ATOMIC),
    Route("truncation-f-vector", _f_vector_and_rank, oracle_truncation_fvector, ATOMIC),
    Route("pairwise-order", lambda h: (list((p := abstract_polytope(h)).faces), list(p.ranks),
                                       list(p._above)), oracle_poset, GEOMETRIC),
    Route("dense-order", lambda h: (list((p := _poset(h)).faces), list(p.ranks), p._above,
                                    _transpose(p._above), p._labels), _dense_rows, ATOMIC),
    Route("build-time-shortcuts", lambda h: (_poset(h)._covers, _poset(h)._labels),
          oracle_build_shortcuts, ATOMIC),
    Route("lattice-operations", lambda h: lattice_outcomes(_poset(h), meet, join, section),
          lambda h: lattice_outcomes(_poset(h), *oracle_lattice_ops(_poset(h))), ATOMIC, 3),
    Route("facet-sections", lambda h: [_poset_fields(facet_section(b, y)) for b, y in _facets(h)],
          oracle_facet_sections, ("saturated",)),
    Route("products", lambda h: [_poset_fields(otimes(*ps)) for ps in _product_factors(h)],
          lambda h: [_poset_fields(reference_otimes(*ps)) for ps in _product_factors(h)],
          ("saturated",), 5),
    Route("continuation", lambda h: _outcomes(continuation, h),
          lambda h: _outcomes(oracle_continuation, h), ("atomic",)),
    Route("coordinates", lambda h: [coords for _, coords in _peeled_coordinates(h)],
          lambda h: [oracle_coordinates(k, h.n_atoms) for k in _peel(h.members, False)],
          GEOMETRIC),
    Route("coordinate-floor", _roots_under_the_floor, lambda h: [], ATOMIC),
    Route("incidence-rows", lambda h: realize(h).incidence, reference_incidence, GEOMETRIC),
    Route("vertex-order", lambda h: _rows(_vertex_rows(h)),
          lambda h: _rows(reference_vertex_rows(h)), GEOMETRIC),
    Route("defining-equations", lambda h: _equations(_vertex_rows(h)),
          lambda h: _equations(reference_vertex_rows(h)), GEOMETRIC),
    Route("facet-sums", lambda h: [_sums_fault(facets, blocks, cols, _holders(rows))
                                   for facets, _, rows, blocks, cols in _sums_cases(h)],
          lambda h: [oracle_sums_fault(*case) for case in _sums_cases(h)], GEOMETRIC),
    Route("power-set", lambda h: ((iso := face_lattice_isomorphic(h)).ok, iso.face_map),
          oracle_face_map, GEOMETRIC),
    # the references prove the order afresh and read only the covers the
    # build made, not the verdict the production checkers keep
    Route("axiom-checkers", lambda h: _reports(_poset(h), verify_axioms, verify_inductive),
          lambda h: _reports(_poset(h), reference_verify_axioms,
                             reference_verify_inductive), ATOMIC, 5),
]
ROUTES = {r.name: r for r in _ROWS}


def check(name: str, hs: Iterable[Hypergraph] | None = None) -> None:
    """Assert that route ``name`` agrees with its oracle on every input
    of ``hs``, by default its whole slice."""
    route = ROUTES[name]
    for h in route.corpus() if hs is None else hs:
        got, want = route.production(h), route.oracle(h)
        assert got == want, (name, h)


# The tests the table replaced keep their node ids, and each runs its
# old share of one row, so that every (row, input) pair is checked once:
# the rows of OWNED are run whole by the old test that names them, and
# the per-class tests of KEPT run, through ``kept_ids(row)``, the atomic
# catalog, the graph families on n <= max_n and ``seeded(offset + s)``
# per seed s.  ``test_routes.py::test_route`` runs every other pair.
OWNED = frozenset({"peel-constructions", "peel-constructs", "forests-and-words",
                   "antichain-constructions", "count", "union-closure", "bare-kernel",
                   "dispensable-subsets", "f-vector", "continuation"})
KEPT = {  # row: (seeds, offset, max_n) of test_poset_builder.py / test_realization.py
    "pairwise-order": (range(8), 0, 6),  # TestAbstractPolytope
    "build-time-shortcuts": (range(12), 1000, 6),  # TestBuildTimeShortcuts
    "coordinates": (range(200, 208), 0, 6),  # TestCoordinatesMatchOracle
    "defining-equations": (range(8), 0, 6),  # TestDefiningEquations
    "vertex-order": (range(100, 108), 0, 6),  # TestVertexOrder
    "power-set": (range(300, 308), 0, 5),  # TestPowerSetOracle
}


def kept_inputs(name: str) -> set[Hypergraph]:
    """The inputs of row ``name`` that kept node ids run."""
    if name not in KEPT:
        return set()
    seeds, offset, max_n = KEPT[name]
    hs = {*tier("catalog"), *(graph(kind, n) for kind in KINDS for n in range(1, max_n + 1)),
          *(seeded(offset + s) for s in seeds)}
    if name == "build-time-shortcuts":  # its test_every_atomic_hypergraph[k] and empty input
        hs.update(tier("atomic"))
    return hs


def kept_ids(name: str) -> type:
    """The three kept tests of the per-class test that row ``name``
    replaced, as a base class."""
    seeds, offset, max_n = KEPT[name]

    class Kept:
        def test_every_catalog_entry(self):
            check(name, tier("catalog"))

        @pytest.mark.parametrize("kind", KINDS)
        @pytest.mark.parametrize("n", range(1, max_n + 1))
        def test_graph_nestohedra(self, kind, n):
            check(name, [graph(kind, n)])

        @pytest.mark.parametrize("seed", seeds)
        def test_random_atomic_hypergraphs(self, seed):
            check(name, [seeded(offset + seed)])

    return Kept
