"""Exact Euclidean realization by truncating a simplex.

Every member X of the (saturated closure of the) hypergraph carves the
halfspace sum(x_i for i in X) >= 3**|X|; the polytope lives inside the
hyperplane where the full-carrier sum holds with equality.  A vertex is
read off its construction in one sweep.  The members of a construction
are pairwise nested or disjoint, so visiting each member after every
member inside it fixes one new atom per member, its root (superficial)
atom.  The children of X are the blocks of the restriction to X minus
its root, so the root gets 3**|X| minus the children's levels, a value
of the pair (X, root) alone: it is solved the first time the pair is
seen in a ``realize`` call and read back from that call's memo after.
Every coordinate is an exact positive integer and no linear algebra or
floating point is needed.
The incidence is checked from each member's vertex sums, which are
its parent's sums plus one coordinate column, the parent being a
member one atom smaller: over X no vertex may fall below 3**|X|, and
exactly the constructions holding X may reach it.  Every vertex must
also sum to exactly 3**|B| over each block carrier B.  Disconnected hypergraphs
realize as the cartesian product of their blocks, coordinate blocks
concatenated in carrier order.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Iterable, Sequence

from .errors import (
    DimensionMismatchError,
    NestohedraError,
    NotASCError,
    NotAtomicError,
)
from .constructions import (
    _construction_masks,
    _peel,
    enumerate_constructs,
    is_asc,
)
from .hypergraph import (
    AtomSet,
    Family,
    Hypergraph,
    bits_of,
    family_components,
    family_union,
    is_atomic,
    set_sort_key,
)
from .saturation import saturated_closure


@dataclass(frozen=True)
class HyperplaneSpec:
    """The cutting hyperplane of one member: sum over ``support`` == level."""

    support: AtomSet
    level: int

    def __post_init__(self):
        if not self.support:
            raise NestohedraError("hyperplane support must be nonempty")
        if self.level != 3 ** len(self.support):
            raise NestohedraError("hyperplane level must be 3**|support|")


@dataclass(frozen=True)
class RealizedPolytope:
    """Exact vertex coordinates plus vertex-facet incidence."""

    dimension: int
    atoms: tuple[str, ...]
    vertices: tuple[tuple[Family, tuple[int, ...]], ...]
    facet_specs: tuple[HyperplaneSpec, ...]
    incidence: tuple[tuple[bool, ...], ...]


def _coordinates(k: Iterable[int], n: int, memo: dict[int, int]) -> tuple[int, ...]:
    """The vertex of the construction with member masks ``k``, each
    listed after every member inside it (as ``_peel`` lists them).

    Members nest or are disjoint, so in that order each member X fixes
    one new atom, its root.  X's children are the blocks of the
    restriction to X minus its root, so the root coordinate, 3**|X|
    minus the children's levels, depends on (X, root) alone.  ``memo``
    maps ``root << n | X`` to it.  A pair seen first gets 3**|X| minus
    the coordinates already placed on X's other atoms, and enters the
    memo once both guards pass.  A member listed before one inside it
    has a root of two or more atoms, which no key holds.
    """
    out = [0] * n
    fixed = 0
    for m in k:
        root = m & ~fixed
        key = root << n | m
        x = memo.get(key)
        if x is None:
            if not root or root & (root - 1):
                raise NestohedraError("internal error: non-unique root")
            level = 3 ** m.bit_count()
            x = level - sum(map(out.__getitem__, bits_of(m ^ root)))
            # on a construction the children are disjoint and cover
            # |X| - 1 atoms, so their levels sum to at most 3**(|X| - 1)
            # and the root gets at least 2 * 3**(|X| - 1): this guard
            # cannot fire there, and no coordinate is below 3
            if x <= level // 3:
                raise NestohedraError("internal error: peeled coordinate too small")
            memo[key] = x
        out[root.bit_length() - 1] = x
        fixed |= m
    return tuple(out)


def vertex_coordinates(h: Hypergraph, k: Iterable[Iterable[str]]) -> tuple[int, ...]:
    """The unique solution of the member-sum equations of a construction,
    one exact integer per carrier atom in carrier order, solved over its
    members sorted by size with a fresh memo.  A member listed twice
    counts once."""
    if not is_asc(h):
        raise NotASCError("vertex coordinates need an atomic saturated "
                          "connected hypergraph")
    masks = _construction_masks(h, {frozenset(s) for s in k})
    return _coordinates(sorted(masks, key=int.bit_count), h.n_atoms, {})


def realize(h: Hypergraph) -> RealizedPolytope:
    """Realize an atomic hypergraph through its saturated closure.

    Vertices are in bijection with the constructions, ordered by their
    members' canonical ranks (the sorted rank lists, compared
    lexicographically), read as one integer key per construction: the
    sum of 2**(last rank - rank) over its members, descending, which
    orders alike since every construction has n members.  A vertex lies
    on the hyperplane of X exactly when X belongs to its construction,
    so its incidence row starts all False and sets the column of each
    member that is a facet, found by mask in one facet-to-column dict.
    Coordinates come from one sweep per construction in ``_peel``'s
    order, with one memo of root coordinates per call.  The incidence
    loop also lists each facet's holders, and ``_sums_fault`` checks
    every facet from its vertex sums, each member's sums one column
    add from its parent's: no sum is below the level, and the vertices
    on the hyperplane are exactly the constructions holding the facet.
    A memoized value is not re-derived from its construction's
    children, so every vertex must also sum to exactly 3**|B| over
    each block B.  The first fault in canonical order is raised.
    """
    if not is_atomic(h):
        raise NotAtomicError("realization needs an atomic hypergraph")
    hbar = saturated_closure(h)
    n = h.n_atoms
    comps = family_components(hbar.members)
    block_masks = [family_union(c) for c in comps]
    canonical = hbar.canonical_masks()
    last = len(canonical) - 1
    weight = {m: 1 << (last - i) for i, m in enumerate(canonical)}
    # h peels like its closure: both have the same connected subsets.
    # Every construction has exactly n members, one per root atom, so
    # comparing two by their sorted canonical ranks is asking which one
    # holds the lowest rank in which they differ: the one with the
    # larger weight sum
    cons = sorted(_peel(h.members, False), key=lambda k: sum(map(weight.__getitem__, k)),
                  reverse=True)
    memo: dict[int, int] = {}
    vertices = [(h.family(k), _coordinates(k, n, memo)) for k in cons]
    if len({coords for _, coords in vertices}) != len(vertices):
        raise NestohedraError("internal error: coordinate collision")

    facets = [m for m in canonical if m not in block_masks]
    specs = tuple(HyperplaneSpec(h.atom_set(m), 3 ** m.bit_count()) for m in facets)
    # the block carriers, in every construction, hold no column
    column = {m: j for j, m in enumerate(facets)}
    blank = [False] * len(facets)
    rows = []
    holders: list[list[int]] = [[] for _ in facets]
    for v, k in enumerate(cons):
        row = blank.copy()
        for m in k:
            j = column.get(m)
            if j is not None:
                row[j] = True
                holders[j].append(v)
        rows.append(tuple(row))
    fault = _sums_fault(facets, block_masks,
                        list(zip(*(coords for _, coords in vertices))), holders)
    if fault:
        raise NestohedraError(fault)
    return RealizedPolytope(
        dimension=n - len(comps),
        atoms=h.atoms,
        vertices=tuple(vertices),
        facet_specs=specs,
        incidence=tuple(rows),
    )


def _sums_fault(facets: list[int], blocks: list[int], cols: list[tuple[int, ...]],
                holders: list[list[int]]) -> str:
    """The first fault of the vertex sums, or "".  ``cols`` holds one
    coordinate column per atom, ``holders[j]`` the vertices holding
    ``facets[j]``.  A member's sums are its parent's (the first member
    one atom smaller, in ``bits_of`` order) plus one column; a member
    with no parent is summed from its columns.  The parent forest is
    walked depth first, so only the current path's sums are kept.  With
    no sum below the level, the holders are exactly the vertices at the
    level when their sums add up to the level times their number and as
    many sums reach it; a block needs every sum at its level.  The first
    failing facet in canonical order wins, halfspace before incidence,
    and block faults come after all facets.
    """
    rank = {m: i for i, m in enumerate(facets + blocks)}
    kids: dict[int, list[tuple[int, int]]] = {m: [] for m in rank}
    stack = []
    for m in rank:
        a = next((a for a in bits_of(m) if m ^ 1 << a in kids), None)
        if a is None:
            stack.append((m, m.bit_length() - 1, None))
        else:
            kids[m ^ 1 << a].append((m, a))
    faults = {}
    while stack:
        m, a, base = stack.pop()
        if base is not None:
            totals = list(map(add, base, cols[a]))
        elif m & (m - 1):
            totals = list(map(sum, zip(*map(cols.__getitem__, bits_of(m)))))
        else:
            totals = cols[a]
        stack += [(c, b, totals) for c, b in kids[m]]
        level = 3 ** m.bit_count()
        j = rank[m]
        if j >= len(holders):
            if totals.count(level) != len(totals):
                faults[j] = "internal error: vertex off a block hyperplane"
        elif min(totals) < level:
            faults[j] = "internal error: vertex outside a halfspace"
        elif (sum(map(totals.__getitem__, holders[j])) != level * len(holders[j])
              or totals.count(level) != len(holders[j])):
            faults[j] = "internal error: incidence disagrees with the construction"
    return faults[min(faults)] if faults else ""


def check_vertex_membership(h: Hypergraph, point: Sequence[int]) -> dict[AtomSet, str]:
    """Classify a point against every member's cutting hyperplane."""
    pt = tuple(point)
    if len(pt) != h.n_atoms:
        raise DimensionMismatchError(
            f"point has {len(pt)} coordinates, carrier has {h.n_atoms}")
    out: dict[AtomSet, str] = {}
    for m in h.members:
        total = sum(pt[i] for i in bits_of(m))
        level = 3 ** m.bit_count()
        if total > level:
            verdict = "strict-interior"
        elif total == level:
            verdict = "on-boundary"
        else:
            verdict = "outside"
        out[h.atom_set(m)] = verdict
    return out


# ---------------------------------------------------------------------------
# face-lattice comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeIsomorphism:
    """Result of comparing the geometric face lattice with the construct
    poset; ``face_map`` sends each geometric face, written as the set of
    facet supports containing it, to the matching construct."""

    ok: bool
    face_map: dict
    mismatches: tuple[str, ...]


def face_lattice_isomorphic(h: Hypergraph) -> LatticeIsomorphism:
    """Machine check that the realized polytope has the construct poset
    as its face lattice.

    The geometric side is rebuilt purely from the arithmetic incidence:
    each vertex becomes its set of incident facet supports and the faces
    are all subsets of those sets, built by doubling: each support in
    turn is joined to every subset built so far.  The combinatorial side
    takes every construct of the peeling recursion and strips the
    connected components of the carrier, keyed by the stripped face.
    The two collections must coincide, the vertex map must send
    incidence sets to constructions, and every facet support must be
    hit.
    """
    rp = realize(h)
    mismatches: list[str] = []
    hbar = saturated_closure(h)
    comps = family_components(hbar.members)
    comp_tops = frozenset(h.atom_set(family_union(c)) for c in comps)
    supports = [spec.support for spec in rp.facet_specs]

    vertex_keys = []
    for row, (fam, _) in zip(rp.incidence, rp.vertices):
        fv = frozenset(s for s, on in zip(supports, row) if on)
        vertex_keys.append(fv)
        if fv | comp_tops != fam:
            mismatches.append(
                f"vertex incidence set does not rebuild its construction: {sorted(map(sorted, fam))}")
    if len(set(vertex_keys)) != len(vertex_keys):
        mismatches.append("two vertices share an incidence set")

    for j, spec in enumerate(rp.facet_specs):
        if not any(row[j] for row in rp.incidence):
            mismatches.append(f"facet {sorted(spec.support)} holds no vertex")

    geometric: set[frozenset] = set()
    for fv in vertex_keys:
        subsets = [frozenset()]
        for s in fv:
            one = frozenset((s,))
            subsets += [t | one for t in subsets]
        geometric.update(subsets)
    combinatorial = {c - comp_tops: c for c in enumerate_constructs(h)}
    faces = combinatorial.keys()
    if geometric != faces:
        mismatches.append(
            f"face collections differ ({len(geometric - faces)} geometric-only, "
            f"{len(faces - geometric)} construct-only)")

    ok = not mismatches
    return LatticeIsomorphism(ok=ok, face_map=combinatorial if ok else {},
                              mismatches=tuple(mismatches))


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def _projected_coords(rp: RealizedPolytope) -> list[tuple[int, ...]]:
    """Drop one redundant coordinate per block: every block satisfies its
    carrier-sum equation, so the projection is affine and injective."""
    if not rp.vertices:
        return []
    first_fam = rp.vertices[0][0]
    tops = [m for m in first_fam
            if not any(m < o for o in first_fam)]
    index = {a: i for i, a in enumerate(rp.atoms)}
    drop = set()
    for t in tops:
        drop.add(max(index[a] for a in t))
    keep = [i for i in range(len(rp.atoms)) if i not in drop]
    return [tuple(coords[i] for i in keep) for _, coords in rp.vertices]


def _cycle(adjacent: list[list[int]], members: list[int]) -> list[int]:
    """Walk the polygon on ``members`` along the edges in ``adjacent``."""
    inside = set(members)
    start = min(members)
    cycle = [start]
    prev = -1
    cur = start
    while True:
        nxt = next(w for w in adjacent[cur] if w in inside and w != prev)
        if nxt == start:
            return cycle
        cycle.append(nxt)
        prev, cur = cur, nxt


def to_off(rp: RealizedPolytope) -> str:
    """OFF export for dimension <= 3, coordinates exact integers.

    Two vertices of a simple d-polytope span an edge exactly when they
    share d - 1 facets.  That one adjacency list gives the edge count and
    every polygon: each facet of a 3-polytope, or a polygon itself, is
    walked as a cycle along it.
    """
    if rp.dimension > 3:
        raise NestohedraError("OFF export covers dimension <= 3 only")
    coords = _projected_coords(rp)
    padded = [c + (0,) * (3 - len(c)) for c in coords]
    nv = len(padded)
    on = [frozenset(j for j, x in enumerate(row) if x) for row in rp.incidence]
    adjacent = [[v for v in range(nv)
                 if v != u and len(on[u] & on[v]) == rp.dimension - 1] for u in range(nv)]
    if rp.dimension == 3:
        polygons = [[i for i in range(nv) if j in on[i]]
                    for j in range(len(rp.facet_specs))]
    else:
        polygons = [list(range(nv))] if rp.dimension == 2 else []
    faces = [_cycle(adjacent, p) for p in polygons]
    lines = ["OFF", f"{nv} {len(faces)} {sum(map(len, adjacent)) // 2}"]
    for c in padded:
        lines.append(" ".join(str(x) for x in c))
    for f in faces:
        lines.append(str(len(f)) + " " + " ".join(str(i) for i in f))
    return "\n".join(lines) + "\n"


def to_json_dict(rp: RealizedPolytope) -> dict:
    """JSON-ready form: members sort by cardinality then atoms, and each
    distinct member's sort key is made once per call."""
    keys = {m: set_sort_key(m) for m in {m for fam, _ in rp.vertices for m in fam}}
    return {
        "dimension": rp.dimension,
        "atoms": list(rp.atoms),
        "vertices": [
            {
                "construction": [list(keys[m][1])
                                 for m in sorted(fam, key=keys.__getitem__)],
                "coords": list(coords),
            }
            for fam, coords in rp.vertices
        ],
        "facets": [
            {"support": sorted(spec.support), "level": spec.level}
            for spec in rp.facet_specs
        ],
        "incidence": [list(row) for row in rp.incidence],
    }
