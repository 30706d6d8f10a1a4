"""Graded face posets of atomic hypergraphs.

The faces are the constructs ordered by reverse inclusion, below a
distinguished bottom face.  The bottom is a sentinel variant rather than
a family with an extra marker element, so it can never collide with a
construct.  The poset stores the full order relation as per-face
bitmasks; covers, sections and the lattice operations derive from it.

Construct posets are built from one bitset per member, the faces that
contain it: the faces above a construct are those holding none of the
members it lacks, and the faces below it those holding all of its
members.  ``abstract_polytope`` also writes the covers down in closed
form, since its poset is the face lattice of a simple polytope.  Other
posets (sections, hand-built ones) derive their down-sets by transposing
the order and their covers from it.  No builder compares faces pairwise.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, Sequence

from .errors import (
    BadFactorError,
    CarrierOverlapError,
    HypergraphError,
    NestohedraError,
    NotComparableError,
    NotFacetError,
)
from .hypergraph import (AtomSet, Family, Hypergraph, bits_of, members_within,
                         set_sort_key)
from .constructions import _block_fault, _ensure_asc, _masks_in, enumerate_constructs


class _Bottom:
    __slots__ = ()

    def __repr__(self) -> str:
        return "F-1"


BOTTOM = _Bottom()

Face = object  # BOTTOM or a Family (frozenset of frozensets of atoms)


def face_label(face: Face) -> str:
    """Canonical printable form; members sort by cardinality then atoms.
    Non-family payloads (hand-built posets) fall back to ``str``."""
    return _labelled([face])[0][0]


def _labelled(faces: Iterable[Face]) -> list[tuple[str, list[tuple[str, ...]] | None]]:
    """Each face's ``face_label`` and its members as sorted atom tuples,
    in the label's order (None for the bottom and non-family payloads).
    Every distinct member is sorted and printed once per call."""
    seen: dict[AtomSet, tuple[tuple[int, tuple[str, ...]], str]] = {}
    out: list[tuple[str, list[tuple[str, ...]] | None]] = []
    for face in faces:
        if face is BOTTOM:
            out.append(("F-1", None))
        elif isinstance(face, frozenset) and all(isinstance(m, frozenset) for m in face):
            keyed = []
            for m in face:
                entry = seen.get(m)
                if entry is None:
                    key = set_sort_key(m)
                    entry = seen[m] = (key, "{%s}" % ",".join(key[1]))
                keyed.append(entry)
            keyed.sort()
            out.append(("{" + ",".join(text for _, text in keyed) + "}",
                        [key[1] for key, _ in keyed]))
        else:
            out.append((str(face), None))
    return out


class FacePoset:
    """A finite poset with declared integer ranks.

    ``_above[i]`` is the bitmask of faces j with face_i <= face_j
    (including i); ``_below`` is its transpose.  Construct posets get
    ``_below`` from their builder and, from ``abstract_polytope``, their
    cover bitmasks too; every other poset transposes ``_above`` here and
    computes its covers on first use.  The covers and the checkers'
    well-formedness verdict (``_fault``, empty when well-formed) are kept
    once known.  Faces are hashable payloads, either ``BOTTOM`` or
    construct families, but hand-built posets may use any hashable
    labels.
    """

    __slots__ = ("faces", "ranks", "_above", "_below", "_index", "_covers", "_fault")

    def __init__(self, faces: Sequence[Face], ranks: Sequence[int],
                 above: Sequence[int], _below: Sequence[int] | None = None):
        self.faces = tuple(faces)
        self.ranks = tuple(ranks)
        self._above = tuple(above)
        if _below is None:
            below = [0] * len(self.faces)
            for i, m in enumerate(self._above):
                while m:
                    low = m & -m
                    below[low.bit_length() - 1] |= 1 << i
                    m ^= low
            _below = below
        self._below = tuple(_below)
        self._covers: tuple[tuple[int, ...], tuple[int, ...]] | None = None
        self._fault: str | None = None
        self._index = {}
        for i, f in enumerate(self.faces):
            if f in self._index:
                raise NestohedraError(f"duplicate face {face_label(f)}")
            self._index[f] = i

    # -- construction ---------------------------------------------------

    @classmethod
    def _from_families(cls, faces_ranks: Iterable[tuple[Face, int]]) -> "FacePoset":
        """Reverse inclusion on construct families, with ``BOTTOM`` least.

        Each member gets the bitset of faces containing it; face j lies
        above face i exactly when j contains no member missing from i,
        and below it exactly when j contains every member of i.
        """
        items = list(faces_ranks)
        labels = _labelled(f for f, _ in items)
        order = sorted(range(len(items)), key=lambda i: (items[i][1], labels[i][0]))
        faces = [items[i][0] for i in order]
        ranks = [items[i][1] for i in order]
        full = (1 << len(faces)) - 1
        non_bottom = full
        contains: dict[AtomSet, int] = {}
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
        return cls(faces, ranks, above, below)

    @classmethod
    def from_covers(cls, faces_ranks: Iterable[tuple[Face, int]],
                    covers: Iterable[tuple[Face, Face]]) -> "FacePoset":
        """Build from covering pairs (lower, upper); the order is the
        reflexive transitive closure."""
        items = sorted(faces_ranks, key=lambda fr: (fr[1], face_label(fr[0])))
        faces = [f for f, _ in items]
        ranks = [r for _, r in items]
        above = [1 << i for i in range(len(faces))]
        index = cls(faces, ranks, above).index  # raises on faces not listed
        pairs = [(index(a), index(b)) for a, b in covers]
        changed = True
        while changed:
            changed = False
            for a, b in pairs:
                merged = above[a] | above[b]
                if merged != above[a]:
                    above[a] = merged
                    changed = True
        return cls(faces, ranks, above)

    # -- queries ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.faces)

    def index(self, face: Face) -> int:
        try:
            return self._index[face]
        except KeyError:
            raise NestohedraError(f"not a face: {face_label(face)}") from None

    def leq(self, f: Face, g: Face) -> bool:
        return bool(self._above[self.index(f)] >> self.index(g) & 1)

    @property
    def rank(self) -> int:
        return max(self.ranks, default=-1)

    def faces_of_rank(self, k: int) -> tuple[Face, ...]:
        return tuple(f for f, r in zip(self.faces, self.ranks) if r == k)

    def bottom(self) -> Face | None:
        full = (1 << len(self.faces)) - 1
        for i in range(len(self.faces)):
            if self._above[i] == full:
                return self.faces[i]
        return None

    def top(self) -> Face | None:
        full = (1 << len(self.faces)) - 1
        for i in range(len(self.faces)):
            if self._below[i] == full:
                return self.faces[i]
        return None

    def _cover_masks(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Per face, the bitmask of the faces covering it (up) and of the
        faces it covers (down)."""
        if self._covers is None:
            n = len(self.faces)
            up = [0] * n
            down = [0] * n
            for i in range(n):
                for j in bits_of(self._above[i] & ~(1 << i)):
                    if self._above[i] & self._below[j] == (1 << i) | (1 << j):
                        up[i] |= 1 << j
                        down[j] |= 1 << i
            self._covers = (tuple(up), tuple(down))
        return self._covers

    def covers(self) -> list[tuple[int, int]]:
        """Index pairs (i, j) with j covering i, in ascending order."""
        up, _ = self._cover_masks()
        return [(i, j) for i, ups in enumerate(up) for j in bits_of(ups)]

    def iter_pairs(self) -> Iterator[tuple[int, int]]:
        """All strict pairs i < j in the order (by index)."""
        for i in range(len(self.faces)):
            ups = self._above[i] & ~(1 << i)
            for j in bits_of(ups):
                yield i, j

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FacePoset):
            return NotImplemented
        if set(zip(self.faces, self.ranks)) != set(zip(other.faces, other.ranks)):
            return False
        mine = {(self.faces[i], self.faces[j]) for i, j in self.iter_pairs()}
        theirs = {(other.faces[i], other.faces[j]) for i, j in other.iter_pairs()}
        return mine == theirs

    def __hash__(self) -> int:
        return hash(frozenset(zip(self.faces, self.ranks)))

    def __repr__(self) -> str:
        return f"FacePoset({len(self.faces)} faces, rank {self.rank})"


# ---------------------------------------------------------------------------
# the face poset of a hypergraph
# ---------------------------------------------------------------------------

def abstract_polytope(h: Hypergraph) -> FacePoset:
    """Constructs of ``h`` under reverse inclusion, plus a least face.

    A construct of cardinality c gets rank |carrier| - c; the bottom has
    rank -1 and the set of connected components of the carrier sits on
    top at rank |carrier| - (number of components).

    The covers come in closed form: the faces covering a construct C are
    C minus one member outside the top face, and the faces covering the
    bottom are the constructions.  Both are exactly the faces one rank
    up in the order, so each face covers the faces one rank down below it.
    """
    constructs = enumerate_constructs(h)
    n = h.n_atoms
    faces_ranks: list[tuple[Face, int]] = [(BOTTOM, -1)]
    faces_ranks += [(c, n - len(c)) for c in constructs]
    p = FacePoset._from_families(faces_ranks)
    at_rank: dict[int, int] = {}
    for i, r in enumerate(p.ranks):
        at_rank[r] = at_rank.get(r, 0) | 1 << i
    p._covers = (tuple(a & at_rank.get(r + 1, 0) for a, r in zip(p._above, p.ranks)),
                 tuple(b & at_rank.get(r - 1, 0) for b, r in zip(p._below, p.ranks)))
    return p


def f_vector(p: FacePoset) -> tuple[int, ...]:
    """Face counts from vertices up to facets (ranks 0 .. rank-1)."""
    return tuple(p.ranks.count(k) for k in range(p.rank))


# ---------------------------------------------------------------------------
# lattice operations
# ---------------------------------------------------------------------------

def meet(p: FacePoset, c1: Face, c2: Face) -> Face:
    """Greatest lower bound; on construct posets this is the union when
    the union is a construct, and the bottom face otherwise."""
    i, j = p.index(c1), p.index(c2)
    common = p._below[i] & p._below[j]
    for k in sorted(bits_of(common), key=lambda x: -p.ranks[x]):
        if common & ~p._below[k] == 0:
            return p.faces[k]
    raise NestohedraError("faces have no meet")


def join(p: FacePoset, c1: Face, c2: Face) -> Face:
    """Least upper bound; on construct posets this is the intersection."""
    i, j = p.index(c1), p.index(c2)
    common = p._above[i] & p._above[j]
    for k in sorted(bits_of(common), key=lambda x: p.ranks[x]):
        if common & ~p._above[k] == 0:
            return p.faces[k]
    raise NestohedraError("faces have no join")


def _poset_atoms(p: FacePoset) -> set[str]:
    atoms: set[str] = set()
    for f in p.faces:
        if f is BOTTOM:
            continue
        for member in f:
            atoms |= member
    return atoms


def otimes(*posets: FacePoset) -> FacePoset:
    """Product of construct posets over pairwise disjoint carriers.

    Faces of rank >= 0 are the disjoint unions of rank >= 0 faces, the
    bottoms are conflated, order is componentwise and rank adds.
    """
    if not posets:
        raise HypergraphError("otimes needs at least one poset")
    seen: set[str] = set()
    for p in posets:
        atoms = _poset_atoms(p)
        if atoms & seen:
            raise CarrierOverlapError(
                f"carriers overlap on {sorted(atoms & seen)}")
        seen |= atoms
    parts = []
    for p in posets:
        parts.append([(f, r) for f, r in zip(p.faces, p.ranks) if f is not BOTTOM])
    faces_ranks: list[tuple[Face, int]] = [(BOTTOM, -1)]
    for combo in product(*parts):
        face = frozenset().union(*(f for f, _ in combo))
        rank = sum(r for _, r in combo)
        faces_ranks.append((face, rank))
    return FacePoset._from_families(faces_ranks)


def continuation(h: Hypergraph, y: Iterable[str],
                 k: Iterable[Iterable[str]], j: Iterable[Iterable[str]]) -> Family:
    """Glue a construction of the part inside ``y`` with one of the trace
    on the complement into a construction of ``h``.

    Each member X of the trace factor contributes X ∪ y when that union
    is a member of ``h`` and X itself otherwise.
    """
    _ensure_asc(h)
    ys = frozenset(y)
    found = _masks_in(h, [ys], h.members)
    if isinstance(found, str):
        raise BadFactorError(f"{sorted(ys)} is not a member of the hypergraph")
    ymask, = found
    kf = frozenset(frozenset(s) for s in k)
    jf = frozenset(frozenset(s) for s in j)
    inside = frozenset(members_within(h.members, ymask))
    kmasks = _masks_in(h, kf, inside)
    if isinstance(kmasks, str) or _block_fault(inside, ymask, kmasks):
        raise BadFactorError("first factor is not a construction of the restriction")
    # when y is the carrier the trace is empty, with the empty construction
    rest = h.carrier_mask & ~ymask
    traces = frozenset(m & rest for m in h.members if m & rest)
    jmasks = _masks_in(h, jf, traces)
    if isinstance(jmasks, str) or _block_fault(traces, rest, jmasks):
        raise BadFactorError("second factor is not a construction of the trace" if rest
                             else "second factor must be empty when y is the carrier")
    out = set(kmasks)
    for x in jmasks:
        u = x | ymask
        out.add(u if u in h.members else x)
    return h.family(out)


def facet_section(h: Hypergraph, y: Iterable[str]) -> FacePoset:
    """The section of the face poset at and below the facet {y, carrier}:
    all constructs containing ``y``, plus the bottom.

    Each call builds the whole ``abstract_polytope(h)``; to take the
    section of every facet, build it once and call ``section`` on it
    for each facet."""
    _ensure_asc(h)
    ys = frozenset(y)
    carrier = frozenset(h.atoms)
    if ys not in h.member_sets or ys == carrier:
        raise NotFacetError(f"{sorted(ys)} does not give a facet")
    return section(abstract_polytope(h), frozenset({ys, carrier}), BOTTOM)


def section(p: FacePoset, g: Face, f: Face) -> FacePoset:
    """Induced poset between ``f`` and ``g``, reranked to start at -1."""
    fi, gi = p.index(f), p.index(g)
    if not p._above[fi] >> gi & 1:
        raise NotComparableError("section endpoints are not comparable")
    return _induced(p, p._above[fi] & p._below[gi], p.ranks[fi] + 1)


def _induced(p: FacePoset, keep: int, shift: int = 0) -> FacePoset:
    """The sub-order of ``p`` on the faces in the bitmask ``keep``, ranks
    lowered by ``shift`` and faces re-sorted like every other builder."""
    kept = list(bits_of(keep))
    label = {i: text for i, (text, _) in
             zip(kept, _labelled(p.faces[i] for i in kept))}
    old = sorted(kept, key=lambda i: (p.ranks[i], label[i]))
    new_of = {i: a for a, i in enumerate(old)}
    above = []
    for a, i in enumerate(old):
        row = 1 << a
        for j in bits_of(p._above[i] & keep):
            row |= 1 << new_of[j]
        above.append(row)
    return FacePoset([p.faces[i] for i in old],
                     [p.ranks[i] - shift for i in old], above)


# ---------------------------------------------------------------------------
# isomorphism testing
# ---------------------------------------------------------------------------

def poset_isomorphic(p1: FacePoset, p2: FacePoset) -> bool:
    """Order-preserving bijection test by signature refinement plus
    backtracking; intended for the small posets this package builds."""
    n = len(p1.faces)
    if n != len(p2.faces) or sorted(p1.ranks) != sorted(p2.ranks):
        return False

    def signatures(p: FacePoset) -> list:
        up, down = p._cover_masks()
        sig = list(p.ranks)
        for _ in range(3):
            sig = [hash((sig[i],
                         tuple(sorted(sig[j] for j in bits_of(up[i]))),
                         tuple(sorted(sig[j] for j in bits_of(down[i])))))
                   for i in range(len(p.faces))]
        return sig

    s1, s2 = signatures(p1), signatures(p2)
    if sorted(s1) != sorted(s2):
        return False
    cands = {i: [j for j in range(n) if s2[j] == s1[i]] for i in range(n)}
    order = sorted(range(n), key=lambda i: len(cands[i]))
    assigned: dict[int, int] = {}
    used: set[int] = set()

    def fits(i: int, j: int) -> bool:
        for a, b in assigned.items():
            if (p1._above[i] >> a & 1) != (p2._above[j] >> b & 1):
                return False
            if (p1._above[a] >> i & 1) != (p2._above[b] >> j & 1):
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


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def to_dot(p: FacePoset) -> str:
    """Rank-layered Hasse diagram in DOT form."""
    lines = ["digraph face_poset {", "  rankdir=BT;", "  node [shape=box];"]
    for i, (label, _) in enumerate(_labelled(p.faces)):
        lines.append(f'  n{i} [label="{label}"];')
    for r in sorted(set(p.ranks)):
        same = " ".join(f"n{i};" for i, rr in enumerate(p.ranks) if rr == r)
        lines.append("  { rank=same; %s }" % same)
    for a, b in p.covers():
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json_dict(p: FacePoset) -> dict:
    faces = []
    for i, (label, members) in enumerate(_labelled(p.faces)):
        if members is not None:
            members = [list(m) for m in members]
        faces.append({"id": i, "rank": p.ranks[i], "label": label, "members": members})
    return {"faces": faces, "covers": [list(c) for c in p.covers()]}
