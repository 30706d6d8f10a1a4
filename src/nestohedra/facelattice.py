"""Graded face posets of atomic hypergraphs.

The faces are the constructs ordered by reverse inclusion, below a
distinguished bottom face.  The bottom is a sentinel variant rather than
a family with an extra marker element, so it can never collide with a
construct.  The poset stores its order as sparse rows: per face, the
sorted tuple of the indices of the faces above it; the transpose of
those rows, the faces below, is made on first read.  Covers, sections
and the lattice operations read the rows.

A nestohedron is a simple polytope, so the faces above a construct C
are exactly the subfamilies of C that keep its b block carriers,
2^(|C| - b) of them.  The builders give each member one bit and list
each face's row in closed form, as the submasks of its members beyond
those every face holds; ``abstract_polytope`` reads its covers off the
rows, as the faces one rank up.  Other posets (sections, products,
hand-built ones) get their covers by a generic scan.  No builder
compares faces pairwise.

Faces sort by rank, then label; each poset labels its faces once, at
build, and its sections and exports read those labels.
``abstract_polytope`` takes its faces as member masks straight off the
peeling recursion and joins each label from per-member texts made once
per build; ``_labelled`` labels only the products of ``otimes``, the
posets of ``from_covers`` and hand-built posets.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import product
from typing import Iterable, Iterator, Sequence

from .errors import (
    BadFactorError,
    CarrierOverlapError,
    HypergraphError,
    MalformedPosetError,
    NestohedraError,
    NotComparableError,
    NotFacetError,
)
from .hypergraph import AtomSet, Family, Hypergraph, members_within, set_sort_key
from .constructions import _block_fault, _construct_masks, _ensure_asc, _masks_in


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


def _by_rank_and_label(faces_ranks: Iterable[tuple[Face, int]]) -> tuple[list, list, list]:
    """Faces, ranks and ``_labelled`` entries sorted by (rank, label);
    ties keep their input order."""
    items = list(faces_ranks)
    labels = _labelled(f for f, _ in items)
    order = sorted(range(len(items)), key=lambda i: (items[i][1], labels[i][0]))
    return ([items[i][0] for i in order], [items[i][1] for i in order],
            [labels[i] for i in order])


Row = tuple[int, ...]


class FacePoset:
    """A finite poset with declared integer ranks.

    ``_above[i]`` is the sorted tuple of the indices j with face_i <=
    face_j (i included); ``_below`` is its transpose, made on first
    read (the exports and ``otimes`` never read it, nor do the axiom
    checkers on a well-formed poset).  The public constructor takes one
    rank and one row of face indices per face, in any order, and raises
    ``MalformedPosetError`` on a count that does not match the faces or
    a row naming an unknown face or one face twice; the builders hand
    over sorted rows without repeats.  ``_covers`` (per face,
    the sorted indices of the faces covering it and of those it covers)
    comes closed-form from ``abstract_polytope`` and from a generic scan
    of the rows otherwise; it and the checkers' well-formedness verdict
    (``_fault``, empty when well-formed) are kept once known.
    ``_labels`` holds each face's label and member atom tuples (a
    ``_labelled`` entry), made once: builders pass the labels they
    sorted by, else the constructor labels the faces.  Faces are
    hashable payloads, either ``BOTTOM`` or construct families, but
    hand-built posets may use any hashable labels.
    """

    __slots__ = ("faces", "ranks", "_above", "_down", "_index", "_covers", "_fault",
                 "_labels")

    def __init__(self, faces: Sequence[Face], ranks: Sequence[int],
                 above: Iterable[Iterable[int]]):
        faces, ranks, rows = tuple(faces), tuple(ranks), list(above)
        n = len(faces)
        if not len(ranks) == len(rows) == n:
            raise MalformedPosetError(
                f"{n} faces need one rank and one row each: got {len(ranks)} ranks "
                f"and {len(rows)} rows")
        for i, row in enumerate(rows):
            try:
                rows[i] = row = tuple(sorted(row))
            except TypeError:
                raise MalformedPosetError(
                    f"row {i} is not a collection of face indices") from None
            if not all(isinstance(j, int) for j in row):
                raise MalformedPosetError(f"row {i} is not a collection of face indices")
            if row and (row[0] < 0 or row[-1] >= n):
                bad = row[0] if row[0] < 0 else row[-1]
                raise MalformedPosetError(f"row {i} names face {bad}, not one of the {n} faces")
            if len(set(row)) != len(row):
                twice = next(a for a, b in zip(row, row[1:]) if a == b)
                raise MalformedPosetError(f"row {i} names face {twice} twice")
        self._fill(faces, ranks, rows, None)

    @classmethod
    def _built(cls, faces: Sequence[Face], ranks: Sequence[int], above: Sequence[Row],
               labels: Sequence[tuple]) -> "FacePoset":
        """A poset on rows a builder made sorted, without repeats and in
        range."""
        p = cls.__new__(cls)
        p._fill(faces, ranks, above, labels)
        return p

    def _fill(self, faces: Sequence[Face], ranks: Sequence[int], above: Sequence[Row],
              labels: Sequence[tuple] | None) -> None:
        self.faces = tuple(faces)
        self.ranks = tuple(ranks)
        self._above = tuple(above)
        self._down: tuple[Row, ...] | None = None
        self._labels = tuple(_labelled(self.faces) if labels is None else labels)
        self._covers: tuple[tuple[Row, ...], tuple[Row, ...]] | None = None
        self._fault: str | None = None
        self._index = {}
        for i, f in enumerate(self.faces):
            if f in self._index:
                raise NestohedraError(f"duplicate face {self._labels[i][0]}")
            self._index[f] = i

    @property
    def _below(self) -> tuple[Row, ...]:
        if self._down is None:
            self._down = _transpose(self._above)
        return self._down

    # -- construction ---------------------------------------------------

    @classmethod
    def from_covers(cls, faces_ranks: Iterable[tuple[Face, int]],
                    covers: Iterable[tuple[Face, Face]]) -> "FacePoset":
        """Build from covering pairs (lower, upper); the order is the
        reflexive transitive closure."""
        faces, ranks, labels = _by_rank_and_label(faces_ranks)
        n = len(faces)
        index = cls._built(faces, ranks, [(i,) for i in range(n)], labels).index
        succ: list[list[int]] = [[] for _ in range(n)]
        for a, b in [(index(a), index(b)) for a, b in covers]:  # raises on faces not listed
            succ[a].append(b)
        above = []
        for i in range(n):
            seen, todo = {i}, [i]
            while todo:
                for j in succ[todo.pop()]:
                    if j not in seen:
                        seen.add(j)
                        todo.append(j)
            above.append(tuple(sorted(seen)))
        return cls._built(faces, ranks, above, labels)

    # -- queries ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.faces)

    def index(self, face: Face) -> int:
        try:
            return self._index[face]
        except KeyError:
            raise NestohedraError(f"not a face: {face_label(face)}") from None

    def leq(self, f: Face, g: Face) -> bool:
        i, j = self.index(f), self.index(g)
        return j in self._above[i]

    @property
    def rank(self) -> int:
        return max(self.ranks, default=-1)

    def faces_of_rank(self, k: int) -> tuple[Face, ...]:
        return tuple(f for f, r in zip(self.faces, self.ranks) if r == k)

    def top(self) -> Face | None:
        n = len(self.faces)
        for i, row in enumerate(self._below):
            if len(row) == n:
                return self.faces[i]
        return None

    def _cover_rows(self) -> tuple[tuple[Row, ...], tuple[Row, ...]]:
        """Per face, the sorted indices of the faces covering it (up) and
        of the faces it covers (down)."""
        if self._covers is None:
            self._covers = _cover_scan(self._above)
        return self._covers

    def covers(self) -> list[tuple[int, int]]:
        """Index pairs (i, j) with j covering i, in ascending order."""
        up, _ = self._cover_rows()
        return [(i, j) for i, ups in enumerate(up) for j in ups]

    def iter_pairs(self) -> Iterator[tuple[int, int]]:
        """All strict pairs i < j in the order (by index)."""
        for i, row in enumerate(self._above):
            for j in row:
                if j != i:
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


def _transpose(rows: Sequence[Row]) -> tuple[Row, ...]:
    """Per index j, the sorted indices i whose row holds j."""
    out: list[list[int]] = [[] for _ in rows]
    add = [o.append for o in out]
    for i, row in enumerate(rows):
        for j in row:
            add[j](i)
    return tuple(map(tuple, out))


def _up_rows(keys: Sequence[int | None]) -> list[Row]:
    """Per face key (its member mask, None for the bottom), the sorted
    indices of the faces above it under reverse inclusion: the keys that
    join the members all faces share with a submask of its other
    members.  A face's row is the row of the face one member smaller,
    plus each of those faces with that member put back, so every such
    submask must be a face, as on construct posets; faces are visited
    by member count."""
    index = {key: i for i, key in enumerate(keys) if key is not None}
    shared = -1
    for key in index:
        shared &= key
    rows: list[Row] = [tuple(range(len(keys)))] * len(keys)  # the bottom's row
    try:
        for key in sorted(index, key=int.bit_count):
            i = index[key]
            free = key & ~shared
            low = free & -free
            if not low:
                rows[i] = (i,)
                continue
            smaller = rows[index[key ^ low]]
            rows[i] = tuple(sorted([*smaller, *[index[keys[j] | low] for j in smaller]]))
    except KeyError:
        raise NestohedraError("the faces are not closed under subfamilies that keep "
                              "the members all faces share") from None
    return rows


def _cover_scan(above: Sequence[Row]) -> tuple[tuple[Row, ...], tuple[Row, ...]]:
    """Up- and down-cover rows of the order with up-set rows ``above``:
    j covers i when i and j alone lie both above i and below j, that is
    when both are reflexive and j lies strictly above nothing else in
    i's row."""
    reflexive = [i in row for i, row in enumerate(above)]
    strict = [tuple(j for j in row if j != i) for i, row in enumerate(above)]
    up = []
    for i, row in enumerate(strict):
        blocked = set().union(*(strict[k] for k in row))
        up.append(tuple(j for j in row if reflexive[j] and j not in blocked)
                  if reflexive[i] else ())
    return tuple(up), _transpose(up)


# ---------------------------------------------------------------------------
# the face poset of a hypergraph
# ---------------------------------------------------------------------------

def abstract_polytope(h: Hypergraph) -> FacePoset:
    """Constructs of ``h`` under reverse inclusion, plus a least face.

    A construct of cardinality c gets rank |carrier| - c; the bottom has
    rank -1 and the set of connected components of the carrier sits on
    top at rank |carrier| - (number of components).

    The faces come off the peeling recursion as member masks.  The
    members that occur are numbered once in label order
    (``set_sort_key``), each with its printed text and atom tuple, so a
    face's label joins its members' texts in numbering order and its key
    for ``_up_rows`` sets their bits; each face family is built once,
    after the faces are sorted by (rank, label).

    The covers come in closed form: the faces covering a construct C are
    C minus one member outside the top face, and the faces covering the
    bottom are the constructions.  Both are exactly the faces one rank
    up in the order, so each face covers the faces one rank down below it.
    """
    constructs = _construct_masks(h)
    n = h.n_atoms
    named = sorted((set_sort_key(h.atom_set(m)), m) for m in frozenset().union(*constructs))
    position = {m: k for k, (_, m) in enumerate(named)}
    bit = [1 << k for k in range(len(named))]
    atoms = [key[1] for key, _ in named]
    texts = ["{%s}" % ",".join(key[1]) for key, _ in named]
    # labels are distinct, so the sort never compares positions or constructs
    order = []
    for c in constructs:
        at = sorted(map(position.__getitem__, c))
        order.append((n - len(c), "{%s}" % ",".join(map(texts.__getitem__, at)), at, c))
    order.sort()
    faces: list[Face] = [BOTTOM]
    ranks, keys, labels = [-1], [None], [("F-1", None)]
    for rank, label, at, c in order:
        faces.append(h.family(c))
        ranks.append(rank)
        keys.append(sum(map(bit.__getitem__, at)))
        labels.append((label, list(map(atoms.__getitem__, at))))
    p = FacePoset._built(faces, ranks, _up_rows(keys), labels)
    # faces sort by rank, so each row's faces one rank up are one slice
    start = {r: bisect_left(p.ranks, r) for r in range(-1, p.rank + 3)}
    up = tuple(row[bisect_left(row, start[r + 1]):bisect_left(row, start[r + 2])]
               for row, r in zip(p._above, p.ranks))
    p._covers = (up, _transpose(up))
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
    return _bound(p, p._below, c1, c2, -1, "meet")


def join(p: FacePoset, c1: Face, c2: Face) -> Face:
    """Least upper bound; on construct posets this is the intersection."""
    return _bound(p, p._above, c1, c2, 1, "join")


def _bound(p: FacePoset, rows: Sequence[Row], c1: Face, c2: Face, sign: int,
           what: str) -> Face:
    """Of the faces in the rows of both ``c1`` and ``c2`` (down-sets for
    the meet, up-sets for the join), the first by ``sign`` times rank
    whose own row holds them all."""
    i, j = p.index(c1), p.index(c2)
    common = sorted(set(rows[i]).intersection(rows[j]))
    for k in sorted(common, key=lambda x: sign * p.ranks[x]):
        if set(rows[k]).issuperset(common):
            return p.faces[k]
    raise NestohedraError(f"faces have no {what}")


def otimes(*posets: FacePoset) -> FacePoset:
    """Product of construct posets over pairwise disjoint carriers.

    Faces of rank >= 0 are the disjoint unions of rank >= 0 faces, the
    bottoms are conflated, order is componentwise and rank adds.
    """
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
    faces_ranks: list[tuple[Face, int]] = [(BOTTOM, -1)]
    for combo in product(*parts):
        face = frozenset().union(*(f for f, _ in combo))
        rank = sum(r for _, r in combo)
        faces_ranks.append((face, rank))
    faces, ranks, labels = _by_rank_and_label(faces_ranks)
    members = frozenset().union(*(f for f in faces if f is not BOTTOM))
    bit = {m: 1 << k for k, m in enumerate(members)}
    keys = [None if f is BOTTOM else sum(map(bit.__getitem__, f)) for f in faces]
    # construct products are closed under subfamilies; _up_rows refuses other families
    return FacePoset._built(faces, ranks, _up_rows(keys), labels)


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
    if gi not in p._above[fi]:
        raise NotComparableError("section endpoints are not comparable")
    return _induced(p, set(p._above[fi]).intersection(p._below[gi]), p.ranks[fi] + 1)


def _induced(p: FacePoset, keep: Iterable[int], shift: int = 0) -> FacePoset:
    """The sub-order of ``p`` on the faces whose indices are in ``keep``,
    ranks lowered by ``shift`` and faces re-sorted by the parent's labels."""
    old = sorted(keep, key=lambda i: (p.ranks[i], p._labels[i][0], i))
    new_of = {i: a for a, i in enumerate(old)}
    above = [tuple(sorted({a}.union(new_of[j] for j in p._above[i] if j in new_of)))
             for a, i in enumerate(old)]
    return FacePoset._built([p.faces[i] for i in old], [p.ranks[i] - shift for i in old],
                            above, [p._labels[i] for i in old])


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def to_dot(p: FacePoset) -> str:
    """Rank-layered Hasse diagram in DOT form."""
    lines = ["digraph face_poset {", "  rankdir=BT;", "  node [shape=box];"]
    for i, (label, _) in enumerate(p._labels):
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
    for i, (label, members) in enumerate(p._labels):
        if members is not None:
            members = [list(m) for m in members]
        faces.append({"id": i, "rank": p.ranks[i], "label": label, "members": members})
    return {"faces": faces, "covers": [list(c) for c in p.covers()]}
