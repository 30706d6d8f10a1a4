"""Graded face posets of atomic hypergraphs.

The faces are the constructs ordered by reverse inclusion, below a
distinguished bottom face.  The bottom is a sentinel variant rather than
a family with an extra marker element, so it can never collide with a
construct.  The poset stores its order once, as sparse rows: per face,
the sorted tuple of the indices of the faces above it.  Covers,
sections, ``top``, the lattice operations and the checkers read those
rows; no transpose of them is kept.

A nestohedron is a simple polytope, so the faces above a construct C
are exactly the subfamilies of C that keep its b block carriers,
2^(|C| - b) of them.  One builder gives each member one bit and lists
each face's row in closed form, as the submasks of its members beyond
those every face holds; ``abstract_polytope`` and ``facet_section``
read their covers off the rows, as the faces one rank up.  Other posets
(products, sections, hand-built ones) get their covers by a generic
scan.  No builder compares faces pairwise.

Faces sort by rank, then label; each poset labels its faces once, at
build, and its sections and exports read those labels.  The builder
takes the faces as member masks (constructs, or products over one
hypergraph of the factors' members) and joins each label from
per-member texts made once per build; ``_labelled`` labels only the
posets of ``from_covers`` and hand-built posets.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain, product
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
from .hypergraph import Family, Hypergraph, members_within, set_sort_key
from .constructions import _block_fault, _construct_masks, _ensure_asc, _masks_in


class _Bottom:
    __slots__ = ()

    def __repr__(self) -> str:
        return "F-1"


BOTTOM = _Bottom()

Face = object  # BOTTOM or a Family (frozenset of frozensets of atoms)


def face_label(face: Face) -> str:
    """Canonical printable form; members sort by cardinality then atoms.
    Other payloads (hand-built posets), families of non-string atoms
    among them, fall back to ``str``."""
    return _labelled([face])[0][0]


def _labelled(faces: Iterable[Face]) -> list[tuple[str, list[tuple[str, ...]] | None]]:
    """Each face's ``face_label`` and its members as sorted atom tuples,
    in the label's order (None for the bottom and other payloads)."""
    out: list[tuple[str, list[tuple[str, ...]] | None]] = []
    for face in faces:
        if face is BOTTOM:
            out.append(("F-1", None))
        elif isinstance(face, frozenset) and all(isinstance(m, frozenset) for m in face) \
                and all(isinstance(a, str) for a in chain.from_iterable(face)):
            members = [key[1] for key in sorted(map(set_sort_key, face))]
            out.append(("{" + ",".join("{%s}" % ",".join(m) for m in members) + "}", members))
        else:
            out.append((str(face), None))
    return out


Row = tuple[int, ...]


class FacePoset:
    """A finite poset with declared integer ranks.

    ``_above[i]`` is the sorted tuple of the indices j with face_i <=
    face_j (i included), the poset's only copy of its order.  The public
    constructor takes one rank and one row of face indices per face, in
    any order, and raises
    ``MalformedPosetError`` on a count that does not match the faces, a
    rank that is not an ``int``, or a row naming an unknown face or one
    face twice (``from_covers`` checks its ranks too); the builders hand
    over sorted rows without repeats.  ``_covers`` (per face,
    the sorted indices of the faces covering it and of those it covers)
    comes closed-form from ``abstract_polytope`` and ``facet_section``
    and from a generic scan of the rows otherwise; it and the checkers'
    well-formedness verdict (``_fault``, empty when well-formed) are
    kept once known.
    ``_labels`` holds each face's label and member atom tuples (a
    ``_labelled`` entry), made once: builders pass the labels they
    sorted by, else the constructor labels the faces.  Faces are
    hashable payloads, either ``BOTTOM`` or construct families, but
    hand-built posets may use any hashable labels.
    """

    __slots__ = ("faces", "ranks", "_above", "_index", "_covers", "_fault", "_labels")

    def __init__(self, faces: Sequence[Face], ranks: Sequence[int],
                 above: Iterable[Iterable[int]]):
        faces, ranks, rows = tuple(faces), tuple(ranks), list(above)
        n = len(faces)
        if not len(ranks) == len(rows) == n:
            raise MalformedPosetError(
                f"{n} faces need one rank and one row each: got {len(ranks)} ranks "
                f"and {len(rows)} rows")
        bad = next((i for i, rank in enumerate(ranks) if not isinstance(rank, int)), None)
        if bad is not None:
            raise MalformedPosetError(f"rank {bad} is not an integer")
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
        self._labels = tuple(_labelled(self.faces) if labels is None else labels)
        self._covers: tuple[tuple[Row, ...], tuple[Row, ...]] | None = None
        self._fault: str | None = None
        self._index = {}
        for i, f in enumerate(self.faces):
            if f in self._index:
                raise NestohedraError(f"duplicate face {self._labels[i][0]}")
            self._index[f] = i

    # -- construction ---------------------------------------------------

    @classmethod
    def from_covers(cls, faces_ranks: Iterable[tuple[Face, int]],
                    covers: Iterable[tuple[Face, Face]]) -> "FacePoset":
        """Build from covering pairs (lower, upper); the order is the
        reflexive transitive closure."""
        items = list(faces_ranks)
        faces, ranks = [f for f, _ in items], [r for _, r in items]
        n = len(faces)
        unsorted = cls(faces, ranks, [(i,) for i in range(n)])  # checks ranks, labels once
        index = unsorted.index
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
        # sorted as sections are: by rank, then label, tied labels in input order
        return _induced(cls._built(faces, ranks, above, unsorted._labels), range(n))

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
        common = set(range(len(self.faces))).intersection(*self._above)
        return self.faces[min(common)] if common else None

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

def _mask_poset(h: Hypergraph, items: Sequence[tuple[int, Sequence[int]]]) -> FacePoset:
    """The bottom, at rank -1, below one face per (rank, member masks)
    item of ``h``, ordered by reverse inclusion.

    The members that occur are numbered once in label order
    (``set_sort_key``), each with its printed text and atom tuple, so a
    face's label joins its members' texts in numbering order and its key
    for ``_up_rows`` sets their bits; each face family is built once,
    after the faces are sorted by (rank, label).
    """
    named = sorted((set_sort_key(h.atom_set(m)), m)
                   for m in frozenset().union(*(c for _, c in items)))
    position = {m: k for k, (_, m) in enumerate(named)}
    bit = [1 << k for k in range(len(named))]
    atoms = [key[1] for key, _ in named]
    texts = ["{%s}" % ",".join(key[1]) for key, _ in named]
    # labels are distinct, so the sort never compares positions or constructs
    order = []
    for rank, c in items:
        at = sorted(map(position.__getitem__, c))
        order.append((rank, "{%s}" % ",".join(map(texts.__getitem__, at)), at, c))
    order.sort()
    faces: list[Face] = [BOTTOM]
    ranks, keys, labels = [-1], [None], [("F-1", None)]
    for rank, label, at, c in order:
        faces.append(h.family(c))
        ranks.append(rank)
        keys.append(sum(map(bit.__getitem__, at)))
        labels.append((label, list(map(atoms.__getitem__, at))))
    return FacePoset._built(faces, ranks, _up_rows(keys), labels)


def _graded(p: FacePoset) -> FacePoset:
    """``p`` with its covers read off its rows: the faces covering a
    construct C are C minus one member outside the top face, and the
    faces covering the bottom are the constructions, so each covers
    the faces one rank down below it."""
    # faces sort by rank, so each row's faces one rank up are one slice
    start = {r: bisect_left(p.ranks, r) for r in range(-1, p.rank + 3)}
    up = tuple(row[bisect_left(row, start[r + 1]):bisect_left(row, start[r + 2])]
               for row, r in zip(p._above, p.ranks))
    p._covers = (up, _transpose(up))
    return p


def abstract_polytope(h: Hypergraph) -> FacePoset:
    """Constructs of ``h`` under reverse inclusion, plus a least face.

    A construct of cardinality c gets rank |carrier| - c; the bottom has
    rank -1 and the set of connected components of the carrier sits on
    top at rank |carrier| - (number of components).  The faces come off
    the peeling recursion as member masks, and the covers in closed form.
    """
    n = h.n_atoms
    return _graded(_mask_poset(h, [(n - len(c), c) for c in _construct_masks(h)]))


def f_vector(p: FacePoset) -> tuple[int, ...]:
    """Face counts from vertices up to facets (ranks 0 .. rank-1)."""
    return tuple(p.ranks.count(k) for k in range(p.rank))


# ---------------------------------------------------------------------------
# lattice operations
# ---------------------------------------------------------------------------

def meet(p: FacePoset, c1: Face, c2: Face) -> Face:
    """Greatest lower bound: of the faces whose rows hold both, the first
    by descending rank in all their rows.  On construct posets this is
    the union when it is a construct, and the bottom face otherwise."""
    i, j, rows = p.index(c1), p.index(c2), p._above
    lower = [k for k, row in enumerate(rows) if i in row and j in row]
    for k in sorted(lower, key=lambda x: -p.ranks[x]):
        if all(k in rows[x] for x in lower):
            return p.faces[k]
    raise NestohedraError("faces have no meet")


def join(p: FacePoset, c1: Face, c2: Face) -> Face:
    """Least upper bound: of the faces in the rows of both, the first by
    ascending rank whose row holds them all; on construct posets this is
    the intersection."""
    i, j, rows = p.index(c1), p.index(c2), p._above
    upper = sorted(set(rows[i]).intersection(rows[j]))
    for k in sorted(upper, key=lambda x: p.ranks[x]):
        if set(rows[k]).issuperset(upper):
            return p.faces[k]
    raise NestohedraError("faces have no join")


def otimes(*posets: FacePoset) -> FacePoset:
    """Product of construct posets over pairwise disjoint carriers.

    Faces of rank >= 0 are the disjoint unions of rank >= 0 faces, the
    bottoms are conflated, order is componentwise and rank adds.  It is
    built on the member masks of one hypergraph of the factors' members;
    hand-built factors rank freely, so the covers come from the scan.
    """
    if not posets:
        raise HypergraphError("otimes needs at least one poset")
    seen: set[str] = set()
    for p in posets:
        atoms: set[str] = set()
        for f, (label, _) in zip(p.faces, p._labels):
            try:
                atoms.update(*(() if f is BOTTOM else f))
            except TypeError:
                raise BadFactorError(f"face {label} is not a family of atom sets") from None
        if atoms & seen:
            raise CarrierOverlapError(
                f"carriers overlap on {sorted(atoms & seen)}")
        seen |= atoms
    h = Hypergraph.from_sets({m for p in posets for f in p.faces if f is not BOTTOM for m in f})
    parts = [[(r, tuple(map(h.mask, f))) for f, r in zip(p.faces, p.ranks) if f is not BOTTOM]
             for p in posets]
    items = [(sum(r for r, _ in combo), tuple(chain.from_iterable(c for _, c in combo)))
             for combo in product(*parts)]
    # construct products are closed under subfamilies; _up_rows refuses other families
    return _mask_poset(h, items)


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
    all constructs containing ``y``, plus the bottom.  It is built from
    those constructs alone, as ``abstract_polytope`` builds its poset,
    and keeps their ranks."""
    _ensure_asc(h)
    ys = frozenset(y)
    if ys not in h.member_sets or ys == frozenset(h.atoms):
        raise NotFacetError(f"{sorted(ys)} does not give a facet")
    ymask, n = h.mask(ys), h.n_atoms
    return _graded(_mask_poset(h, [(n - len(c), c) for c in _construct_masks(h) if ymask in c]))


def section(p: FacePoset, g: Face, f: Face) -> FacePoset:
    """Induced poset between ``f`` and ``g``, reranked to start at -1."""
    fi, gi = p.index(f), p.index(g)
    if gi not in p._above[fi]:
        raise NotComparableError("section endpoints are not comparable")
    return _induced(p, [k for k in p._above[fi] if gi in p._above[k]], p.ranks[fi] + 1)


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
    up, _ = p._cover_rows()
    faces = [{"id": i, "rank": rank, "label": label,
              "members": None if members is None else [list(m) for m in members]}
             for i, (rank, (label, members)) in enumerate(zip(p.ranks, p._labels))]
    return {"faces": faces, "covers": [[i, j] for i, ups in enumerate(up) for j in ups]}
