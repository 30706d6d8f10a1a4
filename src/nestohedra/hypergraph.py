"""Finite hypergraphs over string-named carriers.

A hypergraph is a family of nonempty subsets of a finite carrier whose
union is exactly the carrier.  Atoms are strings externally; internally
every subset is an int bitmask over the sorted atom tuple, which keeps
the enumeration loops that dominate this package cheap.  Python ints are
unbounded, so one representation covers carriers of any size.

The canonical member order (``mask_sort_key``, ``set_sort_key``) and
the member ``census`` by size are defined here for every other module.

All values are immutable after construction and safe to share.  Each
hypergraph names a mask's atoms once, in its atom-set table: a dict
from mask to frozenset that builds and keeps a missing mask's frozenset
on first lookup.  ``atom_set`` and ``family`` both read the table, so
every family read off the same hypergraph shares one object (and one
cached hash) per member, and ``family`` costs one C-level dict lookup
per member.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator, Sequence

from .errors import (
    CarrierMismatchError,
    DuplicateMemberError,
    EmptyMemberError,
    HypergraphError,
    NotAtomicError,
    NotSubsetError,
    UnknownAtomError,
)

Carrier = tuple[str, ...]
AtomSet = frozenset[str]
Family = frozenset[AtomSet]


# ---------------------------------------------------------------------------
# bitmask family helpers (shared by the sibling modules)
# ---------------------------------------------------------------------------

def bits_of(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def family_union(masks: Iterable[int]) -> int:
    u = 0
    for m in masks:
        u |= m
    return u


def family_components(masks: Iterable[int]) -> list[frozenset[int]]:
    """Group members by connectivity of the intersection graph.

    Two members are linked when they share an atom.  Returns the groups
    sorted by their carrier mask; the empty family yields no groups.
    """
    comps: list[tuple[int, set[int]]] = []
    for m in sorted(masks):
        carrier, members = m, {m}
        keep = []
        for c, mem in comps:
            if c & m:
                carrier |= c
                members |= mem
            else:
                keep.append((c, mem))
        keep.append((carrier, members))
        comps = keep
    return [frozenset(mem) for _, mem in sorted(comps)]


def members_within(masks: Iterable[int], ymask: int) -> list[int]:
    """Members entirely contained in ``ymask``."""
    return [m for m in masks if m & ~ymask == 0]


def mask_sort_key(mask: int) -> tuple[int, tuple[int, ...]]:
    """Canonical subset order: cardinality first, then index-lexicographic."""
    idx = tuple(bits_of(mask))
    return (len(idx), idx)


def set_sort_key(s: AtomSet) -> tuple[int, tuple[str, ...]]:
    """Canonical order on atom-name sets: cardinality first, then the
    sorted atom names."""
    return (len(s), tuple(sorted(s)))


# ---------------------------------------------------------------------------
# the Hypergraph value
# ---------------------------------------------------------------------------

class _AtomSets(dict):
    """Mask -> the frozenset of its atom names, built and kept on the
    first lookup of a mask."""

    __slots__ = ("atoms",)

    def __init__(self, atoms: Carrier):
        super().__init__()
        self.atoms = atoms

    def __missing__(self, mask: int) -> AtomSet:
        s = self[mask] = frozenset(self.atoms[i] for i in bits_of(mask))
        return s


class Hypergraph:
    """Immutable hypergraph; ``members`` are bitmasks over ``atoms``.

    ``atoms`` is always stored sorted, so equal carriers index equally
    and hypergraph equality is plain field equality.  Copies and
    pickles rebuild from the two fields, so a copy has its own atom-set
    table and a hash computed in the process that reads it.
    """

    __slots__ = ("atoms", "members", "_index", "_hash", "_sets")

    def __init__(self, atoms: Sequence[str], member_masks: Iterable[int]):
        self.atoms: Carrier = tuple(atoms)
        self.members: frozenset[int] = frozenset(member_masks)
        self._index = {a: i for i, a in enumerate(self.atoms)}
        self._hash = None
        self._sets = _AtomSets(self.atoms)

    def __reduce__(self):
        return (type(self), (self.atoms, self.members))

    @classmethod
    def from_sets(cls, members: Iterable[Iterable[str]],
                  carrier: Iterable[str] | None = None) -> "Hypergraph":
        """Build and check a hypergraph from atom-name sets.

        With no ``carrier`` the carrier is the union of the members.  A
        declared carrier must have distinct atoms and equal that union.
        Members and the carrier are iterables of nonempty atom-name
        strings (a string iterates as its one-character atoms).
        """
        try:
            fams: list[AtomSet] = [frozenset(raw) for raw in members]
            union: set[str] = set().union(*fams)
            declared = None if carrier is None else list(carrier)
            atoms_set = union if declared is None else set(declared)
        except TypeError:
            raise HypergraphError(
                "members and the carrier must be collections of atom names") from None
        for a in union | atoms_set:
            if not isinstance(a, str) or not a:
                raise HypergraphError(f"atoms must be nonempty strings, got {a!r}")
        seen: set[AtomSet] = set()
        for fam in fams:
            if not fam:
                raise EmptyMemberError("the empty set cannot be a member")
            if fam in seen:
                raise DuplicateMemberError(f"duplicate member {sorted(fam)}")
            seen.add(fam)
        if declared is not None:
            if len(atoms_set) != len(declared):
                raise CarrierMismatchError("carrier atoms must be distinct")
            stray = union - atoms_set
            if stray:
                raise UnknownAtomError(
                    f"member atoms not in the carrier: {sorted(stray)}")
            if union != atoms_set:
                unused = sorted(atoms_set - union)
                raise CarrierMismatchError(
                    f"carrier is not the union of the members; unused atoms: {unused}")
        atoms = tuple(sorted(atoms_set))
        index = {a: i for i, a in enumerate(atoms)}
        masks = {sum(1 << index[a] for a in fam) for fam in fams}
        return cls(atoms, masks)

    # -- basic views --------------------------------------------------------

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    @property
    def carrier_mask(self) -> int:
        return (1 << len(self.atoms)) - 1

    def mask(self, atom_names: Iterable[str]) -> int:
        m = 0
        for a in atom_names:
            i = self._index.get(a)
            if i is None:
                raise UnknownAtomError(f"unknown atom {a!r}")
            m |= 1 << i
        return m

    def atom_set(self, mask: int) -> AtomSet:
        """The atom names of ``mask``, interned: built on the first call
        and returned as the same object for the hypergraph's lifetime
        (safe to share, being immutable)."""
        return self._sets[mask]

    def family(self, masks: Iterable[int]) -> Family:
        """The member family of ``masks``, each member interned as by
        ``atom_set``."""
        return frozenset(map(self._sets.__getitem__, masks))

    @property
    def member_sets(self) -> Family:
        return self.family(self.members)

    def canonical_masks(self) -> list[int]:
        return sorted(self.members, key=mask_sort_key)

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self.atoms == other.atoms and self.members == other.members

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.atoms, self.members))
        return self._hash

    def __repr__(self) -> str:
        mem = ",".join("{%s}" % ",".join(self.atoms[i] for i in bits_of(m))
                       for m in self.canonical_masks())
        return f"Hypergraph[{','.join(self.atoms)}]{{{mem}}}"


# ---------------------------------------------------------------------------
# core operations
# ---------------------------------------------------------------------------

def is_connected(h: Hypergraph) -> bool:
    """True when ``h`` has a single hypergraph partition.

    Equivalent to connectivity of the intersection graph; the empty
    hypergraph counts as connected.
    """
    return len(family_components(h.members)) <= 1


def finest_partition(h: Hypergraph) -> frozenset[Hypergraph]:
    """The unique partition of ``h`` into connected blocks; their member
    families and carriers both partition those of ``h``."""
    blocks = []
    for comp in family_components(h.members):
        names = [h.atom_set(m) for m in comp]
        blocks.append(Hypergraph.from_sets(names))
    return frozenset(blocks)


def census(h: Hypergraph) -> tuple[int, ...]:
    """Member counts by cardinality 1, 2, ..., up to the largest member;
    ``()`` for the empty hypergraph."""
    counts = [0] * max((m.bit_count() for m in h.members), default=0)
    for m in h.members:
        counts[m.bit_count() - 1] += 1
    return tuple(counts)


def is_atomic(h: Hypergraph) -> bool:
    """Every singleton of a carrier atom is a member."""
    return all((1 << i) in h.members for i in range(h.n_atoms))


def restriction(h: Hypergraph, y: Iterable[str]) -> Hypergraph:
    """The sub-hypergraph of members contained in ``y``, on carrier ``y``.

    Defined for atomic hypergraphs, where the result is again atomic
    with carrier exactly ``y``.
    """
    if not is_atomic(h):
        raise NotAtomicError("restriction needs an atomic hypergraph")
    ys = set(y)
    if not ys <= set(h.atoms):
        raise NotSubsetError(f"{sorted(ys)} is not a subset of the carrier")
    ymask = h.mask(ys)
    fams = [h.atom_set(m) for m in members_within(h.members, ymask)]
    return Hypergraph.from_sets(fams, carrier=ys)


def quotient(h: Hypergraph, z: Iterable[str]) -> Hypergraph:
    """Trace of ``h`` on ``z``: nonempty intersections of members with ``z``."""
    zs = set(z)
    if not zs <= set(h.atoms):
        raise NotSubsetError(f"{sorted(zs)} is not a subset of the carrier")
    zmask = h.mask(zs)
    fams = {h.atom_set(m & zmask) for m in h.members if m & zmask}
    return Hypergraph.from_sets(fams, carrier=zs)


# ---------------------------------------------------------------------------
# external formats
# ---------------------------------------------------------------------------

def to_json(h: Hypergraph) -> str:
    doc = {
        "carrier": list(h.atoms),
        "members": [sorted(h.atom_set(m)) for m in h.canonical_masks()],
    }
    return json.dumps(doc)


def from_json(text: str) -> Hypergraph:
    try:
        doc = json.loads(text)
    # ValueError also covers over-long integers; deep nesting recurses
    except (ValueError, RecursionError) as exc:
        raise HypergraphError(f"invalid JSON: {exc}") from exc
    shape = 'expected {"carrier": [...], "members": [[...], ...]}'
    if not isinstance(doc, dict) or "carrier" not in doc or "members" not in doc:
        raise HypergraphError(shape)
    carrier, members = doc["carrier"], doc["members"]
    # a JSON string would otherwise be read as a list of one-letter atoms
    if not isinstance(carrier, list) or not isinstance(members, list) \
            or not all(isinstance(m, list) for m in members):
        raise HypergraphError(shape)
    return Hypergraph.from_sets(members, carrier=carrier)


def to_text(h: Hypergraph) -> str:
    """Compact text format: one member per line, atoms comma-separated."""
    for a in h.atoms:
        if "," in a or "#" in a or any(c.isspace() for c in a):
            raise HypergraphError(
                f"atom {a!r} cannot be written in the compact text format")
    lines = [",".join(sorted(h.atom_set(m))) for m in h.canonical_masks()]
    return "\n".join(lines) + ("\n" if lines else "")


def from_text(text: str) -> Hypergraph:
    """Parse the compact format.  ``#`` starts a comment; blank lines are
    ignored; duplicate members and empty members are rejected."""
    fams = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        atoms = [a.strip() for a in line.split(",")]
        if any(not a for a in atoms):
            raise HypergraphError(f"empty atom name in line {raw!r}")
        fams.append(atoms)
    return Hypergraph.from_sets(fams)
