"""Constructions and constructs of atomic hypergraphs.

The production route is one peeling recursion (``_peel``) that
enumerates both: the empty family has the empty result; a connected
family with carrier X puts X on top of each result for the members
missing a peeled set S, one atom of X for constructions and any
nonempty S for constructs; a disconnected one takes unions across its
connected blocks.  S is what X's children leave uncovered, so every
result arises once.  ``_fpoly`` follows the construct recursion with
counts by size instead of sets, which gives f-vectors and ranks without
a face poset.

For atomic, saturated, connected (ASC) hypergraphs there is an
equivalent antichain characterization: a subfamily M of H is inside some
construction exactly when no antichain of M has its union in H, and it
is a construction when additionally |M| equals the carrier size.  One
block check (``_block_fault``) uses it for recognition.  Oracles: the
deletion recurrence ``_count`` for the counts, the pruned antichain
search ``_antichain_constructions`` for the constructions, and the power
set of each vertex's facets in ``face_lattice_isomorphic``.  The route
table ``ROUTES`` in ``tests/helpers.py`` names every route held against
an oracle, and each test oracle.

Three notations are carried: plain member families, forests (sets of
trees, each a root atom plus child trees), and prefix words with a
commutative ``+``.  Forests and words are read in one sweep over the
members by size; the parent map ``_forest`` is the tests' oracle forest.
Words parse back only when no atom name holds ``+``, ``(``, ``)`` or
whitespace and none is a prefix of another; the printer, the parser and
``nestohedra enumerate`` refuse other names with ``WordAtomsError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product
from math import prod
from typing import Callable, Iterable, Sequence

from .errors import (
    NestohedraError,
    NotAConstructionError,
    NotASCError,
    NotAtomicError,
    NotMemberError,
    RepeatedAtomError,
    STermSyntaxError,
    UnknownAtomError,
    WordAtomsError,
)
from .hypergraph import (
    Family,
    Hypergraph,
    bits_of,
    family_components,
    family_union,
    is_atomic,
    is_connected,
)
from .saturation import is_saturated, saturated_closure

# A forest construction is a frozenset of trees; a tree is a frozenset
# holding one root atom (str) and the child trees (frozensets).
FConstruction = frozenset


@cache
def is_asc(h: Hypergraph) -> bool:
    """Atomic, saturated and connected."""
    return is_atomic(h) and is_saturated(h) and is_connected(h)


def _ensure_asc(h: Hypergraph) -> None:
    if not is_asc(h):
        raise NotASCError("operation needs an atomic saturated connected hypergraph")


# ---------------------------------------------------------------------------
# antichain machinery
# ---------------------------------------------------------------------------

def _clique_walk(members: frozenset[int], lst: Sequence[int]
                 ) -> tuple[list[list[bool]], Callable[[list[int], int], bool]]:
    """The incomparability matrix of the masks ``lst`` and a walk over its
    cliques: ``grows_bad(cand, union)`` tells whether ``union`` joined
    with some clique of the indices ``cand`` lands in ``members``, where
    a lone set counts only when ``union`` is nonempty.

    The walk extends cliques one index at a time, so sets whose pairs
    already clash are rejected without touching larger subsets.
    """
    n = len(lst)
    incomp = [[False] * n for _ in range(n)]
    for i in range(n):
        a = lst[i]
        for j in range(i + 1, n):
            b = lst[j]
            c = a & b
            if c != a and c != b:
                incomp[i][j] = incomp[j][i] = True

    def grows_bad(cand: list[int], union: int) -> bool:
        for pos, i in enumerate(cand):
            u2 = union | lst[i]
            if union and u2 in members:
                return True
            nxt = [j for j in cand[pos + 1:] if incomp[i][j]]
            if nxt and grows_bad(nxt, u2):
                return True
        return False

    return incomp, grows_bad


def antichains_all_miss(members: frozenset[int], fam: Sequence[int]) -> bool:
    """No antichain of ``fam`` (>= 2 pairwise incomparable sets) has its
    union in ``members``."""
    lst = list(fam)
    _, grows_bad = _clique_walk(members, lst)
    return not grows_bad(list(range(len(lst))), 0)


def superficial_elements(m: Iterable[Iterable[str]], x: Iterable[str]) -> frozenset[str]:
    """Atoms of ``x`` lying in no proper subset of ``x`` within ``m``."""
    fam = frozenset(frozenset(s) for s in m)
    xs = frozenset(x)
    if xs not in fam:
        raise NotMemberError(f"{sorted(xs)} is not in the family")
    covered: set[str] = set()
    for y in fam:
        if y < xs:
            covered |= y
    return frozenset(xs - covered)


# ---------------------------------------------------------------------------
# enumeration (peeling recursion)
# ---------------------------------------------------------------------------

# cached on the member family (and the kind of result) alone: results
# depend only on the bitmask structure, so distinct hypergraphs sharing
# an ambient indexing reuse each other's subproblems.  Peeling reads only
# connected components and their carriers, which a hypergraph shares with
# its saturated closure, so the two peel alike and callers peel the
# members they are given.

@cache
def _peel(members: frozenset[int], constructs: bool) -> frozenset[frozenset[int]]:
    """Constructions of the member family, or its constructs."""
    comps = family_components(members)
    if len(comps) == 1:
        carrier = family_union(members)
        if constructs:
            peels, s = [], carrier
            while s:
                peels.append(s)
                s = (s - 1) & carrier
        else:
            peels = [1 << b for b in bits_of(carrier)]
        return frozenset(k | {carrier} for s in peels
                         for k in _peel(frozenset(m for m in members if not m & s),
                                        constructs))
    return frozenset(frozenset().union(*combo)
                     for combo in product(*(_peel(c, constructs) for c in comps)))


@cache
def _fpoly(members: frozenset[int]) -> tuple[int, ...]:
    """Construct counts of the member family by member count (entry c
    counts the constructs with c members), following
    ``_peel(members, True)`` without building a construct."""
    comps = family_components(members)
    if len(comps) == 1:
        carrier = family_union(members)
        out = [0] * (carrier.bit_count() + 1)
        s = carrier
        while s:
            for c, k in enumerate(_fpoly(frozenset(m for m in members if not m & s)), 1):
                out[c] += k
            s = (s - 1) & carrier
        return tuple(out)
    out = [1]
    for comp in comps:
        poly = _fpoly(comp)
        prev, out = out, [0] * (len(out) + len(poly) - 1)
        for i, a in enumerate(prev):
            for j, b in enumerate(poly):
                out[i + j] += a * b
    return tuple(out)


@cache
def _count(members: frozenset[int]) -> int:
    comps = family_components(members)
    if len(comps) == 1:
        return sum(_count(frozenset(m for m in members if not m >> b & 1))
                   for b in bits_of(family_union(members)))
    return prod(_count(c) for c in comps)


def _ensure_atomic(h: Hypergraph) -> None:
    if not is_atomic(h):
        raise NotAtomicError("constructions are defined for atomic hypergraphs")


def enumerate_constructions(h: Hypergraph) -> frozenset[Family]:
    """All constructions of an atomic hypergraph, as member families."""
    _ensure_atomic(h)
    return frozenset(h.family(k) for k in _peel(h.members, False))


def count_constructions(h: Hypergraph) -> int:
    """Construction count by the deletion recurrence, without building sets.

    The count oracle for the peeling recursion; the two are held against
    each other in the tests and by ``nestohedra verify``.
    """
    _ensure_atomic(h)
    return _count(h.members)


def _f_vector_and_rank(h: Hypergraph) -> tuple[tuple[int, ...], int]:
    """The f-vector and rank of ``abstract_polytope(h)`` for an atomic
    hypergraph, read off the construct counts by size: a construct with
    c members has rank |carrier| - c, so the fewest members give the
    rank and f_k counts the constructs with |carrier| - k members."""
    _ensure_atomic(h)
    counts = _fpoly(h.members)
    n = h.n_atoms
    rank = n - next(c for c, k in enumerate(counts) if k)
    return tuple(counts[n - k] for k in range(rank)), rank


def enumerate_constructs(h: Hypergraph) -> frozenset[Family]:
    """All subfamilies of constructions keeping every connected component,
    each read once off the peeling recursion: a block's carrier on top
    of a construct of the members missing a nonempty set of its atoms."""
    if not is_atomic(h):
        raise NotAtomicError("constructs are defined for atomic hypergraphs")
    return frozenset(h.family(c) for c in _peel(h.members, True))


# ---------------------------------------------------------------------------
# recognition (antichain route)
# ---------------------------------------------------------------------------

def _masks_in(h: Hypergraph, m: Iterable[Iterable[str]],
              members: frozenset[int]) -> list[int] | str:
    """Masks of the sets of ``m`` over h's carrier, or why they are not
    all in ``members``: the ``UnknownAtomError`` text if a set names an
    atom off the carrier, else "member outside the saturated closure"."""
    try:
        out = [h.mask(s) for s in m]
    except UnknownAtomError as exc:
        return str(exc)
    if not members.issuperset(out):
        return "member outside the saturated closure"
    return out


def is_construction(h: Hypergraph, m: Iterable[Iterable[str]]) -> bool:
    """Antichain characterization of a construction of an ASC hypergraph:
    m is a subfamily of h of carrier size whose antichains all miss h."""
    _ensure_asc(h)
    masks = _masks_in(h, m, h.members)
    if isinstance(masks, str) or len(set(masks)) != len(masks):
        return False
    return _block_fault(h.members, h.carrier_mask, masks) is None


def is_construct(h: Hypergraph, m: Iterable[Iterable[str]]) -> bool:
    """Antichain characterization of a construct of an ASC hypergraph:
    a subfamily containing the carrier whose antichains all miss h."""
    _ensure_asc(h)
    masks = _masks_in(h, m, h.members)
    if isinstance(masks, str):
        return False
    if h.carrier_mask not in masks and h.n_atoms > 0:
        return False
    return antichains_all_miss(h.members, masks)


def _block_fault(members: frozenset[int], carrier: int, fam: Sequence[int]) -> str | None:
    """Why ``fam``, distinct member masks of the block, is not a
    construction of the saturated connected block ``members`` on
    ``carrier``; None when it is one."""
    if len(fam) != carrier.bit_count():
        return "wrong member count inside a component"
    if not antichains_all_miss(members, fam):
        return "an antichain union lands in the hypergraph"
    return None


def _antichain_constructions(members: frozenset[int],
                             carrier: int) -> frozenset[frozenset[int]]:
    """Constructions of the saturated connected block ``members`` on
    ``carrier`` by the antichain route: the exhaustive oracle for
    ``_peel``, not the production path.

    Grows subfamilies in member order and adds a member x only when no
    antichain through x (x with chosen members, pairwise incomparable
    and incomparable to x) has its union in the block.  An antichain of
    a subfamily is one of every family containing it, so no
    construction is cut; each family of carrier size reached is still
    checked in full by ``_block_fault``.
    """
    lst = sorted(members)
    size = carrier.bit_count()
    incomp, grows_bad = _clique_walk(members, lst)
    out = set()

    def extend(chosen: list[int], start: int) -> None:
        if len(chosen) == size:
            fam = [lst[i] for i in chosen]
            if _block_fault(members, carrier, fam) is None:
                out.add(frozenset(fam))
            return
        for x in range(start, len(lst) - size + len(chosen) + 1):
            if not grows_bad([i for i in chosen if incomp[x][i]], lst[x]):
                extend(chosen + [x], x + 1)

    extend([], 0)
    return frozenset(out)


def _construction_masks(h: Hypergraph, k: Iterable[Iterable[str]]) -> list[int]:
    """Masks of ``k`` after checking it really is a construction of ``h``.

    Works for every atomic hypergraph: each connected block of the
    saturated closure must receive a block construction (a closure
    member is connected, so it lies inside one block).
    """
    _ensure_atomic(h)
    hbar = saturated_closure(h)
    masks = _masks_in(h, k, hbar.members)
    if isinstance(masks, str):
        raise NotAConstructionError(masks)
    if len(set(masks)) != len(masks):
        raise NotAConstructionError("repeated members")
    for comp in family_components(hbar.members):
        cmask = family_union(comp)
        fault = _block_fault(frozenset(comp), cmask, [m for m in masks if m & ~cmask == 0])
        if fault:
            raise NotAConstructionError(fault)
    return masks


# ---------------------------------------------------------------------------
# forest notation
# ---------------------------------------------------------------------------

def _read_forest(h: Hypergraph, masks: Iterable[int],
                 node: Callable[[str, list], object], top: Callable[[list], object]):
    """Read the construction with the already-checked member ``masks`` off
    its forest bottom up, with ``node(root atom, child results)`` per
    member and ``top`` on the trees.  Members nest or are disjoint, so
    visited by size (as in ``realization._coordinates``) a member's
    children are the trees read so far inside it, and its root is the
    one atom no smaller member fixed."""
    fixed = 0
    trees: dict[int, object] = {}  # each tree read so far: top mask -> result
    for m in sorted(masks, key=int.bit_count):
        root = m & ~fixed
        if not root or root & (root - 1):
            raise NestohedraError("internal error: non-unique root")
        inside = [t for t in trees if t & ~m == 0]
        trees[m] = node(h.atoms[root.bit_length() - 1], [trees.pop(t) for t in inside])
        fixed |= m
    return top(list(trees.values()))


def to_f_construction(h: Hypergraph, k: Iterable[Iterable[str]]) -> FConstruction:
    """Forest form of a construction: each tree bundles its root atom
    with the set of its child trees."""
    return _read_forest(h, _construction_masks(h, k),
                        lambda atom, trees: frozenset({atom, *trees}), frozenset)


# ---------------------------------------------------------------------------
# word notation
# ---------------------------------------------------------------------------

class STerm:
    """Base of the word syntax for constructions."""

    __slots__ = ()

    def __str__(self) -> str:
        return _sterm_str(self, in_sum=False)


@dataclass(frozen=True)
class Empty(STerm):
    __slots__ = ()


@dataclass(frozen=True)
class Prefix(STerm):
    atom: str
    rest: STerm


@dataclass(frozen=True)
class Sum(STerm):
    terms: tuple[STerm, ...]


EMPTY = Empty()


def make_sum(terms: Sequence[STerm]) -> STerm:
    """Canonical sum: a single summand collapses, the rest sort by their
    printed form (the commutativity quotient)."""
    ts = list(terms)
    if len(ts) == 1:
        return ts[0]
    return Sum(tuple(sorted(ts, key=str)))


def _sterm_str(t: STerm, in_sum: bool) -> str:
    if isinstance(t, Empty):
        return ""
    if isinstance(t, Prefix):
        body = t.atom + _sterm_str(t.rest, in_sum=False)
        if in_sum and not isinstance(t.rest, Empty):
            return "(" + body + ")"
        return body
    if isinstance(t, Sum):
        return "(" + "+".join(_sterm_str(s, in_sum=True) for s in t.terms) + ")"
    raise TypeError(f"not an STerm: {t!r}")


def sterm_atoms(t: STerm) -> frozenset[str]:
    """The atoms a word names: the union of the family it decodes to."""
    return frozenset().union(*sterm_to_family(t))


def sterm_to_family(t: STerm) -> Family:
    """Decode a word back into the member family it constructs: a prefix
    adds the member made of its atom and every atom of the rest."""
    if isinstance(t, Empty):
        return frozenset()
    if isinstance(t, Prefix):
        rest = sterm_to_family(t.rest)
        return rest | {frozenset().union(*rest) | {t.atom}}
    if isinstance(t, Sum):
        return frozenset().union(*(sterm_to_family(s) for s in t.terms))
    raise TypeError(f"not an STerm: {t!r}")


def _check_word_atoms(atoms: tuple[str, ...]) -> None:
    """Raise ``WordAtomsError`` when words over ``atoms`` may not parse
    back.  Reading names greedily is exact when no name holds a
    word symbol and no name is a prefix of another (in sorted order a
    name's extensions follow it directly)."""
    bad = [a for a in atoms if any(c in "+()" or c.isspace() for c in a)]
    if bad:
        raise WordAtomsError(f"words cannot be written: atom names {bad} hold "
                             "'+', '(', ')' or whitespace")
    ordered = sorted(atoms)
    clash = [[a, b] for a, b in zip(ordered, ordered[1:]) if b.startswith(a)]
    if clash:
        raise WordAtomsError(f"words cannot be written: atom names are not prefix-free: {clash}")


def _word(h: Hypergraph, masks: Iterable[int]) -> STerm:
    """Canonical word of the construction with the already-checked
    member ``masks``, over atom names that ``_check_word_atoms``
    accepts."""
    def word(terms: list[STerm]) -> STerm:
        return make_sum(terms) if terms else EMPTY

    return _read_forest(h, masks, lambda atom, terms: Prefix(atom, word(terms)), word)


def to_s_construction(h: Hypergraph, k: Iterable[Iterable[str]]) -> STerm:
    """Canonical word form of a construction; raises ``WordAtomsError``
    when the atom names cannot be spelled so that the word parses
    back."""
    _check_word_atoms(h.atoms)
    return _word(h, _construction_masks(h, k))


# ---------------------------------------------------------------------------
# word parser
# ---------------------------------------------------------------------------

class _SParser:
    """Recursive descent for ``term := atom term? | '(' term ('+' term)* ')'``.

    The caller has checked the atom names with ``_check_word_atoms``, so
    they are prefix-free and at most one matches at any position.
    Redundant parentheses around a single summand are accepted (words
    inside sums are conventionally parenthesized when printed).
    """

    def __init__(self, text: str, atoms: Sequence[str]):
        self.text = text
        self.pos = 0
        self.atoms = atoms

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def fail(self, why: str) -> STermSyntaxError:
        return STermSyntaxError(f"{why} at position {self.pos} in {self.text!r}")

    def match_atom(self) -> str:
        for a in self.atoms:
            if self.text.startswith(a, self.pos):
                self.pos += len(a)
                return a
        ch = self.peek()
        if ch and ch not in "()+":
            run = ""
            while self.pos + len(run) < len(self.text) and \
                    self.text[self.pos + len(run)] not in "()+":
                run += self.text[self.pos + len(run)]
            raise UnknownAtomError(f"unknown atom {run!r}")
        raise self.fail("expected an atom")

    def parse_term(self) -> STerm:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            parts = [self.parse_term()]
            while self.peek() == "+":
                self.pos += 1
                parts.append(self.parse_term())
            if self.peek() != ")":
                raise self.fail("expected ')'")
            self.pos += 1
            return make_sum(parts)
        atom = self.match_atom()
        if self.peek() and self.peek() not in ")+":
            return Prefix(atom, self.parse_term())
        return Prefix(atom, EMPTY)


def parse_s_construction(text: str, h: Hypergraph) -> STerm:
    """Parse word text over the carrier of ``h`` into a canonical STerm.

    Purely syntactic: the result need not construct ``h``.  Whitespace
    is not part of the grammar.  Refuses atom names as the printer does.
    """
    _check_word_atoms(h.atoms)
    if any(c.isspace() for c in text):
        raise STermSyntaxError("whitespace is not allowed in terms")
    if text == "":
        return EMPTY
    parser = _SParser(text, h.atoms)
    try:
        term = parser.parse_term()
    except RecursionError:
        # the walk below recurses no deeper than the parse did
        raise parser.fail("term nested too deeply") from None
    if parser.pos != len(text):
        raise parser.fail("trailing input")
    seen: set[str] = set()

    def walk(t: STerm) -> None:
        if isinstance(t, Prefix):
            if t.atom in seen:
                raise RepeatedAtomError(f"atom {t.atom!r} repeats")
            seen.add(t.atom)
            walk(t.rest)
        elif isinstance(t, Sum):
            for s in t.terms:
                walk(s)

    walk(term)
    return term
