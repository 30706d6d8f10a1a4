"""Dispensable subsets, cognate hypergraphs, and saturated closures.

A subset Y of the carrier is dispensable when the members strictly
inside Y already form a connected hypergraph on Y; adding or removing
dispensable members never changes which subsets are connected, and the
hypergraphs reachable that way form one cognate class.  Each class is a
lattice whose greatest element (the saturated closure) is closed under
unions of intersecting members and whose least element is bare.

Every dispensable subset is the union of a connected family of members,
so it is a member of the closure: the closure is computed by pairwise
unions, and the dispensable subsets are read off it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .errors import CarrierMismatchError, NotSubsetError
from .hypergraph import (
    AtomSet,
    Hypergraph,
    family_components,
    family_union,
    members_within,
)


def is_saturated(h: Hypergraph) -> bool:
    """Closed under unions of intersecting members."""
    ms = list(h.members)
    for i, a in enumerate(ms):
        for b in ms[i + 1:]:
            if a & b and (a | b) not in h.members:
                return False
    return True


def _dispensable_mask(members: frozenset[int], ymask: int) -> bool:
    # the empty subset never counts: members are nonempty, so nothing
    # could witness it and nothing may be enhanced by it
    if ymask == 0:
        return False
    inner = [m for m in members_within(members, ymask) if m != ymask]
    return family_union(inner) == ymask and len(family_components(inner)) <= 1


def is_dispensable(h: Hypergraph, y: Iterable[str]) -> bool:
    """The members strictly inside ``y`` form a connected hypergraph on ``y``.

    Singletons are never dispensable.
    """
    ys = set(y)
    if not ys <= set(h.atoms):
        raise NotSubsetError(f"{sorted(ys)} is not a subset of the carrier")
    return _dispensable_mask(h.members, h.mask(ys))


@lru_cache(maxsize=None)
def saturated_closure(h: Hypergraph) -> Hypergraph:
    """Least fixpoint of adding every dispensable subset.

    Closes the members under unions of intersecting pairs, each round
    pairing only the members the previous round found with the whole
    family.  The union of two intersecting members is dispensable, and a
    dispensable subset is the union of a connected family, which such
    unions reach one member at a time.
    """
    current = set(h.members)
    fresh = list(current)
    while fresh:
        pool = list(current)
        found = []
        for a in fresh:
            for b in pool:
                u = a | b
                if a & b and u not in current:
                    current.add(u)
                    found.append(u)
        fresh = found
    return Hypergraph(h.atoms, current)


def bare_kernel(h: Hypergraph) -> Hypergraph:
    """The members of ``h`` that are not dispensable in ``h``.

    Deleting a dispensable member keeps the closure, and dispensability
    depends only on the closure, so greedy deletion in any order ends at
    this set; the tests assert this by deleting in two opposite orders.
    """
    return Hypergraph(h.atoms, [m for m in h.members
                                if not _dispensable_mask(h.members, m)])


def are_cognate(h1: Hypergraph, h2: Hypergraph) -> bool:
    """Same carrier and same saturated closure."""
    if h1.atoms != h2.atoms:
        raise CarrierMismatchError("cognate hypergraphs need the same carrier")
    return saturated_closure(h1) == saturated_closure(h2)


def dispensable_subsets(h: Hypergraph) -> frozenset[AtomSet]:
    """All carrier subsets dispensable in ``h``.

    Cognate hypergraphs agree on this set, so it is also the set for
    every member of the cognate class.  Each one is a member of the
    saturated closure, so only the closure's members are tested.
    """
    return frozenset(h.atom_set(m) for m in saturated_closure(h).members
                     if _dispensable_mask(h.members, m))


@dataclass(frozen=True)
class CognateClassSummary:
    """Extremes of a cognate class plus its dispensable subsets."""

    saturated_top: Hypergraph
    bare_bottom: Hypergraph
    dispensables: frozenset[AtomSet]


def cognate_class(h: Hypergraph) -> CognateClassSummary:
    top = saturated_closure(h)
    return CognateClassSummary(
        saturated_top=top,
        bare_bottom=bare_kernel(h),
        dispensables=dispensable_subsets(top),
    )
