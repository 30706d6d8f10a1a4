"""Dispensable subsets, cognate hypergraphs, and saturated closures.

A subset Y of the carrier is dispensable when the members strictly
inside Y already form a connected hypergraph on Y; adding or removing
dispensable members never changes which subsets are connected, and the
hypergraphs reachable that way form one cognate class.  Each class is a
lattice whose greatest element (the saturated closure) is closed under
unions of intersecting members and whose least element is bare.

The closure and the dispensable-subset listing share one walk over the
carrier subsets of two or more atoms, smaller subsets first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator

from .errors import CarrierMismatchError, NotSubsetError
from .hypergraph import (
    AtomSet,
    Hypergraph,
    family_is_connected,
    mask_sort_key,
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
    return family_is_connected(inner, ymask)


def is_dispensable(h: Hypergraph, y: Iterable[str]) -> bool:
    """The members strictly inside ``y`` form a connected hypergraph on ``y``.

    Singletons are never dispensable.
    """
    ys = set(y)
    if not ys <= set(h.atoms):
        raise NotSubsetError(f"{sorted(ys)} is not a subset of the carrier")
    return _dispensable_mask(h.members, h.mask(ys))


def _subsets_of_two_or_more(n: int) -> Iterator[int]:
    """Masks of the subsets of ``range(n)`` with at least two elements,
    by increasing cardinality."""
    for size in range(2, n + 1):
        for combo in combinations(range(n), size):
            mask = 0
            for i in combo:
                mask |= 1 << i
            yield mask


@lru_cache(maxsize=None)
def saturated_closure(h: Hypergraph) -> Hypergraph:
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


def bare_kernel(h: Hypergraph) -> Hypergraph:
    """Delete dispensable members greedily until none remains.

    The result does not depend on the deletion order; the tests assert
    this by deleting in two opposite orders.
    """
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


def are_cognate(h1: Hypergraph, h2: Hypergraph) -> bool:
    """Same carrier and same saturated closure."""
    if h1.atoms != h2.atoms:
        raise CarrierMismatchError("cognate hypergraphs need the same carrier")
    return saturated_closure(h1) == saturated_closure(h2)


def dispensable_subsets(h: Hypergraph) -> frozenset[AtomSet]:
    """All carrier subsets dispensable in ``h``.

    Cognate hypergraphs agree on this set, so it is also the set for
    every member of the cognate class.
    """
    out = []
    for mask in _subsets_of_two_or_more(h.n_atoms):
        if _dispensable_mask(h.members, mask):
            out.append(h.atom_set(mask))
    return frozenset(out)


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
