"""Abstract-polytope checking for graded face posets.

Two independent checkers are provided.  ``verify_axioms`` tests the
four classical properties: a unique least and greatest face, uniform
flag length, strong connectedness of every section, and the diamond
condition.  ``verify_inductive`` instead rebuilds the poset bottom-up:
each face's down-set must arise from a closely connected, bivalent set
of one-rank-lower polytopes.  The two accept exactly the same posets;
the tests exercise that equivalence rather than assuming it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import MalformedPosetError
from .facelattice import FacePoset, face_label
from .hypergraph import bits_of


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one checker run.

    For the inductive checker the four flags hold the matching
    conditions: p1 bounds, p2 base cases and facet coverage, p3 close
    connectedness, p4 bivalence.
    """

    p1_ok: bool
    p2_ok: bool
    p3_ok: bool
    p4_ok: bool
    rank: int
    counterexamples: tuple[tuple[str, tuple[str, ...]], ...] = field(default=())
    flags_checked: int = 0
    sections_checked: int = 0

    @property
    def ok(self) -> bool:
        return self.p1_ok and self.p2_ok and self.p3_ok and self.p4_ok

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "p1_ok": self.p1_ok,
            "p2_ok": self.p2_ok,
            "p3_ok": self.p3_ok,
            "p4_ok": self.p4_ok,
            "rank": self.rank,
            "flags_checked": self.flags_checked,
            "sections_checked": self.sections_checked,
            "counterexamples": [
                {"property": prop, "witnesses": list(wit)}
                for prop, wit in self.counterexamples
            ],
        }


def _order_fault(p: FacePoset) -> str:
    """Why the order is not a partial order with ranks strictly monotone
    on it; empty when it is."""
    n = len(p.faces)
    for i in range(n):
        above = p._above[i]
        if not above >> i & 1:
            return "order is not reflexive"
        for j in bits_of(above & ~(1 << i)):
            if p._above[j] >> i & 1:
                return "order is not antisymmetric"
            if p._above[j] & ~above:
                return "order is not transitive"
            if p.ranks[j] <= p.ranks[i]:
                return (f"rank does not increase from {face_label(p.faces[i])} "
                        f"to {face_label(p.faces[j])}")
    return ""


def _preamble(p: FacePoset, label: str) -> tuple[
        bool, list[tuple[str, tuple[str, ...]]], dict[int, int]]:
    """The checks both checkers start with: a well-formed order, then a
    unique least and greatest face.  Returns that verdict, the
    counterexamples (up to four least and greatest faces under ``label``
    on failure) and the bitmask of the faces of each rank."""
    if p._fault is None:
        p._fault = _order_fault(p)
    if p._fault:
        raise MalformedPosetError(p._fault)
    n = len(p.faces)
    full = (1 << n) - 1
    bottoms = [i for i in range(n) if p._above[i] == full]
    tops = [i for i in range(n) if p._below[i] == full]
    counter: list[tuple[str, tuple[str, ...]]] = []
    bounded = len(bottoms) == 1 and len(tops) == 1
    if not bounded:
        witness = tuple(face_label(p.faces[i]) for i in (bottoms + tops)[:4])
        counter.append((label, witness))
    rank_mask: dict[int, int] = {}
    for i, rk in enumerate(p.ranks):
        rank_mask[rk] = rank_mask.get(rk, 0) | 1 << i
    return bounded, counter, rank_mask


def verify_axioms(p: FacePoset) -> VerificationReport:
    """Check the least/greatest, flag-length, strong-connectedness and
    diamond properties, reporting witnesses for each failure."""
    p1, counter, rank_mask = _preamble(p, "P1")
    n = len(p.faces)
    r = p.rank

    # flags: maximal chains along covers from the minimal faces.  Each
    # face keeps the lengths of the chains from it to a maximal face,
    # with their numbers, so no flag is walked one by one.
    up, down = p._cover_masks()
    tails: list[dict[int, int]] = [{}] * n
    for i in sorted(range(n), key=lambda i: -p.ranks[i]):
        if not up[i]:
            tails[i] = {1: 1}
            continue
        tail: dict[int, int] = {}
        for j in bits_of(up[i]):
            for length, count in tails[j].items():
                tail[length + 1] = tail.get(length + 1, 0) + count
        tails[i] = tail
    minimals = [i for i in range(n) if p._below[i] == 1 << i]
    expected = r + 2
    flags_checked = sum(sum(tails[i].values()) for i in minimals)
    p2 = all(tails[i].keys() == {expected} for i in minimals)
    if not p2:
        # the first bad flag in depth-first order, last cover first
        def bad(i: int, depth: int) -> bool:
            return any(depth + length != expected for length in tails[i])

        i, depth = next(i for i in reversed(minimals) if bad(i, 0)), 1
        while up[i]:
            i = next(j for j in reversed(list(bits_of(up[i]))) if bad(j, depth))
            depth += 1
        counter.append(("P2", (face_label(p.faces[i]), f"length {depth}")))

    # strong connectedness: only sections of rank >= 2 need a check.
    # Every face strictly between f and g lies above an atom (a cover of
    # f below g) and below a coatom (a face covered by g above f), so the
    # open interval is connected exactly when the coatoms' atom sets,
    # merged while any two overlap, become one set: all the atoms.
    rank_at_least: dict[int, int] = {}
    acc = 0
    for rk in range(r, min(p.ranks, default=r) - 1, -1):
        acc |= rank_mask.get(rk, 0)
        rank_at_least[rk] = acc
    p3 = True
    sections_checked = 0
    above, below = p._above, p._below
    for f in range(n):
        above_f, up_f = above[f], up[f]
        for g in bits_of(above_f & rank_at_least.get(p.ranks[f] + 3, 0)):
            sections_checked += 1
            # when g covers f, f is the only coatom and the interval is empty
            sets = [up_f & below[c] for c in bits_of(down[g] & above_f)]
            if len(sets) <= 1:
                continue
            lows = up_f & below[g]
            merged, last = sets[0], 0
            while merged != last and merged != lows:
                last = merged
                for atoms in sets:
                    if atoms & merged:
                        merged |= atoms
            if merged != lows:
                p3 = False
                counter.append(("P3", (face_label(p.faces[f]),
                                       face_label(p.faces[g]))))

    # diamond: exactly two faces strictly between any rank-gap-2 pair
    p4 = True
    for f in range(n):
        for g in bits_of(p._above[f] & rank_mask.get(p.ranks[f] + 2, 0)):
            mids = (p._above[f] & p._below[g]) & ~(1 << f) & ~(1 << g)
            if mids.bit_count() != 2:
                p4 = False
                counter.append(("P4", (face_label(p.faces[f]),
                                       face_label(p.faces[g]),
                                       f"{mids.bit_count()} between")))

    return VerificationReport(p1, p2, p3, p4, r, tuple(counter),
                              flags_checked, sections_checked)


def verify_inductive(p: FacePoset) -> VerificationReport:
    """Rebuild the poset rank by rank.

    The down-set of every face of rank k >= 1 must be assembled from its
    rank k-1 faces: those cover everything below (p2), share each rank
    k-2 face exactly twice (p4, bivalence) and hang together through
    shared rank k-2 faces (p3, close connectedness).  Rank -1 and 0
    down-sets must be the one- and two-face base posets.
    """
    p1, counter, rank_mask = _preamble(p, "bounds")
    n = len(p.faces)
    r = p.rank

    p2 = p3 = p4 = True
    sections_checked = 0

    for i in sorted(range(n), key=lambda i: p.ranks[i]):
        rk = p.ranks[i]
        bel = p._below[i]
        if rk == -1:
            if bel != 1 << i:
                p2 = False
                counter.append(("base-rank-minus-1", (face_label(p.faces[i]),)))
            continue
        if rk == 0:
            others = bel & ~(1 << i)
            ok = others.bit_count() == 1 and all(
                p.ranks[j] == -1 for j in bits_of(others))
            if not ok:
                p2 = False
                counter.append(("base-rank-0", (face_label(p.faces[i]),)))
            continue
        sections_checked += 1
        smask = bel & rank_mask.get(rk - 1, 0)
        if not smask:
            p2 = False
            counter.append(("facet-coverage", (face_label(p.faces[i]), "no facets")))
            continue
        facets = list(bits_of(smask))
        # coverage: everything strictly below must sit inside a facet
        covered = 0
        for f in facets:
            covered |= p._below[f]
        missing = bel & ~covered & ~(1 << i)
        if missing:
            p2 = False
            wit = next(bits_of(missing))
            counter.append(("facet-coverage", (face_label(p.faces[i]),
                                               face_label(p.faces[wit]))))
        # bivalence: every rank k-2 face below i lies in exactly 2 facets
        ridge_mask = rank_mask.get(rk - 2, 0)
        for y in bits_of(bel & ridge_mask):
            cnt = (p._above[y] & smask).bit_count()
            if cnt != 2:
                p4 = False
                counter.append(("bivalence", (face_label(p.faces[i]),
                                              face_label(p.faces[y]),
                                              f"in {cnt} facets")))
        # close connectedness through shared rank k-2 faces
        if len(facets) > 1:
            rid = {f: p._below[f] & ridge_mask for f in facets}
            reached = {facets[0]}
            frontier = [facets[0]]
            while frontier:
                u = frontier.pop()
                for v in facets:
                    if v not in reached and rid[u] & rid[v]:
                        reached.add(v)
                        frontier.append(v)
            if len(reached) != len(facets):
                p3 = False
                counter.append(("close-connectedness", (face_label(p.faces[i]),)))

    return VerificationReport(p1, p2, p3, p4, r, tuple(counter),
                              0, sections_checked)
