"""Abstract-polytope checking for graded face posets.

Two independent checkers are provided.  ``verify_axioms`` tests the
four classical properties: a unique least and greatest face, uniform
flag length, strong connectedness of every section, and the diamond
condition.  ``verify_inductive`` instead rebuilds the poset bottom-up:
each face's down-set must arise from a closely connected, bivalent set
of one-rank-lower polytopes.  The two accept exactly the same posets;
the tests exercise that equivalence rather than assuming it.

Both need a well-formed order first.  One walk over the faces
(``_intervals``) proves it from the up-cover rows, and ``verify_axioms``
reads its diamond counts and section checks off the marks that walk
leaves; the rows are scanned pairwise only to name the fault of an
order the walk refuses.  The verdict is kept on the poset, so
``verify_inductive`` run after ``verify_axioms`` does not walk again;
``verify_axioms`` always walks, for its marks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .errors import MalformedPosetError
from .facelattice import FacePoset


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
    on it; empty when it is.  Nothing of how the poset was built is
    assumed.

    The walk of ``_intervals``, on throwaway arrays, is the proof.  Only
    when it stops short are the rows scanned pairwise, each against the
    others' rows as sets, to name the fault."""
    n = len(p.faces)
    if sum(1 for _ in _intervals(p, [0] * n, [-1] * n)) == n:
        return ""
    ranks = p.ranks
    rows = [frozenset(row) for row in p._above]
    for i, row in enumerate(rows):
        if i not in row:
            return "order is not reflexive"
        for j in p._above[i]:
            if j == i:
                continue
            if i in rows[j]:
                return "order is not antisymmetric"
            if not rows[j] <= row:
                return "order is not transitive"
            if ranks[j] <= ranks[i]:
                return f"rank does not increase from {p._labels[i][0]} to {p._labels[j][0]}"
    return ""


def _intervals(p: FacePoset, atoms_under: list[int], owner: list[int]) -> Iterator[int]:
    """Each face f in index order, once ``owner[x]`` is f and
    ``atoms_under[x]`` the mask of the up-covers of f below x (up-cover
    t is bit t) for every x in f's row.  The walk stops at the first
    face whose row the up-cover rows do not prove: every up-cover must
    rank higher than f and keep its whole row inside f's row, and f
    must lie in its row as the only face there that no up-cover's row
    marks.

    Then f's row is exactly f and its up-covers' rows.  Ranks rise
    along up-covers, so these have no cycle, and by induction from the
    top rank each row is the faces reached from its face along
    up-covers: a reflexive, transitive relation whose rank rises
    strictly off the diagonal, hence antisymmetric.  Whatever the cover
    rows, a walk that yields every face proves the order."""
    ranks, above = p.ranks, p._above
    up, _ = p._cover_rows()
    for f, row in enumerate(above):
        for x in row:
            atoms_under[x] = 0
            owner[x] = f
        rank = ranks[f]
        for t, u in enumerate(up[f]):
            if ranks[u] <= rank:
                return
            bit = 1 << t
            for x in above[u]:
                if owner[x] != f:
                    return
                atoms_under[x] |= bit
        if owner[f] != f or atoms_under[f] or [atoms_under[x] for x in row].count(0) != 1:
            return
        yield f


def _preamble(p: FacePoset, label: str) -> tuple[bool, list[tuple[str, tuple[str, ...]]]]:
    """The checks both checkers start with: a well-formed order, then a
    unique least and greatest face.  Returns that verdict and the
    counterexamples (up to four least and greatest faces under ``label``
    on failure).  A finite order has a greatest face exactly
    when one face has no up-cover."""
    if p._fault is None:
        p._fault = _order_fault(p)
    if p._fault:
        raise MalformedPosetError(p._fault)
    n = len(p.faces)
    up, _ = p._cover_rows()
    bottoms = [i for i in range(n) if len(p._above[i]) == n]
    maximal = [i for i in range(n) if not up[i]]
    tops = maximal if len(maximal) == 1 else []
    counter: list[tuple[str, tuple[str, ...]]] = []
    bounded = len(bottoms) == 1 and len(tops) == 1
    if not bounded:
        witness = tuple(p._labels[i][0] for i in (bottoms + tops)[:4])
        counter.append((label, witness))
    return bounded, counter


def verify_axioms(p: FacePoset) -> VerificationReport:
    """Check the least/greatest, flag-length, strong-connectedness and
    diamond properties, reporting witnesses for each failure.

    One walk over the faces (``_intervals``) proves the order and marks,
    for each face f, the up-covers of f below every face of its row.
    Ranks rise strictly along the order, so the faces between f and a
    face g two ranks up are the up-covers of f below g: the diamond
    counts them.  Each g three or more ranks up is a section to check
    for strong connectedness.  The walk runs before the flags are
    counted, so a malformed order raises first."""
    n = len(p.faces)
    r = p.rank
    ranks, above = p.ranks, p._above
    up, down = p._cover_rows()
    atoms_under, owner = [0] * n, [-1] * n
    walked = sections_checked = 0
    disconnected: list[tuple[int, int]] = []
    diamonds: list[tuple[int, int, int]] = []
    for f in _intervals(p, atoms_under, owner):
        walked += 1
        two = ranks[f] + 2
        for g in above[f]:
            rank_g = ranks[g]
            if rank_g == two:
                between = atoms_under[g].bit_count()
                if between != 2:
                    # g marks itself, and only itself, when it covers f
                    diamonds.append((f, g, between - (g in up[f])))
            elif rank_g > two:
                sections_checked += 1
                # Every face strictly between f and g lies above an atom
                # (a cover of f below g) and below a coatom (a face g
                # covers above f, that is one f owns), so the interval is
                # connected exactly when the coatoms' atom sets, merged
                # while any two overlap, become all the atoms.  One pass
                # merges into the first coatom's set and stops once it
                # holds them all: above a vertex of a simple polytope the
                # interval is Boolean and the second coatom does it.  Only
                # a pass that ends short runs the full merge.
                lows, merged = atoms_under[g], -1
                for c in down[g]:
                    if owner[c] == f:
                        if merged < 0:
                            merged = atoms_under[c]
                        elif atoms_under[c] & merged:
                            merged |= atoms_under[c]
                            if merged == lows:
                                break
                else:
                    # when g covers f, f is the only coatom and the interval is empty
                    sets = [atoms_under[c] for c in down[g] if owner[c] == f]
                    if len(sets) <= 1:
                        continue
                    merged, last = sets[0], 0
                    while merged != last and merged != lows:
                        last = merged
                        for atoms in sets:
                            if atoms & merged:
                                merged |= atoms
                    if merged != lows:
                        disconnected.append((f, g))
    if walked == n:
        p._fault = ""
    p1, counter = _preamble(p, "P1")
    if walked < n:
        raise MalformedPosetError("the cover rows do not match the order")

    # flags: maximal chains along covers from the minimal faces, counted
    # top down by rank: bit L of lengths[i] is set when a chain of L faces
    # runs from face i to a maximal face, and counts[i] numbers them all.
    lengths, counts = [2] * n, [1] * n
    for i in sorted(range(n), key=ranks.__getitem__, reverse=True):
        if up[i]:
            mask = total = 0
            for j in up[i]:
                mask |= lengths[j]
                total += counts[j]
            lengths[i], counts[i] = mask << 1, total
    minimals = [i for i in range(n) if not down[i]]
    # P2 asks every flag for r + 2 faces; no chain has fewer than one face
    # or more than n, so no mask matches 0
    single = 1 << (r + 2) if 0 < r + 2 <= n else 0
    flags_checked = sum(counts[i] for i in minimals)
    p2 = all(lengths[i] == single for i in minimals)
    if not p2:
        # the first bad flag in depth-first order, last cover first
        i, depth = next(i for i in reversed(minimals) if lengths[i] != single), 1
        while up[i]:
            i = next(j for j in reversed(up[i]) if lengths[j] << depth != single)
            depth += 1
        counter.append(("P2", (p._labels[i][0], f"length {depth}")))

    labels = p._labels
    counter += [("P3", (labels[f][0], labels[g][0])) for f, g in disconnected]
    counter += [("P4", (labels[f][0], labels[g][0], f"{between} between"))
                for f, g, between in diamonds]
    return VerificationReport(p1, p2, not disconnected, not diamonds, r, tuple(counter),
                              flags_checked, sections_checked)


def verify_inductive(p: FacePoset) -> VerificationReport:
    """Rebuild the poset rank by rank.

    The down-set of every face of rank k >= 1 must be assembled from its
    rank k-1 faces: those cover everything below (p2), share each rank
    k-2 face exactly twice (p4, bivalence) and hang together through
    shared rank k-2 faces (p3, close connectedness).  Rank -1 and 0
    down-sets must be the one- and two-face base posets.  Ranks rise
    strictly along the order, so a face's facets are its down-covers
    one rank down, and their ridges are theirs; the down-covers also
    give the base cases.  A face no facet covers is named from the
    up-set rows: the first other face whose row holds the face but none
    of its facets.
    """
    p1, counter = _preamble(p, "bounds")
    n = len(p.faces)
    r = p.rank
    ranks = p.ranks
    _, down = p._cover_rows()
    lower = [[f for f in down[i] if ranks[f] == ranks[i] - 1] for i in range(n)]

    p2 = p3 = p4 = True
    sections_checked = 0

    for i in sorted(range(n), key=ranks.__getitem__):
        rk = ranks[i]
        if rk == -1:
            if down[i]:
                p2 = False
                counter.append(("base-rank-minus-1", (p._labels[i][0],)))
            continue
        if rk == 0:
            # one face below, of rank -1 and with nothing below it
            if len(down[i]) != 1 or ranks[down[i][0]] != -1 or down[down[i][0]]:
                p2 = False
                counter.append(("base-rank-0", (p._labels[i][0],)))
            continue
        sections_checked += 1
        facets = lower[i]
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
            missing = [j for j, row in enumerate(p._above)
                       if j != i and i in row and not any(f in row for f in facets)]
            counter.append(("facet-coverage", (p._labels[i][0], p._labels[missing[0]][0])))
        # the rank k-2 faces below i, each with the mask of the facets
        # holding it (facet t is bit t): the facets' own facets, and the
        # missing ones in none
        holders = dict.fromkeys([y for y in missing if ranks[y] == rk - 2], 0)
        for t, f in enumerate(facets):
            for y in lower[f]:
                holders[y] = holders.get(y, 0) | 1 << t
        # bivalence: every rank k-2 face below i lies in exactly 2 facets
        if set(map(int.bit_count, holders.values())) - {2}:
            p4 = False
            for y in sorted(holders):
                held = holders[y].bit_count()
                if held != 2:
                    counter.append(("bivalence", (p._labels[i][0], p._labels[y][0],
                                                  f"in {held} facets")))
        # close connectedness: the masks, merged while any overlaps the
        # facets reached from the first, reach them all
        if len(facets) > 1:
            every = (1 << len(facets)) - 1
            reached, last = 1, 0
            while reached != last and reached != every:
                last = reached
                for held in holders.values():
                    if held & reached:
                        reached |= held
            if reached != every:
                p3 = False
                counter.append(("close-connectedness", (p._labels[i][0],)))

    return VerificationReport(p1, p2, p3, p4, r, tuple(counter),
                              0, sections_checked)
