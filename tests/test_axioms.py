import pytest

from nestohedra import (
    FacePoset,
    Hypergraph,
    abstract_polytope,
    axioms,
    catalog_lookup,
    otimes,
    verify_axioms,
    verify_inductive,
)
from nestohedra.errors import MalformedPosetError

from helpers import (
    KINDS,
    all_asc_hypergraphs,
    all_atomic_hypergraphs,
    diamond_poset,
    graph,
    negative_posets,
    paper_a,
)


class TestAccepts:
    def test_associahedron(self):
        p = abstract_polytope(paper_a())
        ra, ri = verify_axioms(p), verify_inductive(p)
        assert ra.ok and ri.ok
        assert ra.rank == 3
        assert not ra.counterexamples and not ri.counterexamples

    def test_diamond(self):
        p = diamond_poset()
        assert verify_axioms(p).ok and verify_inductive(p).ok

    def test_rank_minus_one(self):
        p = FacePoset.from_covers([("bot", -1)], [])
        assert verify_axioms(p).ok and verify_inductive(p).ok

    def test_rank_zero(self):
        p = FacePoset.from_covers([("bot", -1), ("a", 0)], [("bot", "a")])
        assert verify_axioms(p).ok and verify_inductive(p).ok

    def test_triangle_and_hemiassociahedron(self):
        for name in ("H_301", "H_4431"):
            p = abstract_polytope(catalog_lookup(name).hypergraph)
            assert verify_axioms(p).ok
            assert verify_inductive(p).ok

    def test_checkers_leave_the_transpose_unmade(self):
        # on a well-formed poset both checkers read the cover rows only
        for h in (paper_a(), *(graph(kind, 5) for kind in KINDS)):
            p = abstract_polytope(h)
            assert verify_axioms(p).ok and verify_inductive(p).ok
            assert p.top() is p.faces[-1]

    def test_flag_count_matches_vertex_orders(self):
        p = abstract_polytope(catalog_lookup("H_4641").hypergraph)
        r = verify_axioms(p)
        # a simple 3-polytope has 3! flags per vertex
        assert r.flags_checked == 24 * 6


class TestRejects:
    def test_negative_corpus_rejected_by_both(self):
        corpus = negative_posets()
        assert len(corpus) >= 5
        for name, p in corpus:
            assert not verify_axioms(p).ok, name
            assert not verify_inductive(p).ok, name

    def test_edge_deleted_reports_diamond_witness(self):
        name, p = negative_posets()[0]
        r = verify_axioms(p)
        assert not r.p4_ok
        assert any(prop == "P4" for prop, _ in r.counterexamples)
        ri = verify_inductive(p)
        assert not ri.p4_ok

    def test_shared_vertex_complex_fails_bivalence(self):
        name, p = next((n, p) for n, p in negative_posets() if "triangle" in n)
        ri = verify_inductive(p)
        assert not ri.p4_ok
        assert any(prop == "bivalence" for prop, _ in ri.counterexamples)

    def test_report_flags_match_counterexamples(self):
        for _, p in negative_posets():
            for rep in (verify_axioms(p), verify_inductive(p)):
                assert rep.ok == (not rep.counterexamples)


def _two_digons():
    """Two digons (rank-2 polytopes on two vertices) sharing only their
    least and greatest faces."""
    faces = [("bot", -1), ("top", 2)]
    covers = []
    for d in "vw":
        faces += [(d + "1", 0), (d + "2", 0), (d + "e", 1), (d + "f", 1)]
        covers += [("bot", d + "1"), ("bot", d + "2")]
        covers += [(d + v, d + e) for v in "12" for e in "ef"]
        covers += [(d + "e", "top"), (d + "f", "top")]
    return FacePoset.from_covers(faces, covers)


class TestVerdicts:
    """Checker verdicts on small hand-built posets, reports pinned whole."""

    def test_face_below_the_bottom(self):
        p = FacePoset.from_covers(
            [("z", -2), ("bot", -1), ("a", 0), ("b", 0), ("top", 1)],
            [("z", "bot"), ("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")])
        assert verify_inductive(p).to_dict() == {
            "ok": False, "p1_ok": True, "p2_ok": False, "p3_ok": True, "p4_ok": True,
            "rank": 1, "flags_checked": 0, "sections_checked": 2,
            "counterexamples": [
                {"property": "facet-coverage", "witnesses": ["z", "no facets"]},
                {"property": "base-rank-minus-1", "witnesses": ["bot"]},
                {"property": "base-rank-0", "witnesses": ["a"]},
                {"property": "base-rank-0", "witnesses": ["b"]},
            ]}

    def test_rank_gap_under_the_top(self):
        p = FacePoset.from_covers(
            [("bot", -1), ("a", 0), ("b", 0), ("top", 2)],
            [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")])
        assert verify_inductive(p).to_dict() == {
            "ok": False, "p1_ok": True, "p2_ok": False, "p3_ok": True, "p4_ok": True,
            "rank": 2, "flags_checked": 0, "sections_checked": 1,
            "counterexamples": [
                {"property": "facet-coverage", "witnesses": ["top", "no facets"]},
            ]}

    def test_two_digons_under_one_top(self):
        p = _two_digons()
        assert verify_inductive(p).to_dict() == {
            "ok": False, "p1_ok": True, "p2_ok": True, "p3_ok": False, "p4_ok": True,
            "rank": 2, "flags_checked": 0, "sections_checked": 5,
            "counterexamples": [
                {"property": "close-connectedness", "witnesses": ["top"]},
            ]}
        assert verify_axioms(p).to_dict() == {
            "ok": False, "p1_ok": True, "p2_ok": True, "p3_ok": False, "p4_ok": True,
            "rank": 2, "flags_checked": 8, "sections_checked": 1,
            "counterexamples": [
                {"property": "P3", "witnesses": ["bot", "top"]},
            ]}

    def test_section_connected_only_by_the_full_merge(self):
        # the coatoms hold {a1}, {a2, a3} and {a1, a2} in index order: one
        # pass skips {a2, a3}, which meets nothing merged yet, and ends
        # short of the atoms, so only the full merge proves it connected
        p = FacePoset.from_covers(
            [("bot", -1), ("a1", 0), ("a2", 0), ("a3", 0),
             ("c1", 1), ("c2", 1), ("c3", 1), ("top", 2)],
            [("bot", "a1"), ("bot", "a2"), ("bot", "a3"), ("a1", "c1"), ("a2", "c2"),
             ("a3", "c2"), ("a1", "c3"), ("a2", "c3"),
             ("c1", "top"), ("c2", "top"), ("c3", "top")])
        assert verify_axioms(p).to_dict() == {
            "ok": False, "p1_ok": True, "p2_ok": True, "p3_ok": True, "p4_ok": False,
            "rank": 2, "flags_checked": 5, "sections_checked": 1,
            "counterexamples": [
                {"property": "P4", "witnesses": ["bot", "c1", "1 between"]},
                {"property": "P4", "witnesses": ["a3", "top", "1 between"]},
            ]}

    # below rank -1 no flag has r + 2 faces, and the report names the
    # first short flag without a negative shift
    @pytest.mark.parametrize("faces, ranks, above, witnesses", [
        (["a"], [-3], [(0,)], ["a", "length 1"]),
        (["a", "b"], [-3, -2], [(0, 1), (1,)], ["b", "length 2"]),
    ], ids=["one-face", "two-faces"])
    def test_ranks_below_minus_one(self, faces, ranks, above, witnesses):
        p = FacePoset(faces, ranks, above)
        assert verify_axioms(p).to_dict() == {
            "ok": False, "p1_ok": True, "p2_ok": False, "p3_ok": True, "p4_ok": True,
            "rank": ranks[-1], "flags_checked": 1, "sections_checked": 0,
            "counterexamples": [{"property": "P2", "witnesses": witnesses}]}

    def test_empty_poset(self):
        assert verify_axioms(FacePoset([], [], [])).to_dict() == {
            "ok": False, "p1_ok": False, "p2_ok": True, "p3_ok": True, "p4_ok": True,
            "rank": -1, "flags_checked": 0, "sections_checked": 0,
            "counterexamples": [{"property": "P1", "witnesses": []}]}


class TestEquivalence:
    def test_checkers_agree_on_all_small_posets(self):
        seen = set()
        from nestohedra import saturated_closure
        for k in range(5):
            for h in all_atomic_hypergraphs(k):
                hbar = saturated_closure(h)
                if hbar in seen:
                    continue
                seen.add(hbar)
                p = abstract_polytope(h)
                assert verify_axioms(p).ok
                assert verify_inductive(p).ok

    def test_checkers_agree_on_negatives(self):
        for name, p in negative_posets():
            assert verify_axioms(p).ok == verify_inductive(p).ok == False  # noqa: E712


class TestProducts:
    def test_products_of_polytopes_are_polytopes(self):
        segment = abstract_polytope(
            Hypergraph.from_sets([{"a"}, {"b"}, {"a", "b"}]))
        pentagon = abstract_polytope(catalog_lookup("H_321").hypergraph)
        prod = otimes(segment, pentagon)
        ra = verify_axioms(prod)
        assert ra.ok
        assert ra.rank == 1 + 2
        assert verify_inductive(prod).ok

    def test_square_product(self):
        p = abstract_polytope(catalog_lookup("H_4200").hypergraph)
        assert verify_axioms(p).ok and verify_inductive(p).ok


class TestFacetNeighbourhood:
    @staticmethod
    def _ridge_distances(p):
        from collections import deque
        r = p.rank
        facets = p.faces_of_rank(r - 1)
        ridges = p.faces_of_rank(r - 2)
        adj = {f: [g for g in facets if g != f and any(
            p.leq(x, f) and p.leq(x, g) for x in ridges)] for f in facets}
        out = {}
        for src in facets:
            dist = {src: 0}
            queue = deque([src])
            while queue:
                cur = queue.popleft()
                for nb in adj[cur]:
                    if nb not in dist:
                        dist[nb] = dist[cur] + 1
                        queue.append(nb)
            out[src] = dist
        return facets, out

    def test_facets_within_two_middlemen(self):
        # any two facets connect through shared ridges in at most 3 steps
        for h in all_asc_hypergraphs(4):
            p = abstract_polytope(h)
            if p.rank < 2:
                continue
            facets, dists = self._ridge_distances(p)
            for f in facets:
                assert len(dists[f]) == len(facets)
                assert max(dists[f].values()) <= 3

    def test_single_middleman_does_not_always_suffice(self):
        # two facets can need two intermediaries: pin the witness
        h = Hypergraph.from_sets(
            [{"x"}, {"y"}, {"z"}, {"u"}, {"u", "z"}, {"x", "y"},
             {"u", "x", "y"}, {"u", "x", "z"}, {"u", "y", "z"}, {"x", "y", "z"},
             {"x", "y", "z", "u"}])
        p = abstract_polytope(h)
        facets, dists = self._ridge_distances(p)
        top = frozenset("xyzu")
        f1 = frozenset({frozenset("uz"), top})
        f2 = frozenset({frozenset("xy"), top})
        assert dists[f1][f2] == 3


class TestMalformed:
    def test_rank_decreasing_on_order(self):
        p = FacePoset.from_covers(
            [("bot", 5), ("a", 0)], [("bot", "a")])
        with pytest.raises(MalformedPosetError):
            verify_axioms(p)
        with pytest.raises(MalformedPosetError):
            verify_inductive(p)

    def test_rank_tie_on_order(self):
        p = FacePoset.from_covers(
            [("bot", 0), ("a", 0)], [("bot", "a")])
        with pytest.raises(MalformedPosetError):
            verify_axioms(p)

    @pytest.mark.parametrize("faces, ranks, above, fault", [
        ("ab", [0, 1], [(1,), (1,)], "order is not reflexive"),
        ("ab", [0, 1], [(0, 1), (0, 1)], "order is not antisymmetric"),
        ("abc", [0, 1, 2], [(0, 1), (1, 2), (2,)], "order is not transitive"),
        ("ab", [1, 0], [(0, 1), (1,)], "rank does not increase from a to b"),
    ], ids=["reflexive", "antisymmetric", "transitive", "rank"])
    def test_order_fault(self, faces, ranks, above, fault):
        for check in (verify_axioms, verify_inductive):
            with pytest.raises(MalformedPosetError) as err:
                check(FacePoset(faces, ranks, above))
            assert str(err.value) == fault

    @pytest.mark.parametrize("ranks, above, fault", [
        ([0, 1], [(0, 2), (1,)], "row 0 names face 2, not one of the 2 faces"),
        ([0, 1], [(0,), (-1, 1)], "row 1 names face -1, not one of the 2 faces"),
        ([0, 1], [(0, 1, 1), (1,)], "row 0 names face 1 twice"),
        ([0], [(0, 1), (1,)], "2 faces need one rank and one row each: got 1 ranks and 2 rows"),
        ([0, 1], [(0, 1)], "2 faces need one rank and one row each: got 2 ranks and 1 rows"),
        ([0, 1], [0b101, 0b10], "row 0 is not a collection of face indices"),
        ([0, 1], [(0, 1), ("b",)], "row 1 is not a collection of face indices"),
    ], ids=["out-of-range", "negative", "duplicate", "ranks-count", "rows-count",
            "int-row", "name-in-row"])
    def test_constructor_refuses_malformed_rows(self, ranks, above, fault):
        with pytest.raises(MalformedPosetError) as err:
            FacePoset(["a", "b"], ranks, above)
        assert type(err.value) is MalformedPosetError
        assert str(err.value) == fault

    def test_constructor_sorts_rows(self):
        p = FacePoset(["a", "b"], [0, 1], [[1, 0], {1}])
        assert p._above == ((0, 1), (1,))

    @staticmethod
    def _count_scans(monkeypatch):
        scans = []
        scan = axioms._order_fault
        monkeypatch.setattr(axioms, "_order_fault", lambda p: scans.append(p) or scan(p))
        return scans

    def test_order_scanned_once_for_both_checkers(self, monkeypatch):
        scans = self._count_scans(monkeypatch)
        p = abstract_polytope(paper_a())
        assert verify_axioms(p).ok and verify_inductive(p).ok
        assert scans == [p]

    def test_malformed_verdict_kept(self, monkeypatch):
        scans = self._count_scans(monkeypatch)
        p = FacePoset.from_covers([("bot", 5), ("a", 0)], [("bot", "a")])
        for check in (verify_axioms, verify_inductive, verify_axioms):
            with pytest.raises(MalformedPosetError,
                               match="^rank does not increase from bot to a$"):
                check(p)
        assert scans == [p]

    def test_report_to_dict(self):
        rep = verify_axioms(diamond_poset())
        doc = rep.to_dict()
        assert doc["ok"] and doc["rank"] == 1
        assert doc["counterexamples"] == []
