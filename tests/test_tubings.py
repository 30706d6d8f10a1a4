import itertools
import random

import pytest

import nestohedra.tubings
from nestohedra import (
    GraphHypergraph,
    Hypergraph,
    as_graph,
    catalog_lookup,
    enumerate_constructs,
    graph_from_text,
    is_graph_hypergraph,
    is_loose,
    is_tubing,
    saturated_closure,
    tubings_equal_constructs,
)
from nestohedra.constructions import _construct_masks
from nestohedra.errors import (
    BadEdgeError,
    CarrierTooLargeError,
    EmptyCarrierError,
    NotASCError,
    NotTubesError,
)

from helpers import KINDS, L, frozen, graph, graphs_up_to_iso, paper_a


def path4():
    return as_graph([("x", "y"), ("y", "z"), ("z", "u")], "xyzu")


class TestAsGraph:
    def test_path3(self):
        g = as_graph([("x", "y"), ("y", "z")], "xyz")
        assert g.underlying.member_sets == frozen("x", "y", "z", "xy", "yz", "xyz")

    def test_single_vertex(self):
        g = as_graph([], ["x"])
        assert g.underlying.member_sets == frozen("x")

    def test_path4_is_the_associahedron_closure(self):
        assert path4().underlying == saturated_closure(paper_a())

    def test_empty_carrier(self):
        with pytest.raises(EmptyCarrierError):
            as_graph([], [])

    def test_bad_edge(self):
        with pytest.raises(BadEdgeError):
            as_graph([("x", "x")], "xy")
        with pytest.raises(BadEdgeError):
            as_graph([("x", "q")], "xy")

    def test_text_format(self):
        g = graph_from_text("# a path plus an isolated vertex\nx-y\ny-z\nw\n")
        assert set(g.underlying.atoms) == set("wxyz")
        loose, blocks = is_loose(g)
        assert loose and frozenset("w") in blocks

    def test_text_bad_line(self):
        with pytest.raises(BadEdgeError):
            graph_from_text("x-y-z\n")


class TestLooseness:
    def test_two_isolated_atoms(self):
        g = as_graph([], "xy")
        loose, blocks = is_loose(g)
        assert loose and blocks == frozen("x", "y")

    def test_two_path_is_loose(self):
        # {x,y} doubles as the edge and the full set; removing the full set
        # leaves the disconnected singleton family, so the 2-path is loose
        g = as_graph([("x", "y")], "xy")
        loose, blocks = is_loose(g)
        assert loose and blocks == frozen("x", "y")
        assert not is_tubing(g, frozen("x", "y", "xy"))

    def test_triangle_not_loose(self):
        g = as_graph([("x", "y"), ("y", "z"), ("x", "z")], "xyz")
        assert not is_loose(g)[0]

    def test_single_vertex_not_loose(self):
        g = as_graph([], ["x"])
        loose, blocks = is_loose(g)
        assert not loose and blocks == frozenset()
        assert is_tubing(g, frozen("x"))


class TestIsTubing:
    def test_adjacent_pair_rejected(self):
        g = as_graph([("x", "y"), ("y", "z")], "xyz")
        assert not is_tubing(g, frozen("x", "yz", "xyz"))

    def test_construction_is_tubing(self):
        assert is_tubing(path4(), L)

    def test_top_alone(self):
        assert is_tubing(path4(), frozen("xyzu"))

    def test_top_required(self):
        assert not is_tubing(path4(), frozen("x"))

    def test_overlap_rejected(self):
        assert not is_tubing(path4(), frozen("xy", "yz", "xyzu"))

    def test_not_tubes(self):
        with pytest.raises(NotTubesError):
            is_tubing(path4(), frozen("xu"))

    def test_unknown_atom_is_not_tubes(self):
        with pytest.raises(NotTubesError):
            is_tubing(path4(), frozen("xw", "xyzu"))

    def test_repeated_member_counts_once(self):
        assert is_tubing(path4(), [["x"], ["x"], ["x", "y", "z", "u"]])


class TestEquivalence:
    def test_path4(self):
        assert tubings_equal_constructs(path4()).ok

    def test_cycle4(self):
        g = as_graph([("x", "y"), ("y", "z"), ("z", "u"), ("u", "x")], "xyzu")
        assert tubings_equal_constructs(g).ok

    def test_loose_graph_exercises_block_clause(self):
        g = as_graph([("x", "y")], "xyz")
        loose, _ = is_loose(g)
        assert loose
        assert tubings_equal_constructs(g).ok

    def test_cap(self):
        atoms = "abcdefg"
        with pytest.raises(CarrierTooLargeError):
            tubings_equal_constructs(as_graph([], atoms))
        # a raised cap admits the same graph
        assert tubings_equal_constructs(as_graph([], atoms), cap=7).ok

    def test_unsaturated_input_is_refused_before_the_pair_walk(self):
        # the path a-b-c without its member {a,b,c}: the pair {a,b}, {b,c}
        # overlaps with no union member, which the pair walk would report
        # as an internal error
        g = GraphHypergraph(Hypergraph.from_sets(
            [{"a"}, {"b"}, {"c"}, {"a", "b"}, {"b", "c"}]))
        with pytest.raises(NotASCError) as err:
            tubings_equal_constructs(g)
        assert type(err.value) is NotASCError
        assert str(err.value) == "operation needs an atomic saturated connected hypergraph"

    def test_tubing_families_are_exactly_constructs(self):
        # explicit cross-listing on a small graph
        g = as_graph([("x", "y"), ("y", "z")], "xyz")
        h = g.underlying
        members = sorted(h.member_sets, key=lambda s: (len(s), tuple(sorted(s))))
        tubings = set()
        for r in range(len(members) + 1):
            for sub in itertools.combinations(members, r):
                fam = frozenset(sub)
                if frozenset(h.atoms) in fam and is_tubing(g, fam):
                    tubings.add(fam)
        assert tubings == enumerate_constructs(h)


def kind_graph(kind, n):
    return GraphHypergraph(saturated_closure(graph(kind, n)))


# (ok, pairs_checked, families_checked) for n = 1..6: the pair pass counts
# the clashing pairs below the top, the walk every compatible family
REPORTS = {
    "path": [(True, 0, 1), (True, 1, 3), (True, 5, 11), (True, 15, 45),
             (True, 35, 197), (True, 70, 903)],
    "cycle": [(True, 0, 1), (True, 1, 3), (True, 9, 13), (True, 36, 63),
              (True, 100, 321), (True, 225, 1683)],
    "star": [(True, 0, 1), (True, 1, 3), (True, 5, 11), (True, 21, 51),
             (True, 87, 299), (True, 365, 2163)],
    "complete": [(True, 0, 1), (True, 1, 3), (True, 9, 13), (True, 55, 75),
                 (True, 285, 541), (True, 1351, 4683)],
}


class TestEquivalenceReports:
    """The reports of the tubing check, pinned: the counts fix how much
    the pair pass and the walk do, and a forced mismatch fixes the order
    in which the walk meets the families."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_graph_families(self, kind):
        got = []
        for n in range(1, 7):
            r = tubings_equal_constructs(kind_graph(kind, n))
            assert r.counterexample is None
            got.append((r.ok, r.pairs_checked, r.families_checked))
        assert got == REPORTS[kind]

    @pytest.mark.parametrize("edges, atoms, expected", [
        ([], "x", (True, 0, 1)),
        ([], "xy", (True, 1, 3)),
        ([], "xyz", (True, 0, 8)),
        ([], "abcdef", (True, 0, 64)),
        ([("x", "y")], "xyz", (True, 2, 9)),
        ([("a", "b"), ("b", "c")], "abcd", (True, 6, 33)),
        ([("a", "b"), ("c", "d")], "abcde", (True, 2, 72)),
        ([("a", "b"), ("b", "c"), ("a", "c")], "abcdef", (True, 9, 208)),
    ])
    def test_isolated_vertices(self, edges, atoms, expected):
        r = tubings_equal_constructs(as_graph(edges, atoms))
        assert r.counterexample is None
        assert (r.ok, r.pairs_checked, r.families_checked) == expected

    @staticmethod
    def _flip(monkeypatch, when):
        real = nestohedra.tubings._is_tubing

        def flipped(h, masks):
            return real(h, masks) != when(h, masks)

        monkeypatch.setattr(nestohedra.tubings, "_is_tubing", flipped)

    @pytest.mark.parametrize("kind, expected", [
        ("path", [["a"], ["a", "b", "c", "d", "e"], ["c"]]),
        ("cycle", [["a"], ["a", "b", "c", "d", "e"], ["c"]]),
        ("star", [["a"], ["a", "b"], ["a", "b", "c", "d", "e"]]),
        ("complete", [["a"], ["a", "b"], ["a", "b", "c", "d", "e"]]),
    ])
    def test_first_mismatch_of_three_masks(self, monkeypatch, kind, expected):
        self._flip(monkeypatch, lambda h, masks: len(masks) >= 3)
        r = tubings_equal_constructs(kind_graph(kind, 5))
        assert not r.ok
        assert sorted(sorted(s) for s in r.counterexample) == expected
        assert r.families_checked == 3

    @pytest.mark.parametrize("kind, expected, families", [
        ("path", [["a", "b", "c", "d", "e"], ["b"], ["d"]], 48),
        ("cycle", [["a", "b", "c", "d", "e"], ["b"], ["d"]], 66),
        ("star", [["a", "b", "c", "d", "e"], ["b"], ["c"]], 78),
        ("complete", [["a", "b", "c", "d", "e"], ["b"], ["b", "c"]], 91),
    ])
    def test_first_mismatch_past_the_first_atom(self, monkeypatch, kind, expected, families):
        # flip only families of three or more masks whose tubes below the
        # top all miss the first atom: the walk meets them after every
        # family through {a}
        def late(h, masks):
            tubes = [m for m in masks if m != h.carrier_mask]
            return len(masks) >= 3 and not any(m & 1 for m in tubes)

        self._flip(monkeypatch, late)
        r = tubings_equal_constructs(kind_graph(kind, 5))
        assert not r.ok
        assert sorted(sorted(s) for s in r.counterexample) == expected
        assert r.families_checked == families


class TestConstructPairProperties:
    def test_graph_classes_counted(self):
        # OEIS A000088 and, connected, A001349
        assert [len(list(graphs_up_to_iso(n, connected_only=False)))
                for n in range(1, 7)] == [1, 2, 4, 11, 34, 156]
        assert [len(list(graphs_up_to_iso(n, connected_only=True)))
                for n in range(1, 7)] == [1, 1, 2, 6, 21, 112]

    def test_construct_pairs_not_overlapping_not_adjacent(self):
        # on member masks: two members of a construct nest or are
        # disjoint, and two disjoint ones have no member as their union
        for n in range(1, 7):
            for verts, edges in graphs_up_to_iso(n, connected_only=False):
                h = as_graph(edges, verts).underlying
                for c in _construct_masks(h):
                    for a, b in itertools.combinations(c, 2):
                        if a & b:
                            assert a & ~b == 0 or b & ~a == 0
                        else:
                            assert a | b not in h.members

    def test_pairwise_missing_implies_union_missing_when_not_loose(self):
        # for graphs that are not loose, pairwise-absent unions never sum
        # to a present union
        rng = random.Random(13)
        for verts, edges in graphs_up_to_iso(4, connected_only=True):
            g = as_graph(edges, verts)
            if is_loose(g)[0]:
                continue
            h = g.underlying
            members = sorted(h.member_sets, key=lambda s: (len(s), tuple(sorted(s))))
            for _ in range(40):
                size = rng.randint(2, min(4, len(members)))
                fam = rng.sample(members, size)
                if any((a | b) in h.member_sets
                       for i, a in enumerate(fam) for b in fam[i + 1:]):
                    continue
                assert frozenset().union(*fam) not in h.member_sets


class TestGraphRecognition:
    def test_closures_of_graphs_recognized(self):
        for verts, edges in graphs_up_to_iso(4, connected_only=False):
            assert is_graph_hypergraph(as_graph(edges, verts).underlying)

    def test_essentially_hypergraphical_not_a_graph(self):
        # a triple member that no edge set generates
        h4021 = catalog_lookup("H_4021").hypergraph
        assert not is_graph_hypergraph(h4021)

    def test_empty_not_a_graph(self):
        assert not is_graph_hypergraph(Hypergraph.from_sets([]))

    @pytest.mark.parametrize("members", [["ab"], ["ab", "bc", "abc"], ["a", "ab"]])
    def test_missing_singletons_not_a_graph(self, members):
        # every graph closure holds all singletons of its carrier
        assert not is_graph_hypergraph(Hypergraph.from_sets(members))
