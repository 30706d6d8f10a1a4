import itertools
import random

import pytest

from nestohedra import (
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
from nestohedra.errors import (
    BadEdgeError,
    CarrierTooLargeError,
    EmptyCarrierError,
    NotTubesError,
)

from helpers import L, frozen, graphs_up_to_iso, paper_a


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


class TestConstructPairProperties:
    def test_construct_pairs_not_overlapping_not_adjacent(self):
        for n in range(1, 7):
            for verts, edges in graphs_up_to_iso(n, connected_only=False):
                g = as_graph(edges, verts)
                h = g.underlying
                for c in enumerate_constructs(h):
                    for a in c:
                        for b in c:
                            if a == b:
                                continue
                            if a & b:
                                assert a <= b or b <= a
                            else:
                                assert (a | b) not in h.member_sets

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
