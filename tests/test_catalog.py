import pytest

from nestohedra import (
    Hypergraph,
    abstract_polytope,
    catalog,
    catalog_lookup,
    chart_edges,
    fvector_table,
    is_connected,
    is_saturated,
    saturated_closure,
)
from nestohedra.catalog import _census_ok
from nestohedra.errors import UnknownNameError

from helpers import frozen, paper_a, poset_isomorphic


def members(name):
    return catalog_lookup(name).hypergraph.member_sets


class TestLookup:
    def test_size_and_order(self):
        entries = catalog()
        assert len(entries) == 53
        assert entries[0].name == "H_0"
        assert entries[-1].name == "H_4641"

    def test_associahedron_entry(self):
        e = catalog_lookup("H'_4321")
        assert e.nickname == "associahedron"
        assert e.hypergraph == saturated_closure(paper_a())
        assert not e.degenerate

    def test_permutohedron_entry(self):
        e = catalog_lookup("H_4641")
        assert e.nickname == "permutohedron"
        import itertools
        full = Hypergraph.from_sets(
            [set(c) for r in range(1, 5)
             for c in itertools.combinations("xyzu", r)])
        assert e.hypergraph == full

    def test_degenerate_square(self):
        e = catalog_lookup("H_4200")
        assert e.degenerate
        assert e.hypergraph.member_sets == \
            members("H_4100") | {frozenset("zu")}

    def test_ascii_aliases(self):
        assert catalog_lookup("Hp_4321") is catalog_lookup("H'_4321")
        assert catalog_lookup("Hs_4331") is catalog_lookup("H*_4331")
        assert catalog_lookup("Ho_4441") is catalog_lookup("H°_4441")
        assert catalog_lookup("Hpp_4121") is catalog_lookup("H''_4121")

    def test_unknown(self):
        with pytest.raises(UnknownNameError):
            catalog_lookup("H_9999")
        with pytest.raises(UnknownNameError):
            catalog_lookup("nonsense")

    def test_every_entry_saturated_and_censused(self):
        for e in catalog():
            assert is_saturated(e.hypergraph), e.name
            assert e.degenerate == (not is_connected(e.hypergraph))


class TestCensusCheck:
    def test_empty_entry(self):
        assert _census_ok("H_0", Hypergraph.from_sets([]))
        assert not _census_ok("H_0", Hypergraph.from_sets([{"x"}]))

    def test_trailing_zeros(self):
        h = Hypergraph.from_sets([{"x"}, {"y"}, {"z"}, {"u"}, {"x", "y"}])
        assert _census_ok("H_41", h)
        assert _census_ok("H_4100", h)

    def test_wrong_atom_count(self):
        # the member counts (3, 1) match, but there are four atoms
        h = Hypergraph.from_sets([{"x"}, {"y"}, {"z"}, {"u", "x"}])
        assert not _census_ok("H_31", h)

    def test_wrong_count_at_one_size(self):
        h = catalog_lookup("H'_4321").hypergraph
        assert _census_ok("H_4321", h)
        assert not _census_ok("H_4331", h)
        assert not _census_ok("H_4311", h)

    def test_member_larger_than_name_allows(self):
        h = Hypergraph.from_sets([{"x"}, {"y"}, {"z"}, {"x", "y", "z"}])
        assert _census_ok("H_301", h)
        assert not _census_ok("H_30", h)
        assert not _census_ok("H_3", h)


class TestCrossIdentities:
    def test_associahedron_build(self):
        assert members("H'_4321") == members("H_4221") | {frozenset("uz")}

    def test_hemiassociahedron_three_ways(self):
        hemi = members("H_4431")
        assert hemi == members("H_4331") | {frozenset("zu")}
        assert hemi == members("H'_4331") | {frozenset("xz")}
        assert hemi == members("H*_4331") | {frozenset("xy")}

    def test_permutohedron_build(self):
        # the hemicyclohedron already holds {y,z}; the missing pair is {y,u}
        assert members("H_4641") == members("H_4541") | {frozenset("yu")}
        assert frozenset("yz") in members("H_4541")

    def test_closures_of_drawn_graphs(self):
        from nestohedra import as_graph
        drawn = {
            "H'_4321": [("x", "y"), ("y", "z"), ("z", "u")],
            "H*_4331": [("x", "z"), ("y", "z"), ("z", "u")],
            "H_4431": [("x", "y"), ("x", "z"), ("y", "z"), ("z", "u")],
            "H°_4441": [("x", "y"), ("y", "z"), ("z", "u"), ("x", "u")],
            "H_4541": [("x", "y"), ("y", "z"), ("z", "u"), ("x", "u"), ("x", "z")],
        }
        for name, edges in drawn.items():
            assert catalog_lookup(name).hypergraph == \
                as_graph(edges, "xyzu").underlying, name


class TestFVectors:
    GOLDEN = {
        "H_301": (3, 3), "H_311": (4, 4), "H_321": (5, 5), "H_331": (6, 6),
        "H_4001": (4, 6, 4),
        "H_4011": (6, 9, 5), "H_4101": (6, 9, 5),
        "H_4201": (8, 12, 6), "H_4111": (8, 12, 6),
        "H_4121": (10, 15, 7), "H_4211": (10, 15, 7), "H'_4211": (10, 15, 7),
        "H_4311": (12, 18, 8),
        "H'_4321": (14, 21, 9),
        "H*_4331": (16, 24, 10),
        "H_4431": (18, 27, 11),
        "H°_4441": (20, 30, 12),
        "H_4541": (22, 33, 13),
        "H_4641": (24, 36, 14),
    }

    def test_golden_rows(self):
        rows = {name: fvec for name, _, fvec, _ in fvector_table()}
        for name, fvec in self.GOLDEN.items():
            assert rows[name] == fvec, name

    def test_prism_and_cube_coincidences(self):
        rows = {name: fvec for name, _, fvec, _ in fvector_table()}
        assert rows["H_4011"] == rows["H_4101"]
        assert rows["H_4201"] == rows["H_4111"]
        assert rows["H_4121"] == rows["H_4211"] == rows["H'_4211"]

    def test_table_covers_catalog_in_order(self):
        rows = fvector_table()
        assert [r[0] for r in rows] == [e.name for e in catalog()]


class TestDegenerateIsomorphisms:
    PAIRS = [
        ("H_310", "H_21"),
        ("H_4100", "H_21"),
        ("H_4010", "H_301"),
        ("H_4110", "H_311"),
        ("H_4210", "H_321"),
        ("H_4310", "H_331"),
    ]

    def test_pairs(self):
        for a, b in self.PAIRS:
            pa = abstract_polytope(catalog_lookup(a).hypergraph)
            pb = abstract_polytope(catalog_lookup(b).hypergraph)
            assert poset_isomorphic(pa, pb), (a, b)

    def test_non_isomorphic_sanity(self):
        pa = abstract_polytope(catalog_lookup("H_321").hypergraph)
        pb = abstract_polytope(catalog_lookup("H_331").hypergraph)
        assert not poset_isomorphic(pa, pb)


class TestChart:
    def test_node_set(self):
        nodes = [e.name for e in catalog() if e.in_chart]
        assert len(nodes) == 22
        boxed = [e.name for e in catalog() if e.boxed]
        assert len(boxed) == 11
        assert set(boxed) <= set(nodes)

    def test_edges_are_inclusions(self):
        for a, b in chart_edges():
            assert members(a) < members(b)

    def test_known_edges_present(self):
        edges = set(chart_edges())
        assert ("H_4431", "H_4441") in edges
        assert ("H°_4441", "H_4541") in edges
        assert ("H_4541", "H_4641") in edges
