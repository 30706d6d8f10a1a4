import dataclasses
import hashlib
import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from nestohedra import (
    Hypergraph,
    HyperplaneSpec,
    abstract_polytope,
    catalog,
    catalog_lookup,
    check_vertex_membership,
    enumerate_constructions,
    enumerate_constructs,
    f_vector,
    face_lattice_isomorphic,
    is_atomic,
    realize,
    saturated_closure,
    to_off,
    vertex_coordinates,
)
from nestohedra import realization
from nestohedra.errors import (
    DimensionMismatchError,
    NestohedraError,
    NotAConstructionError,
    NotASCError,
    NotAtomicError,
)
from nestohedra.hypergraph import family_components, family_union
from nestohedra.realization import to_json_dict

from helpers import (
    L,
    abar,
    all_asc_hypergraphs,
    check,
    frozen,
    graph,
    hypertree,
    kept_ids,
    oracle_constructions,
    oracle_coordinates,
    paper_a,
)


class TestVertexCoordinates:
    def test_single_atom(self):
        h = Hypergraph.from_sets([{"1"}])
        assert vertex_coordinates(h, frozen("1")) == (3,)

    def test_two_chain(self):
        h = Hypergraph.from_sets([{"1"}, {"2"}, {"1", "2"}])
        k = frozenset({frozenset({"1"}), frozenset({"1", "2"})})
        assert vertex_coordinates(h, k) == (3, 6)

    def test_powerset_chain(self):
        sets = [set(c) for r in range(1, 4)
                for c in itertools.combinations("123", r)]
        h = Hypergraph.from_sets(sets)
        k = frozenset({frozenset({"1"}), frozenset({"1", "2"}),
                       frozenset({"1", "2", "3"})})
        assert vertex_coordinates(h, k) == (3, 6, 18)

    def test_l_vertex(self):
        # atoms sort as (u, x, y, z)
        assert vertex_coordinates(abar(), L) == (3, 54, 18, 6)

    def test_repeated_member_counts_once(self):
        k = [["u"], ["z", "u"], ["u"], ["y", "z", "u"], ["x", "y", "z", "u"]]
        assert vertex_coordinates(abar(), k) == (3, 54, 18, 6)

    def test_requires_asc(self):
        with pytest.raises(NotASCError):
            vertex_coordinates(paper_a(), L)

    def test_rejects_non_construction(self):
        with pytest.raises(NotAConstructionError):
            vertex_coordinates(abar(), frozen("x", "y", "z", "u"))

    def test_largest_member_first(self):
        # the sweep needs each member after those inside it, so
        # vertex_coordinates sorts whatever order it is given
        for h in all_asc_hypergraphs(4):
            for fam in enumerate_constructions(h):
                k = sorted(fam, key=len, reverse=True)
                assert vertex_coordinates(h, k) == oracle_coordinates(
                    [h.mask(s) for s in k], h.n_atoms)

    def test_injective_across_constructions(self):
        for h in all_asc_hypergraphs(4):
            seen = {vertex_coordinates(h, k) for k in enumerate_constructions(h)}
            assert len(seen) == len(enumerate_constructions(h))


class TestCoordinatesMatchOracle(kept_ids("coordinates")):
    """The child-level sweep against the parent-map oracle (row
    ``coordinates``)."""

    def test_two_roots_in_one_member(self):
        # {a} inside {a,b,c} leaves b and c both unfixed
        with pytest.raises(NestohedraError, match="non-unique root"):
            realization._coordinates([0b001, 0b111], 3, {})
        with pytest.raises(NestohedraError, match="non-unique root"):
            oracle_coordinates([0b001, 0b111], 3)

    def test_a_member_before_one_inside_it(self):
        # {a,b} before {a} has two roots, a key the memo never holds,
        # even once ({a,b}, b) has been solved in the right order
        memo = {}
        assert realization._coordinates([0b001, 0b011], 2, memo) == (3, 6)
        with pytest.raises(NestohedraError, match="non-unique root"):
            realization._coordinates([0b011, 0b001], 2, memo)


class TestHypertreeInputs:
    """Atomic non-graph hypergraphs on 8-10 atoms with one or two
    blocks, the class of the benchmark's random realizations, against
    the parent-map and deletion oracles."""

    @pytest.mark.parametrize("seed, n, blocks", [
        (5, 8, 1), (2, 9, 1), (0, 10, 1), (4, 9, 2), (7, 10, 2), (1, 10, 2)])
    def test_against_oracles(self, seed, n, blocks):
        h = hypertree(seed, n, blocks)
        hbar = saturated_closure(h)
        assert is_atomic(h) and max(m.bit_count() for m in h.members) >= 3
        assert len(family_components(hbar.members)) == blocks
        for fam, coords in realize(h).vertices:
            assert coords == oracle_coordinates([hbar.mask(s) for s in fam], n)
        check("coordinates", [h])
        check("vertex-order", [h])
        check("defining-equations", [h])


class TestRealize:
    def test_triangle(self):
        h = catalog_lookup("H_301").hypergraph
        rp = realize(h)
        assert rp.dimension == 2
        assert {c for _, c in rp.vertices} == {(21, 3, 3), (3, 21, 3), (3, 3, 21)}

    def test_associahedron_counts(self):
        rp = realize(abar())
        assert len(rp.vertices) == 14
        assert len(rp.facet_specs) == 9

    def test_empty_point(self):
        rp = realize(Hypergraph.from_sets([]))
        assert rp.dimension == 0
        assert rp.vertices == ((frozenset(), ()),)
        assert rp.facet_specs == ()

    def test_all_singletons_point(self):
        rp = realize(Hypergraph.from_sets([{"x"}, {"y"}]))
        assert rp.dimension == 0
        assert len(rp.vertices) == 1
        assert rp.vertices[0][1] == (3, 3)

    @pytest.mark.parametrize("sets", [[], [{"x"}], [{"x"}, {"y"}]],
                             ids=["empty", "one-atom", "two-isolated-atoms"])
    def test_facetless_incidence(self, sets):
        # one vertex on no facet: one empty incidence row, not none
        rp = realize(Hypergraph.from_sets(sets))
        assert rp.facet_specs == ()
        assert rp.incidence == ((),)
        doc = json.loads(json.dumps(to_json_dict(rp)))
        assert doc["incidence"] == [[]]
        assert doc["facets"] == []

    def test_requires_atomic(self):
        with pytest.raises(NotAtomicError):
            realize(Hypergraph.from_sets([{"x", "y"}]))

    def test_facet_count_for_asc(self):
        # every non-top member of the closure cuts a facet
        for h in all_asc_hypergraphs(4):
            rp = realize(h)
            assert len(rp.facet_specs) == len(h.members) - 1

    def test_simplicity(self):
        for h in all_asc_hypergraphs(4):
            rp = realize(h)
            for row in rp.incidence:
                assert sum(row) == rp.dimension

    def test_product_realization(self):
        rp = realize(catalog_lookup("H_4200").hypergraph)
        assert rp.dimension == 2
        assert len(rp.vertices) == 4
        assert {s.support for s in rp.facet_specs} == frozen("x", "y", "z", "u")

    def test_hyperplane_spec_validation(self):
        with pytest.raises(NestohedraError):
            HyperplaneSpec(frozenset("x"), 9)
        with pytest.raises(NestohedraError):
            HyperplaneSpec(frozenset(), 1)


class TestMembership:
    def test_l_vertex_boundary_set(self):
        v = vertex_coordinates(abar(), L)
        verdicts = check_vertex_membership(abar(), v)
        on = {m for m, verdict in verdicts.items() if verdict == "on-boundary"}
        assert on == L
        assert all(verdict == "strict-interior"
                   for m, verdict in verdicts.items() if m not in L)

    def test_origin_outside(self):
        verdicts = check_vertex_membership(abar(), (0, 0, 0, 0))
        assert set(verdicts.values()) == {"outside"}

    def test_scaled_interior_point(self):
        sets = [set(c) for r in range(1, 5)
                for c in itertools.combinations("wxyz", r)]
        h = Hypergraph.from_sets(sets)
        point = (3 ** 4,) * 4
        verdicts = check_vertex_membership(h, point)
        for m, verdict in verdicts.items():
            if len(m) < 4:
                assert verdict == "strict-interior"

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            check_vertex_membership(abar(), (1, 2, 3))


# rows defining-equations and vertex-order
TestDefiningEquations = kept_ids("defining-equations")
TestVertexOrder = kept_ids("vertex-order")


def _roots(h, blocks=False):
    """(construction masks, root atom index) for every member of every
    construction of ``h``'s closure except the block tops, which carve
    no facet, or for the block tops alone when ``blocks``.  A member's
    root is the one atom its sub-members miss."""
    hbar = saturated_closure(h)
    tops = {family_union(c) for c in family_components(hbar.members)}
    for fam in oracle_constructions(hbar):
        k = frozenset(hbar.mask(s) for s in fam)
        for m in (k & tops if blocks else k - tops):
            below = family_union(o for o in k if o != m and o & ~m == 0)
            yield k, (m & ~below).bit_length() - 1


def no_parent_facet():
    # facet abc has no member one atom smaller; block abcd has parent abc
    return Hypergraph.from_sets(["a", "b", "c", "d", "abc", "cd"])


_PERTURBED_INPUTS = [
    paper_a,
    lambda: graph("cycle", 4),
    lambda: Hypergraph.from_sets(["x", "y", "z", "u", "xy", "zu"]),
    no_parent_facet,
]


class TestEveryVertexFacetChecked:
    """Moving one coordinate of one vertex by one off a facet of its
    construction, or off the hyperplane of one of its blocks, must trip
    that check."""

    @staticmethod
    def perturbed(monkeypatch, target, atom, delta):
        real = realization._coordinates

        def coordinates(k, n, memo):
            out = list(real(k, n, memo))
            if frozenset(k) == target:
                out[atom] += delta
            return tuple(out)

        monkeypatch.setattr(realization, "_coordinates", coordinates)

    @pytest.mark.parametrize("make", _PERTURBED_INPUTS)
    @pytest.mark.parametrize("delta, message", [
        (1, "incidence disagrees"),
        (-1, "outside a halfspace"),
    ])
    def test_one_coordinate_moved(self, monkeypatch, make, delta, message):
        h = make()
        pairs = list(_roots(h))
        assert pairs
        for k, atom in pairs:
            with monkeypatch.context() as mp:
                self.perturbed(mp, k, atom, delta)
                with pytest.raises(NestohedraError, match=message):
                    realize(h)
        realize(h)

    @pytest.mark.parametrize("make", _PERTURBED_INPUTS + [
        lambda: Hypergraph.from_sets(["v", "w", "x", "y", "z", "vw", "wx", "yz"]),
    ])
    def test_block_root_moved(self, monkeypatch, make):
        # a block root lies in no other member of its construction, so
        # moving it up keeps every facet sum on its side: only the block
        # equation sees it
        h = make()
        pairs = list(_roots(h, blocks=True))
        assert pairs
        for k, atom in pairs:
            with monkeypatch.context() as mp:
                self.perturbed(mp, k, atom, 1)
                with pytest.raises(NestohedraError, match="vertex off a block hyperplane"):
                    realize(h)
        realize(h)


class TestBudgetInequality:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_antichain_sum_stays_under_union_level(self, data):
        n = data.draw(st.integers(min_value=2, max_value=6))
        atoms = list(range(n))
        subsets = [frozenset(c) for r in range(1, n)
                   for c in itertools.combinations(atoms, r)]
        fam = data.draw(st.lists(st.sampled_from(subsets), min_size=2,
                                 max_size=5, unique=True))
        antichain = [s for s in fam
                     if not any(s < t or t < s for t in fam if t is not s)]
        if len(antichain) < 2:
            antichain = None
        coords = data.draw(st.lists(
            st.integers(min_value=0, max_value=3 ** n),
            min_size=n, max_size=n))
        if antichain is None:
            return
        # clamp to the per-set budgets, keeping everything integral
        changed = True
        while changed:
            changed = False
            for s in antichain:
                total = sum(coords[i] for i in s)
                budget = 3 ** len(s)
                if total > budget:
                    for i in s:
                        coords[i] = coords[i] * budget // total
                    changed = True
        union = frozenset().union(*antichain)
        assert sum(coords[i] for i in union) < 3 ** len(union)


class TestIsomorphism:
    def test_tetrahedron(self):
        assert face_lattice_isomorphic(catalog_lookup("H_4001").hypergraph).ok

    def test_associahedron_with_mapping(self):
        iso = face_lattice_isomorphic(abar())
        assert iso.ok
        top = frozenset("xyzu")
        vertex_images = {v for v in iso.face_map.values() if len(v) == 4}
        assert vertex_images == enumerate_constructions(abar())
        assert iso.face_map[frozenset()] == frozenset({top})

    def test_disconnected_square(self):
        assert face_lattice_isomorphic(catalog_lookup("H_4200").hypergraph).ok

    def test_works_through_closure(self):
        assert face_lattice_isomorphic(paper_a()).ok


# the doubling power set of face_lattice_isomorphic (row power-set)
TestPowerSetOracle = kept_ids("power-set")


def _flip_first_on_bit(rp):
    row = list(rp.incidence[0])
    row[row.index(True)] = False
    return {"incidence": (tuple(row),) + rp.incidence[1:]}


def _duplicate_first_vertex(rp):
    return {"vertices": rp.vertices + rp.vertices[:1],
            "incidence": rp.incidence + rp.incidence[:1]}


def _zero_first_facet(rp):
    return {"incidence": tuple((False,) + row[1:] for row in rp.incidence)}


class TestIsomorphismFailures:
    """A realization with a broken incidence must fail the geometric
    oracle, name each fault and return no face map."""

    @pytest.mark.parametrize("corrupt, expected", [
        (_flip_first_on_bit, {"vertex incidence set does not rebuild its construction",
                              "face collections differ"}),
        (_duplicate_first_vertex, {"two vertices share an incidence set"}),
        (_zero_first_facet, {"vertex incidence set does not rebuild its construction",
                             "holds no vertex", "face collections differ"}),
    ], ids=["flipped-bit", "duplicated-row", "zeroed-column"])
    def test_mismatch_reported(self, monkeypatch, corrupt, expected):
        h = abar()
        rp = realize(h)
        broken = dataclasses.replace(rp, **corrupt(rp))
        monkeypatch.setattr(realization, "realize", lambda _: broken)
        iso = face_lattice_isomorphic(h)
        assert not iso.ok
        assert iso.face_map == {}
        found = {frag for frag in expected
                 for msg in iso.mismatches if frag in msg}
        assert found == expected, iso.mismatches
        assert all(any(frag in msg for frag in expected) for msg in iso.mismatches)

    def test_messages_name_the_fault(self, monkeypatch):
        h = abar()
        rp = realize(h)
        broken = dataclasses.replace(rp, **_zero_first_facet(rp))
        monkeypatch.setattr(realization, "realize", lambda _: broken)
        iso = face_lattice_isomorphic(h)
        support = sorted(rp.facet_specs[0].support)
        assert f"facet {support} holds no vertex" in iso.mismatches
        on_first = sum(row[0] for row in rp.incidence)
        holding = [f for f in enumerate_constructs(h)
                   if rp.facet_specs[0].support in f]
        assert iso.mismatches[-1] == (
            f"face collections differ (0 geometric-only, "
            f"{len(holding)} construct-only)")
        assert sum("does not rebuild" in msg for msg in iso.mismatches) == on_first


class TestLimits:
    def test_simplex_limit(self):
        for n in range(2, 5):
            atoms = "wxyz"[:n]
            h = Hypergraph.from_sets(
                [{a} for a in atoms] + [set(atoms)])
            p = abstract_polytope(h)
            assert f_vector(p) == tuple(
                len(list(itertools.combinations(atoms, k + 1)))
                for k in range(n - 1))
            assert face_lattice_isomorphic(h).ok

    def test_permutohedron_limit(self):
        for n in range(2, 5):
            atoms = "wxyz"[:n]
            sets = [set(c) for r in range(1, n + 1)
                    for c in itertools.combinations(atoms, r)]
            h = Hypergraph.from_sets(sets)
            import math
            assert len(enumerate_constructions(h)) == math.factorial(n)
            assert face_lattice_isomorphic(h).ok


class TestExports:
    def test_off_triangle(self):
        off = to_off(realize(catalog_lookup("H_301").hypergraph))
        lines = off.splitlines()
        assert lines[0] == "OFF"
        assert lines[1] == "3 1 3"
        assert lines[5].startswith("3 ")

    def test_off_tetrahedron_euler(self):
        off = to_off(realize(catalog_lookup("H_4001").hypergraph))
        lines = off.splitlines()
        nv, nf, ne = map(int, lines[1].split())
        assert (nv, nf, ne) == (4, 4, 6)
        cycles = [list(map(int, ln.split()))[1:] for ln in lines[2 + nv:]]
        assert all(len(c) == 3 for c in cycles)

    def test_off_every_rank3_entry(self):
        from nestohedra import catalog
        for e in catalog():
            rp = realize(e.hypergraph)
            if rp.dimension != 3:
                continue
            lines = to_off(rp).splitlines()
            nv, nf, ne = map(int, lines[1].split())
            assert nv - ne + nf == 2
            cycles = [list(map(int, ln.split()))[1:] for ln in lines[2 + nv:]]
            # every facet polygon walks each of its vertices exactly once
            for cyc, spec in zip(cycles, rp.facet_specs):
                expect = {i for i in range(nv)
                          if rp.incidence[i][rp.facet_specs.index(spec)]}
                assert sorted(cyc) == sorted(expect)

    def test_off_product_prism(self):
        # pentagon x segment: a disconnected hypergraph realizing in 3-D
        h = Hypergraph.from_sets(
            [{"a"}, {"b"}, {"c"}, {"a", "b"}, {"b", "c"}, {"a", "b", "c"},
             {"d"}, {"e"}, {"d", "e"}])
        rp = realize(h)
        assert rp.dimension == 3
        lines = to_off(rp).splitlines()
        nv, nf, ne = map(int, lines[1].split())
        assert (nv, nf) == (10, 7)
        assert nv - ne + nf == 2

    def test_off_catalog_digest(self):
        # every catalog entry realizes in dimension <= 3; the digest pins
        # the vertex order, edge counts and facet polygon walks
        digest = hashlib.sha256()
        for e in catalog():
            digest.update(to_off(realize(e.hypergraph)).encode())
        assert digest.hexdigest() == \
            "9928781cd69ba428996894f5cac5aaa194b16c97ccd6c976106f989f5e29ffe0"

    def test_off_segment_and_point(self):
        seg = realize(Hypergraph.from_sets([{"x"}, {"y"}, {"x", "y"}]))
        lines = to_off(seg).splitlines()
        assert lines[1] == "2 0 1"
        pt = realize(Hypergraph.from_sets([{"x"}]))
        assert to_off(pt).splitlines()[1] == "1 0 0"

    def test_incidence_entries_are_bool(self):
        inputs = [e.hypergraph for e in catalog() if is_atomic(e.hypergraph)]
        inputs += [graph(kind, n) for kind in ("path", "cycle", "star", "complete")
                   for n in range(1, 7)]
        for h in inputs:
            rp = realize(h)
            rows = to_json_dict(rp)["incidence"]
            assert rows == [list(row) for row in rp.incidence]
            assert all(type(x) is bool for row in rp.incidence for x in row)
            assert all(type(x) is bool for row in rows for x in row)

    def test_json_exact_integers(self):
        import json
        doc = to_json_dict(realize(abar()))
        text = json.dumps(doc)
        back = json.loads(text)
        assert back["dimension"] == 3
        assert all(isinstance(c, int)
                   for v in back["vertices"] for c in v["coords"])
