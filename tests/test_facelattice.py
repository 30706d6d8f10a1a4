import collections
import hashlib
import itertools
import json
import random

import pytest

from nestohedra import (
    BOTTOM,
    FacePoset,
    Hypergraph,
    abstract_polytope,
    catalog_lookup,
    continuation,
    enumerate_constructions,
    enumerate_constructs,
    f_vector,
    face_label,
    facet_section,
    finest_partition,
    is_construction,
    join,
    meet,
    otimes,
    quotient,
    restriction,
    saturated_closure,
    section,
)
from nestohedra.errors import (
    BadFactorError,
    CarrierOverlapError,
    HypergraphError,
    NestohedraError,
    NotComparableError,
    NotFacetError,
)
from nestohedra.constructions import _f_vector_and_rank
from nestohedra.facelattice import to_dot, to_json_dict

from helpers import (L, M, N, _outcomes, abar, all_asc_hypergraphs, check, diamond_poset,
                     frozen, graph, paper_a, poset_isomorphic, tier)


ALPHA = frozenset("xyzu")


class TestAbstractPolytope:
    def test_rank_and_vertices_of_a(self):
        p = abstract_polytope(paper_a())
        assert p.rank == 3
        assert len(p.faces_of_rank(0)) == 14

    def test_single_atom(self):
        p = abstract_polytope(Hypergraph.from_sets([{"x"}]))
        assert p.rank == 0
        assert set(p.faces) == {BOTTOM, frozen("x")}

    def test_two_isolated_atoms(self):
        p = abstract_polytope(Hypergraph.from_sets([{"x"}, {"y"}]))
        assert p.rank == 0
        assert set(p.faces) == {BOTTOM, frozen("x", "y")}

    def test_empty(self):
        p = abstract_polytope(Hypergraph.from_sets([]))
        assert p.rank == 0
        assert set(p.faces) == {BOTTOM, frozenset()}

    def test_top_is_component_set(self):
        for h in [paper_a(), Hypergraph.from_sets([{"x"}, {"y"}, {"x", "y"}])]:
            p = abstract_polytope(h)
            tops = {frozenset(b.atoms) for b in finest_partition(h)}
            assert p.top() == frozenset(tops)

    def test_rank_formula(self):
        # the f-vector row holds this rank to the poset's
        for h in tier("atomic"):
            assert _f_vector_and_rank(h)[1] == h.n_atoms - len(finest_partition(h))

    def test_vertex_incident_with_rank_many_facets(self):
        from nestohedra import catalog
        pool = list(all_asc_hypergraphs(4))
        pool += [e.hypergraph for e in catalog() if e.degenerate]
        for h in pool:
            p = abstract_polytope(h)
            r = p.rank
            if r <= 0:
                continue
            facets = p.faces_of_rank(r - 1)
            for v in p.faces_of_rank(0):
                assert sum(1 for f in facets if p.leq(v, f)) == r

    def test_faces_of_one_rank_determine_the_poset(self):
        a = paper_a()
        a2 = Hypergraph.from_sets(a.member_sets - {frozenset("xyz")})
        p1, p2 = abstract_polytope(a), abstract_polytope(a2)
        for k in range(-1, p1.rank):
            assert set(p1.faces_of_rank(k)) == set(p2.faces_of_rank(k))
        assert p1 == p2
        off = Hypergraph.from_sets(a2.member_sets | {frozenset("ux")})
        p3 = abstract_polytope(off)
        assert set(p3.faces_of_rank(0)) != set(p1.faces_of_rank(0))
        assert p3 != p1


class TestFVector:
    def test_associahedron(self):
        p = abstract_polytope(abar())
        assert f_vector(p) == (14, 21, 9)

    def test_tetrahedron(self):
        p = abstract_polytope(catalog_lookup("H_4001").hypergraph)
        assert f_vector(p) == (4, 6, 4)

    def test_permutohedron(self):
        p = abstract_polytope(catalog_lookup("H_4641").hypergraph)
        assert f_vector(p) == (24, 36, 14)

    def test_construct_counts_give_the_poset_f_vector(self):
        check("f-vector")


class TestMeetJoin:
    def test_meet_of_clashing_facets_is_bottom(self):
        p = abstract_polytope(paper_a())
        f1 = frozenset({frozenset("x"), ALPHA})
        f2 = frozenset({frozenset("y"), ALPHA})
        assert meet(p, f1, f2) is BOTTOM

    def test_meet_idempotent(self):
        p = abstract_polytope(paper_a())
        for c in p.faces:
            assert meet(p, c, c) == c
            assert join(p, c, c) == c

    def test_meet_by_union(self):
        p = abstract_polytope(paper_a())
        f1 = frozenset({frozenset("u"), ALPHA})
        f2 = frozenset({frozenset("yzu"), ALPHA})
        assert meet(p, f1, f2) == frozenset({frozenset("u"), frozenset("yzu"), ALPHA})

    def test_join_edges(self):
        p = abstract_polytope(paper_a())
        assert join(p, L, M) == L & M == frozen("u", "yzu", "xyzu")
        assert join(p, L, N) == L & N == frozen("u", "zu", "xyzu")

    def test_join_with_bottom(self):
        p = abstract_polytope(paper_a())
        for c in p.faces:
            assert join(p, c, BOTTOM) == c
            assert meet(p, c, BOTTOM) is BOTTOM

    def test_generic_bounds_match_set_rules(self):
        # the order-theoretic bounds coincide with union/intersection
        for h in all_asc_hypergraphs(3):
            p = abstract_polytope(h)
            cs = [f for f in p.faces if f is not BOTTOM]
            for c1 in cs:
                for c2 in cs:
                    u = c1 | c2
                    expected = u if u in set(cs) else BOTTOM
                    assert meet(p, c1, c2) == expected
                    assert join(p, c1, c2) == (c1 & c2)

    def test_antichain_has_no_bounds(self):
        # two incomparable faces and nothing else: no meet, no join, no top
        p = FacePoset(["a", "b"], [0, 0], [[0], [1]])
        with pytest.raises(NestohedraError, match="faces have no meet"):
            meet(p, "a", "b")
        with pytest.raises(NestohedraError, match="faces have no join"):
            join(p, "a", "b")
        assert p.top() is None

    def test_duplicate_face_is_refused(self):
        with pytest.raises(NestohedraError, match="duplicate face a"):
            FacePoset(["a", "a"], [0, 0], [[0], [1]])

    def test_lattice_axioms_sampled(self):
        p = abstract_polytope(abar())
        faces = list(p.faces)
        rng = random.Random(5)
        for _ in range(400):
            a, b, c = (rng.choice(faces) for _ in range(3))
            assert meet(p, a, join(p, a, b)) == a
            assert join(p, a, meet(p, a, b)) == a
            assert meet(p, meet(p, a, b), c) == meet(p, a, meet(p, b, c))
            assert join(p, join(p, a, b), c) == join(p, a, join(p, b, c))

    def test_not_distributive(self):
        p = abstract_polytope(paper_a())
        fx = frozenset({frozenset("x"), ALPHA})
        fy = frozenset({frozenset("y"), ALPHA})
        fz = frozenset({frozenset("z"), ALPHA})
        left = meet(p, fy, join(p, fx, fz))
        right = join(p, meet(p, fy, fx), meet(p, fy, fz))
        assert left == fy
        assert right is BOTTOM
        assert left != right


class TestOtimes:
    def test_square_from_two_segments(self):
        p1 = abstract_polytope(Hypergraph.from_sets([{"x"}, {"y"}, {"x", "y"}]))
        p2 = abstract_polytope(Hypergraph.from_sets([{"z"}, {"u"}, {"z", "u"}]))
        square = abstract_polytope(catalog_lookup("H_4200").hypergraph)
        assert otimes(p1, p2) == square

    def test_unit_like(self):
        p = abstract_polytope(abar())
        point = abstract_polytope(Hypergraph.from_sets([{"w"}]))
        prod = otimes(p, point)
        assert poset_isomorphic(prod, p)

    def test_rank_convolution(self):
        p1 = abstract_polytope(Hypergraph.from_sets([{"x"}, {"y"}, {"x", "y"}]))
        p2 = abstract_polytope(Hypergraph.from_sets([{"z"}, {"u"}, {"z", "u"}]))
        prod = otimes(p1, p2)
        c1 = collections.Counter(p1.ranks)
        c2 = collections.Counter(p2.ranks)
        cp = collections.Counter(prod.ranks)
        for k in range(prod.rank + 1):
            assert cp.get(k, 0) == sum(
                c1.get(i, 0) * c2.get(k - i, 0) for i in range(k + 1))

    def test_carrier_overlap_rejected(self):
        p = abstract_polytope(Hypergraph.from_sets([{"x"}]))
        with pytest.raises(CarrierOverlapError):
            otimes(p, p)

    def test_no_posets(self):
        with pytest.raises(HypergraphError, match="at least one poset"):
            otimes()

    def test_factor_not_closed_under_subfamilies(self):
        # the diamond's string payloads read as families of letters: "top"
        # holds {t, o, p}, but no face is {t, o}
        with pytest.raises(NestohedraError, match="^the faces are not closed under subfamilies"):
            otimes(diamond_poset())

    def test_matches_component_product(self):
        import helpers
        for h in helpers.all_atomic_hypergraphs(3):
            blocks = sorted(finest_partition(h), key=lambda b: b.atoms)
            if len(blocks) < 2:
                continue
            assert otimes(*(abstract_polytope(b) for b in blocks)) == \
                abstract_polytope(h)


class TestContinuation:
    def test_first_example(self):
        got = continuation(abar(), frozenset("zu"),
                           frozen("u", "zu"), frozen("x", "xy"))
        assert got == N

    def test_trivial_factor(self):
        k = L
        assert continuation(abar(), ALPHA, k, frozenset()) == k

    def test_second_example(self):
        got = continuation(abar(), frozenset("yzu"),
                           frozen("y", "u", "yzu"), frozen("x"))
        assert got == M

    def test_third_example(self):
        got = continuation(abar(), frozenset("zu"),
                           frozen("u", "zu"), frozen("y", "xy"))
        assert got == L

    def test_repeated_sets_count_once(self):
        got = continuation(abar(), ["z", "u", "z"], [["u"], ["u"], ["z", "u"]],
                           [["x"], ["x", "y"], ["y", "x"]])
        assert got == N

    def test_bad_factor(self):
        with pytest.raises(BadFactorError):
            continuation(abar(), frozenset("zu"), frozen("u", "zu"), frozen("x"))
        with pytest.raises(BadFactorError):
            continuation(abar(), frozenset("xu"), frozen("u", "zu"), frozen("x", "xy"))

    # (y, k, j, message) for each way a caller's input can be rejected;
    # the last two rows, with two bad inputs, show the order of the checks
    _FIRST = "first factor is not a construction of the restriction"
    _TRACE = "second factor is not a construction of the trace"
    _NOT_MEMBER = "{} is not a member of the hypergraph"
    REJECTIONS = [
        ("zq", frozen("u", "zu"), frozen("x", "xy"), _NOT_MEMBER.format("['q', 'z']")),
        ("xu", frozen("u", "zu"), frozen("x", "xy"), _NOT_MEMBER.format("['u', 'x']")),
        ("", frozen("u", "zu"), frozen("x", "xy"), _NOT_MEMBER.format("[]")),
        ("zu", frozen("u", "zq"), frozen("x", "xy"), _FIRST),  # unknown atom
        ("yzu", frozen("y", "yu", "yzu"), frozen("x"), _FIRST),  # not a member
        ("zu", frozen("u", "xy"), frozen("x", "xy"), _FIRST),  # a member outside y
        ("zu", frozen("zu"), frozen("x", "xy"), _FIRST),  # wrong size
        ("zu", frozen("u", "zu"), frozen("x", "xq"), _TRACE),  # unknown atom
        ("u", frozen("u"), frozen("x", "xz", "xyz"), _TRACE),  # not in the trace
        ("zu", frozen("u", "zu"), frozen("x"), _TRACE),  # wrong size
        ("xyzu", L, frozen("x"), "second factor must be empty when y is the carrier"),
        ("xq", frozen("q"), frozen("q"), _NOT_MEMBER.format("['q', 'x']")),
        ("zu", frozen("zq"), frozen("xq"), _FIRST),
    ]

    @pytest.mark.parametrize("y, k, j, message", REJECTIONS)
    def test_rejection_messages(self, y, k, j, message):
        with pytest.raises(BadFactorError) as got:
            continuation(abar(), frozenset(y), k, j)
        assert type(got.value) is BadFactorError
        assert str(got.value) == message

    def test_matches_restriction_trace_oracle(self):
        check("continuation")
        # one input of the sweep with both verdicts shows that it has both
        assert abar() in tier("atomic")
        outcomes = _outcomes(continuation, abar())
        rejected = sum(isinstance(o, str) for o in outcomes)
        assert 0 < rejected < len(outcomes)

    def test_projections_recover_factors(self):
        for h in all_asc_hypergraphs(4):
            carrier = frozenset(h.atoms)
            cons = enumerate_constructions(h)
            for ell in cons:
                for y in ell:
                    k = frozenset(x for x in ell if x <= y)
                    rest = carrier - y
                    j = frozenset((x & rest) for x in ell if x & rest)
                    # the two factors are constructions of their hypergraphs
                    from nestohedra import is_construction
                    assert is_construction(restriction(h, y), k)
                    if rest:
                        assert is_construction(quotient(h, rest), j)
                    glued = continuation(h, y, k, j)
                    assert glued == ell
                    back_k = frozenset(x for x in glued if x <= y)
                    back_j = frozenset((x & rest) for x in glued if x & rest)
                    assert back_k == k and back_j == j
                    for x in ell - k:
                        trimmed = x - y
                        u = trimmed | y
                        assert (u if u in h.member_sets else trimmed) == x


class TestContinuationAtLargerScale:
    @staticmethod
    def _random_asc5(rng):
        import itertools
        atoms = "abcde"
        optional = [frozenset(c) for r in range(2, 6)
                    for c in itertools.combinations(atoms, r)]
        picks = [s for s in optional if rng.random() < 0.3]
        base = [frozenset({a}) for a in atoms] + picks + [frozenset(atoms)]
        return saturated_closure(Hypergraph.from_sets(set(base)))

    def test_factorization_on_carrier_five(self):
        # spot checks beyond the exhaustive carrier-4 sweep
        rng = random.Random(2024)
        for _ in range(25):
            h = self._random_asc5(rng)
            carrier = frozenset(h.atoms)
            cons = sorted(enumerate_constructions(h),
                          key=lambda k: sorted(map(sorted, k)))
            ell = rng.choice(cons)
            for y in ell:
                k = frozenset(x for x in ell if x <= y)
                rest = carrier - y
                j = frozenset((x & rest) for x in ell if x & rest)
                assert continuation(h, y, k, j) == ell


class TestFacetSection:
    def test_pentagon_facet(self):
        p = facet_section(abar(), frozenset("u"))
        expect = {c for c in enumerate_constructs(abar()) if frozenset("u") in c}
        assert set(p.faces) == expect | {BOTTOM}
        assert p.rank == 2 and len(p.faces_of_rank(0)) == 5

    def test_square_facet(self):
        p = facet_section(abar(), frozenset("zu"))
        assert p.rank == 2 and len(p.faces_of_rank(0)) == 4

    def test_rank_zero_section(self):
        h21 = Hypergraph.from_sets([{"x"}, {"y"}, {"x", "y"}])
        p = facet_section(h21, frozenset("x"))
        assert p.rank == 0 and len(p.faces) == 2

    def test_isomorphic_to_product(self):
        # one build per hypergraph; test_agrees_with_generic_section pins
        # facet_section to this section
        for h in all_asc_hypergraphs(4):
            carrier = frozenset(h.atoms)
            p = abstract_polytope(h)
            for y in h.member_sets - {carrier}:
                rest = carrier - y
                prod = otimes(abstract_polytope(restriction(h, y)),
                              abstract_polytope(quotient(h, rest)))
                assert poset_isomorphic(section(p, frozenset({y, carrier}), BOTTOM), prod)

    def test_not_facet(self):
        with pytest.raises(NotFacetError):
            facet_section(abar(), ALPHA)
        with pytest.raises(NotFacetError):
            facet_section(abar(), frozenset("xu"))

    def test_agrees_with_generic_section(self):
        h = abar()
        p = abstract_polytope(h)
        for y in h.member_sets - {ALPHA}:
            facet_face = frozenset({y, ALPHA})
            assert facet_section(h, y) == section(p, facet_face, BOTTOM)

    def test_inductive_reconstruction(self):
        # gluing every facet section and adding the top recovers the poset
        for h in all_asc_hypergraphs(4):
            carrier = frozenset(h.atoms)
            p = abstract_polytope(h)
            union = {BOTTOM, frozenset({carrier})}
            for y in h.member_sets - {carrier}:
                union |= set(section(p, frozenset({y, carrier}), BOTTOM).faces)
            assert union == set(p.faces)


class TestSection:
    def test_whole_poset(self):
        p = abstract_polytope(abar())
        assert section(p, p.top(), BOTTOM) == p

    def test_interval_above_vertex_is_boolean(self):
        p = abstract_polytope(abar())
        top = p.top()
        for v in p.faces_of_rank(0):
            s = section(p, top, v)
            counts = collections.Counter(s.ranks)
            # Boolean lattice over the non-top members of the vertex
            assert all(counts.get(k, 0) ==
                       len(list(itertools.combinations(range(3), k + 1)))
                       for k in range(-1, 3))

    def test_degenerate(self):
        p = abstract_polytope(abar())
        s = section(p, L, L)
        assert len(s.faces) == 1 and s.rank == -1

    def test_face_order_is_rank_then_label(self):
        # every facet section and every interval above a vertex of the
        # path-6 associahedron, against sorting by (rank, face_label)
        h = saturated_closure(graph("path", 6))
        p = abstract_polytope(h)
        top = p.top()
        carrier = frozenset(h.atoms)
        sections = [section(p, frozenset({y, carrier}), BOTTOM)
                    for y in h.member_sets - {carrier}]
        sections += [section(p, top, v) for v in p.faces_of_rank(0)]
        for s in sections:
            expect = sorted(zip(s.ranks, s.faces),
                            key=lambda rf: (rf[0], face_label(rf[1])))
            assert list(zip(s.ranks, s.faces)) == expect

    def test_not_comparable(self):
        p = abstract_polytope(abar())
        with pytest.raises(NotComparableError):
            section(p, L, M)


class TestFromCovers:
    def test_unknown_face(self):
        with pytest.raises(NestohedraError, match="not a face: zz"):
            FacePoset.from_covers([("bot", -1), ("a", 0)], [("bot", "a"), ("a", "zz")])


class TestExports:
    def test_dot_shape(self):
        p = abstract_polytope(Hypergraph.from_sets([{"x"}, {"y"}, {"x", "y"}]))
        dot = to_dot(p)
        assert dot.startswith("digraph")
        assert 'label="F-1"' in dot
        assert dot.count("->") == len(p.covers())

    def test_json_shape(self):
        p = abstract_polytope(paper_a())
        doc = to_json_dict(p)
        assert len(doc["faces"]) == len(p.faces)
        assert doc["faces"][0]["label"] == "F-1"
        assert doc["faces"][0]["members"] is None
        assert all(isinstance(c, list) and len(c) == 2 for c in doc["covers"])

    def test_lattice_catalog_digest(self):
        # DOT and JSON of every atomic catalog poset and of its sections
        # from each face to the top, pinned byte for byte
        digest = hashlib.sha256()
        for h in tier("catalog"):
            p = abstract_polytope(h)
            top = p.top()
            for s in [p] + [section(p, top, f) for f in p.faces]:
                digest.update(to_dot(s).encode())
                digest.update(json.dumps(to_json_dict(s)).encode())
        assert digest.hexdigest() == (
            "2156467a2692d69d95c0c869d47fbb9380467a829e8164d47a51326c08b2a7d2")
