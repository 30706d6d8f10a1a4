import itertools
from math import comb, factorial

import pytest

from nestohedra import (
    Hypergraph,
    as_graph,
    count_constructions,
    enumerate_constructions,
    enumerate_constructs,
    finest_partition,
    is_construct,
    is_construction,
    is_tubing,
    saturated_closure,
    superficial_elements,
    to_f_construction,
    to_s_construction,
    vertex_coordinates,
)
from nestohedra.constructions import (
    _f_vector_and_rank,
    _fpoly,
    _peel,
    _read_forest,
)
from nestohedra.errors import (
    NestohedraError,
    NotAConstructionError,
    NotASCError,
    NotAtomicError,
    NotMemberError,
    NotTubesError,
)

from helpers import (
    L,
    M,
    N,
    ROUTES,
    abar,
    all_asc_hypergraphs,
    all_atomic_hypergraphs,
    check,
    frozen,
    graph,
    oracle_read_forest,
    paper_a,
    tier,
)


class TestEnumerate:
    def test_a_has_14(self):
        cons = enumerate_constructions(paper_a())
        assert len(cons) == 14
        assert L in cons and M in cons and N in cons

    def test_single_atom(self):
        h = Hypergraph.from_sets([{"x"}])
        assert enumerate_constructions(h) == {frozen("x")}

    def test_six_permutations(self):
        h331 = Hypergraph.from_sets(
            [{"x"}, {"y"}, {"z"}, {"x", "y"}, {"y", "z"}, {"x", "z"}, {"x", "y", "z"}])
        assert len(enumerate_constructions(h331)) == 6

    def test_empty(self):
        h = Hypergraph.from_sets([])
        assert enumerate_constructions(h) == {frozenset()}

    def test_requires_atomic(self):
        with pytest.raises(NotAtomicError):
            enumerate_constructions(Hypergraph.from_sets([{"x", "y"}]))

    def test_sizes_match_carrier(self):
        for h in all_atomic_hypergraphs(4):
            for k in enumerate_constructions(h):
                assert len(k) == h.n_atoms

    def test_component_tops_always_present(self):
        from nestohedra import finest_partition
        for h in all_atomic_hypergraphs(3):
            tops = {frozenset(b.atoms) for b in finest_partition(h)}
            for k in enumerate_constructions(h):
                assert tops <= k

    def test_count_recursion_agrees(self):
        check("count")


class TestIsConstruction:
    def test_l_in_abar(self):
        assert is_construction(abar(), L)

    def test_antichain_counterexample(self):
        # {x} and {y} form an antichain whose union {x,y} is a member
        bad = frozen("x", "y", "z", "xyzu")
        assert not is_construction(abar(), bad)

    def test_empty(self):
        h = Hypergraph.from_sets([])
        assert is_construction(h, frozenset())

    def test_requires_asc(self):
        with pytest.raises(NotASCError):
            is_construction(paper_a(), L)  # not saturated

    def test_wrong_size_rejected(self):
        assert not is_construction(abar(), frozen("xyzu"))

    def test_non_member_rejected(self):
        assert not is_construction(abar(), frozen("u", "xu", "yzu", "xyzu"))


# caller families with an unknown atom, a non-member and a repeated set,
# and a construction for contrast
_FAMILIES = {
    "unknown atom": frozen("u", "zq", "yzu", "xyzu"),
    "non-member": frozen("u", "xu", "yzu", "xyzu"),
    "repeated set": [["u"], ["u"], ["z", "u"], ["y", "z", "u"], ["x", "y", "z", "u"]],
    "construction": L,
}
_NOT_TUBES = (NotTubesError, "a tubing may only use members of the graph")


class TestCallerFamilies:
    """Verdicts and errors of the three predicates that read a caller's
    atom-name family into member masks."""

    @pytest.mark.parametrize("pred, family, want", [
        (is_construction, "unknown atom", False),
        (is_construction, "non-member", False),
        (is_construction, "repeated set", False),
        (is_construction, "construction", True),
        (is_construct, "unknown atom", False),
        (is_construct, "non-member", False),
        (is_construct, "repeated set", True),
        (is_construct, "construction", True),
        (is_tubing, "unknown atom", _NOT_TUBES),
        (is_tubing, "non-member", _NOT_TUBES),
        (is_tubing, "repeated set", True),
        (is_tubing, "construction", True),
    ])
    def test_verdict(self, pred, family, want):
        h = as_graph([("x", "y"), ("y", "z"), ("z", "u")], "xyzu") \
            if pred is is_tubing else abar()
        if isinstance(want, bool):
            assert pred(h, _FAMILIES[family]) is want
        else:
            with pytest.raises(want[0]) as got:
                pred(h, _FAMILIES[family])
            assert type(got.value) is want[0] and str(got.value) == want[1]


# (hypergraph, caller family, exception type, message) for each way
# ``_construction_masks`` rejects a family; the last row has two faults
# and shows which check comes first
_XY = Hypergraph.from_sets([{"x"}, {"y"}])
_OUTSIDE = (NotAConstructionError, "member outside the saturated closure")
_REJECTED = {
    "unknown atom": (abar(), _FAMILIES["unknown atom"],
                     NotAConstructionError, "unknown atom 'q'"),
    "non-member": (abar(), _FAMILIES["non-member"], *_OUTSIDE),
    "crosses blocks": (_XY, frozen("x", "y", "xy"), *_OUTSIDE),
    "repeated member": (abar(), _FAMILIES["repeated set"],
                        NotAConstructionError, "repeated members"),
    "wrong count": (abar(), frozen("u", "zu", "xyzu"),
                    NotAConstructionError, "wrong member count inside a component"),
    "antichain union": (abar(), frozen("u", "z", "yzu", "xyzu"),
                        NotAConstructionError, "an antichain union lands in the hypergraph"),
    "non-member, wrong count": (abar(), frozen("u", "xu", "xyzu"), *_OUTSIDE),
}


def _fault_rows():
    # vertex_coordinates needs an ASC hypergraph, so it rejects the
    # two-block input up front, and it reads the family as a set, so a
    # repeated member is no fault there (test_realization checks that)
    for fn in (to_f_construction, to_s_construction, vertex_coordinates):
        for row, (h, family, exc, message) in _REJECTED.items():
            if fn is vertex_coordinates and row == "repeated member":
                continue
            if fn is vertex_coordinates and row == "crosses blocks":
                exc, message = NotASCError, ("vertex coordinates need an atomic "
                                             "saturated connected hypergraph")
            yield pytest.param(fn, h, family, exc, message, id=f"{fn.__name__}-{row}")


class TestConstructionFaults:
    """Exception type and message of every rejection by the three public
    functions that check a caller's construction."""

    @pytest.mark.parametrize("fn, h, family, exc, message", _fault_rows())
    def test_fault(self, fn, h, family, exc, message):
        with pytest.raises(exc) as got:
            fn(h, family)
        assert type(got.value) is exc and str(got.value) == message


class TestConstructs:
    def test_paper_construct(self):
        assert frozen("u", "yzu", "xyzu") in enumerate_constructs(paper_a())

    def test_single_atom(self):
        h = Hypergraph.from_sets([{"x"}])
        assert enumerate_constructs(h) == {frozen("x")}

    def test_facet_is_construct(self):
        assert frozen("u", "xyzu") in enumerate_constructs(paper_a())

    def test_construct_predicate_matches_enumeration(self):
        for h in all_asc_hypergraphs(3):
            cons = enumerate_constructs(h)
            members = sorted(h.member_sets, key=lambda s: (len(s), tuple(sorted(s))))
            for r in range(len(members) + 1):
                for sub in itertools.combinations(members, r):
                    fam = frozenset(sub)
                    assert is_construct(h, fam) == (fam in cons)

    def test_antichain_family_bounded_by_construction(self):
        # a subfamily whose antichains all miss sits inside some construction
        from nestohedra.constructions import antichains_all_miss
        for h in all_asc_hypergraphs(3):
            cons = enumerate_constructions(h)
            members = sorted(h.members)
            for r in range(len(members) + 1):
                for sub in itertools.combinations(members, r):
                    holds = antichains_all_miss(h.members, list(sub))
                    fam = h.family(sub)
                    bounded = any(fam <= k for k in cons)
                    assert holds == bounded

    def test_incomparable_members_disjoint(self):
        for h in all_asc_hypergraphs(4):
            for c in enumerate_constructs(h):
                for a in c:
                    for b in c:
                        if a != b and not (a <= b or b <= a):
                            assert not (a & b)


class TestSuperficial:
    def test_in_l(self):
        assert superficial_elements(L, {"x", "y", "z", "u"}) == {"x"}

    def test_isolated_member(self):
        fam = frozen("xyz")
        assert superficial_elements(fam, {"x", "y", "z"}) == {"x", "y", "z"}

    def test_in_m(self):
        assert superficial_elements(M, {"y", "z", "u"}) == {"z"}

    def test_not_member(self):
        with pytest.raises(NotMemberError):
            superficial_elements(L, {"x"})

    def test_unique_root_and_landing(self):
        # a member of the hypergraph missing from a construction nests in a
        # member of the construction through that member's unique root atom
        for h in all_asc_hypergraphs(4):
            for k in enumerate_constructions(h):
                for x in k:
                    assert len(superficial_elements(k, x)) == 1
                for y in h.member_sets - k:
                    hits = [x for x in k
                            if y < x and superficial_elements(k, x) <= y]
                    assert hits, (h, k, y)


class TestFConstruction:
    def test_l_forest(self):
        expect = frozenset({frozenset({
            "x", frozenset({"y", frozenset({"z", frozenset({"u"})})})})})
        assert to_f_construction(paper_a(), L) == expect

    def test_empty(self):
        h = Hypergraph.from_sets([])
        assert to_f_construction(h, frozenset()) == frozenset()

    def test_m_forest(self):
        expect = frozenset({frozenset({
            "x", frozenset({"z", frozenset({"y"}), frozenset({"u"})})})})
        assert to_f_construction(paper_a(), M) == expect

    def test_rejects_non_construction(self):
        with pytest.raises(NotAConstructionError):
            to_f_construction(paper_a(), frozen("x", "y", "z", "u"))
        with pytest.raises(NotAConstructionError):
            to_f_construction(paper_a(), frozen("x", "y", "qq", "xyzu"))


class TestForestOracle:
    """The by-size sweep that reads forests and words, held against the
    parent-map recursion it replaced (route ``forests-and-words``)."""

    def test_forests_and_words_match_parent_map_route(self):
        check("forests-and-words")
        corpus = ROUTES["forests-and-words"].corpus()
        assert sum(len(_peel(h.members, False)) for h in corpus) == 36327

    def test_two_roots_in_one_member(self):
        # {a} inside {a,b,c} leaves b and c both unfixed
        h = graph("path", 3)
        for read in (_read_forest, oracle_read_forest):
            with pytest.raises(NestohedraError, match="non-unique root"):
                read(h, [0b001, 0b111], lambda atom, trees: atom, list)


class TestOracleEquivalence:
    def test_enumeration_equals_antichain_route(self):
        for k in range(4):
            for h in all_asc_hypergraphs(k):
                cons = enumerate_constructions(h)
                members = sorted(h.member_sets,
                                 key=lambda s: (len(s), tuple(sorted(s))))
                brute = set()
                for m in itertools.combinations(members, h.n_atoms):
                    fam = frozenset(m)
                    if is_construction(h, fam):
                        brute.add(fam)
                assert brute == cons

    def test_constructions_of_closure_coincide(self):
        for h in all_atomic_hypergraphs(4):
            assert enumerate_constructions(h) == \
                enumerate_constructions(saturated_closure(h))


class TestPeelingMatchesPowerSet:
    """The peeling recursion against the routes it replaced (rows
    ``peel-constructions`` and ``peel-constructs``)."""

    def test_constructions(self):
        check("peel-constructions")

    def test_constructs(self):
        check("peel-constructs")

    @pytest.mark.parametrize("constructs", [False, True])
    def test_each_result_once_as_a_tuple(self, constructs):
        # a tuple keeps what a set would fold away: no result and no
        # member of one may come twice, and as sets they are the oracle's
        route = ROUTES["peel-constructs" if constructs else "peel-constructions"]
        for h in route.corpus():
            got = _peel(h.members, constructs)
            assert type(got) is tuple and all(type(k) is tuple for k in got), h
            assert all(len(set(k)) == len(k) for k in got), h
            sets = set(map(frozenset, got))
            assert len(sets) == len(got), h
            assert set(map(h.family, sets)) == route.oracle(h), h

    def test_each_member_after_those_inside_it(self):
        # realization's coordinate sweep reads the tuples in this order,
        # unsorted: a member listed before one inside it has no unique root
        for h in ROUTES["peel-constructions"].corpus():
            for k in _peel(h.members, False):
                assert all(o & ~m for i, m in enumerate(k) for o in k[i + 1:]), (h, k)


class TestPeelingIgnoresSaturation:
    """Peeling reads only connected components and their carriers, which a
    hypergraph shares with its saturated closure; ``realize`` peels the
    hypergraph and reads facets off the closure on that ground.  The
    tuples agree in order too: both sort blocks by carrier and take
    peels in the same submask order."""

    @pytest.mark.parametrize("constructs", [False, True])
    def test_hypergraph_peels_like_its_closure(self, constructs):
        for h in ROUTES["peel-constructions"].corpus():
            assert _peel(h.members, constructs) == \
                _peel(saturated_closure(h).members, constructs), h


# closed forms, computed without the library
VERTICES = {
    "path": lambda n: comb(2 * n, n) // (n + 1),  # Catalan
    "cycle": lambda n: comb(2 * n - 2, n - 1),
    "star": lambda n: sum(factorial(n - 1) // factorial(k) for k in range(n)),
    "complete": factorial,
}
# path constructs, n = 1..10
LITTLE_SCHROEDER = (1, 3, 11, 45, 197, 903, 4279, 20793, 103049, 518859)
FUBINI = (1, 3, 13, 75, 541, 4683, 47293, 545835)  # complete-graph constructs, n = 1..8
FAMILIES = [(kind, n) for kind in VERTICES for n in range(1, 7)] + [("path", 7)]
# sizes only the construct counts reach: K_10 has 518,859 constructs
COUNT_FAMILIES = [(kind, n) for kind in VERTICES
                  for n in range(2, 9 if kind == "complete" else 11)]
# members of the saturated closure of the graph (its tubes), at sizes the
# subset walk could not reach
CLOSURE_SIZES = {
    "path": (lambda n: n * (n + 1) // 2, range(1, 25)),
    "cycle": (lambda n: n * (n - 1) + 1, range(3, 25)),
    "star": (lambda n: (n - 1) + 2 ** (n - 1), range(1, 11)),
    "complete": (lambda n: 2 ** n - 1, range(1, 9)),
}


def _f_vector(h):
    """Face counts by dimension 0..n-1 of a connected graph nestohedron:
    a construct with c members is a face of dimension n - c."""
    f = [0] * h.n_atoms
    for c in enumerate_constructs(h):
        f[h.n_atoms - len(c)] += 1
    return f


def _h_vector(f):
    """Coefficients of sum f_k (t - 1)^k, lowest degree first."""
    return [sum(fk * comb(k, i) * (-1) ** (k - i) for k, fk in enumerate(f))
            for i in range(len(f))]


class TestClosedForms:
    @pytest.mark.parametrize("kind,n", FAMILIES)
    def test_vertex_count(self, kind, n):
        h = graph(kind, n)
        expect = VERTICES[kind](n)
        assert len(enumerate_constructions(h)) == expect
        assert count_constructions(h) == expect
        assert _f_vector(h)[0] == expect

    @pytest.mark.parametrize("n", range(1, 8))
    def test_path_constructs_are_little_schroeder(self, n):
        assert len(enumerate_constructs(graph("path", n))) == LITTLE_SCHROEDER[n - 1]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_complete_constructs_are_fubini(self, n):
        assert len(enumerate_constructs(graph("complete", n))) == FUBINI[n - 1]

    @pytest.mark.parametrize("kind,n", FAMILIES)
    def test_euler_relation(self, kind, n):
        f = _f_vector(graph(kind, n))
        assert f[-1] == 1
        assert sum((-1) ** k * fk for k, fk in enumerate(f)) == 1

    @pytest.mark.parametrize("kind,n", FAMILIES)
    def test_h_vector_symmetric(self, kind, n):
        # Dehn-Sommerville: nestohedra are simple polytopes
        h = _h_vector(_f_vector(graph(kind, n)))
        assert h == h[::-1]
        assert sum(h) == VERTICES[kind](n)

    @pytest.mark.parametrize("kind,n", COUNT_FAMILIES)
    def test_vertex_count_from_construct_counts(self, kind, n):
        f, rank = _f_vector_and_rank(graph(kind, n))
        assert rank == n - 1
        assert f[0] == VERTICES[kind](n)
        assert sum((-1) ** k * fk for k, fk in enumerate(f)) == 1 - (-1) ** rank
        h = _h_vector(f + (1,))
        assert h == h[::-1]

    @pytest.mark.parametrize("n", range(1, 11))
    def test_path_construct_total_from_construct_counts(self, n):
        assert sum(_fpoly(graph("path", n).members)) == LITTLE_SCHROEDER[n - 1]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_complete_construct_total_from_construct_counts(self, n):
        assert sum(_fpoly(graph("complete", n).members)) == FUBINI[n - 1]

    def test_truncation_f_vector_beyond_the_poset(self):
        # up to 12 atoms, where no face poset fits; the disjoint unions
        # check the product over blocks
        def disjoint(g, h):
            return Hypergraph.from_sets([*g.member_sets,
                                         *({a + "'" for a in s} for s in h.member_sets)])

        hs = [graph(kind, n) for kind, top in (("path", 12), ("cycle", 12), ("complete", 9),
                                                ("star", 9)) for n in range(1, top + 1)]
        hs += [disjoint(graph("path", 6), graph("star", 5)),
               disjoint(graph("cycle", 5), graph("complete", 4))]
        check("truncation-f-vector", hs)

    def test_associahedron_h_vector_is_narayana(self):
        assert _h_vector(_f_vector(graph("path", 7))) == [1, 21, 105, 175, 105, 21, 1]

    @pytest.mark.parametrize("kind,n", [(kind, n) for kind, (_, ns) in CLOSURE_SIZES.items()
                                        for n in ns])
    def test_closure_size(self, kind, n):
        size, _ = CLOSURE_SIZES[kind]
        assert len(saturated_closure(graph(kind, n)).members) == size(n)


class TestAntichainOracle:
    """The pruned antichain search that ``verify`` holds the peel against
    (row ``antichain-constructions``)."""

    def test_asc_up_to_four_atoms(self):
        check("antichain-constructions", tier("atomic"))

    def test_random_blocks_on_five_and_six_atoms(self):
        check("antichain-constructions", tier("random"))
