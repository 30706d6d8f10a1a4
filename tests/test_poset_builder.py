"""The sparse face-poset builder and the axiom checkers against the
pairwise definitions they replace.

``helpers.pairwise_order`` is the O(F²) reference: one order test per
ordered pair of faces, exactly as the order is defined, except that
under the default reverse inclusion a face is tested only against faces
of a higher rank.  That pruning assumes what ``construct_faces`` states
and the library's builder also relies on: a construct c has rank
n - |c|, so the constructs strictly inside c, the ones above it, all
have a higher rank.  It is a test oracle only; the library builds the
order as submasks over a numbering of the members.
"""

import collections
import random
import string

import pytest

from nestohedra import (
    BOTTOM,
    FacePoset,
    Hypergraph,
    abstract_polytope,
    catalog,
    face_label,
    facet_section,
    is_atomic,
    otimes,
    section,
    verify_axioms,
    verify_inductive,
)
from nestohedra import axioms, facelattice
from nestohedra.facelattice import _induced, _labelled, _transpose, to_dot, to_json_dict
from nestohedra.constructions import _fpoly
from nestohedra.hypergraph import family_components, set_sort_key

from helpers import (KINDS, _reports, _reverse_inclusion, all_asc_hypergraphs,
                     all_atomic_hypergraphs, check, construct_faces, diamond_poset, graph,
                     negative_posets, kept_ids, paper_a, pairwise_order, reference_order_fault,
                     reference_verify_axioms, reference_verify_inductive)


def assert_matches(p, faces_ranks, leq=_reverse_inclusion):
    faces, ranks, above = pairwise_order(faces_ranks, leq)
    assert list(p.faces) == faces
    assert list(p.ranks) == ranks
    assert list(p._above) == above


class TestAbstractPolytope(kept_ids("pairwise-order")):
    def test_empty_hypergraph(self):
        check("pairwise-order", [Hypergraph.from_sets([])])


class TestDerivedPosets:
    def test_facet_sections(self):
        for h in list(all_asc_hypergraphs(4))[::7]:
            carrier = frozenset(h.atoms)
            for y in h.member_sets - {carrier}:
                faces = [(f, r) for f, r in construct_faces(h)
                         if f is BOTTOM or y in f]
                assert_matches(facet_section(h, y), faces)

    def test_otimes(self):
        left = [abstract_polytope(graph(kind, 3)) for kind in ("path", "complete")]
        right = Hypergraph.from_sets([{"x"}, {"y"}, {"z"}, {"x", "y"}, {"y", "z"}])
        posets = [abstract_polytope(right),
                  abstract_polytope(Hypergraph.from_sets([{"u"}]))]
        for a in left:
            for b in posets:
                parts = [[(f, r) for f, r in zip(p.faces, p.ranks) if f is not BOTTOM]
                         for p in (a, b)]
                faces = [(BOTTOM, -1)] + [(fa | fb, ra + rb)
                                          for fa, ra in parts[0] for fb, rb in parts[1]]
                assert_matches(otimes(a, b), faces)

    def test_sections(self):
        for p in (abstract_polytope(paper_a()), abstract_polytope(graph("cycle", 4))):
            for fi in range(len(p.faces)):
                for gi in range(len(p.faces)):
                    if gi not in p._above[fi]:
                        continue
                    shift = p.ranks[fi] + 1
                    keep = [i for i in range(len(p.faces))
                            if i in p._above[fi] and gi in p._above[i]]
                    faces = [(p.faces[i], p.ranks[i] - shift) for i in keep]
                    got = section(p, p.faces[gi], p.faces[fi])
                    assert_matches(got, faces, p.leq)

    def test_induced_sub_order_of_hand_built_posets(self):
        for _, p in negative_posets():
            for drop in range(len(p.faces)):
                keep = [i for i in range(len(p.faces)) if i != drop]
                faces = [(p.faces[i], p.ranks[i]) for i in keep]
                got = _induced(p, keep)
                assert_matches(got, faces, p.leq)


def test_order_pairs_follow_the_construct_counts():
    # the faces above a construct with c members are its 2^(c - b)
    # subfamilies that keep the b block carriers, so the rows hold the
    # construct-count polynomial at q = 2 plus the bottom's F entries;
    # the counts come from the peeling recursion, not from the builder
    inputs = [e.hypergraph for e in catalog() if is_atomic(e.hypergraph)]
    inputs += [graph(kind, n) for kind in KINDS for n in range(1, 7)] + [graph("path", 7)]
    for h in dict.fromkeys(inputs):
        p = abstract_polytope(h)
        counts = _fpoly(h.members)
        b = len(family_components(h.members))
        assert sum(map(len, p._above)) == len(p) + sum(
            k << (c - b) for c, k in enumerate(counts) if k), h


# ---------------------------------------------------------------------------
# what the builders know: down-sets, covers and labels
# ---------------------------------------------------------------------------

def assert_down_sets(p):
    """The down-sets and labels a builder wrote down equal the generic
    transpose of its order and a fresh labelling of its faces."""
    assert p._below == FacePoset(p.faces, p.ranks, p._above)._below
    assert p._labels == tuple(_labelled(p.faces))


class TestBuildTimeShortcuts(kept_ids("build-time-shortcuts")):
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_every_atomic_hypergraph(self, k):
        check("build-time-shortcuts", all_atomic_hypergraphs(k))

    def test_empty_hypergraph(self):
        check("build-time-shortcuts", [Hypergraph.from_sets([])])

    def test_facet_sections_and_products(self):
        for h in list(all_asc_hypergraphs(4))[::7]:
            for y in h.member_sets - {frozenset(h.atoms)}:
                assert_down_sets(facet_section(h, y))
        a, b = abstract_polytope(graph("path", 3)), abstract_polytope(
            Hypergraph.from_sets([{"x"}, {"y"}, {"z"}, {"x", "y"}]))
        assert_down_sets(otimes(a, b))


class TestLabelledOnce:
    """Each poset labels its faces once, where its builder sorts them;
    sections and exports read the kept table.  ``abstract_polytope``
    joins its labels from per-member texts and never calls
    ``_labelled``."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        labelled = facelattice._labelled
        monkeypatch.setattr(facelattice, "_labelled",
                            lambda faces: seen.append(1) or labelled(faces))
        return seen

    def test_build_exports_and_sections(self, calls):
        for h in (paper_a(), graph("cycle", 4), Hypergraph.from_sets([])):
            p = abstract_polytope(h)
            to_dot(p)
            to_json_dict(p)
            top = p.top()
            for f in p.faces:
                s = section(p, top, f)
                to_dot(s)
                to_json_dict(s)
            assert calls == []

    def test_from_covers(self, calls):
        for build in (diamond_poset, lambda: FacePoset.from_covers([("bot", -1)], [])):
            p = build()
            to_dot(p)
            to_json_dict(p)
            assert len(calls) == 1
            calls.clear()

    def test_section_of_an_unsorted_hand_built_poset(self):
        # the public constructor keeps its faces' order; a section sorts
        # the faces it keeps by (rank, label) and keeps their labels
        p = FacePoset(["top", "b", "a", "bot"], [1, 0, 0, -1], [(0,), (0, 1), (0, 2), (0, 1, 2, 3)])
        s = section(p, "top", "bot")
        assert list(s.faces) == ["bot", "a", "b", "top"]
        assert s._labels == tuple(_labelled(s.faces))

    def test_from_covers_keeps_input_order_on_tied_labels(self):
        for payloads in ([1, "1"], ["1", 1]):
            p = FacePoset.from_covers([(x, 0) for x in payloads] + [("bot", -1)],
                                      [("bot", x) for x in payloads])
            assert list(p.faces) == ["bot", *payloads]
            assert [label for label, _ in p._labels] == ["bot", "1", "1"]


def _reference_label(face):
    """``face_label`` written out directly, one face at a time."""
    if face is BOTTOM:
        return "F-1"
    if isinstance(face, frozenset) and all(isinstance(m, frozenset) for m in face):
        members = sorted(face, key=set_sort_key)
        return "{" + ",".join("{%s}" % ",".join(sorted(m)) for m in members) + "}"
    return str(face)


class TestLabels:
    def test_batch_labels_agree_with_face_label(self):
        ten, two = frozenset({"10"}), frozenset({"2"})
        faces = [BOTTOM, frozenset(), "top", "v", ("a", 1), frozenset({"a", "b"}),
                 frozenset({ten, two, ten | two}), frozenset({two, ten | two}),
                 frozenset({frozenset({"a"}), frozenset({"a", "b"})})]
        for h in (paper_a(), graph("cycle", 4)):
            faces += abstract_polytope(h).faces
        labelled = _labelled(faces)
        assert [label for label, _ in labelled] == [face_label(f) for f in faces]
        assert [face_label(f) for f in faces] == [_reference_label(f) for f in faces]
        for f, (_, members) in zip(faces, labelled):
            if isinstance(f, frozenset) and all(isinstance(m, frozenset) for m in f):
                assert members == [tuple(sorted(m)) for m in sorted(f, key=set_sort_key)]
            else:
                assert members is None
        assert face_label(frozenset({ten, two, ten | two})) == "{{10},{2},{10,2}}"

    def test_json_members_of_hand_built_payloads(self):
        # members are what the labels report: null for payloads that are
        # not families, so "bot" is not read as a family of letters and a
        # tuple exports as it does to DOT
        tupled = FacePoset.from_covers(
            [("bot", -1), (("a", 1), 0), ("b", 0), ("top", 1)],
            [("bot", ("a", 1)), ("bot", "b"), (("a", 1), "top"), ("b", "top")])
        for p, labels in ((diamond_poset(), ["bot", "a", "b", "top"]),
                          (tupled, ["bot", "('a', 1)", "b", "top"])):
            faces = to_json_dict(p)["faces"]
            assert [face["label"] for face in faces] == labels
            assert [face["members"] for face in faces] == [None] * 4
            assert all(f'label="{label}"' in to_dot(p) for label in labels)


# ---------------------------------------------------------------------------
# checker reports
# ---------------------------------------------------------------------------

# Reports of the pairwise-built negative corpus under the all-pairs flag walk
# and the whole-set connectivity walk: p1..p4, rank, flags_checked,
# sections_checked, counterexamples.
REFERENCE_REPORTS = {
    'associahedron minus an edge face': (
        (True, True, True, False, 3, 80, 24, (
            ('P4', ('{{u},{u,z},{u,y,z},{u,x,y,z}}',
                    '{{u,y,z},{u,x,y,z}}',
                    '1 between')),
            ('P4', ('{{u},{u,z},{u,y,z},{u,x,y,z}}', '{{u,z},{u,x,y,z}}', '1 between')),
            ('P4', ('{{z},{u,z},{u,y,z},{u,x,y,z}}',
                    '{{u,y,z},{u,x,y,z}}',
                    '1 between')),
            ('P4', ('{{z},{u,z},{u,y,z},{u,x,y,z}}', '{{u,z},{u,x,y,z}}', '1 between')),
        )),
        (True, True, True, False, 3, 0, 30, (
            ('bivalence', ('{{u,y,z},{u,x,y,z}}',
                           '{{u},{u,z},{u,y,z},{u,x,y,z}}',
                           'in 1 facets')),
            ('bivalence', ('{{u,y,z},{u,x,y,z}}',
                           '{{z},{u,z},{u,y,z},{u,x,y,z}}',
                           'in 1 facets')),
            ('bivalence', ('{{u,z},{u,x,y,z}}',
                           '{{u},{u,z},{u,y,z},{u,x,y,z}}',
                           'in 1 facets')),
            ('bivalence', ('{{u,z},{u,x,y,z}}',
                           '{{z},{u,z},{u,y,z},{u,x,y,z}}',
                           'in 1 facets')),
        )),
    ),
    'associahedron minus a vertex face': (
        (True, True, True, False, 3, 78, 23, (
            ('P4', ('F-1', '{{u,z},{u,y,z},{u,x,y,z}}', '1 between')),
            ('P4', ('F-1', '{{u},{u,y,z},{u,x,y,z}}', '1 between')),
            ('P4', ('F-1', '{{u},{u,z},{u,x,y,z}}', '1 between')),
        )),
        (True, True, True, False, 3, 0, 31, (
            ('bivalence', ('{{u,z},{u,y,z},{u,x,y,z}}', 'F-1', 'in 1 facets')),
            ('bivalence', ('{{u},{u,y,z},{u,x,y,z}}', 'F-1', 'in 1 facets')),
            ('bivalence', ('{{u},{u,z},{u,x,y,z}}', 'F-1', 'in 1 facets')),
        )),
    ),
    'two triangles sharing a vertex': (
        (True, True, True, False, 2, 12, 1, (
            ('P4', ('a', 'top', '4 between')),
        )),
        (True, True, True, False, 2, 0, 7, (
            ('bivalence', ('top', 'a', 'in 4 facets')),
        )),
    ),
    'vertex directly under the top': (
        (True, False, False, False, 2, 2, 1, (
            ('P2', ('top', 'length 3')),
            ('P3', ('bot', 'top')),
            ('P4', ('bot', 'e', '1 between')),
            ('P4', ('v', 'top', '1 between')),
            ('P4', ('w', 'top', '0 between')),
        )),
        (True, False, True, False, 2, 0, 2, (
            ('bivalence', ('e', 'bot', 'in 1 facets')),
            ('facet-coverage', ('top', 'w')),
            ('bivalence', ('top', 'v', 'in 1 facets')),
            ('bivalence', ('top', 'w', 'in 0 facets')),
        )),
    ),
    'two maximal faces': (
        (False, True, True, True, 0, 2, 0, (
            ('P1', ('bot',)),
        )),
        (False, True, True, True, 0, 0, 0, (
            ('bounds', ('bot',)),
        )),
    ),
    'no least face': (
        (False, True, True, False, 1, 2, 0, (
            ('P1', ('top',)),
            ('P4', ('a', 'top', '1 between')),
            ('P4', ('b', 'top', '1 between')),
        )),
        (False, False, True, False, 1, 0, 1, (
            ('bounds', ('top',)),
            ('base-rank-0', ('v',)),
            ('bivalence', ('top', 'a', 'in 1 facets')),
            ('bivalence', ('top', 'b', 'in 1 facets')),
        )),
    ),
    'one-vertex segment': (
        (True, True, True, False, 1, 1, 0, (
            ('P4', ('bot', 'top', '1 between')),
        )),
        (True, True, True, False, 1, 0, 1, (
            ('bivalence', ('top', 'bot', 'in 1 facets')),
        )),
    ),
}


def _summary(r):
    return (r.p1_ok, r.p2_ok, r.p3_ok, r.p4_ok, r.rank, r.flags_checked,
            r.sections_checked, r.counterexamples)


def test_negative_corpus_reports_unchanged():
    corpus = dict(negative_posets())
    assert corpus.keys() == REFERENCE_REPORTS.keys()
    for name, (axioms, inductive) in REFERENCE_REPORTS.items():
        p = corpus[name]
        assert _summary(verify_axioms(p)) == axioms, name
        assert _summary(verify_inductive(p)) == inductive, name


def test_report_of_a_poset_failing_only_p3():
    # two disjoint triangles under one top: bounded, every flag has length
    # 4 and every diamond holds, but the section between the bottom and
    # the top falls apart
    vs = ["a", "b", "c", "x", "y", "z"]
    es = ["ab", "bc", "ac", "xy", "yz", "xz"]
    faces = [("bot", -1)] + [(v, 0) for v in vs] + [(e, 1) for e in es] + [("top", 2)]
    covers = [("bot", v) for v in vs] + [(e[0], e) for e in es]
    covers += [(e[1], e) for e in es] + [(e, "top") for e in es]
    report = verify_axioms(FacePoset.from_covers(faces, covers))
    assert report.to_dict() == {
        "ok": False, "p1_ok": True, "p2_ok": True, "p3_ok": False, "p4_ok": True,
        "rank": 2, "flags_checked": 12, "sections_checked": 1,
        "counterexamples": [{"property": "P3", "witnesses": ["bot", "top"]}],
    }


def _walked_flags(p):
    """Every maximal chain along covers, walked one by one: the number
    of chains and the first one, depth first, of the wrong length."""
    ups = [[] for _ in p.faces]
    for a, b in p.covers():
        ups[a].append(b)
    minimals = [i for i in range(len(p.faces)) if p._below[i] == (i,)]
    count, first_bad = 0, None
    stack = [(i, 1) for i in minimals]
    while stack:
        i, length = stack.pop()
        if ups[i]:
            stack += [(j, length + 1) for j in ups[i]]
            continue
        count += 1
        if length != p.rank + 2 and first_bad is None:
            first_bad = ("P2", (face_label(p.faces[i]), f"length {length}"))
    return count, first_bad


def _disconnected_sections(p):
    """Sections of rank >= 2 whose inner faces are not connected, by a
    walk over every inner face."""
    out = []
    for f in range(len(p.faces)):
        for g in range(len(p.faces)):
            if g not in p._above[f] or p.ranks[g] - p.ranks[f] < 3:
                continue
            nodes = set(p._above[f]) & set(p._below[g]) - {f, g}
            if len(nodes) <= 1:
                continue
            reached = {min(nodes)}
            while True:
                grow = set(reached)
                for u in range(len(p.faces)):
                    if u in reached:
                        grow |= (set(p._above[u]) | set(p._below[u])) & nodes
                if grow == reached:
                    break
                reached = grow
            if reached != nodes:
                out.append(("P3", (face_label(p.faces[f]), face_label(p.faces[g]))))
    return out


def random_ranked_poset(rng):
    """Faces on ranks -1 .. top, each covering a random nonempty set of
    faces one rank down, sometimes also one face two ranks down."""
    top = rng.randint(2, 4)
    layers = [["r-1_0"]]
    covers = []
    for rk in range(top + 1):
        width = 1 if rk == top else rng.randint(1, 4)
        layer = [f"r{rk}_{i}" for i in range(width)]
        for face in layer:
            below = layers[-1]
            for low in rng.sample(below, rng.randint(1, len(below))):
                covers.append((low, face))
            if len(layers) > 1 and rng.random() < 0.2:
                covers.append((rng.choice(layers[-2]), face))
        layers.append(layer)
    faces = [(face, int(face[1:].split("_")[0])) for layer in layers for face in layer]
    return FacePoset.from_covers(faces, covers)


def test_flag_counts_of_polytopes_match_walk():
    posets = [abstract_polytope(e.hypergraph) for e in catalog()
              if is_atomic(e.hypergraph)]
    posets += [abstract_polytope(graph(kind, 5))
               for kind in ("path", "cycle", "star", "complete")]
    for p in posets:
        r = verify_axioms(p)
        assert r.ok
        assert r.flags_checked == _walked_flags(p)[0]


@pytest.mark.parametrize("seed", range(200))
def test_flag_counts_and_connectivity_match_walks(seed):
    p = random_ranked_poset(random.Random(seed))
    r = verify_axioms(p)
    count, first_bad = _walked_flags(p)
    assert r.flags_checked == count
    assert [c for c in r.counterexamples if c[0] == "P2"] == \
        ([first_bad] if first_bad else [])
    assert r.p2_ok == (first_bad is None)
    p3 = _disconnected_sections(p)
    assert [c for c in r.counterexamples if c[0] == "P3"] == p3
    assert r.p3_ok == (not p3)


def test_checker_reports_match_references_on_hand_built_posets():
    # the references read the transposed rows and scan the order pairwise;
    # each side gets its own copy, so neither reads what the other cached
    def corpus():
        yield from (p for _, p in negative_posets())
        yield diamond_poset()
        yield from (random_ranked_poset(random.Random(seed)) for seed in range(250))

    for p, q in zip(corpus(), corpus()):
        assert _reports(p, verify_axioms, verify_inductive) == \
            _reports(q, reference_verify_axioms, reference_verify_inductive)


def _random_relation(rng):
    """Faces, ranks and rows of up to six faces: the reflexive closure
    of random edges (half the time only edges up the ranks), now and
    then with one entry dropped or added, so that every verdict of the
    order check occurs."""
    n = rng.randint(1, 6)
    ranks = [rng.randint(-2, 2) for _ in range(n)]
    rising = rng.random() < 0.5
    succ = [[j for j in range(n) if j != i and rng.random() < 0.3
             and (ranks[j] > ranks[i] or not rising)] for i in range(n)]
    rows = []
    for i in range(n):
        seen, todo = {i}, [i]
        while todo:
            for j in succ[todo.pop()]:
                if j not in seen:
                    seen.add(j)
                    todo.append(j)
        rows.append(seen)
    roll = rng.random()
    if roll < 0.15:
        rows[rng.randrange(n)].discard(rng.randrange(n))
    elif roll < 0.3:
        rows[rng.randrange(n)].add(rng.randrange(n))
    return string.ascii_lowercase[:n], ranks, rows


def test_order_fault_matches_pairwise_scan():
    rng = random.Random(26)
    verdicts = collections.Counter()
    for _ in range(6000):
        faces, ranks, rows = _random_relation(rng)
        p, q = FacePoset(faces, ranks, rows), FacePoset(faces, ranks, rows)
        fault = reference_order_fault(q)
        verdicts[fault.split(" from")[0]] += 1
        if rng.random() < 0.2:
            # cover rows made up at random: the proof over them may pass
            # only on a well-formed order
            up = tuple(tuple(j for j in range(len(faces)) if rng.random() < 0.3)
                       for _ in faces)
            p._covers = (up, _transpose(up))
            assert axioms._order_fault(p) == fault
        else:
            assert _reports(p, verify_axioms, verify_inductive) == \
                _reports(q, reference_verify_axioms, reference_verify_inductive)
            assert p._fault == fault
    assert verdicts.keys() == {"", "order is not reflexive", "order is not antisymmetric",
                               "order is not transitive", "rank does not increase"}
