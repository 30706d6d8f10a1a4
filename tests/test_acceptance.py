"""End-to-end acceptance suite: one test per criterion, each printing a
pass/fail line.  Expected values are exact; the stated time budgets are
asserted with ``time.perf_counter``."""

import itertools
import math
import time

from nestohedra import (
    abstract_polytope,
    catalog,
    catalog_lookup,
    continuation,
    count_constructions,
    enumerate_constructions,
    f_vector,
    face_lattice_isomorphic,
    finest_partition,
    is_construct,
    is_construction,
    parse_s_construction,
    realize,
    saturated_closure,
    sterm_to_family,
    to_s_construction,
    verify_axioms,
    verify_inductive,
)
from nestohedra.tubings import as_graph, is_loose

from helpers import (
    L,
    M,
    N,
    all_asc_hypergraphs,
    all_atomic_hypergraphs,
    graphs_up_to_iso,
    negative_posets,
)


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {desc}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num}: {desc}{tail}"


def test_01_associahedron_vertex_census():
    t0 = time.perf_counter()
    cons = enumerate_constructions(catalog_lookup("H'_4321").hypergraph)
    elapsed = time.perf_counter() - t0
    a = catalog_lookup("H'_4321").hypergraph
    permutation_words = ["xyzu", "xyuz", "xuyz", "xuzy",
                         "uzyx", "uzxy", "uxzy", "uxyz"]
    named = {L, M, N}
    named |= {sterm_to_family(parse_s_construction(w, a))
              for w in permutation_words}
    ok = len(cons) == 14 and named <= cons and elapsed < 1.0
    _report(1, "3-D associahedron has the 14 expected vertices", ok,
            f"{len(cons)} constructions in {elapsed:.3f}s")


def test_02_associahedron_facet_census():
    h = catalog_lookup("H'_4321").hypergraph
    p = abstract_polytope(h)
    facets = p.faces_of_rank(2)
    top = frozenset("xyzu")
    extras = {next(iter(c - {top})) for c in facets}
    expected = {frozenset(s) for s in
                ("x", "y", "z", "u", "xyz", "yzu", "xy", "yz", "zu")}
    ok = len(facets) == 9 and extras == expected
    _report(2, "facet census of the associahedron poset", ok,
            f"{len(facets)} facets")


def test_03_construction_oracle_equivalence():
    t0 = time.perf_counter()
    mismatches = 0
    hypergraphs = 0
    for k in range(5):
        for h in all_asc_hypergraphs(k):
            hypergraphs += 1
            cons = enumerate_constructions(h)
            members = sorted(h.member_sets,
                             key=lambda s: (len(s), tuple(sorted(s))))
            brute = set()
            for m in itertools.combinations(members, h.n_atoms):
                fam = frozenset(m)
                if is_construction(h, fam):
                    brute.add(fam)
            if brute != cons:
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 60.0
    _report(3, "antichain and inductive routes agree on all small ASC "
               "hypergraphs", ok,
            f"{hypergraphs} hypergraphs, {mismatches} mismatches, {elapsed:.1f}s")


def test_04_construction_union_is_the_closure():
    mismatches = 0
    for k in range(5):
        for h in all_atomic_hypergraphs(k):
            cons = enumerate_constructions(h)
            built = frozenset().union(*cons) if cons else frozenset()
            if built != saturated_closure(h).member_sets:
                mismatches += 1
    _report(4, "union of all constructions equals the saturated closure",
            mismatches == 0, f"{mismatches} mismatches")


def test_05_axiom_checkers():
    false_rejects = 0
    seen = set()
    posets = 0
    for k in range(5):
        for h in all_atomic_hypergraphs(k):
            hbar = saturated_closure(h)
            expected_rank = h.n_atoms - len(finest_partition(h))
            if hbar in seen:
                continue
            seen.add(hbar)
            p = abstract_polytope(h)
            posets += 1
            ra, ri = verify_axioms(p), verify_inductive(p)
            if not (ra.ok and ri.ok and ra.rank == ri.rank == expected_rank):
                false_rejects += 1
    corpus = negative_posets()
    false_accepts = sum(
        1 for _, p in corpus
        if verify_axioms(p).ok or verify_inductive(p).ok)
    ok = false_rejects == 0 and false_accepts == 0 and len(corpus) >= 5
    _report(5, "both axiom checkers accept every small face poset and "
               "reject the mutated corpus", ok,
            f"{posets} posets, {len(corpus)} negatives")


def test_06_realization_isomorphism():
    t0 = time.perf_counter()
    failures = []
    for e in catalog():
        iso = face_lattice_isomorphic(e.hypergraph)
        rp = realize(e.hypergraph)
        coords_ok = all(isinstance(c, int) and c >= 0
                        for _, coords in rp.vertices for c in coords)
        simple_ok = all(sum(row) == rp.dimension for row in rp.incidence)
        if not (iso.ok and coords_ok and simple_ok):
            failures.append(e.name)
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    _report(6, "every catalog entry realizes with an isomorphic face "
               "lattice and d facets per vertex", ok,
            f"{len(list(catalog()))} entries in {elapsed:.2f}s")


def test_07_euler_simplicity_and_frozen_f_vectors():
    golden = {
        "H'_4321": (14, 21, 9),
        "H°_4441": (20, 30, 12),
        "H_4641": (24, 36, 14),
        "H*_4331": (16, 24, 10),
        "H_4431": (18, 27, 11),
        "H_4541": (22, 33, 13),
    }
    bad = []
    for e in catalog():
        p = abstract_polytope(e.hypergraph)
        fvec = f_vector(p)
        if len(enumerate_constructions(e.hypergraph)) != \
                count_constructions(e.hypergraph):
            bad.append((e.name, "count oracle"))
        if p.rank == 3:
            v, ed, f = fvec
            if v - ed + f != 2:
                bad.append((e.name, "euler"))
            facets = p.faces_of_rank(2)
            if any(sum(1 for fc in facets if p.leq(vx, fc)) != 3
                   for vx in p.faces_of_rank(0)):
                bad.append((e.name, "simplicity"))
        if e.name in golden and fvec != golden[e.name]:
            bad.append((e.name, "golden"))
    _report(7, "rank-3 entries satisfy Euler and simplicity; named "
               "f-vectors match the counting oracle", not bad, str(bad))


def test_08_tubing_equivalence():
    from nestohedra import tubings_equal_constructs
    t0 = time.perf_counter()
    graphs = 0
    mismatches = 0
    for n in range(1, 6):
        for verts, edges in graphs_up_to_iso(n, connected_only=True):
            graphs += 1
            if not tubings_equal_constructs(as_graph(edges, verts)).ok:
                mismatches += 1
    for n in range(1, 5):
        for verts, edges in graphs_up_to_iso(n, connected_only=False):
            g = as_graph(edges, verts)
            if not is_loose(g)[0]:
                continue
            graphs += 1
            if not tubings_equal_constructs(g).ok:
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 120.0
    _report(8, "tubings coincide with constructs on all small graphs", ok,
            f"{graphs} graphs, {mismatches} mismatches, {elapsed:.1f}s")


def test_09_notation_round_trips():
    failures = 0
    terms = 0
    for k in range(5):
        for h in all_atomic_hypergraphs(k):
            for cons in enumerate_constructions(h):
                terms += 1
                term = to_s_construction(h, cons)
                if sterm_to_family(term) != cons:
                    failures += 1
                if parse_s_construction(str(term), h) != term:
                    failures += 1
    a = catalog_lookup("H'_4321").hypergraph
    if parse_s_construction("xz(u+y)", a) != parse_s_construction("xz(y+u)", a):
        failures += 1
    _report(9, "word and forest notations round-trip on every small "
               "construction", failures == 0, f"{terms} constructions")


def test_10_continuation_uniqueness():
    failures = 0
    checked = 0
    for k in range(1, 5):
        for h in all_asc_hypergraphs(k):
            carrier = frozenset(h.atoms)
            cons = enumerate_constructions(h)
            by_member: dict[frozenset, dict] = {}
            for ell in cons:
                for y in ell:
                    checked += 1
                    key = frozenset(y)
                    rest = carrier - key
                    k_factor = frozenset(x for x in ell if x <= key)
                    j_factor = frozenset((x & rest) for x in ell if x & rest)
                    if continuation(h, key, k_factor, j_factor) != ell:
                        failures += 1
                        continue
                    # uniqueness: no other factor pair lands on ell
                    cache = by_member.setdefault(key, {})
                    if "pairs" not in cache:
                        from nestohedra import quotient, restriction
                        ks = enumerate_constructions(restriction(h, key))
                        js = (enumerate_constructions(quotient(h, rest))
                              if rest else {frozenset()})
                        cache["pairs"] = [(a, b) for a in ks for b in js]
                    hits = [(a, b) for a, b in cache["pairs"]
                            if continuation(h, key, a, b) == ell]
                    if hits != [(k_factor, j_factor)]:
                        failures += 1
    _report(10, "every construction factors uniquely through each of its "
                "members", failures == 0, f"{checked} factorizations")
