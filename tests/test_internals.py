"""Oracle-vs-oracle checks for the low-level machinery: each fast
implementation is replayed against a naive one on random inputs."""

import ast
import inspect
import itertools
import json
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import nestohedra
from nestohedra import (
    FacePoset,
    Hypergraph,
    abstract_polytope,
    catalog_lookup,
    enumerate_constructions,
    f_vector,
    face_lattice_isomorphic,
    join,
    meet,
    otimes,
    realize,
    section,
    tubings_equal_constructs,
    verify_axioms,
    verify_inductive,
)
from nestohedra.constructions import (
    _antichain_constructions,
    _block_fault,
    _clique_hits,
    _fpoly,
    _incomparable,
    _masks_in,
    _read_forest,
    _word_text,
    antichains_all_miss,
)
from nestohedra.axioms import (_disconnected_sections, _order_fault, _preamble,
                               _proved_by_covers)
from nestohedra.facelattice import _cover_scan, _graded, _mask_poset, _up_rows, to_json_dict
from nestohedra.realization import _coordinates, _sums_fault
from nestohedra.hypergraph import _AtomSets, family_components
from nestohedra.tubings import _is_tubing

from helpers import graph, negative_posets, poset_isomorphic


def _naive_all_miss(members, fam):
    for r in range(2, len(fam) + 1):
        for sub in itertools.combinations(fam, r):
            if any(a & b in (a, b) for a in sub for b in sub if a != b):
                continue  # comparable pair: not an antichain
            union = 0
            for m in sub:
                union |= m
            if union in members:
                return False
    return True


def test_antichain_scan_matches_brute_force():
    rng = random.Random(99)
    for _ in range(400):
        n = rng.randint(1, 6)
        universe = list(range(1, 1 << n))
        members = frozenset(rng.sample(universe, rng.randint(1, min(12, len(universe)))))
        fam = rng.sample(universe, rng.randint(0, min(8, len(universe))))
        assert antichains_all_miss(members, fam) == _naive_all_miss(members, fam)


def _comparable(a, b):
    return a & b in (a, b)


def _naive_clique_hits(members, lst, cand, union):
    """Some pairwise incomparable subset of the indices ``cand``, of two or
    more sets or of one when ``union`` is nonempty, joined with
    ``union`` lands in ``members``."""
    idx = [i for i in range(len(lst)) if cand >> i & 1]
    for r in range(1 if union else 2, len(idx) + 1):
        for sub in itertools.combinations(idx, r):
            if any(_comparable(lst[i], lst[j]) for i, j in itertools.combinations(sub, 2)):
                continue
            u = union
            for i in sub:
                u |= lst[i]
            if u in members:
                return True
    return False


def test_incomparable_rows_match_the_pairwise_test():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 6)
        lst = [rng.randrange(1, 1 << n) for _ in range(rng.randint(0, 9))]
        rows = _incomparable(lst)
        assert len(rows) == len(lst)
        for i, a in enumerate(lst):
            assert not rows[i] >> i & 1
            for j, b in enumerate(lst):
                assert (rows[i] >> j & 1) == (rows[j] >> i & 1)
                assert bool(rows[i] >> j & 1) == (not _comparable(a, b))


def test_clique_hits_matches_brute_force():
    rng = random.Random(41)
    starts = 0
    for _ in range(600):
        n = rng.randint(1, 6)
        universe = list(range(1, 1 << n))
        # random member sets, not closed under anything
        members = frozenset(rng.sample(universe, rng.randint(1, min(12, len(universe)))))
        lst = rng.sample(universe, rng.randint(0, min(9, len(universe))))
        rows = _incomparable(lst)
        full = (1 << len(lst)) - 1
        for cand in (full, rng.randint(0, full), 0):
            for union in (0, rng.choice(universe)):
                got = _clique_hits(members, lst, rows, cand, union)
                assert got == _naive_clique_hits(members, lst, cand, union)
                starts += bool(union and got)
        assert (not _clique_hits(members, lst, rows, full, 0)) == antichains_all_miss(members, lst)
    assert starts > 100  # the nonzero start does find unions


def _naive_components(masks):
    masks = list(masks)
    comps = []
    left = set(masks)
    while left:
        seed = left.pop()
        grow = {seed}
        changed = True
        while changed:
            changed = False
            for m in list(left):
                if any(m & g for g in grow):
                    grow.add(m)
                    left.discard(m)
                    changed = True
        comps.append(frozenset(grow))
    return sorted(comps, key=lambda c: sorted(c))


def test_components_match_brute_force():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(1, 7)
        universe = list(range(1, 1 << n))
        masks = rng.sample(universe, rng.randint(0, min(10, len(universe))))
        fast = sorted(family_components(masks), key=lambda c: sorted(c))
        assert fast == _naive_components(masks)


def test_covers_are_the_transitive_reduction():
    for name in ("H_321", "H'_4321", "H_4200"):
        p = abstract_polytope(catalog_lookup(name).hypergraph)
        strict = {(i, j) for i, j in p.iter_pairs()}
        reduction = set()
        for i, j in strict:
            if not any((i, k) in strict and (k, j) in strict
                       for k in range(len(p.faces))):
                reduction.add((i, j))
        assert set(p.covers()) == reduction


class TestPosetIsomorphism:
    def test_two_triangular_prisms(self):
        a = abstract_polytope(catalog_lookup("H_4011").hypergraph)
        b = abstract_polytope(catalog_lookup("H_4101").hypergraph)
        assert poset_isomorphic(a, b)

    def test_two_cubes(self):
        a = abstract_polytope(catalog_lookup("H_4201").hypergraph)
        b = abstract_polytope(catalog_lookup("H_4111").hypergraph)
        assert poset_isomorphic(a, b)

    def test_three_pentagonal_prisms(self):
        names = ("H_4121", "H_4211", "H'_4211")
        posets = [abstract_polytope(catalog_lookup(n).hypergraph) for n in names]
        assert poset_isomorphic(posets[0], posets[1])
        assert poset_isomorphic(posets[1], posets[2])

    def test_cube_vs_prism(self):
        cube = abstract_polytope(catalog_lookup("H_4201").hypergraph)
        prism = abstract_polytope(catalog_lookup("H_4011").hypergraph)
        assert not poset_isomorphic(cube, prism)

    def test_same_f_vector_different_shape(self):
        # the 2-simplex against the disjoint-pair poset of equal size
        tri = abstract_polytope(catalog_lookup("H_301").hypergraph)
        seg = abstract_polytope(catalog_lookup("H_21").hypergraph)
        assert not poset_isomorphic(tri, seg)


class TestCarrierFive:
    def test_four_dimensional_simplex(self):
        atoms = "abcde"
        h = Hypergraph.from_sets([{a} for a in atoms] + [set(atoms)])
        p = abstract_polytope(h)
        assert p.rank == 4
        assert f_vector(p) == (5, 10, 10, 5)
        assert verify_axioms(p).ok and verify_inductive(p).ok
        assert face_lattice_isomorphic(h).ok

    def test_four_dimensional_associahedron(self):
        from nestohedra import as_graph
        g = as_graph([("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")], "abcde")
        h = g.underlying
        # Catalan number C5 = 42 vertices
        assert len(enumerate_constructions(h)) == 42
        p = abstract_polytope(h)
        assert f_vector(p) == (42, 84, 56, 14)
        assert verify_axioms(p).ok and verify_inductive(p).ok
        assert face_lattice_isomorphic(h).ok

    def test_four_dimensional_permutohedron(self):
        atoms = "abcde"
        h = Hypergraph.from_sets(
            [set(c) for r in range(1, 6)
             for c in itertools.combinations(atoms, r)])
        p = abstract_polytope(h)
        assert f_vector(p) == (120, 240, 150, 30)
        assert verify_axioms(p).ok and verify_inductive(p).ok
        assert face_lattice_isomorphic(h).ok


class TestInvariantsUnderOptimize:
    """Internal invariants raise ``NestohedraError``; an ``assert`` would
    vanish under ``python -O``."""

    @pytest.mark.parametrize("fn", [_read_forest, _word_text, _block_fault, _masks_in, _fpoly,
                                    _antichain_constructions, _coordinates, realize,
                                    _sums_fault,
                                    face_lattice_isomorphic,
                                    otimes, meet, join, section, abstract_polytope, _mask_poset,
                                    _graded, _up_rows, _cover_scan, to_json_dict,
                                    _disconnected_sections,
                                    _order_fault, _proved_by_covers, _preamble,
                                    verify_axioms, verify_inductive, tubings_equal_constructs,
                                    Hypergraph.family, _AtomSets.__missing__,
                                    _clique_hits, _incomparable, _is_tubing])
    def test_no_assert_statements(self, fn):
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree))

    def test_realize_under_optimize(self):
        # H'_4321, path 6, whose 132 vertices read mostly memo hits, and
        # an input whose facet abc has no member one atom smaller
        code = textwrap.dedent("""
            import json
            from nestohedra import Hypergraph, catalog_lookup, realize
            path6 = Hypergraph.from_sets([*"abcdef", "ab", "bc", "cd", "de", "ef"])
            orphan = Hypergraph.from_sets([*"abcd", "abc", "cd"])
            out = []
            for h in (catalog_lookup("H'_4321").hypergraph, path6, orphan):
                rp = realize(h)
                out.append([[list(c) for _, c in rp.vertices], [list(r) for r in rp.incidence]])
            print(json.dumps([__debug__, out]))
            """)
        env = dict(os.environ, PYTHONPATH=str(Path(nestohedra.__file__).parents[1]))
        runs = [json.loads(subprocess.run([sys.executable, *flags, "-c", code], env=env,
                                          capture_output=True, text=True, timeout=120,
                                          check=True).stdout)
                for flags in ([], ["-O"])]
        assert [r[0] for r in runs] == [True, False]
        assert runs[1][1] == runs[0][1]
        (vertices, incidence), (path_vertices, _), (orphan_vertices, _) = runs[0][1]
        rp = realize(catalog_lookup("H'_4321").hypergraph)
        assert vertices == [list(c) for _, c in rp.vertices]
        assert incidence == [list(r) for r in rp.incidence]
        assert len(path_vertices) == 132
        assert len(orphan_vertices) == 8

    def test_checkers_under_optimize(self):
        # both checkers' reports, whole, on the negative corpus and path 5
        code = textwrap.dedent("""
            import json
            from helpers import graph, negative_posets
            from nestohedra import abstract_polytope, verify_axioms, verify_inductive
            posets = [*negative_posets(), ("path 5", abstract_polytope(graph("path", 5)))]
            print(json.dumps([__debug__, [[name, verify_axioms(p).to_dict(),
                                           verify_inductive(p).to_dict()]
                                          for name, p in posets]]))
            """)
        path = os.pathsep.join([str(Path(nestohedra.__file__).parents[1]),
                                str(Path(__file__).parent)])
        env = dict(os.environ, PYTHONPATH=path)
        runs = [json.loads(subprocess.run([sys.executable, *flags, "-c", code], env=env,
                                          capture_output=True, text=True, timeout=120,
                                          check=True).stdout)
                for flags in ([], ["-O"])]
        assert [r[0] for r in runs] == [True, False]
        assert runs[1][1] == runs[0][1]
        posets = [*negative_posets(), ("path 5", abstract_polytope(graph("path", 5)))]
        assert runs[0][1] == [[name, verify_axioms(p).to_dict(), verify_inductive(p).to_dict()]
                              for name, p in posets]
        verdicts = [[a["ok"], b["ok"]] for _, a, b in runs[0][1]]
        assert verdicts == [[False, False]] * 7 + [[True, True]]

    def test_tubing_check_under_optimize(self):
        # the report on complete 5, then the internal-error path, reached by
        # declaring every pair a clash (a comparable pair fails the pair pass)
        code = textwrap.dedent("""
            import json
            import nestohedra.tubings as t
            g = t.as_graph([(x, y) for x in "abcde" for y in "abcde" if x < y], "abcde")
            r = t.tubings_equal_constructs(g)
            t._clash = lambda a, b, members: True
            try:
                t.tubings_equal_constructs(g)
                err = None
            except t.NestohedraError as exc:
                err = [type(exc).__name__, str(exc)]
            print(json.dumps([__debug__, r.ok, r.counterexample, r.pairs_checked,
                              r.families_checked, err]))
            """)
        env = dict(os.environ, PYTHONPATH=str(Path(nestohedra.__file__).parents[1]))
        runs = [json.loads(subprocess.run([sys.executable, *flags, "-c", code], env=env,
                                          capture_output=True, text=True, timeout=120,
                                          check=True).stdout)
                for flags in ([], ["-O"])]
        assert [r[0] for r in runs] == [True, False]
        assert runs[1][1:] == runs[0][1:] == [
            True, None, 285, 541,
            ["NestohedraError", "internal error: bad pair is not a failing antichain"]]

    @pytest.mark.parametrize("argv", [["lattice", "H'_4321", "--format", "json"],
                                      ["verify", "H'_4321"], ["info", "H'_4321"],
                                      ["atlas"],
                                      ["realize", "H'_4321", "--format", "off"]])
    def test_cli_under_optimize(self, argv):
        env = dict(os.environ, PYTHONPATH=str(Path(nestohedra.__file__).parents[1]))
        runs = [subprocess.run([sys.executable, *flags, "-m", "nestohedra.cli", *argv],
                               env=env, capture_output=True, text=True, timeout=120)
                for flags in ([], ["-O"])]
        assert [r.returncode for r in runs] == [0, 0]
        assert runs[1].stdout == runs[0].stdout
        assert runs[0].stdout


_MODULES = sorted(p for p in Path(nestohedra.__file__).parent.glob("*.py")
                  if p.name != "__init__.py")


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    """Every name a library module imports is read somewhere in it
    (``__init__`` re-exports, so it is left out)."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def _read_names(path):
    """The names a module reads, as a bare name or after a dot."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


_PACKAGE = sorted(Path(nestohedra.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", _PACKAGE, ids=lambda p: p.name)
def test_no_unused_private_helpers(path):
    """Every private function, method and class a library module defines
    is read somewhere in the package; a docstring mention does not count."""
    private = {node.name for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.endswith("__")}
    used = set().union(*map(_read_names, _PACKAGE))
    assert sorted(private - used) == []
