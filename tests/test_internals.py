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
    poset_isomorphic,
    realize,
    tubings_equal_constructs,
    verify_axioms,
    verify_inductive,
)
from nestohedra.constructions import (
    _antichain_constructions,
    _block_fault,
    _fpoly,
    _masks_in,
    _read_forest,
    antichains_all_miss,
)
from nestohedra.realization import _coordinates
from nestohedra.hypergraph import family_components


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

    @pytest.mark.parametrize("fn", [_read_forest, _block_fault, _masks_in, _fpoly,
                                    _antichain_constructions, _coordinates, realize,
                                    face_lattice_isomorphic,
                                    FacePoset._from_families, abstract_polytope,
                                    verify_axioms, tubings_equal_constructs])
    def test_no_assert_statements(self, fn):
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree))

    def test_realize_under_optimize(self):
        name = "H'_4321"
        code = ("import json; from nestohedra import catalog_lookup, realize; "
                f"rp = realize(catalog_lookup({name!r}).hypergraph); "
                "print(json.dumps([__debug__, [list(c) for _, c in rp.vertices]]))")
        env = dict(os.environ, PYTHONPATH=str(Path(nestohedra.__file__).parents[1]))
        run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        debug, vertices = json.loads(run.stdout)
        assert debug is False
        assert vertices == [list(c) for _, c in
                            realize(catalog_lookup(name).hypergraph).vertices]

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
