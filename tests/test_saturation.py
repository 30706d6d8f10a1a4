import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from nestohedra import (
    Hypergraph,
    are_cognate,
    bare_kernel,
    cognate_class,
    dispensable_subsets,
    enumerate_constructions,
    is_connected,
    is_dispensable,
    is_saturated,
    saturated_closure,
)
from nestohedra.errors import CarrierMismatchError, NotSubsetError

from helpers import (
    all_atomic_hypergraphs,
    all_hypergraphs,
    check,
    frozen,
    oracle_saturated_closure,
    paper_a,
    paper_e,
)


class TestIsSaturated:
    def test_e_saturated(self):
        assert is_saturated(paper_e())

    def test_a_not_saturated(self):
        assert not is_saturated(paper_a())

    def test_empty_saturated(self):
        assert is_saturated(Hypergraph.from_sets([]))

    def test_matches_connected_subset_reading(self):
        # saturated iff every subset carrying a connected restriction is a member
        for h in all_hypergraphs(3):
            by_subsets = True
            for r in range(1, 4):
                for y in itertools.combinations(h.atoms, r):
                    ys = frozenset(y)
                    inner = [m for m in h.member_sets if m <= ys]
                    if _family_connected_on(inner, ys) and ys not in h.member_sets:
                        by_subsets = False
            assert is_saturated(h) == by_subsets


class TestDispensable:
    def test_paper_example(self):
        assert is_dispensable(paper_e(), {"x", "y", "z"})

    def test_singletons_never(self):
        for h in (paper_a(), paper_e()):
            for a in h.atoms:
                assert not is_dispensable(h, {a})

    def test_empty_set_never(self):
        assert is_dispensable(paper_a(), []) is False

    def test_dispensable_without_membership(self):
        e_minus = Hypergraph.from_sets(
            [{"x", "y"}, {"y", "z"}, {"u"}, {"v"}])
        assert is_dispensable(e_minus, {"x", "y", "z"})

    def test_requires_subset(self):
        with pytest.raises(NotSubsetError):
            is_dispensable(paper_a(), {"q"})

    def test_adding_one_dispensable_preserves_the_rest(self):
        # exhaustive on carrier 3; atomic plus a sample on carrier 4
        def agree(h):
            subsets = [frozenset(c) for r in range(2, len(h.atoms) + 1)
                       for c in itertools.combinations(h.atoms, r)]
            for y in subsets:
                if not is_dispensable(h, y):
                    continue
                grown = Hypergraph.from_sets(h.member_sets | {y})
                for z in subsets:
                    assert is_dispensable(h, z) == is_dispensable(grown, z)

        for h in all_hypergraphs(3):
            agree(h)
        rng = random.Random(7)
        pool = list(all_atomic_hypergraphs(4))
        for h in rng.sample(pool, 120):
            agree(h)

    def test_dispensable_preserves_connectivity(self):
        for h in all_hypergraphs(3):
            for r in range(2, 4):
                for y in itertools.combinations(h.atoms, r):
                    if is_dispensable(h, y):
                        grown = Hypergraph.from_sets(h.member_sets | {frozenset(y)})
                        assert is_connected(h) == is_connected(grown)


class TestClosure:
    def test_closure_of_a(self):
        abar = saturated_closure(paper_a())
        assert abar.member_sets == frozen(
            "x", "y", "z", "u", "xy", "yz", "zu", "xyz", "yzu", "xyzu")

    def test_fixpoint(self):
        for h in (paper_e(), saturated_closure(paper_a())):
            assert saturated_closure(h) == h

    def test_closure_reaches_catalog_entry(self):
        from nestohedra import catalog_lookup
        pieces = catalog_lookup("H_4221").hypergraph.member_sets | {frozenset("uz")}
        built = saturated_closure(Hypergraph.from_sets(pieces))
        assert built == catalog_lookup("H'_4321").hypergraph
        assert built == saturated_closure(paper_a())

    def test_result_saturated_and_idempotent(self):
        for h in all_atomic_hypergraphs(4):
            hbar = saturated_closure(h)
            assert is_saturated(hbar)
            assert saturated_closure(hbar) == hbar

    def test_monotone(self):
        rng = random.Random(11)
        pool = list(all_atomic_hypergraphs(4))
        for h in rng.sample(pool, 100):
            extra = [m for m in frozen("xy", "xz", "yu", "xyzu", "xzu")
                     if m not in h.member_sets]
            if not extra:
                continue
            bigger = Hypergraph.from_sets(h.member_sets | {rng.choice(extra)})
            assert saturated_closure(h).member_sets <= saturated_closure(bigger).member_sets

    def test_reached_by_single_enhancements(self):
        # each closure member outside h is dispensable at the time it is added
        for h in all_atomic_hypergraphs(3):
            current = set(h.member_sets)
            target = saturated_closure(h).member_sets
            added = sorted(target - current, key=len)
            for y in added:
                assert is_dispensable(Hypergraph.from_sets(current), y)
                current.add(y)
            assert frozenset(current) == target


class TestCognate:
    def test_a_and_a2(self):
        a2 = Hypergraph.from_sets(paper_a().member_sets - {frozenset("xyz")})
        assert are_cognate(paper_a(), a2)

    def test_reflexive(self):
        assert are_cognate(paper_a(), paper_a())

    def test_a_vs_cycle_variant(self):
        a2 = Hypergraph.from_sets(paper_a().member_sets - {frozenset("xyz")})
        off = Hypergraph.from_sets(a2.member_sets | {frozenset("ux")})
        assert not are_cognate(paper_a(), off)

    def test_carrier_mismatch(self):
        with pytest.raises(CarrierMismatchError):
            are_cognate(paper_a(), Hypergraph.from_sets([{"x"}]))

    def test_cognate_iff_same_constructions(self):
        # exhaustive on carrier 3, sampled pairs on carrier 4
        hs3 = list(all_atomic_hypergraphs(3))
        for h1 in hs3:
            for h2 in hs3:
                assert are_cognate(h1, h2) == (
                    enumerate_constructions(h1) == enumerate_constructions(h2))
        rng = random.Random(3)
        hs4 = list(all_atomic_hypergraphs(4))
        for _ in range(300):
            h1, h2 = rng.choice(hs4), rng.choice(hs4)
            assert are_cognate(h1, h2) == (
                enumerate_constructions(h1) == enumerate_constructions(h2))

    def test_cognate_same_connected_restrictions(self):
        for h in all_atomic_hypergraphs(3):
            hbar = saturated_closure(h)
            bare = bare_kernel(h)
            for r in range(1, 4):
                for z in itertools.combinations(h.atoms, r):
                    zs = frozenset(z)
                    for a, b in ((h, hbar), (h, bare)):
                        fam_a = [m for m in a.member_sets if m <= zs]
                        fam_b = [m for m in b.member_sets if m <= zs]
                        conn_a = _family_connected_on(fam_a, zs)
                        conn_b = _family_connected_on(fam_b, zs)
                        assert conn_a == conn_b


def _family_connected_on(fams, carrier):
    if not fams or set().union(*fams) != set(carrier):
        return False
    pool = list(fams)
    grow = {pool.pop()}
    changed = True
    while changed:
        changed = False
        for m in list(pool):
            if any(m & g for g in grow):
                grow.add(m)
                pool.remove(m)
                changed = True
    return not pool


class TestBareAndSummary:
    def test_bare_kernel_of_e(self):
        bare = bare_kernel(paper_e())
        assert bare.member_sets == frozen("xy", "yz", "u", "v")

    def test_order_independence(self):
        from nestohedra.hypergraph import mask_sort_key
        from nestohedra.saturation import _dispensable_mask
        for h in all_atomic_hypergraphs(3):
            forward = bare_kernel(h)
            # reversed greedy deletion must land on the same kernel
            current = set(h.members)
            while True:
                victim = None
                for m in sorted(current, key=mask_sort_key, reverse=True):
                    if _dispensable_mask(frozenset(current), m):
                        victim = m
                        break
                if victim is None:
                    break
                current.remove(victim)
            assert Hypergraph(h.atoms, current) == forward

    def test_summary_invariants(self):
        for h in list(all_atomic_hypergraphs(3)) + [paper_e(), paper_a()]:
            s = cognate_class(h)
            assert s.bare_bottom.member_sets <= s.saturated_top.member_sets
            gap = s.saturated_top.member_sets - s.bare_bottom.member_sets
            assert gap <= s.dispensables
            assert s.dispensables == dispensable_subsets(s.bare_bottom)
            assert s.dispensables == dispensable_subsets(h)
            assert are_cognate(h, s.saturated_top)
            assert are_cognate(h, s.bare_bottom)


class TestSaturationMatchesSubsetWalk:
    # the subset walk and greedy deletion are the reference routes (rows
    # union-closure, bare-kernel and dispensable-subsets)

    def test_closure(self):
        check("union-closure")

    def test_bare_kernel(self):
        check("bare-kernel")

    def test_dispensable_subsets(self):
        check("dispensable-subsets")

    @settings(deadline=None)
    @given(st.sets(st.integers(min_value=1, max_value=63), min_size=1, max_size=12))
    def test_random_member_lists(self, masks):
        h = Hypergraph.from_sets({a for i, a in enumerate("abcdef") if m >> i & 1}
                                 for m in masks)
        hbar = saturated_closure(h)
        assert hbar == oracle_saturated_closure(h)
        assert is_saturated(hbar)
        assert h.members <= hbar.members
