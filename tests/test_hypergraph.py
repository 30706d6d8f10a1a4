import copy
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import nestohedra
from nestohedra import (
    BOTTOM,
    Hypergraph,
    abstract_polytope,
    catalog,
    catalog_lookup,
    census,
    enumerate_constructions,
    enumerate_constructs,
    finest_partition,
    from_json,
    from_text,
    is_atomic,
    is_connected,
    quotient,
    realize,
    restriction,
    saturated_closure,
    to_json,
    to_text,
)
from nestohedra.errors import (
    CarrierMismatchError,
    DuplicateMemberError,
    EmptyMemberError,
    NotAtomicError,
    NotSubsetError,
    UnknownAtomError,
)
from nestohedra.hypergraph import bits_of, family_components, family_union

from helpers import all_atomic_hypergraphs, frozen, graph, paper_a, paper_e


class TestValidate:
    def test_worked_example(self):
        h = Hypergraph.from_sets([{"x", "y"}, {"x", "y", "z"}, {"y", "z"}, {"u"}, {"v"}],
                                 carrier="xyzuv")
        assert h == paper_e()

    def test_empty_hypergraph(self):
        h = Hypergraph.from_sets([], carrier=[])
        assert h.atoms == () and not h.members
        assert is_connected(h) and is_atomic(h)

    def test_empty_member_rejected(self):
        with pytest.raises(EmptyMemberError):
            Hypergraph.from_sets([set(), {"x"}], carrier=["x"])

    def test_carrier_mismatch(self):
        with pytest.raises(CarrierMismatchError):
            Hypergraph.from_sets([{"x"}], carrier=["x", "y"])

    def test_unknown_atom(self):
        with pytest.raises(UnknownAtomError):
            Hypergraph.from_sets([{"x", "q"}], carrier=["x"])

    def test_duplicate_member(self):
        with pytest.raises(DuplicateMemberError):
            Hypergraph.from_sets([{"x"}, {"x"}, {"y"}])

    def test_duplicate_carrier_atom(self):
        with pytest.raises(CarrierMismatchError):
            Hypergraph.from_sets([{"x"}], carrier=["x", "x"])

    def test_equality_ignores_input_order(self):
        h1 = Hypergraph.from_sets([{"x"}, {"y"}, {"x", "y"}])
        h2 = Hypergraph.from_sets([{"y", "x"}, {"y"}, {"x"}])
        assert h1 == h2 and hash(h1) == hash(h2)


class TestInterning:
    def test_atom_set_is_one_object_per_mask(self):
        h = paper_a()
        for m in range(1 << h.n_atoms):
            s = h.atom_set(m)
            assert h.atom_set(m) is s
            assert s == frozenset(a for i, a in enumerate(h.atoms) if m >> i & 1)

    def test_family_shares_the_interned_sets(self):
        h = paper_a()
        for s in h.family(h.members):
            assert h.atom_set(h.mask(s)) is s

    def test_cache_leaves_equality_and_hash_alone(self):
        warm, cold = paper_a(), paper_a()
        warm.family(warm.members)
        assert warm == cold and hash(warm) == hash(cold)
        assert len({warm, cold}) == 1

    @pytest.mark.parametrize("h", [graph("path", 4),
                                   Hypergraph.from_sets(["a", "b", "c", "d", "e", "ab", "bc",
                                                         "de"])],
                             ids=["non-saturated", "disconnected"])
    def test_masks_outside_the_members(self, h):
        # closure members and block carriers are no members of h, yet
        # every family read off h shares atom_set's objects for them
        outside = saturated_closure(h).members - h.members
        carriers = {family_union(c) for c in family_components(h.members)}
        assert outside and carriers - h.members
        for m in outside | carriers:
            s = h.atom_set(m)
            assert h.atom_set(m) is s and next(iter(h.family([m]))) is s
        families = [*enumerate_constructs(h), *enumerate_constructions(h),
                    *(fam for fam, _ in realize(h).vertices),
                    *(f for f in abstract_polytope(h).faces if f is not BOTTOM)]
        read = set()
        for fam in families:
            for s in fam:
                assert h.atom_set(h.mask(s)) is s
                read.add(h.mask(s))
        assert outside | carriers <= read

    def test_family_matches_fresh_sets_on_the_catalog(self):
        for e in catalog():
            h = e.hypergraph
            families = [h.members]
            if is_atomic(h):
                families += [frozenset(h.mask(s) for s in c) for c in enumerate_constructs(h)]
            for masks in families:
                fresh = frozenset(frozenset(h.atoms[i] for i in bits_of(m)) for m in masks)
                assert h.family(masks) == fresh


class TestCopies:
    """Pickles and copies rebuild a hypergraph from its atoms and
    members: equal, with the same hash and a table of their own."""

    INPUTS = (paper_a(), paper_e(), Hypergraph.from_sets([]), graph("path", 4))

    @pytest.mark.parametrize("copier", [lambda h: pickle.loads(pickle.dumps(h)),
                                        copy.copy, copy.deepcopy],
                             ids=["pickle", "copy", "deepcopy"])
    def test_round_trip(self, copier):
        for h in self.INPUTS:
            hash(h)
            h.family(h.members)
            c = copier(h)
            assert c == h and hash(c) == hash(h) and len({c, h}) == 1
            assert c.atoms == h.atoms and c.members == h.members
            for m in [*h.members, h.carrier_mask]:
                s = c.atom_set(m)
                assert s == h.atom_set(m) and c.atom_set(m) is s
                assert next(iter(c.family([m]))) is s
            assert c.member_sets == h.member_sets

    def test_pickle_hashes_in_the_reading_process(self):
        # a hash cached before pickling must not travel to a process
        # with another string-hash seed
        env = dict(os.environ, PYTHONPATH=str(Path(nestohedra.__file__).parents[1]))
        head = "import pickle, sys; from nestohedra import Hypergraph; "
        h = "Hypergraph.from_sets(['a', 'b', 'ab'])"

        def run(seed, code, data=None):
            return subprocess.run([sys.executable, "-c", head + code], input=data,
                                  env=dict(env, PYTHONHASHSEED=seed), capture_output=True,
                                  timeout=120, check=True).stdout

        data = run("1", f"h = {h}; hash(h); sys.stdout.buffer.write(pickle.dumps(h))")
        out = run("2", f"c = pickle.load(sys.stdin.buffer); h = {h}; "
                       "print(c == h, hash(c) == hash(h), c in {h})", data)
        assert out.split() == [b"True", b"True", b"True"]


class TestCensus:
    def test_empty(self):
        assert census(Hypergraph.from_sets([])) == ()

    def test_associahedron(self):
        assert census(catalog_lookup("H'_4321").hypergraph) == (4, 3, 2, 1)

    def test_gap_in_sizes(self):
        h = Hypergraph.from_sets([{"x"}, {"y"}, {"z"}, {"x", "y", "z"}])
        assert census(h) == (3, 0, 1)


class TestConnectivity:
    def test_connected_example(self):
        h = Hypergraph.from_sets([{"x", "y"}, {"x", "y", "z"}, {"y", "z"}, {"z", "u"}])
        assert is_connected(h)

    def test_e_not_connected(self):
        assert not is_connected(paper_e())

    def test_empty_connected(self):
        assert is_connected(Hypergraph.from_sets([]))

    def test_finest_partition_of_e(self):
        blocks = {b.member_sets for b in finest_partition(paper_e())}
        assert blocks == {
            frozen("xy", "xyz", "yz"),
            frozen("u"),
            frozen("v"),
        }

    def test_finest_partition_connected_trivial(self):
        h = Hypergraph.from_sets([{"x"}, {"x", "y"}, {"y"}])
        assert {b for b in finest_partition(h)} == {h}

    def test_finest_partition_empty(self):
        assert len(finest_partition(Hypergraph.from_sets([]))) == 0

    def test_partition_blocks_cover_and_disjoint(self):
        for h in all_atomic_hypergraphs(4):
            blocks = list(finest_partition(h))
            carriers = [set(b.atoms) for b in blocks]
            union = set().union(*carriers) if carriers else set()
            assert union == set(h.atoms)
            for i, c in enumerate(carriers):
                for d in carriers[i + 1:]:
                    assert not (c & d)
            members = set()
            for b in blocks:
                assert is_connected(b)
                members |= b.member_sets
            assert members == h.member_sets
            assert is_connected(h) == (len(blocks) <= 1)


def _path_joined(h, x, y):
    """Independent oracle: breadth-first search over the intersection graph."""
    start = [m for m in h.member_sets if x in m]
    seen = set(start)
    queue = list(start)
    while queue:
        cur = queue.pop()
        if y in cur:
            return True
        for other in h.member_sets:
            if other not in seen and cur & other:
                seen.add(other)
                queue.append(other)
    return False


@st.composite
def small_hypergraphs(draw):
    k = draw(st.integers(min_value=1, max_value=5))
    atoms = tuple("vwxyz"[:k])
    import itertools
    subsets = [frozenset(c) for r in range(1, k + 1)
               for c in itertools.combinations(atoms, r)]
    members = draw(st.sets(st.sampled_from(subsets), min_size=1))
    return Hypergraph.from_sets(members)


@settings(deadline=None)
@given(small_hypergraphs())
def test_path_characterization(h):
    joined = all(_path_joined(h, x, y)
                 for x in h.atoms for y in h.atoms)
    assert is_connected(h) == joined


class TestRestriction:
    def test_paper_restriction(self):
        got = restriction(paper_a(), {"y", "z", "u"})
        assert got.member_sets == frozen("y", "z", "u", "yz", "zu")

    def test_identity(self):
        a = paper_a()
        assert restriction(a, a.atoms) == a

    def test_empty_subset(self):
        assert restriction(paper_a(), set()) == Hypergraph.from_sets([])

    def test_requires_atomic(self):
        with pytest.raises(NotAtomicError):
            restriction(paper_e(), {"x"})

    def test_requires_subset(self):
        with pytest.raises(NotSubsetError):
            restriction(paper_a(), {"q"})

    def test_restriction_atomic_with_carrier(self):
        for h in all_atomic_hypergraphs(3):
            import itertools
            for r in range(len(h.atoms) + 1):
                for y in itertools.combinations(h.atoms, r):
                    sub = restriction(h, y)
                    assert set(sub.atoms) == set(y)
                    assert is_atomic(sub)


class TestQuotient:
    def test_paper_quotient(self):
        h = Hypergraph.from_sets(
            [{"x"}, {"y"}, {"z"}, {"u"}, {"x", "y", "z"}, {"y", "z", "u"},
             {"x", "y", "z", "u"}])
        got = quotient(h, {"x", "y", "z"})
        assert got.member_sets == frozen("x", "y", "z", "yz", "xyz")

    def test_identity(self):
        a = paper_a()
        assert quotient(a, a.atoms) == a

    def test_trace_of_closure(self):
        from nestohedra import saturated_closure
        abar = saturated_closure(paper_a())
        got = quotient(abar, {"x", "y"})
        assert got.member_sets == frozen("x", "y", "xy")

    def test_requires_subset(self):
        with pytest.raises(NotSubsetError):
            quotient(paper_a(), {"q"})

    def test_restriction_inside_quotient(self):
        import itertools
        for h in all_atomic_hypergraphs(3):
            for r in range(1, len(h.atoms) + 1):
                for y in itertools.combinations(h.atoms, r):
                    assert restriction(h, y).member_sets <= quotient(h, y).member_sets


class TestAtomicity:
    def test_paper_a_atomic(self):
        assert is_atomic(paper_a())

    def test_empty_atomic(self):
        assert is_atomic(Hypergraph.from_sets([]))

    def test_missing_singleton(self):
        assert not is_atomic(Hypergraph.from_sets([{"x", "y"}, {"v", "w"}]))


class TestFormats:
    def test_json_round_trip(self):
        for h in (paper_a(), paper_e(), Hypergraph.from_sets([])):
            assert from_json(to_json(h)) == h

    def test_text_round_trip(self):
        for h in (paper_a(), paper_e(), Hypergraph.from_sets([])):
            assert from_text(to_text(h)) == h

    def test_text_comments_and_blanks(self):
        h = from_text("# a comment\n\nx\ny # trailing\nx,y\n")
        assert h.member_sets == frozen("x", "y", "xy")

    def test_text_duplicate_rejected(self):
        with pytest.raises(DuplicateMemberError):
            from_text("x\nx\n")

    def test_json_empty_member_rejected(self):
        with pytest.raises(EmptyMemberError):
            from_json('{"carrier": ["x"], "members": [[], ["x"]]}')

    def test_json_duplicate_rejected(self):
        with pytest.raises(DuplicateMemberError):
            from_json('{"carrier": ["x"], "members": [["x"], ["x"]]}')

    def test_json_non_list_member_rejected(self):
        from nestohedra.errors import HypergraphError
        with pytest.raises(HypergraphError, match="member"):
            from_json('{"carrier": ["x"], "members": [5]}')

    def test_json_nested_member_rejected(self):
        from nestohedra.errors import HypergraphError
        with pytest.raises(HypergraphError, match="collections of atom names"):
            from_json('{"carrier": ["x"], "members": [[["x"]]]}')

    def test_json_string_carrier_rejected(self):
        from nestohedra.errors import HypergraphError
        with pytest.raises(HypergraphError, match="carrier"):
            from_json('{"carrier": "xy", "members": [["x"], ["y"]]}')

    def test_json_string_member_rejected(self):
        from nestohedra.errors import HypergraphError
        with pytest.raises(HypergraphError, match="member"):
            from_json('{"carrier": ["x", "y"], "members": ["xy", ["x"], ["y"]]}')

    def test_non_collection_member_rejected(self):
        from nestohedra.errors import HypergraphError
        with pytest.raises(HypergraphError, match="collections of atom names"):
            Hypergraph.from_sets([5])

    def test_non_string_atoms_rejected_before_comparison(self):
        from nestohedra.errors import HypergraphError
        with pytest.raises(HypergraphError, match="atoms must be nonempty strings"):
            Hypergraph.from_sets([[5, "y"]], carrier=["x"])

    @pytest.mark.parametrize("text", [
        "[" * 100_000,
        '{"carrier": ["x"], "members": ' + "[" * 1000 + "]" * 1000 + "}",
    ], ids=["open-brackets", "nested-members"])
    def test_json_deep_nesting_rejected(self, text):
        from nestohedra.errors import HypergraphError
        with pytest.raises(HypergraphError, match="invalid JSON"):
            from_json(text)

    def test_json_long_integer_rejected(self):
        from nestohedra.errors import HypergraphError
        with pytest.raises(HypergraphError, match="invalid JSON"):
            from_json('{"carrier": [' + "1" * 5000 + '], "members": []}')

    def test_text_unrepresentable_atom(self):
        from nestohedra.errors import HypergraphError
        h = Hypergraph.from_sets([{"a,b"}])
        with pytest.raises(HypergraphError):
            to_text(h)


# ---------------------------------------------------------------------------
# round trips over multi-character atom names
# ---------------------------------------------------------------------------

@st.composite
def named_hypergraphs(draw, names):
    """One to five distinct atom names and up to eight distinct members."""
    atoms = draw(st.lists(names, min_size=1, max_size=5, unique=True))
    masks = draw(st.sets(st.integers(1, (1 << len(atoms)) - 1), min_size=1, max_size=8))
    return Hypergraph.from_sets([a for i, a in enumerate(atoms) if m >> i & 1]
                                for m in masks)


# the compact format splits on "," and "#" and strips whitespace
_TEXT_NAMES = st.text(min_size=1, max_size=4).filter(
    lambda a: not any(c in ",#" or c.isspace() for c in a))


@settings(deadline=None)
@given(named_hypergraphs(_TEXT_NAMES))
def test_text_round_trip_of_multi_character_names(h):
    assert from_text(to_text(h)) == h


@settings(deadline=None)
@given(named_hypergraphs(st.text(min_size=1, max_size=4)))
def test_json_round_trip_of_any_names(h):
    assert from_json(to_json(h)) == h


# ---------------------------------------------------------------------------
# every parser fails only with a package error
# ---------------------------------------------------------------------------

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["carrier", "members", "x"]), inner, max_size=3),
    max_leaves=12)


def _only_package_errors(parse, *args):
    from nestohedra.errors import NestohedraError
    try:
        parse(*args)
    except NestohedraError:
        pass


@settings(deadline=None)
@given(st.text(max_size=40) | st.text(alphabet="xyz,# \n", max_size=60))
def test_from_text_raises_only_package_errors(text):
    _only_package_errors(from_text, text)


@settings(deadline=None)
@given(st.text(max_size=40)
       | _json_values.map(json.dumps)
       | _json_values.map(json.dumps).map(lambda t: t[: len(t) // 2]))
def test_from_json_raises_only_package_errors(text):
    _only_package_errors(from_json, text)


# at most ten vertices: a dense graph's closure has up to 2^n - 1 members
@settings(deadline=None)
@given(st.text(max_size=20) | st.text(alphabet="ab-# \n", max_size=20))
def test_graph_from_text_raises_only_package_errors(text):
    from nestohedra import graph_from_text
    _only_package_errors(graph_from_text, text)


@settings(deadline=None)
@given(st.text(max_size=40) | st.text(alphabet="xyzuq()+ ", max_size=40))
def test_parse_s_construction_raises_only_package_errors(text):
    from nestohedra import parse_s_construction
    _only_package_errors(parse_s_construction, text, paper_a())
