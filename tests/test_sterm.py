import pytest
from hypothesis import given, settings, strategies as st

from nestohedra import (
    EMPTY,
    Hypergraph,
    enumerate_constructions,
    parse_s_construction,
    saturated_closure,
    sterm_to_family,
    to_f_construction,
    to_s_construction,
)
from nestohedra.constructions import make_sum, Prefix, Sum
from nestohedra.errors import (
    RepeatedAtomError,
    STermSyntaxError,
    UnknownAtomError,
    WordAtomsError,
)

from helpers import L, M, N, all_atomic_hypergraphs, paper_a


class TestPrinting:
    def test_plain_word(self):
        assert str(to_s_construction(paper_a(), L)) == "xyzu"

    def test_sum_children_sorted(self):
        assert str(to_s_construction(paper_a(), M)) == "xz(u+y)"

    def test_nested_word_parenthesized(self):
        assert str(to_s_construction(paper_a(), N)) == "y(x+(zu))"

    def test_empty(self):
        h = Hypergraph.from_sets([])
        assert str(to_s_construction(h, frozenset())) == ""


class TestParsing:
    def test_commutativity_quotient(self):
        a = paper_a()
        assert parse_s_construction("xz(u+y)", a) == parse_s_construction("xz(y+u)", a)
        assert parse_s_construction("xz(y+u)", a) == to_s_construction(a, M)

    def test_empty_word(self):
        h = Hypergraph.from_sets([])
        assert parse_s_construction("", h) == EMPTY

    def test_unbalanced(self):
        with pytest.raises(STermSyntaxError):
            parse_s_construction("x(y", paper_a())

    def test_empty_parens(self):
        with pytest.raises(STermSyntaxError):
            parse_s_construction("()", paper_a())

    def test_trailing_junk(self):
        with pytest.raises(STermSyntaxError):
            parse_s_construction("x+y", paper_a())

    def test_whitespace_rejected(self):
        with pytest.raises(STermSyntaxError):
            parse_s_construction("x z", paper_a())

    def test_unknown_atom(self):
        with pytest.raises(UnknownAtomError):
            parse_s_construction("xq", paper_a())

    def test_repeated_atom(self):
        with pytest.raises(RepeatedAtomError):
            parse_s_construction("xx", paper_a())
        with pytest.raises(RepeatedAtomError):
            parse_s_construction("x(y+(zx))", paper_a())

    @pytest.mark.parametrize("text", ["(" * 2000 + "x" + ")" * 2000, "x" * 5000],
                             ids=["parentheses", "atom-chain"])
    def test_deep_nesting_is_a_syntax_error(self, text):
        with pytest.raises(STermSyntaxError, match="term nested too deeply"):
            parse_s_construction(text, paper_a())

    def test_deep_parentheses_on_a_small_hypergraph(self):
        h = Hypergraph.from_sets([{"x"}, {"y"}, {"x", "y"}])
        with pytest.raises(STermSyntaxError, match="term nested too deeply"):
            parse_s_construction("(" * 5000 + "x" + ")" * 5000, h)

    def test_moderate_nesting_parses_as_before(self):
        a = paper_a()
        assert parse_s_construction("(" * 300 + "x" + ")" * 300, a) == Prefix("x", EMPTY)
        with pytest.raises(RepeatedAtomError):
            parse_s_construction("x" * 300, a)

    def test_redundant_parens_accepted(self):
        a = paper_a()
        assert parse_s_construction("y(x+(zu))", a) == parse_s_construction("y(x+zu)", a)
        assert parse_s_construction("(xyzu)", a) == parse_s_construction("xyzu", a)

    def test_longest_match_atoms(self):
        # names that are not prefix-free cannot be read back, as they
        # cannot be written
        h = Hypergraph.from_sets([{"a"}, {"ab"}, {"a", "ab"}])
        with pytest.raises(WordAtomsError, match=r"not prefix-free: \[\['a', 'ab'\]\]"):
            parse_s_construction("aba", h)


class TestRoundTrips:
    def test_three_maps_compose_to_identity(self):
        for k in range(5):
            for h in all_atomic_hypergraphs(k):
                for cons in enumerate_constructions(h):
                    term = to_s_construction(h, cons)
                    assert sterm_to_family(term) == cons

    def test_forest_round_trip(self):
        # family -> forest -> word -> family -> forest reproduces the forest
        for h in all_atomic_hypergraphs(3):
            for cons in enumerate_constructions(h):
                forest = to_f_construction(h, cons)
                term = to_s_construction(h, cons)
                back = to_f_construction(h, sterm_to_family(term))
                assert back == forest

    def test_parse_print_round_trip(self):
        for k in range(5):
            for h in all_atomic_hypergraphs(k):
                for cons in enumerate_constructions(h):
                    term = to_s_construction(h, cons)
                    assert parse_s_construction(str(term), h) == term

    def test_word_round_trip(self):
        # decoding a canonical word and re-encoding reproduces it
        for h in all_atomic_hypergraphs(3):
            for cons in enumerate_constructions(h):
                term = to_s_construction(h, cons)
                assert to_s_construction(h, sterm_to_family(term)) == term


def _spellable(atoms):
    """Words parse back exactly when no atom name holds a word symbol or
    whitespace and none is a prefix of another."""
    return not any(c in "+()" or c.isspace() for a in atoms for c in a) and \
        not any(a != b and b.startswith(a) for a in atoms for b in atoms)


class TestAtomNames:
    def test_names_that_spell_one_word_twice(self):
        # a+b and ab: two constructions would both print as "abab", so
        # neither the printer nor the parser accepts these names
        h = saturated_closure(Hypergraph.from_sets(
            [["a"], ["b"], ["ab"], ["a", "b"], ["b", "ab"]]))
        for cons in enumerate_constructions(h):
            with pytest.raises(WordAtomsError, match=r"not prefix-free: \[\['a', 'ab'\]\]"):
                to_s_construction(h, cons)
        with pytest.raises(WordAtomsError, match=r"not prefix-free: \[\['a', 'ab'\]\]"):
            parse_s_construction("abab", h)

    def test_names_holding_word_symbols(self):
        h = Hypergraph.from_sets([["a"], ["+x"], ["a", "+x"]])
        with pytest.raises(WordAtomsError, match=r"\['\+x'\]"):
            to_s_construction(h, next(iter(enumerate_constructions(h))))

    @settings(deadline=None)
    @given(st.data())
    def test_word_round_trip_of_multi_character_names(self, data):
        names = st.text("abcé", min_size=1, max_size=3) | st.text(
            st.characters(max_codepoint=0x2FF), min_size=1, max_size=3)
        atoms = data.draw(st.lists(names, min_size=1, max_size=5, unique=True))
        bigger = data.draw(st.sets(st.integers(1, (1 << len(atoms)) - 1), max_size=4))
        h = Hypergraph.from_sets([[a] for a in atoms] + [
            [a for i, a in enumerate(atoms) if m >> i & 1] for m in bigger
            if m & (m - 1)])
        k = data.draw(st.sampled_from(sorted(enumerate_constructions(h),
                                             key=lambda c: sorted(map(sorted, c)))))
        if _spellable(atoms):
            word = str(to_s_construction(h, k))
            assert sterm_to_family(parse_s_construction(word, h)) == k
        else:
            with pytest.raises(WordAtomsError):
                to_s_construction(h, k)


class TestCanonicalForm:
    def test_make_sum_collapses_singleton(self):
        t = Prefix("x", EMPTY)
        assert make_sum([t]) is t

    def test_make_sum_sorts(self):
        x = Prefix("x", EMPTY)
        y = Prefix("y", EMPTY)
        assert make_sum([y, x]) == Sum((x, y))
