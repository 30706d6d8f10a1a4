"""Every production route against its oracle: one row of
``helpers.ROUTES`` per pair, each run on its slice of the corpus.

A new fast path adds one row there; its oracle stays in
``tests/helpers.py``.  Rows and inputs that the tests the table
replaced still run under their old node ids (``helpers.OWNED`` and
``helpers.KEPT``) are not run again here."""

import inspect

import pytest

import helpers
from helpers import KEPT, OWNED, ROUTES, check, kept_inputs, tier


@pytest.mark.parametrize("name", [name for name in ROUTES if name not in OWNED])
def test_route(name):
    kept = kept_inputs(name)
    check(name, [h for h in ROUTES[name].corpus() if h not in kept])


def test_kept_rows_are_rows():
    assert OWNED | KEPT.keys() <= ROUTES.keys()
    assert not OWNED & KEPT.keys()


def test_corpus_tiers():
    # distinct inputs per tier, so that a shrinking corpus shows
    sizes = {t: len(tier(t)) for t in ("atomic", "non-atomic", "catalog", "graphs", "random")}
    assert sizes == {"atomic": 2068, "non-atomic": 96, "catalog": 53, "graphs": 21,
                     "random": 106}


def _names(code):
    """Global names a code object reads, nested comprehensions included."""
    out = set(code.co_names)
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            out |= _names(const)
    return out


def test_every_oracle_has_a_row():
    # an oracle is a row's oracle or a helper that one calls, at any depth
    reached, todo = set(), [route.oracle for route in ROUTES.values()]
    while todo:
        fn = inspect.unwrap(todo.pop())
        reached.add(fn.__name__)
        for name in _names(fn.__code__) - reached:
            obj = getattr(helpers, name, None)
            if inspect.isfunction(inspect.unwrap(obj)):
                todo.append(obj)
    oracles = {name for name, obj in vars(helpers).items()
               if name.startswith(("oracle_", "reference_")) and callable(obj)}
    assert oracles <= reached, sorted(oracles - reached)
