"""Answer tables: regions, promotion, invariants."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from lintab.table import (
    COMPLETE,
    SubgoalStore,
    TableError,
    check_region_invariants,
    dump,
    early_promote,
    insert_answer,
    promote_regions,
    register_subgoal,
)
from lintab.terms import Struct, Var


def sub(*names):
    """A substitution tuple: the bindings of an entry key's variables."""
    return names


def goal(*names):
    return Struct("p", sub(*names))


def regions(entry):
    """The entry's old, previous and current answers."""
    a = list(entry.answers)
    return a[: entry.last_old], a[entry.last_old : entry.last_prev], a[entry.last_prev :]


def fresh_entry():
    store = SubgoalStore()
    entry, call_vars = register_subgoal(store, Struct("p", [Var(0)]))
    assert len(store.entries) == 1 and call_vars == (0,)
    return store, entry


def test_register_is_variant_keyed():
    store = SubgoalStore()
    e1, vars1 = register_subgoal(store, Struct("p", [Var(5), Var(5), Var(9)]))
    assert len(store.entries) == 1
    e2, vars2 = register_subgoal(store, Struct("p", [Var(0), Var(0), Var(2)]))
    assert len(store.entries) == 1 and e1 is e2
    e3, _ = register_subgoal(store, Struct("p", [Var(0), Var(1), Var(2)]))
    assert e3 is not e1
    assert len(store.entries) == 2
    # the call's variables, in key order
    assert (vars1, vars2) == ((5, 9), (0, 2))


def test_insert_dedups_variants():
    _, e = fresh_entry()
    assert insert_answer(e, sub("a"))
    assert not insert_answer(e, sub("a"))
    assert insert_answer(e, sub(Var(0)))
    assert not insert_answer(e, sub(Var(0)))
    assert len(e.answers) == 2
    assert list(e.answers) == [goal("a"), goal(Var(0))]


def test_insert_sets_revised():
    _, e = fresh_entry()
    assert not e.revised
    insert_answer(e, sub("a"))
    assert e.revised


def test_insert_into_complete_raises():
    _, e = fresh_entry()
    e.state = COMPLETE
    with pytest.raises(TableError):
        insert_answer(e, sub("a"))


def test_promotion_slides_regions():
    _, e = fresh_entry()
    insert_answer(e, sub("a"))
    insert_answer(e, sub("b"))
    promote_regions(e)
    assert (e.last_old, e.last_prev) == (0, 2)
    insert_answer(e, sub("c"))
    old, prev, cur = regions(e)
    assert (old, prev, cur) == ([], [goal("a"), goal("b")], [goal("c")])
    promote_regions(e)
    old, prev, cur = regions(e)
    assert (old, prev, cur) == ([goal("a"), goal("b")], [goal("c")], [])


def test_early_promote_once_per_round():
    _, e = fresh_entry()
    insert_answer(e, sub("a"))
    promote_regions(e)
    insert_answer(e, sub("b"))
    assert not e.promoted_this_round
    early_promote(e)
    assert e.promoted_this_round
    assert (e.last_old, e.last_prev) == (0, 2)
    # the flag resets at the round boundary
    promote_regions(e)
    assert not e.promoted_this_round
    assert (e.last_old, e.last_prev) == (2, 2)


@given(
    st.lists(
        st.tuples(st.booleans(), st.integers(0, 9)), min_size=1, max_size=40
    )
)
@settings(max_examples=200)
def test_region_boundaries_monotone_and_partition(script):
    store, e = fresh_entry()
    prev_boundaries = (0, 0)
    for promote, n in script:
        if promote:
            promote_regions(e)
        else:
            insert_answer(e, sub(n))
        assert prev_boundaries <= (e.last_old, e.last_prev)
        assert e.last_old <= e.last_prev <= len(e.answers)
        prev_boundaries = (e.last_old, e.last_prev)
        check_region_invariants(store)
        old, prev, cur = regions(e)
        assert old + prev + cur == list(e.answers)


def test_check_region_invariants_detects_corruption():
    store, e = fresh_entry()
    insert_answer(e, sub("a"))
    e.last_old = 5
    with pytest.raises(TableError):
        check_region_invariants(store)


def test_check_region_invariants_detects_variant_duplicate():
    store, e = fresh_entry()
    insert_answer(e, sub("a"))
    e.answers.tuples.append(sub("a"))
    with pytest.raises(TableError, match="variant duplicate"):
        check_region_invariants(store)


def test_dump_format():
    store = SubgoalStore()
    e, _ = register_subgoal(store, Struct("p", ["a", Var(3)]))
    insert_answer(e, sub("b"))
    promote_regions(e)
    e.state = COMPLETE
    assert dump(store) == "p(a,_G0)  state=complete answers=[p(a,b)] old=0 prev=1"
