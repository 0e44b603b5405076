"""Answer tables: variant lookup, regions, promotion, invariants."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from lintab import load_program, run_query
from lintab.bench import config_matrix, golden_instances
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
from lintab.terms import Struct, Var, canonicalize, deref, render, unify, variables


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


# the atom "0" and the integer 0 are different constants
CONSTANTS = st.sampled_from(["a", "0", 0, 1])
VARS = st.integers(0, 3).map(Var)
FLAT_ARGS = st.one_of(VARS, CONSTANTS)
# nested compounds over f/1, f/2 and g/2: f(f(a),b) and f(f(a,b)) share
# the preorder f,f,a,b of functors and leaves, and only the arities tell
# them apart
ARGS = st.recursive(
    FLAT_ARGS,
    lambda inner: st.one_of(
        st.builds(lambda a: Struct("f", [a]), inner),
        st.builds(lambda a, b: Struct("f", [a, b]), inner, inner),
        st.builds(lambda a, b: Struct("g", [a, b]), inner, inner),
    ),
    max_leaves=6,
)
GOALS = st.one_of(
    st.just("r"),  # arity 0
    st.builds(Struct, st.just("p"), st.lists(FLAT_ARGS, min_size=1, max_size=3)),
    st.builds(Struct, st.just("p"), st.lists(ARGS, min_size=1, max_size=3)),
)
# binding pairs, each bound through unify: chains of bound variables arise
# where a variable is bound to another
BINDINGS = st.lists(st.tuples(st.integers(0, 3), st.one_of(ARGS, VARS)), max_size=4)


def bound(pairs):
    m, trail = {}, []
    for vid, t in pairs:
        unify(Var(vid), t, m, trail)
    return m


def unbound_vars(t, m):
    """The ids of t's unbound variables under m, in first-occurrence order."""
    out = []
    stack = [t]
    while stack:
        a = deref(stack.pop(), m)
        if type(a) is Var:
            if a.id not in out:
                out.append(a.id)
        elif type(a) is Struct:
            stack.extend(reversed(a.args))
    return tuple(out)


@given(st.lists(st.tuples(GOALS, BINDINGS), min_size=1, max_size=6))
@settings(max_examples=300)
def test_register_finds_one_entry_per_variant_class(calls):
    store = SubgoalStore()
    seen = []
    for goal, pairs in calls:
        m = bound(pairs)
        entry, call_vars = register_subgoal(store, goal, m)
        key = canonicalize(goal, m)
        assert entry.key == key
        assert call_vars == unbound_vars(goal, m)
        for other_key, other in seen:
            assert (entry is other) == (key == other_key)
        seen.append((key, entry))
    assert len(store.entries) == len({key for key, _ in seen})
    assert [e.key for e in store] == list(dict.fromkeys(key for key, _ in seen))


def test_register_tells_an_atom_from_an_integer():
    store = SubgoalStore()
    e1, _ = register_subgoal(store, Struct("p", ["0"]))
    e2, _ = register_subgoal(store, Struct("p", [0]))
    assert e1 is not e2
    assert (e1.key, e2.key) == (Struct("p", ["0"]), Struct("p", [0]))


def test_register_a_repeated_variable_under_bindings():
    store = SubgoalStore()
    e1, vars1 = register_subgoal(store, Struct("p", [Var(7), Var(7), "a"]))
    # B is bound to A through a chain, so p(A,B,C) is p(A,A,a)
    m = {1: Var(2), 2: Var(0), 3: "a"}
    e2, vars2 = register_subgoal(store, Struct("p", [Var(0), Var(1), Var(3)]), m)
    assert e1 is e2 and (vars1, vars2) == ((7,), (0,))
    assert e1.key == Struct("p", [Var(0), Var(0), "a"])


def test_register_an_arity_0_goal():
    store = SubgoalStore()
    e1, vars1 = register_subgoal(store, "r")
    e2, vars2 = register_subgoal(store, "r", {0: "a"})
    assert e1 is e2 and e1.key == "r" and vars1 == vars2 == ()


def test_register_compound_and_flat_calls_of_one_predicate():
    store = SubgoalStore()
    f = lambda *args: Struct("f", args)  # noqa: E731
    e1, vars1 = register_subgoal(store, Struct("p", [f(Var(4)), Var(5)]))
    e2, vars2 = register_subgoal(store, Struct("p", ["a", Var(5)]))
    e3, vars3 = register_subgoal(store, Struct("p", [Var(1), Var(2)]), {1: f(Var(8))})
    e4, _ = register_subgoal(store, Struct("p", [Var(0), Var(1)]), {0: "a"})
    assert e1 is e3 and e2 is e4 and e1 is not e2
    assert (vars1, vars2, vars3) == ((4, 5), (5,), (8, 2))
    assert [e.key for e in store] == [Struct("p", [f(Var(0)), Var(1)]), Struct("p", ["a", Var(0)])]


def test_register_tells_compounds_apart_by_arity():
    store = SubgoalStore()
    f = lambda *args: Struct("f", args)  # noqa: E731
    X, Y = Var(0), Var(1)
    calls = [f(f(X), Y), f(f(X, Y)), f(X, f(Y)), f(f(X, Y), "a"), f(f(X, Y, "a"))]
    entries = [register_subgoal(store, Struct("q", [c]))[0] for c in calls]
    assert len(set(map(id, entries))) == len(calls)
    assert [e.key for e in store] == [Struct("q", [c]) for c in calls]


def test_answer_variable_counts():
    _, e = fresh_entry()
    for tup in [sub("a"), sub(1), sub(Var(0)), sub(Struct("f", [Var(0), Var(1), Var(0)]))]:
        insert_answer(e, tup)
    assert e.answers.nvars == [0, 0, 1, 2]


@pytest.mark.parametrize("label,opts", config_matrix(), ids=[c[0] for c in config_matrix()])
def test_golden_runs_count_each_answers_variables(label, opts):
    for name, text, query in golden_instances():
        _, eng = run_query(load_program(text), query, opts)
        for entry in eng.store:
            answers = entry.answers
            assert answers.nvars == [len(variables(tup)) for tup in answers.tuples], name


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


def test_insert_tests_for_a_variant_first():
    _, e = fresh_entry()
    insert_answer(e, sub("a"))
    e.state = COMPLETE
    assert not insert_answer(e, sub("a"))
    with pytest.raises(TableError):
        insert_answer(e, sub("b"))


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


def test_dump_prints_each_answer_as_its_full_term():
    # the key's text is filled per tuple; an answer's own variables are
    # named in text order, as rendering the rebuilt full answer names them
    store = SubgoalStore()
    e, _ = register_subgoal(store, Struct("p", [Var(5), Struct("f", [Var(6), Var(5)])]))
    insert_answer(e, (Struct("g", [Var(7), Var(8), Var(7)]), "b"))
    insert_answer(e, ("a", Var(9)))
    insert_answer(e, ("a%", 1))
    full = [render(a) for a in e.answers]
    assert full == ["p(g(_G0,_G1,_G0),f(b,g(_G0,_G1,_G0)))", "p(a,f(_G0,a))", "p(a%,f(1,a%))"]
    assert dump(store) == f"p(_G0,f(_G1,_G0))  state=incomplete answers=[{','.join(full)}] old=0 prev=0"
