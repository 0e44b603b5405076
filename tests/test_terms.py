"""Term layer: unification, canonicalization, variance, rendering."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from lintab.terms import (
    Bindings,
    Struct,
    Var,
    canonicalize,
    is_ground,
    is_variant,
    render,
    render_goals,
    renumber,
    resolve,
    subsumes,
    unify,
    variables,
)


def terms(max_vars=4, max_depth=3):
    leaves = st.one_of(
        st.integers(0, max_vars - 1).map(Var),
        st.sampled_from("abcd"),
        st.integers(-3, 3),
    )
    return st.recursive(
        leaves,
        lambda inner: st.builds(
            Struct,
            st.sampled_from("fgh"),
            st.lists(inner, min_size=1, max_size=3),
        ),
        max_leaves=8,
    )


def test_term_equality_and_hashing():
    assert Var(0) == Var(0) and Var(0) != Var(1)
    assert "a" == "a" and "a" != 1
    t = Struct("f", [Var(0), "a"])
    assert t == Struct("f", [Var(0), "a"])
    assert hash(t) == hash(Struct("f", [Var(0), "a"]))


def test_term_constructor_validation():
    with pytest.raises(ValueError):
        Struct("f", [])
    with pytest.raises(ValueError):
        Struct("", [Var(0)])


def test_unify_basic():
    b = Bindings()
    assert unify(Struct("f", [Var(0), "a"]), Struct("f", ["b", Var(1)]), b)
    assert b.deref(Var(0)) == "b"
    assert b.deref(Var(1)) == "a"


def test_unify_failure_rolls_back():
    b = Bindings()
    t1 = Struct("f", [Var(0), "a"])
    t2 = Struct("f", ["b", "c"])
    before = b.snapshot()
    assert not unify(t1, t2, b)
    assert b.snapshot() == before


def test_unify_occurs_check():
    # X = f(X), directly and through an earlier binding, would be cyclic
    b = Bindings()
    assert not unify(Var(0), Struct("f", [Var(0)]), b)
    x, y = Var(0), Var(100)
    assert not unify(Struct("g", [x, x]), Struct("g", [y, Struct("f", [y])]), b)
    assert len(b) == 0


def test_trail_undo_restores_snapshot():
    b = Bindings()
    unify(Var(0), "a", b)
    snap = b.snapshot()
    mark = b.mark()
    unify(Var(1), Struct("f", [Var(2)]), b)
    unify(Var(2), 3, b)
    b.undo(mark)
    assert b.snapshot() == snap


@given(terms(), terms())
@settings(max_examples=300)
def test_unify_produces_common_instance(t1, t2):
    t2 = renumber(t2, 100)  # rename apart
    b = Bindings()
    if unify(t1, t2, b):
        assert resolve(t1, b) == resolve(t2, b)
    else:
        assert len(b) == 0


@given(terms())
@settings(max_examples=300)
def test_canonicalize_idempotent(t):
    c = canonicalize(t)
    assert canonicalize(c) == c
    assert is_variant(t, c)


@given(terms())
def test_canonicalize_first_occurrence_order(t):
    ids = variables(canonicalize(t))
    assert ids == list(range(len(ids)))


@given(terms(), st.integers(1, 50))
def test_renumber_is_a_variant(t, off):
    assert is_variant(t, renumber(t, off))


@given(terms(), terms())
@settings(max_examples=500)
def test_variant_iff_mutual_subsumption(t1, t2):
    t2r = renumber(t2, 100)
    mutual = subsumes(t1, t2r) and subsumes(t2r, t1)
    # mutual one-way matching in both directions is exactly variance
    assert mutual == is_variant(t1, t2)


@given(terms())
def test_variant_reflexive(t):
    assert is_variant(t, t)
    assert subsumes(t, renumber(t, 100))


def test_subsumes_one_way():
    assert subsumes(Struct("f", [Var(0), Var(1)]), Struct("f", ["a", "b"]))
    assert not subsumes(Struct("f", ["a", "b"]), Struct("f", [Var(0), Var(1)]))
    # repeated variables must match equal subterms
    assert not subsumes(Struct("f", [Var(0), Var(0)]), Struct("f", ["a", "b"]))
    assert subsumes(Struct("f", [Var(0), Var(0)]), Struct("f", ["a", "a"]))


@given(terms())
def test_is_ground_matches_variables(t):
    assert is_ground(t) == (variables(t) == [])


def test_render_unbound_naming():
    t = Struct("f", [Var(7), Var(9), Var(7)])
    assert render(t) == "f(_G0,_G1,_G0)"


def test_render_goals_shares_names():
    out = render_goals([Struct("p", [Var(3)]), Struct("q", [Var(3), Var(5)])])
    assert out == "p(_G0),q(_G0,_G1)"


def test_render_through_bindings():
    b = Bindings()
    unify(Var(0), Struct("f", [1, Var(2)]), b)
    assert render(Var(0), b) == "f(1,_G0)"


@given(terms())
@settings(max_examples=200)
def test_render_parses_back_to_variant(t):
    from lintab.parser import parse_query

    goal = Struct("wrap", [t])
    parsed, _ = parse_query(render(goal))
    assert is_variant(goal, parsed[0])


FLAT = st.one_of(st.integers(0, 3).map(Var), st.sampled_from("ab"), st.integers(0, 2))


def _bound(pre):
    """A Bindings holding pre's pairs, each bound through unify (so never
    cyclic); a pair that does not unify is skipped."""
    b = Bindings()
    for vid, t in pre:
        unify(Var(vid), t, b)
    return b


@pytest.mark.parametrize(
    "call,head,pre,ok",
    [
        # q(A,A) against q(X,f(X)): the head's X meets A = f(X)
        (Struct("q", [Var(0), Var(0)]), Struct("q", [Var(0), Struct("f", [Var(0)])]), [], False),
        # p(A,f(A)) against p(X,X)
        (Struct("p", [Var(0), Struct("f", [Var(0)])]), Struct("p", [Var(0), Var(0)]), [], False),
        # r(A,B,B) against r(X,Y,X), with A pre-bound
        (
            Struct("r", [Var(0), Var(1), Var(1)]),
            Struct("r", [Var(0), Var(1), Var(0)]),
            [(0, Struct("g", [Var(2)]))],
            True,
        ),
    ],
)
def test_unify_with_renamed_clause_head(call, head, pre, ok):
    # a repeated head variable meets the occurs check, or a bound call variable
    b = _bound(pre)
    before = (dict(b._map), list(b._trail))
    head = renumber(head, 100)
    assert unify(call, head, b) == ok
    if ok:
        assert resolve(call, b) == resolve(head, b)
    else:
        assert (b._map, b._trail) == before


@given(
    st.lists(st.one_of(FLAT, terms()), max_size=4),
    st.lists(st.tuples(st.integers(0, 3), terms()), max_size=4),
)
@settings(max_examples=200)
def test_canonicalize_tuple_under_bindings(tup, pre):
    # a tuple whose elements deref to atoms and integers takes the flat path
    tup = tuple(tup)
    b = _bound(pre)
    resolved = tuple(resolve(a, b) for a in tup)
    got = canonicalize(tup, b)
    assert got == canonicalize(resolved)
    # a compound is always walked, so wrapping the tuple checks the flat path
    assert got == (canonicalize(Struct("t", resolved)).args if tup else ())
