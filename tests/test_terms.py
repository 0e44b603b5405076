"""Term layer: unification, canonicalization, variance, rendering."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from lintab.terms import (
    Record,
    Struct,
    Var,
    canonicalize,
    deref,
    is_ground,
    iter_subterms,
    render,
    Template,
    render_goals,
    render_solutions,
    renumber,
    undo,
    unify,
    variables,
)


def subsumes(t1, t2):
    """One-way matching: does a substitution theta exist with t1*theta == t2?

    t2's variables are treated as constants; t1 and t2 must not share
    variables.
    """
    theta = {}

    def match(a, c):
        ta = type(a)
        if ta is Var:
            bound = theta.get(a.id)
            if bound is None:
                theta[a.id] = c
                return True
            return bound == c
        if ta is not type(c):
            return False
        if ta is not Struct:
            return a == c
        return (
            a.functor == c.functor
            and len(a.args) == len(c.args)
            and all(match(x, y) for x, y in zip(a.args, c.args))
        )

    return match(t1, t2)


def resolve(t, m):
    """t with the binding map m applied fully: a standalone copy to compare
    by equality."""
    t = deref(t, m)
    if type(t) is Struct:
        return Struct(t.functor, [resolve(a, m) for a in t.args])
    return t


def is_variant(t1, t2):
    """True iff t1 and t2 are identical up to variable renaming."""
    return canonicalize(t1) == canonicalize(t2)


def snapshot(m):
    """A copy of the binding map m."""
    return dict(m)


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
    m, trail = {}, []
    assert unify(Struct("f", [Var(0), "a"]), Struct("f", ["b", Var(1)]), m, trail)
    assert deref(Var(0), m) == "b"
    assert deref(Var(1), m) == "a"


def test_unify_failure_rolls_back():
    m, trail = {}, []
    t1 = Struct("f", [Var(0), "a"])
    t2 = Struct("f", ["b", "c"])
    before = snapshot(m)
    assert not unify(t1, t2, m, trail)
    assert snapshot(m) == before


def test_unify_occurs_check():
    # X = f(X), directly and through an earlier binding, would be cyclic
    m, trail = {}, []
    assert not unify(Var(0), Struct("f", [Var(0)]), m, trail)
    x, y = Var(0), Var(100)
    assert not unify(Struct("g", [x, x]), Struct("g", [y, Struct("f", [y])]), m, trail)
    assert snapshot(m) == {}


def test_trail_undo_restores_snapshot():
    m, trail = {}, []
    unify(Var(0), "a", m, trail)
    snap = snapshot(m)
    mark = len(trail)
    unify(Var(1), Struct("f", [Var(2)]), m, trail)
    unify(Var(2), 3, m, trail)
    undo(m, trail, mark)
    assert snapshot(m) == snap


@given(terms(), terms())
@settings(max_examples=300)
def test_unify_produces_common_instance(t1, t2):
    t2 = renumber(t2, 100)  # rename apart
    m, trail = {}, []
    if unify(t1, t2, m, trail):
        assert resolve(t1, m) == resolve(t2, m)
    else:
        assert snapshot(m) == {}


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


def _nested(depth, leaf):
    """f(f(...f(leaf)...)), depth levels of f."""
    for _ in range(depth):
        leaf = Struct("f", [leaf])
    return leaf


@pytest.mark.parametrize(
    "t,want",
    [
        (Struct("f", [Var(7), Var(9), Var(7)]), "f(_G0,_G1,_G0)"),
        # the layout takes one frame per nesting level
        (_nested(900, Var(7)), "f(" * 900 + "_G0" + ")" * 900),
    ],
    ids=["flat", "nested_900_deep"],
)
def test_render_unbound_naming(t, want):
    assert render(t) == want
    tmpl = Template([t])
    assert tmpl.fill(tmpl.vars) == want


def test_render_goals_shares_names():
    out = render_goals([Struct("p", [Var(3)]), Struct("q", [Var(3), Var(5)])])
    assert out == "p(_G0),q(_G0,_G1)"


def test_render_through_bindings():
    m, trail = {}, []
    unify(Var(0), Struct("f", [1, Var(2)]), m, trail)
    assert render(Var(0), m) == "f(1,_G0)"


@given(terms())
@settings(max_examples=200)
def test_render_parses_back_to_variant(t):
    from lintab.parser import parse_query

    goal = Struct("wrap", [t])
    parsed, _ = parse_query(render(goal))
    assert is_variant(goal, parsed[0])


FLAT = st.one_of(st.integers(0, 3).map(Var), st.sampled_from("ab"), st.integers(0, 2))


def _bound(pre):
    """A binding map and trail holding pre's pairs, each bound through
    unify (so never cyclic); a pair that does not unify is skipped."""
    m, trail = {}, []
    for vid, t in pre:
        unify(Var(vid), t, m, trail)
    return m, trail


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
    m, trail = _bound(pre)
    before = (dict(m), list(trail))
    head = renumber(head, 100)
    assert unify(call, head, m, trail) == ok
    if ok:
        assert resolve(call, m) == resolve(head, m)
    else:
        assert (m, trail) == before


@given(
    st.lists(st.one_of(FLAT, terms()), max_size=4),
    st.lists(st.tuples(st.integers(0, 3), terms()), max_size=4),
)
@settings(max_examples=200)
def test_canonicalize_tuple_under_bindings(tup, pre):
    # a tuple's elements are numbered as one sequence, under the bindings
    tup = tuple(tup)
    m, _ = _bound(pre)
    resolved = tuple(resolve(a, m) for a in tup)
    got = canonicalize(tup, m)
    assert got == canonicalize(resolved)
    # as the arguments of one compound are
    assert got == (canonicalize(Struct("t", resolved)).args if tup else ())


def _walk_render(t, m, names):
    """A term's text by a walk of its own, independent of the Template
    that render fills: the reference for render, render_goals and fill."""
    t = deref(t, m)
    if type(t) is Var:
        return names.setdefault(t.id, f"_G{len(names)}")
    if type(t) is not Struct:
        return str(t)
    return f"{t.functor}({','.join(_walk_render(a, m, names) for a in t.args)})"


def _walk_render_goals(goals, m=None):
    """render_goals as a walk over every goal, kept as the reference for
    the Template it fills."""
    names = {}
    return ",".join(_walk_render(g, m or {}, names) for g in goals)


# query goals: atoms (arity 0) and compounds over constants, negative
# integers, "%" in names, and variables 0..3, repeated and nested
QUERY_LEAF = st.one_of(FLAT, st.integers(-3, -1), st.sampled_from(["%", "b%s"]))
GOALS = st.lists(
    st.one_of(
        st.sampled_from(["go", "%d"]),
        st.builds(Struct, st.sampled_from(["p", "q%"]), st.lists(st.one_of(QUERY_LEAF, terms()), min_size=1, max_size=3)),
    ),
    min_size=1,
    max_size=3,
)


@given(GOALS, st.lists(st.tuples(st.integers(0, 3), st.one_of(QUERY_LEAF, terms())), max_size=4))
@settings(max_examples=400)
def test_render_equals_an_independent_walk(goals, pre):
    # flat and general goals, unbound and under bindings: chains, a
    # variable bound to another query variable (pre binds variables 0..3
    # to terms over 0..3) and compounds holding bound and unbound ones
    m, _ = _bound(pre)
    t = Template(goals)
    assert t.vars == tuple(map(Var, variables(tuple(goals))))
    # one hole per variable occurrence, in text order
    occurrences = [u.id for g in goals for u in iter_subterms(g) if type(u) is Var]
    assert [t.vars[k].id for k in t.holes] == occurrences
    for binding in (m, None):
        want = _walk_render_goals(goals, binding)
        assert t.fill(t.vars, binding) == want
        assert render_goals(goals, binding) == want
        assert [render(g, binding) for g in goals] == [_walk_render(g, binding or {}, {}) for g in goals]


@pytest.mark.parametrize(
    "goals,m,want",
    [
        # the atom "0" and the integer 0 print alike
        ([Struct("p", ["0", 0])], None, "p(0,0)"),
        ([Struct("p", [-3, Var(0)])], {0: -1}, "p(-3,-1)"),
        # a variable chain ending in a constant
        ([Struct("p", [Var(0), "a"])], {0: Var(1), 1: Var(2), 2: "b"}, "p(b,a)"),
        # a variable bound to a compound is filled through its own Template
        ([Struct("p", [Var(0)])], {0: Struct("f", [Var(1), 2])}, "p(f(_G0,2))"),
        # a flat goal names no variable, so the next goal's is _G0
        ([Struct("p", [Var(0)]), Struct("q", [Var(1), Var(2), Var(1)])], {0: "a"}, "p(a),q(_G0,_G1,_G0)"),
        ([Var(5)], {5: Struct("r", [1, "x"])}, "r(1,x)"),
        # a repeated variable fills each of its holes
        ([Struct("p", [Var(0), Var(1), Var(0)])], {0: -2}, "p(-2,_G0,-2)"),
        # X bound to the query variable Y: both holes print Y's name
        ([Struct("p", [Var(0), Var(1)])], {0: Var(1)}, "p(_G0,_G0)"),
        # names are given in text order, across goals and inside compounds
        (["go", Struct("p", [Var(2), Struct("f", [Var(0), 1])]), Struct("q", [Var(0)])], {2: Struct("g", [Var(7)])},
         "go,p(g(_G0),f(_G1,1)),q(_G1)"),
        # "%" in a functor or constant is text, not a format directive
        ([Struct("q%", ["%s", Var(0)])], {0: "%d"}, "q%(%s,%d)"),
        (["halt"], None, "halt"),
    ],
)
def test_render_cases(goals, m, want):
    t = Template(goals)
    assert t.fill(t.vars, m) == want
    assert render_goals(goals, m) == want
    assert _walk_render_goals(goals, m) == want


def _renamed_apart_solutions(goals, solutions):
    """render_solutions as a walk: each value tuple's variables renamed
    apart from the goals' and bound to them, kept as the reference."""
    ids = variables(tuple(goals))
    off = max(ids, default=-1) + 1
    return [_walk_render_goals(goals, dict(zip(ids, renumber(values, off)))) for values in solutions]


@given(GOALS, st.data())
@settings(max_examples=300)
def test_render_solutions_equals_renaming_apart(goals, data):
    # canonical value tuples may share variables, and their ids overlap
    # the goals' own: (f(_0), _0) for p(X,Y) gives p(f(_G0),_G0)
    n = len(variables(tuple(goals)))
    tuples = data.draw(st.lists(st.tuples(*[st.one_of(QUERY_LEAF, terms())] * n), max_size=3))
    solutions = [canonicalize(values) for values in tuples]
    assert list(render_solutions(goals, solutions)) == _renamed_apart_solutions(goals, solutions)


@pytest.mark.parametrize(
    "goals,values,want",
    [
        ([Struct("p", [Var(0), Var(1)])], (Struct("f", [Var(0)]), Var(0)), "p(f(_G0),_G0)"),
        ([Struct("p", [Var(1), Var(0), Var(1)])], (Var(0), Var(1)), "p(_G0,_G1,_G0)"),
        ([Struct("p", [Var(3), "a"]), Struct("q", [Var(3)])], (-1,), "p(-1,a),q(-1)"),
        (["go"], (), "go"),
    ],
)
def test_render_solutions_cases(goals, values, want):
    assert list(render_solutions(goals, [values])) == [want]
    assert _renamed_apart_solutions(goals, [values]) == [want]


class Pair(Record):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


class OtherPair(Record):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


def test_record_is_a_value_of_its_own_type():
    p = Pair("a", 1)
    assert p == Pair("a", 1) and hash(p) == hash(("a", 1)) and len({p, Pair("a", 1)}) == 1
    assert p != Pair("a", 2) and p != ("a", 1)
    # another record type with the same fields is another value
    assert p != OtherPair("a", 1) and OtherPair("a", 1) != p
    assert repr(p) == "Pair(left='a', right=1)"
