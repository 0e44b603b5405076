"""Parser: dialect grammar, variable numbering, error positions."""

import itertools
import re

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from lintab.parser import (
    Clause,
    ProgramSyntaxError,
    TableDeclaration,
    parse_program,
    parse_query,
)
from lintab.terms import Struct, Var


def test_fact_and_rule():
    items = parse_program("e(a,b).\np(X,Y) :- p(X,Z), e(Z,Y).\n")
    fact, rule = items
    assert fact == Clause(Struct("e", ["a", "b"]), (), 0)
    assert rule.head == Struct("p", [Var(0), Var(1)])
    assert rule.body == (
        Struct("p", [Var(0), Var(2)]),
        Struct("e", [Var(2), Var(1)]),
    )
    assert rule.nvars == 3


def test_variable_ids_first_occurrence_per_clause():
    a, b = parse_program("p(X,Y,X).\nq(Y,X).\n")
    assert a.head == Struct("p", [Var(0), Var(1), Var(0)])
    # numbering restarts per clause
    assert b.head == Struct("q", [Var(0), Var(1)])


def test_underscore_always_fresh():
    (c,) = parse_program("p(_,_,X,_).")
    args = c.head.args
    assert len({v.id for v in args}) == 4
    assert c.nvars == 4


def test_table_declaration_default_and_strategies():
    items = parse_program(":- table p/2.\n:- table q/1 eager.\n:- table r/3 lazy.\n")
    assert items == [
        TableDeclaration("p", 2, None),
        TableDeclaration("q", 1, "eager"),
        TableDeclaration("r", 3, "lazy"),
    ]


def test_integers_including_negative():
    (c,) = parse_program("p(0,-5,42).")
    assert c.head == Struct("p", [0, -5, 42])


def test_atom_goal_bodies():
    (c,) = parse_program("p :- q, r(a).")
    assert c.head == "p"
    assert c.body == ("q", Struct("r", ["a"]))


def test_comments_ignored():
    items = parse_program("% leading\np(a). % trailing\n% done\n")
    assert len(items) == 1


def test_parse_query_counts_vars():
    goals, nvars = parse_query("p(X,Y), q(Y,Z)")
    assert len(goals) == 2 and nvars == 3
    assert goals[0] == Struct("p", [Var(0), Var(1)])
    # an optional terminating period is accepted
    assert parse_query("p(X).")[0] == [Struct("p", [Var(0)])]


def test_error_positions():
    with pytest.raises(ProgramSyntaxError) as e:
        parse_program("p(a)\nq(b).")
    assert e.value.line == 2 and "expected" in str(e.value)
    with pytest.raises(ProgramSyntaxError) as e:
        parse_program("p(a,).")
    assert e.value.line == 1 and e.value.col == 5
    with pytest.raises(ProgramSyntaxError):
        parse_program("p($).")
    with pytest.raises(ProgramSyntaxError):
        parse_program(":- table p/X.")
    with pytest.raises(ProgramSyntaxError):
        parse_query("p(X), ")


# (text, message, line, column), each recorded before the parser read
# constant and variable arguments in place
SYNTAX_ERRORS = [
    ("e(a b).", "expected ')', found 'b'", 1, 5),
    ("e(a,).", "expected a term", 1, 5),
    ("e(,a).", "expected a term", 1, 3),
    ("e(a,b", "expected ')', found 'end of input'", 1, 6),
    ("e(a,b)", "expected '.', found 'end of input'", 1, 7),
    ("e(a,b) q.", "expected '.', found 'q'", 1, 8),
    ("e(a,b) :- .", "expected a term", 1, 11),
    ("e(a,b) :- f(X,.", "expected a term", 1, 15),
    ("e(a(b,c).", "expected ')', found '.'", 1, 9),
    ("e(a)).", "expected '.', found ')'", 1, 5),
    (":- table e/2 lazy", "expected '.', found 'end of input'", 1, 18),
    ("e(-,a).", "unexpected character '-'", 1, 3),
    ("e(a,$).", "unexpected character '$'", 1, 5),
    ("e(a,b).\np(X) :- e(X,Y).\nq(X :- p(X).\n", "expected ')', found ':-'", 3, 5),
    ("e(a,b).\n% note\n  p(X) :- e(X, Y) Z.\n", "expected '.', found 'Z'", 3, 19),
    ("p(X) :- q(X), .", "expected a term", 1, 15),
    ("e(a,b) :- 7.", "goal must be an atom or compound", 1, 11),
    ("p((a)).", "expected a term", 1, 3),
]


@pytest.mark.parametrize("text, message, line, col", SYNTAX_ERRORS)
def test_syntax_error_message_line_and_column(text, message, line, col):
    with pytest.raises(ProgramSyntaxError) as e:
        parse_program(text)
    assert str(e.value) == f"{message} at line {line}, column {col}"
    assert (e.value.line, e.value.col) == (line, col)


def test_clause_is_a_value():
    c = Clause(Struct("e", ["a", 1]), (Struct("q", [Var(0)]),), 1)
    same = Clause(Struct("e", ["a", 1]), (Struct("q", [Var(0)]),), 1)
    assert c == same and hash(c) == hash(same) and len({c, same}) == 1
    assert c != Clause(Struct("e", ["a", 1]), (Struct("q", [Var(0)]),), 2)
    assert c != Clause(Struct("e", ["a", 2]), (Struct("q", [Var(0)]),), 1)
    assert repr(c) == "Clause(head=e(a,1), body=(q(_0),), nvars=1)"
    assert Clause("go", (), 0) == parse_program("go.")[0]
    for head in (5, Var(0)):
        with pytest.raises(ValueError, match="clause head must be an atom or compound"):
            Clause(head, (), 0)


def test_table_declaration_is_a_frozen_value():
    d = TableDeclaration("p", 2, "eager")
    same = TableDeclaration("p", 2, "eager")
    assert d == same and hash(d) == hash(same) and len({d, same}) == 1
    assert d != TableDeclaration("p", 2) and d != TableDeclaration("q", 2, "eager")
    assert d != ("p", 2, "eager")
    assert TableDeclaration("p", 2).strategy is None
    assert repr(d) == "TableDeclaration(name='p', arity=2, strategy='eager')"
    with pytest.raises(AttributeError):
        d.arity = 3
    with pytest.raises(AttributeError):
        del d.name
    assert (d.name, d.arity, d.strategy) == ("p", 2, "eager")


def test_head_must_be_callable():
    with pytest.raises(ProgramSyntaxError):
        parse_program("5 :- p(a).")
    with pytest.raises(ProgramSyntaxError):
        parse_program("X :- p(a).")


def test_goal_must_be_callable():
    with pytest.raises(ProgramSyntaxError):
        parse_program("p(a) :- 7.")
    with pytest.raises(ProgramSyntaxError):
        parse_query("X")


def deep_term(depth: int) -> str:
    return "f(" * depth + "a" + ")" * depth


def test_deeply_nested_term_is_a_syntax_error():
    text = f"p({deep_term(2000)}).\n"
    for parse in (parse_program, parse_query):
        with pytest.raises(ProgramSyntaxError, match="term nested too deeply"):
            parse(text)


def test_stray_is_reported_before_nesting_depth():
    with pytest.raises(ProgramSyntaxError) as e:
        parse_program(f"p({deep_term(2000)}).\nq($).\n")
    assert "unexpected character '$'" in str(e.value)
    assert (e.value.line, e.value.col) == (2, 3)


def test_duplicate_declarations_parse():
    items = parse_program(":- table p/2.\n:- table p/2 eager.\n")
    assert [i.strategy for i in items] == [None, "eager"]


# Random programs for the property tests below: abstract terms are rendered
# to text with random layout, and the expected items are built from the same
# terms with variables numbered in first-occurrence order per clause.

IDENT_REST = st.text("aZ9_", max_size=3)
NAMES = st.builds(str.__add__, st.sampled_from("abpqz"), IDENT_REST)
VAR_NAMES = st.builds(str.__add__, st.sampled_from("XY_"), IDENT_REST)
TERMS = st.recursive(
    st.one_of(
        st.tuples(st.just("atom"), NAMES),
        st.tuples(st.just("int"), st.integers(-1000, 1000)),
        st.tuples(st.just("var"), VAR_NAMES),
    ),
    lambda sub: st.tuples(
        st.just("struct"), NAMES, st.lists(sub, min_size=1, max_size=3)
    ),
    max_leaves=6,
)
CALLABLE = st.one_of(
    st.tuples(st.just("atom"), NAMES),
    st.tuples(st.just("struct"), NAMES, st.lists(TERMS, min_size=1, max_size=3)),
)
CLAUSES = st.tuples(st.just("clause"), CALLABLE, st.lists(CALLABLE, max_size=3))
DECLARATIONS = st.tuples(
    st.just("table"),
    NAMES,
    st.integers(0, 12),
    st.sampled_from([None, "lazy", "eager"]),
)
SEPARATORS = st.sampled_from(["", " ", "\n", "\t ", "  % note: $ , . :- X\n"])


def _tokens(t):
    if t[0] == "struct":
        yield t[1]
        yield "("
        for k, arg in enumerate(t[2]):
            if k:
                yield ","
            yield from _tokens(arg)
        yield ")"
    else:
        yield str(t[1])


def _item_tokens(item):
    if item[0] == "table":
        _, name, arity, strategy = item
        # "table" and the name need a space between them
        toks = [":-", "table ", name, "/", str(arity)]
        return toks + ([" " + strategy] if strategy else []) + ["."]
    _, head, body = item
    toks = list(_tokens(head))
    for k, goal in enumerate(body):
        toks.append(":-" if k == 0 else ",")
        toks.extend(_tokens(goal))
    return toks + ["."]


def _expected(item):
    if item[0] == "table":
        return TableDeclaration(item[1], item[2], item[3])
    ids = {}
    fresh = itertools.count()

    def term(t):
        kind = t[0]
        if kind in ("atom", "int"):
            return t[1]
        if kind == "struct":
            return Struct(t[1], [term(a) for a in t[2]])
        if t[1] == "_":
            return Var(next(fresh))
        if t[1] not in ids:
            ids[t[1]] = next(fresh)
        return Var(ids[t[1]])

    head = term(item[1])
    body = tuple(term(g) for g in item[2])
    return Clause(head, body, next(fresh))


@st.composite
def programs(draw):
    items = draw(st.lists(st.one_of(CLAUSES, DECLARATIONS), max_size=5))
    text = draw(SEPARATORS)
    for item in items:
        for tok in _item_tokens(item):
            text += tok + draw(SEPARATORS)
    return items, text


@given(programs())
@settings(max_examples=150)
def test_round_trip(program):
    items, text = program
    assert parse_program(text) == [_expected(i) for i in items]


@given(programs(), st.data())
@settings(max_examples=150)
def test_stray_character_position(program, data):
    _, text = program
    inside = set()  # offsets where an inserted character joins a comment
    for m in re.finditer(r"%[^\n]*", text):
        inside.update(range(m.start() + 1, m.end() + 1))
    # after ':' or '-' the scan would stop at that character instead
    offsets = [
        k
        for k in range(len(text) + 1)
        if k not in inside and not (k and text[k - 1] in ":-")
    ]
    k = data.draw(st.sampled_from(offsets))
    stray = data.draw(st.sampled_from("$#é²"))  # no token starts with these
    with pytest.raises(ProgramSyntaxError) as e:
        parse_program(text[:k] + stray + text[k:])
    assert f"unexpected character {stray!r}" in str(e.value)
    assert e.value.line == text.count("\n", 0, k) + 1
    assert e.value.col == k - text.rfind("\n", 0, k)
