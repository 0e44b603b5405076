"""Static analysis: call graph, level mapping, rule annotations."""

import os
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import given, settings

import lintab
import lintab.corpus as corpus
from lintab.analysis import (
    analyze,
    atomic_key,
    build_call_graph,
    level_mapping,
    pred_key,
    verify_level_mapping,
)
from lintab.parser import Clause, TableDeclaration, parse_program
from lintab.terms import Atom, Integer, Struct, Var


def _clauses(text):
    return [i for i in parse_program(text) if isinstance(i, Clause)]


def test_call_graph_edges():
    g = build_call_graph(_clauses("p(X) :- q(X), r(X).\nq(X) :- p(X).\nr(a).\n"))
    assert {(p, q) for p, succs in g.items() for q in succs} == {
        (("p", 1), ("q", 1)),
        (("p", 1), ("r", 1)),
        (("q", 1), ("p", 1)),
    }


def test_level_mapping_stratifies():
    cs = _clauses(corpus.LEFT_RECURSIVE_TC)
    levels = level_mapping(build_call_graph(cs))
    assert levels[("p", 2)] == 1
    assert levels[("e", 2)] == 0
    assert verify_level_mapping(cs, levels)


def test_level_mapping_mutual_recursion_same_level():
    cs = _clauses(corpus.FRESH_SUBGOAL_GUARD)
    levels = level_mapping(build_call_graph(cs))
    assert levels[("p", 2)] == levels[("q", 2)]
    assert levels[("t", 2)] < levels[("p", 2)]
    assert verify_level_mapping(cs, levels)


def test_level_mapping_verifier_rejects_wrong_levels():
    cs = _clauses(corpus.LEFT_RECURSIVE_TC)
    assert not verify_level_mapping(cs, {("p", 2): 0, ("e", 2): 0})
    assert not verify_level_mapping(cs, {("p", 2): 0, ("e", 2): 1})


def _tabled_goals(prog, rule):
    return tuple(prog.is_tabled(pred_key(g)) for g in rule.clause.body)


def test_annotations_left_recursive_tc():
    prog = analyze(parse_program(corpus.LEFT_RECURSIVE_TC))
    rec, base = prog.rules[("p", 2)]
    assert rec.last_depending_index == 0
    assert _tabled_goals(prog, rec) == (True, False)
    assert base.last_depending_index is None
    assert prog.is_tabled(("p", 2)) and not prog.is_tabled(("e", 2))


def test_annotation_untabled_helper_blocks_gate():
    # the last depending body goal is the non-tabled helper q, so no call
    # site in the matcher rules is a gated tabled consumer
    prog = analyze(parse_program(corpus.STRING_MATCHER_UNTABLED_STEP + "c(0,a,1).\n"))
    rec = [r for r in prog.rules[("p", 2)] if r.last_depending_index is not None]
    assert len(rec) == 2
    for r in rec:
        assert pred_key(r.clause.body[r.last_depending_index]) == ("q", 2)
    assert not prog.is_tabled(("q", 2))
    # whereas the directly-tabled twin gates its first body goal
    prog2 = analyze(parse_program(corpus.STRING_MATCHER + "c(0,a,1).\n"))
    gated = [
        r
        for r in prog2.rules[("p", 2)]
        if r.last_depending_index == 0 and _tabled_goals(prog2, r)[0]
    ]
    assert len(gated) == 2


def test_annotation_mutual_recursion_kinds():
    prog = analyze(parse_program(corpus.FRESH_SUBGOAL_GUARD))
    rules = prog.rules[("p", 2)]
    # p(X,Y) :- p(X,Z), q(Z,Y): q is the last depending goal and tabled
    assert rules[0].last_depending_index == 1
    assert _tabled_goals(prog, rules[0]) == (True, True)
    # p(b,c) :- p(X,Y): single depending goal
    assert rules[1].last_depending_index == 0
    assert _tabled_goals(prog, rules[1]) == (True,)
    # p(a,b): base
    assert rules[2].last_depending_index is None


def test_strategy_resolution():
    prog = analyze(parse_program(":- table p/1 eager.\n:- table q/1.\np(a).\nq(a).\n"))
    assert prog.strategy(("p", 1), "lazy") == "eager"
    assert prog.strategy(("q", 1), "lazy") == "lazy"
    assert prog.strategy(("q", 1), "eager") == "eager"


def test_duplicate_declarations_later_explicit_wins():
    prog = analyze(parse_program(":- table p/1.\n:- table p/1 eager.\np(a).\n"))
    assert prog.tabled[("p", 1)] == "eager"


def test_declared_predicate_without_clauses():
    prog = analyze(parse_program(":- table p/2.\nq(a).\n"))
    assert prog.is_tabled(("p", 2))
    assert prog.rules_for(("p", 2), None) == ()


def test_first_argument_indexing_buckets():
    prog = analyze(parse_program("e(a,b).\ne(b,c).\ne(X,X).\n"))
    names = lambda rs: [r.clause.head.args[0] for r in rs]
    from lintab.terms import Atom, Var

    assert names(prog.rules_for(("e", 2), ("a", "a"))) == [Atom("a"), Var(0)]
    assert names(prog.rules_for(("e", 2), ("a", "zzz"))) == [Var(0)]
    assert len(prog.rules_for(("e", 2), None)) == 3


HEAD_ARGS = st.one_of(
    st.sampled_from(["a", "b", "0"]).map(Atom),
    st.integers(0, 2).map(Integer),
    st.integers(0, 1).map(Var),
    st.sampled_from("ab").map(lambda n: Struct("f", [Atom(n)])),
)
# every key the heads can hold, plus keys no head holds
CALL_KEYS = [Atom(n) for n in ("a", "b", "0", "zz")] + [Integer(v) for v in range(4)]


@given(st.lists(st.lists(HEAD_ARGS, min_size=3, max_size=3), max_size=8))
@settings(max_examples=300)
def test_indexed_lookup_is_the_ordered_filter(heads):
    prog = analyze([Clause(Struct("p", args), (), 2) for args in heads])
    key = ("p", 3)
    rules = prog.rules_for(key)
    for pos in range(3):
        for k in CALL_KEYS:
            want = [
                r
                for r in rules
                if not (
                    type(r.clause.head.args[pos]) in (Atom, Integer)
                    and r.clause.head.args[pos] != k
                )
            ]
            got = prog.rules_for(key, atomic_key(k), pos)
            assert [id(r) for r in got] == [id(r) for r in want]
    distinct = [{a for a in col if type(a) in (Atom, Integer)} for col in zip(*heads)]
    assert list(prog.index_plan(key)) == sorted(
        (pos for pos, ks in enumerate(distinct) if ks),
        key=lambda pos: (-len(distinct[pos]), pos),
    )


def test_report_format_and_determinism():
    text = corpus.LEFT_RECURSIVE_TC
    rep = analyze(parse_program(text)).report()
    assert rep == analyze(parse_program(text)).report()
    lines = rep.splitlines()
    assert "e/2 level=0" in lines
    assert "p/2 level=1" in lines
    assert "  rule#0 last_depending=0 base=false" in lines
    assert "  rule#1 last_depending=none base=true" in lines


def _reference_levels(nodes, edges):
    """Levels by definition: reachability, mutual reachability, longest path."""
    succs = {n: {q for p, q in edges if p == n} for n in nodes}
    reach = {}
    for n in nodes:
        seen, todo = {n}, [n]
        while todo:
            for q in succs[todo.pop()]:
                if q not in seen:
                    seen.add(q)
                    todo.append(q)
        reach[n] = seen
    scc = {n: {m for m in nodes if m in reach[n] and n in reach[m]} for n in nodes}
    level = dict.fromkeys(nodes, 0)
    for _ in nodes:  # the longest path between SCCs has fewer steps than nodes
        for n in nodes:
            level[n] = max(
                [1 + level[q] for m in scc[n] for q in succs[m] if q not in scc[n]],
                default=0,
            )
    return level


PREDS = [f"p{k}" for k in range(7)]


@given(
    st.lists(
        st.tuples(
            st.sampled_from(PREDS), st.lists(st.sampled_from(PREDS), max_size=3)
        ),
        max_size=10,
    ),
    st.lists(st.sampled_from(PREDS + ["d0", "d1"]), max_size=3),
)
@settings(max_examples=300)
def test_level_mapping_matches_reference(rules, declared):
    clauses = [
        Clause(Atom(head), tuple(Atom(g) for g in body), 0) for head, body in rules
    ]
    decls = [TableDeclaration(name, 0) for name in declared]
    nodes = {(name, 0) for name in declared}
    for head, body in rules:
        nodes |= {(head, 0)} | {(g, 0) for g in body}
    edges = {((head, 0), (g, 0)) for head, body in rules for g in body}
    want = _reference_levels(sorted(nodes), edges)
    assert analyze(clauses + decls).levels == want
    graph = build_call_graph(clauses)
    assert {(p, q) for p, succs in graph.items() for q in succs} == edges
    levels = level_mapping(graph)
    assert levels == {n: want[n] for n in graph}
    assert verify_level_mapping(clauses, levels)


def test_import_does_not_load_networkx():
    src = str(Path(lintab.__file__).resolve().parent.parent)
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    code = "import sys, lintab; print('networkx' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    assert out.stdout.strip() == "False"
