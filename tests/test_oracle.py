"""Reference evaluator: fixpoint model, applicability, cross-checks."""

import pytest

import lintab.corpus as corpus
from lintab.analysis import pred_key
from lintab.corpus import random_instance
from lintab.oracle import (
    OracleInapplicable,
    answers_for_key,
    oracle_model,
    oracle_solve,
)
from lintab.parser import parse_program, parse_query


def test_transitive_closure_model():
    assert oracle_solve(corpus.LEFT_RECURSIVE_TC, "p(a,Y)") == {
        "p(a,b)",
        "p(a,c)",
    }
    assert oracle_solve(corpus.LEFT_RECURSIVE_TC, "p(X,Y)") == {
        "p(a,b)",
        "p(a,c)",
        "p(b,c)",
    }


def test_guard_program_model():
    want = {"p(a,b)", "p(b,c)", "p(b,d)"}
    assert oracle_solve(corpus.FRESH_SUBGOAL_GUARD, "p(X,Y)") == want
    assert oracle_solve(corpus.FRESH_SUBGOAL_GUARD_REORDERED, "p(X,Y)") == want


def test_conjunctive_queries():
    assert oracle_solve(corpus.TWO_FACT_SELF_JOIN, "p(X),p(Y)") == {
        f"p({i}),p({j})" for i in (1, 2) for j in (1, 2)
    }


def test_nontabled_predicates_also_evaluated():
    text = ":- table p/2.\np(X,Y) :- q(X,Z), e(Z,Y).\nq(a,b).\ne(b,c).\n"
    assert oracle_solve(text, "p(X,Y)") == {"p(a,c)"}
    assert oracle_solve(text, "q(X,Y)") == {"q(a,b)"}


def test_matcher_base_rule_outside_fragment():
    # the matcher's open base case is not range-restricted; the oracle
    # must refuse rather than guess
    text, query = corpus.string_matcher_program(4)
    with pytest.raises(OracleInapplicable):
        oracle_solve(text, query)


def test_chain_closure_count():
    text, query = random_instance(1, "tcl", "chain", 4)
    assert len(oracle_solve(text, query)) == 6  # n(n-1)/2


def test_random_instance_deterministic():
    a = random_instance(7, "sg", "cycle", 3)
    b = random_instance(7, "sg", "cycle", 3)
    assert a == b
    c = random_instance(8, "tcl", "random", 10, 25)
    d = random_instance(8, "tcl", "random", 10, 25)
    assert c == d


def test_rejects_non_range_restricted():
    with pytest.raises(OracleInapplicable):
        oracle_solve("p(X,Y) :- q(X).\nq(a).\n", "p(X,Y)")
    with pytest.raises(OracleInapplicable):
        oracle_solve("p(X,X).\n", "p(X,Y)")


def test_answers_for_key_uses_subsumption():
    model = oracle_model(parse_program(corpus.LEFT_RECURSIVE_TC))
    key = parse_query("p(a,Y)")[0][0]
    got = {str(f) for f in answers_for_key(model, key)}
    assert got == {"p(a,b)", "p(a,c)"}


def test_fixpoint_matches_matrix_power_closure():
    # independent cross-check: reachability via boolean matrix powers
    n, m, seed = 10, 25, 3
    text, query = random_instance(seed, "tcl", "random", n, m)
    sols = oracle_solve(text, query)

    nodes = range(n + 1)
    adj = [[False] * (n + 1) for _ in nodes]
    from lintab.parser import Clause

    for item in parse_program(text):
        if isinstance(item, Clause) and not item.body and pred_key(item.head) == ("edge", 2):
            i, j = item.head.args
            adj[i][j] = True
    closure = adj
    for _ in range(n):  # closure | closure @ adj, a boolean matrix product
        closure = [
            [closure[i][j] or any(closure[i][k] and adj[k][j] for k in nodes) for j in nodes]
            for i in nodes
        ]
    want = {
        f"tcl({i},{j})"
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if closure[i][j]
    }
    assert sols == want


def test_iteration_bound_holds_on_corpus():
    # just exercising the internal bound assertion on several programs
    for text in (
        corpus.LEFT_RECURSIVE_TC,
        corpus.FRESH_SUBGOAL_GUARD,
        corpus.SELF_FEEDING_PAIR,
    ):
        oracle_model(parse_program(text))


def test_oracle_imports_only_the_term_and_parser_layers():
    # the oracle stays an independent reference: no engine, table,
    # analysis, corpus or generator code
    import ast
    from pathlib import Path

    import lintab.oracle

    tree = ast.parse(Path(lintab.oracle.__file__).read_text())
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:  # from .x import ...
            used |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            assert all(name.split(".")[0] != "lintab" for name in names)
    assert used == {"parser", "terms"}
