"""Reference evaluator: fixpoint model, applicability, cross-checks."""

import pytest

import lintab.corpus as corpus
from lintab.analysis import pred_key
from lintab.bench import suite_instances
from lintab.corpus import random_instance
from lintab.oracle import (
    OracleInapplicable,
    _match,
    _substitute,
    answers_for_key,
    oracle_model,
    oracle_solve,
    oracle_values,
)
from lintab.parser import Clause, parse_program, parse_query
from lintab.terms import Struct, Var, render_goals, variables


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
    # each answer is the tuple of the key's variables' values, as the table stores it
    assert answers_for_key(model, key) == {("b",), ("c",)}


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


# The scan the argument-position index replaced, kept as a reference:
# every body goal reads every model fact of its predicate.
def _scan_match_body(goals, i, model, theta):
    if i == len(goals):
        yield theta
        return
    for fact in model.get(pred_key(goals[i]), ()):
        bound = []
        if _match(goals[i], fact, theta, bound):
            yield from _scan_match_body(goals, i + 1, model, theta)
        for vid in bound:
            del theta[vid]


def _scan_model(items):
    clauses = [i for i in items if isinstance(i, Clause)]
    model, seen, changed = {}, set(), True
    while changed:
        new_facts = []
        for c in clauses:
            for theta in _scan_match_body(c.body, 0, model, {}):
                fact = (pred_key(c.head), _substitute(c.head, theta))
                if fact not in seen:
                    seen.add(fact)
                    new_facts.append(fact)
        for hk, fact in new_facts:
            model.setdefault(hk, []).append(fact)
        changed = bool(new_facts)
    return model


def _fact(functor, *args):
    return Clause(Struct(functor, args), (), 0)


# One program per case the index must get right. The atom "0" and the
# integer 0 share a position; a goal bound to one must find only its own.
_ZERO_ATOM_VERSUS_INTEGER = [
    _fact("e", 0, "int"),
    _fact("e", "0", "atom"),
    _fact("k", 0),
    *parse_program("r(Y) :- k(X), e(X,Y).\n"),
    Clause(Struct("s", [Var(0)]), (Struct("e", ["0", Var(0)]),), 1),
]
_HAND_WRITTEN = [
    # a goal argument bound through theta to a ground compound
    "b(f(a)).\nb(f(b)).\nc(f(a)).\nc(g(a)).\nq(X) :- b(X), c(X).\n",
    # a non-ground compound pattern, alone and before a ground argument
    "s(f(a),1).\ns(f(b),2).\ns(g(a),1).\nt(Y) :- s(f(Y),Z).\nu(Y) :- s(f(Y),1).\n",
    # a repeated variable
    "e(1,1).\ne(1,2).\ne(2,1).\ne(2,2).\ne(3,1).\nl(X) :- e(X,X).\n"
    "m(X) :- e(X,Y), e(Y,X), e(X,X).\n",
    # a 0-arity body goal, and a body predicate with no facts
    "go.\ne(1,2).\np(X) :- go, e(X,Y).\nn(X) :- e(X,Y), none(Y).\nv(X) :- e(X,Y), stop.\n",
    # the semi-naive delta: two recursive goals in one body, each of which
    # may read the previous pass's facts
    "e(1,2).\ne(2,3).\ne(3,4).\ne(4,5).\ne(5,1).\np(X,Y) :- e(X,Y).\n"
    "p(X,Y) :- p(X,Z), p(Z,Y).\n",
    # two mutually recursive predicates joined in one body
    "e(1,2).\ne(2,3).\ne(3,1).\ne(3,4).\na(X,Y) :- e(X,Y).\na(X,Y) :- b(X,Z), a(Z,Y).\n"
    "b(X,Y) :- a(X,Z), e(Z,Y).\nc(X,Y) :- a(X,Z), b(Z,Y).\n",
    # a 0-arity derived goal, done, that first holds in pass 5, long after
    # e, the other goal of the bodies that read it, stopped changing
    "e(1,2).\ne(2,3).\ne(3,4).\nr(X,Y) :- e(X,Y).\nr(X,Y) :- r(X,Z), e(Z,Y).\n"
    "done :- r(1,4).\nq(X) :- e(X,Y), done.\nw(X) :- done, e(X,Y), e(Y,Z).\n",
    # a delta fact of an earlier goal joined with an older fact of the last
    # goal with delta facts
    "e(1,5).\nb(5).\nh(7).\na(X,Y) :- e(X,Y).\nb(X) :- h(X).\nc(X) :- a(X,Y), b(Y).\n",
    # a body whose only goal with delta facts comes first
    "e(1,2).\ne(2,3).\ne(3,4).\nf(2).\nf(4).\nt(X,Y) :- e(X,Y).\n"
    "t(X,Y) :- t(X,Z), e(Z,Y).\ns(X,Y) :- t(X,Y), e(Y,Z), f(Z).\n",
    # a variable that first occurs inside a compound argument and again as
    # a whole argument of the same goal, which checks it
    "s(f(1),1).\ns(f(1),2).\ns(f(3),3).\ns(g(2),2).\nh(X) :- s(f(X),X).\n",
    # a compound argument bound only by an earlier argument of the same
    # goal, which cannot be its index key; in w's second goal the compound
    # is bound by the first goal and is the key
    "t(1,f(1)).\nt(1,f(2)).\nt(2,f(2)).\nt(3,g(3)).\nq(X) :- t(X,f(X)).\n"
    "w(X,Y) :- t(Y,f(Y)), t(X,f(Y)).\n",
]


def _index_cases():
    for name, text, _ in suite_instances("paper-examples", [], 0):
        yield name, parse_program(text)
    for kind in ("tcl", "tcr", "tcn", "sg"):
        for graph in ("chain", "cycle", "random"):
            text, _ = random_instance(3, kind, graph, 7, 14 if graph == "random" else None)
            yield f"{kind}-{graph}", parse_program(text)
    for seed in range(60):
        yield f"mutual-{seed}", parse_program(corpus.mutual_recursion_program(seed)[0])
    yield "zero-atom-versus-integer", _ZERO_ATOM_VERSUS_INTEGER
    for i, text in enumerate(_HAND_WRITTEN):
        yield f"hand-{i}", parse_program(text)


def test_indexed_model_equals_the_scan():
    # same facts per predicate in the same order, so every caller that
    # iterates the model sees what the scan gave it
    for name, items in _index_cases():
        assert oracle_model(items) == _scan_model(items), name


def test_hand_written_index_cases():
    model = oracle_model(_ZERO_ATOM_VERSUS_INTEGER)
    assert model[("r", 1)] == [Struct("r", ["int"])]
    assert model[("s", 1)] == [Struct("s", ["atom"])]
    for text, query, want in (
        (_HAND_WRITTEN[0], "q(X)", {"q(f(a))"}),
        (_HAND_WRITTEN[1], "t(Y)", {"t(a)", "t(b)"}),
        (_HAND_WRITTEN[1], "u(Y)", {"u(a)"}),
        (_HAND_WRITTEN[2], "l(X)", {"l(1)", "l(2)"}),
        (_HAND_WRITTEN[2], "m(X)", {"m(1)", "m(2)"}),
        (_HAND_WRITTEN[3], "p(X)", {"p(1)"}),
        (_HAND_WRITTEN[3], "n(X)", set()),
        (_HAND_WRITTEN[3], "v(X)", set()),
        (_HAND_WRITTEN[4], "p(1,Y)", {f"p(1,{i})" for i in range(1, 6)}),
        (_HAND_WRITTEN[5], "c(3,Y)", {"c(3,2)", "c(3,3)", "c(3,1)", "c(3,4)"}),
        (_HAND_WRITTEN[6], "q(X)", {"q(1)", "q(2)", "q(3)"}),
        (_HAND_WRITTEN[6], "w(X)", {"w(1)", "w(2)"}),
        (_HAND_WRITTEN[7], "c(X)", {"c(1)"}),
        (_HAND_WRITTEN[8], "s(X,Y)", {"s(1,3)", "s(2,3)"}),
        (_HAND_WRITTEN[9], "h(X)", {"h(1)", "h(3)"}),
        (_HAND_WRITTEN[10], "q(X)", {"q(1)", "q(2)"}),
        (_HAND_WRITTEN[10], "w(X,Y)", {"w(1,1)", "w(1,2)", "w(2,2)"}),
    ):
        assert oracle_solve(text, query) == want, query


def _scan_values(goals, model):
    ids = variables(tuple(goals))
    return {tuple([theta[v] for v in ids]) for theta in _scan_match_body(tuple(goals), 0, model, {})}


def _one_goal_queries(functor, arity, fact):
    """The open query, one query per argument position bound to fact's
    argument there, and one with a single variable in every position."""
    if not arity:
        return [functor]
    queries = [Struct(functor, [Var(v) for v in range(arity)]), Struct(functor, [Var(0)] * arity)]
    for pos in range(arity):
        args = [Var(v) for v in range(arity)]
        args[pos] = fact.args[pos]
        queries.append(Struct(functor, args))
    return queries


def test_query_plans_equal_the_scan():
    # a query's plan picks its index position from the query alone and
    # indexes the model as passed; its values must be the scan's
    for name, items in _index_cases():
        model = oracle_model(items)
        for (functor, arity), facts in model.items():
            for goal in _one_goal_queries(functor, arity, facts[len(facts) // 2]):
                want = _scan_values([goal], model)
                assert oracle_values(items, [goal], model) == want, (name, goal)
                assert answers_for_key(model, goal) == want, (name, goal)


def test_oracle_solve_reads_the_model_it_is_passed():
    # a caller's edit to the model shows through a bound argument
    items = parse_program(corpus.LEFT_RECURSIVE_TC)
    model = oracle_model(items)
    model[("p", 2)].remove(Struct("p", ["a", "c"]))
    assert oracle_solve(items, "p(a,Y)", model) == {"p(a,b)"}
    assert oracle_solve(items, "p(X,c)", model) == {"p(b,c)"}


def test_oracle_solve_indexes_each_predicate_the_query_names():
    # a query indexes only its own predicates, so a ground argument of any
    # of its goals must still find that goal's facts
    items = parse_program(corpus.LEFT_RECURSIVE_TC)
    model = oracle_model(items)
    for query in ("e(a,Y), p(Y,Z)", "p(X,Y), e(Y,c)", "p(X,b), e(b,Y), p(Y,Z)", "p(c,Y), e(X,Y)"):
        goals = tuple(parse_query(query)[0])
        want = {
            render_goals([_substitute(g, theta) for g in goals])
            for theta in _scan_match_body(goals, 0, model, {})
        }
        assert oracle_solve(items, query, model) == want, query
    assert oracle_solve(items, "p(X,Y), e(Y,c)", model) == {"p(a,b),e(b,c)"}


def test_function_symbols_past_the_bound_are_inapplicable():
    # a finite model, but the bound counts only constants: the oracle
    # declines rather than failing an assertion
    text = (
        ":- table d/1.\nd(a).\nd(f(X)) :- d(X), small(X).\n"
        "small(a).\nsmall(f(a)).\nsmall(f(f(a))).\n"
    )
    with pytest.raises(OracleInapplicable, match="function symbols"):
        oracle_model(parse_program(text))


def test_function_symbols_within_the_bound_are_applicable():
    # one constant and two predicates bound the naive fixpoint at 3 passes:
    # d(f(a)) comes in pass 2 and pass 3 adds nothing. small(f(a)) adds
    # d(f(f(a))) in pass 3, so a fourth pass runs past the bound
    text = "d(a).\nd(f(X)) :- d(X), small(X).\nsmall(a).\n"
    items = parse_program(text)
    model = oracle_model(items)
    assert model == _scan_model(items)
    assert model[("d", 1)] == [Struct("d", ["a"]), Struct("d", [Struct("f", ["a"])])]
    with pytest.raises(OracleInapplicable, match="function symbols"):
        oracle_model(parse_program(text + "small(f(a)).\n"))


def test_terms_nested_past_the_recursion_limit_are_inapplicable():
    # the oracle's term walks recurse per nesting level; a RecursionError
    # in the model or in the query becomes OracleInapplicable
    deep = "f(" * 600 + "a" + ")" * 600
    with pytest.raises(OracleInapplicable, match="nested too deeply"):
        oracle_model(parse_program(f"p({deep}).\n"))
    with pytest.raises(OracleInapplicable, match="nested too deeply"):
        oracle_solve("q(a).\n", f"q({deep})")


def test_a_query_nested_deeper_than_any_model_fact_is_matched():
    # the query's plan matches a compound argument one frame per nesting
    # level and walks no fact, so the query is answered, not declined
    deep = "f(" * 600 + "X" + ")" * 600
    assert oracle_solve("q(a).\n", f"q({deep})") == set()
    assert oracle_solve("q(a).\n", f"q(Y), q({deep})") == set()


def _counter(bits):
    """A binary counter from all zeros: the rule for bit k sets it and
    clears the bits after it, so each pass adds one fact."""
    lines = [f"c({','.join(['0'] * bits)})."]
    for k in range(bits):
        xs = [f"X{i}" for i in range(k)]
        ones, zeros = ["1"] * (bits - k - 1), ["0"] * (bits - k - 1)
        lines.append(f"c({','.join(xs + ['1'] + zeros)}) :- c({','.join(xs + ['0'] + ones)}).")
    return "\n".join(lines) + "\n"


def test_function_free_bound_counts_every_argument():
    # 512 facts, one per pass: 513 passes, past a bound that counted at
    # most 8 of c/9's arguments (2**8 = 256 atoms)
    model = oracle_model(parse_program(_counter(9)))
    assert len(model[("c", 9)]) == 512
    assert len(set(model[("c", 9)])) == 512
    assert model[("c", 9)][-1] == Struct("c", [1] * 9)
