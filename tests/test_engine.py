"""Engine behavior: strategies, rounds, loops, options, budgets."""

import dataclasses

import pytest

import lintab.corpus as corpus
from lintab import (
    EAGER,
    LAZY,
    DepthExceeded,
    Engine,
    EngineError,
    EngineOptions,
    StepBudgetExceeded,
    load_program,
    run_query,
)
from lintab.bench import config_matrix, run_instance, suite_instances
from lintab.oracle import OracleInapplicable, oracle_solve
from lintab.table import check_region_invariants


def solve(text, query, **kw):
    return run_query(load_program(text), query, EngineOptions(**kw))


def test_options_validation():
    with pytest.raises(ValueError):
        EngineOptions(strategy="bogus")
    with pytest.raises(ValueError):
        EngineOptions(semi_naive=False, early_promotion=True)
    with pytest.raises(ValueError):
        EngineOptions(step_budget=0)


@pytest.mark.parametrize("limit", [0, -3])
def test_limit_must_be_positive(limit):
    with pytest.raises(ValueError, match="limit must be positive"):
        EngineOptions(limit=limit)


def test_left_recursion_terminates_with_all_answers():
    sols, eng = solve(corpus.LEFT_RECURSIVE_TC, "p(a,Y)")
    assert sols == ["p(a,b)", "p(a,c)"]
    assert eng.stats.entry_rounds == {"p(a,_G0)": 3}


def test_fully_open_call():
    sols, _ = solve(corpus.LEFT_RECURSIVE_TC, "p(X,Y)")
    assert set(sols) == {"p(a,b)", "p(a,c)", "p(b,c)"}


def test_eager_emits_duplicates_lazy_does_not():
    sols_eager, _ = solve(corpus.TWO_FACT_SELF_JOIN, "p(X),p(Y)", strategy=EAGER)
    sols_lazy, _ = solve(corpus.TWO_FACT_SELF_JOIN, "p(X),p(Y)", strategy=LAZY)
    assert len(sols_eager) == 7 and len(sols_lazy) == 4
    assert set(sols_eager) == set(sols_lazy)


def test_dedup_collapses_eager_duplicates():
    sols, _ = solve(
        corpus.TWO_FACT_SELF_JOIN, "p(X),p(Y)", strategy=EAGER, dedup_solutions=True
    )
    assert sols == ["p(1),p(1)", "p(2),p(1)", "p(2),p(2)", "p(1),p(2)"]


def test_limit_truncates_stream():
    sols, _ = solve(corpus.TWO_FACT_SELF_JOIN, "p(X),p(Y)", strategy=EAGER, limit=3)
    assert sols == ["p(1),p(1)", "p(2),p(1)", "p(2),p(2)"]


def test_per_predicate_strategy_overrides_default():
    text = ":- table p/1 eager.\np(1).\np(2).\n"
    sols, _ = solve(text, "p(X),p(Y)", strategy=LAZY)
    assert len(sols) == 7  # the declaration wins over the lazy default


def test_mixed_strategies_in_one_program():
    text = ":- table p/1 eager.\n:- table q/1 lazy.\np(1).\np(2).\nq(3).\nq(4).\n"
    sols, _ = solve(text, "p(X),q(Y)")
    assert set(sols) == {f"p({i}),q({j})" for i in (1, 2) for j in (3, 4)}


def test_nontabled_predicates_resolve_by_clauses():
    sols, _ = solve("e(a,b).\ne(b,c).\n", "e(X,Y)")
    assert sols == ["e(a,b)", "e(b,c)"]


def test_undefined_predicate_fails_finitely():
    sols, eng = solve("p(a) :- missing(a).\np(b).\n", "p(X)")
    assert sols == ["p(b)"]
    assert eng.stats.undefined_calls == 1


def test_conjunctive_query_backtracking():
    sols, _ = solve("e(a,b).\ne(b,c).\ne(a,c).\n", "e(X,Y),e(Y,Z)")
    assert set(sols) == {"e(a,b),e(b,c)"}


def test_fake_loop_under_eager_not_a_real_loop():
    # after p's first answer is returned eagerly, the second top-level call
    # to p is a follower of a still-active pioneer that is NOT an ancestor
    sols, eng = solve(corpus.TWO_FACT_SELF_JOIN, "p(X),p(Y)", strategy=EAGER)
    assert len(sols) == 7
    check_region_invariants(eng.store)


def test_guard_program_keeps_late_answer_all_configs():
    for label, opts in config_matrix():
        sols, eng = run_query(
            load_program(corpus.FRESH_SUBGOAL_GUARD),
            corpus.FRESH_SUBGOAL_GUARD_QUERY,
            opts,
        )
        assert set(sols) == {"p(a,b)", "p(b,c)", "p(b,d)"}, label
        check_region_invariants(eng.store)


def test_reordered_guard_fixpoint_in_two_rounds():
    sols, eng = solve(corpus.FRESH_SUBGOAL_GUARD_REORDERED, "p(X,Y)")
    assert set(sols) == {"p(a,b)", "p(b,c)", "p(b,d)"}
    assert eng.stats.entry_rounds["p(_G0,_G1)"] == 2


def test_round_counts_unaffected_by_semi_naive():
    for text, query in [
        (corpus.LEFT_RECURSIVE_TC, "p(a,Y)"),
        (corpus.FRESH_SUBGOAL_GUARD, "p(X,Y)"),
        (corpus.SELF_FEEDING_PAIR, "p(X,Y)"),
    ]:
        _, on = solve(text, query, semi_naive=True, early_promotion=False)
        _, off = solve(text, query, semi_naive=False, early_promotion=False)
        assert on.stats.entry_rounds == off.stats.entry_rounds


def test_early_promotion_reduces_consumption():
    text, query = corpus.string_matcher_program(60)
    _, with_ep = solve(text, query, early_promotion=True)
    _, without = solve(text, query, early_promotion=False)
    assert with_ep.stats.answers_consumed < without.stats.answers_consumed


def test_completed_tables_are_reused():
    sols, eng = solve(corpus.LEFT_RECURSIVE_TC, "p(a,Y),p(a,Z)")
    assert len(sols) == 4
    # one entry serves both calls
    assert eng.stats.subgoal_count == 1


def test_step_budget_enforced():
    with pytest.raises(StepBudgetExceeded):
        solve(corpus.LEFT_RECURSIVE_TC, "p(X,Y)", step_budget=5)


def test_engine_single_run_guard():
    eng = Engine(load_program("p(a)."))
    list(eng.run("p(X)"))
    with pytest.raises(EngineError):
        list(eng.run("p(X)"))


def test_stats_counters_consistent():
    _, eng = solve(corpus.LEFT_RECURSIVE_TC, "p(a,Y)")
    s = eng.stats
    assert s.answers_produced == 2
    assert s.answers_consumed >= s.answers_produced
    assert s.clause_resolutions > 0
    assert s.max_iterations == 3 and s.subgoal_count == 1
    d = s.as_dict()
    assert d["ave_its"] == 3.0
    assert "ave_its=3.00" in s.as_lines()


def test_declared_but_undefined_tabled_predicate():
    sols, _ = solve(":- table p/1.\nq(a).\n", "p(X)")
    assert sols == []


def test_query_with_repeated_variable():
    sols, _ = solve("e(a,a).\ne(a,b).\n", "e(X,X)")
    assert sols == ["e(a,a)"]


def test_nonground_answers():
    sols, _ = solve(":- table p/2.\np(X,X).\np(a,b).\n", "p(U,V)")
    assert set(sols) == {"p(_G0,_G0)", "p(a,b)"}


def test_tabled_call_instantiation_is_fresh_per_consumption():
    # consuming the non-ground answer twice must not alias variables
    sols, _ = solve(":- table p/1.\np(X).\n", "p(A),p(B)")
    assert sols == ["p(_G0),p(_G1)"]


CYCLE_TC = """
:- table p/2.
e(a,b). e(b,c). e(c,a). e(d,a).
p(X,Y) :- e(X,Y).
p(X,Y) :- p(X,Z), e(Z,Y).
"""
COMPOUND_TC = """
:- table p/2.
e(a,b). e(b,c). e(c,a).
p(f(X),Y) :- e(X,Y).
p(f(X),Y) :- p(f(X),Z), e(Z,Y).
"""
SHARED = ":- table q/2.\nq(X,X).\n:- table r/2.\nr(f(X),g(X)).\n"
ABC = ("a", "b", "c")

# Answers are stored as the bindings of the entry key's variables and
# returned by binding the call's variables in key order. Each case runs
# under all six configs; `oracle` marks the range-restricted ones, which
# are also checked against the bottom-up oracle per query and per entry.
FACTORING_CASES = {
    # key p(_0,_0): one tuple element binds both positions
    "repeated-call-variable": (
        CYCLE_TC, "p(X,X)", {f"p({c},{c})" for c in ABC}, True),
    # an answer's positions share a variable, renamed apart per consumption
    "shared-answer-variable": (
        SHARED, "q(A,B),q(C,D)", {"q(_G0,_G0),q(_G1,_G1)"}, False),
    "shared-answer-variable-repeated-call": (
        SHARED, "q(A,A)", {"q(_G0,_G0)"}, False),
    "shared-answer-variable-compound": (
        SHARED, "r(A,B)", {"r(f(_G0),g(_G0))"}, False),
    # a ground call's tuples are empty
    "ground-call": (CYCLE_TC, "p(d,c)", {"p(d,c)"}, True),
    "ground-call-fails": (CYCLE_TC, "p(a,d)", set(), True),
    # key p(f(_0),_1): the call's variables sit inside a compound
    "compound-argument": (
        COMPOUND_TC, "p(f(X),Y)", {f"p(f({x}),{y})" for x in ABC for y in ABC}, True),
    "compound-argument-bound": (
        COMPOUND_TC, "p(f(X),b)", {f"p(f({x}),b)" for x in ABC}, True),
}


@pytest.mark.parametrize("name", FACTORING_CASES)
def test_factored_answer_return(name):
    text, query, want, oracle = FACTORING_CASES[name]
    result = run_instance(name, text, query)
    assert not result.divergences
    assert set(result.solutions) == {label for label, _ in config_matrix()}
    assert all(sols == want for sols in result.solutions.values())
    if oracle:
        assert oracle_solve(text, query) == want
    else:
        with pytest.raises(OracleInapplicable):
            oracle_solve(text, query)


def test_indexing_on_second_argument_cuts_clause_resolutions():
    # sg's edge(Y,YY) binds only its second argument; first-argument
    # indexing alone tried 5,451,761 clauses on this instance
    [(_, text, query)] = [
        i for i in suite_instances("sg", [100], 0) if i[0] == "sg-random-100"
    ]
    sols, eng = solve(text, query, strategy=LAZY)
    assert len(set(sols)) == 6180
    assert eng.stats.clause_resolutions <= 545_176


def test_nontabled_path_over_300_edge_chain_answers_all():
    # one generator frame per goal: the chain's 300 solutions fit in the
    # default recursion limit
    chain = "".join(f"edge({i},{i + 1}).\n" for i in range(1, 301))
    text = chain + "path(X,Y) :- edge(X,Y).\npath(X,Y) :- edge(X,Z), path(Z,Y).\n"
    sols, _ = solve(text, "path(1,Y)")
    assert sols == [f"path(1,{i})" for i in range(2, 302)]


def test_deep_recursion_is_a_typed_engine_error():
    chain = "".join(f"edge({i},{i + 1}).\n" for i in range(1, 401))
    text = chain + "path(X,Y) :- edge(X,Y).\npath(X,Y) :- edge(X,Z), path(Z,Y).\n"
    with pytest.raises(EngineError) as info:
        solve(text, "path(1,Y)")
    assert type(info.value) is DepthExceeded


@pytest.mark.parametrize("label,opts", config_matrix(), ids=[c[0] for c in config_matrix()])
@pytest.mark.parametrize(
    "text,query",
    [
        (corpus.LEFT_RECURSIVE_TC, corpus.LEFT_RECURSIVE_TC_QUERY),
        corpus.string_matcher_program(20, tabled_step=True),
    ],
    ids=["left-recursive-tc", "regex-warren-20"],
)
def test_abandoned_run_leaves_no_active_pioneer(label, opts, text, query):
    opts = dataclasses.replace(opts, limit=1)
    sols, eng = run_query(load_program(text), query, opts)
    assert len(sols) == 1
    assert not eng.active_pioneers
