"""Engine behavior: strategies, rounds, loops, options, budgets."""

import itertools
import re

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import lintab.corpus as corpus
import lintab.engine as engine_module
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
from lintab.analysis import CLAUSES, ROWS, analyze, head_plan
from lintab.bench import config_matrix, golden_instances, run_instance, suite_instances
from lintab.corpus import mutual_recursion_program
from lintab.oracle import OracleInapplicable, oracle_solve
from lintab.parser import Clause, parse_query
from lintab.table import COMPLETE, HANDING, RUNNING, check_region_invariants, dump
from lintab.terms import (
    Struct,
    Var,
    canonicalize,
    render_solutions,
    renumber,
    undo,
    unify,
    variables,
)


def solve(text, query, **kw):
    return run_query(load_program(text), query, EngineOptions(**kw))


def first(program, query, n, opts=None, method="run"):
    """The first n solutions of a stream closed after them, and its engine."""
    eng = Engine(program, opts)
    stream = getattr(eng, method)(query)
    sols = list(itertools.islice(stream, n))
    stream.close()
    return sols, eng


EAGER_CONFIGS = [(label, opts) for label, opts in config_matrix() if opts.strategy == EAGER]


def test_options_validation():
    with pytest.raises(ValueError, match="^unknown strategy 'bogus'$"):
        EngineOptions(strategy="bogus")
    with pytest.raises(ValueError, match="^early promotion requires semi-naive consumption$"):
        EngineOptions(semi_naive=False, early_promotion=True)
    with pytest.raises(ValueError, match="^step budget must be positive$"):
        EngineOptions(step_budget=0)
    # stopping early and deduplicating are the caller's, not options
    assert EngineOptions.__slots__ == ("strategy", "semi_naive", "early_promotion", "step_budget")


@pytest.mark.parametrize(
    "kw,message",
    [
        # a truthy non-bool once ran with the gate on
        (dict(semi_naive="off", early_promotion=False), "semi_naive must be a bool, not 'off'"),
        (dict(early_promotion=0), "early_promotion must be a bool, not 0"),
        (dict(step_budget=2.5), "step budget must be an int, not 2.5"),
        (dict(step_budget=True), "step budget must be an int, not True"),
    ],
)
def test_options_reject_values_of_the_wrong_type(kw, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        EngineOptions(**kw)


def test_options_are_values():
    opts = EngineOptions(EAGER, semi_naive=True, early_promotion=False, step_budget=50)
    assert opts == EngineOptions(strategy=EAGER, early_promotion=False, step_budget=50)
    assert opts != EngineOptions(EAGER, early_promotion=False)
    assert EngineOptions() == EngineOptions(LAZY, True, True, 10**8)
    assert repr(opts) == (
        "EngineOptions(strategy='eager', semi_naive=True, early_promotion=False, step_budget=50)"
    )


def test_options_are_unhashable_and_equal_only_to_options():
    # no field is frozen, so options hash to nothing; a tuple of the same
    # fields is not the same value
    with pytest.raises(TypeError):
        hash(EngineOptions())
    assert EngineOptions() != (LAZY, True, True, 10**8)
    assert (LAZY, True, True, 10**8) != EngineOptions()


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
    sols, _ = solve(corpus.TWO_FACT_SELF_JOIN, "p(X),p(Y)", strategy=EAGER)
    assert list(dict.fromkeys(sols)) == ["p(1),p(1)", "p(2),p(1)", "p(2),p(2)", "p(1),p(2)"]


def test_limit_truncates_stream():
    program = load_program(corpus.TWO_FACT_SELF_JOIN)
    sols, eng = first(program, "p(X),p(Y)", 3, EngineOptions(strategy=EAGER))
    assert sols == ["p(1),p(1)", "p(2),p(1)", "p(2),p(2)"]
    assert eng.stats.subgoal_count == 1  # closing the stream finalized the stats


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


@pytest.mark.parametrize("n", [100, 200, 400])
def test_eager_matcher_parent_sees_each_answer_once(n):
    # p(0,_) is a top-most eager pioneer whose parent p(0,n) lies outside its
    # cluster and makes no follower call, so no round replays its table there
    text, query = corpus.string_matcher_program(n)
    program = load_program(text)
    for label, opts in EAGER_CONFIGS:
        _, eager = run_query(program, query, opts)
        as_lazy = EngineOptions(LAZY, opts.semi_naive, opts.early_promotion, opts.step_budget)
        _, lazy = run_query(program, query, as_lazy)
        assert eager.stats.max_iterations == lazy.stats.max_iterations, label
        if opts.semi_naive:
            assert eager.stats.answers_consumed <= 5 * n, label
        else:  # with the gate off each round re-joins every answer under both strategies
            assert eager.stats.answers_consumed <= lazy.stats.answers_consumed, label


@pytest.mark.parametrize("label,opts", EAGER_CONFIGS, ids=[c[0] for c in EAGER_CONFIGS])
def test_eager_left_recursion_streams_each_answer_once(label, opts):
    sols, _ = run_query(load_program(corpus.LEFT_RECURSIVE_TC), corpus.LEFT_RECURSIVE_TC_QUERY, opts)
    assert sols == ["p(a,b)", "p(a,c)"]


def test_eager_streams_repeat_only_after_a_fake_loop():
    repeated = set()
    for name, text, query in golden_instances():
        program = load_program(text)
        for _, opts in EAGER_CONFIGS:
            sols, _ = run_query(program, query, opts)
            if len(sols) != len(set(sols)):
                repeated.add(name)
    # both are fake-loop programs: their top-most eager pioneers replay
    assert repeated == {"two-fact-self-join", "fake-loop-into-inner-top"}


def test_fake_loop_into_an_inner_top_replays_the_outer_top():
    # the continuation of h(1) consumed t's table before t(2) was stored:
    # only h's replay of h(1) in round 2 yields h(1),t(2); round 3 replays
    # nothing, as t was complete when round 2 handed answers out
    sols, eng = solve(corpus.FAKE_LOOP_INTO_INNER_TOP, corpus.FAKE_LOOP_INTO_INNER_TOP_QUERY)
    assert set(sols) == {f"h({i}),t({j})" for i in (1, 2, 3) for j in (1, 2)}
    assert len(sols) == 3 + 4 + 2  # round 1, round 2's replay, then h(3)
    assert eng.stats.entry_rounds == {"h(_G0)": 3, "t(_G0)": 2}


def test_fake_loop_during_a_replay_replays_again():
    # only the continuation of p(a,b) calls p(a,W); in round 2 it does so
    # while p replays p(a,b), before p(a,c) is stored, so round 3 replays
    text = corpus.LEFT_RECURSIVE_TC + "g(b,W) :- p(a,W).\n"
    sols, eng = solve(text, "p(a,Y),g(Y,W)", strategy=EAGER)
    assert sols == ["p(a,b),g(b,b)"] * 3 + ["p(a,b),g(b,c)"]
    assert eng.stats.entry_rounds == {"p(a,_G0)": 3}


def test_loop_of_an_entry_first_called_in_a_continuation_is_no_fake_loop():
    # q(b,W) loops on itself inside the continuation of p's answers, and is
    # complete before p resumes: p(a,_) replays nothing, even after q has
    # handed out an answer and resumed
    text = (
        ":- table p/2 eager.\n:- table q/2 eager.\n"
        "p(X,Y) :- p(X,Z), e(Z,Y).\np(X,Y) :- e(X,Y).\n"
        "q(X,Y) :- q(X,Z), e(Z,Y).\nq(X,Y) :- e(X,Y).\n"
        "e(a,b).\ne(b,c).\n"
    )
    sols, eng = solve(text, "p(a,Y),q(b,W)")
    assert sols == ["p(a,b),q(b,c)", "p(a,c),q(b,c)"]
    assert eng.stats.entry_rounds == {"p(a,_G0)": 3, "q(b,_G0)": 2}


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


def test_second_run_raises_at_once_and_the_first_stream_drains():
    eng = Engine(load_program("p(a).\np(b).\n"))
    first = eng.run("p(X)")
    with pytest.raises(EngineError, match="single run"):
        eng.run("p(Y)")
    assert list(first) == ["p(a)", "p(b)"]


def test_a_rejected_query_does_not_use_up_the_run():
    eng = Engine(load_program("p(1).\n"))
    with pytest.raises(EngineError, match="goal is not callable"):
        eng.run([Var(0)])
    assert list(eng.run("p(X)")) == ["p(1)"]


@pytest.mark.parametrize("first,second", [("run", "solve"), ("solve", "run"), ("solve", "solve")])
def test_second_solve_or_run_raises(first, second):
    eng = Engine(load_program("p(a).\np(b).\n"))
    stream = getattr(eng, first)("p(X)")
    with pytest.raises(EngineError, match="single run"):
        getattr(eng, second)("p(Y)")
    assert len(list(stream)) == 2


GOLDEN = golden_instances()


@pytest.mark.parametrize("name,text,query", GOLDEN, ids=[i[0] for i in GOLDEN])
def test_solve_renders_to_the_run_stream(name, text, query):
    # solve() is run() before rendering: same order and duplicates, in a
    # stream closed after its first solution, and deduplicated too
    program = load_program(text)
    goals = parse_query(query)[0]
    for _, opts in config_matrix():
        values = list(Engine(program, opts).solve(query))
        sols = list(Engine(program, opts).run(query))
        assert list(render_solutions(goals, values)) == sols
        assert list(render_solutions(goals, dict.fromkeys(values))) == list(dict.fromkeys(sols))
        values, _ = first(program, query, 1, opts, "solve")
        assert list(render_solutions(goals, values)) == first(program, query, 1, opts)[0]


def test_variant_solutions_give_one_canonical_tuple():
    # two clauses derive variant non-ground solutions in fresh variables
    program = load_program("p(f(A,B)).\np(f(C,D)).\np(f(E,E)).\n")
    assert list(Engine(program).run("p(X)")) == ["p(f(_G0,_G1))"] * 2 + ["p(f(_G0,_G0))"]
    sols = list(Engine(program).solve("p(X)"))
    assert sols[0] == sols[1] == (Struct("f", [Var(0), Var(1)]),)
    assert sols[2] == (Struct("f", [Var(0), Var(0)]),)
    assert list(dict.fromkeys(sols)) == [sols[0], sols[2]]
    assert first(program, "p(X)", 1, method="solve")[0] == sols[:1]
    # the values' Var(0) is renamed apart from the query's X (also Var(0))
    assert list(render_solutions(parse_query("p(X)")[0], sols)) == list(Engine(program).run("p(X)"))
    # one numbering across the tuple: g's variable is f's or a new one
    two = load_program("p(f(A),g(B)).\np(f(C),g(C)).\n")
    f0, g0, g1 = Struct("f", [Var(0)]), Struct("g", [Var(0)]), Struct("g", [Var(1)])
    assert list(Engine(two).solve("p(X,Y)")) == [(f0, g1), (f0, g0)]


@pytest.mark.parametrize("strategy", [LAZY, EAGER])
def test_solve_gives_the_tuples_the_table_stores(strategy):
    text = ":- table q/1.\nq(X) :- p(X).\np(f(A,B)).\np(f(C,D)).\np(f(E,E)).\np(a).\n"
    eng = Engine(load_program(text), EngineOptions(strategy=strategy))
    sols = list(eng.solve("q(X)"))
    [entry] = eng.store
    assert sols == entry.answers.tuples == [(Struct("f", [Var(0), Var(1)]),), (Struct("f", [Var(0), Var(0)]),), ("a",)]


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
NESTED = """
:- table q/1.
e(a). e(b).
q(f(X)) :- e(X).
q(f(X,Y)) :- e(X), e(Y).
q(g(f(X),X)) :- e(X).
q(f(f(X),X)) :- e(X).
q(f(f(X,b))) :- e(X).
"""
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
    # calls of q/1 that differ only in compound arity and nesting; the two
    # calls of the second query share the preorder f,f,_,_ of functors and
    # leaves, and only the arities tell them apart
    "compound-arity-and-nesting": (
        NESTED, "q(f(X)),q(f(Y,Z)),q(g(f(W),W))",
        {f"q(f({x})),q(f({yz})),q(g(f({w}),{w}))"
         for x in ("a", "b", "f(a,b)", "f(b,b)")
         for yz in ("a,a", "a,b", "b,a", "b,b", "f(a),a", "f(b),b")
         for w in "ab"},
        True),
    "compound-arity-same-preorder": (
        NESTED, "q(f(f(X),Y)),q(f(f(Z,W)))",
        {f"q(f(f({x}),{x})),q(f(f({z},b)))" for x in "ab" for z in "ab"}, True),
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


@pytest.mark.parametrize("strategy", [LAZY, EAGER])
def test_tabled_300_level_chain_answers(strategy):
    # an active tabled call is one generator frame: 300 nested pioneers,
    # each with one answer, fit in the default recursion limit
    chain = "".join(f"e({i},{i + 1}).\n" for i in range(1, 301))
    text = ":- table p/1.\n" + chain + "p(301).\np(X) :- e(X,Y), p(Y).\n"
    sols, _ = solve(text, "p(1)", strategy=strategy)
    assert sols == ["p(1)"]


def test_deep_recursion_is_a_typed_engine_error():
    chain = "".join(f"edge({i},{i + 1}).\n" for i in range(1, 401))
    text = chain + "path(X,Y) :- edge(X,Y).\npath(X,Y) :- edge(X,Z), path(Z,Y).\n"
    with pytest.raises(EngineError) as info:
        solve(text, "path(1,Y)")
    assert type(info.value) is DepthExceeded


@pytest.mark.parametrize("method", ["run", "solve"])
def test_a_goal_nested_too_deep_for_the_setup_is_a_typed_engine_error(method):
    # the parser rejects such a query, but a library caller can build one;
    # the walks over its goals before the run starts recurse per level
    goal = Var(0)
    for _ in range(1500):
        goal = Struct("f", [goal])
    eng = Engine(load_program("p(a).\n"))
    with pytest.raises(DepthExceeded):
        getattr(eng, method)([Struct("p", [goal])])
    # nothing ran, so the engine is not used up
    assert list(getattr(eng, method)("p(X)")) == (["p(a)"] if method == "run" else [("a",)])


def active_entries(eng):
    """Entries whose pioneer is RUNNING or HANDING: none once a run ends."""
    return [e for e in eng.store if e.state is RUNNING or e.state is HANDING]


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
    sols, eng = first(load_program(text), query, 1, opts)
    assert len(sols) == 1
    assert not active_entries(eng)


@pytest.mark.parametrize("label,opts", EAGER_CONFIGS, ids=[c[0] for c in EAGER_CONFIGS])
@pytest.mark.parametrize(
    "text,query",
    [
        (corpus.LEFT_RECURSIVE_TC, corpus.LEFT_RECURSIVE_TC_QUERY),
        (corpus.TWO_FACT_SELF_JOIN, corpus.TWO_FACT_SELF_JOIN_QUERY),
        corpus.string_matcher_program(20, tabled_step=True),
    ],
    ids=["left-recursive-tc", "two-fact-self-join", "regex-warren-20"],
)
def test_closed_eager_run_leaves_no_pioneer_handing(label, opts, text, query):
    eng = Engine(load_program(text), opts)
    stream = eng.run(query)
    next(stream)
    assert any(e.state is HANDING for e in eng.store)  # suspended at its yield to the query
    stream.close()
    assert not active_entries(eng)


@pytest.mark.parametrize("label,opts", config_matrix(), ids=[c[0] for c in config_matrix()])
def test_entry_lifecycle_after_drained_limited_and_closed_runs(label, opts):
    for name, text, query in golden_instances():
        program = load_program(text)
        _, eng = run_query(program, query, opts)
        assert not eng.incomplete, name
        assert all(e.state is COMPLETE for e in eng.store), name
        # every run ends with every binding undone, drained, limited or closed
        assert eng.bound == {} and eng.trail == [], name
        _, eng = first(program, query, 2, opts)
        assert not active_entries(eng), name
        assert eng.bound == {} and eng.trail == [], name
        eng = Engine(program, opts)
        stream = eng.run(query)
        next(stream, None)
        stream.close()
        assert not active_entries(eng), name
        assert eng.bound == {} and eng.trail == [], name


def test_run_stopped_early_undoes_its_bindings():
    # the generators a limited or closed run abandons never reach their undo
    program = load_program(corpus.LEFT_RECURSIVE_TC)
    sols, eng = first(program, "p(X,Y)", 1)
    assert sols == ["p(a,b)"]
    assert eng.bound == {} and eng.trail == []
    eng = Engine(program)
    stream = eng.run("p(X,Y)")
    assert next(stream) == "p(a,b)"
    assert eng.bound  # the solution is read while its bindings stand
    stream.close()
    assert eng.bound == {} and eng.trail == []


def test_non_callable_goal_in_a_term_query_is_an_engine_error():
    eng = Engine(load_program("p(1).\n"))
    with pytest.raises(EngineError, match="goal is not callable: _G0"):
        eng.run([Var(0)])
    with pytest.raises(EngineError, match="goal is not callable: 3"):
        Engine(load_program("p(1).\n")).run([Struct("p", [Var(0)]), 3])


HEAD_UNIFICATION = [
    ("p/2", "p(X,X).", "p(A,f(A))", []),
    ("q/2", "q(X,f(X)).", "q(A,A)", []),
    ("s/2", "s(f(X),X).", "s(A,g(A))", []),
    ("r/3", "r(X,Y,X).", "r(A,B,B)", ["r(_G0,_G0,_G0)"]),
    ("t/3", "t(X,g(Y),Y).", "t(f(B),A,B)", ["t(f(_G0),g(_G0),_G0)"]),
]


@pytest.mark.parametrize("strategy", [LAZY, EAGER])
@pytest.mark.parametrize("tabled", [False, True])
@pytest.mark.parametrize("pred,fact,query,expected", HEAD_UNIFICATION)
def test_head_unification_with_repeated_and_nested_variables(pred, fact, query, expected, tabled, strategy):
    # the occurs check and repeated head variables, met while the call is
    # unified with a clause head renamed apart
    text = f":- table {pred}.\n{fact}" if tabled else fact
    sols, eng = solve(text, query, strategy=strategy)
    assert sols == expected
    assert len(eng.store.entries) == int(tabled)


# the atom "1" and the integer 1 look alike in text but are different terms
CONSTANTS = st.sampled_from(["a", "1", 1, "0", 0])
CALL_ARGS = st.one_of(
    st.integers(0, 2).map(Var),
    CONSTANTS,
    st.one_of(st.integers(0, 2).map(Var), CONSTANTS).map(lambda t: Struct("f", [t])),
)


def _rows_and_calls(arity):
    return st.tuples(
        st.lists(st.tuples(*[CONSTANTS] * arity), min_size=1, max_size=6),
        st.lists(st.tuples(*[CALL_ARGS] * arity), min_size=1, max_size=2),
    )


@example(([("1",), (1,)], [(Var(0),)]), [(0, 1)])  # X = 1 meets "1" and 1
@example(([(1, 1), (1, "1"), ("1", "1")], [(Var(0), Var(0))]), [])  # p(X,X)
@example(([("a", 0)], [(Struct("f", [Var(0)]), Var(1))]), [])  # a compound call
@example(([("a",), ("b",)], [(Var(0),)]), [(0, Var(1)), (1, "a")])  # X -> Y -> a
@given(
    st.integers(1, 3).flatmap(_rows_and_calls),
    st.lists(st.tuples(st.integers(0, 2), CALL_ARGS), max_size=3),
)
@settings(max_examples=300)
def test_row_walk_equals_unify_with_each_row(case, pre):
    # a conjunction of calls to one row relation, some of their variables
    # bound beforehand, leaves per solution the same bindings and trail as
    # unifying each goal with every row's head in turn
    rows, calls = case
    program = analyze([Clause(Struct("p", row), (), 0) for row in rows])
    goals = [Struct("p", args) for args in calls]

    def bind(m, trail):
        for vid, t in pre:
            unify(Var(vid), t, m, trail)

    m, trail = {}, []
    bind(m, trail)
    before = (dict(m), list(trail))
    want = []

    def walk(i):
        if i == len(goals):
            want.append((dict(m), list(trail)))
            return
        for row in rows:
            mark = len(trail)
            if unify(goals[i], Struct("p", row), m, trail):
                walk(i + 1)
                undo(m, trail, mark)

    walk(0)
    eng = Engine(program)
    bind(eng.bound, eng.trail)
    assert [(dict(eng.bound), list(eng.trail)) for _ in eng.run(goals)] == want
    assert (eng.bound, eng.trail) == before
    assert {k for k, r in program.records.items() if r.kind is ROWS} == {("p", len(rows[0]))}


def _terms(var_ids):
    """Constants, variables from var_ids, and compounds nested in them."""
    return st.recursive(
        st.one_of(st.sampled_from(var_ids).map(Var), CONSTANTS),
        lambda inner: st.one_of(
            st.builds(lambda a: Struct("f", [a]), inner),
            st.builds(lambda a, b: Struct("g", [a, b]), inner, inner),
        ),
        max_leaves=4,
    )


HEAD_VARS = [0, 1]  # a clause's variables; its body adds 2 and 3
CALL_VARS = [100, 101, 102]  # the caller's, apart from every fresh block
# half the head arguments a bare variable, so one often recurs in a compound
HEAD_ARGS = st.one_of(st.sampled_from(HEAD_VARS).map(Var), _terms(HEAD_VARS))


def _head_and_call(head_args):
    return st.tuples(st.just(tuple(head_args)), st.tuples(*[_terms(CALL_VARS)] * len(head_args)))


X, Y, A, B = Var(0), Var(1), Var(100), Var(101)


@example(((X, Struct("f", [X])), (A, A)), (Var(2),), [])  # p(X,f(X)): never slot X
@example(((Struct("f", [X]), X), (A, A)), (X,), [])  # p(f(X),X)
@example(((X, Y), (A, A)), (Y, X), [])  # a call's repeated variable
@example(((X, "a", X), (A, B, "b")), (X,), [(101, A)])  # a pre-bound call
@given(
    st.lists(HEAD_ARGS, min_size=1, max_size=3).flatmap(_head_and_call),
    st.lists(_terms(HEAD_VARS + [2, 3]), min_size=1, max_size=2).map(tuple),
    st.lists(st.tuples(st.sampled_from(CALL_VARS), _terms(CALL_VARS)), max_size=3),
)
@settings(max_examples=300)
def test_head_matching_equals_unifying_the_renamed_head(head_and_call, body_args, pre):
    # matching a call against a head (slot variables take the call's
    # arguments, the other positions are unified) succeeds iff unifying
    # the call with the renamed head does; the body it builds, read with
    # the call under its bindings, is a variant of the renamed body under
    # the unifier's; resuming it leaves the bindings and trail as before
    head_args, call_args = head_and_call
    nvars = 1 + max(variables((Struct("p", head_args), Struct("q", body_args))), default=-1)
    clause = Clause(Struct("p", head_args), (Struct("q", body_args), "r"), nvars)
    program = analyze([clause])
    rules = program.dispatch(("p", len(head_args))).rules
    goal = Struct("p", call_args)
    eng = Engine(program)
    eng._var_counter = off = 1000
    for vid, t in pre:
        unify(Var(vid), t, eng.bound, eng.trail)
    before = (dict(eng.bound), list(eng.trail))
    m, trail = dict(eng.bound), list(eng.trail)
    matched = unify(goal, renumber(clause.head, off), m, trail)
    activations = eng._activations(goal, rules)
    got = next(activations, None)
    assert (got is not None) == matched
    if matched:
        body, _ = got
        want = renumber(clause.body, off)
        assert canonicalize((goal, *body), eng.bound) == canonicalize((goal, *want), m)
        assert next(activations, None) is None
    assert (eng.bound, eng.trail) == before


ROW_BOUNDARY = [
    # text, query, predicate, row relation?, solutions, unify calls, clause
    # resolutions. A row relation calls no unify; a clause head calls it
    # once per constant, compound or repeated-variable position (f(3) is a
    # row relation), so an open or arity-0 head not at all
    ("e(1,2).\ne(1,2).\n", "e(1,Y)", ("e", 2), True, ["e(1,2)", "e(1,2)"], 0, 2),
    ("e(1,2).\ne(3,4) :- f(3).\nf(3).\n", "e(A,B)", ("e", 2), False, ["e(1,2)", "e(3,4)"], 4, 3),
    ("e(1,2).\ne(X,3).\n", "e(A,B)", ("e", 2), False, ["e(1,2)", "e(_G0,3)"], 3, 2),
    (":- table e/2.\ne(1,2).\ne(2,3).\n", "e(A,B)", ("e", 2), False, ["e(1,2)", "e(2,3)"], 4, 2),
    ("go.\n", "go", ("go", 0), False, ["go"], 0, 1),
]


@pytest.mark.parametrize(
    "text,query,key,rows,expected,unify_calls,resolutions",
    ROW_BOUNDARY,
    ids=["duplicate-facts", "facts-and-rules", "variable-argument", "tabled", "arity-0"],
)
def test_row_relation_boundary(monkeypatch, text, query, key, rows, expected, unify_calls, resolutions):
    calls = []

    def counting_unify(*args):
        calls.append(args)
        return unify(*args)

    monkeypatch.setattr(engine_module, "unify", counting_unify)
    program = load_program(text)
    sols, eng = run_query(program, query)
    assert sols == expected
    assert (program.records[key].kind is ROWS) == rows
    assert not rows or not calls  # a row relation calls no unify
    assert len(calls) == unify_calls
    # every clause tried counts, on the row walk and the general path alike
    assert eng.stats.clause_resolutions == resolutions


def test_undefined_call_after_a_row_relation_is_counted():
    sols, eng = solve("e(1,2).\ne(2,3).\n", "e(X,Y),nope(Y)")
    assert sols == []
    assert eng.stats.undefined_calls == 2


@pytest.mark.parametrize("query,solved", [("e(1,Y)", 5), ("e(1,Y),e(Y,Z)", 1)])
def test_step_budget_runs_out_mid_bucket(query, solved):
    # a call pays one step, and one more per row of its bucket. e(1,Y)'s
    # sixth row is step 7. In the join, row e(1,0) and the call e(0,Z) with
    # its one row take steps 2-4; row e(1,1) and the call e(1,Z) take 5-6,
    # so e(1,Z)'s first row is step 7
    text = "".join(f"e(1,{i}).\n" for i in range(10)) + "e(0,0).\ne(1,1).\n"
    eng = Engine(load_program(text), EngineOptions(step_budget=6))
    got = []
    with pytest.raises(StepBudgetExceeded):
        for sol in eng.run(query):
            got.append(sol)
    assert len(got) == solved
    assert eng.stats.steps == 7


def test_step_budget_runs_out_mid_clause_loop():
    # q(X) is step 1 and its first clause step 2; the body call e(X) is
    # step 3 and its rows steps 4-5, so the clause q(9) is step 6
    text = "q(X) :- e(X).\nq(9).\ne(1).\ne(2).\n"
    eng = Engine(load_program(text), EngineOptions(step_budget=5))
    got = []
    with pytest.raises(StepBudgetExceeded):
        for sol in eng.run("q(X)"):
            got.append(sol)
    assert got == ["q(1)", "q(2)"]
    assert eng.stats.steps == 6
    assert eng.stats.clause_resolutions == 3


@pytest.mark.parametrize(
    "strategy,budget,solved",
    [(LAZY, 8, ["p(1),p(1)", "p(1),p(2)"]), (EAGER, 7, ["p(1),p(1)", "p(2),p(1)"])],
)
def test_step_budget_runs_out_mid_table_walk(strategy, budget, solved):
    # a call, a clause and a consumed answer are one step each. Lazy: p(X)
    # is step 1, its clauses 2-4 and its first answer 5; p(Y), step 6, walks
    # the COMPLETE entry, so its third answer is step 9. Eager: p(X) hands
    # each answer on as it is stored, at clause steps 2 and 5; each time
    # p(Y) follows the HANDING pioneer, walking one answer (steps 3-4) and
    # then two (steps 6-8), so the second walk's second answer is step 8
    text = ":- table p/1.\np(1).\np(2).\np(3).\n"
    opts = EngineOptions(strategy=strategy, step_budget=budget)
    eng = Engine(load_program(text), opts)
    got = []
    with pytest.raises(StepBudgetExceeded):
        for sol in eng.run("p(X),p(Y)"):
            got.append(sol)
    assert got == solved
    assert eng.stats.steps == budget + 1


def _six_runs(program_for, query):
    runs = []
    for _, opts in config_matrix():
        eng = Engine(program_for(), opts)
        sols = list(eng.run(query))
        # a drained run leaves no incomplete entry and no binding behind
        assert not eng.incomplete
        assert all(e.state is COMPLETE for e in eng.store)
        assert eng.bound == {} and eng.trail == []
        runs.append((sols, eng.stats.as_dict(), eng.stats.entry_rounds, dump(eng.store)))
    return runs


SHARED_PROGRAMS = [(name, text, query) for name, text, query in suite_instances("paper-examples", [], 0)]
SHARED_PROGRAMS += [(f"mutual-recursion-{seed}", *mutual_recursion_program(seed)) for seed in range(60)]


@pytest.mark.parametrize("name,text,query", SHARED_PROGRAMS, ids=[c[0] for c in SHARED_PROGRAMS])
def test_one_shared_program_runs_as_fresh_programs(name, text, query):
    # bench.run_instance runs one program under all six configs, so from the
    # second run on each call finds its dispatch record, indexes included,
    # filled by an earlier run
    shared = load_program(text)
    assert _six_runs(lambda: shared, query) == _six_runs(lambda: load_program(text), query)


# a body's last goal that is a row relation is walked inside the loop over
# the solutions of the goal before it, unless that goal is a row relation too
FUSED = """\
:- table t/2.
:- table s/2.
:- table w/2.
t(X,Y) :- e(X,Y).
t(X,Y) :- t(X,Z), e(Z,Y).
s(X,Y) :- e(X,Y).
s(X,Y) :- s(X,Z), s(Z,W), e(W,Y).
w(X,Y) :- e(X,Y).
w(X,Y) :- v(X,Z), w(Z,Y).
v(X,Y) :- w(X,Z), e(Z,Y).
p(X,Y) :- q(X,Z), e(Z,Y).
q(X,Y) :- e(X,Z), e(Z,Y).
r(X,Y) :- nope(X,Z), e(Z,Y).
e(1,2).
e(2,3).
e(3,1).
e(3,4).
e(4,4).
"""
# after a tabled call with the gate open (t, past round 1) and shut (s,
# whose second call is the gate site), after a plain call whose freshness
# decides a gate (v inside w), a plain call (p), a row call (q: no walk in
# the loop) and an undefined call (r: no loop); in the query itself too.
# Each query with whether some last goal is walked so
FUSED_QUERIES = [
    ("t(1,Y)", True), ("t(X,Y)", True), ("s(1,Y)", True), ("w(1,Y)", True),
    ("w(X,Y)", True), ("p(1,Y)", True), ("q(X,Y)", False), ("r(1,Y)", False),
    ("t(1,Z),e(Z,Y)", True), ("v(1,Z),e(Z,Y)", True), ("e(1,Z),e(Z,Y)", False),
    ("nope(X),e(X,Y)", False),
]


def on_the_general_path(program):
    """program with its row relation e/2 resolved by the clause loop."""
    record = program.dispatch(("e", 2))
    assert record.kind is ROWS
    record.kind = CLAUSES
    for r in record.rules:
        r.slots, r.unify_at = head_plan(r.clause)
    return program


@pytest.mark.parametrize("query,walked", FUSED_QUERIES, ids=[q for q, _ in FUSED_QUERIES])
def test_a_last_row_goal_walked_in_the_loop_before_it_is_the_general_path(monkeypatch, query, walked):
    entered = []  # per run, the calls that solve a last e/2 goal after another goal
    solve_seq = Engine._solve_seq

    def recording(self, goals, gate_at, fresh, i):
        if 0 < i == len(goals) - 1 and goals[i].functor == "e" and goals[i - 1].functor != "e":
            entered.append(i)
        return solve_seq(self, goals, gate_at, fresh, i)

    monkeypatch.setattr(Engine, "_solve_seq", recording)
    general = _six_runs(lambda: on_the_general_path(load_program(FUSED)), query)
    assert bool(entered) == walked
    entered.clear()
    # streams, counters, entry rounds and tables alike under all six configs
    assert _six_runs(lambda: load_program(FUSED), query) == general
    assert not entered  # walked in the loop over the solutions before it
    assert bool(general[0][0]) == (query not in ("r(1,Y)", "nope(X),e(X,Y)"))  # not vacuous


# per query and strategy: the step budget under which each solution comes
# out (one fewer raises before it), and the steps of the drained run
FUSED_BUDGETS = [
    ("t(1,Y)", LAZY, [18, 19, 20], 20),
    ("p(1,Y)", LAZY, [24, 27, 30], 30),
    ("t(1,Z),e(Z,Y)", LAZY, [20, 23, 26], 26),
    ("t(1,Y)", EAGER, [4, 9, 12], 17),
    ("p(1,Y)", EAGER, [10, 17, 22], 27),
    ("t(1,Z),e(Z,Y)", EAGER, [6, 13, 18], 23),
]
FUSED_BUDGET_PROGRAM = """\
:- table t/2.
t(X,Y) :- e(X,Y).
t(X,Y) :- t(X,Z), e(Z,Y).
p(X,Y) :- q(X,Z), e(Z,Y).
q(X,Y) :- t(X,Y).
e(1,2).
e(2,3).
e(3,1).
"""


@pytest.mark.parametrize("query,strategy,out_at,steps", FUSED_BUDGETS)
def test_step_budget_runs_out_in_a_walk_in_the_loop_before_it(query, strategy, out_at, steps):
    program = load_program(FUSED_BUDGET_PROGRAM)
    for budget in range(1, steps):
        eng = Engine(program, EngineOptions(strategy=strategy, step_budget=budget))
        got = []
        with pytest.raises(StepBudgetExceeded):
            for sol in eng.run(query):
                got.append(sol)
        assert len(got) == sum(s <= budget for s in out_at), budget
        assert eng.stats.steps == budget + 1
    sols, eng = run_query(program, query, EngineOptions(strategy=strategy, step_budget=steps))
    assert len(sols) == len(out_at) and eng.stats.steps == steps


@pytest.mark.parametrize("label,opts", config_matrix(), ids=[c[0] for c in config_matrix()])
@pytest.mark.parametrize("query", ["t(1,Y)", "p(1,Y)", "w(1,Y)", "t(1,Z),e(Z,Y)"])
def test_stream_closed_in_a_walk_in_the_loop_before_it_undoes_its_bindings(label, opts, query):
    # every solution of these comes out of such a walk, its bindings standing
    program = load_program(FUSED)
    for n in (1, 2):
        sols, eng = first(program, query, n, opts)
        assert len(sols) == n
        assert eng.bound == {} and eng.trail == []
        assert not active_entries(eng)
