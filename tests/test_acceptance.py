"""Acceptance gate: the nine primary behavioral criteria.

Each test prints one PASS line on success (run with `pytest -s` to see
them); a failing assertion is the corresponding FAIL.
"""

import time

import lintab.corpus as corpus
from lintab import EngineOptions, load_program, run_query
from lintab.bench import config_matrix, run_instance
from lintab.corpus import random_instance


def _ok(n, text):
    print(f"[criterion {n}] PASS: {text}")


def _solve(text, query, **kw):
    return run_query(load_program(text), query, EngineOptions(**kw))


def _consumed(n, tabled=True, **kw):
    text, query = corpus.string_matcher_program(n, tabled_step=tabled)
    _, eng = _solve(text, query, **kw)
    return eng.stats.answers_consumed


def test_criterion_1_lazy_trace():
    t0 = time.monotonic()
    sols, eng = _solve(corpus.LEFT_RECURSIVE_TC, corpus.LEFT_RECURSIVE_TC_QUERY)
    assert set(sols) == {"p(a,b)", "p(a,c)"}
    assert eng.stats.entry_rounds == {"p(a,_G0)": 3}
    assert time.monotonic() - t0 < 1.0
    _ok(1, "lazy trace: answers {p(a,b),p(a,c)}, 3 rounds, < 1 s")


def test_criterion_2_eager_trace():
    sols_eager, _ = _solve(
        corpus.TWO_FACT_SELF_JOIN, corpus.TWO_FACT_SELF_JOIN_QUERY, strategy="eager"
    )
    assert sols_eager == [
        "p(1),p(1)",
        "p(2),p(1)",
        "p(2),p(2)",
        "p(1),p(1)",
        "p(1),p(2)",
        "p(2),p(1)",
        "p(2),p(2)",
    ]
    sols_lazy, _ = _solve(
        corpus.TWO_FACT_SELF_JOIN, corpus.TWO_FACT_SELF_JOIN_QUERY, strategy="lazy"
    )
    assert len(sols_lazy) == 4 and len(set(sols_lazy)) == 4
    _ok(2, "eager emits the exact 7-solution stream; lazy emits 4 distinct")


def test_criterion_3_semi_naive_safety():
    want = {"p(a,b)", "p(b,c)", "p(b,d)"}
    for label, opts in config_matrix():
        sols, _ = run_query(
            load_program(corpus.FRESH_SUBGOAL_GUARD),
            corpus.FRESH_SUBGOAL_GUARD_QUERY,
            opts,
        )
        assert set(sols) == want, label
    sols, eng = _solve(
        corpus.FRESH_SUBGOAL_GUARD_REORDERED, corpus.FRESH_SUBGOAL_GUARD_QUERY
    )
    assert set(sols) == want
    assert eng.stats.entry_rounds["p(_G0,_G1)"] == 2
    _ok(3, "guard program keeps p(b,d) in every config; reordered closes in 2 rounds")


def test_criterion_4_semi_naive_effective():
    t0 = time.monotonic()
    ratio_sn = _consumed(800) / _consumed(400)
    ratio_naive = _consumed(
        800, semi_naive=False, early_promotion=False
    ) / _consumed(400, semi_naive=False, early_promotion=False)
    elapsed = time.monotonic() - t0
    assert 1.7 <= ratio_sn <= 2.5
    assert 3.2 <= ratio_naive <= 4.8
    assert elapsed < 30.0
    _ok(4, f"consumption ratio {ratio_sn:.2f} gated vs {ratio_naive:.2f} ungated")


def test_criterion_5_semi_naive_defeated():
    ratio_helper = _consumed(800, tabled=False) / _consumed(400, tabled=False)
    ratio_direct = _consumed(800) / _consumed(400)
    assert 3.2 <= ratio_helper <= 4.8
    assert 1.7 <= ratio_direct <= 2.5
    _ok(5, f"non-tabled helper stays quadratic ({ratio_helper:.2f}) with the gate on")


def test_criterion_6_iteration_statistics():
    instances = [random_instance(0, "tcl", "chain", 50)]
    instances += [random_instance(s, "tcl", "random", 20, 40) for s in range(10)]
    for text, query in instances:
        _, eng = _solve(text, query)
        assert eng.stats.subgoal_count == 1
        assert eng.stats.max_iterations == 2
        assert f"{eng.stats.average_iterations:.2f}" == "2.00"
    _ok(6, "tcl: 1 subgoal, max its = 2, ave its = 2.00 on chain(50) + 10 graphs")


def _differential_instances():
    kinds = ["tcl", "tcr", "tcn", "sg"]
    graphs = ["chain", "cycle", "random"]
    for i in range(50):
        kind = kinds[i % 4]
        graph = graphs[(i // 4) % 3]
        n = 5 + (i % 20)  # <= 24 nodes
        m = min(2 * n, 120) if graph == "random" else None
        yield i, random_instance(i, kind, graph, n, m)


def test_criterion_7_differential_oracle_suite():
    t0 = time.monotonic()
    for i, (text, query) in _differential_instances():
        r = run_instance(f"inst{i}", text, query)
        assert r.divergences == [], r.divergences
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _ok(7, f"50 instances: all configs and the oracle agree, no invariant fired ({elapsed:.1f} s)")


def test_criterion_8_round_count_invariance():
    for _, (text, query) in _differential_instances():
        program = load_program(text)
        _, on = run_query(
            program, query, EngineOptions(semi_naive=True, early_promotion=False)
        )
        _, off = run_query(
            program, query, EngineOptions(semi_naive=False, early_promotion=False)
        )
        assert on.stats.entry_rounds == off.stats.entry_rounds
    _ok(8, "per-entry round counts identical with semi-naive on vs off")


def test_criterion_9_early_promotion_effectiveness():
    text, query = corpus.string_matcher_program(800)
    sols_ep, with_ep = _solve(text, query, early_promotion=True)
    sols_no, without = _solve(text, query, early_promotion=False)
    assert set(sols_ep) == set(sols_no)
    assert with_ep.stats.answers_consumed < without.stats.answers_consumed
    _ok(
        9,
        f"early promotion consumed {with_ep.stats.answers_consumed} "
        f"< {without.stats.answers_consumed} at n=800, identical answers",
    )
