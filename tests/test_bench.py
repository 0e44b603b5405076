"""Bench harness: config matrix, agreement checks, suites."""

import pytest

import lintab.bench
import lintab.corpus as corpus
from lintab import load_program
from lintab.bench import (
    bench_suite,
    config_matrix,
    golden_instances,
    model_gaps,
    run_instance,
    suite_instances,
)
from lintab.engine import Engine
from lintab.oracle import oracle_model, oracle_solve
from lintab.terms import Struct


def test_config_matrix_covers_valid_combinations():
    labels = [label for label, _ in config_matrix()]
    assert len(labels) == len(set(labels)) == 6
    assert sum(1 for _, o in config_matrix() if o.strategy == "lazy") == 3
    assert all(
        o.semi_naive or not o.early_promotion for _, o in config_matrix()
    )


def test_run_instance_agreement_and_rows():
    r = run_instance(
        "tc", corpus.LEFT_RECURSIVE_TC, corpus.LEFT_RECURSIVE_TC_QUERY
    )
    assert r.divergences == []
    assert len(r.rows) == 6
    assert all(row["solutions"] == 2 for row in r.rows)
    assert {"subgoals", "answers_consumed", "time"} <= set(r.rows[0])


def test_run_instance_skips_the_oracle_outside_its_fragment():
    # a program outside the oracle's fragment is skipped, not flagged
    r = run_instance("free", ":- table p/1.\np(X).\n", "p(X)")
    assert r.divergences == []


def test_run_instance_flags_a_planted_oracle_divergence(monkeypatch):
    # an oracle model missing one fact disagrees with the engine on the
    # query and on the entry that holds the fact
    def model_without_p_a_c(items):
        model = oracle_model(items)
        model[("p", 2)].remove(Struct("p", ["a", "c"]))
        return model

    monkeypatch.setattr(lintab.bench, "oracle_model", model_without_p_a_c)
    r = run_instance("tc", corpus.LEFT_RECURSIVE_TC, corpus.LEFT_RECURSIVE_TC_QUERY)
    assert r.divergences == [
        "tc: engine disagrees with the bottom-up oracle",
        "tc: entry p(a,_G0) disagrees with the oracle",
    ]


def test_run_instance_flags_a_planted_table_difference(monkeypatch):
    # the last config's first entry holds one answer the others lack
    (base, _), (label, planted) = config_matrix()[0], config_matrix()[-1]

    class PlantingEngine(lintab.bench.Engine):
        def solve(self, query):
            yield from super().solve(query)
            if self.opts == planted:
                next(iter(self.store)).answers.add(("z",))

    monkeypatch.setattr(lintab.bench, "Engine", PlantingEngine)
    r = run_instance("tc", corpus.LEFT_RECURSIVE_TC, corpus.LEFT_RECURSIVE_TC_QUERY)
    assert r.divergences == [f"tc: per-entry answers differ between {base} and {label}"]


def test_run_instance_flags_a_planted_solution_difference(monkeypatch):
    # the last config gives one solution value the others lack
    (base, _), (label, planted) = config_matrix()[0], config_matrix()[-1]

    class PlantingEngine(lintab.bench.Engine):
        def solve(self, query):
            yield from super().solve(query)
            if self.opts == planted:
                yield ("z",)

    monkeypatch.setattr(lintab.bench, "Engine", PlantingEngine)
    r = run_instance("tc", corpus.LEFT_RECURSIVE_TC, corpus.LEFT_RECURSIVE_TC_QUERY)
    assert r.divergences == [f"tc: solution set differs between {base} and {label}"]
    assert r.solutions[label] - r.solutions[base] == {"p(a,z)"}


@pytest.mark.parametrize("name,text,query", golden_instances(), ids=[i[0] for i in golden_instances()])
def test_run_instance_solutions_are_each_configs_rendered_run(name, text, query):
    # each distinct value set is rendered once and shared between configs:
    # the text is what the config's own run() yields
    r = run_instance(name, text, query)
    program = load_program(text)
    for label, opts in config_matrix():
        assert r.solutions[label] == set(Engine(program, opts).run(query)), label


def test_head_shapes_agree_with_the_oracle_lazily():
    # every head shape, under every config: no error and no answer outside
    # the model; the lazy configs miss none either
    gaps = model_gaps(corpus.HEAD_SHAPES, corpus.HEAD_SHAPES_QUERY)
    assert len(gaps) == 6
    for label, g in gaps.items():
        assert g.error is None and not g.outside, label
        assert label.startswith("eager") or not g.missing, label


def test_model_gaps_records_a_raising_config_and_goes_on():
    # every config runs out of steps: each is recorded with its error,
    # and the next config still runs
    gaps = model_gaps(corpus.LEFT_RECURSIVE_TC, "p(a,Y)", step_budget=3)
    assert list(gaps) == [label for label, _ in config_matrix()]
    for label, g in gaps.items():
        assert g.error.startswith("StepBudgetExceeded"), label
        assert not g.outside and not g.missing, label


# Under eager, pair(f(a,_)) is first called while pair(_) hands out its
# first answer and completes with none, so every query solution is lost;
# `path(a,c),path(a,W)` over the same edges loses path(a,a) and path(a,c)
@pytest.mark.xfail(strict=True, reason="eager misses answers (ROADMAP 1)")
def test_head_shapes_miss_no_answer_eagerly():
    gaps = model_gaps(corpus.HEAD_SHAPES, corpus.HEAD_SHAPES_QUERY)
    assert {label: g.missing for label, g in gaps.items() if g.missing} == {}


def test_paper_examples_suite_clean():
    results, report = bench_suite("paper-examples", [], seed=0)
    assert all(not r.divergences for r in results)
    assert "DIVERGENCE" not in report
    assert "instance=left-recursive-tc" in report


def test_tcl_chain_suite_counts_and_rounds():
    results, report = bench_suite("tcl", [50], seed=0)
    chain = next(r for r in results if r.name == "tcl-chain-50")
    assert not chain.divergences
    # transitive closure of a 50-chain has 50*49/2 pairs, in every config
    assert all(row["solutions"] == 1225 for row in chain.rows)
    for rounds in chain.entry_rounds.values():
        assert rounds["tcl(_G0,_G1)"] == 2


@pytest.mark.parametrize("suite,n", [("tcr", 40), ("tcn", 30)])
def test_right_and_double_recursive_suites_agree_with_the_oracle(suite, n):
    # sizes the scan-based oracle made too slow for every run
    results, report = bench_suite(suite, [n], seed=0)
    assert "DIVERGENCE" not in report
    chain = next(r for r in results if r.name == f"{suite}-chain-{n}")
    # the oracle applies (it is skipped silently where it does not), and
    # an n-chain's closure has n(n-1)/2 pairs in the model and every config
    _, text, query = suite_instances(suite, [n], seed=0)[0]
    assert len(oracle_solve(text, query)) == n * (n - 1) // 2
    assert all(row["solutions"] == n * (n - 1) // 2 for row in chain.rows)


def test_regex_suite_reports_ratios():
    _, report = bench_suite("regex-warren", [20, 40], seed=0)
    assert "ratio config=" in report
    assert "DIVERGENCE" not in report


def test_suite_instances_shapes():
    insts = suite_instances("sg", [5], seed=1)
    assert [name for name, _, _ in insts] == [
        "sg-chain-5",
        "sg-cycle-5",
        "sg-random-5",
    ]
    assert all("node(" in text for _, text, _ in insts)
