"""Benchmark harness: configuration matrices, agreement checks, reports.

Every bench run first checks that all engine configurations agree on the
answer sets (and on the bottom-up oracle where it applies) before any
counters are reported; a divergence is a hard failure. The checks compare
values: query solutions as the value tuples `Engine.solve` gives, entry
answers as the table's tuples, and the oracle's answers in the same
forms. Text is made only for a divergence or gap message and for the
rendered solution sets a result reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from . import analysis, corpus, oracle
from .engine import EAGER, LAZY, Engine, EngineOptions
from .oracle import OracleInapplicable, answers_for_key, oracle_model
from .parser import parse_program, parse_query
from .table import check_region_invariants
from .terms import render, render_goals, render_solutions


def config_matrix(step_budget: int = 10**8) -> list[tuple[str, EngineOptions]]:
    """All valid strategy/optimization combinations, each with step_budget.

    Early promotion without semi-naive consumption is rejected by option
    validation, so the full 2x2x2 grid collapses to six runnable configs.
    """
    out = []
    for strategy in (LAZY, EAGER):
        for semi_naive, early in ((False, False), (True, False), (True, True)):
            label = (
                f"{strategy},semi_naive={'on' if semi_naive else 'off'},"
                f"early_promotion={'on' if early else 'off'}"
            )
            out.append((label, EngineOptions(strategy, semi_naive, early, step_budget)))
    return out


@dataclass
class InstanceResult:
    name: str
    rows: list[dict] = field(default_factory=list)
    solutions: dict[str, frozenset] = field(default_factory=dict)  # rendered, per config
    entry_rounds: dict[str, dict] = field(default_factory=dict)
    divergences: list[str] = field(default_factory=list)


def entry_answers(store) -> dict:
    """Per entry key, the set of its stored answer tuples."""
    return {e.key: frozenset(e.answers.tuples) for e in store}


def run_instance(
    name: str,
    text: str,
    query: str,
    use_oracle: bool = True,
    step_budget: int = 10**8,
) -> InstanceResult:
    """Parse one (program, query) once, run it under every config and self-check.

    Configs are compared on their sets of solution value tuples and, per
    entry key, on the sets of stored answer tuples; the base config's are
    compared with the oracle's, in the same forms. Each distinct solution
    set is rendered once for `solutions`, shared by the configs that gave
    it; other terms are rendered only to name a divergence."""
    items = parse_program(text)
    program = analysis.analyze(items)
    goals = parse_query(query)[0]
    result = InstanceResult(name=name)
    values: dict[str, frozenset] = {}
    answers: dict[str, dict] = {}
    for label, opts in config_matrix(step_budget):
        eng = Engine(program, opts)
        t0 = time.monotonic()
        sols = frozenset(eng.solve(goals))
        elapsed = time.monotonic() - t0
        check_region_invariants(eng.store)
        values[label] = sols
        answers[label] = entry_answers(eng.store)
        result.entry_rounds[label] = dict(eng.stats.entry_rounds)
        row = {"instance": name, "config": label, "time": elapsed}
        row.update(eng.stats.as_dict())
        row["solutions"] = len(sols)
        result.rows.append(row)

    texts = {sols: frozenset(render_solutions(goals, sols)) for sols in set(values.values())}
    result.solutions = {label: texts[sols] for label, sols in values.items()}

    labels = list(values)
    base = labels[0]
    for label in labels[1:]:
        if values[label] != values[base]:
            result.divergences.append(
                f"{name}: solution set differs between {base} and {label}"
            )
        if answers[label] != answers[base]:
            result.divergences.append(
                f"{name}: per-entry answers differ between {base} and {label}"
            )

    if use_oracle:
        try:
            model = oracle_model(items)
            if oracle.oracle_values(items, goals, model) != values[base]:
                result.divergences.append(
                    f"{name}: engine disagrees with the bottom-up oracle"
                )
            for key, tuples in answers[base].items():
                if tuples != answers_for_key(model, key):
                    result.divergences.append(
                        f"{name}: entry {render(key)} disagrees with the oracle"
                    )
        except OracleInapplicable:
            pass  # oracle skipped, never silently passed off as agreement
    return result


@dataclass
class ModelGaps:
    """One run against the oracle's least model: the exception it raised,
    or the query solutions and entry answers outside the model and those
    missing from it, each as "goal: answer" text."""

    error: Optional[str] = None
    outside: set[str] = field(default_factory=set)
    missing: set[str] = field(default_factory=set)

    def add(self, goals, answers: set, want: set, name: Optional[str] = None) -> None:
        """Record the value tuples of goals' variables in answers outside
        want and those in want missing from it, each as "name: goals under
        the tuple" text; name defaults to the goals' text."""
        for gaps, diff in ((self.outside, answers - want), (self.missing, want - answers)):
            if diff:  # text only names a gap: none is laid out for no gap
                label = name or render_goals(goals)
                gaps.update(f"{label}: {t}" for t in render_solutions(goals, diff))


def model_gaps(text: str, query: str, step_budget: int = 10**6) -> dict[str, ModelGaps]:
    """Run one range-restricted program under every config; compare the
    query's solution tuples and every table entry's answer tuples with the
    model's; terms are rendered only to name a gap."""
    items = parse_program(text)
    model = oracle_model(items)
    goals = parse_query(query)[0]
    want_query = oracle.oracle_values(items, goals, model)
    want_entry: dict = {}  # per entry key, shared by the configs
    program = analysis.analyze(items)
    out = {}
    for label, opts in config_matrix(step_budget):
        eng = Engine(program, opts)
        try:
            solutions = set(eng.solve(goals))
        except Exception as exc:  # tallied: finding these is the point
            out[label] = ModelGaps(error=f"{type(exc).__name__}: {exc}")
            continue
        gaps = out[label] = ModelGaps()
        gaps.add(goals, solutions, want_query, query)
        for key, tuples in entry_answers(eng.store).items():
            if key not in want_entry:
                want_entry[key] = answers_for_key(model, key)
            gaps.add([key], tuples, want_entry[key])
    return out


def suite_instances(
    suite: str, sizes: list[int], seed: int
) -> list[tuple[str, str, str]]:
    """(name, program text, query) triples for a named suite."""
    instances = []
    if suite in ("tcl", "tcr", "tcn", "sg"):
        for n in sizes:
            for graph in ("chain", "cycle", "random"):
                m = min(2 * n, n * (n - 1)) if graph == "random" else None
                text, query = corpus.random_instance(seed, suite, graph, n, m)
                instances.append((f"{suite}-{graph}-{n}", text, query))
    elif suite == "regex-warren":
        for n in sizes:
            text, query = corpus.string_matcher_program(n, tabled_step=True)
            instances.append((f"regex-warren-{n}", text, query))
    elif suite == "regex-warren-nontabled":
        for n in sizes:
            text, query = corpus.string_matcher_program(n, tabled_step=False)
            instances.append((f"regex-warren-nontabled-{n}", text, query))
    elif suite == "paper-examples":
        instances = [
            ("left-recursive-tc", corpus.LEFT_RECURSIVE_TC, corpus.LEFT_RECURSIVE_TC_QUERY),
            ("two-fact-self-join", corpus.TWO_FACT_SELF_JOIN, corpus.TWO_FACT_SELF_JOIN_QUERY),
            ("fresh-subgoal-guard", corpus.FRESH_SUBGOAL_GUARD, corpus.FRESH_SUBGOAL_GUARD_QUERY),
            ("fresh-subgoal-guard-reordered", corpus.FRESH_SUBGOAL_GUARD_REORDERED, corpus.FRESH_SUBGOAL_GUARD_QUERY),
            ("self-feeding-pair", corpus.SELF_FEEDING_PAIR, corpus.SELF_FEEDING_PAIR_QUERY),
            ("helper-routed-tc-point", corpus.HELPER_ROUTED_TC, corpus.HELPER_ROUTED_TC_QUERIES[0]),
            ("helper-routed-tc-open", corpus.HELPER_ROUTED_TC, corpus.HELPER_ROUTED_TC_QUERIES[1]),
            ("late-loop-under-running-cluster", corpus.LATE_LOOP_UNDER_RUNNING_CLUSTER, corpus.LATE_LOOP_UNDER_RUNNING_CLUSTER_QUERY),
            ("fake-loop-into-inner-top", corpus.FAKE_LOOP_INTO_INNER_TOP, corpus.FAKE_LOOP_INTO_INNER_TOP_QUERY),
        ]
    else:
        raise ValueError(f"unknown suite {suite!r}")
    return instances


def golden_instances() -> list[tuple[str, str, str]]:
    """The golden corpus at seed 0, and the head-shapes program:
    tests/test_engine_golden.py pins its digests and scripts/ab_query.py
    compares two trees on it."""
    suites = [("tcl", [6]), ("tcr", [6]), ("tcn", [6]), ("sg", [6, 12]), ("regex-warren", [20]),
              ("regex-warren-nontabled", [20]), ("paper-examples", [])]
    instances = [i for suite, sizes in suites for i in suite_instances(suite, sizes, 0)]
    return instances + [("head-shapes", corpus.HEAD_SHAPES, corpus.HEAD_SHAPES_QUERY)]


def bench_suite(
    suite: str,
    sizes: list[int],
    seed: int,
    use_oracle: bool = True,
    step_budget: int = 10**8,
) -> tuple[list[InstanceResult], str]:
    """Run a suite across the config matrix; returns results and a report."""
    results = []
    for name, text, query in suite_instances(suite, sizes, seed):
        results.append(
            run_instance(
                name, text, query, use_oracle=use_oracle, step_budget=step_budget
            )
        )
    lines = []
    for r in results:
        for row in r.rows:
            fields = " ".join(f"{k}={row[k]}" for k in (
                "subgoals", "max_its", "ave_its", "answers_produced", "answers_consumed",
                "clause_resolutions", "solutions"))
            lines.append(
                f"instance={row['instance']} config={row['config']} "
                f"time={row['time']:.4f} {fields}"
            )
        for d in r.divergences:
            lines.append(f"DIVERGENCE {d}")
    # size-to-size consumption ratios per config, for complexity checks
    if len(results) >= 2 and suite.startswith("regex"):
        by_config: dict[str, list[tuple[str, int]]] = {}
        for r in results:
            for row in r.rows:
                by_config.setdefault(row["config"], []).append(
                    (row["instance"], row["answers_consumed"])
                )
        for config, pairs in by_config.items():
            for (n1, c1), (n2, c2) in zip(pairs, pairs[1:]):
                if c1:
                    lines.append(
                        f"ratio config={config} {n2}/{n1} "
                        f"answers_consumed={c2 / c1:.2f}"
                    )
    return results, "\n".join(lines)
