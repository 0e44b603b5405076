"""Benchmark harness: configuration matrices, agreement checks, reports.

Every bench run first checks that all engine configurations agree on the
answer sets (and on the bottom-up oracle where it applies) before any
counters are reported; a divergence is a hard failure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional

from . import analysis, corpus, oracle
from .engine import EAGER, LAZY, Engine, EngineOptions
from .oracle import OracleInapplicable, answers_for_key, oracle_model
from .parser import parse_program
from .table import check_region_invariants
from .terms import render


def config_matrix() -> list[tuple[str, EngineOptions]]:
    """All valid strategy/optimization combinations.

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
            out.append(
                (
                    label,
                    EngineOptions(
                        strategy=strategy,
                        semi_naive=semi_naive,
                        early_promotion=early,
                    ),
                )
            )
    return out


@dataclass
class InstanceResult:
    name: str
    rows: list[dict] = field(default_factory=list)
    solutions: dict[str, frozenset] = field(default_factory=dict)
    entry_answers: dict[str, dict] = field(default_factory=dict)
    entry_rounds: dict[str, dict] = field(default_factory=dict)
    divergences: list[str] = field(default_factory=list)


def entry_answer_sets(engine: Engine) -> dict[str, frozenset]:
    return {
        render(e.key): frozenset(render(a) for a in e.answers)
        for e in engine.store
    }


def run_instance(
    name: str,
    text: str,
    query: str,
    use_oracle: bool = True,
    step_budget: int = 10**8,
) -> InstanceResult:
    """Run one (program, query) under every config and self-check."""
    items = parse_program(text)
    program = analysis.analyze(items)
    result = InstanceResult(name=name)
    for label, opts in config_matrix():
        eng = Engine(program, replace(opts, step_budget=step_budget))
        t0 = time.monotonic()
        sols = list(eng.run(query))
        elapsed = time.monotonic() - t0
        check_region_invariants(eng.store)
        if not result.solutions:  # the base config's entries, for the oracle
            keys = [e.key for e in eng.store]
        result.solutions[label] = frozenset(sols)
        result.entry_answers[label] = entry_answer_sets(eng)
        result.entry_rounds[label] = dict(eng.stats.entry_rounds)
        row = {"instance": name, "config": label, "time": elapsed}
        row.update(eng.stats.as_dict())
        row["solutions"] = len(frozenset(sols))
        result.rows.append(row)

    labels = list(result.solutions)
    base = labels[0]
    for label in labels[1:]:
        if result.solutions[label] != result.solutions[base]:
            result.divergences.append(
                f"{name}: solution set differs between {base} and {label}"
            )
        if result.entry_answers[label] != result.entry_answers[base]:
            result.divergences.append(
                f"{name}: per-entry answers differ between {base} and {label}"
            )

    if use_oracle:
        try:
            model = oracle_model(items)
            expected = oracle.oracle_solve(items, query, model)
            if frozenset(expected) != result.solutions[base]:
                result.divergences.append(
                    f"{name}: engine disagrees with the bottom-up oracle"
                )
            for key, (key_text, answers) in zip(keys, result.entry_answers[base].items()):
                want = frozenset(render(f) for f in answers_for_key(model, key))
                if answers != want:
                    result.divergences.append(
                        f"{name}: entry {key_text} disagrees with the oracle"
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


def model_gaps(text: str, query: str, step_budget: int = 10**6) -> dict[str, ModelGaps]:
    """Run one range-restricted program under every config; compare the
    query's solutions and every table entry's answers with the model."""
    items = parse_program(text)
    model = oracle_model(items)
    want = {query: oracle.oracle_solve(items, query, model)}
    program = analysis.analyze(items)
    out = {}
    for label, opts in config_matrix():
        eng = Engine(program, replace(opts, step_budget=step_budget))
        try:
            got = {query: set(eng.run(query))}
        except Exception as exc:  # tallied: finding these is the point
            out[label] = ModelGaps(error=f"{type(exc).__name__}: {exc}")
            continue
        for e in eng.store:
            key = render(e.key)
            got[key] = {render(a) for a in e.answers}
            want[key] = {render(f) for f in answers_for_key(model, e.key)}
        gaps = out[label] = ModelGaps()
        for goal, answers in got.items():
            gaps.outside |= {f"{goal}: {a}" for a in answers - want[goal]}
            gaps.missing |= {f"{goal}: {a}" for a in want[goal] - answers}
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
            fields = " ".join(
                f"{k}={row[k]}"
                for k in (
                    "subgoals",
                    "max_its",
                    "ave_its",
                    "answers_produced",
                    "answers_consumed",
                    "clause_resolutions",
                    "solutions",
                )
            )
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
