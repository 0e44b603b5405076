"""CLI: subcommands, flags, exit codes."""

import json

import pytest

import lintab.bench
import lintab.cli
import lintab.corpus as corpus
import lintab.oracle
from lintab.cli import (
    EXIT_BUDGET,
    EXIT_DEPTH,
    EXIT_NO_SOLUTIONS,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from lintab.oracle import oracle_model, oracle_solve
from lintab.terms import Struct


@pytest.fixture
def tc_file(tmp_path):
    path = tmp_path / "tc.pl"
    path.write_text(corpus.LEFT_RECURSIVE_TC)
    return str(path)


def test_run_prints_solutions(tc_file, capsys):
    assert main(["run", tc_file, "p(a,Y)"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == ["p(a,b)", "p(a,c)"]


def test_run_eager_duplicates(tmp_path, capsys):
    path = tmp_path / "join.pl"
    path.write_text(corpus.TWO_FACT_SELF_JOIN)
    assert main(["run", str(path), "p(X),p(Y)", "--strategy", "eager"]) == EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 7


def test_run_no_solutions_exit_code(tc_file):
    assert main(["run", tc_file, "p(z,Y)"]) == EXIT_NO_SOLUTIONS


def test_run_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.pl"
    path.write_text("p(a\n")
    assert main(["run", str(path), "p(X)"]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_run_missing_file_exit_code(tmp_path):
    assert main(["run", str(tmp_path / "nope.pl"), "p(X)"]) == EXIT_USAGE


def test_run_invalid_option_combination(tc_file, capsys):
    code = main(
        [
            "run",
            tc_file,
            "p(a,Y)",
            "--semi-naive",
            "off",
            "--early-promotion",
            "on",
        ]
    )
    assert code == EXIT_USAGE
    assert "semi-naive" in capsys.readouterr().err


def test_run_step_budget_exit_code(tc_file, capsys):
    assert main(["run", tc_file, "p(X,Y)", "--step-budget", "4"]) == EXIT_BUDGET


def test_run_deep_recursion_exit_code(tmp_path, capsys):
    path = tmp_path / "path.pl"
    chain = "".join(f"edge({i},{i + 1}).\n" for i in range(1, 401))
    path.write_text(
        chain + "path(X,Y) :- edge(X,Y).\npath(X,Y) :- edge(X,Z), path(Z,Y).\n"
    )
    assert main(["run", str(path), "path(1,Y)"]) == EXIT_DEPTH
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "path(1,2)"
    assert captured.err.startswith("error: resolution nested deeper")
    assert "Traceback" not in captured.err


def test_bench_deep_recursion_exit_code(capsys):
    assert main(["bench", "tcr", "--sizes", "400", "--no-oracle"]) == EXIT_DEPTH
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", [["run", "_", "p(X)"], ["analyze", "_"]])
def test_deeply_nested_term_is_a_usage_error(tmp_path, capsys, command):
    path = tmp_path / "deep.pl"
    path.write_text("p(" + "f(" * 2000 + "a" + ")" * 2000 + ").\n")
    command[1] = str(path)
    assert main(command) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "term nested too deeply" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "query", ["p(X)", "p(" + "f(" * 900 + "X" + ")" * 900 + ")"], ids=["open_query", "query_nested_900_deep"]
)
def test_run_answers_a_fact_nested_900_deep(tmp_path, capsys, query):
    # each term walk takes one frame per nesting level, the query's
    # Template layout included
    term = "f(" * 900 + "a" + ")" * 900
    path = tmp_path / "deep.pl"
    path.write_text(f"p({term}).\n")
    assert main(["run", str(path), query]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == f"p({term})"


def test_run_tabled_fact_nested_600_deep_exit_code(tmp_path, capsys):
    # the answer table hashes a stored compound recursively, two frames
    # per nesting level (ROADMAP 8)
    path = tmp_path / "deep.pl"
    path.write_text(":- table p/1.\np(" + "f(" * 600 + "a" + ")" * 600 + ").\n")
    assert main(["run", str(path), "p(X)"]) == EXIT_DEPTH
    captured = capsys.readouterr()
    assert captured.err.startswith("error: resolution nested deeper")
    assert "Traceback" not in captured.err


def test_oracle_agrees_on_a_fact_nested_450_deep(tmp_path, capsys):
    # the oracle's groundness test walks a stack, not the Python stack
    term = "f(" * 450 + "a" + ")" * 450
    path = tmp_path / "deep.pl"
    path.write_text(f"p({term}).\n")
    assert main(["run", str(path), "p(X)", "--oracle"]) == EXIT_OK
    out, err = capsys.readouterr()
    assert out.splitlines() == [f"p({term})", "oracle: agreement on 1 solutions"]
    assert "Traceback" not in err


def test_oracle_declines_a_fact_nested_past_its_recursion(tmp_path, capsys):
    # the engine answers a fact nested 600 deep; the oracle's recursive
    # walks (substitution, hashing) cannot follow it, so the oracle is
    # inapplicable
    path = tmp_path / "deep.pl"
    path.write_text("p(" + "f(" * 600 + "a" + ")" * 600 + ").\n")
    assert main(["run", str(path), "p(X)", "--oracle"]) == EXIT_OK
    out, err = capsys.readouterr()
    assert "oracle: inapplicable (" in out
    assert "Traceback" not in err


def test_run_stats_block(tc_file, capsys):
    assert main(["run", tc_file, "p(a,Y)", "--stats"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "-- stats --" in out
    assert "answers_produced=2" in out
    assert "ave_its=3.00" in out
    # per-phase seconds follow the counters
    stats = out.split("-- stats --\n")[1].splitlines()
    assert [line.split("=")[0] for line in stats[-3:]] == ["parse_s", "analyze_s", "evaluate_s"]
    assert all(float(line.split("=")[1]) >= 0 for line in stats[-3:])


def test_run_dump_table(tc_file, capsys):
    assert main(["run", tc_file, "p(a,Y)", "--dump-table"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "p(a,_G0)  state=complete answers=[p(a,b),p(a,c)]" in out


def test_run_oracle_agreement(tc_file, capsys):
    assert main(["run", tc_file, "p(a,Y)", "--oracle"]) == EXIT_OK
    assert "oracle: agreement on 2 solutions" in capsys.readouterr().out


def test_run_oracle_parses_the_program_once(tc_file, capsys, monkeypatch):
    # the oracle gets the items the run parsed, not the text to parse again
    def fail(text):
        raise AssertionError("the oracle parsed the program again")

    monkeypatch.setattr(lintab.oracle, "parse_program", fail)
    assert main(["run", tc_file, "p(a,Y)", "--oracle"]) == EXIT_OK
    assert "oracle: agreement on 2 solutions" in capsys.readouterr().out


def test_run_oracle_divergence_exit_code(tc_file, capsys, monkeypatch):
    # an oracle that swaps p(a,c) for p(a,d) disagrees with the engine
    def planted(text, query):
        return oracle_solve(text, query) - {"p(a,c)"} | {"p(a,d)"}

    monkeypatch.setattr(lintab.oracle, "oracle_solve", planted)
    assert main(["run", tc_file, "p(a,Y)", "--oracle"]) == EXIT_USAGE
    out = capsys.readouterr().out.splitlines()
    assert out[2:] == ["oracle: DIVERGENCE", "  missing: p(a,d)", "  extra:   p(a,c)"]


def test_run_oracle_truncated_run(tc_file, capsys):
    # a limited run is checked for being a subset of the model only
    assert main(["run", tc_file, "p(a,Y)", "--oracle", "--limit", "1"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        "p(a,b)",
        "oracle: truncated run is a subset of the model",
    ]


def test_run_oracle_limit_not_reached_checks_the_whole_model(tc_file, capsys, monkeypatch):
    # the stream ends after 2 of at most 5 solutions: the run drained, so a
    # model solution it lacks is a divergence, not truncation
    def planted(text, query):
        return oracle_solve(text, query) | {"p(a,d)"}

    monkeypatch.setattr(lintab.oracle, "oracle_solve", planted)
    assert main(["run", tc_file, "p(a,Y)", "--oracle", "--limit", "5"]) == EXIT_USAGE
    out = capsys.readouterr().out.splitlines()
    assert out[2:] == ["oracle: DIVERGENCE", "  missing: p(a,d)"]


def test_run_oracle_truncated_divergence_lists_extras_only(tc_file, capsys, monkeypatch):
    # a run stopped at its limit misses solutions by design: only what it
    # gave outside the model is named
    def planted(text, query):
        return oracle_solve(text, query) - {"p(a,b)"} | {"p(a,d)"}

    monkeypatch.setattr(lintab.oracle, "oracle_solve", planted)
    assert main(["run", tc_file, "p(a,Y)", "--oracle", "--limit", "1"]) == EXIT_USAGE
    out = capsys.readouterr().out.splitlines()
    assert out == ["p(a,b)", "oracle: DIVERGENCE", "  extra:   p(a,b)"]


def test_run_oracle_on_a_function_free_program_of_arity_9(tmp_path, capsys):
    # a 9-bit counter needs 513 passes: the oracle's bound for a
    # function-free program counts every argument, so it agrees and exits 0
    path = tmp_path / "ctr.pl"
    path.write_text(
        "c(0,0,0,0,0,0,0,0,0).\n"
        "c(1,0,0,0,0,0,0,0,0) :- c(0,1,1,1,1,1,1,1,1).\n"
        "c(X0,1,0,0,0,0,0,0,0) :- c(X0,0,1,1,1,1,1,1,1).\n"
        "c(X0,X1,1,0,0,0,0,0,0) :- c(X0,X1,0,1,1,1,1,1,1).\n"
        "c(X0,X1,X2,1,0,0,0,0,0) :- c(X0,X1,X2,0,1,1,1,1,1).\n"
        "c(X0,X1,X2,X3,1,0,0,0,0) :- c(X0,X1,X2,X3,0,1,1,1,1).\n"
        "c(X0,X1,X2,X3,X4,1,0,0,0) :- c(X0,X1,X2,X3,X4,0,1,1,1).\n"
        "c(X0,X1,X2,X3,X4,X5,1,0,0) :- c(X0,X1,X2,X3,X4,X5,0,1,1).\n"
        "c(X0,X1,X2,X3,X4,X5,X6,1,0) :- c(X0,X1,X2,X3,X4,X5,X6,0,1).\n"
        "c(X0,X1,X2,X3,X4,X5,X6,X7,1) :- c(X0,X1,X2,X3,X4,X5,X6,X7,0).\n"
    )
    assert main(["run", str(path), "c(0,0,0,0,0,0,0,0,0)", "--oracle"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["c(0,0,0,0,0,0,0,0,0)", "oracle: agreement on 1 solutions"]
    assert "Traceback" not in captured.err


def test_run_oracle_inapplicable_past_the_bound_with_function_symbols(tmp_path, capsys):
    # a finite 4-fact model whose naive fixpoint outruns the bound over
    # constants: the oracle declines and the run still exits 0
    path = tmp_path / "d.pl"
    path.write_text(
        ":- table d/1.\nd(a).\nd(f(X)) :- d(X), small(X).\n"
        "small(a).\nsmall(f(a)).\nsmall(f(f(a))).\n"
    )
    assert main(["run", str(path), "d(X)", "--oracle"]) == EXIT_OK
    captured = capsys.readouterr()
    out = captured.out.splitlines()
    assert sorted(out[:4]) == ["d(a)", "d(f(a))", "d(f(f(a)))", "d(f(f(f(a))))"]
    assert out[4].startswith("oracle: inapplicable (function symbols: ")
    assert len(out) == 5
    assert "Traceback" not in captured.err


def test_run_late_loop_under_running_cluster(tmp_path, capsys):
    path = tmp_path / "late.pl"
    path.write_text(corpus.LATE_LOOP_UNDER_RUNNING_CLUSTER)
    query = corpus.LATE_LOOP_UNDER_RUNNING_CLUSTER_QUERY
    assert main(["run", str(path), query, "--strategy", "eager", "--oracle"]) == EXIT_OK
    captured = capsys.readouterr()
    assert "oracle: agreement on 2 solutions" in captured.out
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("limit", ["0", "-3"])
def test_run_nonpositive_limit_is_usage_error(tc_file, capsys, limit):
    assert main(["run", tc_file, "p(a,Y)", "--limit", limit]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: limit must be positive\n"


@pytest.mark.parametrize(
    "args", [["--sizes", "3", "--step-budget", "0"], ["--sizes", "0"]]
)
def test_bench_invalid_arguments_exit_code(capsys, args):
    assert main(["bench", "tcl", *args]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_run_limit_and_dedup(tc_file, capsys):
    assert main(["run", tc_file, "p(a,Y)", "--limit", "1", "--dedup"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == ["p(a,b)"]


@pytest.fixture
def join_file(tmp_path):
    path = tmp_path / "join.pl"
    path.write_text(corpus.TWO_FACT_SELF_JOIN)
    return str(path)


def run_join(join_file, capsys, *flags):
    """stdout lines of the eager self-join query under flags."""
    args = ["run", join_file, corpus.TWO_FACT_SELF_JOIN_QUERY, "--strategy", "eager", *flags]
    assert main(args) == EXIT_OK
    return capsys.readouterr().out.splitlines()


def test_run_limit_truncates_the_stream(join_file, capsys):
    assert run_join(join_file, capsys, "--limit", "3") == ["p(1),p(1)", "p(2),p(1)", "p(2),p(2)"]


def test_run_dedup_keeps_first_occurrences(join_file, capsys):
    assert run_join(join_file, capsys, "--dedup") == [
        "p(1),p(1)", "p(2),p(1)", "p(2),p(2)", "p(1),p(2)"
    ]


def test_run_limited_stats_are_final(join_file, capsys):
    # the stream is closed, which finalizes the stats, before they print
    lines = run_join(join_file, capsys, "--limit", "1", "--stats")
    assert [line for line in lines if "_s=" not in line] == [
        "p(1),p(1)",
        "-- stats --",
        "subgoals=1",
        "max_its=1",
        "ave_its=1.00",
        "answers_produced=1",
        "answers_consumed=1",
        "clause_resolutions=1",
        "steps=4",
        "undefined_calls=0",
    ]


def test_gen_chain(capsys):
    assert main(["gen", "chain", "3"]) == EXIT_OK
    assert capsys.readouterr().out == "e(1,2).\ne(2,3).\n"


def test_gen_ab_string(capsys):
    assert main(["gen", "ab-string", "4"]) == EXIT_OK
    assert capsys.readouterr().out == "c(0,a,1).\nc(1,b,2).\nc(2,a,3).\nc(3,b,4).\n"


def test_gen_random_graph_deterministic(capsys):
    assert main(["gen", "random-graph", "10", "--edges", "25", "--seed", "9"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["gen", "random-graph", "10", "--edges", "25", "--seed", "9"]) == EXIT_OK
    assert capsys.readouterr().out == first


def test_gen_pred_flag(capsys):
    assert main(["gen", "chain", "3", "--pred", "edge"]) == EXIT_OK
    assert capsys.readouterr().out == "edge(1,2).\nedge(2,3).\n"


def test_gen_errors(capsys):
    assert main(["gen", "random-graph", "5"]) == EXIT_USAGE
    assert main(["gen", "chain", "0"]) == EXIT_USAGE


def test_gen_edges_only_for_random_graphs(capsys):
    # chain, cycle and ab-string have a fixed edge set: --edges is an error
    for kind in ("chain", "cycle", "ab-string"):
        assert main(["gen", kind, "3", "--edges", "7"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --edges applies to random-graph only, not {kind}\n"


def test_analyze_report(tc_file, capsys):
    assert main(["analyze", tc_file]) == EXIT_OK
    out = capsys.readouterr().out
    assert "p/2 level=1" in out
    assert "rule#0 last_depending=0 base=false" in out


def test_bench_divergence_exit_code(capsys, monkeypatch):
    # an oracle model missing p(a,c) disagrees with the left-recursive closure
    def model_without_p_a_c(items):
        model = oracle_model(items)
        facts = model.get(("p", 2), [])
        if Struct("p", ["a", "c"]) in facts:
            facts.remove(Struct("p", ["a", "c"]))
        return model

    monkeypatch.setattr(lintab.bench, "oracle_model", model_without_p_a_c)
    assert main(["bench", "paper-examples"]) == EXIT_USAGE
    out = capsys.readouterr().out.splitlines()
    assert "DIVERGENCE left-recursive-tc: engine disagrees with the bottom-up oracle" in out


def test_bench_writes_json(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(
        ["bench", "paper-examples", "--json", str(out_path)]
    )
    assert code == EXIT_OK
    payload = json.loads(out_path.read_text())
    names = {entry["name"] for entry in payload}
    assert "left-recursive-tc" in names
    assert all(entry["divergences"] == [] for entry in payload)
    # stats fields round-trip through the structured output
    row = payload[0]["rows"][0]
    assert {"config", "answers_consumed", "subgoals"} <= set(row)


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
