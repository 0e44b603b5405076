"""Static analysis: call graph, level mapping, rule annotations."""

import os
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import example, given, settings

import lintab
import lintab.corpus as corpus
from lintab.analysis import (
    CLAUSES,
    ROWS,
    TABLED,
    UNDEFINED,
    analyze,
    build_call_graph,
    level_mapping,
    pred_key,
)
from lintab.bench import suite_instances
from lintab.parser import Clause, TableDeclaration, parse_program
from lintab.terms import Struct, Var


def verify_level_mapping(clauses, levels):
    """Check the defining bidirectional property on every rule."""
    graph = build_call_graph(clauses)
    reach = {}

    def reachable(start):
        seen = reach.get(start)
        if seen is None:
            seen = reach[start] = {start}
            todo = [start]
            while todo:
                for s in graph[todo.pop()]:
                    if s not in seen:
                        seen.add(s)
                        todo.append(s)
        return seen

    for c in clauses:
        hk = pred_key(c.head)
        for goal in c.body:
            bk = pred_key(goal)
            calls_back = hk in reachable(bk)
            mh = levels[hk]
            mb = levels[bk]
            if (mh > mb) != (not calls_back):
                return False
            if (mh == mb) != calls_back:
                return False
    return True


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
    return tuple(pred_key(g) in prog.tabled for g in rule.clause.body)


def test_annotations_left_recursive_tc():
    prog = analyze(parse_program(corpus.LEFT_RECURSIVE_TC))
    rec, base = prog.rules[("p", 2)]
    assert rec.last_depending_index == 0
    assert _tabled_goals(prog, rec) == (True, False)
    assert base.last_depending_index is None
    assert ("p", 2) in prog.tabled and ("e", 2) not in prog.tabled


def test_annotation_untabled_helper_blocks_gate():
    # the last depending body goal is the non-tabled helper q, so no call
    # site in the matcher rules is a gated tabled consumer
    prog = analyze(parse_program(corpus.STRING_MATCHER_UNTABLED_STEP + "c(0,a,1).\n"))
    rec = [r for r in prog.rules[("p", 2)] if r.last_depending_index is not None]
    assert len(rec) == 2
    for r in rec:
        assert pred_key(r.clause.body[r.last_depending_index]) == ("q", 2)
    assert ("q", 2) not in prog.tabled
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
    assert ("p", 2) in prog.tabled
    assert prog.rules_for(("p", 2), None) == ()


def test_first_argument_indexing_buckets():
    prog = analyze(parse_program("e(a,b).\ne(b,c).\ne(X,X).\n"))
    names = lambda rs: [r.clause.head.args[0] for r in rs]
    from lintab.terms import Var

    assert names(prog.rules_for(("e", 2), "a")) == ["a", Var(0)]
    assert names(prog.rules_for(("e", 2), "zzz")) == [Var(0)]
    assert len(prog.rules_for(("e", 2), None)) == 3


HEAD_ARGS = st.one_of(
    st.sampled_from(["a", "b", "0"]),
    st.integers(0, 2),
    st.integers(0, 1).map(Var),
    st.sampled_from("ab").map(lambda n: Struct("f", [n])),
)
# every key the heads can hold, plus keys no head holds
CALL_KEYS = ["a", "b", "0", "zz"] + list(range(4))


# the atom "0" and the integer 0 each have a bucket; f(a) and a variable
# fall back to the unindexed rules, which also answer keys no head holds
@example([["0", 0, Var(0)], [0, "0", Struct("f", ["a"])], [Var(1), 0, "a"]])
@given(st.lists(st.lists(HEAD_ARGS, min_size=3, max_size=3), max_size=8))
@settings(max_examples=300)
def test_indexed_lookup_is_the_ordered_filter(heads):
    prog = analyze([Clause(Struct("p", args), (), 2) for args in heads])
    key = ("p", 3)
    rules = prog.rules_for(key)
    record = prog.dispatch(key)
    unbound = [Var(10), Var(11), Var(12)]
    assert record.bucket(Struct("p", unbound), {}) == rules
    for pos in range(3):
        for k in CALL_KEYS:
            want = [
                r
                for r in rules
                if not (
                    type(r.clause.head.args[pos]) in (str, int)
                    and r.clause.head.args[pos] != k
                )
            ]
            got = prog.rules_for(key, atomic_key(k), pos)
            assert [id(r) for r in got] == [id(r) for r in want]
            # the engine's bucket picker on a call that binds only pos, to k
            # through a variable, and to the compound f(k), which no index keys
            args = list(unbound)
            args[pos] = Var(9)
            got = record.bucket(Struct("p", args), {9: k})
            assert [id(r) for r in got] == [id(r) for r in want]
            args[pos] = Struct("f", [k])
            assert record.bucket(Struct("p", args), {}) == rules
    distinct = [{a for a in col if type(a) in (str, int)} for col in zip(*heads)]
    assert list(prog.dispatch(key).plan) == sorted(
        (pos for pos, ks in enumerate(distinct) if ks),
        key=lambda pos: (-len(distinct[pos]), pos),
    )


def atomic_key(t):
    """Index key of an atom or integer: the constant itself, whose type
    keeps the atom "0" and the integer 0 apart. None for a Var or Struct."""
    tt = type(t)
    return None if tt is Var or tt is Struct else t


# The per-rule dispatch loop and index build that the column-wise ones
# replaced, kept as a reference: one atomic_key call per head argument.
def _reference_dispatch(prog, key):
    distinct = {}
    rules = prog.rules.get(key)
    rows = key[1] > 0 and bool(rules)
    for r in rules or ():
        if r.clause.body:
            rows = False
        head = r.clause.head
        if type(head) is Struct:
            for pos, arg in enumerate(head.args):
                k = atomic_key(arg)
                if k is None:
                    rows = False
                else:
                    distinct.setdefault(pos, set()).add(k)
    kind = (
        TABLED if key in prog.tabled
        else UNDEFINED if rules is None
        else ROWS if rows
        else CLAUSES
    )
    return kind, tuple(sorted(distinct, key=lambda pos: (-len(distinct[pos]), pos)))


def _reference_index(rules, pos):
    buckets, unindexed = {}, []
    for r in rules:
        k = atomic_key(r.clause.head.args[pos])
        if k is None:
            unindexed.append(r)
            for bucket in buckets.values():
                bucket.append(r)
        else:
            bucket = buckets.get(k)
            if bucket is None:
                bucket = buckets[k] = list(unindexed)
            bucket.append(r)
    return {k: tuple(v) for k, v in buckets.items()}, tuple(unindexed)


def _ids(rules):
    return [id(r) for r in rules]


def _fact(functor, *args):
    return Clause(Struct(functor, args), (), 0)


_DISPATCH_CASES = {
    # the atom "0" and the integer 0 in one column keep apart
    "zero-atom-versus-integer": [_fact("z", "0", "a"), _fact("z", 0, "b"), _fact("z", "0", 0)],
    "variable-argument": "e(a,b).\ne(X,c).\ne(b,Y).\n",
    "compound-argument": "e(a,b).\ne(f(a),c).\ne(b,g(X)).\n",
    "facts-and-rules": "q(a,b).\nq(X,Y) :- e(X,Y).\nq(c,d).\ne(a,c).\n",
    "repeated-variable": "e(X,X).\ne(a,b).\n",
    "duplicate-facts": "d(a,b).\nd(a,b).\nd(b,a).\nd(a,b).\n",
    "arity-zero": "go.\ngo :- go.\nstop.\n",
    # no head of w has an atom or integer in its first column
    "no-atomic-key": "w(X,a).\nw(f(b),b).\nw(Y,c).\nw(g(Y),a).\n",
    "tabled-facts": ":- table t/2.\nt(a,b).\nt(b,c).\n",
}


def _dispatch_cases():
    for name, text, _ in suite_instances("paper-examples", [], 0):
        yield name, parse_program(text)
    for kind in ("tcl", "tcr", "tcn", "sg"):
        for graph in ("chain", "cycle", "random"):
            text, _ = corpus.random_instance(3, kind, graph, 7, 14 if graph == "random" else None)
            yield f"{kind}-{graph}", parse_program(text)
    for seed in range(60):
        yield f"mutual-{seed}", parse_program(corpus.mutual_recursion_program(seed)[0])
    for name, case in _DISPATCH_CASES.items():
        yield name, parse_program(case) if type(case) is str else case


def test_dispatch_records_equal_the_per_rule_reference():
    kinds = set()
    for name, items in _dispatch_cases():
        prog = analyze(items)
        for key in [*prog.levels, *prog.rules, ("undefined", 2)]:
            record = prog.dispatch(key)
            kind, plan = _reference_dispatch(prog, key)
            assert (record.kind, record.plan) == (kind, plan), (name, key)
            assert _ids(record.rules) == _ids(prog.rules.get(key, ())), (name, key)
            kinds.add(kind)
            for pos in plan:
                buckets, unindexed = record.index(pos)
                want_buckets, want_unindexed = _reference_index(record.rules, pos)
                assert list(buckets) == list(want_buckets), (name, key, pos)
                for k, rules in want_buckets.items():
                    assert _ids(buckets[k]) == _ids(rules), (name, key, pos, k)
                assert _ids(unindexed) == _ids(want_unindexed), (name, key, pos)
    assert kinds == {TABLED, ROWS, CLAUSES, UNDEFINED}


def test_dispatch_hand_written_cases():
    def record(case, key):
        prog = analyze(parse_program(case) if type(case) is str else case)
        return prog.dispatch(key)

    zero = record(_DISPATCH_CASES["zero-atom-versus-integer"], ("z", 2))
    assert (zero.kind, zero.plan) == (ROWS, (1, 0))  # three keys in column 1, two in 0
    buckets, _ = zero.index(0)
    assert [r.clause.head.args[1] for r in buckets["0"]] == ["a", 0]
    assert [r.clause.head.args[1] for r in buckets[0]] == ["b"]
    assert record(_DISPATCH_CASES["variable-argument"], ("e", 2)).kind == CLAUSES
    assert record(_DISPATCH_CASES["compound-argument"], ("e", 2)).plan == (0, 1)
    assert record(_DISPATCH_CASES["facts-and-rules"], ("q", 2)).kind == CLAUSES
    assert record(_DISPATCH_CASES["repeated-variable"], ("e", 2)).plan == (0, 1)
    dup = record(_DISPATCH_CASES["duplicate-facts"], ("d", 2))
    assert (dup.kind, dup.plan, len(dup.index(0)[0]["a"])) == (ROWS, (0, 1), 3)
    go = record(_DISPATCH_CASES["arity-zero"], ("go", 0))
    assert (go.kind, go.plan, len(go.rules)) == (CLAUSES, (), 2)
    assert record(_DISPATCH_CASES["arity-zero"], ("stop", 0)).kind == CLAUSES
    none = record(_DISPATCH_CASES["no-atomic-key"], ("w", 2))
    assert (none.kind, none.plan) == (CLAUSES, (1,))
    assert record(_DISPATCH_CASES["tabled-facts"], ("t", 2)).kind == TABLED


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
    clauses = [Clause(head, tuple(body), 0) for head, body in rules]
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


def fresh_interpreter(code: str) -> str:
    """The output of code run by a fresh interpreter, so that modules the
    test runner loaded do not count."""
    src = str(Path(lintab.__file__).resolve().parent.parent)
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    return out.stdout


def test_lintab_imports_only_the_standard_library():
    # this also keeps networkx out, which the SCC code once needed
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import lintab, lintab.cli, lintab.bench, lintab.corpus, lintab.generate\n"
        "new = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(' '.join(sorted(new - {'lintab'} - sys.stdlib_module_names)))\n"
    )
    assert fresh_interpreter(code).strip() == ""


def test_a_one_shot_query_imports_no_dataclasses_oracle_or_harness():
    # what `import lintab` and `import lintab.cli` load is what every
    # one-shot query pays before it parses; the oracle loads on first use
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import lintab\n"
        "print(sorted({'dataclasses', 'lintab.oracle'} & (set(sys.modules) - before)))\n"
        "import lintab.cli\n"
        "print(sorted({'dataclasses', 'lintab.bench', 'lintab.generate', 'lintab.oracle'}\n"
        "             & (set(sys.modules) - before)))\n"
        "print(lintab.oracle_solve.__module__, lintab.OracleInapplicable.__module__)\n"
        "from lintab import *\n"
        "print(oracle_solve is lintab.oracle.oracle_solve, sorted(set(lintab.__all__) - set(dir())))\n"
    )
    assert fresh_interpreter(code).splitlines() == [
        "[]",
        "[]",
        "lintab.oracle lintab.oracle",
        "True []",
    ]
