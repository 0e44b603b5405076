#!/usr/bin/env python3
"""Check that two lintab trees behave the same, run by run.

    git archive <rev> src/lintab | tar -x -C /tmp/parent
    python3 scripts/ab_query.py --parent-src /tmp/parent/src --programs 2500

Both `<parent-src>/lintab` and this checkout's `src/lintab` are copied
under two package names into a temporary directory and imported side by
side. The programs come from this checkout: the golden corpus
`bench.golden_instances()`, whose digests tests/test_engine_golden.py
pins, and `corpus.mutual_recursion_program` seeds --seed ..
--seed+--programs-1. Each tree parses and analyzes each program
and runs its query under the six `bench.config_matrix()` configs, with a
step budget of 10**6. Per run, the parts compared are the program's
`report()`, the solution stream (order and duplicates), `entry_rounds`,
`RunStats.as_dict()`, `table.dump` and each entry's `answers.nvars` (a
wrong variable count changes renaming, which a stream does not always
show), or else the type and message of what the run raised. The `closed`
part covers a run stopped early: a second engine pulls one solution with
`next(stream, None)` and closes the stream, and the part is that
solution, `as_dict()`, `entry_rounds`, and the binding map and trail left
after the close. The `oracle` part is per instance: the sorted solutions
`oracle.oracle_solve` gives for the program and query, or else the
type of what it raised, which is what `lintab run --oracle` compares a
run with. The `model` part is per instance too: each predicate's
`oracle.oracle_model` facts in model order, or else the type of what it
raised, so a changed fact order shows even where the solution sets agree.
The `load` part is per instance as well: the parsed items as values, and
the analyzed program's rules per predicate (each clause and its
`last_depending_index`, in order), its `levels` and its `tabled`, so a
change to the load path is compared item by item. All three belong to
each of the instance's runs.

Exits 0 when every run is the same in both trees. Otherwise prints the
first differing run and, per part, how many runs differ in it, and exits
1. The last line gives the instances, configs and differing runs. An exit
0 here is the evidence that a change claiming no gain preserves the
paper's behaviour; timings belong to perfbench/run.py.
"""

import argparse
import importlib
import shutil
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("parser", "analysis", "engine", "table", "bench", "corpus", "oracle", "terms")
PARTS = ("report", "stream", "rounds", "counters", "tables", "nvars", "closed", "raised", "oracle",
         "model", "load")


def import_tree(src: Path, name: str, tmp: Path):
    """Import src/lintab as the package `name`; returns its modules."""
    shutil.copytree(src / "lintab", tmp / name, ignore=shutil.ignore_patterns("__pycache__"))
    return types.SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}") for m in MODULES})


def raised(exc):
    return {"raised": f"{type(exc).__name__}: {exc}"}


def closed_run(tree, program, opts, query):
    """The one solution a stream closed after it gives, and the state left."""
    eng = tree.engine.Engine(program, opts)
    stream = eng.run(query)
    sol = next(stream, None)
    stream.close()
    return sol, eng.stats.as_dict(), list(eng.stats.entry_rounds.items()), eng.bound, eng.trail


def oracle_solutions(tree, text, query):
    """The oracle's solutions, sorted, or the type of what it raised."""
    try:
        return sorted(tree.oracle.oracle_solve(text, query))
    except Exception as exc:
        return type(exc).__name__


def plain(tree, t):
    """A term as nested tuples, equal across the two trees' classes: a
    compound as (functor, *args) and a variable as (None, id). The atom
    "0" still differs from the integer 0."""
    if type(t) is tree.terms.Struct:
        return (t.functor, *[plain(tree, a) for a in t.args])
    if type(t) is tree.terms.Var:
        return (None, t.id)
    return t


def loaded(tree, items, program):
    """The parsed items and the analyzed program as plain values."""

    def clause(c):
        return plain(tree, c.head), [plain(tree, g) for g in c.body], c.nvars

    return {
        "items": [clause(i) if type(i) is tree.parser.Clause else (i.name, i.arity, i.strategy)
                  for i in items],
        "rules": [(key, [(clause(r.clause), r.last_depending_index) for r in rules])
                  for key, rules in program.rules.items()],
        "levels": program.levels,
        "tabled": program.tabled,
    }


def oracle_facts(tree, text):
    """Each predicate's model facts in order, or the type of what was raised."""
    try:
        model = tree.oracle.oracle_model(tree.parser.parse_program(text))
        return {hk: [plain(tree, f) for f in facts] for hk, facts in model.items()}
    except Exception as exc:
        return type(exc).__name__


def outcomes(tree, text, query):
    """Per config label, each part of the run's outcome."""
    report = {"oracle": oracle_solutions(tree, text, query), "model": oracle_facts(tree, text)}
    try:
        items = tree.parser.parse_program(text)
        program = tree.analysis.analyze(items)
        report["report"] = program.report()
        report["load"] = loaded(tree, items, program)
    except Exception as exc:
        return {label: dict(report, **raised(exc)) for label, _ in tree.bench.config_matrix()}
    out = {}
    for label, opts in tree.bench.config_matrix(10**6):
        try:
            eng = tree.engine.Engine(program, opts)
            out[label] = dict(report, stream=list(eng.run(query)),
                              rounds=list(eng.stats.entry_rounds.items()),
                              counters=eng.stats.as_dict(), tables=tree.table.dump(eng.store),
                              nvars=[e.answers.nvars for e in eng.store],
                              closed=closed_run(tree, program, opts, query))
        except Exception as exc:
            out[label] = dict(report, **raised(exc))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent-src", type=Path, required=True, help="directory holding the parent's lintab/")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--programs", type=int, default=1000)
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        parent = import_tree(args.parent_src, "lintab_ab_parent", Path(tmp))
        change = import_tree(ROOT / "src", "lintab_ab_change", Path(tmp))
        instances = change.bench.golden_instances()
        for seed in range(args.seed, args.seed + args.programs):
            instances.append((f"mutual-recursion-{seed}", *change.corpus.mutual_recursion_program(seed)))
        configs = [label for label, _ in change.bench.config_matrix()]
        counts, first, runs = dict.fromkeys(PARTS, 0), None, 0
        for name, text, query in instances:
            before, after = outcomes(parent, text, query), outcomes(change, text, query)
            for label in configs:
                differ = [p for p in PARTS if before[label].get(p) != after[label].get(p)]
                if differ:
                    runs += 1
                    first = first or f"{name} under {label}"
                for part in differ:
                    counts[part] += 1
    if runs:
        print(f"first difference: {first}")
        for part in PARTS:
            print(f"  {part:8} {counts[part]} runs differ")
    print(f"instances={len(instances)} configs={len(configs)} runs differ={runs}")
    return 1 if runs else 0


if __name__ == "__main__":
    sys.exit(main())
