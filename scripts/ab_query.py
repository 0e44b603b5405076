#!/usr/bin/env python3
"""Time query ops of two lintab trees in one process, interleaved.

    git archive <rev> src/lintab | tar -x -C /tmp/parent
    python3 scripts/ab_query.py --parent-src /tmp/parent/src \\
        --workload sg-random --strategy lazy --reps 5

Both `<parent-src>/lintab` and this checkout's `src/lintab` are copied
under two package names into a temporary directory and imported side by
side. For each instance of the benchmark workload (perfbench/workloads.py,
seed 13 unless --seed says otherwise) and each rep, one query op per tree
runs back to back, in alternating order: parse_program, analyze, then
Engine.run drained, as perfbench/run.py times it. Each instance keeps its
minimum per tree, so the host's speed drift, which makes timings of
separate processes noisy, hits both trees alike.

Prints the p50 of the per-instance minima of each tree and the median of
the per-instance ratios change/parent. Exit codes:

    0  every answer is right, each instance's solution stream (order and
       duplicates) is the same in both trees, and so are the counters
       steps, clause_resolutions, answers_consumed, answers_produced,
       subgoals and max_its;
    1  an answer differs from the workload's reference (stops after the
       rep that found it, and prints no timings);
    3  every answer is right but some streams or counters differ, as a
       change that cuts work on purpose makes them: all reps run, and the
       timings are followed by the first instance whose stream differs,
       if any, and by each counter's total over one pass of the
       instances, per tree, if any counter differs.
"""

import argparse
import gc
import importlib
import shutil
import statistics
import sys
import tempfile
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"
COUNTERS = (
    "steps", "clause_resolutions", "answers_consumed", "answers_produced", "subgoals", "max_its"
)


def load_workloads():
    """perfbench/workloads.py, executed without importing perfbench."""
    mod = types.ModuleType("perfbench_workloads")
    sys.modules[mod.__name__] = mod  # dataclasses look their module up
    exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), mod.__dict__)
    return mod


def import_tree(src: Path, name: str, tmp: Path):
    """Import src/lintab as the package `name`; returns (parser, analysis,
    engine, terms) of that copy."""
    shutil.copytree(src / "lintab", tmp / name, ignore=shutil.ignore_patterns("__pycache__"))
    return tuple(importlib.import_module(f"{name}.{m}") for m in ("parser", "analysis", "engine", "terms"))


def query(tree, inst, strategy):
    """One timed query op; returns (seconds, counters, solution stream,
    wrong answer?)."""
    parser, analysis, engine, terms = tree
    gc.collect()
    t0 = time.perf_counter()
    program = analysis.analyze(parser.parse_program(inst.text))
    eng = engine.Engine(program, engine.EngineOptions(strategy=strategy))
    sols = list(eng.run(inst.query))
    seconds = time.perf_counter() - t0
    stats = eng.stats.as_dict()
    wrong = frozenset(sols) != inst.expected
    if not wrong and inst.entry is not None:
        key, want = inst.entry
        got = {
            terms.render(e.key): frozenset(terms.render(a) for a in e.answers)
            for e in eng.store
        }
        wrong = got.get(key) != want
    return seconds, tuple(stats[c] for c in COUNTERS), sols, wrong


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent-src", type=Path, required=True, help="directory holding the parent's lintab/")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--strategy", choices=("lazy", "eager"), required=True)
    ap.add_argument("--reps", type=int, required=True)
    ap.add_argument("--instances", type=int, default=None, help="only the first K instances")
    ap.add_argument("--seed", type=int, default=13)
    args = ap.parse_args(argv)
    workloads = load_workloads()
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    if args.reps < 1:
        ap.error("--reps must be positive")
    insts = workloads.instances(args.workload, args.seed)[: args.instances]

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        trees = (
            import_tree(args.parent_src, "lintab_ab_parent", Path(tmp)),
            import_tree(ROOT / "src", "lintab_ab_change", Path(tmp)),
        )
        best = [[float("inf")] * len(insts), [float("inf")] * len(insts)]
        totals = [[0] * len(COUNTERS), [0] * len(COUNTERS)]  # per tree, over the first rep
        failures = []
        differ = []  # instances whose counters differ
        streams_differ = []  # instances whose solution streams differ
        for rep in range(args.reps):
            for i, inst in enumerate(insts):
                order = (0, 1) if (rep + i) % 2 == 0 else (1, 0)
                counters, streams = [None, None], [None, None]
                for side in order:
                    seconds, counters[side], streams[side], wrong = query(trees[side], inst, args.strategy)
                    best[side][i] = min(best[side][i], seconds)
                    if wrong:
                        failures.append(f"{inst.name}: wrong answer from the {('parent', 'change')[side]}")
                if rep == 0:
                    for side in (0, 1):
                        totals[side] = [t + c for t, c in zip(totals[side], counters[side])]
                    if counters[0] != counters[1]:
                        differ.append(inst.name)
                    if streams[0] != streams[1]:
                        streams_differ.append(inst.name)
            if failures:
                break

    print(f"workload={args.workload} strategy={args.strategy} seed={args.seed} "
          f"instances={len(insts)} reps={args.reps}")
    for failure in failures:
        print(f"FAILED {failure}")
    if failures:
        return 1
    parent, change = statistics.median(best[0]), statistics.median(best[1])
    ratio = statistics.median(c / p for p, c in zip(best[0], best[1]))
    print(f"parent query_s p50 of minima = {parent:.6f}")
    print(f"change query_s p50 of minima = {change:.6f}")
    print(f"median per-instance ratio change/parent = {ratio:.4f}")
    if streams_differ:
        print(f"solution streams differ on {len(streams_differ)} of {len(insts)} instances, "
              f"first {streams_differ[0]}")
    if differ:
        print(f"counters differ on {len(differ)} of {len(insts)} instances, first {differ[0]}; totals:")
        for name, p, c in zip(COUNTERS, *totals):
            print(f"  {name:18s} parent={p} change={c}" + ("" if p == c else "  differs"))
        return 3
    print("counters identical: " + " ".join(COUNTERS))
    return 3 if streams_differ else 0


if __name__ == "__main__":
    sys.exit(main())
