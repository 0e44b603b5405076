"""Command-line front end: run queries, benchmark, generate, analyze.

Exit codes: 0 success, 1 query completed with no solutions, 2 usage or
parse errors, or an oracle divergence in `run --oracle` or in `bench`,
3 step budget exhausted, 4 resolution nested deeper than the
interpreter's recursion limit.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import closing
from pathlib import Path
from typing import Optional

from . import analyze, load_program, parse_program
from .engine import (
    EAGER,
    LAZY,
    DepthExceeded,
    Engine,
    EngineOptions,
    StepBudgetExceeded,
)
from .parser import ProgramSyntaxError
from .table import dump

EXIT_OK = 0
EXIT_NO_SOLUTIONS = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_DEPTH = 4


def _onoff(value: str) -> bool:
    if value == "on":
        return True
    if value == "off":
        return False
    raise argparse.ArgumentTypeError(f"expected on|off, got {value!r}")


def _add_engine_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--strategy", choices=(LAZY, EAGER), default=LAZY)
    p.add_argument("--semi-naive", type=_onoff, default=True, metavar="on|off")
    p.add_argument(
        "--early-promotion", type=_onoff, default=True, metavar="on|off"
    )
    p.add_argument("--dedup", action="store_true")
    p.add_argument("--limit", type=int, default=None, metavar="N")
    p.add_argument("--step-budget", type=int, default=10**8, metavar="N")


def _options(args) -> EngineOptions:
    opts = EngineOptions(
        strategy=args.strategy,
        semi_naive=args.semi_naive,
        early_promotion=args.early_promotion,
        step_budget=args.step_budget,
    )
    if args.limit is not None and args.limit < 1:
        raise ValueError("limit must be positive")
    return opts


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lintab",
        description="Tabled logic-programming engine (linear tabling).",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="evaluate a query against a program file")
    run.add_argument("program", type=Path)
    run.add_argument("query")
    _add_engine_flags(run)
    run.add_argument("--stats", action="store_true")
    run.add_argument("--dump-table", action="store_true")
    run.add_argument(
        "--oracle",
        action="store_true",
        help="also run the bottom-up reference evaluator and compare",
    )

    bn = sub.add_parser("bench", help="run a benchmark suite over all configs")
    bn.add_argument(
        "suite",
        choices=(
            "tcl",
            "tcr",
            "tcn",
            "sg",
            "regex-warren",
            "regex-warren-nontabled",
            "paper-examples",
        ),
    )
    bn.add_argument(
        "--sizes", type=int, nargs="*", default=[10], metavar="N"
    )
    bn.add_argument("--seed", type=int, default=0)
    bn.add_argument("--no-oracle", action="store_true")
    bn.add_argument("--step-budget", type=int, default=10**8, metavar="N")
    bn.add_argument("--json", type=Path, default=None, metavar="FILE")

    gen = sub.add_parser("gen", help="emit a generated fact file to stdout")
    gen.add_argument(
        "kind", choices=("chain", "cycle", "random-graph", "ab-string")
    )
    gen.add_argument("n", type=int)
    gen.add_argument("--edges", type=int, default=None, metavar="M")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--pred", default=None)

    an = sub.add_parser("analyze", help="print the program analysis report")
    an.add_argument("program", type=Path)

    return ap


def _cmd_run(args) -> int:
    opts = _options(args)
    text = args.program.read_text()
    t0 = time.perf_counter()
    items = parse_program(text)
    t1 = time.perf_counter()
    program = analyze(items)
    t2 = time.perf_counter()
    engine = Engine(program, opts)
    solutions, seen = [], set()
    # dedup before limit; closing the stream finalizes the stats printed below
    with closing(engine.run(args.query)) as stream:
        for sol in stream:
            if args.dedup:
                if sol in seen:
                    continue
                seen.add(sol)
            solutions.append(sol)
            print(sol)
            if len(solutions) == args.limit:
                break
    t3 = time.perf_counter()
    if args.stats:
        print("-- stats --")
        for line in engine.stats.as_lines():
            print(line)
        # wall-clock seconds per phase; evaluate_s includes printing solutions
        print(f"parse_s={t1 - t0:.6f}\nanalyze_s={t2 - t1:.6f}\nevaluate_s={t3 - t2:.6f}")
    if args.dump_table:
        print("-- table --")
        print(dump(engine.store))
    if args.oracle:
        from .oracle import OracleInapplicable, oracle_solve

        try:
            expected = oracle_solve(items, args.query)
        except OracleInapplicable as exc:
            print(f"oracle: inapplicable ({exc})")
        else:
            got = set(solutions)
            # only a run stopped at its limit may miss model solutions
            truncated = len(solutions) == args.limit
            if not truncated and got == expected:
                print(f"oracle: agreement on {len(expected)} solutions")
            elif truncated and got <= expected:
                print("oracle: truncated run is a subset of the model")
            else:
                print("oracle: DIVERGENCE")
                if not truncated:
                    for s in sorted(expected - got):
                        print(f"  missing: {s}")
                for s in sorted(got - expected):
                    print(f"  extra:   {s}")
                return EXIT_USAGE
    return EXIT_OK if solutions else EXIT_NO_SOLUTIONS


def _cmd_bench(args) -> int:
    import json

    from . import bench

    results, report = bench.bench_suite(
        args.suite,
        args.sizes,
        args.seed,
        use_oracle=not args.no_oracle,
        step_budget=args.step_budget,
    )
    print(report)
    if args.json is not None:
        payload = [
            {
                "name": r.name,
                "rows": r.rows,
                "divergences": r.divergences,
                "solutions": {k: sorted(v) for k, v in r.solutions.items()},
            }
            for r in results
        ]
        args.json.write_text(json.dumps(payload, indent=2) + "\n")
    if any(r.divergences for r in results):
        return EXIT_USAGE
    return EXIT_OK


def _cmd_gen(args) -> int:
    from . import generate

    if args.edges is not None and args.kind != "random-graph":
        raise ValueError(f"--edges applies to random-graph only, not {args.kind}")
    if args.kind == "ab-string":
        out = generate.ab_string_facts(args.n, pred=args.pred or "c")
    else:
        graph = args.kind.removesuffix("-graph")
        pred = args.pred or "e"
        out = generate.graph_facts(graph, args.n, args.seed, args.edges, pred)
    sys.stdout.write(out)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    print(load_program(args.program.read_text()).report())
    return EXIT_OK


COMMANDS = {
    "run": _cmd_run,
    "bench": _cmd_bench,
    "gen": _cmd_gen,
    "analyze": _cmd_analyze,
}

# the exit code of each error a command may raise; anything else is a bug
ERROR_EXITS = {
    ProgramSyntaxError: EXIT_USAGE,
    ValueError: EXIT_USAGE,
    OSError: EXIT_USAGE,
    StepBudgetExceeded: EXIT_BUDGET,
    DepthExceeded: EXIT_DEPTH,
}


def main(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return COMMANDS[args.command](args)
    except tuple(ERROR_EXITS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in ERROR_EXITS.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
