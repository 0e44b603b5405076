#!/usr/bin/env python3
"""Measure how answer consumption scales on the string-matcher family.

With the new-answers-only gate (plus early promotion) the tabled matcher
is linear in the string length; with the gate off, or with the recursion
routed through a non-tabled helper, it is quadratic. Doubling n should
double (resp. quadruple) answers_consumed.

With --analyze, instead time loading a chain of edge facts (parse, then
analyze) and one point query tcl(k,Y) on it, where k has five successors.
Clause indexes are built on the query's first call, so every phase
should be linear: doubling the facts should double each time.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import lintab.corpus as corpus
from lintab import EngineOptions, analyze, load_program, parse_program, run_query
from lintab.generate import chain_facts

CONFIGS = [
    ("tabled, gate on, early promotion", True, dict(semi_naive=True, early_promotion=True)),
    ("tabled, gate on, no promotion", True, dict(semi_naive=True, early_promotion=False)),
    ("tabled, gate off", True, dict(semi_naive=False, early_promotion=False)),
    ("non-tabled helper, gate on", False, dict(semi_naive=True, early_promotion=True)),
]


def measure(n, tabled, options):
    text, query = corpus.string_matcher_program(n, tabled_step=tabled)
    t0 = time.monotonic()
    _, eng = run_query(load_program(text), query, EngineOptions(**options))
    return eng.stats.answers_consumed, time.monotonic() - t0


def measure_load(n, repeats=3):
    """Best-of-repeats seconds to parse, analyze and query n chain facts."""
    text = corpus.TCL_RULES + chain_facts(n + 1, pred="edge")
    best = {}
    for _ in range(repeats):
        t0 = time.perf_counter()
        items = parse_program(text)
        t1 = time.perf_counter()
        program = analyze(items)
        t2 = time.perf_counter()
        sols, _ = run_query(program, f"tcl({n - 4},Y)")
        t3 = time.perf_counter()
        assert len(sols) == 5
        for phase, dt in (("parse", t1 - t0), ("analyze", t2 - t1), ("query", t3 - t2)):
            best[phase] = min(best.get(phase, dt), dt)
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="*", default=None)
    ap.add_argument(
        "--analyze",
        action="store_true",
        help="time parse, analyze and one point query over chain facts",
    )
    args = ap.parse_args()

    if args.analyze:
        prev = None
        for n in args.sizes or [1600, 3200, 6400]:
            times = measure_load(n)
            cols = "  ".join(f"{k}={v:6.3f}s" for k, v in times.items())
            if prev is not None:
                cols += "  ratio " + " ".join(
                    f"{k}={times[k] / prev[k]:.2f}" for k in times
                )
            print(f"facts={n:5d}  {cols}")
            prev = times
        return

    for label, tabled, options in CONFIGS:
        print(f"== {label}")
        prev = None
        for n in args.sizes or [100, 200, 400, 800]:
            consumed, dt = measure(n, tabled, options)
            ratio = "" if prev is None else f"  ratio={consumed / prev:.2f}"
            print(f"  n={n:5d}  answers_consumed={consumed:8d}  time={dt:6.2f}s{ratio}")
            prev = consumed
        print()


if __name__ == "__main__":
    main()
