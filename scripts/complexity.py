#!/usr/bin/env python3
"""Measure how loading scales: time parsing and analyzing a chain of edge
facts, and one point query tcl(k,Y) on it, where k has five successors.

Each phase prints its best of three runs in milliseconds. Clause indexes
are built on the query's first call, so every phase should be linear:
doubling the facts should double each time. Answer
consumption scaling is a bench report: `lintab bench regex-warren` (and
`regex-warren-nontabled`) prints a size-to-size ratio per config.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import lintab.corpus as corpus
from lintab import analyze, parse_program, run_query
from lintab.generate import graph_facts


def measure_load(n, repeats=3):
    """Best-of-repeats seconds to parse, analyze and query n chain facts."""
    text = corpus.TCL_RULES + graph_facts("chain", n + 1, seed=0)
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
    args = ap.parse_args()

    prev = None
    for n in args.sizes or [1600, 3200, 6400]:
        times = measure_load(n)
        cols = "  ".join(f"{k}={v * 1e3:8.3f}ms" for k, v in times.items())
        if prev is not None:
            cols += "  ratio " + " ".join(
                f"{k}={times[k] / prev[k]:.2f}" for k in times
            )
        print(f"facts={n:5d}  {cols}")
        prev = times


if __name__ == "__main__":
    main()
