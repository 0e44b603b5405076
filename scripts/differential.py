#!/usr/bin/env python3
"""Differential check of generated mutually recursive programs.

Runs `--programs` programs from `corpus.mutual_recursion_program`, seeds
S, S+1, ..., under all six engine configs against the bottom-up oracle,
and prints per config how many runs raised, and how many query solutions
and table-entry answers lie outside the least model or are missing from
it (with the number of programs affected in parentheses).

    python scripts/differential.py --seed 0 --programs 200

Exits 1 when a run raised or an answer lies outside the model, the
soundness properties the test suite asserts; else 0. Missing answers are
only reported: eager evaluation can still complete a table early.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lintab.bench import config_matrix, model_gaps
from lintab.corpus import mutual_recursion_program


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--programs", type=int, default=100)
    args = ap.parse_args(argv)
    labels = [label for label, _ in config_matrix()]
    raised = {label: [] for label in labels}
    outside = {label: [0, []] for label in labels}
    missing = {label: [0, []] for label in labels}
    for seed in range(args.seed, args.seed + args.programs):
        for label, gaps in model_gaps(*mutual_recursion_program(seed)).items():
            if gaps.error:
                raised[label].append(seed)
            for tally, found in ((outside, gaps.outside), (missing, gaps.missing)):
                if found:
                    tally[label][0] += len(found)
                    tally[label][1].append(seed)
    print(f"programs={args.programs} seeds={args.seed}..{args.seed + args.programs - 1}")
    for label in labels:
        print(
            f"{label:42} raised={len(raised[label])} "
            f"outside={outside[label][0]} ({len(outside[label][1])}) "
            f"missing={missing[label][0]} ({len(missing[label][1])})"
        )
    for title, seeds in (
        ("raised", {s for v in raised.values() for s in v}),
        ("outside", {s for v in outside.values() for s in v[1]}),
        ("missing", {s for v in missing.values() for s in v[1]}),
    ):
        if seeds:
            print(f"seeds {title}: {' '.join(map(str, sorted(seeds)))}")
    unsound = any(raised.values()) or any(n for n, _ in outside.values())
    return 1 if unsound else 0


if __name__ == "__main__":
    sys.exit(main())
