#!/usr/bin/env python3
"""Run every workload over several seeds and append a point to trajectory.json.

    python3 perfbench/record.py --label <commit> --seeds 1-10

For each workload: one untraced run per seed, then one traced run on the
first seed. The point keeps, per end-to-end metric, the median and the
spread (distance between the quartiles of statistics.quantiles(n=4), as a
share of the median) next to the metric's bound, the traced run's
per-layer metrics, and the exact-count fingerprint. Runs go one after
another, never in parallel, since they share the host.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if out.returncode or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run failed\n{out.stdout}{out.stderr}")
    fingerprint = next(line for line in lines if line.startswith("fingerprint"))
    return result, fingerprint


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--label", required=True, help="what was measured, e.g. a commit")
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--workloads", nargs="*", default=None)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    point = {"label": args.label, "seeds": args.seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in names:
        values: dict[str, list[float]] = {}
        for seed in seeds(args.seeds):
            result, _ = run(workload, seed, spec["run_seconds"], 0)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: ok", flush=True)
        summary = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            summary[name] = {"median": med, "spread": (q[2] - q[0]) / med, "bound": bounds[name]}
            flag = "" if summary[name]["spread"] <= bounds[name] / 3 else "  above a third of its bound"
            print(f"  {name:28s} median={med:.6g} spread={summary[name]['spread']:.3f}{flag}")
        traced, fingerprint = run(workload, seeds(args.seeds)[0], spec["run_seconds"], 1)
        point["workloads"][workload] = {
            "end_to_end": summary,
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
            "fingerprint": fingerprint.split(": ", 1)[1],
        }
    path = HERE / "trajectory.json"
    trajectory = json.loads(path.read_text()) if path.exists() else []
    trajectory.append(point)
    path.write_text(json.dumps(trajectory, indent=1) + "\n")
    print(f"appended point {args.label!r} to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
