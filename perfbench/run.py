#!/usr/bin/env python3
"""lintab's outside-in benchmark: one workload per invocation.

    python3 perfbench/run.py --workload sg-random --seed 1 --seconds 25 --trace 0

A closed loop with one caller and no threads: each op starts after the
previous one has finished. The workload seed fixes a list of 40 or 60
instances (perfbench/workloads.py); a run replays it in whole laps until the
next lap would overrun --seconds, and takes each instance's median over
its laps. On every instance a query op runs once per strategy, lazy and
eager in alternating order; one query op is what a one-shot `lintab run`
pays: parser.parse_program, analysis.analyze, then Engine.run drained.
On bench-matrix each instance also gets a check op, one
bench.run_instance call, which is what `lintab bench` pays per instance.

--trace 0 times the ops untraced and prints the end-to-end metrics.
--trace 1 runs one untraced lap, then one lap with lintab's public names
wrapped (perfbench/tracing.py), and prints the per-layer metrics together
with the tracing overhead on engine.evaluate_s.

Every answer is compared with a reference computed without the engine;
a wrong answer or an exception counts as a failed op. The last line of
standard output is one JSON object; the exit code is 1 when any check
failed, 2 when lintab's sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import calibrate  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5  # import samples per lap (setup_s) and per traced run
WATCHDOG_S = 160
TAIL_BEYOND = 10  # samples above the reported tail percentile
COUNTERS = ("steps", "clause_resolutions", "answers_consumed", "answers_produced", "subgoals", "max_its")
STRATEGIES = ("lazy", "eager")

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "lazy.query_s.p50": "s",
    "lazy.query_s.tail": "s",
    "eager.query_s.p50": "s",
    "eager.query_s.tail": "s",
    "lazy.first_answer_s.p50": "s",
    "eager.first_answer_s.p50": "s",
    "queries_per_s": "1/s",
    "instance_s.p50": "s",
    "instance_s.tail": "s",
    "instances_per_s": "1/s",
}


class Watchdog(BaseException):
    """The run overran its time limit; reported, never swallowed by an op."""


def _alarm(signum, frame):
    raise Watchdog()


# -- set-up ---------------------------------------------------------------

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); sys.path.insert(0, sys.argv[2]); "
    "import calibrate; k = calibrate.kernel(); "
    "t = time.perf_counter(); import lintab; print(time.perf_counter() - t, k)"
)


def import_seconds() -> tuple[float, float]:
    """(at reference speed, as measured) `import lintab` time of a fresh
    interpreter, rescaled by the kernel time that interpreter measured."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    raw, kernel = map(float, out.stdout.split())
    return raw * (calibrate.REFERENCE_S / kernel) ** calibrate.SETUP_SENSITIVITY, raw


def networkx_import_share() -> float:
    """Median share of `import lintab` spent importing networkx, from
    -X importtime cumulative times (0 once lintab no longer imports it)."""
    shares = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", IMPORT_PROBE, str(SRC), str(HERE)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        cumulative = {}
        for line in out.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() in ("networkx", "lintab"):
                cumulative[fields[2].strip()] = int(fields[1])
        shares.append(cumulative.get("networkx", 0) / cumulative["lintab"])
    return statistics.median(shares)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "lintab").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


# -- ops ------------------------------------------------------------------


class Runner:
    """Runs ops, checks answers and keeps per-op records."""

    def __init__(self, lintab_modules, tracer=None, sample_setup=False):
        self.parser, self.analysis, self.engine_mod, self.bench, self.terms = lintab_modules
        self.tracer = tracer
        self.records: list[dict] = []
        self.failures: dict[str, int] = {}
        self.kernels: dict[tuple[int, int], float] = {}  # (lap, instance) -> s
        self.lap_no = 0
        # (rescaled, raw) setup_s samples, taken between instances so that
        # they spread over the run's drifting host speed as the ops do
        self.imports: list[tuple[float, float]] | None = [] if sample_setup else None

    def _fail(self, rec: dict, kind: str) -> None:
        rec["ok"] = False
        rec["error"] = kind
        self.failures[kind] = self.failures.get(kind, 0) + 1

    def query(self, index: int, inst, strategy: str) -> None:
        clock = time.perf_counter
        rec = {"kind": "query", "lap": self.lap_no, "instance": index, "strategy": strategy,
               "size": inst.size, "ok": True}
        gc.collect()
        try:
            with self._span(rec):
                t0 = clock()
                items = self.parser.parse_program(inst.text)
                program = self.analysis.analyze(items)
                t1 = clock()
                eng = self.engine_mod.Engine(
                    program, self.engine_mod.EngineOptions(strategy=strategy)
                )
                first = None
                sols = []
                for s in eng.run(inst.query):
                    if first is None:
                        first = clock()
                    sols.append(s)
                t2 = clock()
        except Exception as exc:  # any failure is counted, never fatal
            self._fail(rec, type(exc).__name__)
            self.records.append(rec)
            return
        rec.update(
            seconds=t2 - t0,
            first_s=(first or t2) - t0,
            evaluate_s=t2 - t1,
            items=len(items),
            solutions=len(sols),
            duplicates=len(sols) - len(set(sols)),
            answers_stored=sum(len(e.answers) for e in eng.store),
        )
        stats = eng.stats.as_dict()
        rec.update({c: stats[c] for c in COUNTERS})
        if frozenset(sols) != inst.expected:
            self._fail(rec, "WrongAnswer")
        elif inst.entry is not None:
            key, want = inst.entry
            got = {
                self.terms.render(e.key): frozenset(self.terms.render(a) for a in e.answers)
                for e in eng.store
            }
            if got.get(key) != want:
                self._fail(rec, "WrongTableEntry")
        self.records.append(rec)

    def check(self, index: int, inst) -> None:
        clock = time.perf_counter
        rec = {"kind": "check", "lap": self.lap_no, "instance": index, "size": inst.size, "ok": True}
        gc.collect()
        try:
            with self._span(rec):
                t0 = clock()
                result = self.bench.run_instance(inst.name, inst.text, inst.query)
                t1 = clock()
        except Exception as exc:
            self._fail(rec, type(exc).__name__)
            self.records.append(rec)
            return
        rec["seconds"] = t1 - t0
        for c in COUNTERS:
            rec[c] = sum(row[c] for row in result.rows)
        if result.divergences:
            self._fail(rec, "Divergence")
        elif any(sols != inst.expected for sols in result.solutions.values()):
            self._fail(rec, "WrongAnswer")
        self.records.append(rec)

    def _span(self, rec):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span("op", kind=rec["kind"], instance=rec["instance"],
                                strategy=rec.get("strategy"))

    def lap(self, insts, lap_no: int) -> None:
        self.lap_no = lap_no
        every = max(1, len(insts) // SETUP_REPEATS)
        for i, inst in enumerate(insts):
            if self.imports is not None and i % every == 0:
                self.imports.append(import_seconds())
            self.kernels[(lap_no, i)] = calibrate.kernel()
            if inst.check:
                self.check(i, inst)
            order = STRATEGIES if (i + lap_no) % 2 == 0 else STRATEGIES[::-1]
            for strategy in order:
                self.query(i, inst, strategy)

    def speed_factor(self, lap_no: int, index: int | None = None) -> float:
        """Multiplier to reference speed from the kernel times next to an
        instance (its own and its neighbours' in the lap), or the lap's median."""
        if index is None:
            near = [v for (lap, _), v in self.kernels.items() if lap == lap_no]
        else:
            near = [self.kernels[(lap_no, j)] for j in (index - 1, index, index + 1)
                    if (lap_no, j) in self.kernels]
        return (calibrate.REFERENCE_S / statistics.median(near)) ** calibrate.SENSITIVITY

    def normalize(self) -> None:
        """Rescale each op's times to reference speed, keeping the raw ones."""
        for rec in self.records:
            if "seconds" not in rec:  # raised before it finished
                continue
            f = self.speed_factor(rec["lap"], rec["instance"])
            for key in ("seconds", "first_s", "evaluate_s"):
                if key in rec:
                    rec["raw_" + key] = rec[key]
                    rec[key] *= f


# -- statistics -----------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above."""
    s = sorted(values)
    k = len(s) - TAIL_BEYOND - 1
    if k < 0:
        return s[-1], 100.0
    return s[k], 100.0 * (k + 1) / len(s)


def per_instance(records, kind, strategy=None, field="seconds") -> dict[int, float]:
    """Median of the field over laps, per instance."""
    by: dict[int, list[float]] = {}
    for r in records:
        if r["kind"] == kind and (strategy is None or r["strategy"] == strategy):
            by.setdefault(r["instance"], []).append(r[field])
    return {i: statistics.median(v) for i, v in by.items()}


def fingerprint(records, lap_no) -> dict[str, int]:
    fp = dict.fromkeys(COUNTERS, 0)
    for r in records:
        if r["lap"] == lap_no and r["ok"]:
            for c in COUNTERS:
                fp[c] += r[c]
    return fp


def loglog_slope(points) -> float:
    """Least-squares slope of log(y) on log(x)."""
    xs = [math.log(x) for x, y in points if y > 0]
    ys = [math.log(y) for x, y in points if y > 0]
    if len(set(xs)) < 2:
        return 0.0
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def end_to_end(records, setup_s, n_instances):
    m = {"setup_s": setup_s}
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    notes = {}
    for s in STRATEGIES:
        q = list(per_instance(records, "query", s).values())
        f = list(per_instance(records, "query", s, "first_s").values())
        m[f"{s}.query_s.p50"] = statistics.median(q)
        m[f"{s}.query_s.tail"], pct = tail(q)
        m[f"{s}.first_answer_s.p50"] = statistics.median(f)
        notes[f"{s}.query_s.tail"] = f"p{pct:.1f} of {len(q)} instances"
    queries = [r["seconds"] for r in records if r["kind"] == "query"]
    m["queries_per_s"] = len(queries) / sum(queries)
    per_inst: dict[int, float] = {}
    for kind, strategy in (("query", "lazy"), ("query", "eager"), ("check", None)):
        for i, v in per_instance(records, kind, strategy).items():
            per_inst[i] = per_inst.get(i, 0.0) + v
    inst = list(per_inst.values())
    m["instance_s.p50"] = statistics.median(inst)
    m["instance_s.tail"], pct = tail(inst)
    notes["instance_s.tail"] = f"p{pct:.1f} of {len(inst)} instances"
    laps = len({r["lap"] for r in records})
    m["instances_per_s"] = n_instances * laps / sum(r["seconds"] for r in records)
    return m, notes


def check_metrics(records):
    """The harness metrics, for workloads that run check ops."""
    checks = list(per_instance(records, "check").values())
    if not checks:
        return {}
    value, pct = tail(checks)
    all_checks = [r["seconds"] for r in records if r["kind"] == "check"]
    return {
        "check_s.p50": (statistics.median(checks), "s"),
        f"check_s.tail (p{pct:.1f} of {len(checks)} instances)": (value, "s"),
        "checks_per_s": (len(all_checks) / sum(all_checks), "1/s"),
    }


# -- per-layer metrics from a traced lap ----------------------------------


def per_layer(tracer, records, untraced_records, networkx_share, scale):
    """Per-layer metrics of the traced lap: query-op layers per query op,
    harness and oracle layers as shares of the check ops' time (so that a
    layer a workload never enters reads 0 without being a time). Span and
    leaf times are multiplied by scale, the traced lap's speed factor."""
    spans = tracer.spans
    op_kind = {sp["id"]: sp["kind"] for sp in spans if sp["name"] == "op"}
    n_query = sum(1 for k in op_kind.values() if k == "query")
    n_check = sum(1 for k in op_kind.values() if k == "check")
    by_name = {sp["id"]: sp["name"] for sp in spans}

    def span_sum(name, kind, field="total", parent=None):
        return sum(
            sp[field] for sp in spans
            if sp["name"] == name and op_kind.get(sp["op"]) == kind
            and (parent is None or by_name.get(sp["parent"]) == parent)
        )

    def span_count(name, kind):
        return sum(1 for sp in spans if sp["name"] == name and op_kind.get(sp["op"]) == kind)

    span_op = {sp["id"]: sp["op"] for sp in spans}
    leaf: dict[tuple[str, str], list] = {}
    for (span_id, name), agg in tracer.leaves.items():
        kind = op_kind.get(span_op.get(span_id))
        tot = leaf.setdefault((kind, name), [0, 0.0, 0.0, 0])
        for j in range(4):
            tot[j] += agg[j]

    def lq(name, j):
        return leaf.get(("query", name), [0, 0.0, 0.0, 0])[j]

    def per(v, n):
        return v / n if n else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    queries = [r for r in records if r["kind"] == "query"]
    untraced_eval = [r["evaluate_s"] for r in untraced_records if r["kind"] == "query"]
    evaluate_s = per(span_sum("engine.evaluate", "query"), n_query)

    check_s = span_sum("bench.run_instance", "check")
    m = {
        "setup.networkx_import_share": (networkx_share, "ratio"),
        "parser.parse_s": (per(span_sum("parser.parse", "query"), n_query), "s"),
        "parser.items": (statistics.fmean(r["items"] for r in queries), "count"),
        "analysis.analyze_s": (per(span_sum("analysis.analyze", "query"), n_query), "s"),
        "analysis.call_graph_s": (per(span_sum("analysis.call_graph", "query"), n_query), "s"),
        "analysis.levels_s": (per(span_sum("analysis.levels", "query"), n_query), "s"),
        "analysis.annotate_s": (per(span_sum("analysis.annotate", "query", "self"), n_query), "s"),
        "analysis.index_build_s": (per(span_sum("analysis.index_build", "query"), n_query), "s"),
        "analysis.rules_for.calls": (per(lq("analysis.rules_for", 0), n_query), "count"),
        "analysis.clauses_per_call": (ratio(lq("analysis.rules_for", 3), lq("analysis.rules_for", 0)), "clauses/call"),
        "terms.unify.calls": (per(lq("terms.unify", 0), n_query), "count"),
        "terms.unify.success_ratio": (ratio(lq("terms.unify", 3), lq("terms.unify", 0)), "ratio"),
        "terms.unify_s": (per(lq("terms.unify", 2), n_query), "s"),
        "terms.canonicalize_s": (per(lq("terms.canonicalize", 2), n_query), "s"),
        "terms.renumber_s": (per(lq("terms.renumber", 2), n_query), "s"),
        "terms.render_s": (per(lq("terms.render", 2), n_query), "s"),
        "engine.evaluate_s": (evaluate_s, "s"),
        "engine.self_s": (per(span_sum("engine.evaluate", "query", "self"), n_query), "s"),
        "engine.finalize_s": (per(span_sum("engine.finalize", "query"), n_query), "s"),
        "table.register_subgoal.calls": (per(lq("table.register_subgoal", 0), n_query), "count"),
        "table.insert_answer.calls": (per(lq("table.insert_answer", 0), n_query), "count"),
        "table.insert_answer.inserted_ratio": (ratio(lq("table.insert_answer", 3), lq("table.insert_answer", 0)), "ratio"),
        "table.promotions": (per(lq("table.promote_regions", 0), n_query), "count"),
        "table.early_promotions": (per(lq("table.early_promote", 0), n_query), "count"),
        "table.answers_stored": (statistics.fmean(r["answers_stored"] for r in queries), "count"),
        "oracle.model_builds": (per(span_count("oracle.model", "check"), n_check), "count"),
        "oracle.model_share": (ratio(span_sum("oracle.model", "check"), check_s), "ratio"),
        "oracle.model_facts": (
            per(sum(sp["items"] for sp in spans if sp["name"] == "oracle.model"
                    and by_name.get(sp["parent"]) == "bench.run_instance"), n_check),
            "count",
        ),
        "bench.engine_share": (ratio(span_sum("engine.evaluate", "check"), check_s), "ratio"),
        "bench.oracle_share": (
            ratio(span_sum("oracle.solve", "check", parent="bench.run_instance")
                  + span_sum("oracle.model", "check", parent="bench.run_instance")
                  + leaf.get(("check", "oracle.answers_for_key"), [0, 0.0])[1], check_s),
            "ratio",
        ),
        "bench.invariants_share": (ratio(span_sum("bench.invariants", "check"), check_s), "ratio"),
    }
    for name, (value, unit) in m.items():
        if unit == "s":
            m[name] = (value * scale, unit)
    untraced_s = statistics.fmean(untraced_eval)
    m["engine.evaluate_untraced_s"] = (untraced_s, "s")
    m["trace.overhead_ratio"] = (ratio(evaluate_s * scale, untraced_s), "ratio")
    for c in COUNTERS:
        m[f"engine.{c}"] = (statistics.fmean(r[c] for r in queries), "count")
    m["engine.solutions"] = (statistics.fmean(r["solutions"] for r in queries), "count")
    m["engine.duplicate_solutions"] = (statistics.fmean(r["duplicates"] for r in queries), "count")
    for s in STRATEGIES:
        pts = [(r["size"], r["answers_consumed"]) for r in queries if r["strategy"] == s]
        m[f"engine.consume_growth.{s}"] = (loglog_slope(pts), "slope")
    return m


def self_time_table(tracer) -> list[str]:
    """Per-name self time over the traced lap, spans and leaves together."""
    agg: dict[str, list] = {}
    for sp in tracer.spans:
        a = agg.setdefault(sp["name"], [0, 0.0, 0.0])
        a[0] += 1
        a[1] += sp["total"]
        a[2] += sp["self"]
    for (_, name), (calls, total, self_s, _) in tracer.leaves.items():
        a = agg.setdefault(name, [0, 0.0, 0.0])
        a[0] += calls
        a[1] += total
        a[2] += self_s
    rows = sorted(agg.items(), key=lambda kv: -kv[1][2])
    return [f"  {name:28s} calls={c:<9d} total={t:9.4f}s self={s:9.4f}s" for name, (c, t, s) in rows]


# -- main -----------------------------------------------------------------


def compare_fingerprint(key: str, fp: dict) -> str | None:
    """Record fp under key; return a mismatch message if it differs from before."""
    OUT.mkdir(exist_ok=True)
    path = OUT / "fingerprints.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    before = known.get(key)
    if before is not None and before != fp:
        return f"fingerprint {key}: {before} before, {fp} now"
    known[key] = fp
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(path)
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "lintab" / "__init__.py").is_file():
        print(f"error: lintab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from lintab import analysis, bench, engine, parser, terms

    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(WATCHDOG_S)
    insts = workloads.instances(args.workload, args.seed)
    w = workloads.WORKLOADS[args.workload]
    print(f"workload {w.name}: {w.sizes}; {len(insts)} instances, seed {args.seed}")
    print(f"why: {w.why}")
    modules = (parser, analysis, engine, bench, terms)
    problems: list[str] = []
    try:
        if args.trace:
            from tracing import Tracer

            networkx_share = networkx_import_share()
            untraced = Runner(modules)
            untraced.lap(insts, 0)
            tracer = Tracer()
            runner = Runner(modules, tracer)
            tracer.install()
            try:
                runner.lap(insts, 1)
            finally:
                tracer.uninstall()
            untraced.normalize()
            runner.normalize()
            records = untraced.records + runner.records
            failures = dict(untraced.failures)
            for k, v in runner.failures.items():
                failures[k] = failures.get(k, 0) + v
            laps = [0, 1]
        else:
            import_seconds()  # warm-up: may write bytecode caches
            runner = Runner(modules, sample_setup=True)
            start = time.perf_counter()
            lap_no = 0
            while True:
                t0 = time.perf_counter()
                runner.lap(insts, lap_no)
                lap_no += 1
                now = time.perf_counter()
                if now - start + (now - t0) > args.seconds:
                    break
            runner.normalize()
            records, failures, laps = runner.records, runner.failures, list(range(lap_no))
    except Watchdog:
        print(f"error: run exceeded {WATCHDOG_S} s", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    signal.alarm(0)

    attempted = len(records)
    failed = sum(1 for r in records if not r["ok"])
    fps = [fingerprint(records, lap) for lap in laps]
    if any(fp != fps[0] for fp in fps):
        problems.append(f"counters differ between laps of one run: {fps}")
    msg = compare_fingerprint(f"{args.workload}:{args.seed}:{source_digest()}", fps[0])
    if msg:
        problems.append(msg)

    print(f"ops attempted={attempted} failed={failed} laps={len(laps)}"
          + "".join(f" {k}={v}" for k, v in sorted(failures.items())))
    print(f"error_rate {failed / attempted:.6g} ratio")
    print("fingerprint (one lap): " + " ".join(f"{k}={v}" for k, v in fps[0].items()))
    metrics = {}
    # a run that failed ops reports no metrics; the lines above say which failed
    if failed == 0 and args.trace:
        layer = per_layer(tracer, [r for r in records if r["lap"] == 1], untraced.records,
                          networkx_share, runner.speed_factor(1))
        for name, (value, unit) in layer.items():
            print(f"  {name:36s} {value:14.6g} {unit}")
            metrics[name] = {"value": value, "unit": unit}
        print("self time by layer (traced lap):")
        print("\n".join(self_time_table(tracer)))
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
        trace_path.write_text(json.dumps({
            "spans": tracer.spans,
            "leaves": [[sid, name, *agg] for (sid, name), agg in tracer.leaves.items()],
        }))
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    elif failed == 0:
        e2e, notes = end_to_end(records, statistics.median(t for t, _ in runner.imports), len(insts))
        for name, value in e2e.items():
            unit = END_TO_END_UNITS[name]
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"  {name:28s} {value:12.6g} {unit}{note}")
            metrics[name] = {"value": value, "unit": unit}
        for name, (value, unit) in check_metrics(records).items():
            print(f"  {name:28s} {value:12.6g} {unit}")
        kernels = list(runner.kernels.values())
        print(f"times are at reference speed; calibration kernel median "
              f"{statistics.median(kernels):.5f} s vs reference {calibrate.REFERENCE_S} s. "
              f"Measured: setup_s={statistics.median(raw for _, raw in runner.imports):.5g} s" + "".join(
                  f" {s}.query_s.p50="
                  f"{statistics.median(per_instance(records, 'query', s, 'raw_seconds').values()):.5g} s"
                  for s in STRATEGIES))
    OUT.mkdir(exist_ok=True)
    ops_path = OUT / f"ops-{args.workload}-{args.seed}-trace{args.trace}.json"
    ops_path.write_text(json.dumps({"records": records, "kernels": [
        [lap, i, v] for r in ([untraced, runner] if args.trace else [runner])
        for (lap, i), v in r.kernels.items()]}))
    for p in problems:
        print(f"CHECK FAILED: {p}")
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
