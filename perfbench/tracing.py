"""Outside-in tracing: wrap lintab's public names for the length of a pass.

Coarse calls (parse, analyze and its phases, evaluate, finalize, the
harness, the oracle) each get a span: name, start, end, parent span and
the op it belongs to. Hot leaf calls (unify, rules_for, canonicalize, ...)
are far too frequent for one span each (sg-random makes ~10^5 unify calls
per op), so they are aggregated per parent span as call count, total and
self time, plus a hit count (truthy results) or item count (result size).

Self time is a frame's duration minus the time of the wrapped calls made
inside it. Spans stay in memory; run.py writes them out at the end.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

# (module attribute path, recorded name, result measure) -------------------
# Spans: one record per call.
SPANS = [
    ("lintab.parser.parse_program", "parser.parse", None),
    ("lintab.parse_program", "parser.parse", None),
    ("lintab.bench.parse_program", "parser.parse", None),
    ("lintab.analysis.analyze", "analysis.analyze", None),
    ("lintab.analyze", "analysis.analyze", None),
    ("lintab.analysis.build_call_graph", "analysis.call_graph", None),
    ("lintab.analysis.level_mapping", "analysis.levels", None),
    ("lintab.analysis.annotate", "analysis.annotate", None),
    ("lintab.analysis.AnnotatedProgram.__post_init__", "analysis.index_build", None),
    ("lintab.engine.RunStats.finalize", "engine.finalize", None),
    ("lintab.bench.run_instance", "bench.run_instance", None),
    ("lintab.bench.check_region_invariants", "bench.invariants", None),
    ("lintab.oracle.oracle_solve", "oracle.solve", None),
    ("lintab.oracle.oracle_model", "oracle.model", "facts"),
    ("lintab.bench.oracle_model", "oracle.model", "facts"),
]
# Leaves: aggregated per parent span.
LEAVES = [
    ("lintab.engine.unify", "terms.unify", "truth"),
    ("lintab.engine.canonicalize", "terms.canonicalize", None),
    ("lintab.table.canonicalize", "terms.canonicalize", None),
    ("lintab.engine.renumber", "terms.renumber", None),
    ("lintab.engine.render_goals", "terms.render", None),
    ("lintab.engine.render", "terms.render", None),
    ("lintab.engine.register_subgoal", "table.register_subgoal", None),
    ("lintab.engine.insert_answer", "table.insert_answer", "truth"),
    ("lintab.engine.promote_regions", "table.promote_regions", None),
    ("lintab.engine.early_promote", "table.early_promote", None),
    ("lintab.analysis.AnnotatedProgram.rules_for", "analysis.rules_for", "len"),
    ("lintab.bench.answers_for_key", "oracle.answers_for_key", None),
]
# Engine.run returns a generator; its drain is the evaluate span.
EVALUATE = ("lintab.engine.Engine.run", "engine.evaluate")


def _measure(kind, result) -> int:
    if kind == "truth":
        return 1 if result else 0
    if kind == "len":
        return len(result)
    if kind == "facts":
        return sum(len(v) for v in result.values())
    return 0


def _resolve(path: str):
    """(owner object, attribute name) for a dotted lintab path."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr)
        return owner, parts[-1]
    raise LookupError(path)


class Tracer:
    """Span and leaf recorder; install() patches, uninstall() restores."""

    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list[dict] = []
        # open frames: [time of wrapped calls inside, enclosing span id]
        self.stack: list[list] = [[0.0, None]]
        # (span id, leaf name) -> [calls, total s, self s, hits/items]
        self.leaves: dict[tuple, list] = {}
        self.op = None
        self._patched: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _new_span(self, name: str, start: float, **attrs) -> dict:
        rec = {
            "id": len(self.spans),
            "parent": self.stack[-1][1],
            "op": self.op,
            "name": name,
            "start": start,
            "end": start,
            "total": 0.0,
            "self": 0.0,
            "items": 0,
        }
        rec.update(attrs)
        self.spans.append(rec)
        return rec

    def _close(self, rec: dict, frame: list, t0: float) -> None:
        end = self.clock()
        dt = end - t0
        self.stack.pop()
        self.stack[-1][0] += dt
        rec["end"] = end
        rec["total"] += dt
        rec["self"] += dt - frame[0]

    @contextmanager
    def span(self, name: str, **attrs):
        """A span opened by the benchmark itself (the op root)."""
        t0 = self.clock()
        if name == "op":
            self.op = len(self.spans)
        rec = self._new_span(name, t0, **attrs)
        frame = [0.0, rec["id"]]
        self.stack.append(frame)
        try:
            yield rec
        finally:
            self._close(rec, frame, t0)

    def _span_wrapper(self, fn, name, measure):
        tracer = self

        def traced(*args, **kwargs):
            t0 = tracer.clock()
            rec = tracer._new_span(name, t0)
            frame = [0.0, rec["id"]]
            tracer.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                rec["items"] += _measure(measure, result)
                return result
            finally:
                tracer._close(rec, frame, t0)

        return traced

    def _leaf_wrapper(self, fn, name, measure):
        stack = self.stack
        leaves = self.leaves
        clock = self.clock

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1]]
            stack.append(frame)
            t0 = clock()
            hits = 0
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    hits = _measure(measure, result)
                return result
            finally:
                dt = clock() - t0
                stack.pop()
                parent[0] += dt
                agg = leaves.get((parent[1], name))
                if agg is None:
                    agg = leaves[(parent[1], name)] = [0, 0.0, 0.0, 0]
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[0]
                agg[3] += hits

        return traced

    def _evaluate_wrapper(self, run, name):
        tracer = self

        def traced_run(engine, *args, **kwargs):
            return tracer._drain_span(run(engine, *args, **kwargs), name)

        return traced_run

    def _drain_span(self, gen, name):
        """Time every resumption of gen as one span."""
        rec = None
        try:
            while True:
                t0 = self.clock()
                if rec is None:
                    rec = self._new_span(name, t0)
                frame = [0.0, rec["id"]]
                self.stack.append(frame)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(rec, frame, t0)
                yield item
        finally:
            gen.close()

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        for path, name, measure in SPANS:
            self._patch(path, lambda fn, n=name, m=measure: self._span_wrapper(fn, n, m))
        for path, name, measure in LEAVES:
            self._patch(path, lambda fn, n=name, m=measure: self._leaf_wrapper(fn, n, m))
        path, name = EVALUATE
        self._patch(path, lambda fn: self._evaluate_wrapper(fn, name))

    def _patch(self, path: str, make) -> None:
        owner, attr = _resolve(path)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
