"""Static analysis: call graph, level mapping, and per-rule annotations.

The level mapping stratifies predicates by the SCC condensation of the
call graph: predicates in one SCC share a level, and a predicate's level
is strictly above everything it calls outside its own SCC. A tabled
rule's annotation is one index: its last depending subgoal, the
rightmost body goal at the head's level, or None for a base rule (no
depending subgoal at all). The engine's semi-naive gate opens only at a
tabled call in that position; rules of non-tabled predicates carry None.

Clause indexes are demand-driven: a predicate's index plan is computed on
its first call, and the index of one argument position on the first call
that binds that position to an atom or integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .parser import Clause, Item, TableDeclaration
from .terms import PredKey, Struct, Term, Var, pred_key

# successors of each predicate as dict keys, in first-occurrence order, so
# every walk over the graph is the same under any hash seed
CallGraph = dict[PredKey, dict[PredKey, None]]


@dataclass(frozen=True)
class AnnotatedRule:
    clause: Clause
    last_depending_index: Optional[int]  # None: a base or non-tabled rule


# One argument-position index: clauses per atomic key, each in program
# order, plus the clauses whose head argument there is not atomic.
PositionIndex = tuple[
    dict[Union[str, int], tuple[AnnotatedRule, ...]], tuple[AnnotatedRule, ...]
]


@dataclass
class AnnotatedProgram:
    rules: dict[PredKey, tuple[AnnotatedRule, ...]]
    tabled: dict[PredKey, Optional[str]]  # declared strategy, None = default
    levels: dict[PredKey, int]

    def __post_init__(self):
        # all filled on demand by index_plan and rules_for
        self._plans: dict[PredKey, tuple[int, ...]] = {}
        self._indexes: dict[tuple[PredKey, int], PositionIndex] = {}
        self.row_relations: set[PredKey] = set()

    def is_tabled(self, key: PredKey) -> bool:
        return key in self.tabled

    def strategy(self, key: PredKey, default: str) -> str:
        declared = self.tabled.get(key)
        return declared if declared is not None else default

    def index_plan(self, key: PredKey) -> tuple[int, ...]:
        """Argument positions worth indexing, most distinct keys first.

        A position qualifies when some clause head has an atom or integer
        there; ties in the number of distinct keys go to the lower one.
        The same pass adds key to row_relations when it is not tabled and
        has clauses, all facts of arity >= 1 with atomic arguments.
        """
        plan = self._plans.get(key)
        if plan is None:
            distinct: dict[int, set] = {}
            rules = self.rules.get(key, ())
            rows = key[1] > 0 and bool(rules) and key not in self.tabled
            for r in rules:
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
            if rows:
                self.row_relations.add(key)
            plan = self._plans[key] = tuple(
                sorted(distinct, key=lambda pos: (-len(distinct[pos]), pos))
            )
        return plan

    def rules_for(
        self, key: PredKey, first_key: Optional[Union[str, int]] = None, pos: int = 0
    ) -> tuple[AnnotatedRule, ...]:
        """Clauses of key, in program order, that a call can match.

        With first_key, the call's argument at pos is that atom or integer,
        and only clauses whose head argument there is the same constant or
        is not atomic are returned.
        """
        rules = self.rules.get(key)
        if rules is None:
            return ()
        if first_key is None:
            return rules
        index = self._indexes.get((key, pos))
        if index is None:
            index = self._indexes[(key, pos)] = _index_position(rules, pos)
        buckets, unindexed = index
        return buckets.get(first_key, unindexed)

    def report(self) -> str:
        """Deterministic text dump of levels and rule annotations."""
        lines = []
        for key in sorted(self.levels):
            name, arity = key
            lines.append(f"{name}/{arity} level={self.levels[key]}")
            if key in self.tabled:
                for k, r in enumerate(self.rules.get(key, ())):
                    ld = r.last_depending_index
                    if ld is None:
                        lines.append(f"  rule#{k} last_depending=none base=true")
                    else:
                        lines.append(f"  rule#{k} last_depending={ld} base=false")
        return "\n".join(lines)


def build_call_graph(clauses: Iterable[Clause]) -> CallGraph:
    """Predicate adjacency: q is a successor of p iff q occurs in a body of p."""
    graph: CallGraph = {}
    for c in clauses:
        succs = graph.setdefault(pred_key(c.head), {})
        for goal in c.body:
            bk = pred_key(goal)
            graph.setdefault(bk, {})
            succs[bk] = None
    return graph


def level_mapping(graph: CallGraph) -> dict[PredKey, int]:
    """Assign each SCC the length of its longest path to a sink.

    Predicates with no clauses (including undefined ones) are sinks and
    land on level 0. An iterative Tarjan (1972) closes SCCs sinks first,
    so every callee outside an SCC has its level when the SCC closes.
    """
    index: dict[PredKey, int] = {}
    low: dict[PredKey, int] = {}
    stack: list[PredKey] = []  # visited, SCC not yet closed
    levels: dict[PredKey, int] = {}
    for root in graph:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(graph[root]))]
        while work:
            node, succs = work[-1]
            for s in succs:
                if s not in index:
                    index[s] = low[s] = len(index)
                    stack.append(s)
                    work.append((s, iter(graph[s])))
                    break
                if s not in levels and index[s] < low[node]:
                    low[node] = index[s]
            else:
                work.pop()
                if work and low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
                if low[node] == index[node]:
                    k = len(stack) - 1
                    while stack[k] != node:
                        k -= 1
                    members = stack[k:]
                    del stack[k:]
                    # members are not in levels yet: only callees outside count
                    level = 1 + max(
                        (levels[q] for m in members for q in graph[m] if q in levels),
                        default=-1,
                    )
                    for m in members:
                        levels[m] = level
    return levels


def atomic_key(t: Term) -> Optional[Union[str, int]]:
    """Index key of an atom or integer: the constant itself, whose type
    keeps the atom "0" and the integer 0 apart. None for a Var or Struct."""
    tt = type(t)
    return None if tt is Var or tt is Struct else t


def _index_position(rules: tuple[AnnotatedRule, ...], pos: int) -> PositionIndex:
    """Bucket rules by their head argument at pos, in one ordered pass.

    A rule whose head argument there is not atomic (a variable or a
    compound) can match any key, so it joins every bucket and the
    fallback; a bucket opened late starts from the fallback so far.
    """
    buckets: dict[Union[str, int], list[AnnotatedRule]] = {}
    unindexed: list[AnnotatedRule] = []
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


def annotate(
    clauses: Iterable[Clause],
    declarations: Iterable[TableDeclaration],
    levels: dict[PredKey, int],
) -> AnnotatedProgram:
    """Group rules per predicate and attach semi-naive annotations.

    Duplicate table declarations are accepted idempotently (a later
    explicit strategy wins). Declaring a predicate with no clauses is
    legal: the call fails finitely with an immediately-complete table.
    """
    tabled: dict[PredKey, Optional[str]] = {}
    for d in declarations:
        key = (d.name, d.arity)
        if d.strategy is not None or key not in tabled:
            tabled[key] = d.strategy

    grouped: dict[PredKey, list[AnnotatedRule]] = {}
    for c in clauses:
        hk = pred_key(c.head)
        last_dep = None
        if hk in tabled:
            for i, goal in enumerate(c.body):
                if levels.get(pred_key(goal), 0) == levels[hk]:
                    last_dep = i
        grouped.setdefault(hk, []).append(AnnotatedRule(c, last_dep))

    for key in tabled:
        grouped.setdefault(key, [])

    return AnnotatedProgram(
        rules={k: tuple(v) for k, v in grouped.items()},
        tabled=tabled,
        levels=levels,
    )


def analyze(items: Iterable[Item]) -> AnnotatedProgram:
    clauses = [i for i in items if isinstance(i, Clause)]
    decls = [i for i in items if isinstance(i, TableDeclaration)]
    graph = build_call_graph(clauses)
    for d in decls:
        graph.setdefault((d.name, d.arity), {})
    levels = level_mapping(graph)
    return annotate(clauses, decls, levels)


def verify_level_mapping(
    clauses: Iterable[Clause], levels: dict[PredKey, int]
) -> bool:
    """Check the defining bidirectional property on every rule."""
    graph = build_call_graph(clauses)
    reach: dict[PredKey, set] = {}

    def reachable(start: PredKey) -> set:
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
