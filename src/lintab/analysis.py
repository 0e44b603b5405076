"""Static analysis: call graph, level mapping, and per-rule annotations.

The level mapping stratifies predicates by the SCC condensation of the
call graph: predicates in one SCC share a level, and a predicate's level
is strictly above everything it calls outside its own SCC. A tabled
rule's annotation is one index: its last depending subgoal, the
rightmost body goal at the head's level, or None for a base rule (no
depending subgoal at all). The engine's semi-naive gate opens only at a
tabled call in that position; rules of non-tabled predicates carry None.

Dispatch is demand-driven: a predicate's dispatch record (its kind, index
plan and rules) is built on its first call, and the index of one argument
position on the first call that binds that position to an atom or
integer. The record lives on the program, so every run of it shares it.
The record reads the clause heads column by column: one set of argument
values per position gives that position's distinct keys, and the row
test is a type scan of the same columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from .parser import Clause, Item, TableDeclaration
from .terms import PredKey, Struct, Term, Var, pred_key

# successors of each predicate as dict keys, in first-occurrence order, so
# every walk over the graph is the same under any hash seed
CallGraph = dict[PredKey, dict[PredKey, None]]


@dataclass(slots=True, unsafe_hash=True)  # slotted like parser.Clause
class AnnotatedRule:
    clause: Clause
    last_depending_index: Optional[int]  # None: a base or non-tabled rule
    # its head-matching plan (see head_plan), set when its predicate's
    # dispatch record is built, and never for a row relation's rules
    slots: tuple[Optional[int], ...] = field(init=False, repr=False, compare=False)
    unify_at: tuple[int, ...] = field(init=False, repr=False, compare=False)


# One argument-position index: clauses per atomic key, each in program
# order, plus the clauses whose head argument there is not atomic.
PositionIndex = tuple[
    dict[Union[str, int], tuple[AnnotatedRule, ...]], tuple[AnnotatedRule, ...]
]


# A predicate's dispatch kind: how a call to it is resolved
TABLED, ROWS, CLAUSES, UNDEFINED = "tabled", "rows", "clauses", "undefined"


class Dispatch:
    """What every call to one predicate shares: its kind, its index plan,
    all its rules in program order and each plan position's index once
    built."""

    __slots__ = ("kind", "plan", "rules", "indexes")

    def __init__(self, kind: str, plan: tuple[int, ...], rules: tuple[AnnotatedRule, ...]):
        self.kind = kind
        self.plan = plan
        self.rules = rules
        self.indexes: dict[int, PositionIndex] = {}

    def index(self, pos: int) -> PositionIndex:
        index = self.indexes.get(pos)
        if index is None:
            index = self.indexes[pos] = _index_position(self.rules, pos)
        return index

    def bucket(self, goal: Term, m: dict[int, Term]) -> tuple[AnnotatedRule, ...]:
        """The rules a call can match under the binding map m: one index
        bucket, at the first plan position where the call's argument
        derefs to an atom or integer; all rules when there is none."""
        for pos in self.plan:
            a = goal.args[pos]
            while type(a) is Var and a.id in m:
                a = m[a.id]
            if type(a) is not Var and type(a) is not Struct:
                buckets, unindexed = self.indexes.get(pos) or self.index(pos)
                return buckets.get(a, unindexed)
        return self.rules


@dataclass
class AnnotatedProgram:
    rules: dict[PredKey, tuple[AnnotatedRule, ...]]
    tabled: dict[PredKey, Optional[str]]  # declared strategy, None = default
    levels: dict[PredKey, int]

    def __post_init__(self):
        # one dispatch record per predicate, filled on its first call
        self.records: dict[PredKey, Dispatch] = {}

    def strategy(self, key: PredKey, default: str) -> str:
        declared = self.tabled.get(key)
        return declared if declared is not None else default

    def dispatch(self, key: PredKey) -> Dispatch:
        """key's dispatch record, built on first use. Its plan ranks the
        argument positions where some clause head has an atom or integer,
        most distinct keys first, ties to the lower position. Its kind is
        ROWS when key is not tabled and has clauses, all facts of arity
        >= 1 with atomic arguments."""
        record = self.records.get(key)
        if record is not None:
            return record
        distinct: dict[int, set] = {}
        rules = self.rules.get(key)
        rows = key[1] > 0 and bool(rules)
        if rows:  # arity >= 1: every head is a compound
            clauses = [r.clause for r in rules]
            rows = not any(c.body for c in clauses)
            for pos, column in enumerate(zip(*[c.head.args for c in clauses])):
                types = set(map(type, column))
                if Var in types or Struct in types:
                    rows = False
                    column = [a for a in column if type(a) is not Var and type(a) is not Struct]
                if column:
                    distinct[pos] = set(column)
        kind = (
            TABLED if key in self.tabled
            else UNDEFINED if rules is None
            else ROWS if rows
            else CLAUSES
        )
        if kind is TABLED or kind is CLAUSES:
            for r in rules or ():
                r.slots, r.unify_at = head_plan(r.clause)
        plan = tuple(sorted(distinct, key=lambda pos: (-len(distinct[pos]), pos)))
        record = self.records[key] = Dispatch(kind, plan, rules or ())
        return record

    def rules_for(
        self, key: PredKey, first_key: Optional[Union[str, int]] = None, pos: int = 0
    ) -> tuple[AnnotatedRule, ...]:
        """Clauses of key, in program order, that a call can match.

        With first_key, the call's argument at pos is that atom or integer,
        and only clauses whose head argument there is the same constant or
        is not atomic are returned.
        """
        record = self.dispatch(key)
        if first_key is None:
            return record.rules
        buckets, unindexed = record.index(pos)
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
        head = c.head
        hk = (head, 0) if type(head) is str else (head.functor, len(head.args))
        succs = graph.get(hk)
        if succs is None:
            succs = graph[hk] = {}
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


def head_plan(clause: Clause) -> tuple[tuple[Optional[int], ...], tuple[int, ...]]:
    """How a call matches clause's head: per variable id, the argument
    position it stands for or None, and the positions to unify, last to
    first (unify's own order).

    A variable that occurs exactly once in the head, as a whole argument,
    stands for that position: nothing binds it, and the body is built
    with the call's argument in its place (a first occurrence is a
    register move in the WAM, not a binding; Warren, SRI TN 309, 1983).
    Every other position (a constant, a compound, a repeated variable) is
    unified with the call's argument. The slots are () when no variable
    stands for a position.
    """
    head = clause.head
    if type(head) is not Struct:  # arity 0: nothing to match
        return (), ()
    seen: dict[int, int] = {}  # variable id -> its occurrences in the head
    todo = list(head.args)
    while todo:
        t = todo.pop()
        if type(t) is Var:
            seen[t.id] = seen.get(t.id, 0) + 1
        elif type(t) is Struct:
            todo.extend(t.args)
    slots: list[Optional[int]] = [None] * clause.nvars
    unify_at = []
    for k, a in enumerate(head.args):
        if type(a) is Var and seen[a.id] == 1:
            slots[a.id] = k
        else:
            unify_at.append(k)
    any_slot = len(unify_at) < len(head.args)
    return tuple(slots) if any_slot else (), tuple(reversed(unify_at))


def _index_position(rules: tuple[AnnotatedRule, ...], pos: int) -> PositionIndex:
    """Bucket rules by their head argument at pos, in one ordered pass.

    A rule whose head argument there is not atomic (a variable or a
    compound) can match any key, so it joins every bucket and the
    fallback; a bucket opened late starts from the fallback so far.
    """
    buckets: dict[Union[str, int], list[AnnotatedRule]] = {}
    unindexed: list[AnnotatedRule] = []
    for r in rules:
        k = r.clause.head.args[pos]
        if type(k) is Var or type(k) is Struct:
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
        head = c.head
        hk = (head, 0) if type(head) is str else (head.functor, len(head.args))
        last_dep = None
        if c.body and hk in tabled:
            for i, goal in enumerate(c.body):
                if levels.get(pred_key(goal), 0) == levels[hk]:
                    last_dep = i
        group = grouped.get(hk)
        if group is None:
            group = grouped[hk] = []
        group.append(AnnotatedRule(c, last_dep))

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

