"""Static analysis: call graph, level mapping, and per-rule annotations.

`analyze` groups the clauses by head predicate in one walk over the
items; the call graph, the level mapping and the annotations all read
those groups, so each head's predicate key is computed once. The level
mapping stratifies predicates by the SCC condensation of the call graph:
predicates in one SCC share a level, and a predicate's level is strictly
above everything it calls outside its own SCC. A tabled rule's
annotation is one index: its last depending subgoal, the rightmost body
goal at the head's level, or None for a base rule (no depending subgoal
at all). The engine's semi-naive gate opens only at a tabled call in
that position; rules of non-tabled predicates carry None.

Dispatch is demand-driven: a predicate's dispatch record (its kind,
index plan and rules) is built on its first call, and the index of one
argument position on the first call that binds that position to an atom
or integer. The record lives on the program, so every run of it shares
it. One pass reads every head's arguments, and the record reads them
column by column: one set of argument values per position gives that
position's distinct keys, and the row test is a type scan of the same
columns.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from .parser import Clause, Item, TableDeclaration
from .terms import PredKey, Struct, Term, Var, pred_key

# successors of each predicate as dict keys, in first-occurrence order, so
# every walk over the graph is the same under any hash seed
CallGraph = dict[PredKey, dict[PredKey, None]]


class AnnotatedRule:
    """A clause with its semi-naive annotation: a plain slotted record,
    compared by identity. Its head-matching plan (see head_plan), slots
    and unify_at, is filled in when its predicate's dispatch record is
    built, and never for a row relation's rules."""

    __slots__ = ("clause", "last_depending_index", "slots", "unify_at")

    def __init__(self, clause: Clause, last_depending_index: Optional[int] = None):
        self.clause = clause
        self.last_depending_index = last_depending_index  # None: a base or non-tabled rule


# One argument-position index: clauses per atomic key, each in program
# order, plus the clauses whose head argument there is not atomic.
PositionIndex = tuple[
    dict[Union[str, int], tuple[AnnotatedRule, ...]], tuple[AnnotatedRule, ...]
]


# A predicate's dispatch kind: how a call to it is resolved
TABLED, ROWS, CLAUSES, UNDEFINED = "tabled", "rows", "clauses", "undefined"


class Dispatch:
    """What every call to one predicate shares: its kind, its index plan,
    all its rules in program order, each plan position's index once
    built, and the argument positions a row is matched at, last to first:
    all of them (`order`), or all but a plan position p (`orders[p]`) for
    a bucket picked at p."""

    __slots__ = ("kind", "plan", "rules", "indexes", "order", "orders")

    def __init__(
        self, kind: str, plan: tuple[int, ...], rules: tuple[AnnotatedRule, ...], arity: int
    ):
        self.kind = kind
        self.plan = plan
        self.rules = rules
        self.indexes: dict[int, PositionIndex] = {}
        self.order = tuple(range(arity - 1, -1, -1))
        self.orders = {p: tuple(k for k in self.order if k != p) for p in plan}

    def index(self, pos: int) -> PositionIndex:
        index = self.indexes.get(pos)
        if index is None:
            index = self.indexes[pos] = _index_position(self.rules, pos)
        return index

    def bucket(
        self, goal: Term, m: dict[int, Term]
    ) -> tuple[tuple[AnnotatedRule, ...], tuple[int, ...]]:
        """The rules a call can match under the binding map m, and the
        positions a row relation's row must still be matched at: one
        index bucket, at the first plan position p where the call's
        argument derefs to an atom or integer, with orders[p]; all rules
        with order when there is none. A row's arguments are all atoms
        (str) or integers (int), and no str equals an int as a dict key,
        so every row in the bucket holds that very constant at p."""
        for pos in self.plan:
            a = goal.args[pos]
            while type(a) is Var and a.id in m:
                a = m[a.id]
            if type(a) is not Var and type(a) is not Struct:
                buckets, unindexed = self.indexes.get(pos) or self.index(pos)
                return buckets.get(a, unindexed), self.orders[pos]
        return self.rules, self.order


class AnnotatedProgram:
    """An analyzed program: its rules per predicate, its table
    declarations and its levels, plus the dispatch records its runs
    fill and share."""

    __slots__ = ("rules", "tabled", "levels", "records")

    def __init__(
        self,
        rules: dict[PredKey, tuple[AnnotatedRule, ...]],
        tabled: dict[PredKey, Optional[str]],  # declared strategy, None = default
        levels: dict[PredKey, int],
    ):
        self.rules = rules
        self.tabled = tabled
        self.levels = levels
        self.__post_init__()

    def __post_init__(self):
        # one dispatch record per predicate, filled on its first call; a
        # method of its own: perfbench/tracing.py wraps it as analysis.index_build
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
            heads = [c.head.args for r in rules if not (c := r.clause).body]
            rows = len(heads) == len(rules)  # facts only
            if not rows:  # a rule's head counts towards the plan too
                heads = [r.clause.head.args for r in rules]
            for pos, column in enumerate(zip(*heads)):
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
        record = self.records[key] = Dispatch(kind, plan, rules or (), key[1])
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


def build_call_graph(groups: dict[PredKey, list[Clause]]) -> CallGraph:
    """Predicate adjacency over clauses grouped by head predicate: q is a
    successor of p iff q occurs in a body of p's clauses."""
    graph: CallGraph = {}
    for hk, clauses in groups.items():
        succs = graph.get(hk)
        if succs is None:
            succs = graph[hk] = {}
        for c in clauses:
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
    buckets: dict = {}  # each bucket a list until the pass ends, then a tuple
    unindexed: list[AnnotatedRule] = []
    for r in rules:
        k = r.clause.head.args[pos]
        if type(k) is Var or type(k) is Struct:
            unindexed.append(r)
            for bucket in buckets.values():
                bucket.append(r)
        elif k in buckets:
            buckets[k].append(r)
        else:
            buckets[k] = [*unindexed, r]
    for k, bucket in buckets.items():
        buckets[k] = tuple(bucket)
    return buckets, tuple(unindexed)


def annotate(
    groups: dict[PredKey, list[Clause]],
    declarations: Iterable[TableDeclaration],
    levels: dict[PredKey, int],
) -> AnnotatedProgram:
    """Attach semi-naive annotations to each predicate's clauses.

    Duplicate table declarations are accepted idempotently (a later
    explicit strategy wins). Declaring a predicate with no clauses is
    legal: the call fails finitely with an immediately-complete table.
    """
    tabled: dict[PredKey, Optional[str]] = {}
    for d in declarations:
        key = (d.name, d.arity)
        if d.strategy is not None or key not in tabled:
            tabled[key] = d.strategy

    rules: dict[PredKey, tuple[AnnotatedRule, ...]] = {}
    for hk, clauses in groups.items():
        if hk not in tabled:
            rules[hk] = tuple(map(AnnotatedRule, clauses))
            continue
        group = []
        for c in clauses:
            last_dep = None
            for i, goal in enumerate(c.body):
                if levels.get(pred_key(goal), 0) == levels[hk]:
                    last_dep = i
            group.append(AnnotatedRule(c, last_dep))
        rules[hk] = tuple(group)
    for key in tabled:
        rules.setdefault(key, ())
    return AnnotatedProgram(rules, tabled, levels)


def analyze(items: Iterable[Item]) -> AnnotatedProgram:
    """The items' clauses grouped by head predicate, in program order, then
    their call graph, levels and annotations, each read off the groups."""
    groups: dict[PredKey, list[Clause]] = {}
    decls = []
    for item in items:
        if type(item) is not Clause:
            decls.append(item)
            continue
        head = item.head
        hk = (head, 0) if type(head) is str else (head.functor, len(head.args))
        group = groups.get(hk)
        if group is None:
            group = groups[hk] = []
        group.append(item)
    graph = build_call_graph(groups)
    for d in decls:
        graph.setdefault((d.name, d.arity), {})
    return annotate(groups, decls, level_mapping(graph))
