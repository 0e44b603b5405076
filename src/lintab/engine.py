"""The linear-tabling interpreter.

Depth-first resolution over generators: `_solve_seq` solves a body goal
by goal, and each goal's clause loop or table loop is a generator that
yields once per solution (bindings live in a shared trail and are undone
on backtracking). Each yield carries one bool: whether the solution
stands on a new answer, one past its entry's old region or just stored
by a pioneer, at any depth below. Tabled calls dispatch on the entry
state:

  * a complete entry is resolved from the table;
  * a follower, which is a call whose entry has a live pioneer activation
    or is evaluated while its cluster still iterates, joins the cluster,
    consumes answers and then fails (early-promoting on exhaustion);
  * anything else is a pioneer. One pioneer generator serves both
    strategies: it runs rounds of rule resolution to the entry's fixpoint
    and yields each new answer as it is stored. The strategy only decides
    when answers are returned. A lazy pioneer drains the generator, so
    answers are withheld until clauses are exhausted (and for top-most
    looping subgoals until the whole cluster is complete), then returns
    them from the table. An eager pioneer consumes existing answers at
    the start of each round and hands each new answer to the parent the
    moment it is stored.

Consumption walks the answer table by position and binds the call's
variables to each stored substitution tuple, with no unification (see
table.py). Incomplete entries sit on one completion stack, `incomplete`,
in the order of their first call (as in the SLG-WAM; Sagonas and Swift,
TOPLAS 20(3), 1998), and a cluster of inter-dependent subgoals is always
a suffix of it. An entry found looping points `topmost` at its cluster's
top-most subgoal, which points at itself; a follower call points every
entry from its top's stack position up at that top. Top-most looping
subgoals are iterated in rounds until a round inserts nothing new, then
complete their suffix and pop it. Between rounds the cluster's answer
regions are promoted, which is what makes new-answers-only consumption (the
semi-naive gate) possible. The gate is one bool decided at a tabled
call site: open at the rule's last depending index when no earlier body
goal stands on a new answer and the rule's entry is past round 1. It
only moves the walk's start from 0 to the end of the old region.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Union

from .analysis import (
    AnnotatedProgram,
    AnnotatedRule,
    PredKey,
    atomic_key,
    pred_key,
)
from .parser import parse_query
from .table import (
    SubgoalEntry,
    SubgoalStore,
    early_promote,
    insert_answer,
    mark_complete,
    promote_regions,
    register_subgoal,
)
from .terms import (
    Bindings,
    Struct,
    Term,
    Var,
    canonicalize,
    render,
    render_goals,
    renumber,
    unify,
    variables,
)

LAZY = "lazy"
EAGER = "eager"


class EngineError(Exception):
    pass


class StepBudgetExceeded(EngineError):
    """The run exceeded its resolution-step budget (nontermination suspect)."""


class DepthExceeded(EngineError):
    """Resolution nested deeper than the interpreter's recursion limit."""


@dataclass
class EngineOptions:
    strategy: str = LAZY  # default; per-predicate declarations override
    semi_naive: bool = True
    early_promotion: bool = True
    dedup_solutions: bool = False
    limit: Optional[int] = None
    step_budget: int = 10**8

    def __post_init__(self):
        if self.strategy not in (LAZY, EAGER):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.early_promotion and not self.semi_naive:
            raise ValueError("early promotion requires semi-naive consumption")
        if self.step_budget <= 0:
            raise ValueError("step budget must be positive")
        if self.limit is not None and self.limit < 1:
            raise ValueError("limit must be positive")


@dataclass
class RunStats:
    answers_produced: int = 0
    answers_consumed: int = 0
    clause_resolutions: int = 0
    steps: int = 0
    undefined_calls: int = 0
    entry_rounds: dict[str, int] = field(default_factory=dict)
    subgoal_count: int = 0
    max_iterations: int = 0
    average_iterations: float = 0.0

    def finalize(self, store: SubgoalStore) -> None:
        self.entry_rounds = {
            render(e.key): e.round_counter for e in store
        }
        rounds = list(self.entry_rounds.values())
        self.subgoal_count = len(rounds)
        self.max_iterations = max(rounds, default=0)
        self.average_iterations = (
            sum(rounds) / len(rounds) if rounds else 0.0
        )

    def as_dict(self) -> dict:
        return {
            "subgoals": self.subgoal_count,
            "max_its": self.max_iterations,
            "ave_its": round(self.average_iterations, 2),
            "answers_produced": self.answers_produced,
            "answers_consumed": self.answers_consumed,
            "clause_resolutions": self.clause_resolutions,
            "steps": self.steps,
            "undefined_calls": self.undefined_calls,
        }

    def as_lines(self) -> list[str]:
        d = self.as_dict()
        d["ave_its"] = f"{self.average_iterations:.2f}"
        return [f"{k}={v}" for k, v in d.items()]


Query = Union[str, Iterable[Term]]


class Engine:
    """One evaluation run: owns the bindings trail, table store and stats."""

    def __init__(self, program: AnnotatedProgram, options: Optional[EngineOptions] = None):
        self.program = program
        self.opts = options or EngineOptions()
        self.bindings = Bindings()
        self.store = SubgoalStore()
        self.stats = RunStats()
        # entries whose pioneer is running, outermost first
        self.active_pioneers: dict[SubgoalEntry, None] = {}
        # the completion stack: incomplete entries in first-call order
        self.incomplete: list[SubgoalEntry] = []
        self._var_counter = 0
        self._started = False

    # -- public API ------------------------------------------------------

    def run(self, query: Query) -> Iterator[str]:
        """Pull-based solution stream; each item is the rendered query."""
        if isinstance(query, str):
            goals, nvars = parse_query(query)
        else:
            goals = list(query)
            ids = [v for g in goals for v in variables(g)]
            nvars = max(ids, default=-1) + 1
        off = self._fresh_block(nvars)
        goals = [renumber(g, off) for g in goals]
        return self._solutions(goals)

    # -- plumbing --------------------------------------------------------

    def _fresh_block(self, n: int) -> int:
        base = self._var_counter
        self._var_counter += n
        return base

    def _step(self) -> None:
        self.stats.steps += 1
        if self.stats.steps > self.opts.step_budget:
            raise StepBudgetExceeded(
                f"step budget {self.opts.step_budget} exhausted"
            )

    def _activate(self, clause):
        if clause.nvars == 0:
            return clause.head, clause.body
        off = self._fresh_block(clause.nvars)
        head = renumber(clause.head, off)
        body = tuple(renumber(g, off) for g in clause.body)
        return head, body

    def _clauses_for(self, goal: Term, key: PredKey) -> tuple[AnnotatedRule, ...]:
        """The clauses a call can match: one index bucket, looked up at the
        first position of the predicate's plan where the call's argument
        is bound to an atom or integer; all clauses when there is none."""
        program = self.program
        for pos in program.index_plan(key):
            k = atomic_key(self.bindings.deref(goal.args[pos]))
            if k is not None:
                return program.rules_for(key, k, pos)
        return program.rules_for(key)

    # -- resolution ------------------------------------------------------

    def _solutions(self, goals: list[Term]) -> Iterator[str]:
        if self._started:
            raise EngineError("an Engine instance supports a single run")
        self._started = True
        seen: set[str] = set()
        count = 0
        try:
            for _ in self._solve_seq(goals, None, None, False, 0):
                text = render_goals(goals, self.bindings)
                if self.opts.dedup_solutions:
                    if text in seen:
                        continue
                    seen.add(text)
                yield text
                count += 1
                if self.opts.limit is not None and count >= self.opts.limit:
                    return
        except RecursionError:
            # each goal and subgoal nests a generator, so a derivation
            # chain a few hundred goals deep exhausts the Python stack
            raise DepthExceeded(
                f"resolution nested deeper than the recursion limit "
                f"({sys.getrecursionlimit()})"
            ) from None
        finally:
            self.stats.finalize(self.store)

    def _solve_seq(self, goals, last_dep, owner, fresh, i):
        """Solve goals[i:], yielding per solution whether it stands on a
        new answer; fresh says whether goals[:i] do. last_dep and owner are
        the rule's last depending index and entry, None outside tabled
        rule bodies; they and fresh decide the gate of a tabled call."""
        if i == len(goals):
            yield fresh
            return
        goal = self.bindings.deref(goals[i])
        if not isinstance(goal, (str, Struct)):
            raise EngineError(f"goal is not callable: {render(goal, self.bindings)}")
        self._step()
        key = pred_key(goal)
        if self.program.is_tabled(key):
            gate = (
                i == last_dep
                and not fresh
                and self.opts.semi_naive
                and owner.round_counter >= 2
            )
            solutions = self._solve_tabled(goal, key, gate)
        else:
            solutions = self._solve_plain(goal, key)
        for new in solutions:
            yield from self._solve_seq(goals, last_dep, owner, fresh or new, i + 1)

    def _solve_plain(self, goal, key):
        if key not in self.program.rules:
            # call to an undefined predicate: finite failure
            self.stats.undefined_calls += 1
            return
        b = self.bindings
        for ar in self._clauses_for(goal, key):
            self._step()
            self.stats.clause_resolutions += 1
            mark = b.mark()
            head, body = self._activate(ar.clause)
            if unify(goal, head, b):
                yield from self._solve_seq(body, None, None, False, 0)
            b.undo(mark)

    # -- tabled resolution ----------------------------------------------

    def _solve_tabled(self, goal, key, gate):
        entry, call_vars = register_subgoal(self.store, goal, self.bindings)
        if entry.complete:
            yield from self._consume(call_vars, entry, gate, promote=False)
            return
        if entry in self.active_pioneers or entry.evaluated:
            # a follower (a loop, possibly fake under eager, was found), or
            # an entry whose cluster is still iterating: either way the
            # caller must not complete before the cluster's top-most does:
            # every entry first called since that top joins its cluster
            top = entry.topmost or entry
            for e in self.incomplete[top.pos :]:
                e.topmost = top  # a looping top points at itself
            yield from self._consume(call_vars, entry, gate, promote=True)
            return
        # pioneer
        eager = self.program.strategy(key, self.opts.strategy) == EAGER
        if entry.pos is None:  # first call: push it on the completion stack
            entry.pos = len(self.incomplete)
            self.incomplete.append(entry)
        self.active_pioneers[entry] = None
        try:
            pioneer = self._pioneer(goal, key, entry, call_vars, gate, eager)
            if eager:
                yield from pioneer
                return
            for _ in pioneer:
                pass  # lazy: the memo fails, answers wait in the table
        finally:
            del self.active_pioneers[entry]
        yield from self._consume(call_vars, entry, gate, promote=False)

    def _pioneer(self, goal, key, entry, call_vars, gate, eager):
        """Rounds of rule resolution to the entry's fixpoint.

        Stores each answer as the canonical tuple of the call variables'
        bindings and yields True once per newly stored one, with the call
        still bound to it. The strategy only decides when answers are
        returned: an eager pioneer first hands the table's answers to the
        parent each round and forwards every yield, a lazy one drains the
        generator and consumes afterwards.
        """
        b = self.bindings
        subst = tuple(map(Var, call_vars))
        while True:
            entry.round_counter += 1
            if eager:
                # answers first, then rules
                yield from self._consume(call_vars, entry, gate, promote=False)
            skip_base = self.opts.semi_naive and entry.round_counter >= 2
            for ar in self._clauses_for(goal, key):
                last_dep = ar.last_depending_index
                if skip_base and last_dep is None:
                    continue  # a base rule derives nothing new after round 1
                self._step()
                self.stats.clause_resolutions += 1
                mark = b.mark()
                head, body = self._activate(ar.clause)
                if unify(goal, head, b):
                    for _ in self._solve_seq(body, last_dep, entry, False, 0):
                        # memo: store the answer; only a new one is returned
                        if insert_answer(entry, canonicalize(subst, b)):
                            self.stats.answers_produced += 1
                            yield True
                b.undo(mark)
            # check_completion. A top-most entry stays active from its first
            # call until its cluster completes, so every incomplete entry
            # first called after it has either joined its cluster or
            # completed before the top resumed: the stack suffix from its
            # position is its cluster (just the entry when it is not looping)
            top = entry.topmost
            if top is not None and top is not entry:
                entry.evaluated = True  # its top-most subgoal completes it
                return
            cluster = self.incomplete[entry.pos :]
            if top is entry and any(e.revised for e in cluster):
                for e in cluster:  # another round
                    promote_regions(e)
                    e.evaluated = False
                    e.revised = False
                continue
            mark_complete(*cluster)
            del self.incomplete[entry.pos :]
            return

    def _consume(self, call_vars, entry, gate, promote):
        """Walk the entry's answer tuples by position, seeing answers stored
        meanwhile, and yield per answer whether it is new (past the old
        region). Each answer binds the i-th call variable to the tuple's
        i-th element, renamed apart first if the tuple has variables; a
        call is a variant of the key, so this is the unifier and cannot
        fail. An open gate starts the walk at the end of the old region
        instead of at 0."""
        b = self.bindings
        tuples = entry.answers.tuples
        nvars = entry.answers.nvars
        pos = entry.last_old if gate else 0
        while pos < len(tuples):
            self._step()
            tup = tuples[pos]
            if nvars[pos]:
                tup = renumber(tup, self._fresh_block(nvars[pos]))
            mark = b.mark()
            for vid, t in zip(call_vars, tup):
                b.bind(vid, t)
            self.stats.answers_consumed += 1
            yield pos >= entry.last_old
            b.undo(mark)
            pos += 1
        if (
            promote
            and self.opts.early_promotion
            and not entry.complete
            and not entry.promoted_this_round
        ):
            early_promote(entry)


def run_query(
    program: AnnotatedProgram, query: Query, options: Optional[EngineOptions] = None
) -> tuple[list[str], Engine]:
    """Run to exhaustion; returns (solutions in emission order, engine)."""
    eng = Engine(program, options)
    return list(eng.run(query)), eng
