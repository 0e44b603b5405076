"""The linear-tabling interpreter.

Depth-first resolution over generators: `_solve_seq` solves a body goal
by goal, and each plain or tabled call is a generator that yields
once per solution (bindings live in one map and trail, undone on
backtracking); a last goal's solutions go straight to the caller with no
further generator. Plain calls and pioneer rounds share one clause loop,
`_activations`, which yields once per matching clause, never per
solution; a call to a row relation walks its index bucket in place, with
no clause loop. A body's last goal that is a row relation, after a goal
that is not, is walked inside the loop over that goal's solutions, its
dispatch record looked up once (the WAM's last call, Warren, SRI TN 309,
1983): no generator and no dispatch per solution, with the step and
counters of a call. A goal finds what its predicate's calls share
in one lookup of the program's dispatch record for it (see analysis.py):
the kind picks the path (tabled, row relation, clauses or undefined), and
the record's `bucket` picks the clauses, for the pioneer too. Records are
filled on a predicate's first call and kept on the program, so later runs
of the same program reuse them. Each yield carries one bool: whether the
solution stands on a new answer, one past its entry's old region or just
stored by a pioneer, at any depth below. A clause is resolved by
matching its head against the call (see analysis.head_plan): a head
variable seen once, as a whole argument, is never bound, and the other
argument positions are unified with the head's renamed into a fresh block
of variables; only on a match is the body renamed into that block too,
each such variable replaced by the call's argument. Tabled calls
dispatch on the entry's lifecycle state (see table.py):

  * a COMPLETE entry is resolved from the table;
  * a follower, which is a call whose entry is RUNNING or HANDING (its
    pioneer is active) or EVALUATED (its cluster still iterates), joins
    the cluster, consumes answers and then fails (early-promoting on
    exhaustion);
  * a call to a NEW entry is a pioneer. The tabled call's own generator runs
    rounds of rule resolution to the entry's fixpoint, so an active tabled
    call is one frame under either strategy. The strategy only decides
    when answers are returned. A lazy pioneer yields nothing while it
    stores answers, so they are withheld until clauses are exhausted (and
    for top-most looping subgoals until the whole cluster is complete),
    then returns them from the table. An eager pioneer hands each new
    answer to the parent the moment it is stored, and at the start of
    each round replays the answers stored so far: always when it is a
    member of a cluster, but as the cluster's top-most subgoal only after
    a fake loop, a follower call that the parent's continuation made
    while the top was HANDING it an answer, into a cluster whose own top
    was HANDING too (the top's, or one nested in it): the call marks
    every pioneer then HANDING. A continuation that made no
    such call read no table that could still grow after it finished, so
    running it again on an old answer would only redo work.

A pioneer hands each answer to `insert_answer` as its call variables and
the binding map; table.py turns them into the substitution tuple it
stores (Ramakrishnan et al., JLP 38(1), 1999). Consumption walks the
answer table by position and binds the call's variables to each stored
tuple, with no unification. Incomplete
entries sit on one completion stack, `incomplete`, in the order of their
first call (as in the SLG-WAM; Sagonas and Swift, TOPLAS 20(3), 1998),
and a cluster of inter-dependent subgoals is always a suffix of it. An
entry found looping points `topmost` at its cluster's top-most subgoal,
which points at itself; a follower call points every entry from its
top's stack position up at that top. Top-most looping
subgoals are iterated in rounds until a round inserts nothing new, then
complete their suffix and pop it. Between rounds the cluster's answer
regions are promoted, which is what makes new-answers-only consumption (the
semi-naive gate) possible. The gate is decided per rule and per round:
past round 1 (and with semi-naive on) a pioneer names each rule's last
depending index as its one gate site, and the tabled call there opens
the gate when no earlier body goal stands on a new answer. An open gate
only moves the walk's start from 0 to the end of the old region.
"""

from __future__ import annotations

import sys
from typing import Iterable, Iterator, Optional, Union

from .analysis import ROWS, TABLED, UNDEFINED, AnnotatedProgram, pred_key
from .parser import parse_query
from .table import (
    COMPLETE,
    EVALUATED,
    HANDING,
    NEW,
    RUNNING,
    SubgoalEntry,
    SubgoalStore,
    answer_tuple,
    early_promote,
    insert_answer,
    promote_regions,
    register_subgoal,
)
from .terms import (
    Record,
    Struct,
    Template,
    Term,
    Var,
    canonicalize,  # not called here; perfbench/tracing.py wraps lintab.engine.canonicalize
    render,
    render_goals,  # not called here; perfbench/tracing.py wraps lintab.engine.render_goals
    renumber,
    undo,
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


class EngineOptions(Record):
    """How a run evaluates: the default strategy (per-predicate
    declarations override), the semi-naive gate, early promotion and the
    resolution-step budget. Equal by value, and unhashable: nothing
    freezes its fields."""

    __slots__ = ("strategy", "semi_naive", "early_promotion", "step_budget")
    __hash__ = None

    def __init__(
        self,
        strategy: str = LAZY,
        semi_naive: bool = True,
        early_promotion: bool = True,
        step_budget: int = 10**8,
    ):
        if strategy not in (LAZY, EAGER):
            raise ValueError(f"unknown strategy {strategy!r}")
        for name, flag in (("semi_naive", semi_naive), ("early_promotion", early_promotion)):
            if type(flag) is not bool:
                raise ValueError(f"{name} must be a bool, not {flag!r}")
        if type(step_budget) is not int:
            raise ValueError(f"step budget must be an int, not {step_budget!r}")
        if early_promotion and not semi_naive:
            raise ValueError("early promotion requires semi-naive consumption")
        if step_budget <= 0:
            raise ValueError("step budget must be positive")
        self.strategy = strategy
        self.semi_naive = semi_naive
        self.early_promotion = early_promotion
        self.step_budget = step_budget


class RunStats:
    """One run's counters; `finalize` fills those read off the tables
    when the run ends."""

    __slots__ = (
        "answers_produced", "answers_consumed", "clause_resolutions", "steps",
        "undefined_calls", "entry_rounds", "subgoal_count", "max_iterations",
        "average_iterations",
    )

    def __init__(self):
        self.answers_produced = 0
        self.answers_consumed = 0
        self.clause_resolutions = 0
        self.steps = 0
        self.undefined_calls = 0
        self.entry_rounds: dict[str, int] = {}
        self.subgoal_count = 0
        self.max_iterations = 0
        self.average_iterations = 0.0

    def finalize(self, store: SubgoalStore) -> None:
        """Read the answer and round counts off the run's tables: a table
        never shrinks, and stores an answer only when it is new."""
        rounds = [e.round_counter for e in store]
        self.entry_rounds = {render(e.key): e.round_counter for e in store}
        self.answers_produced = sum(len(e.answers) for e in store)
        self.subgoal_count = len(rounds)
        self.max_iterations = max(rounds, default=0)
        self.average_iterations = sum(rounds) / len(rounds) if rounds else 0.0

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
    """One evaluation run, by `run` (each solution rendered) or `solve`
    (each solution as a value tuple, for checks that compare values):
    owns the binding map `bound` (variable id to term), its `trail` of
    bound ids, the table store and the stats."""

    def __init__(self, program: AnnotatedProgram, options: Optional[EngineOptions] = None):
        self.program = program
        self.opts = options or EngineOptions()
        self.bound: dict[int, Term] = {}
        self.trail: list[int] = []
        self.store = SubgoalStore()
        self.stats = RunStats()
        # the completion stack: incomplete entries in first-call order
        self.incomplete: list[SubgoalEntry] = []
        self._var_counter = 0
        self._started = False

    # -- public API ------------------------------------------------------

    def run(self, query: Query) -> Iterator[str]:
        """Pull-based solution stream; each item is the rendered query:
        the goals' Template, laid out once per run, filled per solution
        from the binding map."""
        goals, t = self._start(query, Template)
        return self._solutions(goals, t.fill, t.vars)

    def solve(self, query: Query) -> Iterator[tuple[Term, ...]]:
        """The stream of `run`, each solution as the tuple of the query
        variables' values in first-occurrence order, built by
        table.answer_tuple as an answer's is: two solutions render alike
        iff their tuples are equal."""
        goals, qvars = self._start(query, lambda goals: tuple(map(Var, variables(tuple(goals)))))
        return self._solutions(goals, answer_tuple, qvars)

    def _start(self, query: Query, prepare) -> tuple[list[Term], object]:
        """The query's goals, once per Engine, and prepare(goals): a fresh
        Engine reserves their variables' block at 0, so they keep their
        ids. The walks over a library caller's goals recurse per nesting
        level, so a goal nested too deep raises DepthExceeded here."""
        try:
            if isinstance(query, str):
                goals, nvars = parse_query(query)
            else:
                goals = list(query)
                for g in goals:  # a parsed goal or clause body is callable
                    if not isinstance(g, (str, Struct)):
                        raise EngineError(f"goal is not callable: {render(g)}")
                ids = [v for g in goals for v in variables(g)]
                nvars = max(ids, default=-1) + 1
            prepared = prepare(goals)
        except RecursionError:
            raise self._too_deep() from None
        if self._started:
            raise EngineError("an Engine instance supports a single run")
        self._started = True
        self._fresh_block(nvars)
        return goals, prepared

    # -- plumbing --------------------------------------------------------

    def _fresh_block(self, n: int) -> int:
        base = self._var_counter
        self._var_counter += n
        return base

    def _out_of_steps(self) -> StepBudgetExceeded:
        return StepBudgetExceeded(f"step budget {self.opts.step_budget} exhausted")

    def _too_deep(self) -> DepthExceeded:
        return DepthExceeded(
            f"resolution nested deeper than the recursion limit ({sys.getrecursionlimit()})"
        )

    # -- resolution ------------------------------------------------------

    def _solutions(self, goals: list[Term], emit, arg) -> Iterator:
        """Solve goals, yielding emit(arg, bindings) per solution. Closing
        the stream is the one way to stop early: a limited or closed run
        evaluates nothing past its last solution, and every run ends with
        its bindings undone and its stats finalized."""
        mark = len(self.trail)  # 0 unless the caller bound variables first
        try:
            for _ in self._solve_seq(goals, None, False, 0):
                yield emit(arg, self.bound)
        except RecursionError:
            # each goal and subgoal nests a generator, so a derivation
            # chain a few hundred goals deep exhausts the Python stack
            raise self._too_deep() from None
        finally:
            # a closed run abandons generators before their undo
            undo(self.bound, self.trail, mark)
            self.stats.finalize(self.store)

    def _solve_seq(self, goals, gate_at, fresh, i):
        """Solve goals[i:], yielding per solution whether it stands on a
        new answer; fresh says whether goals[:i] do. gate_at is the index
        whose tabled call may open the gate, None where none may: the gate
        opens there when goals[:i] stand on no new answer."""
        n = len(goals)
        if i == n:
            yield fresh
            return
        goal = goals[i]
        stats, budget, m = self.stats, self.opts.step_budget, self.bound
        key = (goal.functor, len(goal.args)) if type(goal) is Struct else (goal, 0)
        record = self.program.records.get(key) or self.program.dispatch(key)
        kind = record.kind
        if kind is ROWS:  # walked below, once; the walk pays its step
            solutions = (False,)
        else:
            stats.steps += 1
            if stats.steps > budget:
                raise self._out_of_steps()
            if kind is TABLED:
                solutions = self._solve_tabled(goal, key, record, i == gate_at and not fresh)
            elif kind is UNDEFINED:  # finite failure
                stats.undefined_calls += 1
                return
            else:
                solutions = self._solve_plain(goal, record.bucket(goal, m))
            i += 1
            if i + 1 == n:  # a last goal that is a row relation is walked below
                goal = goals[i]
                key = (goal.functor, len(goal.args)) if type(goal) is Struct else (goal, 0)
                record = self.program.records.get(key) or self.program.dispatch(key)
            if i == n:
                for new in solutions:
                    yield fresh or new
                return
            if i + 1 < n or record.kind is not ROWS:
                for new in solutions:
                    yield from self._solve_seq(goals, gate_at, fresh or new, i)
                return
        # the one row walk, of goals[i]: once when it is reached directly,
        # else once per solution of the goal before it (no generator and no
        # dispatch per solution). Each pass pays the goal's step and
        # matches each row of its bucket in place
        args = goal.args
        trail = self.trail
        last_to_first = range(len(args) - 1, -1, -1)  # unify's order
        for new in solutions:
            stats.steps += 1
            if stats.steps > budget:
                raise self._out_of_steps()
            for ar in record.bucket(goal, m):
                stats.steps += 1
                if stats.steps > budget:
                    raise self._out_of_steps()
                stats.clause_resolutions += 1
                mark = len(trail)
                row = ar.clause.head.args
                for k in last_to_first:
                    a = args[k]
                    while type(a) is Var and a.id in m:
                        a = m[a.id]
                    c = row[k]
                    if type(a) is Var:
                        m[a.id] = c
                        trail.append(a.id)
                    elif type(a) is not type(c) or a != c:
                        break
                else:
                    if i + 1 == n:
                        yield fresh or new
                    else:
                        yield from self._solve_seq(goals, gate_at, fresh or new, i + 1)
                while len(trail) > mark:
                    del m[trail.pop()]

    def _solve_plain(self, goal, clauses):
        for body, _ in self._activations(goal, clauses):
            yield from self._solve_seq(body, None, False, 0)

    def _activations(self, goal, clauses, skip_base=False):
        """Per clause (past base rules, with skip_base): pay a step, count
        a resolution and match goal against the head (see
        analysis.head_plan): each position the plan names is unified with
        the head's argument renamed into a fresh block, last to first; on
        a match yield the body renamed into that block, each of the
        plan's slot variables taking the call's argument, and the rule's
        last depending index, undoing the bindings on resumption."""
        m, trail = self.bound, self.trail
        stats, budget = self.stats, self.opts.step_budget
        args = goal.args if type(goal) is Struct else ()
        for ar in clauses:
            last_dep = ar.last_depending_index
            if skip_base and last_dep is None:
                continue  # a base rule derives nothing new after round 1
            stats.steps += 1
            if stats.steps > budget:
                raise self._out_of_steps()
            stats.clause_resolutions += 1
            clause = ar.clause
            mark = len(trail)
            off = self._fresh_block(clause.nvars)
            head = clause.head
            for k in ar.unify_at:
                if not unify(args[k], renumber(head.args[k], off), m, trail):
                    undo(m, trail, mark)
                    break
            else:
                yield renumber(clause.body, off, ar.slots, args) if clause.nvars else clause.body, last_dep
                undo(m, trail, mark)

    # -- tabled resolution ----------------------------------------------

    def _solve_tabled(self, goal, key, record, gate):
        entry, call_vars = register_subgoal(self.store, goal, self.bound)
        state = entry.state
        if state is COMPLETE:
            yield from self._consume(call_vars, entry, gate)
            return
        if state is not NEW:
            # a follower (RUNNING or HANDING: a loop, possibly fake under
            # eager) or an EVALUATED entry whose cluster still iterates:
            # either way the caller must not complete before the cluster's
            # top-most does: every entry first called since that top joins
            top = entry.topmost or entry
            for e in self.incomplete[top.pos :]:
                e.topmost = top  # a looping top points at itself
            if top.state is HANDING:  # a fake loop: every continuation it lies in replays next round
                for e in self.incomplete:  # which holds every active pioneer
                    if e.state is HANDING:
                        e.replay = True
            yield from self._consume(call_vars, entry, gate)
            # the walk is exhausted: early promotion
            if self.opts.early_promotion and not entry.promoted_this_round:
                early_promote(entry)
            return
        # pioneer: rounds of rule resolution to the entry's fixpoint, each
        # answer stored as the call variables' bindings. A lazy pioneer
        # yields nothing and consumes the table after its rounds. An eager
        # one yields True per newly stored answer, the call still bound to
        # it, and first replays the table each round unless it is its
        # cluster's top-most subgoal and no fake loop (`replay`) came back
        # into the cluster since the previous round began; it is HANDING
        # exactly while it is suspended at a yield to its parent
        # (`_consume` calls no subgoal). Past round 1 with semi-naive on,
        # base rules are skipped and each rule body gets its last depending
        # index as its gate site.
        eager = self.program.strategy(key, self.opts.strategy) == EAGER
        if entry.pos is None:  # first call: push it on the completion stack
            entry.pos = len(self.incomplete)
            self.incomplete.append(entry)
        m = self.bound
        subst = tuple(map(Var, call_vars))
        clauses = record.bucket(goal, m)  # the call is bound alike every round
        levels = self.program.levels
        entry.state = RUNNING
        try:
            while True:
                entry.round_counter += 1
                if eager:  # answers first, then rules
                    replay = entry.replay or entry.topmost is not entry
                    entry.replay = False  # a fake loop during this replay counts next round
                    if replay:
                        entry.state = HANDING
                        yield from self._consume(call_vars, entry, gate)
                        entry.state = RUNNING
                later = self.opts.semi_naive and entry.round_counter >= 2
                # a round past the first has a top; an entry joined to a top
                # at another level (an eager fake loop) keeps its base rules
                skip_base = later and levels[key] == levels[pred_key(entry.topmost.key)]
                for body, last_dep in self._activations(goal, clauses, skip_base):
                    for _ in self._solve_seq(body, last_dep if later else None, False, 0):
                        # memo: store the answer; only a new one is returned
                        if insert_answer(entry, subst, m) and eager:
                            entry.state = HANDING
                            yield True
                            entry.state = RUNNING
                # check_completion. A top-most entry stays active from its
                # first call until its cluster completes, so every incomplete
                # entry first called after it has either joined its cluster
                # or completed before the top resumed: the stack suffix from
                # its position is its cluster (just the entry when it is not
                # looping)
                top = entry.topmost
                if top is not None and top is not entry:
                    entry.state = EVALUATED  # its top-most subgoal completes it
                    break
                cluster = self.incomplete[entry.pos :]
                if top is entry and any(e.revised for e in cluster):
                    for e in cluster:  # another round: the members pioneer anew
                        promote_regions(e)
                        e.revised = False
                        if e is not entry:
                            e.state = NEW
                    continue
                for e in cluster:
                    e.state = COMPLETE
                del self.incomplete[entry.pos :]
                break
        finally:
            if entry.state is RUNNING or entry.state is HANDING:
                entry.state = NEW  # abandoned: its next call pioneers it
        if not eager:  # lazy: the memo failed, answers wait in the table
            yield from self._consume(call_vars, entry, gate)

    def _consume(self, call_vars, entry, gate):
        """Walk the entry's answer tuples by position, seeing answers stored
        meanwhile, and yield per answer whether it is new (past the old
        region). Each answer binds the i-th call variable to the tuple's
        i-th element straight in the binding map and trail, as the row walk
        does, renamed apart first if the tuple has variables; a
        call is a variant of the key, so this is the unifier and cannot
        fail. An open gate starts the walk at the end of the old region
        instead of at 0."""
        m, trail = self.bound, self.trail
        # a bound variable is never re-bound without an intervening undo, so
        # no call variable is bound as the walk starts
        assert not any(vid in m for vid in call_vars)
        tuples = entry.answers.tuples
        nvars = entry.answers.nvars
        pos = entry.last_old if gate else 0
        stats, budget = self.stats, self.opts.step_budget
        while pos < len(tuples):
            stats.steps += 1
            if stats.steps > budget:
                raise self._out_of_steps()
            tup = tuples[pos]
            if nvars[pos]:
                tup = renumber(tup, self._fresh_block(nvars[pos]))
            mark = len(trail)
            for vid, t in zip(call_vars, tup):
                m[vid] = t
            trail.extend(call_vars)
            self.stats.answers_consumed += 1
            yield pos >= entry.last_old
            while len(trail) > mark:
                del m[trail.pop()]
            pos += 1


def run_query(
    program: AnnotatedProgram, query: Query, options: Optional[EngineOptions] = None
) -> tuple[list[str], Engine]:
    """Run to exhaustion; returns (solutions in emission order, engine)."""
    eng = Engine(program, options)
    return list(eng.run(query)), eng
