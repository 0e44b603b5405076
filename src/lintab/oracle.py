"""Reference evaluator: semi-naive bottom-up least fixpoint.

Ground truth for answer sets on desk-scale instances. Pass 1 is naive.
From pass 2 on, a clause runs only if a body goal's predicate gained facts
in the previous pass (its delta), and only on the derivations that read
at least one delta fact (semi-naive evaluation; Bancilhon and
Ramakrishnan, SIGMOD 1986). Every other derivation ran a pass earlier and
could only re-derive a known fact. Those that remain run once each, in
the naive pass's order, so the model holds each predicate's facts in the
order naive iteration gives them, after as many passes.

The oracle stays independent of the engine, which it checks: the only
shared code is the term/parser layer. Its delta is per predicate and per
pass and shares no code with the engine's per-rule semi-naive gate over
each subgoal's answer regions, and it keeps the naive passes and model
order, so its answers depend on no scheduling choice the engine makes.

Each clause body is compiled once into a join plan (Ullman, *Principles
of Database and Knowledge-Base Systems* vol. II, 1989): per goal, its
predicate, its index position, the first argument ground under the
variables the goals before it bind, and one op per argument, which
compares a constant, checks a bound variable, binds a first occurrence
or matches a compound. A flat head, whose arguments are variables and
constants, is filled straight from the body's bindings. A goal with an
index position reads only the facts that hold that argument, through an
index by (predicate, position) and then argument value whose buckets are
ordered sublists of the model's lists: plain dicts built here, sharing no
code with the engine. The model and the delta index only the positions
some plan reads; a query's plan indexes only its own, so an open query
builds no index.

Answers are values, in the engine's forms: `oracle_values` gives each
query solution as the tuple of the query variables' values (as
`Engine.solve` does) and `answers_for_key` each entry answer as the tuple
of the key's variables' values (as the answer table stores it), so a
check compares them with no rendering. `oracle_solve` renders the former
for callers that compare text.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from .parser import Clause, Item, parse_program, parse_query
from .terms import (
    PredKey,
    Struct,
    Term,
    Var,
    is_ground,
    iter_subterms,
    new_struct,
    pred_key,
    render_solutions,
    variables,
)


class OracleInapplicable(Exception):
    """The program falls outside the range-restricted fragment."""


Model = dict[PredKey, list[Term]]
Index = dict[tuple[PredKey, int], dict[Term, list[Term]]]


def _check_range_restricted(clauses: Iterable[Clause]) -> None:
    for c in clauses:
        body_vars = {v for g in c.body for v in variables(g)}
        missing = [v for v in variables(c.head) if v not in body_vars]
        if missing:
            raise OracleInapplicable(
                f"head variable not bound by the body in clause {c.head}"
            )


def _substitute(t: Term, theta: dict[int, Term]) -> Term:
    tt = type(t)
    if tt is Var:
        return theta.get(t.id, t)
    if tt is Struct:
        return new_struct(t.functor, tuple([_substitute(a, theta) for a in t.args]))
    return t


def _match(pattern: Term, fact: Term, theta: dict[int, Term], bound: list[int]) -> bool:
    """Match pattern against a ground fact, extending theta (trailing keys
    into `bound` so callers can undo)."""
    tp = type(pattern)
    if tp is Var:
        existing = theta.get(pattern.id)
        if existing is None:
            theta[pattern.id] = fact
            bound.append(pattern.id)
            return True
        return existing == fact
    if tp is not Struct:
        return type(fact) is tp and fact == pattern
    if (
        type(fact) is not Struct
        or fact.functor != pattern.functor
        or len(fact.args) != len(pattern.args)
    ):
        return False
    for p, f in zip(pattern.args, fact.args):
        if not _match(p, f, theta, bound):
            return False
    return True


# One op per argument of a body goal, run in argument order on a fact:
# compare a constant, check a variable already bound, bind a variable's
# first occurrence, or `_match` a compound.
_CONST, _CHECK, _BIND, _MATCH = "const", "check", "bind", "match"


class _Goal:
    """A body goal's join plan, settled once for the variables the goals
    before it bind: its predicate, the (predicate, position) of the first
    argument ground under those variables, or None, with how to compute
    that argument's value (`key`: the constant, the bound variable's id or
    the compound to substitute, tagged as the op on it would be), and its
    ops. The bound variable at the index position needs no check: its
    bucket holds only facts equal to it there."""

    __slots__ = ("pred", "read", "key", "ops")

    def __init__(self, goal: Term, before: set[int]):
        self.pred = pred_key(goal)
        self.read = self.key = None
        args = goal.args if type(goal) is Struct else ()
        checked = -1  # the index position, if a bound variable sits there
        for pos, arg in enumerate(args):
            if all(v in before for v in variables(arg)):
                self.read = (self.pred, pos)
                if type(arg) is Var:
                    self.key, checked = (_CHECK, arg.id), pos
                elif type(arg) is Struct and variables(arg):
                    self.key = (_MATCH, arg)
                else:
                    self.key = (_CONST, arg)
                break
        ops, seen = [], set(before)
        for pos, arg in enumerate(args):
            if type(arg) is Var:
                if arg.id not in seen:
                    ops.append((_BIND, pos, arg.id))
                    seen.add(arg.id)
                elif pos != checked:
                    ops.append((_CHECK, pos, arg.id))
            elif type(arg) is Struct:
                ops.append((_MATCH, pos, arg))
                seen.update(variables(arg))
            else:
                ops.append((_CONST, pos, arg))
        self.ops = tuple(ops)


def _plan(goals: Iterable[Term]) -> tuple[_Goal, ...]:
    """The join plan of goals read left to right from an empty theta."""
    plan, before = [], set()
    for goal in goals:
        plan.append(_Goal(goal, before))
        before.update(variables(goal))
    return tuple(plan)


def _reads(plans: Iterable[tuple[_Goal, ...]]) -> set[tuple[PredKey, int]]:
    return {g.read for plan in plans for g in plan if g.read is not None}


def _index(model: Model, reads: Iterable[tuple[PredKey, int]]) -> Index:
    """The index of the model's facts at the read positions only."""
    index: Index = {}
    for hk, pos in reads:
        buckets = index[(hk, pos)] = {}
        for fact in model.get(hk, ()):
            buckets.setdefault(fact.args[pos], []).append(fact)
    return index


class _Delta:
    """The facts the previous pass added: per predicate in model order, an
    index over them at the read positions, and their object ids (each
    model fact is one object)."""

    __slots__ = ("model", "index", "ids")

    def __init__(self, new_facts: list[tuple[PredKey, Term]], reads: set[tuple[PredKey, int]]):
        self.model: Model = {}
        for hk, fact in new_facts:
            self.model.setdefault(hk, []).append(fact)
        self.index = _index(self.model, reads)
        self.ids = {id(fact) for _, fact in new_facts}


def _match_body(
    plan: tuple[_Goal, ...],
    i: int,
    model: Model,
    index: Index,
    theta: dict[int, Term],
    delta: Optional[_Delta] = None,
    last: int = -1,
    used: bool = False,
):
    """Each theta under which plan[i:]'s goals hold in the model, in
    nested-loop order. With a delta, goal `last`, the last whose predicate
    has delta facts, reads only delta facts unless an earlier goal read one
    (`used`), so only the derivations that read a delta fact are
    enumerated. A bind op's variable stays bound past its fact: no op
    reads it before the op that binds it again, so theta needs undoing
    only for what `_match` binds in a compound."""
    if i == len(plan):
        yield theta
        return
    goal = plan[i]
    facts_of, facts_index = (
        (delta.model, delta.index) if i == last and not used else (model, index)
    )
    if goal.read is None:
        facts = facts_of.get(goal.pred, ())
    else:  # theta binds variables to ground terms only
        kind, x = goal.key
        value = x if kind is _CONST else theta[x] if kind is _CHECK else _substitute(x, theta)
        facts = facts_index[goal.read].get(value, ())
    ops = goal.ops
    final = i + 1 == len(plan)
    bound: list[int] = []  # what a _MATCH op bound, undone per fact
    for fact in facts:
        for op, pos, x in ops:
            arg = fact.args[pos]
            if op is _BIND:
                theta[x] = arg
            elif op is _CHECK:
                if theta[x] != arg:
                    break
            elif op is _CONST:
                if type(arg) is not type(x) or arg != x:
                    break
            elif not _match(x, arg, theta, bound):
                break
        else:
            if final:
                yield theta
            else:
                hit = used or (i < last and id(fact) in delta.ids)
                yield from _match_body(plan, i + 1, model, index, theta, delta, last, hit)
        if bound:
            for vid in bound:
                del theta[vid]
            bound.clear()


def _slots(head: Term) -> Optional[tuple[tuple[bool, Term], ...]]:
    """How to fill a flat head, whose arguments are variables and
    constants, straight from theta: per argument, (True, its variable id)
    or (False, the constant). None for an atom or a head with a compound
    argument, which is substituted."""
    if type(head) is not Struct or any(type(a) is Struct for a in head.args):
        return None
    return tuple((type(a) is Var, a.id if type(a) is Var else a) for a in head.args)


def _herbrand_bound(clauses: list[Clause]) -> tuple[int, bool]:
    """Ground atoms over the program's constants (bound + 1 passes suffice
    without function symbols), and whether a function symbol occurs. With
    function symbols no count over the constants bounds the model, so the
    bound is only a heuristic there and counts at most 8 arguments."""
    consts = set()
    preds = set()
    functions = False
    for c in clauses:
        for t in (c.head, *c.body):
            preds.add(pred_key(t))
            for s in iter_subterms(t):
                if type(s) is Struct:
                    functions = functions or s is not t
                elif type(s) is not Var:
                    consts.add(s)
    k = max(len(consts), 1)
    bound = 0
    for _, arity in preds:
        bound += k ** (min(arity, 8) if functions else arity)
    return bound, functions


def oracle_model(items: Iterable[Item]) -> Model:
    """Least model of all predicates by semi-naive iteration to fixpoint.

    Pass 1 is naive. From pass 2 on, a clause runs only on derivations that
    read a fact the previous pass added; any other derivation re-derives a
    fact already in the model. The model and the pass count are those of
    naive iteration: each predicate's facts in the same order.
    """
    try:
        clauses = [i for i in items if isinstance(i, Clause)]
        _check_range_restricted(clauses)
        rules = [(_plan(c.body), pred_key(c.head), c.head, _slots(c.head)) for c in clauses]
        reads = _reads(plan for plan, _, _, _ in rules)
        model: Model = {}
        index = _index(model, reads)
        seen: set[tuple[PredKey, Term]] = set()
        bound, functions = _herbrand_bound(clauses)
        iterations = 0
        delta: Optional[_Delta] = None  # pass 1 is naive
        changed = True
        while changed:
            iterations += 1
            if iterations > bound + 1:
                if functions:
                    raise OracleInapplicable(
                        f"function symbols: the fixpoint ran past {bound + 1}"
                        " passes, the bound over the program's constants"
                    )
                raise AssertionError("fixpoint exceeded the Herbrand bound")
            new_facts: list[tuple[PredKey, Term]] = []
            for plan, hk, head, slots in rules:
                last = -1
                if delta is not None:
                    for i, goal in enumerate(plan):
                        if goal.pred in delta.model:
                            last = i
                    if last < 0:
                        continue  # no derivation reads a delta fact
                for theta in _match_body(plan, 0, model, index, {}, delta, last):
                    if slots is None:
                        fact = _substitute(head, theta)
                        assert is_ground(fact)
                    else:
                        fact = new_struct(
                            head.functor, tuple([theta[x] if var else x for var, x in slots])
                        )
                    if (hk, fact) not in seen:
                        seen.add((hk, fact))
                        new_facts.append((hk, fact))
            delta = _Delta(new_facts, reads)
            for hk, facts in delta.model.items():
                model.setdefault(hk, []).extend(facts)
            for read, buckets in delta.index.items():
                model_buckets = index[read]
                for arg, facts in buckets.items():
                    model_buckets.setdefault(arg, []).extend(facts)
            changed = bool(new_facts)
        return model
    except RecursionError:  # the recursive term walks cannot follow a term
        raise OracleInapplicable("a term nested too deeply") from None


def oracle_values(
    items_or_text: Union[str, Iterable[Item]],
    query: Union[str, list[Term]],
    model: Optional[Model] = None,
) -> set[tuple[Term, ...]]:
    """Ground solutions of the query against the least model, each as the
    tuple of the query variables' values in first-occurrence order (the
    form Engine.solve gives).

    Pass the program's model, if already built by oracle_model, to skip
    building it again; the query reads the model as passed.
    """
    try:
        if model is None:
            items = (
                parse_program(items_or_text)
                if isinstance(items_or_text, str)
                else list(items_or_text)
            )
            model = oracle_model(items)
        goals = parse_query(query)[0] if isinstance(query, str) else list(query)
        ids = variables(tuple(goals))
        plan = _plan(goals)
        index = _index(model, _reads([plan]))
        return {tuple([theta[v] for v in ids]) for theta in _match_body(plan, 0, model, index, {})}
    except RecursionError:  # the recursive term walks cannot follow a term
        raise OracleInapplicable("a term nested too deeply") from None


def oracle_solve(
    items_or_text: Union[str, Iterable[Item]],
    query: Union[str, list[Term]],
    model: Optional[Model] = None,
) -> set[str]:
    """oracle_values' solutions, rendered as Engine.run renders them."""
    goals = parse_query(query)[0] if isinstance(query, str) else list(query)
    return set(render_solutions(goals, oracle_values(items_or_text, goals, model)))


def answers_for_key(model: Model, key: Term) -> frozenset[tuple[Term, ...]]:
    """The model facts that are instances of a canonical subgoal key, each
    as the tuple of the key's variables' values: the form of the key's
    answer tuples in the table. It is oracle_values' one-goal query, whose
    tuples follow the key's variables 0..n-1 in first-occurrence order."""
    return frozenset(oracle_values((), [key], model))
