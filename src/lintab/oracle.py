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

A body goal reads facts through an index by (predicate, argument
position, ground argument) whose buckets are ordered sublists of the
model's lists: a plain dict built here, sharing no code with the engine.
The delta has an index of its own, built the same way.

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
Index = dict[tuple[PredKey, int, Term], list[Term]]


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


def _index_fact(index: Index, hk: PredKey, fact: Term) -> None:
    if type(fact) is Struct:
        for pos, arg in enumerate(fact.args):
            index.setdefault((hk, pos, arg), []).append(fact)


def _index(model: Model, preds: Iterable[PredKey]) -> Index:
    """The index of the model's facts of preds only."""
    index: Index = {}
    for hk in preds:
        for fact in model.get(hk, ()):
            _index_fact(index, hk, fact)
    return index


class _Delta:
    """The facts the previous pass added: per predicate in model order, an
    index over them, and their object ids (each model fact is one object)."""

    __slots__ = ("model", "index", "ids")

    def __init__(self, new_facts: list[tuple[PredKey, Term]]):
        self.model: Model = {}
        for hk, fact in new_facts:
            self.model.setdefault(hk, []).append(fact)
        self.index = _index(self.model, self.model)
        self.ids = {id(fact) for _, fact in new_facts}


def _match_body(
    goals: tuple[Term, ...],
    i: int,
    model: Model,
    index: Index,
    theta: dict[int, Term],
    delta: Optional[_Delta] = None,
    last: int = -1,
    used: bool = False,
):
    """Each theta under which goals[i:] hold in the model, in nested-loop
    order. With a delta, goal `last`, the last whose predicate has delta
    facts, reads only delta facts unless an earlier goal read one (`used`),
    so only the derivations that read a delta fact are enumerated."""
    if i == len(goals):
        yield theta
        return
    goal = goals[i]
    hk = pred_key(goal)
    facts_of, facts_index = (
        (delta.model, delta.index) if i == last and not used else (model, index)
    )
    facts = facts_of.get(hk, ())
    if type(goal) is Struct:  # theta binds variables to ground terms only
        for pos, arg in enumerate(goal.args):
            arg = _substitute(arg, theta)
            if is_ground(arg):
                facts = facts_index.get((hk, pos, arg), ())
                break
    for fact in facts:
        bound: list[int] = []
        if _match(goal, fact, theta, bound):
            hit = used or (i < last and id(fact) in delta.ids)
            yield from _match_body(goals, i + 1, model, index, theta, delta, last, hit)
        for vid in bound:
            del theta[vid]


def _herbrand_bound(clauses: list[Clause]) -> tuple[int, bool]:
    """Ground atoms over the program's constants (bound + 1 passes suffice
    without function symbols), and whether a function symbol occurs."""
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
        bound += k ** min(arity, 8)
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
        body_preds = [[pred_key(g) for g in c.body] for c in clauses]
        model: Model = {}
        index: Index = {}
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
            for c, preds in zip(clauses, body_preds):
                last = -1
                if delta is not None:
                    for i, bk in enumerate(preds):
                        if bk in delta.model:
                            last = i
                    if last < 0:
                        continue  # no derivation reads a delta fact
                hk = pred_key(c.head)
                for theta in _match_body(c.body, 0, model, index, {}, delta, last):
                    fact = _substitute(c.head, theta)
                    assert is_ground(fact)
                    if (hk, fact) not in seen:
                        seen.add((hk, fact))
                        new_facts.append((hk, fact))
            for hk, fact in new_facts:
                model.setdefault(hk, []).append(fact)
                _index_fact(index, hk, fact)
            delta = _Delta(new_facts)
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
        index = _index(model, {pred_key(g) for g in goals})
        return {
            tuple([theta[v] for v in ids])
            for theta in _match_body(tuple(goals), 0, model, index, {})
        }
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
