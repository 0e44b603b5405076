"""Brute-force reference evaluator: naive bottom-up least fixpoint.

Ground truth for answer sets on desk-scale instances. Deliberately naive
(every pass re-derives everything from the model so far) to stay as
independent as possible from the engine: the only shared code is the
term/parser layer.

A body goal reads facts through an index by (predicate, argument
position, ground argument) whose buckets are ordered sublists of the
model's lists: a plain dict built here, sharing no code with the engine.
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
    pred_key,
    render_goals,
    subsumes,
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
        return Struct(t.functor, [_substitute(a, theta) for a in t.args])
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
    return (
        type(fact) is Struct
        and fact.functor == pattern.functor
        and len(fact.args) == len(pattern.args)
        and all(
            _match(p, f, theta, bound) for p, f in zip(pattern.args, fact.args)
        )
    )


def _index_fact(index: Index, hk: PredKey, fact: Term) -> None:
    if type(fact) is Struct:
        for pos, arg in enumerate(fact.args):
            index.setdefault((hk, pos, arg), []).append(fact)


def _index(model: Model) -> Index:
    index: Index = {}
    for hk, facts in model.items():
        for fact in facts:
            _index_fact(index, hk, fact)
    return index


def _match_body(
    goals: tuple[Term, ...], i: int, model: Model, index: Index, theta: dict[int, Term]
):
    if i == len(goals):
        yield theta
        return
    goal = goals[i]
    hk = pred_key(goal)
    facts = model.get(hk, ())
    if type(goal) is Struct:  # theta binds variables to ground terms only
        for pos, arg in enumerate(goal.args):
            arg = _substitute(arg, theta)
            if is_ground(arg):
                facts = index.get((hk, pos, arg), ())
                break
    for fact in facts:
        bound: list[int] = []
        if _match(goal, fact, theta, bound):
            yield from _match_body(goals, i + 1, model, index, theta)
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
    """Least model of all predicates by naive iteration to fixpoint."""
    clauses = [i for i in items if isinstance(i, Clause)]
    _check_range_restricted(clauses)
    model: Model = {}
    index: Index = {}
    seen: set[tuple[PredKey, Term]] = set()
    bound, functions = _herbrand_bound(clauses)
    iterations = 0
    changed = True
    while changed:
        iterations += 1
        if iterations > bound + 1:
            if functions:
                raise OracleInapplicable(
                    f"function symbols: the naive fixpoint ran past {bound + 1}"
                    " passes, the bound over the program's constants"
                )
            raise AssertionError("naive fixpoint exceeded the Herbrand bound")
        changed = False
        new_facts: list[tuple[PredKey, Term]] = []
        for c in clauses:
            hk = pred_key(c.head)
            for theta in _match_body(c.body, 0, model, index, {}):
                fact = _substitute(c.head, theta)
                assert is_ground(fact)
                if (hk, fact) not in seen:
                    seen.add((hk, fact))
                    new_facts.append((hk, fact))
        for hk, fact in new_facts:
            model.setdefault(hk, []).append(fact)
            _index_fact(index, hk, fact)
            changed = True
    return model


def oracle_solve(
    items_or_text: Union[str, Iterable[Item]],
    query: Union[str, list[Term]],
    model: Optional[Model] = None,
) -> set[str]:
    """Ground solutions of the query against the least model, rendered.

    Pass the program's model, if already built by oracle_model, to skip
    building it again; the query reads the model as passed.
    """
    if model is None:
        items = (
            parse_program(items_or_text)
            if isinstance(items_or_text, str)
            else list(items_or_text)
        )
        model = oracle_model(items)
    goals = parse_query(query)[0] if isinstance(query, str) else list(query)
    out = set()
    for theta in _match_body(tuple(goals), 0, model, _index(model), {}):
        out.add(render_goals([_substitute(g, theta) for g in goals]))
    return out


def answers_for_key(model: Model, key: Term) -> frozenset[Term]:
    """Model facts that are instances of a canonical subgoal key."""
    facts = model.get(pred_key(key), ())
    return frozenset(f for f in facts if subsumes(key, f))
