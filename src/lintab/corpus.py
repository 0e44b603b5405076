"""Small named programs used by the test suites and the bench harness.

Each constant is a complete program (or a rule block to combine with
generated facts). Names describe the behavior the program exercises.
"""

from __future__ import annotations

import random
from typing import Optional

from . import generate

# Left-recursive transitive closure over a two-edge chain. Query p(a,Y)
# reaches its fixpoint in three rounds: one per produced answer plus the
# confirming round.
LEFT_RECURSIVE_TC = """\
:- table p/2.
p(X,Y) :- p(X,Z), e(Z,Y).
p(X,Y) :- e(X,Y).
e(a,b).
e(b,c).
"""
LEFT_RECURSIVE_TC_QUERY = "p(a,Y0)"

# Two tabled facts joined with themselves: with FAKE_LOOP_INTO_INNER_TOP,
# one of the two bench-suite programs where an eager top-most subgoal
# replays its table. The second call p(Y) is made by the continuation of
# an answer that the pioneer p(X) is handing to the query, so it is a
# fake loop back into p's cluster, and p(X)'s next round starts by
# replaying both answers: the stream re-observes solutions (7 in all).
# Under lazy it emits the four distinct pairs once each.
TWO_FACT_SELF_JOIN = """\
:- table p/1.
p(1).
p(2).
"""
TWO_FACT_SELF_JOIN_QUERY = "p(X),p(Y)"

# Mutually recursive p/q where a brand-new q subgoal shows up only in a
# late round. Skipping old answers for that new subgoal would lose the
# third p answer; the gate must stay closed for fresh callers.
FRESH_SUBGOAL_GUARD = """\
:- table p/2.
p(X,Y) :- p(X,Z), q(Z,Y).
p(b,c) :- p(X,Y).
p(a,b).
:- table q/2.
q(c,d) :- p(X,Y), t(X,Y).
t(a,b).
"""
FRESH_SUBGOAL_GUARD_QUERY = "p(X,Y)"

# Same program with the fact first: sequential (same-round) consumption
# reaches the fixpoint in two rounds instead of four.
FRESH_SUBGOAL_GUARD_REORDERED = """\
:- table p/2.
p(a,b).
p(b,c) :- p(X,Y).
p(X,Y) :- p(X,Z), q(Z,Y).
:- table q/2.
q(c,d) :- p(X,Y), t(X,Y).
t(a,b).
"""

# A follower that exhausts the current region mid-round; the exhausted
# answers get promoted early and are not re-consumed next round.
SELF_FEEDING_PAIR = """\
:- table p/2.
p(a,b).
p(b,c) :- p(X,Y).
"""
SELF_FEEDING_PAIR_QUERY = "p(X,Y)"

# Closure whose first call goes through a non-tabled helper: a new answer
# consumed inside via/2 must keep the gate closed at the last goal p/2.
HELPER_ROUTED_TC = """\
:- table p/2.
p(X,Y) :- e(X,Y).
p(X,Y) :- via(X,Z), p(Z,Y).
via(X,Z) :- p(X,Z).
e(1,2). e(2,3). e(3,4). e(4,5). e(5,1).
"""
HELPER_ROUTED_TC_QUERIES = ("p(1,Y)", "p(X,Y)")

# An eager q/2 whose call q(5,1), first made in a later round of the
# running q(_,_) cluster, loops on itself and then re-evaluates members of
# that older cluster. Its completion must leave them to q(_,_), which is
# still running: completing them too lets the rest of the round insert into
# a complete table.
LATE_LOOP_UNDER_RUNNING_CLUSTER = """\
:- table q/2 eager.
p(X,Y) :- q(Y,X).
q(X,Y) :- e(X,Y).
q(X,Y) :- p(X,Z), q(Z,Y).
e(1,4).
e(5,5).
"""
LATE_LOOP_UNDER_RUNNING_CLUSTER_QUERY = "q(X,X)"

# An eager top-most h(X) whose body calls t(X), an eager top-most of its own.
# In round 1 the query's continuation calls t(Y) while both pioneers are
# handing it an answer: a fake loop into t's cluster, nested in h's. h(X)
# must replay its answers in round 2 too, or h(1),t(2) is lost: t(2) is
# stored only after the continuation of h(1) consumed t's table. By round 2
# t is complete, so no fake loop happens then and round 3 replays nothing.
FAKE_LOOP_INTO_INNER_TOP = """\
:- table h/1 eager.
:- table t/1 eager.
h(X) :- h(Y), u(Y,X).
h(X) :- t(X).
t(1).
t(X) :- t(Y), s(Y,X).
s(1,2).
u(2,3).
"""
FAKE_LOOP_INTO_INNER_TOP_QUERY = "h(X),t(Y)"

# Tabled string matcher for (a|b)*: linear with new-answers-only
# consumption, quadratic without.
STRING_MATCHER = """\
:- table p/2.
p(X,Y) :- p(X,Z), c(Z,a,Y).
p(X,Y) :- p(X,Z), c(Z,b,Y).
p(X,X).
"""

# The same matcher routed through a non-tabled helper: the last depending
# subgoal is no longer tabled, so the gate never opens and consumption
# stays quadratic.
STRING_MATCHER_UNTABLED_STEP = """\
:- table p/2.
p(X,Y) :- q(X,Z), c(Z,a,Y).
p(X,Y) :- q(X,Z), c(Z,b,Y).
p(X,X).
q(X,Y) :- p(X,Y).
"""


def string_matcher_program(n: int, tabled_step: bool = True) -> tuple[str, str]:
    """Matcher rules plus the alternating string of length n, and its query."""
    rules = STRING_MATCHER if tabled_step else STRING_MATCHER_UNTABLED_STEP
    return rules + generate.ab_string_facts(n), f"p(0,{n})"


# Datalog rule blocks (combined with edge/node facts by the harness).
TCL_RULES = """\
:- table tcl/2.
tcl(X,Y) :- edge(X,Y).
tcl(X,Y) :- tcl(X,Z), edge(Z,Y).
"""

TCR_RULES = """\
:- table tcr/2.
tcr(X,Y) :- edge(X,Y).
tcr(X,Y) :- edge(X,Z), tcr(Z,Y).
"""

TCN_RULES = """\
:- table tcn/2.
tcn(X,Y) :- edge(X,Y).
tcn(X,Y) :- tcn(X,Z), tcn(Z,Y).
"""

# The same-generation base case is restricted to declared nodes so the
# program stays range-restricted (the bottom-up oracle needs that).
SG_RULES = """\
:- table sg/2.
sg(X,X) :- node(X).
sg(X,Y) :- edge(X,XX), sg(XX,YY), edge(Y,YY).
"""

DATALOG_RULES = {
    "tcl": (TCL_RULES, "tcl(X,Y)"),
    "tcr": (TCR_RULES, "tcr(X,Y)"),
    "tcn": (TCN_RULES, "tcn(X,Y)"),
    "sg": (SG_RULES, "sg(X,Y)"),
}


def random_instance(
    seed: int,
    kind: str,
    graph: str,
    n: int,
    m: Optional[int] = None,
) -> tuple[str, str]:
    """Deterministic (program text, query) for a Datalog benchmark shape.

    kind in {tcl, tcr, tcn, sg}; graph in {chain, cycle, random} (random
    needs the edge count m).
    """
    rules, query = DATALOG_RULES[kind]
    text = rules + generate.graph_facts(graph, n, seed, m)
    if kind == "sg":
        text += generate.node_facts(n)
    return text, query


def mutual_recursion_program(seed: int) -> tuple[str, str]:
    """A random range-restricted program and query, deterministic per seed.

    Two to four tabled /2 predicates, each declared `lazy`, `eager` or
    untagged. Each calls the next, so they are mutually recursive, or
    sometimes the non-tabled helper h/2 instead, which calls one of them.
    Bodies have one or two goals; e/2 facts range over 2-6 nodes.
    """
    rng = random.Random(seed)
    preds = ["p", "q", "r", "s"][: rng.randint(2, 4)]
    helper = rng.random() < 0.5
    callees = preds + ["e"] + (["h"] if helper else [])

    def goal(name, a, b):
        return f"{name}({a},{b})" if rng.random() < 0.7 else f"{name}({b},{a})"

    def body(first, second):
        if second is None:
            return goal(first, "X", "Y")
        return f"{goal(first, 'X', 'Z')}, {goal(second, 'Z', 'Y')}"

    lines = [f":- table {p}/2{rng.choice(('', ' lazy', ' eager'))}." for p in preds]
    for i, p in enumerate(preds):
        step = preds[(i + 1) % len(preds)]
        if helper and rng.random() < 0.3:
            step = "h"
        pair = [step, rng.choice(callees + [None])]  # None: a one-goal rule
        rng.shuffle(pair)
        rules = [body(*pair) if pair[0] else body(pair[1], None)]
        if rng.random() < 0.8:
            rules.append(body("e", None))
        for _ in range(rng.randint(0, 1)):
            rules.append(body(rng.choice(callees), rng.choice(callees + [None])))
        rng.shuffle(rules)
        lines += [f"{p}(X,Y) :- {b}." for b in rules]
    if helper:
        lines.append(f"h(X,Y) :- {body(rng.choice(preds), rng.choice(['e', None]))}.")
    n = rng.randint(2, 6)
    edges = {(rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(1, n))}
    lines += [f"e({a},{b})." for a, b in sorted(edges)]

    first, second = rng.choice(preds), rng.choice(preds)
    c = rng.randint(1, n)
    query = rng.choice(
        [
            f"{first}(X,Y)",
            f"{first}({c},Y)",
            f"{first}(X,{c})",
            f"{first}(X,X)",
            f"{first}(X,Y),{second}(Y,Z)",
        ]
    )
    return "\n".join(lines) + "\n", query
