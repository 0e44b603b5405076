"""Small named programs used by the test suites and the bench harness.

Each constant is a complete program (or a rule block to combine with
generated facts). Names describe the behavior the program exercises.
"""

from __future__ import annotations

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

# Two tabled facts joined with themselves. Under the eager strategy the
# conjunctive query p(X),p(Y) re-observes solutions across rounds; under
# lazy it emits the four distinct pairs once each.
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


def datalog_program(kind: str, graph_facts: str, n_nodes: int) -> tuple[str, str]:
    """Rules for `kind` plus the given edge facts; returns (text, query)."""
    rules, query = DATALOG_RULES[kind]
    text = rules + graph_facts
    if kind == "sg":
        text += generate.node_facts(n_nodes)
    return text, query
