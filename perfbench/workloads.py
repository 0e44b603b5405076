"""Seeded inputs and engine-independent reference answers for each workload.

Every workload is a fixed list of instances drawn from the workload
seed; a run replays that list, so two runs of one seed see the same
programs. Sizes are stratified over the stated range (the seed only
jitters them and draws the content), which keeps the spread of per-run
medians across seeds small.

References never come from the engine: closed forms for regex-warren and
facts-load, small set-based fixpoints written here for sg-random and the
bench-matrix queries. bench-matrix checks additionally rely on
run_instance's own divergence list (six configs plus the oracle).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

SG_RULES = """\
:- table sg/2.
sg(X,X) :- node(X).
sg(X,Y) :- edge(X,XX), sg(XX,YY), edge(Y,YY).
"""

MATCHER_RULES = """\
:- table p/2.
p(X,Y) :- p(X,Z), c(Z,a,Y).
p(X,Y) :- p(X,Z), c(Z,b,Y).
p(X,X).
"""

TCL_RULES = """\
:- table tcl/2.
tcl(X,Y) :- edge(X,Y).
tcl(X,Y) :- tcl(X,Z), edge(Z,Y).
"""


@dataclass
class Instance:
    name: str
    size: int  # the workload's size parameter (nodes, string length, facts)
    text: str
    query: str
    expected: frozenset  # rendered solutions of the query
    # table entry that must hold exactly these rendered answers, if any
    entry: Optional[tuple[str, frozenset]] = None
    check: bool = False  # also run bench.run_instance on it


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sizes: str
    count: int  # instances per list; the tail is the 11th largest of them
    build: object  # (rng, index, count) -> Instance


def _stratified(rng: random.Random, i: int, count: int, lo: int, hi: int) -> int:
    """Size for slot i: uniform inside the i-th of count equal strata."""
    return lo + int((i + rng.random()) * (hi - lo) / count)


def _random_edges(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
    return rng.sample(pairs, m)


def _strongly_connected_edges(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """A random Hamiltonian cycle plus m - n random chords, in random order."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = list(zip(order, order[1:] + order[:1]))
    present = set(edges)
    while len(edges) < m:
        edge = tuple(rng.sample(order, 2))
        if edge not in present:
            present.add(edge)
            edges.append(edge)
    rng.shuffle(edges)
    return edges


def _edge_text(edges) -> str:
    return "".join(f"edge({a},{b}).\n" for a, b in edges)


def sg_reference(n: int, edges) -> frozenset:
    """Least model of sg/2 by semi-naive set iteration."""
    up: dict[int, list[int]] = {}  # target -> sources of edges into it
    down: dict[int, list[int]] = {}  # source -> targets
    for a, b in edges:
        down.setdefault(a, []).append(b)
        up.setdefault(b, []).append(a)
    sg = {(x, x) for x in range(1, n + 1)}
    delta = set(sg)
    while delta:
        new = set()
        for xx, yy in delta:
            for x in up.get(xx, ()):
                for y in up.get(yy, ()):
                    if (x, y) not in sg:
                        new.add((x, y))
        sg |= new
        delta = new
    return frozenset(f"sg({x},{y})" for x, y in sg)


def closure_reference(edges) -> frozenset:
    """All tcl(X,Y) with a non-empty edge path from X to Y."""
    down: dict[int, set] = {}
    for a, b in edges:
        down.setdefault(a, set()).add(b)
    out = set()
    for x in down:
        seen: set = set()
        stack = list(down[x])
        while stack:
            y = stack.pop()
            if y not in seen:
                seen.add(y)
                stack.extend(down.get(y, ()))
        out.update(f"tcl({x},{y})" for y in seen)
    return frozenset(out)


def build_sg(rng: random.Random, i: int, count: int) -> Instance:
    n = 18 + i % 7
    edges = _random_edges(rng, n, 2 * n)
    nodes = "".join(f"node({x}).\n" for x in range(1, n + 1))
    return Instance(
        name=f"sg-random-{i}-n{n}",
        size=n,
        text=SG_RULES + _edge_text(edges) + nodes,
        query="sg(X,Y)",
        expected=sg_reference(n, edges),
    )


def build_regex(rng: random.Random, i: int, count: int) -> Instance:
    n = _stratified(rng, i, count, 300, 600)
    # any a/b string matches (a|b)*; the letters do not change the work
    letters = "".join(rng.choice("ab") for _ in range(n))
    facts = "".join(f"c({k},{ch},{k + 1}).\n" for k, ch in enumerate(letters))
    return Instance(
        name=f"regex-warren-{i}-n{n}",
        size=n,
        text=MATCHER_RULES + facts,
        query=f"p(0,{n})",
        expected=frozenset({f"p(0,{n})"}),
        entry=("p(0,_G0)", frozenset(f"p(0,{k})" for k in range(n + 1))),
    )


def build_facts(rng: random.Random, i: int, count: int) -> Instance:
    target = _stratified(rng, i, count, 900, 1100)
    chains: list[list[int]] = []
    labels = list(range(1, 2 * target + 1))
    rng.shuffle(labels)
    used = 0
    edges: list[tuple[int, int]] = []
    while len(edges) < target:
        length = rng.randint(5, 15)  # edges in this chain
        chain = labels[used : used + length + 1]
        used += length + 1
        chains.append(chain)
        edges.extend(zip(chain, chain[1:]))
    chain = rng.choice(chains)
    pos = rng.randrange(len(chain) - 1)  # k has a successor
    k = chain[pos]
    return Instance(
        name=f"facts-load-{i}-e{len(edges)}",
        size=len(edges),
        text=TCL_RULES + _edge_text(edges),
        query=f"tcl({k},Y)",
        expected=frozenset(f"tcl({k},{y})" for y in chain[pos + 1 :]),
    )


def build_matrix(rng: random.Random, i: int, count: int) -> Instance:
    # Strongly connected, so every closure has all n*n facts: on unconstrained
    # random graphs the oracle's cost varied 5x between graphs of one size,
    # which moved per-run medians by 15% from seed to seed.
    n = 12 + i % 5
    edges = _strongly_connected_edges(rng, n, 2 * n)
    return Instance(
        name=f"bench-matrix-{i}-n{n}",
        size=n,
        text=TCL_RULES + _edge_text(edges),
        query="tcl(X,Y)",
        expected=closure_reference(edges),
        check=True,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sg-random",
            "same-generation on random graphs: edge(Y,YY) binds only its second "
            "argument, so clause scanning and failed unify dominate; table work is small",
            "sg(X,Y) over random graphs, n = 18..24 nodes (n = 18 + i mod 7), 2n edges",
            60,
            build_sg,
        ),
        Workload(
            "regex-warren",
            "the paper's tabled string matcher: promotion, the semi-naive gate and "
            "n/2+2 rounds, with clause lookups already indexed",
            "p(0,n) over a seeded a/b string, n stratified over 300..600",
            40,
            build_regex,
        ),
        Workload(
            "facts-load",
            "one point query per ~1,000-fact load: parse, analyze and the index build "
            "dominate, evaluation is tiny and no index is amortised",
            "tcl(k,Y) over edge/2 chains of 5..15 edges, 900..1100 edges per load",
            40,
            build_facts,
        ),
        Workload(
            "bench-matrix",
            "bench.run_instance (six configs plus the bottom-up oracle) is the only "
            "workload that times the harness and the oracle",
            "tcl(X,Y) over strongly connected random graphs, n = 12..16 nodes "
            "(n = 12 + i mod 5): a Hamiltonian cycle plus n chords",
            60,
            build_matrix,
        ),
    )
}


def instances(workload: str, seed: int) -> list[Instance]:
    """The workload's fixed instance list for this seed."""
    w = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    return [w.build(rng, i, w.count) for i in range(w.count)]
