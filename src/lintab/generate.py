"""Deterministic benchmark instance generators (fact files as text)."""

from __future__ import annotations

import random
from typing import Optional


def graph_facts(
    graph: str, n: int, seed: int, m: Optional[int] = None, pred: str = "edge"
) -> str:
    """Edge facts over nodes 1..n, one line each: a chain 1->2->...->n, a
    cycle (the chain plus n->1) or a random graph of m distinct directed
    edges, deterministic per seed."""
    if graph in ("chain", "cycle"):
        if n < 1:
            raise ValueError(f"{graph} needs at least one node")
        edges = [(i, i + 1) for i in range(1, n)]
        if graph == "cycle":
            edges.append((n, 1))
    elif graph == "random":
        if m is None:
            raise ValueError("random graphs need an edge count")
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        if m > len(pairs):
            raise ValueError(f"cannot pick {m} distinct edges over {n} nodes")
        edges = random.Random(seed).sample(pairs, m)
    else:
        raise ValueError(f"unknown graph kind {graph!r}")
    return "".join(f"{pred}({i},{j}).\n" for i, j in edges)


def node_facts(n: int, pred: str = "node") -> str:
    return "".join(f"{pred}({i}).\n" for i in range(1, n + 1))


def ab_string_facts(n: int, pred: str = "c") -> str:
    """The alternating a/b string of length n as position-labelled facts."""
    if n < 0:
        raise ValueError("string length must be non-negative")
    return "".join(f"{pred}({i},{'ab'[i % 2]},{i + 1}).\n" for i in range(n))
