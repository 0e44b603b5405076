"""Deterministic benchmark instance generators (fact files as text)."""

from __future__ import annotations

import random
from typing import Optional


def chain_facts(n: int, pred: str = "e") -> str:
    """Edges 1->2->...->n."""
    if n < 1:
        raise ValueError("chain needs at least one node")
    return "\n".join(f"{pred}({i},{i + 1})." for i in range(1, n)) + ("\n" if n > 1 else "")


def cycle_facts(n: int, pred: str = "e") -> str:
    """Edges 1->2->...->n->1."""
    if n < 1:
        raise ValueError("cycle needs at least one node")
    lines = [f"{pred}({i},{i + 1})." for i in range(1, n)]
    lines.append(f"{pred}({n},1).")
    return "\n".join(lines) + "\n"


def random_graph_facts(n: int, m: int, seed: int, pred: str = "e") -> str:
    """m distinct directed edges over nodes 1..n, deterministic per seed."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    if m > len(pairs):
        raise ValueError(f"cannot pick {m} distinct edges over {n} nodes")
    rng = random.Random(seed)
    chosen = rng.sample(pairs, m)
    return "\n".join(f"{pred}({i},{j})." for i, j in chosen) + "\n"


def graph_facts(
    graph: str, n: int, seed: int, m: Optional[int] = None, pred: str = "edge"
) -> str:
    """Edge facts of a chain, cycle or random graph over nodes 1..n.

    Random graphs need the edge count m and are deterministic per seed.
    """
    if graph == "chain":
        return chain_facts(n, pred)
    if graph == "cycle":
        return cycle_facts(n, pred)
    if graph == "random":
        if m is None:
            raise ValueError("random graphs need an edge count")
        return random_graph_facts(n, m, seed, pred)
    raise ValueError(f"unknown graph kind {graph!r}")


def node_facts(n: int, pred: str = "node") -> str:
    return "\n".join(f"{pred}({i})." for i in range(1, n + 1)) + "\n"


def ab_string_facts(n: int, pred: str = "c") -> str:
    """The alternating a/b string of length n as position-labelled facts."""
    if n < 0:
        raise ValueError("string length must be non-negative")
    lines = []
    for i in range(n):
        letter = "a" if i % 2 == 0 else "b"
        lines.append(f"{pred}({i},{letter},{i + 1}).")
    return "\n".join(lines) + ("\n" if lines else "")
