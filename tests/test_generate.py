"""Instance generators: shapes and determinism."""

import pytest

from lintab.generate import (
    ab_string_facts,
    chain_facts,
    cycle_facts,
    graph_facts,
    node_facts,
    random_graph_facts,
)


def test_chain():
    assert chain_facts(3) == "e(1,2).\ne(2,3).\n"
    assert chain_facts(3, pred="edge") == "edge(1,2).\nedge(2,3).\n"
    with pytest.raises(ValueError):
        chain_facts(0)


def test_cycle():
    assert cycle_facts(3) == "e(1,2).\ne(2,3).\ne(3,1).\n"


def test_random_graph_deterministic_and_distinct():
    a = random_graph_facts(10, 25, seed=9)
    assert a == random_graph_facts(10, 25, seed=9)
    assert a != random_graph_facts(10, 25, seed=10)
    lines = a.strip().splitlines()
    assert len(lines) == len(set(lines)) == 25
    with pytest.raises(ValueError):
        random_graph_facts(3, 100, seed=0)


def test_graph_facts_dispatch():
    assert graph_facts("chain", 3, seed=0) == chain_facts(3, pred="edge")
    assert graph_facts("cycle", 3, seed=0, pred="e") == cycle_facts(3)
    assert graph_facts("random", 10, 9, 25) == random_graph_facts(10, 25, 9, "edge")
    with pytest.raises(ValueError, match="edge count"):
        graph_facts("random", 10, seed=9)
    with pytest.raises(ValueError, match="unknown graph kind"):
        graph_facts("star", 3, seed=0)


def test_node_facts():
    assert node_facts(2) == "node(1).\nnode(2).\n"


def test_ab_string_alternates():
    assert ab_string_facts(4) == "c(0,a,1).\nc(1,b,2).\nc(2,a,3).\nc(3,b,4).\n"
    assert ab_string_facts(0) == ""
