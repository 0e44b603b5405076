"""Instance generators: shapes and determinism."""

import pytest

from lintab.generate import ab_string_facts, graph_facts, node_facts


def test_chain():
    assert graph_facts("chain", 3, seed=0, pred="e") == "e(1,2).\ne(2,3).\n"
    assert graph_facts("chain", 3, seed=0, pred="edge") == "edge(1,2).\nedge(2,3).\n"
    assert graph_facts("chain", 1, seed=0) == ""
    with pytest.raises(ValueError):
        graph_facts("chain", 0, seed=0)


def test_cycle():
    assert graph_facts("cycle", 3, seed=0, pred="e") == "e(1,2).\ne(2,3).\ne(3,1).\n"
    with pytest.raises(ValueError):
        graph_facts("cycle", 0, 0)


def test_random_graph_deterministic_and_distinct():
    a = graph_facts("random", 10, 9, 25, pred="e")
    assert a == graph_facts("random", 10, 9, 25, pred="e")
    assert a != graph_facts("random", 10, 10, 25, pred="e")
    lines = a.strip().splitlines()
    assert len(lines) == len(set(lines)) == 25
    assert graph_facts("random", 3, 0, 0) == ""
    with pytest.raises(ValueError):
        graph_facts("random", 3, 0, 100)


def test_graph_facts_dispatch():
    assert graph_facts("chain", 3, seed=0) == "edge(1,2).\nedge(2,3).\n"
    assert graph_facts("cycle", 3, seed=0, pred="e") == "e(1,2).\ne(2,3).\ne(3,1).\n"
    assert graph_facts("random", 4, 9, 3) == "edge(3,2).\nedge(4,1).\nedge(2,4).\n"
    with pytest.raises(ValueError, match="edge count"):
        graph_facts("random", 10, seed=9)
    with pytest.raises(ValueError, match="unknown graph kind"):
        graph_facts("star", 3, seed=0)


def test_node_facts():
    assert node_facts(2) == "node(1).\nnode(2).\n"
    assert node_facts(1, pred="v") == "v(1).\n"
    # no nodes, no lines: an empty text, as graph_facts gives for no edges
    assert node_facts(0) == ""


def test_ab_string_alternates():
    assert ab_string_facts(4) == "c(0,a,1).\nc(1,b,2).\nc(2,a,3).\nc(3,b,4).\n"
    assert ab_string_facts(1, pred="s") == "s(0,a,1).\n"
    assert ab_string_facts(0) == ""
    with pytest.raises(ValueError):
        ab_string_facts(-1)
