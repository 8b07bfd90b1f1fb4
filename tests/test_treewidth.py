import random
import sys

import pytest

from compactfd import Graph, TreeDecomposition, greedy_decompose, nicefy, parse_td, validate_td
from compactfd.treewidth import NodeKind, format_td, nice_violations, td_violation

from conftest import random_graph


def test_parse_single_bag():
    td = parse_td("s td 1 2 2\nb 1 1 2\n")
    assert td.bags == (frozenset({0, 1}),)
    assert td.width == 1


def test_parse_two_bags():
    td = parse_td("s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n")
    assert td.width == 1
    g = Graph(range(3), [(0, 1), (1, 2)])
    assert validate_td(g, td)


def test_parse_rejects_cycles_and_malformed():
    with pytest.raises(ValueError):
        parse_td("s td 3 1 3\nb 1 1\nb 2 2\nb 3 3\n1 2\n2 3\n3 1\n")
    with pytest.raises(ValueError):
        parse_td("s td x 1 1\n")
    with pytest.raises(ValueError):
        parse_td("s td 1 1 1\nb 2 1\n")
    with pytest.raises(ValueError):
        parse_td("b 1 1\n")
    with pytest.raises(ValueError, match="malformed bag line"):
        parse_td("s td 1 1 2\nb\n")
    with pytest.raises(ValueError, match="listed twice"):
        parse_td("s td 1 3 3\nb 1 1 2 3 3\n")
    with pytest.raises(ValueError, match="more than 1 vertices"):
        parse_td("s td 1 1 3\nb 1 1 2 3\n")
    for header in ("s td -1 0 3", "s td 1 -1 3", "s td 1 1 -3"):
        with pytest.raises(ValueError, match="negative header field"):
            parse_td(header + "\nb 1\n")
    # decompose's output parses back, the empty graph's one empty bag too
    empty = TreeDecomposition((frozenset(),), ())
    assert format_td(empty, 0) == "s td 1 0 0\nb 1\n"
    assert parse_td(format_td(empty, 0)) == empty


def test_format_round_trip():
    g = Graph(range(4), [(0, 1), (1, 2), (2, 3)])
    td = greedy_decompose(g)
    back = parse_td(format_td(td, 4))
    assert back.bags == td.bags and set(back.edges) == set(td.edges)


def test_validate_td_diagnostics():
    g = Graph(range(3), [(0, 1), (1, 2)])
    full = TreeDecomposition((frozenset({0, 1, 2}),), ())
    assert validate_td(g, full)
    missing_edge = TreeDecomposition((frozenset({0, 1}), frozenset({2})), ((0, 1),))
    assert "edge" in td_violation(g, missing_edge)
    disconnected = TreeDecomposition(
        (frozenset({0, 1}), frozenset({1, 2}), frozenset({0})), ((0, 1), (1, 2))
    )
    assert "not connected" in td_violation(g, disconnected)
    # a tree has at least one node, even for the empty graph
    no_bags = parse_td("s td 0 0 0\n")
    assert no_bags == TreeDecomposition((), ())
    assert "at least one bag" in td_violation(Graph([]), no_bags)
    assert not validate_td(Graph([]), no_bags)
    with pytest.raises(ValueError):
        nicefy(no_bags, Graph([]))


def test_greedy_widths():
    tree = Graph(range(7), [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
    assert greedy_decompose(tree).width == 1
    clique = Graph(range(5), [(u, v) for u in range(5) for v in range(u + 1, 5)])
    assert greedy_decompose(clique).width == 4
    c5 = Graph(range(5), [(i, (i + 1) % 5) for i in range(5)])
    assert greedy_decompose(c5).width == 2


def test_greedy_always_validates():
    rng = random.Random(61)
    for _ in range(40):
        g = random_graph(rng, rng.randint(0, 9), rng.choice([0.0, 0.2, 0.5, 0.9]))
        td = greedy_decompose(g)
        assert validate_td(g, td)


def test_nicefy_k2_chain():
    g = Graph(range(2), [(0, 1)])
    td = TreeDecomposition((frozenset({0, 1}),), ())
    nice = nicefy(td, g, anchors=())
    assert not nice_violations(nice, g)
    kinds = [nd.kind for nd in nice.nodes]
    assert kinds.count(NodeKind.INTRODUCE_EDGE) == 1
    assert kinds.count(NodeKind.INTRODUCE_VERTEX) == 2
    assert kinds.count(NodeKind.FORGET) == 2
    assert nice.nodes[nice.root].bag == frozenset()


def test_nicefy_anchor_width_growth():
    rng = random.Random(62)
    for _ in range(25):
        m = rng.randint(1, 8)
        g = random_graph(rng, m, 0.4)
        td = greedy_decompose(g)
        anchors = set(rng.sample(range(m), rng.randint(0, min(2, m))))
        nice = nicefy(td, g, anchors=anchors)
        assert not nice_violations(nice, g), nice_violations(nice, g)
        assert nice.width <= td.width + len(anchors)
        assert nice.nodes[nice.root].bag == frozenset(anchors)


def test_nicefy_every_edge_once():
    rng = random.Random(63)
    for _ in range(25):
        g = random_graph(rng, rng.randint(0, 8), rng.choice([0.3, 0.7]))
        nice = nicefy(greedy_decompose(g), g)
        seen = [nd.edge for nd in nice.nodes if nd.kind is NodeKind.INTRODUCE_EDGE]
        assert sorted(seen) == sorted(g.edges)
        assert len(set(seen)) == len(seen)


def test_nicefy_rejects_invalid_input():
    g = Graph(range(3), [(0, 1), (1, 2)])
    bad = TreeDecomposition((frozenset({0, 1}),), ())
    with pytest.raises(ValueError):
        nicefy(bad, g)


def test_nicefy_branching_decomposition():
    # a star-shaped decomposition forces join nodes
    g = Graph(range(4), [(0, 1), (0, 2), (0, 3)])
    td = TreeDecomposition(
        (frozenset({0}), frozenset({0, 1}), frozenset({0, 2}), frozenset({0, 3})),
        ((0, 1), (0, 2), (0, 3)),
    )
    nice = nicefy(td, g)
    assert not nice_violations(nice, g)
    kinds = [nd.kind for nd in nice.nodes]
    assert kinds.count(NodeKind.JOIN) == 2


def test_nicefy_deep_chain_leaves_recursion_limit_alone(monkeypatch):
    limit = sys.getrecursionlimit()
    changes = []
    monkeypatch.setattr(sys, "setrecursionlimit", changes.append)
    k = limit + 100  # a chain of bags deeper than the recursion limit
    graph = Graph(range(k + 1), [(i, i + 1) for i in range(k)])
    td = TreeDecomposition(
        tuple(frozenset({i, i + 1}) for i in range(k)),
        tuple((i, i + 1) for i in range(k - 1)),
    )
    nice = nicefy(td, graph, anchors=[0])
    assert sys.getrecursionlimit() == limit and not changes
    assert nice.nodes[nice.root].bag == frozenset({0})
    kinds = [nd.kind for nd in nice.nodes]
    assert kinds.count(NodeKind.LEAF) == 1
    assert kinds.count(NodeKind.FORGET) == k
    assert kinds.count(NodeKind.INTRODUCE_EDGE) == k
