import math
import random

import numpy as np
import pytest

from placenet import Edge, Node, ScenarioError, build_network, shortest_paths
from conftest import dijkstra_distances


def random_graph(rng, n, n_edges):
    nodes = [Node(i, rng.uniform(0, 10), rng.uniform(0, 10)) for i in range(n)]
    triples = set()
    while len(triples) < n_edges:
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            triples.add((i, j))
    edges = [(i, j, float(rng.randint(1, 9))) for i, j in triples]
    net = build_network(nodes, [Edge(i, j, {"c": w}) for i, j, w in edges])
    return net, edges


class TestBuildNetwork:
    def test_grid_cost_unit_horizontal_edge(self):
        nodes = [Node(0, 0, 0), Node(1, 1, 0)]
        net = build_network(nodes, [Edge(0, 1, {})], grid_costs={"a2": (2, 1)})
        assert net.edges[0].cost["a2"] == 2

    def test_grid_cost_zero_displacement(self):
        nodes = [Node(0, 3, 4), Node(1, 3, 4)]
        net = build_network(nodes, [Edge(0, 1, {})], grid_costs={"a1": (1, 2), "b1": (1, 1)})
        assert net.edges[0].cost == {"a1": 0, "b1": 0}

    def test_grid_cost_general_displacement(self):
        # dx=2, dy=1 at horizontal cost 2, vertical cost 1
        nodes = [Node(0, 0, 0), Node(1, 2, 1)]
        net = build_network(nodes, [Edge(0, 1, {})], grid_costs={"b3": (2, 1)})
        assert net.edges[0].cost["b3"] == 5

    def test_rejects_unknown_node(self):
        with pytest.raises(ScenarioError, match="unknown node"):
            build_network([Node(0, 0, 0)], [Edge(0, 3, {"c": 1})])

    def test_rejects_negative_cost(self):
        nodes = [Node(0, 0, 0), Node(1, 1, 0)]
        with pytest.raises(ScenarioError, match="negative cost"):
            build_network(nodes, [Edge(0, 1, {"c": -1})])

    def test_rejects_self_loop(self):
        with pytest.raises(ScenarioError, match="self-loop"):
            build_network([Node(0, 0, 0)], [Edge(0, 0, {"c": 1})])

    def test_rejects_sparse_ids(self):
        with pytest.raises(ScenarioError, match="dense"):
            build_network([Node(0, 0, 0), Node(2, 1, 0)], [])


def all_rows(net):
    """Every source's row: the full matrix ``placenet paths`` prints."""
    return shortest_paths(net, "c", range(len(net)))


class TestShortestPaths:
    def test_diagonal_is_zero(self):
        net, _ = random_graph(random.Random(7), 6, 10)
        dist = all_rows(net)
        assert np.all(np.diag(dist) == 0)

    def test_unreachable_is_inf(self):
        nodes = [Node(0, 0, 0), Node(1, 1, 0), Node(2, 2, 0)]
        net = build_network(nodes, [Edge(0, 1, {"c": 3})])
        dist = all_rows(net)
        assert math.isinf(dist[1, 0]) and math.isinf(dist[0, 2])
        assert dist[0, 1] == 3

    def test_matches_dijkstra_oracle(self):
        rng = random.Random(20240817)
        for _ in range(120):
            n = rng.randint(4, 8)
            net, edges = random_graph(rng, n, rng.randint(n, 2 * n))
            dist = all_rows(net)
            for source in range(n):
                oracle = dijkstra_distances(n, edges, source)
                for target in range(n):
                    assert dist[source, target] == oracle[target]

    def test_matches_dijkstra_oracle_on_decimal_costs(self):
        # Sums run along each path from the source, as Dijkstra adds them, so
        # the two agree to the last bit whatever the relaxation order.
        rng = random.Random(20261019)
        for _ in range(120):
            n = rng.randint(3, 14)
            triples = {(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(n, 4 * n))}
            edges = [
                (i, j, round(rng.uniform(0, 10), rng.randint(1, 3))) for i, j in triples if i != j
            ]
            net = build_network(
                [Node(i, 0, 0) for i in range(n)], [Edge(i, j, {"c": w}) for i, j, w in edges]
            )
            dist = all_rows(net)
            for source in range(n):
                assert dist[source].tolist() == dijkstra_distances(n, edges, source)

    def test_triangle_inequality(self):
        rng = random.Random(99)
        for _ in range(25):
            n = rng.randint(4, 7)
            net, _ = random_graph(rng, n, rng.randint(n, 2 * n))
            dist = all_rows(net)
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        assert dist[i, k] <= dist[i, j] + dist[j, k] + 1e-9

    def test_never_above_direct_edge(self):
        rng = random.Random(41)
        for _ in range(25):
            net, edges = random_graph(rng, 6, 12)
            dist = all_rows(net)
            for tail, head, cost in edges:
                assert dist[tail, head] <= cost

    def test_rejects_negative_edge_cost(self):
        nodes = [Node(0, 0, 0), Node(1, 1, 0)]
        net = build_network(nodes, [Edge(0, 1, {"c": 1})])
        object.__setattr__(net.edges[0], "cost", {"c": -2.0})
        with pytest.raises(ScenarioError, match="finite and >= 0"):
            all_rows(net)


class TestSourceRows:
    """A few sources' rows against all rows and the Dijkstra oracle, exactly."""

    def test_rows_equal_all_rows_and_dijkstra(self):
        rng = random.Random(20261018)
        for _ in range(150):
            n = rng.randint(2, 12)
            net, edges = random_graph(rng, n, rng.randint(1, min(3 * n, n * (n - 1))))
            sources = [rng.randrange(n) for _ in range(rng.randint(1, n))]
            rows = shortest_paths(net, "c", sources)
            assert rows.shape == (len(sources), n)
            full = all_rows(net)
            for row, source in zip(rows, sources):
                assert row.tolist() == full[source].tolist()
                assert row.tolist() == dijkstra_distances(n, edges, source)

    def test_decimal_costs_equal_dijkstra(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(3, 10)
            net, edges = random_graph(rng, n, rng.randint(n, 2 * n))
            edges = [(i, j, w / 7 + 0.1) for i, j, w in edges]
            net = build_network(net.nodes, [Edge(i, j, {"c": w}) for i, j, w in edges])
            rows = shortest_paths(net, "c", range(n))
            for source in range(n):
                assert rows[source].tolist() == dijkstra_distances(n, edges, source)

    def test_unreachable_is_inf(self):
        nodes = [Node(i, i, 0) for i in range(4)]
        net = build_network(nodes, [Edge(0, 1, {"c": 3}), Edge(2, 3, {"c": 1})])
        assert shortest_paths(net, "c", [0, 3]).tolist() == [
            [0, 3, math.inf, math.inf],
            [math.inf, math.inf, math.inf, 0],
        ]

    def test_parallel_edges_take_the_cheapest(self):
        nodes = [Node(i, i, 0) for i in range(3)]
        edges = [Edge(0, 1, {"c": 5}), Edge(0, 1, {"c": 2}), Edge(1, 2, {"c": 1}),
                 Edge(0, 1, {"c": 4}), Edge(0, 2, {"c": 9})]
        net = build_network(nodes, edges)
        assert shortest_paths(net, "c", [0]).tolist() == [[0, 2, 3]]

    def test_zero_cost_edges(self):
        nodes = [Node(i, i, 0) for i in range(4)]
        edges = [Edge(0, 1, {"c": 0}), Edge(1, 2, {"c": 0}), Edge(2, 0, {"c": 0}),
                 Edge(2, 3, {"c": 7})]
        net = build_network(nodes, edges)
        assert shortest_paths(net, "c", [1, 3]).tolist() == [
            [0, 0, 0, 7],
            [math.inf, math.inf, math.inf, 0],
        ]

    def test_repeated_sources_give_equal_rows(self):
        net, edges = random_graph(random.Random(3), 7, 15)
        rows = shortest_paths(net, "c", [4, 2, 4, 4])
        assert rows[0].tolist() == rows[2].tolist() == rows[3].tolist()
        assert rows[1].tolist() == dijkstra_distances(7, edges, 2)

    def test_commodity_without_edges(self):
        net, _ = random_graph(random.Random(4), 5, 8)
        rows = shortest_paths(net, "other", [1, 3])
        expected = np.full((2, 5), math.inf)
        expected[0, 1] = expected[1, 3] = 0
        assert rows.tolist() == expected.tolist()

    def test_no_sources(self):
        net, _ = random_graph(random.Random(5), 5, 8)
        assert shortest_paths(net, "c", []).shape == (0, 5)

    @pytest.mark.parametrize("bad", [-2.0, math.inf, math.nan])
    def test_rejects_bad_edge_cost(self, bad):
        nodes = [Node(0, 0, 0), Node(1, 1, 0), Node(2, 2, 0)]
        net = build_network(nodes, [Edge(0, 1, {"c": 1}), Edge(1, 2, {"c": 1})])
        object.__setattr__(net.edges[1], "cost", {"c": bad})
        with pytest.raises(ScenarioError, match=r"edge \(1, 2\) cost for c must be finite and >= 0"):
            shortest_paths(net, "c", [0])

