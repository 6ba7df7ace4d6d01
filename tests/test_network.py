import copy
import math
import random
import warnings

import numpy as np
import pytest

import placenet.scenario
from placenet import Scenario, ScenarioError, shortest_paths
from conftest import dijkstra_distances


def edge_arrays(triples):
    """The (tails, heads, costs) arrays of (tail, head, cost) triples, in order."""
    tails, heads, costs = zip(*triples) if triples else ((), (), ())
    return (
        np.array(tails, dtype=np.intp),
        np.array(heads, dtype=np.intp),
        np.array(costs, dtype=float),
    )


def random_graph(rng, n, n_edges):
    triples = set()
    while len(triples) < n_edges:
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            triples.add((i, j))
    edges = [(i, j, float(rng.randint(1, 9))) for i, j in triples]
    return edge_arrays(edges), edges


def grid_scenario(s8_dict, grid, x1=(0, 0), x2=(1, 0)):
    """example_s8 priced by ``grid`` alone, with x1 and x2 (edge 0's ends,
    nodes 0 and 1) moved to the given coordinates."""
    doc = copy.deepcopy(s8_dict)
    for edge in doc["edges"]:
        del edge["cost"]
    doc["grid_costs"] = {c: {"horizontal": h, "vertical": v} for c, (h, v) in grid.items()}
    for node, (x, y) in zip(doc["nodes"], (x1, x2)):
        node.update(x=x, y=y)
    return Scenario.from_dict(doc)


class TestBuildNetwork:
    """The loader builds each carried commodity's edge arrays once and checks
    them before any route cost is computed."""

    def test_grid_cost_unit_horizontal_edge(self, s8_dict):
        scenario = grid_scenario(s8_dict, {"a2": (2, 1)})
        assert scenario.edges["a2"][2][0] == 2

    def test_grid_cost_zero_displacement(self, s8_dict):
        scenario = grid_scenario(s8_dict, {"a1": (1, 2), "b1": (1, 1)}, (3, 4), (3, 4))
        assert scenario.edges["a1"][2][0] == scenario.edges["b1"][2][0] == 0

    def test_grid_cost_general_displacement(self, s8_dict):
        # dx=2, dy=1 at horizontal cost 2, vertical cost 1
        scenario = grid_scenario(s8_dict, {"b3": (2, 1)}, (0, 0), (2, 1))
        assert scenario.edges["b3"][2][0] == 5

    @pytest.mark.parametrize("horizontal", [1, 0], ids=["inf", "nan"])
    def test_grid_cost_overflow_is_refused_without_warnings(self, s8_dict, horizontal):
        # |dx| overflows to inf: 1 * inf is inf and 0 * inf is NaN.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScenarioError) as caught:
                grid_scenario(s8_dict, {"a1": (horizontal, 1)}, (1e308, 0), (-1e308, 0))
        assert str(caught.value) == "edges[0] (x1 -> x2) cost for a1 must be finite and >= 0"

    def test_grid_cost_overflow_names_the_first_edge_by_index_and_labels(self, s8_dict):
        doc = copy.deepcopy(s8_dict)
        for edge in doc["edges"]:
            del edge["cost"]
        doc["grid_costs"] = {"b2": {"horizontal": 2, "vertical": 1}}
        moved = next(node for node in doc["nodes"] if node["id"] == "x7")
        moved["x"] = 1e308
        i, edge = next((i, e) for i, e in enumerate(doc["edges"]) if "x7" in (e["from"], e["to"]))
        assert i > 0
        with pytest.raises(ScenarioError) as caught:
            Scenario.from_dict(doc)
        ends = f"{edge['from']} -> {edge['to']}"
        assert str(caught.value) == f"edges[{i}] ({ends}) cost for b2 must be finite and >= 0"

    def test_explicit_costs_in_edge_order(self, s8, s8_dict):
        assert sorted(s8.edges) == ["a1", "a2", "b1", "b2", "b3"]
        index = s8.node_index
        for commodity, (tails, heads, costs) in s8.edges.items():
            assert (tails.dtype, heads.dtype, costs.dtype) == (np.intp, np.intp, float)
            carried = [e for e in s8_dict["edges"] if commodity in e["cost"]]
            assert list(zip(tails.tolist(), heads.tolist(), costs.tolist())) == [
                (index[e["from"]], index[e["to"]], e["cost"][commodity]) for e in carried
            ]

    def test_empty_cost_map_loads_with_grid_costs(self, s8_dict):
        doc = copy.deepcopy(s8_dict)
        for edge in doc["edges"]:
            edge["cost"] = {}
        doc["grid_costs"] = {"a1": {"horizontal": 1, "vertical": 1}}
        assert list(Scenario.from_dict(doc).edges) == ["a1"]

    def test_grid_costs_without_edges_carry_nothing(self, s8_dict):
        doc = copy.deepcopy(s8_dict)
        doc["edges"] = []
        doc["grid_costs"] = {"a1": {"horizontal": 1, "vertical": 1}}
        assert Scenario.from_dict(doc).edges == {}

    def test_rejects_negative_cost(self, s8_dict):
        doc = copy.deepcopy(s8_dict)
        doc["edges"][0]["cost"]["a1"] = -1
        with pytest.raises(ScenarioError, match=r"edges\[0\] cost for a1 must be .* >= 0"):
            Scenario.from_dict(doc)

    def test_rejects_self_loop(self, s8_dict):
        doc = copy.deepcopy(s8_dict)
        doc["edges"][1]["to"] = "x1"
        with pytest.raises(ScenarioError, match=r"^edges\[1\]: self-loop at node 'x1'$"):
            Scenario.from_dict(doc)


def all_rows(n, edges):
    """Every source's row: the full matrix ``placenet paths`` prints."""
    return shortest_paths(n, edges, range(n))


class TestShortestPaths:
    def test_diagonal_is_zero(self):
        net, _ = random_graph(random.Random(7), 6, 10)
        dist = all_rows(6, net)
        assert np.all(np.diag(dist) == 0)

    def test_unreachable_is_inf(self):
        dist = all_rows(3, edge_arrays([(0, 1, 3)]))
        assert math.isinf(dist[1, 0]) and math.isinf(dist[0, 2])
        assert dist[0, 1] == 3

    def test_matches_dijkstra_oracle(self):
        rng = random.Random(20240817)
        for _ in range(120):
            n = rng.randint(4, 8)
            net, edges = random_graph(rng, n, rng.randint(n, 2 * n))
            dist = all_rows(n, net)
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
            dist = all_rows(n, edge_arrays(edges))
            for source in range(n):
                assert dist[source].tolist() == dijkstra_distances(n, edges, source)

    def test_triangle_inequality(self):
        rng = random.Random(99)
        for _ in range(25):
            n = rng.randint(4, 7)
            net, _ = random_graph(rng, n, rng.randint(n, 2 * n))
            dist = all_rows(n, net)
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        assert dist[i, k] <= dist[i, j] + dist[j, k] + 1e-9

    def test_never_above_direct_edge(self):
        rng = random.Random(41)
        for _ in range(25):
            net, edges = random_graph(rng, 6, 12)
            dist = all_rows(6, net)
            for tail, head, cost in edges:
                assert dist[tail, head] <= cost


class TestSourceRows:
    """A few sources' rows against all rows and the Dijkstra oracle, exactly."""

    def test_rows_equal_all_rows_and_dijkstra(self):
        rng = random.Random(20261018)
        for _ in range(150):
            n = rng.randint(2, 12)
            net, edges = random_graph(rng, n, rng.randint(1, min(3 * n, n * (n - 1))))
            sources = [rng.randrange(n) for _ in range(rng.randint(1, n))]
            rows = shortest_paths(n, net, sources)
            assert rows.shape == (len(sources), n)
            full = all_rows(n, net)
            for row, source in zip(rows, sources):
                assert row.tolist() == full[source].tolist()
                assert row.tolist() == dijkstra_distances(n, edges, source)

    def test_decimal_costs_equal_dijkstra(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(3, 10)
            _, edges = random_graph(rng, n, rng.randint(n, 2 * n))
            edges = [(i, j, w / 7 + 0.1) for i, j, w in edges]
            rows = shortest_paths(n, edge_arrays(edges), range(n))
            for source in range(n):
                assert rows[source].tolist() == dijkstra_distances(n, edges, source)

    def test_unreachable_is_inf(self):
        net = edge_arrays([(0, 1, 3), (2, 3, 1)])
        assert shortest_paths(4, net, [0, 3]).tolist() == [
            [0, 3, math.inf, math.inf],
            [math.inf, math.inf, math.inf, 0],
        ]

    def test_parallel_edges_take_the_cheapest(self):
        net = edge_arrays([(0, 1, 5), (0, 1, 2), (1, 2, 1), (0, 1, 4), (0, 2, 9)])
        assert shortest_paths(3, net, [0]).tolist() == [[0, 2, 3]]

    def test_zero_cost_edges(self):
        net = edge_arrays([(0, 1, 0), (1, 2, 0), (2, 0, 0), (2, 3, 7)])
        assert shortest_paths(4, net, [1, 3]).tolist() == [
            [0, 0, 0, 7],
            [math.inf, math.inf, math.inf, 0],
        ]

    def test_repeated_sources_give_equal_rows(self):
        net, edges = random_graph(random.Random(3), 7, 15)
        rows = shortest_paths(7, net, [4, 2, 4, 4])
        assert rows[0].tolist() == rows[2].tolist() == rows[3].tolist()
        assert rows[1].tolist() == dijkstra_distances(7, edges, 2)

    def test_commodity_without_edges(self):
        rows = shortest_paths(5, edge_arrays([]), [1, 3])
        expected = np.full((2, 5), math.inf)
        expected[0, 1] = expected[1, 3] = 0
        assert rows.tolist() == expected.tolist()

    def test_no_sources(self):
        net, _ = random_graph(random.Random(5), 5, 8)
        assert shortest_paths(5, net, []).shape == (0, 5)

    @pytest.mark.parametrize("bad", [-2.0, math.inf, math.nan])
    def test_rejects_bad_edge_cost(self, s8_dict, monkeypatch, bad):
        """A bad cost is refused where it is parsed, before any row is computed."""

        def never(*args):
            raise AssertionError("rows computed from unchecked costs")

        monkeypatch.setattr(placenet.scenario, "shortest_paths", never)
        doc = copy.deepcopy(s8_dict)
        doc["edges"][1]["cost"]["a1"] = bad
        with pytest.raises(ScenarioError, match=r"^edges\[1\] cost for a1 must be a finite number"):
            Scenario.from_dict(doc)
