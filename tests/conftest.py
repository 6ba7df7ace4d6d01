import heapq
import importlib.util
import json
import math
from pathlib import Path

import pytest

from placenet import Scenario, load_scenario

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "fixtures"


def dijkstra_distances(n, edges, source):
    """Independent oracle: per-source Dijkstra over (tail, head, cost) triples."""
    adjacency = {}
    for tail, head, cost in edges:
        adjacency.setdefault(tail, []).append((head, cost))
    dist = [math.inf] * n
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adjacency.get(u, []):
            if d + w < dist[v]:
                dist[v] = d + w
                heapq.heappush(heap, (d + w, v))
    return dist


def edge_triples(scenario: Scenario, commodity: str) -> list[tuple[int, int, float]]:
    """(tail, head, cost) of each edge carrying the commodity, in edge order."""
    if commodity not in scenario.edges:
        return []
    return list(zip(*(column.tolist() for column in scenario.edges[commodity])))


def route_cost(scenario: Scenario, commodity: str, from_label: str, to_label: str) -> float:
    """Minimum route cost between two labelled nodes, by the Dijkstra oracle."""
    edges = edge_triples(scenario, commodity)
    index = scenario.node_index
    return dijkstra_distances(len(index), edges, index[from_label])[index[to_label]]


def bench_scenario(workload: str, seed: int, out: Path, toy: bool = False) -> Path:
    """The scenario file that ``bench/gen.py`` writes into ``out``, at the
    workload's preset sizes or, with ``toy``, its toy sizes."""
    spec = importlib.util.spec_from_file_location("gen", REPO_ROOT / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    sizes = gen.TOY_PRESETS[workload] if toy else None
    return gen.write_inputs(workload, seed, out, sizes)["scenario"]


@pytest.fixture(scope="session")
def s8() -> Scenario:
    return load_scenario(FIXTURES / "example_s8.json")


@pytest.fixture(scope="session")
def s8_dict() -> dict:
    return json.loads((FIXTURES / "example_s8.json").read_text())


def leg_document(
    *,
    plants: dict[str, dict[str, dict[str, float]]],
    warehouses: dict[str, dict[str, dict[str, float]]],
    demand: dict[str, dict[str, int]],
    products: tuple[str, ...] = ("p1",),
    retail: dict[str, float] | None = None,
    splits: list[dict] | None = None,
    capacity: dict[str, dict[str, float]] | None = None,
) -> dict:
    """A small scenario document from explicit leg-cost tables.

    ``plants[plant][wh]`` and ``warehouses[wh][store]`` map to per-product
    transport costs; the raw side is a fixed single-raw stub with unit costs
    so the whole pipeline stays runnable.
    """
    plant_ids = list(plants)
    wh_ids = list(warehouses)
    store_ids = sorted({store for whs in warehouses.values() for store in whs})
    node_ids = ["RX", "RW0", "RW1"] + plant_ids + wh_ids + store_ids

    edges = [
        {"from": "RX", "to": "RW0", "cost": {"r0": 1}},
        {"from": "RX", "to": "RW1", "cost": {"r0": 2}},
    ]
    for wh in ("RW0", "RW1"):
        for plant in plant_ids:
            edges.append({"from": wh, "to": plant, "cost": {"r0": 1}})
    for plant, whs in plants.items():
        for wh, costs in whs.items():
            edges.append({"from": plant, "to": wh, "cost": dict(costs)})
    for wh, stores in warehouses.items():
        for store, costs in stores.items():
            edges.append({"from": wh, "to": store, "cost": dict(costs)})

    doc = {
        "name": "leg-scenario",
        "nodes": [{"id": n, "x": i, "y": 0} for i, n in enumerate(node_ids)],
        "edges": edges,
        "commodities": [
            {"id": "r0", "kind": "raw", "unit_cost": 1, "purchase_price": 1, "storage_fee": 1},
        ]
        + [{"id": p, "kind": "product", "storage_fee": 1} for p in products],
        "recipes": {p: {"r0": 1} for p in products},
        "sites": {
            "extraction": {"r0": "RX"},
            "raw_warehouses": ["RW0", "RW1"],
            "plants": plant_ids,
            "product_warehouses": wh_ids,
            "stores": store_ids,
        },
        "demand": {
            "stores": demand,
            "retail_prices": retail or {p: 10.0 for p in products},
        },
        "production": {
            "factors": {plant: {p: 1.0 for p in products} for plant in plant_ids},
            "exponents": {p: {"r0": 1.0} for p in products},
            **({"capacity": capacity} if capacity else {}),
            **({"splits": splits} if splits else {}),
        },
    }
    return doc


def leg_scenario(**tables) -> Scenario:
    """The scenario of ``leg_document(**tables)``."""
    return Scenario.from_dict(leg_document(**tables))
