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


def network_doc(
    cost,
    *,
    plants,
    raws=("r1",),
    products=("p1",),
    raw_warehouses=("R8", "R9", "R10"),
    warehouses=("W8", "W9", "W10"),
    stores=("S8", "S10"),
    demand=None,
    capacity=None,
):
    """A scenario whose only edges are the site legs; ``cost(commodity, tail,
    head)`` prices each leg, None leaving the commodity off that leg."""
    legs = [(f"X{rid}", rw) for rid in raws for rw in raw_warehouses]
    legs += [(rw, plant) for rw in raw_warehouses for plant in plants]
    legs += [(plant, w) for plant in plants for w in warehouses]
    legs += [(w, store) for w in warehouses for store in stores]
    edges = []
    for tail, head in legs:
        costs = {c: cost(c, tail, head) for c in raws + products}
        costs = {c: v for c, v in costs.items() if v is not None}
        if costs:
            edges.append({"from": tail, "to": head, "cost": costs})
    nodes = [f"X{rid}" for rid in raws] + [*raw_warehouses, *plants, *warehouses, *stores]
    production = {
        "factors": {plant: {p: 1.0 for p in products} for plant in plants},
        "exponents": {p: {rid: 1.0 for rid in raws} for p in products},
    }
    if capacity:
        production["capacity"] = capacity
    return {
        "name": "routes",
        "nodes": [{"id": n, "x": i, "y": 0} for i, n in enumerate(nodes)],
        "edges": edges,
        "commodities": [
            {"id": rid, "kind": "raw", "unit_cost": 1, "purchase_price": 1, "storage_fee": 1}
            for rid in raws
        ]
        + [{"id": p, "kind": "product", "storage_fee": 1} for p in products],
        "recipes": {p: {rid: 1 for rid in raws} for p in products},
        "sites": {
            "extraction": {rid: f"X{rid}" for rid in raws},
            "raw_warehouses": list(raw_warehouses),
            "plants": list(plants),
            "product_warehouses": list(warehouses),
            "stores": list(stores),
        },
        "demand": {
            "stores": {s: {p: 2 for p in products} for s in stores} if demand is None else demand,
            "retail_prices": {p: 10 for p in products},
        },
        "production": production,
    }


def leg_document(*, plants, warehouses, demand, products=("p1",), capacity=None) -> dict:
    """``network_doc`` from leg tables ``plants[plant][wh]`` and ``warehouses[wh][store]`` of
    product costs. Raw ``r0`` costs 1 from Xr0 to RW0, 2 to RW1, then 1 to each plant."""
    legs = {("Xr0", "RW0"): {"r0": 1}, ("Xr0", "RW1"): {"r0": 2}}
    legs |= {(rw, plant): {"r0": 1} for rw in ("RW0", "RW1") for plant in plants}
    legs |= {(t, h): c for t, heads in {**plants, **warehouses}.items() for h, c in heads.items()}
    doc = network_doc(
        lambda c, tail, head: legs.get((tail, head), {}).get(c), plants=list(plants), demand=demand,
        raws=("r0",), products=products, raw_warehouses=("RW0", "RW1"), capacity=capacity,
        warehouses=list(warehouses), stores=sorted({s for hs in warehouses.values() for s in hs}),
    )
    if sum(len(edge["cost"]) for edge in doc["edges"]) != sum(map(len, legs.values())):
        raise ValueError("a leg table names a site or commodity outside the scenario")
    return doc


def leg_scenario(**tables) -> Scenario:
    """The scenario of ``leg_document(**tables)``."""
    return Scenario.from_dict(leg_document(**tables))
