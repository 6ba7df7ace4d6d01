"""Demand aggregation, raw-chain costing, and the cheapest-first flow rule.

Route costs are the scenario's site-indexed arrays: ``raw_costs[raw]`` is
(raw warehouse, plant), ``ship_costs[product]`` is (plant, product warehouse,
store).  Tie rules: ids compare as strings (``"x10" < "x8"``) for a shipment's
warehouse and between equal-cost choices; the sweep serves equal-cost cells
by store, then plant position; the minimum total cost wins.  Sums keep a fixed
order, so results are bit-reproducible.  Public functions are pure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, ScenarioError
from .scenario import Scenario

WEIGHTED = "weighted"
UNIT = "unit"


@dataclass(frozen=True)
class DemandSummary:
    """Totals implied by the store demand table and the recipes."""

    total_per_product: dict[str, int]
    total_raw_required: dict[str, float]


@dataclass(frozen=True)
class Shipment:
    plant: str
    units: int
    warehouse: str
    unit_cost: float


@dataclass(frozen=True)
class FlowAssignment:
    """Plant-to-store shipments through product warehouses, plus total cost."""

    shipments: dict[tuple[str, str], tuple[Shipment, ...]]
    total_cost: float

    def shipped_from(self, plant: str, product: str) -> int:
        return sum(
            s.units
            for (prod, _store), entries in self.shipments.items()
            if prod == product
            for s in entries
            if s.plant == plant
        )


def total_demand(scenario: Scenario) -> dict[str, int]:
    """Componentwise sum of store demands."""
    totals = {product: 0 for product in scenario.product_ids}
    for per_product in scenario.demand.values():
        for product, units in per_product.items():
            totals[product] += units
    return totals


def raw_requirements(
    totals: dict[str, int], recipes: dict[str, dict[str, float]]
) -> dict[str, float]:
    """Recipe-weighted raw totals: req_r = sum_p recipe[p][r] * totals[p]."""
    requirements: dict[str, float] = {}
    for product, units in totals.items():
        if product not in recipes:
            raise ScenarioError(f"no recipe for product {product!r}")
        for rid, per_unit in recipes[product].items():
            requirements[rid] = requirements.get(rid, 0.0) + per_unit * units
    return requirements


def demand_summary(scenario: Scenario) -> DemandSummary:
    totals = total_demand(scenario)
    return DemandSummary(totals, raw_requirements(totals, scenario.recipes))


def product_unit_total_cost(scenario: Scenario, plant_unit_price: float, product: str) -> float:
    """Store-side unit cost: plant price plus the product storage fee.

    Transport to the store is accounted in the flow assignment, not here.
    """
    if plant_unit_price < 0:
        raise ScenarioError("plant unit price must be >= 0")
    return plant_unit_price + scenario.commodities[product].storage_fee


def _supply_demand(scenario, plants, outputs, product) -> tuple[list[int], list[int]]:
    supply = [outputs.get(plant, {}).get(product, 0) for plant in plants]
    return supply, [scenario.demand[store].get(product, 0) for store in scenario.sites.stores]


def _cheapest_first(cost: np.ndarray) -> tuple[list, list, list]:
    """(store, plant, cost) lists in sweep order from (..., store, plant) cell costs."""
    n_plants = cost.shape[-1]
    cost = cost.reshape(*cost.shape[:-2], -1)
    order = np.argsort(cost, axis=-1, kind="stable")  # store-major, so ties keep store, plant
    costs = np.take_along_axis(cost, order, axis=-1)
    return (order // n_plants).tolist(), (order % n_plants).tolist(), costs.tolist()


def _sweep(total, stores, plants, costs, supply, demand, product, shipped=None) -> float:
    """Adds the flow cost of serving cells in order to ``total``, consuming
    ``supply`` and ``demand``; records (plant, store, units, cost) in ``shipped``."""
    unfilled = len(demand) - demand.count(0)
    for store, plant, cost in zip(stores, plants, costs):
        want, have = demand[store], supply[plant]
        units = want if want < have else have  # min(have, want), result type included
        if units <= 0:
            continue
        supply[plant] = have - units
        demand[store] = want - units
        total += units * cost
        if shipped is not None:
            shipped.append((plant, store, units, cost))
        if units == want:
            unfilled -= 1
            if not unfilled:
                break
    if unfilled:
        raise InfeasibleError(f"demand for {product} left unfilled after greedy pass")
    return total


def greedy_flow(
    scenario: Scenario,
    plants: tuple[str, ...],
    outputs: dict[str, dict[str, int]],
    warehouses: tuple[str, ...],
) -> FlowAssignment:
    """Fill demand cheapest-shipment-first, bounded by each plant's output.

    For every product the (plant, store) unit cost is the minimum over the
    chosen warehouses of the two route legs.  Cells are served in ascending
    unit-cost order; among equal costs the lowest store position goes first,
    then the lowest plant position.  Shipments conserve units exactly: every
    store is filled and no plant exceeds its allocated output.  Plants and
    warehouses must be plant and product-warehouse candidates.
    """
    stores = scenario.sites.stores
    rows = [scenario.sites.plants.index(plant) for plant in plants]
    vias = sorted(warehouses)  # argmin keeps the first of equal costs: string order
    cols = [scenario.sites.product_warehouses.index(w) for w in vias]
    shipments: dict[tuple[str, str], list[Shipment]] = {}
    total_cost = 0.0
    for product in scenario.product_ids:
        supply, demand = _supply_demand(scenario, plants, outputs, product)
        if sum(supply) < sum(demand):
            raise InfeasibleError(
                f"outputs of {product} ({sum(supply)}) cannot cover demand ({sum(demand)})"
            )
        legs = scenario.ship_costs[product][rows][:, cols]
        via = legs.argmin(axis=1)
        cost = np.take_along_axis(legs, via[:, None], axis=1)[:, 0]
        if np.isinf(cost).any():
            plant, store = np.argwhere(np.isinf(cost))[0]
            scenario.check_carried(product)
            raise InfeasibleError(
                f"no {product} route from {plants[plant]} to {stores[store]} via {warehouses}"
            )
        shipped: list[tuple[int, int, int, float]] = []
        total_cost = _sweep(total_cost, *_cheapest_first(cost.T), supply, demand, product, shipped)
        for plant, store, units, unit_cost in shipped:
            shipments.setdefault((product, stores[store]), []).append(
                Shipment(plants[plant], units, vias[via[plant, store]], unit_cost)
            )
    return FlowAssignment({key: tuple(v) for key, v in shipments.items()}, total_cost)


def select_raw_warehouses(
    scenario: Scenario,
    plants: tuple[str, ...],
    plant_raw_requirements: dict[str, dict[str, float]],
    mode: str = WEIGHTED,
) -> dict[str, str]:
    """Assign one distinct raw warehouse to each plant at minimum route cost.

    ``weighted`` scores an assignment by unit route cost times the plant's raw
    requirement; ``unit`` ignores the requirement weights.  Ties resolve to
    the lexicographically smallest warehouse tuple in plant order.
    """
    candidates = scenario.sites.raw_warehouses
    if len(candidates) < len(plants):
        raise InfeasibleError(
            f"{len(candidates)} raw warehouse candidates for {len(plants)} plants"
        )
    if mode not in (WEIGHTED, UNIT):
        raise ScenarioError(f"unknown raw-warehouse selection mode {mode!r}")
    choices = np.array(list(itertools.permutations(range(len(candidates)), len(plants))))
    # One route-cost-times-weight array over candidates per score term, in the
    # score's summation order: plants, then raws.
    terms = [
        (i, rid, scenario.raw_costs[rid][:, scenario.sites.plants.index(plant)] * weight)
        for i, plant in enumerate(plants)
        for rid in scenario.raw_ids
        if (weight := plant_raw_requirements[plant].get(rid, 0.0) if mode == WEIGHTED else 1.0)
    ]
    scores = np.array([term[choices[:, i]] for i, _rid, term in terms]).reshape(-1, len(choices))
    if np.isinf(scores).any():
        c, t = np.argwhere(np.isinf(scores.T))[0]
        i, rid, _term = terms[t]
        scenario.check_carried(rid)
        source, warehouse = scenario.sites.extraction[rid], candidates[choices[c, i]]
        raise InfeasibleError(f"no {rid} route {source} -> {warehouse} -> {plants[i]}")
    cost = sum(scores, np.zeros(len(choices)))
    ties = choices[cost == cost.min()]
    return dict(zip(plants, min(tuple(candidates[w] for w in choice) for choice in ties)))


def select_product_warehouses(
    scenario: Scenario,
    plants: tuple[str, ...],
    outputs: dict[str, dict[str, int]],
) -> tuple[tuple[str, str], FlowAssignment]:
    """Pick the distinct warehouse pair minimizing the greedy flow cost.

    Returns the pair and its flow.  Ties resolve to the lexicographically
    smallest (id, id) pair, comparing ids as strings.  Pairs are swept in
    order of a lower bound on their cost (each unit costs at least its
    store's cheapest cell) until the bound passes the best total.
    """
    candidates = scenario.sites.product_warehouses
    if len(candidates) < 2:
        raise InfeasibleError("need at least 2 product warehouse candidates")
    pairs = list(itertools.combinations(candidates, 2))
    first, second = np.array(list(itertools.combinations(range(len(candidates)), 2))).T
    rows = [scenario.sites.plants.index(plant) for plant in plants]
    sweeps, bound = [], np.zeros(len(pairs))
    for product in scenario.product_ids:
        supply, demand = _supply_demand(scenario, plants, outputs, product)
        legs = scenario.ship_costs[product][rows]
        cost = np.minimum(legs[:, first], legs[:, second])  # (plant, pair, store)
        if sum(supply) < sum(demand) or np.isinf(cost).any():
            for pair in pairs:  # raises the error the pair loop meets first
                greedy_flow(scenario, plants, outputs, pair)
        sweeps.append((product, supply, demand, *_cheapest_first(cost.transpose(1, 2, 0))))
        bound += (cost.min(axis=0) * demand).sum(axis=1)  # not @: a first BLAS call costs RSS
    best, best_total = 0, np.inf
    for j in sorted(range(len(pairs)), key=bound.__getitem__):
        if bound[j] > best_total * (1 + 1e-9):  # the margin covers rounding in either sum
            break
        total = 0.0
        for product, supply, demand, *cells in sweeps:
            total = _sweep(total, *(c[j] for c in cells), supply[:], demand[:], product)
        if (total, pairs[j]) < (best_total, pairs[best]):
            best, best_total = j, total
    return pairs[best], greedy_flow(scenario, plants, outputs, pairs[best])
