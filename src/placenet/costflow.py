"""Demand aggregation, raw-chain costing, and the cheapest-first flow rule.

Route costs are the scenario's site-indexed arrays: ``raw_costs[raw]`` is
(raw warehouse, plant), ``ship_costs[product]`` is (plant, product warehouse,
store).  Tie rules: ids compare as strings (``"x10" < "x8"``) for a shipment's
warehouse and between equal-cost choices; the sweep serves equal-cost cells
by store, then plant position; the minimum total cost wins.  Each warehouse
search scores all plant pairs as one chunked numpy batch, every element
adding its terms in the order of a one-pair run, so results are
bit-reproducible.  The searches only add up costs; ``greedy_flows`` builds
shipments, for the flows a report shows.  Public functions are pure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, ScenarioError
from .scenario import Scenario

WEIGHTED = "weighted"
UNIT = "unit"
_CHUNK_CELLS = 2**14  # cells per batch chunk of the warehouse searches


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
    return {product: sum(_demand(scenario, product)) for product in scenario.product_ids}


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
            if not math.isfinite(requirements[rid]):
                raise ScenarioError(f"recipe for {product}: the {rid} requirement overflows")
    return requirements


def _supply(plants, outputs, product) -> list[int]:
    return [outputs.get(plant, {}).get(product, 0) for plant in plants]


def _demand(scenario, product) -> list[int]:
    return [scenario.demand[store].get(product, 0) for store in scenario.sites.stores]


@np.errstate(over="ignore")  # a total past the float range is inf, as in Python
def _sweep(cost, supply, demand, total):
    """Serves each batch element's (store, plant) ``cost`` cells cheapest
    first, in stable argsort order of the store-major cells; a cell ships
    min(unsent ``demand``, unshipped ``supply``), nothing from a negative
    supply.  Adds each element's flow cost to ``total`` in that order and
    returns it with each rank's cell (store-major index), cost and units."""
    batch, n_stores, n_plants = cost.shape
    flat = cost.reshape(batch, n_stores * n_plants)
    order = np.argsort(flat, axis=1, kind="stable")
    cells = order + np.arange(batch)[:, None] * flat.shape[1]  # indices into the whole batch
    costs = flat.ravel()[cells]
    # each cell's store among the batch's stores, and its plant among the batch's plants
    stores = cells // n_plants
    plants = cells // flat.shape[1] * n_plants + order % n_plants
    want, have = np.tile(demand, batch), np.maximum(supply, 0).ravel()
    units = np.empty((flat.shape[1], batch), dtype=np.result_type(want, have))
    for k, (store, plant, unit_cost) in enumerate(zip(stores.T, plants.T, costs.T.copy())):
        w, h = want[store], have[plant]
        units[k] = sent = np.minimum(w, h)
        want[store], have[plant] = w - sent, h - sent
        total = total + sent * unit_cost  # + 0.0 where nothing is sent
    return total, order, costs, units.T


def _sweeps(scenario, cases, cols):
    """Sweeps each (plants, outputs) case through each of its product
    warehouse tuples ``cols[case]`` (choice, warehouse position; one row
    serves every case).  Returns the (case, choice) totals and, per product,
    the legs (case, plant, choice, warehouse, store) with the sweep's order,
    costs and units.  Cases share their plant count; no cell may be
    unreachable."""
    rows = np.array([[scenario.sites.plants.index(p) for p in plants] for plants, _ in cases], int)
    (n_cases, n_plants), n_choices = rows.shape, cols.shape[1]
    total, sweeps = np.zeros(n_cases * n_choices), []
    for product in scenario.product_ids:
        legs = scenario.ship_costs[product][rows[:, :, None, None], cols[:, None]]
        cost = legs.min(axis=3).transpose(0, 2, 3, 1)  # (case, choice, store, plant)
        supply = np.repeat([_supply(*case, product) for case in cases], n_choices, axis=0)
        cells = cost.reshape(n_cases * n_choices, len(scenario.sites.stores), n_plants)
        total, *swept = _sweep(cells, supply, _demand(scenario, product), total)
        sweeps.append((product, legs, *swept))
    return total.reshape(n_cases, n_choices), sweeps


def greedy_flows(
    scenario: Scenario,
    cases: list[tuple[tuple[str, ...], dict[str, dict[str, int]], tuple[str, ...]]],
) -> list[FlowAssignment]:
    """Each (plants, outputs, warehouses) case's cheapest-first flow, as
    ``greedy_flow`` builds it, from one batched sweep.  Cases share their
    plant and warehouse counts; none may have short supply or an unreachable
    cell.  A shipment goes via the string-smallest of its cell's cheapest
    warehouses."""
    if not cases:
        return []
    stores, warehouses = scenario.sites.stores, scenario.sites.product_warehouses
    vias = [sorted(via) for *_, via in cases]  # argmin keeps the first: string order
    cols = np.array([[[warehouses.index(w) for w in via]] for via in vias], int)
    total, sweeps = _sweeps(scenario, [case[:2] for case in cases], cols)
    shipments: list[dict[tuple[str, str], list[Shipment]]] = [{} for _ in cases]
    for product, legs, order, costs, units in sweeps:
        via = legs[:, :, 0].argmin(axis=2)  # (case, plant, store)
        case, rank = np.nonzero(units > 0)
        store, plant = np.divmod(order[case, rank], via.shape[1])
        columns = case, store, plant, via[case, plant, store], units[case, rank], costs[case, rank]
        for c, s, p, w, sent, unit_cost in zip(*(column.tolist() for column in columns)):
            shipments[c].setdefault((product, stores[s]), []).append(
                Shipment(cases[c][0][p], sent, vias[c][w], unit_cost)
            )
    return [
        FlowAssignment({key: tuple(v) for key, v in shipped.items()}, cost)
        for shipped, cost in zip(shipments, total[:, 0].tolist())
    ]


def _check_flow(scenario, plants, outputs, warehouses) -> None:
    """Raise the error ``greedy_flow`` meets first: short supply or an
    unreachable (plant, store) cell, product by product."""
    stores = scenario.sites.stores
    rows = [scenario.sites.plants.index(plant) for plant in plants]
    cols = [scenario.sites.product_warehouses.index(w) for w in warehouses]
    for product in scenario.product_ids:
        supply, demand = _supply(plants, outputs, product), _demand(scenario, product)
        if sum(supply) < sum(demand):
            raise InfeasibleError(
                f"outputs of {product} ({sum(supply)}) cannot cover demand ({sum(demand)})"
            )
        cost = scenario.ship_costs[product][rows][:, cols].min(axis=1)
        if np.isinf(cost).any():
            plant, store = np.argwhere(np.isinf(cost))[0]
            for warehouse in warehouses:
                scenario.check_route(product, plants[plant], warehouse, stores[store])
            raise InfeasibleError(
                f"no {product} route from {plants[plant]} to {stores[store]} via {warehouses}"
            )


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
    _check_flow(scenario, plants, outputs, warehouses)
    # With enough supply and every cell reachable, the sweep fills all demand:
    # a store left short would have found every plant empty.
    return greedy_flows(scenario, [(plants, outputs, warehouses)])[0]


def select_raw_warehouses(
    scenario: Scenario,
    cases: list[tuple[tuple[str, ...], dict[str, dict[str, float]]]],
    mode: str = WEIGHTED,
) -> list[dict[str, str] | InfeasibleError | ScenarioError]:
    """For each (plants, plant raw requirements) case, one distinct raw
    warehouse per plant at minimum route cost, or the error the case raises.

    ``weighted`` scores an assignment by unit route cost times the plant's raw
    requirement; ``unit`` ignores the requirement weights.  Ties resolve to
    the lexicographically smallest warehouse tuple in plant order.  Cases
    share their plant count; their (case, assignment) scores are summed in
    chunks of about ``_CHUNK_CELLS``, terms by plant, then raw.  A case's
    error is its first infinite term, assignments in generation order: a
    missing route, or a finite route cost whose weighted term overflows.  A
    winning total past the float range is an overflow of its largest term.
    """
    candidates, n = scenario.sites.raw_warehouses, len(cases[0][0]) if cases else 0
    if len(candidates) < n:
        error = InfeasibleError(f"{len(candidates)} raw warehouse candidates for {n} plants")
        return [error] * len(cases)
    if mode not in (WEIGHTED, UNIT):
        return [ScenarioError(f"unknown raw-warehouse selection mode {mode!r}")] * len(cases)
    perms = np.array(list(itertools.permutations(range(len(candidates)), n)))
    labels = [tuple(candidates[w] for w in perm) for perm in perms]
    ranked = sorted(range(len(perms)), key=labels.__getitem__)  # so argmin wins ties
    terms = [(i, rid) for i in range(n) for rid in scenario.raw_ids]
    found: list = []
    step = max(1, _CHUNK_CELLS // len(perms))
    for start in range(0, len(cases), step):
        chunk = cases[start : start + step]
        cols = np.array([[scenario.sites.plants.index(p) for p in plants] for plants, _ in chunk])
        weights = np.array(
            [[need[plants[i]].get(rid, 0.0) for i, rid in terms] for plants, need in chunk]
        )
        weights = (weights if mode == WEIGHTED else np.ones_like(weights)).T[:, :, None]
        cost = np.array(
            [scenario.raw_costs[rid][perms[:, i], cols[:, i, None]] for i, rid in terms]
        ).reshape(len(terms), len(chunk), len(perms))  # (term, case, permutation)
        # A zero weight adds 0.0 rather than cost * 0, which is NaN for an inf cost.
        with np.errstate(over="ignore"):  # a product or sum past the float range is inf
            scores = np.multiply(cost, weights, out=np.zeros(cost.shape), where=weights != 0)
            total = sum(scores, np.zeros(cost.shape[1:]))
        bad = np.isinf(scores).any(axis=(0, 2)).tolist()
        for c, ((plants, _), j) in enumerate(zip(chunk, total[:, ranked].argmin(axis=1).tolist())):
            k = ranked[j]
            if bad[c]:
                k, t = np.argwhere(np.isinf(scores[:, c].T))[0]
            elif math.isfinite(total[c, k]):
                found.append(dict(zip(plants, labels[k])))
                continue
            else:  # every total overflows: blame the winner's largest term
                t = scores[:, c, k].argmax()
            i, rid = terms[t]
            if math.isfinite(cost[t, c, k]):
                route = f"the {rid} route cost to plant {plants[i]}"
                found.append(ScenarioError(f"{route} overflows its raw-warehouse score"))
                continue
            route = scenario.sites.extraction[rid], candidates[perms[k, i]], plants[i]
            try:
                scenario.check_route(rid, *route)
                found.append(InfeasibleError(f"no {rid} route {' -> '.join(route)}"))
            except ScenarioError as exc:
                found.append(exc)
    return found


def select_product_warehouses(
    scenario: Scenario,
    cases: list[tuple[tuple[str, ...], dict[str, dict[str, int]]]],
) -> list[tuple[tuple[str, str], float] | InfeasibleError | ScenarioError]:
    """For each (plants, outputs) case, the distinct warehouse pair with the
    least greedy flow cost and that cost, or the error the case raises.

    The cases' plant tuples have one size.  Ties resolve to the
    lexicographically smallest (id, id) pair, comparing ids as strings.  All
    (case, pair) flows run as one batched sweep, in chunks of about
    ``_CHUNK_CELLS`` cells, that adds up costs and builds no shipments
    (``greedy_flows`` builds the winners' flows when they are wanted).  A
    case with short supply or an unreachable cell instead checks each pair
    in turn as ``greedy_flow`` does, so its error is the first one that loop
    meets.
    """
    candidates = scenario.sites.product_warehouses
    if len(candidates) < 2:
        return [InfeasibleError("need at least 2 product warehouse candidates") for _ in cases]
    pairs = sorted(itertools.combinations(candidates, 2))  # so the first minimum wins ties
    # A plant's cell is unreachable through some pair iff two warehouses miss it.
    blocked = {
        scenario.sites.plants[i]
        for costs in scenario.ship_costs.values()
        for i in np.flatnonzero((np.isinf(costs).sum(axis=1) >= 2).any(axis=1))
    }
    needed = {product: sum(_demand(scenario, product)) for product in scenario.product_ids}
    found: list = [None] * len(cases)
    for c, (plants, outputs) in enumerate(cases):
        if blocked.intersection(plants) or any(
            sum(_supply(plants, outputs, product)) < units for product, units in needed.items()
        ):
            try:
                for pair in itertools.combinations(candidates, 2):
                    _check_flow(scenario, plants, outputs, pair)
            except (InfeasibleError, ScenarioError) as exc:
                found[c] = exc
    live = [c for c, result in enumerate(found) if result is None]
    cells = len(pairs) * len(scenario.sites.stores) * len(cases[live[0]][0]) if live else 1
    step = max(1, _CHUNK_CELLS // max(1, cells))
    cols = np.array([[[candidates.index(w) for w in pair] for pair in pairs]])  # one row for all
    for start in range(0, len(live), step):
        chunk = live[start : start + step]
        total, _ = _sweeps(scenario, [cases[c] for c in chunk], cols)
        for c, j, cost in zip(chunk, total.argmin(axis=1).tolist(), total.min(axis=1).tolist()):
            found[c] = pairs[j], cost  # argmin keeps the first minimum
    return found
