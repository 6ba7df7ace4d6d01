"""Demand aggregation, raw-chain costing, and the cheapest-first flow rule.

Route costs are the scenario's site-indexed arrays: ``raw_costs[raw]`` is
(raw warehouse, plant), ``ship_costs[product]`` is (plant, product warehouse,
store).  Tie rules: ids compare as strings (``"x10" < "x8"``) for a shipment's
warehouse and between equal-cost choices; the sweep serves equal-cost cells
by store, then plant position; the minimum total cost wins.  Each warehouse
search scores all plant pairs as one chunked numpy batch, every element
adding its terms in the order of a one-pair run, so results are
bit-reproducible.  The product-warehouse search sweeps only the flows whose
lower bound (each store's demand times its cheapest cell) is within
``_BOUND_SLACK`` of a first swept total, as no other flow can win.  A
candidate that cannot serve a plant pair costs inf and the minimum decides.
The searches only add up costs; ``greedy_flows`` builds shipments, for the
flows a report shows.  Public functions are pure.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .errors import InfeasibleError, ScenarioError
from .scenario import Scenario

WEIGHTED = "weighted"
UNIT = "unit"
_CHUNK_CELLS = 2**14  # cells per batch chunk of the warehouse searches
# A bound and a flow total each add n nonnegative terms, so rounding moves
# each by at most about n * 2**-53 of its value, far below this for n < 10**6.
_BOUND_SLACK = 1e-9  # relative slack of the pair search's pruning


class Shipment(NamedTuple):
    plant: str
    units: int
    warehouse: str
    unit_cost: float


class FlowAssignment(NamedTuple):
    """Plant-to-store shipments through product warehouses, plus total cost."""

    shipments: dict[tuple[str, str], tuple[Shipment, ...]]
    total_cost: float


def total_demand(scenario: Scenario) -> dict[str, int]:
    """Componentwise sum of store demands."""
    return {product: sum(units) for product, units in scenario.demand_rows.items()}


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


@np.errstate(over="ignore", invalid="ignore")  # a total past the float range is inf
def _sweep(cost, supply, demand, total):
    """Serves each batch element's (store, plant) ``cost`` cells cheapest
    first, in stable argsort order of the store-major cells; a cell ships
    min(unsent ``demand``, unshipped ``supply``), nothing from a negative
    supply.  Adds each element's flow cost to ``total`` in that order, an
    unreachable cell costing nothing unless it ships, and returns it with
    each rank's cell (store-major index), cost and units."""
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
        total = np.fmax(total, total + sent * unit_cost)  # fmax drops 0 units * inf = NaN
    return total, order, costs, units.T


def _elements(scenario, cases):
    """The (plants, outputs) cases' plant rows (case, plant position), per
    product their supplies (case, plant position), and whether some
    product's supply falls short of its demand."""
    rows = np.array([[scenario.sites.plants.index(p) for p in plants] for plants, _ in cases], int)
    supplies = [np.array([_supply(*case, p) for case in cases]) for p in scenario.product_ids]
    need = [sum(scenario.demand_rows[p]) for p in scenario.product_ids]
    return rows, supplies, np.any([s.sum(axis=1) < n for s, n in zip(supplies, need)], axis=0)


def _sweeps(scenario, rows, cols, supplies):
    """Sweeps each element: plants ``rows`` (element, plant position) with
    ``supplies`` (per product, element × plant) via warehouses ``cols``
    (element, warehouse position).  Yields per chunk of about
    ``_CHUNK_CELLS`` sweep cells its first element, totals and, per product,
    legs (element, plant, warehouse, store) with the sweep's order, costs
    and units."""
    step = max(1, _CHUNK_CELLS // max(1, len(scenario.sites.stores) * rows.shape[1]))
    for start in range(0, len(rows), step):
        chunk = slice(start, start + step)
        total, sweeps = np.zeros(len(rows[chunk])), []
        for product, supply in zip(scenario.product_ids, supplies):
            legs = scenario.ship_costs[product][rows[chunk, :, None], cols[chunk, None]]
            cost = legs.min(axis=2).transpose(0, 2, 1)  # (element, store, plant)
            total, *swept = _sweep(cost, supply[chunk], scenario.demand_rows[product], total)
            sweeps.append((product, legs, *swept))
        yield start, total, sweeps


def _totals(scenario, rows, cols, supplies):
    """The elements' flow totals, as ``_sweeps`` adds them up."""
    totals = [total for _, total, _ in _sweeps(scenario, rows, cols, supplies)]
    return np.concatenate([np.zeros(0), *totals])


@np.errstate(over="ignore")  # a bound past the float range is inf
def _bounds(scenario, rows, cols):
    """Each (case, pair) flow's lower bound: each store's demand times its
    cheapest cell from the case's plants ``rows`` via the pair's warehouses
    ``cols``, summed over stores, then products; cases in chunks of about
    ``_CHUNK_CELLS`` (plant, pair, store) cells."""
    bound = np.zeros((len(rows), len(cols)))
    step = max(1, _CHUNK_CELLS // max(1, rows.shape[1] * len(cols) * len(scenario.sites.stores)))
    for product in scenario.product_ids:
        demand = np.array(scenario.demand_rows[product], float)
        need = np.flatnonzero(demand)  # a store without demand adds nothing
        table = scenario.ship_costs[product][:, cols][..., need].min(axis=2)  # (plant, pair, store)
        for start in range(0, len(rows), step):
            cells = table[rows[start : start + step]].min(axis=1, initial=math.inf)
            bound[start : start + step] += (cells * demand[need]).sum(axis=-1)
    return bound


def greedy_flows(
    scenario: Scenario,
    cases: list[tuple[tuple[str, ...], dict[str, dict[str, int]], tuple[str, ...]]],
) -> list[FlowAssignment]:
    """Each (plants, outputs, warehouses) case's flow, from chunked batched
    sweeps: per product, each (plant, store) cell costs the least over the
    warehouses of its two legs and ships, cheapest first, then by store, then
    plant position, what its plant and store have left, via the string-smallest
    of its cheapest warehouses.  Cases share their plant and warehouse counts;
    each whose supply falls short or whose total is inf goes through
    ``_check_flow``, the first error raising, so a flow returned fills every
    store."""
    if not cases:
        return []
    stores, warehouses = scenario.sites.stores, scenario.sites.product_warehouses
    vias = [sorted(via) for *_, via in cases]  # argmin keeps the first: string order
    cols = np.array([[warehouses.index(w) for w in via] for via in vias], int)
    rows, supplies, short = _elements(scenario, [case[:2] for case in cases])
    shipments: list[dict[tuple[str, str], list[Shipment]]] = [{} for _ in cases]
    totals: list[float] = []
    for start, total, sweeps in _sweeps(scenario, rows, cols, supplies):
        for product, legs, order, costs, units in sweeps:
            via = legs.argmin(axis=2)  # (element, plant, store)
            case, _ = hit = np.nonzero(units > 0)
            store, plant = np.divmod(order[hit], via.shape[1])
            columns = case + start, store, plant, via[case, plant, store], units[hit], costs[hit]
            for c, s, p, w, sent, unit_cost in zip(*(column.tolist() for column in columns)):
                shipments[c].setdefault((product, stores[s]), []).append(
                    Shipment(cases[c][0][p], sent, vias[c][w], unit_cost)
                )
        totals += total.tolist()
    for case in itertools.compress(cases, short | np.isinf(totals)):
        _check_flow(scenario, *case)
    return [
        FlowAssignment({key: tuple(v) for key, v in shipped.items()}, cost)
        for shipped, cost in zip(shipments, totals)
    ]


def _check_flow(scenario, plants, outputs, warehouses) -> None:
    """Raise a flow's first error, product by product: short supply, or an
    unreachable (plant, store) cell whose plant makes the product and whose
    store wants it, shipping or not (an overflow if its route exists).  Only
    a flow that falls short or totals inf is checked."""
    stores = scenario.sites.stores
    rows = [scenario.sites.plants.index(plant) for plant in plants]
    cols = [scenario.sites.product_warehouses.index(w) for w in warehouses]
    for product in scenario.product_ids:
        supply, demand = _supply(plants, outputs, product), scenario.demand_rows[product]
        if sum(supply) < sum(demand):
            raise InfeasibleError(
                f"outputs of {product} ({sum(supply)}) cannot cover demand ({sum(demand)})"
            )
        cost = scenario.ship_costs[product][rows][:, cols].min(axis=1)
        stuck = np.isinf(cost) & np.outer(np.greater(supply, 0), np.greater(demand, 0))
        if stuck.any():
            plant, store = np.argwhere(stuck)[0]
            for warehouse in warehouses:
                error = scenario.route_error(product, plants[plant], warehouse, stores[store])
                if isinstance(error, ScenarioError):
                    raise error
            raise InfeasibleError(
                f"no {product} route from {plants[plant]} to {stores[store]} via {warehouses}"
            )


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
    chunks of about ``_CHUNK_CELLS``, terms by plant, then raw.  A missing
    route or a total past the float range scores inf.  A case errs only when
    every total is inf: at its first infinite term, assignments in generation
    order (a missing route, or a finite route cost whose weighted term
    overflows), else as an overflow of the winner's largest term.
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
        for c, ((plants, _), j) in enumerate(zip(chunk, total[:, ranked].argmin(axis=1).tolist())):
            k = ranked[j]
            if math.isfinite(total[c, k]):
                found.append(dict(zip(plants, labels[k])))
                continue
            # every total is inf: blame the first inf term, else the winner's largest
            infinite = np.argwhere(np.isinf(scores[:, c].T))
            k, t = infinite[0] if len(infinite) else (k, scores[:, c, k].argmax())
            i, rid = terms[t]
            if math.isfinite(cost[t, c, k]):
                route = f"the {rid} route cost to plant {plants[i]}"
                found.append(ScenarioError(f"{route} overflows its raw-warehouse score"))
                continue
            route = scenario.sites.extraction[rid], candidates[perms[k, i]], plants[i]
            found.append(scenario.route_error(rid, *route))
    return found


def select_product_warehouses(
    scenario: Scenario,
    cases: list[tuple[tuple[str, ...], dict[str, dict[str, int]]]],
) -> list[tuple[tuple[str, str], float] | InfeasibleError | ScenarioError]:
    """For each (plants, outputs) case, the distinct warehouse pair with the
    least greedy flow cost and that cost, or the error the case raises.

    The cases' plant tuples have one size.  Ties resolve to the
    lexicographically smallest (id, id) pair, comparing ids as strings.
    Chunked batched sweeps add up the flows and build no shipments
    (``greedy_flows`` builds the winners' when they are wanted).  Each unit
    ships through some cell, so a flow costs at least its bound, the sum of
    each store's demand times its cheapest cell.  Pass 1 sweeps each case's
    first smallest-bound pair; pass 2 every other pair whose bound is within
    ``_BOUND_SLACK`` of that total.  A pair left out costs more than that
    total, so winners, ties and totals are those of sweeping every pair.  A
    pair that ships through an unreachable cell costs inf.  A case whose
    supply falls short or whose least total is inf checks each pair in turn
    with ``_check_flow``, in candidate order: the first error that loop meets
    is the case's, and with none (every flow overflows) the winner stands.
    """
    candidates = scenario.sites.product_warehouses
    if len(candidates) < 2:
        return [InfeasibleError("need at least 2 product warehouse candidates") for _ in cases]
    if not cases:
        return []
    pairs = sorted(itertools.combinations(candidates, 2))  # so the first minimum wins ties
    rows, supplies, short = _elements(scenario, cases)
    cols = np.array([[candidates.index(w) for w in pair] for pair in pairs])
    bound = _bounds(scenario, rows, cols)
    index, first = np.arange(len(cases)), bound.argmin(axis=1)  # the first smallest bound
    first_total = _totals(scenario, rows, cols[first], supplies)
    keep = bound / (1 + _BOUND_SLACK) <= first_total[:, None]  # all of them if that is inf
    keep[index, first] = False
    case, pair = np.nonzero(keep)
    totals = np.full(bound.shape, math.inf)  # a pair not swept cannot win
    totals[index, first] = first_total
    totals[case, pair] = _totals(scenario, rows[case], cols[pair], [s[case] for s in supplies])
    best, least = totals.argmin(axis=1), totals.min(axis=1)  # argmin keeps the first minimum
    found: list = [(pairs[j], cost) for j, cost in zip(best.tolist(), least.tolist())]
    for c in np.flatnonzero(short | np.isinf(least)).tolist():
        try:
            for pair in itertools.combinations(candidates, 2):
                _check_flow(scenario, *cases[c], pair)
        except (InfeasibleError, ScenarioError) as exc:
            found[c] = exc
    return found
