"""Placement situations and the three agents' payoff matrix.

Agent 1 owns warehouses and transport, agent 2 owns the plants, agent 3 owns
the stores.  Enumeration completes every plant pair together: demand summed
once, allocation and raw requirements pair by pair, each warehouse search as
one batch over all pairs, plant economics once per (plant, product,
quantity).  A situation keeps its flow's cost.  Errors come back in pair
order, each the one a pair-by-pair run meets first, and the enumeration
order gives the output columns.  The payoff matrix computes the terms that
are the same in every situation (storage income, retail revenue) once.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

import numpy as np

from . import costflow, production
from .compromise import PayoffMatrix, _refuse_overflow
from .errors import InfeasibleError, ScenarioError
from .scenario import Scenario

AGENT_LABELS = ("agent1", "agent2", "agent3")


class Situation(NamedTuple):
    """One concrete placement with its induced choices and its flow's cost."""

    plants: tuple[str, str]
    raw_warehouses: dict[str, str]
    product_warehouses: tuple[str, str]
    outputs: dict[str, dict[str, int]]
    flow_cost: float
    economics: dict[tuple[str, str], production.PlantEconomics]
    plant_raw_requirements: dict[str, dict[str, float]]

    @property
    def label(self) -> str:
        return ",".join(self.plants)


def enumerate_situations(
    scenario: Scenario,
    warehouse_mode: str = costflow.WEIGHTED,
    skipped: list[tuple[tuple[str, str], str]] | None = None,
) -> list[Situation]:
    """One situation per unordered plant-candidate pair, in candidate order.

    Infeasible pairs are skipped (recorded in ``skipped`` when a list is
    passed) and the run continues.
    """
    if len(scenario.sites.plants) < 2:
        raise InfeasibleError("need at least 2 plant candidates")
    skipped = [] if skipped is None else skipped
    pairs = list(itertools.combinations(scenario.sites.plants, 2))
    totals = costflow.total_demand(scenario)
    staged = []  # per pair: its stages so far, or the error that ended them
    for plants in pairs:
        try:
            outputs = production.allocate_output(totals, plants, scenario.production.capacity_for,
                                                 scenario.production.splits.get(frozenset(plants)))
            requirements = {plant: costflow.raw_requirements(outputs[plant], scenario.recipes)
                            for plant in plants}
            staged.append((plants, outputs, requirements))
        except (InfeasibleError, ScenarioError) as exc:
            staged.append(exc)
    raw_search = functools.partial(costflow.select_raw_warehouses, mode=warehouse_mode)
    # Each search runs once over the pairs without an error: the cases are (plants,
    # requirements), stage field 2, then (plants, outputs), field 1.
    for search, field in ((raw_search, 2), (costflow.select_product_warehouses, 1)):
        live = [k for k, stage in enumerate(staged) if not isinstance(stage, Exception)]
        cases = [(staged[k][0], staged[k][field]) for k in live]
        for k, result in zip(live, search(scenario, cases)):
            staged[k] = result if isinstance(result, Exception) else (*staged[k], result)
    economics = functools.cache(lambda *key: production.plant_economics(scenario, *key))
    situations = []
    for plants, stage in zip(pairs, staged):
        if isinstance(stage, InfeasibleError):
            skipped.append((plants, str(stage)))
            continue
        if isinstance(stage, Exception):
            raise stage
        _, outputs, requirements, raws, (warehouses, cost) = stage
        economy = {
            (plant, product): economics(plant, product, outputs[plant][product])
            for plant in plants
            for product in scenario.product_ids
        }
        situations.append(Situation(plants, raws, warehouses, outputs, cost, economy, requirements))
    return situations


def storage_income(scenario: Scenario) -> tuple[float, float]:
    """Storage fee times stored units, (raws, products): all raw requirements
    and all product demand, the same in every situation."""
    totals = costflow.total_demand(scenario)
    stored = costflow.raw_requirements(totals, scenario.recipes), totals
    return tuple(
        sum(scenario.commodities[cid].storage_fee * units for cid, units in group.items())
        for group in stored
    )


def agent1_components(
    scenario: Scenario, situation: Situation, income: tuple[float, float] | None = None
) -> dict[str, float]:
    """The warehouse/transport agent's income and cost terms, separately.

    Storage income is ``storage_income`` (computed when ``income`` is not
    passed).  Handling costs charge the configured rate of the stored good's
    unit value (extraction cost for raws, plant unit price for products) per
    stored unit; raw transport is charged per route leg and the whole
    store-bound flow cost lands on this agent.
    """
    rate = scenario.handling_rate
    raw_income, product_income = storage_income(scenario) if income is None else income
    raw_cost = 0.0
    for plant in situation.plants:
        w = scenario.sites.raw_warehouses.index(situation.raw_warehouses[plant])
        p = scenario.sites.plants.index(plant)
        for rid, units in situation.plant_raw_requirements[plant].items():
            if units == 0:
                continue
            route = float(scenario.raw_costs[rid][w, p])
            raw_cost += (route + rate * scenario.commodities[rid].unit_cost) * units

    product_cost = rate * sum(econ.total_value for econ in situation.economics.values())

    return {
        "raw_income": raw_income,
        "raw_cost": raw_cost,
        "product_income": product_income,
        "product_cost": product_cost,
        "flow_cost": situation.flow_cost,
    }


def agent3_revenue(scenario: Scenario) -> float:
    """Retail revenue; fixed by demand and prices, identical in every column."""
    return sum(
        scenario.retail_prices[product] * units
        for per_product in scenario.demand.values()
        for product, units in per_product.items()
    )


def evaluate_all(scenario: Scenario, situations: list[Situation]) -> PayoffMatrix:
    """Agents-by-situations payoff matrix, columns in situation order.

    Agent 1 nets its ``agent1_components``; agent 2 earns the plants' net
    profits; agent 3 earns the retail revenue less what it pays for the
    products, unit value plus storage fee per unit.  A payoff past the float
    range is refused, naming its agent and situation.
    """
    if not situations:
        raise InfeasibleError("no feasible situation to evaluate")
    income, revenue = storage_income(scenario), agent3_revenue(scenario)
    columns = []
    for situation in situations:
        c = agent1_components(scenario, situation, income)
        agent1 = c["raw_income"] - c["raw_cost"] + c["product_income"] - c["product_cost"]
        economics = situation.economics.values()
        purchase_cost = sum(
            (e.unit_value + scenario.commodities[e.product].storage_fee) * e.quantity
            for e in economics
        )
        agent2 = sum(e.net_profit for e in economics)
        columns.append((agent1 - c["flow_cost"], agent2, revenue - purchase_cost))
    labels = tuple(s.label for s in situations)
    values = _refuse_overflow(np.array(columns, dtype=float).T, AGENT_LABELS, labels, "payoff")
    return PayoffMatrix(values=values, situations=labels, agents=AGENT_LABELS)
