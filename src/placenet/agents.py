"""Placement situations and the three agents' payoff functions.

Agent 1 owns warehouses and transport, agent 2 owns the plants, agent 3 owns
the stores.  Situations are evaluated independently of each other, and the
enumeration order gives the output columns.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import costflow, production
from .compromise import PayoffMatrix
from .errors import InfeasibleError
from .scenario import Scenario

AGENT_LABELS = ("agent1", "agent2", "agent3")


@dataclass(frozen=True)
class Situation:
    """One concrete placement with its induced choices and flows."""

    plants: tuple[str, str]
    raw_warehouses: dict[str, str]
    product_warehouses: tuple[str, str]
    outputs: dict[str, dict[str, int]]
    flow: costflow.FlowAssignment
    economics: dict[tuple[str, str], production.PlantEconomics]
    plant_raw_requirements: dict[str, dict[str, float]]

    @property
    def label(self) -> str:
        return ",".join(self.plants)


def build_situation(
    scenario: Scenario,
    plants: tuple[str, str],
    warehouse_mode: str = costflow.WEIGHTED,
) -> Situation:
    """Complete a plant pair into a full situation.

    Order of induced choices: output allocation (split override when the
    scenario pins one), per-plant raw requirements, raw warehouse assignment,
    then the product warehouse pair with its greedy flow.
    """
    totals = costflow.total_demand(scenario)
    override = scenario.production.splits.get(frozenset(plants))
    outputs = production.allocate_output(
        totals, plants, scenario.production.capacity_for, override
    )
    requirements = {
        plant: costflow.raw_requirements(outputs[plant], scenario.recipes) for plant in plants
    }
    raw_warehouses = costflow.select_raw_warehouses(
        scenario, plants, requirements, mode=warehouse_mode
    )
    product_warehouses, flow = costflow.select_product_warehouses(scenario, plants, outputs)
    economics = {
        (plant, product): production.plant_economics(
            scenario, plant, product, outputs[plant].get(product, 0)
        )
        for plant in plants
        for product in scenario.product_ids
    }
    return Situation(
        plants=plants,
        raw_warehouses=raw_warehouses,
        product_warehouses=product_warehouses,
        outputs=outputs,
        flow=flow,
        economics=economics,
        plant_raw_requirements=requirements,
    )


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
    situations = []
    for pair in itertools.combinations(scenario.sites.plants, 2):
        try:
            situations.append(build_situation(scenario, pair, warehouse_mode))
        except InfeasibleError as exc:
            if skipped is not None:
                skipped.append((pair, str(exc)))
    return situations


def agent1_components(scenario: Scenario, situation: Situation) -> dict[str, float]:
    """The warehouse/transport agent's income and cost terms, separately.

    Storage income is fee times stored units (all raw requirements, all
    product demand).  Handling costs charge the configured rate of the stored
    good's unit value (extraction cost for raws, plant unit price for
    products) per stored unit; raw transport is charged per route leg and the
    whole store-bound flow cost lands on this agent.
    """
    rate = scenario.handling_rate
    summary = costflow.demand_summary(scenario)

    raw_income = sum(
        scenario.commodities[rid].storage_fee * units
        for rid, units in summary.total_raw_required.items()
    )
    raw_cost = 0.0
    for plant in situation.plants:
        w = scenario.sites.raw_warehouses.index(situation.raw_warehouses[plant])
        p = scenario.sites.plants.index(plant)
        for rid, units in situation.plant_raw_requirements[plant].items():
            if units == 0:
                continue
            route = float(scenario.raw_costs[rid][w, p])
            raw_cost += (route + rate * scenario.commodities[rid].unit_cost) * units

    product_income = sum(
        scenario.commodities[product].storage_fee * units
        for product, units in summary.total_per_product.items()
    )
    product_cost = rate * sum(econ.total_value for econ in situation.economics.values())

    return {
        "raw_income": raw_income,
        "raw_cost": raw_cost,
        "product_income": product_income,
        "product_cost": product_cost,
        "flow_cost": situation.flow.total_cost,
    }


def agent1_payoff(scenario: Scenario, situation: Situation) -> float:
    c = agent1_components(scenario, situation)
    return (
        c["raw_income"]
        - c["raw_cost"]
        + c["product_income"]
        - c["product_cost"]
        - c["flow_cost"]
    )


def agent2_payoff(scenario: Scenario, situation: Situation) -> float:
    """Sum of plant net profits over the situation's allocation."""
    return sum(econ.net_profit for econ in situation.economics.values())


def agent3_revenue(scenario: Scenario) -> float:
    """Retail revenue; fixed by demand and prices, identical in every column."""
    return sum(
        scenario.retail_prices[product] * units
        for per_product in scenario.demand.values()
        for product, units in per_product.items()
    )


def agent3_payoff(scenario: Scenario, situation: Situation) -> float:
    purchase_cost = sum(
        costflow.product_unit_total_cost(scenario, econ.unit_value, econ.product)
        * econ.quantity
        for econ in situation.economics.values()
    )
    return agent3_revenue(scenario) - purchase_cost


def payoff_vector(scenario: Scenario, situation: Situation) -> tuple[float, float, float]:
    return (
        agent1_payoff(scenario, situation),
        agent2_payoff(scenario, situation),
        agent3_payoff(scenario, situation),
    )


def evaluate_all(
    scenario: Scenario,
    situations: list[Situation] | None = None,
    warehouse_mode: str = costflow.WEIGHTED,
) -> PayoffMatrix:
    """Agents-by-situations payoff matrix, columns in enumeration order."""
    if situations is None:
        situations = enumerate_situations(scenario, warehouse_mode)
    if not situations:
        raise InfeasibleError("no feasible situation to evaluate")
    columns = [payoff_vector(scenario, situation) for situation in situations]
    values = np.array(columns, dtype=float).T
    return PayoffMatrix(
        values=values,
        situations=tuple(s.label for s in situations),
        agents=AGENT_LABELS,
    )
