"""Output valuation via the Cobb-Douglas power law, allocation, plant profit."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import InfeasibleError, ScenarioError
from .scenario import Scenario


def cobb_douglas(j_factor: float, k_spend: float, l_spend: float, a: float, b: float) -> float:
    """Output value Q = J * K^a * L^b.

    Zero spend on either input yields zero output.  With a + b = 1 the value
    is homogeneous of degree one, so scaling both spends scales Q linearly.
    """
    if j_factor <= 0:
        raise ScenarioError("production factor must be > 0")
    if k_spend < 0 or l_spend < 0:
        raise ScenarioError("input spends must be >= 0")
    if a <= 0 or b <= 0:
        raise ScenarioError("exponents must be > 0")
    return j_factor * k_spend**a * l_spend**b


def output_value(scenario: Scenario, plant: str, product: str, quantity: float) -> float:
    """Production-function value of a plant's entire release of one product.

    Input spends are the money spent on each raw for the full quantity
    (purchase price times recipe units times quantity); the exponents come
    from the scenario's per-product table.  Generalizes cobb_douglas to any
    number of raws.
    """
    if quantity < 0:
        raise ScenarioError("quantity must be >= 0")
    if quantity == 0:
        return 0.0
    value = scenario.production.factors[plant][product]
    for rid, exponent in scenario.production.exponents[product].items():
        spend = (
            scenario.commodities[rid].purchase_price
            * scenario.recipes[product].get(rid, 0.0)
            * quantity
        )
        try:
            value *= spend**exponent
        except OverflowError:
            value = math.inf
    if not math.isfinite(value):  # an overflow, or an overflow times a zero spend
        raise ScenarioError(f"output value of {product} at plant {plant} overflows")
    return value


@dataclass(frozen=True)
class PlantEconomics:
    """One (plant, product) row: spends, output value, unit value, profit."""

    plant: str
    product: str
    quantity: int
    input_spend: dict[str, float]
    total_value: float

    @property
    def total_input_cost(self) -> float:
        return sum(self.input_spend.values())

    @property
    def unit_value(self) -> float:
        return self.total_value / self.quantity if self.quantity else 0.0

    @property
    def net_profit(self) -> float:
        return self.total_value - self.total_input_cost


def plant_economics(scenario: Scenario, plant: str, product: str, quantity: int) -> PlantEconomics:
    capacity = scenario.production.capacity_for(plant, product)
    if quantity > capacity:
        raise InfeasibleError(
            f"plant {plant} asked to make {quantity} of {product}, capacity {capacity:g}"
        )
    spends = {
        rid: scenario.commodities[rid].purchase_price * per_unit * quantity
        for rid, per_unit in scenario.recipes[product].items()
    }
    return PlantEconomics(
        plant=plant,
        product=product,
        quantity=quantity,
        input_spend=spends,
        total_value=output_value(scenario, plant, product, quantity),
    )


def allocate_output(
    totals: dict[str, int],
    plants: tuple[str, str],
    capacity_for: Callable[[str, str], float],
    split_override: dict[str, dict[str, int]] | None = None,
) -> dict[str, dict[str, int]]:
    """Split total demand across an ordered plant pair.

    Default rule: the first plant produces up to its capacity, the second the
    remainder.  A split override (scenario data) replaces the rule entirely;
    it must conserve demand and respect capacities.
    """
    first, second = plants
    allocation: dict[str, dict[str, int]] = {first: {}, second: {}}
    for product, demand in totals.items():
        cap_first = capacity_for(first, product)
        cap_second = capacity_for(second, product)
        if split_override is not None:
            take_first = split_override.get(first, {}).get(product, 0)
            take_second = split_override.get(second, {}).get(product, 0)
            if take_first + take_second != demand:
                raise InfeasibleError(
                    f"split for {product} allocates {take_first + take_second}, demand is {demand}"
                )
        else:
            take_first = int(min(demand, cap_first))
            take_second = demand - take_first
        if take_first > cap_first or take_second > cap_second:
            raise InfeasibleError(
                f"allocation of {product} exceeds capacity at {first if take_first > cap_first else second}"
            )
        allocation[first][product] = take_first
        allocation[second][product] = take_second
    return allocation

