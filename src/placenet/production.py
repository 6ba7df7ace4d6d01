"""Output valuation via the Cobb-Douglas power law, allocation, plant profit."""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

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


class PlantEconomics(NamedTuple):
    """One (plant, product) row: input cost, output value, unit value, profit."""

    plant: str
    product: str
    quantity: int
    input_cost: float
    total_value: float

    @property
    def unit_value(self) -> float:
        return self.total_value / self.quantity if self.quantity else 0.0

    @property
    def net_profit(self) -> float:
        return self.total_value - self.input_cost


def plant_economics(scenario: Scenario, plant: str, product: str, quantity: int) -> PlantEconomics:
    """A plant's economics for its entire release of one product.

    Input spends are the money spent on each raw for the full quantity
    (purchase price times recipe units times quantity).  The output value is
    the production function over them, ``cobb_douglas`` generalized to any
    number of raws, with the scenario's per-product exponents.
    """
    capacity = scenario.production.capacity_for(plant, product)
    if not 0 <= quantity <= capacity:
        raise InfeasibleError(
            f"plant {plant} asked to make {quantity} of {product}, capacity {capacity:g}"
        )
    spends = {
        rid: scenario.commodities[rid].purchase_price * per_unit * quantity
        for rid, per_unit in scenario.recipes[product].items()
    }
    value = 0.0
    if quantity:
        powers = (spends[rid] ** e for rid, e in scenario.production.exponents[product].items())
        try:
            value = math.prod(powers, start=scenario.production.factors[plant][product])
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):  # an overflow, or an overflow times a zero spend
            raise ScenarioError(f"output value of {product} at plant {plant} overflows")
    return PlantEconomics(plant, product, quantity, sum(spends.values()), value)


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

