import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from placenet import (
    InfeasibleError,
    Scenario,
    TransportInstance,
    build_situation,
    greedy_flow,
    product_unit_total_cost,
    raw_requirements,
    select_product_warehouses,
    select_raw_warehouses,
    solve_transportation,
    total_demand,
)
from placenet.cli import main as placenet_main
from placenet.costflow import FlowAssignment, Shipment
from conftest import leg_scenario, route_cost


class TestTotalDemand:
    def test_fixture_totals(self, s8):
        assert total_demand(s8) == {"b1": 17, "b2": 17, "b3": 16}

    def test_all_zero(self):
        scenario = leg_scenario(
            plants={"P": {"W": {"p1": 1}}},
            warehouses={"W": {"S": {"p1": 1}}},
            demand={"S": {"p1": 0}},
            capacity={"P": {"p1": 100}},
        )
        assert total_demand(scenario) == {"p1": 0}

    def test_componentwise_sum(self):
        scenario = leg_scenario(
            plants={"P": {"W": {"pa": 1, "pb": 1, "pc": 1}}},
            warehouses={"W": {"S1": {"pa": 1, "pb": 1, "pc": 1}, "S2": {"pa": 1, "pb": 1, "pc": 1}}},
            demand={"S1": {"pa": 1, "pb": 2, "pc": 3}, "S2": {"pa": 4, "pb": 0, "pc": 1}},
            products=("pa", "pb", "pc"),
            capacity={"P": {"pa": 100, "pb": 100, "pc": 100}},
        )
        assert total_demand(scenario) == {"pa": 5, "pb": 2, "pc": 4}


class TestRawRequirements:
    def test_fixture_requirements(self, s8):
        assert raw_requirements(total_demand(s8), s8.recipes) == {"a1": 66, "a2": 67}

    def test_zero_demand(self, s8):
        zeros = {p: 0 for p in s8.product_ids}
        assert raw_requirements(zeros, s8.recipes) == {"a1": 0, "a2": 0}

    def test_hand_multiplication(self):
        assert raw_requirements({"p": 4}, {"p": {"r1": 2, "r2": 3}}) == {"r1": 8, "r2": 12}

    def test_missing_recipe(self):
        with pytest.raises(Exception, match="no recipe"):
            raw_requirements({"p": 1}, {})

    def test_linearity(self, s8):
        rng = random.Random(3)
        for _ in range(50):
            d1 = {p: rng.randint(0, 9) for p in s8.product_ids}
            d2 = {p: rng.randint(0, 9) for p in s8.product_ids}
            a, b = rng.randint(0, 4), rng.randint(0, 4)
            combined = {p: a * d1[p] + b * d2[p] for p in s8.product_ids}
            r1 = raw_requirements(d1, s8.recipes)
            r2 = raw_requirements(d2, s8.recipes)
            rc = raw_requirements(combined, s8.recipes)
            for rid in rc:
                assert rc[rid] == a * r1[rid] + b * r2[rid]


class TestProductUnitTotalCost:
    def test_situation_one_value(self, s8):
        assert product_unit_total_cost(s8, 38.15, "b1") == pytest.approx(57.15)

    def test_zero(self):
        scenario = leg_scenario(
            plants={"P": {"W": {"p1": 1}}},
            warehouses={"W": {"S": {"p1": 1}}},
            demand={"S": {"p1": 0}},
        )
        fee_free = scenario.to_dict()
        fee_free["commodities"][1]["storage_fee"] = 0
        from placenet import Scenario

        assert product_unit_total_cost(Scenario.from_dict(fee_free), 0.0, "p1") == 0

    def test_situation_two_value(self, s8):
        assert product_unit_total_cost(s8, 61.70, "b2") == pytest.approx(94.70)


class TestGreedyFlow:
    def test_fixture_first_situation_b1_assignment(self, s8):
        outputs = {
            "x7": {"b1": 7, "b2": 10, "b3": 10},
            "x12": {"b1": 10, "b2": 7, "b3": 6},
        }
        flow = greedy_flow(s8, ("x7", "x12"), outputs, ("x8", "x11"))
        b1 = {
            store: [(s.plant, s.units) for s in flow.shipments[("b1", store)]]
            for store in ("x14", "x15", "x16", "x17")
        }
        assert b1["x14"] == [("x7", 5)]
        assert b1["x15"] == [("x7", 2), ("x12", 3)]
        assert b1["x16"] == [("x12", 4)]
        assert b1["x17"] == [("x12", 3)]

    def test_fixture_first_situation_total_cost(self, s8):
        # Hand-checked cheapest-first fill over the fixture leg tables:
        # b1 = 46, b2 = 90, b3 = 70.
        outputs = {
            "x7": {"b1": 7, "b2": 10, "b3": 10},
            "x12": {"b1": 10, "b2": 7, "b3": 6},
        }
        flow = greedy_flow(s8, ("x7", "x12"), outputs, ("x8", "x11"))
        assert flow.total_cost == 206

    def test_single_full_shipment(self):
        scenario = leg_scenario(
            plants={"P": {"W": {"p1": 2}}},
            warehouses={"W": {"S": {"p1": 3}}},
            demand={"S": {"p1": 4}},
        )
        flow = greedy_flow(scenario, ("P",), {"P": {"p1": 4}}, ("W",))
        assert flow.shipments[("p1", "S")] == (
            flow.shipments[("p1", "S")][0],
        )
        assert flow.shipments[("p1", "S")][0].units == 4
        assert flow.total_cost == 20

    def test_insufficient_output_is_infeasible(self, s8):
        outputs = {
            "x7": {"b1": 7, "b2": 10, "b3": 10},
            "x12": {"b1": 9, "b2": 7, "b3": 6},
        }
        with pytest.raises(InfeasibleError, match="cannot cover|cover"):
            greedy_flow(s8, ("x7", "x12"), outputs, ("x8", "x11"))

    def test_conservation(self):
        rng = random.Random(11)
        for _ in range(60):
            stores = [f"S{i}" for i in range(rng.randint(1, 4))]
            demand = {s: {"p1": rng.randint(0, 8)} for s in stores}
            total = sum(d["p1"] for d in demand.values())
            first = rng.randint(0, total)
            scenario = leg_scenario(
                plants={
                    "P1": {"W1": {"p1": rng.randint(1, 9)}, "W2": {"p1": rng.randint(1, 9)}},
                    "P2": {"W1": {"p1": rng.randint(1, 9)}, "W2": {"p1": rng.randint(1, 9)}},
                },
                warehouses={
                    "W1": {s: {"p1": rng.randint(1, 9)} for s in stores},
                    "W2": {s: {"p1": rng.randint(1, 9)} for s in stores},
                },
                demand=demand,
                capacity={"P1": {"p1": 100}, "P2": {"p1": 100}},
            )
            outputs = {"P1": {"p1": first}, "P2": {"p1": total - first}}
            flow = greedy_flow(scenario, ("P1", "P2"), outputs, ("W1", "W2"))
            shipped = {s: 0 for s in stores}
            per_plant = {"P1": 0, "P2": 0}
            for (product, store), entries in flow.shipments.items():
                for shipment in entries:
                    shipped[store] += shipment.units
                    per_plant[shipment.plant] += shipment.units
            assert shipped == {s: demand[s]["p1"] for s in stores}
            for plant, used in per_plant.items():
                assert used <= outputs[plant]["p1"]

    def test_store_relabeling_invariance_with_distinct_costs(self):
        rng = random.Random(23)
        for _ in range(20):
            costs = rng.sample(range(1, 60), 6)
            def build(order):
                return leg_scenario(
                    plants={"P1": {"W": {"p1": 0}}, "P2": {"W": {"p1": 30}}},
                    warehouses={
                        "W": {
                            order[0]: {"p1": costs[0]},
                            order[1]: {"p1": costs[1]},
                            order[2]: {"p1": costs[2]},
                        }
                    },
                    demand={order[0]: {"p1": 3}, order[1]: {"p1": 4}, order[2]: {"p1": 5}},
                    capacity={"P1": {"p1": 100}, "P2": {"p1": 100}},
                )

            outputs = {"P1": {"p1": 6}, "P2": {"p1": 6}}
            base = greedy_flow(build(["A", "B", "C"]), ("P1", "P2"), outputs, ("W",))
            relabeled = greedy_flow(build(["C", "A", "B"]), ("P1", "P2"), outputs, ("W",))
            # Same multiset of store demands and costs, relabeled: equal total.
            assert base.total_cost == relabeled.total_cost


class TestWarehouseSelection:
    def test_raw_selection_first_situation(self, s8):
        situation = build_situation(s8, ("x7", "x12"))
        assert situation.raw_warehouses == {"x7": "x2", "x12": "x5"}

    def test_raw_selection_second_situation(self, s8):
        situation = build_situation(s8, ("x7", "x13"))
        assert situation.raw_warehouses == {"x7": "x2", "x13": "x3"}

    def test_raw_selection_tie_breaks_lexicographically(self):
        scenario = leg_scenario(
            plants={"P1": {"W": {"p1": 1}}, "P2": {"W": {"p1": 1}}},
            warehouses={"W": {"S": {"p1": 1}}},
            demand={"S": {"p1": 4}},
            capacity={"P1": {"p1": 100}, "P2": {"p1": 100}},
        )
        requirements = {"P1": {"r0": 2.0}, "P2": {"r0": 2.0}}
        choice = select_raw_warehouses(scenario, ("P1", "P2"), requirements)
        # RW0 is strictly cheaper, so either assignment has equal total only
        # between the two plants; the smaller tuple (RW0 first) must win.
        assert choice == {"P1": "RW0", "P2": "RW1"}

    def test_fewer_candidates_than_plants(self):
        scenario = leg_scenario(
            plants={"P1": {"W": {"p1": 1}}, "P2": {"W": {"p1": 1}}, "P3": {"W": {"p1": 1}}},
            warehouses={"W": {"S": {"p1": 1}}},
            demand={"S": {"p1": 1}},
        )
        with pytest.raises(InfeasibleError, match="candidates"):
            select_raw_warehouses(
                scenario, ("P1", "P2", "P3"), {p: {"r0": 1.0} for p in ("P1", "P2", "P3")}
            )

    def test_product_pair_first_situation(self, s8):
        outputs = {
            "x7": {"b1": 7, "b2": 10, "b3": 10},
            "x12": {"b1": 10, "b2": 7, "b3": 6},
        }
        pair, _flow = select_product_warehouses(s8, ("x7", "x12"), outputs)
        assert pair == ("x8", "x11")

    def test_product_pair_second_situation(self, s8):
        outputs = {
            "x7": {"b1": 7, "b2": 10, "b3": 10},
            "x13": {"b1": 10, "b2": 7, "b3": 6},
        }
        pair, _flow = select_product_warehouses(s8, ("x7", "x13"), outputs)
        assert pair == ("x8", "x10")

    def test_single_possible_pair(self):
        scenario = leg_scenario(
            plants={"P": {"W1": {"p1": 1}, "W2": {"p1": 5}}},
            warehouses={"W1": {"S": {"p1": 1}}, "W2": {"S": {"p1": 1}}},
            demand={"S": {"p1": 2}},
        )
        pair, flow = select_product_warehouses(scenario, ("P",), {"P": {"p1": 2}})
        assert pair == ("W1", "W2")
        assert flow.total_cost == 4

    def test_unit_mode_ignores_requirement_weights(self):
        from placenet import Scenario

        doc = {
            "name": "asymmetric-raw",
            "nodes": [
                {"id": n, "x": i, "y": 0}
                for i, n in enumerate(["RX", "RW0", "RW1", "P1", "P2", "W1", "W2", "S"])
            ],
            "edges": [
                {"from": "RX", "to": "RW0", "cost": {"r0": 1}},
                {"from": "RX", "to": "RW1", "cost": {"r0": 2}},
                {"from": "RW0", "to": "P1", "cost": {"r0": 1}},
                {"from": "RW0", "to": "P2", "cost": {"r0": 1}},
                {"from": "RW1", "to": "P1", "cost": {"r0": 2}},
                {"from": "RW1", "to": "P2", "cost": {"r0": 10}},
                {"from": "P1", "to": "W1", "cost": {"p1": 1}},
                {"from": "P1", "to": "W2", "cost": {"p1": 1}},
                {"from": "P2", "to": "W1", "cost": {"p1": 1}},
                {"from": "P2", "to": "W2", "cost": {"p1": 1}},
                {"from": "W1", "to": "S", "cost": {"p1": 1}},
                {"from": "W2", "to": "S", "cost": {"p1": 1}},
            ],
            "commodities": [
                {"id": "r0", "kind": "raw", "unit_cost": 1, "purchase_price": 1, "storage_fee": 1},
                {"id": "p1", "kind": "product", "storage_fee": 1},
            ],
            "recipes": {"p1": {"r0": 1}},
            "sites": {
                "extraction": {"r0": "RX"},
                "raw_warehouses": ["RW0", "RW1"],
                "plants": ["P1", "P2"],
                "product_warehouses": ["W1", "W2"],
                "stores": ["S"],
            },
            "demand": {"stores": {"S": {"p1": 11}}, "retail_prices": {"p1": 10}},
            "production": {
                "factors": {"P1": {"p1": 1.0}, "P2": {"p1": 1.0}},
                "exponents": {"p1": {"r0": 1.0}},
                "capacity": {"P1": {"p1": 10}, "P2": {"p1": 10}},
            },
        }
        scenario = Scenario.from_dict(doc)
        requirements = {"P1": {"r0": 10.0}, "P2": {"r0": 1.0}}
        # routes: P1 via RW0 = 2, via RW1 = 4; P2 via RW0 = 2, via RW1 = 12
        weighted = select_raw_warehouses(scenario, ("P1", "P2"), requirements, mode="weighted")
        unit = select_raw_warehouses(scenario, ("P1", "P2"), requirements, mode="unit")
        assert weighted == {"P1": "RW0", "P2": "RW1"}  # 2*10 + 12*1 < 4*10 + 2*1
        assert unit == {"P1": "RW1", "P2": "RW0"}  # 4 + 2 < 2 + 12

    def test_selected_pair_is_pairwise_optimal(self, s8):
        import itertools

        outputs = {
            "x7": {"b1": 7, "b2": 10, "b3": 10},
            "x12": {"b1": 10, "b2": 7, "b3": 6},
        }
        best_pair, best_flow = select_product_warehouses(s8, ("x7", "x12"), outputs)
        for pair in itertools.combinations(s8.sites.product_warehouses, 2):
            flow = greedy_flow(s8, ("x7", "x12"), outputs, pair)
            assert best_flow.total_cost <= flow.total_cost


# ---------------------------------------------------------------------------
# Scalar oracle: the per-cell route-cost code the array-backed costflow
# replaced, kept verbatim in behaviour (one Dijkstra route cost per leg, the
# same loops, tie rules and error messages).


def oracle_raw_route_cost(scenario, raw_id, warehouse, plant):
    source = scenario.sites.extraction[raw_id]
    leg_in = route_cost(scenario, raw_id, source, warehouse)
    leg_out = route_cost(scenario, raw_id, warehouse, plant)
    if math.isinf(leg_in) or math.isinf(leg_out):
        raise InfeasibleError(f"no {raw_id} route {source} -> {warehouse} -> {plant}")
    return leg_in + leg_out


def oracle_ship_unit_cost(scenario, plant, warehouses, store, product):
    best = None
    for warehouse in warehouses:
        cost = route_cost(scenario, product, plant, warehouse) + route_cost(
            scenario, product, warehouse, store
        )
        if best is None or cost < best[0] or (cost == best[0] and warehouse < best[1]):
            best = (cost, warehouse)
    if math.isinf(best[0]):
        raise InfeasibleError(f"no {product} route from {plant} to {store} via {warehouses}")
    return best


def oracle_greedy_flow(scenario, plants, outputs, warehouses):
    store_order = {store: i for i, store in enumerate(scenario.sites.stores)}
    plant_order = {plant: i for i, plant in enumerate(plants)}
    shipments = {}
    total_cost = 0.0
    for product in scenario.product_ids:
        supply = {plant: outputs.get(plant, {}).get(product, 0) for plant in plants}
        demand = {store: scenario.demand[store].get(product, 0) for store in scenario.sites.stores}
        if sum(supply.values()) < sum(demand.values()):
            raise InfeasibleError(
                f"outputs of {product} ({sum(supply.values())}) cannot cover "
                f"demand ({sum(demand.values())})"
            )
        cells = []
        for plant in plants:
            for store in scenario.sites.stores:
                cost, via = oracle_ship_unit_cost(scenario, plant, warehouses, store, product)
                cells.append((cost, store_order[store], plant_order[plant], plant, store, via))
        cells.sort(key=lambda c: c[:3])
        for cost, _s, _p, plant, store, via in cells:
            units = min(supply[plant], demand[store])
            if units <= 0:
                continue
            supply[plant] -= units
            demand[store] -= units
            shipments.setdefault((product, store), []).append(Shipment(plant, units, via, cost))
            total_cost += units * cost
        if any(v > 0 for v in demand.values()):
            raise InfeasibleError(f"demand for {product} left unfilled after greedy pass")
    return FlowAssignment({key: tuple(v) for key, v in shipments.items()}, total_cost)


def oracle_select_raw_warehouses(scenario, plants, requirements, mode="weighted"):
    candidates = scenario.sites.raw_warehouses
    if len(candidates) < len(plants):
        raise InfeasibleError(f"{len(candidates)} raw warehouse candidates for {len(plants)} plants")
    best_choice, best_cost = None, math.inf
    for choice in itertools.permutations(candidates, len(plants)):
        cost = 0.0
        for plant, warehouse in zip(plants, choice):
            for rid in scenario.raw_ids:
                weight = requirements[plant].get(rid, 0.0) if mode == "weighted" else 1.0
                if weight == 0.0:
                    continue
                cost += oracle_raw_route_cost(scenario, rid, warehouse, plant) * weight
        if cost < best_cost or (cost == best_cost and choice < best_choice):
            best_choice, best_cost = choice, cost
    return dict(zip(plants, best_choice))


def oracle_select_product_warehouses(scenario, plants, outputs):
    candidates = scenario.sites.product_warehouses
    if len(candidates) < 2:
        raise InfeasibleError("need at least 2 product warehouse candidates")
    best = None
    for pair in itertools.combinations(candidates, 2):
        flow = oracle_greedy_flow(scenario, plants, outputs, pair)
        if (
            best is None
            or flow.total_cost < best[1].total_cost
            or (flow.total_cost == best[1].total_cost and pair < best[0])
        ):
            best = (pair, flow)
    return best


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
            "stores": demand or {s: {p: 2 for p in products} for s in stores},
            "retail_prices": {p: 10 for p in products},
        },
        "production": production,
    }


def outcome(call, *args):
    """A call's result, or the type and message of what it raised."""
    try:
        result = call(*args)
    except (InfeasibleError, ValueError) as exc:
        return type(exc), str(exc)
    if isinstance(result, tuple):  # (pair, flow): keep the shipment order too
        return result[0], list(result[1].shipments.items()), result[1].total_cost
    if isinstance(result, FlowAssignment):
        return list(result.shipments.items()), result.total_cost
    return result


@st.composite
def leg_cases(draw):
    """Small leg scenarios with integer costs, so equal costs are common.

    Candidate orders are drawn, so string order (W10 < W8 < W9) and site
    order disagree; some draws leave commodities off legs (inf routes) or
    give plants too little output.
    """

    def order(ids, n):
        return draw(st.permutations(ids))[:n]

    plants = order(["P8", "P9", "P10"], draw(st.integers(1, 2)))
    raws = order(["r1", "r2"], draw(st.integers(1, 2)))
    products = order(["p1", "p2"], draw(st.integers(1, 2)))
    raw_warehouses = order(["R8", "R9", "R10"], draw(st.integers(len(plants), 3)))
    warehouses = order(["W8", "W9", "W10"], draw(st.sampled_from([1, 2, 3, 3])))
    stores = order(["S8", "S9", "S10"], draw(st.integers(1, 3)))
    leg = st.sampled_from([None, 0, 1, 2, 3]) if draw(st.booleans()) else st.integers(0, 3)
    doc = network_doc(
        lambda c, t, h: draw(leg),
        plants=plants,
        raws=tuple(raws),
        products=tuple(products),
        raw_warehouses=raw_warehouses,
        warehouses=warehouses,
        stores=stores,
        demand={s: {p: draw(st.integers(0, 3)) for p in products} for s in stores},
    )
    scenario = Scenario.from_dict(doc)
    outputs = {plant: {p: draw(st.integers(0, 9)) for p in products} for plant in plants}
    requirements = {plant: {rid: float(draw(st.integers(0, 3))) for rid in raws} for plant in plants}
    subset = tuple(order(warehouses, draw(st.integers(1, len(warehouses)))))
    mode = draw(st.sampled_from(["weighted", "unit"]))
    return scenario, tuple(plants), outputs, requirements, subset, mode


class TestOracleEquivalence:
    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(leg_cases())
    def test_matches_scalar_code_exactly(self, case):
        scenario, plants, outputs, requirements, subset, mode = case
        assert outcome(greedy_flow, scenario, plants, outputs, subset) == outcome(
            oracle_greedy_flow, scenario, plants, outputs, subset
        )
        assert outcome(select_product_warehouses, scenario, plants, outputs) == outcome(
            oracle_select_product_warehouses, scenario, plants, outputs
        )
        assert outcome(select_raw_warehouses, scenario, plants, requirements, mode) == outcome(
            oracle_select_raw_warehouses, scenario, plants, requirements, mode
        )

    def test_fixture_matches_scalar_code(self, s8):
        for plants in itertools.combinations(s8.sites.plants, 2):
            situation = build_situation(s8, plants)
            pair, flow = oracle_select_product_warehouses(s8, plants, situation.outputs)
            assert situation.product_warehouses == pair
            assert list(situation.flow.shipments.items()) == list(flow.shipments.items())
            assert situation.flow.total_cost == flow.total_cost
            assert situation.raw_warehouses == oracle_select_raw_warehouses(
                s8, plants, situation.plant_raw_requirements
            )


class TestTransportationBound:
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(leg_cases())
    def test_greedy_flow_costs_at_least_the_transportation_optimum(self, case):
        """Cheapest-first is one feasible plan of the plant x store transportation
        problem that the warehouse minimum prices, so it never beats its optimum."""
        scenario, plants, outputs, _, warehouses, _ = case
        try:
            flow = greedy_flow(scenario, plants, outputs, warehouses)
        except InfeasibleError:
            return
        stores = scenario.sites.stores
        optimum = 0.0
        for product in scenario.product_ids:
            instance = TransportInstance(
                supply=tuple(outputs[plant].get(product, 0) for plant in plants),
                demand=tuple(scenario.demand[store].get(product, 0) for store in stores),
                costs=tuple(
                    tuple(
                        oracle_ship_unit_cost(scenario, plant, warehouses, store, product)[0]
                        for store in stores
                    )
                    for plant in plants
                ),
            )
            optimum += solve_transportation(instance).objective
        assert flow.total_cost >= optimum - 1e-9


def only(commodity, tail, heads):
    """Unit legs, except that ``commodity`` leaves ``tail`` towards ``heads`` only."""
    return lambda c, t, h: None if (c == commodity and t == tail and h not in heads) else 1


class TestErrorPaths:
    """Skip reasons are part of the report; these strings are pinned."""

    def solve_skipped(self, tmp_path, doc):
        scenario, report = tmp_path / "scenario.json", tmp_path / "report.json"
        scenario.write_text(json.dumps(doc))
        args = ["solve", "-s", str(scenario), "--format", "json", "--out", str(report)]
        assert placenet_main(args) == 0
        payload = json.loads(report.read_text())
        assert payload["selection"]["situations"] == ["P1,P2"]
        return {s["plants"]: s["reason"] for s in payload["skipped"]}

    def test_unreachable_product_route(self, tmp_path):
        doc = network_doc(only("p1", "P3", ("W10",)), plants=("P1", "P2", "P3"))
        assert self.solve_skipped(tmp_path, doc) == {
            "P1,P3": "no p1 route from P3 to S8 via ('W8', 'W9')",
            "P2,P3": "no p1 route from P3 to S8 via ('W8', 'W9')",
        }

    def test_unreachable_raw_route(self, tmp_path):
        # r1 reaches P3 only through R9, so the first assignment in candidate
        # order that fails sends P3 through R10 (string order would say R8).
        doc = network_doc(
            lambda c, t, h: None if (c == "r1" and h == "P3" and t != "R9") else 1,
            plants=("P1", "P2", "P3"),
            demand={"S8": {"p1": 8}, "S10": {"p1": 8}},
        )
        assert self.solve_skipped(tmp_path, doc) == {
            "P1,P3": "no r1 route Xr1 -> R10 -> P3",
            "P2,P3": "no r1 route Xr1 -> R10 -> P3",
        }

    def test_shortfall_in_product_after_unreachable_one(self, tmp_path):
        doc = network_doc(
            only("p1", "P3", ("W10",)),
            plants=("P1", "P2", "P3"),
            products=("p1", "p2"),
            demand={"S8": {"p1": 6, "p2": 6}, "S10": {"p1": 6, "p2": 6}},
            capacity={"P3": {"p2": 1}},
        )
        assert self.solve_skipped(tmp_path, doc) == {
            "P1,P3": "allocation of p2 exceeds capacity at P3",
            "P2,P3": "allocation of p2 exceeds capacity at P3",
        }

    @pytest.mark.parametrize("commodity", ["r2", "p2"])
    def test_commodity_no_edge_carries_is_invalid_input(self, tmp_path, capsys, commodity):
        doc = network_doc(
            lambda c, t, h: None if c == commodity else 1,
            plants=("P1", "P2", "P3"),
            raws=("r1", "r2"),
            products=("p1", "p2"),
        )
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc))
        assert placenet_main(["solve", "-s", str(scenario), "--format", "json"]) == 2
        assert capsys.readouterr().err == f"error: no edge carries commodity {commodity!r}\n"

    @pytest.mark.parametrize(
        "heads, p2_output, error, message",
        [
            # p1 is unreachable in the first pair: it is checked before p2's shortfall
            ("W10", 1, InfeasibleError, "no p1 route from P3 to S8 via ('W8', 'W9')"),
            # p1 is unreachable in a later pair only: the first pair meets the shortfall
            ("W8", 1, InfeasibleError, "outputs of p2 (3) cannot cover demand (4)"),
            ("W8", 2, InfeasibleError, "no p1 route from P3 to S8 via ('W9', 'W10')"),
        ],
        ids=["W10-1-Unreachable", "W8-1-Infeasible", "W8-2-Unreachable"],
    )
    def test_pair_search_raises_first_error_of_the_pair_loop(
        self, heads, p2_output, error, message
    ):
        scenario = Scenario.from_dict(
            network_doc(only("p1", "P3", (heads,)), plants=("P1", "P3"), products=("p1", "p2"))
        )
        outputs = {"P1": {"p1": 2, "p2": p2_output}, "P3": {"p1": 2, "p2": 2}}
        with pytest.raises(error) as caught:
            select_product_warehouses(scenario, ("P1", "P3"), outputs)
        assert type(caught.value) is error and str(caught.value) == message
