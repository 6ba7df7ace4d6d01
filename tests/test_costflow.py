import functools
import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from placenet import (
    InfeasibleError,
    PlantEconomics,
    Scenario,
    ScenarioError,
    TransportInstance,
    allocate_output,
    enumerate_situations,
    evaluate_all,
    greedy_flows,
    load_scenario,
    plant_economics,
    raw_requirements,
    select_product_warehouses,
    select_raw_warehouses,
    solve_transportation,
    total_demand,
)
from placenet import costflow
from placenet.agents import agent3_revenue
from placenet.cli import main as placenet_main
from placenet.costflow import FlowAssignment, Shipment
from conftest import (
    bench_scenario,
    dijkstra_distances,
    edge_triples,
    leg_document,
    leg_scenario,
    network_doc,
    route_cost,
)


def one_flow(scenario, plants, outputs, warehouses):
    """The flow of one (plants, outputs, warehouses) case."""
    (flow,) = greedy_flows(scenario, [(plants, outputs, warehouses)])
    return flow


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
        with pytest.raises(ScenarioError, match="^no recipe for product 'p'$"):
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


def product_unit_total_cost(scenario, plant_unit_price, product):
    """Store-side unit cost, plant price plus the product storage fee, as the
    payoff matrix charges agent 3: its first situation, made to release one
    unit of ``product`` at ``plant_unit_price``."""
    situation = enumerate_situations(scenario)[0]
    plant = situation.plants[0]
    release = PlantEconomics(plant, product, 1, 0.0, plant_unit_price)
    situation = situation._replace(economics={(plant, product): release})
    return agent3_revenue(scenario) - evaluate_all(scenario, [situation]).values[2, 0]


class TestProductUnitTotalCost:
    def test_situation_one_value(self, s8):
        assert product_unit_total_cost(s8, 38.15, "b1") == pytest.approx(57.15)

    def test_zero(self):
        fee_free = leg_document(
            plants={"P1": {"W1": {"p1": 1}, "W2": {"p1": 1}}, "P2": {"W1": {"p1": 1}, "W2": {"p1": 1}}},
            warehouses={"W1": {"S": {"p1": 1}}, "W2": {"S": {"p1": 1}}},
            demand={"S": {"p1": 0}},
        )
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
        flow = one_flow(s8, ("x7", "x12"), outputs, ("x8", "x11"))
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
        flow = one_flow(s8, ("x7", "x12"), outputs, ("x8", "x11"))
        assert flow.total_cost == 206

    def test_single_full_shipment(self):
        scenario = leg_scenario(
            plants={"P": {"W": {"p1": 2}}},
            warehouses={"W": {"S": {"p1": 3}}},
            demand={"S": {"p1": 4}},
        )
        flow = one_flow(scenario, ("P",), {"P": {"p1": 4}}, ("W",))
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
            one_flow(s8, ("x7", "x12"), outputs, ("x8", "x11"))

    def test_negative_output_ships_nothing(self):
        scenario = leg_scenario(
            plants={"P1": {"W": {"p1": 1}}, "P2": {"W": {"p1": 5}}},
            warehouses={"W": {"S": {"p1": 1}}},
            demand={"S": {"p1": 4}},
            capacity={"P1": {"p1": 100}, "P2": {"p1": 100}},
        )
        outputs = {"P1": {"p1": -2}, "P2": {"p1": 6}}
        flow = one_flow(scenario, ("P1", "P2"), outputs, ("W",))
        assert flow.shipments == {("p1", "S"): (Shipment("P2", 4, "W", 6.0),)}
        assert flow.total_cost == 24

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
            flow = one_flow(scenario, ("P1", "P2"), outputs, ("W1", "W2"))
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
            base = one_flow(build(["A", "B", "C"]), ("P1", "P2"), outputs, ("W",))
            relabeled = one_flow(build(["C", "A", "B"]), ("P1", "P2"), outputs, ("W",))
            # Same multiset of store demands and costs, relabeled: equal total.
            assert base.total_cost == relabeled.total_cost


class TestWarehouseSelection:
    def test_raw_selection_first_situation(self, s8):
        situation = enumerate_situations(s8)[0]
        assert situation.plants == ("x7", "x12")
        assert situation.raw_warehouses == {"x7": "x2", "x12": "x5"}

    def test_raw_selection_second_situation(self, s8):
        situation = enumerate_situations(s8)[1]
        assert situation.plants == ("x7", "x13")
        assert situation.raw_warehouses == {"x7": "x2", "x13": "x3"}

    def test_raw_selection_tie_breaks_lexicographically(self):
        scenario = leg_scenario(
            plants={"P1": {"W": {"p1": 1}}, "P2": {"W": {"p1": 1}}},
            warehouses={"W": {"S": {"p1": 1}}},
            demand={"S": {"p1": 4}},
            capacity={"P1": {"p1": 100}, "P2": {"p1": 100}},
        )
        requirements = {"P1": {"r0": 2.0}, "P2": {"r0": 2.0}}
        choice = chosen_raw(scenario, ("P1", "P2"), requirements)
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
            chosen_raw(
                scenario, ("P1", "P2", "P3"), {p: {"r0": 1.0} for p in ("P1", "P2", "P3")}
            )

    def test_product_pair_first_situation(self, s8):
        outputs = {
            "x7": {"b1": 7, "b2": 10, "b3": 10},
            "x12": {"b1": 10, "b2": 7, "b3": 6},
        }
        [(pair, _flow)] = select_product_warehouses(s8, [(("x7", "x12"), outputs)])
        assert pair == ("x8", "x11")

    def test_product_pair_second_situation(self, s8):
        outputs = {
            "x7": {"b1": 7, "b2": 10, "b3": 10},
            "x13": {"b1": 10, "b2": 7, "b3": 6},
        }
        [(pair, _flow)] = select_product_warehouses(s8, [(("x7", "x13"), outputs)])
        assert pair == ("x8", "x10")

    def test_single_possible_pair(self):
        scenario = leg_scenario(
            plants={"P": {"W1": {"p1": 1}, "W2": {"p1": 5}}},
            warehouses={"W1": {"S": {"p1": 1}}, "W2": {"S": {"p1": 1}}},
            demand={"S": {"p1": 2}},
        )
        [(pair, flow_cost)] = select_product_warehouses(scenario, [(("P",), {"P": {"p1": 2}})])
        assert pair == ("W1", "W2")
        assert flow_cost == 4

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
        weighted = chosen_raw(scenario, ("P1", "P2"), requirements, mode="weighted")
        unit = chosen_raw(scenario, ("P1", "P2"), requirements, mode="unit")
        assert weighted == {"P1": "RW0", "P2": "RW1"}  # 2*10 + 12*1 < 4*10 + 2*1
        assert unit == {"P1": "RW1", "P2": "RW0"}  # 4 + 2 < 2 + 12

    def test_selected_pair_is_pairwise_optimal(self, s8):
        import itertools

        outputs = {
            "x7": {"b1": 7, "b2": 10, "b3": 10},
            "x12": {"b1": 10, "b2": 7, "b3": 6},
        }
        [(best_pair, best_cost)] = select_product_warehouses(s8, [(("x7", "x12"), outputs)])
        for pair in itertools.combinations(s8.sites.product_warehouses, 2):
            flow = one_flow(s8, ("x7", "x12"), outputs, pair)
            assert best_cost <= flow.total_cost


# ---------------------------------------------------------------------------
# Scalar oracle: the per-cell route-cost code the array-backed costflow
# replaced (one Dijkstra route cost per leg, the same loops, tie rules and
# error messages), with its failure rule: a candidate that cannot serve a
# plant pair costs inf, and the pair errs only when no candidate is finite.


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
    return best


def oracle_check_flow(scenario, plants, outputs, warehouses):
    """A flow's first error, product by product: short supply, or an
    unreachable (plant, store) cell whose plant makes the product and whose
    store wants it, even one that ships nothing."""
    for product in scenario.product_ids:
        supply = sum(outputs.get(plant, {}).get(product, 0) for plant in plants)
        demand = sum(scenario.demand[store].get(product, 0) for store in scenario.sites.stores)
        if supply < demand:
            raise InfeasibleError(f"outputs of {product} ({supply}) cannot cover demand ({demand})")
        for plant in plants:
            for store in scenario.sites.stores:
                if outputs.get(plant, {}).get(product, 0) <= 0:
                    continue
                if scenario.demand[store].get(product, 0) <= 0:
                    continue
                if math.isinf(oracle_ship_unit_cost(scenario, plant, warehouses, store, product)[0]):
                    raise InfeasibleError(
                        f"no {product} route from {plant} to {store} via {warehouses}"
                    )


def oracle_greedy_flow(scenario, plants, outputs, warehouses):
    """The cheapest-first flow; checked only when its supply falls short or
    it ships through an unreachable cell."""
    store_order = {store: i for i, store in enumerate(scenario.sites.stores)}
    plant_order = {plant: i for i, plant in enumerate(plants)}
    shipments = {}
    total_cost = 0.0
    for product in scenario.product_ids:
        supply = {plant: outputs.get(plant, {}).get(product, 0) for plant in plants}
        demand = {store: scenario.demand[store].get(product, 0) for store in scenario.sites.stores}
        if sum(supply.values()) < sum(demand.values()):
            oracle_check_flow(scenario, plants, outputs, warehouses)
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
    if math.isinf(total_cost):
        oracle_check_flow(scenario, plants, outputs, warehouses)
    return FlowAssignment({key: tuple(v) for key, v in shipments.items()}, total_cost)


def oracle_select_raw_warehouses(scenario, plants, requirements, mode="weighted"):
    candidates = scenario.sites.raw_warehouses
    if len(candidates) < len(plants):
        raise InfeasibleError(f"{len(candidates)} raw warehouse candidates for {len(plants)} plants")
    best_choice, best_cost, errors = None, math.inf, []
    for choice in itertools.permutations(candidates, len(plants)):
        cost = 0.0
        try:
            for plant, warehouse in zip(plants, choice):
                for rid in scenario.raw_ids:
                    weight = requirements[plant].get(rid, 0.0) if mode == "weighted" else 1.0
                    if weight == 0.0:
                        continue
                    cost += oracle_raw_route_cost(scenario, rid, warehouse, plant) * weight
        except InfeasibleError as exc:  # a missing route: this assignment costs inf
            errors.append(exc)
            continue
        if cost < best_cost or (cost == best_cost and choice < best_choice):
            best_choice, best_cost = choice, cost
    if best_choice is None:
        raise errors[0]
    return dict(zip(plants, best_choice))


def oracle_select_product_warehouses(scenario, plants, outputs):
    candidates = scenario.sites.product_warehouses
    if len(candidates) < 2:
        raise InfeasibleError("need at least 2 product warehouse candidates")
    best, errors = None, []
    for pair in itertools.combinations(candidates, 2):
        try:
            flow = oracle_greedy_flow(scenario, plants, outputs, pair)
        except InfeasibleError as exc:  # this pair costs inf
            errors.append(exc)
            continue
        if (
            best is None
            or flow.total_cost < best[1].total_cost
            or (flow.total_cost == best[1].total_cost and pair < best[0])
        ):
            best = (pair, flow)
    if errors and (best is None or math.isinf(best[1].total_cost)):
        raise errors[0]
    return best


def oracle_enumerate(scenario, mode):
    """The per-pair loop the batched enumeration replaced, on the scalar oracles."""
    if len(scenario.sites.plants) < 2:
        raise InfeasibleError("need at least 2 plant candidates")
    situations, skipped = [], []
    for pair in itertools.combinations(scenario.sites.plants, 2):
        try:
            override = scenario.production.splits.get(frozenset(pair))
            outputs = allocate_output(
                total_demand(scenario), pair, scenario.production.capacity_for, override
            )
            requirements = {
                plant: raw_requirements(outputs[plant], scenario.recipes) for plant in pair
            }
            raws = oracle_select_raw_warehouses(scenario, pair, requirements, mode)
            warehouses, flow = oracle_select_product_warehouses(scenario, pair, outputs)
            economics = {
                (plant, product): plant_economics(
                    scenario, plant, product, outputs[plant].get(product, 0)
                )
                for plant in pair
                for product in scenario.product_ids
            }
        except InfeasibleError as exc:
            skipped.append((pair, str(exc)))
            continue
        shipments = list(flow.shipments.items())
        situations.append(
            (pair, raws, warehouses, outputs, shipments, flow.total_cost, economics, requirements)
        )
    return {"situations": situations, "skipped": skipped}


def enumerated(scenario, mode):
    """``enumerate_situations`` in ``oracle_enumerate``'s form, with the
    situations' shipments from one ``greedy_flows`` call."""
    skipped = []
    found = enumerate_situations(scenario, mode, skipped)
    flows = greedy_flows(scenario, [(s.plants, s.outputs, s.product_warehouses) for s in found])
    situations = [
        (
            s.plants,
            s.raw_warehouses,
            s.product_warehouses,
            s.outputs,
            list(flow.shipments.items()),
            s.flow_cost,
            s.economics,
            s.plant_raw_requirements,
        )
        for s, flow in zip(found, flows)
    ]
    return {"situations": situations, "skipped": skipped}


def cached_route_cost(scenario, commodities):
    """``route_cost`` on ``scenario`` for ``commodities``, from one Dijkstra
    per (commodity, source)."""
    edges = {commodity: edge_triples(scenario, commodity) for commodity in commodities}

    @functools.cache
    def row(commodity, source):
        index = scenario.node_index
        return dijkstra_distances(len(index), edges[commodity], index[source])

    return lambda s, c, a, b: row(c, a)[s.node_index[b]]


def allocated(scenario):
    """Each plant pair of ``scenario`` whose output allocation succeeds, with
    that allocation, in pair order."""
    totals, cases = total_demand(scenario), []
    for pair in itertools.combinations(scenario.sites.plants, 2):
        override = scenario.production.splits.get(frozenset(pair))
        try:
            outputs = allocate_output(totals, pair, scenario.production.capacity_for, override)
        except InfeasibleError:
            continue
        cases.append((pair, outputs))
    return cases


def searched(scenario, cases):
    """``select_product_warehouses`` in ``oracle_select_product_warehouses``'s
    form: each winner's (pair, flow), its shipments from one ``greedy_flows``
    call and its total the search's cost; errors as returned."""
    found = select_product_warehouses(scenario, cases)
    won = [(*case, result[0]) for case, result in zip(cases, found) if isinstance(result, tuple)]
    flows = iter(greedy_flows(scenario, won))
    return [
        (result[0], FlowAssignment(next(flows).shipments, result[1]))
        if isinstance(result, tuple)
        else result
        for result in found
    ]


def returned(result):
    """One result of a batched call: raised when it is an error."""
    if isinstance(result, Exception):
        raise result
    return result


def chosen_raw(scenario, plants, requirements, mode="weighted"):
    """``select_raw_warehouses`` on one case: its assignment, or its error raised."""
    (result,) = select_raw_warehouses(scenario, [(plants, requirements)], mode)
    return returned(result)


def outcome(call, *args):
    """A call's result, or the type and message of what it raised."""
    try:
        result = call(*args)
    except (InfeasibleError, ValueError) as exc:
        return type(exc), str(exc)
    if isinstance(result, FlowAssignment):
        return list(result.shipments.items()), result.total_cost
    if isinstance(result, tuple):  # (pair, flow): keep the shipment order too
        return result[0], list(result[1].shipments.items()), result[1].total_cost
    return result


@st.composite
def leg_cases(draw):
    """Small leg scenarios with integer costs, so equal costs are common.

    Candidate orders are drawn, so string order (W10 < W8 < W9) and site
    order disagree; some draws leave commodities off legs (inf routes), give
    plants too little output or capacity, or too few raw warehouses, and some
    pin a pair's split, which may not conserve demand.
    """

    def order(ids, n):
        return draw(st.permutations(ids))[:n]

    plants = order(["P8", "P9", "P10", "P11"], draw(st.integers(1, 4)))
    raws = order(["r1", "r2"], draw(st.integers(1, 2)))
    products = order(["p1", "p2"], draw(st.integers(1, 2)))
    raw_warehouses = order(["R8", "R9", "R10", "R11"], draw(st.integers(2, 4)))
    warehouses = order(["W8", "W9", "W10"], draw(st.sampled_from([1, 2, 3, 3])))
    stores = order(["S8", "S9", "S10"], draw(st.integers(1, 3)))
    # Up to two fragile sites: only legs that touch one may lack a commodity.
    fragile = draw(st.sets(st.sampled_from(plants + warehouses + stores), max_size=2))
    legs = st.sampled_from([None, 0, 1, 2, 3]), st.integers(0, 3)
    demand = {s: {p: draw(st.integers(0, 3)) for p in products} for s in stores}
    doc = network_doc(
        lambda c, t, h: draw(legs[not fragile & {t, h}]),
        plants=plants,
        raws=tuple(raws),
        products=tuple(products),
        raw_warehouses=raw_warehouses,
        warehouses=warehouses,
        stores=stores,
        demand=demand,
        capacity={
            plant: {p: draw(st.integers(0, 6)) for p in products}
            for plant in plants
            if draw(st.booleans())
        },
    )
    # The first plant's share of a pinned split is drawn and the second takes
    # the rest, or one unit more, which does not conserve demand.
    totals = {p: sum(per_store[p] for per_store in demand.values()) for p in products}
    doc["production"]["splits"] = []
    for pair in itertools.combinations(plants, 2):
        if draw(st.booleans()):
            first = {p: draw(st.integers(0, totals[p])) for p in products}
            extra = draw(st.sampled_from([0, 0, 1]))
            second = {p: totals[p] - first[p] + extra for p in products}
            output = {pair[0]: first, pair[1]: second}
            doc["production"]["splits"].append({"plants": list(pair), "output": output})
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
        assert outcome(one_flow, scenario, plants, outputs, subset) == outcome(
            oracle_greedy_flow, scenario, plants, outputs, subset
        )
        (found,) = searched(scenario, [(plants, outputs)])
        assert outcome(returned, found) == outcome(
            oracle_select_product_warehouses, scenario, plants, outputs
        )
        assert outcome(chosen_raw, scenario, plants, requirements, mode) == outcome(
            oracle_select_raw_warehouses, scenario, plants, requirements, mode
        )

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(leg_cases())
    def test_batch_matches_pair_loop(self, case):
        """Every plant pair in one batch: the same winners, totals, flows,
        errors and skipped pairs as the per-pair oracle loop."""
        scenario, plants, outputs, _, _, mode = case
        pairs = list(itertools.combinations(plants, 2))
        batch = searched(scenario, [(pair, outputs) for pair in pairs])
        assert [outcome(returned, result) for result in batch] == [
            outcome(oracle_select_product_warehouses, scenario, pair, outputs) for pair in pairs
        ]
        assert outcome(enumerated, scenario, mode) == outcome(oracle_enumerate, scenario, mode)

    def test_fixture_matches_scalar_code(self, s8):
        situations = enumerate_situations(s8)
        assert len(situations) == math.comb(len(s8.sites.plants), 2)
        for situation in situations:
            plants = situation.plants
            (built,) = greedy_flows(s8, [(plants, situation.outputs, situation.product_warehouses)])
            pair, flow = oracle_select_product_warehouses(s8, plants, situation.outputs)
            assert situation.product_warehouses == pair
            assert list(built.shipments.items()) == list(flow.shipments.items())
            assert situation.flow_cost == flow.total_cost
            assert situation.raw_warehouses == oracle_select_raw_warehouses(
                s8, plants, situation.plant_raw_requirements
            )


    @pytest.mark.parametrize("chunk_cells", [1, 30, 100, 200])
    def test_chunks_do_not_change_the_search(self, s8, monkeypatch, chunk_cells):
        """One plant pair per chunk, or a few, gives what one chunk gives.  A
        plant pair has 12 raw assignments and 6 warehouse pairs × 4 stores ×
        2 plants = 48 bound cells, and a flow has 8 sweep cells; the pair
        search's pass 1 sweeps 6 flows and pass 2 the 4 that the bound
        leaves.  So 30 cells take the raw stage in three chunks, the bound in
        six and each pass in two; 100 take the bound in three, and 200 in
        chunks of 4 and 2 plant pairs."""
        whole = enumerated(s8, "weighted")
        monkeypatch.setattr("placenet.costflow._CHUNK_CELLS", chunk_cells)
        assert enumerated(s8, "weighted") == whole

    @pytest.mark.parametrize("mode", ["weighted", "unit"])
    @pytest.mark.parametrize("workload", ["synth-transit", "synth-wide"])
    def test_bench_raw_choices_match_scalar_code(self, tmp_path, monkeypatch, workload, mode):
        """Every plant pair of a benchmark scenario (seed 0) in one batched
        call, against the scalar oracle; integer costs make many ties."""
        scenario = load_scenario(bench_scenario(workload, 0, tmp_path))
        monkeypatch.setitem(globals(), "route_cost", cached_route_cost(scenario, scenario.raw_ids))
        cases = [
            (pair, {p: raw_requirements(outputs[p], scenario.recipes) for p in pair})
            for pair, outputs in allocated(scenario)
        ]
        found = select_raw_warehouses(scenario, cases, mode)
        assert [outcome(returned, result) for result in found] == [
            outcome(oracle_select_raw_warehouses, scenario, *case, mode) for case in cases
        ]


def counted_sweeps(monkeypatch):
    """A list that gets the element count of each ``costflow._sweep`` call."""
    swept, sweep = [], costflow._sweep

    def counted(cost, *args):
        swept.append(len(cost))
        return sweep(cost, *args)

    monkeypatch.setattr(costflow, "_sweep", counted)
    return swept


def priced(legs):
    """Unit legs, except the p1 legs that ``legs`` prices by (tail, head)."""
    return lambda c, t, h: legs.get((t, h), 1) if c == "p1" else 1


class TestPairPruning:
    """The pair search sweeps only the pairs whose lower bound is within the
    slack of the first total, and answers as if it swept every pair."""

    PLANTS, OUTPUTS = ("P8", "P9"), {"P8": {"p1": 2}, "P9": {"p1": 2}}

    def search(self, legs):
        """The search and the scalar oracle on the two plants, each store
        wanting 2 units of p1 via W8, W9 or W10 (pairs in string order:
        (W8, W10), (W8, W9), (W9, W10))."""
        scenario = Scenario.from_dict(network_doc(priced(legs), plants=self.PLANTS))
        (found,) = searched(scenario, [(self.PLANTS, self.OUTPUTS)])
        oracle = outcome(oracle_select_product_warehouses, scenario, self.PLANTS, self.OUTPUTS)
        assert outcome(returned, found) == oracle
        return scenario, found

    def test_smallest_bound_pair_can_lose(self):
        # Unit costs by warehouse: W8 1 from P8, 10 from P9; W9 3; W10 100.
        # (W8, W10) has the first smallest bound, 2*1 + 2*1, but P8 runs dry
        # after S8 and S10 pays 10 a unit from P9: 22.  (W8, W9) has the same
        # bound and costs 2*1 + 2*3 = 8, (W9, W10) costs 12.
        legs = {("P8", "W8"): 0, ("P9", "W8"): 9, ("P8", "W9"): 2, ("P9", "W9"): 2}
        legs |= {(w, s): c for w, c in [("W8", 1), ("W9", 1), ("W10", 50)] for s in ("S8", "S10")}
        legs |= {(p, "W10"): 50 for p in self.PLANTS}
        _, (pair, flow) = self.search(legs)
        assert (pair, flow.total_cost) == (("W8", "W9"), 8.0)

    def test_later_pair_with_smaller_bound_ties_and_loses(self):
        # (W8, W9) has the smallest bound, 14, and is swept first; (W8, W10)
        # ties its total of 16 with a bound of exactly 16 and comes first in
        # string order; (W9, W10) costs 18.
        legs = {("P8", "W8"): 3, ("P8", "W9"): 0, ("P8", "W10"): 3}
        legs |= {("P9", "W8"): 3, ("P9", "W9"): 1, ("P9", "W10"): 4}
        legs |= {("W8", "S8"): 0, ("W8", "S10"): 2, ("W9", "S8"): 4, ("W9", "S10"): 4}
        legs |= {("W10", "S8"): 1, ("W10", "S10"): 3}
        scenario, (pair, flow) = self.search(legs)
        assert (pair, flow.total_cost) == (("W8", "W10"), 16.0)
        totals = [
            one_flow(scenario, self.PLANTS, self.OUTPUTS, via).total_cost
            for via in [("W8", "W10"), ("W8", "W9"), ("W9", "W10")]
        ]
        assert totals == [16.0, 16.0, 18.0]

    def test_overflowing_totals_prune_nothing(self, monkeypatch):
        # Every cell costs 1e308, so every flow and every bound is inf.
        swept = counted_sweeps(monkeypatch)
        legs = {(p, w): 1e308 for p in self.PLANTS for w in ("W8", "W9", "W10")}
        legs |= {(w, s): 0 for w in ("W8", "W9", "W10") for s in ("S8", "S10")}
        _, (pair, flow) = self.search(legs)
        assert (pair, flow.total_cost) == (("W8", "W10"), math.inf)
        assert swept == [1, 2, 1]  # pass 1, pass 2 with no pair pruned, the winner's shipments

    def bench_cases(self, tmp_path):
        scenario = load_scenario(bench_scenario("synth-wide", 0, tmp_path))
        cases = allocated(scenario)
        assert (len(cases), math.comb(len(scenario.sites.product_warehouses), 2)) == (110, 28)
        return scenario, cases

    def test_bench_search_matches_scalar_code(self, tmp_path, monkeypatch):
        """Every plant pair of synth-wide seed 0 that allocation leaves, in
        one call, against the scalar oracle, totals bit for bit; again with
        4096 cells per chunk, which splits the bound into chunks of 4 cases
        and pass 2 into chunks of 128 flows."""
        scenario, cases = self.bench_cases(tmp_path)
        route = cached_route_cost(scenario, scenario.product_ids)
        monkeypatch.setitem(globals(), "route_cost", route)
        expected = [
            (pair, flow.total_cost)
            for pair, flow in (oracle_select_product_warehouses(scenario, *c) for c in cases)
        ]
        assert select_product_warehouses(scenario, cases) == expected
        monkeypatch.setattr("placenet.costflow._CHUNK_CELLS", 4096)
        assert select_product_warehouses(scenario, cases) == expected

    def test_bench_search_sweeps_fewer_than_half_the_flows(self, tmp_path, monkeypatch):
        """synth-wide seed 0 has 110 × 28 (plant pair, warehouse pair) flows;
        the bound leaves fewer than half of them to sweep."""
        scenario, cases = self.bench_cases(tmp_path)
        swept = counted_sweeps(monkeypatch)
        select_product_warehouses(scenario, cases)
        assert sum(swept) / len(scenario.product_ids) < 110 * 28 / 2


class TestTransportationBound:
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(leg_cases())
    def test_greedy_flow_costs_at_least_the_transportation_optimum(self, case):
        """Cheapest-first is one feasible plan of the plant x store transportation
        problem that the warehouse minimum prices, so it never beats its optimum.
        A cell is priced at most 1 above the flow's total: the flow ships
        nothing through an unreachable cell, and no optimal plan does, so the
        optimum is that of the reachable cells."""
        scenario, plants, outputs, _, warehouses, _ = case
        try:
            flow = one_flow(scenario, plants, outputs, warehouses)
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
                        min(
                            oracle_ship_unit_cost(scenario, plant, warehouses, store, product)[0],
                            flow.total_cost + 1,
                        )
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

    def solve(self, tmp_path, doc, *options):
        """``solve --format json`` on ``doc``, which exits 0: its payload."""
        scenario, report = tmp_path / "scenario.json", tmp_path / "report.json"
        scenario.write_text(json.dumps(doc))
        args = ["solve", "-s", str(scenario), "--format", "json", "--out", str(report), *options]
        assert placenet_main(args) == 0
        return json.loads(report.read_text())

    def solve_skipped(self, tmp_path, doc):
        payload = self.solve(tmp_path, doc)
        assert payload["selection"]["situations"] == ["P1,P2"]
        return {s["plants"]: s["reason"] for s in payload["skipped"]}

    def solve_chosen(self, tmp_path, doc, field):
        """Each situation's ``field`` from ``solve --detail``, which skips no pair."""
        payload = self.solve(tmp_path, doc, "--detail")
        assert payload["skipped"] == []
        return {d["situation"]: d[field] for d in payload["details"]}

    def test_unreachable_product_route(self, tmp_path):
        # P3 reaches the stores only through W10; a p1 leg to or from W8 costs
        # 3, W9 1, W10 2.  P1 makes at most 1 unit, so P1,P3 ships 3 units from
        # P3 and takes (W9, W10); P2 makes all 4 beside P3, whose unreachable
        # cells ship nothing, so P2,P3 takes the cheap (W8, W9) as P1,P2 does.
        per_leg = {"W8": 3, "W9": 1, "W10": 2}
        doc = network_doc(
            lambda c, t, h: None
            if (c == "p1" and t == "P3" and h != "W10")
            else per_leg.get(h, per_leg.get(t, 1)),
            plants=("P1", "P2", "P3"),
            capacity={"P1": {"p1": 1}},
        )
        assert self.solve_chosen(tmp_path, doc, "product_warehouses") == {
            "P1,P2": ["W8", "W9"],
            "P1,P3": ["W9", "W10"],
            "P2,P3": ["W8", "W9"],
        }
        assert self.solve_chosen(tmp_path, doc, "flow_cost") == {
            "P1,P2": 8.0,
            "P1,P3": 14.0,
            "P2,P3": 8.0,
        }

    def test_unreachable_raw_route(self, tmp_path):
        # r1 reaches P3 only through R9, so P3's pairs send P3 through R9.
        doc = network_doc(
            lambda c, t, h: None if (c == "r1" and h == "P3" and t != "R9") else 1,
            plants=("P1", "P2", "P3"),
            demand={"S8": {"p1": 8}, "S10": {"p1": 8}},
        )
        assert self.solve_chosen(tmp_path, doc, "raw_warehouses") == {
            "P1,P2": {"P1": "R10", "P2": "R8"},
            "P1,P3": {"P1": "R10", "P3": "R9"},
            "P2,P3": {"P2": "R10", "P3": "R9"},
        }

    def test_unreachable_store_without_demand(self, tmp_path):
        # No p1 edge reaches S10, which wants none: its cells ship nothing.
        doc = network_doc(
            lambda c, t, h: None if (c == "p1" and h == "S10") else 1,
            plants=("P1", "P2", "P3"),
            demand={"S8": {"p1": 2}, "S10": {"p1": 0}},
        )
        assert self.solve(tmp_path, doc)["situations"] == ["P1,P2", "P1,P3", "P2,P3"]
        assert len(self.solve_chosen(tmp_path, doc, "flow_cost")) == 3

    def test_unreachable_reason_names_a_cell_with_supply_and_demand(self):
        # No p1 edge reaches S10, which wants none, or leaves P3.  P1 makes 1
        # unit, so (P1, P3) has 3 units at P3 that cannot reach S8; P1 -> S10
        # is unreachable too, but P1 has no unit left for it and S10 wants none.
        doc = network_doc(
            lambda c, t, h: None if c == "p1" and (h == "S10" or t == "P3") else 1,
            plants=("P1", "P2", "P3"),
            demand={"S8": {"p1": 4}, "S10": {"p1": 0}},
            capacity={"P1": {"p1": 1}},
        )
        skipped = []
        situations = enumerate_situations(Scenario.from_dict(doc), skipped=skipped)
        assert [s.label for s in situations] == ["P1,P2", "P2,P3"]
        assert skipped == [(("P1", "P3"), "no p1 route from P3 to S8 via ('W8', 'W9')")]

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

    def test_skipped_pairs_keep_pair_order_and_stage_order(self):
        # P3 reaches no product warehouse and would overflow the value of any
        # output; P4 may make no p1; P1 makes at most 1, and P2 makes all
        # beside P3, which then ships nothing.  Pinned from the per-pair loop:
        # each pair fails at its first failing stage, in order.
        doc = network_doc(
            only("p1", "P3", ()),
            plants=("P1", "P2", "P3", "P4"),
            capacity={"P1": {"p1": 1}, "P4": {"p1": 0}},
        )
        doc["production"]["factors"]["P3"]["p1"] = 1e308
        skipped = []
        situations = enumerate_situations(Scenario.from_dict(doc), skipped=skipped)
        assert [s.label for s in situations] == ["P1,P2", "P2,P3", "P2,P4"]
        unreachable = "no p1 route from P3 to S8 via ('W8', 'W9')"
        assert skipped == [
            (("P1", "P3"), unreachable),
            (("P1", "P4"), "allocation of p1 exceeds capacity at P4"),
            (("P3", "P4"), unreachable),
        ]

    def test_invalid_input_raises_at_its_pair(self):
        # (P1, P4) is skipped before (P1, P3) overflows P3's output value.
        doc = network_doc(
            lambda c, t, h: 1,
            plants=("P1", "P3", "P4"),
            capacity={"P1": {"p1": 1}, "P4": {"p1": 0}},
        )
        doc["production"]["factors"]["P3"]["p1"] = 1e308
        doc["sites"]["plants"] = ["P1", "P4", "P3"]
        skipped = []
        with pytest.raises(ScenarioError, match="^output value of p1 at plant P3 overflows$"):
            enumerate_situations(Scenario.from_dict(doc), skipped=skipped)
        assert skipped == [(("P1", "P4"), "allocation of p1 exceeds capacity at P4")]

    OVERFLOWS = "overflows its raw-warehouse score"

    @pytest.mark.parametrize(
        "p1_leg, p2_leg, error, message",
        [
            # each weighted term is 1e308, and every assignment's total overflows
            (0.5, 0.5, ScenarioError, f"the r1 route cost to plant P1 {OVERFLOWS}"),
            # P2's finite route cost of 2 times its requirement of 1e308 overflows
            (0.5, 1.5, ScenarioError, f"the r1 route cost to plant P2 {OVERFLOWS}"),
            # no assignment is finite: the first missing route keeps its error
            (None, 1.5, InfeasibleError, "no r1 route Xr1 -> R8 -> P1"),
        ],
        ids=["total", "term", "missing-route"],
    )
    def test_raw_score_overflow_is_invalid_input(self, p1_leg, p2_leg, error, message):
        legs = {"P1": p1_leg, "P2": p2_leg}
        doc = network_doc(lambda c, t, h: legs.get(h, 0.5) if c == "r1" else 1, plants=("P1", "P2"))
        requirements = {"P1": {"r1": 1e308}, "P2": {"r1": 1e308}}
        (caught,) = select_raw_warehouses(Scenario.from_dict(doc), [(("P1", "P2"), requirements)])
        assert type(caught) is error and str(caught) == message

    def test_raw_score_overflow_loses_to_a_finite_assignment(self):
        # Only R8 -> P2 costs 1.5: P2's 1e308 units overflow there and score
        # 1e308 through R9 or R10, and (R10, R9) is the first of the ties.
        doc = network_doc(
            lambda c, t, h: (1.5 if (t, h) == ("R8", "P2") else 0.5) if c == "r1" else 1,
            plants=("P1", "P2"),
        )
        requirements = {"P1": {"r1": 1.0}, "P2": {"r1": 1e308}}
        scenario = Scenario.from_dict(doc)
        assert chosen_raw(scenario, ("P1", "P2"), requirements) == {"P1": "R10", "P2": "R9"}

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
            # p1 is unreachable in a later pair only, and no shortfall: the minimum wins
            ("W8", 2, tuple, "(('W8', 'W10'), 16.0)"),
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
        (caught,) = select_product_warehouses(scenario, [(("P1", "P3"), outputs)])
        assert type(caught) is error and str(caught) == message
