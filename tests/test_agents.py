import copy

import numpy as np
import pytest

from placenet import Scenario, agent1_components, enumerate_situations, evaluate_all
from placenet import costflow, load_scenario
from placenet.agents import agent3_revenue
from conftest import bench_scenario, leg_document, leg_scenario

# Cheapest-first flow totals over the fixture leg tables, checked by hand.
DERIVED_FLOW_COSTS = {
    "x7,x12": 206.0,
    "x7,x13": 312.0,
    "x7,x18": 236.0,
    "x12,x13": 231.0,
    "x12,x18": 301.0,
    "x13,x18": 267.0,
}
# Raw-side nets recomputed at the uniform handling rate (0.2 x unit value).
DERIVED_RAW_NETS = {
    "x7,x12": 1516.0,
    "x7,x13": 1277.0,
    "x7,x18": 1457.0,
    "x12,x13": 1444.0,
    "x12,x18": 1424.0,
    "x13,x18": 1376.0,
}


@pytest.fixture(scope="module")
def s8_situations(s8):
    return enumerate_situations(s8)


@pytest.fixture(scope="module")
def s8_payoffs(s8, s8_situations):
    return evaluate_all(s8, s8_situations).values


def only_payoffs(scenario):
    """The payoff column of a scenario with one plant pair."""
    (situation,) = enumerate_situations(scenario)
    return evaluate_all(scenario, [situation]).values[:, 0]


class TestEnumeration:
    def test_fixture_yields_six_ordered_pairs(self, s8_situations):
        labels = [s.label for s in s8_situations]
        assert labels == ["x7,x12", "x7,x13", "x7,x18", "x12,x13", "x12,x18", "x13,x18"]

    def test_two_candidates_single_situation(self):
        scenario = leg_scenario(
            plants={"P1": {"W1": {"p1": 1}, "W2": {"p1": 2}}, "P2": {"W1": {"p1": 2}, "W2": {"p1": 1}}},
            warehouses={"W1": {"S": {"p1": 1}}, "W2": {"S": {"p1": 1}}},
            demand={"S": {"p1": 6}},
        )
        assert [s.label for s in enumerate_situations(scenario)] == ["P1,P2"]

    def test_five_candidates_ten_situations(self):
        plants = {
            f"P{i}": {"W1": {"p1": i + 1}, "W2": {"p1": i + 2}} for i in range(5)
        }
        scenario = leg_scenario(
            plants=plants,
            warehouses={"W1": {"S": {"p1": 1}}, "W2": {"S": {"p1": 1}}},
            demand={"S": {"p1": 6}},
        )
        assert len(enumerate_situations(scenario)) == 10

    def test_demand_is_summed_once_per_enumeration(self, s8_dict, monkeypatch):
        """Demand does not depend on the plant pair: one pair and all six
        each sum it once."""
        one_pair = copy.deepcopy(s8_dict)
        one_pair["sites"]["plants"] = ["x7", "x12"]
        for plant in ("x13", "x18"):
            del one_pair["production"]["factors"][plant]
        one_pair["production"]["splits"] = one_pair["production"]["splits"][:1]
        summed = costflow.total_demand
        calls = []
        monkeypatch.setattr(costflow, "total_demand", lambda s: calls.append(s) or summed(s))
        counts = {}
        for doc in (one_pair, s8_dict):
            scenario = Scenario.from_dict(doc)
            calls.clear()
            pairs = len(enumerate_situations(scenario))
            counts[pairs] = len(calls)
        assert counts == {1: 1, 6: 1}

    @pytest.mark.parametrize("workload", ["example_s8", "synth-wide", "synth-transit"])
    def test_outputs_lie_within_capacity(self, s8, tmp_path, workload):
        """Enumeration prices each plant's output of every product without a
        capacity check of its own: allocation writes them all within
        [0, capacity], so plant economics never refuses one."""
        scenario = s8
        if workload != "example_s8":
            scenario = load_scenario(bench_scenario(workload, 11, tmp_path))
        situations = enumerate_situations(scenario)
        assert situations
        for situation in situations:
            for plant in situation.plants:
                assert list(situation.outputs[plant]) == list(scenario.product_ids)
                for product, units in situation.outputs[plant].items():
                    assert 0 <= units <= scenario.production.capacity_for(plant, product)


class TestAgentOne:
    def test_first_situation_decomposition(self, s8, s8_situations, s8_payoffs):
        situation = s8_situations[0]
        c = agent1_components(s8, situation)
        assert c["raw_income"] == 2464
        assert c["raw_income"] - c["raw_cost"] == pytest.approx(1516.0, abs=1e-9)
        assert c["product_income"] == 1236
        assert c["product_income"] - c["product_cost"] == pytest.approx(675.47, abs=0.01)
        assert c["flow_cost"] == 206
        assert s8_payoffs[0, 0] == pytest.approx(1985.47, abs=0.01)

    def test_storage_income_total(self, s8, s8_situations):
        c = agent1_components(s8, s8_situations[0])
        assert c["raw_income"] + c["product_income"] == 3700

    def test_flow_and_raw_nets_across_situations(self, s8, s8_situations):
        for situation in s8_situations:
            c = agent1_components(s8, situation)
            assert c["flow_cost"] == DERIVED_FLOW_COSTS[situation.label]
            assert c["raw_income"] - c["raw_cost"] == pytest.approx(
                DERIVED_RAW_NETS[situation.label], abs=1e-9
            )

    def test_decomposition_identity(self, s8, s8_situations, s8_payoffs):
        for situation, payoff in zip(s8_situations, s8_payoffs[0]):
            c = agent1_components(s8, situation)
            total = (
                c["raw_income"]
                - c["raw_cost"]
                + c["product_income"]
                - c["product_cost"]
                - c["flow_cost"]
            )
            assert payoff == pytest.approx(total, abs=1e-6)

    def test_zero_fee_scenario_zero_payoff(self):
        doc = leg_document(
            plants={"P1": {"W1": {"p1": 0}, "W2": {"p1": 0}}, "P2": {"W1": {"p1": 0}, "W2": {"p1": 0}}},
            warehouses={"W1": {"S": {"p1": 0}}, "W2": {"S": {"p1": 0}}},
            demand={"S": {"p1": 0}},
        )
        for commodity in doc["commodities"]:
            commodity["storage_fee"] = 0
            commodity["unit_cost"] = 0
        assert only_payoffs(Scenario.from_dict(doc))[0] == 0


class TestAgentTwo:
    def test_first_situation(self, s8_payoffs):
        assert s8_payoffs[1, 0] == pytest.approx(338.66, abs=0.01)

    def test_third_situation(self, s8_payoffs):
        assert s8_payoffs[1, 2] == pytest.approx(361.52, abs=0.01)

    def test_zero_production(self):
        scenario = leg_scenario(
            plants={"P1": {"W1": {"p1": 1}, "W2": {"p1": 2}}, "P2": {"W1": {"p1": 1}, "W2": {"p1": 2}}},
            warehouses={"W1": {"S": {"p1": 1}}, "W2": {"S": {"p1": 1}}},
            demand={"S": {"p1": 0}},
        )
        assert only_payoffs(scenario)[1] == 0


class TestAgentThree:
    def test_revenue_component(self, s8):
        assert agent3_revenue(s8) == 5410

    def test_first_situation(self, s8_payoffs):
        assert s8_payoffs[2, 0] == pytest.approx(1371.34, abs=0.01)

    def test_revenue_constant_across_situations(self, s8, s8_situations):
        revenues = {agent3_revenue(s8) for _ in s8_situations}
        assert revenues == {5410}

    def test_prices_equal_costs_gives_zero(self):
        doc = leg_document(
            plants={"P1": {"W1": {"p1": 1}, "W2": {"p1": 2}}, "P2": {"W1": {"p1": 1}, "W2": {"p1": 2}}},
            warehouses={"W1": {"S": {"p1": 1}}, "W2": {"S": {"p1": 1}}},
            demand={"S": {"p1": 2}},
            capacity={"P1": {"p1": 10}, "P2": {"p1": 10}},
        )
        scenario = Scenario.from_dict(doc)
        (situation,) = enumerate_situations(scenario)
        total_cost = sum(
            (econ.unit_value + scenario.commodities["p1"].storage_fee) * econ.quantity
            for econ in situation.economics.values()
        )
        doc["demand"]["retail_prices"]["p1"] = total_cost / 2  # 2 units sold
        assert only_payoffs(Scenario.from_dict(doc))[2] == pytest.approx(0, abs=1e-9)


class TestEvaluateAll:
    def test_matrix_shape_and_labels(self, s8, s8_situations):
        matrix = evaluate_all(s8, s8_situations)
        assert matrix.values.shape == (3, 6)
        assert matrix.agents == ("agent1", "agent2", "agent3")

    def test_agent2_row(self, s8, s8_situations):
        matrix = evaluate_all(s8, s8_situations)
        expected = [338.66, 309.80, 361.52, 308.19, 338.21, 321.79]
        assert matrix.values[1] == pytest.approx(expected, abs=0.02)

    def test_agent3_row(self, s8, s8_situations):
        matrix = evaluate_all(s8, s8_situations)
        expected = [1371.34, 1400.20, 1348.48, 1401.81, 1371.79, 1388.21]
        assert matrix.values[2] == pytest.approx(expected, abs=0.02)

    def test_agent1_row_derived(self, s8, s8_situations):
        matrix = evaluate_all(s8, s8_situations)
        expected = [1985.47, 1646.24, 1891.90, 1894.56, 1798.56, 1787.84]
        assert matrix.values[0] == pytest.approx(expected, abs=0.01)

    def test_single_situation_consistency(self, s8, s8_situations):
        """A column is agent 1's components netted, the plants' net profits,
        and retail revenue less unit value plus storage fee per unit bought."""
        situation = s8_situations[0]
        c = agent1_components(s8, situation)
        economics = situation.economics.values()
        bought = sum(
            (e.unit_value + s8.commodities[e.product].storage_fee) * e.quantity for e in economics
        )
        agent1 = c["raw_income"] - c["raw_cost"] + c["product_income"] - c["product_cost"]
        expected = [
            agent1 - c["flow_cost"],
            sum(e.net_profit for e in economics),
            agent3_revenue(s8) - bought,
        ]
        assert evaluate_all(s8, [situation]).values[:, 0] == pytest.approx(expected)

    def test_columns_equal_per_situation_payoffs_exactly(self, s8, s8_situations, s8_payoffs):
        """The scenario-wide income and revenue, computed once per matrix, give
        the same bits as a matrix of each situation alone."""
        columns = [evaluate_all(s8, [situation]).values[:, 0] for situation in s8_situations]
        assert s8_payoffs.T.tolist() == [column.tolist() for column in columns]

    def test_recomputation_is_bit_identical(self, s8):
        first = evaluate_all(s8, enumerate_situations(s8))
        second = evaluate_all(s8, enumerate_situations(s8))
        assert np.array_equal(first.values, second.values)

    def test_retail_price_shift_linearity(self, s8, s8_dict, s8_payoffs):
        base = s8_payoffs
        doc = copy.deepcopy(s8_dict)
        doc["demand"]["retail_prices"]["b1"] += 7
        scenario = Scenario.from_dict(doc)
        shifted = evaluate_all(scenario, enumerate_situations(scenario)).values
        total_b1 = 17
        assert shifted[2] == pytest.approx(base[2] + 7 * total_b1, abs=1e-9)
        assert shifted[0] == pytest.approx(base[0], abs=1e-9)
        assert shifted[1] == pytest.approx(base[1], abs=1e-9)
