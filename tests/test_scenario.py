import copy
import json
import random

import numpy as np
import pytest

from placenet import (
    InfeasibleError,
    Scenario,
    ScenarioError,
    compromise_select,
    enumerate_situations,
    evaluate_all,
    load_scenario,
)
from conftest import route_cost


class TestLoad:
    def test_fixture_shape(self, s8):
        assert len(s8.node_labels) == 18
        assert s8.raw_ids == ["a1", "a2"]
        assert s8.product_ids == ["b1", "b2", "b3"]
        assert len(s8.sites.stores) == 4

    def test_fixture_leg_costs(self, s8):
        assert route_cost(s8, "a1", "x1", "x2") == 1
        assert route_cost(s8, "a2", "x6", "x5") == 2
        assert route_cost(s8, "b1", "x7", "x8") == 1
        # composed legs
        assert route_cost(s8, "a1", "x1", "x7") == 4
        assert route_cost(s8, "a2", "x6", "x12") == 5

    def test_missing_file(self, tmp_path):
        path = tmp_path / "nope.json"
        with pytest.raises(ScenarioError) as caught:
            load_scenario(path)
        assert str(caught.value) == f"cannot read {path}: No such file or directory"

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError, match="not valid JSON"):
            load_scenario(path)

    def test_empty_store_list(self, s8_dict):
        doc = copy.deepcopy(s8_dict)
        doc["sites"]["stores"] = []
        with pytest.raises(ScenarioError, match="stores.*nonempty"):
            Scenario.from_dict(doc)

    def test_negative_storage_fee_names_commodity(self, s8_dict):
        doc = copy.deepcopy(s8_dict)
        doc["commodities"][0]["storage_fee"] = -1
        with pytest.raises(ScenarioError, match="a1.*storage_fee"):
            Scenario.from_dict(doc)

    def test_duplicate_node_id(self, s8_dict):
        doc = copy.deepcopy(s8_dict)
        doc["nodes"].append(dict(doc["nodes"][0]))
        with pytest.raises(ScenarioError, match=r"^nodes: duplicate id 'x1'$"):
            Scenario.from_dict(doc)

    def test_unknown_edge_node(self, s8_dict):
        doc = copy.deepcopy(s8_dict)
        doc["edges"][0]["to"] = "x99"
        with pytest.raises(ScenarioError, match="unknown node id 'x99'"):
            Scenario.from_dict(doc)

    def test_overlapping_site_groups(self, s8_dict):
        doc = copy.deepcopy(s8_dict)
        doc["sites"]["plants"][0] = "x2"
        with pytest.raises(ScenarioError, match="two site groups"):
            Scenario.from_dict(doc)

    def test_split_must_conserve_demand(self, s8_dict):
        doc = copy.deepcopy(s8_dict)
        doc["production"]["splits"][0]["output"]["x7"]["b1"] = 9
        scenario = Scenario.from_dict(doc)
        skipped = []
        situations = enumerate_situations(scenario, skipped=skipped)
        assert len(situations) == 5
        assert skipped and skipped[0][0] == ("x7", "x12")

    def test_second_split_for_a_pair_is_refused(self, s8_dict):
        # keeping either entry would silently drop the other, and they disagree
        doc = copy.deepcopy(s8_dict)
        output = doc["production"]["splits"][0]["output"]
        swapped = {"x12": output["x7"], "x7": output["x12"]}
        doc["production"]["splits"].insert(1, {"plants": ["x12", "x7"], "output": swapped})
        message = r"^production\.splits\[1\]: plants repeat the pair of production\.splits\[0\]$"
        with pytest.raises(ScenarioError, match=message):
            Scenario.from_dict(doc)

    @pytest.mark.parametrize("limits", [{}, None, "absent"])
    def test_empty_limits_and_capacity_load(self, s8_dict, limits):
        doc = copy.deepcopy(s8_dict)
        if limits == "absent":
            del doc["limits"]
        else:
            doc["limits"] = limits
        doc["edges"][0]["capacity"] = {}
        Scenario.from_dict(doc)  # loads: an empty field asks for nothing

    def test_zero_product_costs_load(self, s8_dict):
        doc = copy.deepcopy(s8_dict)
        doc["commodities"][2].update(unit_cost=0, purchase_price=0.0)
        Scenario.from_dict(doc)  # loads: a zero cost has nothing to ignore

    @pytest.mark.parametrize(
        "a1_cost, route, error",
        [
            (1, ("zz",), ScenarioError("no edge carries commodity 'zz'")),
            (
                1e308,
                ("a1", "x1", "x2", "x7"),
                ScenarioError("the a1 route cost x1 -> x2 -> x7 overflows"),
            ),
            (1, ("a1", "x7", "x1"), InfeasibleError("no a1 route x7 -> x1")),
        ],
        ids=["uncarried", "overflow", "no-route"],
    )
    def test_route_error_gives_each_verdict(self, s8_dict, a1_cost, route, error):
        doc = copy.deepcopy(s8_dict)
        for edge in doc["edges"]:
            if "a1" in edge["cost"]:
                edge["cost"]["a1"] = a1_cost
        found = Scenario.from_dict(doc).route_error(*route)
        assert (type(found), str(found)) == (type(error), str(error))


class TestFuzzedFixtures:
    def test_mutations_fail_cleanly_or_run(self, s8_dict):
        """Mutated fixtures raise ScenarioError or InfeasibleError, or run end
        to end with finite payoffs."""
        rng = random.Random(2024)
        mutators = [
            lambda d: d["commodities"][rng.randrange(len(d["commodities"]))].update(
                storage_fee=rng.choice([-5, 0, 3.5])
            ),
            lambda d: d["demand"]["stores"]["x14"].update(b1=rng.choice([-1, 0, 2, 40])),
            lambda d: d["edges"].pop(rng.randrange(len(d["edges"]))),
            lambda d: d["sites"]["plants"].reverse(),
            lambda d: d["production"]["factors"]["x7"].update(b1=rng.choice([-1, 0.5, 9])),
            lambda d: d.pop("limits", None),
            lambda d: d["recipes"]["b1"].update(a1=rng.choice([0, 3])),
            lambda d: d["production"].pop("splits"),
        ]
        for trial in range(40):
            doc = json.loads(json.dumps(s8_dict))
            for _ in range(rng.randint(1, 3)):
                rng.choice(mutators)(doc)
            try:
                scenario = Scenario.from_dict(doc)
            except ScenarioError:
                continue
            try:
                matrix = evaluate_all(scenario, enumerate_situations(scenario))
                compromise_select(matrix)
            except (ScenarioError, InfeasibleError):
                continue
            assert np.isfinite(matrix.values).all(), matrix.values
