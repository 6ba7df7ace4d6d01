import copy
import json
import random

import pytest

from placenet import (
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
        with pytest.raises((ScenarioError, OSError)):
            load_scenario(tmp_path / "nope.json")

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

    @pytest.mark.parametrize("limits", [{}, None, "absent"])
    def test_empty_limits_and_capacity_load(self, s8_dict, limits):
        doc = copy.deepcopy(s8_dict)
        if limits == "absent":
            del doc["limits"]
        else:
            doc["limits"] = limits
        doc["edges"][0]["capacity"] = {}
        Scenario.from_dict(doc)  # loads: an empty field asks for nothing


class TestRoundTrip:
    def test_to_dict_round_trips(self, s8):
        first = s8.to_dict()
        second = Scenario.from_dict(first).to_dict()
        assert first == second

    def test_reload_matches_file(self, s8, s8_dict):
        assert s8.to_dict() == s8_dict


class TestFuzzedFixtures:
    def test_mutations_fail_cleanly_or_run(self, s8_dict):
        """Mutated fixtures either raise ScenarioError or run end to end."""
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
                matrix = evaluate_all(scenario)
                compromise_select(matrix)
            except (ScenarioError, Exception) as exc:
                # Validated scenarios must never blow up on lookups.
                assert not isinstance(exc, (IndexError, KeyError)), exc
