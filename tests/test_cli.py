import copy
import hashlib
import json
import math
import os
import re
import subprocess
import sys

import pytest

from conftest import FIXTURES, REPO_ROOT


def run_cli(*args, cwd=REPO_ROOT):
    path = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        [sys.executable, "-m", "placenet.cli", *map(str, args)],
        cwd=cwd,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )


class TestSolve:
    def test_json_report_matches_library(self, s8):
        from placenet import compromise_select, evaluate_all

        proc = run_cli("solve", "-s", FIXTURES / "example_s8.json", "--format", "json")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        matrix = evaluate_all(s8)
        assert payload["situations"] == list(matrix.situations)
        for row, expected in zip(payload["payoffs"], matrix.values):
            assert row == pytest.approx(list(expected))
        result = compromise_select(matrix)
        assert payload["selection"]["situations"] == list(result.selected_labels)
        assert payload["selection"]["deciding_value"] == pytest.approx(result.deciding_value)

    def test_table_and_json_carry_same_numbers(self):
        table = run_cli("solve", "-s", FIXTURES / "example_s8.json", "--no-header").stdout
        payload = json.loads(
            run_cli("solve", "-s", FIXTURES / "example_s8.json", "--format", "json").stdout
        )
        lines = table.splitlines()
        start = lines.index("payoff matrix") + 2
        for agent_row, line in enumerate(lines[start : start + 3]):
            cells = [float(v) for v in line.split()[1:]]
            assert cells == pytest.approx(
                [round(v, 2) for v in payload["payoffs"][agent_row]], abs=0.005
            )

    def test_reruns_are_byte_identical(self):
        first = run_cli("solve", "-s", FIXTURES / "example_s8.json")
        second = run_cli("solve", "-s", FIXTURES / "example_s8.json")
        assert first.stdout == second.stdout

    def test_no_header_drops_metadata_line(self):
        with_header = run_cli("solve", "-s", FIXTURES / "example_s8.json").stdout
        without = run_cli("solve", "-s", FIXTURES / "example_s8.json", "--no-header").stdout
        assert with_header.splitlines()[0].startswith("# placenet solve")
        assert without.splitlines()[0] == "payoff matrix"

    def test_report_prints_divergence_note(self):
        out = run_cli("solve", "-s", FIXTURES / "example_s8.json").stdout
        assert "note:" in out and "x13,x18" in out

    def test_out_flag_writes_file(self, tmp_path):
        target = tmp_path / "report.json"
        proc = run_cli(
            "solve", "-s", FIXTURES / "example_s8.json", "--format", "json", "--out", target
        )
        assert proc.returncode == 0
        assert json.loads(target.read_text())["scenario"] == "example_s8"

    def test_detail_flag_includes_situations(self):
        payload = json.loads(
            run_cli(
                "solve", "-s", FIXTURES / "example_s8.json", "--format", "json", "--detail"
            ).stdout
        )
        assert len(payload["details"]) == 6
        assert payload["details"][0]["raw_warehouses"] == {"x7": "x2", "x12": "x5"}

    def test_two_candidate_scenario_single_column(self, tmp_path, s8_dict):
        doc = json.loads(json.dumps(s8_dict))
        doc["sites"]["plants"] = ["x7", "x12"]
        for key in ("x13", "x18"):
            doc["production"]["factors"].pop(key)
        doc["production"]["splits"] = doc["production"]["splits"][:1]
        path = tmp_path / "two.json"
        path.write_text(json.dumps(doc))
        payload = json.loads(run_cli("solve", "-s", path, "--format", "json").stdout)
        assert payload["situations"] == ["x7,x12"]
        assert payload["selection"]["situations"] == ["x7,x12"]

    def test_skipped_situations_appear_in_report(self, tmp_path, s8_dict):
        doc = json.loads(json.dumps(s8_dict))
        doc["production"]["splits"][0]["output"]["x7"]["b1"] = 9  # breaks conservation
        path = tmp_path / "skewed.json"
        path.write_text(json.dumps(doc))
        payload = json.loads(run_cli("solve", "-s", path, "--format", "json").stdout)
        assert payload["skipped"] == [
            {"plants": "x7,x12", "reason": payload["skipped"][0]["reason"]}
        ]
        assert "split for b1" in payload["skipped"][0]["reason"]
        assert len(payload["situations"]) == 5

    def test_invalid_scenario_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"nodes\": []}")
        proc = run_cli("solve", "-s", path)
        assert proc.returncode == 2
        assert "error" in proc.stderr

    def test_missing_file_exits_2(self, tmp_path):
        proc = run_cli("solve", "-s", tmp_path / "absent.json")
        assert proc.returncode == 2

    def test_infeasible_scenario_exits_3(self, tmp_path, s8_dict):
        doc = json.loads(json.dumps(s8_dict))
        doc["demand"]["stores"]["x14"]["b1"] = 50  # beyond any pair's capacity
        doc["production"].pop("splits")
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("solve", "-s", path)
        assert proc.returncode == 3
        assert "infeasible" in proc.stderr

    @pytest.mark.parametrize(
        "extra, digest",
        [
            ((), json.loads((REPO_ROOT / "bench" / "pins.json").read_text())["example_s8"]),
            # The detailed report shows every warehouse and shipment the tie rules chose.
            (("--detail",), "2a82e5234fff676f2447a6cc68626e208634b1f2e5f9f6cc3c1015815a563502"),
        ],
    )
    def test_fixture_report_is_byte_identical_to_pin(self, tmp_path, extra, digest):
        from placenet.cli import main

        out = tmp_path / "report.json"
        args = ["solve", "-s", str(FIXTURES / "example_s8.json"), "--format", "json"]
        assert main([*args, "--out", str(out), *extra]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


    def test_solve_never_builds_a_full_matrix(self, tmp_path, monkeypatch):
        import placenet.scenario
        from placenet.cli import main

        def refuse(net, commodity):
            raise AssertionError(f"full matrix built for {commodity}")

        monkeypatch.setattr(placenet.scenario, "all_pairs_shortest_paths", refuse)
        out = tmp_path / "report.json"
        args = ["solve", "-s", str(FIXTURES / "example_s8.json"), "--format", "json"]
        assert main([*args, "--out", str(out)]) == 0
        pin = json.loads((REPO_ROOT / "bench" / "pins.json").read_text())["example_s8"]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == pin


def _set(doc, path, value):
    *keys, last = path
    for key in keys:
        doc = doc[key]
    doc[last] = value


# (path into example_s8, malformed value, field the error names)
MALFORMED = [
    (("nodes", 0, "x"), "abc", "nodes[0].x"),
    (("nodes", 3, "y"), None, "nodes[3].y"),
    (("edges", 0, "cost", "a1"), "zz", "edges[0] cost for a1"),
    (("edges", 1, "capacity"), {"a1": [5]}, "edges[1] capacity for a1"),
    (("commodities", 0, "storage_fee"), "free", "commodity a1: storage_fee"),
    (("grid_costs",), {"a1": {"horizontal": "h", "vertical": 1}}, "horizontal cost"),
    (("production", "factors", "x7", "b1"), "j", "production factor at x7 for b1"),
    (("production", "exponents", "b2", "a1"), [0.5], "exponent for b2/a1"),
    (("demand", "stores", "x14", "b1"), "five", "demand for x14: b1 units"),
    (("demand", "stores", "x15", "b3"), math.inf, "demand for x15: b3 units"),
    (
        ("production", "splits", 0, "output", "x7", "b1"),
        "7 units",
        "split output at x7 for b1",
    ),
]


class TestMalformedInput:
    """Malformed numbers end in exit 2 with the field named, not a traceback."""

    @pytest.mark.parametrize("path, value, field", MALFORMED, ids=[c[2] for c in MALFORMED])
    def test_exits_2_naming_the_field(self, s8_dict, tmp_path, capsys, path, value, field):
        from placenet.cli import main

        doc = copy.deepcopy(s8_dict)
        _set(doc, path, value)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc))
        assert main(["solve", "-s", str(scenario)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{field} must be a" in err

    def test_first_bad_commodity_is_reported(self, s8_dict, tmp_path, capsys):
        # Both a1 and b1 overflow to an inf cost on edge (0, 1); a1 sorts first.
        from placenet.cli import main

        doc = copy.deepcopy(s8_dict)
        doc["nodes"][0]["x"] = 1e308
        doc["grid_costs"] = {c: {"horizontal": 10, "vertical": 1} for c in ("a1", "b1")}
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc))
        assert main(["solve", "-s", str(scenario)]) == 2
        assert capsys.readouterr().err.endswith(
            ": edge (0, 1) cost for a1 must be finite and >= 0\n"
        )


class TestPaths:
    def test_prints_reference_leg_costs(self):
        proc = run_cli("paths", "-s", FIXTURES / "example_s8.json", "--commodity", "a1")
        assert proc.returncode == 0
        rows = {line.split()[0]: line.split()[1:] for line in proc.stdout.splitlines()[2:]}
        header = proc.stdout.splitlines()[2].split()
        x2_col = header.index("x2")
        assert rows["x1"][x2_col] == "1"
        x7_col = header.index("x7")
        assert rows["x1"][x7_col] == "4"

    def test_json_distances(self):
        payload = json.loads(
            run_cli(
                "paths", "-s", FIXTURES / "example_s8.json", "--commodity", "a2",
                "--format", "json",
            ).stdout
        )
        nodes = payload["nodes"]
        dist = payload["dist"]
        assert dist[nodes.index("x6")][nodes.index("x5")] == 2
        assert dist[nodes.index("x6")][nodes.index("x12")] == 5
        assert dist[nodes.index("x14")][nodes.index("x1")] is None

    def test_unknown_commodity_exits_2(self):
        proc = run_cli("paths", "-s", FIXTURES / "example_s8.json", "--commodity", "zz")
        assert proc.returncode == 2


class TestSolvers:
    def test_transport_fixture_objective(self):
        proc = run_cli("transport", FIXTURES / "transport_2x2.json")
        assert proc.returncode == 0
        assert "objective L = 40" in proc.stdout

    def test_transport_unbalanced_mentions_fictitious(self):
        proc = run_cli("transport", FIXTURES / "transport_unbalanced.json")
        assert "fictitious destination" in proc.stdout

    def test_transport_json_payload(self):
        payload = json.loads(
            run_cli("transport", FIXTURES / "transport_2x2.json", "--format", "json").stdout
        )
        assert payload["objective"] == 40
        assert payload["allocation"] == [[10, 0], [5, 15]]
        assert payload["balanced_input"] is True

    def test_load_fixture(self):
        proc = run_cli("load", FIXTURES / "loading_small.json", "--format", "json")
        payload = json.loads(proc.stdout)
        assert payload["counts"] == {"crate": 1, "pallet": 1}
        assert payload["objective"] == 7

    def test_load_capacity_override_zero(self):
        proc = run_cli("load", FIXTURES / "loading_small.json", "--capacity", "0")
        assert proc.returncode == 0
        assert "objective z = 0" in proc.stdout

    def test_plan_fixture(self):
        proc = run_cli("plan", FIXTURES / "plan_small.json")
        assert proc.returncode == 0
        assert "objective L = 24" in proc.stdout
        assert re.search(r"x = 8\s+0", proc.stdout)

    def test_load_quantum_scales_fractional_weights(self, tmp_path):
        path = tmp_path / "frac.json"
        path.write_text(
            json.dumps(
                {
                    "capacity": 1.0,
                    "items": [{"name": "unit", "weight": 0.25, "profit": 2}],
                }
            )
        )
        proc = run_cli("load", path, "--quantum", "0.25", "--format", "json")
        payload = json.loads(proc.stdout)
        assert payload["counts"] == {"unit": 4}
        assert payload["objective"] == 8

    def test_warehouse_selection_unit_mode_runs(self):
        proc = run_cli(
            "solve", "-s", FIXTURES / "example_s8.json",
            "--warehouse-selection", "unit", "--format", "json",
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["selection"]["situations"] == ["x7,x12"]

    def test_normalize_by_ideal_runs(self):
        proc = run_cli(
            "solve", "-s", FIXTURES / "example_s8.json", "--normalize", "by_ideal",
            "--format", "json",
        )
        assert proc.returncode == 0

    def test_plan_infeasible_exits_3(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(
            json.dumps(
                {
                    "lower": [5, 5],
                    "upper": [10, 10],
                    "resource_use": [[1], [2]],
                    "resource_limits": [8],
                    "profit": [3, 5],
                }
            )
        )
        proc = run_cli("plan", path)
        assert proc.returncode == 3
