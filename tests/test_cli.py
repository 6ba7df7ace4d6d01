import copy
import hashlib
import json
import math
import os
import random
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
        assert "all 6 plant pairs were skipped" in proc.stderr
        assert "first skipped x7,x12: allocation of b1 exceeds capacity at x12" in proc.stderr

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

        kernel = placenet.scenario.shortest_paths
        calls = []

        def rows_only(net, commodity, sources):
            sources = list(sources)
            calls.append(commodity)
            assert len(sources) < len(net), f"full matrix built for {commodity}"
            return kernel(net, commodity, sources)

        monkeypatch.setattr(placenet.scenario, "shortest_paths", rows_only)
        out = tmp_path / "report.json"
        args = ["solve", "-s", str(FIXTURES / "example_s8.json"), "--format", "json"]
        assert main([*args, "--out", str(out)]) == 0
        assert sorted(calls) == ["a1", "a2", "b1", "b2", "b3"]
        pin = json.loads((REPO_ROOT / "bench" / "pins.json").read_text())["example_s8"]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == pin


def _solver_instances() -> dict[str, tuple[str, dict]]:
    """The solver fixtures and seeded instances: zero supplies and demands, a
    northwest corner that exhausts a row and a column at once, tied costs and
    profit ratios, fractional data, and a 20x20 transportation instance."""
    fixtures = {
        "transport_2x2": "transport",
        "transport_unbalanced": "transport",
        "loading_small": "load",
        "plan_small": "plan",
    }
    cases = {
        name: (command, json.loads((FIXTURES / f"{name}.json").read_text()))
        for name, command in fixtures.items()
    }
    rng = random.Random(2024)

    def ints(k, lo, hi):
        return [rng.randint(lo, hi) for _ in range(k)]

    def decimals(k, lo, hi):
        return [round(rng.uniform(lo, hi), 2) for _ in range(k)]

    cases["transport-ties"] = ("transport", {
        "supply": ints(6, 0, 5), "demand": ints(7, 0, 5), "costs": [ints(7, 0, 2) for _ in range(6)]
    })
    cases["transport-degenerate"] = ("transport", {
        "supply": [3, 0, 4, 2, 1],
        "demand": [3, 4, 0, 2, 1],
        "costs": [ints(5, 0, 3) for _ in range(5)],
    })
    cases["transport-fractional"] = ("transport", {
        "supply": decimals(8, 0, 9),
        "demand": decimals(6, 0, 9),
        "costs": [decimals(6, 0, 5) for _ in range(8)],
    })
    supply = ints(20, 1, 9)
    cuts = sorted(rng.randint(0, sum(supply)) for _ in range(19))
    cases["transport-20x20"] = ("transport", {
        "supply": supply,
        "demand": [b - a for a, b in zip([0] + cuts, cuts + [sum(supply)])],
        "costs": [ints(20, 0, 20) for _ in range(20)],
    })
    cases["load-decimal"] = ("load", {"capacity": 700, "items": [
        {"name": f"i{k}", "weight": rng.randint(7, 40), "profit": round(rng.uniform(1, 60), 2)}
        for k in range(8)
    ]})
    cases["load-ties"] = ("load", {"capacity": 61, "items": [
        {"name": f"w{w}", "weight": w, "profit": 1.5 * w} for w in (6, 2, 4, 3)
    ]})
    use = [decimals(4, 0, 3) for _ in range(8)]
    lower = ints(8, 0, 2)
    cases["plan-fractional"] = ("plan", {
        "lower": lower,
        "upper": [lo + round(rng.uniform(0.5, 6), 2) for lo in lower],
        "resource_use": use,
        "resource_limits": [
            round(sum(u[j] * lo for u, lo in zip(use, lower)) + rng.uniform(0, 15), 2)
            for j in range(4)
        ],
        "profit": decimals(7, 0, 9) + [-1.5],
    })
    cases["plan-degenerate"] = ("plan", {
        "lower": [1, 0, 2, 0],
        "upper": [4, 3, 5, 2],
        "resource_use": [[1, 2], [1, 0], [0, 1], [2, 2]],
        "resource_limits": [1, 4],
        "profit": [2, 2, 2, 2],
    })
    return cases


SOLVER_INSTANCES = _solver_instances()

# sha256 of each instance's `--format json` output, followed by the solver state
# the output leaves out (transport potentials, the loading table's bytes),
# recorded from the solvers before the basis-tree rewrite.
SOLVER_PINS = {
    "transport_2x2": "27016a5c381ac76944201182ac80028342a5ef06226e4dc17b13349bb4922dd4",
    "transport_unbalanced": "da7d9b87dd23dd51c09b4357f37a5e8ef96a8cd3c1cfd3afd2960ffbe9dfada0",
    "loading_small": "bfe763c30d179136d0c127bc407b9b8e8c3187accd72a559c3f98f8ab1c3ead8",
    "plan_small": "bbf73bfc25a2c8d26e7f5c82792bdb0bd7674d59135c833486b4c56aac828196",
    "transport-ties": "fd3c2967bfcc0a189057c9ffdb8b44c8402f7dcccf252ba581006a6ce0df8142",
    "transport-degenerate": "59deb652d1f13699a17c0e5558c2f0d0ce97357d06af6b80588eddd2667f0c36",
    "transport-fractional": "a10be74bfcf42092ea3e9129561d448ae72381bf67c1197ae9f0c0b84bb85806",
    "transport-20x20": "3a51ab7b47aeec57b0380ab35f56126430a5bfae887412846335fb3f807ce123",
    "load-decimal": "cedf5559cdf4382ea05ea9a33c0e53d9fcfdb6024042936913242cdbd2d9e775",
    "load-ties": "de91726044b870d5854a5393ee35476ad5953be86bb147f4c4b7a517c755ce68",
    "plan-fractional": "5b086635453c88c2f39d9d4057c795da51327e0fb8d999a1f468b99e4a24a0d8",
    "plan-degenerate": "16f169684aeb8fab1be410713459290bfb6b5bc25c0b232dfbeb562a14856b33",
}


def _solver_digest(tmp_path, name: str) -> str:
    from placenet import optimizers
    from placenet.cli import main

    command, doc = SOLVER_INSTANCES[name]
    instance, out = tmp_path / f"{name}.json", tmp_path / "out.json"
    instance.write_text(json.dumps(doc))
    assert main([command, str(instance), "--format", "json", "--out", str(out)]) == 0
    state = b""
    if command == "transport":
        plan = optimizers.solve_transportation(optimizers.TransportInstance.from_dict(doc))
        state = repr(plan.potentials).encode()
    elif command == "load":
        state = optimizers.solve_loading(optimizers.LoadingInstance.from_dict(doc)).table.tobytes()
    return hashlib.sha256(out.read_bytes() + state).hexdigest()


class TestSolverPins:
    """Solver outputs stay bit-identical to the pinned ones."""

    @pytest.mark.parametrize("name", list(SOLVER_INSTANCES))
    def test_output_matches_pin(self, tmp_path, name):
        assert _solver_digest(tmp_path, name) == SOLVER_PINS[name]


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
    # a non-list where the schema has a list
    (("nodes",), 5, "nodes"),
    (("edges",), 5, "edges"),
    (("commodities",), 5, "commodities"),
    (("notes",), 5, "notes"),
    (("sites", "raw_warehouses"), 5, "sites.raw_warehouses"),
    (("sites", "plants"), 5, "sites.plants"),
    (("sites", "product_warehouses"), 5, "sites.product_warehouses"),
    (("sites", "stores"), "x14", "sites.stores"),
    (("production", "splits"), 5, "production.splits"),
    (("production", "splits", 0, "plants"), 5, "production.splits[0].plants"),
]

# (path into example_s8, value, test id, field the error names): a non-empty
# field that placenet does not enforce is refused, whatever its value.
NOT_ENFORCED = "{}: placenet does not enforce this field"
UNENFORCED = [
    (("edges", 1, "capacity"), {"a1": [5]}, "edges[1] capacity for a1", "edges[1].capacity"),
    (("edges", 1, "capacity"), {"a1": 100}, "edges[1].capacity", "edges[1].capacity"),
    (("limits", "max_distances"), 5, "limits.max_distances", "limits.max_distances"),
    (
        ("limits", "max_distances"),
        [{"between": 5, "max": 1}],
        "limits.max_distances[0].between",
        "limits.max_distances",
    ),
    (("limits", "total_raw"), 5, "limits.total_raw", "limits.total_raw"),
]
EXITS_2 = [(path, value, f"{field} must be a") for path, value, field in MALFORMED] + [
    (path, value, NOT_ENFORCED.format(field)) for path, value, _, field in UNENFORCED
]


class TestMalformedInput:
    """Malformed numbers end in exit 2 with the field named, not a traceback."""

    @pytest.mark.parametrize(
        "path, value, message", EXITS_2, ids=[c[2] for c in MALFORMED + UNENFORCED]
    )
    def test_exits_2_naming_the_field(self, s8_dict, tmp_path, capsys, path, value, message):
        from placenet.cli import main

        doc = copy.deepcopy(s8_dict)
        _set(doc, path, value)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc))
        assert main(["solve", "-s", str(scenario)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

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


# (command, input file, path into it, malformed value, what the error says)
REJECTED = [
    ("transport", "transport_2x2", ("supply",), ["a"], "supply[0] must be a number"),
    ("transport", "transport_2x2", ("costs",), [1], "costs[0] must be a list"),
    ("transport", "transport_2x2", ("demand", 0), math.inf, "demand[0] must be a finite number"),
    ("load", "loading_small", ("items", 0), 3, "items[0] must be an object"),
    ("load", "loading_small", ("items", 1, "profit"), math.nan, "items[1].profit must be a finite"),
    ("plan", "plan_small", ("profit", 1), math.nan, "profit[1] must be a finite number"),
    ("load", "loading_small", ("capacity",), 1e12, "needs a table of 4000000000004 cells"),
    ("load", "loading_small", ("items", 0, "profit"), 1e308, "the loading objective overflowed"),
    (
        "transport",
        "transport_2x2",
        ("costs",),
        [[1e308, 0], [0, 1e308]],
        "the transport potentials overflowed",
    ),
    ("plan", "plan_small", ("profit",), [1e308, 1e308], "the plan objective overflowed"),
    ("solve", "example_s8", ("nodes", 0), 5, "nodes[0] must be an object"),
    ("solve", "example_s8", ("grid_costs",), {"a1": 3}, "grid_costs[a1] must be an object"),
    (
        "solve",
        "example_s8",
        ("production", "exponents", "b1", "a1"),
        400,
        "output value of b1 at plant x7 overflows",
    ),
    (
        "solve",
        "example_s8",
        ("demand", "stores", "x14", "b1"),
        2.5,
        "demand for x14: b1 units must be an integer",
    ),
    (
        "solve",
        "example_s8",
        ("production", "splits", 0, "output", "x7", "b1"),
        2.5,
        "split output at x7 for b1 must be an integer",
    ),
]


@pytest.mark.parametrize(
    "command, name, path, value, message", REJECTED, ids=[c[-1] for c in REJECTED]
)
def test_malformed_input_exits_2_naming_the_field(
    tmp_path, capsys, command, name, path, value, message
):
    from placenet.cli import main

    doc = json.loads((FIXTURES / f"{name}.json").read_text())
    _set(doc, path, value)
    instance = tmp_path / "input.json"
    instance.write_text(json.dumps(doc))
    args = ["-s", str(instance)] if command == "solve" else [str(instance)]
    assert main([command, *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err

# sha256 of `paths -s example_s8.json --commodity C --format F`, recorded from
# the Floyd kernel that the single shortest-path kernel replaced.
PATHS_PINS = [
    ("a1", "table", "4834a149262917d19e74aed4c14c7846f95a41a4b43e19d50f145d322fa7164e"),
    ("a1", "json", "f6299af4a4096434a7a421300c8dd8332af88e2ef938e5703575d3989a6abc1d"),
    ("a2", "table", "8a2e935c56edc0f011570aaae2859e4b4994307ecf28cf28a2d336af494d396a"),
    ("a2", "json", "c5d426e4eb4c224ca50224a0da351c6add1396323881f390a8e7d4f4f6129a2c"),
    ("b1", "table", "e5095e3690eecb4637a8a3fb24b3e65504e51c265a5a4219e888197460db93d2"),
    ("b1", "json", "6a27d625284f2a12bf555d179c61a96f5ac29900d759907d331a5e6a4ecdebda"),
    ("b2", "table", "f4c958e7f5b31dfa48908c52b2505fc546bd4b15b6b7fb7a1d448b1199914060"),
    ("b2", "json", "45590576f7710a26b7db8a8812edf1cdab939be76f60a748e0d1b1338303a815"),
    ("b3", "table", "5570a1fe8b137fe4a1fd03b3f755a930f4cd4467b20625210abab172f92b7af6"),
    ("b3", "json", "659fa1a1cd21fbc8dcea970ef958a8d2d56f9ee05535a11bc447dea83d925c72"),
]


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

    @pytest.mark.parametrize("commodity, fmt, digest", PATHS_PINS)
    def test_output_matches_pin(self, tmp_path, commodity, fmt, digest):
        from placenet.cli import main

        out = tmp_path / "paths.txt"
        args = ["paths", "-s", str(FIXTURES / "example_s8.json"), "--commodity", commodity]
        assert main([*args, "--format", fmt, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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

    @pytest.mark.parametrize("extra", [(), ("--integer",)])
    def test_plan_overflow_prints_only_the_error(self, tmp_path, extra):
        doc = json.loads((FIXTURES / "plan_small.json").read_text())
        doc["profit"] = [1e308, 1e308]
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("plan", path, *extra)
        assert proc.returncode == 2
        assert proc.stderr == (
            "error: the plan objective overflowed; the input numbers are too large\n"
        )
