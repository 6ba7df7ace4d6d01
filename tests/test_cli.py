import contextlib
import copy
import dataclasses
import functools
import hashlib
import importlib.util
import io
import itertools
import json
import math
import operator
import os
import pkgutil
import random
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from placenet.cli import main
from conftest import FIXTURES, REPO_ROOT, bench_scenario


def run_python(*args, cwd=REPO_ROOT, text=True, **env):
    """``python *args`` in a child process that imports placenet from ``src``,
    with ``env`` added to its environment."""
    path = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        [sys.executable, *map(str, args)],
        cwd=cwd,
        capture_output=True,
        text=text,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)), **env},
    )


def run_cli(*args, **kwargs):
    """``placenet`` in a child process."""
    return run_python("-m", "placenet.cli", *args, **kwargs)


class TestSolve:
    def test_json_report_matches_library(self, s8):
        from placenet import compromise_select, enumerate_situations, evaluate_all

        proc = run_cli("solve", "-s", FIXTURES / "example_s8.json", "--format", "json")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        matrix = evaluate_all(s8, enumerate_situations(s8))
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

    def test_skipped_situation_prints_in_table(self, tmp_path, capsys, s8_dict):
        doc = copy.deepcopy(s8_dict)
        doc["production"]["splits"][0]["output"]["x7"]["b1"] = 9  # breaks conservation
        path = tmp_path / "skewed.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", "-s", str(path), "--format", "json"]) == 0
        (skip,) = json.loads(capsys.readouterr().out)["skipped"]
        assert main(["solve", "-s", str(path), "--no-header"]) == 0
        lines = capsys.readouterr().out.splitlines()
        first_note = next(k for k, line in enumerate(lines) if line.startswith("note: "))
        assert lines[first_note - 1] == f"skipped x7,x12: {skip['reason']}"

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

    def test_residuals_above_int64_quanta_still_order(self, tmp_path, capsys, s8_dict):
        # Top residuals of ~3.6e15 and 4.4e15 are ~1e24 quanta of 1e-9, past int64.
        doc = copy.deepcopy(s8_dict)
        doc["demand"]["stores"]["x14"]["b1"] = 10**15
        doc["production"]["capacity"] = {
            plant: {b: 1e300 for b in ("b1", "b2", "b3")} for plant in doc["sites"]["plants"]
        }
        doc["production"].pop("splits")
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", "-s", str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["selection"]["situations"] == ["x12,x13", "x12,x18"]

    @pytest.mark.parametrize(
        "args",
        [
            ("solve", "-s", FIXTURES / "example_s8.json"),
            ("load", FIXTURES / "loading_small.json", "--format", "json"),
        ],
        ids=["solve", "load"],
    )
    def test_out_into_missing_directory_exits_2(self, tmp_path, args):
        target = tmp_path / "absent" / "out.txt"
        proc = run_cli(*args, "--out", target)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and "No such file or directory" in proc.stderr
        assert proc.stdout == ""
        assert not target.parent.exists()

    @pytest.mark.parametrize(
        "extra, digest",
        [
            ((), json.loads((REPO_ROOT / "bench" / "pins.json").read_text())["example_s8"]),
            # The detailed report shows every warehouse and shipment the tie rules chose.
            (("--detail",), "2a82e5234fff676f2447a6cc68626e208634b1f2e5f9f6cc3c1015815a563502"),
        ],
    )
    def test_fixture_report_is_byte_identical_to_pin(self, tmp_path, extra, digest):
        out = tmp_path / "report.json"
        args = ["solve", "-s", str(FIXTURES / "example_s8.json"), "--format", "json"]
        assert main([*args, "--out", str(out), *extra]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


    def test_solve_never_builds_a_full_matrix(self, tmp_path, monkeypatch, s8):
        import placenet.scenario
        kernel = placenet.scenario.stacked_shortest_paths
        runs = []

        def rows_only(n, blocks):
            carried = []
            for edges, sources in blocks:
                commodity = next(
                    c for c, arrays in s8.edges.items()
                    if all(np.array_equal(a, b) for a, b in zip(arrays, edges))
                )
                carried.append(commodity)
                assert len(sources) < n, f"full matrix built for {commodity}"
            runs.append(carried)
            return kernel(n, blocks)

        monkeypatch.setattr(placenet.scenario, "stacked_shortest_paths", rows_only)
        out = tmp_path / "report.json"
        args = ["solve", "-s", str(FIXTURES / "example_s8.json"), "--format", "json"]
        assert main([*args, "--out", str(out)]) == 0
        assert [sorted(carried) for carried in runs] == [["a1", "a2", "b1", "b2", "b3"]]
        pin = json.loads((REPO_ROOT / "bench" / "pins.json").read_text())["example_s8"]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == pin

    @pytest.mark.parametrize("workload", ["synth-wide", "synth-transit"])
    @pytest.mark.parametrize("seed", [0, 1, 11, 17])
    def test_bench_scenarios_match_pins(self, tmp_path, workload, seed):
        """The benchmark's generated scenarios, plain and with --detail, give
        the reports pinned in bench/pins.json."""
        pins = json.loads((REPO_ROOT / "bench" / "pins.json").read_text())
        scenario = bench_scenario(workload, seed, tmp_path)
        out = tmp_path / "report.json"
        for extra, key in (((), workload), (("--detail",), workload + ".detail")):
            args = ["solve", "-s", str(scenario), "--format", "json", "--out", str(out), *extra]
            assert main(args) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == pins[key][seed], key

    def test_bench_tracer_finds_every_wrapped_name(self, monkeypatch):
        """A wrapped name that no longer resolves reads 0 in its benchmark
        metric without failing a run, so the tracer's absent names are pinned."""
        spec = importlib.util.spec_from_file_location("tracer", REPO_ROOT / "bench" / "tracer.py")
        tracer = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, "tracer", tracer)  # its dataclasses look it up
        spec.loader.exec_module(tracer)
        traced = tracer.Tracer()
        try:
            traced.install()
            assert traced.absent == [
                "placenet.scenario.all_pairs_shortest_paths",
                "placenet.agents.build_situation",
                "placenet.costflow.greedy_flow",
                "placenet.scenario.Scenario.distance",
            ]
        finally:
            traced.restore()

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_only_detail_builds_shipments(self, capsys, monkeypatch, fmt):
        """The pair search adds up flow costs only; shipments are built for
        --detail, the one output that shows them."""
        from placenet import costflow
        made = []
        shipment = costflow.Shipment

        def counted(*args):
            made.append(args)
            return shipment(*args)

        monkeypatch.setattr(costflow, "Shipment", counted)
        args = ["solve", "-s", str(FIXTURES / "example_s8.json"), "--format", fmt]
        assert main(args) == 0
        assert made == []
        assert main([*args, "--detail"]) == 0
        assert len(made) > 0
        assert "x7" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command", [("solve",), ("paths", "--commodity", "a1")], ids=["solve", "paths"]
    )
    def test_missing_scenario_names_the_read(self, tmp_path, command):
        path = tmp_path / "absent.json"
        proc = run_cli(command[0], "-s", path, *command[1:])
        assert proc.returncode == 2
        assert proc.stderr == f"error: cannot read {path}: No such file or directory\n"
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "args",
        [
            ("solve", "-s", FIXTURES / "example_s8.json", "--format", "json"),
            ("paths", "-s", FIXTURES / "example_s8.json", "--commodity", "a1"),
            ("transport", FIXTURES / "transport_2x2.json"),
        ],
        ids=["solve", "paths", "transport"],
    )
    def test_out_failure_names_the_write(self, tmp_path, args):
        target = tmp_path / "absent" / "out.txt"
        proc = run_cli(*args, "--out", target)
        assert proc.returncode == 2
        assert proc.stderr == f"error: cannot write {target}: No such file or directory\n"
        assert proc.stdout == ""
        assert not target.parent.exists()


def _report_without_digest(doc, tmp_path, capsys) -> str:
    """`solve --detail --format json` on ``doc``, its digest blanked."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", "-s", str(path), "--detail", "--format", "json"]) == 0
    return re.sub(r'"digest": "[0-9a-f]{64}"', '"digest": ""', capsys.readouterr().out, count=1)


def _split_edge(doc: dict) -> None:
    """Route ``edges[5]`` through a new relay node, its integer costs split in two."""
    edge = doc["edges"].pop(5)
    doc["nodes"].append({"id": "relay", "x": 0, "y": 0})
    doc["edges"] += [
        {"from": edge["from"], "to": "relay", "cost": {c: v // 2 for c, v in edge["cost"].items()}},
        {"from": "relay", "to": edge["to"], "cost": {c: v - v // 2 for c, v in edge["cost"].items()}},
    ]


# Edits of example_s8 that leave every route cost, and so the report, as it is.
SAME_ROUTES = {
    "dearer parallel edge": lambda d: d["edges"].append(
        {**d["edges"][7], "cost": {c: v + 1 for c, v in d["edges"][7]["cost"].items()}}
    ),
    "edge split through a relay": _split_edge,
    "node without edges": lambda d: d["nodes"].append({"id": "lonely", "x": 5, "y": 5}),
}


class TestSolveMetamorphic:
    """Edits that change no route cost change nothing in `solve --detail`
    but the digest."""

    @pytest.mark.parametrize("field", ["edges", "nodes"])
    @pytest.mark.parametrize("workload", ["example_s8", "synth-wide", "synth-transit"])
    def test_shuffled_lists_give_the_same_report(self, tmp_path, capsys, workload, field):
        if workload == "example_s8":
            path = FIXTURES / "example_s8.json"
        else:
            path = bench_scenario(workload, 0, tmp_path)
        doc = json.loads(path.read_text())
        base = _report_without_digest(doc, tmp_path, capsys)
        rng = random.Random(f"{workload}-{field}")
        for _ in range(3):
            rng.shuffle(doc[field])
            assert _report_without_digest(doc, tmp_path, capsys) == base

    @pytest.mark.parametrize("edit", list(SAME_ROUTES))
    def test_edits_that_keep_every_route_cost(self, tmp_path, capsys, s8_dict, edit):
        base = _report_without_digest(s8_dict, tmp_path, capsys)
        doc = copy.deepcopy(s8_dict)
        SAME_ROUTES[edit](doc)
        assert _report_without_digest(doc, tmp_path, capsys) == base


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
    (("commodities", 0, "unit_cost"), "cheap", "commodity a1: unit_cost"),
    (("commodities", 0, "unit_cost"), -1, "commodity a1: unit_cost"),
    (("commodities", 0, "purchase_price"), [15], "commodity a1: purchase_price"),
    (("commodities", 0, "purchase_price"), -0.5, "commodity a1: purchase_price"),
    (("grid_costs",), {"a1": {"horizontal": "h", "vertical": 1}}, "grid_costs[a1].horizontal"),
    (("production", "factors", "x7", "b1"), "j", "production factor at x7 for b1"),
    (("production", "exponents", "b2", "a1"), [0.5], "exponent for b2/a1"),
    (("demand", "stores", "x14", "b1"), "five", "demand for x14: b1 units"),
    (("demand", "stores", "x15", "b3"), math.inf, "demand for x15: b3 units"),
    (("demand", "stores", "x16", "b2"), True, "demand for x16: b2 units"),
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
        doc = copy.deepcopy(s8_dict)
        _set(doc, path, value)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc))
        assert main(["solve", "-s", str(scenario)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_first_bad_commodity_is_reported(self, s8_dict, tmp_path, capsys):
        # Both a1 and b1 overflow to an inf cost on edges[0], x1 -> x2; a1 sorts first.
        doc = copy.deepcopy(s8_dict)
        for edge in doc["edges"]:
            del edge["cost"]  # grid_costs price every edge
        doc["nodes"][0]["x"] = 1e308
        doc["grid_costs"] = {c: {"horizontal": 10, "vertical": 1} for c in ("a1", "b1")}
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc))
        assert main(["solve", "-s", str(scenario)]) == 2
        assert capsys.readouterr().err.endswith(
            ": edges[0] (x1 -> x2) cost for a1 must be finite and >= 0\n"
        )


# (path into example_s8, value, what the error says): a field that would have
# no effect on any solve is refused rather than silently ignored.
NO_EFFECT = [
    (("commodities", 2, "unit_cost"), 3, "commodity b1: unit_cost has no effect on a product"),
    (
        ("commodities", 4, "purchase_price"),
        0.5,
        "commodity b3: purchase_price has no effect on a product",
    ),
    (
        ("production", "factors", "x2"),
        {"b1": 1.0},
        "production.factors: 'x2' is not a plant candidate",
    ),
    (
        ("production", "capacity"),
        {"x7": {"b1": 10}, "x14": {"b1": 5}},
        "production.capacity: 'x14' is not a plant candidate",
    ),
    (
        ("grid_costs",),
        {"a1": {"horizontal": 1, "vertical": 1}},
        "edges[0].cost has no effect when grid_costs is given",
    ),
]

# (path into example_s8, value, what the error says): a document that breaks a
# structural rule of the schema is refused with the rule named.
LOADER_REFUSED = [
    (("nodes",), [], "nodes: list must be nonempty"),
    (("commodities", 0, "kind"), "fuel", "commodity a1: kind must be 'raw' or 'product'"),
    (("commodities", 1, "id"), "a1", "commodities: duplicate id 'a1'"),
    (("edges", 0, "cost"), {"zz": 1}, "edges[0].cost: unknown commodity 'zz'"),
    (("recipes", "b1", "b2"), 1, "recipe for b1: commodity 'b2' is not a raw"),
    (("recipes", "a1"), {"a2": 1}, "recipes: commodity 'a1' is not a product"),
    (("edges", 0, "cost"), {}, "edges[0]: needs a cost map (no grid_costs given)"),
    (("recipes", "b1"), {"a1": 0, "a2": 0}, "recipe for b1: needs at least one positive entry"),
    # a raw at 0 units would zero the product's value through its exponent
    (
        ("recipes", "b1", "a1"),
        0,
        "recipe for b1: a1 must be > 0 units; leave out a raw the product does not use",
    ),
    (
        ("recipes",),
        {"b1": {"a1": 1, "a2": 1}, "b2": {"a1": 1, "a2": 2}},
        "recipes: product 'b3' has no recipe",
    ),
    (
        ("sites", "extraction"),
        {"a1": "x1"},
        "sites.extraction: raw 'a2' has no extraction node",
    ),
    (("sites", "stores"), ["x14", "x14"], "sites.stores: duplicate node ids"),
    (("demand", "stores", "x2"), {}, "demand.stores: 'x2' is not a store site"),
    (
        ("demand", "retail_prices"),
        {"b1": 85, "b2": 125},
        "demand.retail_prices: missing product 'b3'",
    ),
    (
        ("production", "factors", "x7"),
        {"b1": 2.1, "b2": 2.2},
        "production.factors: missing factor for plant 'x7', product 'b3'",
    ),
    (
        ("production", "factors", "x18"),
        {},
        "production.factors: missing factor for plant 'x18', product 'b1'",
    ),
    (("production", "exponents", "b1", "a1"), 0, "exponent for b1/a1 must be > 0"),
    (
        ("production", "exponents"),
        {"b1": {}, "b2": {}},
        "production.exponents: missing product 'b3'",
    ),
    # an exponent outside the recipe would zero the output value; a missing one would drop its raw
    (("recipes", "b1"), {"a1": 1}, "production.exponents[b1]: 'a2' is not in the recipe for b1"),
    (
        ("production", "exponents", "b1"),
        {},
        "production.exponents[b1]: missing exponent for recipe raw 'a1'",
    ),
    (
        ("production", "exponents", "b2"),
        {"a1": 0.33},
        "production.exponents[b2]: missing exponent for recipe raw 'a2'",
    ),
    (
        ("production", "splits", 0, "plants"),
        ["x7", "x7"],
        "production.splits[0]: plants must be two distinct nodes",
    ),
    (
        ("production", "splits", 0, "plants"),
        ["x7", "x2"],
        "production.splits[0]: 'x2' is not a plant candidate",
    ),
    (
        ("production", "splits", 0, "output", "x7", "b1"),
        -1,
        "split output at x7 for b1 must be >= 0",
    ),
    (
        ("production", "splits", 0, "output", "x13"),
        {},
        "production.splits[0]: output must cover exactly both plants",
    ),
    # ids, the name and notes are strings, not values that str() turns into one
    (("name",), None, "name must be a string, got None"),
    (("nodes", 13, "id"), 14, "nodes[13].id must be a string, got 14"),
    (("commodities", 0, "id"), 1, "commodities[0].id must be a string, got 1"),
    (("edges", 0, "from"), None, "edges[0].from must be a string, got None"),
    (("sites", "extraction", "a1"), ["x1"], "sites.extraction[a1] must be a string, got ['x1']"),
    (("sites", "plants", 1), 12, "sites.plants[1] must be a string, got 12"),
    (
        ("production", "splits", 0, "plants", 1),
        None,
        "production.splits[0].plants[1] must be a string, got None",
    ),
    (("notes", 0), {"a": 1}, "notes[0] must be a string, got {'a': 1}"),
]
REFUSED = NO_EFFECT + LOADER_REFUSED


@pytest.mark.parametrize("path, value, message", REFUSED, ids=[c[2] for c in REFUSED])
def test_field_without_effect_exits_2_naming_it(s8_dict, tmp_path, capsys, path, value, message):
    doc = copy.deepcopy(s8_dict)
    _set(doc, path, value)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    assert main(["solve", "-s", str(scenario)]) == 2
    assert capsys.readouterr().err == f"error: {scenario}: {message}\n"


def test_non_object_document_exits_2(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text("[]")
    assert main(["solve", "-s", str(scenario)]) == 2
    message = "scenario document must be a JSON object"
    assert capsys.readouterr().err == f"error: {scenario}: {message}\n"


@pytest.mark.parametrize("raw_routes", ["priced", "free"])
def test_overflowing_raw_requirement_exits_2(s8_dict, tmp_path, capsys, raw_routes):
    """Recipes of 1e308 make a raw requirement overflow to inf.  It used to
    end in a false "no a1 route" (exit 3), or, with free raw routes, in a
    traceback from inf * 0 = NaN scores."""
    doc = copy.deepcopy(s8_dict)
    for recipe in doc["recipes"].values():
        recipe.update(dict.fromkeys(recipe, 1e308))
    if raw_routes == "free":
        for edge in doc["edges"]:
            edge["cost"].update({rid: 0 for rid in ("a1", "a2") if rid in edge["cost"]})
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    for mode in ("weighted", "unit"):
        assert main(["solve", "-s", str(scenario), "--warehouse-selection", mode]) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", "error: recipe for b1: the a1 requirement overflows\n")


def test_overflowing_raw_score_exits_2(s8_dict, tmp_path, capsys):
    """Recipes of 1e306 keep every raw requirement finite, but a requirement
    times a finite route cost overflows.  That used to end in a false "no a2
    route" (exit 3) after numpy overflow warnings."""
    doc = copy.deepcopy(s8_dict)
    for recipe in doc["recipes"].values():
        recipe.update(dict.fromkeys(recipe, 1e306))
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    assert main(["solve", "-s", str(scenario)]) == 2
    out = capsys.readouterr()
    message = "the a2 route cost to plant x7 overflows its raw-warehouse score"
    assert (out.out, out.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "path, message",
    [
        (("demand", "retail_prices", "b1"), "the agent3 payoff of situation x7,x12 overflows"),
        (("handling_rate",), "the agent1 payoff of situation x7,x12 overflows"),
        (("commodities", 0, "storage_fee"), "the agent1 payoff of situation x7,x12 overflows"),
        (("commodities", 0, "unit_cost"), "the agent1 payoff of situation x7,x12 overflows"),
    ],
    ids=["retail_price", "handling_rate", "storage_fee", "unit_cost"],
)
def test_overflowing_payoff_names_the_agent_and_situation(
    s8_dict, tmp_path, capsys, path, message
):
    """Each field at 1e308 is finite, but a payoff it enters is not.  That
    used to end in "payoff matrix entries must be finite", naming nothing."""
    doc = copy.deepcopy(s8_dict)
    _set(doc, path, 1e308)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    assert main(["solve", "-s", str(scenario)]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "commodity, leg, path",
    [("a1", "x1 -> x2 -> x7", "x1 -> x7"), ("b1", "x7 -> x8 -> x14", "x7 -> x14")],
)
def test_overflowing_route_cost_exits_2(s8_dict, tmp_path, capsys, commodity, leg, path):
    """Every edge of one commodity at 1e308: each edge cost is finite, but a
    route over two edges costs more than a float holds.  That used to read as
    no route: `solve` ended in a false "no a1 route" (exit 3) after a numpy
    overflow warning, and `paths` printed null."""
    doc = copy.deepcopy(s8_dict)
    for edge in doc["edges"]:
        if commodity in edge["cost"]:
            edge["cost"][commodity] = 1e308
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    for mode in ("weighted", "unit"):
        assert main(["solve", "-s", str(scenario), "--warehouse-selection", mode]) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"error: the {commodity} route cost {leg} overflows\n")
    assert main(["paths", "-s", str(scenario), "--commodity", commodity]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: the {commodity} route cost {path} overflows\n")


def test_overflowing_costlier_route_changes_nothing(s8_dict, tmp_path, capsys):
    """A detour x1 -> z -> x2 of two 1e308 edges costs more than a float
    holds, but the direct edge is cheaper: every route cost, and so the
    report, stays as it was."""
    doc = copy.deepcopy(s8_dict)
    doc["nodes"].append({"id": "z", "x": 0, "y": 0})
    doc["edges"] += [
        {"from": "x1", "to": "z", "cost": {"a1": 1e308}},
        {"from": "z", "to": "x2", "cost": {"a1": 1e308}},
    ]
    outputs = []
    for i, data in enumerate((s8_dict, doc)):
        scenario = tmp_path / f"scenario{i}.json"
        scenario.write_text(json.dumps(data))
        for command in (["solve", "--detail"], ["paths", "--commodity", "a1"]):
            assert main([*command, "-s", str(scenario), "--format", "json"]) == 0
            outputs.append(json.loads(capsys.readouterr().out))
    (base, base_paths, detour, detour_paths) = outputs
    assert {**detour, "digest": base["digest"]} == base
    assert [row[:-1] for row in detour_paths["dist"][:-1]] == base_paths["dist"]
    assert detour_paths["dist"][0][-1] == 1e308


@pytest.mark.parametrize(
    "also, message",
    [
        ((), "edges[1]: self-loop at node 'x1'"),
        # every per-edge error comes first, and the self-loop before any recipe error
        ((("edges", 5, "cost", "a1"), -1), "edges[5] cost for a1 must be a finite number >= 0"),
        ((("recipes", "b1", "a1"), -1), "edges[1]: self-loop at node 'x1'"),
    ],
    ids=["self-loop", "edge-error-first", "recipe-error-after"],
)
def test_self_loop_exits_2_naming_the_edge(s8_dict, tmp_path, capsys, also, message):
    doc = copy.deepcopy(s8_dict)
    doc["edges"][1]["to"] = "x1"
    if also:
        _set(doc, *also)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    assert main(["solve", "-s", str(scenario)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {scenario}: {message}")


# (command, input file, path into it, malformed value, what the error says)
REJECTED = [
    ("transport", "transport_2x2", ("supply",), ["a"], "supply[0] must be a number"),
    ("transport", "transport_2x2", ("supply", 0), True, "supply[0] must be a number, got True"),
    ("transport", "transport_2x2", ("costs",), [1], "costs[0] must be a list"),
    ("transport", "transport_2x2", ("demand", 0), math.inf, "demand[0] must be a finite number"),
    ("load", "loading_small", ("items", 0), 3, "items[0] must be an object"),
    ("load", "loading_small", ("items", 1, "profit"), math.nan, "items[1].profit must be a finite"),
    ("plan", "plan_small", ("profit", 1), math.nan, "profit[1] must be a finite number"),
    ("load", "loading_small", ("capacity",), 1e12, "needs a table of 4000000000004 cells"),
    (
        "load",
        "loading_small",
        ("capacity",),
        1e308,
        "capacity about 10^308 (in units of --quantum) needs a table of about 10^309 cells",
    ),
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
        ("grid_costs",),
        {"a1": {"horizontal": 1, "vertical": -1}},
        "grid_costs[a1].vertical must be a finite number >= 0, got -1.0",
    ),
    ("load", "loading_small", ("items", 0, "weight"), 1.4, "items[0].weight / quantum must be an"),
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
    ("load", "loading_small", ("capacity",), -1, "capacity must be >= 0"),
    ("load", "loading_small", ("items", 0, "profit"), -1, "item crate: profit must be >= 0"),
    ("plan", "plan_small", ("lower", 0), -1, "lower[0] must be >= 0, got -1.0"),
    (
        "plan",
        "plan_small",
        ("resource_use", 0, 0),
        -1,
        "plan instance: resource_use[0][0] must be >= 0, got -1.0",
    ),
    (
        "plan",
        "plan_small",
        ("resource_limits", 0),
        -0.5,
        "plan instance: resource_limits[0] must be >= 0, got -0.5",
    ),
    ("transport", "transport_2x2", ("costs", 1, 0), -2, "costs[1][0] must be >= 0, got -2.0"),
    ("transport", "transport_2x2", ("demand", 1), -1, "demand[1] must be >= 0, got -1.0"),
    # float() reads these strings as 10, 15, 5 and 0.2
    ("transport", "transport_2x2", ("supply", 0), "10", "supply[0] must be a number, got '10'"),
    ("transport", "transport_2x2", ("demand", 1), "1_5", "demand[1] must be a number, got '1_5'"),
    (
        "solve",
        "example_s8",
        ("demand", "stores", "x14", "b1"),
        " 5 ",
        "demand for x14: b1 units must be a number, got ' 5 '",
    ),
    (
        "solve",
        "example_s8",
        ("handling_rate",),
        "2e-1",
        "handling_rate must be a number, got '2e-1'",
    ),
    ("load", "loading_small", ("items", 0, "name"), 5, "items[0].name must be a string, got 5"),
]


@pytest.mark.parametrize(
    "command, name, path, value, message", REJECTED, ids=[c[-1] for c in REJECTED]
)
def test_malformed_input_exits_2_naming_the_field(
    tmp_path, capsys, command, name, path, value, message
):
    doc = json.loads((FIXTURES / f"{name}.json").read_text())
    _set(doc, path, value)
    instance = tmp_path / "input.json"
    instance.write_text(json.dumps(doc))
    args = ["-s", str(instance)] if command == "solve" else [str(instance)]
    assert main([command, *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("products, count", [(2, "about 10^309"), (15, "about 10^4620")])
def test_huge_integer_box_refusal_stays_short(tmp_path, capsys, products, count):
    """plan_small with upper[0] = 1e308, alone or repeated as 15 products: a
    count of 310 digits, or of more than the 4,300 that str() converts, is
    refused with its power of ten."""
    doc = json.loads((FIXTURES / "plan_small.json").read_text())
    doc["upper"][0] = 1e308
    if products > 2:
        doc.update({key: doc[key][:1] * products for key in ("lower", "upper", "profit")})
        doc["resource_use"] = doc["resource_use"][:1] * products
    instance = tmp_path / "plan.json"
    instance.write_text(json.dumps(doc))
    assert main(["plan", "--integer", str(instance)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: integer mode refused: {count} candidate plans > 10^6\n"
    assert len(err) < 100


# Per subcommand: its fixture, the arguments before and after the file, and
# where a string of odd text goes in the fixture's text (the X).
TEXT_CASES = {
    "solve": ("example_s8", ("-s",), (), ('"example_s8"', '"s8-X"')),
    "paths": ("example_s8", ("-s",), ("--commodity", "a1"), ('"example_s8"', '"s8-X"')),
    "transport": ("transport_2x2", (), (), ("{", '{"note": "X", ')),
    "load": ("loading_small", (), (), ('"crate"', '"crateX"')),
    "plan": ("plan_small", (), (), ("{", '{"note": "X", ')),
}
# How the X is written into the file's bytes, and the encoding and reason the
# refusal names.
SURROGATE = "surrogates not allowed"
NOT_TEXT = {
    "byte 0xff": (lambda t: t.encode().replace(b"X", b"\xff"), "utf-8", "invalid start byte"),
    "escape ud800": (lambda t: t.replace("X", "\\ud800").encode(), "utf-8", SURROGATE),
    "escape uDC00": (lambda t: t.replace("X", "\\uDC00").encode(), "utf-8", SURROGATE),
    "raw surrogate": (
        lambda t: t.replace("X", "\ud800").encode("utf-8", "surrogatepass"),
        "utf-8",
        "invalid continuation byte",
    ),
    "utf-16 surrogate": (
        lambda t: t.replace("X", "\ud800").encode("utf-16", "surrogatepass"),
        "utf-16-le",
        "illegal UTF-16 surrogate",
    ),
}
TEXT = {
    "surrogate pair": lambda t: t.replace("X", "\\ud83d\\ude00").encode(),
    "escaped backslash": lambda t: t.replace("X", "\\\\ud800").encode(),
    "utf-16": lambda t: t.replace("X", "\U0001f600").encode("utf-16"),
    "utf-8 with BOM": lambda t: t.replace("X", "\u00e9").encode("utf-8-sig"),
}


def _run_on_text(tmp_path, command, write, fmt) -> tuple[int, str]:
    """Exit code of ``command`` on its fixture with the odd string written by
    ``write``, and the file's path."""
    name, before, after, (old, new) = TEXT_CASES[command]
    text = (FIXTURES / f"{name}.json").read_text().replace(old, new, 1)
    path = tmp_path / "input.json"
    path.write_bytes(write(text))
    return main([command, *before, str(path), *after, "--format", fmt]), str(path)


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("variant", list(NOT_TEXT))
@pytest.mark.parametrize("command", list(TEXT_CASES))
def test_input_that_is_not_text_exits_2_naming_the_file(tmp_path, capsys, command, variant, fmt):
    write, encoding, reason = NOT_TEXT[variant]
    code, path = _run_on_text(tmp_path, command, write, fmt)
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == f"error: {path}: not valid {encoding} text: {reason}\n"


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("variant", list(TEXT))
@pytest.mark.parametrize("command", list(TEXT_CASES))
def test_encoded_text_still_loads(tmp_path, capsys, command, variant, fmt):
    code, _ = _run_on_text(tmp_path, command, TEXT[variant], fmt)
    out, err = capsys.readouterr()
    assert (code, err) == (0, "") and out


# Each subcommand on its fixture.
FIXTURE_RUNS = {
    command: (FIXTURES / f"{name}.json", before, after)
    for command, (name, before, after, _) in TEXT_CASES.items()
}


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("command", list(FIXTURE_RUNS))
def test_out_file_holds_the_stdout_bytes(tmp_path, command, fmt):
    path, before, after = FIXTURE_RUNS[command]
    args = [command, *before, str(path), *after, "--format", fmt]
    proc = run_cli(*args, text=False, PYTHONUTF8="1")
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert main([*args, "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out").read_bytes() == proc.stdout


def test_file_name_that_is_not_utf8_writes_to_out(tmp_path):
    """The header carries the file name's undecodable byte; ``--out`` writes
    it back unchanged, as stdout does."""
    path = tmp_path / os.fsdecode(b"t\xff.json")
    path.write_bytes((FIXTURES / "transport_2x2.json").read_bytes())
    shown = run_cli("transport", path, text=False, PYTHONUTF8="1")
    assert (shown.returncode, shown.stderr) == (0, b"")
    assert shown.stdout.startswith(b"# placenet transport instance=t\xff.json ")
    written = run_cli("transport", path, "--out", tmp_path / "out", text=False, PYTHONUTF8="1")
    assert (written.returncode, written.stdout, written.stderr) == (0, b"", b"")
    assert (tmp_path / "out").read_bytes() == shown.stdout


@pytest.mark.parametrize(
    "env",
    [
        {"PYTHONIOENCODING": "ascii"},
        {"PYTHONIOENCODING": "latin-1"},
        {"LC_ALL": "C", "PYTHONUTF8": "0"},
    ],
    ids=["ascii", "latin-1", "C locale"],
)
def test_stdout_is_utf8_whatever_the_locale(tmp_path, env):
    path = tmp_path / "s8.json"
    text = (FIXTURES / "example_s8.json").read_text(encoding="utf-8")
    path.write_text(text.replace('"example_s8"', '"s8-€"'), encoding="utf-8")
    expected = run_cli("solve", "-s", path, text=False, PYTHONUTF8="1")
    assert expected.stdout.startswith("# placenet solve scenario=s8-€ ".encode())
    proc = run_cli("solve", "-s", path, text=False, **env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected.stdout, b"")


def test_text_only_stdout_gets_the_text(capsys):
    """A caller may swap in a stream without a byte buffer."""
    args = ["solve", "-s", str(FIXTURES / "example_s8.json")]
    assert main(args) == 0
    expected = capsys.readouterr().out
    with contextlib.redirect_stdout(io.StringIO()) as stream:
        assert main(args) == 0
    assert stream.getvalue() == expected


# (subcommand, JSON text) of each json block in docs/formats.md; the
# subcommand is the first one its section heading names.
FORMATS = (REPO_ROOT / "docs" / "formats.md").read_text(encoding="utf-8")
DOC_EXAMPLES = [
    (re.search(r"`(\w+)`", section.split("\n", 1)[0]).group(1), block)
    for section in FORMATS.split("\n## ")[1:]
    for block in re.findall(r"^```json\n(.*?)^```", section, re.M | re.S)
]


@pytest.mark.parametrize("command, text", DOC_EXAMPLES, ids=[c for c, _ in DOC_EXAMPLES])
def test_documented_example_runs(tmp_path, capsys, command, text):
    path = tmp_path / "example.json"
    path.write_text(text)
    args = ["-s", str(path)] if command == "solve" else [str(path)]
    assert main([command, *args]) == 0, capsys.readouterr().err


def test_every_input_format_has_an_example():
    assert sorted(command for command, _ in DOC_EXAMPLES) == ["load", "plan", "solve", "transport"]


SOLVER_FIXTURES = {
    "transport_2x2": "transport",
    "transport_unbalanced": "transport",
    "loading_small": "load",
    "plan_small": "plan",
}
SOLVER_OPTIONS = {
    "transport": [()],
    "load": [(), ("--quantum", "0.5"), ("--quantum", "3"), ("--capacity", "0"), ("--capacity", "7.5")],
    "plan": [(), ("--integer",)],
}
FUZZ_VALUES = ["x", None, [1, 2], -3, 1e308, 0.5]


def _key_paths(node, prefix=()):
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield from _key_paths(value, prefix + (key,))


def _mutate(rng: random.Random, doc: dict) -> tuple[dict, str]:
    """One mutation of ``doc``: a dropped key or element, a swapped-in value, or a
    list grown or shrunk by one element."""
    doc = copy.deepcopy(doc)
    path = rng.choice(list(_key_paths(doc))[1:])
    *keys, last = path
    parent = doc
    for key in keys:
        parent = parent[key]
    target, kind = parent[last], rng.choice(("drop", "swap", "resize"))
    if kind == "drop":
        del parent[last]
    elif kind == "resize" and isinstance(target, list):
        if target and rng.random() < 0.5:
            target.pop()
        else:
            target.append(copy.deepcopy(rng.choice(target)) if target else 1)
    else:
        parent[last] = copy.deepcopy(rng.choice(FUZZ_VALUES))
    return doc, f"{kind} {path}: {json.dumps(doc)}"


@pytest.mark.parametrize("name", list(SOLVER_FIXTURES))
def test_mutated_solver_fixtures_exit_cleanly(tmp_path, capsys, name):
    """Every mutated solver input ends in exit 0, 2 or 3, the same in both formats."""
    command = SOLVER_FIXTURES[name]
    base = json.loads((FIXTURES / f"{name}.json").read_text())
    rng = random.Random(f"solver-fuzz-{name}")
    instance = tmp_path / "input.json"
    seen = set()
    for _ in range(80):
        doc, what = _mutate(rng, base)
        extra = rng.choice(SOLVER_OPTIONS[command])
        instance.write_text(json.dumps(doc))
        try:
            codes = [
                main([command, str(instance), *extra, "--format", fmt]) for fmt in ("table", "json")
            ]
        except Exception as exc:  # noqa: BLE001 - any exception is the failure being tested
            pytest.fail(f"{what} {extra}: {exc!r}")
        capsys.readouterr()
        assert codes[0] in (0, 2, 3) and codes[0] == codes[1], (what, extra, codes)
        seen.add(codes[0])
    assert {0, 2} <= seen


# Per fixture: the runs of each mutated copy, "{}" standing for its path.
SWEEP_RUNS = {
    "example_s8": [("solve", "-s", "{}"), ("paths", "-s", "{}", "--commodity", "b1")],
    "transport_2x2": [("transport", "{}")],
    "transport_unbalanced": [("transport", "{}")],
    "loading_small": [("load", "{}")],
    "plan_small": [("plan", "{}"), ("plan", "{}", "--integer")],
}
DELETE = object()
SWEEP_VALUES = [DELETE, None, True, False, 0, -1, 0.5, 1e308, -1e308, 10**400, "", "x", " 5 "]
SWEEP_VALUES += [[], [1], {}, {"a": 1}, math.nan, math.inf]
SWEEP_SAMPLE = 200  # mutations per fixture, of 133 to 11,913


@pytest.mark.parametrize("name", list(SWEEP_RUNS))
def test_mutation_sweep_exits_cleanly(tmp_path, capsys, name):
    """Each node of the fixture deleted or set to an odd value: every run exits 0,
    2 or 3 with no warning, and a refusal is one line that says which kind."""
    base = json.loads((FIXTURES / f"{name}.json").read_text())
    mutations = [(path, value) for path in list(_key_paths(base))[1:] for value in SWEEP_VALUES]
    rng = random.Random(f"mutation-sweep-{name}")
    instance = tmp_path / "input.json"
    seen = set()
    for path, value in rng.sample(mutations, min(len(mutations), SWEEP_SAMPLE)):
        doc = copy.deepcopy(base)
        if value is DELETE:
            *keys, last = path
            del functools.reduce(operator.getitem, keys, doc)[last]
        else:
            _set(doc, path, copy.deepcopy(value))
        instance.write_text(json.dumps(doc))
        for run in SWEEP_RUNS[name]:
            argv = [arg.format(instance) for arg in run]
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    code = main(argv)
            except Exception as exc:  # noqa: BLE001 - any exception is the failure being tested
                pytest.fail(f"{argv[0]} with {path} = {value!r}: {exc!r}")
            err = capsys.readouterr().err.splitlines()
            refused = len(err) == 1 and err[0].startswith(("error:", "infeasible:"))
            assert (code in (2, 3) and refused) or (code == 0 and err == []), (argv, path, value, err)
            seen.add(code)
    assert {0, 2} <= seen


def _grow_number(value):
    """An int v as 2v + 1 and a float v as 1.5v + 0.5; None for any other leaf."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return 2 * value + 1 if isinstance(value, int) else 1.5 * value + 0.5


def _sweep_input(tmp_path, name):
    """The document and argv that the sweeps run for a named input: a fixture,
    or the toy ``synth-transit`` scenario, under ``solve --detail`` (under
    ``load`` for ``loading_small``)."""
    if name == "synth-transit-toy":
        source = bench_scenario("synth-transit", 11, tmp_path / "toy", toy=True)
    else:
        source = FIXTURES / f"{name}.json"
    argv = ["load", "{}"] if name == "loading_small" else ["solve", "--detail", "-s", "{}"]
    return json.loads(source.read_text()), argv


def _effects(tmp_path, argv, doc, mutate=_grow_number):
    """The payload of ``argv`` ("{}" standing for the path of ``doc``) in
    ``--format json`` less its digest, and, in document order, per leaf of
    ``doc`` for which ``mutate`` returns a value other than None: its path, the
    document with that leaf replaced by the value, and whether that changes the
    exit code or the payload."""
    instance, out = tmp_path / "input.json", tmp_path / "payload.json"

    def outcome(doc):
        instance.write_text(json.dumps(doc))
        out.unlink(missing_ok=True)
        code = main([*(arg.format(instance) for arg in argv), "--format", "json", "--out", str(out)])
        payload = json.loads(out.read_text()) if code == 0 else {}
        payload.pop("digest", None)
        return code, payload

    base, effects = outcome(doc), []
    for path in list(_key_paths(doc))[1:]:
        changed = mutate(functools.reduce(operator.getitem, path, doc))
        if changed is None:
            continue
        mutated = copy.deepcopy(doc)
        _set(mutated, path, changed)
        effects.append((path, mutated, outcome(mutated) != base))
    return base[1], effects


def _used_legs(scenario, payload):
    """Per commodity, the cells of its route cost array that the situations of
    a ``solve --detail`` payload use: each plant's raw legs from its raw
    warehouse, and each shipment's leg through its product warehouse."""
    sites, used = scenario.sites, {}
    for detail in payload["details"]:
        for plant, warehouse in detail["raw_warehouses"].items():
            for raw in scenario.raw_ids:
                cell = sites.raw_warehouses.index(warehouse), sites.plants.index(plant)
                used.setdefault(raw, set()).add(cell)
        for s in detail["shipments"]:
            cell = (
                sites.plants.index(s["plant"]),
                sites.product_warehouses.index(s["warehouse"]),
                sites.stores.index(s["store"]),
            )
            used.setdefault(s["product"], set()).add(cell)
    return used


@pytest.mark.parametrize("name, leaves", [("example_s8", 257), ("synth-transit-toy", 128)])
def test_every_scenario_number_has_an_effect(tmp_path, capsys, name, leaves):
    """Each numeric leaf of the scenario, changed on its own, changes the
    ``solve --detail`` payload or the exit code, unless it is inert by one of
    two rules, checked here:
    (a) a node coordinate or an edge cost whose change leaves the cost of
        every leg that a situation uses as it was: without ``grid_costs``
        nothing reads a coordinate (example_s8's 36), and a dearer leg that
        no situation chose stays unchosen;
    (b) a plant capacity that no plant pair's allocation reaches (the toy's
        p4 is the second plant of every pair it is in, taking the remainder).
    """
    from placenet import Scenario, costflow, production

    doc, argv = _sweep_input(tmp_path, name)
    base = Scenario.from_dict(doc)
    payload, effects = _effects(tmp_path, argv, doc)
    assert len(effects) == leaves
    legs = _used_legs(base, payload)
    costs = base.raw_costs | base.ship_costs
    totals = costflow.total_demand(base)
    for path, mutated, changed in effects:
        if changed:
            continue
        if path[0] == "nodes" or path[0] == "edges" and path[2] == "cost":
            scenario = Scenario.from_dict(mutated)
            now = scenario.raw_costs | scenario.ship_costs
            for commodity, cells in legs.items():
                assert all(now[commodity][c] == costs[commodity][c] for c in cells), path
            continue
        assert path[:2] == ("production", "capacity"), f"{path} has no effect"
        plant, product = path[2:]
        capacity = base.production.capacity_for(plant, product)
        for pair in itertools.combinations(base.sites.plants, 2):
            if plant in pair:
                split = base.production.splits.get(frozenset(pair))
                outputs = production.allocate_output(
                    totals, pair, base.production.capacity_for, split
                )
                assert outputs[plant][product] < capacity, (path, pair)


@pytest.mark.parametrize(
    "name, leaves", [("example_s8", 172), ("synth-transit-toy", 207), ("loading_small", 2)]
)
def test_every_string_has_an_effect(tmp_path, capsys, name, leaves):
    """Each string leaf, ids, kinds, ``name`` and ``notes`` alike, changed on
    its own changes the payload or the exit code: none is inert."""
    doc, argv = _sweep_input(tmp_path, name)
    _, effects = _effects(tmp_path, argv, doc, lambda v: v + "_x" if isinstance(v, str) else None)
    assert len(effects) == leaves
    assert [path for path, _, changed in effects if not changed] == []


# Solver-fixture leaves whose change leaves the payload as it is, and why.
INERT_SOLVER_LEAVES = {
    ("transport_2x2", ("costs", 0, 1)): "cell (0, 1) is off the optimal basis",
    ("plan_small", ("lower", 0)): "x0 = 8 stays above a lower bound of 1",
    ("plan_small", ("upper", 0)): "x0 = 8 stays below an upper bound of 21",
    ("plan_small", ("upper", 1)): "x1 = 0 stays below an upper bound of 21",
    ("plan_small", ("resource_use", 1, 0)): "x1 = 0 uses none of the resource at any rate",
}


def test_every_solver_number_has_an_effect(tmp_path, capsys):
    """Each numeric leaf of the four solver fixtures, changed on its own,
    changes the payload or the exit code, unless ``INERT_SOLVER_LEAVES`` lists
    it; each listed leaf is inert, so the list stays true."""
    effects = {}
    for name, command in SOLVER_FIXTURES.items():
        doc = json.loads((FIXTURES / f"{name}.json").read_text())
        _, leaves = _effects(tmp_path, [command, "{}"], doc)
        effects.update(((name, path), changed) for path, _, changed in leaves)
    assert {leaf for leaf, changed in effects.items() if not changed} == set(INERT_SOLVER_LEAVES)
    assert len(effects) == 25


OPTIMIZER_NAMES = (
    "LoadingInstance LoadingItem LoadingSolution PlanInstance TransportInstance TransportPlan "
    "balance solve_loading solve_production_plan solve_transportation"
).split()
# Whether the solver module is loaded after `import placenet`, after importing
# the CLI, and after each of the CLI runs listed in the JSON of argv[1].
LAZY_PROBE = """
import json, os, sys
import placenet
loaded = ["placenet.optimizers" in sys.modules]
from placenet import cli
loaded.append("placenet.optimizers" in sys.modules)
for argv in json.loads(sys.argv[1]):
    assert cli.main([*argv, "--out", os.devnull]) == 0, argv
    loaded.append("placenet.optimizers" in sys.modules)
print(loaded)
"""


def test_solvers_load_on_first_use():
    """`import placenet`, `solve` and `paths` never load the solver module; `transport` does."""
    s8 = str(FIXTURES / "example_s8.json")
    runs = [
        ["solve", "-s", s8],
        ["paths", "-s", s8, "--commodity", "a1"],
        ["transport", str(FIXTURES / "transport_2x2.json")],
    ]
    proc = run_python("-c", LAZY_PROBE, json.dumps(runs))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[False, False, False, False, True]\n"


def test_solver_names_resolve_from_the_package():
    import placenet
    from placenet import optimizers

    namespace = {}
    exec(f"from placenet import {', '.join(OPTIMIZER_NAMES)}", namespace)
    for name in OPTIMIZER_NAMES:
        assert namespace[name] is getattr(optimizers, name), name
        assert name in dir(placenet), name
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        placenet.no_such_name


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


# sha256 of `paths --format json` on bench/gen.py's synth-transit scenario,
# seed 0, for a raw and a product, recorded before the edge arrays replaced
# the per-edge objects.
GRID_PATHS_PINS = [
    ("a2", "14f5b799067d359cd0c56b87437b675ae5828cbcddca2030929891ac7a9a0a94"),
    ("b1", "a638cf9eee5c78f3fb179e7f8cc86709340e093e60509a9524e00598f62a09b6"),
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
        assert (proc.stdout, proc.stderr) == ("", "error: no edge carries commodity 'zz'\n")

    @pytest.mark.parametrize("commodity, fmt, digest", PATHS_PINS)
    def test_output_matches_pin(self, tmp_path, commodity, fmt, digest):
        out = tmp_path / "paths.txt"
        args = ["paths", "-s", str(FIXTURES / "example_s8.json"), "--commodity", commodity]
        assert main([*args, "--format", fmt, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("commodity, digest", GRID_PATHS_PINS)
    def test_grid_costs_output_matches_pin(self, tmp_path, commodity, digest):
        """A grid_costs scenario: every edge cost derived from coordinates."""
        out = tmp_path / "paths.json"
        args = ["paths", "-s", str(bench_scenario("synth-transit", 0, tmp_path))]
        assert main([*args, "--commodity", commodity, "--format", "json", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 of `COMMAND FIXTURE --format table [EXTRA]`, recorded from the
# per-command table code that the payload renderers replaced.
TABLE_PINS = [
    ("solve", "example_s8", (), "84bd54a1cc181047a5b89ee6428897e9be4e88dc35750f5e67973f8410db8cb8"),
    ("solve", "example_s8", ("--no-header",), "d0be85db674bbdfb0992884a3db8dc82edb4684945aed97c1054245d71549f8f"),
    ("solve", "example_s8", ("--detail",), "72cffa99349d72a7cb6d0a59823f0b50489590cc5364217aadd66b3061fbb4d2"),
    ("solve", "example_s8", ("--detail", "--no-header"), "a9006f51d188089cbebbd5b4478261e6f7a32844fc7e1aeafa27e7971792d226"),
    ("transport", "transport_2x2", (), "528140cc9772ca83f750267bc436f03e32fab8aeef178ad35be7aeb43014d380"),
    ("transport", "transport_2x2", ("--no-header",), "ebb8d1b7dcb5628716d3bb2e18f2ef32ad8d568acd07173b2c334ec99924f358"),
    ("transport", "transport_unbalanced", (), "1a12d042bdea1647f7d4599bf33409880315fad459031666e3923d5ece233eb7"),
    ("transport", "transport_unbalanced", ("--no-header",), "cae66760d18562c0e7e64847f7f993689ed6a38ee473620417cc3406e36c6596"),
    ("load", "loading_small", (), "8a9e31500244bf67f3bd81640571319bd955676464bd16a1a9aff33eb88b016d"),
    ("load", "loading_small", ("--no-header",), "4cfd65dcfabb51ad7513f3529ad8f55611cf5a6759c93f1b5d0f9d84e82b4949"),
    ("plan", "plan_small", (), "3b22866f89ac3a900a1266058802be04fa06ac7da7d036d742451f6e2d7b791f"),
    ("plan", "plan_small", ("--no-header",), "ac52af1948a9dd25e4a14908833b88b03890c64043f3fdb2dbfb0c6acb6ba6e5"),
    ("plan", "plan_small", ("--integer",), "3b22866f89ac3a900a1266058802be04fa06ac7da7d036d742451f6e2d7b791f"),
    ("plan", "plan_small", ("--integer", "--no-header"), "ac52af1948a9dd25e4a14908833b88b03890c64043f3fdb2dbfb0c6acb6ba6e5"),
    ("paths", "example_s8", ("--commodity", "a1"), "4834a149262917d19e74aed4c14c7846f95a41a4b43e19d50f145d322fa7164e"),
    ("paths", "example_s8", ("--commodity", "a1", "--no-header"), "fd68b8917f5c985676bbf748063ef3e4f71cf455b54a69fdd2726e74fc195355"),
]


@pytest.mark.parametrize("command, name, extra, digest", TABLE_PINS)
def test_table_output_matches_pin(tmp_path, command, name, extra, digest):
    out = tmp_path / "table.txt"
    source = str(FIXTURES / f"{name}.json")
    args = [command, "-s", source] if command in ("solve", "paths") else [command, source]
    assert main([*args, *extra, "--format", "table", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _overflowed(what: str) -> str:
    return f"error: the {what} overflowed; the input numbers are too large\n"


PLAN_OVERFLOW = json.loads((FIXTURES / "plan_small.json").read_text()) | {"profit": [1e308, 1e308]}
# (command and case, instance, flags, exit code, stderr) of instances whose
# numbers pass the float range inside a solver: the message alone, no warning.
OVERFLOWS = [
    ("plan", PLAN_OVERFLOW, (), 2, _overflowed("plan objective")),
    ("plan-integer", PLAN_OVERFLOW, ("--integer",), 2, _overflowed("plan objective")),
    (
        # after the 1.7e308 pivot the entering column's positive entries are
        # about 6e-309, below the eligibility threshold: no row leaves
        "plan-lost-scale",
        {
            "lower": [0.0, 0.5],
            "upper": [2e-09, 3.0],
            "resource_use": [[1.7e308, 3.0], [1.0, 0.5]],
            "resource_limits": [1e15, 0.5],
            "profit": [0.5, 1.7e308],
        },
        (),
        2,
        "error: the plan tableau lost its scale; the input numbers are too large\n",
    ),
    (
        "load-dp",
        {"capacity": 5, "items": [{"weight": 1, "profit": 1e308}, {"weight": 1, "profit": 1e308}]},
        (),
        2,
        _overflowed("loading objective"),
    ),
    (
        "transport-reduced-cost",
        {"supply": [2, 3], "demand": [3, 1e308, 3], "costs": [[0, 0, 1e308], [1e308, 1.7e308, 0]]},
        (),
        2,
        _overflowed("transport objective"),
    ),
    (
        "transport-solved",
        {
            "supply": [2, 3, 1],
            "demand": [3, 2, 1e308, 1],
            "costs": [
                [1.5e308, 1e308, 0, 1.5e308],
                [1e308, 1e307, 1.5e308, 0],
                [1e307, 1, 1e307, 0],
            ],
        },
        (),
        0,
        "",
    ),
]


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

    def test_transport_pivot_limit_exits_3(self, tmp_path, monkeypatch, capsys):
        # The northwest corner is the diagonal; the optimum, the anti-diagonal,
        # takes two pivots.
        path = tmp_path / "transport.json"
        path.write_text(
            json.dumps(
                {
                    "supply": [10, 10, 10],
                    "demand": [10, 10, 10],
                    "costs": [[9, 9, 1], [9, 1, 9], [1, 9, 9]],
                }
            )
        )
        assert main(["transport", str(path)]) == 0
        assert "objective L = 30" in capsys.readouterr().out
        monkeypatch.setattr("placenet.optimizers._MAX_PIVOTS", 1)
        assert main(["transport", str(path)]) == 3
        assert capsys.readouterr().err == (
            "infeasible: the transportation solver hit its pivot limit (1) before an optimum\n"
        )

    @pytest.mark.parametrize(
        "supply, demand, side",
        [([1e308, 1e308], [1e308], "supply"), ([1e308], [1e308, 1e308], "demand"),
         ([1e308, 1e308], [1e308, 1e308], "supply")],
        ids=["supply", "demand", "both"],
    )
    def test_transport_total_past_the_float_range_exits_2(
        self, tmp_path, capsys, supply, demand, side
    ):
        # An inf total passes balance's rounding test (inf - 1e308 is within
        # n * 2**-52 * inf), so half of a 2e308 supply would ship with exit 0.
        path = tmp_path / "transport.json"
        costs = [[1] * len(demand) for _ in supply]
        path.write_text(json.dumps({"supply": supply, "demand": demand, "costs": costs}))
        assert main(["transport", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {side} total is past the float range\n")

    def test_load_fixture(self):
        proc = run_cli("load", FIXTURES / "loading_small.json", "--format", "json")
        payload = json.loads(proc.stdout)
        assert payload["counts"] == {"crate": 1, "pallet": 1}
        assert payload["objective"] == 7

    def test_load_capacity_override_zero(self):
        proc = run_cli("load", FIXTURES / "loading_small.json", "--capacity", "0")
        assert proc.returncode == 0
        assert "objective z = 0" in proc.stdout

    @pytest.mark.parametrize("document", [[1, 2], "x", [[1, 2]]], ids=["list", "string", "pairs"])
    def test_load_capacity_on_a_non_object_exits_2(self, tmp_path, capsys, document):
        # --capacity used to merge into the document before it was checked
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(document))
        for extra in ([], ["--capacity", "5"]):
            assert main(["load", str(path), *extra]) == 2
            out = capsys.readouterr()
            assert (out.out, out.err) == (
                "",
                f"error: loading instance must be an object, got {document!r}\n",
            )

    @pytest.mark.parametrize("quantum", ["0", "-1"])
    def test_load_nonpositive_quantum_exits_2(self, capsys, quantum):
        assert main(["load", str(FIXTURES / "loading_small.json"), f"--quantum={quantum}"]) == 2
        assert capsys.readouterr().err == "error: quantum must be > 0\n"

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

    def test_plan_integer_below_a_fractional_lower_bound_exits_3(self, tmp_path):
        path = tmp_path / "plan.json"
        doc = {"lower": [0.5], "upper": [2], "resource_use": [[1]], "resource_limits": [0.7]}
        path.write_text(json.dumps(doc | {"profit": [3]}))
        assert run_cli("plan", path).returncode == 0  # x = 0.7 in the continuous plan
        proc = run_cli("plan", path, "--integer")
        assert proc.returncode == 3
        assert proc.stderr == "infeasible: no integer plan satisfies the resource limits\n"

    @pytest.mark.parametrize(
        "command, doc, extra, code, stderr", OVERFLOWS, ids=[c[0] for c in OVERFLOWS]
    )
    def test_solver_overflow_prints_only_the_error(
        self, tmp_path, command, doc, extra, code, stderr
    ):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(doc))
        proc = run_cli(command.split("-")[0], path, *extra)
        assert (proc.returncode, proc.stderr) == (code, stderr)


# Each subcommand's own flags; every subcommand also takes --format, --out and --no-header.
OWN_FLAGS = {
    "solve": ("--scenario", "--warehouse-selection", "--normalize", "--detail"),
    "paths": ("--scenario", "--commodity"),
    "transport": ("instance",),
    "load": ("instance", "--quantum", "--capacity"),
    "plan": ("instance", "--integer"),
}


@pytest.mark.parametrize("command", list(OWN_FLAGS))
def test_subcommand_help_lists_its_flags(capsys, command):
    with pytest.raises(SystemExit) as exited:
        main([command, "--help"])
    assert exited.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--format", "--out", "--no-header", *OWN_FLAGS[command]):
        assert re.search(rf"^  {flag}\b", out, re.MULTILINE), flag


def test_only_a_checking_or_deriving_constructor_makes_a_dataclass():
    """A record whose constructor only stores its fields is a NamedTuple."""
    import placenet

    plain = []
    for info in pkgutil.iter_modules(placenet.__path__):
        module = importlib.import_module(f"placenet.{info.name}")
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                if dataclasses.is_dataclass(cls) and "__post_init__" not in vars(cls):
                    plain.append(cls.__qualname__)
    assert plain == []
