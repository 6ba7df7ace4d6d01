"""Command-line front end.

Subcommands: solve, paths, transport, load, plan.  Exit codes: 0 on success,
2 on invalid input, 3 on infeasible instances.  Output goes to stdout or
--out; the table header line (run metadata, no timestamps) can be dropped
with --no-header, and JSON output never carries one so it always parses.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

from . import agents, compromise, costflow, optimizers, report
from .errors import InfeasibleError, ScenarioError
from .network import shortest_paths
from .scenario import load_scenario

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("table", "json"), default="table")
    parser.add_argument("--out", type=Path, default=None, help="write output to a file")
    parser.add_argument("--no-header", action="store_true", help="drop the metadata header line")


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text, encoding="utf-8")


def _load_instance_file(path: Path) -> tuple[dict, str]:
    try:
        raw = path.read_bytes()
        return json.loads(raw), hashlib.sha256(raw).hexdigest()
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: not valid JSON: line {exc.lineno}: {exc.msg}") from exc


def _header(command: str, name: str, digest: str, key: str = "instance") -> str:
    return f"# placenet {command} {key}={name} digest=sha256:{digest}\n"


def cmd_solve(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    skipped: list[tuple[tuple[str, str], str]] = []
    situations = agents.enumerate_situations(
        scenario, warehouse_mode=args.warehouse_selection, skipped=skipped
    )
    matrix = agents.evaluate_all(scenario, situations)
    result = compromise.compromise_select(matrix, normalize=args.normalize)
    built = report.build_report(
        scenario, situations, matrix, result, skipped, include_details=args.detail
    )
    if args.format == "json":
        _emit(report.render_json(built.to_dict()), args.out)
    else:
        _emit(report.render_table(built, header=not args.no_header), args.out)
    return EXIT_OK


def cmd_paths(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    scenario.check_carried(args.commodity)
    labels = scenario.node_labels
    dist = shortest_paths(scenario.network, args.commodity, range(len(labels)))
    if args.format == "json":
        payload = {
            "scenario": scenario.name,
            "digest": scenario.digest,
            "commodity": args.commodity,
            "nodes": list(labels),
            "dist": [[None if math.isinf(v) else float(v) for v in row] for row in dist],
        }
        _emit(report.render_json(payload), args.out)
        return EXIT_OK
    lines = []
    if not args.no_header:
        lines.append(_header("paths", scenario.name, scenario.digest, "scenario").rstrip("\n"))
    lines.append(f"shortest-path costs, commodity {args.commodity}")
    width = max(len(label) for label in labels) + 1

    def fmt(v: float) -> str:
        return "inf" if math.isinf(v) else f"{v:g}"

    lines.append(" " * width + "".join(label.rjust(width) for label in labels))
    for i, label in enumerate(labels):
        lines.append(
            label.rjust(width) + "".join(fmt(dist[i, j]).rjust(width) for j in range(len(labels)))
        )
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_transport(args: argparse.Namespace) -> int:
    data, digest = _load_instance_file(args.instance)
    plan = optimizers.solve_transportation(optimizers.TransportInstance.from_dict(data))
    if args.format == "json":
        payload = {
            "digest": digest,
            "allocation": [list(row) for row in plan.allocation],
            "objective": plan.objective,
            "balanced_input": plan.balanced,
            "fictitious": list(plan.fictitious) if plan.fictitious else None,
            "basis": [list(cell) for cell in plan.basis],
        }
        _emit(report.render_json(payload), args.out)
        return EXIT_OK
    lines = []
    if not args.no_header:
        lines.append(_header("transport", args.instance.name, digest).rstrip("\n"))
    if plan.fictitious:
        kind, index = plan.fictitious
        lines.append(f"unbalanced input: added fictitious {kind} #{index} at zero cost")
    for row in plan.allocation:
        lines.append("  ".join(f"{v:g}" for v in row))
    lines.append(f"objective L = {plan.objective:g}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_load(args: argparse.Namespace) -> int:
    data, digest = _load_instance_file(args.instance)
    if args.capacity is not None:
        data = dict(data, capacity=args.capacity)
    instance = optimizers.LoadingInstance.from_dict(data, quantum=args.quantum)
    solution = optimizers.solve_loading(instance)
    if args.format == "json":
        payload = {
            "digest": digest,
            "counts": dict(solution.counts),
            "objective": solution.objective,
        }
        _emit(report.render_json(payload), args.out)
        return EXIT_OK
    lines = []
    if not args.no_header:
        lines.append(_header("load", args.instance.name, digest).rstrip("\n"))
    for name, count in solution.counts.items():
        lines.append(f"{name}: {count}")
    lines.append(f"objective z = {solution.objective:g}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_plan(args: argparse.Namespace) -> int:
    data, digest = _load_instance_file(args.instance)
    instance = optimizers.PlanInstance.from_dict(data)
    x, objective = optimizers.solve_production_plan(instance, integer=args.integer)
    if args.format == "json":
        payload = {"digest": digest, "x": list(x), "objective": objective}
        _emit(report.render_json(payload), args.out)
        return EXIT_OK
    lines = []
    if not args.no_header:
        lines.append(_header("plan", args.instance.name, digest).rstrip("\n"))
    lines.append("x = " + "  ".join(f"{v:g}" for v in x))
    lines.append(f"objective L = {objective:g}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="placenet",
        description=(
            "Placement solver for multi-agent supply networks, with the "
            "transportation, loading and production-planning subproblem solvers."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the full placement pipeline on a scenario")
    p_solve.add_argument("--scenario", "-s", type=Path, required=True)
    p_solve.add_argument(
        "--warehouse-selection",
        choices=(costflow.WEIGHTED, costflow.UNIT),
        default=costflow.WEIGHTED,
        help="raw-warehouse scoring: requirement-weighted or unit route cost",
    )
    p_solve.add_argument(
        "--normalize",
        choices=(compromise.NORMALIZE_NONE, compromise.NORMALIZE_BY_IDEAL),
        default=compromise.NORMALIZE_NONE,
        help="residual scaling before the minmax comparison",
    )
    p_solve.add_argument("--detail", action="store_true", help="include per-situation detail")
    _add_common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_paths = sub.add_parser("paths", help="print a commodity's shortest-path cost matrix")
    p_paths.add_argument("--scenario", "-s", type=Path, required=True)
    p_paths.add_argument("--commodity", required=True)
    _add_common(p_paths)
    p_paths.set_defaults(func=cmd_paths)

    p_transport = sub.add_parser("transport", help="solve a transportation instance")
    p_transport.add_argument("instance", type=Path)
    _add_common(p_transport)
    p_transport.set_defaults(func=cmd_transport)

    p_load = sub.add_parser("load", help="solve a loading (unbounded knapsack) instance")
    p_load.add_argument("instance", type=Path)
    p_load.add_argument("--quantum", type=float, default=1.0, help="weight unit for scaling")
    p_load.add_argument("--capacity", type=float, default=None, help="override instance capacity")
    _add_common(p_load)
    p_load.set_defaults(func=cmd_load)

    p_plan = sub.add_parser("plan", help="solve a production-planning instance")
    p_plan.add_argument("instance", type=Path)
    p_plan.add_argument("--integer", action="store_true", help="exhaustive integer mode")
    _add_common(p_plan)
    p_plan.set_defaults(func=cmd_plan)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
