"""Command-line front end.

Subcommands: solve, paths, transport, load, plan.  Exit codes: 0 on success,
2 on invalid input, 3 on infeasible instances.  Each subcommand returns its
JSON payload; `main` prints it as JSON or as the subcommand's table, which is
rendered from that payload alone, to stdout or --out.  `main` writes the table
header line (run metadata, no timestamps), which --no-header drops; JSON
output never carries one so it always parses.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import agents, compromise, costflow, report
from .errors import InfeasibleError, ScenarioError
from .network import shortest_paths
from .scenario import _expect, load_scenario, read_document

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3


def _command(sub, name: str, help: str, func, table) -> argparse.ArgumentParser:
    """A subcommand parser with the shared output flags; ``func`` runs it, ``table`` renders it."""
    parser = sub.add_parser(name, help=help)
    parser.add_argument("--format", choices=("table", "json"), default="table")
    parser.add_argument("--out", type=Path, default=None, help="write output to a file")
    parser.add_argument("--no-header", action="store_true", help="drop the metadata header line")
    parser.set_defaults(func=func, table=table)
    return parser


def cmd_solve(args: argparse.Namespace) -> dict:
    scenario = load_scenario(args.scenario)
    skipped: list[tuple[tuple[str, str], str]] = []
    situations = agents.enumerate_situations(scenario, args.warehouse_selection, skipped)
    if not situations:
        (pair, reason), count = skipped[0], len(skipped)
        raise InfeasibleError(
            f"no feasible situation to evaluate: all {count} plant pairs were skipped; "
            f"first skipped {','.join(pair)}: {reason}"
        )
    matrix = agents.evaluate_all(scenario, situations)
    result = compromise.compromise_select(matrix, normalize=args.normalize)
    return report.build_report(scenario, situations, matrix, result, skipped, args.detail)


def cmd_paths(args: argparse.Namespace) -> dict:
    scenario = load_scenario(args.scenario)
    if args.commodity not in scenario.edges:
        raise scenario.route_error(args.commodity)
    labels, (tails, heads, costs) = scenario.node_labels, scenario.edges[args.commodity]
    dist = shortest_paths(len(labels), (tails, heads, costs), range(len(labels)))
    if np.isinf(dist).any():  # no route, or every route's cost past the float range
        hops = shortest_paths(len(labels), (tails, heads, np.zeros_like(costs)), range(len(labels)))
        for a, b in np.argwhere(np.isinf(dist) & (hops == 0))[:1].tolist():
            raise scenario.route_error(args.commodity, labels[a], labels[b])
    return {
        "scenario": scenario.name,
        "digest": scenario.digest,
        "commodity": args.commodity,
        "nodes": list(labels),
        "dist": [[None if math.isinf(v) else float(v) for v in row] for row in dist],
    }


def _paths_table(payload: dict) -> list[str]:
    labels = payload["nodes"]
    width = max(len(label) for label in labels) + 1
    lines = [f"shortest-path costs, commodity {payload['commodity']}"]
    lines.append(" " * width + "".join(label.rjust(width) for label in labels))
    for label, row in zip(labels, payload["dist"]):
        cells = ("inf" if v is None else f"{v:g}" for v in row)
        lines.append(label.rjust(width) + "".join(cell.rjust(width) for cell in cells))
    return lines


def cmd_transport(args: argparse.Namespace) -> dict:
    from . import optimizers  # loaded here only: solve and paths never need it
    data, digest = read_document(args.instance)
    plan = optimizers.solve_transportation(optimizers.TransportInstance.from_dict(data))
    return {
        "digest": digest,
        "allocation": [list(row) for row in plan.allocation],
        "objective": plan.objective,
        "balanced_input": plan.fictitious is None,
        "fictitious": list(plan.fictitious) if plan.fictitious else None,
        "basis": [list(cell) for cell in plan.basis],
    }


def _transport_table(payload: dict) -> list[str]:
    lines = []
    if payload["fictitious"]:
        kind, index = payload["fictitious"]
        lines.append(f"unbalanced input: added fictitious {kind} #{index} at zero cost")
    lines += ["  ".join(f"{v:g}" for v in row) for row in payload["allocation"]]
    return lines + [f"objective L = {payload['objective']:g}"]


def cmd_load(args: argparse.Namespace) -> dict:
    from . import optimizers
    data, digest = read_document(args.instance)
    if args.capacity is not None:
        data = dict(_expect(data, dict, "loading instance"), capacity=args.capacity)
    instance = optimizers.LoadingInstance.from_dict(data, quantum=args.quantum)
    solution = optimizers.solve_loading(instance)
    return {"digest": digest, "counts": dict(solution.counts), "objective": solution.objective}


def _load_table(payload: dict) -> list[str]:
    lines = [f"{name}: {count}" for name, count in payload["counts"].items()]
    return lines + [f"objective z = {payload['objective']:g}"]


def cmd_plan(args: argparse.Namespace) -> dict:
    from . import optimizers
    data, digest = read_document(args.instance)
    instance = optimizers.PlanInstance.from_dict(data)
    x, objective = optimizers.solve_production_plan(instance, integer=args.integer)
    return {"digest": digest, "x": list(x), "objective": objective}


def _plan_table(payload: dict) -> list[str]:
    return [
        "x = " + "  ".join(f"{v:g}" for v in payload["x"]),
        f"objective L = {payload['objective']:g}",
    ]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="placenet",
        description=(
            "Placement solver for multi-agent supply networks, with the "
            "transportation, loading and production-planning subproblem solvers."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = _command(sub, "solve", "run the full placement pipeline on a scenario", cmd_solve,
                       report.render_table)
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

    p_paths = _command(sub, "paths", "print a commodity's shortest-path cost matrix", cmd_paths,
                       _paths_table)
    p_paths.add_argument("--scenario", "-s", type=Path, required=True)
    p_paths.add_argument("--commodity", required=True)

    p_transport = _command(sub, "transport", "solve a transportation instance", cmd_transport,
                           _transport_table)
    p_transport.add_argument("instance", type=Path)

    p_load = _command(sub, "load", "solve a loading (unbounded knapsack) instance", cmd_load,
                      _load_table)
    p_load.add_argument("instance", type=Path)
    p_load.add_argument("--quantum", type=float, default=1.0, help="weight unit for scaling")
    p_load.add_argument("--capacity", type=float, default=None, help="override instance capacity")

    p_plan = _command(sub, "plan", "solve a production-planning instance", cmd_plan, _plan_table)
    p_plan.add_argument("instance", type=Path)
    p_plan.add_argument("--integer", action="store_true", help="exhaustive integer mode")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload = args.func(args)
        if args.format == "json":
            text = report.render_json(payload)
        else:
            key = "scenario" if "scenario" in payload else "instance"
            name = payload["scenario"] if key == "scenario" else args.instance.name
            header = f"# placenet {args.command} {key}={name} digest=sha256:{payload['digest']}"
            lines = args.table(payload)
            text = "\n".join(lines if args.no_header else [header, *lines]) + "\n"
        data = text.encode("utf-8", "surrogateescape")  # a file name's undecodable bytes
        if args.out is not None:
            try:
                args.out.write_bytes(data)
            except OSError as exc:
                raise ScenarioError(f"cannot write {args.out}: {exc.strerror}") from exc
        elif hasattr(sys.stdout, "buffer"):  # UTF-8 whatever the locale
            sys.stdout.flush()
            sys.stdout.buffer.write(data)
        else:  # a text-only stream a caller swapped in
            sys.stdout.write(text)
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
