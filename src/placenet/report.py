"""The `solve` report: its JSON payload, and the table rendered from it.

The table form prints money at 2 decimals; the JSON payload keeps full
precision.  Both carry exactly the same numbers and neither embeds run
timestamps, so repeated runs on the same inputs are byte-identical.
"""

from __future__ import annotations

import json
from typing import Any

from . import costflow
from .agents import Situation, agent1_components, storage_income
from .compromise import CompromiseResult, PayoffMatrix
from .scenario import Scenario

# The fields of each `plant_economics` row of a detailed report.
_ECONOMICS_KEYS = ("plant", "product", "quantity", "total_value", "unit_value", "net_profit")


def build_report(
    scenario: Scenario,
    situations: list[Situation],
    matrix: PayoffMatrix,
    result: CompromiseResult,
    skipped: list[tuple[tuple[str, str], str]],
    include_details: bool,
) -> dict[str, Any]:
    """The `solve --format json` payload (see docs/formats.md); `details` only
    when asked, with every situation's shipments built in one batched call."""
    details: list[dict[str, Any]] = []
    if include_details:
        cases = [(s.plants, s.outputs, s.product_warehouses) for s in situations]
        income = storage_income(scenario)
        for situation, flow in zip(situations, costflow.greedy_flows(scenario, cases)):
            components = agent1_components(scenario, situation, income)
            details.append(
                {
                    "situation": situation.label,
                    "raw_warehouses": dict(situation.raw_warehouses),
                    "product_warehouses": list(situation.product_warehouses),
                    "outputs": {p: dict(v) for p, v in situation.outputs.items()},
                    "flow_cost": situation.flow_cost,
                    "shipments": [
                        {"product": product, "store": store, **s._asdict()}
                        for (product, store), entries in sorted(flow.shipments.items())
                        for s in entries
                    ],
                    "plant_economics": [
                        {key: getattr(econ, key) for key in _ECONOMICS_KEYS}
                        for econ in situation.economics.values()
                    ],
                    "agent1_components": components,
                }
            )
    payload = {
        "scenario": scenario.name,
        "digest": scenario.digest,
        "situations": list(matrix.situations),
        "agents": list(matrix.agents),
        "payoffs": matrix.values.tolist(),
        "ideal": result.ideal.tolist(),
        "residuals": result.residuals.tolist(),
        "sorted_residuals": result.sorted_residuals.tolist(),
        "selection": {
            "situations": list(result.selected_labels),
            "deciding_value": float(result.deciding_value),
            "trace": [
                {
                    "depth": step.depth,
                    "value": float(step.value),
                    "survivors": [matrix.situations[i] for i in step.survivors],
                }
                for step in result.trace
            ],
        },
        "notes": list(scenario.notes),
        "skipped": [{"plants": ",".join(pair), "reason": reason} for pair, reason in skipped],
    }
    if details:
        payload["details"] = details
    return payload


def _format_table(title: str, row_labels, col_labels, rows) -> list[str]:
    header = [""] + list(col_labels)
    body = [[label] + [f"{v:.2f}" for v in row] for label, row in zip(row_labels, rows)]
    widths = [max(len(str(line[k])) for line in [header] + body) for k in range(len(header))]
    lines = [title]
    for line in [header] + body:
        lines.append("  ".join(str(cell).rjust(w) for cell, w in zip(line, widths)))
    return lines


def render_table(payload: dict[str, Any]) -> list[str]:
    """The table lines of a `build_report` payload, without the header line."""
    agents, situations = payload["agents"], payload["situations"]
    selection = payload["selection"]
    ranks = [f"rank{i + 1}" for i in range(len(payload["sorted_residuals"]))]
    lines = []
    for table in (
        ("payoff matrix", agents, situations, payload["payoffs"]),
        ("ideal vector", agents, ("ideal",), [[v] for v in payload["ideal"]]),
        ("residuals", agents, situations, payload["residuals"]),
        ("sorted residuals (ascending per situation)", ranks, situations,
         payload["sorted_residuals"]),
    ):
        lines += [*_format_table(*table), ""]
    lines.append(
        f"compromise: {'; '.join(selection['situations'])}  "
        f"(deciding residual {selection['deciding_value']:.2f})"
    )
    for step in selection["trace"]:
        lines.append(
            f"  depth {step['depth']}: value {step['value']:.2f}, "
            f"survivors {', '.join(step['survivors'])}"
        )
    for skip in payload["skipped"]:
        lines.append(f"skipped {skip['plants']}: {skip['reason']}")
    for note in payload["notes"]:
        lines.append(f"note: {note}")
    for detail in payload.get("details", ()):
        lines.append("")
        lines.append(f"-- situation {detail['situation']} --")
        lines.append(f"raw warehouses: {detail['raw_warehouses']}")
        lines.append(f"product warehouses: {', '.join(detail['product_warehouses'])}")
        lines.append(f"outputs: {detail['outputs']}")
        lines.append(f"flow cost: {detail['flow_cost']:.2f}")
        for s in detail["shipments"]:
            lines.append(
                f"  {s['product']} {s['plant']} -> {s['store']} via {s['warehouse']}: "
                f"{s['units']} @ {s['unit_cost']:.2f}"
            )
        for row in detail["plant_economics"]:
            lines.append(
                f"  {row['plant']} {row['product']}: qty {row['quantity']}, value "
                f"{row['total_value']:.2f}, unit {row['unit_value']:.2f}, profit {row['net_profit']:.2f}"
            )
        c = detail["agent1_components"]
        lines.append(
            "  agent1 components: raw {raw_income:.2f} - {raw_cost:.2f}, product "
            "{product_income:.2f} - {product_cost:.2f}, flow {flow_cost:.2f}".format(**c)
        )
    return lines


def render_json(payload: dict[str, Any]) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
