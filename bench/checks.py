"""Output checks for every timed op.

Each check returns a list of failure messages; an empty list means the
output is correct.  The references here are written independently of the
package: the minmax selection is recomputed from the report's payoffs, the
loading optimum comes from a separate unbounded-knapsack DP, and the
transportation plan is certified by its own potentials.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

QUANTUM = 1e-9  # the selection's tie quantum
TOL = 1e-9


def minmax_selection(payoffs: list[list[float]]) -> list[int]:
    """Situations chosen by the ideal-vector minmax-residual rule.

    Each situation's residuals (shortfall from each agent's best payoff) are
    sorted ascending; the largest is minimised first and ties, equal at the
    1e-9 quantum, climb to the next-largest row.
    """
    values = np.asarray(payoffs, dtype=float)
    residuals = values.max(axis=1)[:, None] - values
    levels = np.round(np.sort(residuals, axis=0) / QUANTUM).astype(np.int64)
    survivors = np.arange(values.shape[1])
    for row in levels[::-1]:
        kept = row[survivors]
        survivors = survivors[kept == kept.min()]
        if len(survivors) == 1:
            break
    return [int(i) for i in survivors]


def check_report(raw: bytes, pairs: int, digest: str | None) -> list[str]:
    """A `placenet solve --format json` report for a scenario with ``pairs``
    plant pairs, against its pinned sha256 (None when none is pinned)."""
    failures = []
    try:
        report = json.loads(raw)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    counted = len(report["situations"]) + len(report["skipped"])
    if counted != pairs:
        failures.append(f"feasible + skipped = {counted}, expected {pairs} plant pairs")
    expected = [report["situations"][i] for i in minmax_selection(report["payoffs"])]
    if report["selection"]["situations"] != expected:
        failures.append(f"selected {report['selection']['situations']}, recomputed {expected}")
    actual = hashlib.sha256(raw).hexdigest()
    if digest is not None and actual != digest:
        failures.append(f"report sha256 {actual} differs from pinned {digest}")
    return failures


def _balanced(instance: dict) -> tuple[list[float], list[float], np.ndarray]:
    supply, demand = list(instance["supply"]), list(instance["demand"])
    costs = np.asarray(instance["costs"], dtype=float)
    gap = sum(supply) - sum(demand)
    if gap > 0:
        demand.append(gap)
        costs = np.hstack([costs, np.zeros((len(supply), 1))])
    elif gap < 0:
        supply.append(-gap)
        costs = np.vstack([costs, np.zeros((1, len(demand)))])
    return supply, demand, costs


def check_transport(instance: dict, plan) -> list[str]:
    """Sums match supply and demand; the potentials certify optimality."""
    supply, demand, costs = _balanced(instance)
    allocation = np.asarray(plan.allocation, dtype=float)
    if allocation.shape != costs.shape:
        return [f"allocation shape {allocation.shape}, expected {costs.shape}"]
    failures = []
    if allocation.min() < -TOL:
        failures.append("negative allocation")
    if not np.allclose(allocation.sum(axis=1), supply, rtol=0, atol=1e-6):
        failures.append("row sums differ from supply")
    if not np.allclose(allocation.sum(axis=0), demand, rtol=0, atol=1e-6):
        failures.append("column sums differ from demand")
    u, v = (np.asarray(p, dtype=float) for p in plan.potentials)
    reduced = costs - u[:, None] - v[None, :]
    if reduced.min() < -TOL:
        failures.append(f"reduced cost {reduced.min():g} < 0: plan is not optimal")
    basis = tuple(zip(*plan.basis))
    if np.abs(reduced[basis]).max() > TOL:
        failures.append("a basic cell has a nonzero reduced cost")
    if not math.isclose(plan.objective, float((costs * allocation).sum()), rel_tol=TOL):
        failures.append("objective differs from the allocation's cost")
    return failures


def knapsack_optimum(capacity: int, items: list[tuple[int, float]]) -> float:
    """Best profit of any item counts within ``capacity`` (unbounded, O(n*C))."""
    best = [0.0] * (capacity + 1)
    for x in range(1, capacity + 1):
        for weight, profit in items:
            if weight <= x and best[x - weight] + profit > best[x]:
                best[x] = best[x - weight] + profit
    return best[capacity]


def check_loading(instance: dict, solution) -> list[str]:
    items = {item["name"]: (int(item["weight"]), float(item["profit"])) for item in instance["items"]}
    failures = []
    if set(solution.counts) - set(items) or min(solution.counts.values(), default=0) < 0:
        failures.append(f"bad counts {solution.counts}")
        return failures
    weight = sum(items[name][0] * n for name, n in solution.counts.items())
    profit = sum(items[name][1] * n for name, n in solution.counts.items())
    if weight > instance["capacity"]:
        failures.append(f"counts weigh {weight} > capacity {instance['capacity']}")
    if not math.isclose(profit, solution.objective, rel_tol=TOL):
        failures.append(f"counts are worth {profit}, objective says {solution.objective}")
    optimum = knapsack_optimum(int(instance["capacity"]), list(items.values()))
    if not math.isclose(solution.objective, optimum, rel_tol=TOL):
        failures.append(f"objective {solution.objective} differs from the DP optimum {optimum}")
    return failures


def check_plan(instance: dict, x: tuple[float, ...], objective: float, pinned: float | None) -> list[str]:
    xs = np.asarray(x, dtype=float)
    failures = []
    if np.any(xs < np.asarray(instance["lower"]) - TOL) or np.any(xs > np.asarray(instance["upper"]) + TOL):
        failures.append("x leaves its box")
    used = xs @ np.asarray(instance["resource_use"], dtype=float)
    if np.any(used > np.asarray(instance["resource_limits"]) + 1e-6):
        failures.append("x exceeds a resource limit")
    if not math.isclose(objective, float(np.dot(instance["profit"], xs)), rel_tol=TOL):
        failures.append("objective differs from profit . x")
    if pinned is not None and not math.isclose(objective, pinned, rel_tol=TOL):
        failures.append(f"objective {objective!r} differs from pinned {pinned!r}")
    return failures
